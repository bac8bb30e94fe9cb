//! The trace capture library.

use crate::event::IoEvent;
use crate::index::{canonical_order, TraceIndex};
use sioscope_pfs::OpKind;
use sioscope_sim::{FileId, Pid, Time};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Collects [`IoEvent`]s during a simulation run and answers the
/// aggregate queries the paper's tables are built from.
///
/// ```
/// use sioscope_trace::{IoEvent, TraceRecorder};
/// use sioscope_pfs::{IoMode, OpKind};
/// use sioscope_sim::{FileId, Pid, Time};
///
/// let mut trace = TraceRecorder::new();
/// trace.record(IoEvent {
///     pid: Pid(0),
///     file: FileId(0),
///     kind: OpKind::Read,
///     start: Time::ZERO,
///     duration: Time::from_millis(3),
///     bytes: 4096,
///     offset: 0,
///     mode: IoMode::MUnix,
/// });
/// assert_eq!(trace.total_io_time(), Time::from_millis(3));
/// assert_eq!(trace.bytes_by_kind()[&OpKind::Read], 4096);
/// ```
///
/// Aggregate queries are answered through a lazily built, cached
/// [`TraceIndex`] (see [`TraceRecorder::index`]); recording or
/// re-sorting invalidates the cache. Per-kind extractions
/// ([`sizes_of`](TraceRecorder::sizes_of) and the timeline methods)
/// therefore come back in the canonical `(start, pid, file, offset)`
/// order rather than raw recording order — identical on simulator
/// traces, which are sorted before being returned, and a distinction
/// no downstream consumer observes (they all sort or bin their input).
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<IoEvent>,
    /// Lazily built columnar index over `events`. A cloned or
    /// decoded recorder starts with a cold cache.
    index: OnceLock<TraceIndex>,
}

impl Clone for TraceRecorder {
    fn clone(&self) -> Self {
        TraceRecorder {
            events: self.events.clone(),
            index: OnceLock::new(),
        }
    }
}

impl TraceRecorder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `events` events, for callers that
    /// know the final length up front.
    pub fn with_capacity(events: usize) -> Self {
        TraceRecorder {
            events: Vec::with_capacity(events),
            index: OnceLock::new(),
        }
    }

    /// Record one completed operation.
    pub fn record(&mut self, event: IoEvent) {
        self.index.take();
        self.events.push(event);
    }

    /// All events, in recording order (completion order of the
    /// simulation loop).
    pub fn events(&self) -> &[IoEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sort events by `(start, pid, file, offset)` — the canonical
    /// order for analysis, and the same stable order
    /// [`TraceIndex::build`] establishes internally.
    ///
    /// A trace already in that order is left as it is, after one O(n)
    /// check. Otherwise sorts a 4-byte index permutation and then moves
    /// the events into place cycle by cycle, so the only scratch space
    /// is the permutation, never a second copy of the trace.
    pub fn sort(&mut self) {
        let Some(mut perm) = canonical_order(&self.events) else {
            return;
        };
        self.index.take();
        for start in 0..perm.len() {
            // Each cycle of the permutation is walked once: position
            // `cur` receives the event at `perm[cur]`, and every
            // visited position is marked done by pointing it at itself.
            let mut cur = start;
            loop {
                let next = perm[cur] as usize;
                perm[cur] = cur as u32;
                if next == start {
                    break;
                }
                self.events.swap(cur, next);
                cur = next;
            }
        }
    }

    /// The columnar analytics index over this trace, built on first
    /// use and cached until the trace is mutated. Every aggregate
    /// query below routes through it, so multi-query consumers (the
    /// experiment reports, `characterize`) pay for one build instead
    /// of a scan per query: a linear pass on a trace already in
    /// canonical order, as every simulator trace is. The index's
    /// sort-based views (completion order, sorted sizes, file regions)
    /// wait for the first query that needs them.
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| TraceIndex::build(&self.events))
    }

    /// Sum of client-observed durations per operation kind — the raw
    /// material of Tables 2, 3 and 5.
    pub fn duration_by_kind(&self) -> BTreeMap<OpKind, Time> {
        self.index().duration_by_kind()
    }

    /// Total client-observed I/O time (sum over all events).
    ///
    /// Uses the index when it is already built, but never triggers a
    /// build: sweeps call this once per run, where a single O(n) pass
    /// beats constructing the index.
    pub fn total_io_time(&self) -> Time {
        match self.index.get() {
            Some(idx) => idx.total_io_time(),
            None => self.events.iter().map(|e| e.duration).sum(),
        }
    }

    /// Bytes transferred per kind (reads and writes).
    pub fn bytes_by_kind(&self) -> BTreeMap<OpKind, u64> {
        self.index().bytes_by_kind()
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: OpKind) -> impl Iterator<Item = &IoEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events touching one file.
    pub fn of_file(&self, file: FileId) -> impl Iterator<Item = &IoEvent> {
        self.events.iter().filter(move |e| e.file == file)
    }

    /// Events issued by one process.
    pub fn of_pid(&self, pid: Pid) -> impl Iterator<Item = &IoEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// The request sizes of every event of `kind`, for CDF building.
    /// Canonical (start-sorted) order; see the type-level note.
    pub fn sizes_of(&self, kind: OpKind) -> Vec<u64> {
        self.index().sizes_of(kind)
    }

    /// `(start, bytes)` pairs for every event of `kind` — the
    /// timeline scatter data of Figures 3, 4, 8 and 9.
    pub fn timeline_of(&self, kind: OpKind) -> Vec<(Time, u64)> {
        self.index().timeline_of(kind)
    }

    /// `(start, duration)` pairs for every event of `kind` — the seek
    /// duration scatter of Figure 5.
    pub fn duration_timeline_of(&self, kind: OpKind) -> Vec<(Time, Time)> {
        self.index().duration_timeline_of(kind)
    }

    /// Completion time of the last event (zero for an empty trace).
    ///
    /// Like [`total_io_time`](TraceRecorder::total_io_time), uses the
    /// index opportunistically without forcing a build.
    pub fn last_completion(&self) -> Time {
        match self.index.get() {
            Some(idx) => idx.last_completion(),
            None => self
                .events
                .iter()
                .map(|e| e.end())
                .fold(Time::ZERO, Time::max),
        }
    }

    /// Validity check: every duration non-negative by construction
    /// (unsigned), and — per pid — starts are non-decreasing when the
    /// trace is sorted. Returns the number of events violating
    /// per-event invariants (currently: data ops with zero duration
    /// *and* nonzero bytes are suspicious but legal; we only flag
    /// events whose interval overflows).
    pub fn invariant_violations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                e.start
                    .as_nanos()
                    .checked_add(e.duration.as_nanos())
                    .is_none()
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u32, kind: OpKind, start_ms: u64, dur_ms: u64, bytes: u64) -> IoEvent {
        IoEvent {
            pid: Pid(pid),
            file: FileId(0),
            kind,
            start: Time::from_millis(start_ms),
            duration: Time::from_millis(dur_ms),
            bytes,
            offset: 0,
            mode: sioscope_pfs::IoMode::MUnix,
        }
    }

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new();
        t.record(ev(0, OpKind::Open, 0, 10, 0));
        t.record(ev(0, OpKind::Read, 10, 5, 100));
        t.record(ev(1, OpKind::Read, 12, 5, 200));
        t.record(ev(0, OpKind::Write, 20, 2, 50));
        t.record(ev(0, OpKind::Close, 30, 1, 0));
        t
    }

    #[test]
    fn duration_by_kind_sums() {
        let t = sample();
        let d = t.duration_by_kind();
        assert_eq!(d[&OpKind::Read], Time::from_millis(10));
        assert_eq!(d[&OpKind::Open], Time::from_millis(10));
        assert_eq!(d[&OpKind::Write], Time::from_millis(2));
        assert_eq!(t.total_io_time(), Time::from_millis(23));
    }

    #[test]
    fn bytes_by_kind_counts_only_data() {
        let t = sample();
        let b = t.bytes_by_kind();
        assert_eq!(b[&OpKind::Read], 300);
        assert_eq!(b[&OpKind::Write], 50);
        assert!(!b.contains_key(&OpKind::Open));
    }

    #[test]
    fn filters_work() {
        let t = sample();
        assert_eq!(t.of_kind(OpKind::Read).count(), 2);
        assert_eq!(t.of_pid(Pid(1)).count(), 1);
        assert_eq!(t.of_file(FileId(0)).count(), 5);
        assert_eq!(t.sizes_of(OpKind::Read), vec![100, 200]);
    }

    #[test]
    fn timelines_extract_pairs() {
        let t = sample();
        let tl = t.timeline_of(OpKind::Read);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0], (Time::from_millis(10), 100));
        let dl = t.duration_timeline_of(OpKind::Read);
        assert_eq!(dl[0].1, Time::from_millis(5));
    }

    #[test]
    fn sort_orders_by_start() {
        let mut t = TraceRecorder::new();
        t.record(ev(0, OpKind::Read, 20, 1, 1));
        t.record(ev(0, OpKind::Read, 10, 1, 1));
        t.sort();
        assert!(t.events()[0].start < t.events()[1].start);
    }

    #[test]
    fn last_completion_and_empty() {
        let t = sample();
        assert_eq!(t.last_completion(), Time::from_millis(31));
        let e = TraceRecorder::new();
        assert!(e.is_empty());
        assert_eq!(e.last_completion(), Time::ZERO);
        assert_eq!(e.total_io_time(), Time::ZERO);
    }

    #[test]
    fn no_invariant_violations_in_sane_trace() {
        assert_eq!(sample().invariant_violations(), 0);
    }

    #[test]
    fn index_cache_invalidated_by_mutation() {
        let mut t = sample();
        assert_eq!(t.bytes_by_kind()[&OpKind::Read], 300); // builds index
        t.record(ev(2, OpKind::Read, 40, 1, 7));
        assert_eq!(t.bytes_by_kind()[&OpKind::Read], 307); // rebuilt
        t.sort();
        assert_eq!(t.index().len(), 6);
    }

    #[test]
    fn clone_starts_with_a_cold_cache_but_same_answers() {
        let t = sample();
        let _ = t.index();
        let c = t.clone();
        assert_eq!(c.duration_by_kind(), t.duration_by_kind());
        assert_eq!(c.total_io_time(), t.total_io_time());
        assert_eq!(c.last_completion(), t.last_completion());
    }
}
