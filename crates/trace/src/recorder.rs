//! The trace capture library.

use crate::event::IoEvent;
use crate::index::{canonical_order, TraceIndex};
use sioscope_sim::Time;

/// Collects [`IoEvent`]s during a simulation run. It only records:
/// every query is answered by a [`TraceIndex`], which a caller builds
/// once with [`TraceIndex::build`] over [`events`](TraceRecorder::events),
/// or with [`into_index`](TraceRecorder::into_index) when it needs the
/// events no more.
///
/// ```
/// use sioscope_trace::{IoEvent, TraceIndex, TraceRecorder};
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
/// let index = TraceIndex::build(trace.events());
/// assert_eq!(index.bytes_by_kind()[&OpKind::Read], 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<IoEvent>,
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
        }
    }

    /// Record one completed operation.
    pub fn record(&mut self, event: IoEvent) {
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

    /// The index over this trace, keeping no raw events: they are
    /// freed once the index is built, so a caller that only queries
    /// the trace holds one copy of it, not two. [`TraceIndex::iter`]
    /// gives the events back in canonical order.
    pub fn into_index(self) -> TraceIndex {
        TraceIndex::build(&self.events)
    }

    /// Total client-observed I/O time (sum over all events): one O(n)
    /// pass, which is all a caller that reads only this total needs.
    pub fn total_io_time(&self) -> Time {
        self.events.iter().map(|e| e.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::OpKind;
    use sioscope_sim::{FileId, Pid};

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
    fn total_io_time_sums_every_duration() {
        assert_eq!(sample().total_io_time(), Time::from_millis(23));
        let e = TraceRecorder::new();
        assert!(e.is_empty());
        assert_eq!(e.total_io_time(), Time::ZERO);
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
    fn into_index_indexes_the_recorded_events() {
        let t = sample();
        let index = t.clone().into_index();
        assert_eq!(index.len(), 5);
        assert!(index.iter().eq(t.events().iter().copied()));
        assert_eq!(index.total_io_time(), t.total_io_time());
        assert_eq!(index.bytes_by_kind()[&OpKind::Read], 300);
    }
}
