//! The columnar trace analytics index — built in one linear pass over a
//! trace already in canonical order, after which every summary and
//! analysis query runs in logarithmic or postings time instead of
//! re-scanning the event vector.
//!
//! ## Layout
//!
//! [`TraceIndex`] mirrors the event stream into struct-of-arrays
//! columns in the canonical `(start, pid, file, offset)` order. The key
//! is defined once (`canonical_order`) and shared with
//! [`TraceRecorder::sort`](crate::TraceRecorder::sort), so on a
//! simulator-produced (pre-sorted) trace the index order *is* the
//! event order. The build checks that order in one O(n) pass and sorts
//! a `u32` permutation only when the check fails: a stable sort of
//! sorted input is the identity, so both paths fill the same columns.
//!
//! The build then keeps only what its queries need, and no per-event
//! datum that other fields already determine:
//!
//! * per **kind**, in an array over the eight [`OpKind`]s: the start
//!   instants and wrapping `u64` prefix sums over duration and bytes.
//!   A kind's count is the length of its starts; an event's duration
//!   and size are adjacent differences of the prefix sums. The `u128`
//!   totals and the latest completion instant come with them;
//! * per **file**, the lifetime statistics, and per **pid**, per-kind
//!   counts and duration totals. An event reaches its file and its pid
//!   through one hash lookup each, into storage sized by the number of
//!   distinct ids, never by the largest id. The ids are then sorted,
//!   and a query finds a file, pid or job by binary search;
//! * a **time-bucketed offset table** over the start column, so seeking
//!   to a window boundary binary-searches one bucket instead of the
//!   whole column.
//!
//! The sort-based views are built the first time a query asks for
//! them, each behind its own [`OnceLock`], and kept from then on:
//!
//! | view | built by |
//! |---|---|
//! | per kind: ends ascending, with prefix sums in that order | `window_stats`, `window_stats_of`, `end_bytes_of` |
//! | every end ascending | `ends_sorted` |
//! | per kind: sizes ascending | `sizes_sorted_of` |
//! | per `(file, kind)`: offset-sorted prefix sums | `region_stats` |
//! | positions grouped by pid | `starts_of_pid` |
//!
//! So kind totals, timelines, lifetimes and the per-pid sums cost one
//! pass, and a trace nobody asks a window question about never pays
//! for a completion-order sort.
//!
//! ## Exactness of the window algebra
//!
//! For each kind, the events intersecting a window `[t0, t1)` are
//! `W = {start < t1 ∧ end > t0}`. With `A = {start < t1}` (a prefix of
//! the start-sorted column) and `B' = {end ≤ t0}` (a prefix of the
//! end-sorted column),
//!
//! ```text
//! |W| = |A| − |B'| + |C|,   C = {end ≤ t0 ∧ start ≥ t1}
//! ```
//!
//! and the same identity holds for the duration and byte sums. Since
//! `end ≥ start` always, `C` is empty whenever `t1 > t0`; for the
//! degenerate window `t0 == t1 == t` it is exactly the zero-duration
//! events starting at `t`, which the query re-counts from the (small)
//! equal-start run in the start column. Durations never need the
//! correction — every event in `C` contributes zero duration.
//!
//! Region queries need no correction at all: the per-`(file, kind)`
//! region lists hold only data events with `bytes > 0` and
//! `offset < offset ⊕ bytes` (saturating), so
//! `{end_off ≤ lo ∧ off ≥ hi}` would require `off < end_off ≤ lo ≤ hi
//! ≤ off` — a contradiction. The excluded saturated events (only
//! possible at `offset == u64::MAX`) can never satisfy `offset < hi`
//! and therefore never touch any region, matching
//! [`IoEvent::touches_region`].
//!
//! ## Exactness of the wrapping prefix sums
//!
//! Prefix sums are kept modulo 2⁶⁴. Every answer drawn from them is a
//! true sum `S ≥ 0`, written as a difference of two prefixes (plus the
//! degenerate-window correction) and returned as `S as u64`, that is
//! `S mod 2⁶⁴`: the scan oracle's own `u64` sum wherever that sum does
//! not overflow. The `wrapping_sub` of the two wrapped prefixes is
//! congruent to `S` modulo 2⁶⁴ and lies in `[0, 2⁶⁴)`, so it equals
//! that cast exactly, even when a running total passes 2⁶⁴; an
//! adjacent difference gives back one event's duration or size. The
//! whole-kind totals behind `duration_of`, `bytes_of` and
//! `total_io_time`, and the pid and job sums, stay `u128`, with a
//! `debug_assert!` that the total fits the `u64` it is returned as.

use crate::event::IoEvent;
use crate::jobmap::JobMap;
use crate::summary::OpStats;
use sioscope_pfs::{IoMode, OpKind};
use sioscope_sim::{FileId, JobId, Pid, Time};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::OnceLock;

/// Target events per bucket of the start-time offset table.
const BUCKET_TARGET: usize = 64;

/// Upper bound on the bucket count, keeping the offset table small
/// even for enormous traces.
const BUCKET_MAX: usize = 65_536;

/// Number of operation kinds. Per-kind state lives in arrays indexed by
/// `kind as usize`, whose order is the kinds' ascending order.
const KINDS: usize = 8;

/// The canonical sort key of an event.
fn canonical_key(e: &IoEvent) -> (Time, Pid, FileId, u64) {
    (e.start, e.pid, e.file, e.offset)
}

/// The canonical trace order: `None` when `events` already are in it
/// (one O(n) check), otherwise the permutation that stably sorts
/// `events` by `(start, pid, file, offset)` — position `i` of the
/// result names the event that belongs at position `i`. Sorting 4-byte
/// indices instead of the events keeps the sort's scratch space small.
pub(crate) fn canonical_order(events: &[IoEvent]) -> Option<Vec<u32>> {
    if events.is_sorted_by_key(canonical_key) {
        return None;
    }
    let mut perm: Vec<u32> = (0..events.len() as u32).collect();
    // Stable sorts over an initially ascending permutation are
    // equivalent to stably sorting the events themselves.
    perm.sort_by_key(|&i| canonical_key(&events[i as usize]));
    Some(perm)
}

/// Keys in ascending order, with wrapping prefix sums of the matching
/// durations and byte counts: `dur[i]` and `bytes[i]` sum the first
/// `i` rows modulo 2⁶⁴, so both start at zero.
#[derive(Debug, Clone)]
struct PrefixSums<K> {
    keys: Vec<K>,
    dur: Vec<u64>,
    bytes: Vec<u64>,
}

impl<K: Copy> PrefixSums<K> {
    fn with_capacity(n: usize) -> Self {
        let mut dur = Vec::with_capacity(n + 1);
        let mut bytes = Vec::with_capacity(n + 1);
        dur.push(0);
        bytes.push(0);
        PrefixSums {
            keys: Vec::with_capacity(n),
            dur,
            bytes,
        }
    }

    /// Rows already ordered by key.
    fn collect(rows: impl ExactSizeIterator<Item = (K, Time, u64)>) -> Self {
        let mut sums = PrefixSums::with_capacity(rows.len());
        for (key, dur, bytes) in rows {
            sums.push(key, dur, bytes);
        }
        sums
    }

    fn push(&mut self, key: K, dur: Time, bytes: u64) {
        let last = self.keys.len();
        self.keys.push(key);
        self.dur.push(self.dur[last].wrapping_add(dur.as_nanos()));
        self.bytes.push(self.bytes[last].wrapping_add(bytes));
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The rows' durations, in key order.
    fn durs(&self) -> impl Iterator<Item = Time> + '_ {
        self.dur
            .windows(2)
            .map(|w| Time::from_nanos(w[1].wrapping_sub(w[0])))
    }

    /// The rows' byte counts, in key order.
    fn sizes(&self) -> impl Iterator<Item = u64> + '_ {
        self.bytes.windows(2).map(|w| w[1].wrapping_sub(w[0]))
    }

    /// Count, duration and bytes of rows `..a` of `self` minus rows
    /// `..b` of `other`, with `extra` (a count and bytes) added first.
    fn stats_minus(&self, a: usize, other: &Self, b: usize, extra: (u64, u64)) -> OpStats {
        OpStats {
            // Add before subtracting: the multiset identity guarantees
            // a + c ≥ b, but not a ≥ b alone.
            count: (a as u64 + extra.0) - b as u64,
            total_duration: Time::from_nanos(self.dur[a].wrapping_sub(other.dur[b])),
            bytes: self.bytes[a]
                .wrapping_add(extra.1)
                .wrapping_sub(other.bytes[b]),
        }
    }
}

/// Per-kind sub-index: the start-ordered prefix sums the build fills,
/// and the two sort-based views built on first use.
#[derive(Debug, Clone)]
struct KindIndex {
    /// Start instants in canonical (ascending) order, with the prefix
    /// sums of the durations and sizes in that order.
    by_start: PrefixSums<Time>,
    /// Total duration (nanoseconds).
    total_dur: u128,
    /// Total bytes.
    total_bytes: u128,
    /// Latest completion instant.
    last_end: Option<Time>,
    /// Completion instants ascending, with the prefix sums in that
    /// order.
    by_end: OnceLock<PrefixSums<Time>>,
    /// Request sizes, ascending — pre-sorted CDF input.
    sizes_sorted: OnceLock<Vec<u64>>,
}

impl Default for KindIndex {
    fn default() -> Self {
        KindIndex::with_capacity(0)
    }
}

impl KindIndex {
    fn with_capacity(n: usize) -> Self {
        KindIndex {
            by_start: PrefixSums::with_capacity(n),
            total_dur: 0,
            total_bytes: 0,
            last_end: None,
            by_end: OnceLock::new(),
            sizes_sorted: OnceLock::new(),
        }
    }

    fn push(&mut self, e: &IoEvent, end: Time) {
        self.by_start.push(e.start, e.duration, e.bytes);
        self.total_dur += u128::from(e.duration.as_nanos());
        self.total_bytes += u128::from(e.bytes);
        self.last_end = Some(self.last_end.map_or(end, |t| t.max(end)));
    }

    fn is_present(&self) -> bool {
        self.by_start.len() > 0
    }

    fn by_end(&self) -> &PrefixSums<Time> {
        self.by_end.get_or_init(|| {
            // `(end, duration, bytes)` rows in canonical order, sorted
            // by end alone. Window searches land on boundaries between
            // distinct ends, but `end_bytes_of` shows the order of
            // equal ends, so the rows and the sort never change.
            let by_start = &self.by_start;
            let mut rows: Vec<(Time, Time, u64)> = by_start
                .keys
                .iter()
                .zip(by_start.durs())
                .zip(by_start.sizes())
                .map(|((&s, d), b)| (s + d, d, b))
                .collect();
            rows.sort_unstable_by_key(|r| r.0);
            PrefixSums::collect(rows.into_iter())
        })
    }

    fn sizes_sorted(&self) -> &[u64] {
        self.sizes_sorted.get_or_init(|| {
            let mut sizes: Vec<u64> = self.by_start.sizes().collect();
            sizes.sort_unstable();
            sizes
        })
    }

    /// Statistics over this kind's events intersecting `[t0, t1)`.
    fn window_stats(&self, t0: Time, t1: Time) -> OpStats {
        let starts = &self.by_start.keys;
        let a = starts.partition_point(|&s| s < t1);
        let by_end = self.by_end();
        let b = by_end.keys.partition_point(|&e| e <= t0);
        // Degenerate-window correction (see the module docs): for
        // t0 == t1 == t, re-add the zero-duration events starting at t,
        // which `b` subtracts but `a` never counted.
        let mut c = (0u64, 0u64);
        if t0 == t1 {
            let hi = starts.partition_point(|&s| s <= t0);
            let (dur, bytes) = (&self.by_start.dur, &self.by_start.bytes);
            for i in a..hi {
                if dur[i + 1] == dur[i] {
                    c.0 += 1;
                    c.1 = c.1.wrapping_add(bytes[i + 1].wrapping_sub(bytes[i]));
                }
            }
        }
        self.by_start.stats_minus(a, by_end, b, c)
    }
}

/// `(offset, end_offset, duration, bytes)` of one event a region query
/// can count.
type RegionRow = (u64, u64, Time, u64);

/// Offset-sorted prefix sums over one `(file, kind)`'s data events —
/// the spatial analog of [`KindIndex`]'s window machinery.
#[derive(Debug, Clone)]
struct RegionIndex {
    /// Start offsets, ascending.
    by_off: PrefixSums<u64>,
    /// Exclusive end offsets (`offset ⊕ bytes`, saturating), ascending.
    by_end: PrefixSums<u64>,
}

impl RegionIndex {
    /// `rows` are the region-relevant events, in any order.
    fn build(mut rows: Vec<RegionRow>) -> Self {
        rows.sort_unstable_by_key(|r| r.0);
        let by_off = PrefixSums::collect(rows.iter().map(|&(o, _, d, b)| (o, d, b)));
        rows.sort_unstable_by_key(|r| r.1);
        let by_end = PrefixSums::collect(rows.iter().map(|&(_, e, d, b)| (e, d, b)));
        RegionIndex { by_off, by_end }
    }

    /// Statistics over the events touching `[lo, hi)`. Exact with no
    /// correction term (see the module docs).
    fn region_stats(&self, lo: u64, hi: u64) -> OpStats {
        let a = self.by_off.keys.partition_point(|&o| o < hi);
        let b = self.by_end.keys.partition_point(|&e| e <= lo);
        self.by_off.stats_minus(a, &self.by_end, b, (0, 0))
    }
}

/// Per-file lifetime statistics: exactly the naive `LifetimeSummary`
/// aggregation, precomputed.
#[derive(Debug, Clone)]
struct FileIndex {
    per_kind: BTreeMap<OpKind, OpStats>,
    /// Earliest `Open`/`Gopen` start.
    first_open: Option<Time>,
    /// Latest `Close` completion.
    last_close: Option<Time>,
}

/// [`FileIndex`] while the build runs, with the per-kind statistics in
/// an array.
#[derive(Default)]
struct FileAcc {
    per_kind: [OpStats; KINDS],
    first_open: Option<Time>,
    last_close: Option<Time>,
}

impl FileAcc {
    fn absorb(&mut self, e: &IoEvent, end: Time) {
        let s = &mut self.per_kind[e.kind as usize];
        s.count += 1;
        s.total_duration += e.duration;
        s.bytes += e.bytes;
        match e.kind {
            OpKind::Open | OpKind::Gopen => {
                self.first_open = Some(self.first_open.map_or(e.start, |t| t.min(e.start)));
            }
            OpKind::Close => {
                self.last_close = Some(self.last_close.map_or(end, |t| t.max(end)));
            }
            _ => {}
        }
    }
}

impl From<FileAcc> for FileIndex {
    fn from(acc: FileAcc) -> Self {
        FileIndex {
            per_kind: OpKind::all()
                .into_iter()
                .zip(acc.per_kind)
                .filter(|(_, s)| s.count > 0)
                .collect(),
            first_open: acc.first_open,
            last_close: acc.last_close,
        }
    }
}

/// `(count, duration_ns)` per kind over one pid's or one job's events.
#[derive(Debug, Clone, Copy, Default)]
struct GroupStats {
    by_kind: [(u64, u128); KINDS],
}

impl GroupStats {
    fn add(&mut self, kind: OpKind, dur: Time) {
        let s = &mut self.by_kind[kind as usize];
        s.0 += 1;
        s.1 += u128::from(dur.as_nanos());
    }

    fn merge(&mut self, other: &GroupStats) {
        for (s, o) in self.by_kind.iter_mut().zip(&other.by_kind) {
            s.0 += o.0;
            s.1 += o.1;
        }
    }

    fn count(&self) -> u64 {
        self.by_kind.iter().map(|s| s.0).sum()
    }

    fn total_duration(&self) -> Time {
        let total: u128 = self.by_kind.iter().map(|s| s.1).sum();
        debug_assert!(total <= u128::from(u64::MAX), "duration sum overflows u64");
        Time::from_nanos(total as u64)
    }

    fn duration_of(&self, kind: OpKind) -> Option<(u64, Time)> {
        let (count, dur) = self.by_kind[kind as usize];
        (count > 0).then(|| (count, Time::from_nanos(dur as u64)))
    }
}

/// Per-job sub-index: postings and per-kind duration totals.
#[derive(Debug, Clone, Default)]
struct JobIndex {
    /// Positions into the canonical columns, ascending.
    idxs: Vec<u32>,
    stats: GroupStats,
}

/// One accumulator per distinct id of a column, in order of first
/// appearance: storage grows with the number of distinct ids, never
/// with the largest id (a `.siot` file may carry pid 4,000,000,000).
struct Groups<K, A> {
    /// Keyed by std's default (randomly seeded) hasher, since the ids
    /// may come from a file, where they could be crafted to collide
    /// under a fixed hash. Nothing iterates the map, so its order
    /// never reaches an answer.
    slot_of: HashMap<K, usize>,
    ids: Vec<K>,
    accs: Vec<A>,
}

impl<K: Copy + Ord + Hash, A: Default> Groups<K, A> {
    fn new() -> Self {
        Groups {
            slot_of: HashMap::new(),
            ids: Vec::new(),
            accs: Vec::new(),
        }
    }

    fn acc(&mut self, id: K) -> &mut A {
        let next = self.ids.len();
        let slot = *self.slot_of.entry(id).or_insert(next);
        if slot == next {
            self.ids.push(id);
            self.accs.push(A::default());
        }
        &mut self.accs[slot]
    }

    /// The ids ascending, and their accumulators in the same order.
    fn into_sorted(self) -> (Vec<K>, Vec<A>) {
        let mut pairs: Vec<(K, A)> = self.ids.into_iter().zip(self.accs).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        let ids = pairs.iter().map(|p| p.0).collect();
        (ids, pairs.into_iter().map(|p| p.1).collect())
    }
}

/// The one-pass columnar index over a trace, and the one place a
/// trace is queried. Build it once per trace, with [`build`] or
/// [`TraceRecorder::into_index`](crate::TraceRecorder::into_index),
/// then share it across every summary and analysis query.
///
/// [`build`]: TraceIndex::build
#[derive(Debug, Clone, Default)]
pub struct TraceIndex {
    // Canonical columns, stably sorted by (start, pid, file, offset).
    pids: Vec<Pid>,
    files: Vec<FileId>,
    kinds: Vec<OpKind>,
    starts: Vec<Time>,
    durs: Vec<Time>,
    bytes: Vec<u64>,
    offsets: Vec<u64>,
    modes: Vec<IoMode>,
    by_kind: [KindIndex; KINDS],
    /// The files present, ascending, and their statistics.
    file_ids: Vec<FileId>,
    by_file: Vec<FileIndex>,
    /// The pids present, ascending, and their statistics.
    pid_ids: Vec<Pid>,
    by_pid: Vec<GroupStats>,
    /// The jobs present, ascending, and their sub-indexes: empty unless
    /// the index was built with a [`JobMap`] (multi-tenant traces).
    job_ids: Vec<JobId>,
    by_job: Vec<JobIndex>,
    /// Time-bucketed offset table over `starts`: `bucket_first[b]` is
    /// the first column position with `start ≥ t_min + b·width`.
    bucket_first: Vec<u32>,
    bucket_width: u64,
    t_min: Time,
    t_max: Time,
    /// Every completion instant, ascending; built on first use.
    ends_sorted: OnceLock<Vec<Time>>,
    /// Per file (aligned with `file_ids`), the `Read` and `Write`
    /// region indexes; built on first use.
    regions: OnceLock<Vec<[RegionIndex; 2]>>,
    /// Canonical positions grouped by pid, ascending within each pid;
    /// built on first use.
    pid_postings: OnceLock<Vec<u32>>,
}

impl TraceIndex {
    /// Build the index from raw events, in any order: linear on a
    /// trace already in canonical order, one stable O(n log n) sort of
    /// a permutation otherwise.
    pub fn build(events: &[IoEvent]) -> Self {
        let n = events.len();
        let mut counts = [0usize; KINDS];
        for e in events {
            counts[e.kind as usize] += 1;
        }
        let mut index = TraceIndex {
            pids: Vec::with_capacity(n),
            files: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            durs: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n),
            modes: Vec::with_capacity(n),
            by_kind: counts.map(KindIndex::with_capacity),
            ..TraceIndex::default()
        };
        let mut files: Groups<FileId, FileAcc> = Groups::new();
        let mut pids: Groups<Pid, GroupStats> = Groups::new();
        let mut push = |e: &IoEvent| {
            index.pids.push(e.pid);
            index.files.push(e.file);
            index.kinds.push(e.kind);
            index.starts.push(e.start);
            index.durs.push(e.duration);
            index.bytes.push(e.bytes);
            index.offsets.push(e.offset);
            index.modes.push(e.mode);
            let end = e.end();
            index.by_kind[e.kind as usize].push(e, end);
            files.acc(e.file).absorb(e, end);
            pids.acc(e.pid).add(e.kind, e.duration);
        };
        match canonical_order(events) {
            None => events.iter().for_each(&mut push),
            Some(perm) => perm.iter().for_each(|&i| push(&events[i as usize])),
        }

        let (file_ids, file_accs) = files.into_sorted();
        index.file_ids = file_ids;
        index.by_file = file_accs.into_iter().map(FileIndex::from).collect();
        (index.pid_ids, index.by_pid) = pids.into_sorted();
        index.build_bucket_table();
        index
    }

    /// Build the index and additionally attribute events to jobs via
    /// `map`, populating the per-job sub-indexes. Events whose pid lies
    /// outside every range of `map` stay unattributed (they remain in
    /// every other view of the index).
    pub fn build_with_jobs(events: &[IoEvent], map: &JobMap) -> Self {
        let mut index = TraceIndex::build(events);
        // A job's totals are the sums of its pids', which also size its
        // postings exactly.
        let mut jobs: Groups<JobId, JobIndex> = Groups::new();
        for (&pid, stats) in index.pid_ids.iter().zip(&index.by_pid) {
            if let Some(job) = map.job_of(pid) {
                jobs.acc(job).stats.merge(stats);
            }
        }
        for job in &mut jobs.accs {
            job.idxs.reserve_exact(job.stats.count() as usize);
        }
        for (pos, &pid) in index.pids.iter().enumerate() {
            if let Some(job) = map.job_of(pid) {
                jobs.acc(job).idxs.push(pos as u32);
            }
        }
        (index.job_ids, index.by_job) = jobs.into_sorted();
        index
    }

    fn build_bucket_table(&mut self) {
        let n = self.starts.len();
        if n == 0 {
            self.bucket_first = vec![0, 0];
            self.bucket_width = 1;
            self.t_min = Time::ZERO;
            self.t_max = Time::ZERO;
            return;
        }
        self.t_min = self.starts[0];
        self.t_max = self.starts[n - 1];
        let nb = (n / BUCKET_TARGET).clamp(1, BUCKET_MAX);
        let span = self.t_max.as_nanos() - self.t_min.as_nanos();
        // width · nb > span, so every start ≤ t_max falls in a bucket.
        let width = span / nb as u64 + 1;
        let mut bucket_first = Vec::with_capacity(nb + 1);
        for b in 0..=nb {
            let boundary = u128::from(self.t_min.as_nanos()) + u128::from(width) * b as u128;
            let pos = if boundary > u128::from(u64::MAX) {
                n
            } else {
                self.starts
                    .partition_point(|s| u128::from(s.as_nanos()) < boundary)
            };
            bucket_first.push(pos as u32);
        }
        self.bucket_first = bucket_first;
        self.bucket_width = width;
    }

    fn kind(&self, kind: OpKind) -> &KindIndex {
        &self.by_kind[kind as usize]
    }

    fn file_slot(&self, file: FileId) -> Option<usize> {
        self.file_ids.binary_search(&file).ok()
    }

    fn pid_slot(&self, pid: Pid) -> Option<usize> {
        self.pid_ids.binary_search(&pid).ok()
    }

    fn regions(&self) -> &[[RegionIndex; 2]] {
        self.regions.get_or_init(|| {
            let mut rows: Vec<[Vec<RegionRow>; 2]> = vec![Default::default(); self.file_ids.len()];
            for i in 0..self.len() {
                let k = match self.kinds[i] {
                    OpKind::Read => 0,
                    OpKind::Write => 1,
                    _ => continue,
                };
                let (off, b) = (self.offsets[i], self.bytes[i]);
                let end_off = off.saturating_add(b);
                // Only events that can ever touch a region: bytes > 0,
                // and a non-degenerate byte interval (end_off == off
                // only at off == u64::MAX, which never satisfies
                // `off < hi`).
                if b == 0 || end_off <= off {
                    continue;
                }
                let f = self
                    .file_slot(self.files[i])
                    .expect("every file is indexed");
                rows[f][k].push((off, end_off, self.durs[i], b));
            }
            rows.into_iter()
                .map(|rows| rows.map(RegionIndex::build))
                .collect()
        })
    }

    fn pid_postings(&self) -> &[u32] {
        self.pid_postings.get_or_init(|| {
            // A counting sort: each pid's run starts after the runs of
            // every smaller pid.
            let mut next = Vec::with_capacity(self.by_pid.len());
            let mut at = 0;
            for p in &self.by_pid {
                next.push(at);
                at += p.count() as usize;
            }
            let mut postings = vec![0u32; self.len()];
            for (pos, &pid) in self.pids.iter().enumerate() {
                let slot = self.pid_slot(pid).expect("every pid is indexed");
                postings[next[slot]] = pos as u32;
                next[slot] += 1;
            }
            postings
        })
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` iff the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Reconstruct the event at canonical position `i`.
    pub(crate) fn event(&self, i: usize) -> IoEvent {
        IoEvent {
            pid: self.pids[i],
            file: self.files[i],
            kind: self.kinds[i],
            start: self.starts[i],
            duration: self.durs[i],
            bytes: self.bytes[i],
            offset: self.offsets[i],
            mode: self.modes[i],
        }
    }

    /// All events in canonical `(start, pid, file, offset)` order.
    pub fn iter(&self) -> impl Iterator<Item = IoEvent> + '_ {
        (0..self.len()).map(move |i| self.event(i))
    }

    /// Start instants in canonical (ascending) order.
    pub fn starts(&self) -> &[Time] {
        &self.starts
    }

    /// Completion instants, ascending.
    pub fn ends_sorted(&self) -> &[Time] {
        self.ends_sorted.get_or_init(|| {
            let mut ends: Vec<Time> = self
                .starts
                .iter()
                .zip(&self.durs)
                .map(|(&s, &d)| s + d)
                .collect();
            // Equal instants are indistinguishable, so any sort gives
            // this result; the stable one merges the few runs of a
            // canonical trace's nearly sorted ends, about twice as fast
            // as `sort_unstable` on the simulator's traces.
            ends.sort();
            ends
        })
    }

    /// The kinds present in the trace, ascending.
    pub(crate) fn kinds_present(&self) -> impl Iterator<Item = OpKind> + '_ {
        OpKind::all()
            .into_iter()
            .filter(|&k| self.kind(k).is_present())
    }

    /// Number of events of `kind`.
    pub fn count_of(&self, kind: OpKind) -> u64 {
        self.kind(kind).by_start.len() as u64
    }

    /// Total duration of events of `kind`.
    pub fn duration_of(&self, kind: OpKind) -> Time {
        let total = self.kind(kind).total_dur;
        debug_assert!(total <= u128::from(u64::MAX), "duration sum overflows u64");
        Time::from_nanos(total as u64)
    }

    /// Total bytes of events of `kind`.
    pub fn bytes_of(&self, kind: OpKind) -> u64 {
        let total = self.kind(kind).total_bytes;
        debug_assert!(total <= u128::from(u64::MAX), "byte sum overflows u64");
        total as u64
    }

    /// Sum of client-observed durations per operation kind — the raw
    /// material of Tables 2, 3 and 5.
    pub fn duration_by_kind(&self) -> BTreeMap<OpKind, Time> {
        self.kinds_present()
            .map(|k| (k, self.duration_of(k)))
            .collect()
    }

    /// Bytes transferred per data kind (reads and writes).
    pub fn bytes_by_kind(&self) -> BTreeMap<OpKind, u64> {
        [OpKind::Read, OpKind::Write]
            .into_iter()
            .filter(|&k| self.kind(k).is_present())
            .map(|k| (k, self.bytes_of(k)))
            .collect()
    }

    /// Total client-observed I/O time over the whole trace.
    pub fn total_io_time(&self) -> Time {
        let total: u128 = self.by_kind.iter().map(|k| k.total_dur).sum();
        debug_assert!(total <= u128::from(u64::MAX), "duration sum overflows u64");
        Time::from_nanos(total as u64)
    }

    /// Request sizes of every event of `kind`, ascending — a CDF can
    /// consume this without re-sorting.
    pub fn sizes_sorted_of(&self, kind: OpKind) -> &[u64] {
        self.kind(kind).sizes_sorted()
    }

    /// `(start, bytes)` pairs of every event of `kind`, in canonical
    /// order.
    pub fn timeline_of(&self, kind: OpKind) -> Vec<(Time, u64)> {
        let k = &self.kind(kind).by_start;
        k.keys.iter().copied().zip(k.sizes()).collect()
    }

    /// `(start, duration)` pairs of every event of `kind`, in canonical
    /// order.
    pub fn duration_timeline_of(&self, kind: OpKind) -> Vec<(Time, Time)> {
        let k = &self.kind(kind).by_start;
        k.keys.iter().copied().zip(k.durs()).collect()
    }

    /// `(end, bytes)` pairs of every event of `kind`, ascending by
    /// completion instant — bandwidth series consume this directly.
    pub fn end_bytes_of(&self, kind: OpKind) -> impl Iterator<Item = (Time, u64)> + '_ {
        let k = self.kind(kind).by_end();
        k.keys.iter().copied().zip(k.sizes())
    }

    /// The latest completion instant among events of `kind`.
    pub fn last_end_of(&self, kind: OpKind) -> Option<Time> {
        self.kind(kind).last_end
    }

    /// Per-kind statistics over all events intersecting `[t0, t1)` —
    /// the indexed body of a time-window summary. Kinds with no
    /// intersecting event are omitted, matching the naive scan.
    pub(crate) fn window_stats(&self, t0: Time, t1: Time) -> BTreeMap<OpKind, OpStats> {
        self.kinds_present()
            .map(|k| (k, self.kind(k).window_stats(t0, t1)))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }

    fn file(&self, file: FileId) -> Option<&FileIndex> {
        self.file_slot(file).map(|f| &self.by_file[f])
    }

    /// Pre-aggregated lifetime statistics of `file`, per kind.
    pub(crate) fn file_per_kind(&self, file: FileId) -> Option<&BTreeMap<OpKind, OpStats>> {
        self.file(file).map(|f| &f.per_kind)
    }

    /// Earliest `Open`/`Gopen` start on `file`.
    pub(crate) fn file_first_open(&self, file: FileId) -> Option<Time> {
        self.file(file).and_then(|f| f.first_open)
    }

    /// Latest `Close` completion on `file`.
    pub(crate) fn file_last_close(&self, file: FileId) -> Option<Time> {
        self.file(file).and_then(|f| f.last_close)
    }

    /// Per-kind statistics over data operations on `file` touching the
    /// byte range `[lo, hi)` — the indexed body of a file-region
    /// summary. Kinds with no touching event are omitted.
    pub(crate) fn region_stats(&self, file: FileId, lo: u64, hi: u64) -> BTreeMap<OpKind, OpStats> {
        let Some(f) = self.file_slot(file) else {
            return BTreeMap::new();
        };
        [OpKind::Read, OpKind::Write]
            .into_iter()
            .zip(&self.regions()[f])
            .map(|(k, r)| (k, r.region_stats(lo, hi)))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }

    /// The pids present in the trace, ascending.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.pid_ids.iter().copied()
    }

    /// Start instants of every event issued by `pid`, ascending.
    pub fn starts_of_pid(&self, pid: Pid) -> Vec<Time> {
        let Some(slot) = self.pid_slot(pid) else {
            return Vec::new();
        };
        let postings = self.pid_postings();
        let first = postings.partition_point(|&i| self.pids[i as usize] < pid);
        let n = self.by_pid[slot].count() as usize;
        postings[first..first + n]
            .iter()
            .map(|&i| self.starts[i as usize])
            .collect()
    }

    /// Total duration of every event issued by `pid`.
    pub fn pid_total_duration(&self, pid: Pid) -> Time {
        self.pid_slot(pid)
            .map_or(Time::ZERO, |p| self.by_pid[p].total_duration())
    }

    /// `(count, total_duration)` of `pid`'s events of `kind`.
    pub fn pid_duration_of(&self, pid: Pid, kind: OpKind) -> Option<(u64, Time)> {
        self.pid_slot(pid)
            .and_then(|p| self.by_pid[p].duration_of(kind))
    }

    /// The jobs present in the trace, ascending — empty unless the
    /// index was built with [`TraceIndex::build_with_jobs`].
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.job_ids.iter().copied()
    }

    fn job(&self, job: JobId) -> Option<&JobIndex> {
        self.job_ids
            .binary_search(&job)
            .ok()
            .map(|j| &self.by_job[j])
    }

    /// Number of events attributed to `job`.
    pub fn job_event_count(&self, job: JobId) -> usize {
        self.job(job).map_or(0, |j| j.idxs.len())
    }

    /// First canonical position with `start ≥ t`: a bucket lookup in
    /// the time-offset table plus a binary search within one bucket.
    pub(crate) fn first_at_or_after(&self, t: Time) -> usize {
        let n = self.len();
        if n == 0 || t <= self.t_min {
            return 0;
        }
        if t > self.t_max {
            return n;
        }
        let b = ((t.as_nanos() - self.t_min.as_nanos()) / self.bucket_width) as usize;
        let b = b.min(self.bucket_first.len() - 2);
        let lo = self.bucket_first[b] as usize;
        let hi = self.bucket_first[b + 1] as usize;
        lo + self.starts[lo..hi].partition_point(|&s| s < t)
    }

    /// Events whose start lies in `[t0, t1)`, in canonical order.
    pub fn starting_in(&self, t0: Time, t1: Time) -> impl Iterator<Item = IoEvent> + '_ {
        let lo = self.first_at_or_after(t0);
        let hi = self.first_at_or_after(t1).max(lo);
        (lo..hi).map(move |i| self.event(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        pid: u32,
        file: u32,
        kind: OpKind,
        start_s: u64,
        dur_s: u64,
        bytes: u64,
        offset: u64,
    ) -> IoEvent {
        IoEvent {
            pid: Pid(pid),
            file: FileId(file),
            kind,
            start: Time::from_secs(start_s),
            duration: Time::from_secs(dur_s),
            bytes,
            offset,
            mode: IoMode::MUnix,
        }
    }

    fn sample() -> Vec<IoEvent> {
        vec![
            ev(0, 0, OpKind::Open, 0, 1, 0, 0),
            ev(0, 0, OpKind::Read, 1, 2, 100, 0),
            ev(1, 1, OpKind::Read, 2, 4, 999, 0),
            ev(0, 0, OpKind::Read, 3, 2, 100, 100),
            ev(0, 0, OpKind::Write, 5, 1, 50, 200),
            ev(0, 0, OpKind::Close, 10, 1, 0, 0),
        ]
    }

    #[test]
    fn canonical_order_is_stable_sort_by_key() {
        let mut events = sample();
        events.swap(0, 3);
        events.swap(1, 5);
        let idx = TraceIndex::build(&events);
        let starts: Vec<Time> = idx.iter().map(|e| e.start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
        assert_eq!(idx.len(), events.len());
        // Canonical input skips the sort and gives the same columns.
        assert!(canonical_order(&events).is_some());
        assert!(canonical_order(&sample()).is_none());
        let direct = TraceIndex::build(&sample());
        assert!(idx.iter().eq(direct.iter()));
    }

    #[test]
    fn sort_based_views_wait_for_their_first_query() {
        let idx = TraceIndex::build(&sample());
        let built = |idx: &TraceIndex| {
            let kinds =
                |view: fn(&KindIndex) -> bool| idx.by_kind.iter().filter(|k| view(k)).count();
            (
                kinds(|k| k.by_end.get().is_some()),
                kinds(|k| k.sizes_sorted.get().is_some()),
                idx.ends_sorted.get().is_some(),
                idx.regions.get().is_some(),
                idx.pid_postings.get().is_some(),
            )
        };
        // Totals, timelines, lifetimes, per-pid sums and the events
        // come from what the build's pass filled.
        idx.duration_by_kind();
        idx.bytes_by_kind();
        idx.timeline_of(OpKind::Read);
        idx.duration_timeline_of(OpKind::Read);
        idx.last_end_of(OpKind::Read);
        idx.file_per_kind(FileId(0));
        idx.pid_duration_of(Pid(0), OpKind::Read);
        idx.pid_total_duration(Pid(1));
        idx.starting_in(Time::ZERO, Time::from_secs(4)).count();
        assert_eq!(idx.iter().count(), 6);
        assert_eq!(built(&idx), (0, 0, false, false, false));

        idx.sizes_sorted_of(OpKind::Read);
        assert_eq!(built(&idx), (0, 1, false, false, false));
        idx.kind(OpKind::Write)
            .window_stats(Time::ZERO, Time::from_secs(9));
        assert_eq!(built(&idx), (1, 1, false, false, false));
        // Every kind present: Open, Read, Write, Close.
        idx.window_stats(Time::ZERO, Time::from_secs(9));
        assert_eq!(built(&idx), (4, 1, false, false, false));
        idx.ends_sorted();
        idx.region_stats(FileId(0), 0, 100);
        idx.starts_of_pid(Pid(0));
        assert_eq!(built(&idx), (4, 1, true, true, true));
    }

    #[test]
    fn grouping_is_sized_by_distinct_ids() {
        let max = u32::MAX;
        let events = vec![
            ev(max, max, OpKind::Open, 0, 1, 0, 0),
            ev(0, 0, OpKind::Read, 1, 2, 100, 0),
            ev(max, max, OpKind::Write, 2, 1, 50, 10),
            ev(max, 0, OpKind::Close, 3, 1, 0, 0),
        ];
        let idx = TraceIndex::build(&events);
        // Two pids and two files: one slot each, however large the id.
        assert_eq!((idx.pid_ids.len(), idx.by_pid.len()), (2, 2));
        assert_eq!((idx.file_ids.len(), idx.by_file.len()), (2, 2));
        assert_eq!(idx.pids().collect::<Vec<_>>(), vec![Pid(0), Pid(max)]);
        assert_eq!(idx.file_ids, vec![FileId(0), FileId(max)]);
        assert_eq!(idx.pid_total_duration(Pid(max)), Time::from_secs(3));
        assert_eq!(
            idx.pid_duration_of(Pid(max), OpKind::Write),
            Some((1, Time::from_secs(1)))
        );
        assert_eq!(
            idx.starts_of_pid(Pid(max)),
            vec![Time::ZERO, Time::from_secs(2), Time::from_secs(3)]
        );
        assert_eq!(idx.starts_of_pid(Pid(1)), Vec::<Time>::new());
        let file_events: u64 = idx
            .file_per_kind(FileId(max))
            .unwrap()
            .values()
            .map(|s| s.count)
            .sum();
        assert_eq!(file_events, 2);
        assert_eq!(idx.file_first_open(FileId(max)), Some(Time::ZERO));
        assert_eq!(
            idx.region_stats(FileId(max), 0, 11)[&OpKind::Write].bytes,
            50
        );
    }

    #[test]
    fn wrapping_prefix_sums_stay_exact_past_2_pow_64() {
        // The Reads' running duration total reaches 2^64 + 5. They sit
        // on different files, so the per-file lifetime sums (plain u64
        // adds) stay in range.
        let half = 1u64 << 63;
        let read = |file: u32, start: u64, dur: u64, bytes: u64| IoEvent {
            pid: Pid(0),
            file: FileId(file),
            kind: OpKind::Read,
            start: Time::from_nanos(start),
            duration: Time::from_nanos(dur),
            bytes,
            offset: 0,
            mode: IoMode::MUnix,
        };
        let events = vec![read(0, 0, half + 5, 7), read(1, 10, half, 9)];
        let idx = TraceIndex::build(&events);
        // Only B is still running in [2^63 + 6, 2^63 + 7).
        let (t0, t1) = (Time::from_nanos(half + 6), Time::from_nanos(half + 7));
        let only_b = OpStats {
            count: 1,
            total_duration: Time::from_nanos(half),
            bytes: 9,
        };
        assert_eq!(idx.kind(OpKind::Read).window_stats(t0, t1), only_b);
        assert_eq!(
            crate::TimeWindowSummary::from_index(&idx, t0, t1).per_kind,
            BTreeMap::from([(OpKind::Read, only_b)])
        );
        // Adjacent differences give each duration back.
        assert_eq!(
            idx.duration_timeline_of(OpKind::Read),
            vec![
                (Time::ZERO, Time::from_nanos(half + 5)),
                (Time::from_nanos(10), Time::from_nanos(half))
            ]
        );
    }

    #[test]
    fn kind_aggregates_match_hand_counts() {
        let idx = TraceIndex::build(&sample());
        assert_eq!(idx.count_of(OpKind::Read), 3);
        assert_eq!(idx.duration_of(OpKind::Read), Time::from_secs(8));
        assert_eq!(idx.bytes_of(OpKind::Read), 1199);
        assert_eq!(idx.total_io_time(), Time::from_secs(11));
        assert_eq!(idx.ends_sorted().last(), Some(&Time::from_secs(11)));
        assert_eq!(idx.duration_by_kind()[&OpKind::Write], Time::from_secs(1));
        assert_eq!(idx.bytes_by_kind()[&OpKind::Write], 50);
        assert!(!idx.bytes_by_kind().contains_key(&OpKind::Open));
    }

    #[test]
    fn window_stats_match_the_scan() {
        let events = sample();
        let idx = TraceIndex::build(&events);
        // Window [2, 4): Read@1 ([1,3)), Read@2 ([2,6)), Read@3 ([3,5)).
        let w = idx.window_stats(Time::from_secs(2), Time::from_secs(4));
        assert_eq!(w[&OpKind::Read].count, 3);
        assert_eq!(w[&OpKind::Read].total_duration, Time::from_secs(8));
        assert_eq!(w[&OpKind::Read].bytes, 1199);
        assert!(!w.contains_key(&OpKind::Write));
        // Empty window far in the future.
        assert!(idx
            .window_stats(Time::from_secs(100), Time::from_secs(200))
            .is_empty());
    }

    #[test]
    fn degenerate_window_counts_zero_duration_starts() {
        let events = vec![
            ev(0, 0, OpKind::Read, 5, 0, 10, 0), // [5,5): in [5,5) iff never
            ev(0, 0, OpKind::Read, 3, 2, 20, 0), // [3,5): end == 5, excluded
            ev(0, 0, OpKind::Read, 4, 2, 30, 0), // [4,6): intersects
        ];
        let idx = TraceIndex::build(&events);
        let t = Time::from_secs(5);
        let w = idx.kind(OpKind::Read).window_stats(t, t);
        // Oracle: e.start < 5 && e.end() > 5 — only [4,6).
        assert_eq!(w.count, 1);
        assert_eq!(w.bytes, 30);
        assert_eq!(w.total_duration, Time::from_secs(2));
    }

    #[test]
    fn region_stats_match_the_scan() {
        let events = sample();
        let idx = TraceIndex::build(&events);
        let r = idx.region_stats(FileId(0), 100, 250);
        assert_eq!(r[&OpKind::Read].count, 1);
        assert_eq!(r[&OpKind::Write].count, 1);
        assert_eq!(r[&OpKind::Write].bytes, 50);
        assert!(!r.contains_key(&OpKind::Open));
        // Saturated offsets never touch any region.
        let sat = vec![ev(0, 0, OpKind::Write, 0, 1, 10, u64::MAX)];
        let sidx = TraceIndex::build(&sat);
        assert!(sidx.region_stats(FileId(0), 0, u64::MAX).is_empty());
    }

    #[test]
    fn lifetime_lookups_match_the_scan() {
        let idx = TraceIndex::build(&sample());
        let pk = idx.file_per_kind(FileId(0)).expect("file 0 present");
        assert_eq!(pk[&OpKind::Read].count, 2);
        assert_eq!(pk[&OpKind::Read].bytes, 200);
        assert_eq!(idx.file_first_open(FileId(0)), Some(Time::ZERO));
        assert_eq!(idx.file_last_close(FileId(0)), Some(Time::from_secs(11)));
        assert_eq!(idx.file_first_open(FileId(1)), None);
        assert!(idx.file_per_kind(FileId(9)).is_none());
    }

    #[test]
    fn pid_lookups() {
        let idx = TraceIndex::build(&sample());
        assert_eq!(idx.pids().count(), 2);
        assert_eq!(idx.pid_total_duration(Pid(1)), Time::from_secs(4));
        assert_eq!(
            idx.pid_duration_of(Pid(0), OpKind::Read),
            Some((2, Time::from_secs(4)))
        );
        assert_eq!(idx.pid_duration_of(Pid(1), OpKind::Write), None);
        assert_eq!(
            idx.starts_of_pid(Pid(0)),
            vec![
                Time::ZERO,
                Time::from_secs(1),
                Time::from_secs(3),
                Time::from_secs(5),
                Time::from_secs(10)
            ]
        );
    }

    #[test]
    fn bucket_table_lower_bound_agrees_with_partition_point() {
        let events: Vec<IoEvent> = (0..500)
            .map(|i| ev(0, 0, OpKind::Read, (i * 7) % 97, 1, 1, 0))
            .collect();
        let idx = TraceIndex::build(&events);
        for t in 0..100u64 {
            let t = Time::from_secs(t);
            let expect = idx.starts().partition_point(|&s| s < t);
            assert_eq!(idx.first_at_or_after(t), expect, "at {t}");
        }
        assert_eq!(idx.first_at_or_after(Time::MAX), idx.len());
        let in_window: Vec<IoEvent> = idx
            .starting_in(Time::from_secs(10), Time::from_secs(20))
            .collect();
        assert!(in_window
            .iter()
            .all(|e| e.start >= Time::from_secs(10) && e.start < Time::from_secs(20)));
    }

    #[test]
    fn empty_trace_answers_everything_with_zeros() {
        for idx in [TraceIndex::build(&[]), TraceIndex::default()] {
            assert!(idx.is_empty());
            assert_eq!(idx.total_io_time(), Time::ZERO);
            assert!(idx.duration_by_kind().is_empty());
            assert!(idx.bytes_by_kind().is_empty());
            assert!(idx.window_stats(Time::ZERO, Time::MAX).is_empty());
            let none = idx.kind(OpKind::Read).window_stats(Time::ZERO, Time::MAX);
            assert_eq!(none, OpStats::default());
            assert!(idx.region_stats(FileId(0), 0, u64::MAX).is_empty());
            assert_eq!(idx.first_at_or_after(Time::from_secs(5)), 0);
            assert!(idx.sizes_sorted_of(OpKind::Read).is_empty());
            assert_eq!(idx.end_bytes_of(OpKind::Read).count(), 0);
            assert!(idx.ends_sorted().is_empty());
            assert!(idx.starts_of_pid(Pid(0)).is_empty());
            assert_eq!(idx.starting_in(Time::ZERO, Time::MAX).count(), 0);
        }
    }

    #[test]
    fn job_sub_index_mirrors_per_pid_attribution() {
        let mut map = JobMap::new();
        map.insert(0, 1, JobId(0)); // pid 0
        map.insert(1, 2, JobId(1)); // pid 1
        let idx = TraceIndex::build_with_jobs(&sample(), &map);
        assert_eq!(idx.jobs().collect::<Vec<_>>(), vec![JobId(0), JobId(1)]);
        assert_eq!(idx.job_event_count(JobId(0)), 5);
        assert_eq!(idx.job_event_count(JobId(1)), 1);
        let job = |j: u32| idx.job(JobId(j)).unwrap();
        assert_eq!(job(0).stats.total_duration(), Time::from_secs(7));
        assert_eq!(job(1).stats.total_duration(), Time::from_secs(4));
        assert_eq!(
            job(0).stats.duration_of(OpKind::Read),
            Some((2, Time::from_secs(4)))
        );
        assert_eq!(job(1).stats.duration_of(OpKind::Write), None);
        assert!(job(1)
            .idxs
            .iter()
            .map(|&i| idx.event(i as usize))
            .all(|e| e.pid == Pid(1) && e.bytes == 999));
        // Unmapped pids stay unattributed; plain build has no jobs.
        assert_eq!(idx.job_event_count(JobId(9)), 0);
        assert_eq!(TraceIndex::build(&sample()).jobs().count(), 0);
    }

    #[test]
    fn large_build_matches_per_event_folds() {
        // A few thousand events with many equal keys: the canonical
        // order and the aggregates must match per-event folds.
        let events: Vec<IoEvent> = (0..4196u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => OpKind::Open,
                    1 | 2 => OpKind::Read,
                    3 => OpKind::Write,
                    _ => OpKind::Close,
                };
                ev(
                    (i % 16) as u32,
                    (i % 3) as u32,
                    kind,
                    (i * 37) % 1000,
                    i % 7,
                    (i * 13) % 4096,
                    (i * 17) % 100_000,
                )
            })
            .collect();
        let whole = TraceIndex::build(&events);
        let small = TraceIndex::build(&events[..1000]);
        // Spot-check the build against per-event folds.
        let naive_dur: u64 = events.iter().map(|e| e.duration.as_nanos()).sum();
        assert_eq!(whole.total_io_time(), Time::from_nanos(naive_dur));
        let naive_read_bytes: u64 = events
            .iter()
            .filter(|e| e.kind == OpKind::Read)
            .map(|e| e.bytes)
            .sum();
        assert_eq!(whole.bytes_of(OpKind::Read), naive_read_bytes);
        let small_dur: u64 = events[..1000].iter().map(|e| e.duration.as_nanos()).sum();
        assert_eq!(small.total_io_time(), Time::from_nanos(small_dur));
        // Canonical order is sorted by start in both.
        assert!(whole.starts().windows(2).all(|w| w[0] <= w[1]));
    }
}
