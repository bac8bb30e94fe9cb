//! Pablo's three statistical summary forms (§3.1).
//!
//! Each form is built by `from_index`, which answers its question from
//! a [`TraceIndex`] — postings lookups for lifetimes, binary-search +
//! prefix-sum subtraction for windows and regions. The naive linear
//! scans over the event slice live in the trace crate's tests
//! (`tests/oracle`); property tests assert the two agree on arbitrary
//! traces.

use crate::index::TraceIndex;
use sioscope_pfs::OpKind;
use sioscope_sim::{FileId, Time};
use std::collections::BTreeMap;

/// Per-operation-kind aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Number of operations.
    pub count: u64,
    /// Sum of client-observed durations.
    pub total_duration: Time,
    /// Bytes transferred.
    pub bytes: u64,
}

/// File lifetime summary: "the number and total duration of file
/// reads, writes, seeks, opens, and closes, as well as the number of
/// bytes accessed for each file, and the total time each file was
/// open."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeSummary {
    /// The summarized file.
    pub file: FileId,
    /// Per-kind statistics.
    pub per_kind: BTreeMap<OpKind, OpStats>,
    /// First open start, if the file was ever opened.
    pub first_open: Option<Time>,
    /// Last close end, if the file was ever closed.
    pub last_close: Option<Time>,
}

impl LifetimeSummary {
    /// Summarize every event touching `file`: one postings lookup —
    /// the statistics were pre-aggregated at index construction.
    pub fn from_index(index: &TraceIndex, file: FileId) -> Self {
        LifetimeSummary {
            file,
            per_kind: index.file_per_kind(file).cloned().unwrap_or_default(),
            first_open: index.file_first_open(file),
            last_close: index.file_last_close(file),
        }
    }

    /// Total time the file was open (last close − first open); `None`
    /// if it was never both opened and closed.
    pub fn open_span(&self) -> Option<Time> {
        match (self.first_open, self.last_close) {
            (Some(o), Some(c)) if c >= o => Some(c - o),
            _ => None,
        }
    }

    /// Bytes accessed (reads + writes).
    pub fn bytes_accessed(&self) -> u64 {
        self.per_kind
            .iter()
            .filter(|(k, _)| matches!(k, OpKind::Read | OpKind::Write))
            .map(|(_, s)| s.bytes)
            .sum()
    }
}

/// Time window summary: the same statistics over events intersecting
/// `[t0, t1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeWindowSummary {
    /// Window start (inclusive).
    pub t0: Time,
    /// Window end (exclusive).
    pub t1: Time,
    /// Per-kind statistics over intersecting events.
    pub per_kind: BTreeMap<OpKind, OpStats>,
}

impl TimeWindowSummary {
    /// Summarize events intersecting the window: two binary searches
    /// and a prefix-sum subtraction per kind.
    ///
    /// # Panics
    /// Panics if `t1 < t0`.
    pub fn from_index(index: &TraceIndex, t0: Time, t1: Time) -> Self {
        assert!(t1 >= t0, "window end before start");
        TimeWindowSummary {
            t0,
            t1,
            per_kind: index.window_stats(t0, t1),
        }
    }
}

/// File region summary: statistics over data operations touching
/// `[lo, hi)` of one file — "the spatial analog of time window
/// summaries".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRegionSummary {
    /// The summarized file.
    pub file: FileId,
    /// Region start offset (inclusive).
    pub lo: u64,
    /// Region end offset (exclusive).
    pub hi: u64,
    /// Per-kind statistics over data ops touching the region.
    pub per_kind: BTreeMap<OpKind, OpStats>,
}

impl FileRegionSummary {
    /// Summarize data operations on `file` that touch `[lo, hi)`,
    /// using the per-`(file, kind)` offset-sorted prefix sums.
    ///
    /// # Panics
    /// Panics if `hi < lo`.
    pub fn from_index(index: &TraceIndex, file: FileId, lo: u64, hi: u64) -> Self {
        assert!(hi >= lo, "region end before start");
        FileRegionSummary {
            file,
            lo,
            hi,
            per_kind: index.region_stats(file, lo, hi),
        }
    }

    /// Number of accesses to the region.
    pub fn accesses(&self) -> u64 {
        self.per_kind.values().map(|s| s.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoEvent;
    use sioscope_sim::Pid;

    fn ev(kind: OpKind, file: u32, start_s: u64, dur_s: u64, bytes: u64, offset: u64) -> IoEvent {
        IoEvent {
            pid: Pid(0),
            file: FileId(file),
            kind,
            start: Time::from_secs(start_s),
            duration: Time::from_secs(dur_s),
            bytes,
            offset,
            mode: sioscope_pfs::IoMode::MUnix,
        }
    }

    fn trace() -> Vec<IoEvent> {
        vec![
            ev(OpKind::Open, 0, 0, 1, 0, 0),
            ev(OpKind::Read, 0, 1, 2, 100, 0),
            ev(OpKind::Read, 0, 3, 2, 100, 100),
            ev(OpKind::Write, 0, 5, 1, 50, 200),
            ev(OpKind::Close, 0, 10, 1, 0, 0),
            ev(OpKind::Read, 1, 2, 4, 999, 0), // other file
        ]
    }

    fn index() -> TraceIndex {
        TraceIndex::build(&trace())
    }

    #[test]
    fn lifetime_summary_counts_one_file() {
        let s = LifetimeSummary::from_index(&index(), FileId(0));
        assert_eq!(s.per_kind[&OpKind::Read].count, 2);
        assert_eq!(s.per_kind[&OpKind::Read].bytes, 200);
        assert_eq!(s.per_kind[&OpKind::Write].count, 1);
        assert_eq!(s.bytes_accessed(), 250);
        assert_eq!(s.open_span(), Some(Time::from_secs(11)));
        assert_eq!(s.per_kind[&OpKind::Read].total_duration, Time::from_secs(4));
    }

    #[test]
    fn lifetime_summary_without_close_has_no_span() {
        let events = vec![ev(OpKind::Open, 0, 0, 1, 0, 0)];
        let s = LifetimeSummary::from_index(&TraceIndex::build(&events), FileId(0));
        assert_eq!(s.open_span(), None);
    }

    #[test]
    fn window_summary_selects_intersecting() {
        // Window [2, 4): read@1(2s) intersects, read@3 intersects,
        // file-1 read@2 intersects; write@5 does not.
        let w = TimeWindowSummary::from_index(&index(), Time::from_secs(2), Time::from_secs(4));
        assert_eq!(w.per_kind[&OpKind::Read].count, 3);
        assert_eq!(w.per_kind[&OpKind::Read].total_duration, Time::from_secs(8));
        assert!(!w.per_kind.contains_key(&OpKind::Write));
    }

    #[test]
    fn empty_window_is_empty() {
        let w = TimeWindowSummary::from_index(&index(), Time::from_secs(100), Time::from_secs(200));
        assert!(w.per_kind.is_empty());
    }

    #[test]
    fn region_summary_selects_touching_data_ops() {
        // Region [100, 250) of file 0: read@offset100 and write@200.
        let r = FileRegionSummary::from_index(&index(), FileId(0), 100, 250);
        assert_eq!(r.per_kind[&OpKind::Read].count, 1);
        assert_eq!(r.per_kind[&OpKind::Write].count, 1);
        assert_eq!(r.accesses(), 2);
        // Opens/closes never appear in region summaries.
        assert!(!r.per_kind.contains_key(&OpKind::Open));
    }

    #[test]
    fn region_summary_excludes_other_files() {
        let r = FileRegionSummary::from_index(&index(), FileId(1), 0, u64::MAX);
        assert_eq!(r.accesses(), 1);
        assert_eq!(r.per_kind[&OpKind::Read].bytes, 999);
    }

    #[test]
    #[should_panic(expected = "window end")]
    fn inverted_indexed_window_panics() {
        let idx = TraceIndex::build(&trace());
        TimeWindowSummary::from_index(&idx, Time::from_secs(2), Time::from_secs(1));
    }
}
