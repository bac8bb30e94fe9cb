//! Naive-scan oracles for Pablo's three summary forms: one linear
//! pass over the event slice per query. The library answers the same
//! questions from a `TraceIndex` (`from_index`); the property tests
//! assert the two agree on arbitrary traces.

use sioscope_pfs::OpKind;
use sioscope_sim::{FileId, Time};
use sioscope_trace::summary::OpStats;
use sioscope_trace::{FileRegionSummary, IoEvent, LifetimeSummary, TimeWindowSummary};
use std::collections::BTreeMap;

fn stats_over<'a>(events: impl Iterator<Item = &'a IoEvent>) -> BTreeMap<OpKind, OpStats> {
    let mut per_kind: BTreeMap<OpKind, OpStats> = BTreeMap::new();
    for e in events {
        let s = per_kind.entry(e.kind).or_default();
        s.count += 1;
        s.total_duration += e.duration;
        s.bytes += e.bytes;
    }
    per_kind
}

/// Summarize every event touching `file`.
pub fn lifetime(events: &[IoEvent], file: FileId) -> LifetimeSummary {
    let relevant = events.iter().filter(|e| e.file == file);
    let per_kind = stats_over(relevant.clone());
    let first_open = relevant
        .clone()
        .filter(|e| matches!(e.kind, OpKind::Open | OpKind::Gopen))
        .map(|e| e.start)
        .min();
    let last_close = relevant
        .filter(|e| e.kind == OpKind::Close)
        .map(|e| e.end())
        .max();
    LifetimeSummary {
        file,
        per_kind,
        first_open,
        last_close,
    }
}

/// Summarize events intersecting `[t0, t1)`.
pub fn window(events: &[IoEvent], t0: Time, t1: Time) -> TimeWindowSummary {
    assert!(t1 >= t0, "window end before start");
    let per_kind = stats_over(events.iter().filter(|e| e.in_window(t0, t1)));
    TimeWindowSummary { t0, t1, per_kind }
}

/// Summarize data operations on `file` that touch `[lo, hi)`.
pub fn region(events: &[IoEvent], file: FileId, lo: u64, hi: u64) -> FileRegionSummary {
    assert!(hi >= lo, "region end before start");
    let per_kind = stats_over(
        events
            .iter()
            .filter(|e| e.file == file && e.touches_region(lo, hi)),
    );
    FileRegionSummary {
        file,
        lo,
        hi,
        per_kind,
    }
}
