//! Property-based tests that every indexed analysis pass equals its
//! naive-scan oracle (`oracle/`) exactly, including bit-identical
//! floating-point results where the pass produces floats. Each oracle
//! folds the events itself, in the same arithmetic order as the
//! indexed pass, so `==` (not approximate comparison) is the correct
//! assertion, and no fold is shared between the two sides.

use sioscope_analysis::{
    detect_phases_indexed, interarrival, BandwidthSeries, Cdf, ConcurrencyProfile, LogHistogram,
    ModeUsage, NodeBalance, Timeline,
};
use sioscope_pfs::{IoMode, OpKind};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, FileId, Pid, Time};
use sioscope_trace::{IoEvent, TraceIndex};

mod oracle;

/// Arbitrary events with frequent zero durations and shared instants,
/// the shapes that stress sweep-lines and degenerate intervals.
fn arb_event(rng: &mut DetRng) -> IoEvent {
    let pid = rng.range_inclusive(0, 7) as u32;
    let file = rng.range_inclusive(0, 3) as u32;
    let kind = OpKind::all()[rng.range_inclusive(0, 7) as usize];
    let start = if rng.chance(0.5) {
        0
    } else {
        rng.range_inclusive(0, 999_999)
    };
    let dur = if rng.chance(0.5) {
        0
    } else {
        rng.range_inclusive(0, 9_999)
    };
    let bytes = rng.range_inclusive(0, 99_999);
    let offset = rng.range_inclusive(0, 999_999);
    let mode = IoMode::all()[rng.range_inclusive(0, 5) as usize];
    IoEvent {
        pid: Pid(pid),
        file: FileId(file),
        kind,
        start: Time::from_nanos(start),
        duration: Time::from_nanos(dur),
        bytes: if matches!(kind, OpKind::Read | OpKind::Write) {
            bytes
        } else {
            0
        },
        offset,
        mode,
    }
}

/// Fewer than 250 arbitrary events and their index.
fn arb_trace(rng: &mut DetRng) -> (Vec<IoEvent>, TraceIndex) {
    let len = rng.range_inclusive(0, 249);
    let events: Vec<IoEvent> = (0..len).map(|_| arb_event(rng)).collect();
    let t = TraceIndex::build(&events);
    (events, t)
}

/// Concurrency profiles are bit-identical: the merged breakpoint
/// stream reproduces the oracle's BTreeMap sweep exactly, including
/// net-zero breakpoints from zero-duration events.
#[test]
fn concurrency_matches_oracle() {
    cases("concurrency_matches_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        assert_eq!(
            ConcurrencyProfile::from_index(&t),
            oracle::concurrency(&events)
        );
    });
}

/// Node balance (total and per-kind) equals the filtered oracle.
#[test]
fn node_balance_matches_oracle() {
    cases("node_balance_matches_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        assert_eq!(
            NodeBalance::from_index(&t),
            oracle::node_balance(&events, |_| true)
        );
        for k in [OpKind::Read, OpKind::Write, OpKind::Seek] {
            assert_eq!(
                NodeBalance::of_kind(&t, k),
                oracle::node_balance(&events, |e| e.kind == k)
            );
        }
    });
}

/// Bandwidth series from completion-ordered index columns equals the
/// oracle: same length, same per-window byte sums.
#[test]
fn bandwidth_matches_oracle() {
    cases("bandwidth_matches_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        let w = Time::from_nanos(rng.range_inclusive(1, 99_999));
        assert_eq!(
            BandwidthSeries::from_index(&t, w),
            oracle::bandwidth(&events, w)
        );
    });
}

/// Request-size CDFs and histograms from the pre-sorted size columns
/// equal the sort-then-collapse oracle.
#[test]
fn size_distributions_match_oracle() {
    cases("size_distributions_match_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        for k in [OpKind::Read, OpKind::Write] {
            let sizes: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| e.bytes)
                .collect();
            assert_eq!(Cdf::of_kind(&t, k), Cdf::from_samples(sizes.clone()));
            assert_eq!(
                LogHistogram::of_kind(&t, k),
                LogHistogram::from_samples(sizes)
            );
        }
    });
}

/// Timeline scatters (size- and duration-valued) equal the scans. The
/// index extracts in canonical order, so the oracle filters from a
/// canonically sorted copy of the events.
#[test]
fn timelines_match_oracle() {
    cases("timelines_match_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.start, e.pid, e.file, e.offset));
        for k in [OpKind::Read, OpKind::Write, OpKind::Seek] {
            let pairs: Vec<(Time, u64)> = sorted
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| (e.start, e.bytes))
                .collect();
            assert_eq!(Timeline::of_kind(&t, k), Timeline::new(pairs));
            let dpairs: Vec<(Time, u64)> = sorted
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| (e.start, e.duration.as_nanos()))
                .collect();
            assert_eq!(Timeline::of_durations(&t, k), Timeline::new(dpairs));
        }
    });
}

/// Phase detection over the index's canonical order equals the
/// oracle's clustering of a canonically sorted copy of the events.
#[test]
fn phases_match_oracle() {
    cases("phases_match_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        let gap = Time::from_nanos(rng.range_inclusive(1, 199_999));
        assert_eq!(detect_phases_indexed(&t, gap), oracle::phases(&events, gap));
    });
}

/// Access-mode aggregation commutes: indexed equals the oracle in
/// every count, byte sum and duration (compared through `Debug`, which
/// prints them all; see `oracle::modes`).
#[test]
fn modes_match_oracle() {
    cases("modes_match_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        assert_eq!(
            format!("{:?}", ModeUsage::from_index(&t)),
            oracle::modes(&events)
        );
    });
}

/// Per-process interarrival statistics from pid postings equal the
/// regrouping oracle, bit-identically.
#[test]
fn interarrival_matches_oracle() {
    cases("interarrival_matches_oracle", 256, |rng| {
        let (events, t) = arb_trace(rng);
        assert_eq!(
            interarrival::per_process_indexed(&t),
            oracle::interarrival(&events)
        );
    });
}
