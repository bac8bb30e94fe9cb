//! Property-based tests of the columnar trace index: every indexed
//! query — lifetime, window, region, and by-kind aggregates — must
//! equal the naive-scan oracle on arbitrary event vectors, including
//! empty traces, zero-duration events, and offsets at the edge of the
//! u64 range. The lifetime, window, region and `starting_in`
//! properties build each index twice: from the events as drawn, which
//! sorts a permutation, and from their recorder-sorted copy, which
//! takes the linear path every simulator trace takes.

use sioscope_pfs::{IoMode, OpKind};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, FileId, Pid, Time};
use sioscope_trace::{
    binary, FileRegionSummary, IoEvent, LifetimeSummary, TimeWindowSummary, TraceIndex,
    TraceRecorder,
};

mod oracle;

/// Events with deliberately nasty shapes: frequent zero durations
/// (degenerate intervals), shared start instants, and offsets at the
/// saturation edge of the u64 range.
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
    let offset = match rng.range_inclusive(0, 4) {
        0..=2 => rng.range_inclusive(0, 999_999),
        3 => u64::MAX,
        _ => u64::MAX - 10,
    };
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

/// Fewer than 250 arbitrary events.
fn arb_events(rng: &mut DetRng) -> Vec<IoEvent> {
    let len = rng.range_inclusive(0, 249);
    (0..len).map(|_| arb_event(rng)).collect()
}

fn recorder(events: &[IoEvent]) -> TraceRecorder {
    let mut t = TraceRecorder::new();
    for e in events {
        t.record(*e);
    }
    t
}

/// The two inputs an index is built from: the events as drawn, and
/// their recorder-sorted (canonical) copy.
fn drawn_and_sorted(events: &[IoEvent]) -> [Vec<IoEvent>; 2] {
    let mut t = recorder(events);
    t.sort();
    [events.to_vec(), t.events().to_vec()]
}

/// Lifetime summaries via the index equal the scan for every file
/// (including files absent from the trace).
#[test]
fn lifetime_indexed_matches_oracle() {
    cases("lifetime_indexed_matches_oracle", 256, |rng| {
        let events = arb_events(rng);
        for input in drawn_and_sorted(&events) {
            let idx = TraceIndex::build(&input);
            for f in 0..5u32 {
                assert_eq!(
                    LifetimeSummary::from_index(&idx, FileId(f)),
                    oracle::lifetime(&events, FileId(f))
                );
            }
        }
    });
}

/// Window summaries via the prefix-sum algebra equal the scan for
/// arbitrary windows, including degenerate `t0 == t1` windows at
/// instants where zero-duration events start.
#[test]
fn window_indexed_matches_oracle() {
    cases("window_indexed_matches_oracle", 256, |rng| {
        let events = arb_events(rng);
        let a = rng.range_inclusive(0, 1_099_999);
        let b = rng.range_inclusive(0, 1_099_999);
        let (t0, t1) = (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b)));
        for input in drawn_and_sorted(&events) {
            let idx = TraceIndex::build(&input);
            assert_eq!(
                TimeWindowSummary::from_index(&idx, t0, t1),
                oracle::window(&events, t0, t1)
            );
            // Degenerate window at `a` — exercises the correction term.
            let t = Time::from_nanos(a);
            assert_eq!(
                TimeWindowSummary::from_index(&idx, t, t),
                oracle::window(&events, t, t)
            );
            // Degenerate window pinned to an actual event start, where
            // zero-duration events are guaranteed to sit when present.
            if let Some(e) = events.first() {
                assert_eq!(
                    TimeWindowSummary::from_index(&idx, e.start, e.start),
                    oracle::window(&events, e.start, e.start)
                );
            }
        }
    });
}

/// A region bound: zero, `u64::MAX` or anything below 2 MB, a third
/// each.
fn region_bound(rng: &mut DetRng) -> u64 {
    match rng.range_inclusive(0, 2) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.range_inclusive(0, 1_999_999),
    }
}

/// Region summaries via the offset-sorted prefix sums equal the scan
/// for arbitrary regions, including regions reaching `u64::MAX`
/// against events whose byte ranges saturate.
#[test]
fn region_indexed_matches_oracle() {
    cases("region_indexed_matches_oracle", 256, |rng| {
        let events = arb_events(rng);
        let file = rng.range_inclusive(0, 3) as u32;
        let a = region_bound(rng);
        let b = region_bound(rng);
        let (lo, hi) = (a.min(b), a.max(b));
        for input in drawn_and_sorted(&events) {
            let idx = TraceIndex::build(&input);
            assert_eq!(
                FileRegionSummary::from_index(&idx, FileId(file), lo, hi),
                oracle::region(&events, FileId(file), lo, hi)
            );
        }
    });
}

/// The index's by-kind aggregates and per-kind extractions equal
/// naive per-event folds over the canonically sorted events, whether
/// the index was built from the events as drawn or sorted.
#[test]
fn index_aggregates_match_naive_folds() {
    cases("index_aggregates_match_naive_folds", 256, |rng| {
        let events = arb_events(rng);
        let [drawn, sorted] = drawn_and_sorted(&events);
        for input in [&drawn, &sorted] {
            let idx = TraceIndex::build(input);

            let by_kind = idx.duration_by_kind();
            for (&k, &d) in &by_kind {
                let manual: u64 = sorted
                    .iter()
                    .filter(|e| e.kind == k)
                    .map(|e| e.duration.as_nanos())
                    .sum();
                assert_eq!(d.as_nanos(), manual);
            }
            assert_eq!(by_kind.len(), {
                let mut kinds: Vec<OpKind> = sorted.iter().map(|e| e.kind).collect();
                kinds.sort_unstable();
                kinds.dedup();
                kinds.len()
            });

            let bytes = idx.bytes_by_kind();
            for k in [OpKind::Read, OpKind::Write] {
                let manual: u64 = sorted.iter().filter(|e| e.kind == k).map(|e| e.bytes).sum();
                assert_eq!(bytes.get(&k).copied().unwrap_or(0), manual);
                let mut manual_sizes: Vec<u64> = sorted
                    .iter()
                    .filter(|e| e.kind == k)
                    .map(|e| e.bytes)
                    .collect();
                manual_sizes.sort_unstable();
                assert_eq!(idx.sizes_sorted_of(k), manual_sizes);
                let manual_tl: Vec<(Time, u64)> = sorted
                    .iter()
                    .filter(|e| e.kind == k)
                    .map(|e| (e.start, e.bytes))
                    .collect();
                assert_eq!(idx.timeline_of(k), manual_tl);
                let manual_dtl: Vec<(Time, Time)> = sorted
                    .iter()
                    .filter(|e| e.kind == k)
                    .map(|e| (e.start, e.duration))
                    .collect();
                assert_eq!(idx.duration_timeline_of(k), manual_dtl);
            }

            let manual_total: u64 = sorted.iter().map(|e| e.duration.as_nanos()).sum();
            assert_eq!(idx.total_io_time().as_nanos(), manual_total);
            assert_eq!(recorder(input).total_io_time().as_nanos(), manual_total);
            let manual_last = sorted.iter().map(|e| e.end()).fold(Time::ZERO, Time::max);
            let last = idx.ends_sorted().last().copied().unwrap_or(Time::ZERO);
            assert_eq!(last, manual_last);
        }
    });
}

/// The index's canonical event order is exactly the recorder's stable
/// `(start, pid, file, offset)` sort.
#[test]
fn index_order_is_the_canonical_sort() {
    cases("index_order_is_the_canonical_sort", 256, |rng| {
        let events = arb_events(rng);
        let idx = TraceIndex::build(&events);
        let mut t = recorder(&events);
        t.sort();
        let indexed: Vec<IoEvent> = idx.iter().collect();
        assert_eq!(indexed, t.events().to_vec());
    });
}

/// On a trace in canonical order, as every simulator trace is, the
/// digest folded over the index's events equals the recorder's `.siot`
/// digest, whether the index was built from the events or by
/// `into_index`. The run goldens' `trace_digest` fields rest on this:
/// memoized runs keep only their index.
#[test]
fn index_digest_equals_the_recorder_digest_in_canonical_order() {
    cases(
        "index_digest_equals_the_recorder_digest_in_canonical_order",
        256,
        |rng| {
            let mut t = recorder(&arb_events(rng));
            t.sort();
            let expected = binary::digest(&t);
            assert_eq!(binary::fnv64(&binary::encode(&t)), expected);
            assert_eq!(
                binary::index_digest(&TraceIndex::build(t.events())),
                expected
            );
            assert_eq!(binary::index_digest(&t.into_index()), expected);
        },
    );
}

/// The recorder's in-place permutation sort equals a stable
/// `sort_by_key` on the canonical key, on traces where most events
/// share their key with others (so stability is what decides the
/// order) and the payload columns tell equal-key events apart.
#[test]
fn permutation_sort_equals_sort_by_key() {
    cases("permutation_sort_equals_sort_by_key", 256, |rng| {
        let len = rng.range_inclusive(0, 299);
        let events: Vec<IoEvent> = (0..len)
            .map(|i| IoEvent {
                start: Time::from_nanos(rng.range_inclusive(0, 5)),
                pid: Pid(rng.range_inclusive(0, 2) as u32),
                file: FileId(rng.range_inclusive(0, 1) as u32),
                offset: rng.range_inclusive(0, 2),
                kind: OpKind::Read,
                duration: Time::from_nanos(i),
                bytes: i,
                mode: IoMode::MUnix,
            })
            .collect();
        let mut oracle = events.clone();
        oracle.sort_by_key(|e| (e.start, e.pid, e.file, e.offset));
        let mut t = recorder(&events);
        t.sort();
        assert_eq!(t.events().to_vec(), oracle);
    });
}

/// `starting_in` (bucket-table lookups) equals the filtered scan over
/// the sorted trace.
#[test]
fn starting_in_matches_filtered_scan() {
    cases("starting_in_matches_filtered_scan", 256, |rng| {
        let events = arb_events(rng);
        let a = rng.range_inclusive(0, 1_099_999);
        let b = rng.range_inclusive(0, 1_099_999);
        let (t0, t1) = (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b)));
        let [drawn, sorted] = drawn_and_sorted(&events);
        let via_scan: Vec<IoEvent> = sorted
            .iter()
            .filter(|e| e.start >= t0 && e.start < t1)
            .copied()
            .collect();
        for input in [drawn, sorted] {
            let idx = TraceIndex::build(&input);
            let via_index: Vec<IoEvent> = idx.starting_in(t0, t1).collect();
            assert_eq!(via_index, via_scan);
        }
    });
}

/// Deterministic large-trace check: a 6000-event build must agree
/// with the oracle scans exactly.
#[test]
fn large_build_matches_oracles() {
    let mut rng = DetRng::new(0x1DEC5);
    let mut events = Vec::with_capacity(6000);
    for _ in 0..6000 {
        let kind = match rng.range_inclusive(0, 7) {
            0 => OpKind::Open,
            1 => OpKind::Gopen,
            2 | 3 => OpKind::Read,
            4 => OpKind::Seek,
            5 => OpKind::Write,
            6 => OpKind::Flush,
            _ => OpKind::Close,
        };
        let data = matches!(kind, OpKind::Read | OpKind::Write);
        events.push(IoEvent {
            pid: Pid(rng.range_inclusive(0, 31) as u32),
            file: FileId(rng.range_inclusive(0, 5) as u32),
            kind,
            start: Time::from_nanos(rng.range_inclusive(0, 10_000_000)),
            duration: Time::from_nanos(rng.range_inclusive(0, 50_000)),
            bytes: if data {
                rng.range_inclusive(0, 65_536)
            } else {
                0
            },
            offset: rng.range_inclusive(0, 1 << 30),
            mode: IoMode::MUnix,
        });
    }
    let idx = TraceIndex::build(&events);
    assert_eq!(idx.len(), events.len());
    for f in 0..6u32 {
        assert_eq!(
            LifetimeSummary::from_index(&idx, FileId(f)),
            oracle::lifetime(&events, FileId(f))
        );
    }
    for (a, b) in [(0, 10_000_000), (1_000_000, 2_000_000), (5_000, 5_000)] {
        let (t0, t1) = (Time::from_nanos(a), Time::from_nanos(b));
        assert_eq!(
            TimeWindowSummary::from_index(&idx, t0, t1),
            oracle::window(&events, t0, t1)
        );
    }
    for (lo, hi) in [(0u64, 1 << 29), (1 << 20, 1 << 21), (0, u64::MAX)] {
        assert_eq!(
            FileRegionSummary::from_index(&idx, FileId(2), lo, hi),
            oracle::region(&events, FileId(2), lo, hi)
        );
    }
}
