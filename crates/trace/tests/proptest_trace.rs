//! Property-based tests of the tracing layer: summaries are exact
//! aggregations of the raw events, and the binary format round-trips.

use sioscope_pfs::{IoMode, OpKind};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, FileId, Pid, Time};
use sioscope_trace::{IoEvent, TraceIndex, TraceRecorder};

// `pub`: this file checks lifetimes and windows only, and a private
// module would report the shared `oracle::region` as dead code.
pub mod oracle;

fn arb_event(rng: &mut DetRng) -> IoEvent {
    let pid = rng.range_inclusive(0, 7) as u32;
    let file = rng.range_inclusive(0, 3) as u32;
    let kind = OpKind::all()[rng.range_inclusive(0, 7) as usize];
    let start = rng.range_inclusive(0, 999_999);
    let dur = rng.range_inclusive(0, 9_999);
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

/// A trace of fewer than `max_len` arbitrary events.
fn arb_trace(rng: &mut DetRng, max_len: u64) -> (Vec<IoEvent>, TraceRecorder) {
    let len = rng.range_inclusive(0, max_len - 1);
    let events: Vec<IoEvent> = (0..len).map(|_| arb_event(rng)).collect();
    let mut t = TraceRecorder::new();
    for e in &events {
        t.record(*e);
    }
    (events, t)
}

/// The index's duration_by_kind sums exactly to the recorder's
/// total_io_time, and bytes are partitioned by kind.
#[test]
fn aggregates_are_exact() {
    cases("aggregates_are_exact", 256, |rng| {
        let (events, t) = arb_trace(rng, 200);
        let index = TraceIndex::build(t.events());
        let by_kind = index.duration_by_kind();
        let total: Time = by_kind.values().copied().sum();
        assert_eq!(total, t.total_io_time());
        let manual: u64 = events.iter().map(|e| e.duration.as_nanos()).sum();
        assert_eq!(total.as_nanos(), manual);

        let bytes = index.bytes_by_kind();
        let manual_read: u64 = events
            .iter()
            .filter(|e| e.kind == OpKind::Read)
            .map(|e| e.bytes)
            .sum();
        assert_eq!(bytes.get(&OpKind::Read).copied().unwrap_or(0), manual_read);
    });
}

/// Lifetime summaries over every file partition the trace.
#[test]
fn lifetime_summaries_partition() {
    cases("lifetime_summaries_partition", 256, |rng| {
        let (_, t) = arb_trace(rng, 200);
        let mut count = 0u64;
        let mut duration = Time::ZERO;
        for f in 0..4u32 {
            let s = oracle::lifetime(t.events(), FileId(f));
            for stats in s.per_kind.values() {
                count += stats.count;
                duration += stats.total_duration;
            }
        }
        assert_eq!(count, t.len() as u64);
        assert_eq!(duration, t.total_io_time());
    });
}

/// A window covering all time equals the whole trace; an empty window
/// is empty.
#[test]
fn window_extremes() {
    cases("window_extremes", 256, |rng| {
        let (_, t) = arb_trace(rng, 150);
        let all = oracle::window(t.events(), Time::ZERO, Time::MAX);
        let count: u64 = all.per_kind.values().map(|s| s.count).sum();
        // Zero-duration events starting at t=0 still intersect [0, MAX).
        assert!(
            count
                >= t.events()
                    .iter()
                    .filter(|e| e.duration > Time::ZERO)
                    .count() as u64
        );
        let none = oracle::window(t.events(), Time::MAX, Time::MAX);
        assert_eq!(none.per_kind.len(), 0);
    });
}

/// The binary format round-trips every event exactly.
#[test]
fn binary_round_trip() {
    cases("binary_round_trip", 256, |rng| {
        let (_, t) = arb_trace(rng, 100);
        let bin = sioscope_trace::binary::encode(&t);
        let back = sioscope_trace::binary::decode(&bin).expect("decode");
        assert_eq!(back.events(), t.events());
    });
}

/// Sorting is stable with respect to content: same multiset of events
/// before and after.
#[test]
fn sort_preserves_content() {
    cases("sort_preserves_content", 256, |rng| {
        let (_, mut t) = arb_trace(rng, 150);
        let mut before: Vec<IoEvent> = t.events().to_vec();
        t.sort();
        let mut after: Vec<IoEvent> = t.events().to_vec();
        let key = |e: &IoEvent| {
            (
                e.start,
                e.pid,
                e.file,
                e.offset,
                e.kind as u8,
                e.bytes,
                e.duration,
            )
        };
        before.sort_by_key(key);
        after.sort_by_key(key);
        assert_eq!(before, after);
        for pair in t.events().windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    });
}
