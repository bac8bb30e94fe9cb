//! Trace → replay → re-simulate round trip: the replayed workload must
//! reproduce the original request stream exactly and land in the same
//! timing ballpark.

use sioscope::simulator::{run, SimOptions};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_trace::TraceIndex;
use sioscope_workloads::{replay, EscatConfig, EscatVersion, Workload};
use std::collections::BTreeMap;

fn run_workload(w: &Workload) -> sioscope::simulator::RunResult {
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    run(w, cfg, SimOptions::default()).expect("runs")
}

#[test]
fn escat_replay_reproduces_the_request_stream() {
    let original_workload = EscatConfig::tiny(EscatVersion::B).build();
    let original = run_workload(&original_workload);

    let sizes: BTreeMap<u32, u64> = original_workload
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u32, f.initial_size))
        .collect();
    let replayed_workload =
        replay::from_trace(original.trace.events(), &sizes).expect("replayable");
    assert!(replayed_workload.validate().is_empty());
    let replayed = run_workload(&replayed_workload);
    let orig = TraceIndex::build(original.trace.events());
    let repl = TraceIndex::build(replayed.trace.events());

    // Exactly the same bytes move.
    assert_eq!(orig.bytes_by_kind(), repl.bytes_by_kind());
    // Same data-operation counts.
    for kind in [OpKind::Read, OpKind::Write, OpKind::Seek] {
        assert_eq!(orig.count_of(kind), repl.count_of(kind), "{kind} count");
    }
    // Same request-size distribution.
    assert_eq!(
        orig.sizes_sorted_of(OpKind::Read),
        repl.sizes_sorted_of(OpKind::Read)
    );

    // Timing lands in the same ballpark (think time is reproduced;
    // barrier structure is not, so allow slack).
    let o = original.exec_time.as_secs_f64();
    let r = replayed.exec_time.as_secs_f64();
    assert!(
        r > 0.5 * o && r < 2.0 * o,
        "replay exec {r:.1}s vs original {o:.1}s"
    );
}

#[test]
fn replay_is_idempotent_at_the_stream_level() {
    // Replaying a replay changes nothing further.
    let w0 = EscatConfig::tiny(EscatVersion::C).build();
    let r0 = run_workload(&w0);
    let sizes: BTreeMap<u32, u64> = w0
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u32, f.initial_size))
        .collect();
    let w1 = replay::from_trace(r0.trace.events(), &sizes).expect("first replay");
    let r1 = run_workload(&w1);
    let w2 = replay::from_trace(r1.trace.events(), &sizes).expect("second replay");
    let r2 = run_workload(&w2);
    let (i1, i2) = (r1.trace.into_index(), r2.trace.into_index());
    assert_eq!(i1.bytes_by_kind(), i2.bytes_by_kind());
    assert_eq!(i1.count_of(OpKind::Read), i2.count_of(OpKind::Read));
}
