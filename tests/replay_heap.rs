//! Heap-peak regression test: a recovery attempt that replays from a
//! checkpoint marker borrows the annotated programs past the marker
//! instead of copying them.
//!
//! The test binary counts live heap bytes and their peak with the
//! global allocator in `heap/`, and holds a single test, so nothing
//! else allocates while it measures. It compares the heap peak of a
//! fault-free run of a checkpointed smoke-scale PRISM B with the peak
//! of a recovery run of it that crashes once, just after the first
//! commit. The replay runs nearly the whole program again, and each run
//! sizes its trace to the statements it runs, so the recovery run holds
//! no more than the plain run unless its replay copies its statements:
//! it must peak below the plain run plus half the replay workload's
//! statements. If replays are sliced into a copy again, this fails.

use sioscope::experiments::Scale;
use sioscope::run_with_recovery;
use sioscope::simulator::{run, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_pfs::PfsConfig;
use sioscope_sim::Time;
use sioscope_workloads::{CheckpointPolicy, PrismVersion, Stmt};

mod heap;
use heap::peak;

#[test]
fn a_replay_peaks_no_higher_than_a_plain_run() {
    let rec = Scale::Smoke
        .prism(PrismVersion::B)
        .recoverable(CheckpointPolicy::Fixed { interval: 1 });
    let w = rec.workload();
    let pfs = || PfsConfig::caltech(w.nodes, w.os);
    let plain = || run(w, pfs(), SimOptions::default()).expect("PRISM B runs");
    // A first run pays for whatever the simulator sets up once per
    // process, so neither measurement below is charged for it.
    let commits = plain().checkpoint_commits;
    // Halfway between the first two commits: the replay resumes from
    // marker 0.
    let crash = commits[0].1 + (commits[1].1 - commits[0].1) / 2;
    let mut crashes = FaultSchedule::empty();
    crashes.push(
        crash,
        FaultKind::ComputeNodeCrash {
            node: 0,
            rework: Time::from_millis(1),
        },
    );
    let recovered = || run_with_recovery(&rec, &crashes, pfs(), SimOptions::default());
    let replay_bytes = rec
        .slice_from(Some(0))
        .programs
        .iter()
        .map(Vec::len)
        .sum::<usize>()
        * std::mem::size_of::<Stmt>();

    let (plain_run, plain_peak) = peak(plain);
    let (recovery_run, recovery_peak) = peak(recovered);
    let recovery_run = recovery_run.expect("the recovery run reaches a solution");

    assert_eq!(recovery_run.recovery.crashes, 1);
    assert!(recovery_run.recovery.checkpoint_read_bytes > 0, "a replay");
    assert!(recovery_run.recovery.time_to_solution > plain_run.exec_time);
    assert!(replay_bytes > 0, "the replay runs statements");
    assert!(
        recovery_peak < plain_peak + replay_bytes / 2,
        "the recovery run peaks at {recovery_peak} B; the plain run peaks at \
         {plain_peak} B, and the replay workload's statements take {replay_bytes} B"
    );
}
