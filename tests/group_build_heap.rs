//! Heap-peak regression test: the runs of a campaign group share one
//! build of their workload.
//!
//! The test binary counts live heap bytes and their peak with the
//! global allocator in `heap/`, and holds a single test, so nothing
//! else allocates while it measures. It runs k faulted smoke-scale runs
//! of one workload in turn through one `canon::Built`, as the campaign
//! executor runs a group, on a cold fault-free memo: the first run
//! builds the workload, fills the memo from it, and every run simulates
//! it. The baseline is the first run alone on a warm memo, which builds
//! the workload once and simulates once. No run of the group may build
//! while the group's copy is alive, so the group must peak below the
//! baseline plus half the workload's statements. If a run builds its own
//! copy beside the group's, this fails.

use sioscope::canon::{execute, BackendKind, Built, RunSpec, WorkloadId};
use sioscope::experiments::{clear_run_caches, Scale};
use sioscope_workloads::Stmt;

mod heap;
use heap::peak;

#[test]
fn a_group_of_runs_holds_one_build() {
    let (id, backend, scale) = (WorkloadId::EscatB, BackendKind::Pfs, Scale::Smoke);
    let runs: Vec<RunSpec> = (0..4)
        .map(|seed| RunSpec::Workload {
            id,
            backend,
            scale,
            fault_events: 2,
            seed,
        })
        .collect();
    let group = |runs: &[RunSpec]| {
        let mut built = Built::default();
        runs.iter()
            .map(|run| execute(run, &mut built).expect("ESCAT B runs").1)
            .collect::<Vec<_>>()
    };
    // A first pass pays for whatever the simulator sets up once per
    // process, and leaves the fault-free memo warm for the baseline.
    let first = group(&runs).remove(0);

    let (alone, alone_peak) = peak(|| group(&runs[..1]).remove(0));
    clear_run_caches();
    let (metrics, group_peak) = peak(|| group(&runs));
    let stmt_bytes =
        id.build(scale).programs.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Stmt>();

    assert_eq!(alone, first, "the same run");
    assert_eq!(metrics[0], first, "the same run");
    assert!(
        metrics.iter().all(|m| m["fault_transitions"] > 0),
        "every run is faulted: {metrics:?}"
    );
    assert!(
        group_peak < alone_peak + stmt_bytes / 2,
        "{} runs through one Built peak at {group_peak} B; the first run alone peaks at \
         {alone_peak} B, and the workload's statements are {stmt_bytes} B",
        runs.len()
    );
}
