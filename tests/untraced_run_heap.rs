//! Heap-peak regression test: a campaign workload run records its
//! totals, not its trace.
//!
//! The test binary counts live heap bytes and their peak with the
//! global allocator in `heap/`, and holds a single test, so nothing
//! else allocates while it measures. It compares the heap peak of a
//! cold fault-free smoke-scale workload run through `canon::execute`
//! with the peak of
//! the same simulation through `run_backend`, which records the trace.
//! Both build the workload and simulate it on the same tier, so what
//! the traced run holds beyond the other is its events: the untraced
//! run must peak lower by at least half the raw trace. If the
//! campaign's simulations record the trace again, this fails.

use sioscope::canon::{execute, tier_config, BackendKind, RunSpec, WorkloadId};
use sioscope::experiments::{clear_run_caches, Scale};
use sioscope::simulator::{run_backend, SimOptions};
use sioscope_faults::FaultSchedule;
use sioscope_trace::IoEvent;

mod heap;
use heap::peak;

#[test]
fn a_campaign_workload_run_peaks_below_the_traced_run() {
    // ESCAT B rather than A: building ESCAT A holds more heap for a
    // moment than its simulation does, and that build peak would hide
    // part of the trace from the comparison.
    let (id, backend, scale) = (WorkloadId::EscatB, BackendKind::Pfs, Scale::Smoke);
    let spec = RunSpec::Workload {
        id,
        backend,
        scale,
        fault_events: 0,
        seed: 0,
    };
    let untraced = || execute(&spec).expect("ESCAT B runs").1;
    // The same simulation, recording the trace: its length and the
    // workload's I/O statement count.
    let traced = || {
        let workload = id.build(scale);
        let cfg = tier_config(backend, &workload, FaultSchedule::empty());
        let run = run_backend(&workload, &cfg, SimOptions::default()).expect("ESCAT B runs");
        (run.trace.len(), workload.io_stmts())
    };
    // A first run of each pays for whatever the simulator sets up once
    // per process, so neither measurement below is charged for it.
    traced();
    untraced();

    clear_run_caches();
    let (metrics, untraced_peak) = peak(untraced);
    let ((events, io_stmts), traced_peak) = peak(traced);
    let raw_bytes = io_stmts * std::mem::size_of::<IoEvent>();

    assert_eq!(metrics["trace_events"], events as u64, "the same run");
    assert_eq!(events, io_stmts, "one event per I/O statement");
    assert!(raw_bytes > 0, "the run traces I/O");
    assert!(
        untraced_peak + raw_bytes / 2 <= traced_peak,
        "the cold workload run peaks at {untraced_peak} B; the traced run peaks at \
         {traced_peak} B, of which {raw_bytes} B are the raw trace"
    );
}
