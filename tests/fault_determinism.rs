//! Determinism guarantees of the fault-injection subsystem.
//!
//! Two invariants protect the reproduction results:
//!
//! 1. an *empty* fault schedule must be invisible — even when it is
//!    forced to engage the fault hooks, every run artifact must be
//!    byte-identical to a plain run;
//! 2. a *non-empty* schedule must replay exactly: the same seed and
//!    intensity produce identical execution times, traces and
//!    resilience counters on every run.
//!
//! Both invariants hold on **every storage tier**, not just the
//! classic PFS: a disengaged schedule is bit-invisible on the object
//! store and burst buffer too, and each tier's seeded fault
//! vocabulary replays exactly (resilience ledger and byte ledger
//! included).

use sioscope::canon::{tier_config, tier_faults};
use sioscope::simulator::{run, run_backend, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultSchedule};
use sioscope_pfs::{BackendKind, PfsConfig};
use sioscope_prop::cases;
use sioscope_sim::Time;
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload};

fn run_with(workload: &Workload, faults: FaultSchedule) -> RunResult {
    let mut cfg = PfsConfig::caltech(workload.nodes, workload.os);
    cfg.faults = faults;
    run(workload, cfg, SimOptions::default()).expect("runs")
}

fn assert_bit_identical(plain: &RunResult, engaged: &RunResult) {
    assert_eq!(plain.exec_time, engaged.exec_time, "{}", plain.name);
    assert_eq!(plain.node_finish, engaged.node_finish, "{}", plain.name);
    assert_eq!(plain.events, engaged.events, "{}", plain.name);
    assert_eq!(
        plain.trace.events(),
        engaged.trace.events(),
        "{}",
        plain.name
    );
    assert_eq!(engaged.fault_transitions, 0, "{}", plain.name);
    assert!(
        engaged.resilience.is_quiet(),
        "{}: {:?}",
        plain.name,
        engaged.resilience
    );
}

#[test]
fn engaged_empty_schedule_is_invisible_for_escat() {
    for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
        let w = EscatConfig::tiny(v).build();
        let plain = run_with(&w, FaultSchedule::empty());
        let engaged = run_with(&w, FaultSchedule::engaged_empty());
        assert_bit_identical(&plain, &engaged);
    }
}

#[test]
fn engaged_empty_schedule_is_invisible_for_prism() {
    for v in [PrismVersion::A, PrismVersion::B, PrismVersion::C] {
        let w = PrismConfig::tiny(v).build();
        let plain = run_with(&w, FaultSchedule::empty());
        let engaged = run_with(&w, FaultSchedule::engaged_empty());
        assert_bit_identical(&plain, &engaged);
    }
}

#[test]
fn faulty_runs_replay_exactly() {
    let w = PrismConfig::tiny(PrismVersion::B).build();
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    let faults = FaultGen::new(0xD0_0DAD, Time::from_secs(30), cfg.machine.io_nodes)
        .with_events(6)
        .schedule();
    let a = run_with(&w, faults.clone());
    let b = run_with(&w, faults);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_transitions, b.fault_transitions);
    assert_eq!(a.resilience, b.resilience);
    assert_eq!(a.trace.events(), b.trace.events());
}

#[test]
fn disengaged_and_engaged_empty_schedules_are_invisible_on_every_tier() {
    let w = EscatConfig::tiny(EscatVersion::B).build();
    for kind in BackendKind::all() {
        let plain = run_backend(
            &w,
            &tier_config(kind, &w, FaultSchedule::empty()),
            SimOptions::default(),
        )
        .expect("plain tier run");
        let engaged = run_backend(
            &w,
            &tier_config(kind, &w, FaultSchedule::engaged_empty()),
            SimOptions::default(),
        )
        .expect("engaged-empty tier run");
        assert_bit_identical(&plain, &engaged);
        assert_eq!(
            plain.backend_stats,
            engaged.backend_stats,
            "{}: hook engagement must not touch the byte ledger",
            kind.id()
        );
    }
}

/// Same seed + intensity → identical resilience counters and run
/// artifacts, for any generated schedule.
#[test]
fn same_seed_replay_has_identical_retry_and_abort_counters() {
    cases(
        "same_seed_replay_has_identical_retry_and_abort_counters",
        12,
        |rng| {
            let seed = rng.range_inclusive(0, u64::MAX);
            let intensity = rng.range_inclusive(0, 7) as usize;
            let w = EscatConfig::tiny(EscatVersion::B).build();
            let cfg = PfsConfig::caltech(w.nodes, w.os);
            let faults = FaultGen::new(seed, Time::from_secs(20), cfg.machine.io_nodes)
                .with_events(intensity)
                .schedule();
            let a = run_with(&w, faults.clone());
            let b = run_with(&w, faults);
            assert_eq!(a.resilience.retries, b.resilience.retries);
            assert_eq!(a.resilience.aborts, b.resilience.aborts);
            assert_eq!(a.resilience, b.resilience);
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.events, b.events);
            assert_eq!(a.fault_transitions, b.fault_transitions);
        },
    );
}

/// Each tier's seeded fault vocabulary replays bit-identically:
/// same fingerprint, same resilience ledger, same byte ledger.
#[test]
fn tier_fault_runs_replay_exactly_on_every_tier() {
    cases("tier_fault_runs_replay_exactly_on_every_tier", 12, |rng| {
        let seed = rng.range_inclusive(0, u64::MAX);
        let events = rng.range_inclusive(1, 3) as u32;
        let w = EscatConfig::tiny(EscatVersion::B).build();
        for kind in BackendKind::all() {
            let faults = tier_faults(kind, &w, Time::from_secs(20), events, seed);
            let a = run_backend(
                &w,
                &tier_config(kind, &w, faults.clone()),
                SimOptions::default(),
            )
            .expect("faulted tier run");
            let b = run_backend(&w, &tier_config(kind, &w, faults), SimOptions::default())
                .expect("replayed tier run");
            assert_eq!(a.exec_time, b.exec_time, "{}", kind.id());
            assert_eq!(a.events, b.events);
            assert_eq!(a.fault_transitions, b.fault_transitions);
            assert_eq!(&a.resilience, &b.resilience);
            assert_eq!(a.trace.events(), b.trace.events());
            assert_eq!(&a.backend_stats, &b.backend_stats);
        }
    });
}
