//! Differential backend suite: the storage-backend seam must be
//! invisible wherever it claims to be.
//!
//! Two oracles:
//!
//! 1. `tests/golden/backend_baseline.txt` holds run fingerprints
//!    generated from the tree *before* the trait seam existed.
//!    [`sioscope::run`] must reproduce them bit for bit (regenerate
//!    with `UPDATE_BACKEND_BASELINE=1` — only ever from a pre-refactor
//!    checkout).
//! 2. A burst buffer absorbing *nothing* is pure passthrough: routed
//!    through [`sioscope::run_backend`], it must match the plain PFS
//!    run exactly, faults included.
//!
//! The suite closes with the burst tier's durability shape: a
//! burst-node crash that destroys resident checkpoint bytes must cost
//! recovery more than one that hits an empty log.

use sioscope::canon::WorkloadId;
use sioscope::experiments::Scale;
use sioscope::{run, run_backend, run_with_recovery_backend, SimOptions};
use sioscope_faults::FaultGen;
use sioscope_pfs::{BackendConfig, BurstBufferConfig, PfsConfig};
use std::path::PathBuf;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(r: &sioscope::RunResult) -> String {
    let trace_bytes = sioscope_trace::binary::encode(&r.trace);
    let mut finish = Vec::with_capacity(r.node_finish.len() * 8);
    for t in &r.node_finish {
        finish.extend_from_slice(&t.as_nanos().to_le_bytes());
    }
    format!(
        "{} {} {} {} {:016x} {:016x}",
        r.exec_time.as_nanos(),
        r.events,
        r.fault_transitions,
        r.trace.len(),
        fnv64(&trace_bytes),
        fnv64(&finish)
    )
}

/// The Caltech config for one (workload, fault case), with the fault
/// schedule derived exactly as the canonical run surface derives it.
fn faulted_cfg(
    id: WorkloadId,
    fault_events: u32,
    seed: u64,
) -> (sioscope_workloads::Workload, PfsConfig) {
    let workload = id.build(Scale::Smoke);
    let cfg = PfsConfig::caltech(workload.nodes, workload.os);
    let cfg = if fault_events == 0 {
        cfg
    } else {
        let horizon = run(&workload, cfg.clone(), SimOptions::default())
            .expect("fault-free baseline")
            .exec_time;
        let mut faulty = cfg;
        faulty.faults = FaultGen::new(seed, horizon, faulty.machine.io_nodes)
            .with_events(fault_events as usize)
            .schedule();
        faulty
    };
    (workload, cfg)
}

fn baseline_run(id: WorkloadId, fault_events: u32, seed: u64) -> sioscope::RunResult {
    let (workload, cfg) = faulted_cfg(id, fault_events, seed);
    run(&workload, cfg, SimOptions::default()).expect("baseline run")
}

const CASES: &[(u32, u64)] = &[(0, 0), (2, 0xF417)];

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("backend_baseline.txt")
}

#[test]
fn trait_routed_pfs_matches_pre_refactor_baseline() {
    let mut lines = vec![
        "# Pre-refactor run fingerprints (smoke scale): id fault_events seed exec_ns events fault_transitions trace_len trace_fnv64 node_finish_fnv64".to_string(),
    ];
    for id in WorkloadId::all() {
        for &(fault_events, seed) in CASES {
            let r = baseline_run(id, fault_events, seed);
            lines.push(format!(
                "{} {} {} {}",
                id.id(),
                fault_events,
                seed,
                fingerprint(&r)
            ));
        }
    }
    let rendered = lines.join("\n") + "\n";

    let path = baseline_path();
    if std::env::var("UPDATE_BACKEND_BASELINE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with UPDATE_BACKEND_BASELINE=1",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "post-refactor run() diverged from the pre-refactor direct path"
    );
}

#[test]
fn passthrough_burst_matches_the_pfs_run() {
    for id in WorkloadId::all() {
        for &(fault_events, seed) in CASES {
            let want = fingerprint(&baseline_run(id, fault_events, seed));
            let (workload, cfg) = faulted_cfg(id, fault_events, seed);
            let passthrough = run_backend(
                &workload,
                &BackendConfig::Burst(BurstBufferConfig::absorbing(cfg, Vec::new())),
                SimOptions::default(),
            )
            .expect("passthrough burst run");
            assert_eq!(
                fingerprint(&passthrough),
                want,
                "{} faults={fault_events}: passthrough burst buffer diverged",
                id.id()
            );
            assert_eq!(passthrough.backend_stats.bytes_logged, 0);
            assert_eq!(passthrough.backend_stats.absorbed_ops, 0);
        }
    }
}

/// The issue's durability acceptance shape: a burst-node crash that
/// destroys *resident checkpoint bytes* forces recovery to roll back
/// past the non-durable commit, so its time-to-solution is strictly
/// worse than the identical compute-crash scenario where the burst
/// crash hits an empty log and loses nothing.
#[test]
fn burst_crash_on_resident_checkpoint_bytes_costs_strictly_more_than_on_an_empty_log() {
    use sioscope_faults::{FaultKind, FaultSchedule};
    use sioscope_pfs::{BurstBufferConfig, OpKind};
    use sioscope_sim::Time;
    use sioscope_workloads::{CheckpointPolicy, EscatConfig, EscatVersion};

    let cfg = EscatConfig::tiny(EscatVersion::C);
    let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
    let pfs = PfsConfig::caltech(cfg.nodes, rec.workload().os);
    let burst = BurstBufferConfig::over(pfs);

    // The fault-free marked run: commit instants and the write trace
    // both scenarios are derived from.
    let marked = run_backend(
        rec.workload(),
        &BackendConfig::Burst(burst.clone()),
        SimOptions::default(),
    )
    .expect("marked burst run");
    let exec = marked.exec_time;

    // Both scenarios share one compute crash at 60% of the run.
    let crash_at = exec.scale(0.6);
    let mut crashes = FaultSchedule::empty();
    crashes.push(
        crash_at,
        FaultKind::ComputeNodeCrash {
            node: 0,
            rework: Time::from_secs(1),
        },
    );

    // The commit the crash would roll back to, and the interval
    // window (t_prev, t_k] feeding it.
    let (_, t_k) = *marked
        .checkpoint_commits
        .iter()
        .rev()
        .find(|(_, t)| *t <= crash_at)
        .expect("a commit precedes the crash");
    let t_prev = marked
        .checkpoint_commits
        .iter()
        .rev()
        .find(|(_, t)| *t < t_k)
        .map(|(_, t)| *t)
        .unwrap_or(Time::ZERO);
    // A checkpoint-interval write, caught at the instant it retires
    // into the burst log: its bytes are resident (the drain channel is
    // slower than the log), so a burst-node crash right then loses
    // them and poisons the commit's durability.
    let w = marked
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::Write && e.bytes > 0 && e.end() > t_prev && e.end() <= t_k)
        .max_by_key(|e| e.bytes)
        .expect("the rollback interval contains a write");

    let repair = Time::from_millis(1);
    let crashed_burst = |at: Time| {
        let mut faulted = burst.clone();
        faulted.faults = FaultSchedule::empty();
        faulted
            .faults
            .push(at, FaultKind::BurstNodeCrash { repair });
        faulted
    };
    // Scenario A: the burst node dies with the checkpoint bytes still
    // resident. Scenario B: it dies at t=1ns, before anything is
    // logged — same repair, nothing lost. The loss ledger is read from
    // the first attempt's physics (recovery reports the final, replay
    // attempt, whose clock no longer lines up with the crash instant).
    let first_attempt = |at: Time| {
        run_backend(
            rec.workload(),
            &BackendConfig::Burst(crashed_burst(at)),
            SimOptions::default(),
        )
        .expect("faulted burst run")
        .backend_stats
    };
    let lost = first_attempt(w.end());
    assert!(
        lost.bytes_lost >= w.bytes && lost.conserves_bytes(),
        "scenario A must lose the resident checkpoint bytes"
    );
    let intact = first_attempt(Time::from_nanos(1));
    assert!(
        intact.bytes_lost == 0 && intact.conserves_bytes(),
        "scenario B crashes an empty log"
    );

    let recover = |at: Time| {
        run_with_recovery_backend(
            &rec,
            &crashes,
            &BackendConfig::Burst(crashed_burst(at)),
            SimOptions::default(),
        )
        .expect("recovery over the faulted burst tier")
    };
    let resident = recover(w.end());
    let empty_log = recover(Time::from_nanos(1));
    assert!(
        resident.recovery.time_to_solution > empty_log.recovery.time_to_solution,
        "losing resident checkpoint bytes must cost extra rollback: {} vs {}",
        resident.recovery.time_to_solution,
        empty_log.recovery.time_to_solution
    );
}
