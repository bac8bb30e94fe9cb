//! End-to-end guarantees of the checkpoint/restart recovery engine:
//! same-seed runs are bit-identical, recovery never beats the
//! fault-free baseline, malformed crash schedules are rejected
//! before any simulation happens, and the accounting of attempts the
//! engine stops at their crash matches an oracle that runs every
//! attempt to completion.

use sioscope::simulator::{run, run_backend, SimError, SimOptions};
use sioscope::{run_with_recovery, run_with_recovery_backend, RecoveryStats, RunResult};
use sioscope_faults::{FaultGen, FaultKind, FaultSchedule};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{BackendConfig, BurstBufferConfig, IoMode, IoOp, OpKind, PfsConfig};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, Time};
use sioscope_workloads::{
    CheckpointPolicy, EscatConfig, EscatVersion, FileSpec, PrismConfig, PrismVersion, Recoverable,
    Stmt, Workload,
};

fn pfs_for(rec: &Recoverable) -> PfsConfig {
    let w = rec.workload();
    PfsConfig::caltech(w.nodes, w.os)
}

fn baseline_of(rec: &Recoverable) -> Time {
    run(rec.workload(), pfs_for(rec), SimOptions::default())
        .expect("baseline runs")
        .exec_time
}

fn crash_at(at: Time, rework: Time) -> FaultSchedule {
    let mut s = FaultSchedule::empty();
    s.push(at, FaultKind::ComputeNodeCrash { node: 0, rework });
    s
}

fn recover(rec: &Recoverable, crashes: &FaultSchedule) -> RunResult {
    run_with_recovery(rec, crashes, pfs_for(rec), SimOptions::default()).expect("recovery runs")
}

#[test]
fn escat_recovery_is_bit_identical_across_reruns() {
    let rec =
        EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::Fixed { interval: 1 });
    let crashes = crash_at(baseline_of(&rec).scale(0.6), Time::from_secs(2));
    let a = recover(&rec, &crashes);
    let b = recover(&rec, &crashes);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.recovery.time_to_solution, b.recovery.time_to_solution);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.trace.events(), b.trace.events());
    assert!(a.recovery.crashes >= 1, "the placed crash must engage");
}

#[test]
fn prism_recovery_is_bit_identical_across_reruns() {
    let cfg = PrismConfig::tiny(PrismVersion::B);
    let rec = cfg.recoverable(CheckpointPolicy::Fixed {
        interval: cfg.checkpoint_every,
    });
    // PRISM's tiny run is dominated by setup I/O, so commit times
    // cluster late; place the crash between the first two measured
    // commits rather than at a fixed fraction of the baseline.
    let base = run(rec.workload(), pfs_for(&rec), SimOptions::default()).expect("baseline runs");
    let (first, second) = (base.checkpoint_commits[0].1, base.checkpoint_commits[1].1);
    let crashes = crash_at(first.saturating_add(second) / 2, Time::from_secs(2));
    let a = recover(&rec, &crashes);
    let b = recover(&rec, &crashes);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.trace.events(), b.trace.events());
    assert!(
        a.recovery.checkpoint_read_bytes > 0,
        "a replay from PRISM's restart file re-reads it through the PFS"
    );
}

#[test]
fn seeded_crash_generation_feeds_recovery_deterministically() {
    let rec =
        EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::Fixed { interval: 1 });
    let baseline = baseline_of(&rec);
    let w = rec.workload();
    let fgen = FaultGen::new(0xD00D, baseline.scale(2.0), 8);
    let crashes = fgen.compute_crash_schedule(baseline.scale(0.5), Time::from_secs(1), w.nodes);
    assert_eq!(
        crashes,
        fgen.compute_crash_schedule(baseline.scale(0.5), Time::from_secs(1), w.nodes),
        "the crash stream is a pure function of its seed"
    );
    let a = recover(&rec, &crashes);
    let b = recover(&rec, &crashes);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.trace.events(), b.trace.events());
}

#[test]
fn crash_on_missing_node_is_rejected_before_simulation() {
    let rec = EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::None);
    let mut s = FaultSchedule::empty();
    s.push(
        Time::from_secs(1),
        FaultKind::ComputeNodeCrash {
            node: 1000,
            rework: Time::from_secs(1),
        },
    );
    match run_with_recovery(&rec, &s, pfs_for(&rec), SimOptions::default()) {
        Err(SimError::InvalidFaults(problems)) => {
            assert!(
                problems.iter().any(|p| p.contains("compute-crash")),
                "{problems:?}"
            );
        }
        other => panic!("expected InvalidFaults, got {other:?}"),
    }
}

#[test]
fn zero_rework_crash_is_rejected() {
    let rec = EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::None);
    let s = crash_at(Time::from_secs(1), Time::ZERO);
    assert!(matches!(
        run_with_recovery(&rec, &s, pfs_for(&rec), SimOptions::default()),
        Err(SimError::InvalidFaults(_))
    ));
}

/// No checkpoints, a fixed interval, or Young's rule, a third each.
fn arb_policy(rng: &mut DetRng) -> CheckpointPolicy {
    match rng.range_inclusive(0, 2) {
        0 => CheckpointPolicy::None,
        1 => CheckpointPolicy::Fixed {
            interval: rng.range_inclusive(1, 4) as u32,
        },
        _ => CheckpointPolicy::Young {
            checkpoint_cost: Time::from_secs(rng.range_inclusive(1, 8)),
            mtbf: Time::from_secs(rng.range_inclusive(4, 64)),
        },
    }
}

/// Whatever the checkpoint policy and wherever a single crash
/// lands, time-to-solution is never better than the fault-free run
/// of the same annotated workload — recovery can only add time.
#[test]
fn recovery_never_beats_the_fault_free_baseline() {
    cases("recovery_never_beats_the_fault_free_baseline", 24, |rng| {
        let policy = arb_policy(rng);
        let frac = 0.05 + 1.15 * rng.unit();
        let reboot_secs = rng.range_inclusive(1, 3);
        let rec = EscatConfig::tiny(EscatVersion::C).recoverable(policy);
        let baseline = baseline_of(&rec);
        let crashes = crash_at(baseline.scale(frac), Time::from_secs(reboot_secs));
        let r = recover(&rec, &crashes);
        assert!(
            r.recovery.time_to_solution >= baseline,
            "policy {policy:?}, crash at {frac:.2}x: TTS {} < baseline {}",
            r.recovery.time_to_solution,
            baseline
        );
        assert_eq!(r.recovery.attempts, r.recovery.crashes + 1);
    });
}

/// Seeded multi-crash scenarios always run to completion, with
/// every crash either surviving into the accounting or absorbed by
/// an earlier crash's reboot window.
#[test]
fn seeded_scenarios_always_reach_a_solution() {
    cases("seeded_scenarios_always_reach_a_solution", 24, |rng| {
        let seed = rng.range_inclusive(0, 999);
        let mtbf_frac = 0.3 + 2.7 * rng.unit();
        let rec =
            EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = baseline_of(&rec);
        let crashes = FaultGen::new(seed, baseline.scale(2.0), 8).compute_crash_schedule(
            baseline.scale(mtbf_frac),
            Time::from_secs(1),
            rec.workload().nodes,
        );
        let r = recover(&rec, &crashes);
        assert!(r.recovery.time_to_solution >= baseline);
        assert!(u64::from(r.recovery.crashes) <= crashes.events.len() as u64);
        assert_eq!(r.recovery.attempts, r.recovery.crashes + 1);
    });
}

/// The storage an attempt runs against: the PFS, driven by `run` and
/// `run_with_recovery`, or a configured tier, driven by `run_backend`
/// and `run_with_recovery_backend`.
enum Tier {
    Pfs(PfsConfig),
    Backend(BackendConfig),
}

impl Tier {
    /// One attempt, run to completion.
    fn attempt(&self, w: &Workload) -> RunResult {
        match self {
            Tier::Pfs(cfg) => run(w, cfg.clone(), SimOptions::default()),
            Tier::Backend(cfg) => run_backend(w, cfg, SimOptions::default()),
        }
        .expect("attempt runs")
    }

    /// The recovery engine under test.
    fn recover(&self, rec: &Recoverable, crashes: &FaultSchedule) -> RunResult {
        match self {
            Tier::Pfs(cfg) => run_with_recovery(rec, crashes, cfg.clone(), SimOptions::default()),
            Tier::Backend(cfg) => {
                run_with_recovery_backend(rec, crashes, cfg, SimOptions::default())
            }
        }
        .expect("recovery runs")
    }
}

/// Checkpoint bytes among `r`'s traced writes issued before `cutoff`.
fn ckpt_writes_before(rec: &Recoverable, r: &RunResult, cutoff: Time) -> u64 {
    r.trace
        .events()
        .iter()
        .filter(|e| {
            e.kind == OpKind::Write
                && e.start < cutoff
                && rec.checkpoint_files().contains(&e.file.0)
        })
        .map(|e| e.bytes)
        .sum()
}

/// The oracle: the recovery story told by running every attempt to
/// completion and only then judging where the next crash fell. A
/// marker counts as committed when its commit instant and its
/// durability instant are both at or before the crash.
fn recover_by_full_attempts(rec: &Recoverable, crashes: &FaultSchedule, tier: &Tier) -> RunResult {
    let mut crash_list: Vec<(Time, Time)> = crashes
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::ComputeNodeCrash { rework, .. } => Some((ev.at, rework)),
            _ => None,
        })
        .collect();
    crash_list.sort();
    let mut stats = RecoveryStats::default();
    let mut wall = Time::ZERO;
    let mut from: Option<u32> = None;
    let mut next = 0;
    loop {
        stats.attempts += 1;
        let mut result = tier.attempt(&rec.slice_from(from));
        let exec = result.exec_time;
        while next < crash_list.len() && crash_list[next].0 <= wall {
            next += 1;
        }
        if next >= crash_list.len() || crash_list[next].0 >= wall + exec {
            stats.time_to_solution = wall.saturating_add(exec);
            stats.checkpoint_write_bytes += ckpt_writes_before(rec, &result, Time::MAX);
            result.recovery = stats;
            return result;
        }
        let (at, rework) = crash_list[next];
        next += 1;
        stats.crashes += 1;
        let local = at.saturating_sub(wall);
        let committed = result
            .checkpoint_commits
            .iter()
            .zip(&result.durable_commits)
            .rfind(|((_, t), (_, d))| *t <= local && *d <= local)
            .map(|((k, t), _)| (*k, *t));
        let base = committed.map_or(Time::ZERO, |(_, t)| t);
        stats.rework += local.saturating_sub(base);
        stats.restart_latency += rework;
        stats.checkpoint_write_bytes += ckpt_writes_before(rec, &result, local);
        let new_from = committed.map(|(k, _)| k).or(from);
        if new_from.is_some() {
            stats.checkpoint_read_bytes += rec.prologue_read_bytes();
        }
        wall = at.saturating_add(rework);
        from = new_from;
    }
}

/// Run the engine and the oracle on one story and require the same
/// accounting and the same final attempt. Returns the engine's result.
fn assert_matches_full_attempts(
    rec: &Recoverable,
    crashes: &FaultSchedule,
    tier: &Tier,
) -> RunResult {
    let engine = tier.recover(rec, crashes);
    let oracle = recover_by_full_attempts(rec, crashes, tier);
    assert_eq!(engine.recovery, oracle.recovery);
    assert_eq!(engine.exec_time, oracle.exec_time);
    assert_eq!(engine.events, oracle.events);
    assert_eq!(
        sioscope_trace::binary::digest(&engine.trace),
        sioscope_trace::binary::digest(&oracle.trace)
    );
    engine
}

/// Seeded stories over three workloads, three checkpoint policies, the
/// PFS and a burst buffer absorbing the checkpoint files (with drain
/// stalls and burst-node crashes, one of them on resident checkpoint
/// bytes), and compute crashes at several MTBFs: the engine's
/// accounting equals the oracle's.
#[test]
fn stopped_attempts_account_like_full_attempts() {
    let (mut crashed, mut replayed, mut lost) = (0, 0, 0);
    cases("stopped_attempts_account_like_full_attempts", 32, |rng| {
        let policy = arb_policy(rng);
        let rec = match rng.range_inclusive(0, 2) {
            0 => EscatConfig::tiny(EscatVersion::B).recoverable(policy),
            1 => EscatConfig::tiny(EscatVersion::C).recoverable(policy),
            _ => PrismConfig::tiny(PrismVersion::B).recoverable(policy),
        };
        let pfs = pfs_for(&rec);
        let io_nodes = pfs.machine.io_nodes;
        let baseline = baseline_of(&rec);
        let seed = rng.range_inclusive(0, 999);
        let tier = if rng.chance(0.5) {
            Tier::Pfs(pfs)
        } else {
            let mut burst = BurstBufferConfig::absorbing(pfs, rec.checkpoint_files().to_vec());
            let mut faults = FaultGen::new(seed, baseline, io_nodes)
                .with_events(rng.range_inclusive(1, 4) as usize)
                .burst_schedule();
            // Also crash the log the instant one checkpoint write lands
            // in it, while its bytes are resident: that commit is lost.
            let clean = Tier::Backend(BackendConfig::Burst(burst.clone()));
            let landings: Vec<Time> = clean
                .attempt(rec.workload())
                .trace
                .events()
                .iter()
                .filter(|e| e.kind == OpKind::Write && rec.checkpoint_files().contains(&e.file.0))
                .map(|e| e.end())
                .collect();
            if !landings.is_empty() {
                let at = landings[rng.range_inclusive(0, landings.len() as u64 - 1) as usize];
                let repair = Time::from_millis(rng.range_inclusive(1, 500));
                faults.push(at, FaultKind::BurstNodeCrash { repair });
            }
            burst.faults = faults;
            Tier::Backend(BackendConfig::Burst(burst))
        };
        let first = tier.attempt(rec.workload());
        lost += u32::from(first.durable_commits.iter().any(|&(_, d)| d == Time::MAX));
        let mtbf = [0.25, 0.5, 1.0, 2.0][rng.range_inclusive(0, 3) as usize];
        let crashes = FaultGen::new(seed, baseline.scale(3.2), io_nodes).compute_crash_schedule(
            baseline.scale(mtbf),
            baseline.scale(0.05).max(Time::from_secs(1)),
            rec.workload().nodes,
        );
        let r = assert_matches_full_attempts(&rec, &crashes, &tier);
        crashed += u32::from(r.recovery.crashes > 0);
        replayed += u32::from(r.recovery.checkpoint_read_bytes > 0);
    });
    assert!(crashed > 0, "no story crashed");
    assert!(replayed > 0, "no story replayed from a marker");
    assert!(lost > 0, "no story lost a commit to a burst-node crash");
}

/// Two nodes write a checkpoint file gopen'd in M_SYNC. Node 1
/// computes 1 s longer before its second write, so node 0's second
/// write still waits in the forming group when a crash strikes at
/// 0.5 s. The crash counts that parked write: 12,288 bytes were
/// issued before it, 8,192 of them traced.
#[test]
fn a_write_parked_in_a_forming_group_counts_before_the_crash() {
    let io = |op| Stmt::Io { file: 0, op };
    let program = |late: u64| {
        vec![
            io(IoOp::Gopen {
                group: 2,
                mode: IoMode::MSync,
                record_size: None,
            }),
            io(IoOp::Write { size: 4096 }),
            Stmt::Compute(Time::from_millis(100 + late)),
            io(IoOp::Write { size: 4096 }),
            Stmt::Barrier,
            Stmt::Compute(Time::from_secs(1)),
            Stmt::Barrier,
            io(IoOp::Close),
        ]
    };
    let workload = Workload {
        name: "parked".into(),
        version: "T".into(),
        os: OsRelease::Osf13,
        nodes: 2,
        files: vec![FileSpec {
            name: "ckpt".into(),
            initial_size: 0,
        }],
        programs: vec![program(0), program(1000)],
        phases: vec![],
    };
    let rec = Recoverable::annotate(workload, 1, Vec::new(), vec![0]);
    let tier = Tier::Pfs(pfs_for(&rec));
    let crash = Time::from_millis(500);
    // Run to completion, the first attempt shows one write issued
    // before the crash that completes only after it: node 0's.
    let full = tier.attempt(rec.workload());
    let waiting = full
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::Write && e.start < crash && e.end() > crash)
        .count();
    assert_eq!(waiting, 1);
    let r = assert_matches_full_attempts(&rec, &crash_at(crash, Time::from_secs(1)), &tier);
    assert_eq!(r.recovery.crashes, 1);
    // The final attempt replays the whole run and writes all 16,384.
    let final_attempt = ckpt_writes_before(&rec, &full, Time::MAX);
    assert_eq!(final_attempt, 16_384);
    assert_eq!(r.recovery.checkpoint_write_bytes - final_attempt, 12_288);
}
