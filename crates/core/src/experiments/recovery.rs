//! Checkpoint/restart recovery experiments: end-to-end
//! time-to-solution under a compute-node crash.
//!
//! The resilience experiments ask what the PFS does when *it* is the
//! unreliable party; these ask the complementary question the paper's
//! applications answered with their checkpoint files — what does a
//! compute-partition failure cost the application, and how much of
//! that cost does a checkpoint policy buy back? Each experiment runs
//! one paper workload to solution under the same single crash, once
//! per checkpoint policy (no checkpoints, the application's fixed
//! cadence, and Young's optimum interval), and reports the recovery
//! accounting side by side.
//!
//! The crash is *placed*, not drawn: it strikes halfway between the
//! fixed policy's first and second commit instants, both measured from
//! a fault-free run. That makes every row's outcome provable — the
//! no-checkpoint row must replay everything, the fixed row loses at
//! most the work since its first commit — where a seeded crash could
//! land anywhere. (Seeded MTBF scenarios are exercised by the `mtbf`
//! sweep, which owns the stochastic axis.)
//!
//! The no-checkpoint workload is the paper version itself, so its plain
//! fault-free run is the memoized one the figures share.

use crate::experiments::{escat, prism, Experiment, ExperimentOutput, Scale, ShapeCheck};
use crate::recovery::{run_with_recovery, RecoveryStats};
use crate::simulator::{run, RunResult, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::{par, FileId, Time};
use sioscope_workloads::{CheckpointPolicy, EscatDataset, EscatVersion, PrismVersion, Recoverable};
use std::fmt::Write as _;

fn must_run(workload: &sioscope_workloads::Workload, pfs: PfsConfig) -> RunResult {
    run(workload, pfs, SimOptions::default())
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name))
}

/// Total time spent writing the checkpoint files in `r`, for deriving
/// a measured per-checkpoint cost to feed Young's formula.
fn checkpoint_write_time(r: &RunResult, rec: &Recoverable) -> Time {
    let files: Vec<FileId> = rec.checkpoint_files().iter().map(|f| FileId(*f)).collect();
    r.trace
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::Write && files.contains(&e.file))
        .map(|e| e.duration)
        .fold(Time::ZERO, |acc, d| acc.saturating_add(d))
}

/// What the table and checks read of one recovery run: each worker
/// cuts its run down to this, so no trace outlives the worker.
struct RecoveryRun {
    exec_time: Time,
    recovery: RecoveryStats,
    /// Commit markers per node in the policy's workload.
    checkpoints: u32,
}

/// Run the recovery comparison; `baseline` is the execution time of
/// `make(CheckpointPolicy::None)`'s workload run plain and fault-free.
/// Each row's workload is built inside the worker that runs it, so no
/// policy's workload outlives its run.
fn recovery_experiment(
    experiment: Experiment,
    title: &str,
    make: &(dyn Fn(CheckpointPolicy) -> Recoverable + Sync),
    fixed_interval: u32,
    baseline: Time,
) -> ExperimentOutput {
    let fixed_policy = CheckpointPolicy::Fixed {
        interval: fixed_interval,
    };

    // The fixed policy's fault-free commit instants place the crash,
    // and its checkpoint writes give Young's formula a measured cost.
    // The run and its workload are dropped before the policies' runs
    // start.
    let (pfs, first_commit, second_commit, checkpoint_cost) = {
        let fixed = make(fixed_policy);
        let w = fixed.workload();
        let pfs = PfsConfig::caltech(w.nodes, w.os);
        let marked = must_run(w, pfs.clone());
        assert!(
            marked.checkpoint_commits.len() >= 2,
            "{}: fixed policy must commit at least twice to place the crash",
            experiment.id()
        );
        (
            pfs,
            marked.checkpoint_commits[0].1,
            marked.checkpoint_commits[1].1,
            checkpoint_write_time(&marked, &fixed) / u64::from(fixed.checkpoints()),
        )
    };
    let crash_at = first_commit.saturating_add(second_commit) / 2;
    let reboot = baseline.scale(0.05).max(Time::from_secs(1));
    let mut crashes = FaultSchedule::empty();
    crashes.push(
        crash_at,
        FaultKind::ComputeNodeCrash {
            node: 0,
            rework: reboot,
        },
    );

    // Young's interval from measured quantities: the per-checkpoint
    // write cost of the fixed cadence, and an MTBF pessimistically
    // assuming the partition fails most runs.
    let mtbf = baseline.scale(0.8);
    let young_policy = CheckpointPolicy::Young {
        checkpoint_cost,
        mtbf,
    };

    // The fault-free recovery run, then every policy under the crash.
    let no_faults = FaultSchedule::empty();
    let runs = [
        ("fault-free", CheckpointPolicy::None, &no_faults),
        ("none", CheckpointPolicy::None, &crashes),
        ("fixed", fixed_policy, &crashes),
        ("young", young_policy, &crashes),
    ];
    let mut results = par::map(
        &runs,
        par::available_threads(),
        |&(label, policy, faults)| {
            let rec = make(policy);
            let r = run_with_recovery(&rec, faults, pfs.clone(), SimOptions::default())
                .unwrap_or_else(|e| panic!("{}: {label} recovery: {e}", experiment.id()));
            RecoveryRun {
                exec_time: r.exec_time,
                recovery: r.recovery,
                checkpoints: rec.checkpoints(),
            }
        },
    );
    let fault_free = results.remove(0);
    let rows: Vec<(&'static str, RecoveryRun)> = runs[1..]
        .iter()
        .map(|&(label, _, _)| label)
        .zip(results)
        .collect();

    let mut rendered = String::new();
    let _ = writeln!(rendered, "{title}");
    let _ = writeln!(
        rendered,
        "  fault-free baseline: exec {:>10}; crash at {} (reboot {})",
        baseline, crash_at, reboot
    );
    let _ = writeln!(
        rendered,
        "  Young inputs: checkpoint cost {}, MTBF {}",
        checkpoint_cost, mtbf
    );
    let _ = writeln!(
        rendered,
        "  {:<8}{:>7}{:>9}{:>10}{:>12}{:>12}{:>14}{:>12}{:>9}",
        "policy",
        "ckpts",
        "crashes",
        "attempts",
        "rework",
        "restart",
        "ckpt-read",
        "TTS",
        "vs base"
    );
    let _ = writeln!(rendered, "  {}", "-".repeat(91));
    for (label, r) in &rows {
        let st = r.recovery;
        let vs = if baseline.is_zero() {
            1.0
        } else {
            st.time_to_solution.as_secs_f64() / baseline.as_secs_f64()
        };
        let _ = writeln!(
            rendered,
            "  {:<8}{:>7}{:>9}{:>10}{:>11.1}s{:>11.1}s{:>13} B{:>11.1}s{:>8.2}x",
            label,
            r.checkpoints,
            st.crashes,
            st.attempts,
            st.rework.as_secs_f64(),
            st.restart_latency.as_secs_f64(),
            st.checkpoint_read_bytes,
            st.time_to_solution.as_secs_f64(),
            vs
        );
    }

    fn find<'a>(rows: &'a [(&'static str, RecoveryRun)], label: &str) -> &'a RecoveryRun {
        &rows.iter().find(|(l, _)| *l == label).expect("row").1
    }
    let r_none = find(&rows, "none");
    let r_fixed = find(&rows, "fixed");
    let r_young = find(&rows, "young");
    let checks = vec![
        ShapeCheck::new(
            "fault-free recovery is the plain run",
            fault_free.exec_time == baseline
                && fault_free.recovery.time_to_solution == baseline
                && fault_free.recovery.attempts == 1,
            format!("{} vs {baseline}", fault_free.recovery.time_to_solution),
        ),
        ShapeCheck::new(
            "the placed crash engages every policy",
            rows.iter().all(|(_, r)| r.recovery.crashes >= 1),
            format!(
                "crashes: {:?}",
                rows.iter()
                    .map(|(l, r)| (*l, r.recovery.crashes))
                    .collect::<Vec<_>>()
            ),
        ),
        ShapeCheck::new(
            "every policy rides out the crash and the reboot",
            rows.iter()
                .all(|(_, r)| r.recovery.time_to_solution >= crash_at.saturating_add(reboot)),
            format!("crash {crash_at} + reboot {reboot}"),
        ),
        ShapeCheck::new(
            "without checkpoints the whole prefix is rework",
            r_none.recovery.rework == crash_at,
            format!("{} vs {crash_at}", r_none.recovery.rework),
        ),
        ShapeCheck::new(
            "checkpoints bound the rework",
            r_fixed.recovery.rework < r_none.recovery.rework,
            format!("{} vs {}", r_fixed.recovery.rework, r_none.recovery.rework),
        ),
        ShapeCheck::new(
            "a crash after a commit costs more wall clock than the baseline",
            r_none.recovery.time_to_solution > baseline,
            format!("{} vs {baseline}", r_none.recovery.time_to_solution),
        ),
        ShapeCheck::new(
            "replays re-read the checkpoint through the PFS",
            r_fixed.recovery.checkpoint_read_bytes > 0
                && r_none.recovery.checkpoint_read_bytes == 0,
            format!(
                "fixed read {} B, none read {} B",
                r_fixed.recovery.checkpoint_read_bytes, r_none.recovery.checkpoint_read_bytes
            ),
        ),
        ShapeCheck::new(
            "Young's policy commits checkpoints",
            r_young.checkpoints >= 1 && r_young.recovery.attempts >= 2,
            format!("{} checkpoints", r_young.checkpoints),
        ),
    ];
    ExperimentOutput {
        experiment,
        rendered,
        checks,
    }
}

/// ESCAT (version C) recovering from a mid-computation crash: markers
/// after every compute cycle, channel files as the checkpoint.
pub(crate) fn escat(scale: Scale) -> ExperimentOutput {
    let cfg = scale.escat(EscatVersion::C);
    recovery_experiment(
        Experiment::RecoveryEscat,
        "Recovery: ESCAT C time-to-solution under a compute-node crash",
        &|p| cfg.recoverable(p),
        1,
        escat::run_version(EscatVersion::C, EscatDataset::Ethylene, scale).exec_time,
    )
}

/// PRISM (version B) recovering from a mid-computation crash: the
/// restart file the paper describes is the checkpoint, re-read in
/// 155,584-byte records by the replay's phase one.
pub(crate) fn prism(scale: Scale) -> ExperimentOutput {
    let cfg = scale.prism(PrismVersion::B);
    let native = cfg.checkpoint_every;
    recovery_experiment(
        Experiment::RecoveryPrism,
        "Recovery: PRISM B time-to-solution under a compute-node crash",
        &|p| cfg.recoverable(p),
        native,
        prism::run_version(PrismVersion::B, scale).exec_time,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escat_recovery_passes_checks_at_smoke_scale() {
        let out = escat(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\nfailed: {:?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("young"));
        assert!(out.rendered.contains("vs base"));
    }

    #[test]
    fn prism_recovery_passes_checks_at_smoke_scale() {
        let out = prism(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\nfailed: {:?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("none"));
    }

    #[test]
    fn recovery_experiments_render_deterministically() {
        let a = prism(Scale::Smoke);
        let b = prism(Scale::Smoke);
        assert_eq!(a.rendered, b.rendered);
    }
}
