//! §7 design-principle ablations.
//!
//! The paper closes by recommending request aggregation, prefetching
//! and write-behind so that applications stop hand-tuning around file
//! system idiosyncrasies. These experiments quantify each principle by
//! re-running a paper workload with the policy switched on and
//! comparing client-observed I/O time.
//!
//! A baseline that is a paper version on the measured PFS is the
//! memoized run the figures share, not a fresh simulation.

use crate::experiments::{
    escat, prism, side_by_side, Experiment, ExperimentOutput, Scale, ShapeCheck,
};
use crate::simulator::{run, RunResult, SimOptions};
use sioscope_pfs::{OpKind, PfsConfig, PolicyConfig};
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;
use sioscope_workloads::{
    EscatDataset, EscatVersion, FileSpec, OsRelease, PrismVersion, ProgramBuilder, Workload,
};
use std::fmt::Write as _;

/// What the ablation tables and checks read of one run. A fresh run is
/// cut down to this where it ran, so no trace outlives its worker.
struct Totals {
    exec_time: Time,
    /// Total client-observed I/O time.
    io_time: Time,
    /// Client-observed time in reads.
    read_time: Time,
}

impl From<RunResult> for Totals {
    fn from(r: RunResult) -> Totals {
        Totals {
            exec_time: r.exec_time,
            io_time: r.total_io_time(),
            read_time: r
                .trace
                .events()
                .iter()
                .filter(|e| e.kind == OpKind::Read)
                .map(|e| e.duration)
                .sum(),
        }
    }
}

impl From<&RunResult<TraceIndex>> for Totals {
    fn from(r: &RunResult<TraceIndex>) -> Totals {
        Totals {
            exec_time: r.exec_time,
            io_time: r.trace.total_io_time(),
            read_time: r.trace.duration_of(OpKind::Read),
        }
    }
}

/// The memoized run of ESCAT `version` (ethylene) on the measured PFS.
fn measured_escat(version: EscatVersion, scale: Scale) -> Totals {
    Totals::from(&*escat::run_version(version, EscatDataset::Ethylene, scale))
}

fn run_with_policy(workload: &Workload, policy: PolicyConfig) -> Totals {
    let mut cfg = PfsConfig::caltech(workload.nodes, workload.os);
    cfg.policy = policy;
    run(workload, cfg, SimOptions::default())
        .unwrap_or_else(|e| panic!("{} with {policy:?} failed: {e}", workload.name))
        .into()
}

/// [`run_with_policy`] for each `(workload, policy)` pair, side by side.
fn run_with_policies<const N: usize>(runs: [(&Workload, PolicyConfig); N]) -> [Totals; N] {
    side_by_side(&runs, |&(w, policy)| run_with_policy(w, policy))
}

fn render_pair(title: &str, baseline: &Totals, treated: &Totals, policy_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  measured PFS     : exec {:>10}, total I/O {:>10}",
        baseline.exec_time, baseline.io_time
    );
    let _ = writeln!(
        out,
        "  + {policy_name:<14}: exec {:>10}, total I/O {:>10}",
        treated.exec_time, treated.io_time
    );
    let io_speedup = ratio(baseline.io_time, treated.io_time);
    let _ = writeln!(out, "  I/O-time speedup : {io_speedup:.2}x");
    out
}

fn ratio(a: Time, b: Time) -> f64 {
    if b.is_zero() {
        f64::INFINITY
    } else {
        a.as_secs_f64() / b.as_secs_f64()
    }
}

/// Write aggregation: ESCAT version C's small M_ASYNC staging writes,
/// coalesced client-side into stripe-sized requests. The paper (§4.4):
/// "Request aggregation and prefetching by the file system would
/// simplify code structure and eliminate the need for code
/// restructuring."
pub(crate) fn aggregation(scale: Scale) -> ExperimentOutput {
    let w = scale.escat(EscatVersion::C).build();
    let base = measured_escat(EscatVersion::C, scale);
    let agg = run_with_policy(&w, PolicyConfig::aggregation_only());
    let rendered = render_pair(
        "Ablation: client write aggregation on ESCAT C staging writes",
        &base,
        &agg,
        "aggregation",
    );
    let speedup = ratio(base.io_time, agg.io_time);
    let checks = vec![ShapeCheck::new(
        "aggregating small writes reduces total I/O time",
        speedup > 1.0,
        format!("I/O-time speedup {speedup:.2}x"),
    )];
    ExperimentOutput {
        experiment: Experiment::AblationAggregation,
        rendered,
        checks,
    }
}

/// Prefetching on the access pattern §4.4 motivates it for: a
/// sequential small-read scan of staged data with computation between
/// reads — the ESCAT version-A reload pattern, distilled so the
/// benefit is not masked by the unrelated phase-one open storm.
fn sequential_scan_workload(scale: Scale) -> Workload {
    let (nodes, file_mb, chunk) = match scale {
        Scale::Full => (16u32, 8u64, 4096u64),
        Scale::Smoke => (2, 1, 4096),
    };
    let total = file_mb << 20;
    Workload {
        name: "sequential-scan".into(),
        version: "scan".into(),
        os: OsRelease::Osf13,
        nodes,
        files: (0..nodes)
            .map(|i| FileSpec {
                name: format!("scan/stage{i}"),
                initial_size: total,
            })
            .collect(),
        programs: (0..nodes)
            .map(|pid| {
                let mut b = ProgramBuilder::new();
                b.open(pid);
                for _ in 0..total.div_ceil(chunk) {
                    b.read(pid, chunk).compute(Time::from_micros(400));
                }
                b.close(pid);
                b.build()
            })
            .collect(),
        phases: vec![],
    }
}

/// Prefetching: the sequential reload pattern with read-ahead enabled.
pub(crate) fn prefetch(scale: Scale) -> ExperimentOutput {
    let w = sequential_scan_workload(scale);
    let [base, pf] = run_with_policies([
        (&w, PolicyConfig::measured_pfs()),
        (&w, PolicyConfig::prefetch_only()),
    ]);
    let rendered = render_pair(
        "Ablation: read-ahead on a sequential staged-data reload",
        &base,
        &pf,
        "read-ahead",
    );
    let speedup = ratio(base.io_time, pf.io_time);
    let checks = vec![ShapeCheck::new(
        "prefetching reduces total I/O time for sequential reads",
        speedup > 1.0,
        format!("I/O-time speedup {speedup:.2}x"),
    )];
    ExperimentOutput {
        experiment: Experiment::AblationPrefetch,
        rendered,
        checks,
    }
}

/// Write-behind: asynchronous draining on top of aggregation for
/// ESCAT C.
pub(crate) fn write_behind(scale: Scale) -> ExperimentOutput {
    let w = scale.escat(EscatVersion::C).build();
    let [agg, wb] = run_with_policies([
        (&w, PolicyConfig::aggregation_only()),
        (&w, PolicyConfig::write_behind_only()),
    ]);
    let rendered = render_pair(
        "Ablation: write-behind vs synchronous aggregation on ESCAT C",
        &agg,
        &wb,
        "write-behind",
    );
    let speedup = ratio(agg.io_time, wb.io_time);
    let checks = vec![ShapeCheck::new(
        "asynchronous draining further reduces client-observed I/O time",
        speedup >= 1.0,
        format!("I/O-time speedup over sync aggregation {speedup:.2}x"),
    )];
    ExperimentOutput {
        experiment: Experiment::AblationWriteBehind,
        rendered,
        checks,
    }
}

/// The paper's central counterfactual. §4.4: "Request aggregation and
/// prefetching by the file system would simplify code structure and
/// eliminate the need for code restructuring to exploit file system
/// characteristics." The developers spent eighteen months rewriting
/// version A into version C; this experiment asks how much of that
/// I/O-time win the §7 file-system policies would have delivered to
/// the *unmodified* version A.
pub(crate) fn no_restructuring(scale: Scale) -> ExperimentOutput {
    let wa = scale.escat(EscatVersion::A).build();
    let wb = scale.escat(EscatVersion::B).build();
    let a_measured = measured_escat(EscatVersion::A, scale);
    let b_measured = measured_escat(EscatVersion::B, scale);
    let c_measured = measured_escat(EscatVersion::C, scale);
    let [a_policies, b_policies] = run_with_policies([
        (&wa, PolicyConfig::recommended()),
        (&wb, PolicyConfig::recommended()),
    ]);

    let io = |r: &Totals| r.io_time.as_secs_f64();
    // The B -> C rewrite was pure request/mode tuning (M_ASYNC instead
    // of seek-under-M_UNIX) - the part §4.4 says the file system
    // should have provided.
    let bc_manual = io(&b_measured) - io(&c_measured);
    let bc_policy = io(&b_measured) - io(&b_policies);
    let bc_recovered = if bc_manual > 0.0 {
        bc_policy / bc_manual
    } else {
        0.0
    };
    // The A -> C rewrite also removed redundant reads and the open
    // storm - structural changes no FS policy can make.
    let ac_manual = io(&a_measured) - io(&c_measured);
    let ac_policy = io(&a_measured) - io(&a_policies);
    let ac_recovered = if ac_manual > 0.0 {
        ac_policy / ac_manual
    } else {
        0.0
    };

    let mut rendered =
        String::from("Counterfactual: §7 file-system policies applied to the unmodified code\n");
    let _ = writeln!(rendered, "  {:<34}{:>12}", "configuration", "total I/O");
    let _ = writeln!(rendered, "  {}", "-".repeat(46));
    for (label, v) in [
        ("A, measured PFS", io(&a_measured)),
        ("A + aggregation/prefetch/wb", io(&a_policies)),
        ("B, measured PFS", io(&b_measured)),
        ("B + aggregation/prefetch/wb", io(&b_policies)),
        ("C, measured PFS (the rewrite)", io(&c_measured)),
    ] {
        let _ = writeln!(rendered, "  {label:<34}{v:>11.1}s");
    }
    let _ = writeln!(
        rendered,
        "  policies recover {:.0}% of the B->C tuning win without code changes,",
        100.0 * bc_recovered
    );
    let _ = writeln!(
        rendered,
        "  but only {:.0}% of the full A->C win - the structural rewrite\n  (redundancy removal, gopen) is beyond any file-system policy.",
        100.0 * ac_recovered
    );

    let checks = vec![
        ShapeCheck::in_range(
            "§4.4 claim: policies deliver the request-tuning (B->C) win",
            bc_recovered,
            0.5,
            1.5,
        ),
        ShapeCheck::new(
            "FS policies improve even the untouched version A",
            ac_policy > 0.0,
            format!("A I/O: {:.1}s -> {:.1}s", io(&a_measured), io(&a_policies)),
        ),
        ShapeCheck::new(
            "structural restructuring retains value beyond policies",
            io(&a_policies) > io(&c_measured),
            format!(
                "A+policies {:.1}s vs C {:.1}s",
                io(&a_policies),
                io(&c_measured)
            ),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::AblationNoRestructuring,
        rendered,
        checks,
    }
}

/// Adaptive policy selection: §5.4 points to PPFS — "a file system
/// that dynamically tunes its policy to match the requirements of the
/// application access patterns ... is a promising alternative". Run
/// ESCAT version C with (a) the measured PFS, (b) the statically tuned
/// §7 recommendation, and (c) the adaptive detector that enables the
/// same mechanisms per stream on its own. The adaptive configuration
/// should recover most of the statically tuned win with no
/// application-side knowledge.
pub(crate) fn adaptive(scale: Scale) -> ExperimentOutput {
    let w = scale.escat(EscatVersion::C).build();
    let measured = measured_escat(EscatVersion::C, scale);
    let [tuned, adaptive] = run_with_policies([
        (&w, PolicyConfig::recommended()),
        (&w, PolicyConfig::adaptive()),
    ]);
    let mut rendered = render_pair(
        "Ablation: adaptive policy selection on ESCAT C",
        &measured,
        &adaptive,
        "adaptive",
    );
    let _ = writeln!(
        rendered,
        "  statically tuned : exec {:>10}, total I/O {:>10}",
        tuned.exec_time, tuned.io_time
    );
    let win_tuned = ratio(measured.io_time, tuned.io_time);
    let win_adaptive = ratio(measured.io_time, adaptive.io_time);
    let recovered = if win_tuned > 1.0 {
        (win_adaptive - 1.0) / (win_tuned - 1.0)
    } else {
        1.0
    };
    let _ = writeln!(
        rendered,
        "  adaptive recovers {:.0}% of the statically tuned I/O-time win",
        100.0 * recovered
    );
    let checks = vec![
        ShapeCheck::new(
            "adaptive beats the measured PFS without application hints",
            win_adaptive > 1.0,
            format!("adaptive speedup {win_adaptive:.2}x"),
        ),
        ShapeCheck::new(
            "adaptive recovers most of the statically tuned win",
            recovered > 0.5,
            format!(
                "recovered {:.0}% (tuned {win_tuned:.2}x, adaptive {win_adaptive:.2}x)",
                100.0 * recovered
            ),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::AblationAdaptive,
        rendered,
        checks,
    }
}

/// Client buffering: PRISM version C with the developers' buffering
/// disable vs. version B's buffered header reads — quantifying the
/// §5.4 observation that "a few small reads can dominate overall I/O
/// time".
pub(crate) fn caching(scale: Scale) -> ExperimentOutput {
    // Version C as written (buffering disabled on the restart file).
    let with_disable = Totals::from(&*prism::run_version(PrismVersion::C, scale));
    // The counterfactual: same code without the SetBuffering(false)
    // call.
    let mut wc_buffered = scale.prism(PrismVersion::C).build();
    for prog in &mut wc_buffered.programs {
        prog.retain(|s| {
            !matches!(
                s,
                sioscope_workloads::Stmt::Io {
                    op: sioscope_pfs::IoOp::SetBuffering { enabled: false },
                    ..
                }
            )
        });
    }
    let buffered = run_with_policy(&wc_buffered, PolicyConfig::measured_pfs());
    let mut rendered = render_pair(
        "Ablation: PRISM C with vs without the buffering disable",
        &with_disable,
        &buffered,
        "buffering",
    );
    let rt_disabled = with_disable.read_time;
    let rt_buffered = buffered.read_time;
    let _ = writeln!(
        rendered,
        "  read time: disabled {rt_disabled}, buffered {rt_buffered}"
    );
    let checks = vec![ShapeCheck::greater(
        "disabling buffering inflates small-read time (paper §5.1)",
        "read time, buffering disabled (s)",
        rt_disabled.as_secs_f64(),
        "read time, buffered (s)",
        rt_buffered.as_secs_f64(),
    )];
    ExperimentOutput {
        experiment: Experiment::AblationCaching,
        rendered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ablations_run() {
        for out in [
            aggregation(Scale::Smoke),
            prefetch(Scale::Smoke),
            write_behind(Scale::Smoke),
            caching(Scale::Smoke),
        ] {
            assert!(!out.rendered.is_empty());
            assert_eq!(out.checks.len(), 1);
        }
        let out = adaptive(Scale::Smoke);
        assert!(!out.rendered.is_empty());
        assert_eq!(out.checks.len(), 2);
    }
}
