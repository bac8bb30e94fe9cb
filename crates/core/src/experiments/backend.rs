//! Cross-tier backend comparisons: the same 1996 request streams
//! replayed against three storage tiers.
//!
//! The paper's pathologies — M_UNIX token serialization, gopen
//! rendezvous stalls, small unaligned requests — were measured on one
//! file system. Replaying the identical workload programs through the
//! [`StorageBackend`](sioscope_pfs::StorageBackend) seam answers the
//! evolutionary question directly: which pathologies are artifacts of
//! the 1996 tier (they vanish on the object store, which has no
//! shared-pointer modes), which are intrinsic to the request stream
//! (per-request metadata/latency overhead survives every tier), and
//! which *invert* (striping parallelism becomes single-target
//! serialization when a file maps wholly to one object).

use crate::canon::tier_config;
use crate::experiments::{side_by_side, Experiment, ExperimentOutput, Scale, ShapeCheck};
use crate::simulator::{run_backend, RunResult, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_pfs::{BackendConfig, BackendKind, BackendStats, OpKind, ResilienceStats};
use sioscope_sim::{par, Time};
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload};
use std::fmt::Write as _;

/// What the tables and checks read of one tier run. Each worker cuts
/// its run down to this, so no trace outlives the worker.
struct TierRun {
    exec_time: Time,
    /// Total client-observed I/O time.
    io_time: Time,
    events: u64,
    fault_transitions: u64,
    /// Traced operations: one per completed client call.
    trace_len: usize,
    /// Traced reads and writes.
    data_ops: u64,
    resilience: ResilienceStats,
    backend_stats: BackendStats,
}

impl From<RunResult> for TierRun {
    fn from(r: RunResult) -> TierRun {
        TierRun {
            exec_time: r.exec_time,
            io_time: r.total_io_time(),
            events: r.events,
            fault_transitions: r.fault_transitions,
            trace_len: r.trace.len(),
            data_ops: r.trace.events().iter().filter(|e| e.is_data()).count() as u64,
            resilience: r.resilience,
            backend_stats: r.backend_stats,
        }
    }
}

fn run_tier(kind: BackendKind, workload: &Workload) -> TierRun {
    run_backend(
        workload,
        &tier_config(kind, workload, FaultSchedule::empty()),
        SimOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{} on {kind}: {e}", workload.name))
    .into()
}

fn cross_tier(experiment: Experiment, title: &str, workloads: Vec<Workload>) -> ExperimentOutput {
    let mut rendered = String::new();
    let mut checks = Vec::new();
    let _ = writeln!(rendered, "{title}");
    let _ = writeln!(
        rendered,
        "  {:<14}{:<8}{:>12}{:>12}{:>10}  tier activity",
        "workload", "tier", "exec time", "total I/O", "events"
    );
    let _ = writeln!(rendered, "  {}", "-".repeat(86));

    let runs: Vec<(&Workload, BackendKind)> = workloads
        .iter()
        .flat_map(|w| BackendKind::all().into_iter().map(move |kind| (w, kind)))
        .collect();
    let mut results = par::map(&runs, par::available_threads(), |&(w, kind)| {
        run_tier(kind, w)
    })
    .into_iter();

    for w in &workloads {
        let mut per_tier = Vec::new();
        for kind in BackendKind::all() {
            let r = results.next().expect("one run per workload and tier");
            let s = r.backend_stats;
            let activity = match kind {
                BackendKind::Pfs => "striped PFS (measured path)".to_string(),
                BackendKind::Object => format!("{} PUTs, {} GETs", s.puts, s.gets),
                BackendKind::Burst => format!(
                    "{} B logged, drained by {}",
                    s.bytes_logged, s.drain_complete
                ),
            };
            let _ = writeln!(
                rendered,
                "  {:<14}{:<8}{:>11.2}s{:>11.2}s{:>10}  {}",
                format!("{} {}", w.name, w.version),
                kind.id(),
                r.exec_time.as_secs_f64(),
                r.io_time.as_secs_f64(),
                r.events,
                activity
            );
            per_tier.push((kind, r));
        }

        let label = format!("{} {}", w.name, w.version);
        let pfs = &per_tier[0].1;
        let object = &per_tier[1].1;
        let burst = &per_tier[2].1;

        // Same request stream on every tier: the trace has one record
        // per completed client call regardless of how the tier served
        // it.
        let lens: Vec<usize> = per_tier.iter().map(|(_, r)| r.trace_len).collect();
        checks.push(ShapeCheck::new(
            format!("{label}: identical request stream across tiers"),
            lens.windows(2).all(|p| p[0] == p[1]),
            format!("trace lengths pfs/object/burst = {lens:?}"),
        ));

        // Every data op the object tier saw is accounted as a PUT or
        // GET — the flat namespace serves the whole stream.
        let data_ops = object.data_ops;
        let served = object.backend_stats.puts + object.backend_stats.gets;
        checks.push(ShapeCheck::new(
            format!("{label}: object tier serves all data ops as PUT/GET"),
            served == data_ops,
            format!("{served} PUT+GET vs {data_ops} traced data ops"),
        ));

        // The gopen rendezvous pathology vanishes off the PFS: neither
        // modern tier has collective open semantics.
        checks.push(ShapeCheck::new(
            format!("{label}: no collective stalls survive on modern tiers"),
            object.resilience.is_quiet() && burst.backend_stats.conserves_bytes(),
            "object tier quiet; burst accounting conserved".to_string(),
        ));

        // Absorbing every write at NVMe speed must beat 1996 disks.
        checks.push(ShapeCheck::greater(
            format!("{label}: burst absorb is faster than the striped PFS"),
            "pfs exec (s)",
            pfs.exec_time.as_secs_f64(),
            "burst exec (s)",
            burst.exec_time.as_secs_f64(),
        ));

        // The drain conserves every logged byte and finishes.
        let bs = burst.backend_stats;
        checks.push(ShapeCheck::new(
            format!("{label}: burst drain retires the whole log"),
            bs.conserves_bytes() && bs.bytes_resident == 0 && bs.bytes_drained == bs.bytes_logged,
            format!(
                "{} logged, {} drained, {} resident",
                bs.bytes_logged, bs.bytes_drained, bs.bytes_resident
            ),
        ));
    }

    ExperimentOutput {
        experiment,
        rendered,
        checks,
    }
}

/// ESCAT versions B and C (the tuned M_RECORD progression and the
/// final restructured code) across the three tiers.
pub(crate) fn escat(scale: Scale) -> ExperimentOutput {
    let workloads = [EscatVersion::B, EscatVersion::C]
        .into_iter()
        .map(|v| match scale {
            Scale::Smoke => EscatConfig::tiny(v).build(),
            Scale::Full => EscatConfig::ethylene(v).build(),
        })
        .collect();
    cross_tier(
        Experiment::BackendEscat,
        "Backend comparison: ESCAT B and C across pfs / object / burst",
        workloads,
    )
}

/// PRISM versions A and C (the M_UNIX original and the restructured
/// code) across the three tiers.
pub(crate) fn prism(scale: Scale) -> ExperimentOutput {
    let workloads = [PrismVersion::A, PrismVersion::C]
        .into_iter()
        .map(|v| match scale {
            Scale::Smoke => PrismConfig::tiny(v).build(),
            Scale::Full => PrismConfig::test_problem(v).build(),
        })
        .collect();
    cross_tier(
        Experiment::BackendPrism,
        "Backend comparison: PRISM A and C across pfs / object / burst",
        workloads,
    )
}

/// Shared scaffolding for the two tier-fault experiments: run the
/// workload on the `kind` tier fault-free, engaged-but-empty, and twice
/// with the schedule `faults` derives from the fault-free run, render the
/// comparison, and assert the invariants every faulted tier must hold
/// (hook bit-neutrality, replay determinism, never-faster).
/// Tier-specific checks are appended by the caller.
fn faulted_tier(
    experiment: Experiment,
    title: &str,
    workload: &Workload,
    kind: BackendKind,
    faults: &(dyn Fn(&RunResult) -> FaultSchedule + Sync),
) -> (ExperimentOutput, TierRun) {
    let build = |faults: FaultSchedule| tier_config(kind, workload, faults);
    let run = |what: &str, cfg: &BackendConfig| {
        run_backend(workload, cfg, SimOptions::default()).expect(what)
    };
    // The engaged-but-empty run needs no schedule, so it runs beside
    // the fault-free run. That run's worker derives the schedule from
    // its own trace, which then goes no further.
    let [(clean, placed), (engaged, _)] = side_by_side(
        &[
            (
                "fault-free run",
                build(FaultSchedule::empty()),
                Some(faults),
            ),
            (
                "engaged-empty run",
                build(FaultSchedule::engaged_empty()),
                None,
            ),
        ],
        |(what, cfg, place)| {
            let r = run(what, cfg);
            let placed = place.map(|faults| faults(&r));
            (TierRun::from(r), placed)
        },
    );
    let faults = placed.expect("the fault-free run places the schedule");
    let [faulted, replay] = side_by_side(
        &[
            ("faulted run", build(faults.clone())),
            ("faulted replay", build(faults)),
        ],
        |(what, cfg)| TierRun::from(run(what, cfg)),
    );

    let mut rendered = String::new();
    let _ = writeln!(rendered, "{title}");
    let _ = writeln!(
        rendered,
        "  {:<16}{:>12}{:>9}{:>14}{:>12}{:>12}",
        "run", "exec time", "events", "transitions", "resilience", "bytes lost"
    );
    let _ = writeln!(rendered, "  {}", "-".repeat(75));
    for (label, r) in [("fault-free", &clean), ("faulted", &faulted)] {
        let _ = writeln!(
            rendered,
            "  {:<16}{:>11.3}s{:>9}{:>14}{:>12}{:>12}",
            label,
            r.exec_time.as_secs_f64(),
            r.events,
            r.fault_transitions,
            r.resilience.total_actions(),
            r.backend_stats.bytes_lost,
        );
    }

    let checks = vec![
        ShapeCheck::new(
            "engaged-but-empty schedule is bit-neutral".to_string(),
            engaged.exec_time == clean.exec_time
                && engaged.events == clean.events
                && engaged.trace_len == clean.trace_len,
            format!(
                "exec {} vs {}, events {} vs {}",
                engaged.exec_time, clean.exec_time, engaged.events, clean.events
            ),
        ),
        ShapeCheck::new(
            "same schedule replays bit-identically".to_string(),
            replay.exec_time == faulted.exec_time
                && replay.events == faulted.events
                && replay.trace_len == faulted.trace_len
                && replay.resilience == faulted.resilience,
            format!("exec {} vs {}", replay.exec_time, faulted.exec_time),
        ),
        ShapeCheck::new(
            "faults engaged: transitions recorded".to_string(),
            faulted.fault_transitions > 0,
            format!("{} transitions", faulted.fault_transitions),
        ),
        ShapeCheck::new(
            "faults never speed the run up".to_string(),
            faulted.exec_time >= clean.exec_time,
            format!("faulted {} vs clean {}", faulted.exec_time, clean.exec_time),
        ),
    ];
    (
        ExperimentOutput {
            experiment,
            rendered,
            checks,
        },
        faulted,
    )
}

/// Object tier under a metadata-shard outage spanning the whole run
/// plus a degraded-service window over its first half. The failover
/// ladder (timeout → bounded retries → reroute to the replica shard)
/// must fire and the run must slow down, but the request stream is
/// served in full.
pub(crate) fn faulty_object(scale: Scale) -> ExperimentOutput {
    let workload = match scale {
        Scale::Smoke => EscatConfig::tiny(EscatVersion::B).build(),
        Scale::Full => EscatConfig::ethylene(EscatVersion::B).build(),
    };
    // Shard 0 dark for the entire run (and past its end, so the
    // ladder can never wait the outage out) — every shard-0 metadata
    // op must fail over. The degraded window slows every transfer in
    // the first half.
    let faults = |clean: &RunResult| {
        let horizon = clean.exec_time;
        let mut faults = FaultSchedule::empty();
        faults.push(
            Time::ZERO,
            FaultKind::MetadataShardOutage {
                shard: 0,
                duration: horizon.saturating_add(horizon).max(Time::from_secs(1)),
            },
        );
        faults.push(
            Time::ZERO,
            FaultKind::DegradedService {
                duration: horizon.scale(0.5).max(Time::from_millis(1)),
                factor: 2.0,
            },
        );
        faults
    };

    let (mut out, faulted) = faulted_tier(
        Experiment::FaultyObject,
        "Object tier failover: shard-0 outage + degraded-service window",
        &workload,
        BackendKind::Object,
        &faults,
    );
    let rz = faulted.resilience;
    out.checks.push(ShapeCheck::new(
        "dark shard trips the failover ladder".to_string(),
        rz.timeouts > 0 && rz.reroutes > 0,
        format!(
            "{} timeouts, {} retries, {} reroutes, {} aborts",
            rz.timeouts, rz.retries, rz.reroutes, rz.aborts
        ),
    ));
    let s = faulted.backend_stats;
    out.checks.push(ShapeCheck::new(
        "request stream served in full despite the outage".to_string(),
        s.puts + s.gets == faulted.data_ops,
        format!("{} PUT+GET", s.puts + s.gets),
    ));
    let _ = writeln!(
        out.rendered,
        "  ladder: {} timeouts, {} retries, {} reroutes, {} aborts",
        rz.timeouts, rz.retries, rz.reroutes, rz.aborts
    );
    out
}

/// Burst tier under a drain stall and a burst-node crash timed to the
/// completion of the largest logged write, so bytes are resident —
/// and lost — at the crash instant. The byte ledger must stay
/// conserved with the loss on the books.
pub(crate) fn faulty_burst(scale: Scale) -> ExperimentOutput {
    let workload = match scale {
        Scale::Smoke => PrismConfig::tiny(PrismVersion::C).build(),
        Scale::Full => PrismConfig::test_problem(PrismVersion::C).build(),
    };
    // Crash exactly when the largest write retires from the log: its
    // drain to the inner PFS cannot have finished (the drain channel
    // is slower than the log), so its bytes are resident and lost.
    // The stall beforehand keeps the backlog deep without touching
    // foreground timing.
    let faults = |clean: &RunResult| {
        let horizon = clean.exec_time;
        let crash_at = clean
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == OpKind::Write && e.bytes > 0)
            .max_by_key(|e| e.bytes)
            .map(|e| e.end())
            .expect("workload logs at least one write");
        let mut faults = FaultSchedule::empty();
        faults.push(
            horizon.scale(0.1),
            FaultKind::DrainStall {
                duration: horizon.scale(0.2).max(Time::from_millis(1)),
            },
        );
        faults.push(
            crash_at,
            FaultKind::BurstNodeCrash {
                repair: horizon.scale(0.25).max(Time::from_millis(1)),
            },
        );
        faults
    };

    let (mut out, faulted) = faulted_tier(
        Experiment::FaultyBurst,
        "Burst tier failover: drain stall + burst-node crash at peak residency",
        &workload,
        BackendKind::Burst,
        &faults,
    );
    let s = faulted.backend_stats;
    out.checks.push(ShapeCheck::new(
        "crash at peak residency loses bytes".to_string(),
        s.bytes_lost > 0,
        format!("{} bytes lost", s.bytes_lost),
    ));
    out.checks.push(ShapeCheck::new(
        "byte ledger conserved with the loss on the books".to_string(),
        s.conserves_bytes() && s.bytes_resident == 0,
        format!(
            "{} logged = {} drained + {} resident + {} lost",
            s.bytes_logged, s.bytes_drained, s.bytes_resident, s.bytes_lost
        ),
    ));
    let _ = writeln!(
        out.rendered,
        "  ledger: {} logged = {} drained + {} lost ({} writethroughs)",
        s.bytes_logged, s.bytes_drained, s.bytes_lost, faulted.resilience.writethroughs
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escat_cross_tier_checks_pass_at_smoke() {
        let out = escat(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("object"));
        assert!(out.rendered.contains("burst"));
    }

    #[test]
    fn prism_cross_tier_checks_pass_at_smoke() {
        let out = prism(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
    }

    #[test]
    fn faulty_object_checks_pass_at_smoke() {
        let out = faulty_object(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("reroutes"));
    }

    #[test]
    fn faulty_burst_checks_pass_at_smoke() {
        let out = faulty_burst(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("lost"));
    }
}
