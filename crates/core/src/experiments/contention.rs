//! Multi-tenant contention experiments: what dedicated-mode
//! characterization misses.
//!
//! The paper measured ESCAT and PRISM with the Paragon's compute
//! partition to themselves, but the production machine space-shared:
//! co-resident jobs held disjoint compute sub-meshes while *sharing*
//! the sixteen I/O nodes and the mesh links to them. These experiments
//! run the missing scenario through the batch scheduler:
//!
//! * `contention_mix` — a Poisson stream mixing I/O-bound and
//!   compute-bound jobs on a machine with ample compute nodes but few
//!   I/O nodes. Queueing at the shared I/O nodes hits the I/O-bound
//!   jobs hardest: their mean bounded slowdown exceeds the
//!   compute-bound jobs', even though every job gets its compute
//!   partition promptly.
//! * `backfill_vs_fcfs` — a three-job scripted stream (a long
//!   narrow job, a machine-wide blocker, a short narrow job) scheduled
//!   under FCFS and EASY backfill. FCFS strands the short job behind
//!   the blocker; EASY starts it immediately in the blocker's shadow
//!   without delaying the blocker, cutting the mean wait.

use crate::experiments::{Experiment, ExperimentOutput, Scale, ShapeCheck};
use crate::schedule::{run_schedule, ScheduleOutcome};
use sioscope_faults::FaultSchedule;
use sioscope_pfs::PfsConfig;
use sioscope_sched::{JobStream, JobTemplate, QueuePolicy, StreamKind};
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;
use sioscope_workloads::{FileSpec, OsRelease, ProgramBuilder, Workload};
use std::fmt::Write as _;

/// Bounded-slowdown threshold for the per-class comparison. The
/// conventional ten-second `DEFAULT_BSLD_TAU` is sized for hour-long
/// production jobs; these synthetic jobs run in milliseconds, and a
/// ten-second floor would clamp every class to 1.0 and erase the
/// contrast the experiment exists to show.
pub(crate) const CLASS_TAU: Time = Time::from_millis(1);

/// Template index of the I/O-bound class in [`mix_stream`].
pub(crate) const IO_BOUND: usize = 0;
/// Template index of the compute-bound class in [`mix_stream`].
pub(crate) const COMPUTE_BOUND: usize = 1;

/// A synthetic SPMD job: one compute burst, then every node streams
/// `io_bytes` through a shared file, then a closing barrier. The
/// compute/io balance is the experiment's knob.
fn job_workload(name: &str, nodes: u32, io_bytes: u64, compute: Time) -> Workload {
    let mut b = ProgramBuilder::new();
    b.compute(compute)
        .open(0)
        .read(0, io_bytes)
        .close(0)
        .barrier();
    Workload {
        name: name.into(),
        version: "S".into(),
        os: OsRelease::Osf13,
        nodes,
        files: vec![FileSpec {
            name: "input".into(),
            initial_size: 256 << 20,
        }],
        programs: vec![b.build(); nodes as usize],
        phases: vec![],
    }
}

/// The shared machine: ample compute nodes, deliberately few I/O
/// nodes, so co-residency contends where the production Paragon did.
pub(crate) fn contended_machine(scale: Scale) -> PfsConfig {
    match scale {
        Scale::Full => {
            let mut cfg = PfsConfig::caltech(64, OsRelease::Osf13);
            cfg.machine.io_nodes = 4;
            cfg
        }
        Scale::Smoke => {
            let mut cfg = PfsConfig::tiny();
            cfg.machine.mesh.rows = 8;
            cfg.machine.mesh.cols = 4;
            cfg.machine.compute_nodes = 32;
            cfg
        }
    }
}

/// The contention-mix job stream at a given Poisson arrival rate.
/// Shared with the `load_factor` sweep, which replays the same seeded
/// job sequence at compressed or dilated inter-arrival times.
///
/// The contrast that matters is the I/O *fraction*, not the I/O
/// volume: an ION backlog of D seconds costs every job the same
/// absolute delay, so it inflates the short I/O-dominated job's
/// slowdown ratio far more than the long compute-dominated one's.
pub(crate) fn mix_stream(scale: Scale, mean_interarrival: Time) -> JobStream {
    let (job_nodes, io_read, cpu_read, count) = match scale {
        Scale::Full => (8, 2 << 20, 64 << 10, 8),
        Scale::Smoke => (4, 512 << 10, 16 << 10, 8),
    };
    let io_bound = job_workload("io-bound", job_nodes, io_read, Time::from_millis(2));
    let compute_bound = job_workload("compute-bound", job_nodes, cpu_read, Time::from_secs(2));
    JobStream {
        kind: StreamKind::Poisson { mean_interarrival },
        seed: 0x005C_ED31,
        templates: vec![
            JobTemplate {
                label: "io-bound".into(),
                workload: io_bound,
            },
            JobTemplate {
                label: "compute-bound".into(),
                workload: compute_bound,
            },
        ],
        count,
    }
}

/// The smoke-scale contention-mix stream at the reference arrival
/// rate — the scheduler benchmark's workload (it raises the job count
/// itself).
pub fn bench_stream() -> JobStream {
    mix_stream(Scale::Smoke, Time::from_millis(20))
}

/// The smoke-scale contended machine the scheduler benchmark runs on.
pub fn bench_machine() -> PfsConfig {
    contended_machine(Scale::Smoke)
}

pub(crate) fn run_stream(
    stream: &JobStream,
    policy: QueuePolicy,
    cfg: PfsConfig,
    what: &str,
) -> ScheduleOutcome {
    run_schedule(stream, policy, &FaultSchedule::empty(), cfg)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Poisson mix of I/O-bound and compute-bound jobs on shared I/O nodes.
pub(crate) fn contention_mix(scale: Scale) -> ExperimentOutput {
    let cfg = contended_machine(scale);
    let machine_nodes = cfg.machine.compute_nodes;
    let ions = cfg.machine.io_nodes;
    let stream = mix_stream(scale, Time::from_millis(20));
    let job_nodes = stream.templates[IO_BOUND].workload.nodes;
    let out = run_stream(&stream, QueuePolicy::Fcfs, cfg, "contention-mix");
    let io_bsld = out.stats.mean_bounded_slowdown_of(IO_BOUND, CLASS_TAU);
    let cpu_bsld = out.stats.mean_bounded_slowdown_of(COMPUTE_BOUND, CLASS_TAU);

    let mut rendered = String::new();
    let _ = writeln!(
        rendered,
        "Contention mix: {} jobs of {job_nodes} nodes on {machine_nodes} compute nodes, {ions} I/O nodes",
        out.stats.jobs.len(),
    );
    rendered.push_str(&out.stats.render());
    let _ = writeln!(
        rendered,
        "mean bsld by class: io-bound {:?}  compute-bound {:?}",
        io_bsld, cpu_bsld
    );

    let idx = TraceIndex::build_with_jobs(out.trace.events(), &out.job_map);
    let attributed: usize = idx.jobs().map(|j| idx.job_event_count(j)).sum();
    let checks = vec![
        ShapeCheck::new(
            "the stream ran both job classes",
            io_bsld.is_some() && cpu_bsld.is_some(),
            format!("io {io_bsld:?}, cpu {cpu_bsld:?}"),
        ),
        ShapeCheck::new(
            "shared-ION queueing hits I/O-bound jobs hardest",
            io_bsld.unwrap_or(0.0) > cpu_bsld.unwrap_or(f64::MAX),
            format!(
                "{:.3} vs {:.3}",
                io_bsld.unwrap_or(0.0),
                cpu_bsld.unwrap_or(0.0)
            ),
        ),
        // A scheduled partition can land *closer to the I/O nodes*
        // than the dedicated run's origin-anchored placement, so a
        // job may shave a few hops of routing latency off its
        // dedicated time. Allow that sub-0.5% placement jitter; any
        // real speedup from contention would be far larger.
        ShapeCheck::new(
            "no job meaningfully beats its dedicated-mode time",
            out.stats.jobs.iter().all(|j| j.stretch() >= 1.0 - 5e-3),
            format!("min stretch {:.3}", {
                let mut s = f64::MAX;
                for j in &out.stats.jobs {
                    s = s.min(j.stretch());
                }
                s
            }),
        ),
        ShapeCheck::new(
            "the shared I/O nodes saw traffic",
            out.stats.ion_utilization.iter().any(|&u| u > 0.0),
            format!("{:?}", out.stats.ion_utilization),
        ),
        ShapeCheck::new(
            "the merged trace is fully attributed through the job map",
            attributed == out.trace.len() && idx.jobs().count() == out.stats.jobs.len(),
            format!("{attributed} of {} events", out.trace.len()),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::ContentionMix,
        rendered,
        checks,
    }
}

/// FCFS against EASY backfill on a blocker-shaped scripted stream.
pub(crate) fn backfill_vs_fcfs(scale: Scale) -> ExperimentOutput {
    let cfg = contended_machine(scale);
    // Scale the three shapes with the machine: the long job leaves a
    // sliver idle, the wide job needs every node, the short job fits
    // the sliver and finishes inside the long job's shadow.
    let total = cfg.machine.compute_nodes;
    let long_nodes = total * 3 / 4;
    let short_nodes = total - long_nodes;
    let long = job_workload("long", long_nodes, 1 << 20, Time::from_millis(150));
    let wide = job_workload("wide", total, 256 << 10, Time::from_millis(20));
    let short = job_workload("short", short_nodes, 32 << 10, Time::from_millis(2));
    let stream = JobStream {
        kind: StreamKind::Scripted {
            arrivals: vec![
                (Time::ZERO, 0),
                (Time::from_millis(1), 1),
                (Time::from_millis(2), 2),
            ],
        },
        seed: 0x005C_ED32,
        templates: vec![
            JobTemplate {
                label: "long".into(),
                workload: long,
            },
            JobTemplate {
                label: "wide".into(),
                workload: wide,
            },
            JobTemplate {
                label: "short".into(),
                workload: short,
            },
        ],
        count: 3,
    };
    let fcfs = run_stream(
        &stream,
        QueuePolicy::Fcfs,
        cfg.clone(),
        "backfill-vs-fcfs (fcfs)",
    );
    let easy = run_stream(
        &stream,
        QueuePolicy::EasyBackfill,
        cfg,
        "backfill-vs-fcfs (easy)",
    );

    let mut rendered = String::new();
    let _ = writeln!(
        rendered,
        "Backfill vs FCFS: long {long_nodes}n + wide {total}n blocker + short {short_nodes}n"
    );
    rendered.push_str(&fcfs.stats.render());
    rendered.push('\n');
    rendered.push_str(&easy.stats.render());
    let _ = writeln!(
        rendered,
        "mean wait: fcfs {:.3}s vs easy {:.3}s",
        fcfs.stats.mean_wait(),
        easy.stats.mean_wait()
    );

    let checks = vec![
        ShapeCheck::new(
            "FCFS strands the short job behind the wide blocker",
            fcfs.stats.jobs[2].first_start >= fcfs.stats.jobs[1].first_start,
            format!(
                "short {} vs wide {}",
                fcfs.stats.jobs[2].first_start, fcfs.stats.jobs[1].first_start
            ),
        ),
        ShapeCheck::new(
            "EASY backfills the short job ahead of the blocker",
            easy.stats.jobs[2].first_start < easy.stats.jobs[1].first_start,
            format!(
                "short {} vs wide {}",
                easy.stats.jobs[2].first_start, easy.stats.jobs[1].first_start
            ),
        ),
        ShapeCheck::new(
            "backfilling cuts the mean wait",
            easy.stats.mean_wait() < fcfs.stats.mean_wait(),
            format!(
                "{:.3}s vs {:.3}s",
                easy.stats.mean_wait(),
                fcfs.stats.mean_wait()
            ),
        ),
        ShapeCheck::new(
            "the shadow protects the blocker from starvation",
            easy.stats.jobs[1].first_start <= fcfs.stats.jobs[1].first_start,
            format!(
                "easy {} vs fcfs {}",
                easy.stats.jobs[1].first_start, fcfs.stats.jobs[1].first_start
            ),
        ),
        ShapeCheck::new(
            "backfilling never inflates the makespan here",
            easy.stats.makespan <= fcfs.stats.makespan,
            format!("{} vs {}", easy.stats.makespan, fcfs.stats.makespan),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::BackfillVsFcfs,
        rendered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_mix_passes_checks_at_smoke_scale() {
        let out = contention_mix(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\nfailed: {:?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("io-bound"));
    }

    #[test]
    fn backfill_vs_fcfs_passes_checks_at_smoke_scale() {
        let out = backfill_vs_fcfs(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\nfailed: {:?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("easy-backfill"));
    }

    #[test]
    fn contention_experiments_render_deterministically() {
        let a = contention_mix(Scale::Smoke);
        let b = contention_mix(Scale::Smoke);
        assert_eq!(a.rendered, b.rendered);
        let c = backfill_vs_fcfs(Scale::Smoke);
        let d = backfill_vs_fcfs(Scale::Smoke);
        assert_eq!(c.rendered, d.rendered);
    }
}
