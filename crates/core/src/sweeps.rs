//! Machine-configuration sweeps — the paper's stated future work.
//!
//! §7: *"we plan to examine the effects of different machine
//! configurations (e.g., number of I/O nodes) and different
//! architectures on I/O performance."* These sweeps re-run a paper
//! workload while varying one machine parameter at a time, reporting
//! execution time and total client-observed I/O time per point.
//!
//! A sweep names its workload by [`WorkloadId`] and [`Scale`] and builds
//! it once. Every fault-free run it needs on the canonical Caltech PFS
//! (a point whose config is that PFS, the fault-intensity horizon, the
//! checkpoint sweeps' and the `mtbf` sweep's crash baselines) is read
//! from the fault-free memo behind [`canon::execute`]'s workload runs,
//! so a process simulates each such run once across campaign runs and
//! sweeps. A sweep that holds the workload hands it to the memo, so a
//! miss simulates it instead of building another copy. A point reads
//! only its run's totals, so it records no trace. Neither do the
//! recovery-driven sweeps: the recovery driver's ledger sums the
//! checkpoint writes as they are recorded.

use crate::canon::{self, BackendKind, WorkloadId};
use crate::coupled::{run_coupled, Route};
use crate::experiments::contention::{
    contended_machine, mix_stream, run_stream, CLASS_TAU, COMPUTE_BOUND, IO_BOUND,
};
use crate::experiments::Scale;
use crate::recovery::recover;
use crate::simulator::{simulate, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultSchedule};
use sioscope_pfs::{BackendConfig, BurstBufferConfig, PfsConfig};
use sioscope_sched::QueuePolicy;
use sioscope_sim::{par, Time};
use sioscope_stream::StagingConfig;
use sioscope_trace::IoTotals;
use sioscope_workloads::{
    CheckpointPolicy, EscatVersion, PrismConfig, PrismVersion, StreamCadence, Workload,
};
use std::fmt::Write as _;

/// Every machine-configuration sweep, as a stable identifier.
///
/// The ids double as CLI arguments (`repro --sweeps=io_nodes,...`) and
/// as the `parameter` column of the rendered table, so a sweep can be
/// selected by the same name it reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SweepId {
    IoNodes,
    StripeUnit,
    DiskBandwidth,
    DegradedArrays,
    FaultIntensity,
    Mtbf,
    CheckpointInterval,
    CheckpointIntervalBurst,
    CheckpointIntervalBurstCrash,
    LoadFactor,
    StagingDepth,
}

impl SweepId {
    /// All sweeps in presentation order.
    pub fn all() -> Vec<SweepId> {
        use SweepId::*;
        vec![
            IoNodes,
            StripeUnit,
            DiskBandwidth,
            DegradedArrays,
            FaultIntensity,
            Mtbf,
            CheckpointInterval,
            CheckpointIntervalBurst,
            CheckpointIntervalBurstCrash,
            LoadFactor,
            StagingDepth,
        ]
    }

    /// Stable identifier (CLI arguments, artifact file names).
    pub fn id(self) -> &'static str {
        use SweepId::*;
        match self {
            IoNodes => "io_nodes",
            StripeUnit => "stripe_unit",
            DiskBandwidth => "disk_bandwidth",
            DegradedArrays => "degraded_arrays",
            FaultIntensity => "fault_intensity",
            Mtbf => "mtbf",
            CheckpointInterval => "checkpoint_interval",
            CheckpointIntervalBurst => "checkpoint_interval_burst",
            CheckpointIntervalBurstCrash => "checkpoint_interval_burst_crash",
            LoadFactor => "load_factor",
            StagingDepth => "staging_depth",
        }
    }

    /// Parse an identifier.
    pub fn from_id(id: &str) -> Option<SweepId> {
        SweepId::all().into_iter().find(|s| s.id() == id)
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Varied-parameter label (e.g. `"io_nodes=8"`).
    pub label: String,
    /// Parameter value (numeric, for plotting).
    pub value: u64,
    /// Wall-clock execution time of the run.
    pub exec_time: Time,
    /// Total client-observed I/O time.
    pub io_time: Time,
    /// Events processed (simulation cost indicator).
    pub events: u64,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// What was varied.
    pub parameter: &'static str,
    /// Workload name.
    pub workload: String,
    /// The points, in parameter order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Speedup of total I/O time from the first to the best point.
    pub fn best_io_speedup(&self) -> f64 {
        let first = self.points.first().map(|p| p.io_time.as_secs_f64());
        let best = self
            .points
            .iter()
            .map(|p| p.io_time.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        match first {
            Some(f) if best > 0.0 => f / best,
            _ => 1.0,
        }
    }

    /// Render as a fixed-width table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Sweep of {} over {} ({} points)",
            self.parameter,
            self.workload,
            self.points.len()
        );
        let _ = writeln!(
            out,
            "{:<18}{:>14}{:>14}{:>12}",
            self.parameter, "exec time", "total I/O", "events"
        );
        let _ = writeln!(out, "{}", "-".repeat(58));
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<18}{:>13.1}s{:>13.1}s{:>12}",
                p.label,
                p.exec_time.as_secs_f64(),
                p.io_time.as_secs_f64(),
                p.events
            );
        }
        out
    }
}

/// Run `point` for every value of a sweep axis, one value per
/// available core, with the results in axis order. Points are
/// independent simulations, so the thread count never reaches them.
fn each<T: Sync, P: Send>(axis: &[T], point: impl Fn(&T) -> P + Sync) -> Vec<P> {
    par::map(axis, par::available_threads(), point)
}

fn run_point(workload: &Workload, cfg: PfsConfig, label: String, value: u64) -> SweepPoint {
    let r: RunResult<IoTotals> = simulate(workload, BackendConfig::Pfs(cfg))
        .unwrap_or_else(|e| panic!("sweep point {label}: {e}"));
    SweepPoint {
        label,
        value,
        exec_time: r.exec_time,
        io_time: r.total_io_time(),
        events: r.events,
    }
}

/// `id`'s fault-free run at `scale` on the canonical Caltech PFS, as an
/// unlabelled point. It comes from the memo behind
/// [`canon::workload_run`], so campaign runs and every sweep of a
/// process share one simulation of it. A caller that holds the workload
/// passes it (see [`canon::fault_free`]).
fn canonical_run(id: WorkloadId, scale: Scale, workload: Option<&Workload>) -> SweepPoint {
    let memo = canon::fault_free(id, scale, BackendKind::Pfs, workload);
    let metrics = match &*memo {
        Ok(metrics) => metrics,
        Err(e) => panic!("canonical run: {}: {e}", id.id()),
    };
    SweepPoint {
        label: String::new(),
        value: 0,
        exec_time: Time::from_nanos(metrics["exec_time_ns"]),
        io_time: Time::from_nanos(metrics["io_time_ns"]),
        events: metrics["events"],
    }
}

/// The workload a sweep varies the machine under: built once from the
/// id and scale that also key its canonical run.
struct Subject {
    id: WorkloadId,
    scale: Scale,
    workload: Workload,
}

impl Subject {
    fn new(id: WorkloadId, scale: Scale) -> Self {
        Subject {
            id,
            scale,
            workload: id.build(scale),
        }
    }

    /// The Caltech PFS for the workload, which each point varies in one
    /// parameter.
    fn caltech(&self) -> PfsConfig {
        PfsConfig::caltech(self.workload.nodes, self.workload.os)
    }

    /// The point that runs the workload on `cfg`. Where `cfg` is the
    /// canonical PFS tier config, the run is [`canonical_run`].
    fn point(&self, cfg: PfsConfig, label: String, value: u64) -> SweepPoint {
        match canon::tier_config(BackendKind::Pfs, &self.workload, FaultSchedule::empty()) {
            BackendConfig::Pfs(canonical) if canonical == cfg => SweepPoint {
                label,
                value,
                ..canonical_run(self.id, self.scale, Some(&self.workload))
            },
            _ => run_point(&self.workload, cfg, label, value),
        }
    }

    /// A sweep of `parameter` over the workload, its points in
    /// parameter order.
    fn sweep(&self, parameter: &'static str, mut points: Vec<SweepPoint>) -> Sweep {
        points.sort_by_key(|p| p.value);
        Sweep {
            parameter,
            workload: self.workload.name.clone(),
            points,
        }
    }
}

/// Vary the number of I/O nodes (the paper's headline example of a
/// configuration study). Each point re-runs workload `id` at `scale`
/// with the same compute partition but `n` I/O nodes/disk arrays.
pub fn io_node_sweep(id: WorkloadId, scale: Scale, io_nodes: &[u32]) -> Sweep {
    let s = Subject::new(id, scale);
    let points = each(io_nodes, |&n| {
        let mut cfg = s.caltech();
        cfg.machine.io_nodes = n;
        s.point(cfg, format!("io_nodes={n}"), u64::from(n))
    });
    s.sweep("io_nodes", points)
}

/// Vary the PFS stripe unit. Request sizes that were tuned to the
/// 64 KB default (ESCAT's 128 KB M_RECORD reads) stop being
/// stripe-multiples at other units — quantifying how tightly the
/// paper's applications were coupled to one file-system constant
/// (§6.2: "optimizations are closely tied to the idiosyncrasies of
/// the parallel I/O system").
pub fn stripe_sweep(id: WorkloadId, scale: Scale, units: &[u64]) -> Sweep {
    let s = Subject::new(id, scale);
    let points = each(units, |&u| {
        let mut cfg = s.caltech();
        cfg.stripe_unit = u;
        s.point(cfg, format!("stripe={}K", u >> 10), u)
    });
    s.sweep("stripe_unit", points)
}

/// Vary the disk array bandwidth (architecture generations).
pub fn disk_bandwidth_sweep(id: WorkloadId, scale: Scale, bandwidths_mbps: &[u32]) -> Sweep {
    let s = Subject::new(id, scale);
    let points = each(bandwidths_mbps, |&mbps| {
        let mut cfg = s.caltech();
        cfg.machine.disk.bandwidth_bps = f64::from(mbps) * 1e6;
        s.point(cfg, format!("{mbps}MB/s"), u64::from(mbps))
    });
    s.sweep("disk_bandwidth", points)
}

/// Vary the number of degraded (single-spindle-failure) RAID-3
/// arrays — failure injection at the device level. Each point is a
/// fault schedule of permanent spindle failures at time zero, so this
/// sweep is now a client of the `sioscope-faults` subsystem rather
/// than a special-cased machine flag.
pub(crate) fn degraded_array_sweep(id: WorkloadId, scale: Scale, degraded_counts: &[u32]) -> Sweep {
    let s = Subject::new(id, scale);
    let points = each(degraded_counts, |&k| {
        let mut cfg = s.caltech();
        let ions: Vec<u32> = (0..k.min(cfg.machine.io_nodes)).collect();
        cfg.faults = FaultSchedule::degraded_from_start(&ions);
        s.point(cfg, format!("degraded={k}"), u64::from(k))
    });
    s.sweep("degraded_arrays", points)
}

/// Vary the fault intensity: point `k` runs under the first `k`
/// events of the seeded fault stream. Because the stream is drawn
/// sequentially, intensity `k`'s scenario is a strict prefix of
/// `k + 1`'s — each point adds faults to the previous scenario
/// instead of rolling an unrelated one, so execution-time inflation
/// accumulates along the axis. Fault instants and window lengths are
/// placed as fractions of the healthy run's execution time, which is
/// [`canonical_run`]'s.
pub fn fault_intensity_sweep(
    id: WorkloadId,
    scale: Scale,
    intensities: &[usize],
    seed: u64,
) -> Sweep {
    let s = Subject::new(id, scale);
    let horizon = canonical_run(id, scale, Some(&s.workload)).exec_time;
    let base_cfg = s.caltech();
    let io_nodes = base_cfg.machine.io_nodes;
    let points = each(intensities, |&k| {
        let mut cfg = base_cfg.clone();
        cfg.faults = FaultGen::new(seed, horizon, io_nodes)
            .with_events(k)
            .schedule();
        s.point(cfg, format!("faults={k}"), k as u64)
    });
    s.sweep("fault_intensity", points)
}

/// The crash environment shared by the recovery sweeps, derived from
/// the fault-free baseline `b` so scenarios scale with the workload:
/// crashes are generated over a `3.2 × b` horizon (room for several
/// full replays) and each charges `5%` of the baseline (min 1 s) in
/// reboot/reschedule latency.
fn crash_environment(b: Time) -> (Time, Time) {
    let horizon = b.scale(3.2);
    let rework = b.scale(0.05).max(Time::from_secs(1));
    (horizon, rework)
}

/// Vary the compute-partition MTBF, as a percentage of the fault-free
/// execution time, for ESCAT C at `scale` with a checkpoint marker
/// after every cycle. For one seed the exponential inter-crash gaps
/// scale linearly with the MTBF, so shrinking it packs strictly more
/// crashes into the same horizon — time-to-solution inflation along
/// the axis comes from crash density, not from re-rolled scenarios.
/// The fault-free execution time is [`canonical_run`]'s: markers cost
/// no time, so the marked run ends exactly when the plain one does.
pub(crate) fn mtbf_sweep(scale: Scale, mtbf_percents: &[u32], seed: u64) -> Sweep {
    let rec = scale
        .escat(EscatVersion::C)
        .recoverable(CheckpointPolicy::Fixed { interval: 1 });
    let w = rec.workload();
    let storage = BackendConfig::Pfs(PfsConfig::caltech(w.nodes, w.os));
    // Not `w`: its markers pop events the plain workload the memo
    // keys does not.
    let baseline = canonical_run(WorkloadId::EscatC, scale, None).exec_time;
    let (horizon, rework) = crash_environment(baseline);
    let fgen = FaultGen::new(seed, horizon, storage.machine().io_nodes);
    let mut points: Vec<SweepPoint> = each(mtbf_percents, |&pct| {
        let mtbf = baseline.scale(f64::from(pct) / 100.0);
        let crashes = fgen.compute_crash_schedule(mtbf, rework, w.nodes);
        let n = crashes.events.len();
        let r = recover(&rec, &crashes, &storage, &SimOptions::default(), |_| {
            IoTotals::default()
        })
        .unwrap_or_else(|e| panic!("mtbf={pct}%: {e}"));
        SweepPoint {
            label: format!("mtbf={pct}% ({n} crashes)"),
            value: u64::from(pct),
            exec_time: r.recovery.time_to_solution,
            io_time: r.total_io_time(),
            events: r.events,
        }
    });
    points.sort_by_key(|p| p.value);
    Sweep {
        parameter: "mtbf",
        workload: w.name.clone(),
        points,
    }
}

/// Where a checkpoint-interval sweep's checkpoint files land.
#[derive(Debug, Clone)]
pub(crate) enum CheckpointTier {
    /// The Caltech PFS itself.
    Pfs,
    /// A burst buffer over the Caltech PFS that absorbs the checkpoint
    /// files, with these burst-tier faults installed.
    Burst(FaultSchedule),
}

impl CheckpointTier {
    /// The sweep's reported parameter: `checkpoint_interval` on the
    /// PFS, `checkpoint_interval_burst` on a fault-free burst buffer
    /// and `checkpoint_interval_burst_crash` on a faulted one.
    fn parameter(&self) -> &'static str {
        match self {
            CheckpointTier::Pfs => "checkpoint_interval",
            CheckpointTier::Burst(faults) if faults.is_empty() => "checkpoint_interval_burst",
            CheckpointTier::Burst(_) => "checkpoint_interval_burst_crash",
        }
    }
}

/// The seeded environment the checkpoint-interval sweeps share, derived
/// from [`canonical_run`] of PRISM B at `scale`, the policy-free
/// workload. It holds compute crashes, exponential with MTBF `0.8 ×`
/// that baseline over [`crash_environment`]'s horizon, and three
/// burst-tier faults placed over one attempt's horizon so they land
/// mid-attempt. Every tier faces the same crashes, so the sweeps'
/// curves compare directly.
fn checkpoint_environment(scale: Scale, seed: u64) -> (FaultSchedule, FaultSchedule) {
    let cfg = scale.prism(PrismVersion::B);
    let io_nodes = PfsConfig::caltech(cfg.nodes, cfg.os()).machine.io_nodes;
    let baseline = canonical_run(WorkloadId::PrismB, scale, None).exec_time;
    let (horizon, rework) = crash_environment(baseline);
    let crashes = FaultGen::new(seed, horizon, io_nodes).compute_crash_schedule(
        baseline.scale(0.8),
        rework,
        cfg.nodes,
    );
    let burst_faults = FaultGen::new(seed, baseline, io_nodes)
        .with_events(3)
        .burst_schedule();
    (crashes, burst_faults)
}

/// Vary PRISM's checkpoint interval under one fixed crash schedule,
/// with the checkpoint files on `tier`. Each interval snaps to a
/// divisor of the step count first, and each snapped interval runs
/// once.
///
/// On the PFS this is the classic U-curve: dense checkpoints waste time
/// committing, sparse checkpoints waste time replaying lost work, and
/// Young's optimum sits between. Every point faces the *same*
/// `crashes`, so the axis varies only the commit cadence. A burst
/// buffer lands the commits in its host-side log at near-zero
/// foreground cost, so the left arm collapses and the curve flattens
/// toward its replay-bounded floor. Burst-tier faults (drain stalls and
/// a burst-node crash that destroys resident checkpoint bytes)
/// un-flatten it: a commit whose bytes died in the log is not durable,
/// so recovery rolls back past it, and dense checkpointing regains
/// value because each commit bounds how much the log can lose.
pub(crate) fn checkpoint_interval_sweep(
    cfg: &PrismConfig,
    intervals: &[u32],
    tier: &CheckpointTier,
    crashes: &FaultSchedule,
) -> Sweep {
    let base_cfg = PfsConfig::caltech(cfg.nodes, cfg.os());
    let parameter = tier.parameter();
    let mut snapped: Vec<u32> = intervals.iter().map(|&i| cfg.snap_interval(i)).collect();
    snapped.sort_unstable();
    snapped.dedup();
    let points = each(&snapped, |&interval| {
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval });
        let storage = match tier {
            CheckpointTier::Pfs => BackendConfig::Pfs(base_cfg.clone()),
            CheckpointTier::Burst(faults) => {
                let mut burst =
                    BurstBufferConfig::absorbing(base_cfg.clone(), rec.checkpoint_files().to_vec());
                burst.faults = faults.clone();
                BackendConfig::Burst(burst)
            }
        };
        let r = recover(&rec, crashes, &storage, &SimOptions::default(), |_| {
            IoTotals::default()
        })
        .unwrap_or_else(|e| panic!("{parameter} interval={interval}: {e}"));
        SweepPoint {
            label: format!("every {interval} steps"),
            value: u64::from(interval),
            exec_time: r.recovery.time_to_solution,
            io_time: r.total_io_time(),
            events: r.events,
        }
    });
    Sweep {
        parameter,
        workload: cfg.name(),
        points,
    }
}

/// One offered-load measurement behind [`load_factor_sweep`]: the
/// per-class mean bounded slowdowns that the generic [`SweepPoint`]
/// has no columns for.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadFactorPoint {
    /// Offered load as a percentage of the reference arrival rate.
    pub load_pct: u32,
    /// Mean bounded slowdown of the I/O-bound class.
    pub io_bsld: f64,
    /// Mean bounded slowdown of the compute-bound class.
    pub cpu_bsld: f64,
    /// Schedule makespan.
    pub makespan: Time,
    /// Total client-observed I/O time summed over every job.
    pub io_time: Time,
    /// Events processed across the whole schedule.
    pub events: u64,
}

/// Run the contention mix at each offered load. Load `100` maps to the
/// reference mean inter-arrival of 200 ms; load `L` scales it by
/// `100/L`, so higher loads compress the same seeded job sequence into
/// a shorter window (Poisson gaps scale linearly with the mean for a
/// fixed seed). The point of the axis: I/O-bound jobs queue at the
/// shared I/O nodes, so their slowdown grows superlinearly with load,
/// while compute-bound jobs degrade gently.
pub(crate) fn load_factor_points(loads: &[u32], scale: Scale) -> Vec<LoadFactorPoint> {
    let reference = Time::from_millis(200);
    let mut points: Vec<LoadFactorPoint> = each(loads, |&pct| {
        assert!(pct > 0, "offered load must be positive");
        let stream = mix_stream(scale, reference.scale(100.0 / f64::from(pct)));
        let out = run_stream(
            &stream,
            QueuePolicy::Fcfs,
            contended_machine(scale),
            &format!("load_factor={pct}%"),
        );
        let io_time = out
            .per_job
            .iter()
            .fold(Time::ZERO, |acc, r| acc.saturating_add(r.total_io_time()));
        LoadFactorPoint {
            load_pct: pct,
            io_bsld: out
                .stats
                .mean_bounded_slowdown_of(IO_BOUND, CLASS_TAU)
                .unwrap_or(1.0),
            cpu_bsld: out
                .stats
                .mean_bounded_slowdown_of(COMPUTE_BOUND, CLASS_TAU)
                .unwrap_or(1.0),
            makespan: out.stats.makespan,
            io_time,
            events: out.stats.total_events,
        }
    });
    points.sort_by_key(|p| p.load_pct);
    points
}

/// [`load_factor_points`] folded into the generic [`Sweep`] table so
/// the repro CLI reports it beside the machine-configuration axes; the
/// per-class slowdowns ride in the label column.
pub(crate) fn load_factor_sweep(loads: &[u32], scale: Scale) -> Sweep {
    let points = load_factor_points(loads, scale)
        .into_iter()
        .map(|p| SweepPoint {
            label: format!(
                "load={}% io {:.2} cpu {:.2}",
                p.load_pct, p.io_bsld, p.cpu_bsld
            ),
            value: u64::from(p.load_pct),
            exec_time: p.makespan,
            io_time: p.io_time,
            events: p.events,
        })
        .collect();
    Sweep {
        parameter: "load_factor",
        workload: "contention mix (io-bound + compute-bound)".into(),
        points,
    }
}

/// Sweep the staging-queue depth against the consumer's analysis
/// speed for a coupled streaming pipeline: the stall-time surface of
/// the tentpole question "how much staging memory buys a stall-free
/// producer at a given consumer speed?". `depths_kib` of `0` means
/// unbounded; the point label carries both axes, `value` encodes them
/// as `depth_kib * 1000 + speed_pct`, `exec_time` is the end-to-end
/// pipeline latency, and `io_time` reports the producer's stall.
pub(crate) fn staging_depth_sweep(
    cadence: &StreamCadence,
    depths_kib: &[u32],
    speeds: &[u32],
) -> Sweep {
    let grid: Vec<(u32, u32)> = depths_kib
        .iter()
        .flat_map(|&d| speeds.iter().map(move |&s| (d, s)))
        .collect();
    let mut points: Vec<SweepPoint> = each(&grid, |&(depth_kib, pct)| {
        let depth = u64::from(depth_kib) * 1024;
        let route = Route::Stream(StagingConfig::paragon(depth));
        let o = run_coupled(cadence, &route, pct, &FaultSchedule::empty())
            .unwrap_or_else(|e| panic!("staging_depth depth={depth_kib}K speed={pct}%: {e}"));
        let depth_label = if depth_kib == 0 {
            "unbounded".to_string()
        } else {
            format!("{depth_kib}K")
        };
        SweepPoint {
            label: format!("depth={depth_label} speed={pct}%"),
            value: u64::from(depth_kib) * 1000 + u64::from(pct),
            exec_time: o.pipeline_latency,
            io_time: o.producer_stall,
            events: o.chunks,
        }
    });
    points.sort_by_key(|p| p.value);
    Sweep {
        parameter: "staging_depth",
        workload: cadence.name.clone(),
        points,
    }
}

/// Run one registered sweep at the given scale with its canonical
/// parameter grid — the single entry point the `repro` binary and the
/// campaign engine share, so "the `io_nodes` sweep" means the same
/// runs everywhere. Each arm builds only the workload it runs.
pub fn run_sweep(id: SweepId, scale: Scale) -> Sweep {
    use WorkloadId::{EscatB, PrismA};
    match id {
        SweepId::IoNodes => io_node_sweep(EscatB, scale, &[2, 4, 8, 16, 32]),
        SweepId::StripeUnit => stripe_sweep(EscatB, scale, &[16 << 10, 64 << 10, 256 << 10]),
        SweepId::DiskBandwidth => disk_bandwidth_sweep(PrismA, scale, &[2, 8, 32]),
        SweepId::DegradedArrays => degraded_array_sweep(PrismA, scale, &[0, 4, 8]),
        SweepId::FaultIntensity => fault_intensity_sweep(PrismA, scale, &[0, 2, 4, 8], 0xF417),
        SweepId::Mtbf => mtbf_sweep(scale, &[25, 50, 100, 200, 400], 0x4EC0),
        SweepId::CheckpointInterval
        | SweepId::CheckpointIntervalBurst
        | SweepId::CheckpointIntervalBurstCrash => {
            let (crashes, burst_faults) = checkpoint_environment(scale, 0x0C7);
            let tier = match id {
                SweepId::CheckpointInterval => CheckpointTier::Pfs,
                SweepId::CheckpointIntervalBurst => CheckpointTier::Burst(FaultSchedule::empty()),
                _ => CheckpointTier::Burst(burst_faults),
            };
            let intervals = [1, 2, 5, 10, 25, 125, 250, 625];
            checkpoint_interval_sweep(&scale.prism(PrismVersion::B), &intervals, &tier, &crashes)
        }
        SweepId::LoadFactor => load_factor_sweep(&[25, 50, 100, 200, 400], scale),
        SweepId::StagingDepth => {
            let cadence = scale.prism(PrismVersion::C).stream_cadence();
            staging_depth_sweep(&cadence, &[16, 64, 512, 0], &[50, 100, 200])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::run;
    use sioscope_workloads::EscatConfig;

    #[test]
    fn sweep_points_are_identical_on_one_thread_and_four() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let point = |&n: &u32| {
            let mut cfg = PfsConfig::caltech(w.nodes, w.os);
            cfg.machine.io_nodes = n;
            run_point(&w, cfg, format!("io_nodes={n}"), u64::from(n))
        };
        let axis = [1, 2, 4, 8, 16, 32];
        assert_eq!(par::map(&axis, 1, point), par::map(&axis, 4, point));
    }

    #[test]
    fn sweep_ids_round_trip() {
        for s in SweepId::all() {
            assert_eq!(SweepId::from_id(s.id()), Some(s));
        }
        assert_eq!(SweepId::from_id("nope"), None);
        let ids: Vec<&str> = SweepId::all().iter().map(|s| s.id()).collect();
        assert_eq!(
            ids,
            vec![
                "io_nodes",
                "stripe_unit",
                "disk_bandwidth",
                "degraded_arrays",
                "fault_intensity",
                "mtbf",
                "checkpoint_interval",
                "checkpoint_interval_burst",
                "checkpoint_interval_burst_crash",
                "load_factor",
                "staging_depth"
            ]
        );
    }

    #[test]
    fn staging_depth_sweep_surfaces_the_stall_tradeoff() {
        let cadence = PrismConfig::tiny(PrismVersion::C).stream_cadence();
        let sweep = staging_depth_sweep(&cadence, &[16, 512, 0], &[50, 100]);
        assert_eq!(sweep.points.len(), 6);
        assert_eq!(sweep.parameter, "staging_depth");
        // Tight depth at a slow consumer stalls; unbounded never does.
        let point = |label: &str| {
            sweep
                .points
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("missing {label}: {}", sweep.render()))
        };
        assert!(point("depth=16K speed=50%").io_time > Time::ZERO);
        assert_eq!(point("depth=unbounded speed=50%").io_time, Time::ZERO);
        assert_eq!(point("depth=unbounded speed=100%").io_time, Time::ZERO);
        // A faster consumer never stalls the producer more at the
        // same depth.
        assert!(
            point("depth=16K speed=100%").io_time <= point("depth=16K speed=50%").io_time,
            "{}",
            sweep.render()
        );
        // Replay identity for the whole grid.
        let again = staging_depth_sweep(&cadence, &[16, 512, 0], &[50, 100]);
        for (a, b) in sweep.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.io_time, b.io_time);
        }
    }

    #[test]
    fn io_node_sweep_runs_and_orders_points() {
        let sweep = io_node_sweep(WorkloadId::EscatC, Scale::Smoke, &[2, 8, 4]);
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.points[0].value, 2);
        assert_eq!(sweep.points[2].value, 8);
        let text = sweep.render();
        assert!(text.contains("io_nodes=4"));
    }

    /// Is I/O time non-increasing along the sweep (more resources
    /// never hurt)?
    fn io_time_monotone_nonincreasing(sweep: &Sweep) -> bool {
        sweep
            .points
            .windows(2)
            .all(|w| w[1].io_time <= w[0].io_time.scale(1.02))
    }

    /// Is execution time non-decreasing along the sweep (more faults
    /// never help)? Allows 2% slack for re-routing that incidentally
    /// rebalances load.
    fn exec_time_monotone_nondecreasing(sweep: &Sweep) -> bool {
        sweep
            .points
            .windows(2)
            .all(|w| w[1].exec_time >= w[0].exec_time.scale(0.98))
    }

    #[test]
    fn more_io_nodes_never_hurt_a_staging_workload() {
        let sweep = io_node_sweep(WorkloadId::EscatB, Scale::Smoke, &[1, 2, 4, 8, 16]);
        assert!(io_time_monotone_nonincreasing(&sweep), "{}", sweep.render());
        assert!(sweep.best_io_speedup() >= 1.0);
    }

    #[test]
    fn stripe_sweep_runs() {
        let sweep = stripe_sweep(
            WorkloadId::PrismB,
            Scale::Smoke,
            &[16 << 10, 64 << 10, 256 << 10],
        );
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.iter().all(|p| p.io_time > Time::ZERO));
    }

    #[test]
    fn degraded_arrays_increase_io_time() {
        let sweep = degraded_array_sweep(WorkloadId::PrismB, Scale::Smoke, &[0, 1, 2]);
        let healthy = sweep.points.first().expect("points").io_time;
        let worst = sweep.points.last().expect("points").io_time;
        assert!(worst > healthy, "{}", sweep.render());
        // Bounded: degradation is a constant factor, not a collapse.
        assert!(worst < healthy.scale(3.0), "{}", sweep.render());
    }

    #[test]
    fn fault_intensity_zero_matches_healthy_and_inflation_accumulates() {
        let sweep = fault_intensity_sweep(WorkloadId::PrismB, Scale::Smoke, &[0, 3, 8], 0xF417);
        let w = WorkloadId::PrismB.build(Scale::Smoke);
        assert_eq!(sweep.points.len(), 3);
        let healthy = run(&w, PfsConfig::caltech(w.nodes, w.os), SimOptions::default()).unwrap();
        assert_eq!(
            sweep.points[0].exec_time, healthy.exec_time,
            "intensity 0 is the fault-free run"
        );
        let first = sweep.points.first().expect("points").exec_time;
        let last = sweep.points.last().expect("points").exec_time;
        assert!(last > first, "{}", sweep.render());
        assert!(
            exec_time_monotone_nondecreasing(&sweep),
            "{}",
            sweep.render()
        );
    }

    /// Every value a sweep reads from the memo is the run it stands
    /// for: a fresh `run` of the workload on `PfsConfig::caltech`. That
    /// holds for the canonical point of each machine sweep, for the
    /// fault-intensity horizon (the `faults=2` point is drawn over it)
    /// and for the checkpoint sweeps' baseline, on a cold memo and
    /// again on a warm one.
    #[test]
    fn memo_served_points_and_baselines_are_fresh_runs() {
        use WorkloadId::{EscatB, PrismA, PrismB};
        let fresh = |id: WorkloadId, faults: FaultSchedule| {
            let w = id.build(Scale::Smoke);
            let mut cfg = PfsConfig::caltech(w.nodes, w.os);
            cfg.faults = faults;
            run(&w, cfg, SimOptions::default()).expect("fresh run")
        };
        let clean = |id| fresh(id, FaultSchedule::empty());
        let prism_a = clean(PrismA);
        let prism_b = clean(PrismB);
        let two_faults = FaultGen::new(0xF417, prism_a.exec_time, 16)
            .with_events(2)
            .schedule();
        let expected = [
            ("io_nodes=16", clean(EscatB)),
            ("stripe=64K", clean(EscatB)),
            ("8MB/s", clean(PrismA)),
            ("degraded=0", clean(PrismA)),
            ("faults=0", clean(PrismA)),
            ("faults=2", fresh(PrismA, two_faults)),
        ];
        let smoke = Scale::Smoke;
        crate::experiments::clear_run_caches();
        for memo in ["cold", "warm"] {
            let sweeps = [
                io_node_sweep(EscatB, smoke, &[16]),
                stripe_sweep(EscatB, smoke, &[64 << 10]),
                disk_bandwidth_sweep(PrismA, smoke, &[8]),
                degraded_array_sweep(PrismA, smoke, &[0]),
                fault_intensity_sweep(PrismA, smoke, &[0, 2], 0xF417),
            ];
            let points: Vec<&SweepPoint> = sweeps.iter().flat_map(|s| &s.points).collect();
            assert_eq!(points.len(), expected.len());
            for (p, (label, r)) in points.iter().zip(&expected) {
                assert_eq!(p.label, *label, "{memo} memo");
                assert_eq!(
                    (p.exec_time, p.io_time, p.events),
                    (r.exec_time, r.total_io_time(), r.events),
                    "{memo} memo: {label}"
                );
            }
            let baseline = canonical_run(PrismB, smoke, None);
            assert_eq!(baseline.exec_time, prism_b.exec_time, "{memo} memo");
            assert_eq!(baseline.events, prism_b.events, "{memo} memo");
        }
    }

    #[test]
    fn mtbf_sweep_densities_nest_and_never_beat_the_baseline() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let percents = [25, 75, 400];
        let sweep = mtbf_sweep(Scale::Smoke, &percents, 0x4EC0);
        assert_eq!(sweep.parameter, "mtbf");
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.windows(2).all(|w| w[0].value < w[1].value));

        // The crash schedules behind the points: for one seed, gaps
        // scale linearly with the MTBF, so a shorter MTBF can only add
        // crashes inside the fixed horizon.
        let w = rec.workload();
        let base_cfg = PfsConfig::caltech(w.nodes, w.os);
        let baseline = run(w, base_cfg.clone(), SimOptions::default())
            .unwrap()
            .exec_time;
        let horizon = baseline.scale(3.2);
        let rework = baseline.scale(0.05).max(Time::from_secs(1));
        let fgen = FaultGen::new(0x4EC0, horizon, base_cfg.machine.io_nodes);
        let counts: Vec<usize> = percents
            .iter()
            .map(|&pct| {
                fgen.compute_crash_schedule(baseline.scale(f64::from(pct) / 100.0), rework, w.nodes)
                    .events
                    .len()
            })
            .collect();
        assert!(
            counts.windows(2).all(|c| c[0] >= c[1]),
            "crash counts must not grow with MTBF: {counts:?}"
        );

        for (p, &n) in sweep.points.iter().zip(&counts) {
            assert!(
                p.exec_time >= baseline,
                "crashes never speed a run up: {}",
                sweep.render()
            );
            if n == 0 {
                assert_eq!(p.exec_time, baseline, "no crashes means no inflation");
            }
        }

        // Same seed, same sweep — the whole chain is deterministic.
        let again = mtbf_sweep(Scale::Smoke, &percents, 0x4EC0);
        for (a, b) in sweep.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn sparse_checkpoints_pay_more_rework_under_the_same_crash() {
        use sioscope_faults::FaultKind;

        let cfg = PrismConfig::tiny(PrismVersion::B);
        let w = cfg.build();
        let pfs = PfsConfig::caltech(w.nodes, w.os);

        // Measure commit instants so the crash can be *placed*: just
        // before the sparse policy's only commit, and after the dense
        // policy's first. The sparse point then replays from scratch
        // while the dense point replays ten steps — the U-curve's
        // right arm by construction, not by seed luck.
        let sparse = cfg.recoverable(CheckpointPolicy::Fixed { interval: 20 });
        let dense = cfg.recoverable(CheckpointPolicy::Fixed { interval: 10 });
        let sparse_commit = run(sparse.workload(), pfs.clone(), SimOptions::default())
            .unwrap()
            .checkpoint_commits[0]
            .1;
        let dense_commits = run(dense.workload(), pfs.clone(), SimOptions::default())
            .unwrap()
            .checkpoint_commits;
        let dense_first = dense_commits[0].1;
        let crash_at = sparse_commit.saturating_sub(Time::from_millis(1));
        assert!(
            dense_first < crash_at,
            "ten steps of work must commit before the crash"
        );

        let mut crashes = FaultSchedule::empty();
        crashes.push(
            crash_at,
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::from_secs(1),
            },
        );
        let sweep = checkpoint_interval_sweep(&cfg, &[10, 20], &CheckpointTier::Pfs, &crashes);
        assert_eq!(sweep.parameter, "checkpoint_interval");
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].value, 10);
        assert_eq!(sweep.points[1].value, 20);
        let dense_tts = sweep.points[0].exec_time;
        let sparse_tts = sweep.points[1].exec_time;
        assert!(
            sparse_tts > dense_tts,
            "losing twenty steps must cost more than losing ten:\n{}",
            sweep.render()
        );
        // Both points at least rode out the crash and the restart.
        let floor = crash_at.saturating_add(Time::from_secs(1));
        assert!(dense_tts >= floor, "{}", sweep.render());
    }

    #[test]
    fn burst_buffer_flattens_the_checkpoint_u_curve() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        let intervals = [1, 2, 5, 10, 25];
        let (crashes, _) = checkpoint_environment(Scale::Smoke, 0x0C7);
        let plain = checkpoint_interval_sweep(&cfg, &intervals, &CheckpointTier::Pfs, &crashes);
        let clean = CheckpointTier::Burst(FaultSchedule::empty());
        let burst = checkpoint_interval_sweep(&cfg, &intervals, &clean, &crashes);
        assert_eq!(burst.parameter, "checkpoint_interval_burst");
        assert_eq!(plain.points.len(), burst.points.len());
        let min_tts = |s: &Sweep| {
            s.points
                .iter()
                .map(|p| p.exec_time)
                .fold(Time::MAX, Time::min)
        };
        // The acceptance bar: with commits absorbed at log speed, the
        // best burst interval beats the plain U-curve's minimum.
        assert!(
            min_tts(&burst) < min_tts(&plain),
            "burst optimum must undercut the plain optimum:\nplain:\n{}\nburst:\n{}",
            plain.render(),
            burst.render()
        );
        // And point-by-point under the same crashes, absorbing the
        // commit cost never makes an interval slower.
        for (b, p) in burst.points.iter().zip(&plain.points) {
            assert_eq!(b.value, p.value);
            assert!(
                b.exec_time <= p.exec_time,
                "interval {}: {} vs {}",
                b.value,
                b.exec_time,
                p.exec_time
            );
        }
    }

    #[test]
    fn burst_faults_never_improve_the_flattened_u_curve() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        let intervals = [1, 5, 25];
        let (crashes, burst_faults) = checkpoint_environment(Scale::Smoke, 0x0C7);
        let sweep = |faults: &FaultSchedule| {
            let tier = CheckpointTier::Burst(faults.clone());
            checkpoint_interval_sweep(&cfg, &intervals, &tier, &crashes)
        };
        let clean = sweep(&FaultSchedule::empty());
        let faulted = sweep(&burst_faults);
        assert_eq!(faulted.parameter, "checkpoint_interval_burst_crash");
        assert_eq!(clean.points.len(), faulted.points.len());
        for (f, c) in faulted.points.iter().zip(&clean.points) {
            assert_eq!(f.value, c.value);
            assert!(
                f.exec_time >= c.exec_time,
                "burst faults never speed recovery up at interval {}: {} vs {}",
                f.value,
                f.exec_time,
                c.exec_time
            );
        }
        // Deterministic: same seed, same curve.
        let again = sweep(&checkpoint_environment(Scale::Smoke, 0x0C7).1);
        for (a, b) in faulted.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn seeded_checkpoint_interval_sweep_snaps_and_dedups_intervals() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        // 3 snaps to divisor 2, 4 to itself; 5 and 6 both snap to 5.
        let (crashes, _) = checkpoint_environment(Scale::Smoke, 0x0C7);
        let sweep = checkpoint_interval_sweep(&cfg, &[3, 4, 5, 6], &CheckpointTier::Pfs, &crashes);
        let values: Vec<u64> = sweep.points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![2, 4, 5]);
        assert!(sweep.points.iter().all(|p| p.exec_time > Time::ZERO));
        assert!(sweep.render().contains("every 5 steps"));
    }

    #[test]
    fn load_inflates_io_bound_slowdown_fastest() {
        let loads = [25, 100, 400];
        let pts = load_factor_points(&loads, Scale::Smoke);
        assert_eq!(pts.len(), 3);

        // Mean bounded slowdown never improves as the load rises (2%
        // slack for event-granularity wobble, matching the other
        // monotone checks).
        let mean = |p: &LoadFactorPoint| (p.io_bsld + p.cpu_bsld) / 2.0;
        assert!(
            pts.windows(2).all(|w| mean(&w[1]) >= mean(&w[0]) * 0.98),
            "{pts:?}"
        );

        // The I/O-bound class degrades faster than the compute-bound
        // class — the shared-ION story the scheduler exists to tell.
        let io_growth = pts[2].io_bsld / pts[0].io_bsld;
        let cpu_growth = pts[2].cpu_bsld / pts[0].cpu_bsld;
        assert!(
            io_growth > cpu_growth,
            "io grew {io_growth:.3}x vs cpu {cpu_growth:.3}x\n{pts:?}"
        );

        // Superlinear for the I/O-bound class: quadrupling the load
        // from the reference point more than quadruples the excess
        // slowdown over 1.0. The compute-bound class degrades gently —
        // even at peak load its excess is under a tenth of the
        // I/O-bound class's.
        let io_excess = |p: &LoadFactorPoint| p.io_bsld - 1.0;
        let cpu_excess = |p: &LoadFactorPoint| p.cpu_bsld - 1.0;
        assert!(io_excess(&pts[2]) > 4.0 * io_excess(&pts[1]), "{pts:?}");
        assert!(cpu_excess(&pts[2]) < 0.1 * io_excess(&pts[2]), "{pts:?}");

        // The whole chain is deterministic.
        let again = load_factor_points(&loads, Scale::Smoke);
        assert_eq!(pts, again);

        // The Sweep wrapper carries the same data for the CLI.
        let sweep = load_factor_sweep(&loads, Scale::Smoke);
        assert_eq!(sweep.parameter, "load_factor");
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.render().contains("load=400%"));
    }

    #[test]
    fn faster_disks_reduce_io_time() {
        let sweep = disk_bandwidth_sweep(WorkloadId::PrismA, Scale::Smoke, &[2, 8, 32]);
        let first = sweep.points.first().expect("points").io_time;
        let last = sweep.points.last().expect("points").io_time;
        assert!(last <= first, "{}", sweep.render());
    }
}
