//! The canonical run surface: stable string ids for workloads,
//! scheduler policies and scales, and the run entry points that turn
//! one resolved id tuple into *integer* metrics.
//!
//! This is the boundary the campaign engine's content-addressed cache
//! is built on. Everything here is deliberately narrow:
//!
//! * ids are stable strings — they appear in `campaign.toml`, in
//!   canonical config lines, and therefore inside content addresses,
//!   so renaming one orphans cached results and must be treated as a
//!   breaking change;
//! * metrics are integers only (nanoseconds, counts, fixed-point
//!   milli/micro units). Floats would make "bit-identical report"
//!   hostage to formatting; integers make it trivially true.

use std::collections::BTreeMap;

use crate::coupled::{run_coupled, Route};
use crate::experiments::contention::{
    contended_machine, mix_stream, run_stream, CLASS_TAU, COMPUTE_BOUND, IO_BOUND,
};
use crate::experiments::memo::RunMemo;
use crate::experiments::Scale;
use crate::simulator::{run_backend, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultSchedule};
pub use sioscope_pfs::BackendKind;
use sioscope_pfs::{BackendConfig, BurstBufferConfig, ObjectStoreConfig, PfsConfig};
use sioscope_sched::QueuePolicy;
use sioscope_sim::Time;
use sioscope_stream::StagingConfig;
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload};

/// The workloads addressable by id: every ESCAT and PRISM code
/// version the paper tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum WorkloadId {
    EscatA,
    EscatA2,
    EscatB,
    EscatB2,
    EscatB3,
    EscatC,
    PrismA,
    PrismB,
    PrismC,
}

impl WorkloadId {
    /// All workload ids, in presentation order.
    pub fn all() -> Vec<WorkloadId> {
        use WorkloadId::*;
        vec![
            EscatA, EscatA2, EscatB, EscatB2, EscatB3, EscatC, PrismA, PrismB, PrismC,
        ]
    }

    /// Stable string id (spec files, canonical config lines).
    pub fn id(self) -> &'static str {
        use WorkloadId::*;
        match self {
            EscatA => "escat-a",
            EscatA2 => "escat-a2",
            EscatB => "escat-b",
            EscatB2 => "escat-b2",
            EscatB3 => "escat-b3",
            EscatC => "escat-c",
            PrismA => "prism-a",
            PrismB => "prism-b",
            PrismC => "prism-c",
        }
    }

    /// Parse a stable id.
    pub fn from_id(id: &str) -> Option<WorkloadId> {
        WorkloadId::all().into_iter().find(|w| w.id() == id)
    }

    /// Build the workload at a scale: the paper's problem sizes at
    /// [`Scale::Full`], the proportionally shrunk `tiny` datasets at
    /// [`Scale::Smoke`].
    pub fn build(self, scale: Scale) -> Workload {
        use WorkloadId::*;
        let escat = |v: EscatVersion| match scale {
            Scale::Smoke => EscatConfig::tiny(v).build(),
            Scale::Full => EscatConfig::ethylene(v).build(),
        };
        let prism = |v: PrismVersion| match scale {
            Scale::Smoke => PrismConfig::tiny(v).build(),
            Scale::Full => PrismConfig::test_problem(v).build(),
        };
        match self {
            EscatA => escat(EscatVersion::A),
            EscatA2 => escat(EscatVersion::A2),
            EscatB => escat(EscatVersion::B),
            EscatB2 => escat(EscatVersion::B2),
            EscatB3 => escat(EscatVersion::B3),
            EscatC => escat(EscatVersion::C),
            PrismA => prism(PrismVersion::A),
            PrismB => prism(PrismVersion::B),
            PrismC => prism(PrismVersion::C),
        }
    }
}

/// The scheduler policies addressable by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PolicyId {
    Fcfs,
    EasyBackfill,
}

impl PolicyId {
    /// All policy ids.
    pub fn all() -> Vec<PolicyId> {
        vec![PolicyId::Fcfs, PolicyId::EasyBackfill]
    }

    /// Stable string id.
    pub fn id(self) -> &'static str {
        match self {
            PolicyId::Fcfs => "fcfs",
            PolicyId::EasyBackfill => "easy-backfill",
        }
    }

    /// Parse a stable id.
    pub fn from_id(id: &str) -> Option<PolicyId> {
        PolicyId::all().into_iter().find(|p| p.id() == id)
    }

    /// The scheduler policy this id names.
    pub(crate) fn queue_policy(self) -> QueuePolicy {
        match self {
            PolicyId::Fcfs => QueuePolicy::Fcfs,
            PolicyId::EasyBackfill => QueuePolicy::EasyBackfill,
        }
    }
}

/// Stable string id of a scale.
pub fn scale_id(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    }
}

/// Parse a scale id.
pub fn scale_from_id(id: &str) -> Option<Scale> {
    match id {
        "smoke" => Some(Scale::Smoke),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Round a nonnegative float into fixed-point thousandths.
fn milli(x: f64) -> u64 {
    (x.max(0.0) * 1_000.0).round() as u64
}

/// Round nonnegative seconds into whole microseconds.
fn micros(secs: f64) -> u64 {
    (secs.max(0.0) * 1_000_000.0).round() as u64
}

/// The canonical configuration of one storage tier for `workload`: the
/// Caltech PFS, the modern object store, or a burst buffer absorbing
/// every file over the Caltech PFS, with `faults` installed on the
/// tier itself.
pub fn tier_config(kind: BackendKind, workload: &Workload, faults: FaultSchedule) -> BackendConfig {
    match kind {
        BackendKind::Pfs => {
            let mut c = PfsConfig::caltech(workload.nodes, workload.os);
            c.faults = faults;
            BackendConfig::Pfs(c)
        }
        BackendKind::Object => {
            let mut c = ObjectStoreConfig::modern(workload.nodes);
            c.faults = faults;
            BackendConfig::Object(c)
        }
        BackendKind::Burst => {
            let mut c = BurstBufferConfig::over(PfsConfig::caltech(workload.nodes, workload.os));
            c.faults = faults;
            BackendConfig::Burst(c)
        }
    }
}

/// A fault-free tier run reduced to its metrics, or the simulator's
/// error text.
type FaultFree = Result<BTreeMap<String, u64>, String>;

/// The fault-free run of each (workload, scale, tier). Its seed is
/// never read, so every seed and fault intensity of a campaign shares
/// one simulation per process. Only the metrics stay, never the run and
/// its trace: at most 9 ids x 2 scales x 3 tiers small maps.
static FAULT_FREE: RunMemo<(WorkloadId, Scale, BackendKind), FaultFree> = RunMemo::new();

/// Forget every memoized fault-free tier run.
pub(crate) fn clear_cache() {
    FAULT_FREE.clear();
}

/// Simulate one workload end-to-end on a named storage tier (see
/// [`tier_config`]), with `fault_events` injected faults of that tier
/// drawn from `seed`, and reduce the run to integer metrics.
///
/// The workload is built from `id` and `scale` alone; `seed` only draws
/// the faults. The fault horizon is the workload's own fault-free
/// execution time on the tier (mirroring the `fault_intensity` sweep).
/// That fault-free run is simulated once per process for each
/// (workload, scale, tier) and its metrics memoized, so a run with
/// `fault_events == 0` reads them and a faulted run simulates only
/// itself. The PFS tier draws I/O-node
/// faults and reports the five common metrics. The object tier draws
/// metadata-shard outages and degraded-service windows, and adds its
/// `puts`/`gets` counters. The burst tier draws drain stalls and
/// burst-node crashes, and adds its drain accounting. Under faults,
/// those two tiers also report their resilience actions, and the burst
/// tier its lost bytes.
pub fn workload_run(
    id: WorkloadId,
    scale: Scale,
    backend: BackendKind,
    fault_events: u32,
    seed: u64,
) -> Result<BTreeMap<String, u64>, String> {
    let key = (id, scale, backend);
    if fault_events == 0 {
        let metrics = FAULT_FREE.get_or_run(key, || simulate_fault_free(&id.build(scale), backend));
        return (*metrics).clone().map_err(|e| format!("{}: {e}", id.id()));
    }
    let workload = id.build(scale);
    let horizon = match &*FAULT_FREE.get_or_run(key, || simulate_fault_free(&workload, backend)) {
        Ok(metrics) => Time::from_nanos(metrics["exec_time_ns"]),
        Err(e) => return Err(format!("{} fault-free baseline: {e}", id.id())),
    };
    let faults = tier_faults(backend, &workload, horizon, fault_events, seed);
    let cfg = tier_config(backend, &workload, faults);
    let result = run_backend(&workload, &cfg, SimOptions::default())
        .map_err(|e| format!("{}: {e}", id.id()))?;
    Ok(run_metrics(&result, backend, true))
}

/// Simulate `workload` on `backend` with no faults.
fn simulate_fault_free(workload: &Workload, backend: BackendKind) -> FaultFree {
    let cfg = tier_config(backend, workload, FaultSchedule::empty());
    run_backend(workload, &cfg, SimOptions::default())
        .map(|result| run_metrics(&result, backend, false))
        .map_err(|e| e.to_string())
}

/// `fault_events` faults of `backend`'s own kind drawn from `seed` over
/// `horizon`.
fn tier_faults(
    backend: BackendKind,
    workload: &Workload,
    horizon: Time,
    fault_events: u32,
    seed: u64,
) -> FaultSchedule {
    let draw = |scope: u32| FaultGen::new(seed, horizon, scope).with_events(fault_events as usize);
    match tier_config(backend, workload, FaultSchedule::empty()) {
        BackendConfig::Pfs(c) => draw(c.machine.io_nodes).schedule(),
        BackendConfig::Object(c) => draw(workload.nodes).object_schedule(c.md_shards.max(1) as u32),
        BackendConfig::Burst(c) => draw(c.pfs.machine.io_nodes).burst_schedule(),
    }
}

/// Reduce one tier run to integer metrics. Only a `faulted` run reports
/// the burst tier's lost bytes and the modern tiers' resilience actions.
fn run_metrics(result: &RunResult, backend: BackendKind, faulted: bool) -> BTreeMap<String, u64> {
    let mut metrics = BTreeMap::from([
        ("exec_time_ns".to_string(), result.exec_time.as_nanos()),
        ("io_time_ns".to_string(), result.total_io_time().as_nanos()),
        ("events".to_string(), result.events),
        ("fault_transitions".to_string(), result.fault_transitions),
        ("trace_events".to_string(), result.trace.len() as u64),
    ]);
    let s = result.backend_stats;
    match backend {
        // The PFS metric set is older than the other tiers; cached
        // results and reports depend on it staying as it is.
        BackendKind::Pfs => {}
        BackendKind::Object => {
            metrics.insert("puts".to_string(), s.puts);
            metrics.insert("gets".to_string(), s.gets);
        }
        BackendKind::Burst => {
            metrics.insert("bytes_logged".to_string(), s.bytes_logged);
            metrics.insert("bytes_drained".to_string(), s.bytes_drained);
            metrics.insert("bytes_resident".to_string(), s.bytes_resident);
            metrics.insert("absorbed_ops".to_string(), s.absorbed_ops);
            metrics.insert("drain_complete_ns".to_string(), s.drain_complete.as_nanos());
            if faulted {
                metrics.insert("bytes_lost".to_string(), s.bytes_lost);
            }
        }
    }
    if faulted && backend != BackendKind::Pfs {
        metrics.insert(
            "resilience_actions".to_string(),
            result.resilience.total_actions(),
        );
    }
    metrics
}

/// Run the coupled PRISM streaming pipeline over a bounded staging
/// channel and reduce it to integer metrics.
///
/// `depth_kib` is the staging queue depth in KiB, with `0` meaning
/// unbounded; `consumer_pct` scales the consumer's analysis speed
/// (100 = the reference in-situ analyzer, 50 = half speed). `seed`
/// perturbs the producer's checkpoint cadence: it is XOR-folded into
/// the PRISM config's own seed, so `0` is the canonical cadence.
pub fn stream_run(
    depth_kib: u32,
    consumer_pct: u32,
    seed: u64,
    scale: Scale,
) -> Result<BTreeMap<String, u64>, String> {
    let mut cfg = match scale {
        Scale::Smoke => PrismConfig::tiny(PrismVersion::C),
        Scale::Full => PrismConfig::test_problem(PrismVersion::C),
    };
    cfg.seed ^= seed;
    let cadence = cfg.stream_cadence();
    let route = Route::Stream(StagingConfig::paragon(u64::from(depth_kib) * 1024));
    let o = run_coupled(&cadence, &route, consumer_pct, &FaultSchedule::empty())?;
    Ok(BTreeMap::from([
        (
            "pipeline_latency_ns".to_string(),
            o.pipeline_latency.as_nanos(),
        ),
        ("producer_stall_ns".to_string(), o.producer_stall.as_nanos()),
        ("consumer_wait_ns".to_string(), o.consumer_wait.as_nanos()),
        (
            "producer_finish_ns".to_string(),
            o.producer_finish.as_nanos(),
        ),
        ("chunks".to_string(), o.chunks),
        ("bytes".to_string(), o.bytes),
        ("peak_occupancy".to_string(), o.peak_occupancy),
        ("trace_events".to_string(), o.trace.len() as u64),
    ]))
}

/// Schedule the contention-mix stream on the shared machine under one
/// policy, at a load factor given in percent of the reference arrival
/// rate (200% = jobs arrive twice as fast), and reduce the outcome to
/// integer metrics. `seed` perturbs the job stream; `0` is the
/// canonical stream the contention experiments use.
pub fn contention_run(
    policy: PolicyId,
    scale: Scale,
    load_pct: u32,
    seed: u64,
) -> Result<BTreeMap<String, u64>, String> {
    const REFERENCE_INTERARRIVAL_NS: u64 = 20_000_000;
    if load_pct == 0 {
        return Err("load_pct must be >= 1".to_string());
    }
    let interarrival = Time::from_nanos(REFERENCE_INTERARRIVAL_NS * 100 / u64::from(load_pct));
    let mut stream = mix_stream(scale, interarrival);
    stream.seed ^= seed;
    let out = run_stream(
        &stream,
        policy.queue_policy(),
        contended_machine(scale),
        policy.id(),
    );
    let io_bsld = out.stats.mean_bounded_slowdown_of(IO_BOUND, CLASS_TAU);
    let cpu_bsld = out.stats.mean_bounded_slowdown_of(COMPUTE_BOUND, CLASS_TAU);
    Ok(BTreeMap::from([
        ("makespan_ns".to_string(), out.stats.makespan.as_nanos()),
        (
            "io_time_ns".to_string(),
            out.trace.total_io_time().as_nanos(),
        ),
        ("events".to_string(), out.stats.total_events),
        ("jobs".to_string(), out.stats.jobs.len() as u64),
        ("mean_wait_us".to_string(), micros(out.stats.mean_wait())),
        ("io_bsld_milli".to_string(), milli(io_bsld.unwrap_or(0.0))),
        ("cpu_bsld_milli".to_string(), milli(cpu_bsld.unwrap_or(0.0))),
        ("fault_transitions".to_string(), out.fault_transitions),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for w in WorkloadId::all() {
            assert_eq!(WorkloadId::from_id(w.id()), Some(w));
        }
        for p in PolicyId::all() {
            assert_eq!(PolicyId::from_id(p.id()), Some(p));
        }
        assert_eq!(WorkloadId::from_id("escat-z"), None);
        assert_eq!(PolicyId::from_id("sjf"), None);
        for s in [Scale::Smoke, Scale::Full] {
            assert_eq!(scale_from_id(scale_id(s)), Some(s));
        }
        assert_eq!(scale_from_id("huge"), None);
    }

    #[test]
    fn workload_runs_are_deterministic_integer_metrics() {
        let a = workload_run(WorkloadId::EscatB, Scale::Smoke, BackendKind::Pfs, 0, 0).unwrap();
        let b = workload_run(WorkloadId::EscatB, Scale::Smoke, BackendKind::Pfs, 0, 0).unwrap();
        assert_eq!(a, b);
        assert!(a["exec_time_ns"] > 0);
        assert!(a["events"] > 0);
        assert_eq!(a["fault_transitions"], 0);
    }

    /// `workload_run` with no memo: simulate the fault-free run, draw
    /// the faults over its execution time, then simulate the faulted
    /// run.
    fn simulated_afresh(
        id: WorkloadId,
        backend: BackendKind,
        fault_events: u32,
        seed: u64,
    ) -> BTreeMap<String, u64> {
        let workload = id.build(Scale::Smoke);
        let run = |faults| {
            run_backend(
                &workload,
                &tier_config(backend, &workload, faults),
                SimOptions::default(),
            )
            .expect("smoke run")
        };
        let clean = run(FaultSchedule::empty());
        if fault_events == 0 {
            return run_metrics(&clean, backend, false);
        }
        let faults = tier_faults(backend, &workload, clean.exec_time, fault_events, seed);
        run_metrics(&run(faults), backend, true)
    }

    /// Every call answers what fresh simulations would, on every tier,
    /// with and without faults. The memo keys fault-free runs without
    /// the seed, so both seeds' fault-free calls must get the one map
    /// that a fresh fault-free simulation, which reads no seed, gives.
    #[test]
    fn memoized_fault_free_runs_give_the_metrics_of_fresh_simulations() {
        let id = WorkloadId::EscatC;
        for backend in BackendKind::all() {
            for fault_events in [0, 2] {
                for seed in [0, 0xF417] {
                    let expected = simulated_afresh(id, backend, fault_events, seed);
                    for call in ["first", "second"] {
                        let got = workload_run(id, Scale::Smoke, backend, fault_events, seed);
                        assert_eq!(
                            got.as_ref(),
                            Ok(&expected),
                            "{backend}, {fault_events} faults, seed {seed:#x}, {call} call"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fault_injection_engages_the_calendar() {
        let faulty = workload_run(
            WorkloadId::PrismA,
            Scale::Smoke,
            BackendKind::Pfs,
            2,
            0xF417,
        )
        .unwrap();
        assert!(faulty["fault_transitions"] > 0, "{faulty:?}");
        let clean = workload_run(
            WorkloadId::PrismA,
            Scale::Smoke,
            BackendKind::Pfs,
            0,
            0xF417,
        )
        .unwrap();
        assert!(faulty["exec_time_ns"] >= clean["exec_time_ns"]);
    }

    #[test]
    fn tiers_are_deterministic_and_distinct() {
        for backend in [BackendKind::Object, BackendKind::Burst] {
            let a = workload_run(WorkloadId::PrismA, Scale::Smoke, backend, 0, 0).unwrap();
            let b = workload_run(WorkloadId::PrismA, Scale::Smoke, backend, 0, 0).unwrap();
            assert_eq!(a, b, "{backend} must be deterministic");
        }
        let pfs = workload_run(WorkloadId::PrismA, Scale::Smoke, BackendKind::Pfs, 0, 0).unwrap();
        let object =
            workload_run(WorkloadId::PrismA, Scale::Smoke, BackendKind::Object, 0, 0).unwrap();
        let burst =
            workload_run(WorkloadId::PrismA, Scale::Smoke, BackendKind::Burst, 0, 0).unwrap();
        assert!(object.contains_key("puts") && object.contains_key("gets"));
        assert!(burst.contains_key("bytes_logged"));
        assert_eq!(burst["bytes_logged"], burst["bytes_drained"]);
        assert_ne!(pfs["exec_time_ns"], object["exec_time_ns"]);
        assert_ne!(pfs["exec_time_ns"], burst["exec_time_ns"]);
    }

    #[test]
    fn object_tier_takes_object_faults() {
        let faulty = workload_run(
            WorkloadId::EscatB,
            Scale::Smoke,
            BackendKind::Object,
            3,
            0xF417,
        )
        .unwrap();
        assert!(faulty["fault_transitions"] > 0, "{faulty:?}");
        assert!(faulty.contains_key("resilience_actions"), "{faulty:?}");
        let clean =
            workload_run(WorkloadId::EscatB, Scale::Smoke, BackendKind::Object, 0, 0).unwrap();
        assert!(faulty["exec_time_ns"] >= clean["exec_time_ns"]);
        assert!(!clean.contains_key("resilience_actions"));
    }

    #[test]
    fn burst_tier_takes_burst_faults() {
        let faulty = workload_run(
            WorkloadId::PrismA,
            Scale::Smoke,
            BackendKind::Burst,
            2,
            0xF417,
        )
        .unwrap();
        assert!(faulty["fault_transitions"] > 0, "{faulty:?}");
        assert!(
            faulty.contains_key("bytes_lost"),
            "faulted burst runs report the loss ledger: {faulty:?}"
        );
        assert_eq!(
            faulty["bytes_logged"],
            faulty["bytes_drained"] + faulty["bytes_resident"] + faulty["bytes_lost"],
            "conservation law: {faulty:?}"
        );
    }

    #[test]
    fn stream_runs_are_deterministic_integer_metrics() {
        let a = stream_run(256, 100, 0, Scale::Smoke).unwrap();
        let b = stream_run(256, 100, 0, Scale::Smoke).unwrap();
        assert_eq!(a, b);
        assert!(a["pipeline_latency_ns"] > 0);
        assert!(a["chunks"] > 0);
        assert!(a["trace_events"] == 2 * a["chunks"]);
        // Unbounded depth never stalls; a reseeded cadence differs.
        let unbounded = stream_run(0, 100, 0, Scale::Smoke).unwrap();
        assert_eq!(unbounded["producer_stall_ns"], 0);
        let reseeded = stream_run(256, 100, 7, Scale::Smoke).unwrap();
        assert_ne!(a, reseeded, "seed must perturb the cadence");
        // A throttled consumer shifts the metrics on the same cadence.
        let slow = stream_run(256, 50, 0, Scale::Smoke).unwrap();
        assert!(slow["pipeline_latency_ns"] >= a["pipeline_latency_ns"]);
        assert!(stream_run(256, 0, 0, Scale::Smoke).is_err());
    }

    #[test]
    fn contention_runs_are_deterministic_and_seed_sensitive() {
        let a = contention_run(PolicyId::Fcfs, Scale::Smoke, 100, 0).unwrap();
        let b = contention_run(PolicyId::Fcfs, Scale::Smoke, 100, 0).unwrap();
        assert_eq!(a, b);
        assert!(a["makespan_ns"] > 0);
        assert_eq!(a["jobs"], 8);
        let reseeded = contention_run(PolicyId::Fcfs, Scale::Smoke, 100, 7).unwrap();
        assert_ne!(a, reseeded, "seed must perturb the stream");
        assert!(contention_run(PolicyId::Fcfs, Scale::Smoke, 0, 0).is_err());
    }
}
