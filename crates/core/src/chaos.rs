//! Seeded chaos/soak harness for the storage tiers and the streaming
//! pipeline.
//!
//! Each case draws one paper workload and one tier, fuzzes a
//! tier-appropriate fault schedule from the seed, and checks the hard
//! invariants the fault subsystem promises no schedule can break:
//!
//! 1. **Byte conservation** — on every tier, after quiesce,
//!    `bytes_logged == bytes_drained + bytes_resident + bytes_lost`.
//! 2. **Golden bit-identity** — the fault-free PFS run still matches
//!    the pre-refactor fingerprint in
//!    `tests/golden/backend_baseline.txt` (supplied by the caller;
//!    the library never reads test fixtures itself).
//! 3. **Hook neutrality** — an engaged-but-empty schedule is
//!    bit-identical to no schedule at all.
//! 4. **Replay identity** — the same seed replays to the same
//!    fingerprint, resilience counters included.
//! 5. **Recovery sanity** — with the tier's faults held fixed,
//!    time-to-solution under compute crashes is never better than the
//!    crash-free run (crashes only ever add rework and replay).
//!
//! The `stream` tier runs the coupled producer–consumer pipeline
//! instead of a file-system workload (see [`stream_chaos_case`]); its
//! invariants are byte conservation through the staging queue, replay
//! identity, crash monotonicity (a consumer outage never *shrinks*
//! latency or stall), and the unbounded-queue equivalence.
//!
//! A case runs its simulations in series on the calling thread, so its
//! heap peak does not depend on thread timing. A backend case shrinks
//! each result to what its checks read, so no trace outlives its run.
//! Its fault-free and engaged-empty runs read neither the seed nor a
//! fuzzed schedule, so each (workload, tier) simulates them once per
//! process and every later case reads them from a memo; a case then
//! simulates only its faulted run, the replay and the recovery pair.
//! [`chaos_soak`] fans out over whole cases. The thread count never
//! reaches a verdict.
//!
//! The `sioscope-bench` `chaos` subcommand drives this over a fixed
//! seed budget (the CI `chaos-smoke` job); the functions are public
//! so soaks can also run in-process from tests.

use crate::canon::{tier_config, tier_faults, WorkloadId};
use crate::coupled::{run_coupled, Route};
use crate::experiments::memo::RunMemo;
use crate::experiments::Scale;
use crate::recovery::recover;
use crate::simulator::{run_backend, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultKind, FaultSchedule};
use sioscope_pfs::{BackendKind, BackendStats, ResilienceStats};
use sioscope_sim::{par, Time};
use sioscope_stream::StagingConfig;
use sioscope_trace::binary::{digest, fnv64};
use sioscope_trace::IoTotals;
use sioscope_workloads::{CheckpointPolicy, EscatConfig, EscatVersion, PrismConfig, PrismVersion};
use std::collections::BTreeMap;

/// The canonical run fingerprint: exec nanoseconds, event count,
/// fault transitions, trace length, and FNV-64 digests of the binary
/// trace and the per-node finish vector. Identical format to the
/// committed `tests/golden/backend_baseline.txt` columns.
pub(crate) fn fingerprint(r: &RunResult) -> String {
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
        digest(&r.trace),
        fnv64(&finish)
    )
}

/// A tier the chaos harness can soak: one of the storage backends, or
/// the in-transit streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosTier {
    /// A storage backend (`pfs`, `object`, `burst`).
    Backend(BackendKind),
    /// The coupled streaming pipeline over bounded staging queues.
    Stream,
}

impl ChaosTier {
    /// Every tier, storage backends first, in soak order.
    pub fn all() -> Vec<ChaosTier> {
        let mut tiers: Vec<ChaosTier> = BackendKind::all()
            .iter()
            .copied()
            .map(ChaosTier::Backend)
            .collect();
        tiers.push(ChaosTier::Stream);
        tiers
    }

    /// Stable string id (CLI `--tiers`, artifact lines).
    pub fn id(self) -> &'static str {
        match self {
            ChaosTier::Backend(b) => b.id(),
            ChaosTier::Stream => "stream",
        }
    }

    /// Parse a stable id.
    pub fn from_id(id: &str) -> Option<ChaosTier> {
        ChaosTier::all().into_iter().find(|t| t.id() == id)
    }
}

impl std::fmt::Display for ChaosTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One chaos case's outcome: which (tier, seed, workload) ran, the
/// faulted run's fingerprint, and every invariant violation observed
/// (empty means the case passed).
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// Tier the case ran against.
    pub tier: ChaosTier,
    /// Seed that drew the workload and fault schedule.
    pub seed: u64,
    /// Canonical id of the workload the seed drew.
    pub workload: &'static str,
    /// Fingerprint of the faulted run (replay-checked).
    pub fingerprint: String,
    /// Invariant violations; empty for a passing case.
    pub violations: Vec<String>,
}

impl ChaosVerdict {
    /// True when no invariant was violated.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// One plain-text verdict line (the CI artifact format).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} seed={} workload={} {} fp={}",
            self.tier.id(),
            self.seed,
            self.workload,
            if self.pass() { "PASS" } else { "FAIL" },
            self.fingerprint,
        );
        for v in &self.violations {
            line.push_str("\n  violation: ");
            line.push_str(v);
        }
        line
    }
}

/// What a backend case's checks read from one run. Each run is shrunk
/// to this as soon as it ends, so no trace outlives its run.
struct RunSummary {
    fingerprint: String,
    exec_time: Time,
    backend_stats: BackendStats,
    resilience: ResilienceStats,
}

impl RunSummary {
    fn of(r: RunResult) -> RunSummary {
        RunSummary {
            fingerprint: fingerprint(&r),
            exec_time: r.exec_time,
            backend_stats: r.backend_stats,
            resilience: r.resilience,
        }
    }
}

/// The fault-free and the engaged-empty run of each (workload, tier)
/// at smoke scale. Neither reads the seed, so every backend case of a
/// process shares one simulation of each. Only the summaries stay: at
/// most 9 ids x 3 tiers pairs.
static FAULT_FREE: RunMemo<(WorkloadId, BackendKind), [RunSummary; 2]> = RunMemo::new();

/// Forget every memoized fault-free pair.
pub(crate) fn clear_cache() {
    FAULT_FREE.clear();
}

/// Recovery sanity's two runs: compute crashes only ever *add* time —
/// rework, restart latency, replayed work — so with the tier's faults
/// held fixed, crashing the run can never beat the crash-free
/// time-to-solution. Runs one fixed recoverable workload on every tier:
/// tiny ESCAT B at `Fixed { interval: 5 }`. Tiny ESCAT B has two
/// cycles, so that policy places no checkpoint marker: every crash
/// replays from the start, and no case reaches a rollback to a marker
/// or a burst-tier commit judged through `durable_commits`. Running the
/// pair with markers is ROADMAP item 13. The tier's faults span
/// `clean_horizon`, the case's fault-free exec time. Returns the
/// crash-free and the crashed time-to-solution; the crash-free run is
/// dropped before the crashed one starts.
fn recovery_pair(tier: BackendKind, seed: u64, clean_horizon: Time, events: u32) -> (Time, Time) {
    let rec =
        EscatConfig::tiny(EscatVersion::B).recoverable(CheckpointPolicy::Fixed { interval: 5 });
    let rec_faults = tier_faults(tier, rec.workload(), clean_horizon, events, seed);
    let storage = tier_config(tier, rec.workload(), rec_faults);
    let run = |crashes: &FaultSchedule, what: &str| {
        recover(&rec, crashes, &storage, &SimOptions::default(), |_| {
            IoTotals::default()
        })
        .expect(what)
    };
    let (horizon, base) = {
        let r = run(&FaultSchedule::empty(), "crash-free recovery run");
        (r.exec_time, r.recovery.time_to_solution)
    };
    let crashes = FaultGen::new(seed, horizon, 0).compute_crash_schedule(
        horizon.scale(0.4).max(Time::from_millis(1)),
        horizon.scale(0.05).max(Time::from_millis(1)),
        rec.workload().nodes,
    );
    let crashed = run(&crashes, "crashed recovery run");
    (base, crashed.recovery.time_to_solution)
}

/// Run one chaos case. `golden` optionally maps canonical workload
/// ids to the committed fault-free PFS fingerprints; when present and
/// the tier is the PFS, the fault-free run must reproduce its entry
/// bit for bit.
pub fn chaos_case(
    tier: BackendKind,
    seed: u64,
    golden: Option<&BTreeMap<String, String>>,
) -> ChaosVerdict {
    let ids = WorkloadId::all();
    let id = ids[(seed as usize) % ids.len()];
    let workload = id.build(Scale::Smoke);

    let run_with = |faults: &FaultSchedule| {
        RunSummary::of(
            run_backend(
                &workload,
                &tier_config(tier, &workload, faults.clone()),
                SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} on {}: {e}", id.id(), tier.id())),
        )
    };

    // The fault-free run places every later run's schedule.
    let fault_free = FAULT_FREE.get_or_run((id, tier), || {
        [FaultSchedule::empty(), FaultSchedule::engaged_empty()].map(|f| run_with(&f))
    });
    let [clean, engaged] = &*fault_free;

    // The fuzzed schedule: event count is itself seed-derived so the
    // soak covers sparse and dense schedules alike.
    let events = 1 + (seed % 4) as u32;
    let faults = tier_faults(tier, &workload, clean.exec_time, events, seed);
    let faulted = run_with(&faults);
    let replay = run_with(&faults);
    // The recovery pair builds its own workload.
    drop(workload);
    let (rec_base, rec_crashed) = recovery_pair(tier, seed, clean.exec_time, events);

    let mut violations = Vec::new();
    // Fault-free baseline, checked against the committed golden
    // fingerprints on the measured (PFS) tier.
    if tier == BackendKind::Pfs {
        if let Some(want) = golden.and_then(|g| g.get(id.id())) {
            if *want != clean.fingerprint {
                violations.push(format!(
                    "golden divergence: fault-free pfs run is {}, baseline says {want}",
                    clean.fingerprint
                ));
            }
        }
    }
    if !clean.backend_stats.conserves_bytes() {
        violations.push(format!(
            "fault-free conservation broken: {:?}",
            clean.backend_stats
        ));
    }

    // Engaged-but-empty hooks must be invisible.
    if engaged.fingerprint != clean.fingerprint {
        violations.push(format!(
            "engaged-empty schedule perturbed the run: {} vs {}",
            engaged.fingerprint, clean.fingerprint
        ));
    }

    if !faulted.backend_stats.conserves_bytes() {
        let s = faulted.backend_stats;
        violations.push(format!(
            "conservation broken under faults: {} logged != {} drained + {} resident + {} lost",
            s.bytes_logged, s.bytes_drained, s.bytes_resident, s.bytes_lost
        ));
    }

    // Same seed, same world.
    if replay.fingerprint != faulted.fingerprint || replay.resilience != faulted.resilience {
        violations.push(format!(
            "replay divergence: {} vs {}",
            replay.fingerprint, faulted.fingerprint
        ));
    }

    // Crashes only ever add time (see `recovery_pair`).
    if rec_crashed < rec_base {
        violations.push(format!(
            "recovery TTS beat the crash-free run: {rec_crashed} < {rec_base}"
        ));
    }

    ChaosVerdict {
        tier: ChaosTier::Backend(tier),
        seed,
        workload: id.id(),
        fingerprint: faulted.fingerprint,
        violations,
    }
}

/// Run one chaos case against the streaming pipeline. The seed draws
/// a staging depth (including undersized and unbounded), a consumer
/// speed, and a PRISM code version, then fuzzes a consumer-crash
/// schedule over the clean run's horizon and checks:
///
/// 1. **Byte conservation** — pushed == popped + resident through the
///    staging queue, clean and faulted alike, with the full cadence
///    payload delivered.
/// 2. **Replay identity** — the same seed replays to the same
///    coupled-run fingerprint (trace digest included).
/// 3. **Crash monotonicity** — consumer outages never shrink the
///    pipeline latency or the producer's stall.
/// 4. **Unbounded equivalence** — `depth = 0` is bit-identical to a
///    queue deep enough to hold the whole payload, and never stalls.
pub fn stream_chaos_case(seed: u64) -> ChaosVerdict {
    const DEPTHS: [u64; 5] = [16 << 10, 32 << 10, 64 << 10, 256 << 10, 0];
    const SPEEDS: [u32; 4] = [50, 100, 150, 25];
    const VERSIONS: [(PrismVersion, &str); 3] = [
        (PrismVersion::A, "stream-prism-a"),
        (PrismVersion::B, "stream-prism-b"),
        (PrismVersion::C, "stream-prism-c"),
    ];
    let depth = DEPTHS[(seed % DEPTHS.len() as u64) as usize];
    let speed = SPEEDS[((seed / 5) % SPEEDS.len() as u64) as usize];
    let (version, label) = VERSIONS[((seed / 20) % VERSIONS.len() as u64) as usize];
    let cadence = PrismConfig::tiny(version).stream_cadence();
    let mut violations = Vec::new();

    let run_at = |depth: u64, faults: &FaultSchedule| {
        let route = Route::Stream(StagingConfig::paragon(depth));
        run_coupled(&cadence, &route, speed, faults)
            .unwrap_or_else(|e| panic!("stream chaos seed {seed} on {label}: {e}"))
    };

    // Fault-free: the ledger must balance and the payload arrive whole.
    let clean = run_at(depth, &FaultSchedule::empty());
    if !clean.conserves || clean.bytes != cadence.total_bytes() {
        violations.push(format!(
            "fault-free conservation broken: {} of {} B through depth {depth}",
            clean.bytes,
            cadence.total_bytes()
        ));
    }

    // Unbounded equivalence: depth 0 never stalls and matches a queue
    // that could hold every byte of the cadence at once.
    let unbounded = run_at(0, &FaultSchedule::empty());
    let oversized = run_at(cadence.total_bytes(), &FaultSchedule::empty());
    if unbounded.producer_stall != Time::ZERO {
        violations.push(format!(
            "unbounded queue stalled the producer: {}",
            unbounded.producer_stall
        ));
    }
    if unbounded.fingerprint() != oversized.fingerprint() {
        violations.push(format!(
            "unbounded != oversized queue: {} vs {}",
            unbounded.fingerprint(),
            oversized.fingerprint()
        ));
    }

    // Seed-fuzzed consumer crashes across the clean horizon.
    let crashes = 1 + seed % 3;
    let stall = clean
        .pipeline_latency
        .scale(0.05 + 0.1 * ((seed % 7) as f64) / 7.0)
        .max(Time::from_millis(1));
    let mut faults = FaultSchedule::empty();
    for k in 0..crashes {
        let frac = 0.1 + 0.8 * (k as f64) / (crashes as f64);
        faults.push(
            clean.pipeline_latency.scale(frac),
            FaultKind::ConsumerCrash { stall },
        );
    }
    let faulted = run_at(depth, &faults);
    if !faulted.conserves || faulted.bytes != cadence.total_bytes() {
        violations.push(format!(
            "conservation broken under consumer crashes: {} of {} B",
            faulted.bytes,
            cadence.total_bytes()
        ));
    }
    if faulted.pipeline_latency < clean.pipeline_latency {
        violations.push(format!(
            "crash shrank the pipeline: {} < {}",
            faulted.pipeline_latency, clean.pipeline_latency
        ));
    }
    if faulted.producer_stall < clean.producer_stall {
        violations.push(format!(
            "crash shrank the producer stall: {} < {}",
            faulted.producer_stall, clean.producer_stall
        ));
    }

    // Same seed, same world.
    let replay = run_at(depth, &faults);
    if replay.fingerprint() != faulted.fingerprint() {
        violations.push(format!(
            "replay divergence: {} vs {}",
            replay.fingerprint(),
            faulted.fingerprint()
        ));
    }

    ChaosVerdict {
        tier: ChaosTier::Stream,
        seed,
        workload: label,
        fingerprint: faulted.fingerprint(),
        violations,
    }
}

/// Cases one [`chaos_soak`] fan-out holds at once, so a huge seed
/// window starts running instead of first listing every case.
const SOAK_BATCH: usize = 1024;

/// Soak `seeds` schedules across every tier in `tiers`, returning one
/// verdict per (tier, seed) in deterministic order: tier by tier, seeds
/// ascending. The seed window stops at `u64::MAX`. Cases run side by
/// side on every available thread.
pub fn chaos_soak(
    tiers: &[ChaosTier],
    start_seed: u64,
    seeds: u64,
    golden: Option<&BTreeMap<String, String>>,
) -> Vec<ChaosVerdict> {
    let end = start_seed.saturating_add(seeds);
    let mut cases = tiers
        .iter()
        .flat_map(|&tier| (start_seed..end).map(move |seed| (tier, seed)));
    let mut verdicts = Vec::new();
    loop {
        let batch: Vec<(ChaosTier, u64)> = cases.by_ref().take(SOAK_BATCH).collect();
        if batch.is_empty() {
            return verdicts;
        }
        verdicts.extend(par::map(
            &batch,
            par::available_threads(),
            |&(tier, seed)| match tier {
                ChaosTier::Backend(b) => chaos_case(b, seed, golden),
                ChaosTier::Stream => stream_chaos_case(seed),
            },
        ));
    }
}

/// Parse the committed backend baseline (`tests/golden/
/// backend_baseline.txt`) into the golden map [`chaos_case`] checks
/// against: the fault-free (fault_events == 0) rows, id →
/// fingerprint.
pub fn parse_golden_baseline(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        // id fault_events seed exec_ns events transitions trace_len fnv fnv
        if fields.len() == 9 && fields[1] == "0" {
            map.insert(fields[0].to_string(), fields[3..].join(" "));
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_case_passes_on_every_tier() {
        for tier in BackendKind::all() {
            let v = chaos_case(tier, 7, None);
            assert!(v.pass(), "{}", v.render());
            assert!(v.render().contains("PASS"));
        }
    }

    #[test]
    fn chaos_tier_ids_round_trip() {
        let tiers = ChaosTier::all();
        assert_eq!(tiers.len(), 4);
        assert_eq!(tiers.last(), Some(&ChaosTier::Stream));
        for t in &tiers {
            assert_eq!(ChaosTier::from_id(t.id()), Some(*t));
        }
        assert_eq!(ChaosTier::from_id("stream"), Some(ChaosTier::Stream));
        assert_eq!(ChaosTier::from_id("nvme"), None);
    }

    #[test]
    fn stream_chaos_cases_pass_over_a_seed_window() {
        for seed in 0..12 {
            let v = stream_chaos_case(seed);
            assert!(v.pass(), "{}", v.render());
            assert_eq!(v.tier, ChaosTier::Stream);
            assert!(v.workload.starts_with("stream-prism-"));
            assert!(v.render().starts_with("stream seed="));
        }
    }

    #[test]
    fn chaos_soak_dispatches_the_stream_tier() {
        // One case more than a batch holds, so the soak takes two.
        let verdicts = chaos_soak(&[ChaosTier::Stream], 5, SOAK_BATCH as u64 + 1, None);
        assert_eq!(verdicts.len(), SOAK_BATCH + 1);
        assert!(verdicts.iter().zip(5..).all(|(v, seed)| v.seed == seed));
        assert!(verdicts.iter().all(|v| v.tier == ChaosTier::Stream));
        assert!(verdicts.iter().all(ChaosVerdict::pass));
        // The window stops at u64::MAX.
        let last = chaos_soak(&[ChaosTier::Stream], u64::MAX - 1, 5, None);
        assert_eq!(last.len(), 1);
    }

    #[test]
    fn chaos_soak_is_deterministic_and_ordered() {
        let a = chaos_soak(&[ChaosTier::Backend(BackendKind::Object)], 3, 2, None);
        let b = chaos_soak(&[ChaosTier::Backend(BackendKind::Object)], 3, 2, None);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].seed, 3);
        assert_eq!(a[1].seed, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert!(x.pass() && y.pass(), "{}\n{}", x.render(), y.render());
        }
    }

    #[test]
    fn golden_baseline_parses_fault_free_rows_only() {
        let text = "# header\nescat-a 0 0 1 2 0 3 aa bb\nescat-a 2 9 1 2 4 3 aa bb\n";
        let map = parse_golden_baseline(text);
        assert_eq!(map.len(), 1);
        assert_eq!(map["escat-a"], "1 2 0 3 aa bb");
    }

    /// A golden map whose entry for seed 11's workload is wrong.
    fn divergent_golden() -> BTreeMap<String, String> {
        let id = WorkloadId::all()[11 % WorkloadId::all().len()];
        BTreeMap::from([(id.id().to_string(), "0 0 0 0 dead beef".to_string())])
    }

    #[test]
    fn golden_divergence_is_reported() {
        let v = chaos_case(BackendKind::Pfs, 11, Some(&divergent_golden()));
        assert!(!v.pass());
        let id = WorkloadId::all()[11 % WorkloadId::all().len()];
        let w = id.build(Scale::Smoke);
        let clean = run_backend(
            &w,
            &tier_config(BackendKind::Pfs, &w, FaultSchedule::empty()),
            SimOptions::default(),
        )
        .expect("fault-free run");
        assert_eq!(
            v.violations,
            [format!(
                "golden divergence: fault-free pfs run is {}, baseline says 0 0 0 0 dead beef",
                fingerprint(&clean)
            )]
        );
    }

    #[test]
    fn the_thread_count_never_reaches_a_chaos_verdict() {
        let soak = |&tier: &ChaosTier| -> Vec<String> {
            chaos_soak(&[tier], 0, 8, None)
                .iter()
                .map(ChaosVerdict::render)
                .collect()
        };
        for tier in ChaosTier::all() {
            // Here the soak fans out over cases; under a one-thread map
            // every case and every run stays on this thread.
            let fanned_out = soak(&tier);
            let inline = par::map(&[tier], 1, soak);
            assert_eq!(fanned_out, inline[0], "{tier}");
        }
    }

    #[test]
    fn the_fault_free_memo_never_reaches_a_chaos_verdict() {
        // Seed 8 draws the one workload no other test runs, so the first
        // case simulates its fault-free pair and the second reads it
        // back. Its golden entry is wrong, so the PFS verdict pins its
        // violation's text too.
        let seed = 8;
        let id = WorkloadId::all()[seed as usize % WorkloadId::all().len()];
        let golden = BTreeMap::from([(id.id().to_string(), "0 0 0 0 dead beef".to_string())]);
        for tier in BackendKind::all() {
            let cold = chaos_case(tier, seed, Some(&golden));
            let warm = chaos_case(tier, seed, Some(&golden));
            assert_eq!(cold.render(), warm.render());
            assert_eq!(cold.pass(), tier != BackendKind::Pfs, "{}", cold.render());
        }
    }

    #[test]
    fn trace_digest_is_the_fnv64_of_the_encoded_trace() {
        let w = WorkloadId::all()[0].build(Scale::Smoke);
        let r = run_backend(
            &w,
            &tier_config(BackendKind::Pfs, &w, FaultSchedule::empty()),
            SimOptions::default(),
        )
        .expect("smoke run");
        assert!(!r.trace.is_empty());
        assert_eq!(
            digest(&r.trace),
            fnv64(&sioscope_trace::binary::encode(&r.trace))
        );
    }
}
