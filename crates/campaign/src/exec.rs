//! The campaign executor: expand, hash, serve cache hits, fan the
//! misses out across scoped worker threads, and aggregate.
//!
//! Cache lookups run on the calling thread, so a fully cached campaign
//! starts no threads. Execution order of the misses is whatever the
//! workers make of it; *result* order is the spec's deterministic
//! expansion order, and every run's outcome is a pure function of its
//! canonical config — which is why the thread count can't reach the
//! report bytes. Each run is wrapped in `catch_unwind`, so one
//! panicking configuration becomes one `"panicked: ..."` entry instead
//! of a lost campaign.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use sioscope::canon::{self, BackendKind, PolicyId, WorkloadId};
use sioscope::experiments::{run_experiment, Experiment};
use sioscope::sweeps::{run_sweep, SweepId};
use sioscope_sim::par;

use crate::cache::{self, CacheEntry};
use crate::cliutil::CliError;
use crate::confhash::config_hash;
use crate::report::{CampaignReport, RunReport};
use crate::spec::{CampaignSpec, RunSpec};

/// How to execute a campaign.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for the runs the cache cannot serve; `0` means
    /// one per available core.
    pub jobs: usize,
    /// Bypass the cache entirely: neither read nor write entries.
    pub no_cache: bool,
    /// Where cached entries live (`artifacts/campaign` by default).
    pub cache_dir: PathBuf,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: 0,
            no_cache: false,
            cache_dir: PathBuf::from("artifacts/campaign"),
        }
    }
}

/// Check that every id the spec names resolves in the registries the
/// executor will use. A spec parsed from TOML has already had its
/// workload, backend, policy and scale ids checked against the same
/// registries; this also covers a hand-built [`CampaignSpec`], and is
/// the only validation experiment/sweep ids get. Failures map to
/// exit 2.
pub fn validate_spec(spec: &CampaignSpec) -> Result<(), CliError> {
    let bad = |what: &str, id: &str, known: String| {
        CliError::BadArgs(format!("unknown {what} id `{id}` (known: {known})"))
    };
    canon::scale_from_id(&spec.scale)
        .ok_or_else(|| bad("scale", &spec.scale, "smoke, full".to_string()))?;
    for id in &spec.workload_ids {
        WorkloadId::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = WorkloadId::all().iter().map(|w| w.id()).collect();
            bad("workload", id, known.join(", "))
        })?;
    }
    for id in &spec.backends {
        BackendKind::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = BackendKind::all().iter().map(|b| b.id()).collect();
            bad("backend", id, known.join(", "))
        })?;
    }
    for id in &spec.policies {
        PolicyId::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = PolicyId::all().iter().map(|p| p.id()).collect();
            bad("policy", id, known.join(", "))
        })?;
    }
    for id in &spec.experiments {
        Experiment::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = Experiment::all().iter().map(|e| e.id()).collect();
            bad("experiment", id, known.join(", "))
        })?;
    }
    for id in &spec.sweeps {
        SweepId::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = SweepId::all().iter().map(|s| s.id()).collect();
            bad("sweep", id, known.join(", "))
        })?;
    }
    Ok(())
}

/// Run the whole campaign and aggregate the report. Cached results
/// are reused (unless `no_cache`), fresh results are computed on up to
/// `opts.jobs` threads and persisted under their content address —
/// including failures, so a red run doesn't get recomputed on every
/// resume.
pub fn run_campaign(spec: &CampaignSpec, opts: &ExecOptions) -> Result<CampaignReport, CliError> {
    validate_spec(spec)?;
    let runs = spec.expand();
    let looked_up: Vec<Lookup> = runs.iter().map(|run| lookup(run, opts)).collect();
    let misses: Vec<(&RunSpec, &Lookup)> = runs
        .iter()
        .zip(&looked_up)
        .filter(|(_, l)| l.entry.is_none())
        .collect();
    let threads = match opts.jobs {
        0 => par::available_threads(),
        n => n,
    };
    let mut fresh = par::map(&misses, threads, |&(run, l)| execute_one(run, l, opts)).into_iter();
    let reports = runs
        .iter()
        .zip(looked_up)
        .map(|(run, l)| match l.entry {
            Some(entry) => Ok(RunReport {
                spec: run.clone(),
                hash: l.hash,
                entry,
                cache_hit: true,
                wall_ns: 0,
            }),
            None => fresh.next().expect("one fresh report per cache miss"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignReport {
        name: spec.name.clone(),
        scale: spec.scale.clone(),
        runs: reports,
    })
}

/// A run's canonical line, its content address, and the cached entry
/// under that address, if any.
struct Lookup {
    canon: String,
    hash: String,
    entry: Option<CacheEntry>,
}

fn lookup(run: &RunSpec, opts: &ExecOptions) -> Lookup {
    let canon = run.canon();
    let hash = config_hash(&canon);
    let entry = if opts.no_cache {
        None
    } else {
        cache::load(&opts.cache_dir, &hash, &canon)
    };
    Lookup { canon, hash, entry }
}

/// Execute one cache miss and persist its entry (unless `no_cache`).
fn execute_one(run: &RunSpec, l: &Lookup, opts: &ExecOptions) -> Result<RunReport, CliError> {
    let started = Instant::now();
    let (status, metrics) = match catch_unwind(AssertUnwindSafe(|| run_resolved(run))) {
        Ok(Ok((status, metrics))) => (status, metrics),
        Ok(Err(reason)) => (format!("failed: {reason}"), BTreeMap::new()),
        Err(payload) => {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (format!("panicked: {reason}"), BTreeMap::new())
        }
    };
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let entry = CacheEntry {
        hash: l.hash.clone(),
        canon: l.canon.clone(),
        status,
        metrics,
    };
    if !opts.no_cache {
        cache::store(&opts.cache_dir, &entry)?;
    }
    Ok(RunReport {
        spec: run.clone(),
        hash: l.hash.clone(),
        entry,
        cache_hit: false,
        wall_ns,
    })
}

/// Round a nonnegative float into fixed-point thousandths — the only
/// place a float from the analysis layer crosses into campaign
/// metrics.
fn milli(x: f64) -> u64 {
    (x.max(0.0) * 1_000.0).round() as u64
}

/// A deterministic 64-bit fingerprint of a rendered artifact, so the
/// campaign report can assert "the rendering did not change" without
/// embedding kilobytes of ASCII tables.
fn render_fingerprint(rendered: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = sioscope_sim::hash::FxHasher::default();
    hasher.write(rendered.as_bytes());
    hasher.finish()
}

/// Execute one resolved run and reduce it to (status, integer
/// metrics). `Err` is an execution failure; `Ok` with a non-`"ok"`
/// status is a run that completed but disagreed with the paper.
fn run_resolved(run: &RunSpec) -> Result<(String, BTreeMap<String, u64>), String> {
    match run {
        RunSpec::Workload {
            id,
            backend,
            scale,
            fault_events,
            seed,
        } => {
            let id = WorkloadId::from_id(id).ok_or_else(|| format!("unknown workload `{id}`"))?;
            let backend = BackendKind::from_id(backend)
                .ok_or_else(|| format!("unknown backend `{backend}`"))?;
            let scale = resolve_scale(scale)?;
            let metrics = canon::workload_run(id, scale, backend, *fault_events, *seed)?;
            Ok(("ok".to_string(), metrics))
        }
        RunSpec::Contention {
            policy,
            scale,
            load_pct,
            seed,
        } => {
            let policy =
                PolicyId::from_id(policy).ok_or_else(|| format!("unknown policy `{policy}`"))?;
            let scale = resolve_scale(scale)?;
            let metrics = canon::contention_run(policy, scale, *load_pct, *seed)?;
            Ok(("ok".to_string(), metrics))
        }
        RunSpec::Experiment { id, scale } => {
            let experiment =
                Experiment::from_id(id).ok_or_else(|| format!("unknown experiment `{id}`"))?;
            let scale = resolve_scale(scale)?;
            let out = run_experiment(experiment, scale);
            let failed = out.failures().len();
            let metrics = BTreeMap::from([
                ("checks_total".to_string(), out.checks.len() as u64),
                ("checks_failed".to_string(), failed as u64),
                ("rendered_bytes".to_string(), out.rendered.len() as u64),
                ("rendered_fx".to_string(), render_fingerprint(&out.rendered)),
            ]);
            let status = if failed == 0 {
                "ok".to_string()
            } else {
                format!("failed: {failed} shape check(s) disagree with the paper")
            };
            Ok((status, metrics))
        }
        RunSpec::Stream {
            depth_kib,
            consumer_pct,
            scale,
            seed,
        } => {
            let scale = resolve_scale(scale)?;
            let metrics = canon::stream_run(*depth_kib, *consumer_pct, *seed, scale)?;
            Ok(("ok".to_string(), metrics))
        }
        RunSpec::Sweep { id, scale } => {
            let sweep_id = SweepId::from_id(id).ok_or_else(|| format!("unknown sweep `{id}`"))?;
            let scale = resolve_scale(scale)?;
            let sweep = run_sweep(sweep_id, scale);
            let total_events: u64 = sweep.points.iter().map(|p| p.events).sum();
            let total_io_ns: u64 = sweep.points.iter().map(|p| p.io_time.as_nanos()).sum();
            let total_exec_ns: u64 = sweep.points.iter().map(|p| p.exec_time.as_nanos()).sum();
            let metrics = BTreeMap::from([
                ("points".to_string(), sweep.points.len() as u64),
                ("total_events".to_string(), total_events),
                ("total_io_time_ns".to_string(), total_io_ns),
                ("total_exec_time_ns".to_string(), total_exec_ns),
                (
                    "best_io_speedup_milli".to_string(),
                    milli(sweep.best_io_speedup()),
                ),
                (
                    "rendered_fx".to_string(),
                    render_fingerprint(&sweep.render()),
                ),
            ]);
            Ok(("ok".to_string(), metrics))
        }
    }
}

fn resolve_scale(scale: &str) -> Result<sioscope::experiments::Scale, String> {
    canon::scale_from_id(scale).ok_or_else(|| format!("unknown scale `{scale}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sioscope-campaign-exec-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"exec-test\"\n",
            "scale = \"smoke\"\n",
            "[workloads]\n",
            "ids = [\"escat-b\"]\n",
            "seeds = [0, 1]\n",
        ))
        .unwrap()
    }

    #[test]
    fn cold_then_cached_campaigns_agree_bit_for_bit() {
        let dir = tmp_cache("coldwarm");
        let spec = tiny_spec();
        let opts = ExecOptions {
            jobs: 2,
            no_cache: false,
            cache_dir: dir.clone(),
        };
        let cold = run_campaign(&spec, &opts).unwrap();
        assert_eq!(cold.hits(), 0);
        let warm = run_campaign(&spec, &opts).unwrap();
        assert_eq!(warm.hits(), warm.runs.len());
        assert_eq!(cold.render(), warm.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_cache_bypasses_reads_and_writes() {
        let dir = tmp_cache("nocache");
        let spec = tiny_spec();
        let opts = ExecOptions {
            jobs: 1,
            no_cache: true,
            cache_dir: dir.clone(),
        };
        let report = run_campaign(&spec, &opts).unwrap();
        assert_eq!(report.hits(), 0);
        assert!(!dir.exists(), "--no-cache must not create cache entries");
        assert!(report.runs.iter().all(|r| r.entry.is_ok()));
    }

    #[test]
    fn unknown_registry_ids_fail_validation_with_exit_2() {
        let spec = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"bad\"\n",
            "scale = \"smoke\"\n",
            "[registry]\n",
            "experiments = [\"escat-fig99\"]\n",
        ))
        .unwrap();
        let err = run_campaign(&spec, &ExecOptions::default()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("escat-fig99"));
    }

    #[test]
    fn a_panicking_run_is_isolated_and_reported() {
        // An unknown id smuggled past validation (hand-built RunSpec)
        // must produce a failed entry, not a crashed campaign.
        let run = RunSpec::Workload {
            id: "escat-b".into(),
            backend: "pfs".into(),
            scale: "smoke".into(),
            fault_events: 0,
            seed: 0,
        };
        let dir = tmp_cache("panic");
        let opts = ExecOptions {
            jobs: 1,
            no_cache: true,
            cache_dir: dir,
        };
        let report = execute_one(&run, &lookup(&run, &opts), &opts).unwrap();
        assert!(report.entry.is_ok());
        let bogus = RunSpec::Sweep {
            id: "io_nodes".into(),
            scale: "bogus-scale".into(),
        };
        let report = execute_one(&bogus, &lookup(&bogus, &opts), &opts).unwrap();
        assert!(report.entry.status.starts_with("failed: unknown scale"));
    }
}
