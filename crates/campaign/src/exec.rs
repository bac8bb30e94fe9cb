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

use sioscope::canon;
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

/// Run the whole campaign and aggregate the report. Cached results
/// are reused (unless `no_cache`), fresh results are computed on up to
/// `opts.jobs` threads and persisted under their content address —
/// including failures, so a red run doesn't get recomputed on every
/// resume.
pub fn run_campaign(spec: &CampaignSpec, opts: &ExecOptions) -> Result<CampaignReport, CliError> {
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
                spec: *run,
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
        scale: canon::scale_id(spec.scale).to_string(),
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
    let (status, metrics) = match catch_unwind(AssertUnwindSafe(|| canon::execute(run))) {
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
        spec: *run,
        hash: l.hash.clone(),
        entry,
        cache_hit: false,
        wall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope::canon::{BackendKind, PolicyId, WorkloadId};
    use sioscope::experiments::Scale;

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
    fn a_panicking_run_is_isolated_and_reported() {
        // A run that fails must produce a failed entry, not a crashed
        // campaign.
        let run = RunSpec::Workload {
            id: WorkloadId::EscatB,
            backend: BackendKind::Pfs,
            scale: Scale::Smoke,
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
        let idle = RunSpec::Contention {
            policy: PolicyId::Fcfs,
            scale: Scale::Smoke,
            load_pct: 0,
            seed: 0,
        };
        let report = execute_one(&idle, &lookup(&idle, &opts), &opts).unwrap();
        assert_eq!(report.entry.status, "failed: load_pct must be >= 1");
    }
}
