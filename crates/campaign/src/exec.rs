//! The campaign executor: expand, hash, serve cache hits, fan the
//! misses out across scoped worker threads, and aggregate.
//!
//! Cache lookups run on the calling thread, so a fully cached campaign
//! starts no threads. The misses fan out in groups: consecutive misses
//! that build the same workload ([`RunSpec::builds`]) form one group of
//! at most ⌈misses / threads⌉ runs, so a one-workload campaign still
//! keeps every worker busy, and every other miss is a group of one. A
//! worker runs a group's runs in spec order through one
//! [`canon::Built`], so they share one build of their workload, and no
//! worker waits on another's fault-free memo fill for it. Which worker
//! runs which group is whatever the workers make of it; *result* order
//! is the spec's deterministic expansion order, and every run's outcome
//! is a pure function of its canonical config — which is why neither
//! the thread count nor the grouping can reach the report bytes. Each
//! run is wrapped in its own `catch_unwind`, so one panicking
//! configuration becomes one `"panicked: ..."` entry instead of a lost
//! campaign or group.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use sioscope::canon::{self, Built, WorkloadId};
use sioscope::experiments::Scale;
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
/// `opts.jobs` threads, one group of misses at a time (see the module
/// docs), and persisted under their content address — including
/// failures, so a red run doesn't get recomputed on every resume.
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
    let builds: Vec<_> = misses.iter().map(|(run, _)| run.builds()).collect();
    let mut fresh = par::map(&groups(&builds, threads), threads, |group| {
        let mut built = Built::default();
        misses[group.clone()]
            .iter()
            .map(|&(run, l)| execute_one(run, l, opts, &mut built))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten();
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

/// Split the misses, given by the workload each builds, into the groups
/// the workers run: consecutive misses that build the same workload form
/// one group of at most ⌈misses / threads⌉, so that `threads` workers
/// share even a one-workload campaign, and every other miss is a group
/// of one. The groups cover `0..builds.len()` in order.
fn groups(builds: &[Option<(WorkloadId, Scale)>], threads: usize) -> Vec<Range<usize>> {
    let cap = builds.len().div_ceil(threads);
    let mut groups: Vec<Range<usize>> = Vec::new();
    for (i, key) in builds.iter().enumerate() {
        match groups.last_mut() {
            Some(group) if key.is_some() && builds[group.start] == *key && group.len() < cap => {
                group.end = i + 1;
            }
            _ => groups.push(i..i + 1),
        }
    }
    groups
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

/// Execute one cache miss, taking its workload from `built` (see
/// [`canon::execute`]), and persist its entry (unless `no_cache`).
fn execute_one(
    run: &RunSpec,
    l: &Lookup,
    opts: &ExecOptions,
    built: &mut Built,
) -> Result<RunReport, CliError> {
    let started = Instant::now();
    let (status, metrics) = match catch_unwind(AssertUnwindSafe(|| canon::execute(run, built))) {
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
    use sioscope::canon::{BackendKind, PolicyId};

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
        let report = execute_one(&run, &lookup(&run, &opts), &opts, &mut Built::default()).unwrap();
        assert!(report.entry.is_ok());
        let idle = RunSpec::Contention {
            policy: PolicyId::Fcfs,
            scale: Scale::Smoke,
            load_pct: 0,
            seed: 0,
        };
        let report =
            execute_one(&idle, &lookup(&idle, &opts), &opts, &mut Built::default()).unwrap();
        assert_eq!(report.entry.status, "failed: load_pct must be >= 1");
    }

    /// The benchmark's cold campaign at seed 1: 6 workloads x 2 tiers x
    /// 3 fault intensities x 2 seeds, 2 policies x 2 loads, and 3
    /// staging depths x 2 consumer speeds, for 82 runs.
    const BENCH_CAMPAIGN: &str = concat!(
        "[campaign]\n",
        "name = \"bench\"\n",
        "scale = \"full\"\n",
        "[workloads]\n",
        "ids = [\"escat-a\", \"escat-b\", \"escat-c\", \"prism-a\", \"prism-b\", \"prism-c\"]\n",
        "backends = [\"pfs\", \"burst\"]\n",
        "fault_events = [0, 2, 4]\n",
        "seeds = [1959787571, 2085212535]\n",
        "[contention]\n",
        "policies = [\"fcfs\", \"easy-backfill\"]\n",
        "load_pcts = [100, 200]\n",
        "seeds = [915331510]\n",
        "[streams]\n",
        "depths_kib = [16, 256, 0]\n",
        "consumer_pcts = [50, 100]\n",
        "seeds = [954051180]\n",
    );

    /// `misses` split into [`groups`] for `threads` workers, after
    /// checking that the groups cover the misses in order and that no
    /// group mixes workloads or run kinds. Returns each group's size.
    fn group_sizes(misses: &[RunSpec], threads: usize) -> Vec<usize> {
        let builds: Vec<_> = misses.iter().map(RunSpec::builds).collect();
        let groups = groups(&builds, threads);
        let mut next = 0;
        for group in &groups {
            assert_eq!(group.start, next, "groups are consecutive: {groups:?}");
            next = group.end;
            let runs = &misses[group.clone()];
            let first = std::mem::discriminant(&runs[0]);
            assert!(runs.iter().all(|r| std::mem::discriminant(r) == first));
            assert!(runs.iter().all(|r| r.builds() == runs[0].builds()));
            assert!(runs.len() == 1 || runs[0].builds().is_some());
        }
        assert_eq!(next, misses.len(), "groups cover every miss");
        groups.iter().map(Range::len).collect()
    }

    #[test]
    fn each_workload_of_the_benchmark_campaign_is_one_group() {
        let runs = CampaignSpec::from_toml_str(BENCH_CAMPAIGN)
            .unwrap()
            .expand();
        assert_eq!(runs.len(), 82);
        assert_eq!(group_sizes(&runs, 2), [vec![12; 6], vec![1; 10]].concat());
        let builds: Vec<_> = runs.iter().map(RunSpec::builds).collect();
        let ids: Vec<&str> = groups(&builds, 2)[..6]
            .iter()
            .map(|g| builds[g.start].expect("a workload group").0.id())
            .collect();
        assert_eq!(
            ids,
            ["escat-a", "escat-b", "escat-c", "prism-a", "prism-b", "prism-c"]
        );
    }

    #[test]
    fn a_one_workload_campaign_is_split_across_the_workers() {
        let runs = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"one\"\n",
            "scale = \"smoke\"\n",
            "[workloads]\n",
            "ids = [\"escat-b\"]\n",
            "backends = [\"pfs\", \"burst\"]\n",
            "fault_events = [0, 2]\n",
            "seeds = [0, 1, 2, 3]\n",
        ))
        .unwrap()
        .expand();
        assert_eq!(runs.len(), 16);
        assert_eq!(group_sizes(&runs, 2), [8, 8]);
        assert_eq!(group_sizes(&runs, 1), [16]);
    }

    #[test]
    fn cached_hits_leave_the_remaining_misses_grouped() {
        let runs = CampaignSpec::from_toml_str(BENCH_CAMPAIGN)
            .unwrap()
            .expand();
        // Every other run is a cache hit: each workload keeps 6 misses,
        // and the 10 other runs keep 5.
        let misses: Vec<RunSpec> = runs.iter().step_by(2).copied().collect();
        assert_eq!(group_sizes(&misses, 2), [vec![6; 6], vec![1; 5]].concat());
        // A gap inside one workload's runs leaves them one group.
        let mut misses = runs.clone();
        misses.drain(14..22);
        assert_eq!(
            group_sizes(&misses, 2),
            [vec![12, 4, 12, 12, 12, 12], vec![1; 10]].concat()
        );
    }
}
