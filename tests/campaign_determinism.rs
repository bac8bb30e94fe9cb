//! The campaign engine's headline guarantee, end to end: a cold
//! campaign, a fully cached re-run, and a single-worker run of the
//! same spec produce **bit-identical** aggregated report bytes — the
//! cache and the thread pool are performance details, not inputs.

use sioscope_campaign::{run_campaign, CampaignSpec, ExecOptions};
use std::path::{Path, PathBuf};

/// Small but cross-kind: workload x seed plus a contention run.
const SPEC: &str = r#"
[campaign]
name = "determinism-guard"
scale = "smoke"

[workloads]
ids = ["escat-b"]
fault_events = [0, 2]
seeds = [0]

[contention]
policies = ["fcfs"]
"#;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sioscope-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize, cache_dir: &Path) -> ExecOptions {
    ExecOptions {
        jobs,
        no_cache: false,
        cache_dir: cache_dir.to_path_buf(),
    }
}

#[test]
fn cold_cached_and_single_worker_reports_are_bit_identical() {
    let dir = fresh_dir("tri");
    let spec = CampaignSpec::from_toml_str(SPEC).unwrap();

    let cold = run_campaign(&spec, &opts(4, &dir)).unwrap();
    assert_eq!(cold.hits(), 0, "first pass must be all misses");

    let cached = run_campaign(&spec, &opts(4, &dir)).unwrap();
    assert_eq!(
        cached.hits(),
        cached.runs.len(),
        "second pass must be served entirely from the cache"
    );

    let serial_dir = fresh_dir("serial");
    let serial = run_campaign(&spec, &opts(1, &serial_dir)).unwrap();
    assert_eq!(serial.hits(), 0);

    let no_cache = run_campaign(
        &spec,
        &ExecOptions {
            jobs: 2,
            no_cache: true,
            cache_dir: fresh_dir("bypass"),
        },
    )
    .unwrap();

    assert_eq!(cold.render(), cached.render(), "cold vs cached");
    assert_eq!(cold.render(), serial.render(), "parallel vs --jobs 1");
    assert_eq!(cold.render(), no_cache.render(), "cached vs --no-cache");
    assert!(
        cold.runs.iter().all(|r| r.entry.is_ok()),
        "{}",
        cold.render()
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&serial_dir).ok();
}

/// The repository's smoke campaign: every run kind and axis.
const SMOKE_SPEC: &str = include_str!("../examples/smoke.campaign.toml");

/// The cold smoke campaign's report bytes equal the committed snapshot,
/// so a change that moves any run's status, metrics, order or content
/// address fails here, across commits. A missing snapshot fails too;
/// `UPDATE_GOLDEN=1` (re)writes it, for an intended output change only.
#[test]
fn smoke_campaign_report_matches_its_golden_snapshot() {
    let spec = CampaignSpec::from_toml_str(SMOKE_SPEC).unwrap();
    let dir = fresh_dir("golden");
    let cold = run_campaign(&spec, &opts(2, &dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cold.hits(), 0, "a fresh cache directory is all misses");
    let produced = cold.render();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign-smoke.json");
    if matches!(
        std::env::var("UPDATE_GOLDEN").as_deref(),
        Ok("1") | Ok("true")
    ) {
        std::fs::write(&path, &produced).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{}: snapshot missing; generate it with UPDATE_GOLDEN=1 and commit it",
            path.display()
        )
    });
    let first_diff = expected
        .lines()
        .zip(produced.lines())
        .position(|(e, p)| e != p);
    assert!(
        expected == produced,
        "{}: snapshot mismatch (first differing line: {:?}); if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display(),
        first_diff.map(|i| i + 1)
    );
}

#[test]
fn corrupted_cache_entries_are_recomputed_not_trusted() {
    let dir = fresh_dir("corrupt");
    let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
    let cold = run_campaign(&spec, &opts(2, &dir)).unwrap();

    // Truncate one entry and hand-tamper another: both must read as
    // misses and be recomputed to the same bytes.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cold.runs.len());
    let truncated = &entries[0];
    let text = std::fs::read_to_string(truncated).unwrap();
    std::fs::write(truncated, &text[..text.len() / 3]).unwrap();
    let tampered = &entries[1];
    let text = std::fs::read_to_string(tampered).unwrap();
    std::fs::write(tampered, text.replace("\"ok\"", "\"failed: edited\"")).unwrap();

    let healed = run_campaign(&spec, &opts(2, &dir)).unwrap();
    assert_eq!(
        healed.hits(),
        cold.runs.len() - 1,
        "only the truncated entry recomputes; the tampered status rides a valid entry"
    );
    // The tampered-but-valid entry *is* trusted (the cache is not a
    // tamper-evident store), so statuses can differ — but recomputing
    // the truncated entry must reproduce the original bytes for it.
    let truncated_hash = truncated.file_stem().unwrap().to_str().unwrap();
    let cold_entry = cold.runs.iter().find(|r| r.hash == truncated_hash).unwrap();
    let healed_entry = healed
        .runs
        .iter()
        .find(|r| r.hash == truncated_hash)
        .unwrap();
    assert_eq!(cold_entry.entry, healed_entry.entry);
    assert!(!healed_entry.cache_hit);

    std::fs::remove_dir_all(&dir).ok();
}

/// The SPEC matrix widened across all three storage tiers. The fault
/// axis is legal on every tier: each backend draws its own tier's
/// fault vocabulary (I/O-node faults on the pfs, metadata-shard
/// outages and degraded service on the object store, drain stalls
/// and burst-node crashes on the burst buffer) from the same seed.
const MIXED_BACKEND_SPEC: &str = r#"
[campaign]
name = "backend-tiers"
scale = "smoke"

[workloads]
ids = ["escat-b"]
backends = ["pfs", "object", "burst"]
fault_events = [0, 2]
seeds = [0]
"#;

#[test]
fn backend_tiers_hash_distinctly_and_cache_cold_equals_cached() {
    let spec = CampaignSpec::from_toml_str(MIXED_BACKEND_SPEC).unwrap();
    let runs = spec.expand();
    assert_eq!(runs.len(), 6, "fault-free and faulted runs per tier");

    // The backend is part of the canonical line, so each tier gets its
    // own content address — a cached pfs result can never be served
    // for an object or burst run.
    let mut hashes: Vec<String> = runs
        .iter()
        .map(|r| sioscope_campaign::config_hash(&r.canon()))
        .collect();
    hashes.sort();
    hashes.dedup();
    assert_eq!(hashes.len(), 6, "tiers must not share content addresses");

    let dir = fresh_dir("tiers");
    let cold = run_campaign(&spec, &opts(2, &dir)).unwrap();
    assert_eq!(cold.hits(), 0);
    assert!(
        cold.runs.iter().all(|r| r.entry.is_ok()),
        "{}",
        cold.render()
    );
    // Tiers produce genuinely different physics: the three fault-free
    // runs all time differently.
    let execs: std::collections::BTreeSet<u64> = runs
        .iter()
        .zip(&cold.runs)
        .filter(|(spec_run, _)| spec_run.canon().contains("faults=0"))
        .map(|(_, r)| r.entry.metrics["exec_time_ns"])
        .collect();
    assert_eq!(execs.len(), 3, "each tier must time differently");
    // Faulted runs surface their resilience ledger. The pfs tier's
    // metric set is pinned to the pre-backend path (its content
    // addresses must stay valid), so the counter appears on the
    // modern tiers only.
    for (spec_run, r) in runs.iter().zip(&cold.runs) {
        if spec_run.canon().contains("faults=2") {
            assert!(
                spec_run.canon().contains("backend=pfs")
                    || r.entry.metrics.contains_key("resilience_actions"),
                "faulted {} run must report resilience actions",
                spec_run.canon()
            );
            assert!(r.entry.metrics["fault_transitions"] > 0);
        }
        if spec_run.canon().contains("backend=burst") && spec_run.canon().contains("faults=2") {
            assert!(
                r.entry.metrics.contains_key("bytes_lost"),
                "faulted burst run must expose the loss ledger"
            );
        }
    }

    let cached = run_campaign(&spec, &opts(2, &dir)).unwrap();
    assert_eq!(cached.hits(), cached.runs.len());
    assert_eq!(cold.render(), cached.render(), "cold vs cached");

    std::fs::remove_dir_all(&dir).ok();
}

/// The streaming axis: queue depth × consumer speed × seed, riding
/// next to a registry experiment so the cross-kind ordering is
/// exercised too.
const STREAMS_SPEC: &str = r#"
[campaign]
name = "staging-streams"
scale = "smoke"

[registry]
experiments = ["stream-vs-file"]

[streams]
depths_kib = [16, 256, 0]
consumer_pcts = [50, 100]
seeds = [0, 7]
"#;

#[test]
fn streams_axis_hashes_distinctly_and_cache_cold_equals_cached() {
    let spec = CampaignSpec::from_toml_str(STREAMS_SPEC).unwrap();
    let runs = spec.expand();
    assert_eq!(
        runs.len(),
        1 + 3 * 2 * 2,
        "experiment + depth x speed x seed"
    );

    // Every stream point owns a distinct content address.
    let mut hashes: Vec<String> = runs
        .iter()
        .map(|r| sioscope_campaign::config_hash(&r.canon()))
        .collect();
    hashes.sort();
    hashes.dedup();
    assert_eq!(hashes.len(), runs.len());

    let dir = fresh_dir("streams");
    let cold = run_campaign(&spec, &opts(2, &dir)).unwrap();
    assert_eq!(cold.hits(), 0);
    assert!(
        cold.runs.iter().all(|r| r.entry.is_ok()),
        "{}",
        cold.render()
    );
    for (spec_run, r) in runs.iter().zip(&cold.runs) {
        let canon = spec_run.canon();
        if !canon.contains("kind=stream") {
            continue;
        }
        assert!(r.entry.metrics["pipeline_latency_ns"] > 0, "{canon}");
        assert!(r.entry.metrics["chunks"] > 0, "{canon}");
        // Unbounded queues never stall; the undersized depth at the
        // throttled consumer must.
        if canon.contains("depth=0;") {
            assert_eq!(r.entry.metrics["producer_stall_ns"], 0, "{canon}");
        }
        if canon.contains("depth=16;consumer=50;") && canon.ends_with("seed=0") {
            assert!(r.entry.metrics["producer_stall_ns"] > 0, "{canon}");
        }
    }

    let cached = run_campaign(&spec, &opts(2, &dir)).unwrap();
    assert_eq!(cached.hits(), cached.runs.len());
    assert_eq!(cold.render(), cached.render(), "cold vs cached");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streams_axis_is_toml_order_independent() {
    let reordered = r#"
[streams]
seeds = [0x7, 0]
consumer_pcts = [50, 100]
depths_kib = [16, 0x100, 0]

[registry]
experiments = ["stream-vs-file"]

[campaign]
scale = "smoke"
name = "staging-streams"
"#;
    let a = CampaignSpec::from_toml_str(STREAMS_SPEC).unwrap();
    let b = CampaignSpec::from_toml_str(reordered).unwrap();
    let hashes = |spec: &CampaignSpec| {
        let mut h: Vec<String> = spec
            .expand()
            .iter()
            .map(|r| sioscope_campaign::config_hash(&r.canon()))
            .collect();
        h.sort();
        h
    };
    assert_eq!(hashes(&a), hashes(&b));
}

#[test]
fn backend_axis_is_toml_order_independent() {
    let reordered = r#"
[workloads]
seeds = [0x0]
fault_events = [0, 2]
backends = ["pfs", "object", "burst"]
ids = ["escat-b"]

[campaign]
scale = "smoke"
name = "backend-tiers"
"#;
    let a = CampaignSpec::from_toml_str(MIXED_BACKEND_SPEC).unwrap();
    let b = CampaignSpec::from_toml_str(reordered).unwrap();
    assert_eq!(a, b);
    let canons =
        |spec: &CampaignSpec| -> Vec<String> { spec.expand().iter().map(|r| r.canon()).collect() };
    assert_eq!(canons(&a), canons(&b));
}

#[test]
fn spec_reordering_cannot_move_a_content_address() {
    let reordered = r#"
[contention]
policies = ["fcfs"]

[workloads]
seeds = [0x0]
fault_events = [2, 0]
ids = ["escat-b"]

[campaign]
scale = "smoke"
name = "determinism-guard"
"#;
    let a = CampaignSpec::from_toml_str(SPEC).unwrap();
    let b = CampaignSpec::from_toml_str(reordered).unwrap();
    // fault_events listed in a different order: same *set* of runs,
    // expansion order follows the listing for axes, so compare the
    // canonical sets and the per-run hashes.
    let hashes = |spec: &CampaignSpec| {
        let mut h: Vec<String> = spec
            .expand()
            .iter()
            .map(|r| sioscope_campaign::config_hash(&r.canon()))
            .collect();
        h.sort();
        h
    };
    assert_eq!(hashes(&a), hashes(&b));
}
