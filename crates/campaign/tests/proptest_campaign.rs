//! Property tests for the campaign spec and content address:
//!
//! * hashing is invariant under TOML key/section reordering (and
//!   comment/whitespace/integer-spelling noise);
//! * distinct resolved configs never collide in a realistic
//!   population of run specs.

use sioscope::canon::{self, BackendKind, PolicyId, WorkloadId};
use sioscope::experiments::Scale;
use sioscope_campaign::{config_hash, CampaignSpec, RunSpec};
use sioscope_prop::cases;
use sioscope_sim::DetRng;
use std::collections::{BTreeMap, HashMap};

/// The generated axes of a random (valid) campaign.
struct Axes {
    scale: &'static str,
    workloads: Vec<&'static str>,
    backends: Vec<&'static str>,
    fault_events: Vec<u32>,
    seeds: Vec<u64>,
    policies: Vec<&'static str>,
    load_pcts: Vec<u32>,
}

/// The registries' stable ids, in registry order.
fn workload_ids() -> Vec<&'static str> {
    WorkloadId::all().into_iter().map(WorkloadId::id).collect()
}
fn backend_ids() -> Vec<&'static str> {
    BackendKind::all()
        .into_iter()
        .map(BackendKind::id)
        .collect()
}
fn policy_ids() -> Vec<&'static str> {
    PolicyId::all().into_iter().map(PolicyId::id).collect()
}
/// Every scale, in the order its ids are listed.
const SCALES: [Scale; 2] = [Scale::Smoke, Scale::Full];
fn scale_ids() -> [&'static str; 2] {
    SCALES.map(canon::scale_id)
}

/// One of `ids`, uniformly.
fn select<T: Copy>(rng: &mut DetRng, ids: &[T]) -> T {
    ids[rng.range_inclusive(0, ids.len() as u64 - 1) as usize]
}

/// An order-preserving subsequence of `ids` with 1 to `max` members
/// (selection sampling: each id is kept with probability needed /
/// remaining).
fn subsequence(rng: &mut DetRng, ids: &[&'static str], max: usize) -> Vec<&'static str> {
    let mut needed = rng.range_inclusive(1, max as u64);
    let mut picked = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let remaining = (ids.len() - i) as u64;
        if rng.range_inclusive(0, remaining - 1) < needed {
            picked.push(id);
            needed -= 1;
        }
    }
    picked
}

/// 1 to 3 values in `[lo, hi]`.
fn few(rng: &mut DetRng, lo: u64, hi: u64) -> Vec<u64> {
    let len = rng.range_inclusive(1, 3);
    (0..len).map(|_| rng.range_inclusive(lo, hi)).collect()
}

fn axes(rng: &mut DetRng) -> Axes {
    Axes {
        scale: select(rng, &scale_ids()),
        workloads: subsequence(rng, &workload_ids(), 4),
        backends: subsequence(rng, &backend_ids(), 3),
        fault_events: few(rng, 0, 8).into_iter().map(|v| v as u32).collect(),
        // TOML integers are i64, so spec-file seeds top out there.
        seeds: few(rng, 0, i64::MAX as u64),
        policies: subsequence(rng, &policy_ids(), 2),
        load_pcts: few(rng, 1, 400).into_iter().map(|v| v as u32).collect(),
    }
}

fn quoted(ids: &[&str]) -> String {
    ids.iter()
        .map(|id| format!("\"{id}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

fn ints<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn hex(values: &[u64]) -> String {
    values
        .iter()
        .map(|v| format!("0x{v:X}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render the same campaign two ways: canonical-order decimal TOML,
/// and reversed-section/reversed-key TOML with hex seeds, comments and
/// noise whitespace.
fn render_two_ways(a: &Axes) -> (String, String) {
    let tidy = format!(
        "[campaign]\nname = \"prop\"\nscale = \"{}\"\n\
         [workloads]\nids = [{}]\nbackends = [{}]\nfault_events = [{}]\nseeds = [{}]\n\
         [contention]\npolicies = [{}]\nload_pcts = [{}]\n",
        a.scale,
        quoted(&a.workloads),
        quoted(&a.backends),
        ints(&a.fault_events),
        ints(&a.seeds),
        quoted(&a.policies),
        ints(&a.load_pcts),
    );
    let scrambled = format!(
        "# same campaign, shuffled\n\
         [contention]\n  load_pcts = [ {} ]\n  policies = [{}]\n\n\
         [workloads]\nseeds = [{}]   # hex spellings\n\
         fault_events = [\n  {}\n]\nbackends = [{}]\nids = [{}]\n\n\
         [campaign]\nscale = '{}'\nname = \"prop\"\n",
        ints(&a.load_pcts),
        quoted(&a.policies),
        hex(&a.seeds),
        ints(&a.fault_events),
        quoted(&a.backends),
        quoted(&a.workloads),
        a.scale,
    );
    (tidy, scrambled)
}

/// Key order, section order, comments, whitespace and integer
/// spelling must be invisible to the content address.
#[test]
fn hashing_is_invariant_under_toml_reordering() {
    cases("hashing_is_invariant_under_toml_reordering", 256, |rng| {
        let (tidy, scrambled) = render_two_ways(&axes(rng));
        let spec_a = CampaignSpec::from_toml_str(&tidy).unwrap();
        let spec_b = CampaignSpec::from_toml_str(&scrambled).unwrap();
        assert_eq!(&spec_a, &spec_b);
        let hashes = |s: &CampaignSpec| -> Vec<String> {
            s.expand().iter().map(|r| config_hash(&r.canon())).collect()
        };
        assert_eq!(hashes(&spec_a), hashes(&spec_b));
    });
}

/// Distinct resolved configs never collide: across a random population
/// of run specs, equal hashes imply equal canon lines.
#[test]
fn distinct_configs_never_collide() {
    cases("distinct_configs_never_collide", 256, |rng| {
        let workload_runs = rng.range_inclusive(0, 63);
        let mut runs: Vec<RunSpec> = (0..workload_runs)
            .map(|_| RunSpec::Workload {
                id: select(rng, &WorkloadId::all()),
                backend: select(rng, &BackendKind::all()),
                scale: select(rng, &SCALES),
                fault_events: rng.range_inclusive(0, 64) as u32,
                seed: rng.range_inclusive(0, u64::MAX),
            })
            .collect();
        let contention_runs = rng.range_inclusive(0, 63);
        runs.extend((0..contention_runs).map(|_| RunSpec::Contention {
            policy: select(rng, &PolicyId::all()),
            scale: select(rng, &SCALES),
            load_pct: rng.range_inclusive(1, 400) as u32,
            seed: rng.range_inclusive(0, u64::MAX),
        }));
        let mut seen: HashMap<String, String> = HashMap::new();
        for run in runs {
            let canon = run.canon();
            let hash = config_hash(&canon);
            if let Some(previous) = seen.insert(hash.clone(), canon.clone()) {
                assert_eq!(
                    previous, canon,
                    "hash collision between distinct configs at {hash}"
                );
            }
        }
    });
}

/// Expansion is a pure function of the parsed spec: expanding twice
/// gives identical run lists with unique canon lines.
#[test]
fn expansion_is_stable_and_duplicate_free() {
    cases("expansion_is_stable_and_duplicate_free", 256, |rng| {
        let (tidy, _) = render_two_ways(&axes(rng));
        let spec = CampaignSpec::from_toml_str(&tidy).unwrap();
        let first = spec.expand();
        assert_eq!(&first, &spec.expand());
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for run in &first {
            *counts.entry(run.canon()).or_default() += 1;
        }
        assert!(
            counts.values().all(|&c| c == 1),
            "duplicate canon in expansion"
        );
    });
}
