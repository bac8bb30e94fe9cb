//! The aggregated campaign report.
//!
//! Two renderings with a deliberate firewall between them:
//!
//! * [`CampaignReport::render`] — the *deterministic* JSON artifact.
//!   It contains only run identities, statuses, and integer metrics,
//!   in canonical order. A cold campaign, a fully cached re-run, and
//!   a `--jobs 1` run of the same spec all produce bit-identical
//!   bytes; CI diffs them directly.
//! * [`CampaignReport::human_summary`] — the terminal summary, which
//!   is where everything nondeterministic lives: cache hit/miss
//!   counts, wall-clock time, worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cache::CacheEntry;
use crate::json::Json;
use crate::spec::RunSpec;

/// Schema tag for the aggregated report JSON.
pub(crate) const REPORT_SCHEMA: &str = "sioscope-campaign-report/1";

/// One run's contribution to the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// What was run.
    pub spec: RunSpec,
    /// Its content address.
    pub hash: String,
    /// The (possibly cached) result.
    pub entry: CacheEntry,
    /// Whether the result came from the cache. Summary-only.
    pub cache_hit: bool,
    /// Wall-clock nanoseconds for this run (0 on a hit). Summary-only.
    pub wall_ns: u64,
}

/// The whole campaign, aggregated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// Scale id from the spec.
    pub scale: String,
    /// Per-run reports in the deterministic expansion order.
    pub runs: Vec<RunReport>,
}

impl CampaignReport {
    /// Runs whose status is not `"ok"`.
    pub fn failed(&self) -> impl Iterator<Item = &RunReport> {
        self.runs.iter().filter(|r| !r.entry.is_ok())
    }

    /// Cache hits across the campaign. Summary-only: never part of
    /// the deterministic JSON.
    pub fn hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cache_hit).count()
    }

    /// Metric sums across all `ok` runs, keyed by metric name.
    /// Saturating: a campaign report must aggregate, not overflow.
    pub(crate) fn totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for run in self.runs.iter().filter(|r| r.entry.is_ok()) {
            for (key, value) in &run.entry.metrics {
                let slot = totals.entry(key.clone()).or_default();
                *slot = slot.saturating_add(*value);
            }
        }
        totals
    }

    /// The deterministic report as JSON.
    pub(crate) fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let mut obj = BTreeMap::new();
                obj.insert("canon".to_string(), Json::Str(run.entry.canon.clone()));
                obj.insert("hash".to_string(), Json::Str(run.hash.clone()));
                obj.insert("status".to_string(), Json::Str(run.entry.status.clone()));
                let metrics = run
                    .entry
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect();
                obj.insert("metrics".to_string(), Json::Object(metrics));
                Json::Object(obj)
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(k, v)| (k, Json::UInt(v)))
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Json::Str(REPORT_SCHEMA.to_string()));
        obj.insert("campaign".to_string(), Json::Str(self.name.clone()));
        obj.insert("scale".to_string(), Json::Str(self.scale.clone()));
        obj.insert("total_runs".to_string(), Json::UInt(self.runs.len() as u64));
        obj.insert(
            "failed_runs".to_string(),
            Json::UInt(self.failed().count() as u64),
        );
        obj.insert("totals".to_string(), Json::Object(totals));
        obj.insert("runs".to_string(), Json::Array(runs));
        Json::Object(obj)
    }

    /// The deterministic report as pretty JSON text (trailing
    /// newline included) — the bytes the determinism guard compares.
    pub fn render(&self) -> String {
        let mut out = self.to_json().render_pretty();
        out.push('\n');
        out
    }

    /// The human terminal summary: statuses plus the nondeterministic
    /// accounting (hits, misses, wall time) that is kept *out* of the
    /// JSON artifact.
    pub fn human_summary(&self, wall_ns: u64, jobs: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "campaign `{}` ({} scale)", self.name, self.scale);
        for run in &self.runs {
            let source = if run.cache_hit { "cache " } else { "ran   " };
            let _ = writeln!(
                out,
                "  [{source}] {:<52} {}",
                run.spec.label(),
                run.entry.status
            );
        }
        let failed = self.failed().count();
        let _ = writeln!(
            out,
            "{} runs, {} ok, {failed} failed; {} cache hits, {} misses; {:.3}s wall on {jobs} worker{}",
            self.runs.len(),
            self.runs.len() - failed,
            self.hits(),
            self.runs.len() - self.hits(),
            wall_ns as f64 / 1e9,
            if jobs == 1 { "" } else { "s" },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, status: &str, hit: bool, wall_ns: u64) -> RunReport {
        let spec = RunSpec::Workload {
            id: "escat-b".into(),
            backend: "pfs".into(),
            scale: "smoke".into(),
            fault_events: 0,
            seed,
        };
        let canon = spec.canon();
        RunReport {
            spec,
            hash: format!("{seed:032x}"),
            entry: CacheEntry {
                hash: format!("{seed:032x}"),
                canon,
                status: status.to_string(),
                metrics: BTreeMap::from([
                    ("events".to_string(), 10 + seed),
                    ("exec_time_ns".to_string(), 1_000 * (seed + 1)),
                ]),
            },
            cache_hit: hit,
            wall_ns,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            name: "smoke".into(),
            scale: "smoke".into(),
            runs: vec![
                run(0, "ok", false, 5_000),
                run(1, "ok", true, 0),
                run(2, "failed: checks", false, 7_000),
            ],
        }
    }

    #[test]
    fn totals_sum_only_ok_runs() {
        let totals = report().totals();
        assert_eq!(totals["events"], 10 + 11);
        assert_eq!(totals["exec_time_ns"], 1_000 + 2_000);
    }

    #[test]
    fn json_is_independent_of_cache_and_wall_state() {
        let cold = report();
        let mut cached = report();
        for r in &mut cached.runs {
            r.cache_hit = true;
            r.wall_ns = 0;
        }
        assert_eq!(cold.render(), cached.render());
        assert!(
            !cold.render().contains("wall"),
            "wall time leaked into JSON"
        );
        assert!(
            !cold.render().contains("cache"),
            "hit/miss leaked into JSON"
        );
    }

    #[test]
    fn json_shape_round_trips() {
        let rendered = report().render();
        let parsed = Json::parse(&rendered).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj["schema"].as_str(), Some(REPORT_SCHEMA));
        assert_eq!(obj["total_runs"].as_u64(), Some(3));
        assert_eq!(obj["failed_runs"].as_u64(), Some(1));
        // Canonical emission: re-rendering the parsed doc is identity.
        let mut again = parsed.render_pretty();
        again.push('\n');
        assert_eq!(again, rendered);
    }

    #[test]
    fn human_summary_carries_the_nondeterministic_parts() {
        let s = report().human_summary(2_000_000_000, 4);
        assert!(s.contains("1 cache hits, 2 misses"), "{s}");
        assert!(s.contains("2.000s wall on 4 workers"), "{s}");
        assert!(s.contains("3 runs, 2 ok, 1 failed"), "{s}");
        assert!(s.contains("failed: checks"), "{s}");
    }
}
