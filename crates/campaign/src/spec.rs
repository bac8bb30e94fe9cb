//! The campaign spec: what to run, as data.
//!
//! A `campaign.toml` names cross-product *matrices* — workloads ×
//! fault intensities × seeds, scheduler policies × load factors ×
//! seeds — plus flat lists of registry experiment/sweep ids.
//! [`CampaignSpec::expand`] turns those into a deterministic,
//! deduplicated list of [`RunSpec`]s, each of which canonicalizes to
//! a single line ([`RunSpec::canon`]) that the content address is
//! computed over.
//!
//! Everything here is resolved *values*, never source text: every id
//! is resolved against its registry once, at parse, so an unknown id
//! of any kind is a [`SpecError`]. Two specs that differ only in TOML
//! key order, comments, whitespace, or integer spelling (`0x10` vs
//! `16`) expand to identical run lists and therefore identical content
//! addresses.

use std::collections::BTreeSet;
use std::fmt;

pub use sioscope::canon::RunSpec;
use sioscope::canon::{self, BackendKind, PolicyId, WorkloadId};
use sioscope::experiments::{Experiment, Scale};
use sioscope::sweeps::SweepId;

use crate::minitoml::{self, TomlTable, TomlValue};

/// A spec-level failure: bad TOML, an unknown id, an out-of-range
/// knob. Maps to exit code 2 at the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// A parsed, validated campaign: the matrices, not yet the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (lowercase alphanumerics, `-`, `_`).
    pub name: String,
    /// Scale applied to every run.
    pub scale: Scale,
    /// Workload matrix.
    pub workload_ids: Vec<WorkloadId>,
    /// Storage tiers crossed with every workload (defaults to just
    /// `pfs`).
    pub backends: Vec<BackendKind>,
    /// Fault-event counts crossed with every workload.
    pub fault_events: Vec<u32>,
    /// Seeds crossed with every workload.
    pub workload_seeds: Vec<u64>,
    /// Contention policies.
    pub policies: Vec<PolicyId>,
    /// Load factors in percent crossed with every policy.
    pub load_pcts: Vec<u32>,
    /// Seeds crossed with every policy × load.
    pub contention_seeds: Vec<u64>,
    /// Registry experiments.
    pub experiments: Vec<Experiment>,
    /// Registry sweeps.
    pub sweeps: Vec<SweepId>,
    /// Staging queue depths in KiB crossed with every consumer speed
    /// (`0` = unbounded).
    pub stream_depths_kib: Vec<u32>,
    /// Consumer analysis speeds in percent crossed with every depth.
    pub stream_consumer_pcts: Vec<u32>,
    /// Seeds crossed with every depth × consumer speed.
    pub stream_seeds: Vec<u64>,
}

impl CampaignSpec {
    /// Parse and validate a `campaign.toml` document.
    pub fn from_toml_str(text: &str) -> Result<CampaignSpec, SpecError> {
        let doc = minitoml::parse(text).map_err(|e| err(format!("campaign spec: {e}")))?;
        if let Some(key) = doc.values.keys().next() {
            return Err(err(format!(
                "campaign spec: top-level key `{key}` outside any [table]"
            )));
        }
        for table in doc.tables.keys() {
            if !matches!(
                table.as_str(),
                "campaign" | "workloads" | "contention" | "registry" | "streams"
            ) {
                return Err(err(format!("campaign spec: unknown table `[{table}]`")));
            }
        }

        let campaign = doc
            .table("campaign")
            .ok_or_else(|| err("campaign spec: missing [campaign] table"))?;
        reject_unknown(campaign, "campaign", &["name", "scale"])?;
        let name = require_str(campaign, "campaign", "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(err(format!(
                "campaign.name `{name}` must be non-empty lowercase alphanumerics, `-` or `_`"
            )));
        }
        let scale = resolve(
            "campaign.scale",
            &require_str(campaign, "campaign", "scale")?,
            &[Scale::Smoke, Scale::Full],
            canon::scale_id,
        )?;

        let mut spec = CampaignSpec {
            name,
            scale,
            workload_ids: Vec::new(),
            backends: Vec::new(),
            fault_events: Vec::new(),
            workload_seeds: Vec::new(),
            policies: Vec::new(),
            load_pcts: Vec::new(),
            contention_seeds: Vec::new(),
            experiments: Vec::new(),
            sweeps: Vec::new(),
            stream_depths_kib: Vec::new(),
            stream_consumer_pcts: Vec::new(),
            stream_seeds: Vec::new(),
        };

        if let Some(w) = doc.table("workloads") {
            reject_unknown(
                w,
                "workloads",
                &["ids", "backends", "fault_events", "seeds"],
            )?;
            spec.workload_ids = id_array(w, "workloads", "ids", WorkloadId::all(), WorkloadId::id)?
                .ok_or_else(|| err("workloads table present but `ids` missing"))?;
            spec.backends = id_array(
                w,
                "workloads",
                "backends",
                BackendKind::all(),
                BackendKind::id,
            )?
            .unwrap_or_else(|| vec![BackendKind::Pfs]);
            spec.fault_events =
                u32_array(w, "workloads", "fault_events", 64)?.unwrap_or_else(|| vec![0]);
            spec.workload_seeds = u64_array(w, "workloads", "seeds")?.unwrap_or_else(|| vec![0]);
        }

        if let Some(c) = doc.table("contention") {
            reject_unknown(c, "contention", &["policies", "load_pcts", "seeds"])?;
            spec.policies =
                id_array(c, "contention", "policies", PolicyId::all(), PolicyId::id)?
                    .ok_or_else(|| err("contention table present but `policies` missing"))?;
            spec.load_pcts =
                u32_array(c, "contention", "load_pcts", 400)?.unwrap_or_else(|| vec![100]);
            for pct in &spec.load_pcts {
                if *pct == 0 {
                    return Err(err("contention.load_pcts entries must be >= 1"));
                }
            }
            spec.contention_seeds = u64_array(c, "contention", "seeds")?.unwrap_or_else(|| vec![0]);
        }

        if let Some(r) = doc.table("registry") {
            reject_unknown(r, "registry", &["experiments", "sweeps"])?;
            spec.experiments = id_array(
                r,
                "registry",
                "experiments",
                Experiment::all(),
                Experiment::id,
            )?
            .unwrap_or_default();
            spec.sweeps =
                id_array(r, "registry", "sweeps", SweepId::all(), SweepId::id)?.unwrap_or_default();
        }

        if let Some(s) = doc.table("streams") {
            reject_unknown(s, "streams", &["depths_kib", "consumer_pcts", "seeds"])?;
            spec.stream_depths_kib = u32_array(s, "streams", "depths_kib", 1_048_576)?
                .ok_or_else(|| err("streams table present but `depths_kib` missing"))?;
            spec.stream_consumer_pcts =
                u32_array(s, "streams", "consumer_pcts", 10_000)?.unwrap_or_else(|| vec![100]);
            for pct in &spec.stream_consumer_pcts {
                if *pct == 0 {
                    return Err(err("streams.consumer_pcts entries must be >= 1"));
                }
            }
            spec.stream_seeds = u64_array(s, "streams", "seeds")?.unwrap_or_else(|| vec![0]);
        }

        if spec.workload_ids.is_empty()
            && spec.policies.is_empty()
            && spec.experiments.is_empty()
            && spec.sweeps.is_empty()
            && spec.stream_depths_kib.is_empty()
        {
            return Err(err(
                "campaign spec declares no runs: add a [workloads], [contention], [registry] or [streams] table",
            ));
        }
        Ok(spec)
    }

    /// Expand the matrices into the deterministic run list: the full
    /// cross-product of each section, deduplicated by canonical
    /// serialization (listing a seed twice is harmless), in a fixed
    /// order that no thread count or cache state can perturb.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut runs = Vec::new();
        let mut push = |runs: &mut Vec<RunSpec>, run: RunSpec| {
            if seen.insert(run.canon()) {
                runs.push(run);
            }
        };
        let scale = self.scale;
        for &id in &self.workload_ids {
            for &backend in &self.backends {
                for &fault_events in &self.fault_events {
                    for &seed in &self.workload_seeds {
                        push(
                            &mut runs,
                            RunSpec::Workload {
                                id,
                                backend,
                                scale,
                                fault_events,
                                seed,
                            },
                        );
                    }
                }
            }
        }
        for &policy in &self.policies {
            for &load_pct in &self.load_pcts {
                for &seed in &self.contention_seeds {
                    push(
                        &mut runs,
                        RunSpec::Contention {
                            policy,
                            scale,
                            load_pct,
                            seed,
                        },
                    );
                }
            }
        }
        for &id in &self.experiments {
            push(&mut runs, RunSpec::Experiment { id, scale });
        }
        for &id in &self.sweeps {
            push(&mut runs, RunSpec::Sweep { id, scale });
        }
        for &depth_kib in &self.stream_depths_kib {
            for &consumer_pct in &self.stream_consumer_pcts {
                for &seed in &self.stream_seeds {
                    push(
                        &mut runs,
                        RunSpec::Stream {
                            depth_kib,
                            consumer_pct,
                            scale,
                            seed,
                        },
                    );
                }
            }
        }
        runs
    }
}

/// The member of registry `all` whose stable id is `id`, or an error
/// naming `field`, the id and every valid id in registry order.
fn resolve<T: Copy>(
    field: &str,
    id: &str,
    all: &[T],
    id_of: fn(T) -> &'static str,
) -> Result<T, SpecError> {
    all.iter()
        .copied()
        .find(|&t| id_of(t) == id)
        .ok_or_else(|| {
            let valid: Vec<&str> = all.iter().copied().map(id_of).collect();
            err(format!(
                "{field}: unknown id `{id}` (expected one of: {})",
                valid.join(", ")
            ))
        })
}

/// `tname.key` as a string array, each entry resolved in registry
/// `all`; `None` when the key is absent.
fn id_array<T: Copy>(
    table: &TomlTable,
    tname: &str,
    key: &str,
    all: Vec<T>,
    id_of: fn(T) -> &'static str,
) -> Result<Option<Vec<T>>, SpecError> {
    let Some(ids) = str_array(table, tname, key)? else {
        return Ok(None);
    };
    let field = format!("{tname}.{key}");
    ids.iter()
        .map(|id| resolve(&field, id, &all, id_of))
        .collect::<Result<_, _>>()
        .map(Some)
}

fn reject_unknown(table: &TomlTable, name: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for key in table.values.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(err(format!(
                "[{name}]: unknown key `{key}` (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    if let Some(sub) = table.tables.keys().next() {
        return Err(err(format!("[{name}]: unexpected sub-table `{sub}`")));
    }
    Ok(())
}

fn require_str(table: &TomlTable, tname: &str, key: &str) -> Result<String, SpecError> {
    match table.value(key) {
        Some(TomlValue::Str(s)) => Ok(s.clone()),
        Some(_) => Err(err(format!("{tname}.{key} must be a string"))),
        None => Err(err(format!("{tname}.{key} is required"))),
    }
}

fn str_array(table: &TomlTable, tname: &str, key: &str) -> Result<Option<Vec<String>>, SpecError> {
    match table.value(key) {
        None => Ok(None),
        Some(TomlValue::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    TomlValue::Str(s) => out.push(s.clone()),
                    _ => return Err(err(format!("{tname}.{key} must contain only strings"))),
                }
            }
            if out.is_empty() {
                return Err(err(format!("{tname}.{key} must not be empty")));
            }
            Ok(Some(out))
        }
        Some(_) => Err(err(format!("{tname}.{key} must be an array of strings"))),
    }
}

fn int_array(table: &TomlTable, tname: &str, key: &str) -> Result<Option<Vec<i64>>, SpecError> {
    match table.value(key) {
        None => Ok(None),
        Some(TomlValue::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    TomlValue::Int(n) => out.push(*n),
                    _ => return Err(err(format!("{tname}.{key} must contain only integers"))),
                }
            }
            if out.is_empty() {
                return Err(err(format!("{tname}.{key} must not be empty")));
            }
            Ok(Some(out))
        }
        Some(_) => Err(err(format!("{tname}.{key} must be an array of integers"))),
    }
}

fn u32_array(
    table: &TomlTable,
    tname: &str,
    key: &str,
    max: u32,
) -> Result<Option<Vec<u32>>, SpecError> {
    let Some(raw) = int_array(table, tname, key)? else {
        return Ok(None);
    };
    let mut out = Vec::with_capacity(raw.len());
    for n in raw {
        if n < 0 || n > i64::from(max) {
            return Err(err(format!("{tname}.{key}: `{n}` out of range 0..={max}")));
        }
        out.push(n as u32);
    }
    Ok(Some(out))
}

fn u64_array(table: &TomlTable, tname: &str, key: &str) -> Result<Option<Vec<u64>>, SpecError> {
    let Some(raw) = int_array(table, tname, key)? else {
        return Ok(None);
    };
    let mut out = Vec::with_capacity(raw.len());
    for n in raw {
        if n < 0 {
            return Err(err(format!("{tname}.{key}: `{n}` must be non-negative")));
        }
        out.push(n as u64);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = concat!(
        "[campaign]\n",
        "name = \"smoke\"\n",
        "scale = \"smoke\"\n",
        "[workloads]\n",
        "ids = [\"escat-b\", \"prism-a\"]\n",
        "fault_events = [0, 2]\n",
        "seeds = [0, 7]\n",
        "[contention]\n",
        "policies = [\"fcfs\", \"easy-backfill\"]\n",
        "load_pcts = [100, 150]\n",
        "[registry]\n",
        "experiments = [\"escat-fig3\"]\n",
        "sweeps = [\"stripe_unit\"]\n",
    );

    #[test]
    fn expands_the_full_cross_product_in_order() {
        let spec = CampaignSpec::from_toml_str(SMOKE).unwrap();
        let runs = spec.expand();
        // 2*2*2 workload + 2*2*1 contention + 1 experiment + 1 sweep.
        assert_eq!(runs.len(), 8 + 4 + 1 + 1);
        assert_eq!(
            runs[0].canon(),
            "v=2;kind=workload;id=escat-b;backend=pfs;scale=smoke;faults=0;seed=0"
        );
        assert_eq!(
            runs[8].canon(),
            "v=1;kind=contention;policy=fcfs;scale=smoke;load=100;seed=0"
        );
        assert_eq!(
            runs[12].canon(),
            "v=1;kind=experiment;id=escat-fig3;scale=smoke"
        );
        assert_eq!(
            runs[13].canon(),
            "v=1;kind=sweep;id=stripe_unit;scale=smoke"
        );
        // Every canon line is unique by construction.
        let canons: BTreeSet<String> = runs.iter().map(|r| r.canon()).collect();
        assert_eq!(canons.len(), runs.len());
    }

    #[test]
    fn expansion_is_toml_key_order_independent() {
        let reordered = concat!(
            "[registry]\n",
            "sweeps = [\"stripe_unit\"]\n",
            "experiments = [\"escat-fig3\"]\n",
            "[contention]\n",
            "load_pcts = [100, 150]\n",
            "policies = [\"fcfs\", \"easy-backfill\"]\n",
            "[workloads]\n",
            "seeds = [0, 7]\n",
            "fault_events = [0, 2]\n",
            "ids = [\"escat-b\", \"prism-a\"]\n",
            "[campaign]\n",
            "scale = \"smoke\"\n",
            "name = \"smoke\"\n",
        );
        let a = CampaignSpec::from_toml_str(SMOKE).unwrap();
        let b = CampaignSpec::from_toml_str(reordered).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.expand(), b.expand());
    }

    #[test]
    fn duplicate_matrix_entries_dedupe() {
        let spec = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"d\"\n",
            "scale = \"smoke\"\n",
            "[workloads]\n",
            "ids = [\"escat-b\", \"escat-b\"]\n",
            "seeds = [1, 1]\n",
        ))
        .unwrap();
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn defaults_apply_when_axes_are_omitted() {
        let spec = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"d\"\n",
            "scale = \"full\"\n",
            "[workloads]\n",
            "ids = [\"prism-c\"]\n",
            "[contention]\n",
            "policies = [\"fcfs\"]\n",
        ))
        .unwrap();
        assert_eq!(spec.backends, vec![BackendKind::Pfs]);
        assert_eq!(spec.fault_events, vec![0]);
        assert_eq!(spec.workload_seeds, vec![0]);
        assert_eq!(spec.load_pcts, vec![100]);
        assert_eq!(spec.contention_seeds, vec![0]);
        let runs = spec.expand();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].canon(),
            "v=2;kind=workload;id=prism-c;backend=pfs;scale=full;faults=0;seed=0"
        );
    }

    #[test]
    fn backend_axis_expands_per_tier_and_validates() {
        let spec = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"tiers\"\n",
            "scale = \"smoke\"\n",
            "[workloads]\n",
            "ids = [\"escat-b\"]\n",
            "backends = [\"pfs\", \"object\", \"burst\"]\n",
        ))
        .unwrap();
        let runs = spec.expand();
        assert_eq!(runs.len(), 3);
        let canons: Vec<String> = runs.iter().map(|r| r.canon()).collect();
        assert_eq!(
            canons,
            vec![
                "v=2;kind=workload;id=escat-b;backend=pfs;scale=smoke;faults=0;seed=0",
                "v=2;kind=workload;id=escat-b;backend=object;scale=smoke;faults=0;seed=0",
                "v=2;kind=workload;id=escat-b;backend=burst;scale=smoke;faults=0;seed=0",
            ]
        );
        // Distinct tiers must hash distinctly: the canon lines differ.
        let unique: BTreeSet<&String> = canons.iter().collect();
        assert_eq!(unique.len(), canons.len());
        assert!(runs[1].label().contains("backend=object"));

        let e = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"tiers\"\n",
            "scale = \"smoke\"\n",
            "[workloads]\n",
            "ids = [\"escat-b\"]\n",
            "backends = [\"nvme\"]\n",
        ))
        .unwrap_err();
        assert!(e.0.contains("workloads.backends"), "{e}");
    }

    #[test]
    fn streams_axis_expands_last_with_distinct_canon_lines() {
        let spec = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"pipe\"\n",
            "scale = \"smoke\"\n",
            "[registry]\n",
            "experiments = [\"stream-prism\"]\n",
            "[streams]\n",
            "depths_kib = [16, 0]\n",
            "consumer_pcts = [50, 100]\n",
            "seeds = [0, 7]\n",
        ))
        .unwrap();
        let runs = spec.expand();
        // 1 experiment + 2*2*2 stream runs, stream block last.
        assert_eq!(runs.len(), 1 + 8);
        assert!(matches!(runs[0], RunSpec::Experiment { .. }));
        assert_eq!(
            runs[1].canon(),
            "v=1;kind=stream;depth=16;consumer=50;scale=smoke;seed=0"
        );
        assert!(runs[1..]
            .iter()
            .all(|r| matches!(r, RunSpec::Stream { .. })));
        let canons: BTreeSet<String> = runs.iter().map(|r| r.canon()).collect();
        assert_eq!(canons.len(), runs.len());
        assert!(runs[1].label().contains("depth=16K"));

        // Stream-only campaigns declare runs.
        let only = CampaignSpec::from_toml_str(concat!(
            "[campaign]\n",
            "name = \"pipe\"\n",
            "scale = \"smoke\"\n",
            "[streams]\n",
            "depths_kib = [256]\n",
        ))
        .unwrap();
        assert_eq!(only.stream_consumer_pcts, vec![100]);
        assert_eq!(only.stream_seeds, vec![0]);
        assert_eq!(only.expand().len(), 1);
    }

    #[test]
    fn streams_axis_rejects_bad_keys_and_ranges() {
        let base = "[campaign]\nname = \"x\"\nscale = \"smoke\"\n";
        let e = CampaignSpec::from_toml_str(&format!("{base}[streams]\nconsumer_pcts = [100]\n"))
            .unwrap_err();
        assert!(e.0.contains("`depths_kib` missing"), "{e}");
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}[streams]\ndepths_kib = [16]\ndepth = [1]\n"
        ))
        .unwrap_err();
        assert!(e.0.contains("unknown key"), "{e}");
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}[streams]\ndepths_kib = [16]\nconsumer_pcts = [0]\n"
        ))
        .unwrap_err();
        assert!(e.0.contains(">= 1"), "{e}");
        let e = CampaignSpec::from_toml_str(&format!("{base}[streams]\ndepths_kib = [2097152]\n"))
            .unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_unknown_ids_tables_and_keys() {
        let base = |workload: &str| {
            format!(
                "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[workloads]\nids = [\"{workload}\"]\n"
            )
        };
        assert!(CampaignSpec::from_toml_str(&base("escat-z"))
            .unwrap_err()
            .0
            .contains("unknown id"));
        assert!(CampaignSpec::from_toml_str(&base("escat-b")).is_ok());
        let e = CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"huge\"\n[workloads]\nids = [\"escat-b\"]\n",
        )
        .unwrap_err();
        assert!(e.0.contains("campaign.scale"), "{e}");
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[wrkloads]\nids = [\"escat-b\"]\n"
        )
        .unwrap_err()
        .0
        .contains("unknown table"));
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[workloads]\nids = [\"escat-b\"]\nseed = [1]\n"
        )
        .unwrap_err()
        .0
        .contains("unknown key"));
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"Bad Name\"\nscale = \"smoke\"\n[workloads]\nids = [\"escat-b\"]\n"
        )
        .is_err());
    }

    #[test]
    fn unknown_id_errors_list_every_valid_id() {
        let spec = |scale: &str, tables: &str| {
            CampaignSpec::from_toml_str(&format!(
                "[campaign]\nname = \"x\"\nscale = \"{scale}\"\n{tables}"
            ))
            .unwrap_err()
            .to_string()
        };
        assert_eq!(
            spec("smoke", "[workloads]\nids = [\"escat-z\"]\n"),
            "workloads.ids: unknown id `escat-z` (expected one of: escat-a, escat-a2, \
             escat-b, escat-b2, escat-b3, escat-c, prism-a, prism-b, prism-c)"
        );
        assert_eq!(
            spec(
                "smoke",
                "[workloads]\nids = [\"escat-b\"]\nbackends = [\"tape\"]\n"
            ),
            "workloads.backends: unknown id `tape` (expected one of: pfs, object, burst)"
        );
        assert_eq!(
            spec("smoke", "[contention]\npolicies = [\"lifo\"]\n"),
            "contention.policies: unknown id `lifo` (expected one of: fcfs, easy-backfill)"
        );
        assert_eq!(
            spec("huge", "[workloads]\nids = [\"escat-b\"]\n"),
            "campaign.scale: unknown id `huge` (expected one of: smoke, full)"
        );
        assert_eq!(
            spec("smoke", "[registry]\nexperiments = [\"escat-fig99\"]\n"),
            "registry.experiments: unknown id `escat-fig99` (expected one of: escat-table1, \
             escat-fig1, escat-table2, escat-fig2, escat-fig3, escat-fig4, escat-fig5, \
             escat-table3, prism-table4, prism-fig6, prism-table5, prism-fig7, prism-fig8, \
             prism-fig9, ablation-aggregation, ablation-prefetch, ablation-writebehind, \
             ablation-caching, ablation-adaptive, ablation-no-restructuring, \
             section6-comparison, resilience-escat, resilience-prism, recovery-escat, \
             recovery-prism, contention-mix, backfill-vs-fcfs, backend-escat, backend-prism, \
             faulty-object, faulty-burst, stream-prism, stream-vs-file)"
        );
        assert_eq!(
            spec("smoke", "[registry]\nsweeps = [\"stripe-width\"]\n"),
            "registry.sweeps: unknown id `stripe-width` (expected one of: io_nodes, \
             stripe_unit, disk_bandwidth, degraded_arrays, fault_intensity, mtbf, \
             checkpoint_interval, checkpoint_interval_burst, checkpoint_interval_burst_crash, \
             load_factor, staging_depth)"
        );
    }

    #[test]
    fn every_registry_id_parses_and_expands() {
        fn quoted<T>(all: Vec<T>, id: fn(T) -> &'static str) -> String {
            let ids: Vec<String> = all.into_iter().map(|t| format!("\"{}\"", id(t))).collect();
            ids.join(", ")
        }
        let spec = CampaignSpec::from_toml_str(&format!(
            "[campaign]\nname = \"all\"\nscale = \"smoke\"\n\
             [workloads]\nids = [{}]\nbackends = [{}]\n\
             [contention]\npolicies = [{}]\n\
             [registry]\nexperiments = [{}]\nsweeps = [{}]\n",
            quoted(WorkloadId::all(), WorkloadId::id),
            quoted(BackendKind::all(), BackendKind::id),
            quoted(PolicyId::all(), PolicyId::id),
            quoted(Experiment::all(), Experiment::id),
            quoted(SweepId::all(), SweepId::id),
        ))
        .unwrap();
        assert_eq!(spec.workload_ids, WorkloadId::all());
        assert_eq!(spec.backends, BackendKind::all());
        assert_eq!(spec.policies, PolicyId::all());
        let runs = spec.expand();
        for id in Experiment::all() {
            let n = runs
                .iter()
                .filter(|r| matches!(r, RunSpec::Experiment { id: e, .. } if *e == id))
                .count();
            assert_eq!(n, 1, "{id}");
        }
        for id in SweepId::all() {
            let n = runs
                .iter()
                .filter(|r| matches!(r, RunSpec::Sweep { id: s, .. } if *s == id))
                .count();
            assert_eq!(n, 1, "{}", id.id());
        }
    }

    #[test]
    fn rejects_empty_campaigns_and_bad_ranges() {
        assert!(
            CampaignSpec::from_toml_str("[campaign]\nname = \"x\"\nscale = \"smoke\"\n")
                .unwrap_err()
                .0
                .contains("declares no runs")
        );
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[workloads]\nids = [\"escat-b\"]\nseeds = [-1]\n"
        )
        .unwrap_err()
        .0
        .contains("non-negative"));
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[workloads]\nids = [\"escat-b\"]\nfault_events = [65]\n"
        )
        .unwrap_err()
        .0
        .contains("out of range"));
        assert!(CampaignSpec::from_toml_str(
            "[campaign]\nname = \"x\"\nscale = \"smoke\"\n[contention]\npolicies = [\"fcfs\"]\nload_pcts = [0]\n"
        )
        .is_err());
    }

    #[test]
    fn canon_lines_have_fixed_field_order() {
        let run = RunSpec::Contention {
            policy: PolicyId::Fcfs,
            scale: Scale::Smoke,
            load_pct: 125,
            seed: 3,
        };
        assert_eq!(
            run.canon(),
            "v=1;kind=contention;policy=fcfs;scale=smoke;load=125;seed=3"
        );
        assert!(run.label().contains("125%"));
    }
}
