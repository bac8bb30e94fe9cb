//! The experiment registry: every table and figure of the paper, plus
//! the §7 design-principle ablations, as runnable experiments.
//!
//! | Experiment | Paper artifact |
//! |---|---|
//! | [`Experiment::EscatTable1`] | Table 1 — ESCAT node activity & modes |
//! | [`Experiment::EscatFig1`] | Fig. 1 — execution time of six ESCAT progressions |
//! | [`Experiment::EscatTable2`] | Table 2 — ESCAT % of I/O time by operation |
//! | [`Experiment::EscatFig2`] | Fig. 2 — ESCAT request-size CDFs |
//! | [`Experiment::EscatFig3`] | Fig. 3 — ESCAT read-size timelines (A, C) |
//! | [`Experiment::EscatFig4`] | Fig. 4 — ESCAT write-size timelines (A, C) |
//! | [`Experiment::EscatFig5`] | Fig. 5 — ESCAT seek-duration timelines (B, C) |
//! | [`Experiment::EscatTable3`] | Table 3 — ESCAT % of execution time (+ carbon monoxide) |
//! | [`Experiment::PrismTable4`] | Table 4 — PRISM node activity & modes |
//! | [`Experiment::PrismFig6`] | Fig. 6 — PRISM execution times |
//! | [`Experiment::PrismTable5`] | Table 5 — PRISM % of I/O time by operation |
//! | [`Experiment::PrismFig7`] | Fig. 7 — PRISM request-size CDFs |
//! | [`Experiment::PrismFig8`] | Fig. 8 — PRISM read-size timelines (A, B, C) |
//! | [`Experiment::PrismFig9`] | Fig. 9 — PRISM write-size timeline (C) |
//! | [`Experiment::AblationAggregation`] | §7 — request aggregation |
//! | [`Experiment::AblationPrefetch`] | §7 — prefetching |
//! | [`Experiment::AblationWriteBehind`] | §7 — write-behind |
//! | [`Experiment::AblationCaching`] | §5.4 — client buffering on/off |
//! | [`Experiment::AblationAdaptive`] | §5.4 — adaptive (PPFS-style) policy selection |
//! | [`Experiment::AblationNoRestructuring`] | §4.4/§7 — the central counterfactual: FS policies instead of code restructuring |
//! | [`Experiment::ResilienceEscat`] | Fault injection — ESCAT under each fault class |
//! | [`Experiment::ResiliencePrism`] | Fault injection — PRISM under each fault class |
//! | [`Experiment::RecoveryEscat`] | Checkpoint/restart — ESCAT C time-to-solution under a compute-node crash |
//! | [`Experiment::RecoveryPrism`] | Checkpoint/restart — PRISM B time-to-solution under a compute-node crash |
//! | [`Experiment::ContentionMix`] | Multi-tenant — I/O-bound vs compute-bound slowdown on shared I/O nodes |
//! | [`Experiment::BackfillVsFcfs`] | Multi-tenant — EASY backfill against FCFS on a blocker stream |
//! | [`Experiment::BackendEscat`] | Evolution — ESCAT B/C across pfs, object-store and burst-buffer tiers |
//! | [`Experiment::BackendPrism`] | Evolution — PRISM A/C across pfs, object-store and burst-buffer tiers |
//! | [`Experiment::FaultyObject`] | Robustness — object tier under metadata-shard outages and degraded service |
//! | [`Experiment::FaultyBurst`] | Robustness — burst tier under drain stalls and a burst-node crash |
//! | [`Experiment::StreamPrism`] | Streaming — PRISM checkpoint cadence over bounded staging queues |
//! | [`Experiment::StreamVsFile`] | Streaming — in-transit pipeline vs the checkpoint-file hand-off |

pub mod ablation;
pub mod backend;
pub mod comparison;
pub mod contention;
pub mod escat;
pub(crate) mod memo;
pub mod prism;
pub mod recovery;
pub mod resilience;
pub mod shape;
pub mod stream;

pub use shape::ShapeCheck;
use sioscope_sim::par;
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion};
use std::fmt;

/// Every reproducible artifact of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Experiment {
    EscatTable1,
    EscatFig1,
    EscatTable2,
    EscatFig2,
    EscatFig3,
    EscatFig4,
    EscatFig5,
    EscatTable3,
    PrismTable4,
    PrismFig6,
    PrismTable5,
    PrismFig7,
    PrismFig8,
    PrismFig9,
    AblationAggregation,
    AblationPrefetch,
    AblationWriteBehind,
    AblationCaching,
    AblationAdaptive,
    AblationNoRestructuring,
    Section6Comparison,
    ResilienceEscat,
    ResiliencePrism,
    RecoveryEscat,
    RecoveryPrism,
    ContentionMix,
    BackfillVsFcfs,
    BackendEscat,
    BackendPrism,
    FaultyObject,
    FaultyBurst,
    StreamPrism,
    StreamVsFile,
}

impl Experiment {
    /// All experiments in the paper's presentation order.
    pub fn all() -> Vec<Experiment> {
        use Experiment::*;
        vec![
            EscatTable1,
            EscatFig1,
            EscatTable2,
            EscatFig2,
            EscatFig3,
            EscatFig4,
            EscatFig5,
            EscatTable3,
            PrismTable4,
            PrismFig6,
            PrismTable5,
            PrismFig7,
            PrismFig8,
            PrismFig9,
            AblationAggregation,
            AblationPrefetch,
            AblationWriteBehind,
            AblationCaching,
            AblationAdaptive,
            AblationNoRestructuring,
            Section6Comparison,
            ResilienceEscat,
            ResiliencePrism,
            RecoveryEscat,
            RecoveryPrism,
            ContentionMix,
            BackfillVsFcfs,
            BackendEscat,
            BackendPrism,
            FaultyObject,
            FaultyBurst,
            StreamPrism,
            StreamVsFile,
        ]
    }

    /// Stable identifier (bench names, CLI arguments).
    pub fn id(self) -> &'static str {
        use Experiment::*;
        match self {
            EscatTable1 => "escat-table1",
            EscatFig1 => "escat-fig1",
            EscatTable2 => "escat-table2",
            EscatFig2 => "escat-fig2",
            EscatFig3 => "escat-fig3",
            EscatFig4 => "escat-fig4",
            EscatFig5 => "escat-fig5",
            EscatTable3 => "escat-table3",
            PrismTable4 => "prism-table4",
            PrismFig6 => "prism-fig6",
            PrismTable5 => "prism-table5",
            PrismFig7 => "prism-fig7",
            PrismFig8 => "prism-fig8",
            PrismFig9 => "prism-fig9",
            AblationAggregation => "ablation-aggregation",
            AblationPrefetch => "ablation-prefetch",
            AblationWriteBehind => "ablation-writebehind",
            AblationCaching => "ablation-caching",
            AblationAdaptive => "ablation-adaptive",
            AblationNoRestructuring => "ablation-no-restructuring",
            Section6Comparison => "section6-comparison",
            ResilienceEscat => "resilience-escat",
            ResiliencePrism => "resilience-prism",
            RecoveryEscat => "recovery-escat",
            RecoveryPrism => "recovery-prism",
            ContentionMix => "contention-mix",
            BackfillVsFcfs => "backfill-vs-fcfs",
            BackendEscat => "backend-escat",
            BackendPrism => "backend-prism",
            FaultyObject => "faulty-object",
            FaultyBurst => "faulty-burst",
            StreamPrism => "stream-prism",
            StreamVsFile => "stream-vs-file",
        }
    }

    /// Parse an identifier.
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.id() == id)
    }

    /// Human title.
    pub fn title(self) -> &'static str {
        use Experiment::*;
        match self {
            EscatTable1 => "Table 1: Node activity and file access modes (ESCAT)",
            EscatFig1 => "Figure 1: Execution time for six ESCAT code progressions",
            EscatTable2 => "Table 2: Aggregate I/O performance summaries (ESCAT)",
            EscatFig2 => "Figure 2: CDF of read/write request sizes and data transfers (ESCAT)",
            EscatFig3 => "Figure 3: File read sizes for versions A and C (ESCAT)",
            EscatFig4 => "Figure 4: File write sizes for versions A and C (ESCAT)",
            EscatFig5 => "Figure 5: Seek operation durations for versions B and C (ESCAT)",
            EscatTable3 => "Table 3: Percentage of total execution time by I/O operation (ESCAT)",
            PrismTable4 => "Table 4: Node activity and file access modes (PRISM)",
            PrismFig6 => "Figure 6: Execution time for three PRISM code versions",
            PrismTable5 => "Table 5: Aggregate I/O performance summaries (PRISM)",
            PrismFig7 => "Figure 7: CDF of read and write request sizes and data transfers (PRISM)",
            PrismFig8 => "Figure 8: File read sizes for three versions of PRISM",
            PrismFig9 => "Figure 9: File write sizes for version C of PRISM",
            AblationAggregation => "Ablation (§7): client request aggregation",
            AblationPrefetch => "Ablation (§7): prefetching",
            AblationWriteBehind => "Ablation (§7): write-behind",
            AblationCaching => "Ablation (§5.4): client buffering on/off",
            AblationAdaptive => "Ablation (§5.4): adaptive (PPFS-style) policy selection",
            AblationNoRestructuring => {
                "Counterfactual (§4.4/§7): file-system policies instead of code restructuring"
            }
            Section6Comparison => {
                "Section 6: application comparison across the three I/O dimensions"
            }
            ResilienceEscat => "Resilience: ESCAT C under each fault class",
            ResiliencePrism => "Resilience: PRISM B under each fault class",
            RecoveryEscat => "Recovery: ESCAT C time-to-solution under a compute-node crash",
            RecoveryPrism => "Recovery: PRISM B time-to-solution under a compute-node crash",
            ContentionMix => "Contention: I/O-bound vs compute-bound slowdown on shared I/O nodes",
            BackfillVsFcfs => "Scheduling: EASY backfill against FCFS on a blocker stream",
            BackendEscat => "Evolution: ESCAT across pfs, object-store and burst-buffer tiers",
            BackendPrism => "Evolution: PRISM across pfs, object-store and burst-buffer tiers",
            FaultyObject => {
                "Robustness: object tier under metadata-shard outages and degraded service"
            }
            FaultyBurst => "Robustness: burst tier under drain stalls and a burst-node crash",
            StreamPrism => "Streaming: PRISM checkpoint cadence over bounded staging queues",
            StreamVsFile => "Streaming: in-transit pipeline vs the checkpoint-file hand-off",
        }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Scale at which to run: `Full` reproduces the paper's problem sizes;
/// `Smoke` shrinks everything for fast CI runs while preserving the
/// version structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Paper-scale (128/256/64 nodes, full volumes).
    Full,
    /// Scaled-down for tests.
    Smoke,
}

impl Scale {
    /// The scale the `SIOSCOPE_SCALE` environment variable asks for:
    /// `smoke` (or `SMOKE`) for quick runs, [`Scale::Full`] otherwise.
    pub fn from_env() -> Scale {
        match std::env::var("SIOSCOPE_SCALE").as_deref() {
            Ok("smoke") | Ok("SMOKE") => Scale::Smoke,
            _ => Scale::Full,
        }
    }

    /// ESCAT `version` at this scale: the paper's ethylene dataset at
    /// [`Scale::Full`], the shrunk `tiny` one at [`Scale::Smoke`].
    pub fn escat(self, version: EscatVersion) -> EscatConfig {
        match self {
            Scale::Full => EscatConfig::ethylene(version),
            Scale::Smoke => EscatConfig::tiny(version),
        }
    }

    /// PRISM `version` at this scale: the paper's test problem at
    /// [`Scale::Full`], the shrunk `tiny` one at [`Scale::Smoke`].
    pub fn prism(self, version: PrismVersion) -> PrismConfig {
        match self {
            Scale::Full => PrismConfig::test_problem(version),
            Scale::Smoke => PrismConfig::tiny(version),
        }
    }
}

/// A completed experiment: the rendered artifact plus the shape checks
/// comparing it against the paper.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Which experiment ran.
    pub experiment: Experiment,
    /// Rendered table / ASCII figure.
    pub rendered: String,
    /// Shape assertions against the paper's published values.
    pub checks: Vec<ShapeCheck>,
}

impl ExperimentOutput {
    /// Failed checks.
    pub fn failures(&self) -> Vec<&ShapeCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }
}

/// Drop every memoized workload run.
///
/// Experiments share simulated runs through per-application memoization
/// caches so that, say, the four ESCAT figures do not re-simulate the
/// same six progressions, and a workload run of [`canon::execute`]
/// simulates each fault-free run of a (workload, scale, tier) once per
/// process however many seeds and fault intensities ask for it; chaos
/// cases share their fault-free pair of each (workload, tier) the same
/// way. Benchmarks that want to time a *cold* pass of the registry or of a
/// campaign call this between iterations; ordinary callers never need
/// it.
///
/// [`canon::execute`]: crate::canon::execute
pub fn clear_run_caches() {
    escat::clear_cache();
    prism::clear_cache();
    crate::canon::clear_cache();
    crate::chaos::clear_cache();
}

/// [`par::map`] over a fixed number of independent runs on every
/// available thread, as an array the caller can destructure.
pub(crate) fn side_by_side<T: Sync, R: Send, const N: usize>(
    items: &[T; N],
    f: impl Fn(&T) -> R + Sync,
) -> [R; N] {
    par::map(items, par::available_threads(), f)
        .try_into()
        .unwrap_or_else(|_| unreachable!("par::map returns one result per item"))
}

/// Run one experiment at the given scale.
pub fn run_experiment(experiment: Experiment, scale: Scale) -> ExperimentOutput {
    use Experiment::*;
    match experiment {
        EscatTable1 => escat::table1(),
        EscatFig1 => escat::fig1(scale),
        EscatTable2 => escat::table2(scale),
        EscatFig2 => escat::fig2(scale),
        EscatFig3 => escat::fig3(scale),
        EscatFig4 => escat::fig4(scale),
        EscatFig5 => escat::fig5(scale),
        EscatTable3 => escat::table3(scale),
        PrismTable4 => prism::table4(),
        PrismFig6 => prism::fig6(scale),
        PrismTable5 => prism::table5(scale),
        PrismFig7 => prism::fig7(scale),
        PrismFig8 => prism::fig8(scale),
        PrismFig9 => prism::fig9(scale),
        AblationAggregation => ablation::aggregation(scale),
        AblationPrefetch => ablation::prefetch(scale),
        AblationWriteBehind => ablation::write_behind(scale),
        AblationCaching => ablation::caching(scale),
        AblationAdaptive => ablation::adaptive(scale),
        AblationNoRestructuring => ablation::no_restructuring(scale),
        Section6Comparison => comparison::section6(scale),
        ResilienceEscat => resilience::escat(scale),
        ResiliencePrism => resilience::prism(scale),
        RecoveryEscat => recovery::escat(scale),
        RecoveryPrism => recovery::prism(scale),
        ContentionMix => contention::contention_mix(scale),
        BackfillVsFcfs => contention::backfill_vs_fcfs(scale),
        BackendEscat => backend::escat(scale),
        BackendPrism => backend::prism(scale),
        FaultyObject => backend::faulty_object(scale),
        FaultyBurst => backend::faulty_burst(scale),
        StreamPrism => stream::stream_prism(scale),
        StreamVsFile => stream::stream_vs_file(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for e in Experiment::all() {
            assert_eq!(Experiment::from_id(e.id()), Some(e));
        }
        assert_eq!(Experiment::from_id("nope"), None);
    }

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = Experiment::all().iter().map(|e| e.id()).collect();
        // 5 tables + 9 figures + 6 ablations/counterfactuals + the
        // §6 comparison + 2 resilience + 2 recovery + 2 multi-tenant
        // scheduling experiments + 2 cross-tier backend comparisons
        // + 2 tier-fault robustness experiments + 2 streaming
        // pipeline experiments.
        assert_eq!(ids.len(), 33);
        for artifact in [
            "escat-table1",
            "escat-table2",
            "escat-table3",
            "prism-table4",
            "prism-table5",
            "escat-fig1",
            "escat-fig2",
            "escat-fig3",
            "escat-fig4",
            "escat-fig5",
            "prism-fig6",
            "prism-fig7",
            "prism-fig8",
            "prism-fig9",
        ] {
            assert!(ids.contains(&artifact), "missing {artifact}");
        }
    }

    #[test]
    fn titles_are_distinct() {
        let mut titles: Vec<&str> = Experiment::all().iter().map(|e| e.title()).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), Experiment::all().len());
    }
}
