//! ESCAT experiments: Table 1, Figures 1–5, Tables 2–3.

use crate::experiments::memo::RunMemo;
use crate::experiments::{ExperimentOutput, IndexedRun, Scale, ShapeCheck};
use crate::paper;
use crate::simulator::{run, SimOptions};
use sioscope_analysis::plot;
use sioscope_analysis::table::{render_exec_table, render_io_table, ExecTimeTable, IoTimeTable};
use sioscope_analysis::{Cdf, Timeline};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::{par, Time};
use sioscope_workloads::{EscatConfig, EscatDataset, EscatVersion, Workload};
use std::sync::Arc;

use super::Experiment;

fn config(version: EscatVersion, dataset: EscatDataset, scale: Scale) -> EscatConfig {
    match (scale, dataset) {
        (Scale::Full, EscatDataset::Ethylene) => EscatConfig::ethylene(version),
        (Scale::Full, EscatDataset::CarbonMonoxide) => EscatConfig::carbon_monoxide(version),
        (Scale::Smoke, _) => EscatConfig::tiny(version),
    }
}

static RUNS: RunMemo<(EscatVersion, EscatDataset, Scale), IndexedRun> = RunMemo::new();

/// Drop every memoized ESCAT run (benchmarks use this to time cold runs).
pub(crate) fn clear_cache() {
    RUNS.clear();
}

/// Run (and memoize) one ESCAT version at a given scale: the
/// fault-free run on the measured Caltech PFS.
///
/// The memo holds the run as an [`IndexedRun`]: its scalars and its
/// trace index, built before any caller sees it, so every figure and
/// table renderer queries the same index. The raw trace is freed once
/// the index exists. The index's sort-based views (sorted sizes,
/// completion order, file regions) wait for the first renderer that
/// asks, behind the index's own `OnceLock`s, and then serve every
/// later one.
pub fn run_version(version: EscatVersion, dataset: EscatDataset, scale: Scale) -> Arc<IndexedRun> {
    RUNS.get_or_run((version, dataset, scale), || {
        let workload = config(version, dataset, scale).build();
        let pfs = PfsConfig::caltech(workload.nodes, workload.os);
        run(&workload, pfs, SimOptions::default())
            .unwrap_or_else(|e| panic!("ESCAT {version:?}/{dataset:?} failed: {e}"))
            .into()
    })
}

fn render_phase_table(title: &str, workloads: &[Workload]) -> String {
    let mut out = format!("{title}\n");
    for w in workloads {
        out.push_str(&format!("Version {} ({}):\n", w.version, w.os));
        for phase in &w.phases {
            let modes: Vec<String> = phase
                .modes
                .iter()
                .map(|(label, m)| format!("{label}: {m}"))
                .collect();
            out.push_str(&format!(
                "  {:<12} {:<10} {}\n",
                phase.phase,
                phase.activity,
                modes.join(", ")
            ));
        }
    }
    out
}

/// Table 1 — node activity and access modes per phase and version.
/// This is configuration metadata, not simulation output.
pub(crate) fn table1() -> ExperimentOutput {
    let workloads: Vec<Workload> = [EscatVersion::A, EscatVersion::B, EscatVersion::C]
        .iter()
        .map(|&v| EscatConfig::ethylene(v).build())
        .collect();
    let rendered = render_phase_table(
        "Table 1: Node activity and file access modes (ESCAT)",
        &workloads,
    );
    let mut checks = Vec::new();
    // Table 1's defining entries.
    let a = &workloads[0].phases;
    checks.push(ShapeCheck::new(
        "A phase one: all nodes, M_UNIX",
        a[0].activity == "All Nodes",
        a[0].activity.clone(),
    ));
    let b = &workloads[1].phases;
    checks.push(ShapeCheck::new(
        "B phase three: M_RECORD",
        b[2].modes[0].1 == sioscope_pfs::IoMode::MRecord,
        format!("{}", b[2].modes[0].1),
    ));
    let c = &workloads[2].phases;
    checks.push(ShapeCheck::new(
        "C phase two: M_ASYNC",
        c[1].modes[0].1 == sioscope_pfs::IoMode::MAsync,
        format!("{}", c[1].modes[0].1),
    ));
    ExperimentOutput {
        experiment: Experiment::EscatTable1,
        rendered,
        checks,
    }
}

/// Figure 1 — execution time for the six ESCAT progressions.
pub(crate) fn fig1(scale: Scale) -> ExperimentOutput {
    let results: Vec<(String, Time)> = par::map(
        &EscatVersion::progressions(),
        par::available_threads(),
        |&v| {
            let r = run_version(v, EscatDataset::Ethylene, scale);
            (v.label().to_string(), r.exec_time)
        },
    );
    let rendered = plot::bar_chart(
        "Figure 1: Execution time for six ESCAT code progressions",
        &results,
        50,
    );
    let first = results.first().expect("six results").1.as_secs_f64();
    let last = results.last().expect("six results").1.as_secs_f64();
    let reduction = (first - last) / first;
    let mut checks = vec![ShapeCheck::in_range(
        "total execution time reduced ~20% A -> C (paper: 20%)",
        reduction,
        0.12,
        0.30,
    )];
    // Progressive: no later progression slower than version A.
    let worst_later = results[1..]
        .iter()
        .map(|(_, t)| t.as_secs_f64())
        .fold(0.0f64, f64::max);
    checks.push(ShapeCheck::greater(
        "version A is the slowest progression",
        "A",
        first,
        "max(later)",
        worst_later,
    ));
    ExperimentOutput {
        experiment: Experiment::EscatFig1,
        rendered,
        checks,
    }
}

/// Table 2 — aggregate I/O performance summaries (% of I/O time).
pub(crate) fn table2(scale: Scale) -> ExperimentOutput {
    let columns: Vec<IoTimeTable> = [EscatVersion::A, EscatVersion::B, EscatVersion::C]
        .iter()
        .map(|&v| {
            let r = run_version(v, EscatDataset::Ethylene, scale);
            IoTimeTable::from_durations(v.label(), &r.index.duration_by_kind())
        })
        .collect();
    let rendered = render_io_table(
        "Table 2: Aggregate I/O performance summaries (ESCAT), % of I/O time",
        &columns,
    );
    let mut checks = Vec::new();
    // Paper: A dominated by open (53.7) + read (42.6).
    let a = &columns[0];
    checks.push(ShapeCheck::new(
        "A: open+read dominate I/O (paper: 96.3%)",
        a.pct(OpKind::Open) + a.pct(OpKind::Read) > 70.0,
        format!(
            "open {:.1}% + read {:.1}%",
            a.pct(OpKind::Open),
            a.pct(OpKind::Read)
        ),
    ));
    // Paper: B dominated by seek (63.2) with substantial write (28.8).
    let b = &columns[1];
    checks.push(ShapeCheck::new(
        "B: seek is the dominant operation (paper: 63.2%)",
        b.dominant() == Some(OpKind::Seek),
        format!(
            "dominant = {:?} ({:.1}%)",
            b.dominant(),
            b.pct(OpKind::Seek)
        ),
    ));
    checks.push(ShapeCheck::in_range(
        "B: write share substantial (paper: 28.8%)",
        b.pct(OpKind::Write),
        5.0,
        45.0,
    ));
    // Paper: C dominated by write (55.6), gopen visible (21.7), seeks
    // nearly gone (1.75).
    let c = &columns[2];
    checks.push(ShapeCheck::new(
        "C: write is the dominant operation (paper: 55.6%)",
        c.dominant() == Some(OpKind::Write),
        format!(
            "dominant = {:?} ({:.1}%)",
            c.dominant(),
            c.pct(OpKind::Write)
        ),
    ));
    checks.push(ShapeCheck::greater(
        "C: M_ASYNC eliminates seek cost (paper: 63.2% -> 1.75%)",
        "B seek%",
        b.pct(OpKind::Seek),
        "10x C seek%",
        10.0 * c.pct(OpKind::Seek),
    ));
    ExperimentOutput {
        experiment: Experiment::EscatTable2,
        rendered,
        checks,
    }
}

/// Small/large read statistics used by Figure 2's checks.
pub(crate) struct ReadSizeStats {
    /// Fraction of read *requests* at or below the small threshold.
    pub small_request_fraction: f64,
    /// Fraction of read *data* moved by large (>= 128 KB) requests.
    pub large_data_fraction: f64,
}

/// Compute read-size stats for one version.
pub(crate) fn read_stats(r: &IndexedRun) -> ReadSizeStats {
    let cdf = Cdf::of_kind(&r.index, OpKind::Read);
    ReadSizeStats {
        small_request_fraction: cdf.fraction_leq(paper::SMALL_REQUEST_BYTES),
        large_data_fraction: 1.0 - cdf.weight_fraction_leq(paper::ESCAT_LARGE_READ_BYTES - 1),
    }
}

/// Figure 2 — CDFs of read/write request sizes and data transferred.
pub(crate) fn fig2(scale: Scale) -> ExperimentOutput {
    let ra = run_version(EscatVersion::A, EscatDataset::Ethylene, scale);
    let rc = run_version(EscatVersion::C, EscatDataset::Ethylene, scale);
    let cdf_read_a = Cdf::of_kind(&ra.index, OpKind::Read);
    let cdf_read_c = Cdf::of_kind(&rc.index, OpKind::Read);
    let cdf_write_a = Cdf::of_kind(&ra.index, OpKind::Write);
    let cdf_write_c = Cdf::of_kind(&rc.index, OpKind::Write);

    let mut rendered = String::new();
    rendered.push_str(&plot::cdf_plot(
        "Figure 2a: ESCAT read sizes, version A",
        &cdf_read_a,
        60,
        12,
    ));
    rendered.push_str(&plot::cdf_plot(
        "Figure 2a: ESCAT read sizes, versions B/C",
        &cdf_read_c,
        60,
        12,
    ));
    rendered.push_str(&plot::cdf_plot(
        "Figure 2b: ESCAT write sizes, version A",
        &cdf_write_a,
        60,
        12,
    ));
    rendered.push_str(&plot::cdf_plot(
        "Figure 2b: ESCAT write sizes, versions B/C",
        &cdf_write_c,
        60,
        12,
    ));

    let sa = read_stats(&ra);
    let sc = read_stats(&rc);
    let checks = vec![
        ShapeCheck::in_range(
            "A: ~97% of reads are small (<2 KB)",
            sa.small_request_fraction,
            0.85,
            1.0,
        ),
        ShapeCheck::in_range(
            "B/C: only ~50% of reads are small",
            sc.small_request_fraction,
            0.25,
            0.75,
        ),
        ShapeCheck::in_range(
            "B/C: 128 KB reads transfer ~98% of read data",
            sc.large_data_fraction,
            0.90,
            1.0,
        ),
        ShapeCheck::new(
            "all write requests are small (< 3 KB)",
            cdf_write_c.quantile(1.0).unwrap_or(0) < 3 * 1024
                && cdf_write_a.quantile(1.0).unwrap_or(0) < 3 * 1024,
            format!(
                "max write A = {}, C = {}",
                cdf_write_a.quantile(1.0).unwrap_or(0),
                cdf_write_c.quantile(1.0).unwrap_or(0)
            ),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::EscatFig2,
        rendered,
        checks,
    }
}

fn edge_concentration(tl: &Timeline, exec: Time) -> f64 {
    if tl.is_empty() || exec.is_zero() {
        return 0.0;
    }
    let q1 = exec / 4;
    let q3 = exec - q1;
    let edge = tl
        .points()
        .iter()
        .filter(|&&(t, _)| t <= q1 || t >= q3)
        .count();
    edge as f64 / tl.len() as f64
}

/// Figure 3 — read sizes over execution time, versions A and C.
pub(crate) fn fig3(scale: Scale) -> ExperimentOutput {
    let ra = run_version(EscatVersion::A, EscatDataset::Ethylene, scale);
    let rc = run_version(EscatVersion::C, EscatDataset::Ethylene, scale);
    let tl_a = Timeline::of_kind(&ra.index, OpKind::Read);
    let tl_c = Timeline::of_kind(&rc.index, OpKind::Read);
    let mut rendered = String::new();
    rendered.push_str(&plot::scatter_log(
        "Figure 3: ESCAT read sizes vs execution time, version A (log bytes)",
        &tl_a,
        70,
        14,
    ));
    rendered.push_str(&plot::scatter_log(
        "Figure 3: ESCAT read sizes vs execution time, version C (log bytes)",
        &tl_c,
        70,
        14,
    ));
    let checks = vec![
        ShapeCheck::in_range(
            "A: read activity only near beginning and end",
            edge_concentration(&tl_a, ra.exec_time),
            0.9,
            1.0,
        ),
        ShapeCheck::in_range(
            "C: read activity only near beginning and end",
            edge_concentration(&tl_c, rc.exec_time),
            0.9,
            1.0,
        ),
        ShapeCheck::greater(
            "C reloads in 128 KB records vs A's small chunks",
            "C max read",
            tl_c.max_value() as f64,
            "A max final-phase read",
            2.0 * 2048.0,
        ),
        ShapeCheck::greater(
            "initial read burst shrinks A -> C (node zero only)",
            "A reads",
            tl_a.len() as f64,
            "C reads",
            tl_c.len() as f64,
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::EscatFig3,
        rendered,
        checks,
    }
}

/// Figure 4 — write sizes over execution time, versions A and C.
pub(crate) fn fig4(scale: Scale) -> ExperimentOutput {
    let ra = run_version(EscatVersion::A, EscatDataset::Ethylene, scale);
    let rc = run_version(EscatVersion::C, EscatDataset::Ethylene, scale);
    let tl_a = Timeline::of_kind(&ra.index, OpKind::Write);
    let tl_c = Timeline::of_kind(&rc.index, OpKind::Write);
    let mut rendered = String::new();
    rendered.push_str(&plot::scatter_linear(
        "Figure 4: ESCAT write sizes vs execution time, version A (bytes)",
        &tl_a,
        70,
        14,
    ));
    rendered.push_str(&plot::scatter_linear(
        "Figure 4: ESCAT write sizes vs execution time, version C (bytes)",
        &tl_c,
        70,
        14,
    ));
    // Version A: node zero coordinates writes with four request
    // sizes; version C: all requests the same size. The check looks at
    // the staging (quadrature) files only — the result-output writes
    // of phase four exist in every version.
    let ch = 2u32; // ethylene channels; quad files are indices 3..3+ch
    let staging_sizes = |r: &IndexedRun| {
        let mut sizes: Vec<u64> = r
            .index
            .iter()
            .filter(|e| e.kind == OpKind::Write && (3..3 + ch).contains(&e.file.0))
            .map(|e| e.bytes)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    };
    let distinct_a = staging_sizes(&ra).len();
    let distinct_c = staging_sizes(&rc).len();
    let checks = vec![
        ShapeCheck::in_range(
            "A: staging writes use four request sizes",
            distinct_a as f64,
            4.0,
            6.0,
        ),
        ShapeCheck::in_range(
            "C: staging writes all one size",
            distinct_c as f64,
            1.0,
            2.0,
        ),
        ShapeCheck::new(
            "writes stay below 3 KB in both versions",
            tl_a.max_value() < 3072 && tl_c.max_value() < 3072,
            format!("max A {} / C {}", tl_a.max_value(), tl_c.max_value()),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::EscatFig4,
        rendered,
        checks,
    }
}

/// Figure 5 — seek durations over execution time, versions B and C.
pub(crate) fn fig5(scale: Scale) -> ExperimentOutput {
    let rb = run_version(EscatVersion::B, EscatDataset::Ethylene, scale);
    let rc = run_version(EscatVersion::C, EscatDataset::Ethylene, scale);
    let sd = |r: &IndexedRun| Timeline::of_durations(&r.index, OpKind::Seek);
    let tl_b = sd(&rb);
    let tl_c = sd(&rc);
    let mut rendered = String::new();
    rendered.push_str(&plot::scatter_linear(
        "Figure 5: ESCAT seek durations vs execution time, version B (ns)",
        &tl_b,
        70,
        12,
    ));
    rendered.push_str(&plot::scatter_linear(
        "Figure 5: ESCAT seek durations vs execution time, version C (ns)",
        &tl_c,
        70,
        12,
    ));
    let max_b = tl_b.max_value() as f64 / 1e9;
    let max_c = tl_c.max_value() as f64 / 1e9;
    let sum = |tl: &Timeline| {
        tl.points()
            .iter()
            .map(|&(_, v)| v as f64 / 1e9)
            .sum::<f64>()
    };
    let checks = vec![
        ShapeCheck::greater(
            "M_ASYNC nearly eliminates seek durations (paper: ~9 s vs ~0.45 s max)",
            "B max seek (s)",
            max_b,
            "50x C max seek (s)",
            50.0 * max_c,
        ),
        ShapeCheck::greater(
            "total seek time collapses B -> C (Table 2: 63.2% -> 1.75%)",
            "B seek total (s)",
            sum(&tl_b),
            "20x C seek total (s)",
            20.0 * sum(&tl_c),
        ),
        ShapeCheck::new(
            "B seeks visibly slower than a local pointer update",
            max_b > 0.003,
            format!("max B seek {max_b:.4}s vs M_ASYNC {max_c:.6}s"),
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::EscatFig5,
        rendered,
        checks,
    }
}

/// Table 3 — % of total execution time by I/O operation (ethylene
/// A/B/C and carbon monoxide C).
pub(crate) fn table3(scale: Scale) -> ExperimentOutput {
    let mut columns: Vec<ExecTimeTable> = [EscatVersion::A, EscatVersion::B, EscatVersion::C]
        .iter()
        .map(|&v| {
            let r = run_version(v, EscatDataset::Ethylene, scale);
            ExecTimeTable::from_durations(v.label(), &r.index.duration_by_kind(), r.exec_time)
        })
        .collect();
    let co = run_version(EscatVersion::C, EscatDataset::CarbonMonoxide, scale);
    columns.push(ExecTimeTable::from_durations(
        "C/CO",
        &co.index.duration_by_kind(),
        co.exec_time,
    ));
    let rendered = render_exec_table(
        "Table 3: Percentage of total execution time by I/O operation type (ESCAT)",
        &columns,
    );
    let (a, b, c, co_col) = (&columns[0], &columns[1], &columns[2], &columns[3]);
    let checks = vec![
        ShapeCheck::in_range(
            "ethylene A: I/O is a small share of execution (paper: 2.97%)",
            a.all_io,
            0.5,
            12.0,
        ),
        ShapeCheck::greater(
            "optimization shrinks I/O share C < A (paper: 0.73 < 2.97)",
            "A all-I/O%",
            a.all_io,
            "C all-I/O%",
            c.all_io,
        ),
        ShapeCheck::greater(
            "B's seek regression raises I/O share above A (paper: 4.60 > 2.97)",
            "B all-I/O%",
            b.all_io,
            "A all-I/O%",
            a.all_io,
        ),
        ShapeCheck::in_range(
            "carbon monoxide C: I/O ~20% of execution (paper: 19.4%)",
            co_col.all_io,
            8.0,
            35.0,
        ),
        ShapeCheck::greater(
            "larger problem makes I/O matter (paper: 19.4% vs 0.73%)",
            "CO all-I/O%",
            co_col.all_io,
            "5x ethylene C all-I/O%",
            5.0 * c.all_io,
        ),
    ];
    ExperimentOutput {
        experiment: Experiment::EscatTable3,
        rendered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_static_and_passes() {
        let out = table1();
        assert!(out.failures().is_empty(), "{:?}", out.failures());
        assert!(out.rendered.contains("M_RECORD"));
        assert!(out.rendered.contains("M_ASYNC"));
    }

    #[test]
    fn smoke_experiments_run() {
        // Smoke scale exercises the full pipeline cheaply; shape
        // checks are only guaranteed at Full scale.
        for out in [
            fig1(Scale::Smoke),
            table2(Scale::Smoke),
            fig2(Scale::Smoke),
            fig3(Scale::Smoke),
            fig4(Scale::Smoke),
            fig5(Scale::Smoke),
        ] {
            assert!(!out.rendered.is_empty());
            assert!(!out.checks.is_empty());
        }
    }

    #[test]
    fn run_cache_returns_same_arc() {
        let a = run_version(EscatVersion::C, EscatDataset::Ethylene, Scale::Smoke);
        let b = run_version(EscatVersion::C, EscatDataset::Ethylene, Scale::Smoke);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn read_stats_distinguish_small_and_large() {
        let r = run_version(EscatVersion::C, EscatDataset::Ethylene, Scale::Smoke);
        let s = read_stats(&r);
        assert!(s.small_request_fraction >= 0.0 && s.small_request_fraction <= 1.0);
        assert!(s.large_data_fraction >= 0.0 && s.large_data_fraction <= 1.0);
    }
}
