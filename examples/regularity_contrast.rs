//! The §2 related-work contrast, quantified.
//!
//! Miller & Katz characterized Cray workloads as "highly regular,
//! cyclical, and bursty"; Pasquale & Polyzos found them "recurrent and
//! predictable". The paper's earlier Paragon study [3] found instead
//! "large variations in the temporal and spatial access patterns ...
//! more irregular, with both extremely small and extremely large
//! requests". This example measures both claims on simulated traces:
//! a vector-era cyclical workload vs. the reproduced ESCAT/PRISM runs.
//!
//! ```text
//! cargo run --release --example regularity_contrast
//! ```

use sioscope::experiments::Scale;
use sioscope::simulator::{run, RunResult, SimOptions};
use sioscope_analysis::interarrival::per_process_indexed;
use sioscope_analysis::{BandwidthSeries, Cdf};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;
use sioscope_workloads::synthetic::{cray_cyclical, KernelConfig};
use sioscope_workloads::{EscatVersion, PrismVersion, Workload};

fn execute(w: &Workload) -> RunResult {
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    run(w, cfg, SimOptions::default()).expect("runs")
}

fn row(name: &str, r: &RunResult) {
    let index = &TraceIndex::build(r.trace.events());
    let ias = per_process_indexed(index);
    let median_cv = {
        let mut cvs: Vec<f64> = ias.values().map(|ia| ia.cv).collect();
        cvs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        cvs.get(cvs.len() / 2).copied().unwrap_or(0.0)
    };
    let bw = BandwidthSeries::from_index(index, Time::from_secs(10));
    let reads = Cdf::of_kind(index, OpKind::Read);
    let writes = Cdf::of_kind(index, OpKind::Write);
    let span = |c: &Cdf| -> String {
        match (c.quantile(0.0), c.quantile(1.0)) {
            (Some(lo), Some(hi)) if hi > 0 => format!("{lo}..{hi}"),
            _ => "-".into(),
        }
    };
    println!(
        "{name:<18}{median_cv:>10.2}{:>12.1}{:>10.0}%{:>18}{:>18}",
        bw.burstiness(),
        100.0 * bw.duty_cycle(),
        span(&reads),
        span(&writes),
    );
}

fn main() {
    let scale = Scale::from_env();
    println!(
        "{:<18}{:>10}{:>12}{:>11}{:>18}{:>18}",
        "workload", "iat CV", "burstiness", "duty", "read sizes (B)", "write sizes (B)"
    );
    println!("{}", "-".repeat(87));

    // The vector-era reference: clockwork cycles.
    let mut kcfg = KernelConfig::small();
    kcfg.request = 32 << 10;
    kcfg.total_bytes = 64 << 20;
    let cray = cray_cyclical(&kcfg, 8);
    row("Cray-cyclical", &execute(&cray));

    // The Paragon applications.
    let escat = scale.escat(EscatVersion::A).build();
    row("ESCAT-A", &execute(&escat));
    let prism = scale.prism(PrismVersion::A).build();
    row("PRISM-A", &execute(&prism));

    println!(
        "\nThe cyclical reference shows near-zero interarrival variation within\n\
         its bursts and a single request size; the Paragon codes mix request\n\
         sizes across four-plus orders of magnitude with irregular arrival\n\
         structure — the contrast §2 draws between the vector-era studies\n\
         and the scalable-parallel measurements."
    );
}
