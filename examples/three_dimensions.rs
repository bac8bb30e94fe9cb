//! The §6 characterization: "In each of the three phases, I/O activity
//! can be classified across three dimensions: I/O request size, I/O
//! parallelism, and I/O access modes." This example measures all three
//! for every ESCAT and PRISM version, plus the Miller–Katz class mix
//! and temporal burstiness.
//!
//! ```text
//! cargo run --release --example three_dimensions
//! ```

use sioscope::experiments::Scale;
use sioscope::simulator::{run, RunResult, SimOptions};
use sioscope_analysis::classify::class_totals;
use sioscope_analysis::{
    classify_all, BandwidthSeries, Cdf, ConcurrencyProfile, ModeUsage, NodeBalance,
};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::{Pid, Time};
use sioscope_trace::TraceIndex;
use sioscope_workloads::{EscatVersion, PrismVersion};

fn characterize(r: &RunResult) {
    println!("=== {} ===", r.name);
    let events = r.trace.events();
    let index = &TraceIndex::build(events);

    // Dimension 1: request size.
    let reads = Cdf::of_kind(index, OpKind::Read);
    let writes = Cdf::of_kind(index, OpKind::Write);
    println!(
        "  sizes       : {} reads (median {} B, small<=2K {:.0}%), {} writes (median {} B)",
        reads.n(),
        reads.quantile(0.5).unwrap_or(0),
        100.0 * reads.fraction_leq(2048),
        writes.n(),
        writes.quantile(0.5).unwrap_or(0),
    );

    // Dimension 2: I/O parallelism.
    let conc = ConcurrencyProfile::from_index(index);
    let bal = NodeBalance::from_index(index);
    let writes = NodeBalance::of_kind(index, OpKind::Write);
    println!(
        "  parallelism : peak {} concurrent calls, {:.1} mean while active; gini {:.2} over {} nodes",
        conc.peak,
        conc.mean_active,
        bal.gini(),
        bal.active_nodes(),
    );
    println!(
        "  coordinator : node 0 carries {:.0}% of write time (the §6.1 pattern)",
        100.0 * writes.share(Pid(0)),
    );

    // Dimension 3: access modes.
    let modes = ModeUsage::from_index(index);
    println!(
        "  modes       : {} used; most time in {}, most bytes via {}",
        modes.used_modes().len(),
        modes.dominant_by_time().unwrap_or("-"),
        modes.dominant_by_bytes().unwrap_or("-"),
    );

    // Miller–Katz classes and burstiness.
    let classes = classify_all(events, Time::from_secs(30));
    let totals = class_totals(&classes);
    let mix: Vec<String> = totals
        .iter()
        .map(|(label, (bytes, _))| format!("{label}: {:.1} MB", *bytes as f64 / 1e6))
        .collect();
    let bw = BandwidthSeries::from_index(index, Time::from_secs(10));
    println!("  classes     : {}", mix.join(", "));
    println!(
        "  temporality : burstiness {:.1} (peak/mean), duty cycle {:.0}%\n",
        bw.burstiness(),
        100.0 * bw.duty_cycle(),
    );
}

fn main() {
    let scale = Scale::from_env();
    for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
        let w = scale.escat(v).build();
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r = run(&w, cfg, SimOptions::default()).expect("runs");
        characterize(&r);
    }
    for v in PrismVersion::all() {
        let w = scale.prism(v).build();
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r = run(&w, cfg, SimOptions::default()).expect("runs");
        characterize(&r);
    }
    println!(
        "The §6.1 -> §6.2 story in numbers: node-zero's share of write time\n\
         collapses from version A to version C as both applications move from\n\
         coordinator-mediated writes to all-node parallel access, while the\n\
         dominant access mode shifts from M_UNIX to the structured modes."
    );
}
