//! §6 — Application Comparisons.
//!
//! The paper's synthesis section compares the two codes' *initial*
//! (§6.1) and *optimized* (§6.2) access patterns along three
//! dimensions: request size, I/O parallelism, and access modes. This
//! experiment measures all three for every version of both codes and
//! checks the section's claims:
//!
//! * §6.1: in the initial versions "at least 98 percent of all reads
//!   were small ... although the vast majority of data is read via a
//!   small number of large requests", and "both codes relied on a
//!   single node to coordinate parallel read and write operations";
//! * §6.2: the optimized versions read mostly via large structured
//!   requests, all nodes participate, and the dominant modes shift
//!   from M_UNIX to the collective/asynchronous modes.

use crate::experiments::{escat, prism, Experiment, ExperimentOutput, Scale, ShapeCheck};
use sioscope_analysis::{Cdf, ModeUsage, NodeBalance};
use sioscope_pfs::{IoMode, OpKind};
use sioscope_sim::Pid;
use sioscope_trace::TraceIndex;
use sioscope_workloads::{EscatDataset, EscatVersion, PrismVersion};
use std::fmt::Write as _;

struct Dimensions {
    small_read_fraction: f64,
    large_read_data_fraction: f64,
    node0_write_share: f64,
    dominant_mode_by_bytes: Option<&'static str>,
    modes_used: usize,
}

fn measure(index: &TraceIndex) -> Dimensions {
    let reads = Cdf::of_kind(index, OpKind::Read);
    let writes = NodeBalance::of_kind(index, OpKind::Write);
    let modes = ModeUsage::from_index(index);
    Dimensions {
        small_read_fraction: reads.fraction_leq(2048),
        large_read_data_fraction: 1.0 - reads.weight_fraction_leq(100 * 1024),
        node0_write_share: writes.share(Pid(0)),
        dominant_mode_by_bytes: modes.dominant_by_bytes(),
        modes_used: modes.used_modes().len(),
    }
}

fn render_row(out: &mut String, label: &str, d: &Dimensions) {
    let _ = writeln!(
        out,
        "{:<10}{:>13.1}%{:>15.1}%{:>15.0}%{:>12}{:>8}",
        label,
        100.0 * d.small_read_fraction,
        100.0 * d.large_read_data_fraction,
        100.0 * d.node0_write_share,
        d.dominant_mode_by_bytes.unwrap_or("-"),
        d.modes_used,
    );
}

/// Run the §6 comparison.
pub(crate) fn section6(scale: Scale) -> ExperimentOutput {
    let mut rendered =
        String::from("Section 6: application comparison across the three I/O dimensions\n");
    let _ = writeln!(
        rendered,
        "{:<10}{:>14}{:>16}{:>16}{:>12}{:>8}",
        "version", "small reads", "data via large", "node-0 writes", "top mode", "modes"
    );
    let _ = writeln!(rendered, "{}", "-".repeat(76));

    let mut dims = Vec::new();
    for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
        let r = escat::run_version(v, EscatDataset::Ethylene, scale);
        let d = measure(&r.index);
        render_row(&mut rendered, &format!("ESCAT-{}", v.label()), &d);
        dims.push((format!("ESCAT-{}", v.label()), d));
    }
    for v in PrismVersion::all() {
        let r = prism::run_version(v, scale);
        let d = measure(&r.index);
        render_row(&mut rendered, &format!("PRISM-{}", v.label()), &d);
        dims.push((format!("PRISM-{}", v.label()), d));
    }

    let get =
        |name: &str| -> &Dimensions { &dims.iter().find(|(n, _)| n == name).expect("measured").1 };
    let escat_a = get("ESCAT-A");
    let escat_c = get("ESCAT-C");
    let prism_a = get("PRISM-A");
    let prism_c = get("PRISM-C");

    let checks = vec![
        ShapeCheck::new(
            "§6.1: initial versions read almost entirely in small requests",
            escat_a.small_read_fraction > 0.9 && prism_a.small_read_fraction > 0.8,
            format!(
                "ESCAT-A {:.1}%, PRISM-A {:.1}%",
                100.0 * escat_a.small_read_fraction,
                100.0 * prism_a.small_read_fraction
            ),
        ),
        ShapeCheck::new(
            "§6.1: both initial codes funnel writes through node zero",
            escat_a.node0_write_share > 0.95 && prism_a.node0_write_share > 0.95,
            format!(
                "ESCAT-A {:.0}%, PRISM-A {:.0}%",
                100.0 * escat_a.node0_write_share,
                100.0 * prism_a.node0_write_share
            ),
        ),
        ShapeCheck::new(
            "§6.1: only standard UNIX I/O in the initial versions",
            escat_a.dominant_mode_by_bytes == Some("M_UNIX")
                && prism_a.dominant_mode_by_bytes == Some("M_UNIX")
                && escat_a.modes_used == 1
                && prism_a.modes_used == 1,
            format!(
                "ESCAT-A: {} mode(s), PRISM-A: {} mode(s)",
                escat_a.modes_used, prism_a.modes_used
            ),
        ),
        ShapeCheck::new(
            // ESCAT: "98 percent of data via 128 KB reads"; PRISM:
            // "a few large requests (greater 150KB) constitute the
            // majority of I/O data volume" (§5.2).
            "§6.2: optimized versions move data via large structured requests",
            escat_c.large_read_data_fraction > 0.9 && prism_c.large_read_data_fraction > 0.55,
            format!(
                "ESCAT-C {:.1}%, PRISM-C {:.1}%",
                100.0 * escat_c.large_read_data_fraction,
                100.0 * prism_c.large_read_data_fraction
            ),
        ),
        ShapeCheck::new(
            "§6.2: writes leave node zero in the optimized versions",
            escat_c.node0_write_share < 0.2 && prism_c.node0_write_share < 0.2,
            format!(
                "ESCAT-C {:.0}%, PRISM-C {:.0}%",
                100.0 * escat_c.node0_write_share,
                100.0 * prism_c.node0_write_share
            ),
        ),
        ShapeCheck::new(
            "§6.2: the structured modes carry the optimized data",
            matches!(
                escat_c.dominant_mode_by_bytes,
                Some(m) if m == IoMode::MRecord.name() || m == IoMode::MAsync.name()
            ) && matches!(
                prism_c.dominant_mode_by_bytes,
                Some(m) if m != IoMode::MUnix.name()
            ),
            format!(
                "ESCAT-C: {}, PRISM-C: {}",
                escat_c.dominant_mode_by_bytes.unwrap_or("-"),
                prism_c.dominant_mode_by_bytes.unwrap_or("-")
            ),
        ),
    ];

    ExperimentOutput {
        experiment: Experiment::Section6Comparison,
        rendered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_runs() {
        let out = section6(Scale::Smoke);
        assert!(out.rendered.contains("ESCAT-A"));
        assert!(out.rendered.contains("PRISM-C"));
        assert_eq!(out.checks.len(), 6);
    }
}
