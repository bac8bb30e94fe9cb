//! Report rendering: run experiments and print each artifact next to
//! the paper's published values.

use crate::experiments::{shape, ExperimentOutput};
use crate::paper;
use std::fmt::Write as _;

/// Render one experiment output, including its shape-check verdicts.
pub fn render_output(out: &ExperimentOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "================================================================"
    );
    let _ = writeln!(s, "{} [{}]", out.experiment.title(), out.experiment.id());
    let _ = writeln!(
        s,
        "================================================================"
    );
    s.push_str(&out.rendered);
    let _ = writeln!(s, "Shape checks vs. paper:");
    s.push_str(&shape::render_checks(&out.checks));
    s
}

/// Render the paper's reference tables for side-by-side reading.
pub fn render_paper_reference() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Paper reference values (HPDC 1996):");
    let _ = writeln!(s, "  Table 2 (ESCAT, % of I/O time):");
    for col in &paper::ESCAT_TABLE2 {
        let _ = writeln!(
            s,
            "    {}: dominant = {}",
            col.version,
            col.dominant().label()
        );
    }
    let _ = writeln!(s, "  Table 3 (ESCAT, all-I/O % of execution):");
    for (col, all) in paper::ESCAT_TABLE3.iter().zip(paper::ESCAT_TABLE3_ALL_IO) {
        let _ = writeln!(s, "    {}: {all}%", col.version);
    }
    let _ = writeln!(s, "  Table 5 (PRISM, % of I/O time):");
    for col in &paper::PRISM_TABLE5 {
        let _ = writeln!(
            s,
            "    {}: dominant = {}",
            col.version,
            col.dominant().label()
        );
    }
    let _ = writeln!(
        s,
        "  Fig 1: ESCAT exec reduction ~{:.0}%; Fig 6: PRISM ~{:.0}%",
        100.0 * paper::ESCAT_EXEC_REDUCTION,
        100.0 * paper::PRISM_EXEC_REDUCTION
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, Experiment, Scale};
    use sioscope_sim::par;

    #[test]
    fn paper_reference_renders() {
        let s = render_paper_reference();
        assert!(s.contains("Table 2"));
        assert!(s.contains("2.97"));
        assert!(s.contains("19.4"));
    }

    #[test]
    fn the_thread_count_never_reaches_a_registry_output() {
        let render = |&e: &Experiment| render_output(&experiments::run_experiment(e, Scale::Smoke));
        for e in Experiment::all() {
            // Here the experiment's own runs fan out; under a one-thread
            // map every run stays on one thread.
            let fanned_out = render(&e);
            let inline = par::map(&[e], 1, render);
            assert_eq!(fanned_out, inline[0], "{e}");
        }
    }

    #[test]
    fn render_output_includes_checks() {
        let out = experiments::escat::table1();
        let s = render_output(&out);
        assert!(s.contains("escat-table1"));
        assert!(s.contains("[pass]") || s.contains("[FAIL]"));
    }
}
