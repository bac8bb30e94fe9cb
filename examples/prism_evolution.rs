//! Reproduce the full PRISM study of §5: Table 4, Figures 6–9 and
//! Table 5, with shape checks against the paper's published values.
//!
//! ```text
//! cargo run --release --example prism_evolution            # paper scale
//! SIOSCOPE_SCALE=smoke cargo run --example prism_evolution # quick look
//! ```

use sioscope::experiments::{prism, run_experiment, Experiment, Scale};
use sioscope::report::render_output;
use sioscope_analysis::Evolution;
use sioscope_pfs::OpKind;
use sioscope_workloads::PrismVersion;

fn main() {
    let scale = Scale::from_env();
    let mut failures = 0;
    for e in [
        Experiment::PrismTable4,
        Experiment::PrismFig6,
        Experiment::PrismTable5,
        Experiment::PrismFig7,
        Experiment::PrismFig8,
        Experiment::PrismFig9,
    ] {
        let out = run_experiment(e, scale);
        print!("{}", render_output(&out));
        failures += out.failures().len();
    }
    // The §5 narrative as deltas.
    let ra = prism::run_version(PrismVersion::A, scale);
    let rb = prism::run_version(PrismVersion::B, scale);
    let rc = prism::run_version(PrismVersion::C, scale);
    let ab = Evolution::between("A", &ra.trace, "B", &rb.trace);
    let bc = Evolution::between("B", &rb.trace, "C", &rc.trace);
    println!("{}", ab.render());
    println!("{}", bc.render());
    if let Some(d) = ab.delta(OpKind::Read) {
        println!(
            "A->B read-time change: {:+.1}s (paper §5.3: \"the total read time decreases by 125 seconds\")",
            d.time_change_s()
        );
    }
    if let Some(d) = bc.delta(OpKind::Read) {
        println!(
            "B->C read-time change: {:+.1}s (paper §5.1: disabling buffering made reads worse)",
            d.time_change_s()
        );
    }

    if failures > 0 && scale == Scale::Full {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
}
