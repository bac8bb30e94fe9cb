//! Reproduce the full ESCAT study of §4: Table 1, Figures 1–5 and
//! Tables 2–3, with shape checks against the paper's published values.
//!
//! ```text
//! cargo run --release --example escat_evolution            # paper scale
//! SIOSCOPE_SCALE=smoke cargo run --example escat_evolution # quick look
//! ```

use sioscope::experiments::{escat, run_experiment, Experiment, Scale};
use sioscope::report::render_output;
use sioscope_analysis::Evolution;
use sioscope_workloads::{EscatDataset, EscatVersion};

fn main() {
    let scale = match std::env::var("SIOSCOPE_SCALE").as_deref() {
        Ok("smoke") => Scale::Smoke,
        _ => Scale::Full,
    };
    let mut failures = 0;
    for e in [
        Experiment::EscatTable1,
        Experiment::EscatFig1,
        Experiment::EscatTable2,
        Experiment::EscatFig2,
        Experiment::EscatFig3,
        Experiment::EscatFig4,
        Experiment::EscatFig5,
        Experiment::EscatTable3,
    ] {
        let out = run_experiment(e, scale);
        print!("{}", render_output(&out));
        failures += out.failures().len();
    }
    // The §4.1 narrative as deltas: what each optimization bought.
    let ra = escat::run_version(EscatVersion::A, EscatDataset::Ethylene, scale);
    let rb = escat::run_version(EscatVersion::B, EscatDataset::Ethylene, scale);
    let rc = escat::run_version(EscatVersion::C, EscatDataset::Ethylene, scale);
    println!(
        "{}",
        Evolution::between("A", &ra.index, "B", &rb.index).render()
    );
    println!(
        "{}",
        Evolution::between("B", &rb.index, "C", &rc.index).render()
    );
    let ab = Evolution::between("A", &ra.index, "B", &rb.index);
    if let Some((k, saved)) = ab.biggest_win() {
        println!("A->B biggest win: {k} (-{saved:.1}s) — the node-zero read restructuring");
    }
    if let Some((k, added)) = ab.biggest_regression() {
        println!("A->B biggest cost: {k} (+{added:.1}s) — the M_UNIX seek pattern");
    }
    let bc = Evolution::between("B", &rb.index, "C", &rc.index);
    if let Some((k, saved)) = bc.biggest_win() {
        println!("B->C biggest win: {k} (-{saved:.1}s) — M_ASYNC");
    }

    if failures > 0 && scale == Scale::Full {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
}
