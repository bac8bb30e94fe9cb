//! Fault injection and resilience — the paper's workloads on a
//! machine that misbehaves.
//!
//! The original study measured a healthy Caltech Paragon; §7 asks how
//! different machine configurations change the I/O picture. This
//! example runs PRISM B against each fault class (latent sector
//! errors, a RAID-3 spindle failure with rebuild, an I/O-node crash,
//! an I/O-node slowdown, mesh-link congestion) and then sweeps fault
//! intensity with seed-reproducible generated schedules.
//!
//! ```text
//! cargo run --release --example fault_injection
//! SIOSCOPE_SCALE=smoke cargo run --example fault_injection
//! ```

use sioscope::canon::WorkloadId;
use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::sweeps::fault_intensity_sweep;

fn main() {
    let scale = Scale::from_env();

    println!("== One run per fault class ==\n");
    for e in [Experiment::ResilienceEscat, Experiment::ResiliencePrism] {
        let out = run_experiment(e, scale);
        println!("{}", out.rendered);
        for c in &out.checks {
            println!("  [{}] {}", if c.pass { "ok" } else { "FAIL" }, c.name);
        }
        println!();
    }

    println!("== Fault-intensity sweep (PRISM B, seed-reproducible) ==\n");
    let sweep = fault_intensity_sweep(WorkloadId::PrismB, scale, &[0, 1, 2, 4, 8], 0xF417);
    println!("{}", sweep.render());
    println!(
        "Schedules are nested by construction — intensity k is a prefix of\n\
         k+1 — so execution time inflates monotonically with fault count,\n\
         and the same seed replays the same faults bit-for-bit."
    );
}
