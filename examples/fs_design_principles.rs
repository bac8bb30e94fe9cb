//! Quantify the file-system design principles the paper closes with
//! (§7): request aggregation, prefetching, and write-behind — plus the
//! §5.4 buffering lesson — by running the ablation experiments.
//!
//! ```text
//! cargo run --release --example fs_design_principles
//! ```

use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::report::render_output;

fn main() {
    let scale = Scale::from_env();
    println!(
        "\"Request aggregation, prefetching, and write behind are possible\n\
         approaches\" — §7, Smirni et al., HPDC 1996.\n"
    );
    let mut failures = 0;
    for e in [
        Experiment::AblationAggregation,
        Experiment::AblationWriteBehind,
        Experiment::AblationPrefetch,
        Experiment::AblationCaching,
        Experiment::AblationAdaptive,
    ] {
        let out = run_experiment(e, scale);
        print!("{}", render_output(&out));
        failures += out.failures().len();
    }
    if failures > 0 && scale == Scale::Full {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
}
