//! Seeded chaos/soak harness: fuzz fault schedules across the three
//! storage tiers plus the streaming pipeline and hold every run to
//! the fault subsystem's hard invariants (byte conservation, golden
//! bit-identity, hook neutrality, replay identity, recovery-TTS
//! sanity; for the stream tier: queue-ledger conservation, replay
//! identity, crash monotonicity, unbounded-queue equivalence).
//!
//! ```text
//! # The CI chaos-smoke budget: 64 schedules x 4 tiers.
//! cargo run -p sioscope-bench --bin chaos --release -- \
//!     --seeds 64 --out artifacts/chaos-verdicts.txt
//! # One tier, a different seed window:
//! cargo run -p sioscope-bench --bin chaos --release -- \
//!     --tiers stream --start 1000 --seeds 16
//! ```
//!
//! Exit codes follow the repro contract: `0` every case passed, `2`
//! unusable arguments, `3` an I/O failure, `4` the soak ran but at
//! least one invariant was violated. The verdict artifact is plain
//! text, one `PASS`/`FAIL` line per (tier, seed) case with any
//! violations indented beneath it — deterministic bytes for a given
//! seed window, so CI can diff soaks across commits. Cases run side
//! by side on every available core; the bytes do not depend on how
//! many there are (`taskset -c 0` writes the same file). A window
//! whose end `--start + --seeds` does not fit in a `u64` is rejected
//! with exit `2`.

use sioscope::chaos::{chaos_soak, parse_golden_baseline, ChaosTier, ChaosVerdict};
use sioscope_campaign::{exit_with, write_atomic, CliError};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: chaos [--seeds N] [--start S] [--tiers pfs,object,burst,stream] [--golden FILE] [--out FILE]";

struct Cli {
    seeds: u64,
    start: u64,
    tiers: Vec<ChaosTier>,
    golden: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut cli = Cli {
        seeds: 64,
        start: 0,
        tiers: ChaosTier::all(),
        golden: None,
        out: None,
    };
    let mut i = 0;
    let value_of = |args: &[String], i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::BadArgs(format!("{flag} requires a value\n{USAGE}")))
    };
    while i < args.len() {
        let a = &args[i];
        if a == "--seeds" {
            let v = value_of(args, &mut i, "--seeds")?;
            cli.seeds = v
                .parse()
                .map_err(|_| CliError::BadArgs(format!("bad --seeds value `{v}`")))?;
            if cli.seeds == 0 {
                return Err(CliError::BadArgs("--seeds must be >= 1".into()));
            }
        } else if a == "--start" {
            let v = value_of(args, &mut i, "--start")?;
            cli.start = v
                .parse()
                .map_err(|_| CliError::BadArgs(format!("bad --start value `{v}`")))?;
        } else if a == "--tiers" {
            let v = value_of(args, &mut i, "--tiers")?;
            cli.tiers = v
                .split(',')
                .filter(|t| !t.is_empty())
                .map(|t| {
                    ChaosTier::from_id(t).ok_or_else(|| {
                        let known: Vec<&str> = ChaosTier::all().iter().map(|t| t.id()).collect();
                        CliError::BadArgs(format!(
                            "unknown tier `{t}` (expected one of: {})",
                            known.join(", ")
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            if cli.tiers.is_empty() {
                return Err(CliError::BadArgs("--tiers selected no tier".into()));
            }
        } else if a == "--golden" {
            cli.golden = Some(PathBuf::from(value_of(args, &mut i, "--golden")?));
        } else if a == "--out" {
            cli.out = Some(PathBuf::from(value_of(args, &mut i, "--out")?));
        } else {
            return Err(CliError::BadArgs(format!(
                "unknown argument `{a}`\n{USAGE}"
            )));
        }
        i += 1;
    }
    if cli.start.checked_add(cli.seeds).is_none() {
        return Err(CliError::BadArgs(format!(
            "seed window --start {} --seeds {} ends past {}",
            cli.start,
            cli.seeds,
            u64::MAX
        )));
    }
    Ok(cli)
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;

    // The committed fault-free fingerprints, when available: an
    // explicit --golden path, else the repo-layout default. The soak
    // still runs without them (every other invariant is intrinsic).
    let golden_path = cli.golden.clone().or_else(|| {
        let default = PathBuf::from("tests/golden/backend_baseline.txt");
        default.is_file().then_some(default)
    });
    let golden: Option<BTreeMap<String, String>> = match &golden_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| CliError::io(p, e))?;
            Some(parse_golden_baseline(&text))
        }
        None => None,
    };

    let tier_ids: Vec<&str> = cli.tiers.iter().map(|t| t.id()).collect();
    println!(
        "chaos soak: {} schedules x {} tiers ({}), seeds [{}, {}){}",
        cli.seeds,
        cli.tiers.len(),
        tier_ids.join(", "),
        cli.start,
        cli.start + cli.seeds,
        match &golden_path {
            Some(p) => format!(", golden baseline {}", p.display()),
            None => ", no golden baseline".to_string(),
        }
    );

    let verdicts = chaos_soak(&cli.tiers, cli.start, cli.seeds, golden.as_ref());
    let failures: Vec<&ChaosVerdict> = verdicts.iter().filter(|v| !v.pass()).collect();

    let mut artifact = String::new();
    for v in &verdicts {
        artifact.push_str(&v.render());
        artifact.push('\n');
    }
    artifact.push_str(&format!(
        "summary: {} cases, {} passed, {} failed\n",
        verdicts.len(),
        verdicts.len() - failures.len(),
        failures.len()
    ));
    if let Some(out) = &cli.out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
        }
        write_atomic(out, &artifact)?;
        println!(
            "wrote {} verdict lines to {}",
            verdicts.len(),
            out.display()
        );
    }

    for v in &failures {
        eprintln!("{}", v.render());
    }
    println!(
        "chaos soak: {}/{} cases passed",
        verdicts.len() - failures.len(),
        verdicts.len()
    );
    if !failures.is_empty() {
        return Err(CliError::GoldenMismatch(format!(
            "{} of {} chaos cases violated an invariant",
            failures.len(),
            verdicts.len()
        )));
    }
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        exit_with(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Cli, CliError> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_seed_window_ending_past_u64_max_is_rejected() {
        let max = u64::MAX.to_string();
        for args in [
            ["--start", max.as_str(), "--seeds", "1"],
            ["--seeds", max.as_str(), "--start", "1"],
        ] {
            let err = parse_args(&args).err().expect("window rejected");
            assert_eq!(err.exit_code(), 2, "{err}");
        }
        // A window ending exactly at u64::MAX still fits.
        let below = (u64::MAX - 2).to_string();
        let cli = parse_args(&["--start", &below, "--seeds", "2"]).expect("window fits");
        assert_eq!((cli.start, cli.seeds), (u64::MAX - 2, 2));
        let cli = parse_args(&["--seeds", &max]).expect("window from 0 fits");
        assert_eq!(cli.seeds, u64::MAX);
    }
}
