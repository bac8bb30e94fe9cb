//! Regenerate every table and figure of Smirni et al. (HPDC 1996).
//!
//! Usage:
//!
//! ```text
//! cargo run -p sioscope-bench --bin repro --release                # everything
//! cargo run -p sioscope-bench --bin repro --release escat-table2  # one artifact
//! cargo run -p sioscope-bench --bin repro --release -- --out out/ # also write files
//! SIOSCOPE_SCALE=smoke cargo run -p sioscope-bench --bin repro    # fast smoke run
//! ```
//!
//! Experiments are selected by bare ids or after an `--experiments`
//! marker (`repro --experiments recovery-escat recovery-prism`); no
//! selection runs everything. With `--out DIR`, each artifact is
//! staged to `DIR/<id>.txt.tmp` and atomically renamed into place, and
//! a machine-readable summary of the shape checks goes to
//! `DIR/checks.json` the same way — a killed run never leaves a
//! truncated artifact. `--resume` skips experiments whose artifact
//! already exists in `DIR` *and* holds trustworthy contents (a `.json`
//! artifact must parse; an empty or corrupt file is regenerated), so
//! an interrupted generation picks up where it stopped. `--sweeps` appends the machine-configuration
//! sweeps of the paper's future-work agenda (§7) plus the
//! recovery-engine axes; `--sweeps=io_nodes,mtbf` selects a subset.
//!
//! Exit codes are part of the contract: `0` success, `2` unusable
//! arguments, `3` an I/O failure (the failing path is printed), `4`
//! artifacts ran but shape checks disagreed with the paper.

use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::report;
use sioscope::sweeps::{run_sweep, SweepId};
use sioscope_bench::{artifact_resumable, try_experiments_from_args, try_sweeps_from_args};
use sioscope_campaign::json::Json;
use sioscope_campaign::{exit_with, write_atomic, CliError};
use std::path::PathBuf;

struct Cli {
    out: Option<PathBuf>,
    resume: bool,
    sweeps: Option<Vec<SweepId>>,
    experiments: Vec<Experiment>,
}

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut out = None;
    let mut resume = false;
    let mut sweep_args: Vec<String> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--out" {
            i += 1;
            let dir = args
                .get(i)
                .ok_or_else(|| CliError::BadArgs("--out requires a directory".into()))?;
            out = Some(PathBuf::from(dir));
        } else if a == "--resume" {
            resume = true;
        } else if a == "--experiments" {
            // Marker only: the ids that follow are collected like any
            // bare argument.
        } else if a == "--sweeps" || a.starts_with("--sweeps=") {
            sweep_args.push(a.clone());
        } else if a.starts_with('-') {
            return Err(CliError::BadArgs(format!(
                "unknown flag `{a}` (known: --out DIR, --resume, --experiments ID..., --sweeps[=id,...])"
            )));
        } else {
            ids.push(a.clone());
        }
        i += 1;
    }
    let experiments = try_experiments_from_args(&ids).map_err(|unknown| {
        let valid: Vec<&str> = Experiment::all().iter().map(|e| e.id()).collect();
        CliError::BadArgs(format!(
            "unknown experiment id(s): {}\nvalid ids: {}",
            unknown.join(", "),
            valid.join(", ")
        ))
    })?;
    let sweeps = try_sweeps_from_args(&sweep_args).map_err(|unknown| {
        let valid: Vec<&str> = SweepId::all().iter().map(|s| s.id()).collect();
        CliError::BadArgs(format!(
            "unknown sweep id(s): {}\nvalid ids: {}",
            unknown.join(", "),
            valid.join(", ")
        ))
    })?;
    if resume && out.is_none() {
        return Err(CliError::BadArgs(
            "--resume requires --out DIR (there is no artifact directory to resume into)".into(),
        ));
    }
    Ok(Cli {
        out,
        resume,
        sweeps,
        experiments,
    })
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    let scale = Scale::from_env();
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
    }

    println!("{}", report::render_paper_reference());

    let mut failures = 0usize;
    let mut check_rows = Vec::new();
    for e in cli.experiments {
        let artifact = cli
            .out
            .as_ref()
            .map(|dir| dir.join(format!("{}.txt", e.id())));
        if cli.resume {
            if let Some(path) = &artifact {
                if artifact_resumable(path) {
                    println!("-- {} already written, skipping (--resume)", e.id());
                    continue;
                }
            }
        }
        let out = run_experiment(e, scale);
        let rendered = report::render_output(&out);
        print!("{rendered}");
        if let Some(path) = &artifact {
            write_atomic(path, &rendered)?;
        }
        for c in &out.checks {
            check_rows.push(Json::obj(vec![
                ("experiment", Json::Str(e.id().to_string())),
                ("check", Json::Str(c.name.clone())),
                ("pass", Json::Bool(c.pass)),
                ("detail", Json::Str(c.detail.clone())),
            ]));
        }
        failures += out.failures().len();
    }
    if let Some(selection) = &cli.sweeps {
        println!("================================================================");
        println!("Machine-configuration sweeps (the paper's §7 future work)");
        println!("================================================================");
        for &id in selection {
            let path = cli
                .out
                .as_ref()
                .map(|dir| dir.join(format!("sweep-{}.txt", id.id())));
            if cli.resume {
                if let Some(p) = &path {
                    if artifact_resumable(p) {
                        println!("-- sweep {} already written, skipping (--resume)", id.id());
                        continue;
                    }
                }
            }
            let sweep = run_sweep(id, scale);
            println!("{}", sweep.render());
            if let Some(p) = &path {
                write_atomic(p, sweep.render())?;
            }
        }
    }
    if let Some(dir) = &cli.out {
        write_atomic(
            &dir.join("checks.json"),
            Json::Array(check_rows).render_pretty(),
        )?;
        println!("\nartifacts written to {}", dir.display());
    }
    if failures > 0 {
        return Err(CliError::GoldenMismatch(format!(
            "{failures} shape check(s) disagree with the paper"
        )));
    }
    println!("\nall shape checks passed");
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        exit_with(e);
    }
}
