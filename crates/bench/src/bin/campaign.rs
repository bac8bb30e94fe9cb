//! Run a campaign: a cross-product of simulator runs fanned out over
//! a work-stealing pool, with a content-addressed result cache.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sioscope-bench --bin campaign --release -- \
//!     run examples/smoke.campaign.toml                 # execute it
//! cargo run -p sioscope-bench --bin campaign --release -- \
//!     plan examples/smoke.campaign.toml                # just list the runs
//! ```
//!
//! Flags (after the spec path):
//!
//! * `--jobs N` — worker threads (`0` = one per core, the default);
//! * `--no-cache` — bypass the result cache entirely (neither read
//!   nor write entries);
//! * `--cache-dir DIR` — cache location (default `artifacts/campaign`);
//! * `--out FILE` — also write the deterministic campaign report JSON
//!   to `FILE` (atomically);
//! * `--min-hit-rate PCT` — fail (exit 4) if fewer than `PCT`% of
//!   runs were served from the cache. CI uses this to prove that a
//!   repeated campaign really is cached.
//!
//! Exit codes are the repro contract: `0` success, `2` unusable
//! arguments or unknown ids, `3` an I/O failure (the failing path is
//! printed), `4` the campaign ran but failed an expectation (a failed
//! run, or a missed `--min-hit-rate`).
//!
//! The report JSON on stdout-adjacent paths is deterministic by
//! construction: a cold campaign, a fully cached re-run, and a
//! `--jobs 1` run all write bit-identical bytes. Wall-clock time and
//! hit/miss accounting appear only in the terminal summary.

use sioscope_campaign::{
    exit_with, run_campaign, write_atomic, CampaignSpec, CliError, ExecOptions,
};
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    command: Command,
    spec_path: PathBuf,
    opts: ExecOptions,
    out: Option<PathBuf>,
    min_hit_rate: Option<u32>,
}

enum Command {
    Plan,
    Run,
}

const USAGE: &str = "usage: campaign <plan|run> SPEC.toml \
[--jobs N] [--no-cache] [--cache-dir DIR] [--out FILE] [--min-hit-rate PCT]";

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut opts = ExecOptions::default();
    let mut out = None;
    let mut min_hit_rate = None;
    let mut i = 0;
    let value_of = |args: &[String], i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::BadArgs(format!("{flag} requires a value\n{USAGE}")))
    };
    while i < args.len() {
        let a = &args[i];
        if a == "--jobs" {
            let v = value_of(args, &mut i, "--jobs")?;
            opts.jobs = v
                .parse()
                .map_err(|_| CliError::BadArgs(format!("--jobs expects a number, got `{v}`")))?;
        } else if a == "--no-cache" {
            opts.no_cache = true;
        } else if a == "--cache-dir" {
            opts.cache_dir = PathBuf::from(value_of(args, &mut i, "--cache-dir")?);
        } else if a == "--out" {
            out = Some(PathBuf::from(value_of(args, &mut i, "--out")?));
        } else if a == "--min-hit-rate" {
            let v = value_of(args, &mut i, "--min-hit-rate")?;
            let pct: u32 = v.parse().map_err(|_| {
                CliError::BadArgs(format!("--min-hit-rate expects a percent, got `{v}`"))
            })?;
            if pct > 100 {
                return Err(CliError::BadArgs(format!(
                    "--min-hit-rate must be 0..=100, got {pct}"
                )));
            }
            min_hit_rate = Some(pct);
        } else if a.starts_with('-') {
            return Err(CliError::BadArgs(format!("unknown flag `{a}`\n{USAGE}")));
        } else {
            positional.push(a);
        }
        i += 1;
    }
    let [command, spec_path] = positional.as_slice() else {
        return Err(CliError::BadArgs(USAGE.to_string()));
    };
    let command = match command.as_str() {
        "plan" => Command::Plan,
        "run" => Command::Run,
        other => {
            return Err(CliError::BadArgs(format!(
                "unknown command `{other}`\n{USAGE}"
            )))
        }
    };
    Ok(Cli {
        command,
        spec_path: PathBuf::from(spec_path),
        opts,
        out,
        min_hit_rate,
    })
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    let text =
        std::fs::read_to_string(&cli.spec_path).map_err(|e| CliError::io(&cli.spec_path, e))?;
    let spec = CampaignSpec::from_toml_str(&text).map_err(|e| CliError::BadArgs(e.to_string()))?;

    match cli.command {
        Command::Plan => {
            let runs = spec.expand();
            println!(
                "campaign `{}` ({} scale): {} runs",
                spec.name,
                sioscope::canon::scale_id(spec.scale),
                runs.len()
            );
            for run in &runs {
                println!(
                    "  {}  {}",
                    sioscope_campaign::config_hash(&run.canon()),
                    run.label()
                );
            }
            Ok(())
        }
        Command::Run => {
            let started = Instant::now();
            let report = run_campaign(&spec, &cli.opts)?;
            let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let jobs = if cli.opts.jobs == 0 {
                sioscope_sim::par::available_threads()
            } else {
                cli.opts.jobs
            };
            print!("{}", report.human_summary(wall_ns, jobs));
            if let Some(path) = &cli.out {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
                }
                write_atomic(path, report.render())?;
                println!("report written to {}", path.display());
            }
            let failed = report.failed().count();
            if failed > 0 {
                return Err(CliError::GoldenMismatch(format!(
                    "{failed} of {} campaign run(s) failed",
                    report.runs.len()
                )));
            }
            if let Some(min) = cli.min_hit_rate {
                let hit_pct = if report.runs.is_empty() {
                    100
                } else {
                    (report.hits() * 100 / report.runs.len()) as u32
                };
                if hit_pct < min {
                    return Err(CliError::GoldenMismatch(format!(
                        "cache hit rate {hit_pct}% below required {min}% \
                         ({} hits of {} runs)",
                        report.hits(),
                        report.runs.len()
                    )));
                }
            }
            Ok(())
        }
    }
}

fn main() {
    if let Err(e) = real_main() {
        exit_with(e);
    }
}
