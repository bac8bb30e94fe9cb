//! # sioscope-bench
//!
//! Command-line tools for the sioscope reproduction:
//!
//! * the `repro` binary regenerates **every table and figure** of the
//!   paper (run `cargo run -p sioscope-bench --bin repro --release`),
//!   printing each artifact with its shape checks against the paper's
//!   published values;
//! * `campaign`, `chaos` and `characterize` drive the campaign engine,
//!   the fault soak and offline trace characterization.
//!
//! This crate holds the command-line helpers they share.

use sioscope::experiments::Experiment;
use sioscope::sweeps::SweepId;
use sioscope_campaign::CliError;
use sioscope_faults::{FaultKind, FaultSchedule, Tier};
use sioscope_pfs::BackendKind;
use sioscope_sim::Time;
use std::path::Path;

/// The fault-validation tier a storage backend interprets its
/// schedules against (the burst tier's *inner* PFS schedule is
/// validated separately, against [`Tier::Pfs`]).
pub(crate) fn backend_tier(kind: BackendKind) -> Tier {
    match kind {
        BackendKind::Pfs => Tier::Pfs,
        BackendKind::Object => Tier::Object,
        BackendKind::Burst => Tier::Burst,
    }
}

/// The usage error (exit code 2) for a fault schedule the chosen tier
/// cannot express: every problem, then the tier's valid fault set.
pub fn fault_mismatch_error(kind: BackendKind, problems: &[String]) -> CliError {
    let tier = backend_tier(kind);
    CliError::BadArgs(format!(
        "fault schedule invalid for the {} tier:\n  {}\nvalid faults on {}: {}",
        kind.id(),
        problems.join("\n  "),
        tier,
        tier.valid_fault_labels().join(", ")
    ))
}

/// Every fault label any tier can express, for diagnostics: each
/// tier's valid set in tier order, without repeats.
fn all_fault_labels() -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = Vec::new();
    for tier in [Tier::Pfs, Tier::Object, Tier::Burst, Tier::Stream] {
        for &label in tier.valid_fault_labels() {
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
    }
    labels
}

/// Parse a `--faults` spec: a comma list of `label@frac` events, each
/// placed at `frac`× the run horizon with canned parameters (windows
/// span 20% of the horizon, slowdown factors are 2×). The spec is
/// *not* tier-checked here — that is the job of
/// `BackendConfig::validate_faults`, so a cross-tier schedule fails
/// through [`fault_mismatch_error`] naming the valid set rather than
/// being rejected ad hoc at parse time.
pub fn parse_fault_spec(spec: &str, horizon: Time) -> Result<FaultSchedule, CliError> {
    let window = horizon.scale(0.2).max(Time::from_millis(1));
    let mut schedule = FaultSchedule::empty();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (label, frac) = match part.split_once('@') {
            Some((l, f)) => {
                let frac: f64 = f.parse().map_err(|_| {
                    CliError::BadArgs(format!("bad fault placement `{part}` (want label@frac)"))
                })?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err(CliError::BadArgs(format!(
                        "fault placement `{part}` outside [0, 1]"
                    )));
                }
                (l, frac)
            }
            None => (part, 0.5),
        };
        let kind = match label {
            "latent-sector" => FaultKind::LatentSector {
                ion: 0,
                duration: window,
                penalty: Time::from_millis(5),
            },
            "spindle-failure" => FaultKind::SpindleFailure {
                ion: 0,
                rebuild: Some(window),
            },
            "ion-crash" => FaultKind::IonCrash {
                ion: 0,
                restart: window,
            },
            "ion-slowdown" => FaultKind::IonSlowdown {
                ion: 0,
                duration: window,
                factor: 2.0,
            },
            "link-congestion" => FaultKind::LinkCongestion {
                duration: window,
                factor: 2.0,
            },
            "compute-crash" => FaultKind::ComputeNodeCrash {
                node: 0,
                rework: window,
            },
            "md-shard-outage" => FaultKind::MetadataShardOutage {
                shard: 0,
                duration: window,
            },
            "degraded-service" => FaultKind::DegradedService {
                duration: window,
                factor: 2.0,
            },
            "drain-stall" => FaultKind::DrainStall { duration: window },
            "burst-crash" => FaultKind::BurstNodeCrash { repair: window },
            "consumer-crash" => FaultKind::ConsumerCrash { stall: window },
            other => {
                return Err(CliError::BadArgs(format!(
                    "unknown fault label `{other}`; known labels: {}",
                    all_fault_labels().join(", ")
                )))
            }
        };
        schedule.push(horizon.scale(frac), kind);
    }
    Ok(schedule)
}

/// Whether an artifact at `path` can be trusted by `--resume`: it must
/// be a readable, non-empty file, and a `.json` artifact must actually
/// parse — a file that exists but holds truncated or corrupt JSON is
/// regenerated, not skipped. (Artifacts written through
/// [`sioscope_campaign::write_atomic`] are never truncated by a crash, but artifacts from
/// older runs, other tools, or interrupted copies can be.)
pub fn artifact_resumable(path: &Path) -> bool {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return false;
    };
    if contents.is_empty() {
        return false;
    }
    if path.extension().is_some_and(|e| e == "json") {
        return sioscope_campaign::json::Json::parse(&contents).is_ok();
    }
    true
}

/// Parse experiment filters from CLI arguments; empty = all.
///
/// Unknown identifiers are an error, not a no-op: `Err` carries every
/// unrecognized ID so the caller can report all of them at once.
pub fn try_experiments_from_args(args: &[String]) -> Result<Vec<Experiment>, Vec<String>> {
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if filters.is_empty() {
        return Ok(Experiment::all());
    }
    let mut selected = Vec::new();
    let mut unknown = Vec::new();
    for f in filters {
        match Experiment::from_id(f) {
            Some(e) => selected.push(e),
            None => unknown.push(f.clone()),
        }
    }
    if unknown.is_empty() {
        Ok(selected)
    } else {
        Err(unknown)
    }
}

/// Parse the `--sweeps[=id,id,...]` flag.
///
/// * No flag → `Ok(None)` (no sweeps requested).
/// * Bare `--sweeps` → every sweep.
/// * `--sweeps=a,b` → exactly those, in registry order.
///
/// Unknown ids are an error, not a no-op — `Err` carries every
/// unrecognized id so a typo cannot silently shrink the sweep set
/// (the bug this replaces: `--sweeps` ignored its argument entirely).
pub fn try_sweeps_from_args(args: &[String]) -> Result<Option<Vec<SweepId>>, Vec<String>> {
    let mut requested: Option<Vec<&str>> = None;
    for a in args {
        if a == "--sweeps" {
            requested.get_or_insert_with(Vec::new);
        } else if let Some(list) = a.strip_prefix("--sweeps=") {
            requested
                .get_or_insert_with(Vec::new)
                .extend(list.split(',').filter(|s| !s.is_empty()));
        }
    }
    let Some(filters) = requested else {
        return Ok(None);
    };
    if filters.is_empty() {
        return Ok(Some(SweepId::all()));
    }
    let mut unknown: Vec<String> = Vec::new();
    let mut wanted = Vec::new();
    for f in &filters {
        match SweepId::from_id(f) {
            Some(s) => wanted.push(s),
            None => unknown.push((*f).to_string()),
        }
    }
    if !unknown.is_empty() {
        return Err(unknown);
    }
    // Registry order, deduplicated.
    Ok(Some(
        SweepId::all()
            .into_iter()
            .filter(|s| wanted.contains(s))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_campaign::cliutil::{tmp_sibling, write_atomic};

    #[test]
    fn args_filtering() {
        let all = try_experiments_from_args(&[]).unwrap();
        assert_eq!(all.len(), Experiment::all().len());
        let one = try_experiments_from_args(&["escat-table2".to_string()]).unwrap();
        assert_eq!(one, vec![Experiment::EscatTable2]);
    }

    #[test]
    fn unknown_ids_are_an_error_listing_every_offender() {
        let err = try_experiments_from_args(&[
            "bogus".to_string(),
            "escat-table2".to_string(),
            "also-bogus".to_string(),
        ])
        .unwrap_err();
        assert_eq!(err, vec!["bogus".to_string(), "also-bogus".to_string()]);
    }

    #[test]
    fn flags_are_ignored_by_the_filter() {
        let got = try_experiments_from_args(&["--sweeps".to_string()]).unwrap();
        assert_eq!(got.len(), Experiment::all().len());
    }

    #[test]
    fn sweeps_flag_absent_bare_and_selective() {
        assert_eq!(try_sweeps_from_args(&[]).unwrap(), None);
        assert_eq!(
            try_sweeps_from_args(&["--sweeps".to_string()]).unwrap(),
            Some(SweepId::all())
        );
        let got = try_sweeps_from_args(&["--sweeps=stripe_unit,io_nodes".to_string()]).unwrap();
        // Selection is reported in registry order regardless of the
        // order the ids were given in.
        assert_eq!(got, Some(vec![SweepId::IoNodes, SweepId::StripeUnit]));
    }

    #[test]
    fn unknown_sweep_ids_are_an_error_listing_every_offender() {
        let err =
            try_sweeps_from_args(&["--sweeps=io_nodes,bogus,also-bogus".to_string()]).unwrap_err();
        assert_eq!(err, vec!["bogus".to_string(), "also-bogus".to_string()]);
    }

    #[test]
    fn cli_error_exit_codes_are_stable() {
        assert_eq!(CliError::BadArgs("x".into()).exit_code(), 2);
        let io = CliError::io("/nope/artifact.txt", std::io::Error::other("disk on fire"));
        assert_eq!(io.exit_code(), 3);
        let msg = io.to_string();
        assert!(
            msg.contains("/nope/artifact.txt"),
            "I/O errors must name the failing path: {msg}"
        );
        assert_eq!(CliError::GoldenMismatch("x".into()).exit_code(), 4);
    }

    #[test]
    fn write_atomic_lands_contents_and_cleans_its_scratch() {
        let dir = std::env::temp_dir().join(format!("sioscope-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        // Overwrites go through the same staged rename.
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(
            !tmp_sibling(&path).exists(),
            "no .tmp straggler after a clean write"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_reports_the_failing_path() {
        let path = Path::new("/nonexistent-sioscope-dir/artifact.txt");
        let err = write_atomic(path, "x").unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("nonexistent-sioscope-dir"));
    }

    #[test]
    fn resume_trusts_only_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!("sioscope-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing and empty files are never resumable.
        assert!(!artifact_resumable(&dir.join("missing.txt")));
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();
        assert!(!artifact_resumable(&empty));

        // Non-JSON artifacts only need contents.
        let txt = dir.join("escat-table2.txt");
        std::fs::write(&txt, "rendered table\n").unwrap();
        assert!(artifact_resumable(&txt));

        // JSON artifacts must parse: a truncated checks.json from a
        // pre-write_atomic run (or an interrupted copy) is regenerated.
        let json = dir.join("checks.json");
        std::fs::write(&json, r#"[{"experiment": "escat-table2", "pass": true}]"#).unwrap();
        assert!(artifact_resumable(&json));
        std::fs::write(&json, r#"[{"experiment": "escat-ta"#).unwrap();
        assert!(!artifact_resumable(&json));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_spec_parses_and_places_events() {
        let horizon = Time::from_secs(10);
        let s = parse_fault_spec("ion-crash@0.5,drain-stall", horizon).unwrap();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].at, Time::from_secs(5));
        assert!(s.engages());

        let err = parse_fault_spec("warp-core-breach@0.5", horizon).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("known labels"));

        let err = parse_fault_spec("ion-crash@1.5", horizon).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_fault_label_lists_every_label() {
        let err = parse_fault_spec("warp-core-breach@0.5", Time::from_secs(10)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown fault label `warp-core-breach`; known labels: latent-sector, \
             spindle-failure, ion-crash, ion-slowdown, link-congestion, compute-crash, \
             md-shard-outage, degraded-service, drain-stall, burst-crash, consumer-crash"
        );
    }

    #[test]
    fn fault_mismatch_is_a_usage_error_naming_the_valid_set() {
        let problems = vec!["event 0: drain-stall is not a fault of the pfs tier".to_string()];
        let err = fault_mismatch_error(BackendKind::Pfs, &problems);
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("valid faults on pfs"));
        assert!(msg.contains("ion-crash"));
        let burst = fault_mismatch_error(BackendKind::Burst, &problems).to_string();
        assert!(burst.contains("drain-stall") && burst.contains("burst-crash"));
    }

    #[test]
    fn cross_tier_spec_fails_fast_through_backend_validation() {
        use sioscope_pfs::{BackendConfig, ObjectStoreConfig};
        let faults = parse_fault_spec("drain-stall@0.2", Time::from_secs(10)).unwrap();
        let mut obj = ObjectStoreConfig::modern(4);
        obj.faults = faults;
        let cfg = BackendConfig::Object(obj);
        let problems = cfg.validate_faults(4);
        assert!(!problems.is_empty());
        let err = fault_mismatch_error(BackendKind::Object, &problems);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("valid faults on object"));
    }

    #[test]
    fn stream_experiments_and_depth_sweep_are_selectable() {
        let got =
            try_experiments_from_args(&["stream-prism".to_string(), "stream-vs-file".to_string()])
                .unwrap();
        assert_eq!(got, vec![Experiment::StreamPrism, Experiment::StreamVsFile]);
        let sweeps = try_sweeps_from_args(&["--sweeps=staging_depth".to_string()]).unwrap();
        assert_eq!(sweeps, Some(vec![SweepId::StagingDepth]));
        // Near-miss ids stay usage errors naming the unknown id.
        let err = try_experiments_from_args(&["stream-vs-pfs".to_string()]).unwrap_err();
        assert_eq!(err, vec!["stream-vs-pfs".to_string()]);
        let err = try_sweeps_from_args(&["--sweeps=staging-depth".to_string()]).unwrap_err();
        assert_eq!(err, vec!["staging-depth".to_string()]);
    }

    #[test]
    fn consumer_crash_parses_but_stays_stream_only() {
        use sioscope_pfs::mode::OsRelease;
        use sioscope_pfs::{BackendConfig, PfsConfig};
        let horizon = Time::from_secs(10);
        let faults = parse_fault_spec("consumer-crash@0.3", horizon).unwrap();
        assert_eq!(faults.events.len(), 1);
        assert_eq!(faults.events[0].at, Time::from_secs(3));
        // On a storage tier the same schedule is a cross-tier usage
        // error, exit 2, naming the tier's valid set.
        let mut pfs = PfsConfig::caltech(4, OsRelease::Osf13);
        pfs.faults = faults;
        let cfg = BackendConfig::Pfs(pfs);
        let problems = cfg.validate_faults(4);
        assert!(!problems.is_empty(), "consumer-crash must not pass on pfs");
        let err = fault_mismatch_error(BackendKind::Pfs, &problems);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("valid faults on pfs"));
    }

    #[test]
    fn resilience_experiments_are_selectable() {
        let got = try_experiments_from_args(&[
            "resilience-escat".to_string(),
            "resilience-prism".to_string(),
        ])
        .unwrap();
        assert_eq!(
            got,
            vec![Experiment::ResilienceEscat, Experiment::ResiliencePrism]
        );
    }

    #[test]
    fn scheduler_experiments_and_load_sweep_are_selectable() {
        let got = try_experiments_from_args(&[
            "contention-mix".to_string(),
            "backfill-vs-fcfs".to_string(),
        ])
        .unwrap();
        assert_eq!(
            got,
            vec![Experiment::ContentionMix, Experiment::BackfillVsFcfs]
        );
        let sweeps = try_sweeps_from_args(&["--sweeps=load_factor".to_string()]).unwrap();
        assert_eq!(sweeps, Some(vec![SweepId::LoadFactor]));
    }
}
