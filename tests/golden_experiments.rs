//! Golden-run regression suite: bit-exact snapshots of every registry
//! experiment, plus the raw per-run numbers they are derived from.
//!
//! Each experiment's rendered artifact (split at `\n`, one array
//! element per line) and shape-check verdicts are written to
//! `tests/golden/<id>.json`; the underlying `RunResult`s (exact
//! nanosecond times, event counts, per-node finish times and the
//! `.siot` digest of the full I/O trace) go to
//! `tests/golden/runs-escat.json` and `tests/golden/runs-prism.json`.
//! Each registered sweep's rendered table and points (exact
//! nanoseconds and event counts) go to `tests/golden/sweep-<id>.json`.
//! The comparison is **string equality on the rendered JSON** — one
//! nanosecond of drift anywhere fails the suite, which is exactly the
//! guarantee an optimization pass needs: the refactored simulator must
//! be *bit-identical*, not merely "still passes the shape checks".
//!
//! Workflow:
//!
//! * Every snapshot is committed. A missing snapshot fails the suite.
//! * Any mismatch fails with the first differing line.
//! * `UPDATE_GOLDEN=1 cargo test --test golden_experiments` writes
//!   every snapshot. Legitimate only when outputs *intentionally*
//!   changed (new experiment, model fix); never to make an
//!   "optimization" pass.
//!
//! Snapshots are captured at smoke scale so the suite stays cheap
//! enough to run on every commit.

use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::simulator::RunResult;
use sioscope::sweeps::{run_sweep, SweepId};
use sioscope_campaign::json::Json;
use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn update_requested() -> bool {
    matches!(
        std::env::var("UPDATE_GOLDEN").as_deref(),
        Ok("1") | Ok("true")
    )
}

fn nanos(t: Time) -> Json {
    Json::UInt(t.as_nanos())
}

fn by_kind<V>(map: BTreeMap<OpKind, V>, f: impl Fn(V) -> Json) -> Json {
    Json::Object(
        map.into_iter()
            .map(|(k, v)| (format!("{k:?}"), f(v)))
            .collect(),
    )
}

fn run_summary(r: &RunResult) -> Json {
    let s = &r.resilience;
    Json::obj(vec![
        ("name", Json::Str(r.name.clone())),
        ("version", Json::Str(r.version.clone())),
        ("exec_time_ns", nanos(r.exec_time)),
        ("events", Json::UInt(r.events)),
        ("total_io_time_ns", nanos(r.total_io_time())),
        (
            "node_finish_ns",
            Json::Array(r.node_finish.iter().map(|&t| nanos(t)).collect()),
        ),
        ("trace_events", Json::UInt(r.trace.len() as u64)),
        (
            "trace_digest",
            Json::Str(format!("{:016x}", sioscope_trace::binary::digest(&r.trace))),
        ),
        (
            "duration_by_kind_ns",
            by_kind(r.trace.duration_by_kind(), nanos),
        ),
        (
            "bytes_by_kind",
            by_kind(r.trace.bytes_by_kind(), Json::UInt),
        ),
        (
            "resilience",
            Json::obj(vec![
                ("timeouts", Json::UInt(s.timeouts)),
                ("retries", Json::UInt(s.retries)),
                ("reroutes", Json::UInt(s.reroutes)),
                ("degraded_reads", Json::UInt(s.degraded_reads)),
                ("aborts", Json::UInt(s.aborts)),
                ("writethroughs", Json::UInt(s.writethroughs)),
            ]),
        ),
        ("fault_transitions", Json::UInt(r.fault_transitions)),
    ])
}

/// Compare `produced` against the snapshot at `path`, recording a
/// failure on mismatch or when the snapshot is missing. With
/// `UPDATE_GOLDEN=1` the snapshot is (re)written instead.
fn check_snapshot(path: &Path, produced: &str, failures: &mut Vec<String>) {
    if update_requested() {
        std::fs::write(path, produced).expect("write golden snapshot");
        eprintln!("golden: wrote {}", path.display());
        return;
    }
    let Ok(expected) = std::fs::read_to_string(path) else {
        failures.push(format!(
            "{}: snapshot missing; generate it with UPDATE_GOLDEN=1 and commit it",
            path.display()
        ));
        return;
    };
    if expected == produced {
        return;
    }
    let diff_line = expected
        .lines()
        .zip(produced.lines())
        .enumerate()
        .find(|(_, (e, p))| e != p)
        .map(|(i, (e, p))| format!("line {}: golden `{}` vs produced `{}`", i + 1, e, p))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {} vs produced {}",
                expected.lines().count(),
                produced.lines().count()
            )
        });
    failures.push(format!(
        "{}: snapshot mismatch ({diff_line}); if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    ));
}

/// `text` as an array of its lines, split at `\n`.
fn lines(text: &str) -> Json {
    Json::Array(text.split('\n').map(|l| Json::Str(l.to_string())).collect())
}

fn pretty(value: &Json) -> String {
    let mut s = value.render_pretty();
    s.push('\n');
    s
}

#[test]
fn registry_experiments_match_goldens_bit_exact() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for e in Experiment::all() {
        let out = run_experiment(e, Scale::Smoke);
        let value = Json::obj(vec![
            ("id", Json::Str(e.id().to_string())),
            ("title", Json::Str(e.title().to_string())),
            ("rendered", lines(&out.rendered)),
            (
                "checks",
                Json::Array(
                    out.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::Str(c.name.clone())),
                                ("pass", Json::Bool(c.pass)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        check_snapshot(
            &dir.join(format!("{}.json", e.id())),
            &pretty(&value),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn escat_run_results_match_goldens_bit_exact() {
    use sioscope::experiments::escat::run_version;
    use sioscope_workloads::{EscatDataset, EscatVersion};
    let mut runs = BTreeMap::new();
    for v in EscatVersion::progressions() {
        for dataset in [EscatDataset::Ethylene, EscatDataset::CarbonMonoxide] {
            let r = run_version(v, dataset, Scale::Smoke);
            runs.insert(
                format!("escat-{v:?}-{dataset:?}").to_lowercase(),
                run_summary(&r),
            );
        }
    }
    let mut failures = Vec::new();
    check_snapshot(
        &golden_dir().join("runs-escat.json"),
        &pretty(&Json::Object(runs)),
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn prism_run_results_match_goldens_bit_exact() {
    use sioscope::experiments::prism::run_version;
    use sioscope_workloads::PrismVersion;
    let mut runs = BTreeMap::new();
    for v in PrismVersion::all() {
        let r = run_version(v, Scale::Smoke);
        runs.insert(format!("prism-{v:?}").to_lowercase(), run_summary(&r));
    }
    let mut failures = Vec::new();
    check_snapshot(
        &golden_dir().join("runs-prism.json"),
        &pretty(&Json::Object(runs)),
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn sweeps_match_goldens_bit_exact() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for id in SweepId::all() {
        let sweep = run_sweep(id, Scale::Smoke);
        let value = Json::obj(vec![
            ("id", Json::Str(id.id().to_string())),
            ("parameter", Json::Str(sweep.parameter.to_string())),
            ("workload", Json::Str(sweep.workload.clone())),
            ("rendered", lines(&sweep.render())),
            (
                "points",
                Json::Array(
                    sweep
                        .points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("label", Json::Str(p.label.clone())),
                                ("value", Json::UInt(p.value)),
                                ("exec_time_ns", nanos(p.exec_time)),
                                ("io_time_ns", nanos(p.io_time)),
                                ("events", Json::UInt(p.events)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        check_snapshot(
            &dir.join(format!("sweep-{}.json", id.id())),
            &pretty(&value),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
