//! Golden-run regression suite: bit-exact snapshots of every registry
//! experiment, plus the raw per-run numbers they are derived from.
//!
//! Each experiment's rendered artifact (split at `\n`, one array
//! element per line) and shape-check verdicts are written to
//! `tests/golden/<id>.json`; the memoized runs they are derived from
//! (exact nanosecond times, event counts, per-node finish times and the
//! `.siot` digest of the full I/O trace, folded over its index) go to
//! `tests/golden/runs-escat.json` and `tests/golden/runs-prism.json`.
//! Each registered sweep's rendered table and points (exact
//! nanoseconds and event counts) go to `tests/golden/sweep-<id>.json`.
//! The multi-job scheduler's outcomes on the benchmark job stream
//! (per-job times, event counts, attempts and trace digests, plus the
//! schedule's makespan, merged-trace digest and I/O-node utilization
//! bits), fault-free and under seeded crashes and I/O faults, go to
//! `tests/golden/schedule-<case>.json`.
//! The derived benchmark suite (`sioscope_workloads::synthetic`) goes
//! to `tests/golden/synthetic-suite.txt`: at `KernelConfig::small()`,
//! each kernel's name, node count, file table and statement count with
//! its run on the Caltech PFS (exact nanoseconds, events, trace length
//! and `.siot` digest); at `paper_scale()`, each kernel's statement
//! count and declared volume.
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
use sioscope::simulator::{run, RunResult, SimOptions};
use sioscope::sweeps::{run_sweep, SweepId};
use sioscope_campaign::json::Json;
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;
use sioscope_workloads::synthetic::{cray_cyclical, suite, KernelConfig};
use sioscope_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

fn run_summary(r: &RunResult<TraceIndex>) -> Json {
    let s = &r.resilience;
    Json::obj(vec![
        ("name", Json::Str(r.name.clone())),
        ("version", Json::Str(r.version.clone())),
        ("exec_time_ns", nanos(r.exec_time)),
        ("events", Json::UInt(r.events)),
        ("total_io_time_ns", nanos(r.trace.total_io_time())),
        (
            "node_finish_ns",
            Json::Array(r.node_finish.iter().map(|&t| nanos(t)).collect()),
        ),
        ("trace_events", Json::UInt(r.trace.len() as u64)),
        (
            "trace_digest",
            Json::Str(format!(
                "{:016x}",
                sioscope_trace::binary::index_digest(&r.trace)
            )),
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

fn schedule_summary(out: &sioscope::ScheduleOutcome) -> Json {
    let jobs = out
        .per_job
        .iter()
        .zip(&out.stats.jobs)
        .map(|(r, o)| {
            let rec = &r.recovery;
            Json::obj(vec![
                ("label", Json::Str(o.label.clone())),
                ("attempts", Json::UInt(u64::from(o.attempts))),
                ("exec_time_ns", nanos(r.exec_time)),
                ("events", Json::UInt(r.events)),
                (
                    "node_finish_ns",
                    Json::Array(r.node_finish.iter().map(|&t| nanos(t)).collect()),
                ),
                (
                    "checkpoint_commits",
                    Json::Array(
                        r.checkpoint_commits
                            .iter()
                            .map(|&(k, t)| Json::Array(vec![Json::UInt(u64::from(k)), nanos(t)]))
                            .collect(),
                    ),
                ),
                (
                    "recovery",
                    Json::obj(vec![
                        ("crashes", Json::UInt(u64::from(rec.crashes))),
                        ("attempts", Json::UInt(u64::from(rec.attempts))),
                        ("rework_ns", nanos(rec.rework)),
                        ("restart_latency_ns", nanos(rec.restart_latency)),
                        ("time_to_solution_ns", nanos(rec.time_to_solution)),
                    ]),
                ),
                (
                    "trace_digest",
                    Json::Str(format!("{:016x}", sioscope_trace::binary::digest(&r.trace))),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("makespan_ns", nanos(out.stats.makespan)),
        ("total_events", Json::UInt(out.stats.total_events)),
        ("fault_transitions", Json::UInt(out.fault_transitions)),
        (
            "trace_digest",
            Json::Str(format!(
                "{:016x}",
                sioscope_trace::binary::digest(&out.trace)
            )),
        ),
        (
            "ion_utilization_bits",
            Json::Array(
                out.stats
                    .ion_utilization
                    .iter()
                    .map(|u| Json::Str(format!("{:016x}", u.to_bits())))
                    .collect(),
            ),
        ),
        ("jobs", Json::Array(jobs)),
    ])
}

#[test]
fn schedules_match_goldens_bit_exact() {
    use sioscope::experiments::contention::{bench_machine, bench_stream};
    use sioscope::run_schedule;
    use sioscope_faults::{FaultGen, FaultSchedule};
    use sioscope_sched::QueuePolicy;

    // Every job of the benchmark stream is four nodes wide, so EASY
    // could never backfill one past a blocked head. Widen the
    // compute-bound jobs and triple the job count, so jobs queue and
    // the two policies part.
    let mut stream = bench_stream();
    stream.count = 24;
    let wide = &mut stream.templates[1].workload;
    wide.nodes *= 2;
    wide.programs = vec![wide.programs[0].clone(); wide.nodes as usize];
    let schedule = |policy, crashes: &FaultSchedule, cfg| {
        run_schedule(&stream, policy, crashes, cfg).expect("the benchmark stream schedules")
    };
    // The faulted cases draw crashes over every cell of the machine and
    // I/O faults over its I/O nodes, both within the fault-free
    // makespan.
    let machine = bench_machine();
    let horizon = schedule(QueuePolicy::Fcfs, &FaultSchedule::empty(), machine.clone())
        .stats
        .makespan;
    let draw = || FaultGen::new(0x5C4E_D017, horizon, machine.machine.io_nodes);
    let crashes = draw().compute_crash_schedule(
        horizon.scale(0.25),
        Time::from_millis(5),
        machine.machine.compute_nodes,
    );
    let mut faulty = machine.clone();
    faulty.faults = draw().with_events(3).schedule();

    let dir = golden_dir();
    let mut failures = Vec::new();
    for (case, policy, faulted) in [
        ("fcfs", QueuePolicy::Fcfs, false),
        ("easy-backfill", QueuePolicy::EasyBackfill, false),
        ("fcfs-faults", QueuePolicy::Fcfs, true),
        ("easy-backfill-faults", QueuePolicy::EasyBackfill, true),
    ] {
        let out = if faulted {
            schedule(policy, &crashes, faulty.clone())
        } else {
            schedule(policy, &FaultSchedule::empty(), machine.clone())
        };
        if faulted {
            assert!(
                out.stats.jobs.iter().any(|j| j.attempts > 1),
                "{case}: some crash must strike a running job"
            );
            assert!(out.fault_transitions > 0, "{case}: the I/O faults engage");
        }
        check_snapshot(
            &dir.join(format!("schedule-{case}.json")),
            &pretty(&schedule_summary(&out)),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The nine kernels of the derived suite and the single-node Cray
/// contrast, at one configuration.
fn synthetic_kernels(cfg: &KernelConfig) -> Vec<Workload> {
    let mut kernels = suite(cfg);
    kernels.push(cray_cyclical(cfg, 5));
    kernels
}

fn statements(w: &Workload) -> usize {
    w.programs.iter().map(Vec::len).sum()
}

#[test]
fn synthetic_suite_matches_golden_bit_exact() {
    let mut out = String::new();
    for w in synthetic_kernels(&KernelConfig::small()) {
        let files: Vec<String> = w
            .files
            .iter()
            .map(|f| format!("{}:{}", f.name, f.initial_size))
            .collect();
        let r = run(&w, PfsConfig::caltech(w.nodes, w.os), SimOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let _ = writeln!(
            out,
            "small {} nodes={} files=[{}] stmts={} exec_ns={} events={} trace={} digest={:016x}",
            w.name,
            w.nodes,
            files.join(","),
            statements(&w),
            r.exec_time.as_nanos(),
            r.events,
            r.trace.len(),
            sioscope_trace::binary::digest(&r.trace)
        );
    }
    for w in synthetic_kernels(&KernelConfig::paper_scale()) {
        let (read, written) = w.declared_volume();
        let _ = writeln!(
            out,
            "paper_scale {} stmts={} read={read} written={written}",
            w.name,
            statements(&w)
        );
    }
    let mut failures = Vec::new();
    check_snapshot(
        &golden_dir().join("synthetic-suite.txt"),
        &out,
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
