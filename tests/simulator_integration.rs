//! Cross-crate integration tests: workload generation → simulation →
//! trace → analysis, exercised together at smoke scale.

use sioscope::simulator::{run, SimOptions};
use sioscope_analysis::{classify_file, Cdf, IoClass, Timeline};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::{Pid, Time};
use sioscope_trace::{FileRegionSummary, LifetimeSummary, TimeWindowSummary, TraceIndex};
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion};

fn run_escat(v: EscatVersion) -> sioscope::simulator::RunResult {
    let w = EscatConfig::tiny(v).build();
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    run(&w, cfg, SimOptions::default()).expect("runs")
}

fn run_prism(v: PrismVersion) -> sioscope::simulator::RunResult {
    let w = PrismConfig::tiny(v).build();
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    run(&w, cfg, SimOptions::default()).expect("runs")
}

#[test]
fn traces_satisfy_global_invariants() {
    for r in [
        run_escat(EscatVersion::A),
        run_escat(EscatVersion::B),
        run_escat(EscatVersion::C),
        run_prism(PrismVersion::A),
        run_prism(PrismVersion::B),
        run_prism(PrismVersion::C),
    ] {
        // Every event's interval fits in `Time`, and it ends no later
        // than the run does.
        for e in r.trace.events() {
            assert!(
                e.start
                    .as_nanos()
                    .checked_add(e.duration.as_nanos())
                    .is_some(),
                "{}: event interval overflows",
                r.name
            );
            assert!(e.end() <= r.exec_time, "{}: event past exec end", r.name);
        }
        // Sorted by construction after run().
        for pair in r.trace.events().windows(2) {
            assert!(pair[0].start <= pair[1].start, "{}: unsorted trace", r.name);
        }
        // Per-pid events are non-overlapping (a process issues one
        // call at a time).
        let mut per_pid: std::collections::HashMap<Pid, Vec<(Time, Time)>> =
            std::collections::HashMap::new();
        for e in r.trace.events() {
            per_pid.entry(e.pid).or_default().push((e.start, e.end()));
        }
        for (pid, mut spans) in per_pid {
            spans.sort();
            for pair in spans.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].1,
                    "{}: {pid:?} has overlapping I/O calls",
                    r.name
                );
            }
        }
    }
}

#[test]
fn conservation_of_bytes_between_workload_and_trace() {
    for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
        let w = EscatConfig::tiny(v).build();
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r = run(&w, cfg, SimOptions::default()).expect("runs");
        let (declared_read, declared_written) = w.declared_volume();
        let b = r.trace.into_index().bytes_by_kind();
        assert_eq!(b.get(&OpKind::Read).copied().unwrap_or(0), declared_read);
        assert_eq!(
            b.get(&OpKind::Write).copied().unwrap_or(0),
            declared_written
        );
    }
}

#[test]
fn summaries_are_consistent_with_raw_trace() {
    let r = run_prism(PrismVersion::B);
    let index = TraceIndex::build(r.trace.events());
    // Lifetime summaries partition the trace by file: per-kind counts
    // summed across files equal global counts.
    let mut total_reads = 0;
    for f in 0..9u32 {
        let s = LifetimeSummary::from_index(&index, sioscope_sim::FileId(f));
        total_reads += s.per_kind.get(&OpKind::Read).map(|x| x.count).unwrap_or(0);
    }
    let reads = r.trace.events().iter().filter(|e| e.kind == OpKind::Read);
    assert_eq!(total_reads, reads.count() as u64);

    // A window covering everything equals the whole trace.
    let w = TimeWindowSummary::from_index(&index, Time::ZERO, r.exec_time + Time::from_secs(1));
    let total: u64 = w.per_kind.values().map(|s| s.count).sum();
    assert_eq!(total, r.trace.len() as u64);

    // A region covering all offsets of one file equals that file's
    // data ops.
    let restart = sioscope_sim::FileId(1);
    let region = FileRegionSummary::from_index(&index, restart, 0, u64::MAX);
    let lifetime = LifetimeSummary::from_index(&index, restart);
    let data_ops = lifetime
        .per_kind
        .iter()
        .filter(|(k, _)| matches!(k, OpKind::Read | OpKind::Write))
        .map(|(_, s)| s.count)
        .sum::<u64>();
    assert_eq!(region.accesses(), data_ops);
}

#[test]
fn analysis_pipeline_runs_over_real_traces() {
    let r = run_escat(EscatVersion::C);
    let index = TraceIndex::build(r.trace.events());
    let cdf = Cdf::of_kind(&index, OpKind::Write);
    assert!(!cdf.is_empty());
    assert!(cdf.fraction_leq(u64::MAX) > 0.999);
    let tl = Timeline::of_kind(&index, OpKind::Write);
    assert!(!tl.is_empty());
    assert!(tl.end().unwrap() <= r.exec_time);
    let ds = tl.downsample(10);
    assert!(ds.len() <= 10);
    assert_eq!(ds.max_value(), tl.max_value());
}

#[test]
fn determinism_across_full_pipeline() {
    let a1 = run_prism(PrismVersion::C);
    let a2 = run_prism(PrismVersion::C);
    assert_eq!(a1.exec_time, a2.exec_time);
    assert_eq!(a1.events, a2.events);
    assert_eq!(a1.trace.events(), a2.trace.events());
}

#[test]
fn node_zero_does_all_phase_two_io_in_prism() {
    let r = run_prism(PrismVersion::A);
    // Files 3..=6 and 8 (measurement, stats, history) are node-zero
    // territory in every version.
    for f in [3u32, 4, 5, 6, 8] {
        let file = sioscope_sim::FileId(f);
        for e in r.trace.events().iter().filter(|e| e.file == file) {
            assert_eq!(e.pid, Pid(0), "file {f} touched by {:?}", e.pid);
        }
    }
}

#[test]
fn escat_version_c_has_no_expensive_seeks() {
    let rb = run_escat(EscatVersion::B);
    let rc = run_escat(EscatVersion::C);
    let max_seek = |r: &sioscope::simulator::RunResult| {
        r.trace
            .events()
            .iter()
            .filter(|e| e.kind == OpKind::Seek)
            .map(|e| e.duration)
            .max()
            .unwrap_or(Time::ZERO)
    };
    assert!(
        max_seek(&rb) > max_seek(&rc) * 10,
        "B {} vs C {}",
        max_seek(&rb),
        max_seek(&rc)
    );
}

#[test]
fn miller_katz_classification_matches_the_papers_phase_taxonomy() {
    // §4: ESCAT's quadrature files are data staging, its inputs are
    // compulsory reads and its outputs compulsory writes.
    let w = EscatConfig::tiny(EscatVersion::C);
    let built = w.build();
    let cfg = PfsConfig::caltech(built.nodes, built.os);
    let r = run(&built, cfg, SimOptions::default()).expect("runs");
    let gap = Time::from_secs(1);
    for f in 0..3u32 {
        assert_eq!(
            classify_file(r.trace.events(), sioscope_sim::FileId(f), gap).class,
            IoClass::CompulsoryInput,
            "escat input {f}"
        );
    }
    for f in 3..5u32 {
        assert_eq!(
            classify_file(r.trace.events(), sioscope_sim::FileId(f), gap).class,
            IoClass::DataStaging,
            "escat quadrature {f}"
        );
    }
    for f in 5..7u32 {
        assert_eq!(
            classify_file(r.trace.events(), sioscope_sim::FileId(f), gap).class,
            IoClass::CompulsoryOutput,
            "escat output {f}"
        );
    }

    // §5: PRISM's statistics files are checkpoint I/O; the parameter /
    // restart / connectivity files are compulsory inputs; the field
    // file is a compulsory output.
    let w = PrismConfig::tiny(PrismVersion::C);
    let built = w.build();
    let cfg = PfsConfig::caltech(built.nodes, built.os);
    let r = run(&built, cfg, SimOptions::default()).expect("runs");
    // Checkpoint gap: half a checkpoint interval of compute.
    let gap = Time::from_millis(50 * 2);
    for f in 0..3u32 {
        assert_eq!(
            classify_file(r.trace.events(), sioscope_sim::FileId(f), gap).class,
            IoClass::CompulsoryInput,
            "prism input {f}"
        );
    }
    for f in 4..7u32 {
        assert_eq!(
            classify_file(r.trace.events(), sioscope_sim::FileId(f), gap).class,
            IoClass::Checkpoint,
            "prism stats {f}"
        );
    }
    assert_eq!(
        classify_file(r.trace.events(), sioscope_sim::FileId(7), gap).class,
        IoClass::CompulsoryOutput,
        "prism field"
    );
}

#[test]
fn phase_detection_recovers_prism_structure() {
    // PRISM's three-phase structure (§5): initialization reads, a long
    // write-dominated integration, final field output — recoverable
    // from the trace alone.
    let w = PrismConfig::test_problem(PrismVersion::A).build();
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    let r = run(&w, cfg, SimOptions::default()).expect("runs");
    let phases =
        sioscope_analysis::detect_phases_indexed(&r.trace.into_index(), Time::from_secs(40));
    assert!(
        phases.len() >= 3,
        "expected at least 3 phases, got {}",
        phases.len()
    );
    // The first phase is the compulsory reads.
    assert_eq!(
        phases[0].kind,
        sioscope_analysis::PhaseKind::ReadDominant,
        "first phase must be the initialization reads"
    );
    // The bulk of written bytes lands after the first phase.
    let later_writes: u64 = phases[1..].iter().map(|p| p.bytes_written).sum();
    assert!(later_writes > phases[0].bytes_written);
    // Phases are time-ordered and non-overlapping.
    for pair in phases.windows(2) {
        assert!(pair[0].end <= pair[1].start);
    }
}

#[test]
fn log_histogram_matches_cdf_on_real_trace() {
    let r = run_escat(EscatVersion::A);
    let sizes: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::Read)
        .map(|e| e.bytes)
        .collect();
    let hist = sioscope_analysis::LogHistogram::from_samples(sizes.iter().copied());
    let cdf = Cdf::from_samples(sizes);
    assert_eq!(hist.total(), cdf.n());
    // The histogram's mode bin is consistent with the CDF's median
    // bin for this small-read-dominated trace.
    let (mode_lo, _) = hist.mode_bin().expect("non-empty");
    let median = cdf.quantile(0.5).expect("non-empty");
    assert!(median >= mode_lo / 2 && median < mode_lo * 4);
}

#[test]
fn interarrival_structure_distinguishes_node_roles() {
    // PRISM node zero writes measurement records on a fixed step
    // cadence — a (relatively) regular stream; the paper's
    // applications overall are irregular (§2 contrast).
    let w = PrismConfig::test_problem(PrismVersion::A).build();
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    let r = run(&w, cfg, SimOptions::default()).expect("runs");
    let node0_writes: Vec<Time> = r
        .trace
        .events()
        .iter()
        .filter(|e| e.pid == Pid(0) && e.kind == OpKind::Write && e.file.0 == 3)
        .map(|e| e.start)
        .collect();
    let ia =
        sioscope_analysis::interarrival::of_starts(&node0_writes).expect("many measurement writes");
    // Jittered 5-step cadence: low coefficient of variation.
    assert!(ia.cv < 0.5, "measurement stream CV {}", ia.cv);
    // The whole-trace request sizes span orders of magnitude (the
    // paper's irregularity claim).
    let cdf = Cdf::of_kind(&r.trace.into_index(), OpKind::Read);
    let lo = cdf.quantile(0.0).expect("reads");
    let hi = cdf.quantile(1.0).expect("reads");
    assert!(hi / lo.max(1) > 1000, "read sizes {lo}..{hi}");
}
