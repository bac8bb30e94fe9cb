//! End-to-end reproduction test: every experiment in the registry must
//! pass all of its shape checks against the paper at full scale.
//!
//! This is the repository's headline guarantee — the qualitative
//! conclusions of Smirni et al. (HPDC 1996) hold on the simulated
//! reproduction: who wins, by roughly what factor, and where the
//! crossovers fall.

use sioscope::experiments::{run_experiment, Experiment, Scale};

#[test]
fn every_experiment_passes_its_shape_checks_at_full_scale() {
    let mut failures = Vec::new();
    for e in Experiment::all() {
        let out = run_experiment(e, Scale::Full);
        for f in out.failures() {
            failures.push(format!("{}: {} — {}", e.id(), f.name, f.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "shape checks failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn escat_execution_times_match_figure_1_shape() {
    use sioscope::experiments::escat::run_version;
    use sioscope_workloads::{EscatDataset, EscatVersion};
    let times: Vec<f64> = EscatVersion::progressions()
        .iter()
        .map(|&v| {
            run_version(v, EscatDataset::Ethylene, Scale::Full)
                .exec_time
                .as_secs_f64()
        })
        .collect();
    // Version A is the slowest, version C the fastest, overall
    // reduction in the paper's ~20% band.
    let a = times[0];
    let c = times[5];
    assert!(
        times.iter().all(|&t| t <= a + 1e-9),
        "A must be slowest: {times:?}"
    );
    assert!(
        times.iter().all(|&t| t >= c - 1e-9),
        "C must be fastest: {times:?}"
    );
    let reduction = (a - c) / a;
    assert!(
        (0.10..=0.32).contains(&reduction),
        "A->C reduction {reduction:.3} outside the paper's band"
    );
}

#[test]
fn table2_version_dominants_match_paper_narrative() {
    use sioscope::experiments::escat::run_version;
    use sioscope_analysis::table::IoTimeTable;
    use sioscope_pfs::OpKind;
    use sioscope_workloads::{EscatDataset, EscatVersion};

    let dominant = |v: EscatVersion| -> OpKind {
        let r = run_version(v, EscatDataset::Ethylene, Scale::Full);
        IoTimeTable::from_durations("x", &r.trace.duration_by_kind())
            .dominant()
            .expect("non-empty")
    };
    // A: open+read era (either may edge the other out); B: the seek
    // regression; C: writes (the remaining real work).
    assert!(matches!(
        dominant(EscatVersion::A),
        OpKind::Open | OpKind::Read
    ));
    assert_eq!(dominant(EscatVersion::B), OpKind::Seek);
    assert_eq!(dominant(EscatVersion::C), OpKind::Write);
}

#[test]
fn prism_read_pathology_of_version_c() {
    use sioscope::experiments::prism::run_version;
    use sioscope_pfs::OpKind;
    use sioscope_sim::Time;
    use sioscope_workloads::PrismVersion;

    // §5.4: "a few small reads can dominate overall I/O time."
    let rc = run_version(PrismVersion::C, Scale::Full);
    let read = rc.trace.duration_of(OpKind::Read);
    let total = rc.trace.total_io_time();
    assert!(
        read.as_secs_f64() / total.as_secs_f64() > 0.5,
        "reads must dominate version C I/O: {read} of {total}"
    );
    // And the small header reads specifically are a visible share:
    // every sub-40-byte read pays a real round trip.
    let small_read: Time = rc
        .trace
        .iter()
        .filter(|e| e.kind == OpKind::Read && e.bytes <= 40)
        .map(|e| e.duration)
        .sum();
    assert!(
        small_read > Time::ZERO,
        "small header reads must be present"
    );
}

#[test]
fn initial_access_patterns_match_section_6_1() {
    // §6.1: "In the initial version of both codes, at least 98 percent
    // of all reads were small..., although the vast majority of data
    // is read via a small number of large requests."
    use sioscope::experiments::{escat, prism};
    use sioscope_analysis::Cdf;
    use sioscope_pfs::OpKind;
    use sioscope_workloads::{EscatDataset, EscatVersion, PrismVersion};

    let escat_a = escat::run_version(EscatVersion::A, EscatDataset::Ethylene, Scale::Full);
    let cdf = Cdf::of_kind(&escat_a.trace, OpKind::Read);
    assert!(
        cdf.fraction_leq(2048) > 0.90,
        "ESCAT A small-read request fraction: {}",
        cdf.fraction_leq(2048)
    );

    let prism_a = prism::run_version(PrismVersion::A, Scale::Full);
    let cdf = Cdf::of_kind(&prism_a.trace, OpKind::Read);
    assert!(
        cdf.fraction_leq(2048) > 0.60,
        "PRISM A small-read request fraction: {}",
        cdf.fraction_leq(2048)
    );
    // Large requests carry the data in both.
    assert!(cdf.weight_fraction_leq(2048) < 0.20);
}

#[test]
fn optimized_access_patterns_match_section_6_2() {
    // §6.2: after optimization, ~45% of ESCAT reads are 128 KB (twice
    // the stripe unit) and carry ~98% of the data.
    use sioscope::experiments::escat::run_version;
    use sioscope_analysis::Cdf;
    use sioscope_pfs::OpKind;
    use sioscope_workloads::{EscatDataset, EscatVersion};

    let rc = run_version(EscatVersion::C, EscatDataset::Ethylene, Scale::Full);
    let cdf = Cdf::of_kind(&rc.trace, OpKind::Read);
    let large_requests = 1.0 - cdf.fraction_leq(128 * 1024 - 1);
    let large_data = 1.0 - cdf.weight_fraction_leq(128 * 1024 - 1);
    assert!(
        (0.2..=0.8).contains(&large_requests),
        "share of 128 KB reads: {large_requests}"
    );
    assert!(large_data > 0.9, "data via 128 KB reads: {large_data}");
}
