//! Offline trace characterization — the Pablo post-processing toolkit
//! as a command-line tool.
//!
//! ```text
//! # Simulate and export a trace:
//! cargo run -p sioscope-bench --bin characterize --release -- --demo trace.siot
//! # The same request stream through a modern tier:
//! cargo run -p sioscope-bench --bin characterize --release -- --backend object --demo trace.siot
//! # Fault-engaged demo (tier-checked; prints resilience counters):
//! cargo run -p sioscope-bench --bin characterize --release -- --backend object --faults md-shard-outage@0.3 --demo trace.siot
//! # Characterize any exported .siot trace:
//! cargo run -p sioscope-bench --bin characterize --release -- trace.siot
//! ```
//!
//! Prints the full §6 characterization: request-size distribution
//! (histogram + CDF landmarks), I/O parallelism (concurrency, node
//! balance), access-mode usage, Miller–Katz classification, detected
//! phases, and windowed bandwidth/burstiness.

use sioscope_analysis::classify::class_totals;
use sioscope_analysis::{
    classify_all, detect_phases_indexed, phases, BandwidthSeries, Cdf, ConcurrencyProfile,
    LogHistogram, ModeUsage, NodeBalance,
};
use sioscope_campaign::{exit_with, CliError};
use sioscope_pfs::OpKind;
use sioscope_sim::{Pid, Time};
use sioscope_trace::TraceRecorder;
use std::path::Path;

fn load(path: &Path) -> TraceRecorder {
    sioscope_trace::binary::read_file(path).unwrap_or_else(|e| exit_with(CliError::io(path, e)))
}

fn write_demo(path: &Path, backend: sioscope_pfs::BackendKind, fault_spec: Option<&str>) {
    use sioscope::canon::tier_config;
    use sioscope::simulator::{run_backend, SimOptions};
    use sioscope_bench::{fault_mismatch_error, parse_fault_spec};
    use sioscope_faults::FaultSchedule;
    use sioscope_pfs::BackendKind;
    use sioscope_workloads::{EscatConfig, EscatVersion};
    let w = EscatConfig::tiny(EscatVersion::B).build();
    let cfg = |faults: FaultSchedule| tier_config(backend, &w, faults);
    let faults = match fault_spec {
        None => FaultSchedule::empty(),
        Some(spec) => {
            // The horizon the spec's fractional placements scale to:
            // the fault-free run of the same demo.
            let horizon = run_backend(&w, &cfg(FaultSchedule::empty()), SimOptions::default())
                .expect("fault-free demo run")
                .exec_time;
            let faults = parse_fault_spec(spec, horizon).unwrap_or_else(|e| exit_with(e));
            // Fail fast, exit 2, naming the tier's valid fault set —
            // before any faulted simulation runs.
            let problems = cfg(faults.clone()).validate_faults(w.nodes);
            if !problems.is_empty() {
                exit_with(fault_mismatch_error(backend, &problems));
            }
            faults
        }
    };
    let r = run_backend(&w, &cfg(faults), SimOptions::default()).expect("demo runs");
    if let Err(e) = sioscope_trace::binary::write_file(&r.trace, path) {
        exit_with(CliError::io(path, e));
    }
    println!(
        "wrote demo trace ({} events from {} on the {} tier) to {}",
        r.trace.len(),
        r.name,
        backend.id(),
        path.display()
    );
    if fault_spec.is_some() {
        // Per-tier resilience counters: on the object tier these are
        // the metadata failover ladder, on the burst tier the
        // write-through fallback, on the PFS the retry/reroute policy.
        let z = r.resilience;
        println!(
            "resilience ({} tier): {} timeouts, {} retries, {} reroutes, {} degraded reads, {} aborts, {} writethroughs ({} fault transitions)",
            backend.id(),
            z.timeouts,
            z.retries,
            z.reroutes,
            z.degraded_reads,
            z.aborts,
            z.writethroughs,
            r.fault_transitions,
        );
        let s = r.backend_stats;
        if backend == BackendKind::Burst {
            println!(
                "burst ledger: {} B logged = {} drained + {} resident + {} lost; {} passthrough ops",
                s.bytes_logged, s.bytes_drained, s.bytes_resident, s.bytes_lost, s.passthrough_ops
            );
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --backend <id> selects the storage tier the --demo simulation
    // runs against (characterization itself is tier-agnostic).
    let mut backend = sioscope_pfs::BackendKind::Pfs;
    let tier_ids: Vec<&str> = sioscope_pfs::BackendKind::all()
        .iter()
        .map(|b| b.id())
        .collect();
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let id = match args.get(i + 1) {
            Some(id) => id.clone(),
            None => exit_with(CliError::BadArgs(format!(
                "--backend requires a tier id ({})",
                tier_ids.join(", ")
            ))),
        };
        backend = match sioscope_pfs::BackendKind::from_id(&id) {
            Some(b) => b,
            None => exit_with(CliError::BadArgs(format!(
                "unknown backend `{id}` (expected one of: {})",
                tier_ids.join(", ")
            ))),
        };
        args.drain(i..=i + 1);
    }
    // --faults <spec> injects a fault schedule into the --demo run:
    // a comma list of label@frac events (e.g. `ion-crash@0.3`), each
    // validated against the chosen tier's fault vocabulary before
    // anything simulates.
    let mut fault_spec: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--faults") {
        match args.get(i + 1) {
            Some(spec) => fault_spec = Some(spec.clone()),
            None => exit_with(CliError::BadArgs(
                "--faults requires a schedule spec (label@frac, comma-separated)".into(),
            )),
        }
        args.drain(i..=i + 1);
    }
    if args.is_empty() {
        exit_with(CliError::BadArgs(format!(
            "usage: characterize [--backend <{}>] [--faults <label@frac,...>] [--demo] <trace.siot>",
            tier_ids.join("|")
        )));
    }
    let (demo, path) = if args[0] == "--demo" {
        match args.get(1) {
            Some(p) => (true, Path::new(p).to_path_buf()),
            None => exit_with(CliError::BadArgs("--demo requires an output path".into())),
        }
    } else {
        (false, Path::new(&args[0]).to_path_buf())
    };
    if fault_spec.is_some() && !demo {
        exit_with(CliError::BadArgs(
            "--faults only applies to a --demo simulation (an exported trace has no fault process)"
                .into(),
        ));
    }
    if demo {
        write_demo(&path, backend, fault_spec.as_deref());
    }
    let trace = load(&path);
    let events = trace.events();
    // One O(n log n) index build; every query below is a postings
    // lookup or a binary search against it instead of a fresh scan.
    let index = trace.index();
    println!(
        "trace: {} events, {} total I/O time, last completion {}\n",
        trace.len(),
        trace.total_io_time(),
        trace.last_completion()
    );

    // Request sizes.
    let reads = Cdf::of_kind(index, OpKind::Read);
    let writes = Cdf::of_kind(index, OpKind::Write);
    println!(
        "reads : {} requests, median {} B, p95 {} B, <=2 KB {:.1}%",
        reads.n(),
        reads.quantile(0.5).unwrap_or(0),
        reads.quantile(0.95).unwrap_or(0),
        100.0 * reads.fraction_leq(2048),
    );
    println!(
        "writes: {} requests, median {} B, p95 {} B",
        writes.n(),
        writes.quantile(0.5).unwrap_or(0),
        writes.quantile(0.95).unwrap_or(0),
    );
    let hist = LogHistogram::of_kind(index, OpKind::Read);
    println!("\n{}", hist.render("read-size histogram (log2 bins):", 40));

    // Parallelism.
    let conc = ConcurrencyProfile::from_index(index);
    let bal = NodeBalance::from_index(index);
    println!(
        "parallelism: peak {} concurrent calls, {:.1} mean while active; gini {:.2}, node-0 share {:.0}%",
        conc.peak,
        conc.mean_active,
        bal.gini(),
        100.0 * bal.share(Pid(0)),
    );

    // Modes.
    let modes = ModeUsage::from_index(index);
    println!("\n{}", modes.render("access-mode usage:"));

    // Classification.
    let classes = classify_all(events, Time::from_secs(30));
    println!("Miller-Katz classes:");
    for (label, (bytes, time)) in class_totals(&classes) {
        println!(
            "  {label:<22} {:>10.1} MB {:>10.2}s",
            bytes as f64 / 1e6,
            time.as_secs_f64()
        );
    }

    // Phases.
    let detected = detect_phases_indexed(index, Time::from_secs(30));
    println!("\ndetected phases (30 s gap threshold):");
    print!("{}", phases::render(&detected));

    // Interarrival regularity (per-node median CV).
    let ias = sioscope_analysis::interarrival::per_process_indexed(index);
    if !ias.is_empty() {
        let mut cvs: Vec<f64> = ias.values().map(|ia| ia.cv).collect();
        cvs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median_cv = cvs[cvs.len() / 2];
        println!(
            "\ninterarrival: median per-node CV {median_cv:.2} ({} nodes; 0=clockwork, 1=Poisson, >1=bursty)",
            ias.len()
        );
    }

    // Temporality.
    let window = Time::from_secs(10);
    let bw = BandwidthSeries::from_index(index, window);
    println!(
        "\ntemporality: burstiness {:.1} (peak/mean), duty cycle {:.0}%, peak {:.2} MB/s",
        bw.burstiness(),
        100.0 * bw.duty_cycle(),
        bw.peak_bps() / 1e6,
    );

    // Peak-window drill-down: a Pablo time-window summary of the
    // busiest bandwidth window — a binary-search query the index
    // answers without another scan.
    let peak = bw
        .bytes_per_window
        .iter()
        .enumerate()
        .max_by_key(|&(_, b)| b)
        .map(|(i, _)| i);
    if let Some(i) = peak {
        let t0 = Time::from_nanos(i as u64 * window.as_nanos());
        let t1 = t0.saturating_add(window);
        let w = sioscope_trace::TimeWindowSummary::from_index(index, t0, t1);
        println!("\npeak window [{t0}, {t1}):");
        for (kind, s) in &w.per_kind {
            println!(
                "  {kind:?}: {} ops, {:.1} MB, {:.3}s I/O time",
                s.count,
                s.bytes as f64 / 1e6,
                s.total_duration.as_secs_f64(),
            );
        }
    }
}
