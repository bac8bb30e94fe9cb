//! Streaming experiments: the in-transit pipeline against the
//! checkpoint-file baseline.
//!
//! The paper's applications hand data between phases through the file
//! system because the Paragon offered nothing else. These experiments
//! ask the evolutionary question for the hand-off itself: route
//! PRISM's checkpoint cadence through (a) a PFS-class file and (b) a
//! bounded staging channel with backpressure, and measure the
//! end-to-end pipeline latency, the producer's stall time, and the
//! staging queue's occupancy.

use crate::coupled::{run_coupled, CoupledOutcome, FileRoute, Route};
use crate::experiments::{Experiment, ExperimentOutput, Scale, ShapeCheck};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_sim::Time;
use sioscope_stream::StagingConfig;
use sioscope_workloads::{PrismVersion, StreamCadence};
use std::fmt::Write as _;

fn stream_at(depth: u64) -> Route {
    Route::Stream(StagingConfig::paragon(depth))
}

fn run(c: &StreamCadence, route: &Route, speed_pct: u32, faults: &FaultSchedule) -> CoupledOutcome {
    run_coupled(c, route, speed_pct, faults).unwrap_or_else(|e| panic!("coupled {}: {e}", c.name))
}

fn outcome_row(rendered: &mut String, label: &str, o: &CoupledOutcome) {
    let _ = writeln!(
        rendered,
        "  {:<22}{:>12.3}s{:>12.3}s{:>12.3}s{:>9}{:>12}",
        label,
        o.pipeline_latency.as_secs_f64(),
        o.producer_stall.as_secs_f64(),
        o.consumer_wait.as_secs_f64(),
        o.chunks,
        o.peak_occupancy,
    );
}

fn header(rendered: &mut String, title: &str) {
    let _ = writeln!(rendered, "{title}");
    let _ = writeln!(
        rendered,
        "  {:<22}{:>13}{:>13}{:>13}{:>9}{:>12}",
        "route", "pipeline", "prod stall", "cons wait", "chunks", "peak bytes"
    );
    let _ = writeln!(rendered, "  {}", "-".repeat(82));
}

/// The coupled PRISM pipeline on the staging channel: queue depths
/// from undersized to unbounded, plus a seeded consumer crash, with
/// the occupancy timeline of the well-provisioned run.
pub(crate) fn stream_prism(scale: Scale) -> ExperimentOutput {
    let c = scale.prism(PrismVersion::C).stream_cadence();
    let burst_bytes = c.bursts[0].bytes();
    let tight_depth = c.max_chunk().max(burst_bytes / 8);
    let roomy_depth = 2 * burst_bytes;

    let tight = run(&c, &stream_at(tight_depth), 100, &FaultSchedule::empty());
    let roomy = run(&c, &stream_at(roomy_depth), 100, &FaultSchedule::empty());
    let unbounded = run(&c, &stream_at(0), 100, &FaultSchedule::empty());
    let mut faults = FaultSchedule::empty();
    faults.push(
        Time::ZERO,
        FaultKind::ConsumerCrash {
            stall: roomy.pipeline_latency.max(Time::from_millis(1)),
        },
    );
    let crashed = run(&c, &stream_at(roomy_depth), 100, &faults);

    let mut rendered = String::new();
    header(
        &mut rendered,
        &format!(
            "Streaming PRISM: {} over bounded staging queues ({} bursts, {} B)",
            c.name,
            c.bursts.len(),
            c.total_bytes()
        ),
    );
    outcome_row(&mut rendered, &format!("depth={tight_depth}"), &tight);
    outcome_row(&mut rendered, &format!("depth={roomy_depth}"), &roomy);
    outcome_row(&mut rendered, "depth=unbounded", &unbounded);
    outcome_row(&mut rendered, "consumer-crash", &crashed);
    let _ = writeln!(
        rendered,
        "  occupancy (depth={roomy_depth}): {} samples, peak {} B",
        roomy.occupancy.len(),
        roomy.peak_occupancy
    );

    let checks = vec![
        ShapeCheck::new(
            "byte ledger conserves on every depth".to_string(),
            tight.conserves && roomy.conserves && unbounded.conserves && crashed.conserves,
            format!(
                "{} B delivered on each of 4 runs",
                [&tight, &roomy, &unbounded, &crashed]
                    .iter()
                    .map(|o| o.bytes)
                    .min()
                    .unwrap_or(0)
            ),
        ),
        ShapeCheck::new(
            "undersized depth stalls the producer".to_string(),
            tight.producer_stall > Time::ZERO,
            format!("stall {} at depth {tight_depth}", tight.producer_stall),
        ),
        ShapeCheck::new(
            "adequate depth absorbs every burst stall-free".to_string(),
            roomy.producer_stall == Time::ZERO && unbounded.producer_stall == Time::ZERO,
            format!("stall {} at depth {roomy_depth}", roomy.producer_stall),
        ),
        ShapeCheck::new(
            "consumer crash backpressures the producer".to_string(),
            crashed.producer_stall > Time::ZERO
                && crashed.pipeline_latency > roomy.pipeline_latency,
            format!(
                "crashed stall {}, pipeline {} vs clean {}",
                crashed.producer_stall, crashed.pipeline_latency, roomy.pipeline_latency
            ),
        ),
        ShapeCheck::new(
            "occupancy stays within the configured depth".to_string(),
            roomy.peak_occupancy <= roomy_depth && tight.peak_occupancy <= tight_depth,
            format!(
                "peaks {} / {} vs depths {roomy_depth} / {tight_depth}",
                roomy.peak_occupancy, tight.peak_occupancy
            ),
        ),
    ];

    ExperimentOutput {
        experiment: Experiment::StreamPrism,
        rendered,
        checks,
    }
}

/// The differential: the same cadence through a PFS-class file
/// hand-off and through the staging channel. Streaming must win on
/// end-to-end pipeline latency at adequate depth, and the file route
/// must shrug off a consumer outage that stalls the stream's producer.
pub(crate) fn stream_vs_file(scale: Scale) -> ExperimentOutput {
    let c = scale.prism(PrismVersion::C).stream_cadence();
    let depth = 2 * c.bursts[0].bytes();
    let file_route = Route::File(FileRoute::caltech_class());

    let stream = run(&c, &stream_at(depth), 100, &FaultSchedule::empty());
    let file = run(&c, &file_route, 100, &FaultSchedule::empty());
    // One outage long enough to outlive both routes' clean timelines,
    // so neither consumer can simply sleep through dead time it would
    // have spent idle anyway.
    let mut faults = FaultSchedule::empty();
    faults.push(
        Time::ZERO,
        FaultKind::ConsumerCrash {
            stall: stream
                .pipeline_latency
                .max(file.pipeline_latency)
                .max(Time::from_millis(1)),
        },
    );
    let stream_crashed = run(&c, &stream_at(depth), 100, &faults);
    let file_crashed = run(&c, &file_route, 100, &faults);

    let mut rendered = String::new();
    header(
        &mut rendered,
        &format!(
            "Streaming vs file hand-off: {} checkpoint cadence, depth {depth} B",
            c.name
        ),
    );
    outcome_row(&mut rendered, "stream", &stream);
    outcome_row(&mut rendered, "file", &file);
    outcome_row(&mut rendered, "stream+crash", &stream_crashed);
    outcome_row(&mut rendered, "file+crash", &file_crashed);
    let _ = writeln!(
        rendered,
        "  stream pipeline latency: {:.6}s",
        stream.pipeline_latency.as_secs_f64()
    );
    let _ = writeln!(
        rendered,
        "  file pipeline latency: {:.6}s",
        file.pipeline_latency.as_secs_f64()
    );

    let checks = vec![
        ShapeCheck::greater(
            "streaming beats the file hand-off end to end".to_string(),
            "file pipeline (s)",
            file.pipeline_latency.as_secs_f64(),
            "stream pipeline (s)",
            stream.pipeline_latency.as_secs_f64(),
        ),
        ShapeCheck::new(
            "both routes deliver the full payload".to_string(),
            stream.bytes == c.total_bytes() && file.bytes == c.total_bytes(),
            format!("{} B each", c.total_bytes()),
        ),
        ShapeCheck::new(
            "stream producer runs stall-free at adequate depth".to_string(),
            stream.producer_stall == Time::ZERO,
            format!("stall {}", stream.producer_stall),
        ),
        ShapeCheck::new(
            "consumer crash stalls the stream producer only".to_string(),
            stream_crashed.producer_stall > Time::ZERO && file_crashed.producer_stall == Time::ZERO,
            format!(
                "stream stall {}, file stall {}",
                stream_crashed.producer_stall, file_crashed.producer_stall
            ),
        ),
        ShapeCheck::new(
            "durable files still pay the crash on the consumer side".to_string(),
            file_crashed.consumer_wait > file.consumer_wait,
            format!(
                "crashed wait {} vs clean {}",
                file_crashed.consumer_wait, file.consumer_wait
            ),
        ),
    ];

    ExperimentOutput {
        experiment: Experiment::StreamVsFile,
        rendered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_prism_checks_pass_at_smoke() {
        let out = stream_prism(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("consumer-crash"));
        assert!(out.rendered.contains("occupancy"));
    }

    #[test]
    fn stream_vs_file_checks_pass_at_smoke() {
        let out = stream_vs_file(Scale::Smoke);
        assert!(
            out.failures().is_empty(),
            "{}\n{:#?}",
            out.rendered,
            out.failures()
        );
        assert!(out.rendered.contains("stream pipeline latency"));
        assert!(out.rendered.contains("file pipeline latency"));
    }
}
