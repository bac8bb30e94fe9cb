//! Coupled producer–consumer pipelines: the in-transit alternative to
//! checkpoint-file hand-off.
//!
//! [`run_coupled`] co-schedules a producer job (a [`StreamCadence`],
//! e.g. PRISM's checkpoint bursts) with an in-situ analysis consumer
//! over one of two routes:
//!
//! - [`Route::Stream`] — a bounded staging-node channel with
//!   credit-based backpressure ([`StreamChannel`]). The producer
//!   blocks only when the queue is full; the consumer drains chunks as
//!   they become visible. A [`FaultKind::ConsumerCrash`] freezes the
//!   consumer, and the outage propagates to the producer *only*
//!   through backpressure.
//! - [`Route::File`] — the classic path: each burst is written to a
//!   PFS-class file, committed, and only then read back by the
//!   consumer. Writes serialize into the producer's timeline; a
//!   consumer crash delays the reads but (files being durable) never
//!   stalls the producer.
//!
//! Both drivers are pure single-pass recurrences over the shared
//! simulated timeline — no event queue, no RNG draws — so a seed's
//! coupled run replays bit-identically.

use sioscope_faults::{FaultKind, FaultSchedule, Tier};
use sioscope_pfs::{IoMode, OpKind};
use sioscope_sim::{FileId, JobId, Pid, Time};
use sioscope_stream::{transfer_time, StagingConfig, StallCalendar, StreamChannel};
use sioscope_trace::{IoEvent, JobMap, TraceRecorder};
use sioscope_workloads::StreamCadence;

/// Consumer analysis bandwidth at 100% speed: how fast the in-situ
/// analysis digests staged bytes.
pub(crate) const ANALYZE_BW: u64 = 8_000_000;

/// The file-based hand-off route: PFS-class service rates for the
/// checkpoint files the producer writes and the consumer reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRoute {
    /// Producer-side write bandwidth (bytes/s).
    pub write_bw: u64,
    /// Consumer-side read bandwidth (bytes/s).
    pub read_bw: u64,
    /// Fixed per-operation latency (request setup, server round trip).
    pub op_latency: Time,
    /// Commit/flush latency paid once per burst before the data is
    /// visible to the consumer.
    pub commit_latency: Time,
}

impl FileRoute {
    /// Caltech-class service rates: the Paragon PFS sustained a few
    /// MB/s per client with half-millisecond operation overheads.
    pub fn caltech_class() -> Self {
        FileRoute {
            write_bw: 4_000_000,
            read_bw: 6_000_000,
            op_latency: Time::from_nanos(500_000),
            commit_latency: Time::from_millis(5),
        }
    }

    /// Structural problems (empty = valid).
    pub(crate) fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.write_bw == 0 || self.read_bw == 0 {
            problems.push("file route bandwidths must be positive".into());
        }
        problems
    }
}

/// How the producer's bursts reach the consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// In-transit staging channel with bounded depth and backpressure.
    Stream(StagingConfig),
    /// Write-to-file, commit, read-back.
    File(FileRoute),
}

/// Everything a coupled run measures.
#[derive(Debug, Clone)]
pub struct CoupledOutcome {
    /// When the producer finished its last burst (compute + hand-off).
    pub producer_finish: Time,
    /// When the consumer finished analyzing the last chunk.
    pub consumer_finish: Time,
    /// End-to-end pipeline latency: the later of the two finishes.
    pub pipeline_latency: Time,
    /// Total time the producer spent blocked on a full staging queue
    /// (always zero on the file route).
    pub producer_stall: Time,
    /// Total time the consumer spent idle waiting for data.
    pub consumer_wait: Time,
    /// Chunks delivered end to end.
    pub chunks: u64,
    /// Bytes delivered end to end.
    pub bytes: u64,
    /// Peak staging-queue occupancy in bytes (zero on the file route).
    pub peak_occupancy: u64,
    /// Queue-occupancy timeline `(instant, resident bytes)` after each
    /// admit/retire (empty on the file route).
    pub occupancy: Vec<(Time, u64)>,
    /// Did the channel ledger conserve bytes end to end?
    pub conserves: bool,
    /// Mesh hops the route traverses (stream route only).
    pub hops: u32,
    /// The coupled I/O trace: producer writes and consumer reads on
    /// the shared timeline.
    pub trace: TraceRecorder,
    /// Job attribution: job 0 = producer pids `[0, nodes)`, job 1 =
    /// the consumer pid `nodes`.
    pub jobs: JobMap,
}

impl CoupledOutcome {
    /// Replay-checkable digest: finishes, stall, chunk ledger, and an
    /// FNV-64 over the binary trace.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {} {} {} {} {:016x}",
            self.producer_finish.as_nanos(),
            self.consumer_finish.as_nanos(),
            self.producer_stall.as_nanos(),
            self.chunks,
            self.bytes,
            sioscope_trace::binary::digest(&self.trace)
        )
    }
}

/// Consumer analysis time for `bytes` at `speed_pct` percent of
/// [`ANALYZE_BW`], exact in integer nanoseconds.
fn analyze_time(bytes: u64, speed_pct: u32) -> Time {
    let num = u128::from(bytes) * 1_000_000_000u128 * 100;
    let den = u128::from(ANALYZE_BW) * u128::from(speed_pct.max(1));
    Time::from_nanos(num.div_ceil(den).min(u128::from(u64::MAX)) as u64)
}

/// The consumer-outage calendar a stream-tier fault schedule encodes.
fn outage_calendar(faults: &FaultSchedule) -> StallCalendar {
    let windows: Vec<(Time, Time)> = faults
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::ConsumerCrash { stall } => Some((ev.at, stall)),
            _ => None,
        })
        .collect();
    StallCalendar::new(&windows)
}

/// Drive one coupled producer–consumer pipeline to completion.
///
/// `faults` must validate on the stream tier
/// ([`FaultSchedule::validate_for_tier`]); the consumer-crash windows
/// it carries freeze the consumer's drain starts on either route.
/// Errors (rather than panicking) on invalid cadences, routes, or
/// fault schedules, quoting every problem.
pub fn run_coupled(
    cadence: &StreamCadence,
    route: &Route,
    consumer_speed_pct: u32,
    faults: &FaultSchedule,
) -> Result<CoupledOutcome, String> {
    let mut problems = cadence.validate();
    if consumer_speed_pct == 0 {
        problems.push("consumer speed must be positive".into());
    }
    match route {
        Route::Stream(cfg) => problems.extend(cfg.validate(cadence.max_chunk())),
        Route::File(fr) => problems.extend(fr.validate()),
    }
    problems.extend(faults.validate_for_tier(Tier::Stream, 0, cadence.nodes));
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }

    let outages = outage_calendar(faults);
    let mut jobs = JobMap::new();
    jobs.insert(0, cadence.nodes, JobId(0));
    jobs.insert(cadence.nodes, cadence.nodes + 1, JobId(1));
    let consumer_pid = Pid(cadence.nodes);

    let outcome = match route {
        Route::Stream(cfg) => {
            drive_stream(cadence, cfg, consumer_speed_pct, &outages, consumer_pid)
        }
        Route::File(fr) => drive_file(cadence, fr, consumer_speed_pct, &outages, consumer_pid),
    };
    Ok(CoupledOutcome { jobs, ..outcome })
}

fn drive_stream(
    cadence: &StreamCadence,
    cfg: &StagingConfig,
    speed_pct: u32,
    outages: &StallCalendar,
    consumer_pid: Pid,
) -> CoupledOutcome {
    let mut channel = StreamChannel::new(cfg.clone());
    let mut trace = TraceRecorder::new();
    let mut now = Time::ZERO; // producer clock
    let mut free = Time::ZERO; // consumer clock
    let mut consumer_wait = Time::ZERO;
    let mut consumer_finish = Time::ZERO;

    for burst in &cadence.bursts {
        now += burst.compute;
        for &bytes in &burst.chunks {
            let p = channel.push(now, bytes);
            trace.record(IoEvent {
                pid: Pid(0),
                file: FileId(0),
                kind: OpKind::Write,
                start: now,
                duration: p.send_done.saturating_sub(now),
                bytes,
                offset: 0,
                mode: IoMode::MAsync,
            });
            now = p.send_done;

            // Strict alternation: the consumer drains this chunk as
            // soon as it is both visible and (outages permitting)
            // awake. Its clock trails the producer's, so this take
            // never depends on a later push.
            let ready = free.max(p.ready_at);
            let start = outages.next_free(ready);
            if start > free {
                consumer_wait += start - free;
            }
            let t = channel.take(start);
            let done = t.egress_done + analyze_time(bytes, speed_pct);
            trace.record(IoEvent {
                pid: consumer_pid,
                file: FileId(0),
                kind: OpKind::Read,
                start,
                duration: t.egress_done.saturating_sub(start),
                bytes,
                offset: 0,
                mode: IoMode::MAsync,
            });
            free = done;
            consumer_finish = done;
        }
    }

    let stats = channel.stats().clone();
    trace.sort();
    CoupledOutcome {
        producer_finish: now,
        consumer_finish,
        pipeline_latency: now.max(consumer_finish),
        producer_stall: stats.producer_stall,
        consumer_wait,
        chunks: stats.egressed_chunks,
        bytes: stats.egressed_bytes,
        peak_occupancy: channel.peak_occupancy(),
        occupancy: channel.occupancy_timeline(),
        conserves: channel.conserves(),
        hops: cfg.hops,
        trace,
        jobs: JobMap::new(),
    }
}

fn drive_file(
    cadence: &StreamCadence,
    fr: &FileRoute,
    speed_pct: u32,
    outages: &StallCalendar,
    consumer_pid: Pid,
) -> CoupledOutcome {
    let mut trace = TraceRecorder::new();
    let mut now = Time::ZERO; // producer clock
    let mut free = Time::ZERO; // consumer clock
    let mut consumer_wait = Time::ZERO;
    let mut consumer_finish = Time::ZERO;
    let mut chunks = 0u64;
    let mut bytes_total = 0u64;

    for burst in &cadence.bursts {
        now += burst.compute;
        // Producer: write every chunk, then one commit per burst.
        for &bytes in &burst.chunks {
            let dur = fr.op_latency + transfer_time(bytes, fr.write_bw);
            trace.record(IoEvent {
                pid: Pid(0),
                file: FileId(0),
                kind: OpKind::Write,
                start: now,
                duration: dur,
                bytes,
                offset: 0,
                mode: IoMode::MUnix,
            });
            now += dur;
        }
        let visible = now + fr.commit_latency;
        now = visible;
        // Consumer: the burst becomes readable only at commit.
        for &bytes in &burst.chunks {
            let ready = free.max(visible);
            let start = outages.next_free(ready);
            if start > free {
                consumer_wait += start - free;
            }
            let read = fr.op_latency + transfer_time(bytes, fr.read_bw);
            trace.record(IoEvent {
                pid: consumer_pid,
                file: FileId(0),
                kind: OpKind::Read,
                start,
                duration: read,
                bytes,
                offset: 0,
                mode: IoMode::MUnix,
            });
            let done = start + read + analyze_time(bytes, speed_pct);
            free = done;
            consumer_finish = done;
            chunks += 1;
            bytes_total += bytes;
        }
    }

    trace.sort();
    CoupledOutcome {
        producer_finish: now,
        consumer_finish,
        pipeline_latency: now.max(consumer_finish),
        producer_stall: Time::ZERO,
        consumer_wait,
        chunks,
        bytes: bytes_total,
        peak_occupancy: 0,
        occupancy: Vec::new(),
        conserves: true,
        hops: 0,
        trace,
        jobs: JobMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_faults::FaultEvent;
    use sioscope_workloads::{PrismConfig, PrismVersion};

    fn tiny_cadence() -> StreamCadence {
        PrismConfig::tiny(PrismVersion::C).stream_cadence()
    }

    fn stream_route(depth: u64) -> Route {
        Route::Stream(StagingConfig::paragon(depth))
    }

    #[test]
    fn stream_beats_file_at_adequate_depth() {
        let c = tiny_cadence();
        let s = run_coupled(&c, &stream_route(0), 100, &FaultSchedule::empty()).unwrap();
        let f = run_coupled(
            &c,
            &Route::File(FileRoute::caltech_class()),
            100,
            &FaultSchedule::empty(),
        )
        .unwrap();
        assert!(
            s.pipeline_latency < f.pipeline_latency,
            "stream {} !< file {}",
            s.pipeline_latency,
            f.pipeline_latency
        );
        assert_eq!(s.producer_stall, Time::ZERO);
        assert_eq!(s.bytes, c.total_bytes());
        assert_eq!(f.bytes, c.total_bytes());
        assert!(s.conserves && f.conserves);
    }

    #[test]
    fn undersized_depth_stalls_the_producer() {
        let c = tiny_cadence();
        let roomy =
            run_coupled(&c, &stream_route(256 * 1024), 100, &FaultSchedule::empty()).unwrap();
        let tight =
            run_coupled(&c, &stream_route(16 * 1024), 100, &FaultSchedule::empty()).unwrap();
        assert_eq!(roomy.producer_stall, Time::ZERO);
        assert!(tight.producer_stall > Time::ZERO);
        assert!(tight.producer_finish > roomy.producer_finish);
        assert!(tight.peak_occupancy <= 16 * 1024);
    }

    #[test]
    fn consumer_crash_backpressures_the_producer() {
        let c = tiny_cadence();
        let clean =
            run_coupled(&c, &stream_route(256 * 1024), 100, &FaultSchedule::empty()).unwrap();
        let mut faults = FaultSchedule::empty();
        faults.events.push(FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::ConsumerCrash {
                stall: clean.pipeline_latency,
            },
        });
        let crashed = run_coupled(&c, &stream_route(256 * 1024), 100, &faults).unwrap();
        assert!(crashed.producer_stall > Time::ZERO, "{crashed:?}");
        assert!(crashed.pipeline_latency > clean.pipeline_latency);
        assert!(crashed.consumer_wait > clean.consumer_wait);
        // Durable files decouple: the same outage stalls the file
        // route's consumer but never its producer.
        let f = run_coupled(&c, &Route::File(FileRoute::caltech_class()), 100, &faults).unwrap();
        assert_eq!(f.producer_stall, Time::ZERO);
        assert!(f.consumer_wait > Time::ZERO);
    }

    #[test]
    fn replay_is_bit_identical() {
        let c = tiny_cadence();
        for route in [
            stream_route(32 * 1024),
            Route::File(FileRoute::caltech_class()),
        ] {
            let a = run_coupled(&c, &route, 75, &FaultSchedule::empty()).unwrap();
            let b = run_coupled(&c, &route, 75, &FaultSchedule::empty()).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.trace.events(), b.trace.events());
            assert_eq!(a.occupancy, b.occupancy);
            assert_eq!(a.consumer_wait, b.consumer_wait);
            assert_eq!(a.jobs, b.jobs);
        }
    }

    #[test]
    fn trace_attributes_jobs_and_kinds() {
        let c = tiny_cadence();
        let s = run_coupled(&c, &stream_route(0), 100, &FaultSchedule::empty()).unwrap();
        let idx = sioscope_trace::TraceIndex::build_with_jobs(s.trace.events(), &s.jobs);
        let total = c.total_chunks() as usize;
        assert_eq!(idx.job_event_count(JobId(0)), total, "producer writes");
        assert_eq!(idx.job_event_count(JobId(1)), total, "consumer reads");
        assert_eq!(idx.count_of(OpKind::Write), total as u64);
        assert_eq!(idx.count_of(OpKind::Read), total as u64);
        assert_eq!(idx.bytes_of(OpKind::Write), c.total_bytes());
    }

    #[test]
    fn bad_inputs_error_with_every_problem() {
        let c = tiny_cadence();
        // Depth below the largest chunk.
        let err = run_coupled(&c, &stream_route(100), 100, &FaultSchedule::empty()).unwrap_err();
        assert!(err.contains("depth"), "{err}");
        // Cross-tier fault.
        let mut faults = FaultSchedule::empty();
        faults.events.push(FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::DrainStall {
                duration: Time::from_secs(1),
            },
        });
        let err = run_coupled(&c, &stream_route(0), 100, &faults).unwrap_err();
        assert!(err.contains("drain-stall"), "{err}");
        // Zero consumer speed.
        let err = run_coupled(&c, &stream_route(0), 0, &FaultSchedule::empty()).unwrap_err();
        assert!(err.contains("consumer speed"), "{err}");
    }

    #[test]
    fn occupancy_timeline_tracks_the_queue() {
        let c = tiny_cadence();
        let s = run_coupled(&c, &stream_route(64 * 1024), 100, &FaultSchedule::empty()).unwrap();
        assert!(!s.occupancy.is_empty());
        assert!(s.peak_occupancy > 0);
        assert!(s.peak_occupancy <= 64 * 1024);
        assert_eq!(s.occupancy.last().unwrap().1, 0, "queue drains to empty");
    }
}
