//! In-transit streaming primitives: bounded staging-node queues with
//! credit-based backpressure.
//!
//! The paper's workloads move checkpoint and analysis data through PFS
//! files; modern pipelines route the same producer cadence through an
//! in-transit staging layer instead, with the consumer attached to the
//! far end of a bounded queue. This crate models that layer as a pure,
//! deterministic state machine:
//!
//! * `StagingNode` — one staging node: a bounded byte queue fed at
//!   `ingest_bw` and drained at `egress_bw`, with admission blocking
//!   (credit-based backpressure) when the queue is full;
//! * [`StreamChannel`] — the producer/consumer facing channel over a
//!   staging node: FIFO chunk delivery with receipts, a byte-exact
//!   ledger ([`ChannelStats`]) and a queue-occupancy timeline;
//! * [`StallCalendar`] — consumer outage windows (the `consumer-crash`
//!   fault class): a frozen consumer stops granting credits, which is
//!   what ultimately stalls the producer.
//!
//! All timing arithmetic is integer nanoseconds computed in `u128`, so
//! identical inputs replay to bit-identical outputs on every platform.

#![warn(missing_docs)]

use sioscope_sim::Time;
use std::collections::VecDeque;

/// Exact transfer time of `bytes` at `bw` bytes/second, in integer
/// nanoseconds (round-up, so nonzero payloads always cost time).
pub fn transfer_time(bytes: u64, bw: u64) -> Time {
    if bytes == 0 || bw == 0 {
        return Time::ZERO;
    }
    let nanos = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(bw));
    Time::from_nanos(nanos as u64)
}

/// Configuration of one staging node and the mesh path to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagingConfig {
    /// Queue capacity in bytes; `0` means unbounded (infinite
    /// credits — the producer never blocks on the queue).
    pub depth: u64,
    /// Producer-side ingest bandwidth, bytes/second.
    pub ingest_bw: u64,
    /// Consumer-side egress bandwidth, bytes/second.
    pub egress_bw: u64,
    /// Mesh latency per hop between producer partition and the
    /// staging node.
    pub hop_latency: Time,
    /// Mesh hops the payload crosses (placement-derived).
    pub hops: u32,
}

impl StagingConfig {
    /// The Paragon-class staging node the experiments use: mesh-link
    /// bandwidth (memory-to-memory, no disks in the path) and
    /// microsecond-scale hop latency.
    pub fn paragon(depth: u64) -> StagingConfig {
        StagingConfig {
            depth,
            ingest_bw: 50_000_000,
            egress_bw: 50_000_000,
            hop_latency: Time::from_nanos(10_000),
            hops: 1,
        }
    }

    /// Total mesh latency of the configured path.
    pub(crate) fn path_latency(&self) -> Time {
        Time::from_nanos(self.hop_latency.as_nanos() * u64::from(self.hops))
    }

    /// Structural validation against the largest chunk the producer
    /// will offer. A bounded queue smaller than one chunk can never
    /// admit it — that is a deadlock, not backpressure — and zero
    /// bandwidth never transfers anything. Returns problems (empty =
    /// valid).
    pub fn validate(&self, max_chunk: u64) -> Vec<String> {
        let mut problems = Vec::new();
        if self.ingest_bw == 0 {
            problems.push("ingest bandwidth must be nonzero".to_string());
        }
        if self.egress_bw == 0 {
            problems.push("egress bandwidth must be nonzero".to_string());
        }
        if self.depth > 0 && max_chunk > self.depth {
            problems.push(format!(
                "queue depth {} cannot admit a {}-byte chunk",
                self.depth, max_chunk
            ));
        }
        problems
    }
}

/// One staging node: the bounded byte queue and its drain ledger. The
/// node tracks which admitted bytes are still resident and retires
/// them as their egress completes, which is exactly when their credits
/// return to the producer.
#[derive(Debug, Clone)]
pub(crate) struct StagingNode {
    cfg: StagingConfig,
    /// Bytes admitted and not yet retired (resident in the queue).
    resident: u64,
    /// Egress completions not yet retired: `(egress_done, bytes)` in
    /// FIFO (and therefore time) order.
    draining: VecDeque<(Time, u64)>,
}

impl StagingNode {
    /// A fresh, empty staging node.
    pub(crate) fn new(cfg: StagingConfig) -> StagingNode {
        StagingNode {
            cfg,
            resident: 0,
            draining: VecDeque::new(),
        }
    }

    /// The node's configuration.
    pub(crate) fn config(&self) -> &StagingConfig {
        &self.cfg
    }

    /// Retire every drained chunk whose egress completed at or before
    /// `now`, returning the credits to the queue.
    fn retire_until(&mut self, now: Time) {
        while let Some(&(done, bytes)) = self.draining.front() {
            if done > now {
                break;
            }
            self.draining.pop_front();
            self.resident -= bytes;
        }
    }

    /// Admit `bytes` wanting to enter at `at`: returns the admission
    /// instant, delayed until enough credits have returned when the
    /// queue is bounded. Panics if the chunk can never fit — callers
    /// validate via [`StagingConfig::validate`] first.
    pub(crate) fn admit(&mut self, at: Time, bytes: u64) -> Time {
        let mut start = at;
        self.retire_until(start);
        if self.cfg.depth > 0 {
            while self.resident + bytes > self.cfg.depth {
                let (done, freed) = self
                    .draining
                    .pop_front()
                    .expect("bounded queue deadlock: chunk exceeds depth (validate first)");
                start = start.max(done);
                self.resident -= freed;
            }
        }
        self.resident += bytes;
        start
    }

    /// Record a scheduled egress completion for previously admitted
    /// bytes; the credits return at `egress_done`.
    pub(crate) fn schedule_drain(&mut self, egress_done: Time, bytes: u64) {
        debug_assert!(self.draining.back().is_none_or(|&(t, _)| t <= egress_done));
        self.draining.push_back((egress_done, bytes));
    }
}

/// Receipt the producer gets back from a [`StreamChannel::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReceipt {
    /// FIFO sequence number of the chunk.
    pub seq: u64,
    /// When the send actually began (`>=` the offered instant; later
    /// exactly when backpressure blocked the producer).
    pub start: Time,
    /// When the producer finished sending and regained the CPU.
    pub send_done: Time,
    /// When the chunk is visible to the consumer (send + mesh path).
    pub ready_at: Time,
    /// Backpressure stall charged to the producer for this chunk.
    pub stalled: Time,
}

/// Receipt the consumer gets back from a [`StreamChannel::take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeReceipt {
    /// FIFO sequence number of the chunk (push order).
    pub seq: u64,
    /// Chunk payload size.
    pub bytes: u64,
    /// When the chunk became visible to the consumer.
    pub ready_at: Time,
    /// When the consumer began draining it.
    pub start: Time,
    /// When the drain completed (credits return to the producer).
    pub egress_done: Time,
}

/// The channel's byte-exact ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes the producer pushed.
    pub ingested_bytes: u64,
    /// Bytes the consumer took (egress scheduled).
    pub egressed_bytes: u64,
    /// Chunks pushed.
    pub ingested_chunks: u64,
    /// Chunks taken.
    pub egressed_chunks: u64,
    /// Total producer backpressure stall.
    pub producer_stall: Time,
}

impl ChannelStats {
    /// The conservation law no schedule may break: every pushed byte
    /// and chunk is either taken or still pending in the queue.
    pub fn conserves(&self, pending_bytes: u64, pending_chunks: u64) -> bool {
        self.ingested_bytes == self.egressed_bytes + pending_bytes
            && self.ingested_chunks == self.egressed_chunks + pending_chunks
    }
}

/// A chunk pushed but not yet taken.
#[derive(Debug, Clone, Copy)]
struct PendingChunk {
    seq: u64,
    bytes: u64,
    ready_at: Time,
}

/// The producer/consumer facing stream channel over one staging node:
/// FIFO chunk delivery with blocking-on-full push semantics, a byte
/// ledger, and a queue-occupancy timeline.
///
/// The channel is driven in program order — each chunk is pushed and
/// then taken before the next chunk is pushed. That discipline is what
/// lets a coupled pair of jobs be simulated as a single deterministic
/// recurrence: a take only ever depends on earlier pushes, never on
/// later ones, so simulated time may flow backwards between calls
/// while every receipt stays causally consistent.
#[derive(Debug, Clone)]
pub struct StreamChannel {
    node: StagingNode,
    pending: VecDeque<PendingChunk>,
    pending_bytes: u64,
    next_seq: u64,
    stats: ChannelStats,
    /// Signed occupancy deltas: `(instant, +bytes)` at admission,
    /// `(instant, -bytes)` at egress completion.
    deltas: Vec<(Time, i64)>,
}

impl StreamChannel {
    /// A fresh channel over a staging node with `cfg`.
    pub fn new(cfg: StagingConfig) -> StreamChannel {
        StreamChannel {
            node: StagingNode::new(cfg),
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_seq: 0,
            stats: ChannelStats::default(),
            deltas: Vec::new(),
        }
    }

    /// The ledger so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Does the ledger conserve bytes and chunks right now?
    pub fn conserves(&self) -> bool {
        self.stats
            .conserves(self.pending_bytes, self.pending.len() as u64)
    }

    /// Producer side: offer `bytes` at `at`, blocking until the queue
    /// has room. Returns the receipt; the producer resumes at
    /// `send_done`.
    pub fn push(&mut self, at: Time, bytes: u64) -> PushReceipt {
        let cfg = self.node.config().clone();
        let start = self.node.admit(at, bytes);
        let send_done = start + transfer_time(bytes, cfg.ingest_bw);
        let ready_at = send_done + cfg.path_latency();
        let stalled = start.saturating_sub(at);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingChunk {
            seq,
            bytes,
            ready_at,
        });
        self.pending_bytes += bytes;
        self.stats.ingested_bytes += bytes;
        self.stats.ingested_chunks += 1;
        self.stats.producer_stall += stalled;
        self.deltas.push((start, bytes as i64));
        PushReceipt {
            seq,
            start,
            send_done,
            ready_at,
            stalled,
        }
    }

    /// Consumer side: take the oldest chunk, beginning its drain at
    /// `start` (callers pass `max(consumer_free, next_ready())`,
    /// further delayed by any [`StallCalendar`] outage). Panics if
    /// nothing is pending or `start` precedes visibility — both are
    /// driver bugs, not simulated conditions.
    pub fn take(&mut self, start: Time) -> TakeReceipt {
        let chunk = self.pending.pop_front().expect("take on an empty channel");
        assert!(
            start >= chunk.ready_at,
            "take at {start} before chunk {} is visible at {}",
            chunk.seq,
            chunk.ready_at
        );
        let egress_done = start + transfer_time(chunk.bytes, self.node.config().egress_bw);
        self.node.schedule_drain(egress_done, chunk.bytes);
        self.pending_bytes -= chunk.bytes;
        self.stats.egressed_bytes += chunk.bytes;
        self.stats.egressed_chunks += 1;
        self.deltas.push((egress_done, -(chunk.bytes as i64)));
        TakeReceipt {
            seq: chunk.seq,
            bytes: chunk.bytes,
            ready_at: chunk.ready_at,
            start,
            egress_done,
        }
    }

    /// The queue-occupancy timeline: resident bytes after every
    /// admission and egress completion, in time order.
    pub fn occupancy_timeline(&self) -> Vec<(Time, u64)> {
        let mut deltas = self.deltas.clone();
        // Stable by instant; at equal instants apply drains first so
        // the reported occupancy is the post-transition floor.
        deltas.sort_by_key(|&(t, d)| (t, d));
        let mut resident: i64 = 0;
        deltas
            .into_iter()
            .map(|(t, d)| {
                resident += d;
                (t, resident.max(0) as u64)
            })
            .collect()
    }

    /// Peak resident bytes over the whole run.
    pub fn peak_occupancy(&self) -> u64 {
        self.occupancy_timeline()
            .into_iter()
            .map(|(_, r)| r)
            .max()
            .unwrap_or(0)
    }
}

/// Consumer outage windows — the `consumer-crash` fault class. A
/// frozen consumer cannot begin a drain, so any drain start falling
/// inside a window slides to its end; the producer feels the outage
/// only through the credits that stop returning.
#[derive(Debug, Clone, Default)]
pub struct StallCalendar {
    /// Merged, sorted, non-overlapping `(start, resume)` windows.
    windows: Vec<(Time, Time)>,
}

impl StallCalendar {
    /// Build a calendar from raw `(start, duration)` outages; windows
    /// are sorted and overlaps merged.
    pub fn new(outages: &[(Time, Time)]) -> StallCalendar {
        let mut raw: Vec<(Time, Time)> = outages
            .iter()
            .filter(|(_, d)| !d.is_zero())
            .map(|&(s, d)| (s, s + d))
            .collect();
        raw.sort_by_key(|&(s, _)| s);
        let mut windows: Vec<(Time, Time)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            match windows.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => windows.push((s, e)),
            }
        }
        StallCalendar { windows }
    }

    /// The earliest instant `>= t` at which the consumer is awake.
    pub fn next_free(&self, t: Time) -> Time {
        // Windows are disjoint and sorted, so one pass suffices.
        let mut t = t;
        for &(s, e) in &self.windows {
            if t < s {
                break;
            }
            if t < e {
                t = e;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Time {
        Time::from_millis(n)
    }

    fn chan(depth: u64) -> StreamChannel {
        StreamChannel::new(StagingConfig {
            depth,
            ingest_bw: 1_000_000, // 1 byte/µs
            egress_bw: 1_000_000,
            hop_latency: Time::from_nanos(1_000),
            hops: 2,
        })
    }

    #[test]
    fn transfer_time_is_exact_and_rounds_up() {
        assert_eq!(transfer_time(1_000_000, 1_000_000), Time::from_secs(1));
        assert_eq!(transfer_time(1, 1_000_000_000), Time::from_nanos(1));
        // 3 bytes at 2 B/s = 1.5 s, rounded up to the next nanosecond.
        assert_eq!(transfer_time(3, 2), Time::from_nanos(1_500_000_000));
        assert_eq!(transfer_time(0, 5), Time::ZERO);
    }

    #[test]
    fn unbounded_push_never_stalls() {
        let mut c = chan(0);
        for i in 0..8 {
            let r = c.push(ms(i), 1000);
            assert_eq!(r.stalled, Time::ZERO);
            assert_eq!(r.seq, i);
        }
        assert_eq!(c.stats().producer_stall, Time::ZERO);
        assert!(c.conserves());
    }

    #[test]
    fn bounded_push_blocks_until_credits_return() {
        let mut c = chan(1000);
        let a = c.push(Time::ZERO, 1000);
        assert_eq!(a.stalled, Time::ZERO);
        // Consumer drains chunk 0 starting the instant it is ready.
        let t = c.take(a.ready_at);
        // The second push at time zero must wait for chunk 0's egress.
        let b = c.push(Time::ZERO, 1000);
        assert_eq!(b.start, t.egress_done);
        assert_eq!(b.stalled, t.egress_done);
        assert!(c.stats().producer_stall > Time::ZERO);
    }

    #[test]
    fn fifo_order_and_ledger() {
        let mut c = chan(0);
        let sizes = [10u64, 20, 30];
        let mut pushes = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            pushes.push(c.push(ms(i as u64), s));
        }
        let mut free = Time::ZERO;
        for (i, p) in pushes.iter().enumerate() {
            let t = c.take(free.max(p.ready_at));
            assert_eq!(t.seq, i as u64);
            assert_eq!(t.bytes, sizes[i]);
            free = t.egress_done;
        }
        assert!(c.conserves());
        assert_eq!(c.stats().ingested_bytes, 60);
        assert_eq!(c.stats().egressed_bytes, 60);
        assert_eq!(c.pending_bytes, 0);
    }

    #[test]
    fn occupancy_timeline_tracks_residency() {
        let mut c = chan(0);
        let a = c.push(Time::ZERO, 100);
        let b = c.push(a.send_done, 50);
        let ta = c.take(a.ready_at.max(b.ready_at));
        let _tb = c.take(ta.egress_done);
        let tl = c.occupancy_timeline();
        assert_eq!(tl.len(), 4);
        assert_eq!(c.peak_occupancy(), 150);
        assert_eq!(tl.last().unwrap().1, 0, "fully drained at the end");
    }

    #[test]
    fn validate_rejects_undrainable_configs() {
        let cfg = StagingConfig::paragon(100);
        assert_eq!(cfg.validate(100), Vec::<String>::new());
        assert_eq!(cfg.validate(101).len(), 1);
        let mut dead = cfg.clone();
        dead.ingest_bw = 0;
        dead.egress_bw = 0;
        assert_eq!(dead.validate(10).len(), 2);
    }

    #[test]
    fn stall_calendar_merges_and_slides() {
        let cal = StallCalendar::new(&[(ms(10), ms(5)), (ms(12), ms(10)), (ms(40), ms(1))]);
        assert_eq!(cal.next_free(ms(9)), ms(9));
        assert_eq!(cal.next_free(ms(10)), ms(22));
        assert_eq!(cal.next_free(ms(21)), ms(22));
        assert_eq!(cal.next_free(ms(40)), ms(41));
        assert_eq!(StallCalendar::new(&[]).next_free(ms(1)), ms(1));
        let zero_length = StallCalendar::new(&[(ms(1), Time::ZERO)]);
        assert_eq!(zero_length.next_free(ms(1)), ms(1));
    }

    #[test]
    fn replay_is_bit_identical() {
        let drive = || {
            let mut c = chan(64);
            let mut receipts = Vec::new();
            let mut free = Time::ZERO;
            let mut now = Time::ZERO;
            for i in 0..32u64 {
                let p = c.push(now, 1 + (i * 7) % 60);
                now = p.send_done;
                let t = c.take(free.max(p.ready_at));
                free = t.egress_done;
                receipts.push((p, t));
            }
            (receipts, c.occupancy_timeline(), c.stats().clone())
        };
        assert_eq!(drive(), drive());
    }
}
