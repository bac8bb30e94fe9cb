//! A host-side burst buffer over the PFS.
//!
//! The second modern tier (after "ParaLog: Consistent Host-side
//! Logging for Parallel Checkpoints"): writes to *absorbed* files land
//! in a node-local log at memory-class bandwidth and the foreground
//! process continues immediately; a background drain channel then
//! replays the log to the underlying PFS in FIFO order on the same
//! simulated timeline. Checkpoint commits — the PR-3 recovery
//! machinery's dominant foreground cost — are the intended absorbees:
//! with the log in front, the checkpoint-interval U-curve flattens
//! because committing more often no longer costs foreground time.
//!
//! Files *not* absorbed delegate verbatim to the inner [`Pfs`] — same
//! calls, same calendars — so a burst buffer that absorbs nothing is
//! bit-identical to the plain PFS (the differential suite pins this).
//!
//! Accounting obeys a conservation law checked by property tests:
//! `bytes_logged == bytes_drained + bytes_resident + bytes_lost`, and
//! the drain preserves per-file write order (it is a single global
//! FIFO).
//!
//! Burst-tier faults (ParaLog's failure modes): a *drain stall*
//! freezes the background channel for a window — stall windows delay
//! transfer starts, never in-flight transfers — and a *burst-node
//! crash* destroys every resident (not yet drained) byte and takes
//! the log down for a repair window, during which absorbed writes
//! fall through synchronously to the PFS drain channel (counted as
//! `writethroughs`). A checkpoint whose interval logged a lost byte
//! is never restorable; [`StorageBackend::durable_instant`] surfaces
//! that to the recovery driver.
//!
//! Per-process state is found by index: each open absorbed file's
//! pointer sits in a `HandleTable` (`handles.rs`), each process's
//! log calendar in a pid-indexed row, and each file's logical size in
//! a vector by file id.

use crate::backend::{BackendKind, BackendStats, StorageBackend};
use crate::error::PfsError;
use crate::handles::{HandleTable, PidSlots};
use crate::mode::IoMode;
use crate::op::{Completion, IoOp};
use crate::resilience::ResilienceStats;
use crate::server::{Pfs, PfsConfig};
use sioscope_faults::{BurstFaultState, FaultSchedule};
use sioscope_sim::{Calendar, FileId, Pid, Time};
use std::collections::VecDeque;

/// Which files the log absorbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BurstAbsorb {
    /// Absorb writes to every file.
    All,
    /// Absorb writes only to the named file ids (e.g. the checkpoint
    /// files). `Files(vec![])` absorbs nothing — pure passthrough.
    Files(Vec<u32>),
}

/// Local log append/lookup latency (NVMe-class).
const LOG_LATENCY: Time = Time::from_micros(5);

/// Per-process log bandwidth, bytes per second.
const LOG_BANDWIDTH_BPS: u64 = 2_000_000_000;

/// Background drain bandwidth to the PFS, bytes per second: roughly a
/// 1996 I/O node's pace.
pub const DRAIN_BANDWIDTH_BPS: u64 = 300_000_000;

/// What varies between burst-buffer runs over an inner PFS: the PFS,
/// what the log absorbs, and the faults.
#[derive(Debug, Clone)]
pub struct BurstBufferConfig {
    /// The backing store (and the machine/mesh the run executes on).
    pub pfs: PfsConfig,
    /// Which files the log absorbs.
    pub absorb: BurstAbsorb,
    /// Injected *burst-tier* fault scenario (drain stalls, burst-node
    /// crashes). Faults of the inner PFS live in `pfs.faults`; the
    /// two schedules are validated against their own tiers.
    pub faults: FaultSchedule,
}

impl BurstBufferConfig {
    /// A node-local NVMe log over the given PFS: microsecond appends,
    /// ~2 GB/s absorb, drained at [`DRAIN_BANDWIDTH_BPS`].
    pub fn over(pfs: PfsConfig) -> Self {
        BurstBufferConfig {
            pfs,
            absorb: BurstAbsorb::All,
            faults: FaultSchedule::empty(),
        }
    }

    /// Same log, absorbing only the named files.
    pub fn absorbing(pfs: PfsConfig, files: Vec<u32>) -> Self {
        let mut cfg = BurstBufferConfig::over(pfs);
        cfg.absorb = BurstAbsorb::Files(files);
        cfg
    }
}

/// One logged write awaiting retirement.
#[derive(Debug, Clone, Copy)]
struct DrainEntry {
    len: u64,
    /// Instant the entry leaves the pending set: its drain completion,
    /// or the crash instant that destroyed it. Computed eagerly at
    /// append time from the same FIFO recurrence the lazy scan used —
    /// `start = clock.max(ready)` (pushed past stall windows),
    /// `finish = start + xfer` — so fault-free retirement instants are
    /// bit-identical to the old on-demand computation.
    retire: Time,
    /// `true` iff a burst-node crash struck while the entry was
    /// resident (`ready <= crash < finish`): its bytes are lost.
    lost: bool,
}

/// The burst buffer: an absorbing log plus the inner PFS.
pub struct BurstBuffer {
    absorb: BurstAbsorb,
    inner: Pfs,
    /// Private pointer per (file, process) for absorbed files; also
    /// the open-handle set.
    handles: HandleTable<u64>,
    /// Logical size of each file as the log sees it, by file id; only
    /// absorbed files' entries are read.
    sizes: Vec<u64>,
    /// One log append channel per process (node-local device).
    logs: PidSlots<Calendar>,
    /// Global drain FIFO (preserves per-file write order).
    pending: VecDeque<DrainEntry>,
    /// Virtual drain clock: the instant the channel frees up after
    /// every append scheduled so far (advanced at append time).
    drain_virtual: Time,
    /// Compiled burst-tier fault windows; `None` when the schedule
    /// does not engage.
    faults: Option<BurstFaultState>,
    /// Log-append completion instants of lost entries, for the
    /// per-commit durability verdict.
    lost_readies: Vec<Time>,
    /// High-water mark of [`StorageBackend::durable_instant`] queries:
    /// each commit's durability window is `(cursor, commit]`.
    durable_cursor: Time,
    /// Burst-local failover counters (write-throughs); merged with the
    /// inner PFS's stats on report.
    resilience: ResilienceStats,
    stats: BackendStats,
}

impl BurstBuffer {
    /// Build the buffer and its inner PFS.
    pub fn new(cfg: BurstBufferConfig) -> Self {
        let faults = cfg
            .faults
            .engages()
            .then(|| BurstFaultState::new(&cfg.faults));
        BurstBuffer {
            absorb: cfg.absorb,
            inner: Pfs::new(cfg.pfs),
            handles: HandleTable::default(),
            sizes: Vec::new(),
            logs: PidSlots::default(),
            pending: VecDeque::new(),
            drain_virtual: Time::ZERO,
            faults,
            lost_readies: Vec::new(),
            durable_cursor: Time::ZERO,
            resilience: ResilienceStats::default(),
            stats: BackendStats::default(),
        }
    }

    fn absorbs(&self, fid: FileId) -> bool {
        match &self.absorb {
            BurstAbsorb::All => true,
            BurstAbsorb::Files(ids) => ids.contains(&fid.0),
        }
    }

    fn xfer(bytes: u64, bps: u64) -> Time {
        let ns = (u128::from(bytes) * 1_000_000_000u128) / u128::from(bps);
        Time::from_nanos(ns as u64)
    }

    /// Schedule one appended entry on the drain channel: push the
    /// start past stall windows, then check whether a burst-node
    /// crash destroys the entry while resident. Returns the entry's
    /// retirement instant and lost verdict, advancing the virtual
    /// clock (a crash frees the channel at the crash instant).
    fn schedule_drain(&mut self, ready: Time, len: u64) -> (Time, bool) {
        let xfer = Self::xfer(len, DRAIN_BANDWIDTH_BPS);
        match &self.faults {
            None => {
                let start = self.drain_virtual.max(ready);
                let finish = start + xfer;
                self.drain_virtual = finish;
                (finish, false)
            }
            Some(state) => {
                let start = state.drain_clear(self.drain_virtual.max(ready));
                let finish = start.saturating_add(xfer);
                let crash = state
                    .crashes()
                    .iter()
                    .find(|&&(at, _)| ready <= at && at < finish);
                match crash {
                    Some(&(at, _)) => {
                        self.drain_virtual = self.drain_virtual.max(at);
                        self.lost_readies.push(ready);
                        (at, true)
                    }
                    None => {
                        self.drain_virtual = finish;
                        (finish, false)
                    }
                }
            }
        }
    }

    /// Retire every pending entry whose retirement instant is by
    /// `now`: drained entries move to `bytes_drained`, lost entries to
    /// `bytes_lost` at their crash instant.
    fn advance_drain(&mut self, now: Time) {
        while let Some(front) = self.pending.front().copied() {
            if front.retire > now {
                break;
            }
            self.stats.bytes_resident -= front.len;
            if front.lost {
                self.stats.bytes_lost += front.len;
            } else {
                self.stats.bytes_drained += front.len;
                self.stats.drain_complete = front.retire;
            }
            self.pending.pop_front();
        }
    }

    fn check_exists(&self, fid: FileId) -> Result<(), PfsError> {
        if self.inner.file(fid).is_some() {
            Ok(())
        } else {
            Err(PfsError::NoSuchFile(fid))
        }
    }
}

impl StorageBackend for BurstBuffer {
    fn kind(&self) -> BackendKind {
        BackendKind::Burst
    }

    fn create_file_with_size(&mut self, name: &str, size: u64) -> FileId {
        // Every file exists on the backing PFS (dense ids, and the
        // drain needs somewhere to land), and the log keeps each
        // file's logical size at the same index.
        let fid = self.inner.create_file_with_size(name, size);
        self.sizes.push(size);
        fid
    }

    fn submit_into(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        if !self.absorbs(fid) {
            // Verbatim passthrough: same call the plain PFS would see.
            let r = self.inner.submit_into(now, pid, fid, op, out);
            if r.is_ok() {
                self.stats.passthrough_ops += 1;
            }
            return r;
        }

        self.check_exists(fid)?;
        self.advance_drain(now);
        let ptr = self.handles.get(fid, pid).copied();

        let completion = |finish: Time, bytes: u64, offset: u64| Completion {
            pid,
            finish,
            bytes,
            offset,
            kind: op.kind(),
            // The log is exactly the PFS's M_LOG promise, kept: local
            // append, background ordering.
            mode: IoMode::MLog,
        };

        match (op, ptr) {
            (IoOp::Open | IoOp::Gopen { .. }, Some(_)) => {
                Err(PfsError::AlreadyOpen { file: fid, pid })
            }
            (IoOp::Open | IoOp::Gopen { .. }, None) => {
                // The log has no collective state: gopen completes
                // per-process at append latency.
                self.handles.insert(fid, pid, 0);
                self.stats.absorbed_ops += 1;
                out.push(completion(now + LOG_LATENCY, 0, 0));
                Ok(true)
            }
            (_, None) => Err(PfsError::NotOpen { file: fid, pid }),
            (IoOp::Close, Some(_)) => {
                self.handles.remove(fid, pid);
                self.stats.absorbed_ops += 1;
                out.push(completion(now + LOG_LATENCY, 0, 0));
                Ok(true)
            }
            (IoOp::Seek { offset }, Some(_)) => {
                self.handles.insert(fid, pid, *offset);
                self.stats.absorbed_ops += 1;
                out.push(completion(now + LOG_LATENCY, 0, *offset));
                Ok(true)
            }
            (IoOp::SetIoMode { .. } | IoOp::SetBuffering { .. } | IoOp::Flush, Some(ptr)) => {
                self.stats.absorbed_ops += 1;
                out.push(completion(now + LOG_LATENCY, 0, ptr));
                Ok(true)
            }
            (IoOp::Read { size }, Some(ptr)) => {
                // Absorbed files are read back from the log itself
                // (it caches what it absorbed), at log bandwidth.
                let avail = self.sizes[fid.index()].saturating_sub(ptr);
                let bytes = (*size).min(avail);
                let cal = self.logs.get_or_default(pid);
                let res = cal.reserve(now + LOG_LATENCY, Self::xfer(bytes, LOG_BANDWIDTH_BPS));
                self.stats.absorbed_ops += 1;
                self.handles.insert(fid, pid, ptr + bytes);
                out.push(completion(res.finish, bytes, ptr));
                Ok(true)
            }
            (IoOp::Write { size }, Some(ptr)) => {
                // Log down (crashed, not yet repaired): the write
                // falls through synchronously to the PFS drain
                // channel — foreground pays drain-class bandwidth,
                // but the bytes are durable on arrival and never
                // enter the log's accounting.
                let down = self
                    .faults
                    .as_ref()
                    .is_some_and(|state| state.log_down_until(now).is_some());
                if down {
                    let state = self.faults.as_ref().expect("checked above");
                    let start = state.drain_clear(self.drain_virtual.max(now));
                    let finish = start.saturating_add(Self::xfer(*size, DRAIN_BANDWIDTH_BPS));
                    self.drain_virtual = finish;
                    self.resilience.writethroughs += 1;
                    self.stats.passthrough_ops += 1;
                    let sz = &mut self.sizes[fid.index()];
                    *sz = (*sz).max(ptr + *size);
                    self.handles.insert(fid, pid, ptr + *size);
                    out.push(completion(finish, *size, ptr));
                    return Ok(true);
                }
                let cal = self.logs.get_or_default(pid);
                let res = cal.reserve(now + LOG_LATENCY, Self::xfer(*size, LOG_BANDWIDTH_BPS));
                let ready = res.finish;
                self.stats.bytes_logged += *size;
                self.stats.bytes_resident += *size;
                self.stats.absorbed_ops += 1;
                let (retire, lost) = self.schedule_drain(ready, *size);
                self.pending.push_back(DrainEntry {
                    len: *size,
                    retire,
                    lost,
                });
                let sz = &mut self.sizes[fid.index()];
                *sz = (*sz).max(ptr + *size);
                self.handles.insert(fid, pid, ptr + *size);
                out.push(completion(ready, *size, ptr));
                Ok(true)
            }
        }
    }

    fn fault_transition_times(&self) -> Vec<Time> {
        let mut ts = self
            .inner
            .fault_state()
            .map(|s| s.transitions().to_vec())
            .unwrap_or_default();
        if let Some(state) = &self.faults {
            ts.extend_from_slice(state.transitions());
            ts.sort_unstable();
            ts.dedup();
        }
        ts
    }

    fn forming_collectives(&self) -> usize {
        self.inner.forming_collectives()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        let mut rs = self.inner.resilience_stats();
        rs.merge(&self.resilience);
        rs
    }

    fn durable_instant(&mut self, now: Time) -> Time {
        let from = self.durable_cursor;
        self.durable_cursor = self.durable_cursor.max(now);
        // A commit is durable unless one of the bytes logged in its
        // window — appends completing in `(previous commit, now]` —
        // was later destroyed by a burst-node crash while resident.
        if self
            .lost_readies
            .iter()
            .any(|&ready| ready > from && ready <= now)
        {
            Time::MAX
        } else {
            now
        }
    }

    fn quiesce(&mut self, now: Time) -> Time {
        while let Some(front) = self.pending.pop_front() {
            self.stats.bytes_resident -= front.len;
            if front.lost {
                self.stats.bytes_lost += front.len;
            } else {
                self.stats.bytes_drained += front.len;
                self.stats.drain_complete = front.retire;
            }
        }
        now.max(self.stats.drain_complete)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_faults::FaultKind;

    fn buffer(absorb: BurstAbsorb) -> BurstBuffer {
        let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
        cfg.absorb = absorb;
        BurstBuffer::new(cfg)
    }

    fn one(
        b: &mut BurstBuffer,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
    ) -> Result<Completion, PfsError> {
        let mut out = Vec::new();
        let done = b.submit_into(now, pid, fid, op, &mut out)?;
        assert!(done);
        assert_eq!(out.len(), 1);
        Ok(out[0])
    }

    #[test]
    fn absorbed_writes_complete_at_log_speed_and_drain_later() {
        let mut b = buffer(BurstAbsorb::All);
        let fid = b.create_file_with_size("ckpt", 0);
        let p = Pid(0);
        one(&mut b, Time::ZERO, p, fid, &IoOp::Open).unwrap();
        let w = one(&mut b, Time::ZERO, p, fid, &IoOp::Write { size: 1 << 20 }).unwrap();
        assert_eq!(w.mode, IoMode::MLog);
        let s = b.stats();
        assert_eq!(s.bytes_logged, 1 << 20);
        assert_eq!(s.bytes_resident, 1 << 20);
        assert_eq!(s.bytes_drained, 0);
        assert!(s.conserves_bytes());
        let quiet = b.quiesce(w.finish);
        let s = b.stats();
        assert_eq!(s.bytes_drained, 1 << 20);
        assert_eq!(s.bytes_resident, 0);
        assert!(s.conserves_bytes());
        assert!(quiet >= w.finish, "drain at 300 MB/s outlives the append");
        assert_eq!(s.drain_complete, quiet);
    }

    #[test]
    fn unabsorbed_files_pass_through_to_the_pfs() {
        let mut b = buffer(BurstAbsorb::Files(vec![]));
        let mut plain = Pfs::new(PfsConfig::tiny());
        let fid = b.create_file_with_size("data", 1 << 20);
        let fid2 = plain.create_file_with_size("data", 1 << 20);
        assert_eq!(fid, fid2);
        let p = Pid(0);
        for op in [
            IoOp::Open,
            IoOp::Read { size: 4096 },
            IoOp::Write { size: 4096 },
            IoOp::Close,
        ] {
            let via_buffer = one(&mut b, Time::ZERO, p, fid, &op).unwrap();
            let mut direct = Vec::new();
            plain
                .submit_into(Time::ZERO, p, fid2, &op, &mut direct)
                .unwrap();
            assert_eq!(via_buffer, direct[0], "passthrough must be verbatim");
        }
        assert_eq!(b.stats().bytes_logged, 0);
        assert_eq!(b.stats().passthrough_ops, 4);
    }

    #[test]
    fn engaged_empty_burst_schedule_is_bit_neutral() {
        let mut plain = buffer(BurstAbsorb::All);
        let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
        cfg.faults = FaultSchedule::engaged_empty();
        let mut hooked = BurstBuffer::new(cfg);
        let fid = plain.create_file_with_size("ckpt", 0);
        assert_eq!(hooked.create_file_with_size("ckpt", 0), fid);
        let p = Pid(0);
        let ops = [
            IoOp::Open,
            IoOp::Write { size: 1 << 20 },
            IoOp::Write { size: 1 << 18 },
            IoOp::Seek { offset: 0 },
            IoOp::Read { size: 4096 },
            IoOp::Close,
        ];
        for op in &ops {
            let a = one(&mut plain, Time::ZERO, p, fid, op).unwrap();
            let b = one(&mut hooked, Time::ZERO, p, fid, op).unwrap();
            assert_eq!(a, b, "engaged-empty run must be bit-identical");
        }
        assert_eq!(
            plain.quiesce(Time::from_secs(1)),
            hooked.quiesce(Time::from_secs(1))
        );
        assert_eq!(plain.stats(), hooked.stats());
        assert!(hooked.resilience_stats().is_quiet());
        let t = Time::from_secs(2);
        assert_eq!(hooked.durable_instant(t), t, "nothing lost, all durable");
    }

    #[test]
    fn drain_stall_delays_retirement_but_loses_nothing() {
        let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
        cfg.faults.push(
            Time::ZERO,
            FaultKind::DrainStall {
                duration: Time::from_secs(2),
            },
        );
        let mut stalled = BurstBuffer::new(cfg);
        let mut plain = buffer(BurstAbsorb::All);
        let fid = plain.create_file_with_size("ckpt", 0);
        assert_eq!(stalled.create_file_with_size("ckpt", 0), fid);
        let p = Pid(0);
        for b in [&mut plain, &mut stalled] {
            one(b, Time::ZERO, p, fid, &IoOp::Open).unwrap();
            // Foreground append completes at log speed either way.
            let w = one(b, Time::ZERO, p, fid, &IoOp::Write { size: 300_000_000 }).unwrap();
            assert!(w.finish < Time::from_secs(1));
        }
        let soon = Time::from_secs(1);
        let q_plain = plain.quiesce(soon);
        let q_stalled = stalled.quiesce(soon);
        // Plain drain: ~1 s at 300 MB/s. Stalled drain starts only
        // once the 2 s window clears.
        assert!(q_stalled > q_plain, "stall must delay the drain");
        assert!(q_stalled >= Time::from_secs(3));
        let s = stalled.stats();
        assert_eq!(s.bytes_drained, 300_000_000);
        assert_eq!(s.bytes_lost, 0);
        assert!(s.conserves_bytes());
    }

    #[test]
    fn burst_crash_destroys_resident_bytes_and_breaks_durability() {
        let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
        cfg.faults.push(
            Time::from_millis(500),
            FaultKind::BurstNodeCrash {
                repair: Time::from_secs(10),
            },
        );
        let mut b = BurstBuffer::new(cfg);
        let fid = b.create_file_with_size("ckpt", 0);
        let p = Pid(0);
        one(&mut b, Time::ZERO, p, fid, &IoOp::Open).unwrap();
        // Appended before the crash, still draining when it hits:
        // ready ~0.15 s, drain finish ~1.15 s, crash at 0.5 s => lost.
        let w = one(
            &mut b,
            Time::ZERO,
            p,
            fid,
            &IoOp::Write { size: 300_000_000 },
        )
        .unwrap();
        assert!(w.finish < Time::from_millis(500));
        assert_eq!(
            b.durable_instant(Time::from_millis(400)),
            Time::MAX,
            "commit covering the lost bytes can never be restored"
        );

        // While the log is down, writes fall through to the drain
        // channel: durable on arrival, never logged.
        let wt = one(
            &mut b,
            Time::from_secs(1),
            p,
            fid,
            &IoOp::Write { size: 1 << 20 },
        )
        .unwrap();
        assert!(wt.finish > Time::from_secs(1));
        assert_eq!(b.resilience_stats().writethroughs, 1);

        // After repair (10.5 s) the log absorbs again.
        let w2 = one(
            &mut b,
            Time::from_secs(11),
            p,
            fid,
            &IoOp::Write { size: 1 << 20 },
        )
        .unwrap();
        assert!(w2.finish < Time::from_secs(12));
        assert_eq!(
            b.durable_instant(Time::from_secs(12)),
            Time::from_secs(12),
            "post-repair commits are durable again"
        );

        b.quiesce(Time::from_secs(60));
        let s = b.stats();
        assert_eq!(
            s.bytes_lost, 300_000_000,
            "resident bytes died in the crash"
        );
        assert_eq!(s.bytes_logged, 300_000_000 + (1 << 20));
        assert_eq!(s.bytes_drained, 1 << 20);
        assert_eq!(s.bytes_resident, 0);
        assert!(s.conserves_bytes());
        assert_eq!(s.passthrough_ops, 1, "the write-through bypassed the log");
    }

    #[test]
    fn burst_fault_runs_replay_bit_identically() {
        let run = || {
            let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
            cfg.faults.push(
                Time::from_millis(200),
                FaultKind::DrainStall {
                    duration: Time::from_millis(700),
                },
            );
            cfg.faults.push(
                Time::from_millis(900),
                FaultKind::BurstNodeCrash {
                    repair: Time::from_secs(2),
                },
            );
            let mut b = BurstBuffer::new(cfg);
            let fid = b.create_file_with_size("ckpt", 0);
            let p = Pid(0);
            let mut finishes = Vec::new();
            one(&mut b, Time::ZERO, p, fid, &IoOp::Open).unwrap();
            for i in 0..6u64 {
                let w = one(
                    &mut b,
                    Time::from_millis(i * 150),
                    p,
                    fid,
                    &IoOp::Write { size: 64 << 20 },
                )
                .unwrap();
                finishes.push(w.finish);
            }
            let quiet = b.quiesce(Time::from_secs(30));
            (finishes, quiet, b.stats(), b.resilience_stats())
        };
        assert_eq!(run(), run(), "same schedule, same bits");
    }

    #[test]
    fn drain_is_fifo_and_lazy() {
        let mut b = buffer(BurstAbsorb::All);
        let fid = b.create_file_with_size("f", 0);
        let p = Pid(0);
        one(&mut b, Time::ZERO, p, fid, &IoOp::Open).unwrap();
        let w1 = one(
            &mut b,
            Time::ZERO,
            p,
            fid,
            &IoOp::Write { size: 300_000_000 },
        )
        .unwrap();
        one(&mut b, w1.finish, p, fid, &IoOp::Write { size: 1000 }).unwrap();
        // First entry drains in ~1s; probing well past that retires it
        // but not necessarily instantly at the second append.
        one(
            &mut b,
            Time::from_secs(10),
            p,
            fid,
            &IoOp::Seek { offset: 0 },
        )
        .unwrap();
        let s = b.stats();
        assert_eq!(s.bytes_drained, 300_001_000);
        assert_eq!(s.bytes_resident, 0);
        assert!(s.conserves_bytes());
    }
}
