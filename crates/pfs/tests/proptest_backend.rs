//! Property tests for the modern storage tiers, each checked against
//! a naive in-memory oracle:
//!
//! * the object store's PUT/GET round trip — read-your-writes,
//!   last-writer-wins metadata, monotone object size, and exact
//!   PUT/GET accounting;
//! * the burst buffer's drain — the conservation law
//!   `bytes_logged == bytes_drained + bytes_resident` at every
//!   observation point, and FIFO drain progress matching an oracle
//!   that replays the same entries in submission order (which implies
//!   per-file write order is preserved);
//! * the chaos properties the fault subsystem promises: the
//!   four-term conservation law
//!   `bytes_logged == bytes_drained + bytes_resident + bytes_lost`
//!   under *any* seeded burst fault schedule, and PUT/GET semantic
//!   equivalence under a degraded-service latency window;
//! * per-process open-file handles on all three tiers: every
//!   completion's offset and bytes, and every `NotOpen` and
//!   `AlreadyOpen`, under random open, gopen, seek, read, write,
//!   flush, set-buffering, close and reopen sequences by processes
//!   whose pids start far above 0.

use sioscope_faults::{FaultGen, FaultKind, FaultSchedule};
use sioscope_pfs::{
    burst, BurstAbsorb, BurstBuffer, BurstBufferConfig, IoMode, IoOp, ObjectStore,
    ObjectStoreConfig, Pfs, PfsConfig, PfsError, StorageBackend,
};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, FileId, Pid, Time};
use std::collections::BTreeMap;

/// One generated client action, interpreted against live open state.
#[derive(Clone, Copy)]
enum Action {
    Open,
    Close,
    Seek(u64),
    Put(u64),
    Get(u64),
}

/// Open : Close : Seek : Put : Get drawn 1 : 1 : 2 : 4 : 4, with
/// sizes and offsets below 64 KiB.
fn action(rng: &mut DetRng) -> Action {
    const MAX: u64 = (1 << 16) - 1;
    match rng.range_inclusive(0, 11) {
        0 => Action::Open,
        1 => Action::Close,
        2..=3 => Action::Seek(rng.range_inclusive(0, MAX)),
        4..=7 => Action::Put(rng.range_inclusive(1, MAX)),
        _ => Action::Get(rng.range_inclusive(1, MAX)),
    }
}

/// 1..=47 `(pid in 0..3, file in 0..2, action)` steps.
fn steps(rng: &mut DetRng) -> Vec<(u8, u8, Action)> {
    let len = rng.range_inclusive(1, 47);
    (0..len)
        .map(|_| {
            let pid = rng.range_inclusive(0, 2) as u8;
            let fid = rng.range_inclusive(0, 1) as u8;
            (pid, fid, action(rng))
        })
        .collect()
}

/// A write size in `[1, 4 MiB)`.
fn write_size(rng: &mut DetRng) -> u64 {
    rng.range_inclusive(1, (1 << 22) - 1)
}

/// The naive oracle: plain maps, no calendars, no timing.
#[derive(Default)]
struct NaiveStore {
    sizes: BTreeMap<u32, u64>,
    pointers: BTreeMap<(u32, u32), u64>,
    last_writer: BTreeMap<u32, u32>,
    puts: u64,
    gets: u64,
}

#[test]
fn object_put_get_round_trip_matches_the_naive_oracle() {
    cases(
        "object_put_get_round_trip_matches_the_naive_oracle",
        256,
        |rng| {
            let steps = steps(rng);
            let mut store = ObjectStore::new(ObjectStoreConfig::modern(4));
            let mut oracle = NaiveStore::default();
            for fid in 0..2u32 {
                store.create_file_with_size(&format!("obj-{fid}"), 0);
                oracle.sizes.insert(fid, 0);
            }
            let mut open: BTreeMap<(u32, u32), bool> = BTreeMap::new();
            let mut now = Time::ZERO;
            let mut last_put: BTreeMap<u32, Time> = BTreeMap::new();

            for &(pid, fid, act) in &steps {
                let key = (fid.into(), pid.into());
                let is_open = open.get(&key).copied().unwrap_or(false);
                // Interpret the action against live state so every submit
                // is legal; the oracle mirrors the interpretation.
                let op = match act {
                    Action::Open if is_open => continue,
                    Action::Open => IoOp::Open,
                    Action::Close if !is_open => continue,
                    Action::Close => IoOp::Close,
                    _ if !is_open => continue,
                    Action::Seek(offset) => IoOp::Seek { offset },
                    Action::Put(size) => IoOp::Write { size },
                    Action::Get(size) => IoOp::Read { size },
                };
                let mut out = Vec::new();
                store
                    .submit_into(now, Pid(pid.into()), FileId(fid.into()), &op, &mut out)
                    .expect("interpreted ops are always legal");
                assert_eq!(out.len(), 1);
                let c = out[0];
                assert!(c.finish >= now, "completions never precede submission");
                now = now.max(c.finish);

                match op {
                    IoOp::Open => {
                        open.insert(key, true);
                        oracle.pointers.insert(key, 0);
                    }
                    IoOp::Close => {
                        open.insert(key, false);
                    }
                    IoOp::Seek { offset } => {
                        oracle.pointers.insert(key, offset);
                    }
                    IoOp::Write { size } => {
                        let ptr = oracle.pointers[&key];
                        let sz = oracle.sizes.get_mut(&u32::from(fid)).unwrap();
                        // Monotone growth: a PUT never shrinks an object.
                        *sz = (*sz).max(ptr + size);
                        oracle.pointers.insert(key, ptr + size);
                        oracle.last_writer.insert(fid.into(), pid.into());
                        oracle.puts += 1;
                        last_put.insert(fid.into(), c.finish);
                        assert_eq!(c.bytes, size);
                        assert_eq!(c.offset, ptr);
                    }
                    IoOp::Read { size } => {
                        let ptr = oracle.pointers[&key];
                        let avail = oracle.sizes[&u32::from(fid)].saturating_sub(ptr);
                        let expect = size.min(avail);
                        oracle.pointers.insert(key, ptr + expect);
                        oracle.gets += 1;
                        // Read-your-writes: a GET sees every byte any
                        // completed PUT placed below the size watermark.
                        assert_eq!(c.bytes, expect, "GET truncates at object size");
                        assert_eq!(c.offset, ptr);
                    }
                    _ => unreachable!(),
                }

                for fid in 0..2u32 {
                    let meta = store.object_meta(FileId(fid)).unwrap();
                    assert_eq!(meta.size, oracle.sizes[&fid]);
                    assert_eq!(
                        meta.last_writer.map(|p| p.0),
                        oracle.last_writer.get(&fid).copied(),
                        "last writer wins"
                    );
                    if let Some(&t) = last_put.get(&fid) {
                        assert_eq!(meta.mtime, t, "mtime is the last PUT's completion");
                    }
                }
            }
            assert_eq!(store.stats().puts, oracle.puts);
            assert_eq!(store.stats().gets, oracle.gets);
        },
    );
}

#[test]
fn burst_drain_conserves_bytes_and_is_fifo() {
    cases("burst_drain_conserves_bytes_and_is_fifo", 256, |rng| {
        let len = rng.range_inclusive(1, 31);
        let writes: Vec<(u8, u8, u64)> = (0..len)
            .map(|_| {
                let pid = rng.range_inclusive(0, 2) as u8;
                let fid = rng.range_inclusive(0, 1) as u8;
                (pid, fid, write_size(rng))
            })
            .collect();
        let probe_gap_ns = rng.range_inclusive(0, 2_999_999_999);
        let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
        cfg.absorb = BurstAbsorb::All;
        let drain_bps = burst::DRAIN_BANDWIDTH_BPS;
        let mut buffer = BurstBuffer::new(cfg);
        for fid in 0..2u32 {
            buffer.create_file_with_size(&format!("log-{fid}"), 0);
        }
        let mut now = Time::ZERO;
        let mut opened: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        // The oracle replays the same entries strictly in submission
        // order: (len, ready). Any reordering in the real drain shows
        // up as a progress mismatch at some probe instant.
        let mut entries: Vec<(u64, Time)> = Vec::new();
        let mut logged = 0u64;

        for &(pid, fid, size) in &writes {
            let (p, f) = (Pid(pid.into()), FileId(fid.into()));
            if !opened
                .get(&(fid.into(), pid.into()))
                .copied()
                .unwrap_or(false)
            {
                let mut out = Vec::new();
                buffer
                    .submit_into(now, p, f, &IoOp::Open, &mut out)
                    .unwrap();
                opened.insert((fid.into(), pid.into()), true);
            }
            let mut out = Vec::new();
            buffer
                .submit_into(now, p, f, &IoOp::Write { size }, &mut out)
                .unwrap();
            entries.push((size, out[0].finish));
            logged += size;
            let s = buffer.stats();
            assert!(
                s.conserves_bytes(),
                "conservation after every append: {s:?}"
            );
            assert_eq!(s.bytes_logged, logged);
            now += Time::from_nanos(probe_gap_ns / writes.len() as u64);
        }

        // Probe the lazy drain mid-flight: progress must match the
        // FIFO oracle exactly at an arbitrary instant.
        let probe = now + Time::from_nanos(probe_gap_ns);
        let (pid0, fid0, _) = writes[0];
        let mut out = Vec::new();
        buffer
            .submit_into(
                probe,
                Pid(pid0.into()),
                FileId(fid0.into()),
                &IoOp::Seek { offset: 0 },
                &mut out,
            )
            .unwrap();
        let oracle_drained_by = |t: Time| -> u64 {
            let mut clock = Time::ZERO;
            let mut drained = 0;
            for &(len, ready) in &entries {
                let finish = clock.max(ready)
                    + Time::from_nanos(
                        ((u128::from(len) * 1_000_000_000u128) / u128::from(drain_bps)) as u64,
                    );
                if finish > t {
                    break;
                }
                clock = finish;
                drained += len;
            }
            drained
        };
        let s = buffer.stats();
        assert!(s.conserves_bytes());
        assert_eq!(
            s.bytes_drained,
            oracle_drained_by(probe),
            "FIFO drain progress"
        );

        // Quiesce retires everything; the drain end matches the
        // oracle's full replay.
        let quiet = buffer.quiesce(probe);
        let s = buffer.stats();
        assert!(s.conserves_bytes());
        assert_eq!(s.bytes_logged, logged);
        assert_eq!(s.bytes_drained, logged);
        assert_eq!(s.bytes_resident, 0);
        assert!(quiet >= probe);
        assert!(quiet >= s.drain_complete);
    });
}

/// Chaos form of the conservation law: under *any* seeded burst
/// fault schedule (drain stalls, burst-node crashes), every
/// logged byte is drained, resident, or lost — at every
/// observation point and after quiesce — and only a crash may
/// populate the loss column.
#[test]
fn burst_conservation_holds_under_any_seeded_fault_schedule() {
    cases(
        "burst_conservation_holds_under_any_seeded_fault_schedule",
        256,
        |rng| {
            let seed = rng.range_inclusive(0, u64::MAX);
            let events = rng.range_inclusive(1, 5) as usize;
            let len = rng.range_inclusive(1, 23);
            let writes: Vec<(u8, u64)> = (0..len)
                .map(|_| (rng.range_inclusive(0, 2) as u8, write_size(rng)))
                .collect();
            let mut cfg = BurstBufferConfig::over(PfsConfig::tiny());
            cfg.absorb = BurstAbsorb::All;
            let horizon = Time::from_secs(8);
            let io_nodes = cfg.pfs.machine.io_nodes;
            cfg.faults = FaultGen::new(seed, horizon, io_nodes)
                .with_events(events)
                .burst_schedule();
            let crashes = cfg
                .faults
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::BurstNodeCrash { .. }))
                .count();
            let mut buffer = BurstBuffer::new(cfg);
            let fid = buffer.create_file_with_size("chaos-log", 0);
            let step = horizon.scale(1.0 / (writes.len() as f64 + 1.0));
            let mut now = Time::ZERO;
            let mut opened = [false; 3];
            for &(pid, size) in &writes {
                let p = Pid(pid.into());
                if !opened[pid as usize] {
                    let mut out = Vec::new();
                    buffer
                        .submit_into(now, p, fid, &IoOp::Open, &mut out)
                        .unwrap();
                    opened[pid as usize] = true;
                }
                let mut out = Vec::new();
                buffer
                    .submit_into(now, p, fid, &IoOp::Write { size }, &mut out)
                    .unwrap();
                let s = buffer.stats();
                assert!(
                    s.conserves_bytes(),
                    "conservation after every append: {s:?}"
                );
                now += step;
            }
            let quiet = buffer.quiesce(now + horizon);
            let s = buffer.stats();
            assert!(s.conserves_bytes(), "conservation after quiesce: {s:?}");
            assert_eq!(s.bytes_resident, 0, "a quiesced log holds nothing resident");
            if crashes == 0 {
                assert_eq!(s.bytes_lost, 0, "only a burst-node crash loses bytes");
            }
            assert!(quiet >= s.drain_complete);
        },
    );
}

/// A degraded-service window taxes PUT/GET latency but must not
/// change semantics: over any interpreted action sequence, the
/// degraded store returns the same sizes, offsets, metadata and
/// op counters as the fault-free store — only its clock runs
/// behind.
#[test]
fn object_put_get_semantics_survive_degraded_latency() {
    cases(
        "object_put_get_semantics_survive_degraded_latency",
        256,
        |rng| {
            let steps = steps(rng);
            let mut slow_cfg = ObjectStoreConfig::modern(4);
            slow_cfg.faults = FaultSchedule::empty();
            slow_cfg.faults.push(
                Time::ZERO,
                FaultKind::DegradedService {
                    duration: Time::from_secs(1 << 20),
                    factor: 3.0,
                },
            );
            let mut clean = ObjectStore::new(ObjectStoreConfig::modern(4));
            let mut slow = ObjectStore::new(slow_cfg);
            for fid in 0..2u32 {
                clean.create_file_with_size(&format!("obj-{fid}"), 0);
                slow.create_file_with_size(&format!("obj-{fid}"), 0);
            }
            let mut open: BTreeMap<(u32, u32), bool> = BTreeMap::new();
            let (mut now_clean, mut now_slow) = (Time::ZERO, Time::ZERO);
            for &(pid, fid, act) in &steps {
                let key = (fid.into(), pid.into());
                let is_open = open.get(&key).copied().unwrap_or(false);
                let op = match act {
                    Action::Open if is_open => continue,
                    Action::Open => {
                        open.insert(key, true);
                        IoOp::Open
                    }
                    Action::Close if !is_open => continue,
                    Action::Close => {
                        open.insert(key, false);
                        IoOp::Close
                    }
                    _ if !is_open => continue,
                    Action::Seek(offset) => IoOp::Seek { offset },
                    Action::Put(size) => IoOp::Write { size },
                    Action::Get(size) => IoOp::Read { size },
                };
                let (p, f) = (Pid(pid.into()), FileId(fid.into()));
                let mut a = Vec::new();
                clean.submit_into(now_clean, p, f, &op, &mut a).unwrap();
                let mut b = Vec::new();
                slow.submit_into(now_slow, p, f, &op, &mut b).unwrap();
                assert_eq!(
                    a[0].bytes, b[0].bytes,
                    "degraded latency must not change sizes"
                );
                assert_eq!(
                    a[0].offset, b[0].offset,
                    "degraded latency must not move pointers"
                );
                now_clean = now_clean.max(a[0].finish);
                now_slow = now_slow.max(b[0].finish);
            }
            for fid in 0..2u32 {
                let ca = clean.object_meta(FileId(fid)).unwrap();
                let cb = slow.object_meta(FileId(fid)).unwrap();
                assert_eq!(ca.size, cb.size, "object sizes agree");
                assert_eq!(
                    ca.last_writer.map(|p| p.0),
                    cb.last_writer.map(|p| p.0),
                    "last-writer-wins agrees"
                );
            }
            assert_eq!(clean.stats().puts, slow.stats().puts);
            assert_eq!(clean.stats().gets, slow.stats().gets);
            assert!(now_slow >= now_clean, "the degraded clock never runs ahead");
        },
    );
}

/// One handle action, issued by one process on one file.
#[derive(Clone, Copy, Debug)]
enum HandleAction {
    Open,
    /// A collective open by a one-member group, in a private-pointer
    /// mode.
    Gopen(IoMode),
    Seek(u64),
    Read(u64),
    Write(u64),
    Flush,
    SetBuffering(bool),
    Close,
    /// Close, then open again: the pointer restarts at 0.
    Reopen,
}

/// Open : gopen : seek : read : write : flush : set-buffering :
/// close : reopen drawn 2 : 1 : 2 : 4 : 4 : 1 : 1 : 2 : 1, with sizes
/// up to two stripe units and offsets up to eight.
fn handle_action(rng: &mut DetRng) -> HandleAction {
    const UNIT: u64 = 64 << 10;
    match rng.range_inclusive(0, 17) {
        0..=1 => HandleAction::Open,
        2 => HandleAction::Gopen(if rng.range_inclusive(0, 1) == 0 {
            IoMode::MUnix
        } else {
            IoMode::MAsync
        }),
        3..=4 => HandleAction::Seek(rng.range_inclusive(0, 8 * UNIT)),
        5..=8 => HandleAction::Read(rng.range_inclusive(0, 2 * UNIT)),
        9..=12 => HandleAction::Write(rng.range_inclusive(0, 2 * UNIT)),
        13 => HandleAction::Flush,
        14 => HandleAction::SetBuffering(rng.range_inclusive(0, 1) == 1),
        15..=16 => HandleAction::Close,
        _ => HandleAction::Reopen,
    }
}

/// How a tier answers what the handle oracle asks: whether a read
/// stops at the file's logical size, and whether a flush or
/// set-buffering completion reports the pointer (the PFS reports 0).
#[derive(Clone, Copy)]
struct TierRules {
    reads_truncate: bool,
    control_reports_pointer: bool,
}

/// The naive handle oracle: one pointer per open (file, process) and
/// each file's logical size.
struct HandleOracle {
    pointers: BTreeMap<(FileId, Pid), u64>,
    sizes: Vec<u64>,
    rules: TierRules,
}

impl HandleOracle {
    /// The completion's `(offset, bytes)`, or the error, that `op`
    /// must produce; applies the op to the oracle's state.
    fn apply(&mut self, pid: Pid, fid: FileId, op: &IoOp) -> Result<(u64, u64), PfsError> {
        let key = (fid, pid);
        let open = self.pointers.contains_key(&key);
        match op {
            IoOp::Open | IoOp::Gopen { .. } if open => {
                Err(PfsError::AlreadyOpen { file: fid, pid })
            }
            IoOp::Open | IoOp::Gopen { .. } => {
                self.pointers.insert(key, 0);
                Ok((0, 0))
            }
            _ if !open => Err(PfsError::NotOpen { file: fid, pid }),
            IoOp::Close => {
                self.pointers.remove(&key);
                Ok((0, 0))
            }
            &IoOp::Seek { offset } => {
                self.pointers.insert(key, offset);
                Ok((offset, 0))
            }
            &IoOp::Read { size } => {
                let ptr = self.pointers[&key];
                let bytes = if self.rules.reads_truncate {
                    size.min(self.sizes[fid.index()].saturating_sub(ptr))
                } else {
                    size
                };
                self.pointers.insert(key, ptr + bytes);
                Ok((ptr, bytes))
            }
            &IoOp::Write { size } => {
                let ptr = self.pointers[&key];
                let end = &mut self.sizes[fid.index()];
                *end = (*end).max(ptr + size);
                self.pointers.insert(key, ptr + size);
                Ok((ptr, size))
            }
            IoOp::Flush | IoOp::SetBuffering { .. } | IoOp::SetIoMode { .. } => {
                let ptr = self.pointers[&key];
                let offset = if self.rules.control_reports_pointer {
                    ptr
                } else {
                    0
                };
                Ok((offset, 0))
            }
        }
    }
}

/// One tier under the handle property, with its oracle and clock.
struct HandleRun<B> {
    tier: B,
    oracle: HandleOracle,
    now: Time,
}

impl<B: StorageBackend> HandleRun<B> {
    fn new(mut tier: B, initial: &[u64], rules: TierRules) -> Self {
        for (i, &size) in initial.iter().enumerate() {
            let fid = tier.create_file_with_size(&format!("handles-{i}"), size);
            assert_eq!(fid, FileId(i as u32), "dense file ids");
        }
        HandleRun {
            tier,
            oracle: HandleOracle {
                pointers: BTreeMap::new(),
                sizes: initial.to_vec(),
                rules,
            },
            now: Time::ZERO,
        }
    }

    /// Submit `op` and check its one completion, or its error,
    /// against the oracle.
    fn check(&mut self, name: &str, pid: Pid, fid: FileId, op: &IoOp) {
        let expected = self.oracle.apply(pid, fid, op);
        let mut out = Vec::new();
        let got = self.tier.submit_into(self.now, pid, fid, op, &mut out);
        match (got, expected) {
            (Ok(done), Ok((offset, bytes))) => {
                assert!(done, "{name}: {op:?} by {pid} never blocks");
                assert_eq!(out.len(), 1, "{name}: {op:?} completes once");
                let c = out[0];
                assert_eq!(c.pid, pid, "{name}: {op:?}");
                assert_eq!(c.kind, op.kind(), "{name}: {op:?}");
                assert_eq!(
                    (c.offset, c.bytes),
                    (offset, bytes),
                    "{name}: {op:?} by {pid} on {fid}: (offset, bytes)"
                );
                assert!(
                    c.finish >= self.now,
                    "{name}: completions never precede submission"
                );
                self.now = c.finish;
            }
            (Err(e), Err(want)) => {
                assert_eq!(e, want, "{name}: {op:?} by {pid} on {fid}");
                assert!(out.is_empty(), "{name}: a rejected call completes nothing");
            }
            (got, want) => panic!("{name}: {op:?} by {pid} on {fid}: got {got:?}, want {want:?}"),
        }
    }
}

/// Every tier keeps one private pointer per open (file, process):
/// opens and one-member gopens start it at 0, seeks set it, reads and
/// writes advance it, a reopen starts over, and a call on a handle
/// the process has not opened (or has already opened) is rejected.
/// The pids start far above 0 and are sparse, as the multi-job
/// scheduler hands them out.
#[test]
fn handles_match_the_naive_oracle_on_every_tier() {
    cases("handles_match_the_naive_oracle_on_every_tier", 256, |rng| {
        let base = rng.range_inclusive(1 << 12, 1 << 20) as u32;
        let mut pids = Vec::new();
        let mut next = base;
        for _ in 0..rng.range_inclusive(3, 5) {
            pids.push(Pid(next));
            next += rng.range_inclusive(1, 9) as u32;
        }
        let initial: Vec<u64> = (0..rng.range_inclusive(2, 3))
            .map(|_| rng.range_inclusive(0, 256 << 10))
            .collect();
        let len = rng.range_inclusive(1, 80);
        let steps: Vec<(Pid, FileId, HandleAction)> = (0..len)
            .map(|_| {
                let pid = pids[rng.range_inclusive(0, pids.len() as u64 - 1) as usize];
                let fid = FileId(rng.range_inclusive(0, initial.len() as u64 - 1) as u32);
                (pid, fid, handle_action(rng))
            })
            .collect();

        let pfs_rules = TierRules {
            reads_truncate: false,
            control_reports_pointer: false,
        };
        let modern_rules = TierRules {
            reads_truncate: true,
            control_reports_pointer: true,
        };
        let mut pfs = HandleRun::new(Pfs::new(PfsConfig::tiny()), &initial, pfs_rules);
        let mut burst = HandleRun::new(
            BurstBuffer::new(BurstBufferConfig::over(PfsConfig::tiny())),
            &initial,
            modern_rules,
        );
        let mut object = HandleRun::new(
            ObjectStore::new(ObjectStoreConfig::modern(4)),
            &initial,
            modern_rules,
        );

        for &(pid, fid, action) in &steps {
            let ops = match action {
                HandleAction::Open => vec![IoOp::Open],
                HandleAction::Gopen(mode) => vec![IoOp::Gopen {
                    group: 1,
                    mode,
                    record_size: None,
                }],
                HandleAction::Seek(offset) => vec![IoOp::Seek { offset }],
                HandleAction::Read(size) => vec![IoOp::Read { size }],
                HandleAction::Write(size) => vec![IoOp::Write { size }],
                HandleAction::Flush => vec![IoOp::Flush],
                HandleAction::SetBuffering(enabled) => vec![IoOp::SetBuffering { enabled }],
                HandleAction::Close => vec![IoOp::Close],
                HandleAction::Reopen => vec![IoOp::Close, IoOp::Open],
            };
            for op in &ops {
                pfs.check("pfs", pid, fid, op);
                burst.check("burst", pid, fid, op);
                object.check("object", pid, fid, op);
            }
        }
    });
}
