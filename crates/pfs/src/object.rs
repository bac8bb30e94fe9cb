//! A flat-namespace object store.
//!
//! The modern tier the evolutionary comparison replays the 1996
//! request streams against (after "Exploring Scientific Application
//! Performance Using Large Scale Object Storage"): every file becomes
//! one object on a single target, PUTs and GETs are whole-request
//! round trips through a sharded metadata service, and there are *no
//! shared-pointer access modes* — `gopen`/`setiomode` carry no
//! collective semantics, so the M_UNIX atomicity-token serialization
//! and gopen rendezvous stalls of the PFS cannot occur here by
//! construction. What survives is whatever the request stream itself
//! imposes: small requests still pay the per-request metadata and
//! network overheads, and mapping a whole object to one target turns
//! the PFS's striping parallelism into single-target serialization.
//!
//! Timing model (all analytic, FIFO calendars):
//!
//! * metadata op (`open`/`gopen`/`close`): client → shard queue
//!   (`MD_SERVICE`) → client, one `NET_LATENCY` each way;
//! * GET: metadata lookup on the object's shard, then the transfer on
//!   the object's target at `BANDWIDTH_BPS`, then the return latency;
//! * PUT: the same with an extra client-side `PUT_OVERHEAD`
//!   (marshalling, erasure-coding prep) before the lookup;
//! * `seek`/`setiomode`/`setbuffering`/`flush`: client-local at
//!   `CLIENT_OVERHEAD` — there is no shared state to update.
//!
//! These are constants: one contemporary disaggregated store fronting
//! the mesh the Paragon workloads ran on, with per-target bandwidth
//! ~30x a 1996 RAID-3 array and metadata an order of magnitude faster
//! than the PFS metadata server, where every request still pays a
//! network round trip.
//!
//! Each open object's per-process pointer sits in a
//! `HandleTable` (`handles.rs`), found by index; its presence is
//! the open handle.

use crate::backend::{BackendKind, BackendStats, StorageBackend};
use crate::error::PfsError;
use crate::handles::HandleTable;
use crate::mode::IoMode;
use crate::op::{Completion, IoOp};
use crate::resilience::{
    ResilienceStats, BACKOFF_BASE, BACKOFF_MULTIPLIER, MAX_RETRIES, REQUEST_TIMEOUT,
    REROUTE_PENALTY,
};
use sioscope_faults::{FaultSchedule, ObjectFaultState};
use sioscope_machine::MachineConfig;
use sioscope_sim::{CalendarPool, FileId, Pid, Time};

/// Storage targets; an object lives wholly on `id % TARGETS`.
const TARGETS: usize = 16;

/// Metadata-service shards; an object's metadata lives on
/// `id % MD_SHARDS`.
pub const MD_SHARDS: u32 = 4;

/// Service demand of one metadata operation on its shard.
const MD_SERVICE: Time = Time::from_micros(10);

/// Client-side cost of preparing a PUT before it leaves the node.
const PUT_OVERHEAD: Time = Time::from_micros(30);

/// One-way client/service network latency, paid each direction.
const NET_LATENCY: Time = Time::from_micros(100);

/// Client-local cost of pointer and mode bookkeeping.
const CLIENT_OVERHEAD: Time = Time::from_micros(1);

/// Sequential bandwidth of one target, bytes per second.
const BANDWIDTH_BPS: u64 = 1_000_000_000;

/// What varies between object-store runs: the mesh and the faults.
#[derive(Debug, Clone)]
pub struct ObjectStoreConfig {
    /// Mesh the gateways sit on (compute-node count is sized to the
    /// workload by the run driver, like the PFS machine).
    pub machine: MachineConfig,
    /// Injected fault scenario (object-tier classes: metadata-shard
    /// outages and degraded-service windows). An empty, disengaged
    /// schedule keeps every computation bit-identical to a build
    /// without the fault machinery.
    pub faults: FaultSchedule,
}

impl ObjectStoreConfig {
    /// The store in front of the Caltech Paragon's mesh, fault-free.
    pub fn modern(compute_nodes: u32) -> Self {
        ObjectStoreConfig {
            machine: MachineConfig::caltech_paragon(compute_nodes),
            faults: FaultSchedule::empty(),
        }
    }
}

/// Per-object metadata, maintained by the metadata service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object name (flat namespace; no directories).
    pub name: String,
    /// Logical size in bytes (grows monotonically under PUTs).
    pub size: u64,
    /// Instant of the last completed PUT.
    pub mtime: Time,
    /// Process whose PUT completed last.
    pub last_writer: Option<Pid>,
    /// PUTs served against this object.
    pub puts: u64,
    /// GETs served against this object.
    pub gets: u64,
}

/// The flat-namespace store itself.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    objects: Vec<ObjectMeta>,
    /// Private pointer per (object, process); also the open-handle set.
    handles: HandleTable<u64>,
    md: CalendarPool,
    targets: CalendarPool,
    stats: BackendStats,
    /// Compiled fault windows; `None` when the schedule does not
    /// engage, so fault-free runs never touch the fault machinery.
    fault_state: Option<ObjectFaultState>,
    resilience: ResilienceStats,
}

impl ObjectStore {
    /// Build an empty store.
    pub fn new(cfg: ObjectStoreConfig) -> Self {
        let fault_state = cfg
            .faults
            .engages()
            .then(|| ObjectFaultState::new(&cfg.faults, MD_SHARDS));
        ObjectStore {
            objects: Vec::new(),
            handles: HandleTable::default(),
            md: CalendarPool::new(MD_SHARDS as usize),
            targets: CalendarPool::new(TARGETS),
            stats: BackendStats::default(),
            fault_state,
            resilience: ResilienceStats::default(),
        }
    }

    /// Metadata of one object, as the metadata service sees it.
    pub fn object_meta(&self, fid: FileId) -> Option<&ObjectMeta> {
        self.objects.get(fid.index())
    }

    fn shard(&self, fid: FileId) -> usize {
        fid.index() % self.md.len()
    }

    fn target(&self, fid: FileId) -> usize {
        fid.index() % self.targets.len()
    }

    fn transfer_time(&self, bytes: u64) -> Time {
        let ns = (u128::from(bytes) * 1_000_000_000u128) / u128::from(BANDWIDTH_BPS);
        Time::from_nanos(ns as u64)
    }

    fn check_exists(&self, fid: FileId) -> Result<(), PfsError> {
        if fid.index() < self.objects.len() {
            Ok(())
        } else {
            Err(PfsError::NoSuchFile(fid))
        }
    }

    /// Reserve the object's metadata shard at `arrival`, returning the
    /// service finish. With faults engaged this is where the failover
    /// ladder runs: a dark shard costs one timeout, then bounded
    /// retries with exponential backoff; if the shard is still dark
    /// the request re-routes to the lowest-numbered healthy replica
    /// shard (service scaled by the re-route penalty), and only when the
    /// whole metadata service is dark does it stall until the shard
    /// returns. Degraded-service windows scale the service demand.
    /// Every branch is a pure function of `(arrival, fid)` and the
    /// compiled windows, so replays are bit-identical.
    fn md_reserve(&mut self, arrival: Time, fid: FileId) -> Time {
        let shard = self.shard(fid);
        let service = MD_SERVICE;
        match &self.fault_state {
            None => self.md.reserve(shard, arrival, service).finish,
            Some(state) => {
                let mut shard = shard as u32;
                let mut t = arrival;
                let mut penalty = 1.0f64;
                if state.is_shard_down(shard, t) {
                    self.resilience.timeouts += 1;
                    t = t.saturating_add(REQUEST_TIMEOUT);
                    let mut backoff = BACKOFF_BASE;
                    let mut tries = 0;
                    while tries < MAX_RETRIES && state.is_shard_down(shard, t) {
                        self.resilience.retries += 1;
                        t = t.saturating_add(backoff);
                        backoff = backoff.scale(BACKOFF_MULTIPLIER);
                        tries += 1;
                    }
                    if state.is_shard_down(shard, t) {
                        match state.first_healthy_shard(t, shard) {
                            Some(alt) => {
                                self.resilience.reroutes += 1;
                                shard = alt;
                                penalty = REROUTE_PENALTY;
                            }
                            None => {
                                self.resilience.aborts += 1;
                                t = state.shard_down_until(shard, t).unwrap_or(t);
                            }
                        }
                    }
                }
                let factor = state.service_factor(t) * penalty;
                let service = if factor > 1.0 {
                    service.scale(factor)
                } else {
                    service
                };
                self.md.reserve(shard as usize, t, service).finish
            }
        }
    }

    /// Scale a target transfer by the degraded-service factor in
    /// force at its start. Identity when no window covers `at`.
    fn degraded_xfer(&self, xfer: Time, at: Time) -> Time {
        match &self.fault_state {
            Some(state) => {
                let factor = state.service_factor(at);
                if factor > 1.0 {
                    xfer.scale(factor)
                } else {
                    xfer
                }
            }
            None => xfer,
        }
    }

    /// Metadata round trip: client → shard → client.
    fn metadata_op(&mut self, now: Time, fid: FileId) -> Time {
        let finish = self.md_reserve(now + NET_LATENCY, fid);
        finish + NET_LATENCY
    }
}

impl StorageBackend for ObjectStore {
    fn kind(&self) -> BackendKind {
        BackendKind::Object
    }

    fn create_file_with_size(&mut self, name: &str, size: u64) -> FileId {
        let id = FileId(self.objects.len() as u32);
        self.objects.push(ObjectMeta {
            name: name.to_string(),
            size,
            mtime: Time::ZERO,
            last_writer: None,
            puts: 0,
            gets: 0,
        });
        id
    }

    fn submit_into(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        self.check_exists(fid)?;
        let ptr = self.handles.get(fid, pid).copied();

        let completion = |finish: Time, bytes: u64, offset: u64| Completion {
            pid,
            finish,
            bytes,
            offset,
            kind: op.kind(),
            // The store is non-collective and async by construction;
            // 1996 shared-pointer modes do not exist here.
            mode: IoMode::MAsync,
        };

        match (op, ptr) {
            (IoOp::Open | IoOp::Gopen { .. }, Some(_)) => {
                Err(PfsError::AlreadyOpen { file: fid, pid })
            }
            (IoOp::Open | IoOp::Gopen { .. }, None) => {
                // gopen degenerates to a per-process open: no group
                // rendezvous, no mode to set. Completes independently.
                let finish = self.metadata_op(now, fid);
                self.handles.insert(fid, pid, 0);
                out.push(completion(finish, 0, 0));
                Ok(true)
            }
            (_, None) => Err(PfsError::NotOpen { file: fid, pid }),
            (IoOp::Close, Some(_)) => {
                let finish = self.metadata_op(now, fid);
                self.handles.remove(fid, pid);
                out.push(completion(finish, 0, 0));
                Ok(true)
            }
            (IoOp::Seek { offset }, Some(_)) => {
                self.handles.insert(fid, pid, *offset);
                out.push(completion(now + CLIENT_OVERHEAD, 0, *offset));
                Ok(true)
            }
            (IoOp::SetIoMode { .. } | IoOp::SetBuffering { .. } | IoOp::Flush, Some(ptr)) => {
                // No shared modes to change, nothing buffered
                // server-side to flush: client-local bookkeeping.
                out.push(completion(now + CLIENT_OVERHEAD, 0, ptr));
                Ok(true)
            }
            (IoOp::Read { size }, Some(ptr)) => {
                let avail = self.objects[fid.index()].size.saturating_sub(ptr);
                let bytes = (*size).min(avail);
                let md_done = self.md_reserve(now + NET_LATENCY, fid);
                let xfer = self.degraded_xfer(self.transfer_time(bytes), md_done);
                let tgt = self.target(fid);
                let finish = self.targets.reserve(tgt, md_done, xfer).finish + NET_LATENCY;
                let meta = &mut self.objects[fid.index()];
                meta.gets += 1;
                self.stats.gets += 1;
                self.handles.insert(fid, pid, ptr + bytes);
                out.push(completion(finish, bytes, ptr));
                Ok(true)
            }
            (IoOp::Write { size }, Some(ptr)) => {
                let md_done = self.md_reserve(now + PUT_OVERHEAD + NET_LATENCY, fid);
                let xfer = self.degraded_xfer(self.transfer_time(*size), md_done);
                let tgt = self.target(fid);
                let finish = self.targets.reserve(tgt, md_done, xfer).finish + NET_LATENCY;
                let meta = &mut self.objects[fid.index()];
                meta.size = meta.size.max(ptr + *size);
                meta.mtime = finish;
                meta.last_writer = Some(pid);
                meta.puts += 1;
                self.stats.puts += 1;
                self.handles.insert(fid, pid, ptr + *size);
                out.push(completion(finish, *size, ptr));
                Ok(true)
            }
        }
    }

    fn fault_transition_times(&self) -> Vec<Time> {
        self.fault_state
            .as_ref()
            .map(|s| s.transitions().to_vec())
            .unwrap_or_default()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_faults::FaultKind;

    fn store() -> ObjectStore {
        ObjectStore::new(ObjectStoreConfig::modern(4))
    }

    fn one(
        s: &mut ObjectStore,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
    ) -> Result<Completion, PfsError> {
        let mut out = Vec::new();
        let done = s.submit_into(now, pid, fid, op, &mut out)?;
        assert!(done, "object ops never block");
        assert_eq!(out.len(), 1);
        Ok(out[0])
    }

    #[test]
    fn put_get_round_trip_with_metadata() {
        let mut s = store();
        let fid = s.create_file_with_size("obj", 0);
        let p = Pid(0);
        one(&mut s, Time::ZERO, p, fid, &IoOp::Open).unwrap();
        let w = one(&mut s, Time::ZERO, p, fid, &IoOp::Write { size: 4096 }).unwrap();
        assert_eq!(w.bytes, 4096);
        assert_eq!(w.offset, 0);
        let meta = s.object_meta(fid).unwrap();
        assert_eq!(meta.size, 4096);
        assert_eq!(meta.mtime, w.finish);
        assert_eq!(meta.last_writer, Some(p));
        // Read back from the start: read-your-writes.
        one(&mut s, w.finish, p, fid, &IoOp::Seek { offset: 0 }).unwrap();
        let r = one(&mut s, w.finish, p, fid, &IoOp::Read { size: 8192 }).unwrap();
        assert_eq!(r.bytes, 4096, "GET truncates at object size");
        assert_eq!(s.stats().puts, 1);
        assert_eq!(s.stats().gets, 1);
    }

    #[test]
    fn gopen_is_per_process_and_never_blocks() {
        let mut s = store();
        let fid = s.create_file_with_size("shared", 1 << 20);
        for p in 0..4 {
            let op = IoOp::Gopen {
                group: 4,
                mode: IoMode::MRecord,
                record_size: Some(512),
            };
            let c = one(&mut s, Time::ZERO, Pid(p), fid, &op).unwrap();
            assert_eq!(c.mode, IoMode::MAsync, "shared-pointer modes do not exist");
        }
        assert_eq!(s.forming_collectives(), 0);
    }

    #[test]
    fn misuse_is_rejected_like_the_pfs() {
        let mut s = store();
        let fid = s.create_file_with_size("f", 0);
        let p = Pid(1);
        assert!(matches!(
            one(&mut s, Time::ZERO, p, fid, &IoOp::Read { size: 1 }),
            Err(PfsError::NotOpen { .. })
        ));
        one(&mut s, Time::ZERO, p, fid, &IoOp::Open).unwrap();
        assert!(matches!(
            one(&mut s, Time::ZERO, p, fid, &IoOp::Open),
            Err(PfsError::AlreadyOpen { .. })
        ));
        assert!(matches!(
            one(&mut s, Time::ZERO, p, FileId(9), &IoOp::Open),
            Err(PfsError::NoSuchFile(_))
        ));
    }

    fn drive(s: &mut ObjectStore) -> Vec<Completion> {
        let fid = s.create_file_with_size("obj", 0);
        let p = Pid(0);
        let mut cs = Vec::new();
        cs.push(one(s, Time::ZERO, p, fid, &IoOp::Open).unwrap());
        cs.push(one(s, Time::ZERO, p, fid, &IoOp::Write { size: 4096 }).unwrap());
        let t = cs.last().unwrap().finish;
        cs.push(one(s, t, p, fid, &IoOp::Seek { offset: 0 }).unwrap());
        cs.push(one(s, t, p, fid, &IoOp::Read { size: 4096 }).unwrap());
        cs.push(one(s, t, p, fid, &IoOp::Close).unwrap());
        cs
    }

    #[test]
    fn engaged_empty_schedule_is_bit_neutral() {
        let mut plain = store();
        let mut cfg = ObjectStoreConfig::modern(4);
        cfg.faults = FaultSchedule::engaged_empty();
        let mut engaged = ObjectStore::new(cfg);
        assert!(engaged.fault_state.is_some(), "hooks are in the loop");
        assert_eq!(drive(&mut plain), drive(&mut engaged));
        assert!(engaged.resilience_stats().is_quiet());
        assert!(engaged.fault_transition_times().is_empty());
    }

    #[test]
    fn shard_outage_engages_the_failover_ladder() {
        let mut cfg = ObjectStoreConfig::modern(4);
        // FileId(0) maps to shard 0; keep it dark for a long window so
        // the ladder exhausts its retries and re-routes to shard 1.
        cfg.faults.push(
            Time::ZERO,
            FaultKind::MetadataShardOutage {
                shard: 0,
                duration: Time::from_secs(100),
            },
        );
        let mut s = ObjectStore::new(cfg.clone());
        let fault_free = drive(&mut store());
        let faulted = drive(&mut s);
        let rs = s.resilience_stats();
        assert_eq!(rs.timeouts, 4, "open, put, get, close each time out");
        assert_eq!(rs.retries, 4 * 4);
        assert_eq!(rs.reroutes, 4, "replica shard serves every one");
        assert_eq!(rs.aborts, 0);
        // Same bytes and offsets, later completions.
        for (a, b) in fault_free.iter().zip(&faulted) {
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.offset, b.offset);
        }
        assert!(faulted[0].finish > fault_free[0].finish);
        assert_eq!(
            s.fault_transition_times(),
            vec![Time::ZERO, Time::from_secs(100)]
        );
        // Deterministic replay.
        assert_eq!(drive(&mut ObjectStore::new(cfg)), faulted);
    }

    /// A modern store whose metadata shards `shards` go dark at time
    /// zero for `duration`.
    fn dark(shards: &[u32], duration: Time) -> ObjectStore {
        let mut cfg = ObjectStoreConfig::modern(4);
        for &shard in shards {
            cfg.faults.push(
                Time::ZERO,
                FaultKind::MetadataShardOutage { shard, duration },
            );
        }
        ObjectStore::new(cfg)
    }

    /// The metadata ladder, step by step: a 50 ms timeout, backoffs of
    /// 20, 40, 80 and 160 ms, then the replica shard serves the 10 us
    /// request at a 1.5x factor.
    #[test]
    fn a_dark_shard_reroutes_to_its_replica_after_the_full_ladder() {
        let mut s = dark(&[0], Time::from_secs(100));
        let arrival = Time::from_secs(1);
        assert_eq!(
            s.md_reserve(arrival, FileId(0)),
            arrival + Time::from_millis(350) + Time::from_micros(15)
        );
        let expected = ResilienceStats {
            timeouts: 1,
            retries: 4,
            reroutes: 1,
            ..ResilienceStats::default()
        };
        assert_eq!(s.resilience_stats(), expected);
        assert_eq!(
            s.md_reserve(arrival, FileId(2)),
            arrival + Time::from_micros(10),
            "a healthy, idle shard serves at once"
        );
        assert_eq!(s.resilience_stats(), expected);
    }

    /// A shard that comes back during the backoff serves in place:
    /// dark at 50 and 70 ms, back at 110 ms.
    #[test]
    fn a_shard_back_mid_ladder_serves_in_place() {
        let arrival = Time::from_secs(1);
        let mut s = dark(&[0], arrival + Time::from_millis(100));
        assert_eq!(
            s.md_reserve(arrival, FileId(0)),
            arrival + Time::from_millis(110) + Time::from_micros(10)
        );
        assert_eq!(
            s.resilience_stats(),
            ResilienceStats {
                timeouts: 1,
                retries: 2,
                ..ResilienceStats::default()
            }
        );
    }

    /// With every shard dark the request walks the whole ladder, then
    /// stalls until its own shard returns, counting one abort.
    #[test]
    fn with_every_shard_dark_a_request_stalls_until_its_shard_returns() {
        let until = Time::from_secs(30);
        let mut s = dark(&[0, 1, 2, 3], until);
        assert_eq!(
            s.md_reserve(Time::from_secs(1), FileId(0)),
            until + Time::from_micros(10)
        );
        assert_eq!(
            s.resilience_stats(),
            ResilienceStats {
                timeouts: 1,
                retries: 4,
                aborts: 1,
                ..ResilienceStats::default()
            }
        );
    }

    #[test]
    fn whole_dark_metadata_service_stalls_until_restart() {
        let mut cfg = ObjectStoreConfig::modern(4);
        let until = Time::from_secs(30);
        for shard in 0..4 {
            cfg.faults.push(
                Time::ZERO,
                FaultKind::MetadataShardOutage {
                    shard,
                    duration: until,
                },
            );
        }
        let mut s = ObjectStore::new(cfg);
        let fid = s.create_file_with_size("obj", 0);
        let c = one(&mut s, Time::ZERO, Pid(0), fid, &IoOp::Open).unwrap();
        assert!(c.finish > until, "request waits out the outage");
        let rs = s.resilience_stats();
        assert_eq!(rs.aborts, 1);
        assert_eq!(rs.reroutes, 0);
    }

    #[test]
    fn degraded_service_slows_without_changing_semantics() {
        let mut cfg = ObjectStoreConfig::modern(4);
        cfg.faults.push(
            Time::ZERO,
            FaultKind::DegradedService {
                duration: Time::from_secs(100),
                factor: 4.0,
            },
        );
        let mut slow = ObjectStore::new(cfg);
        let fault_free = drive(&mut store());
        let degraded = drive(&mut slow);
        for (a, b) in fault_free.iter().zip(&degraded) {
            assert_eq!(a.bytes, b.bytes, "PUT/GET semantics survive degradation");
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.kind, b.kind);
        }
        assert!(
            degraded[1].finish > fault_free[1].finish,
            "PUT pays the factor"
        );
        assert!(
            degraded[3].finish > fault_free[3].finish,
            "GET pays the factor"
        );
        assert!(
            slow.resilience_stats().is_quiet(),
            "degradation is not a failover action"
        );
    }

    #[test]
    fn whole_object_maps_to_one_target() {
        let mut s = store();
        let a = s.create_file_with_size("a", 0);
        let p = Pid(0);
        one(&mut s, Time::ZERO, p, a, &IoOp::Open).unwrap();
        let w1 = one(&mut s, Time::ZERO, p, a, &IoOp::Write { size: 1 << 20 }).unwrap();
        // A second writer to the same object queues on the same
        // target: no striping parallelism within one object.
        let q = Pid(1);
        one(&mut s, Time::ZERO, q, a, &IoOp::Open).unwrap();
        let w2 = one(&mut s, Time::ZERO, q, a, &IoOp::Write { size: 1 << 20 }).unwrap();
        assert!(w2.finish > w1.finish);
    }
}
