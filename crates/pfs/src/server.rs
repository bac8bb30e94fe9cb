//! The PFS server: composes file state, mode semantics, the machine's
//! device models, and client-side buffering into end-to-end operation
//! costs.
//!
//! The server is *passive*: the simulation event loop (in the
//! `sioscope` core crate) calls [`Pfs::submit`] whenever a process
//! issues an I/O call, and the server returns either the completion(s)
//! or `Blocked` (the process joined a still-forming collective group
//! and will be completed by the arrival that closes the group).
//!
//! All queueing — the metadata server, each file's atomicity token,
//! and each I/O node's disk — is modelled with calendar resources, so
//! client-observed durations naturally include contention delay. That
//! is exactly what the Pablo instrumentation measured, and it is what
//! makes e.g. 128 concurrent `open`s expensive (Table 2, version A)
//! without any special-case code.
//!
//! Per-process state is found by index. Each open or completed gopen
//! puts a handle (the private pointer and the client cache) in the
//! server's `HandleTable` (`handles.rs`), and the close takes it
//! out, so "is this file open by this process?" is the handle's
//! presence. Each [`FileState`] keeps its openers in pid order, which
//! collective rounds count and rank, and a pid-indexed counter of the
//! collective rounds each process has joined, which a close keeps.

use crate::cache::{ClientFileState, ReadProbe};
use crate::costs::PfsCosts;
use crate::error::PfsError;
use crate::file::FileState;
use crate::handles::HandleTable;
use crate::ioncache::IonCache;
use crate::mode::{IoMode, OsRelease};
use crate::op::{Completion, IoOp, OpKind, Outcome};
use crate::policy::PolicyConfig;
use crate::resilience::{
    ResilienceStats, BACKOFF_BASE, BACKOFF_MULTIPLIER, MAX_RETRIES, REQUEST_TIMEOUT,
    REROUTE_PENALTY,
};
use crate::stripe::{Segment, StripeLayout};
use sioscope_faults::{FaultSchedule, FaultState};
use sioscope_machine::{DiskModel, MachineConfig, MeshModel};
use sioscope_sim::{
    Calendar, CalendarPool, DetHashMap, FileId, NodeId, Pid, RendezvousOutcome, RendezvousTable,
    Time,
};

/// Full PFS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsConfig {
    /// The machine the file system runs on.
    pub machine: MachineConfig,
    /// Software cost constants.
    pub costs: PfsCosts,
    /// Operating-system release (governs M_ASYNC availability).
    pub os: OsRelease,
    /// Stripe unit for newly created files (PFS default: 64 KB).
    pub stripe_unit: u64,
    /// Client-side policy switches (all off = the measured PFS).
    pub policy: PolicyConfig,
    /// Injected fault scenario. An empty, disengaged schedule (the
    /// default) keeps every computation bit-identical to a build
    /// without the fault machinery.
    pub faults: FaultSchedule,
}

impl PfsConfig {
    /// The Caltech configuration under a given OS release.
    pub fn caltech(compute_nodes: u32, os: OsRelease) -> Self {
        PfsConfig {
            machine: MachineConfig::caltech_paragon(compute_nodes),
            costs: PfsCosts::for_os(os),
            os,
            stripe_unit: 64 * 1024,
            policy: PolicyConfig::measured_pfs(),
            faults: FaultSchedule::empty(),
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        PfsConfig {
            machine: MachineConfig::tiny(),
            costs: PfsCosts::paragon_osf(),
            os: OsRelease::Osf13,
            stripe_unit: 64 * 1024,
            policy: PolicyConfig::measured_pfs(),
            faults: FaultSchedule::empty(),
        }
    }
}

/// The parallel file system.
///
/// ```
/// use sioscope_pfs::{IoOp, Outcome, Pfs, PfsConfig};
/// use sioscope_sim::{Pid, Time};
///
/// let mut pfs = Pfs::new(PfsConfig::tiny());
/// let file = pfs.create_file_with_size("input", 1 << 20);
/// let opened = match pfs.submit(Time::ZERO, Pid(0), file, &IoOp::Open).unwrap() {
///     Outcome::Done(cs) => cs[0].finish,
///     Outcome::Blocked => unreachable!("open is not collective"),
/// };
/// let read = pfs.submit(opened, Pid(0), file, &IoOp::Read { size: 4096 }).unwrap();
/// assert!(matches!(read, Outcome::Done(_)));
/// ```
pub struct Pfs {
    cfg: PfsConfig,
    mesh: MeshModel,
    disk: DiskModel,
    files: Vec<FileState>,
    by_name: DetHashMap<String, FileId>,
    /// The metadata server: opens/gopens/setiomode/close serialize here.
    metadata: Calendar,
    /// One disk calendar per I/O node.
    ions: CalendarPool,
    /// Last `(file, end_offset)` transferred per I/O node, for
    /// sequential-positioning detection.
    ion_last: Vec<Option<(FileId, u64)>>,
    /// Per-I/O-node block caches.
    ion_caches: Vec<IonCache>,
    /// Per-I/O-node mesh injection links: data returned to (or sent
    /// by) many clients serializes on the I/O node's single link.
    ion_links: CalendarPool,
    rdv: RendezvousTable,
    /// Per-rendezvous-round context: each member's request size.
    pending_sizes: DetHashMap<u64, Vec<(Pid, u64)>>,
    /// The handle each process holds open on each file.
    handles: HandleTable<Handle>,
    /// Compiled fault state; `None` iff the schedule does not engage,
    /// which is the guarantee that fault-free runs skip every hook.
    faults: Option<FaultState>,
    /// Resilience actions taken so far.
    res_stats: ResilienceStats,
}

/// One process's open handle on one file: its private pointer and
/// its client-side buffering state. An open or a completed gopen makes
/// a fresh one, and a close drops it.
#[derive(Debug, Default)]
struct Handle {
    ptr: u64,
    client: ClientFileState,
}

/// What a `gopen` or `setiomode` call asks for: the collective's size,
/// and the mode (and record size) it sets.
#[derive(Debug, Clone, Copy)]
struct ModeRequest {
    group: u32,
    mode: IoMode,
    record_size: Option<u64>,
}

impl Pfs {
    /// Build a file system over `cfg`.
    pub fn new(cfg: PfsConfig) -> Self {
        let mesh = MeshModel::new(cfg.machine.mesh);
        let disk = DiskModel::new(cfg.machine.disk);
        let n_ions = cfg.machine.io_nodes as usize;
        let faults = cfg
            .faults
            .engages()
            .then(|| FaultState::new(&cfg.faults, cfg.machine.io_nodes));
        Pfs {
            mesh,
            disk,
            files: Vec::new(),
            by_name: DetHashMap::default(),
            metadata: Calendar::new(),
            ions: CalendarPool::new(n_ions),
            ion_last: vec![None; n_ions],
            ion_caches: vec![IonCache::new(cfg.costs.ion_cache_blocks); n_ions],
            ion_links: CalendarPool::new(n_ions),
            rdv: RendezvousTable::new(),
            pending_sizes: DetHashMap::default(),
            handles: HandleTable::default(),
            faults,
            res_stats: ResilienceStats::default(),
            cfg,
        }
    }

    /// Register (or clear) the mesh placement of one compute node —
    /// the batch scheduler calls this as it allocates and frees
    /// sub-mesh partitions, so client↔I/O-node message times reflect
    /// where each job actually sits on the shared mesh. Dedicated runs
    /// never call it and keep the row-major default.
    pub fn place_compute_node(&mut self, node: NodeId, pos: Option<(u32, u32)>) {
        self.cfg.machine.place_node(node, pos);
    }

    /// Create an empty file striped over all I/O nodes.
    pub fn create_file(&mut self, name: &str) -> FileId {
        self.create_file_with_size(name, 0)
    }

    /// Create a file pre-populated with `size` bytes (input files that
    /// exist before the application starts).
    pub fn create_file_with_size(&mut self, name: &str, size: u64) -> FileId {
        assert!(
            !self.by_name.contains_key(name),
            "file {name:?} already exists"
        );
        let id = FileId(self.files.len() as u32);
        let layout = StripeLayout::new(self.cfg.stripe_unit, self.cfg.machine.io_nodes);
        let mut f = FileState::new(id, name.to_string(), layout);
        f.size = size;
        self.files.push(f);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Inspect a file's state.
    pub fn file(&self, id: FileId) -> Option<&FileState> {
        self.files.get(id.index())
    }

    /// `pid`'s private pointer on file `fid`, while it holds the file
    /// open.
    pub fn private_ptr(&self, fid: FileId, pid: Pid) -> Option<u64> {
        self.handles.get(fid, pid).map(|h| h.ptr)
    }

    /// The handle `pid` holds open on `fid`.
    fn handle(&mut self, fid: FileId, pid: Pid) -> Result<&mut Handle, PfsError> {
        self.handles
            .get_mut(fid, pid)
            .ok_or(PfsError::NotOpen { file: fid, pid })
    }

    /// Number of rendezvous groups still forming (must be zero when an
    /// experiment's event queue drains; otherwise the workload
    /// deadlocked).
    pub fn forming_collectives(&self) -> usize {
        self.rdv.forming()
    }

    /// Per-I/O-node utilization over `[0, horizon]`.
    pub fn ion_utilizations(&self, horizon: Time) -> Vec<f64> {
        (0..self.cfg.machine.io_nodes as usize)
            .map(|i| {
                self.ions
                    .get(i)
                    .map(|c| c.utilization(horizon))
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Resilience actions taken so far (all zero on fault-free runs).
    pub(crate) fn resilience_stats(&self) -> ResilienceStats {
        self.res_stats
    }

    /// The compiled fault state, when the schedule engages.
    pub(crate) fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// Submit one operation. `now` is the current simulation time;
    /// the returned completions' `finish` fields are absolute times
    /// (>= `now`).
    ///
    /// Convenience wrapper over [`Pfs::submit_into`] that allocates a
    /// fresh completion vector per call; the simulation event loop
    /// calls `submit_into` with one reused buffer instead.
    pub fn submit(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
    ) -> Result<Outcome, PfsError> {
        let mut out = Vec::new();
        Ok(if self.submit_into(now, pid, fid, op, &mut out)? {
            Outcome::Done(out)
        } else {
            Outcome::Blocked
        })
    }

    /// Allocation-free submission: completions are *appended* to
    /// `out`. Returns `Ok(true)` when the operation completed (its
    /// completions were pushed), `Ok(false)` when the caller joined a
    /// still-forming collective group and will be completed by the
    /// arrival that closes the group. On `Ok(false)` and on errors
    /// nothing is pushed.
    pub fn submit_into(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        if fid.index() >= self.files.len() {
            return Err(PfsError::NoSuchFile(fid));
        }
        match op {
            IoOp::Open => self.do_open(now, pid, fid, out),
            &IoOp::Gopen {
                group,
                mode,
                record_size,
            } => {
                let req = ModeRequest {
                    group,
                    mode,
                    record_size,
                };
                self.do_gopen(now, pid, fid, req, out)
            }
            &IoOp::SetIoMode {
                group,
                mode,
                record_size,
            } => {
                let req = ModeRequest {
                    group,
                    mode,
                    record_size,
                };
                self.do_setiomode(now, pid, fid, req, out)
            }
            IoOp::Read { size } => self.do_data(now, pid, fid, *size, false, out),
            IoOp::Write { size } => self.do_data(now, pid, fid, *size, true, out),
            IoOp::Seek { offset } => self.do_seek(now, pid, fid, *offset, out),
            IoOp::SetBuffering { enabled } => self.do_set_buffering(now, pid, fid, *enabled, out),
            IoOp::Flush => self.do_flush(now, pid, fid, out),
            IoOp::Close => self.do_close(now, pid, fid, out),
        }
    }

    // ----- control operations -------------------------------------------

    fn do_open(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let service = self.cfg.costs.open_service;
        let overhead = self.cfg.costs.client_overhead;
        if self.handles.get(fid, pid).is_some() {
            return Err(PfsError::AlreadyOpen { file: fid, pid });
        }
        // Every open pays the client-side path concurrently, plus a
        // serialized slice of the metadata server; concurrent opens by
        // many nodes are the version-A bottleneck in both
        // applications.
        let res = self.metadata.reserve(now, service);
        let file = &mut self.files[fid.index()];
        file.add_opener(pid);
        let mode = file.mode;
        self.handles.insert(fid, pid, Handle::default());
        out.push(Completion {
            pid,
            finish: res.finish + self.cfg.costs.open_local + overhead,
            bytes: 0,
            offset: 0,
            kind: OpKind::Open,
            mode,
        });
        Ok(true)
    }

    fn do_gopen(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        req: ModeRequest,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let ModeRequest {
            group,
            mode,
            record_size,
        } = req;
        if !mode.available_in(self.cfg.os) {
            return Err(PfsError::ModeUnavailable { mode: mode.name() });
        }
        if mode == IoMode::MRecord && record_size.is_none() {
            return Err(PfsError::RecordSizeMismatch {
                file: fid,
                expected: 0,
                got: 0,
            });
        }
        if self.handles.get(fid, pid).is_some() {
            return Err(PfsError::AlreadyOpen { file: fid, pid });
        }
        let key = {
            let file = &mut self.files[fid.index()];
            let seq = file.next_collective_seq(pid);
            file.rendezvous_key(seq)
        };
        match self.rdv.arrive(key, pid, now, group as usize) {
            RendezvousOutcome::Waiting => Ok(false),
            RendezvousOutcome::Complete { arrivals, release } => {
                // One metadata operation for the whole group.
                let service =
                    self.cfg.costs.gopen_base + self.cfg.costs.gopen_per_member * u64::from(group);
                let res = self.metadata.reserve(release, service);
                let finish = res.finish + self.cfg.costs.client_overhead;
                let file = &mut self.files[fid.index()];
                file.mode = mode;
                file.record_size = record_size;
                file.shared_ptr = 0;
                out.reserve(arrivals.len());
                for (p, _) in arrivals {
                    file.add_opener(p);
                    self.handles.insert(fid, p, Handle::default());
                    out.push(Completion {
                        pid: p,
                        finish,
                        bytes: 0,
                        offset: 0,
                        kind: OpKind::Gopen,
                        mode,
                    });
                }
                Ok(true)
            }
        }
    }

    fn do_setiomode(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        req: ModeRequest,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let ModeRequest {
            group,
            mode,
            record_size,
        } = req;
        if !mode.available_in(self.cfg.os) {
            return Err(PfsError::ModeUnavailable { mode: mode.name() });
        }
        if self.handles.get(fid, pid).is_none() {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        let key = {
            let file = &mut self.files[fid.index()];
            let seq = file.next_collective_seq(pid);
            file.rendezvous_key(seq)
        };
        match self.rdv.arrive(key, pid, now, group as usize) {
            RendezvousOutcome::Waiting => Ok(false),
            RendezvousOutcome::Complete { arrivals, release } => {
                // Group-vs-openers consistency can only be judged once
                // the whole group has arrived: members may legitimately
                // join the collective before every participant has
                // opened the file.
                let openers = self.files[fid.index()].opener_count();
                if openers != group {
                    return Err(PfsError::GroupMismatch {
                        file: fid,
                        declared: group,
                        openers,
                    });
                }
                let service = self.cfg.costs.iomode_base
                    + self.cfg.costs.iomode_per_member * u64::from(group);
                let res = self.metadata.reserve(release, service);
                let finish = res.finish + self.cfg.costs.client_overhead;
                let file = &mut self.files[fid.index()];
                file.mode = mode;
                if record_size.is_some() {
                    file.record_size = record_size;
                }
                file.shared_ptr = 0;
                out.extend(arrivals.into_iter().map(|(p, _)| Completion {
                    pid: p,
                    finish,
                    bytes: 0,
                    offset: 0,
                    kind: OpKind::Iomode,
                    mode,
                }));
                Ok(true)
            }
        }
    }

    fn do_seek(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let costs = self.cfg.costs;
        let aggregating = self.cfg.policy.write_aggregation || self.cfg.policy.adaptive;
        let Some(handle) = self.handles.get_mut(fid, pid) else {
            return Err(PfsError::NotOpen { file: fid, pid });
        };
        let file = &mut self.files[fid.index()];
        if !file.mode.private_pointer() {
            return Err(PfsError::SeekOnSharedPointer { file: fid, pid });
        }
        // With client-side write aggregation (the §7 policy, static or
        // adaptive), a seek is a buffered pointer update: the server
        // sees only drained ranges, so no round trip is needed. On the
        // measured PFS, a seek on a UNIX-shared file is a file-server
        // round trip through the atomicity token — the ESCAT
        // version-B bottleneck (Table 2: seek 63.2% of I/O time).
        let finish = if file.mode == IoMode::MUnix && file.opener_count() > 1 && !aggregating {
            let res = file.token.reserve(now, costs.seek_server_service);
            res.finish + costs.client_overhead
        } else {
            now + costs.seek_local
        };
        handle.ptr = offset;
        let mode = file.mode;
        out.push(Completion {
            pid,
            finish,
            bytes: 0,
            offset,
            kind: OpKind::Seek,
            mode,
        });
        Ok(true)
    }

    fn do_set_buffering(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        enabled: bool,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let client = &mut self.handle(fid, pid)?.client;
        client.buffering = enabled;
        client.invalidate_reads();
        let mode = self.files[fid.index()].mode;
        out.push(Completion {
            pid,
            finish: now + self.cfg.costs.seek_local,
            bytes: 0,
            offset: 0,
            kind: OpKind::Iomode,
            mode,
        });
        Ok(true)
    }

    fn do_flush(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let drained = self.drain_write_buf(now, pid, fid);
        let pending = self.handle(fid, pid)?.client.drain_done_at;
        let finish = now.max(drained).max(pending) + self.cfg.costs.flush_service;
        let mode = self.files[fid.index()].mode;
        out.push(Completion {
            pid,
            finish,
            bytes: 0,
            offset: 0,
            kind: OpKind::Flush,
            mode,
        });
        Ok(true)
    }

    fn do_close(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let drained = self.drain_write_buf(now, pid, fid);
        let Some(handle) = self.handles.remove(fid, pid) else {
            return Err(PfsError::NotOpen { file: fid, pid });
        };
        let pending = handle.client.drain_done_at;
        // Closes update metadata asynchronously; the client pays only
        // a fixed service cost (unlike opens, they did not measure as
        // serialized storms — Tables 2/5 show close at a few percent).
        let finish = now.max(drained).max(pending)
            + self.cfg.costs.close_service
            + self.cfg.costs.client_overhead;
        let file = &mut self.files[fid.index()];
        // Record the mode the file was closed under, before any reset.
        let mode = file.mode;
        file.remove_opener(pid);
        if file.opener_count() == 0 {
            // Fresh opens start over: default mode, pointers rewound.
            file.mode = IoMode::MUnix;
            file.record_size = None;
            file.shared_ptr = 0;
        }
        out.push(Completion {
            pid,
            finish,
            bytes: 0,
            offset: 0,
            kind: OpKind::Close,
            mode,
        });
        Ok(true)
    }

    // ----- data operations ----------------------------------------------

    fn do_data(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        size: u64,
        write: bool,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        if self.handles.get(fid, pid).is_none() {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        match self.files[fid.index()].mode {
            IoMode::MUnix | IoMode::MAsync => {
                if write {
                    self.private_write(now, pid, fid, size, out)
                } else {
                    self.private_read(now, pid, fid, size, out)
                }
            }
            IoMode::MLog => self.log_data(now, pid, fid, size, write, out),
            IoMode::MRecord | IoMode::MGlobal | IoMode::MSync => {
                self.collective_data(now, pid, fid, size, write, out)
            }
        }
    }

    /// May reads of this file pass through the client cache? Reading
    /// is coherence-safe for both private-pointer modes: block fetches
    /// still serialize through the M_UNIX token, but repeated small
    /// reads within a fetched block are local. The structured
    /// collective modes move whole records and never cache.
    fn read_cache_allowed(&self, fid: FileId) -> bool {
        matches!(self.files[fid.index()].mode, IoMode::MUnix | IoMode::MAsync)
    }

    /// May writes coalesce in the client buffer by default? Only for a
    /// single-opener M_UNIX file — standard UNIX write-back buffering.
    /// Shared M_UNIX writes must reach the servers synchronously to
    /// preserve atomicity, and M_ASYNC applications "write the data
    /// directly" (§4.3).
    fn write_buffer_allowed(&self, fid: FileId) -> bool {
        let file = &self.files[fid.index()];
        file.mode == IoMode::MUnix && file.opener_count() <= 1
    }

    /// Reads in the private-pointer modes (M_UNIX, M_ASYNC), through
    /// the client buffer cache when enabled.
    fn private_read(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        size: u64,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let costs = self.cfg.costs;
        let policy = self.cfg.policy;
        let t0 = now + costs.client_overhead;
        let cache_allowed = self.read_cache_allowed(fid);
        let handle = self.handle(fid, pid)?;
        let offset = handle.ptr;
        let client = &mut handle.client;
        let buffering_on = client.buffering && cache_allowed;
        let buffered = buffering_on && size < costs.buffer_block && size > 0;
        // Adaptive policy: enable read-ahead once this stream is
        // classified sequential.
        client.read_pattern.observe(offset, size);
        let read_ahead = policy.read_ahead
            || (policy.adaptive
                && client.read_pattern.pattern(3) == crate::adaptive::AccessPattern::Sequential);

        let finish = if size == 0 {
            t0
        } else if buffered {
            match client.probe_read(offset, size) {
                ReadProbe::Hit => t0 + costs.cache_hit,
                ReadProbe::PrefetchHit { ready_at } => {
                    let promoted = client.promote_prefetch();
                    let f = t0.max(ready_at) + costs.cache_hit;
                    if read_ahead {
                        // Prefetch the block AFTER the one just
                        // promoted, not the block the hit landed in.
                        let next = promoted.map(|(s, l)| s + l).unwrap_or(offset + size);
                        self.issue_prefetch(f, pid, fid, next);
                    }
                    f
                }
                ReadProbe::Miss => {
                    let sequential = client.read_is_sequential(offset);
                    let block_start = offset - offset % costs.buffer_block;
                    let file_end = self.files[fid.index()].size.max(offset + size);
                    let block_len = costs.buffer_block.min(file_end - block_start);
                    let end = self.fetch(t0, pid, fid, block_start, block_len, false)?;
                    let client = &mut self.handle(fid, pid)?.client;
                    client.install_block(block_start, block_len);
                    if read_ahead && sequential {
                        self.issue_prefetch(end, pid, fid, block_start + block_len);
                    }
                    end
                }
            }
        } else {
            // Unbuffered (or large) read. A *large* read through an
            // enabled client buffer pays an extra memory copy — the
            // penalty the PRISM developers disabled buffering to avoid.
            let end = self.fetch(t0, pid, fid, offset, size, false)?;
            if buffering_on && size >= costs.buffer_block {
                end + Time::from_secs_f64(size as f64 / costs.buffered_copy_bw)
            } else {
                end
            }
        };

        let handle = self.handle(fid, pid)?;
        handle.ptr += size;
        handle.client.note_read(offset, size);
        let mode = self.files[fid.index()].mode;
        out.push(Completion {
            pid,
            finish,
            bytes: size,
            offset,
            kind: OpKind::Read,
            mode,
        });
        Ok(true)
    }

    /// Start an asynchronous prefetch of the buffer block beginning at
    /// `from` (aligned down), recording its completion time in the
    /// client state.
    fn issue_prefetch(&mut self, start: Time, pid: Pid, fid: FileId, from: u64) {
        let block = self.cfg.costs.buffer_block;
        let block_start = from - from % block;
        let file_size = self.files[fid.index()].size;
        if block_start >= file_size {
            return;
        }
        // Never refetch a block the client already holds or has in
        // flight.
        if let Some(h) = self.handles.get(fid, pid) {
            if !matches!(h.client.probe_read(block_start, 1), ReadProbe::Miss) {
                return;
            }
        }
        let block_len = block.min(file_size - block_start);
        // Prefetches bypass the atomicity token (they are server
        // read-ahead, not client requests), and they are *background*
        // traffic: their ready time reflects the I/O nodes' current
        // backlog, but they do not reserve capacity ahead of demand
        // requests. (A future-dated reservation on an analytic
        // calendar would leapfrog demand requests that arrive in the
        // interim — the opposite of how a real scheduler prioritizes.)
        let end = self.transfer_background(start, fid, block_start, block_len);
        let arrival = self.net_arrival(end, pid, fid, block_start, block_len, false);
        if let Some(h) = self.handles.get_mut(fid, pid) {
            h.client.install_prefetch(block_start, block_len, arrival);
        }
    }

    /// Completion-time estimate for a background (prefetch) transfer:
    /// queue behind the I/O nodes' current backlog but do not occupy
    /// the calendar. Slightly optimistic under saturation — background
    /// reads ride the arrays' idle capacity.
    fn transfer_background(&mut self, start: Time, fid: FileId, offset: u64, len: u64) -> Time {
        let layout = self.files[fid.index()].layout;
        let mut end = start;
        for seg in layout.segments_iter(offset, len) {
            // Background traffic has no client to time out: a prefetch
            // aimed at a crashed node simply waits for the restart.
            let seg_start = self
                .faults
                .as_ref()
                .and_then(|s| s.down_until(seg.ion, start))
                .map_or(start, |up| up.max(start));
            let service = self.segment_service(seg.ion, seg_start, fid, seg, layout.unit, false);
            let free_at = self
                .ions
                .get(seg.ion as usize)
                .map_or(seg_start, |c| c.free_at());
            end = end.max(seg_start.max(free_at) + service);
        }
        end
    }

    /// Writes in the private-pointer modes, through the aggregation /
    /// write-behind buffer when enabled.
    fn private_write(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        size: u64,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let costs = self.cfg.costs;
        let policy = self.cfg.policy;
        let t0 = now + costs.client_overhead;
        let offset = self.handle(fid, pid)?.ptr;

        // Small writes coalesce in the client buffer when either (a)
        // standard UNIX buffering applies — M_UNIX with a single
        // opener and buffering on (drains are asynchronous, like the
        // OSF/1 buffer cache; this is how ESCAT version A's node zero
        // wrote megabytes in sub-3 KB requests cheaply), or (b) the §7
        // write-aggregation policy extends coalescing to the parallel
        // modes.
        let mode = self.files[fid.index()].mode;
        let unix_buffered = mode == IoMode::MUnix
            && self.write_buffer_allowed(fid)
            && self.handle(fid, pid)?.client.buffering;
        // Adaptive policy: coalesce once the write stream is
        // classified sequential.
        let adaptive_agg = policy.adaptive && {
            let client = &mut self.handle(fid, pid)?.client;
            client.write_pattern.observe(offset, size);
            client.write_pattern.pattern(3) == crate::adaptive::AccessPattern::Sequential
        };
        let coalesce = size > 0
            && size < costs.buffer_block
            && (unix_buffered || policy.write_aggregation || adaptive_agg);
        // UNIX buffering and the adaptive path drain behind the
        // caller's back; the explicit policy path drains per its
        // write_behind flag.
        let behind = if unix_buffered || adaptive_agg {
            true
        } else {
            policy.write_behind
        };

        let finish = if size == 0 {
            t0
        } else if coalesce {
            // Coalesce into the client write buffer.
            let mut sync_drain_delay = Time::ZERO;
            if !self.handle(fid, pid)?.client.append_write(offset, size) {
                // Non-contiguous: drain the old range first.
                if let Some(buf) = self.handle(fid, pid)?.client.take_write_buf() {
                    sync_drain_delay = self.drain_range(t0, pid, fid, buf.start, buf.len, behind);
                }
                let client = &mut self.handle(fid, pid)?.client;
                assert!(client.append_write(offset, size), "empty buffer accepts");
            }
            // Drain when the buffer reaches a full block.
            let mut full_drain_delay = Time::ZERO;
            let pending = &mut self.handle(fid, pid)?.client.write_buf;
            if let Some(buf) = pending.take_if(|b| b.len >= costs.buffer_block) {
                full_drain_delay = self.drain_range(t0, pid, fid, buf.start, buf.len, behind);
            }
            // The client's call returns after the memory copy, plus
            // any synchronous drain it triggered.
            t0 + costs.cache_hit + sync_drain_delay.max(full_drain_delay)
        } else {
            self.fetch(t0, pid, fid, offset, size, true)?
        };

        self.handle(fid, pid)?.ptr += size;
        self.files[fid.index()].note_write(offset, size);
        out.push(Completion {
            pid,
            finish,
            bytes: size,
            offset,
            kind: OpKind::Write,
            mode,
        });
        Ok(true)
    }

    /// Synchronously drain any pending coalesced writes for
    /// `(pid, fid)` — used by flush and close, which must not return
    /// until the data is at the I/O nodes. Returns the drain end time
    /// (`Time::ZERO` when nothing was buffered).
    fn drain_write_buf(&mut self, now: Time, pid: Pid, fid: FileId) -> Time {
        let buf = self
            .handles
            .get_mut(fid, pid)
            .and_then(|h| h.client.take_write_buf());
        match buf {
            Some(buf) => {
                let end = self.transfer(now, fid, buf.start, buf.len, true);
                self.files[fid.index()].note_write(buf.start, buf.len);
                end
            }
            None => Time::ZERO,
        }
    }

    /// Drain a coalesced write range to the I/O nodes. Returns the
    /// *additional* synchronous delay charged to the triggering call
    /// (zero when the drain happens behind the caller's back).
    fn drain_range(
        &mut self,
        start: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
        behind: bool,
    ) -> Time {
        let end = self.transfer(start, fid, offset, len, true);
        self.files[fid.index()].note_write(offset, len);
        if behind {
            if let Some(h) = self.handles.get_mut(fid, pid) {
                h.client.drain_done_at = h.client.drain_done_at.max(end);
            }
            Time::ZERO
        } else {
            end.saturating_sub(start)
        }
    }

    /// M_LOG: shared pointer, FCFS, serialized through the token.
    fn log_data(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        size: u64,
        write: bool,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let costs = self.cfg.costs;
        let t0 = now + costs.client_overhead;
        let offset = self.files[fid.index()].advance_shared(size);
        let finish = self.serialized_transfer(t0, pid, fid, offset, size, write);
        if write {
            self.files[fid.index()].note_write(offset, size);
        }
        out.push(Completion {
            pid,
            finish,
            bytes: size,
            offset,
            kind: if write { OpKind::Write } else { OpKind::Read },
            mode: IoMode::MLog,
        });
        Ok(true)
    }

    /// Direct (uncached) data path for private modes: serialized
    /// through the token under M_UNIX sharing, parallel under M_ASYNC.
    fn fetch(
        &mut self,
        start: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Result<Time, PfsError> {
        let serializes = {
            let file = &self.files[fid.index()];
            file.mode.serializes() && file.opener_count() > 1
        };
        let end = if serializes {
            self.serialized_transfer(start, pid, fid, offset, len, write)
        } else {
            let end = self.transfer(start, fid, offset, len, write);
            self.net_arrival(end, pid, fid, offset, len, true)
        };
        Ok(end)
    }

    /// Transfer holding the file's atomicity token for the duration.
    fn serialized_transfer(
        &mut self,
        start: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Time {
        // The token serializes the atomicity *bookkeeping* (ordering
        // the request against all other sharers); once ordered, the
        // data moves on the I/O nodes in parallel with other requests.
        // Holding the token through the transfer would overstate the
        // contention the paper measured by an order of magnitude.
        let token_service = self.cfg.costs.token_service;
        let res = self.files[fid.index()].token.reserve(start, token_service);
        let data_end = self.transfer(res.finish, fid, offset, len, write);
        self.net_arrival(data_end, pid, fid, offset, len, true)
    }

    /// Resolve a segment's I/O node under the resilience policy: if
    /// the node is crashed at `start`, the client times out, walks the
    /// retry ladder with exponential backoff, and finally re-routes to
    /// a healthy node (reads may short-circuit via the reduced-stripe
    /// reconstruction path) or stalls until restart. Returns the
    /// serving node, the instant service can begin, and a service-time
    /// factor (> 1 when the serving node must reconstruct from
    /// parity). The no-fault path returns the inputs untouched.
    fn engage_ion(&mut self, ion: u32, start: Time, write: bool) -> (u32, Time, f64) {
        let Some(state) = &self.faults else {
            return (ion, start, 1.0);
        };
        let Some(back_up) = state.down_until(ion, start) else {
            return (ion, start, 1.0);
        };
        self.res_stats.timeouts += 1;
        let mut t = start.saturating_add(REQUEST_TIMEOUT);
        // Reads can be reconstructed from the surviving stripes +
        // parity; one probing retry, then fall back at reduced width.
        if !write {
            if let Some(alt) = state.first_healthy_ion(t, ion) {
                self.res_stats.retries += 1;
                self.res_stats.degraded_reads += 1;
                self.res_stats.reroutes += 1;
                return (alt, t.saturating_add(BACKOFF_BASE), REROUTE_PENALTY);
            }
        }
        let mut backoff = BACKOFF_BASE;
        for _ in 0..MAX_RETRIES {
            self.res_stats.retries += 1;
            t = t.saturating_add(backoff);
            backoff = backoff.scale(BACKOFF_MULTIPLIER);
            if !state.is_down(ion, t) {
                // The node restarted while the client was backing off.
                return (ion, t, 1.0);
            }
        }
        if let Some(alt) = state.first_healthy_ion(t, ion) {
            self.res_stats.reroutes += 1;
            return (alt, t, REROUTE_PENALTY);
        }
        // Nowhere to go: stall until the node comes back.
        self.res_stats.aborts += 1;
        (ion, t.max(back_up), 1.0)
    }

    /// Raw striped transfer: reserve every segment on its I/O node's
    /// calendar starting no earlier than `start`; returns the latest
    /// segment finish. Reads pay disk positioning (sequential detection
    /// per I/O node); writes are absorbed by the I/O-node write cache.
    fn transfer(&mut self, start: Time, fid: FileId, offset: u64, len: u64, write: bool) -> Time {
        let layout = self.files[fid.index()].layout;
        let mut end = start;
        for seg in layout.segments_iter(offset, len) {
            let (serving, seg_start, route_factor) = self.engage_ion(seg.ion, start, write);
            let service = self.segment_service(serving, seg_start, fid, seg, layout.unit, write);
            // `Time::scale` rounds through f64, so it is the identity
            // only below 2^53 ns: a healthy route keeps the service as
            // computed.
            let service = if route_factor == 1.0 {
                service
            } else {
                service.scale(route_factor)
            };
            let ion = serving as usize;
            let res = self.ions.reserve(ion, seg_start, service);
            self.ion_last[ion] = Some((fid, seg.offset + seg.len));
            end = end.max(res.finish);
        }
        end
    }

    /// Service demand of one stripe segment on I/O node `ion`, with
    /// service beginning at `at`: the write cache absorbs writes, the
    /// I/O-node cache serves resident blocks, and the disk serves the
    /// rest (paying positioning unless the node's last transfer ended
    /// where this one begins). The segment's block lands in the node's
    /// cache. Demand transfers and prefetches both cost their segments
    /// here.
    fn segment_service(
        &mut self,
        ion: u32,
        at: Time,
        fid: FileId,
        seg: Segment,
        unit: u64,
        write: bool,
    ) -> Time {
        let costs = self.cfg.costs;
        let i = ion as usize;
        let disturb = self.faults.as_ref().map(|s| s.disk_disturbance(ion, at));
        let block = seg.offset / unit;
        let cache_hit = !write && self.ion_caches[i].probe(fid, block);
        let service = if write {
            costs.ion_write_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_write_bw)
        } else if cache_hit {
            // Served from I/O-node memory: no disk positioning.
            costs.ion_cache_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_cache_bw)
        } else {
            let sequential = self.ion_last[i] == Some((fid, seg.offset));
            match &disturb {
                Some(d) => self.disk.service_time_disturbed(seg.len, sequential, d),
                None => self.disk.service_time(seg.len, sequential),
            }
        };
        // Node-level slowdowns hit the cache and write paths too — the
        // I/O-node daemon itself is starved, not just the disk (the
        // disk branch already applied the factor inside
        // `service_time_disturbed`). As there, a factor of 1.0 keeps
        // the service unscaled, since `Time::scale` rounds through f64.
        let service = match &disturb {
            Some(d) if (write || cache_hit) && d.slow_factor != 1.0 => service.scale(d.slow_factor),
            _ => service,
        };
        // Reads bring the block in; writes deposit it.
        self.ion_caches[i].insert(fid, block);
        service
    }

    /// Absolute arrival time at the client for data leaving the I/O
    /// nodes at `data_ready`. Each stripe segment's payload serializes
    /// on its I/O node's single mesh injection link (fan-in contention
    /// when many clients pull from one array); the header pipeline and
    /// software setup overlap across streams. A demand transfer
    /// (`reserve`) occupies the links; background (prefetch) traffic
    /// queues behind their current backlog without reserving them.
    fn net_arrival(
        &mut self,
        data_ready: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
        reserve: bool,
    ) -> Time {
        let layout = self.files[fid.index()].layout;
        let to = self.cfg.machine.compute_position(NodeId(pid.0));
        let params = *self.mesh.params();
        let congestion = self
            .faults
            .as_ref()
            .map_or(1.0, |s| s.link_factor(data_ready));
        // The client receives when the last segment lands.
        let mut last = data_ready;
        let mut max_hops = 0;
        for seg in layout.segments_iter(offset, len) {
            let wire = Time::from_secs_f64(seg.len as f64 * congestion / params.bandwidth_bps);
            let link = seg.ion as usize;
            let landed = if reserve {
                self.ion_links.reserve(link, data_ready, wire).finish
            } else {
                let free_at = self.ion_links.get(link).map_or(data_ready, |c| c.free_at());
                data_ready.max(free_at) + wire
            };
            last = last.max(landed);
            let from = self.cfg.machine.io_position(seg.ion);
            max_hops = max_hops.max(self.mesh.hops(from, to));
        }
        last + params.sw_setup + params.per_hop * u64::from(max_hops)
    }

    /// Collective data operations, in the file's mode: M_RECORD,
    /// M_GLOBAL or M_SYNC.
    fn collective_data(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        size: u64,
        write: bool,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        let mode = self.files[fid.index()].mode;
        // Validate before joining the group.
        if mode == IoMode::MRecord {
            let expected = self.files[fid.index()].record_size.unwrap_or(0);
            if size != expected {
                return Err(PfsError::RecordSizeMismatch {
                    file: fid,
                    expected,
                    got: size,
                });
            }
        }
        let (key, group) = {
            let file = &mut self.files[fid.index()];
            let group = file.opener_count();
            let seq = file.next_collective_seq(pid);
            (file.rendezvous_key(seq), group)
        };
        self.pending_sizes.entry(key).or_default().push((pid, size));
        match self.rdv.arrive(key, pid, now, group as usize) {
            RendezvousOutcome::Waiting => Ok(false),
            RendezvousOutcome::Complete { release, .. } => {
                let members = self.pending_sizes.remove(&key).expect("sizes recorded");
                self.run_collective(release, fid, mode, write, members, out);
                Ok(true)
            }
        }
    }

    /// Execute a completed collective round at `release`, appending
    /// every member's completion to `out`.
    fn run_collective(
        &mut self,
        release: Time,
        fid: FileId,
        mode: IoMode,
        write: bool,
        members: Vec<(Pid, u64)>,
        out: &mut Vec<Completion>,
    ) {
        let overhead = self.cfg.costs.client_overhead;
        let kind = if write { OpKind::Write } else { OpKind::Read };
        match mode {
            IoMode::MGlobal => {
                // Identical requests aggregate to one transfer; reads
                // are then broadcast to the whole group.
                let size = members.first().map(|&(_, s)| s).unwrap_or(0);
                let offset = self.files[fid.index()].advance_shared(size);
                let data_end = self.transfer(release, fid, offset, size, write);
                if write {
                    self.files[fid.index()].note_write(offset, size);
                }
                let extra = if write {
                    Time::ZERO
                } else {
                    let congestion = self
                        .faults
                        .as_ref()
                        .map_or(1.0, |s| s.link_factor(data_end));
                    self.mesh
                        .broadcast_time(members.len() as u32, size, congestion)
                };
                let finish = data_end + extra + overhead;
                out.extend(members.into_iter().map(|(p, s)| Completion {
                    pid: p,
                    finish,
                    bytes: s,
                    offset,
                    kind,
                    mode,
                }));
            }
            IoMode::MRecord => {
                // Node-ordered disjoint records from a common base.
                let record = self.files[fid.index()].record_size.unwrap_or(0);
                let base = self.files[fid.index()].advance_shared(record * members.len() as u64);
                // Transfers proceed in node (rank) order.
                let mut ranked: Vec<(u32, Pid, u64)> = members
                    .into_iter()
                    .map(|(p, s)| {
                        let rank = self.files[fid.index()].rank(p).unwrap_or(0);
                        (rank, p, s)
                    })
                    .collect();
                ranked.sort_unstable_by_key(|&(rank, _, _)| rank);
                out.reserve(ranked.len());
                for (rank, p, s) in ranked {
                    let offset = base + u64::from(rank) * record;
                    let data_end = self.transfer(release, fid, offset, record, write);
                    if write {
                        self.files[fid.index()].note_write(offset, record);
                    }
                    let arrival = self.net_arrival(data_end, p, fid, offset, record, true);
                    out.push(Completion {
                        pid: p,
                        finish: arrival + overhead,
                        bytes: s,
                        offset,
                        kind,
                        mode,
                    });
                }
            }
            IoMode::MSync => {
                // Shared pointer, node-ordered, variable sizes:
                // consecutive ranges served strictly in rank order.
                let mut ranked: Vec<(u32, Pid, u64)> = members
                    .into_iter()
                    .map(|(p, s)| {
                        let rank = self.files[fid.index()].rank(p).unwrap_or(0);
                        (rank, p, s)
                    })
                    .collect();
                ranked.sort_unstable_by_key(|&(rank, _, _)| rank);
                out.reserve(ranked.len());
                let mut cursor = release;
                for (_, p, s) in ranked {
                    let offset = self.files[fid.index()].advance_shared(s);
                    let data_end = self.transfer(cursor, fid, offset, s, write);
                    if write {
                        self.files[fid.index()].note_write(offset, s);
                    }
                    cursor = data_end;
                    let arrival = self.net_arrival(data_end, p, fid, offset, s, true);
                    out.push(Completion {
                        pid: p,
                        finish: arrival + overhead,
                        bytes: s,
                        offset,
                        kind,
                        mode,
                    });
                }
            }
            _ => unreachable!("non-collective mode in run_collective"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs() -> Pfs {
        Pfs::new(PfsConfig::tiny())
    }

    fn only(outcome: Outcome) -> Completion {
        match outcome {
            Outcome::Done(v) if v.len() == 1 => v[0],
            other => panic!("expected one completion, got {other:?}"),
        }
    }

    #[test]
    fn open_read_close_roundtrip() {
        let mut p = pfs();
        let f = p.create_file_with_size("input", 1 << 20);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        assert_eq!(c.kind, OpKind::Open);
        assert!(c.finish > Time::ZERO);
        let c2 = only(
            p.submit(c.finish, Pid(0), f, &IoOp::Read { size: 4096 })
                .unwrap(),
        );
        assert_eq!(c2.bytes, 4096);
        assert!(c2.finish > c.finish);
        let c3 = only(p.submit(c2.finish, Pid(0), f, &IoOp::Close).unwrap());
        assert_eq!(c3.kind, OpKind::Close);
    }

    #[test]
    fn read_without_open_errors() {
        let mut p = pfs();
        let f = p.create_file("x");
        let e = p
            .submit(Time::ZERO, Pid(0), f, &IoOp::Read { size: 10 })
            .unwrap_err();
        assert!(matches!(e, PfsError::NotOpen { .. }));
    }

    #[test]
    fn unknown_file_errors() {
        let mut p = pfs();
        let e = p
            .submit(Time::ZERO, Pid(0), FileId(99), &IoOp::Open)
            .unwrap_err();
        assert!(matches!(e, PfsError::NoSuchFile(_)));
    }

    #[test]
    fn double_open_errors() {
        let mut p = pfs();
        let f = p.create_file("x");
        p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap();
        let e = p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap_err();
        assert!(matches!(e, PfsError::AlreadyOpen { .. }));
    }

    #[test]
    fn concurrent_opens_serialize_on_metadata_server() {
        let mut p = pfs();
        let f = p.create_file("shared");
        let c0 = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let c1 = only(p.submit(Time::ZERO, Pid(1), f, &IoOp::Open).unwrap());
        let c2 = only(p.submit(Time::ZERO, Pid(2), f, &IoOp::Open).unwrap());
        assert!(c1.finish >= c0.finish + p.cfg.costs.open_service);
        assert!(c2.finish >= c1.finish + p.cfg.costs.open_service);
    }

    #[test]
    fn gopen_blocks_until_group_complete() {
        let mut p = pfs();
        let f = p.create_file("g");
        let op = IoOp::Gopen {
            group: 2,
            mode: IoMode::MAsync,
            record_size: None,
        };
        assert_eq!(
            p.submit(Time::ZERO, Pid(0), f, &op).unwrap(),
            Outcome::Blocked
        );
        match p.submit(Time::from_secs(1), Pid(1), f, &op).unwrap() {
            Outcome::Done(cs) => {
                assert_eq!(cs.len(), 2);
                assert_eq!(cs[0].finish, cs[1].finish);
                assert!(cs[0].finish >= Time::from_secs(1));
            }
            Outcome::Blocked => panic!("group complete"),
        }
        assert_eq!(p.forming_collectives(), 0);
        assert_eq!(p.file(f).unwrap().mode, IoMode::MAsync);
    }

    #[test]
    fn gopen_is_cheaper_than_n_opens() {
        // The version-B optimization: one gopen vs. N serialized
        // opens. At paper-scale groups the serialized metadata queue
        // dwarfs the single collective operation.
        let n = 16;
        let mut p1 = pfs();
        let f1 = p1.create_file("a");
        let mut worst = Time::ZERO;
        let mut open_sum = Time::ZERO;
        for i in 0..n {
            let c = only(p1.submit(Time::ZERO, Pid(i), f1, &IoOp::Open).unwrap());
            worst = worst.max(c.finish);
            open_sum += c.finish;
        }
        let mut p2 = pfs();
        let f2 = p2.create_file("b");
        let op = IoOp::Gopen {
            group: n,
            mode: IoMode::MUnix,
            record_size: None,
        };
        let mut gopen_finish = Time::ZERO;
        for i in 0..n {
            if let Outcome::Done(cs) = p2.submit(Time::ZERO, Pid(i), f2, &op).unwrap() {
                gopen_finish = cs[0].finish;
            }
        }
        assert!(
            gopen_finish < worst,
            "gopen {gopen_finish} should beat serialized opens {worst}"
        );
        // Aggregate client-observed time is where the real win is.
        let gopen_sum = gopen_finish * u64::from(n);
        assert!(gopen_sum < open_sum);
    }

    #[test]
    fn masync_unavailable_under_osf12() {
        let mut cfg = PfsConfig::tiny();
        cfg.os = OsRelease::Osf12;
        let mut p = Pfs::new(cfg);
        let f = p.create_file("x");
        let e = p
            .submit(
                Time::ZERO,
                Pid(0),
                f,
                &IoOp::Gopen {
                    group: 1,
                    mode: IoMode::MAsync,
                    record_size: None,
                },
            )
            .unwrap_err();
        assert!(matches!(e, PfsError::ModeUnavailable { .. }));
    }

    #[test]
    fn munix_shared_seek_is_expensive_masync_seek_is_cheap() {
        let mut p = pfs();
        let f = p.create_file("s");
        for i in 0..2 {
            p.submit(Time::ZERO, Pid(i), f, &IoOp::Open).unwrap();
        }
        let t = Time::from_secs(10);
        let c_unix = only(p.submit(t, Pid(0), f, &IoOp::Seek { offset: 0 }).unwrap());
        let unix_seek = c_unix.finish - t;

        let mut p2 = pfs();
        let f2 = p2.create_file("s2");
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MAsync,
            record_size: None,
        };
        for i in 0..2 {
            p2.submit(Time::ZERO, Pid(i), f2, &gop).unwrap();
        }
        let c_async = only(p2.submit(t, Pid(0), f2, &IoOp::Seek { offset: 0 }).unwrap());
        let async_seek = c_async.finish - t;
        assert!(
            unix_seek.as_nanos() > 10 * async_seek.as_nanos(),
            "M_UNIX shared seek {unix_seek} must dwarf M_ASYNC seek {async_seek}"
        );
    }

    #[test]
    fn seek_on_shared_pointer_mode_errors() {
        let mut p = pfs();
        let f = p.create_file("g");
        let gop = IoOp::Gopen {
            group: 1,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        p.submit(Time::ZERO, Pid(0), f, &gop).unwrap();
        let e = p
            .submit(Time::ZERO, Pid(0), f, &IoOp::Seek { offset: 4 })
            .unwrap_err();
        assert!(matches!(e, PfsError::SeekOnSharedPointer { .. }));
    }

    #[test]
    fn mglobal_read_is_one_disk_io_plus_broadcast() {
        let mut p = pfs();
        let f = p.create_file_with_size("init", 1 << 20);
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        let mut t = Time::ZERO;
        for i in 0..2 {
            if let Outcome::Done(cs) = p.submit(Time::ZERO, Pid(i), f, &gop).unwrap() {
                t = cs[0].finish;
            }
        }
        let busy_before = p.ions.total_busy();
        let rd = IoOp::Read { size: 65536 };
        assert_eq!(p.submit(t, Pid(0), f, &rd).unwrap(), Outcome::Blocked);
        let cs = match p.submit(t, Pid(1), f, &rd).unwrap() {
            Outcome::Done(cs) => cs,
            _ => panic!(),
        };
        assert_eq!(cs.len(), 2);
        // One 64 KB disk read total, not two.
        let busy = p.ions.total_busy() - busy_before;
        let one_read = DiskModel::new(p.cfg.machine.disk).service_time(65536, false);
        assert!(busy <= one_read, "M_GLOBAL must aggregate to one disk I/O");
        // Shared pointer advanced once.
        assert_eq!(p.file(f).unwrap().shared_ptr, 65536);
    }

    #[test]
    fn mrecord_requires_exact_record_size() {
        let mut p = pfs();
        let f = p.create_file_with_size("q", 1 << 20);
        let gop = IoOp::Gopen {
            group: 1,
            mode: IoMode::MRecord,
            record_size: Some(65536),
        };
        p.submit(Time::ZERO, Pid(0), f, &gop).unwrap();
        let e = p
            .submit(Time::ZERO, Pid(0), f, &IoOp::Read { size: 100 })
            .unwrap_err();
        assert!(matches!(e, PfsError::RecordSizeMismatch { .. }));
    }

    #[test]
    fn mrecord_members_read_disjoint_node_ordered_records() {
        let mut p = pfs();
        let f = p.create_file_with_size("q", 1 << 20);
        let rec = 65536u64;
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MRecord,
            record_size: Some(rec),
        };
        let mut t = Time::ZERO;
        for i in 0..2 {
            if let Outcome::Done(cs) = p.submit(Time::ZERO, Pid(i), f, &gop).unwrap() {
                t = cs[0].finish;
            }
        }
        let rd = IoOp::Read { size: rec };
        assert_eq!(p.submit(t, Pid(1), f, &rd).unwrap(), Outcome::Blocked);
        let cs = match p.submit(t, Pid(0), f, &rd).unwrap() {
            Outcome::Done(cs) => cs,
            _ => panic!(),
        };
        assert_eq!(cs.len(), 2);
        // Base advanced by group * record.
        assert_eq!(p.file(f).unwrap().shared_ptr, 2 * rec);
        // Second collective round keys differently (no panic) and
        // advances again.
        assert_eq!(p.submit(t, Pid(0), f, &rd).unwrap(), Outcome::Blocked);
        let _ = p.submit(t, Pid(1), f, &rd).unwrap();
        assert_eq!(p.file(f).unwrap().shared_ptr, 4 * rec);
    }

    #[test]
    fn msync_serves_in_rank_order_with_variable_sizes() {
        let mut p = pfs();
        let f = p.create_file("out");
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MSync,
            record_size: None,
        };
        let mut t = Time::ZERO;
        for i in 0..2 {
            if let Outcome::Done(cs) = p.submit(Time::ZERO, Pid(i), f, &gop).unwrap() {
                t = cs[0].finish;
            }
        }
        // Different sizes per member; pid1 arrives first.
        assert_eq!(
            p.submit(t, Pid(1), f, &IoOp::Write { size: 100 }).unwrap(),
            Outcome::Blocked
        );
        let cs = match p.submit(t, Pid(0), f, &IoOp::Write { size: 300 }).unwrap() {
            Outcome::Done(cs) => cs,
            _ => panic!(),
        };
        // Rank order: pid0's 300 bytes land at offset 0, pid1's at 300.
        assert_eq!(p.file(f).unwrap().shared_ptr, 400);
        assert_eq!(p.file(f).unwrap().size, 400);
        // pid0 (rank 0) completes no later than pid1 (rank 1).
        let f0 = cs.iter().find(|c| c.pid == Pid(0)).unwrap().finish;
        let f1 = cs.iter().find(|c| c.pid == Pid(1)).unwrap().finish;
        assert!(f0 <= f1);
    }

    #[test]
    fn buffered_small_reads_hit_cache_unbuffered_pay_disk() {
        let mut p = pfs();
        let f = p.create_file_with_size("restart", 1 << 20);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        // First small read: miss, fetches a 64 KB block.
        let r1 = only(
            p.submit(c.finish, Pid(0), f, &IoOp::Read { size: 40 })
                .unwrap(),
        );
        // Second small read: within the block, nearly free.
        let r2 = only(
            p.submit(r1.finish, Pid(0), f, &IoOp::Read { size: 40 })
                .unwrap(),
        );
        let d1 = r1.finish - c.finish;
        let d2 = r2.finish - r1.finish;
        assert!(
            d1.as_nanos() > 20 * d2.as_nanos(),
            "miss {d1} must dwarf hit {d2}"
        );

        // Now disable buffering (the PRISM-C pathology) and read from a
        // region no cache has seen: the small read pays a full disk
        // access.
        let sb = only(
            p.submit(r2.finish, Pid(0), f, &IoOp::SetBuffering { enabled: false })
                .unwrap(),
        );
        let sk = only(
            p.submit(sb.finish, Pid(0), f, &IoOp::Seek { offset: 512 * 1024 })
                .unwrap(),
        );
        let r3 = only(
            p.submit(sk.finish, Pid(0), f, &IoOp::Read { size: 40 })
                .unwrap(),
        );
        let r4 = only(
            p.submit(r3.finish, Pid(0), f, &IoOp::Read { size: 40 })
                .unwrap(),
        );
        let d3 = r3.finish - sk.finish;
        let d4 = r4.finish - r3.finish;
        assert!(
            d3 > d2 * 20,
            "cold unbuffered read {d3} must dwarf hit {d2}"
        );
        // The follow-up read is served by the I/O-node cache, so it is
        // far cheaper than d3 — but every unbuffered read still pays a
        // network + I/O-node round trip, well above a client cache hit.
        assert!(d4 > d2 * 2, "every unbuffered read pays a round trip: {d4}");
    }

    #[test]
    fn write_extends_file_size() {
        let mut p = pfs();
        let f = p.create_file("w");
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        p.submit(c.finish, Pid(0), f, &IoOp::Write { size: 1000 })
            .unwrap();
        assert_eq!(p.file(f).unwrap().size, 1000);
    }

    #[test]
    fn write_aggregation_reduces_client_latency_and_disk_ops() {
        let mut base_cfg = PfsConfig::tiny();
        base_cfg.policy = PolicyConfig::write_behind_only();
        let mut p = Pfs::new(base_cfg);
        let f = p.create_file("agg");
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let mut t = c.finish;
        let mut max_d = Time::ZERO;
        for _ in 0..16 {
            let w = only(p.submit(t, Pid(0), f, &IoOp::Write { size: 2048 }).unwrap());
            max_d = max_d.max(w.finish - t);
            t = w.finish;
        }
        // Buffered small writes return in ~copy time.
        assert!(max_d < Time::from_millis(1), "buffered write took {max_d}");
        // Flush waits for the drain.
        let fl = only(p.submit(t, Pid(0), f, &IoOp::Flush).unwrap());
        assert!(fl.finish >= t);
        // Close drains the remaining buffer and bumps file size.
        let cl = only(p.submit(fl.finish, Pid(0), f, &IoOp::Close).unwrap());
        assert!(cl.finish > fl.finish);
        assert_eq!(p.file(f).unwrap().size, 16 * 2048);
    }

    #[test]
    fn prefetch_accelerates_sequential_big_scan() {
        let scan = |policy: PolicyConfig| -> Time {
            let mut cfg = PfsConfig::tiny();
            cfg.policy = policy;
            let mut p = Pfs::new(cfg);
            let f = p.create_file_with_size("data", 4 << 20);
            let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
            let mut t = c.finish;
            for _ in 0..256 {
                let r = only(p.submit(t, Pid(0), f, &IoOp::Read { size: 8192 }).unwrap());
                t = r.finish;
            }
            t
        };
        let plain = scan(PolicyConfig::measured_pfs());
        let ahead = scan(PolicyConfig::prefetch_only());
        assert!(
            ahead < plain,
            "read-ahead {ahead} should beat plain {plain}"
        );
    }

    #[test]
    fn setiomode_group_mismatch_errors_at_completion() {
        let mut p = pfs();
        let f = p.create_file("x");
        for i in 0..3 {
            p.submit(Time::ZERO, Pid(i), f, &IoOp::Open).unwrap();
        }
        // Only two of the three openers join the collective; the
        // mismatch is detected when the declared group completes.
        let op = IoOp::SetIoMode {
            group: 2,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        assert_eq!(
            p.submit(Time::ZERO, Pid(0), f, &op).unwrap(),
            Outcome::Blocked
        );
        let e = p.submit(Time::ZERO, Pid(1), f, &op).unwrap_err();
        assert!(matches!(e, PfsError::GroupMismatch { .. }));
    }

    #[test]
    fn setiomode_allows_arrival_before_all_open() {
        // A member may join the collective before its peers have
        // opened the file — the PRISM version-B pattern.
        let mut p = pfs();
        let f = p.create_file("y");
        p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap();
        let op = IoOp::SetIoMode {
            group: 2,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        assert_eq!(
            p.submit(Time::ZERO, Pid(0), f, &op).unwrap(),
            Outcome::Blocked
        );
        // Pid 1 opens late, then joins; the group now completes.
        p.submit(Time::ZERO, Pid(1), f, &IoOp::Open).unwrap();
        match p.submit(Time::ZERO, Pid(1), f, &op).unwrap() {
            Outcome::Done(cs) => assert_eq!(cs.len(), 2),
            Outcome::Blocked => panic!("group should complete"),
        }
        assert_eq!(p.file(f).unwrap().mode, IoMode::MGlobal);
    }

    #[test]
    fn close_resets_mode_when_last_opener_leaves() {
        let mut p = pfs();
        let f = p.create_file("m");
        let gop = IoOp::Gopen {
            group: 1,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        let c = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
            Outcome::Done(cs) => cs[0],
            _ => panic!(),
        };
        assert_eq!(p.file(f).unwrap().mode, IoMode::MGlobal);
        p.submit(c.finish, Pid(0), f, &IoOp::Close).unwrap();
        assert_eq!(p.file(f).unwrap().mode, IoMode::MUnix);
        assert_eq!(p.file(f).unwrap().opener_count(), 0);
    }

    #[test]
    fn munix_shared_reads_cache_but_fetches_serialize() {
        // Read-only sharing is coherence-safe: each node's block
        // fetches go through the file token (serialized), but repeated
        // small reads inside the fetched block are local hits.
        let mut p = pfs();
        let f = p.create_file_with_size("init", 1 << 20);
        let c0 = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let c1 = only(p.submit(Time::ZERO, Pid(1), f, &IoOp::Open).unwrap());
        let t = c0.finish.max(c1.finish);
        // Both nodes fetch the first block concurrently: the fetches
        // serialize through the token.
        let r0 = only(p.submit(t, Pid(0), f, &IoOp::Read { size: 1024 }).unwrap());
        let r1 = only(p.submit(t, Pid(1), f, &IoOp::Read { size: 1024 }).unwrap());
        let d_first = (r0.finish - t).max(r1.finish - t);
        // Subsequent small reads hit each node's private block copy.
        let r2 = only(
            p.submit(
                r0.finish.max(r1.finish),
                Pid(0),
                f,
                &IoOp::Read { size: 1024 },
            )
            .unwrap(),
        );
        let d_hit = r2.finish - r0.finish.max(r1.finish);
        assert!(
            d_first.as_nanos() > 5 * d_hit.as_nanos(),
            "fetch {d_first} must dwarf hit {d_hit}"
        );
        assert!(d_hit < Time::from_millis(1), "hit should be local: {d_hit}");
    }

    #[test]
    fn munix_single_opener_coalesces_small_writes_by_default() {
        // Standard UNIX buffering: node zero streaming small writes
        // (the ESCAT version-A phase-two pattern) pays ~copy time.
        let mut p = pfs();
        let f = p.create_file("quad");
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let mut t = c.finish;
        let mut worst = Time::ZERO;
        for _ in 0..64 {
            let w = only(p.submit(t, Pid(0), f, &IoOp::Write { size: 2048 }).unwrap());
            worst = worst.max(w.finish - t);
            t = w.finish;
        }
        assert!(
            worst < Time::from_millis(1),
            "buffered UNIX write took {worst}"
        );
        // Close drains what remains.
        p.submit(t, Pid(0), f, &IoOp::Close).unwrap();
        assert_eq!(p.file(f).unwrap().size, 64 * 2048);
    }

    #[test]
    fn masync_small_writes_go_direct() {
        // "The individual nodes write the data directly using the
        // M_ASYNC mode" — no client coalescing without the §7 policy.
        let mut p = pfs();
        let f = p.create_file("quad");
        let gop = IoOp::Gopen {
            group: 1,
            mode: IoMode::MAsync,
            record_size: None,
        };
        let c = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
            Outcome::Done(cs) => cs[0],
            _ => panic!(),
        };
        let w = only(
            p.submit(c.finish, Pid(0), f, &IoOp::Write { size: 2048 })
                .unwrap(),
        );
        let d = w.finish - c.finish;
        assert!(
            d > Time::from_micros(500),
            "direct M_ASYNC write must pay network + I/O node, got {d}"
        );
    }

    #[test]
    fn buffered_large_read_pays_copy_penalty() {
        let run = |buffered: bool| -> Time {
            let mut p = pfs();
            let f = p.create_file_with_size("restart", 4 << 20);
            let gop = IoOp::Gopen {
                group: 1,
                mode: IoMode::MAsync,
                record_size: None,
            };
            let c = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
                Outcome::Done(cs) => cs[0],
                _ => panic!(),
            };
            let mut t = c.finish;
            if !buffered {
                let sb = only(
                    p.submit(t, Pid(0), f, &IoOp::SetBuffering { enabled: false })
                        .unwrap(),
                );
                t = sb.finish;
            }
            let start = t;
            let r = only(
                p.submit(t, Pid(0), f, &IoOp::Read { size: 155_584 })
                    .unwrap(),
            );
            r.finish - start
        };
        let with_buf = run(true);
        let without = run(false);
        assert!(
            with_buf > without,
            "buffered large read {with_buf} must exceed unbuffered {without}"
        );
    }

    #[test]
    fn adaptive_policy_matches_explicit_tuning_on_sequential_streams() {
        // An M_ASYNC stream of small sequential writes: the measured
        // PFS pays per-write round trips; the adaptive policy detects
        // the run and coalesces without being asked, approaching the
        // explicitly tuned configuration.
        let run_with = |policy: PolicyConfig| -> Time {
            let mut cfg = PfsConfig::tiny();
            cfg.policy = policy;
            let mut p = Pfs::new(cfg);
            let f = p.create_file("stream");
            let gop = IoOp::Gopen {
                group: 1,
                mode: IoMode::MAsync,
                record_size: None,
            };
            let mut t = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
                Outcome::Done(cs) => cs[0].finish,
                _ => unreachable!(),
            };
            for _ in 0..256 {
                if let Outcome::Done(cs) =
                    p.submit(t, Pid(0), f, &IoOp::Write { size: 2048 }).unwrap()
                {
                    t = cs[0].finish;
                }
            }
            if let Outcome::Done(cs) = p.submit(t, Pid(0), f, &IoOp::Close).unwrap() {
                t = cs[0].finish;
            }
            t
        };
        let measured = run_with(PolicyConfig::measured_pfs());
        let adaptive = run_with(PolicyConfig::adaptive());
        let tuned = run_with(PolicyConfig::write_behind_only());
        assert!(
            adaptive < measured.scale(0.5),
            "adaptive {adaptive} should beat measured {measured}"
        );
        assert!(
            adaptive < tuned.scale(2.0),
            "adaptive {adaptive} should approach tuned {tuned}"
        );
    }

    #[test]
    fn adaptive_policy_leaves_random_streams_alone() {
        // Random-offset writes must not be coalesced (non-contiguous
        // appends would thrash the buffer); the detector never
        // classifies them sequential, so behaviour matches measured.
        let run_with = |policy: PolicyConfig| -> Time {
            let mut cfg = PfsConfig::tiny();
            cfg.policy = policy;
            let mut p = Pfs::new(cfg);
            let f = p.create_file_with_size("rand", 64 << 20);
            let gop = IoOp::Gopen {
                group: 1,
                mode: IoMode::MAsync,
                record_size: None,
            };
            let mut t = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
                Outcome::Done(cs) => cs[0].finish,
                _ => unreachable!(),
            };
            let mut offset = 7u64;
            for _ in 0..64 {
                offset = (offset.wrapping_mul(2654435761)) % (32 << 20);
                if let Outcome::Done(cs) = p.submit(t, Pid(0), f, &IoOp::Seek { offset }).unwrap() {
                    t = cs[0].finish;
                }
                if let Outcome::Done(cs) =
                    p.submit(t, Pid(0), f, &IoOp::Write { size: 512 }).unwrap()
                {
                    t = cs[0].finish;
                }
            }
            t
        };
        let measured = run_with(PolicyConfig::measured_pfs());
        let adaptive = run_with(PolicyConfig::adaptive());
        // Identical behaviour (the detector never fires).
        assert_eq!(measured, adaptive);
    }

    #[test]
    fn flush_waits_for_write_behind_drain() {
        let mut cfg = PfsConfig::tiny();
        cfg.policy = PolicyConfig::write_behind_only();
        let mut p = Pfs::new(cfg);
        let f = p.create_file("wb");
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        // Buffer a full block so an async drain is in flight.
        let mut t = c.finish;
        for _ in 0..40 {
            let w = only(p.submit(t, Pid(0), f, &IoOp::Write { size: 2048 }).unwrap());
            t = w.finish;
        }
        let fl = only(p.submit(t, Pid(0), f, &IoOp::Flush).unwrap());
        // The flush cannot complete before the drained data is on the
        // I/O nodes: its duration far exceeds the bare flush service.
        assert!(
            fl.finish > t + p.cfg.costs.flush_service,
            "flush must wait for the in-flight drain"
        );
    }

    #[test]
    fn reopen_after_close_starts_fresh() {
        let mut p = pfs();
        let f = p.create_file_with_size("fresh", 1 << 20);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let r = only(
            p.submit(c.finish, Pid(0), f, &IoOp::Read { size: 100 })
                .unwrap(),
        );
        assert_eq!(r.offset, 0);
        let cl = only(p.submit(r.finish, Pid(0), f, &IoOp::Close).unwrap());
        // Reopen: pointer rewound to zero.
        let c2 = only(p.submit(cl.finish, Pid(0), f, &IoOp::Open).unwrap());
        let r2 = only(
            p.submit(c2.finish, Pid(0), f, &IoOp::Read { size: 100 })
                .unwrap(),
        );
        assert_eq!(r2.offset, 0, "fresh open reads from the start");
    }

    #[test]
    fn mglobal_write_deposits_once() {
        let mut p = pfs();
        let f = p.create_file("gw");
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        let mut t = Time::ZERO;
        for i in 0..2 {
            if let Outcome::Done(cs) = p.submit(Time::ZERO, Pid(i), f, &gop).unwrap() {
                t = cs[0].finish;
            }
        }
        let w = IoOp::Write { size: 4096 };
        assert_eq!(p.submit(t, Pid(0), f, &w).unwrap(), Outcome::Blocked);
        let cs = match p.submit(t, Pid(1), f, &w).unwrap() {
            Outcome::Done(cs) => cs,
            _ => panic!(),
        };
        assert_eq!(cs.len(), 2);
        // Identical writes aggregate: the file grows by one request,
        // not two.
        assert_eq!(p.file(f).unwrap().size, 4096);
        assert_eq!(p.file(f).unwrap().shared_ptr, 4096);
    }

    #[test]
    fn zero_size_data_ops_complete_quickly() {
        let mut p = pfs();
        let f = p.create_file("z");
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let r = only(
            p.submit(c.finish, Pid(0), f, &IoOp::Read { size: 0 })
                .unwrap(),
        );
        assert_eq!(r.bytes, 0);
        assert!(r.finish - c.finish < Time::from_millis(1));
        let w = only(
            p.submit(r.finish, Pid(0), f, &IoOp::Write { size: 0 })
                .unwrap(),
        );
        assert_eq!(p.file(f).unwrap().size, 0);
        assert!(w.finish >= r.finish);
    }

    #[test]
    fn degraded_array_slows_reads_through_that_ion() {
        let run_read = |degraded: bool| -> Time {
            let mut cfg = PfsConfig::tiny();
            if degraded {
                cfg.faults = FaultSchedule::degraded_from_start(&[0, 1]);
            }
            let mut p = Pfs::new(cfg);
            let f = p.create_file_with_size("d", 4 << 20);
            let gop = IoOp::Gopen {
                group: 1,
                mode: IoMode::MAsync,
                record_size: None,
            };
            let t = match p.submit(Time::ZERO, Pid(0), f, &gop).unwrap() {
                Outcome::Done(cs) => cs[0].finish,
                _ => unreachable!(),
            };
            let r = only(
                p.submit(t, Pid(0), f, &IoOp::Read { size: 1 << 20 })
                    .unwrap(),
            );
            r.finish - t
        };
        let healthy = run_read(false);
        let degraded = run_read(true);
        assert!(
            degraded > healthy,
            "degraded {degraded} vs healthy {healthy}"
        );
        assert!(degraded < healthy * 3, "degradation bounded");
    }

    /// Drive one pid through open + a string of reads and return the
    /// final completion time plus the server itself.
    fn read_mb(cfg: PfsConfig) -> (Time, Pfs) {
        let mut p = Pfs::new(cfg);
        let f = p.create_file_with_size("r", 8 << 20);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let mut t = c.finish;
        for _ in 0..16 {
            let r = only(
                p.submit(t, Pid(0), f, &IoOp::Read { size: 128 << 10 })
                    .unwrap(),
            );
            t = r.finish;
        }
        (t, p)
    }

    /// The engaged (but empty) schedule runs every fault hook, and
    /// every observable — completion times and disk busy time — must
    /// still agree exactly with the run that has none.
    #[test]
    fn engaged_empty_schedule_is_bit_identical() {
        let (plain, p1) = read_mb(PfsConfig::tiny());
        let mut cfg = PfsConfig::tiny();
        cfg.faults = FaultSchedule::engaged_empty();
        let (hooked, p2) = read_mb(cfg);
        assert!(p2.fault_state().is_some(), "hooks are in the loop");
        assert_eq!(plain, hooked, "empty schedule must not move a single ns");
        assert_eq!(p1.ions.total_busy(), p2.ions.total_busy());
        assert!(p2.resilience_stats().is_quiet());
    }

    #[test]
    fn crashed_ion_triggers_timeout_and_reroute() {
        use sioscope_faults::FaultKind;
        let mut cfg = PfsConfig::tiny();
        cfg.faults.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 0,
                restart: Time::from_secs(30),
            },
        );
        let (faulty, p) = read_mb(cfg);
        let (healthy, _) = read_mb(PfsConfig::tiny());
        let stats = p.resilience_stats();
        assert!(stats.timeouts > 0, "{stats:?}");
        assert!(stats.retries > 0, "{stats:?}");
        assert!(stats.reroutes > 0, "{stats:?}");
        assert!(
            stats.degraded_reads > 0,
            "reads use the reduced-stripe path"
        );
        assert_eq!(stats.aborts, 0, "a healthy node was available");
        assert!(faulty > healthy, "faults cost time: {faulty} vs {healthy}");
    }

    /// A PFS whose I/O nodes `ions` crash at time zero and restart at
    /// `restart`.
    fn crashed(ions: &[u32], restart: Time) -> Pfs {
        use sioscope_faults::FaultKind;
        let mut cfg = PfsConfig::tiny();
        for &ion in ions {
            cfg.faults
                .push(Time::ZERO, FaultKind::IonCrash { ion, restart });
        }
        Pfs::new(cfg)
    }

    /// The retry ladder, step by step: a 50 ms timeout, then backoffs
    /// of 20, 40, 80 and 160 ms, then a re-route at a 1.5x service
    /// factor to the lowest-numbered healthy I/O node.
    #[test]
    fn a_write_to_a_crashed_ion_reroutes_after_the_full_ladder() {
        let mut p = crashed(&[0], Time::from_secs(30));
        let issued = Time::from_secs(1);
        assert_eq!(
            p.engage_ion(0, issued, true),
            (1, issued + Time::from_millis(350), 1.5)
        );
        let expected = ResilienceStats {
            timeouts: 1,
            retries: 4,
            reroutes: 1,
            ..ResilienceStats::default()
        };
        assert_eq!(p.resilience_stats(), expected);
        assert_eq!(p.engage_ion(1, issued, true), (1, issued, 1.0), "healthy");
        assert_eq!(
            p.resilience_stats(),
            expected,
            "a healthy node costs nothing"
        );
    }

    /// Reads take the reduced-stripe path after the timeout and one
    /// probing retry: 50 + 20 ms, at the same 1.5x factor.
    #[test]
    fn a_read_from_a_crashed_ion_takes_the_reduced_stripe_path() {
        let mut p = crashed(&[0], Time::from_secs(30));
        let issued = Time::from_secs(1);
        assert_eq!(
            p.engage_ion(0, issued, false),
            (1, issued + Time::from_millis(70), 1.5)
        );
        assert_eq!(
            p.resilience_stats(),
            ResilienceStats {
                timeouts: 1,
                retries: 1,
                reroutes: 1,
                degraded_reads: 1,
                ..ResilienceStats::default()
            }
        );
    }

    /// A node that restarts during the backoff is retried in place:
    /// down at 50 and 70 ms, up at 110 ms.
    #[test]
    fn a_write_retries_in_place_when_the_ion_restarts_mid_ladder() {
        let issued = Time::from_secs(1);
        let mut p = crashed(&[0], issued + Time::from_millis(100));
        assert_eq!(
            p.engage_ion(0, issued, true),
            (0, issued + Time::from_millis(110), 1.0)
        );
        assert_eq!(
            p.resilience_stats(),
            ResilienceStats {
                timeouts: 1,
                retries: 2,
                ..ResilienceStats::default()
            }
        );
    }

    /// With every I/O node down, reads and writes alike walk the whole
    /// ladder and stall until the restart, counting one abort each.
    #[test]
    fn with_every_ion_down_a_request_stalls_until_the_restart() {
        let restart = Time::from_secs(5);
        for write in [true, false] {
            let mut p = crashed(&[0, 1], restart);
            assert_eq!(
                p.engage_ion(0, Time::from_secs(1), write),
                (0, restart, 1.0),
                "write {write}"
            );
            assert_eq!(
                p.resilience_stats(),
                ResilienceStats {
                    timeouts: 1,
                    retries: 4,
                    aborts: 1,
                    ..ResilienceStats::default()
                },
                "write {write}"
            );
        }
    }

    #[test]
    fn crash_of_every_ion_stalls_until_restart() {
        use sioscope_faults::FaultKind;
        let mut cfg = PfsConfig::tiny();
        for ion in 0..cfg.machine.io_nodes {
            cfg.faults.push(
                Time::ZERO,
                FaultKind::IonCrash {
                    ion,
                    restart: Time::from_secs(5),
                },
            );
        }
        let (faulty, p) = read_mb(cfg);
        let stats = p.resilience_stats();
        assert!(stats.aborts > 0, "{stats:?}");
        assert!(
            faulty > Time::from_secs(5),
            "run waited out the restart: {faulty}"
        );
    }

    #[test]
    fn link_congestion_inflates_transfers() {
        use sioscope_faults::FaultKind;
        let mut cfg = PfsConfig::tiny();
        cfg.faults.push(
            Time::ZERO,
            FaultKind::LinkCongestion {
                duration: Time::from_secs(1_000),
                factor: 4.0,
            },
        );
        let (jammed, p) = read_mb(cfg);
        let (healthy, _) = read_mb(PfsConfig::tiny());
        assert!(jammed > healthy, "{jammed} vs {healthy}");
        assert!(
            p.resilience_stats().is_quiet(),
            "congestion needs no recovery actions"
        );
    }

    /// One process opens an 8 MiB file, scans it sequentially (24
    /// reads of 8 KiB, two of 1 MiB, one of 3 MiB) and writes 3 MiB,
    /// then seeks back to 1 MiB and reads 24 × 8 KiB again, so its
    /// prefetches find their blocks in the I/O-node cache. Runs under
    /// `policy` and `faults` and returns one line: every completion
    /// instant in ns, the busy totals of the I/O-node and link
    /// calendars, and the resilience counters.
    fn pinned_scan(policy: PolicyConfig, faults: FaultSchedule) -> String {
        use std::fmt::Write;
        let mut cfg = PfsConfig::tiny();
        cfg.policy = policy;
        cfg.faults = faults;
        let mut p = Pfs::new(cfg);
        let f = p.create_file_with_size("scan", 8 << 20);
        let mut ops = vec![IoOp::Open];
        ops.extend(vec![IoOp::Read { size: 8 << 10 }; 24]);
        ops.extend(vec![IoOp::Read { size: 1 << 20 }; 2]);
        ops.extend([IoOp::Read { size: 3 << 20 }, IoOp::Write { size: 3 << 20 }]);
        ops.push(IoOp::Seek { offset: 1 << 20 });
        ops.extend(vec![IoOp::Read { size: 8 << 10 }; 24]);
        let mut line = String::new();
        let mut t = Time::ZERO;
        for op in &ops {
            t = only(p.submit(t, Pid(0), f, op).unwrap()).finish;
            write!(line, "{} ", t.as_nanos()).unwrap();
        }
        let s = p.resilience_stats();
        write!(
            line,
            "| ions {} links {} | timeouts {} retries {} reroutes {} degraded {} aborts {}",
            p.ions.total_busy().as_nanos(),
            p.ion_links.total_busy().as_nanos(),
            s.timeouts,
            s.retries,
            s.reroutes,
            s.degraded_reads,
            s.aborts
        )
        .unwrap();
        line
    }

    /// The prefetch path under faults, pinned: no golden or example
    /// runs a read-ahead or adaptive policy beside a fault schedule.
    /// Tiny has two I/O nodes, so each 1 MiB or 3 MiB request puts
    /// many stripe segments on one node. Each fault's window opens
    /// after the open completes: an I/O-node slowdown (which also
    /// scales the rescan's I/O-node cache hits), a spindle failure, a
    /// latent sector, an I/O-node crash (a prefetch waits out the
    /// restart) and link congestion.
    #[test]
    fn faulted_prefetch_path_is_pinned() {
        use sioscope_faults::FaultKind;
        let onset = Time::from_millis(950);
        let faults = |kind: Option<FaultKind>| match kind {
            None => FaultSchedule::engaged_empty(),
            Some(kind) => {
                let mut s = FaultSchedule::empty();
                s.push(onset, kind);
                s
            }
        };
        let window = Time::from_secs(10);
        let cases = [
            ("fault-free", FaultSchedule::empty()),
            ("engaged-empty", faults(None)),
            (
                "slowdown",
                faults(Some(FaultKind::IonSlowdown {
                    ion: 0,
                    duration: window,
                    factor: 3.0,
                })),
            ),
            (
                "spindle",
                faults(Some(FaultKind::SpindleFailure {
                    ion: 1,
                    rebuild: Some(window),
                })),
            ),
            (
                "latent",
                faults(Some(FaultKind::LatentSector {
                    ion: 0,
                    duration: window,
                    penalty: Time::from_millis(5),
                })),
            ),
            (
                "crash",
                faults(Some(FaultKind::IonCrash {
                    ion: 0,
                    restart: Time::from_millis(300),
                })),
            ),
            (
                "congestion",
                faults(Some(FaultKind::LinkCongestion {
                    duration: window,
                    factor: 4.0,
                })),
            ),
        ];
        let policies = [
            ("measured", PolicyConfig::measured_pfs()),
            ("prefetch", PolicyConfig::prefetch_only()),
            ("adaptive", PolicyConfig::adaptive()),
            ("recommended", PolicyConfig::recommended()),
        ];
        let mut got = Vec::new();
        for (policy_name, policy) in policies {
            for (fault_name, schedule) in &cases {
                let line = pinned_scan(policy, schedule.clone());
                got.push(format!("{policy_name} {fault_name}: {line}"));
            }
        }
        let want: Vec<&str> = PINNED_SCANS.lines().collect();
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got, want);
        }
    }

    /// What `faulted_prefetch_path_is_pinned` observed when it was
    /// written, one line per (policy, schedule).
    const PINNED_SCANS: &str = "\
measured fault-free: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 990686801 990861801 991036801 991211801 991386801 991561801 991736801 991911801 1289902604 1587893407 2481442615 2603311823 2603341823 2606356010 2606531010 2606706010 2606881010 2607056010 2607231010 2607406010 2607581010 2610595597 2610770597 2610945597 2611120597 2611295597 2611470597 2611645597 2611820597 2614834784 2615009784 2615184784 2615359784 2615534784 2615709784 2615884784 2616059784 | ions 2469554560 links 146363778 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
measured engaged-empty: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 990686801 990861801 991036801 991211801 991386801 991561801 991736801 991911801 1289902604 1587893407 2481442615 2603311823 2603341823 2606356010 2606531010 2606706010 2606881010 2607056010 2607231010 2607406010 2607581010 2610595597 2610770597 2610945597 2611120597 2611295597 2611470597 2611645597 2611820597 2614834784 2615009784 2615184784 2615359784 2615534784 2615709784 2615884784 2616059784 | ions 2469554560 links 146363778 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
measured slowdown: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1045470801 1045645801 1045820801 1045995801 1046170801 1046345801 1046520801 1046695801 1782958604 2519221407 4727586615 5040342223 5040372223 5046807850 5046982850 5047157850 5047332850 5047507850 5047682850 5047857850 5048032850 5051047437 5051222437 5051397437 5051572437 5051747437 5051922437 5052097437 5052272437 5058708064 5058883064 5059058064 5059233064 5059408064 5059583064 5059758064 5059933064 | ions 4913427840 links 146363778 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
measured spindle: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 990686801 990861801 991036801 991211801 991386801 991561801 991736801 991911801 1421384204 1850856607 3138850615 3260719823 3260749823 3263764010 3263939010 3264114010 3264289010 3264464010 3264639010 3264814010 3264989010 3268003597 3268178597 3268353597 3268528597 3268703597 3268878597 3269053597 3269228597 3272242784 3272417784 3272592784 3272767784 3272942784 3273117784 3273292784 3273467784 | ions 3126962560 links 146363778 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
measured latent: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 995686801 995861801 996036801 996211801 996386801 996561801 996736801 996911801 1334902604 1672893407 2686442615 2808311823 2808341823 2811356010 2811531010 2811706010 2811881010 2812056010 2812231010 2812406010 2812581010 2815595597 2815770597 2815945597 2816120597 2816295597 2816470597 2816645597 2816820597 2819834784 2820009784 2820184784 2820359784 2820534784 2820709784 2820884784 2821059784 | ions 2674554560 links 146363778 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
measured crash: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1047832801 1048007801 1048182801 1048357801 1048532801 1048707801 1048882801 1049057801 1382060604 1680051407 2573600615 2695469823 2695499823 2724195290 2724370290 2724545290 2724720290 2724895290 2725070290 2725245290 2725420290 2728434877 2728609877 2728784877 2728959877 2729134877 2729309877 2729484877 2729659877 2758355344 2758530344 2758705344 2758880344 2759055344 2759230344 2759405344 2759580344 | ions 2245931120 links 146363778 | timeouts 9 retries 9 reroutes 9 degraded 9 aborts 0
measured congestion: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 964043134 964218134 964393134 964568134 964743134 964918134 965093134 965268134 997240401 997415401 997590401 997765401 997940401 998115401 998290401 998465401 1322670604 1646875807 2619068215 2819580623 2819610623 2825901610 2826076610 2826251610 2826426610 2826601610 2826776610 2826951610 2827126610 2833417997 2833592997 2833767997 2833942997 2834117997 2834292997 2834467997 2834642997 2840933984 2841108984 2841283984 2841458984 2841633984 2841808984 2841983984 2842158984 | ions 2469554560 links 582178178 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch fault-free: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch engaged-empty: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch slowdown: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1044120801 1044295801 1044470801 1044645801 1044820801 1044995801 1045170801 1045345801 1781608604 2517871407 4726236615 5038992223 5039022223 5045457850 5045632850 5045807850 5045982850 5046157850 5046332850 5046507850 5046682850 5049697437 5049872437 5050047437 5050222437 5050397437 5050572437 5050747437 5050922437 5056008064 5056183064 5056358064 5056533064 5056708064 5056883064 5057058064 5057233064 | ions 4800438400 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch spindle: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1377917724 1807390127 3095384135 3217253343 3217283343 3220297530 3220472530 3220647530 3220822530 3220997530 3221172530 3221347530 3221522530 3224537117 3224712117 3224887117 3225062117 3225237117 3225412117 3225587117 3225762117 3227426304 3227601304 3227776304 3227951304 3228126304 3228301304 3228476304 3228651304 | ions 3055743360 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch latent: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 994336801 994511801 994686801 994861801 995036801 995211801 995386801 995561801 1333552604 1671543407 2685092615 2806961823 2806991823 2810006010 2810181010 2810356010 2810531010 2810706010 2810881010 2811056010 2811231010 2814245597 2814420597 2814595597 2814770597 2814945597 2815120597 2815295597 2815470597 2817134784 2817309784 2817484784 2817659784 2817834784 2818009784 2818184784 2818359784 | ions 2614770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch crash: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1278570467 1278745467 1278920467 1279095467 1279270467 1279445467 1279620467 1279795467 1577786270 1875777073 2769326281 2891195489 2891225489 2894239676 2894414676 2894589676 2894764676 2894939676 2895114676 2895289676 2895464676 2898479263 2898654263 2898829263 2899004263 2899179263 2899354263 2899529263 2899704263 2901368450 2901543450 2901718450 2901893450 2902068450 2902243450 2902418450 2902593450 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
prefetch congestion: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 964043134 964218134 964393134 964568134 964743134 964918134 965093134 965268134 995890401 996065401 996240401 996415401 996590401 996765401 996940401 997115401 1321320604 1645525807 2617718215 2818230623 2818260623 2824551610 2824726610 2824901610 2825076610 2825251610 2825426610 2825601610 2825776610 2832067997 2832242997 2832417997 2832592997 2832767997 2832942997 2833117997 2833292997 2838233984 2838408984 2838583984 2838758984 2838933984 2839108984 2839283984 2839458984 | ions 2414770560 links 573440044 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive fault-free: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive engaged-empty: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive slowdown: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1044120801 1044295801 1044470801 1044645801 1044820801 1044995801 1045170801 1045345801 1781608604 2517871407 4726236615 5038992223 5039022223 5045457850 5045632850 5045807850 5045982850 5046157850 5046332850 5046507850 5046682850 5049697437 5049872437 5050047437 5050222437 5050397437 5050572437 5050747437 5050922437 5056008064 5056183064 5056358064 5056533064 5056708064 5056883064 5057058064 5057233064 | ions 4800438400 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive spindle: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1377917724 1807390127 3095384135 3217253343 3217283343 3220297530 3220472530 3220647530 3220822530 3220997530 3221172530 3221347530 3221522530 3224537117 3224712117 3224887117 3225062117 3225237117 3225412117 3225587117 3225762117 3227426304 3227601304 3227776304 3227951304 3228126304 3228301304 3228476304 3228651304 | ions 3055743360 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive latent: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 994336801 994511801 994686801 994861801 995036801 995211801 995386801 995561801 1333552604 1671543407 2685092615 2806961823 2806991823 2810006010 2810181010 2810356010 2810531010 2810706010 2810881010 2811056010 2811231010 2814245597 2814420597 2814595597 2814770597 2814945597 2815120597 2815295597 2815470597 2817134784 2817309784 2817484784 2817659784 2817834784 2818009784 2818184784 2818359784 | ions 2614770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive crash: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1278570467 1278745467 1278920467 1279095467 1279270467 1279445467 1279620467 1279795467 1577786270 1875777073 2769326281 2891195489 2891225489 2894239676 2894414676 2894589676 2894764676 2894939676 2895114676 2895289676 2895464676 2898479263 2898654263 2898829263 2899004263 2899179263 2899354263 2899529263 2899704263 2901368450 2901543450 2901718450 2901893450 2902068450 2902243450 2902418450 2902593450 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
adaptive congestion: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 964043134 964218134 964393134 964568134 964743134 964918134 965093134 965268134 995890401 996065401 996240401 996415401 996590401 996765401 996940401 997115401 1321320604 1645525807 2617718215 2818230623 2818260623 2824551610 2824726610 2824901610 2825076610 2825251610 2825426610 2825601610 2825776610 2832067997 2832242997 2832417997 2832592997 2832767997 2832942997 2833117997 2833292997 2838233984 2838408984 2838583984 2838758984 2838933984 2839108984 2839283984 2839458984 | ions 2414770560 links 573440044 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended fault-free: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended engaged-empty: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1288552604 1586543407 2480092615 2601961823 2601991823 2605006010 2605181010 2605356010 2605531010 2605706010 2605881010 2606056010 2606231010 2609245597 2609420597 2609595597 2609770597 2609945597 2610120597 2610295597 2610470597 2612134784 2612309784 2612484784 2612659784 2612834784 2613009784 2613184784 2613359784 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended slowdown: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1044120801 1044295801 1044470801 1044645801 1044820801 1044995801 1045170801 1045345801 1781608604 2517871407 4726236615 5038992223 5039022223 5045457850 5045632850 5045807850 5045982850 5046157850 5046332850 5046507850 5046682850 5049697437 5049872437 5050047437 5050222437 5050397437 5050572437 5050747437 5050922437 5056008064 5056183064 5056358064 5056533064 5056708064 5056883064 5057058064 5057233064 | ions 4800438400 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended spindle: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 989336801 989511801 989686801 989861801 990036801 990211801 990386801 990561801 1377917724 1807390127 3095384135 3217253343 3217283343 3220297530 3220472530 3220647530 3220822530 3220997530 3221172530 3221347530 3221522530 3224537117 3224712117 3224887117 3225062117 3225237117 3225412117 3225587117 3225762117 3227426304 3227601304 3227776304 3227951304 3228126304 3228301304 3228476304 3228651304 | ions 3055743360 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended latent: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 994336801 994511801 994686801 994861801 995036801 995211801 995386801 995561801 1333552604 1671543407 2685092615 2806961823 2806991823 2810006010 2810181010 2810356010 2810531010 2810706010 2810881010 2811056010 2811231010 2814245597 2814420597 2814595597 2814770597 2814945597 2815120597 2815295597 2815470597 2817134784 2817309784 2817484784 2817659784 2817834784 2818009784 2818184784 2818359784 | ions 2614770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended crash: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 960766334 960941334 961116334 961291334 961466334 961641334 961816334 961991334 1278570467 1278745467 1278920467 1279095467 1279270467 1279445467 1279620467 1279795467 1577786270 1875777073 2769326281 2891195489 2891225489 2894239676 2894414676 2894589676 2894764676 2894939676 2895114676 2895289676 2895464676 2898479263 2898654263 2898829263 2899004263 2899179263 2899354263 2899529263 2899704263 2901368450 2901543450 2901718450 2901893450 2902068450 2902243450 2902418450 2902593450 | ions 2414770560 links 144179244 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
recommended congestion: 902150000 930845467 931020467 931195467 931370467 931545467 931720467 931895467 932070467 964043134 964218134 964393134 964568134 964743134 964918134 965093134 965268134 995890401 996065401 996240401 996415401 996590401 996765401 996940401 997115401 1321320604 1645525807 2617718215 2818230623 2818260623 2824551610 2824726610 2824901610 2825076610 2825251610 2825426610 2825601610 2825776610 2832067997 2832242997 2832417997 2832592997 2832767997 2832942997 2833117997 2833292997 2838233984 2838408984 2838583984 2838758984 2838933984 2839108984 2839283984 2839458984 | ions 2414770560 links 573440044 | timeouts 0 retries 0 reroutes 0 degraded 0 aborts 0
";

    #[test]
    fn prefetch_stops_at_end_of_file() {
        let mut cfg = PfsConfig::tiny();
        cfg.policy = PolicyConfig::prefetch_only();
        let mut p = Pfs::new(cfg);
        // One block exactly: prefetch of the next block must be a
        // no-op, and scanning past it must not panic.
        let f = p.create_file_with_size("short", 64 * 1024);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let mut t = c.finish;
        for _ in 0..16 {
            let r = only(p.submit(t, Pid(0), f, &IoOp::Read { size: 4096 }).unwrap());
            t = r.finish;
        }
        assert!(t > c.finish);
    }

    #[test]
    fn observability_counters_track_activity() {
        let mut p = pfs();
        let f = p.create_file_with_size("obs", 1 << 20);
        let c = only(p.submit(Time::ZERO, Pid(0), f, &IoOp::Open).unwrap());
        let mut t = c.finish;
        for _ in 0..8 {
            let r = only(p.submit(t, Pid(0), f, &IoOp::Read { size: 4096 }).unwrap());
            t = r.finish;
        }
        assert!(p.ions.total_busy() > Time::ZERO);
        assert!(
            p.metadata.busy_time() > Time::ZERO,
            "the open used metadata"
        );
        let utils = p.ion_utilizations(t);
        assert_eq!(utils.len(), p.cfg.machine.io_nodes as usize);
        assert!(utils.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(utils.iter().any(|&u| u > 0.0));
    }

    #[test]
    fn mlog_appends_fcfs() {
        let mut p = pfs();
        let f = p.create_file("stdout");
        let gop = IoOp::Gopen {
            group: 2,
            mode: IoMode::MLog,
            record_size: None,
        };
        let mut t = Time::ZERO;
        for i in 0..2 {
            if let Outcome::Done(cs) = p.submit(Time::ZERO, Pid(i), f, &gop).unwrap() {
                t = cs[0].finish;
            }
        }
        let w1 = only(p.submit(t, Pid(1), f, &IoOp::Write { size: 50 }).unwrap());
        let w0 = only(p.submit(t, Pid(0), f, &IoOp::Write { size: 70 }).unwrap());
        // FCFS: pid1 got offset 0, pid0 got offset 50.
        assert_eq!(p.file(f).unwrap().shared_ptr, 120);
        assert!(
            w0.finish >= w1.finish,
            "second arrival serializes behind first"
        );
    }

    #[test]
    fn submit_into_reuses_one_buffer_and_matches_submit() {
        let mut a = pfs();
        let mut b = pfs();
        let fa = a.create_file_with_size("r", 1 << 20);
        let fb = b.create_file_with_size("r", 1 << 20);
        let ops = [
            IoOp::Open,
            IoOp::Read { size: 4096 },
            IoOp::Seek { offset: 256 * 1024 },
            IoOp::Write { size: 2048 },
            IoOp::Flush,
            IoOp::Close,
        ];
        let mut buf = Vec::new();
        let mut t = Time::ZERO;
        for op in &ops {
            let via_submit = match a.submit(t, Pid(0), fa, op).unwrap() {
                Outcome::Done(cs) => cs,
                Outcome::Blocked => unreachable!("no collectives here"),
            };
            buf.clear();
            assert!(b.submit_into(t, Pid(0), fb, op, &mut buf).unwrap());
            assert_eq!(buf, via_submit, "{op:?}");
            t = via_submit.last().unwrap().finish;
        }
        // Errors leave the reused buffer untouched.
        buf.clear();
        let err = b.submit_into(t, Pid(7), fb, &IoOp::Close, &mut buf);
        assert!(err.is_err());
        assert!(buf.is_empty(), "failed ops must not push completions");
    }
}
