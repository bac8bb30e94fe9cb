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

use crate::cache::{ClientFileState, ReadProbe};
use crate::costs::PfsCosts;
use crate::error::PfsError;
use crate::file::FileState;
use crate::ioncache::IonCache;
use crate::mode::{IoMode, OsRelease};
use crate::op::{Completion, IoOp, OpKind, Outcome};
use crate::policy::PolicyConfig;
use crate::resilience::{
    ResilienceStats, BACKOFF_BASE, BACKOFF_MULTIPLIER, MAX_RETRIES, REQUEST_TIMEOUT,
    REROUTE_PENALTY,
};
use crate::stripe::StripeLayout;
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
    clients: DetHashMap<(Pid, FileId), ClientFileState>,
    /// Reused per-I/O-node `(total service, request count)` scratch for
    /// the batched transfer path — cleared on entry, never reallocated.
    transfer_scratch: Vec<(Time, u64)>,
    /// Compiled fault state; `None` iff the schedule does not engage,
    /// which is the guarantee that fault-free runs skip every hook.
    faults: Option<FaultState>,
    /// Resilience actions taken so far.
    res_stats: ResilienceStats,
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
            clients: DetHashMap::default(),
            transfer_scratch: vec![(Time::ZERO, 0); n_ions],
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
        let file = &mut self.files[fid.index()];
        if file.is_open_by(pid) {
            return Err(PfsError::AlreadyOpen { file: fid, pid });
        }
        // Every open pays the client-side path concurrently, plus a
        // serialized slice of the metadata server; concurrent opens by
        // many nodes are the version-A bottleneck in both
        // applications.
        let res = self.metadata.reserve(now, service);
        file.add_opener(pid);
        let mode = file.mode;
        self.clients.insert((pid, fid), ClientFileState::new());
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
        let key = {
            let file = &mut self.files[fid.index()];
            if file.is_open_by(pid) {
                return Err(PfsError::AlreadyOpen { file: fid, pid });
            }
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
                    self.clients.insert((p, fid), ClientFileState::new());
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
        let key = {
            let file = &mut self.files[fid.index()];
            if !file.is_open_by(pid) {
                return Err(PfsError::NotOpen { file: fid, pid });
            }
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
        let file = &mut self.files[fid.index()];
        if !file.is_open_by(pid) {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        if !file.mode.private_pointer() {
            return Err(PfsError::SeekOnSharedPointer { file: fid, pid });
        }
        // With client-side write aggregation (the §7 policy, static or
        // adaptive), a seek is a buffered pointer update: the server
        // sees only drained ranges, so no round trip is needed. On the
        // measured PFS, a seek on a UNIX-shared file is a file-server
        // round trip through the atomicity token — the ESCAT
        // version-B bottleneck (Table 2: seek 63.2% of I/O time).
        let aggregating = self.cfg.policy.write_aggregation || self.cfg.policy.adaptive;
        let finish = if file.mode == IoMode::MUnix && file.opener_count() > 1 && !aggregating {
            let res = file.token.reserve(now, costs.seek_server_service);
            res.finish + costs.client_overhead
        } else {
            now + costs.seek_local
        };
        file.set_private_ptr(pid, offset);
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
        let file = &self.files[fid.index()];
        if !file.is_open_by(pid) {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        let client = self.clients.entry((pid, fid)).or_default();
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
        if !self.files[fid.index()].is_open_by(pid) {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        let drained = self.drain_write_buf(now, pid, fid);
        let pending = self
            .clients
            .get(&(pid, fid))
            .map(|c| c.drain_done_at)
            .unwrap_or(Time::ZERO);
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
        if !self.files[fid.index()].is_open_by(pid) {
            return Err(PfsError::NotOpen { file: fid, pid });
        }
        let drained = self.drain_write_buf(now, pid, fid);
        let pending = self
            .clients
            .remove(&(pid, fid))
            .map(|c| c.drain_done_at)
            .unwrap_or(Time::ZERO);
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
        let mode = {
            let file = &self.files[fid.index()];
            if !file.is_open_by(pid) {
                return Err(PfsError::NotOpen { file: fid, pid });
            }
            file.mode
        };
        match mode {
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
        let offset = self.files[fid.index()].private_ptr(pid);
        let cache_allowed = self.read_cache_allowed(fid);
        let client = self.clients.entry((pid, fid)).or_default();
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
                    let client = self
                        .clients
                        .get_mut(&(pid, fid))
                        .expect("client state present");
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

        let file = &mut self.files[fid.index()];
        file.advance_private(pid, size);
        if let Some(client) = self.clients.get_mut(&(pid, fid)) {
            client.note_read(offset, size);
        }
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
        if let Some(client) = self.clients.get(&(pid, fid)) {
            use crate::cache::ReadProbe;
            if !matches!(client.probe_read(block_start, 1), ReadProbe::Miss) {
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
        let arrival = self.net_arrival_background(end, pid, fid, block_start, block_len);
        if let Some(client) = self.clients.get_mut(&(pid, fid)) {
            client.install_prefetch(block_start, block_len, arrival);
        }
    }

    /// Completion-time estimate for a background (prefetch) transfer:
    /// queue behind the I/O nodes' current backlog but do not occupy
    /// the calendar. Slightly optimistic under saturation — background
    /// reads ride the arrays' idle capacity.
    fn transfer_background(&mut self, start: Time, fid: FileId, offset: u64, len: u64) -> Time {
        if len == 0 {
            return start;
        }
        let layout = self.files[fid.index()].layout;
        let costs = self.cfg.costs;
        let mut end = start;
        for seg in layout.segments_iter(offset, len) {
            let ion = seg.ion as usize;
            // Background traffic has no client to time out: a prefetch
            // aimed at a crashed node simply waits for the restart.
            let seg_start = match &self.faults {
                Some(s) => s.down_until(seg.ion, start).unwrap_or(start).max(start),
                None => start,
            };
            let disturb = self
                .faults
                .as_ref()
                .map(|s| s.disk_disturbance(seg.ion, seg_start));
            let block = seg.offset / layout.unit;
            let cache_hit = self.ion_caches[ion].probe(fid, block);
            let service = if cache_hit {
                costs.ion_cache_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_cache_bw)
            } else {
                let sequential = self.ion_last[ion] == Some((fid, seg.offset));
                match &disturb {
                    Some(d) => self.disk.service_time_disturbed(seg.len, sequential, d),
                    None => self.disk.service_time(seg.len, sequential),
                }
            };
            let service = match &disturb {
                Some(d) if cache_hit && d.slow_factor != 1.0 => service.scale(d.slow_factor),
                _ => service,
            };
            self.ion_caches[ion].insert(fid, block);
            let begin = seg_start.max(self.ions.get(ion).map(|c| c.free_at()).unwrap_or(seg_start));
            end = end.max(begin + service);
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
        let offset = self.files[fid.index()].private_ptr(pid);

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
            && self
                .clients
                .get(&(pid, fid))
                .map(|c| c.buffering)
                .unwrap_or(true);
        // Adaptive policy: coalesce once the write stream is
        // classified sequential.
        let adaptive_agg = policy.adaptive && {
            let client = self.clients.entry((pid, fid)).or_default();
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
            let needs_flush_first = {
                let client = self.clients.entry((pid, fid)).or_default();
                !client.append_write(offset, size)
            };
            if needs_flush_first {
                // Non-contiguous: drain the old range first.
                let buf = self
                    .clients
                    .get_mut(&(pid, fid))
                    .and_then(|c| c.take_write_buf());
                if let Some(buf) = buf {
                    sync_drain_delay = self.drain_range(t0, pid, fid, buf.start, buf.len, behind);
                }
                let client = self
                    .clients
                    .get_mut(&(pid, fid))
                    .expect("client state present");
                assert!(client.append_write(offset, size), "empty buffer accepts");
            }
            // Drain when the buffer reaches a full block.
            let mut full_drain_delay = Time::ZERO;
            let need_drain = {
                let client = self.clients.get(&(pid, fid)).expect("client state");
                client
                    .write_buf
                    .map(|b| b.len >= costs.buffer_block)
                    .unwrap_or(false)
            };
            if need_drain {
                let buf = self
                    .clients
                    .get_mut(&(pid, fid))
                    .and_then(|c| c.take_write_buf());
                if let Some(buf) = buf {
                    full_drain_delay = self.drain_range(t0, pid, fid, buf.start, buf.len, behind);
                }
            }
            // The client's call returns after the memory copy, plus
            // any synchronous drain it triggered.
            t0 + costs.cache_hit + sync_drain_delay.max(full_drain_delay)
        } else {
            self.fetch(t0, pid, fid, offset, size, true)?
        };

        let file = &mut self.files[fid.index()];
        file.advance_private(pid, size);
        file.note_write(offset, size);
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
            .clients
            .get_mut(&(pid, fid))
            .and_then(|c| c.take_write_buf());
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
            if let Some(client) = self.clients.get_mut(&(pid, fid)) {
                client.drain_done_at = client.drain_done_at.max(end);
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
            self.net_arrival(end, pid, fid, offset, len)
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
        self.net_arrival(data_end, pid, fid, offset, len)
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
        if len == 0 {
            return start;
        }
        if self.faults.is_none() {
            return self.transfer_batched(start, fid, offset, len, write);
        }
        let layout = self.files[fid.index()].layout;
        let costs = self.cfg.costs;
        let mut end = start;
        for seg in layout.segments_iter(offset, len) {
            let (serving, seg_start, route_factor) = self.engage_ion(seg.ion, start, write);
            let ion = serving as usize;
            let disturb = self
                .faults
                .as_ref()
                .map(|s| s.disk_disturbance(serving, seg_start));
            let block = seg.offset / layout.unit;
            let cache_hit = !write && self.ion_caches[ion].probe(fid, block);
            let service = if write {
                costs.ion_write_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_write_bw)
            } else if cache_hit {
                // Served from I/O-node memory: no disk positioning.
                costs.ion_cache_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_cache_bw)
            } else {
                let sequential = self.ion_last[ion] == Some((fid, seg.offset));
                match &disturb {
                    Some(d) => self.disk.service_time_disturbed(seg.len, sequential, d),
                    None => self.disk.service_time(seg.len, sequential),
                }
            };
            // Node-level slowdowns hit the cache and write paths too —
            // the I/O-node daemon itself is starved, not just the disk
            // (the disk branch already applied the factor inside
            // `service_time_disturbed`).
            let service = match &disturb {
                Some(d) if (write || cache_hit) && d.slow_factor != 1.0 => {
                    service.scale(d.slow_factor)
                }
                _ => service,
            };
            let service = if route_factor == 1.0 {
                service
            } else {
                service.scale(route_factor)
            };
            // Reads bring the block in; writes deposit it.
            self.ion_caches[ion].insert(fid, block);
            let res = self.ions.reserve(ion, seg_start, service);
            self.ion_last[ion] = Some((fid, seg.offset + seg.len));
            end = end.max(res.finish);
        }
        end
    }

    /// Fault-free transfer fast path: walk the segments once computing
    /// each per-segment service exactly as the general path does (same
    /// cache probes, same sequential detection, in the same order),
    /// accumulate per-I/O-node `(total service, count)`, then issue a
    /// single batched calendar reservation per touched node.
    ///
    /// Bit-identical to the general path with no faults engaged: every
    /// segment there starts at `start` with factor 1, so per node the
    /// reservations chain back-to-back from `max(start, free_at)` —
    /// exactly what [`Calendar::reserve_batch`] computes — and the maximum
    /// finish over segments equals the maximum over per-node batch
    /// finishes because each node's last segment finishes latest.
    fn transfer_batched(
        &mut self,
        start: Time,
        fid: FileId,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Time {
        let layout = self.files[fid.index()].layout;
        let costs = self.cfg.costs;
        self.transfer_scratch.clear();
        self.transfer_scratch
            .resize(self.ions.len(), (Time::ZERO, 0));
        for seg in layout.segments_iter(offset, len) {
            let ion = seg.ion as usize;
            let block = seg.offset / layout.unit;
            let cache_hit = !write && self.ion_caches[ion].probe(fid, block);
            let service = if write {
                costs.ion_write_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_write_bw)
            } else if cache_hit {
                costs.ion_cache_overhead + Time::from_secs_f64(seg.len as f64 / costs.ion_cache_bw)
            } else {
                let sequential = self.ion_last[ion] == Some((fid, seg.offset));
                self.disk.service_time(seg.len, sequential)
            };
            self.ion_caches[ion].insert(fid, block);
            self.transfer_scratch[ion].0 += service;
            self.transfer_scratch[ion].1 += 1;
            self.ion_last[ion] = Some((fid, seg.offset + seg.len));
        }
        let mut end = start;
        for ion in 0..self.transfer_scratch.len() {
            let (total, n) = self.transfer_scratch[ion];
            if n > 0 {
                let res = self.ions.reserve_batch(ion, start, total);
                end = end.max(res.finish);
            }
        }
        end
    }

    /// Absolute arrival time at the client for data leaving the I/O
    /// node holding the first byte of the range at `data_ready`. The
    /// payload serializes on the I/O node's single mesh injection
    /// link (fan-in contention when many clients pull from one
    /// array); the header pipeline and software setup overlap across
    /// streams.
    fn net_arrival(
        &mut self,
        data_ready: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> Time {
        let layout = self.files[fid.index()].layout;
        let to = self.cfg.machine.compute_position(NodeId(pid.0));
        let params = *self.mesh.params();
        if len == 0 {
            return data_ready + params.sw_setup;
        }
        let congestion = self
            .faults
            .as_ref()
            .map_or(1.0, |s| s.link_factor(data_ready));
        // Each stripe segment streams out of its own I/O node's link;
        // the client receives when the last segment lands.
        let mut last = data_ready;
        let mut max_hops = 0;
        for seg in layout.segments_iter(offset, len) {
            let wire = if congestion == 1.0 {
                Time::from_secs_f64(seg.len as f64 / params.bandwidth_bps)
            } else {
                Time::from_secs_f64(seg.len as f64 * congestion / params.bandwidth_bps)
            };
            let res = self.ion_links.reserve(seg.ion as usize, data_ready, wire);
            last = last.max(res.finish);
            let from = self.cfg.machine.io_position(seg.ion);
            max_hops = max_hops.max(self.mesh.hops(from, to));
        }
        last + params.sw_setup + params.per_hop * u64::from(max_hops)
    }

    /// Like [`Pfs::net_arrival`] but for background (prefetch)
    /// traffic: queues behind the link's current backlog without
    /// reserving it.
    fn net_arrival_background(
        &self,
        data_ready: Time,
        pid: Pid,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> Time {
        let layout = self.files[fid.index()].layout;
        let to = self.cfg.machine.compute_position(NodeId(pid.0));
        let params = self.mesh.params();
        let congestion = self
            .faults
            .as_ref()
            .map_or(1.0, |s| s.link_factor(data_ready));
        let mut last = data_ready;
        let mut max_hops = 0;
        for seg in layout.segments_iter(offset, len) {
            let wire = if congestion == 1.0 {
                Time::from_secs_f64(seg.len as f64 / params.bandwidth_bps)
            } else {
                Time::from_secs_f64(seg.len as f64 * congestion / params.bandwidth_bps)
            };
            let begin = data_ready.max(
                self.ion_links
                    .get(seg.ion as usize)
                    .map(|c| c.free_at())
                    .unwrap_or(data_ready),
            );
            last = last.max(begin + wire);
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
                    match &self.faults {
                        Some(s) => self.mesh.broadcast_time_congested(
                            members.len() as u32,
                            size,
                            s.link_factor(data_end),
                        ),
                        None => self.mesh.broadcast_time(members.len() as u32, size),
                    }
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
                    let arrival = self.net_arrival(data_end, p, fid, offset, record);
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
                    let arrival = self.net_arrival(data_end, p, fid, offset, s);
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

    /// Doubles as the batched-transfer equivalence check: the engaged
    /// (but empty) schedule takes the general per-segment transfer
    /// path while the plain run takes the per-ion `reserve_batch` fast
    /// path, and every observable — completion times and disk busy
    /// time — must still agree exactly.
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
