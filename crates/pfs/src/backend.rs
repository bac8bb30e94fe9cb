//! The pluggable storage-backend boundary.
//!
//! The paper characterized I/O pathologies of one 1996 file system;
//! the evolutionary question — which pathologies are *artifacts of
//! that tier* and which are intrinsic to the request streams — needs
//! the same workloads replayed against different storage models. This
//! module defines the seam: a [`StorageBackend`] is anything that can
//! accept the simulator's file creations and operation submissions and
//! return completion instants on the shared simulated timeline.
//!
//! Three backends implement it:
//!
//! * the striped [`Pfs`] itself (the measured system — the trait impl
//!   is pure delegation, so trait-routed runs are bit-identical to
//!   direct calls);
//! * [`crate::object::ObjectStore`] — a flat-namespace PUT/GET tier
//!   with a sharded metadata service and no shared-pointer modes;
//! * [`crate::burst::BurstBuffer`] — a host-side log in front of the
//!   PFS that absorbs writes locally and drains them asynchronously.

use crate::burst::BurstBufferConfig;
use crate::error::PfsError;
use crate::object::{self, ObjectStoreConfig};
use crate::op::{Completion, IoOp};
use crate::resilience::ResilienceStats;
use crate::server::{Pfs, PfsConfig};
use sioscope_faults::Tier;
use sioscope_machine::MachineConfig;
use sioscope_sim::{FileId, Pid, Time};
use std::fmt;

/// A storage tier the simulation event loop can drive.
///
/// The contract mirrors what the loop already asked of [`Pfs`]: create
/// the workload's files up front, then submit one operation at a time
/// and receive absolute completion instants. Completions may cover
/// several processes (collective groups); `Ok(false)` parks the caller
/// until a later submission releases it. Everything must be a pure
/// function of the submission sequence — no wall clocks, no global
/// state — so same-workload runs stay bit-identical.
pub trait StorageBackend {
    /// Which tier this is.
    fn kind(&self) -> BackendKind;

    /// Create a file pre-populated with `size` bytes. File ids are
    /// assigned densely in creation order (`FileId(0)`, `FileId(1)`,
    /// ...), matching the workload's file-index convention.
    fn create_file_with_size(&mut self, name: &str, size: u64) -> FileId;

    /// Submit one operation at simulation instant `now`, appending any
    /// completions to `out`. Returns `Ok(true)` when the operation
    /// completed, `Ok(false)` when the caller joined a still-forming
    /// collective group; on `Ok(false)` and on errors nothing is
    /// pushed.
    fn submit_into(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError>;

    /// Instants at which a fault window opens or closes, for
    /// interleaving with the event calendar. Backends without a fault
    /// model report none.
    fn fault_transition_times(&self) -> Vec<Time> {
        Vec::new()
    }

    /// Collective groups still forming (deadlock detection). Backends
    /// without collective semantics always report zero.
    fn forming_collectives(&self) -> usize {
        0
    }

    /// Resilience actions taken so far.
    fn resilience_stats(&self) -> ResilienceStats {
        ResilienceStats::default()
    }

    /// The instant at which data committed by `now` is durable, or
    /// [`Time::MAX`] if some of it was destroyed (a burst-node crash
    /// ate resident log bytes) and the commit can never be restored.
    /// Queries form a cursor: each call covers the window since the
    /// previous call. Backends with no volatile staging are durable
    /// immediately.
    fn durable_instant(&mut self, now: Time) -> Time {
        now
    }

    /// Flush any asynchronous background work (burst-buffer drains) to
    /// completion, returning the instant the backend is fully quiet.
    /// Backends with no background activity are quiet immediately.
    fn quiesce(&mut self, now: Time) -> Time {
        now
    }

    /// Tier-specific counters accumulated so far.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// Tier-specific accounting every backend can report. PFS runs leave
/// it at the default; the object store counts PUT/GET traffic; the
/// burst buffer tracks its log and drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Bytes absorbed into the host-side log (burst buffer).
    pub bytes_logged: u64,
    /// Bytes drained from the log to the backing store.
    pub bytes_drained: u64,
    /// Bytes still resident in the log (`logged - drained - lost`).
    pub bytes_resident: u64,
    /// Bytes destroyed by a burst-node crash while resident in the
    /// log — logged, never drained, never recoverable.
    pub bytes_lost: u64,
    /// Operations absorbed locally instead of hitting the backing
    /// store.
    pub absorbed_ops: u64,
    /// Operations passed through to the backing store unchanged.
    pub passthrough_ops: u64,
    /// Object PUTs served.
    pub puts: u64,
    /// Object GETs served.
    pub gets: u64,
    /// Instant the last background drain completed (zero when nothing
    /// ever drained).
    pub drain_complete: Time,
}

impl BackendStats {
    /// The burst-buffer conservation law: every logged byte is
    /// drained, still resident, or destroyed by a burst-node crash.
    pub fn conserves_bytes(&self) -> bool {
        self.bytes_logged == self.bytes_drained + self.bytes_resident + self.bytes_lost
    }
}

/// The storage tiers addressable by stable id (campaign specs, CLI
/// flags, canonical config lines — renaming one orphans cached
/// results and must be treated as a breaking change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The striped Intel PFS the paper measured.
    Pfs,
    /// A flat-namespace object store (PUT/GET, per-object metadata).
    Object,
    /// A host-side burst-buffer log over the PFS.
    Burst,
}

impl BackendKind {
    /// All backends, in presentation order.
    pub fn all() -> Vec<BackendKind> {
        vec![BackendKind::Pfs, BackendKind::Object, BackendKind::Burst]
    }

    /// Stable string id.
    pub fn id(self) -> &'static str {
        match self {
            BackendKind::Pfs => "pfs",
            BackendKind::Object => "object",
            BackendKind::Burst => "burst",
        }
    }

    /// Parse a stable id.
    pub fn from_id(id: &str) -> Option<BackendKind> {
        BackendKind::all().into_iter().find(|b| b.id() == id)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Configuration for one backend instance — the value the core run
/// drivers select a tier with.
#[derive(Debug, Clone)]
pub enum BackendConfig {
    /// The measured striped PFS.
    Pfs(PfsConfig),
    /// The flat-namespace object store.
    Object(ObjectStoreConfig),
    /// The host-side burst buffer over a PFS.
    Burst(BurstBufferConfig),
}

impl BackendConfig {
    /// Which tier this configures.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendConfig::Pfs(_) => BackendKind::Pfs,
            BackendConfig::Object(_) => BackendKind::Object,
            BackendConfig::Burst(_) => BackendKind::Burst,
        }
    }

    /// The machine the compute partition talks to the tier over — the
    /// PFS/burst machines carry the mesh and I/O complement; the
    /// object store's machine carries the mesh its gateways sit on.
    pub fn machine(&self) -> &MachineConfig {
        match self {
            BackendConfig::Pfs(c) => &c.machine,
            BackendConfig::Object(c) => &c.machine,
            BackendConfig::Burst(c) => &c.pfs.machine,
        }
    }

    /// Mutable access to the same machine (run drivers size
    /// `compute_nodes` to the workload).
    pub fn machine_mut(&mut self) -> &mut MachineConfig {
        match self {
            BackendConfig::Pfs(c) => &mut c.machine,
            BackendConfig::Object(c) => &mut c.machine,
            BackendConfig::Burst(c) => &mut c.pfs.machine,
        }
    }

    /// Validate every fault schedule this configuration carries
    /// against its own tier: the PFS schedule against the I/O-node
    /// complement, the object schedule against the metadata-shard
    /// count, the burst schedule against the burst tier's fault
    /// classes (plus the inner PFS schedule against the PFS tier).
    /// One message per problem; empty = valid.
    pub fn validate_faults(&self, compute_nodes: u32) -> Vec<String> {
        match self {
            BackendConfig::Pfs(c) => {
                c.faults
                    .validate_for_tier(Tier::Pfs, c.machine.io_nodes, compute_nodes)
            }
            BackendConfig::Object(c) => {
                c.faults
                    .validate_for_tier(Tier::Object, object::MD_SHARDS, compute_nodes)
            }
            BackendConfig::Burst(c) => {
                let mut msgs = c.faults.validate_for_tier(Tier::Burst, 0, compute_nodes);
                msgs.extend(
                    c.pfs
                        .faults
                        .validate_for_tier(Tier::Pfs, c.pfs.machine.io_nodes, compute_nodes)
                        .into_iter()
                        .map(|m| format!("inner pfs: {m}")),
                );
                msgs
            }
        }
    }
}

impl StorageBackend for Pfs {
    fn kind(&self) -> BackendKind {
        BackendKind::Pfs
    }

    fn create_file_with_size(&mut self, name: &str, size: u64) -> FileId {
        Pfs::create_file_with_size(self, name, size)
    }

    fn submit_into(
        &mut self,
        now: Time,
        pid: Pid,
        fid: FileId,
        op: &IoOp,
        out: &mut Vec<Completion>,
    ) -> Result<bool, PfsError> {
        Pfs::submit_into(self, now, pid, fid, op, out)
    }

    fn fault_transition_times(&self) -> Vec<Time> {
        self.fault_state()
            .map(|s| s.transitions().to_vec())
            .unwrap_or_default()
    }

    fn forming_collectives(&self) -> usize {
        Pfs::forming_collectives(self)
    }

    fn resilience_stats(&self) -> ResilienceStats {
        Pfs::resilience_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ids_round_trip() {
        for b in BackendKind::all() {
            assert_eq!(BackendKind::from_id(b.id()), Some(b));
        }
        assert_eq!(BackendKind::from_id("tape"), None);
        let ids: Vec<&str> = BackendKind::all().iter().map(|b| b.id()).collect();
        assert_eq!(ids, vec!["pfs", "object", "burst"]);
    }

    #[test]
    fn pfs_trait_impl_delegates() {
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let backend: &mut dyn StorageBackend = &mut pfs;
        assert_eq!(backend.kind(), BackendKind::Pfs);
        let fid = backend.create_file_with_size("f", 1 << 20);
        assert_eq!(fid, FileId(0));
        let mut out = Vec::new();
        let done = backend
            .submit_into(Time::ZERO, Pid(0), fid, &IoOp::Open, &mut out)
            .unwrap();
        assert!(done);
        assert_eq!(out.len(), 1);
        assert!(backend.fault_transition_times().is_empty());
        assert_eq!(backend.forming_collectives(), 0);
        assert!(backend.resilience_stats().is_quiet());
        assert_eq!(backend.quiesce(Time::from_secs(1)), Time::from_secs(1));
        assert_eq!(backend.stats(), BackendStats::default());
    }

    #[test]
    fn stats_conservation_law() {
        let mut s = BackendStats::default();
        assert!(s.conserves_bytes());
        s.bytes_logged = 100;
        s.bytes_drained = 60;
        s.bytes_resident = 40;
        assert!(s.conserves_bytes());
        s.bytes_resident = 39;
        assert!(!s.conserves_bytes());
        s.bytes_lost = 1;
        assert!(s.conserves_bytes(), "lost bytes balance the ledger");
    }

    #[test]
    fn fault_validation_is_tier_aware() {
        use sioscope_faults::{FaultKind, FaultSchedule};

        let mut pfs_faults = FaultSchedule::empty();
        pfs_faults.push(
            Time::from_secs(1),
            FaultKind::DrainStall {
                duration: Time::from_secs(2),
            },
        );
        let mut pfs_cfg = PfsConfig::tiny();
        pfs_cfg.faults = pfs_faults.clone();
        let msgs = BackendConfig::Pfs(pfs_cfg).validate_faults(4);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("not a fault of the pfs tier"), "{msgs:?}");

        let mut obj_cfg = ObjectStoreConfig::modern(4);
        obj_cfg.faults = pfs_faults.clone();
        let msgs = BackendConfig::Object(obj_cfg).validate_faults(4);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("object tier"), "{msgs:?}");

        // The burst config carries two schedules; each is checked
        // against its own tier, inner messages prefixed.
        let mut burst_cfg = BurstBufferConfig::over(PfsConfig::tiny());
        burst_cfg.faults = pfs_faults;
        burst_cfg.pfs.faults.push(
            Time::from_secs(1),
            FaultKind::DrainStall {
                duration: Time::from_secs(2),
            },
        );
        let msgs = BackendConfig::Burst(burst_cfg.clone()).validate_faults(4);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("inner pfs:"), "{msgs:?}");

        burst_cfg.pfs.faults = FaultSchedule::empty();
        assert!(BackendConfig::Burst(burst_cfg)
            .validate_faults(4)
            .is_empty());
    }
}
