//! The simulation event loop.
//!
//! Executes one [`Workload`] — a statement program per compute node —
//! against a storage tier over the machine model, recording every
//! I/O operation exactly as Pablo's instrumentation library did: issue
//! time, client-observed duration, size, offset, node and operation
//! kind.
//!
//! `Gang` is the one statement interpreter: the dedicated event loop
//! here and the multi-job scheduler ([`crate::schedule`]) both step
//! every process through it. It records each operation into a
//! [`Sink`], monomorphized like the tier: a [`TraceRecorder`] keeps
//! the trace, and [`IoTotals`] keeps only the operation count and the
//! duration sum, for runs whose events nothing reads. The public entry
//! points record the trace.

use sioscope_machine::MeshModel;
use sioscope_pfs::{
    BackendConfig, BackendStats, BurstBuffer, Completion, IoOp, ObjectStore, Pfs, PfsConfig,
    PfsError, ResilienceStats, StorageBackend,
};
use sioscope_sim::{EventQueue, FileId, Pid, RendezvousOutcome, RendezvousTable, Time};
use sioscope_trace::{IoEvent, IoTotals, Sink, TraceRecorder};
use sioscope_workloads::{Stmt, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Fixed software overhead of one barrier/broadcast/gather call beyond
/// the message timing (collective library entry/exit).
const COLLECTIVE_OVERHEAD: Time = Time::from_micros(50);

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Abort if the event count exceeds this bound (guards against
    /// runaway workloads). `0` disables the check.
    pub max_events: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_events: 200_000_000,
        }
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum SimError {
    /// The workload failed structural validation.
    InvalidWorkload(Vec<String>),
    /// The fault schedule failed validation against the machine and
    /// workload shape (checked before any faulted run starts).
    InvalidFaults(Vec<String>),
    /// A file-system call was rejected.
    Pfs {
        /// The failing process.
        pid: Pid,
        /// Statement index within the process's program.
        stmt: usize,
        /// The underlying error.
        source: PfsError,
    },
    /// The event queue drained with unfinished programs — a deadlock
    /// (usually mismatched collective participation).
    Deadlock {
        /// Pids that had not finished.
        stuck: Vec<Pid>,
        /// PFS collective groups still forming.
        forming_collectives: usize,
    },
    /// `max_events` exceeded.
    EventBudgetExceeded(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidWorkload(problems) => {
                write!(f, "invalid workload: {}", problems.join("; "))
            }
            SimError::InvalidFaults(problems) => {
                write!(f, "invalid fault schedule: {}", problems.join("; "))
            }
            SimError::Pfs { pid, stmt, source } => {
                write!(f, "{pid} stmt {stmt}: {source}")
            }
            SimError::Deadlock {
                stuck,
                forming_collectives,
            } => write!(
                f,
                "deadlock: {} unfinished pids, {} forming collectives",
                stuck.len(),
                forming_collectives
            ),
            SimError::EventBudgetExceeded(n) => write!(f, "event budget exceeded: {n}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a run, with what its sink `S` recorded of its I/O.
#[derive(Debug)]
pub struct RunResult<S = TraceRecorder> {
    /// Workload name.
    pub name: String,
    /// Version label.
    pub version: String,
    /// Wall-clock execution time: the latest completion across nodes.
    pub exec_time: Time,
    /// Per-node completion times.
    pub node_finish: Vec<Time>,
    /// What the run recorded of its I/O: the captured trace, sorted
    /// by start time, or only its totals.
    pub trace: S,
    /// Total simulation events processed (including fault-calendar
    /// transitions when a fault schedule engages).
    pub events: u64,
    /// Resilience actions the PFS took (all zero on fault-free runs).
    pub resilience: ResilienceStats,
    /// Fault-calendar transitions processed (fault windows opening or
    /// closing); zero when no fault schedule engages.
    pub fault_transitions: u64,
    /// Checkpoint-commit instants: `(marker, time)` pairs sorted by
    /// marker, where the time is the latest instant any node passed
    /// the marker. Empty for marker-free workloads.
    pub checkpoint_commits: Vec<(u32, Time)>,
    /// Durability verdict per checkpoint commit, parallel to
    /// `checkpoint_commits`: the instant the commit's data is durable
    /// on stable storage, or [`Time::MAX`] if a burst-node crash
    /// destroyed bytes the commit covered (the checkpoint can never be
    /// restored from). Tiers without volatile staging report the
    /// commit instant itself.
    pub durable_commits: Vec<(u32, Time)>,
    /// Recovery accounting, filled in by
    /// [`crate::recovery::run_with_recovery`]; all-zero for plain
    /// runs.
    pub recovery: crate::recovery::RecoveryStats,
    /// Tier-specific counters from the storage backend (all-default
    /// for the plain PFS; the burst buffer's log/drain accounting and
    /// the object store's PUT/GET counts land here).
    pub backend_stats: BackendStats,
}

impl<S: Sink> RunResult<S> {
    /// Total client-observed I/O time across all nodes.
    pub fn total_io_time(&self) -> Time {
        self.trace.total_io_time()
    }
}

impl<S> RunResult<S> {
    /// The same run, with what its sink recorded replaced by `f` of it.
    pub(crate) fn map_trace<T>(self, f: impl FnOnce(S) -> T) -> RunResult<T> {
        RunResult {
            trace: f(self.trace),
            name: self.name,
            version: self.version,
            exec_time: self.exec_time,
            node_finish: self.node_finish,
            events: self.events,
            resilience: self.resilience,
            fault_transitions: self.fault_transitions,
            checkpoint_commits: self.checkpoint_commits,
            durable_commits: self.durable_commits,
            recovery: self.recovery,
            backend_stats: self.backend_stats,
        }
    }
}

/// How a run driven up to a stop instant ended.
pub(crate) enum Attempt<S> {
    /// Every program completed by the stop instant.
    Finished(Box<RunResult<S>>),
    /// Some node was still running past the stop instant.
    Crashed(Box<Crashed<S>>),
}

impl<S> Attempt<S> {
    /// The result of a run whose stop instant is [`Time::MAX`]: no
    /// event is due after it, so the run always finishes.
    fn unstopped(self) -> RunResult<S> {
        match self {
            Attempt::Finished(result) => *result,
            Attempt::Crashed(_) => unreachable!("no event is due after Time::MAX"),
        }
    }
}

/// What an attempt stopped at a crash instant leaves for the crash's
/// accounting.
pub(crate) struct Crashed<S> {
    /// `(marker, commit instant, durable instant)` for each marker
    /// that every node carrying it passed by the stop, in marker
    /// order. The instants mean what they mean in
    /// [`RunResult::checkpoint_commits`] and
    /// [`RunResult::durable_commits`].
    pub(crate) commits: Vec<(u32, Time, Time)>,
    /// The operations completed by the stop, unsorted.
    pub(crate) trace: S,
    /// Writes still parked in a forming collective group at the stop,
    /// as `(file, issue instant, bytes)`. The trace holds a group's
    /// writes only once the group closes.
    pub(crate) parked_writes: Vec<(FileId, Time, u64)>,
}

/// Event payload.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Resume one process.
    Resume(Pid),
    /// A fault window opens or closes. No process state changes, but
    /// the boundary lands in the event calendar so the fault timeline
    /// is interleaved with (and visible in) the run's event stream.
    FaultTransition,
}

/// What every gang one event loop runs shares: the event calendar, the
/// storage tier, the mesh and the collective groups still forming.
pub(crate) struct Engine<B, E> {
    pub(crate) queue: EventQueue<E>,
    pub(crate) backend: B,
    mesh: MeshModel,
    collectives: RendezvousTable,
    /// One completion buffer reused across every submission — the event
    /// loop issues millions of ops per run, and `submit`'s per-call
    /// vector was the hottest allocation in a profile.
    completions: Vec<Completion>,
}

impl<B, E: Copy> Engine<B, E> {
    pub(crate) fn new(backend: B, mesh: MeshModel) -> Self {
        Engine {
            queue: EventQueue::new(),
            backend,
            mesh,
            collectives: RendezvousTable::new(),
            completions: Vec::new(),
        }
    }
}

struct NodeState {
    pc: usize,
    issue_time: Time,
    collective_seq: u32,
    /// Waiting in a forming collective group for its completion.
    parked: bool,
    finished: bool,
    finish_time: Time,
}

/// One application's processes and what they have recorded: the
/// statement interpreter every event loop steps its processes through.
///
/// Local pid `p` runs program `p`, then `tails[p]` if there is one (a
/// recovery replay borrows its program past the marker this way). The
/// storage tier sees it as global pid `pid_base + p` and its file `f`
/// as `file_base + f`; its `s`-th collective joins rendezvous group
/// `key_base + s`. The trace and the crash accounting use local pids
/// and files.
pub(crate) struct Gang<'w, S> {
    workload: &'w Workload,
    tails: &'w [&'w [Stmt]],
    nodes: Vec<NodeState>,
    trace: S,
    /// The latest instant any node passed each checkpoint marker.
    commits: BTreeMap<u32, Time>,
    pid_base: u32,
    file_base: u32,
    key_base: u64,
    /// Processes that have not yet run past their last statement.
    unfinished: usize,
}

impl<'w, S: Sink> Gang<'w, S> {
    /// A gang about to run `workload`, each node going on to its tail
    /// in `tails`, recording into `trace`, which its caller built.
    pub(crate) fn new(
        workload: &'w Workload,
        tails: &'w [&'w [Stmt]],
        pid_base: u32,
        file_base: u32,
        key_base: u64,
        trace: S,
    ) -> Self {
        let n = workload.nodes as usize;
        Gang {
            workload,
            tails,
            nodes: (0..n)
                .map(|_| NodeState {
                    pc: 0,
                    issue_time: Time::ZERO,
                    collective_seq: 0,
                    parked: false,
                    finished: false,
                    finish_time: Time::ZERO,
                })
                .collect(),
            trace,
            commits: BTreeMap::new(),
            pid_base,
            file_base,
            key_base,
            unfinished: n,
        }
    }

    /// Statement `pc` of local process `pid`, counting on into its
    /// tail; `None` past the end.
    fn stmt(&self, pid: usize, pc: usize) -> Option<&'w Stmt> {
        let program = &self.workload.programs[pid];
        match program.get(pc) {
            Some(stmt) => Some(stmt),
            None => self.tails.get(pid)?.get(pc - program.len()),
        }
    }

    /// Run local process `pid`'s next statement at `now`. Every process
    /// the statement releases is resumed through `wake`: completions in
    /// the order the tier returns them, collective members in arrival
    /// order. Returns whether the gang's last process just finished, or
    /// the statement index and error of a rejected file-system call.
    pub(crate) fn step<B: StorageBackend, E: Copy>(
        &mut self,
        pid: Pid,
        now: Time,
        engine: &mut Engine<B, E>,
        wake: impl Fn(Pid) -> E,
    ) -> Result<bool, (usize, PfsError)> {
        let workload = self.workload;
        let stmt_idx = self.nodes[pid.index()].pc;
        let next = self.stmt(pid.index(), stmt_idx);
        let state = &mut self.nodes[pid.index()];
        debug_assert!(!state.finished, "{pid} resumed after finishing");
        let Some(stmt) = next else {
            state.finished = true;
            state.finish_time = now;
            self.unfinished -= 1;
            return Ok(self.unfinished == 0);
        };
        state.pc += 1;

        match stmt {
            Stmt::Compute(d) => {
                engine.queue.schedule(now + *d, wake(pid));
            }
            Stmt::Io { file, op } => {
                state.issue_time = now;
                engine.completions.clear();
                let global = Pid(self.pid_base + pid.0);
                let fid = FileId(self.file_base + *file);
                match engine
                    .backend
                    .submit_into(now, global, fid, op, &mut engine.completions)
                {
                    Ok(true) => {
                        for c in engine.completions.drain(..) {
                            // A group's completions span only this
                            // gang's pids: its files are its own.
                            let local = Pid(c.pid.0 - self.pid_base);
                            let node = &mut self.nodes[local.index()];
                            node.parked = false;
                            let issued = node.issue_time;
                            self.trace.record(IoEvent {
                                pid: local,
                                file: FileId(*file),
                                kind: c.kind,
                                start: issued,
                                duration: c.finish.saturating_sub(issued),
                                bytes: c.bytes,
                                offset: c.offset,
                                mode: c.mode,
                            });
                            engine.queue.schedule(c.finish.max(now), wake(local));
                        }
                    }
                    Ok(false) => {
                        // Blocked: completion arrives via the
                        // group-closing arrival's submit call.
                        self.nodes[pid.index()].parked = true;
                    }
                    Err(source) => return Err((stmt_idx, source)),
                }
            }
            Stmt::CheckpointCommit(k) => {
                // Zero-cost: the commit writes are the ordinary Io
                // statements preceding the marker. Record the latest
                // instant any node passes it and continue immediately.
                let slot = self.commits.entry(*k).or_insert(Time::ZERO);
                *slot = (*slot).max(now);
                engine.queue.schedule(now, wake(pid));
            }
            collective @ (Stmt::Barrier | Stmt::Broadcast { .. } | Stmt::Gather { .. }) => {
                let seq = state.collective_seq;
                state.collective_seq += 1;
                // Every node of the gang executes the same collective
                // sequence.
                let key = self.key_base + u64::from(seq);
                let n = workload.nodes;
                match engine.collectives.arrive(key, pid, now, n as usize) {
                    RendezvousOutcome::Waiting => {}
                    RendezvousOutcome::Complete { arrivals, release } => {
                        let base = release + COLLECTIVE_OVERHEAD;
                        let mesh = &engine.mesh;
                        let queue = &mut engine.queue;
                        match collective {
                            Stmt::Barrier => {
                                for (p, _) in arrivals {
                                    queue.schedule(base.max(now), wake(p));
                                }
                            }
                            Stmt::Broadcast { bytes, .. } => {
                                let t = base + mesh.broadcast_time(n, *bytes, 1.0);
                                for (p, _) in arrivals {
                                    queue.schedule(t.max(now), wake(p));
                                }
                            }
                            Stmt::Gather {
                                root,
                                bytes_per_node,
                            } => {
                                // Senders finish after their own
                                // message; the root collects the
                                // reduction tree's worth of data.
                                let root_pid = Pid(*root);
                                let gather_t = base + mesh.broadcast_time(n, *bytes_per_node, 1.0);
                                for (p, _) in arrivals {
                                    let t = if p == root_pid {
                                        gather_t
                                    } else {
                                        base + mesh.message_time_hops(
                                            *bytes_per_node,
                                            mesh.diameter() / 2,
                                            1.0,
                                        )
                                    };
                                    queue.schedule(t.max(now), wake(p));
                                }
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    /// Local pids that have not finished.
    fn stuck(&self) -> Vec<Pid> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.finished)
            .map(|(i, _)| Pid(i as u32))
            .collect()
    }

    /// A finished gang's per-node completion instants, its finished
    /// sink and its `(marker, commit instant)` pairs in marker order.
    pub(crate) fn finish(self) -> (Vec<Time>, S, Vec<(u32, Time)>) {
        let node_finish = self.nodes.iter().map(|s| s.finish_time).collect();
        let mut trace = self.trace;
        trace.finish();
        (node_finish, trace, self.commits.into_iter().collect())
    }

    /// Gather a stopped run's crash accounting.
    fn crashed<B: StorageBackend>(self, backend: &mut B) -> Crashed<S> {
        let gang = &self;
        // A marker still ahead of some node is not committed: every node
        // that carries a marker must have passed it.
        let ahead: BTreeSet<u32> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(pid, state)| (state.pc..).map_while(move |pc| gang.stmt(pid, pc)))
            .filter_map(|stmt| match stmt {
                Stmt::CheckpointCommit(k) => Some(*k),
                _ => None,
            })
            .collect();
        // Durability verdicts in marker order, as for a finished run. The
        // burst buffer judges each entry lost or not when it is submitted,
        // against its whole fault schedule, so a commit's verdict depends
        // only on writes submitted before the commit: the ones a stopped
        // run has already submitted.
        let commits = self
            .commits
            .iter()
            .filter(|(k, _)| !ahead.contains(k))
            .map(|(&k, &t)| (k, t, backend.durable_instant(t)))
            .collect();
        // A parked node's pending statement is the operation it issued.
        let parked_writes = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, state)| state.parked)
            .filter_map(|(pid, state)| match self.stmt(pid, state.pc - 1)? {
                Stmt::Io {
                    file,
                    op: IoOp::Write { size },
                } => Some((FileId(*file), state.issue_time, *size)),
                _ => None,
            })
            .collect();
        Crashed {
            commits,
            trace: self.trace,
            parked_writes,
        }
    }
}

/// Run `workload` against a fresh PFS built from `pfs_cfg`.
///
/// The PFS machine configuration's `compute_nodes` should equal
/// `workload.nodes`; the OS release is taken from the workload.
pub fn run(
    workload: &Workload,
    pfs_cfg: PfsConfig,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    run_backend(workload, &BackendConfig::Pfs(pfs_cfg), options)
}

/// Run `workload` against the storage tier `cfg` selects.
///
/// For [`BackendConfig::Pfs`] this is [`run`]. Every fault schedule
/// the config carries is validated against its own tier's fault
/// vocabulary before the run starts — a PFS fault on the object store
/// (or vice versa) is an [`SimError::InvalidFaults`], never a silently
/// dropped event.
pub fn run_backend(
    workload: &Workload,
    cfg: &BackendConfig,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    // Sized up front: growing a trace by doubling would briefly hold
    // up to three times the finished trace.
    let trace = TraceRecorder::with_capacity(workload.io_stmts());
    run_backend_until(workload, &[], cfg.clone(), &options, Time::MAX, trace)
        .map(Attempt::unstopped)
}

/// [`run_backend`] recording only [`IoTotals`], for a run whose events
/// nothing reads.
pub(crate) fn simulate(
    workload: &Workload,
    cfg: BackendConfig,
) -> Result<RunResult<IoTotals>, SimError> {
    let (options, totals) = (SimOptions::default(), IoTotals::default());
    run_backend_until(workload, &[], cfg, &options, Time::MAX, totals).map(Attempt::unstopped)
}

/// [`run_backend`] into `sink`, which the caller built, up to the
/// `stop` instant (see [`run_loop`]), with node `p` going on to
/// `tails[p]` after its program (see [`Gang`]).
pub(crate) fn run_backend_until<S: Sink>(
    workload: &Workload,
    tails: &[&[Stmt]],
    mut cfg: BackendConfig,
    options: &SimOptions,
    stop: Time,
    sink: S,
) -> Result<Attempt<S>, SimError> {
    let problems = workload.validate_with(tails);
    if !problems.is_empty() {
        return Err(SimError::InvalidWorkload(problems));
    }
    let fault_problems = cfg.validate_faults(workload.nodes);
    if !fault_problems.is_empty() {
        return Err(SimError::InvalidFaults(fault_problems));
    }
    cfg.machine_mut().compute_nodes = workload.nodes;
    let mesh = MeshModel::new(cfg.machine().mesh);
    // One event loop monomorphized per tier: no dynamic dispatch on
    // the measured path.
    let gang = Gang::new(workload, tails, 0, 0, 0, sink);
    match cfg {
        BackendConfig::Pfs(mut c) => {
            c.os = workload.os;
            run_loop(gang, mesh, Pfs::new(c), options, stop)
        }
        BackendConfig::Object(c) => run_loop(gang, mesh, ObjectStore::new(c), options, stop),
        BackendConfig::Burst(mut c) => {
            c.pfs.os = workload.os;
            run_loop(gang, mesh, BurstBuffer::new(c), options, stop)
        }
    }
}

/// The event loop of one dedicated run on `backend`.
///
/// A process resumption due strictly after `stop` means some node is
/// still running then: the run ends there as [`Attempt::Crashed`],
/// without sorting its trace, checking for deadlock or quiescing the
/// backend. Events at `stop` itself still run, so a run that completes
/// at `stop` finishes. Code past `stop` never runs, so it raises no
/// error. Plain runs pass [`Time::MAX`] and always finish.
fn run_loop<B: StorageBackend, S: Sink>(
    mut gang: Gang<'_, S>,
    mesh: MeshModel,
    backend: B,
    options: &SimOptions,
    stop: Time,
) -> Result<Attempt<S>, SimError> {
    let workload = gang.workload;
    let mut engine = Engine::new(backend, mesh);
    // Create the file table; workload file index i == FileId(i).
    for (i, spec) in workload.files.iter().enumerate() {
        let id = engine
            .backend
            .create_file_with_size(&spec.name, spec.initial_size);
        debug_assert_eq!(id.index(), i);
    }

    // Interleave the fault calendar with the event calendar: one
    // event per fault-window boundary. A schedule that does not
    // engage contributes nothing, so fault-free runs keep identical
    // event counts.
    let mut fault_transitions = 0u64;
    for t in engine.backend.fault_transition_times() {
        engine.queue.schedule(t, Ev::FaultTransition);
    }

    // Kick every node off at t = 0.
    for pid in 0..workload.nodes {
        engine.queue.schedule(Time::ZERO, Ev::Resume(Pid(pid)));
    }

    while let Some(ev) = engine.queue.pop() {
        if options.max_events > 0 && engine.queue.popped() > options.max_events {
            return Err(SimError::EventBudgetExceeded(engine.queue.popped()));
        }
        let now = ev.time;
        let pid = match ev.payload {
            Ev::Resume(_) if now > stop => {
                let crashed = gang.crashed(&mut engine.backend);
                return Ok(Attempt::Crashed(Box::new(crashed)));
            }
            Ev::Resume(pid) => pid,
            Ev::FaultTransition => {
                fault_transitions += 1;
                continue;
            }
        };
        gang.step(pid, now, &mut engine, Ev::Resume)
            .map_err(|(stmt, source)| SimError::Pfs { pid, stmt, source })?;
    }

    // Wind-down: every program must have run to completion.
    let stuck = gang.stuck();
    let mut backend = engine.backend;
    if !stuck.is_empty() {
        return Err(SimError::Deadlock {
            stuck,
            forming_collectives: backend.forming_collectives(),
        });
    }

    let (node_finish, trace, checkpoint_commits) = gang.finish();
    let exec_time = node_finish.iter().copied().fold(Time::ZERO, Time::max);
    // Flush background work (burst-buffer drains) so the stats are
    // final; the drain instant lands in `backend_stats`, not in the
    // foreground `exec_time`.
    backend.quiesce(exec_time);
    // Durability verdicts, queried in commit order (the cursor
    // contract: each query covers the window since the last).
    let durable_commits: Vec<(u32, Time)> = checkpoint_commits
        .iter()
        .map(|&(k, t)| (k, backend.durable_instant(t)))
        .collect();
    Ok(Attempt::Finished(Box::new(RunResult {
        name: workload.name.clone(),
        version: workload.version.clone(),
        exec_time,
        node_finish,
        trace,
        events: engine.queue.popped(),
        resilience: backend.resilience_stats(),
        fault_transitions,
        checkpoint_commits,
        durable_commits,
        recovery: crate::recovery::RecoveryStats::default(),
        backend_stats: backend.stats(),
    })))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sioscope_pfs::mode::OsRelease;
    use sioscope_pfs::IoMode;
    use sioscope_pfs::IoOp;
    use sioscope_workloads::{EscatConfig, EscatVersion};
    use sioscope_workloads::{FileSpec, PrismConfig, PrismVersion};

    fn tiny_pfs(nodes: u32) -> PfsConfig {
        let mut cfg = PfsConfig::tiny();
        cfg.machine.compute_nodes = nodes;
        cfg
    }

    fn manual_workload() -> Workload {
        Workload {
            name: "manual".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "data".into(),
                initial_size: 1 << 20,
            }],
            programs: vec![
                vec![
                    Stmt::Compute(Time::from_secs(1)),
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Open,
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Read { size: 4096 },
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Close,
                    },
                    Stmt::Barrier,
                ],
                vec![Stmt::Compute(Time::from_secs(2)), Stmt::Barrier],
            ],
            phases: vec![],
        }
    }

    /// `true` iff every event's `start + duration` fits in `Time`.
    fn intervals_fit(trace: &TraceRecorder) -> bool {
        trace.events().iter().all(|e| {
            e.start
                .as_nanos()
                .checked_add(e.duration.as_nanos())
                .is_some()
        })
    }

    #[test]
    fn manual_workload_runs_and_traces() {
        let w = manual_workload();
        let r = run(&w, tiny_pfs(2), SimOptions::default()).unwrap();
        assert!(r.exec_time >= Time::from_secs(2), "barrier waits for pid 1");
        assert_eq!(r.node_finish.len(), 2);
        // Open + read + close traced.
        assert_eq!(r.trace.len(), 3);
        assert!(intervals_fit(&r.trace));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let r1 = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        let r2 = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        assert_eq!(r1.exec_time, r2.exec_time);
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn escat_tiny_all_versions_complete() {
        for v in EscatVersion::progressions() {
            let w = EscatConfig::tiny(v).build();
            let r = run(&w, tiny_pfs(w.nodes), SimOptions::default())
                .unwrap_or_else(|e| panic!("version {v:?}: {e}"));
            assert!(r.exec_time > Time::ZERO);
            assert!(!r.trace.is_empty());
        }
    }

    #[test]
    fn prism_tiny_all_versions_complete() {
        for v in PrismVersion::all() {
            let w = PrismConfig::tiny(v).build();
            let r = run(&w, tiny_pfs(w.nodes), SimOptions::default())
                .unwrap_or_else(|e| panic!("version {v:?}: {e}"));
            assert!(r.exec_time > Time::ZERO);
            assert!(!r.trace.is_empty());
        }
    }

    #[test]
    fn fault_schedule_inflates_exec_time_and_counts_transitions() {
        use sioscope_faults::FaultKind;
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let clean = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        assert_eq!(clean.fault_transitions, 0);
        assert!(clean.resilience.is_quiet());

        let mut cfg = tiny_pfs(w.nodes);
        cfg.faults.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 0,
                restart: clean.exec_time,
            },
        );
        let faulty = run(&w, cfg, SimOptions::default()).unwrap();
        assert!(faulty.exec_time > clean.exec_time);
        assert_eq!(faulty.fault_transitions, 2, "window start + end");
        assert!(faulty.resilience.timeouts > 0);
        assert!(faulty.resilience.retries > 0);
    }

    #[test]
    fn checkpoint_markers_are_free_and_recorded() {
        use sioscope_workloads::CheckpointPolicy;
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let plain = run(&cfg.build(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert!(plain.checkpoint_commits.is_empty());

        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let marked = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        // Markers are zero-cost: identical wall clock and I/O trace.
        assert_eq!(marked.exec_time, plain.exec_time);
        assert_eq!(marked.trace.events(), plain.trace.events());
        // All markers recorded, in order, at nondecreasing instants.
        let ks: Vec<u32> = marked.checkpoint_commits.iter().map(|(k, _)| *k).collect();
        assert_eq!(ks, (0..rec.checkpoints()).collect::<Vec<_>>());
        for pair in marked.checkpoint_commits.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "commit times are monotone");
        }
        assert!(marked.checkpoint_commits[0].1 > Time::ZERO);

        // Slicing from a marker replays the tail: the replay also
        // completes, faster than the full run.
        let sliced = rec.slice_from(Some(rec.checkpoints() - 1));
        let replay = run(&sliced, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert!(replay.exec_time < plain.exec_time);
    }

    #[test]
    fn trace_length_equals_the_io_statement_count() {
        // `run` sizes its trace from this count up front.
        let mut workloads: Vec<Workload> = EscatVersion::progressions()
            .into_iter()
            .map(|v| EscatConfig::tiny(v).build())
            .collect();
        workloads.extend(PrismVersion::all().map(|v| PrismConfig::tiny(v).build()));
        for w in &workloads {
            let r = run(w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
            assert_eq!(r.trace.len(), w.io_stmts(), "{} {}", w.name, w.version);
        }
    }

    #[test]
    fn invalid_fault_schedule_fails_fast() {
        use sioscope_faults::FaultKind;
        let w = manual_workload();
        let mut cfg = tiny_pfs(2);
        // Target an I/O node the tiny machine does not have.
        cfg.faults.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 999,
                restart: Time::from_secs(1),
            },
        );
        let e = run(&w, cfg, SimOptions::default()).unwrap_err();
        assert!(matches!(e, SimError::InvalidFaults(_)), "got {e}");
    }

    #[test]
    fn deadlock_detected_on_mismatched_collectives() {
        let mut w = manual_workload();
        // Pid 0 waits at an extra barrier pid 1 never reaches.
        w.programs[0].push(Stmt::Barrier);
        w.programs[1].push(Stmt::Compute(Time::from_secs(1)));
        // validate() would catch this; bypass it by matching counts
        // but mismatching file collectives instead.
        let e = match run(&w, tiny_pfs(2), SimOptions::default()) {
            Err(e) => e,
            Ok(_) => return, // validation path may reject instead
        };
        match e {
            SimError::Deadlock { .. } | SimError::InvalidWorkload(_) => {}
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn pfs_error_carries_context() {
        let mut w = manual_workload();
        // Read before open.
        w.programs[1] = vec![
            Stmt::Io {
                file: 0,
                op: IoOp::Read { size: 1 },
            },
            Stmt::Compute(Time::from_secs(2)),
            Stmt::Barrier,
        ];
        let e = run(&w, tiny_pfs(2), SimOptions::default()).unwrap_err();
        match e {
            SimError::Pfs { pid, stmt, .. } => {
                assert_eq!(pid, Pid(1));
                assert_eq!(stmt, 0);
            }
            other => panic!("expected pfs error, got {other}"),
        }
    }

    #[test]
    fn run_backend_pfs_tier_matches_run_exactly() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let direct = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        let routed = run_backend(
            &w,
            &BackendConfig::Pfs(tiny_pfs(w.nodes)),
            SimOptions::default(),
        )
        .unwrap();
        assert_eq!(direct.exec_time, routed.exec_time);
        assert_eq!(direct.node_finish, routed.node_finish);
        assert_eq!(direct.trace.events(), routed.trace.events());
        assert_eq!(direct.events, routed.events);
        assert_eq!(routed.backend_stats, BackendStats::default());
    }

    #[test]
    fn all_three_tiers_complete_the_same_workload() {
        use sioscope_pfs::{BurstBufferConfig, ObjectStoreConfig};
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let tiers = [
            BackendConfig::Pfs(tiny_pfs(w.nodes)),
            BackendConfig::Object(ObjectStoreConfig::modern(w.nodes)),
            BackendConfig::Burst(BurstBufferConfig::over(tiny_pfs(w.nodes))),
        ];
        for cfg in tiers {
            let kind = cfg.kind();
            let r = run_backend(&w, &cfg, SimOptions::default())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(r.exec_time > Time::ZERO, "{kind}");
            assert!(!r.trace.is_empty(), "{kind}");
            assert!(intervals_fit(&r.trace), "{kind}");
            assert!(r.backend_stats.conserves_bytes(), "{kind}");
        }
    }

    #[test]
    fn burst_buffer_absorbing_nothing_is_the_plain_pfs() {
        use sioscope_pfs::{BurstAbsorb, BurstBufferConfig};
        let w = EscatConfig::tiny(EscatVersion::C).build();
        let plain = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        let mut cfg = BurstBufferConfig::over(tiny_pfs(w.nodes));
        cfg.absorb = BurstAbsorb::Files(vec![]);
        let buffered = run_backend(&w, &BackendConfig::Burst(cfg), SimOptions::default()).unwrap();
        assert_eq!(plain.exec_time, buffered.exec_time);
        assert_eq!(plain.trace.events(), buffered.trace.events());
        assert_eq!(buffered.backend_stats.bytes_logged, 0);
    }

    #[test]
    fn a_stopped_run_commits_the_markers_every_carrier_passed() {
        // Node 0 passes marker 0 at 1 s and marker 1, which only it
        // carries, at 2 s. Node 1 passes marker 0 at 3 s, then runs
        // until 5 s.
        let w = Workload {
            name: "markers".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![],
            programs: vec![
                vec![
                    Stmt::Compute(Time::from_secs(1)),
                    Stmt::CheckpointCommit(0),
                    Stmt::Compute(Time::from_secs(1)),
                    Stmt::CheckpointCommit(1),
                    Stmt::Compute(Time::from_secs(2)),
                ],
                vec![
                    Stmt::Compute(Time::from_secs(3)),
                    Stmt::CheckpointCommit(0),
                    Stmt::Compute(Time::from_secs(2)),
                ],
            ],
            phases: vec![],
        };
        let until = |stop| {
            let cfg = BackendConfig::Pfs(tiny_pfs(2));
            let trace = TraceRecorder::new();
            run_backend_until(&w, &[], cfg, &SimOptions::default(), stop, trace).unwrap()
        };
        let commits = |stop| match until(stop) {
            Attempt::Crashed(c) => c.commits,
            Attempt::Finished(_) => panic!("finished by {stop}"),
        };
        let (t2, t3) = (Time::from_secs(2), Time::from_secs(3));
        assert_eq!(commits(Time::from_millis(1500)), vec![]);
        assert_eq!(commits(Time::from_millis(2500)), vec![(1, t2, t2)]);
        assert_eq!(
            commits(Time::from_millis(3500)),
            vec![(0, t3, t3), (1, t2, t2)]
        );
        assert!(matches!(
            until(Time::from_secs(5) - Time::from_nanos(1)),
            Attempt::Crashed(_)
        ));
        // Events at the stop instant still run: a run that completes
        // at it finishes.
        match until(Time::from_secs(5)) {
            Attempt::Finished(r) => assert_eq!(r.exec_time, Time::from_secs(5)),
            Attempt::Crashed(_) => panic!("the run completes at 5 s"),
        }
    }

    /// Everything a run reports but its events, spelled out for
    /// comparing the runs of two sinks.
    pub(crate) fn scalars<S: Sink>(r: &RunResult<S>) -> String {
        let RunResult {
            name,
            version,
            exec_time,
            node_finish,
            trace,
            events,
            resilience,
            fault_transitions,
            checkpoint_commits,
            durable_commits,
            recovery,
            backend_stats,
        } = r;
        format!(
            "{name} {version} {exec_time:?} {node_finish:?} {events} {resilience:?} \
             {fault_transitions} {checkpoint_commits:?} {durable_commits:?} {recovery:?} \
             {backend_stats:?} ops={} io={:?}",
            trace.len(),
            trace.total_io_time()
        )
    }

    /// What a run stopped mid-way leaves for the crash accounting, but
    /// its events.
    fn stopped<S: Sink>(attempt: Attempt<S>) -> String {
        match attempt {
            Attempt::Crashed(c) => format!(
                "{:?} {:?} ops={} io={:?}",
                c.commits,
                c.parked_writes,
                c.trace.len(),
                c.trace.total_io_time()
            ),
            Attempt::Finished(r) => panic!("{} {} finished", r.name, r.version),
        }
    }

    /// A run that records only totals is the run that records the
    /// trace. Tiny ESCAT A/B/C and PRISM A/B/C, each with a checkpoint
    /// marker after every cycle or checkpoint so that commits land
    /// mid-run, run on all three tiers, fault-free and under that
    /// tier's faults drawn from a seed. Both sinks must report the same
    /// scalars and totals, one operation per I/O statement, and, when
    /// stopped half-way, the same crash accounting.
    #[test]
    fn totals_and_recorder_sinks_report_the_same_run() {
        use crate::canon::{tier_config, tier_faults};
        use sioscope_faults::FaultSchedule;
        use sioscope_pfs::BackendKind;
        use sioscope_workloads::CheckpointPolicy;
        let every = CheckpointPolicy::Fixed { interval: 1 };
        let mut workloads: Vec<Workload> = [EscatVersion::A, EscatVersion::B, EscatVersion::C]
            .into_iter()
            .map(|v| EscatConfig::tiny(v).recoverable(every).workload().clone())
            .collect();
        workloads.extend(PrismVersion::all().map(|v| {
            let rec = PrismConfig::tiny(v).recoverable(every);
            rec.workload().clone()
        }));
        let opts = SimOptions::default();
        let mut stopped_commits = 0;
        for w in &workloads {
            for backend in BackendKind::all() {
                let at = |faults: &FaultSchedule, stop| {
                    let cfg = tier_config(backend, w, faults.clone());
                    let totals = IoTotals::default();
                    let totals = run_backend_until(w, &[], cfg.clone(), &opts, stop, totals);
                    let trace = TraceRecorder::with_capacity(w.io_stmts());
                    let trace = run_backend_until(w, &[], cfg, &opts, stop, trace);
                    (totals.unwrap(), trace.unwrap())
                };
                let clean = at(&FaultSchedule::empty(), Time::MAX).1.unstopped();
                let faulted = tier_faults(backend, w, clean.exec_time, 3, 0x51C);
                assert!(faulted.engages(), "{} on {backend}", w.name);
                for faults in [FaultSchedule::empty(), faulted] {
                    let what = format!("{} {} on {backend}, {faults:?}", w.name, w.version);
                    let (totals, trace) = at(&faults, Time::MAX);
                    let (totals, trace) = (totals.unstopped(), trace.unstopped());
                    assert_eq!(scalars(&totals), scalars(&trace), "{what}");
                    assert_eq!(totals.trace.len(), w.io_stmts(), "{what}");
                    assert!(!trace.checkpoint_commits.is_empty(), "{what}");
                    let (totals, trace) = at(&faults, trace.exec_time / 2);
                    if let Attempt::Crashed(c) = &trace {
                        stopped_commits += c.commits.len();
                    }
                    assert_eq!(stopped(totals), stopped(trace), "{what}");
                }
            }
        }
        assert!(stopped_commits > 0, "some commit lands before a stop");
    }

    #[test]
    fn event_budget_enforced() {
        let w = EscatConfig::tiny(EscatVersion::A).build();
        let opts = SimOptions { max_events: 10 };
        let e = run(&w, tiny_pfs(w.nodes), opts).unwrap_err();
        assert!(matches!(e, SimError::EventBudgetExceeded(_)));
    }

    #[test]
    fn broadcast_synchronizes_and_costs_network_time() {
        // Root finishes a 1 MB broadcast no earlier than the slowest
        // arrival plus the tree time; all nodes resume together.
        let w = Workload {
            name: "bc".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 3,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: vec![
                vec![Stmt::Broadcast {
                    root: 0,
                    bytes: 1 << 20,
                }],
                vec![
                    Stmt::Compute(Time::from_secs(2)),
                    Stmt::Broadcast {
                        root: 0,
                        bytes: 1 << 20,
                    },
                ],
                vec![Stmt::Broadcast {
                    root: 0,
                    bytes: 1 << 20,
                }],
            ],
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(3), SimOptions::default()).unwrap();
        // Everyone waits for pid 1's compute, then the broadcast.
        for t in &r.node_finish {
            assert!(*t >= Time::from_secs(2));
        }
        let spread = r.node_finish.iter().copied().fold(Time::ZERO, Time::max)
            - r.node_finish.iter().copied().fold(Time::MAX, Time::min);
        assert!(spread < Time::from_millis(1), "broadcast releases together");
    }

    #[test]
    fn gather_root_finishes_no_earlier_than_senders() {
        let w = Workload {
            name: "g".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 4,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: (0..4)
                .map(|_| {
                    vec![Stmt::Gather {
                        root: 0,
                        bytes_per_node: 1 << 20,
                    }]
                })
                .collect(),
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(4), SimOptions::default()).unwrap();
        let root = r.node_finish[0];
        for (pid, t) in r.node_finish.iter().enumerate().skip(1) {
            assert!(
                root >= *t,
                "root collects the tree, pid {pid} only sends: {root} vs {t}"
            );
        }
    }

    #[test]
    fn trace_durations_include_collective_waits() {
        // Two nodes gopen; the early arrival's observed duration
        // includes waiting for the late one.
        let w = Workload {
            name: "g".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: vec![
                vec![Stmt::Io {
                    file: 0,
                    op: IoOp::Gopen {
                        group: 2,
                        mode: IoMode::MAsync,
                        record_size: None,
                    },
                }],
                vec![
                    Stmt::Compute(Time::from_secs(5)),
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Gopen {
                            group: 2,
                            mode: IoMode::MAsync,
                            record_size: None,
                        },
                    },
                ],
            ],
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(2), SimOptions::default()).unwrap();
        let e0 = r.trace.events().iter().find(|e| e.pid == Pid(0)).unwrap();
        assert!(
            e0.duration >= Time::from_secs(5),
            "early arrival must observe the wait: {}",
            e0.duration
        );
    }
}
