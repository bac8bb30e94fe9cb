//! Multi-tenant scheduling: many jobs, one machine, one shared PFS.
//!
//! The paper measured ESCAT and PRISM in *dedicated* mode and notes
//! that the production Paragon ran space-shared: concurrent jobs held
//! disjoint compute partitions but contended for the same sixteen I/O
//! nodes. This driver supplies that missing half of the story. It
//! feeds a seeded [`JobStream`] through a [`PartitionAllocator`] and a
//! [`QueuePolicy`], running every co-resident job inside **one**
//! simulator event loop against **one** [`Pfs`] instance, so I/O-node
//! queueing, cache pressure, and mesh-link sharing between jobs fall
//! out of the same machinery the dedicated experiments use.
//!
//! ## Identity discipline
//!
//! Each dispatched attempt gets a fresh range of *global* pids (one per
//! compute node of its partition) and a fresh range of global
//! [`FileId`]s; global ids are never reused, so a crashed attempt's
//! in-flight completions can be tombstoned by bumping the job's attempt
//! counter. Mesh placement for a global pid is overridden to its
//! partition cell via [`Pfs::place_compute_node`], which is what makes
//! co-resident jobs pay realistic, position-dependent network costs.
//! Per-job results are reported in *local* coordinates (pid 0 = the
//! job's first node, file 0 = its first file) on the *global* clock,
//! so a single job arriving at t = 0 reproduces its dedicated-mode
//! [`RunResult`] bit for bit.
//!
//! ## Crash handling
//!
//! [`FaultKind::ComputeNodeCrash`] events name a machine cell. If a
//! running job's partition holds that cell, the whole gang dies (the
//! applications are SPMD): the attempt is torn down, its partition is
//! freed immediately, and the job re-enters the back of the queue once
//! the crash's rework latency elapses. Crashes on unallocated cells
//! are absorbed. I/O faults ride in `pfs_cfg.faults` exactly as in
//! dedicated runs and are shared by every co-resident job.

use crate::recovery::RecoveryStats;
use crate::simulator::{simulate, Engine, Gang, RunResult, SimError, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_machine::MeshModel;
use sioscope_pfs::{
    BackendConfig, BackendStats, Pfs, PfsConfig, PfsError, ResilienceStats, StorageBackend,
};
use sioscope_sched::{
    JobOutcome, JobStream, Partition, PartitionAllocator, QueuePolicy, ScheduleStats,
};
use sioscope_sim::{FileId, JobId, NodeId, Pid, Time};
use sioscope_trace::{IoEvent, JobMap, TraceRecorder};
use std::collections::VecDeque;
use std::fmt;

/// Why a scheduled run failed.
#[derive(Debug)]
pub enum SchedError {
    /// The job stream failed validation.
    InvalidStream(String),
    /// The crash or I/O fault schedule failed validation.
    InvalidFaults(Vec<String>),
    /// A template asks for more nodes than the machine can ever grant.
    JobTooLarge {
        /// Offending template index.
        template: usize,
        /// Nodes requested.
        nodes: u32,
        /// Machine compute capacity.
        capacity: u32,
    },
    /// A dedicated-mode estimate run failed.
    Estimate {
        /// Template whose estimate run failed.
        template: usize,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A file-system call was rejected mid-schedule.
    Pfs {
        /// The job whose statement failed.
        job: JobId,
        /// The failing process (job-local pid).
        pid: Pid,
        /// Statement index within the process's program.
        stmt: usize,
        /// The underlying error.
        source: PfsError,
    },
    /// The calendar drained with unfinished or undispatched jobs.
    Deadlock {
        /// Jobs dispatched but not finished.
        running: usize,
        /// Jobs still waiting in the queue.
        queued: usize,
    },
    /// `max_events` exceeded.
    EventBudgetExceeded(u64),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InvalidStream(e) => write!(f, "invalid job stream: {e}"),
            SchedError::InvalidFaults(problems) => {
                write!(f, "invalid fault schedule: {}", problems.join("; "))
            }
            SchedError::JobTooLarge {
                template,
                nodes,
                capacity,
            } => write!(
                f,
                "template {template} needs {nodes} nodes but the machine has {capacity}"
            ),
            SchedError::Estimate { template, source } => {
                write!(f, "dedicated estimate for template {template}: {source}")
            }
            SchedError::Pfs {
                job,
                pid,
                stmt,
                source,
            } => write!(f, "{job} {pid} stmt {stmt}: {source}"),
            SchedError::Deadlock { running, queued } => write!(
                f,
                "schedule deadlock: {running} running and {queued} queued jobs stranded"
            ),
            SchedError::EventBudgetExceeded(n) => write!(f, "event budget exceeded: {n}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Everything a scheduled run produces.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// Makespan, queue metrics, and per-job outcomes.
    pub stats: ScheduleStats,
    /// Per-job results in [`JobId`] order — local pid/file coordinates
    /// on the global clock (see the module docs).
    pub per_job: Vec<RunResult>,
    /// The merged machine-wide trace in *global* coordinates, sorted.
    pub trace: TraceRecorder,
    /// Global-pid ranges of each job's surviving attempt, for per-job
    /// filtering through `TraceIndex::build_with_jobs`.
    pub job_map: JobMap,
    /// Fault-calendar transitions processed (shared I/O faults).
    pub fault_transitions: u64,
}

/// Event payload for the scheduling calendar.
#[derive(Debug, Clone, Copy)]
enum SEv {
    /// Arrival `i` of the stream enters the queue.
    Arrive(u32),
    /// A crashed job's rework elapsed; it rejoins the queue's back.
    Requeue(u32),
    /// Try to start queued jobs (arrival, completion, or freed nodes).
    TryDispatch,
    /// Resume one process of one job attempt (job-local pid).
    Resume { job: u32, attempt: u32, pid: u32 },
    /// A compute-node crash strikes machine cell `node`.
    Crash { node: u32, rework: Time },
    /// A shared I/O fault window opens or closes.
    FaultTransition,
}

struct Job<'s> {
    template: usize,
    arrival: Time,
    /// Dedicated-mode execution time: the EASY estimate and the
    /// stretch/bounded-slowdown denominator.
    dedicated: Time,
    /// Current attempt (bumped on crash; stale events are tombstoned).
    attempt: u32,
    /// Attempts dispatched so far.
    attempts: u32,
    first_start: Option<Time>,
    /// Start instant of the current attempt.
    start: Time,
    partition: Option<Partition>,
    pid_base: u32,
    file_base: u32,
    /// The current attempt's processes, while it runs.
    gang: Option<Gang<'s, TraceRecorder>>,
    done: bool,
    finish: Time,
    /// Resume events consumed by the current attempt.
    events: u64,
    res_base: ResilienceStats,
    rework_lost: Time,
    restart_latency: Time,
    result: Option<RunResult>,
}

fn resilience_delta(now: &ResilienceStats, base: &ResilienceStats) -> ResilienceStats {
    ResilienceStats {
        timeouts: now.timeouts - base.timeouts,
        retries: now.retries - base.retries,
        reroutes: now.reroutes - base.reroutes,
        degraded_reads: now.degraded_reads - base.degraded_reads,
        aborts: now.aborts - base.aborts,
        writethroughs: now.writethroughs - base.writethroughs,
    }
}

/// Run every job of `stream` through one shared machine and PFS,
/// placing each job's partition first fit.
///
/// `crashes` carries [`FaultKind::ComputeNodeCrash`] events on the
/// global clock (other kinds are ignored here — I/O faults belong in
/// `pfs_cfg.faults`). The machine in `pfs_cfg` is used as-is: its
/// `compute_nodes`/mesh describe the whole machine, not one job.
pub fn run_schedule(
    stream: &JobStream,
    policy: QueuePolicy,
    crashes: &FaultSchedule,
    mut pfs_cfg: PfsConfig,
) -> Result<ScheduleOutcome, SchedError> {
    stream.validate().map_err(SchedError::InvalidStream)?;
    let max_events = SimOptions::default().max_events;
    let machine = pfs_cfg.machine.clone();
    let mut allocator = PartitionAllocator::for_machine(&machine);
    for (t, template) in stream.templates.iter().enumerate() {
        let n = template.workload.nodes;
        let (_, h) = allocator.shape_for(n);
        if n > allocator.capacity() || h > machine.mesh.rows {
            return Err(SchedError::JobTooLarge {
                template: t,
                nodes: n,
                capacity: allocator.capacity(),
            });
        }
    }
    let crash_problems = crashes.validate_for(machine.io_nodes, machine.compute_nodes);
    if !crash_problems.is_empty() {
        return Err(SchedError::InvalidFaults(crash_problems));
    }
    if pfs_cfg.faults.engages() {
        let fault_problems = pfs_cfg
            .faults
            .validate_for(machine.io_nodes, machine.compute_nodes);
        if !fault_problems.is_empty() {
            return Err(SchedError::InvalidFaults(fault_problems));
        }
    }
    pfs_cfg.os = stream.templates[0].workload.os;

    // Dedicated-mode estimates: one clean run per template, against the
    // same machine/PFS parameters but with the machine to itself. Only
    // the execution time is read, so the runs keep no trace.
    let mut estimates = Vec::with_capacity(stream.templates.len());
    for (t, template) in stream.templates.iter().enumerate() {
        let mut dedicated_cfg = pfs_cfg.clone();
        dedicated_cfg.faults = FaultSchedule::empty();
        let r =
            simulate(&template.workload, BackendConfig::Pfs(dedicated_cfg)).map_err(|source| {
                SchedError::Estimate {
                    template: t,
                    source,
                }
            })?;
        estimates.push(r.exec_time);
    }

    let cols = machine.mesh.cols;
    let mut engine = Engine::new(Pfs::new(pfs_cfg), MeshModel::new(machine.mesh));
    let mut fault_transitions = 0u64;
    for t in engine.backend.fault_transition_times() {
        engine.queue.schedule(t, SEv::FaultTransition);
    }
    for ev in &crashes.events {
        if let FaultKind::ComputeNodeCrash { node, rework } = ev.kind {
            engine.queue.schedule(ev.at, SEv::Crash { node, rework });
        }
    }

    let arrivals = stream.initial_arrivals();
    for (i, a) in arrivals.iter().enumerate() {
        engine.queue.schedule(a.at, SEv::Arrive(i as u32));
    }

    let mut jobs: Vec<Job> = Vec::new();
    let mut pending: VecDeque<u32> = VecDeque::new();
    // Global pid/file watermarks and the dispatch count: monotone,
    // never reused, so a dead attempt's ids and collective groups can
    // never alias a live one's.
    let mut next_pid: u32 = 0;
    let mut next_file: u32 = 0;
    let mut dispatches: u64 = 0;

    // Start one job on a granted partition: fresh global pid and file
    // ranges, partition-cell mesh placement, its own collective keys
    // (the first dispatch's are the dedicated run's), all nodes resumed
    // at now.
    macro_rules! dispatch {
        ($j:expr, $part:expr, $now:expr) => {{
            let j = $j as usize;
            let part: Partition = $part;
            let now: Time = $now;
            let job = &mut jobs[j];
            let workload = &stream.templates[job.template].workload;
            let n = workload.nodes;
            job.attempts += 1;
            job.first_start.get_or_insert(now);
            job.start = now;
            job.pid_base = next_pid;
            next_pid += n;
            for p in 0..n {
                let global = NodeId(job.pid_base + p);
                engine
                    .backend
                    .place_compute_node(global, Some(part.position_of(p)));
            }
            job.file_base = next_file;
            for spec in &workload.files {
                let name = format!("job{j}.a{}/{}", job.attempt, spec.name);
                engine
                    .backend
                    .create_file_with_size(&name, spec.initial_size);
                next_file += 1;
            }
            job.gang = Some(Gang::new(
                workload,
                &[],
                job.pid_base,
                job.file_base,
                dispatches << 32,
                TraceRecorder::with_capacity(workload.io_stmts()),
            ));
            dispatches += 1;
            job.events = 0;
            job.res_base = engine.backend.resilience_stats();
            job.partition = Some(part);
            for p in 0..n {
                engine.queue.schedule(
                    now,
                    SEv::Resume {
                        job: j as u32,
                        attempt: job.attempt,
                        pid: p,
                    },
                );
            }
        }};
    }

    while let Some(ev) = engine.queue.pop() {
        if engine.queue.popped() > max_events {
            return Err(SchedError::EventBudgetExceeded(engine.queue.popped()));
        }
        let now = ev.time;
        let (j, attempt, p) = match ev.payload {
            SEv::FaultTransition => {
                fault_transitions += 1;
                continue;
            }
            SEv::Arrive(i) => {
                let a = arrivals[i as usize];
                debug_assert_eq!(jobs.len(), i as usize, "arrivals enter in index order");
                jobs.push(Job {
                    template: a.template,
                    arrival: now,
                    dedicated: estimates[a.template],
                    attempt: 0,
                    attempts: 0,
                    first_start: None,
                    start: Time::ZERO,
                    partition: None,
                    pid_base: 0,
                    file_base: 0,
                    gang: None,
                    done: false,
                    finish: Time::ZERO,
                    events: 0,
                    res_base: ResilienceStats::default(),
                    rework_lost: Time::ZERO,
                    restart_latency: Time::ZERO,
                    result: None,
                });
                pending.push_back(i);
                engine.queue.schedule(now, SEv::TryDispatch);
                continue;
            }
            SEv::Requeue(job) => {
                pending.push_back(job);
                engine.queue.schedule(now, SEv::TryDispatch);
                continue;
            }
            SEv::Crash { node, rework } => {
                let victim = jobs.iter().position(|job| {
                    job.partition
                        .as_ref()
                        .is_some_and(|part| part.contains_machine_node(node, cols))
                });
                if let Some(v) = victim {
                    let job = &mut jobs[v];
                    job.attempt += 1; // tombstone every in-flight event
                    job.rework_lost += now.saturating_sub(job.start);
                    job.restart_latency += rework;
                    job.gang = None;
                    job.events = 0;
                    let part = job.partition.take().expect("victim was running");
                    allocator.free(&part);
                    engine.queue.schedule(now + rework, SEv::Requeue(v as u32));
                    engine.queue.schedule(now, SEv::TryDispatch);
                }
                continue;
            }
            SEv::TryDispatch => {
                while let Some(&head) = pending.front() {
                    let head_nodes = stream.templates[jobs[head as usize].template]
                        .workload
                        .nodes;
                    if let Some(part) = allocator.allocate(head_nodes) {
                        pending.pop_front();
                        dispatch!(head, part, now);
                        continue;
                    }
                    if policy == QueuePolicy::Fcfs {
                        break;
                    }
                    // EASY backfill: give the head a shadow reservation
                    // from the running jobs' dedicated-mode estimates
                    // (capacity-based — partition geometry may still
                    // delay the head; every completion retries).
                    let mut running: Vec<(Time, u32)> = jobs
                        .iter()
                        .filter(|job| job.partition.is_some() && !job.done)
                        .map(|job| {
                            let nodes = stream.templates[job.template].workload.nodes;
                            (job.start + job.dedicated, nodes)
                        })
                        .collect();
                    running.sort();
                    let mut avail = allocator.free_nodes();
                    let mut shadow = Time::MAX;
                    let mut extra = 0u32;
                    for (fin, nn) in running {
                        avail += nn;
                        if avail >= head_nodes {
                            shadow = fin;
                            extra = avail - head_nodes;
                            break;
                        }
                    }
                    let rest: Vec<u32> = pending.iter().skip(1).copied().collect();
                    for cand in rest {
                        let c = &jobs[cand as usize];
                        let cn = stream.templates[c.template].workload.nodes;
                        let within_shadow = now + c.dedicated <= shadow;
                        let within_extra = cn <= extra;
                        if !within_shadow && !within_extra {
                            continue;
                        }
                        if let Some(part) = allocator.allocate(cn) {
                            if !within_shadow {
                                extra -= cn;
                            }
                            pending.retain(|&x| x != cand);
                            dispatch!(cand, part, now);
                        }
                    }
                    break;
                }
                continue;
            }
            SEv::Resume { job, attempt, pid } => (job as usize, attempt, pid),
        };

        // Tombstone: a crash bumped the attempt after this was queued.
        let job = &mut jobs[j];
        if job.attempt != attempt || job.done {
            continue;
        }
        job.events += 1;
        let gang = job.gang.as_mut().expect("a live attempt has its processes");
        let wake = |local: Pid| SEv::Resume {
            job: j as u32,
            attempt,
            pid: local.0,
        };
        let finished = gang
            .step(Pid(p), now, &mut engine, wake)
            .map_err(|(stmt, source)| SchedError::Pfs {
                job: JobId(j as u32),
                pid: Pid(p),
                stmt,
                source,
            })?;
        if !finished {
            continue;
        }
        // Job complete: free its partition, snapshot its result, and
        // let the queue at the nodes.
        job.done = true;
        job.finish = now;
        let part = job.partition.take().expect("finished job was running");
        allocator.free(&part);
        let (node_finish, trace, commits) = job.gang.take().expect("the gang just ran").finish();
        let recovery = if job.attempts > 1 {
            RecoveryStats {
                crashes: job.attempts - 1,
                attempts: job.attempts,
                rework: job.rework_lost,
                restart_latency: job.restart_latency,
                checkpoint_write_bytes: 0,
                checkpoint_read_bytes: 0,
                time_to_solution: now.saturating_sub(job.arrival),
            }
        } else {
            RecoveryStats::default()
        };
        let workload = &stream.templates[job.template].workload;
        job.result = Some(RunResult {
            name: workload.name.clone(),
            version: workload.version.clone(),
            exec_time: now.saturating_sub(job.start),
            node_finish,
            trace,
            events: job.events,
            resilience: resilience_delta(&engine.backend.resilience_stats(), &job.res_base),
            fault_transitions: 0,
            // The shared PFS has no volatile staging tier: every commit
            // is durable at its commit instant.
            durable_commits: commits.clone(),
            checkpoint_commits: commits,
            recovery,
            backend_stats: BackendStats::default(),
        });
        engine.queue.schedule(now, SEv::TryDispatch);
    }

    // Wind-down: every job must have arrived, dispatched, and finished.
    let running = jobs
        .iter()
        .filter(|job| job.partition.is_some() && !job.done)
        .count();
    let queued = pending.len();
    if running > 0 || queued > 0 || jobs.iter().any(|job| !job.done) {
        return Err(SchedError::Deadlock { running, queued });
    }

    // Assemble: per-job results, the merged global trace, and stats.
    let first_arrival = jobs
        .iter()
        .map(|job| job.arrival)
        .min()
        .unwrap_or(Time::ZERO);
    let last_finish = jobs
        .iter()
        .map(|job| job.finish)
        .fold(Time::ZERO, Time::max);
    let makespan = last_finish.saturating_sub(first_arrival);

    let mut per_job = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut merged = TraceRecorder::new();
    let mut job_map = JobMap::new();
    for (i, job) in jobs.iter_mut().enumerate() {
        let result = job.result.take().expect("all jobs finished");
        let workload = &stream.templates[job.template].workload;
        job_map.insert(job.pid_base, job.pid_base + workload.nodes, JobId(i as u32));
        for e in result.trace.events() {
            merged.record(IoEvent {
                pid: Pid(e.pid.0 + job.pid_base),
                file: FileId(e.file.0 + job.file_base),
                ..*e
            });
        }
        outcomes.push(JobOutcome {
            job: JobId(i as u32),
            label: stream.templates[job.template].label.clone(),
            template: job.template,
            nodes: workload.nodes,
            arrival: job.arrival,
            first_start: job.first_start.expect("finished job started"),
            finish: job.finish,
            dedicated: job.dedicated,
            attempts: job.attempts,
            io_time: result.trace.total_io_time(),
            events: result.events,
        });
        per_job.push(result);
    }
    merged.sort();

    let stats = ScheduleStats {
        policy: policy.label().to_string(),
        makespan,
        total_events: engine.queue.popped(),
        jobs: outcomes,
        ion_utilization: engine.backend.ion_utilizations(last_finish),
    };
    Ok(ScheduleOutcome {
        stats,
        per_job,
        trace: merged,
        job_map,
        fault_transitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::run;
    use sioscope_pfs::{IoOp, PfsConfig};
    use sioscope_sched::{JobTemplate, StreamKind};
    use sioscope_sim::Time;
    use sioscope_trace::TraceIndex;
    use sioscope_workloads::{FileSpec, OsRelease, Stmt, Workload};

    /// One compute burst, then every node reads `io_bytes` from a
    /// shared file — enough I/O to make PFS contention visible.
    fn io_workload(name: &str, nodes: u32, io_bytes: u64, compute: Time) -> Workload {
        let program = vec![
            Stmt::Compute(compute),
            Stmt::Io {
                file: 0,
                op: IoOp::Open,
            },
            Stmt::Io {
                file: 0,
                op: IoOp::Read { size: io_bytes },
            },
            Stmt::Io {
                file: 0,
                op: IoOp::Close,
            },
            Stmt::Barrier,
        ];
        Workload {
            name: name.into(),
            version: "S".into(),
            os: OsRelease::Osf13,
            nodes,
            files: vec![FileSpec {
                name: "data".into(),
                initial_size: 64 << 20,
            }],
            programs: (0..nodes).map(|_| program.clone()).collect(),
            phases: vec![],
        }
    }

    /// A `rows × 4` machine with every cell a compute node, built on
    /// the tiny PFS parameters.
    fn machine(rows: u32) -> PfsConfig {
        let mut cfg = PfsConfig::tiny();
        cfg.machine.mesh.rows = rows;
        cfg.machine.mesh.cols = 4;
        cfg.machine.compute_nodes = rows * 4;
        cfg
    }

    fn scripted(templates: Vec<JobTemplate>, arrivals: Vec<(Time, usize)>) -> JobStream {
        let count = arrivals.len() as u32;
        JobStream {
            kind: StreamKind::Scripted { arrivals },
            seed: 7,
            templates,
            count,
        }
    }

    fn template(label: &str, workload: Workload) -> JobTemplate {
        JobTemplate {
            label: label.into(),
            workload,
        }
    }

    #[test]
    fn single_job_schedule_is_bit_identical_to_dedicated() {
        let w = io_workload("solo", 4, 256 << 10, Time::from_millis(10));
        let cfg = machine(1);
        let dedicated = run(&w, cfg.clone(), SimOptions::default()).unwrap();
        let stream = scripted(vec![template("solo", w.clone())], vec![(Time::ZERO, 0)]);
        let out = run_schedule(&stream, QueuePolicy::Fcfs, &FaultSchedule::empty(), cfg).unwrap();
        let job = &out.per_job[0];
        assert_eq!(job.exec_time, dedicated.exec_time, "wall clock differs");
        assert_eq!(job.node_finish, dedicated.node_finish);
        assert_eq!(job.trace.events(), dedicated.trace.events());
        assert_eq!(job.events, dedicated.events);
        assert_eq!(job.resilience, dedicated.resilience);
        assert_eq!(job.checkpoint_commits, dedicated.checkpoint_commits);
        assert_eq!(job.recovery, crate::recovery::RecoveryStats::default());
        let o = &out.stats.jobs[0];
        assert_eq!(o.attempts, 1);
        assert_eq!(o.wait(), Time::ZERO);
        assert_eq!(o.response(), dedicated.exec_time);
        assert_eq!(o.dedicated, dedicated.exec_time);
        assert_eq!(out.stats.makespan, dedicated.exec_time);
    }

    #[test]
    fn coresident_jobs_share_the_pfs_and_slow_down() {
        let w = io_workload("mix", 8, 1 << 20, Time::from_millis(1));
        let cfg = machine(4); // 16 nodes: two 8-node jobs co-resident
        let dedicated = run(&w, cfg.clone(), SimOptions::default()).unwrap();
        let stream = scripted(
            vec![template("mix", w)],
            vec![(Time::ZERO, 0), (Time::ZERO, 0)],
        );
        let out = run_schedule(&stream, QueuePolicy::Fcfs, &FaultSchedule::empty(), cfg).unwrap();
        assert_eq!(out.stats.jobs.len(), 2);
        // Both started immediately (disjoint partitions available)...
        for j in &out.stats.jobs {
            assert_eq!(j.wait(), Time::ZERO);
            assert_eq!(j.attempts, 1);
        }
        // ...but contend for the shared I/O nodes: neither can beat its
        // dedicated time, and at least one is strictly slower.
        assert!(out
            .stats
            .jobs
            .iter()
            .all(|j| j.response() >= dedicated.exec_time));
        assert!(out
            .stats
            .jobs
            .iter()
            .any(|j| j.response() > dedicated.exec_time));
        // The merged trace is fully attributed through the job map.
        let total: usize = out.per_job.iter().map(|r| r.trace.len()).sum();
        assert_eq!(out.trace.len(), total);
        let idx = TraceIndex::build_with_jobs(out.trace.events(), &out.job_map);
        assert_eq!(idx.jobs().count(), 2);
        assert_eq!(
            idx.job_event_count(JobId(0)) + idx.job_event_count(JobId(1)),
            total
        );
    }

    #[test]
    fn fcfs_queues_when_the_machine_is_full() {
        let w = io_workload("full", 4, 128 << 10, Time::from_millis(20));
        let cfg = machine(1); // 4 nodes: the second job must wait
        let stream = scripted(
            vec![template("full", w)],
            vec![(Time::ZERO, 0), (Time::ZERO, 0)],
        );
        let out = run_schedule(&stream, QueuePolicy::Fcfs, &FaultSchedule::empty(), cfg).unwrap();
        let (a, b) = (&out.stats.jobs[0], &out.stats.jobs[1]);
        assert_eq!(a.wait(), Time::ZERO);
        assert_eq!(b.first_start, a.finish, "space-sharing: b waits for a");
        assert!(b.stretch() > 1.5, "queue wait shows up in the stretch");
        assert!(out.stats.mean_wait() > 0.0);
    }

    #[test]
    fn compute_node_crash_requeues_and_the_job_still_finishes() {
        let w = io_workload("crashy", 4, 128 << 10, Time::from_millis(50));
        let cfg = machine(4); // crash cell 15 is outside the partition
        let dedicated = run(&w, cfg.clone(), SimOptions::default()).unwrap();
        let mut crashes = FaultSchedule::empty();
        crashes.push(
            Time::from_millis(10),
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::from_millis(5),
            },
        );
        // A second crash on a never-allocated cell is absorbed.
        crashes.push(
            Time::from_millis(12),
            FaultKind::ComputeNodeCrash {
                node: 15,
                rework: Time::from_millis(5),
            },
        );
        let stream = scripted(vec![template("crashy", w)], vec![(Time::ZERO, 0)]);
        let out = run_schedule(&stream, QueuePolicy::Fcfs, &crashes, cfg).unwrap();
        let job = &out.per_job[0];
        let o = &out.stats.jobs[0];
        assert_eq!(o.attempts, 2, "one crash, one requeue");
        assert_eq!(job.recovery.crashes, 1);
        assert_eq!(job.recovery.attempts, 2);
        assert!(job.recovery.rework >= Time::from_millis(10));
        assert_eq!(job.recovery.restart_latency, Time::from_millis(5));
        assert!(o.finish > dedicated.exec_time, "crash costs wall clock");
        assert_eq!(
            job.recovery.time_to_solution,
            o.response(),
            "accounting agrees with the outcome"
        );
        // The final attempt replays the whole program.
        assert_eq!(job.trace.len(), dedicated.trace.len());
    }

    #[test]
    fn a_jobs_257th_attempt_keeps_to_its_own_collective_groups() {
        let workload = |name: &str, programs: Vec<Vec<Stmt>>| Workload {
            name: name.into(),
            version: "S".into(),
            os: OsRelease::Osf13,
            nodes: programs.len() as u32,
            files: vec![],
            programs,
            phases: vec![],
        };
        let first = vec![Stmt::Barrier, Stmt::Compute(Time::from_secs(1))];
        let late = vec![
            Stmt::Compute(Time::from_secs(10)),
            Stmt::Barrier,
            Stmt::Compute(Time::from_millis(1)),
        ];
        let early = vec![Stmt::Barrier, Stmt::Compute(Time::from_millis(1))];
        // Job 1's barrier stays open for ten seconds while 256 crashes
        // strike job 0, one per millisecond, each a fresh dispatch.
        let stream = scripted(
            vec![
                template("four", workload("four", vec![first; 4])),
                template("two", workload("two", vec![late, early])),
            ],
            vec![(Time::ZERO, 0), (Time::ZERO, 1)],
        );
        let mut crashes = FaultSchedule::empty();
        for k in 1..=256 {
            crashes.push(
                Time::from_millis(k),
                FaultKind::ComputeNodeCrash {
                    node: 0,
                    rework: Time::from_micros(100),
                },
            );
        }
        let out = run_schedule(&stream, QueuePolicy::Fcfs, &crashes, machine(2)).unwrap();
        let attempts: Vec<u32> = out.stats.jobs.iter().map(|j| j.attempts).collect();
        let finish: Vec<Time> = out.stats.jobs.iter().map(|j| j.finish).collect();
        assert_eq!(attempts, [257, 1]);
        assert_eq!(
            finish,
            [Time::from_micros(1_256_150), Time::from_micros(10_001_050)]
        );
    }

    #[test]
    fn easy_backfill_starts_short_jobs_in_the_shadow() {
        let long = io_workload("long", 6, 512 << 10, Time::from_millis(100));
        let wide = io_workload("wide", 8, 128 << 10, Time::from_millis(10));
        let short = io_workload("short", 2, 16 << 10, Time::from_millis(2));
        let cfg = machine(2); // 8 nodes
        let templates = vec![
            template("long", long),
            template("wide", wide),
            template("short", short),
        ];
        let arrivals = vec![
            (Time::ZERO, 0),           // long starts on 6 of 8 nodes
            (Time::from_millis(1), 1), // wide blocks the queue head
            (Time::from_millis(2), 2), // short fits the 2 idle nodes
        ];
        let run_policy = |policy: QueuePolicy| {
            run_schedule(
                &scripted(templates.clone(), arrivals.clone()),
                policy,
                &FaultSchedule::empty(),
                cfg.clone(),
            )
            .unwrap()
        };
        let fcfs = run_policy(QueuePolicy::Fcfs);
        let easy = run_policy(QueuePolicy::EasyBackfill);
        // FCFS strands the short job behind the wide one.
        assert!(fcfs.stats.jobs[2].first_start >= fcfs.stats.jobs[1].first_start);
        // EASY backfills it into the idle nodes within the shadow.
        assert!(
            easy.stats.jobs[2].first_start < easy.stats.jobs[1].first_start,
            "short must start before the wide blocker:\n{}",
            easy.stats.render()
        );
        assert!(easy.stats.jobs[2].wait() < fcfs.stats.jobs[2].wait());
        assert!(easy.stats.mean_wait() < fcfs.stats.mean_wait());
        // The head itself is never starved.
        assert_eq!(easy.stats.jobs[1].attempts, 1);
        assert_eq!(easy.stats.policy, "easy-backfill");
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = io_workload("io-heavy", 4, 1 << 20, Time::from_millis(1));
        let b = io_workload("cpu-heavy", 4, 4 << 10, Time::from_millis(40));
        let cfg = machine(2);
        let stream = JobStream {
            kind: StreamKind::Poisson {
                mean_interarrival: Time::from_millis(30),
            },
            seed: 0xD15C,
            templates: vec![template("io-heavy", a.clone()), template("cpu-heavy", b)],
            count: 8,
        };
        let go = || {
            run_schedule(
                &stream,
                QueuePolicy::EasyBackfill,
                &FaultSchedule::empty(),
                cfg.clone(),
            )
            .unwrap()
        };
        let r1 = go();
        let r2 = go();
        assert_eq!(r1.stats, r2.stats, "same seed, bit-identical stats");
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.stats.jobs.len(), 8);
    }

    #[test]
    fn oversized_templates_and_bad_streams_fail_fast() {
        let cfg = machine(1); // 4 nodes
        let too_big = scripted(
            vec![template(
                "big",
                io_workload("big", 8, 1 << 10, Time::from_millis(1)),
            )],
            vec![(Time::ZERO, 0)],
        );
        match run_schedule(
            &too_big,
            QueuePolicy::Fcfs,
            &FaultSchedule::empty(),
            cfg.clone(),
        ) {
            Err(SchedError::JobTooLarge {
                nodes, capacity, ..
            }) => {
                assert_eq!(nodes, 8);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected JobTooLarge, got {other:?}"),
        }
        let empty = JobStream {
            kind: StreamKind::Scripted { arrivals: vec![] },
            seed: 0,
            templates: vec![],
            count: 0,
        };
        assert!(matches!(
            run_schedule(
                &empty,
                QueuePolicy::Fcfs,
                &FaultSchedule::empty(),
                cfg.clone(),
            ),
            Err(SchedError::InvalidStream(_))
        ));
        // A crash on a node the machine doesn't have is rejected.
        let mut bad = FaultSchedule::empty();
        bad.push(
            Time::ZERO,
            FaultKind::ComputeNodeCrash {
                node: 99,
                rework: Time::from_millis(1),
            },
        );
        let ok_stream = scripted(
            vec![template(
                "ok",
                io_workload("ok", 4, 1 << 10, Time::from_millis(1)),
            )],
            vec![(Time::ZERO, 0)],
        );
        assert!(matches!(
            run_schedule(&ok_stream, QueuePolicy::Fcfs, &bad, cfg,),
            Err(SchedError::InvalidFaults(_))
        ));
    }
}
