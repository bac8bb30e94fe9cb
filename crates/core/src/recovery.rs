//! Checkpoint/restart recovery: end-to-end time-to-solution under
//! compute-node failures.
//!
//! The paper's applications are gang-scheduled SPMD codes: one dead
//! compute node kills the whole attempt, and the run restarts from its
//! last committed checkpoint (PRISM's restart file is literally the
//! mechanism — phase one re-reads it in 155,584-byte records). This
//! module drives the simulator through that story:
//!
//! 1. Run the current attempt (full workload, or a replay from the
//!    last committed marker, which borrows the annotated programs past
//!    it rather than copying them) up to the next scheduled
//!    [`FaultKind::ComputeNodeCrash`], and no further.
//! 2. If the crash lands inside the attempt, charge the crash's
//!    rework/reboot latency, roll the attempt back to its last
//!    committed checkpoint, and go again — the replay re-reads the
//!    checkpoint through the real PFS path via the workload's restart
//!    prologue.
//! 3. When an attempt outlives the remaining crash schedule, its
//!    completion instant is the *time-to-solution*.
//!
//! Every decision is a pure function of the (seeded) crash schedule
//! and the deterministic simulator, so same-seed recovery runs are
//! bit-identical end to end.
//!
//! A crashed attempt never runs past its crash, so it raises no error
//! from code beyond it. The replay runs that code again, and the
//! error surfaces from the first attempt that reaches it.
//!
//! Each attempt records into a `Ledger` wrapped around the caller's
//! sink. The checkpoint accounting needs only the bytes written to the
//! checkpoint files, so a caller that reads no events keeps no trace.

use crate::simulator::{run_backend_until, Attempt, Crashed, RunResult, SimError, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_pfs::{BackendConfig, OpKind, PfsConfig};
use sioscope_sim::{FileId, Time};
use sioscope_trace::{IoEvent, Sink, TraceRecorder};
use sioscope_workloads::Recoverable;

/// Accounting for one recovery story (one workload, one crash
/// schedule, run to solution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Compute-node crashes survived on the way to the solution.
    pub crashes: u32,
    /// Attempts launched (`crashes + 1`).
    pub attempts: u32,
    /// Work time lost to crashes: for each crash, the attempt time
    /// past the last committed checkpoint.
    pub rework: Time,
    /// Total reboot/reschedule latency charged by the crashes.
    pub restart_latency: Time,
    /// Bytes written to the checkpoint files across all attempts
    /// (writes that had started by each crash, plus the final
    /// attempt's full checkpoint output).
    pub checkpoint_write_bytes: u64,
    /// Bytes the restart prologues read back from the checkpoint
    /// (charged once per replay-from-marker attempt).
    pub checkpoint_read_bytes: u64,
    /// End-to-end wall clock from first launch to the final attempt's
    /// completion, including all rework and restart latency.
    pub time_to_solution: Time,
}

/// Run `rec` to solution under the compute-node crashes in `crashes`,
/// on the PFS `pfs_cfg` describes (see [`run_with_recovery_backend`]).
///
/// With an empty crash schedule the result is bit-identical to a plain
/// [`crate::run`] of the annotated workload, and
/// `time_to_solution == exec_time`.
pub fn run_with_recovery(
    rec: &Recoverable,
    crashes: &FaultSchedule,
    pfs_cfg: PfsConfig,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    run_with_recovery_backend(rec, crashes, &BackendConfig::Pfs(pfs_cfg), options)
}

/// Run `rec` to solution under the compute-node crashes in `crashes`,
/// on the storage tier `cfg` selects. With a burst-buffer tier
/// absorbing the checkpoint files, the foreground commit cost drops to
/// log-append speed and the checkpoint-interval U-curve flattens.
///
/// Only [`FaultKind::ComputeNodeCrash`] events are consumed here; I/O
/// faults belong in the tier's own fault schedule as usual (the two
/// compose — the storage never observes compute crashes). Crash
/// instants are global wall-clock times; a crash that lands during
/// another crash's rework window is absorbed by it (the partition is
/// already down).
///
/// Returns the final attempt's [`RunResult`] with
/// [`RunResult::recovery`] filled in.
pub fn run_with_recovery_backend(
    rec: &Recoverable,
    crashes: &FaultSchedule,
    cfg: &BackendConfig,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    recover(rec, crashes, cfg, &options, TraceRecorder::with_capacity)
}

/// [`run_with_recovery_backend`] into the sink `new_sink` builds for
/// each attempt from its I/O statement count. The result carries the
/// final attempt's sink.
pub(crate) fn recover<S: Sink>(
    rec: &Recoverable,
    crashes: &FaultSchedule,
    cfg: &BackendConfig,
    options: &SimOptions,
    new_sink: impl Fn(usize) -> S,
) -> Result<RunResult<S>, SimError> {
    // Fail fast on malformed crash scenarios before any simulation. The
    // object store has no I/O nodes; compute-crash validation still
    // applies against the application shape.
    let io_nodes = match cfg {
        BackendConfig::Pfs(c) => c.machine.io_nodes,
        BackendConfig::Burst(b) => b.pfs.machine.io_nodes,
        BackendConfig::Object(_) => 0,
    };
    let problems = crashes.validate_for(io_nodes, rec.workload().nodes);
    if !problems.is_empty() {
        return Err(SimError::InvalidFaults(problems));
    }
    let mut crash_list: Vec<(Time, Time)> = crashes
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::ComputeNodeCrash { rework, .. } => Some((ev.at, rework)),
            _ => None,
        })
        .collect();
    crash_list.sort();

    let mut stats = RecoveryStats::default();
    let mut wall = Time::ZERO;
    let mut from: Option<u32> = None;
    let mut next = 0usize;
    loop {
        stats.attempts += 1;
        // Crashes at or before the attempt's launch instant fell into
        // the previous crash's rework window: absorbed.
        while next < crash_list.len() && crash_list[next].0 <= wall {
            next += 1;
        }
        // The next crash instant in this attempt's local clock: the
        // attempt runs up to it and no further.
        let local = crash_list
            .get(next)
            .map_or(Time::MAX, |&(at, _)| at.saturating_sub(wall));
        // An attempt from the beginning runs the annotated workload
        // itself. A replay from a marker runs its restart heads, then
        // the annotated programs past the marker as tails, uncopied.
        let restart;
        let (workload, tails) = match from {
            None => (rec.workload(), &[][..]),
            Some(k) => {
                restart = rec.restart(k);
                (&restart.0, &restart.1[..])
            }
        };
        // The checkpoint accounting needs only the attempt's checkpoint
        // writes: the ledger sums them as they are recorded, split at
        // the crash instant.
        let ledger = Ledger {
            sink: new_sink(workload.io_stmts_with(tails)),
            checkpoint_files: rec.checkpoint_files(),
            stop: local,
            before: 0,
            at_stop: 0,
        };
        let attempt = run_backend_until(workload, tails, cfg.clone(), options, local, ledger)?;
        let crashed = match attempt {
            Attempt::Finished(result) => {
                // The attempt outlives the crash schedule: done. A
                // crash at the exact completion instant strikes a
                // finished application, so every write counts.
                stats.time_to_solution = wall.saturating_add(result.exec_time);
                let mut result = result.map_trace(|ledger| {
                    stats.checkpoint_write_bytes += ledger.before + ledger.at_stop;
                    ledger.sink
                });
                result.recovery = stats;
                return Ok(result);
            }
            Attempt::Crashed(crashed) => crashed,
        };
        let Crashed {
            commits,
            trace: mut ledger,
            parked_writes,
        } = *crashed;
        let (at, rework) = crash_list[next];
        next += 1;
        stats.crashes += 1;
        // Latest marker committed by the crash AND durable — a commit
        // whose bytes a burst-node crash destroyed while resident in
        // the log reports `Time::MAX` and can never be rolled back to.
        let committed = commits
            .iter()
            .rfind(|&&(_, _, durable)| durable <= local)
            .map(|&(k, t, _)| (k, t));
        let base = committed.map(|(_, t)| t).unwrap_or(Time::ZERO);
        stats.rework += local.saturating_sub(base);
        stats.restart_latency += rework;
        // Writes issued before the crash, whether their completion
        // came before it or they still waited in a forming group.
        for (file, start, bytes) in parked_writes {
            ledger.count(file, start, bytes);
        }
        stats.checkpoint_write_bytes += ledger.before;
        // No marker committed this attempt → replay from wherever this
        // attempt itself started.
        let new_from = committed.map(|(k, _)| k).or(from);
        if new_from.is_some() {
            // The next attempt re-reads the checkpoint through the
            // restart prologue's PFS reads.
            stats.checkpoint_read_bytes += rec.prologue_read_bytes();
        }
        wall = at.saturating_add(rework);
        from = new_from;
    }
}

/// The sink of one attempt: it hands every operation on to the
/// caller's sink and sums the bytes written to the checkpoint files,
/// split at the attempt's stop instant. No write is issued after the
/// stop, since the attempt ends there.
struct Ledger<'r, S> {
    sink: S,
    checkpoint_files: &'r [u32],
    stop: Time,
    /// Checkpoint bytes issued strictly before `stop`.
    before: u64,
    /// Checkpoint bytes issued at `stop` itself.
    at_stop: u64,
}

impl<S> Ledger<'_, S> {
    /// Count a write of `bytes` to `file` issued at `start`.
    fn count(&mut self, file: FileId, start: Time, bytes: u64) {
        if self.checkpoint_files.contains(&file.0) {
            if start < self.stop {
                self.before += bytes;
            } else {
                self.at_stop += bytes;
            }
        }
    }
}

impl<S: Sink> Sink for Ledger<'_, S> {
    #[inline]
    fn record(&mut self, event: IoEvent) {
        if event.kind == OpKind::Write {
            self.count(event.file, event.start, event.bytes);
        }
        self.sink.record(event);
    }

    fn finish(&mut self) {
        self.sink.finish();
    }

    fn len(&self) -> usize {
        self.sink.len()
    }

    fn total_io_time(&self) -> Time {
        self.sink.total_io_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::tests::scalars;
    use crate::simulator::{run, run_backend};
    use sioscope_faults::FaultGen;
    use sioscope_pfs::mode::OsRelease;
    use sioscope_pfs::{BurstBufferConfig, IoMode, IoOp};
    use sioscope_trace::IoTotals;
    use sioscope_workloads::{
        CheckpointPolicy, EscatConfig, EscatVersion, FileSpec, PrismConfig, PrismVersion, Stmt,
        Workload,
    };

    fn tiny_pfs(nodes: u32) -> PfsConfig {
        let mut cfg = PfsConfig::tiny();
        cfg.machine.compute_nodes = nodes;
        cfg
    }

    fn crash_at(at: Time, rework: Time) -> FaultSchedule {
        let mut s = FaultSchedule::empty();
        s.push(at, FaultKind::ComputeNodeCrash { node: 0, rework });
        s
    }

    #[test]
    fn fault_free_recovery_equals_plain_run() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let plain = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let recovered = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap();
        assert_eq!(recovered.exec_time, plain.exec_time);
        assert_eq!(recovered.trace.events(), plain.trace.events());
        assert_eq!(recovered.recovery.crashes, 0);
        assert_eq!(recovered.recovery.attempts, 1);
        assert_eq!(recovered.recovery.time_to_solution, plain.exec_time);
        assert!(recovered.recovery.rework.is_zero());
    }

    #[test]
    fn one_crash_costs_rework_and_restart() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap()
        .recovery
        .time_to_solution;
        let rework = Time::from_secs(2);
        let crashes = crash_at(baseline.scale(0.5), rework);
        let r =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(r.recovery.crashes, 1);
        assert_eq!(r.recovery.attempts, 2);
        assert_eq!(r.recovery.restart_latency, rework);
        assert!(
            r.recovery.time_to_solution > baseline,
            "a mid-run crash must cost wall clock: {} vs {baseline}",
            r.recovery.time_to_solution
        );
        assert!(
            r.recovery.time_to_solution >= baseline.saturating_add(rework),
            "at minimum the rework latency is charged"
        );
    }

    #[test]
    fn checkpoints_bound_rework_versus_no_policy() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let none = cfg.recoverable(CheckpointPolicy::None);
        let fixed = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(none.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        // Crash late in the run: without checkpoints everything is
        // lost; with per-cycle commits only the tail is.
        let crashes = crash_at(baseline.scale(0.8), Time::from_secs(1));
        let r_none =
            run_with_recovery(&none, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let r_fixed =
            run_with_recovery(&fixed, &crashes, tiny_pfs(cfg.nodes), SimOptions::default())
                .unwrap();
        assert_eq!(r_none.recovery.crashes, 1);
        assert_eq!(r_fixed.recovery.crashes, 1);
        assert!(
            r_none.recovery.rework > r_fixed.recovery.rework,
            "checkpoints must bound lost work: {} vs {}",
            r_none.recovery.rework,
            r_fixed.recovery.rework
        );
        assert!(
            r_fixed.recovery.checkpoint_read_bytes > 0,
            "a replay-from-marker attempt re-reads the checkpoint"
        );
        assert_eq!(r_none.recovery.checkpoint_read_bytes, 0);
    }

    #[test]
    fn same_seed_recovery_is_bit_identical() {
        let cfg = EscatConfig::tiny(EscatVersion::B);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        let crashes = crash_at(baseline.scale(0.6), Time::from_secs(1));
        let a =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let b =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.trace.events(), b.trace.events());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn burst_buffer_cuts_foreground_checkpoint_cost() {
        use sioscope_pfs::BurstBufferConfig;
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let plain = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap();
        let burst_cfg = BackendConfig::Burst(BurstBufferConfig::absorbing(
            tiny_pfs(cfg.nodes),
            rec.checkpoint_files().to_vec(),
        ));
        let buffered = run_with_recovery_backend(
            &rec,
            &FaultSchedule::empty(),
            &burst_cfg,
            SimOptions::default(),
        )
        .unwrap();
        assert!(
            buffered.exec_time < plain.exec_time,
            "absorbing the checkpoint files must shed foreground commit cost: {} vs {}",
            buffered.exec_time,
            plain.exec_time
        );
        assert!(buffered.backend_stats.bytes_logged > 0);
        assert!(buffered.backend_stats.conserves_bytes());
    }

    #[test]
    fn invalid_crash_schedule_rejected_before_running() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::None);
        // Node 99 does not exist in an 8-node application.
        let mut s = FaultSchedule::empty();
        s.push(
            Time::from_secs(1),
            FaultKind::ComputeNodeCrash {
                node: 99,
                rework: Time::from_secs(1),
            },
        );
        let e =
            run_with_recovery(&rec, &s, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap_err();
        match e {
            SimError::InvalidFaults(problems) => {
                assert!(problems.iter().any(|p| p.contains("compute-crash")));
            }
            other => panic!("expected InvalidFaults, got {other}"),
        }
    }

    #[test]
    fn crashes_inside_rework_windows_are_absorbed() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        let rework = Time::from_secs(30);
        let first = baseline.scale(0.5);
        let mut crashes = FaultSchedule::empty();
        crashes.push(first, FaultKind::ComputeNodeCrash { node: 0, rework });
        // Lands while the partition is still rebooting from the first.
        crashes.push(
            first.saturating_add(Time::from_secs(1)),
            FaultKind::ComputeNodeCrash { node: 1, rework },
        );
        let r =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(r.recovery.crashes, 1, "the second crash is absorbed");
        assert_eq!(r.recovery.attempts, 2);
    }

    /// `trace`'s writes to `rec`'s checkpoint files.
    fn ckpt_writes(rec: &Recoverable, trace: &TraceRecorder) -> Vec<IoEvent> {
        let files = rec.checkpoint_files();
        (trace.events().iter())
            .filter(|e| e.kind == OpKind::Write && files.contains(&e.file.0))
            .copied()
            .collect()
    }

    /// Bytes of the `writes` issued before `cutoff`.
    fn bytes_before(writes: &[IoEvent], cutoff: Time) -> u64 {
        let before = writes.iter().filter(|e| e.start < cutoff);
        before.map(|e| e.bytes).sum()
    }

    /// Tell one recovery story into [`IoTotals`] and into a trace.
    /// Both must report the same scalars and [`RecoveryStats`]. Returns
    /// the traced story.
    fn both_sinks(rec: &Recoverable, crashes: &FaultSchedule, cfg: &BackendConfig) -> RunResult {
        let opts = SimOptions::default();
        let totals = recover(rec, crashes, cfg, &opts, |_| IoTotals::default()).unwrap();
        let traced = run_with_recovery_backend(rec, crashes, cfg, opts).unwrap();
        assert_eq!(scalars(&totals), scalars(&traced), "{crashes:?}");
        traced
    }

    /// Two nodes write a checkpoint file gopen'd in M_SYNC. Node 1
    /// computes 1 s longer before its second write, so node 0's second
    /// write still waits in the forming group at 0.5 s.
    fn parked_write() -> Recoverable {
        let io = |op| Stmt::Io { file: 0, op };
        let program = |late: u64| {
            vec![
                io(IoOp::Gopen {
                    group: 2,
                    mode: IoMode::MSync,
                    record_size: None,
                }),
                io(IoOp::Write { size: 4096 }),
                Stmt::Compute(Time::from_millis(100 + late)),
                io(IoOp::Write { size: 4096 }),
                Stmt::Barrier,
                Stmt::Compute(Time::from_secs(1)),
                Stmt::Barrier,
                io(IoOp::Close),
            ]
        };
        let workload = Workload {
            name: "parked".into(),
            version: "T".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "ckpt".into(),
                initial_size: 0,
            }],
            programs: vec![program(0), program(1000)],
            phases: vec![],
        };
        Recoverable::annotate(workload, 1, Vec::new(), vec![0])
    }

    /// The driver tells the same story into either sink, and its ledger
    /// counts the checkpoint bytes a trace shows. Tiny ESCAT B/C and
    /// PRISM B, with markers, run on the PFS, on a clean burst buffer
    /// absorbing the checkpoint files, and on one whose node crashes
    /// while a checkpoint write is resident in its log, under seeded
    /// crash schedules. A crash placed at the instant a checkpoint write
    /// is issued does not count that write; a write parked in a forming
    /// group by the crash does count.
    #[test]
    fn totals_and_recorder_drivers_tell_the_same_recovery_story() {
        let every = CheckpointPolicy::Fixed { interval: 1 };
        let prism = PrismConfig::tiny(PrismVersion::B);
        let recs = [
            EscatConfig::tiny(EscatVersion::B).recoverable(every),
            EscatConfig::tiny(EscatVersion::C).recoverable(every),
            prism.recoverable(CheckpointPolicy::Fixed {
                interval: prism.checkpoint_every,
            }),
        ];
        let (mut rolled_back, mut past_lost_commit) = (0, 0);
        for rec in &recs {
            let w = rec.workload();
            let pfs = tiny_pfs(w.nodes);
            let io_nodes = pfs.machine.io_nodes;
            let absorbing =
                BurstBufferConfig::absorbing(pfs.clone(), rec.checkpoint_files().to_vec());
            let clean = run_backend(
                w,
                &BackendConfig::Burst(absorbing.clone()),
                SimOptions::default(),
            )
            .unwrap();
            let mut faulted = absorbing.clone();
            faulted.faults = FaultGen::new(7, clean.exec_time, io_nodes)
                .with_events(2)
                .burst_schedule();
            let landings = ckpt_writes(rec, &clean.trace);
            let repair = Time::from_millis(100);
            let resident = landings[landings.len() / 2].end();
            faulted
                .faults
                .push(resident, FaultKind::BurstNodeCrash { repair });
            let tiers = [absorbing.clone(), faulted].map(BackendConfig::Burst);
            for cfg in [BackendConfig::Pfs(pfs)].into_iter().chain(tiers) {
                let what = format!("{} {} on {}", w.name, w.version, cfg.kind());
                let plain = run_backend(w, &cfg, SimOptions::default()).unwrap();
                let base = plain.exec_time;
                let rework = base.scale(0.05).max(Time::from_secs(1));
                // The first commit a burst-node crash made non-durable.
                let lost = (plain.checkpoint_commits.iter().zip(&plain.durable_commits))
                    .find_map(|(&(_, t), &(_, d))| (d == Time::MAX).then_some(t));
                let crash_fgen = |seed| FaultGen::new(seed, base.scale(3.2), io_nodes);
                for seed in [3, 11] {
                    let crashes =
                        crash_fgen(seed).compute_crash_schedule(base.scale(0.5), rework, w.nodes);
                    let r = both_sinks(rec, &crashes, &cfg);
                    rolled_back += u32::from(r.recovery.checkpoint_read_bytes > 0);
                    let first = crashes.events.iter().map(|e| e.at).min();
                    past_lost_commit += u32::from(lost.is_some_and(|t| first > Some(t)));
                }
                // A crash at the instant a checkpoint write is issued: the
                // crash counts the writes issued before it, and the final
                // attempt all of its own.
                let writes = ckpt_writes(rec, &plain.trace);
                let at = writes[writes.len() / 2].start;
                let r = both_sinks(rec, &crash_at(at, rework), &cfg);
                assert_eq!(r.recovery.crashes, 1, "{what}");
                let before = bytes_before(&writes, at);
                let issued = bytes_before(&writes, at + Time::from_nanos(1));
                assert!(
                    issued > before,
                    "{what}: a checkpoint write is issued at {at}"
                );
                let last = bytes_before(&ckpt_writes(rec, &r.trace), Time::MAX);
                assert_eq!(r.recovery.checkpoint_write_bytes, before + last, "{what}");
            }
        }
        assert!(rolled_back > 0, "some story rolls back to a marker");
        assert!(
            past_lost_commit > 0,
            "some story crashes past a lost commit"
        );

        // The parked write counts: 12,288 bytes were issued before the
        // crash, 8,192 of them recorded, and the replay writes 16,384.
        let rec = parked_write();
        let cfg = BackendConfig::Pfs(tiny_pfs(2));
        let r = both_sinks(
            &rec,
            &crash_at(Time::from_millis(500), Time::from_secs(1)),
            &cfg,
        );
        assert_eq!(r.recovery.crashes, 1);
        assert_eq!(r.recovery.checkpoint_write_bytes, 12_288 + 16_384);
    }
}
