//! Checkpoint policies and replay slicing.
//!
//! The paper's workloads are checkpointing codes: PRISM commits flow
//! statistics every 250 of 1250 integration steps, and ESCAT's staged
//! quadrature files are exactly the state a restarted run would reload.
//! This module makes that structure explicit so the recovery driver in
//! `sioscope-core` can charge the true cost of a compute-node crash:
//!
//! * [`CheckpointPolicy`] — how often the application commits:
//!   never, every fixed number of work units, or at Young's optimum
//!   interval `sqrt(2 · C · MTBF)` computed from the measured
//!   checkpoint cost `C` and the failure rate.
//! * [`Recoverable`] — a workload annotated with
//!   [`Stmt::CheckpointCommit`] markers plus everything needed to
//!   build the "replay from marker `k`" workload: per-node restart
//!   prologues (the phase-one re-reads a restarted run performs, e.g.
//!   PRISM's 155,584-byte restart-body records) and the file set that
//!   constitutes the checkpoint.
//!   [`Recoverable::restart`] builds each node's restart head and
//!   borrows the annotated program past the marker as its tail, so a
//!   replay holds no second copy of the program.
//!
//! Markers are placed immediately *after* a barrier, so every node
//! agrees on what marker `k` covers, and the sliced suffixes keep
//! equal collective counts across nodes (the barrier ordinal is global
//! by construction). Markers are zero-cost in the simulator; the
//! commit writes themselves are the ordinary `Io` statements the
//! application already issues before the barrier.

use crate::program::{Stmt, Workload};
use sioscope_pfs::IoOp;
use sioscope_sim::Time;
use std::collections::BTreeMap;

/// When the application commits checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Never commit: every crash replays the run from the beginning.
    None,
    /// Commit every `interval` work units (integration steps for
    /// PRISM, staging cycles for ESCAT).
    Fixed {
        /// Work units between commits.
        interval: u32,
    },
    /// Commit at Young's optimum interval `sqrt(2 · C · MTBF)`,
    /// translated into whole work units by the workload.
    Young {
        /// Cost of writing one checkpoint.
        checkpoint_cost: Time,
        /// Mean time between compute-node failures.
        mtbf: Time,
    },
}

/// Young's first-order optimum checkpoint interval:
/// `sqrt(2 · checkpoint_cost · mtbf)`. Degenerate inputs (zero cost or
/// zero MTBF) yield a zero interval, which workloads clamp to one work
/// unit.
pub(crate) fn young_interval(checkpoint_cost: Time, mtbf: Time) -> Time {
    Time::from_secs_f64((2.0 * checkpoint_cost.as_secs_f64() * mtbf.as_secs_f64()).sqrt())
}

/// Per-file state reconstructed by scanning a program prefix; used to
/// re-emit the open/mode/seek statements a replay needs before it can
/// continue from a marker.
#[derive(Debug, Default, Clone)]
struct FileTrack {
    /// The statements that (re)establish the file's open state, in
    /// order: the `Open`/`Gopen` plus any later `SetIoMode` /
    /// `SetBuffering` calls.
    open_ops: Vec<Stmt>,
    /// The node's file pointer after the prefix.
    pointer: u64,
    /// Whether the file is open at the end of the prefix.
    open: bool,
}

/// A workload annotated with checkpoint-commit markers, from which
/// "replay from marker `k`" attempts are built.
#[derive(Debug, Clone)]
pub struct Recoverable {
    workload: Workload,
    /// Per-node restart prologue: the statements a restarted run
    /// executes before resuming (phase-one re-reads through the real
    /// PFS path). Empty when the workload carries no markers.
    prologue: Vec<Vec<Stmt>>,
    /// Workload file indices that constitute the checkpoint payload
    /// (used by the recovery driver's volume accounting).
    checkpoint_files: Vec<u32>,
    /// Number of markers inserted per node.
    checkpoints: u32,
}

impl Recoverable {
    /// A workload with no checkpoints: every crash replays from the
    /// beginning ([`CheckpointPolicy::None`]).
    pub(crate) fn plain(workload: Workload) -> Self {
        Recoverable {
            workload,
            prologue: Vec::new(),
            checkpoint_files: Vec::new(),
            checkpoints: 0,
        }
    }

    /// Annotate `workload` with a [`Stmt::CheckpointCommit`] marker
    /// after every `stride`-th barrier, skipping the program-final
    /// barrier (committing "the run is over" is useless). `prologue`
    /// holds the per-node restart statements (one entry per node, or
    /// empty for none); `checkpoint_files` names the files whose
    /// writes count as checkpoint volume.
    ///
    /// # Panics
    /// Panics if `stride` is zero or `prologue` is neither empty nor
    /// one entry per node.
    pub fn annotate(
        workload: Workload,
        stride: u32,
        prologue: Vec<Vec<Stmt>>,
        checkpoint_files: Vec<u32>,
    ) -> Self {
        assert!(stride > 0, "marker stride must be positive");
        assert!(
            prologue.is_empty() || prologue.len() == workload.nodes as usize,
            "prologue must have one entry per node"
        );
        let mut w = workload;
        let mut checkpoints = 0u32;
        for (pid, prog) in w.programs.iter_mut().enumerate() {
            let total_barriers = prog.iter().filter(|s| matches!(s, Stmt::Barrier)).count() as u32;
            // Room for every marker up front (the program-final
            // barrier's slot goes unused).
            let mut annotated = Vec::with_capacity(prog.len() + (total_barriers / stride) as usize);
            let mut j = 0u32;
            let mut inserted = 0u32;
            for stmt in prog.drain(..) {
                let is_barrier = matches!(stmt, Stmt::Barrier);
                annotated.push(stmt);
                if is_barrier {
                    j += 1;
                    if j.is_multiple_of(stride) && j != total_barriers {
                        annotated.push(Stmt::CheckpointCommit(j / stride - 1));
                        inserted += 1;
                    }
                }
            }
            *prog = annotated;
            if pid == 0 {
                checkpoints = inserted;
            } else {
                assert_eq!(
                    inserted, checkpoints,
                    "barrier counts must match across nodes"
                );
            }
        }
        Recoverable {
            workload: w,
            prologue,
            checkpoint_files,
            checkpoints,
        }
    }

    /// The annotated workload (the "attempt from the beginning" form).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of commit markers per node.
    pub fn checkpoints(&self) -> u32 {
        self.checkpoints
    }

    /// File indices whose writes constitute the checkpoint payload.
    pub fn checkpoint_files(&self) -> &[u32] {
        &self.checkpoint_files
    }

    /// Bytes the restart prologue reads back through the PFS, summed
    /// across all nodes — the checkpoint *read* volume one replay
    /// attempt pays.
    pub fn prologue_read_bytes(&self) -> u64 {
        self.prologue
            .iter()
            .flatten()
            .map(|s| match s {
                Stmt::Io {
                    op: IoOp::Read { size },
                    ..
                } => *size,
                _ => 0,
            })
            .sum()
    }

    /// The workload that replays from marker `from` (or from the
    /// beginning for `None`), as one standalone [`Workload`]: the
    /// [`restart`](Recoverable::restart) heads with each node's tail
    /// copied after its head.
    ///
    /// # Panics
    /// Panics if `from` names a marker the workload does not carry.
    pub fn slice_from(&self, from: Option<u32>) -> Workload {
        let Some(k) = from else {
            return self.workload.clone();
        };
        let (mut sliced, tails) = self.restart(k);
        for (program, tail) in sliced.programs.iter_mut().zip(tails) {
            program.extend_from_slice(tail);
        }
        sliced
    }

    /// The replay from marker `k`, without copying the annotated
    /// program: a workload whose program `p` is node `p`'s head (the
    /// restart prologue, then the statements that re-establish files
    /// open at the marker: reopen + mode changes + a seek to the saved
    /// pointer), and per node its tail, the program suffix after the
    /// marker, which node `p` runs after its head. File sizes carry
    /// forward — anything written before the marker is durable, so the
    /// replay's file table starts at the prefix's high-water sizes.
    ///
    /// # Panics
    /// Panics if the workload carries no marker `k`.
    pub fn restart(&self, k: u32) -> (Workload, Vec<&[Stmt]>) {
        assert!(
            k < self.checkpoints,
            "marker {k} out of range ({} checkpoints)",
            self.checkpoints
        );
        // Global high-water write offsets, per file, across all nodes.
        let mut write_end: BTreeMap<u32, u64> = BTreeMap::new();
        let mut heads = Vec::with_capacity(self.workload.programs.len());
        let mut tails = Vec::with_capacity(self.workload.programs.len());
        for (pid, prog) in self.workload.programs.iter().enumerate() {
            let pos = prog
                .iter()
                .position(|s| matches!(s, Stmt::CheckpointCommit(i) if *i == k))
                .unwrap_or_else(|| panic!("pid {pid}: marker {k} not found"));
            let mut tracks: BTreeMap<u32, FileTrack> = BTreeMap::new();
            for stmt in &prog[..=pos] {
                if let Stmt::Io { file, op } = stmt {
                    let track = tracks.entry(*file).or_default();
                    match op {
                        IoOp::Open | IoOp::Gopen { .. } => {
                            track.open = true;
                            track.pointer = 0;
                            track.open_ops = vec![stmt.clone()];
                        }
                        IoOp::SetIoMode { .. } | IoOp::SetBuffering { .. } => {
                            if track.open {
                                track.open_ops.push(stmt.clone());
                            }
                        }
                        IoOp::Seek { offset } => track.pointer = *offset,
                        IoOp::Read { size } => track.pointer += size,
                        IoOp::Write { size } => {
                            let end = track.pointer + size;
                            track.pointer = end;
                            let hw = write_end.entry(*file).or_insert(0);
                            *hw = (*hw).max(end);
                        }
                        IoOp::Close => {
                            track.open = false;
                            track.open_ops.clear();
                        }
                        IoOp::Flush => {}
                    }
                }
            }
            let prologue = self.prologue.get(pid).map_or(&[][..], Vec::as_slice);
            let reopen: usize = tracks
                .values()
                .filter(|t| t.open)
                .map(|t| t.open_ops.len() + 1)
                .sum();
            let mut head = Vec::with_capacity(prologue.len() + reopen);
            head.extend_from_slice(prologue);
            // Re-establish open files in ascending file order so the
            // collective reopen sequence lines up across nodes.
            for (file, track) in &tracks {
                if !track.open {
                    continue;
                }
                head.extend(track.open_ops.iter().cloned());
                if track.pointer > 0 {
                    head.push(Stmt::Io {
                        file: *file,
                        op: IoOp::Seek {
                            offset: track.pointer,
                        },
                    });
                }
            }
            heads.push(head);
            tails.push(&prog[pos + 1..]);
        }
        let w = &self.workload;
        let mut head = Workload {
            name: w.name.clone(),
            version: w.version.clone(),
            os: w.os,
            nodes: w.nodes,
            files: w.files.clone(),
            programs: heads,
            phases: w.phases.clone(),
        };
        for (file, end) in write_end {
            let spec = &mut head.files[file as usize];
            spec.initial_size = spec.initial_size.max(end);
        }
        (head, tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FileSpec;
    use crate::synthetic;
    use sioscope_pfs::mode::OsRelease;

    fn staged_workload() -> Workload {
        // Two nodes, three compute/write/barrier rounds on file 0.
        let programs = (0..2u32)
            .map(|pid| {
                let mut p = Vec::new();
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Open,
                });
                for round in 0..3u64 {
                    p.push(Stmt::Compute(Time::from_secs(1)));
                    p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Seek {
                            offset: (round * 2 + u64::from(pid)) * 100,
                        },
                    });
                    p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Write { size: 100 },
                    });
                    p.push(Stmt::Barrier);
                }
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Close,
                });
                p
            })
            .collect();
        Workload {
            name: "staged".into(),
            version: "T".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "stage.dat".into(),
                initial_size: 0,
            }],
            programs,
            phases: vec![],
        }
    }

    #[test]
    fn young_interval_matches_formula() {
        let c = Time::from_secs(2);
        let mtbf = Time::from_secs(400);
        // sqrt(2 * 2 * 400) = 40 s.
        assert_eq!(young_interval(c, mtbf), Time::from_secs(40));
        assert!(young_interval(Time::ZERO, mtbf).is_zero());
    }

    #[test]
    fn annotate_marks_every_stride_but_skips_final_barrier() {
        let rec = Recoverable::annotate(staged_workload(), 1, Vec::new(), vec![0]);
        // Three barriers; the last one is program-final, so two markers.
        assert_eq!(rec.checkpoints(), 2);
        for prog in &rec.workload().programs {
            let markers: Vec<u32> = prog
                .iter()
                .filter_map(|s| match s {
                    Stmt::CheckpointCommit(k) => Some(*k),
                    _ => None,
                })
                .collect();
            assert_eq!(markers, vec![0, 1]);
        }
        assert!(rec.workload().validate().is_empty());
    }

    #[test]
    fn annotated_workload_keeps_collective_alignment_with_stride() {
        let rec = Recoverable::annotate(staged_workload(), 2, Vec::new(), vec![0]);
        // Barriers at ordinals 1, 2, 3; stride 2 marks ordinal 2 only.
        assert_eq!(rec.checkpoints(), 1);
        assert!(rec.workload().validate().is_empty());
    }

    #[test]
    fn slice_from_none_is_the_full_workload() {
        let rec = Recoverable::annotate(staged_workload(), 1, Vec::new(), vec![0]);
        let w = rec.slice_from(None);
        assert_eq!(w.programs, rec.workload().programs);
        assert_eq!(w.files[0].initial_size, 0);
    }

    #[test]
    fn slice_reopens_files_and_carries_sizes() {
        let rec = Recoverable::annotate(staged_workload(), 1, Vec::new(), vec![0]);
        let w = rec.slice_from(Some(0));
        assert!(w.validate().is_empty(), "{:?}", w.validate());
        // Round 0 wrote [0,100) on pid 0 and [100,200) on pid 1 —
        // both are durable at marker 0.
        assert_eq!(w.files[0].initial_size, 200);
        for (pid, prog) in w.programs.iter().enumerate() {
            // Replay reopens the file, seeks back to the saved
            // pointer, then runs rounds 1 and 2.
            assert!(matches!(
                prog[0],
                Stmt::Io {
                    file: 0,
                    op: IoOp::Open
                }
            ));
            assert!(matches!(
                prog[1],
                Stmt::Io {
                    file: 0,
                    op: IoOp::Seek { offset }
                } if offset == 100 * (u64::from(pid as u32) + 1)
            ));
            let writes = prog
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Stmt::Io {
                            op: IoOp::Write { .. },
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(writes, 2, "rounds 1 and 2 replay");
            // No marker 0 left in the suffix; marker 1 survives.
            assert!(!prog.iter().any(|s| matches!(s, Stmt::CheckpointCommit(0))));
            assert!(prog.iter().any(|s| matches!(s, Stmt::CheckpointCommit(1))));
        }
    }

    #[test]
    fn a_restart_borrows_the_suffix_its_slice_copies() {
        let rec = Recoverable::annotate(staged_workload(), 1, Vec::new(), vec![0]);
        let (head, tails) = rec.restart(1);
        let sliced = rec.slice_from(Some(1));
        assert!(head.validate_with(&tails).is_empty());
        assert_eq!(head.io_stmts_with(&tails), sliced.io_stmts());
        assert_eq!(head.files, sliced.files);
        for (pid, tail) in tails.iter().enumerate() {
            let annotated = &rec.workload().programs[pid];
            assert!(!tail.is_empty(), "round 2 replays");
            assert!(
                std::ptr::eq(tail.as_ptr_range().end, annotated.as_ptr_range().end),
                "the tail is the annotated program's own suffix"
            );
            assert_eq!(
                sliced.programs[pid],
                [&head.programs[pid][..], tail].concat()
            );
        }
        // A tail is validated as part of its node's program.
        let extra = [tails[1], &[Stmt::Barrier]].concat();
        assert!(!head.validate_with(&[tails[0], &extra]).is_empty());
    }

    #[test]
    fn slice_prepends_prologue() {
        let prologue: Vec<Vec<Stmt>> = (0..2)
            .map(|_| {
                vec![
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Open,
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Read { size: 640 },
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Close,
                    },
                ]
            })
            .collect();
        let rec = Recoverable::annotate(staged_workload(), 1, prologue, vec![0]);
        assert_eq!(rec.prologue_read_bytes(), 2 * 640);
        let w = rec.slice_from(Some(1));
        for prog in &w.programs {
            assert!(matches!(
                prog[1],
                Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: 640 }
                }
            ));
        }
        assert!(w.validate().is_empty());
    }

    #[test]
    fn synthetic_kernels_annotate_generically() {
        let cfg = synthetic::KernelConfig::small();
        let w = synthetic::checkpoint_burst(&cfg, 4);
        let rec = Recoverable::annotate(w, 1, Vec::new(), vec![0]);
        // Four burst barriers, last is program-final: three markers.
        assert_eq!(rec.checkpoints(), 3);
        let sliced = rec.slice_from(Some(2));
        assert!(sliced.validate().is_empty(), "{:?}", sliced.validate());
        // The staged writes before marker 2 are durable.
        assert!(sliced.files[0].initial_size > 0);
    }

    #[test]
    #[should_panic(expected = "marker 5 out of range")]
    fn slice_from_unknown_marker_panics() {
        let rec = Recoverable::annotate(staged_workload(), 1, Vec::new(), vec![0]);
        let _ = rec.slice_from(Some(5));
    }

    #[test]
    fn plain_recoverable_has_no_markers() {
        let rec = Recoverable::plain(staged_workload());
        assert_eq!(rec.checkpoints(), 0);
        assert_eq!(rec.prologue_read_bytes(), 0);
        let w = rec.slice_from(None);
        assert!(!w
            .programs
            .iter()
            .flatten()
            .any(|s| matches!(s, Stmt::CheckpointCommit(_))));
    }
}
