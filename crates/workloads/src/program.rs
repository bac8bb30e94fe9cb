//! The per-node program language the simulator executes.

use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{IoMode, IoOp};
use sioscope_sim::Time;

/// One statement of a node's program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Pure computation for the given duration.
    Compute(Time),
    /// A file-system call on workload file `file` (index into
    /// [`Workload::files`]).
    Io {
        /// Index of the target file in the workload's file table.
        file: u32,
        /// The PFS operation.
        op: IoOp,
    },
    /// Global barrier across all nodes of the application. Nodes must
    /// all execute the same number of collective statements
    /// (`Barrier`/`Broadcast`/`Gather`) in the same order.
    Barrier,
    /// Broadcast of `bytes` from `root` to every node (message-passing
    /// collective, not a file operation).
    Broadcast {
        /// Broadcasting node (pid index).
        root: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Every node sends `bytes_per_node` to `root` (the version-A
    /// "node zero collects the quadrature data" pattern).
    Gather {
        /// Collecting node (pid index).
        root: u32,
        /// Payload contributed by each non-root node.
        bytes_per_node: u64,
    },
    /// Checkpoint-commit marker `k`: everything before this statement
    /// is durable on the PFS; a recovering run may resume from here
    /// instead of from the beginning. Zero-cost in the simulator (the
    /// commit *writes* are ordinary `Io` statements preceding the
    /// marker) — it only records the instant the program passed it.
    /// Placed immediately after a barrier so all nodes agree on what
    /// marker `k` covers; not itself a collective.
    CheckpointCommit(u32),
}

/// A file the workload touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// File name (unique within the workload).
    pub name: String,
    /// Bytes present before the application starts (input files).
    pub initial_size: u64,
}

/// Human-readable description of one application phase — the rows of
/// the paper's Tables 1 and 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDesc {
    /// Phase name ("Phase One", ...).
    pub phase: String,
    /// Which nodes perform I/O ("All Nodes" / "Node zero").
    pub activity: String,
    /// `(file label, mode)` pairs used during the phase.
    pub modes: Vec<(String, IoMode)>,
}

/// A complete runnable workload: one program per node plus the file
/// table and descriptive metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name, e.g. `"ESCAT-C/ethylene"`.
    pub name: String,
    /// Version label ("A", "B", "C", ...).
    pub version: String,
    /// OS release the version ran under (Table 1: ESCAT A/B on OSF/1
    /// R1.2, C on R1.3; PRISM all on R1.3).
    pub os: OsRelease,
    /// Number of compute nodes (= number of programs).
    pub nodes: u32,
    /// Files the workload touches.
    pub files: Vec<FileSpec>,
    /// Per-node statement sequences, indexed by pid.
    pub programs: Vec<Vec<Stmt>>,
    /// Phase descriptions for Tables 1 / 4.
    pub phases: Vec<PhaseDesc>,
}

impl Workload {
    /// Number of I/O statements across all nodes. Each one that
    /// completes records exactly one trace event, so this is the length
    /// of a finished run's trace.
    pub fn io_stmts(&self) -> usize {
        self.io_stmts_with(&[])
    }

    /// [`io_stmts`](Workload::io_stmts) for a run in which node `p`
    /// goes on to `tails[p]` after its own program.
    pub fn io_stmts_with(&self, tails: &[&[Stmt]]) -> usize {
        self.programs
            .iter()
            .flatten()
            .chain(tails.iter().copied().flatten())
            .filter(|s| matches!(s, Stmt::Io { .. }))
            .count()
    }

    /// Total bytes read and written if every data op completes, as
    /// `(read, written)`.
    pub fn declared_volume(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for prog in &self.programs {
            for stmt in prog {
                if let Stmt::Io { op, .. } = stmt {
                    match op {
                        IoOp::Read { size } => r += size,
                        IoOp::Write { size } => w += size,
                        _ => {}
                    }
                }
            }
        }
        (r, w)
    }

    /// Structural validation: program count matches `nodes`, every
    /// file index is in range, every node executes the same number of
    /// message-passing collectives, broadcast/gather roots are valid,
    /// and M_ASYNC is not used under OSF/1 R1.2. Returns a list of
    /// problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        self.validate_with(&[])
    }

    /// [`validate`](Workload::validate) for a run in which node `p`
    /// goes on to `tails[p]` after its own program.
    pub fn validate_with(&self, tails: &[&[Stmt]]) -> Vec<String> {
        let mut problems = Vec::new();
        if self.programs.len() != self.nodes as usize {
            problems.push(format!(
                "{} programs for {} nodes",
                self.programs.len(),
                self.nodes
            ));
        }
        let mut collective_counts = Vec::with_capacity(self.programs.len());
        for (pid, prog) in self.programs.iter().enumerate() {
            let tail = tails.get(pid).copied().unwrap_or_default();
            let mut collectives = 0u32;
            for (i, stmt) in prog.iter().chain(tail).enumerate() {
                match stmt {
                    Stmt::Io { file, op } => {
                        if *file as usize >= self.files.len() {
                            problems.push(format!("pid {pid} stmt {i}: file {file} out of range"));
                        }
                        if let IoOp::Gopen {
                            mode: IoMode::MAsync,
                            ..
                        }
                        | IoOp::SetIoMode {
                            mode: IoMode::MAsync,
                            ..
                        } = op
                        {
                            if self.os == OsRelease::Osf12 {
                                problems.push(format!(
                                    "pid {pid} stmt {i}: M_ASYNC requires OSF/1 R1.3"
                                ));
                            }
                        }
                    }
                    Stmt::Broadcast { root, .. } | Stmt::Gather { root, .. } => {
                        if *root >= self.nodes {
                            problems.push(format!("pid {pid} stmt {i}: root {root} out of range"));
                        }
                        collectives += 1;
                    }
                    Stmt::Barrier => collectives += 1,
                    Stmt::Compute(_) | Stmt::CheckpointCommit(_) => {}
                }
            }
            collective_counts.push(collectives);
        }
        if let (Some(&min), Some(&max)) = (
            collective_counts.iter().min(),
            collective_counts.iter().max(),
        ) {
            if min != max {
                problems.push(format!(
                    "collective count mismatch across nodes: min {min}, max {max}"
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        Workload {
            name: "t".into(),
            version: "A".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: vec![
                vec![
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Open,
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Write { size: 10 },
                    },
                    Stmt::Barrier,
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Close,
                    },
                ],
                vec![
                    Stmt::Compute(Time::from_secs(1)),
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Open,
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Read { size: 4 },
                    },
                    Stmt::Barrier,
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Close,
                    },
                ],
            ],
            phases: vec![],
        }
    }

    #[test]
    fn valid_workload_passes() {
        assert!(tiny_workload().validate().is_empty());
    }

    #[test]
    fn volume_and_stmt_counts() {
        let w = tiny_workload();
        assert_eq!(w.programs.iter().map(Vec::len).sum::<usize>(), 9);
        assert_eq!(w.declared_volume(), (4, 10));
    }

    #[test]
    fn bad_file_index_caught() {
        let mut w = tiny_workload();
        w.programs[0].push(Stmt::Io {
            file: 9,
            op: IoOp::Open,
        });
        assert!(!w.validate().is_empty());
    }

    #[test]
    fn collective_mismatch_caught() {
        let mut w = tiny_workload();
        w.programs[0].push(Stmt::Barrier);
        let problems = w.validate();
        assert!(problems.iter().any(|p| p.contains("collective count")));
    }

    #[test]
    fn bad_root_caught() {
        let mut w = tiny_workload();
        for prog in &mut w.programs {
            prog.push(Stmt::Broadcast { root: 7, bytes: 1 });
        }
        assert!(!w.validate().is_empty());
    }

    #[test]
    fn masync_under_osf12_caught() {
        let mut w = tiny_workload();
        w.os = OsRelease::Osf12;
        w.programs[0].insert(
            0,
            Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: 2,
                    mode: IoMode::MAsync,
                    record_size: None,
                },
            },
        );
        assert!(w.validate().iter().any(|p| p.contains("M_ASYNC")));
    }

    #[test]
    fn node_count_mismatch_caught() {
        let mut w = tiny_workload();
        w.nodes = 3;
        assert!(!w.validate().is_empty());
    }

    #[test]
    fn checkpoint_markers_validate() {
        let mut w = tiny_workload();
        for prog in &mut w.programs {
            prog.push(Stmt::CheckpointCommit(0));
        }
        assert!(w.validate().is_empty(), "{:?}", w.validate());
    }
}
