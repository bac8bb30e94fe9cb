//! Fluent helper for assembling per-node programs.

use crate::program::Stmt;
use sioscope_pfs::{IoMode, IoOp};
use sioscope_sim::{DetRng, Time};

/// Builds one node's statement sequence.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    stmts: Vec<Stmt>,
}

impl ProgramBuilder {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a compute burst.
    pub fn compute(&mut self, dur: Time) -> &mut Self {
        self.stmts.push(Stmt::Compute(dur));
        self
    }

    /// Append a jittered compute burst (±`frac` multiplicative).
    pub fn compute_jittered(&mut self, dur: Time, frac: f64, rng: &mut DetRng) -> &mut Self {
        self.stmts.push(Stmt::Compute(rng.jitter(dur, frac)));
        self
    }

    /// Append an arbitrary I/O statement.
    pub fn io(&mut self, file: u32, op: IoOp) -> &mut Self {
        self.stmts.push(Stmt::Io { file, op });
        self
    }

    /// Non-collective open.
    pub fn open(&mut self, file: u32) -> &mut Self {
        self.io(file, IoOp::Open)
    }

    /// Collective open setting the mode.
    pub fn gopen(&mut self, file: u32, group: u32, mode: IoMode) -> &mut Self {
        self.io(
            file,
            IoOp::Gopen {
                group,
                mode,
                record_size: None,
            },
        )
    }

    /// Collective M_RECORD open with `record` bytes per node per round.
    pub fn gopen_record(&mut self, file: u32, group: u32, record: u64) -> &mut Self {
        self.io(
            file,
            IoOp::Gopen {
                group,
                mode: IoMode::MRecord,
                record_size: Some(record),
            },
        )
    }

    /// Collective mode change.
    pub fn setiomode(&mut self, file: u32, group: u32, mode: IoMode) -> &mut Self {
        self.io(
            file,
            IoOp::SetIoMode {
                group,
                mode,
                record_size: None,
            },
        )
    }

    /// Collective change to M_RECORD with `record` bytes per node per
    /// round.
    pub fn setiomode_record(&mut self, file: u32, group: u32, record: u64) -> &mut Self {
        self.io(
            file,
            IoOp::SetIoMode {
                group,
                mode: IoMode::MRecord,
                record_size: Some(record),
            },
        )
    }

    /// Read `size` bytes at the current pointer.
    pub fn read(&mut self, file: u32, size: u64) -> &mut Self {
        self.io(file, IoOp::Read { size })
    }

    /// `n` consecutive reads of `size` bytes.
    pub fn read_n(&mut self, file: u32, n: u32, size: u64) -> &mut Self {
        for _ in 0..n {
            self.read(file, size);
        }
        self
    }

    /// Write `size` bytes at the current pointer.
    pub fn write(&mut self, file: u32, size: u64) -> &mut Self {
        self.io(file, IoOp::Write { size })
    }

    /// `n` consecutive writes of `size` bytes.
    pub fn write_n(&mut self, file: u32, n: u32, size: u64) -> &mut Self {
        for _ in 0..n {
            self.write(file, size);
        }
        self
    }

    /// Seek to an absolute offset.
    pub fn seek(&mut self, file: u32, offset: u64) -> &mut Self {
        self.io(file, IoOp::Seek { offset })
    }

    /// Enable/disable client buffering.
    pub fn set_buffering(&mut self, file: u32, enabled: bool) -> &mut Self {
        self.io(file, IoOp::SetBuffering { enabled })
    }

    /// Close the file.
    pub fn close(&mut self, file: u32) -> &mut Self {
        self.io(file, IoOp::Close)
    }

    /// Flush the file.
    pub fn flush(&mut self, file: u32) -> &mut Self {
        self.io(file, IoOp::Flush)
    }

    /// Global barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.stmts.push(Stmt::Barrier);
        self
    }

    /// Broadcast from `root`.
    pub fn broadcast(&mut self, root: u32, bytes: u64) -> &mut Self {
        self.stmts.push(Stmt::Broadcast { root, bytes });
        self
    }

    /// Gather to `root`.
    pub fn gather(&mut self, root: u32, bytes_per_node: u64) -> &mut Self {
        self.stmts.push(Stmt::Gather {
            root,
            bytes_per_node,
        });
        self
    }

    /// Finish, yielding the statement list without spare capacity (a
    /// workload holds one list per node for its whole lifetime).
    pub fn build(mut self) -> Vec<Stmt> {
        self.stmts.shrink_to_fit();
        self.stmts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_statements() {
        let mut b = ProgramBuilder::new();
        b.open(0).read_n(0, 3, 100).barrier().write(0, 50).close(0);
        let stmts = b.build();
        assert_eq!(stmts.len(), 7);
        assert!(matches!(
            stmts[0],
            Stmt::Io {
                file: 0,
                op: IoOp::Open
            }
        ));
        assert!(matches!(stmts[4], Stmt::Barrier));
    }

    #[test]
    fn jittered_compute_is_deterministic() {
        let mut r1 = DetRng::new(5);
        let mut r2 = DetRng::new(5);
        let mut b1 = ProgramBuilder::new();
        let mut b2 = ProgramBuilder::new();
        b1.compute_jittered(Time::from_secs(10), 0.3, &mut r1);
        b2.compute_jittered(Time::from_secs(10), 0.3, &mut r2);
        assert_eq!(b1.build(), b2.build());
    }
}
