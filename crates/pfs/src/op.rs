//! PFS operation requests and completions.

use crate::mode::IoMode;
use sioscope_sim::{Pid, Time};
use std::fmt;

/// One file-system call, as issued by an application process. The
/// target file travels alongside (see [`crate::Pfs::submit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// `open()` — non-collective metadata operation; serialized on the
    /// metadata server. Opens the file in [`IoMode::MUnix`].
    Open,
    /// `gopen()` — collective open by `group` processes; pays the
    /// metadata cost once and sets the I/O mode as a side effect
    /// (§5.1: "Because it also sets the file mode, the gopen call
    /// eliminates expensive file mode operations").
    Gopen {
        /// Number of processes participating in this collective open.
        group: u32,
        /// Mode the file is opened in.
        mode: IoMode,
        /// Fixed record size; required iff `mode` is M_RECORD.
        record_size: Option<u64>,
    },
    /// `setiomode()` — collective mode change by `group` processes.
    SetIoMode {
        /// Number of participating processes.
        group: u32,
        /// New mode.
        mode: IoMode,
        /// Fixed record size; required iff `mode` is M_RECORD.
        record_size: Option<u64>,
    },
    /// Read `size` bytes at the current pointer (private or shared,
    /// per the file's mode).
    Read {
        /// Request size in bytes.
        size: u64,
    },
    /// Write `size` bytes at the current pointer.
    Write {
        /// Request size in bytes.
        size: u64,
    },
    /// Set this process's private file pointer to an absolute offset.
    Seek {
        /// Absolute byte offset.
        offset: u64,
    },
    /// Enable or disable client-side buffering for this process's view
    /// of the file (PRISM version C disabled buffering on the restart
    /// file, §5.1).
    SetBuffering {
        /// `true` to buffer reads through the client cache.
        enabled: bool,
    },
    /// Flush client-side state to the I/O nodes.
    Flush,
    /// Close the file.
    Close,
}

impl IoOp {
    /// The trace/table category this op falls into.
    pub fn kind(&self) -> OpKind {
        match self {
            IoOp::Open => OpKind::Open,
            IoOp::Gopen { .. } => OpKind::Gopen,
            IoOp::SetIoMode { .. } => OpKind::Iomode,
            IoOp::Read { .. } => OpKind::Read,
            IoOp::Write { .. } => OpKind::Write,
            IoOp::Seek { .. } => OpKind::Seek,
            IoOp::SetBuffering { .. } => OpKind::Iomode,
            IoOp::Flush => OpKind::Flush,
            IoOp::Close => OpKind::Close,
        }
    }
}

/// Operation categories — exactly the rows of the paper's Tables 2, 3
/// and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Non-collective `open`.
    Open,
    /// Collective `gopen`.
    Gopen,
    /// Data read.
    Read,
    /// Pointer seek.
    Seek,
    /// Data write.
    Write,
    /// `setiomode` / buffering control.
    Iomode,
    /// Explicit flush.
    Flush,
    /// File close.
    Close,
}

impl OpKind {
    /// All categories in the paper's table row order.
    pub fn all() -> [OpKind; 8] {
        [
            OpKind::Open,
            OpKind::Gopen,
            OpKind::Read,
            OpKind::Seek,
            OpKind::Write,
            OpKind::Iomode,
            OpKind::Flush,
            OpKind::Close,
        ]
    }

    /// The row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Gopen => "gopen",
            OpKind::Read => "read",
            OpKind::Seek => "seek",
            OpKind::Write => "write",
            OpKind::Iomode => "iomode",
            OpKind::Flush => "flush",
            OpKind::Close => "close",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A finished operation for one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The process whose call completed.
    pub pid: Pid,
    /// Completion instant. The caller computes the client-observed
    /// duration as `finish - issue_time`, which deliberately includes
    /// rendezvous waits and token-queueing delay — Pablo measured
    /// wall-clock call durations at the client.
    pub finish: Time,
    /// Bytes actually transferred for this process.
    pub bytes: u64,
    /// File offset the transfer touched (zero for control operations);
    /// feeds the Pablo-style file-region summaries.
    pub offset: u64,
    /// Category for trace accounting.
    pub kind: OpKind,
    /// The file's access mode when the operation completed — the
    /// paper's third characterization dimension (§6: request size,
    /// I/O parallelism, access modes).
    pub mode: IoMode,
}

/// Result of submitting an op to the PFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The op (and possibly a whole collective group) finished;
    /// completions may cover several processes.
    Done(Vec<Completion>),
    /// The caller joined a still-forming collective group and must
    /// block; its completion will be delivered by the arrival that
    /// completes the group.
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_table_rows() {
        assert_eq!(IoOp::Open.kind(), OpKind::Open);
        assert_eq!(
            IoOp::Gopen {
                group: 4,
                mode: IoMode::MUnix,
                record_size: None
            }
            .kind(),
            OpKind::Gopen
        );
        assert_eq!(IoOp::Read { size: 10 }.kind(), OpKind::Read);
        assert_eq!(IoOp::Seek { offset: 0 }.kind(), OpKind::Seek);
        assert_eq!(IoOp::Flush.kind(), OpKind::Flush);
        assert_eq!(IoOp::Close.kind(), OpKind::Close);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = OpKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["open", "gopen", "read", "seek", "write", "iomode", "flush", "close"]
        );
    }
}
