//! The six PFS file access modes and their semantic axes.

use std::fmt;

/// A PFS file access mode (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMode {
    /// Standard UNIX sharing semantics; private pointers; atomicity
    /// preserved (serializing); any request size. The default.
    MUnix,
    /// Private pointers; fixed-size records; node-ordered concurrent
    /// operation. The record size is fixed at `setiomode`/`gopen` time.
    MRecord,
    /// Private pointers; variable sizes; no atomicity preserved.
    /// Introduced in OSF/1 R1.3.
    MAsync,
    /// Shared pointer; all processes access the same data
    /// synchronously; identical requests aggregated to one disk I/O.
    MGlobal,
    /// Shared pointer; node-ordered; synchronized; variable sizes.
    MSync,
    /// Shared pointer; first-come-first-served; unsynchronized;
    /// variable sizes. Used for stdin/stdout/stderr.
    MLog,
}

impl IoMode {
    /// Does every process carry its own file pointer?
    pub fn private_pointer(self) -> bool {
        matches!(self, IoMode::MUnix | IoMode::MRecord | IoMode::MAsync)
    }

    /// Does the mode preserve request atomicity by serializing
    /// concurrent requests through a per-file token?
    pub(crate) fn serializes(self) -> bool {
        matches!(self, IoMode::MUnix | IoMode::MLog)
    }

    /// All modes, in the paper's presentation order.
    pub fn all() -> [IoMode; 6] {
        [
            IoMode::MUnix,
            IoMode::MRecord,
            IoMode::MAsync,
            IoMode::MGlobal,
            IoMode::MSync,
            IoMode::MLog,
        ]
    }

    /// The PFS-style name (`M_UNIX`, `M_RECORD`, ...).
    pub fn name(self) -> &'static str {
        match self {
            IoMode::MUnix => "M_UNIX",
            IoMode::MRecord => "M_RECORD",
            IoMode::MAsync => "M_ASYNC",
            IoMode::MGlobal => "M_GLOBAL",
            IoMode::MSync => "M_SYNC",
            IoMode::MLog => "M_LOG",
        }
    }

    /// Whether the mode exists in the given OSF/1 release. M_ASYNC was
    /// introduced with OSF/1 R1.3 (§4.1: "Intel introduced the more
    /// efficient M_ASYNC mode in the OSF/1 1.3 operating system
    /// release").
    pub(crate) fn available_in(self, os: OsRelease) -> bool {
        match self {
            IoMode::MAsync => os >= OsRelease::Osf13,
            _ => true,
        }
    }
}

impl fmt::Display for IoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The operating-system releases the study spanned (Table 1: versions
/// A and B ran under OSF 1.2, version C under OSF 1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OsRelease {
    /// OSF/1 R1.2 — no M_ASYNC.
    Osf12,
    /// OSF/1 R1.3 — adds M_ASYNC.
    Osf13,
}

impl fmt::Display for OsRelease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsRelease::Osf12 => f.write_str("OSF/1 R1.2"),
            OsRelease::Osf13 => f.write_str("OSF/1 R1.3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_privacy_matches_paper() {
        assert!(IoMode::MUnix.private_pointer());
        assert!(IoMode::MRecord.private_pointer());
        assert!(IoMode::MAsync.private_pointer());
        assert!(!IoMode::MGlobal.private_pointer());
        assert!(!IoMode::MSync.private_pointer());
        assert!(!IoMode::MLog.private_pointer());
    }

    #[test]
    fn serialization_matches_paper() {
        assert!(IoMode::MUnix.serializes());
        assert!(!IoMode::MAsync.serializes());
        assert!(IoMode::MLog.serializes());
    }

    #[test]
    fn masync_needs_osf13() {
        assert!(!IoMode::MAsync.available_in(OsRelease::Osf12));
        assert!(IoMode::MAsync.available_in(OsRelease::Osf13));
        assert!(IoMode::MUnix.available_in(OsRelease::Osf12));
    }

    #[test]
    fn names_render() {
        assert_eq!(IoMode::MUnix.to_string(), "M_UNIX");
        assert_eq!(IoMode::MRecord.to_string(), "M_RECORD");
        assert_eq!(IoMode::all().len(), 6);
    }
}
