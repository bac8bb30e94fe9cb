//! Strongly-typed identifiers shared across the simulation stack.

use std::fmt;

/// A simulated process (one application process per compute node in the
/// paper's workloads, so `Pid` and `NodeId` usually coincide — but the
/// kernel keeps them distinct so multi-process-per-node configurations
/// remain expressible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl Pid {
    /// Index into dense per-process tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A compute or I/O node of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A scheduled job: one workload instance admitted by the batch
/// scheduler. Dedicated-mode runs have exactly one implicit job; the
/// multi-job driver tags every process, file and trace event with the
/// job it belongs to so shared-machine analytics can be split per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A file managed by the simulated parallel file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

impl FileId {
    /// Index into dense per-file tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_and_index() {
        assert!(Pid(1) < Pid(2));
        assert_eq!(Pid(7).index(), 7);
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(FileId(9).index(), 9);
        assert!(JobId(1) < JobId(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pid(1).to_string(), "pid1");
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(FileId(3).to_string(), "file3");
        assert_eq!(JobId(4).to_string(), "job4");
    }
}
