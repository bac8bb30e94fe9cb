//! The I/O-node block cache.
//!
//! Each Paragon I/O node ran a full OSF/1 server with a file block
//! cache in front of its RAID-3 array. Blocks recently read from, or
//! written to, the array are served from I/O-node memory — which is
//! why 128 compute nodes each re-reading the same small initialization
//! file (the ESCAT/PRISM version-A pattern) was slow because of
//! *serialization*, not because the array performed thousands of
//! physical reads.
//!
//! The cache is a FIFO set of `(file, block)` pairs with fixed
//! capacity, at stripe-unit granularity.

use sioscope_sim::{DetHashSet, FileId};
use std::collections::VecDeque;

/// FIFO block cache for one I/O node.
#[derive(Debug, Clone)]
pub(crate) struct IonCache {
    capacity: usize,
    present: DetHashSet<(FileId, u64)>,
    order: VecDeque<(FileId, u64)>,
}

impl IonCache {
    /// A cache holding at most `capacity` blocks (zero disables
    /// caching entirely).
    pub(crate) fn new(capacity: usize) -> Self {
        IonCache {
            capacity,
            present: DetHashSet::default(),
            order: VecDeque::new(),
        }
    }

    /// Probe for a block. Does not insert.
    pub(crate) fn probe(&self, file: FileId, block: u64) -> bool {
        self.present.contains(&(file, block))
    }

    /// Insert a block (after a read miss brings it in, or a write
    /// deposits it). Evicts the oldest block when full.
    pub(crate) fn insert(&mut self, file: FileId, block: u64) {
        if self.capacity == 0 || self.present.contains(&(file, block)) {
            return;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.present.remove(&old);
            }
        }
        self.present.insert((file, block));
        self.order.push_back((file, block));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_probe_hits() {
        let mut c = IonCache::new(4);
        assert!(!c.probe(FileId(0), 0));
        c.insert(FileId(0), 0);
        assert!(c.probe(FileId(0), 0));
        assert!(!c.probe(FileId(0), 1));
        assert!(!c.probe(FileId(1), 0));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = IonCache::new(2);
        c.insert(FileId(0), 0);
        c.insert(FileId(0), 1);
        c.insert(FileId(0), 2); // evicts block 0
        assert!(!c.probe(FileId(0), 0));
        assert!(c.probe(FileId(0), 1));
        assert!(c.probe(FileId(0), 2));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut c = IonCache::new(2);
        c.insert(FileId(0), 7);
        c.insert(FileId(0), 7);
        // A second copy of block 7 would be evicted by block 8.
        c.insert(FileId(0), 8);
        assert!(c.probe(FileId(0), 7));
        assert!(c.probe(FileId(0), 8));
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = IonCache::new(0);
        c.insert(FileId(0), 0);
        assert!(!c.probe(FileId(0), 0));
    }
}
