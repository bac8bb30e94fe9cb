//! Per-file PFS state: mode, pointers, openers, serialization token.

use crate::mode::IoMode;
use crate::stripe::StripeLayout;
use sioscope_sim::{Calendar, DetHashMap, FileId, Pid};

/// Server-side state for one PFS file.
#[derive(Debug, Clone)]
pub struct FileState {
    /// The file's id.
    pub id: FileId,
    /// Human-readable name (for traces and reports).
    pub name: String,
    /// Current access mode. `open` leaves an existing mode alone
    /// unless this is the first opener; `gopen`/`setiomode` set it.
    pub mode: IoMode,
    /// Fixed record size when `mode` is M_RECORD.
    pub record_size: Option<u64>,
    /// Current file size in bytes (writes extend it).
    pub size: u64,
    /// Stripe layout.
    pub layout: StripeLayout,
    /// Shared file pointer (M_GLOBAL/M_SYNC/M_LOG) and the base offset
    /// for M_RECORD rounds.
    pub shared_ptr: u64,
    /// The per-file atomicity token: M_UNIX/M_LOG requests serialize
    /// through this calendar.
    pub token: Calendar,
    openers: Vec<Pid>,
    private_ptrs: DetHashMap<Pid, u64>,
    /// Per-process counter of collective operations issued on this
    /// file; used to key rendezvous groups so successive collective
    /// rounds never collide.
    collective_seq: DetHashMap<Pid, u32>,
}

impl FileState {
    /// A new, empty file.
    pub(crate) fn new(id: FileId, name: String, layout: StripeLayout) -> Self {
        FileState {
            id,
            name,
            mode: IoMode::MUnix,
            record_size: None,
            size: 0,
            layout,
            shared_ptr: 0,
            token: Calendar::new(),
            openers: Vec::new(),
            private_ptrs: DetHashMap::default(),
            collective_seq: DetHashMap::default(),
        }
    }

    /// Register `pid` as an opener. Returns `false` if already open
    /// by this pid.
    pub(crate) fn add_opener(&mut self, pid: Pid) -> bool {
        if self.openers.contains(&pid) {
            return false;
        }
        let pos = self.openers.partition_point(|&p| p < pid);
        self.openers.insert(pos, pid);
        self.private_ptrs.insert(pid, 0);
        true
    }

    /// Deregister `pid`. Returns `false` if it was not an opener.
    pub(crate) fn remove_opener(&mut self, pid: Pid) -> bool {
        match self.openers.iter().position(|&p| p == pid) {
            Some(i) => {
                self.openers.remove(i);
                self.private_ptrs.remove(&pid);
                true
            }
            None => false,
        }
    }

    /// Is the file currently open by `pid`?
    pub(crate) fn is_open_by(&self, pid: Pid) -> bool {
        self.openers.binary_search(&pid).is_ok()
    }

    /// Number of current openers.
    pub(crate) fn opener_count(&self) -> u32 {
        self.openers.len() as u32
    }

    /// Rank of `pid` among current openers (node order for M_RECORD /
    /// M_SYNC).
    pub(crate) fn rank(&self, pid: Pid) -> Option<u32> {
        self.openers.binary_search(&pid).ok().map(|i| i as u32)
    }

    /// This process's private pointer.
    pub fn private_ptr(&self, pid: Pid) -> u64 {
        self.private_ptrs.get(&pid).copied().unwrap_or(0)
    }

    /// Set this process's private pointer.
    pub(crate) fn set_private_ptr(&mut self, pid: Pid, offset: u64) {
        self.private_ptrs.insert(pid, offset);
    }

    /// Advance this process's private pointer by `len`, returning the
    /// offset the transfer started at.
    pub(crate) fn advance_private(&mut self, pid: Pid, len: u64) -> u64 {
        let p = self.private_ptrs.entry(pid).or_insert(0);
        let at = *p;
        *p += len;
        at
    }

    /// Advance the shared pointer by `len`, returning its old value.
    pub(crate) fn advance_shared(&mut self, len: u64) -> u64 {
        let at = self.shared_ptr;
        self.shared_ptr += len;
        at
    }

    /// Extend the file size to cover a write of `len` at `offset`.
    pub(crate) fn note_write(&mut self, offset: u64, len: u64) {
        self.size = self.size.max(offset + len);
    }

    /// Next collective-round sequence number for `pid` (post-
    /// incremented). All participants issue the same collective ops in
    /// the same order, so equal sequence numbers identify one round.
    pub(crate) fn next_collective_seq(&mut self, pid: Pid) -> u32 {
        let c = self.collective_seq.entry(pid).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Rendezvous key for collective round `seq` of this file.
    pub(crate) fn rendezvous_key(&self, seq: u32) -> u64 {
        (u64::from(self.id.0) << 32) | u64::from(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> FileState {
        FileState::new(FileId(0), "f".into(), StripeLayout::paragon_default())
    }

    #[test]
    fn openers_sorted_and_ranked() {
        let mut f = file();
        assert!(f.add_opener(Pid(5)));
        assert!(f.add_opener(Pid(1)));
        assert!(f.add_opener(Pid(3)));
        assert!(!f.add_opener(Pid(3)), "double open rejected");
        assert_eq!(f.rank(Pid(1)), Some(0));
        assert_eq!(f.rank(Pid(3)), Some(1));
        assert_eq!(f.rank(Pid(5)), Some(2));
        assert_eq!(f.rank(Pid(2)), None);
        assert_eq!(f.opener_count(), 3);
    }

    #[test]
    fn remove_opener_clears_pointer() {
        let mut f = file();
        f.add_opener(Pid(2));
        f.set_private_ptr(Pid(2), 100);
        assert!(f.remove_opener(Pid(2)));
        assert!(!f.remove_opener(Pid(2)));
        assert_eq!(f.private_ptr(Pid(2)), 0, "pointer reset after close");
    }

    #[test]
    fn private_pointer_advances() {
        let mut f = file();
        f.add_opener(Pid(0));
        assert_eq!(f.advance_private(Pid(0), 10), 0);
        assert_eq!(f.advance_private(Pid(0), 5), 10);
        assert_eq!(f.private_ptr(Pid(0)), 15);
        f.set_private_ptr(Pid(0), 100);
        assert_eq!(f.advance_private(Pid(0), 1), 100);
    }

    #[test]
    fn shared_pointer_advances() {
        let mut f = file();
        assert_eq!(f.advance_shared(100), 0);
        assert_eq!(f.advance_shared(50), 100);
        assert_eq!(f.shared_ptr, 150);
    }

    #[test]
    fn write_extends_size() {
        let mut f = file();
        f.note_write(100, 50);
        assert_eq!(f.size, 150);
        f.note_write(0, 10);
        assert_eq!(f.size, 150, "size never shrinks");
    }

    #[test]
    fn collective_seq_counts_per_pid() {
        let mut f = file();
        assert_eq!(f.next_collective_seq(Pid(0)), 0);
        assert_eq!(f.next_collective_seq(Pid(0)), 1);
        assert_eq!(f.next_collective_seq(Pid(1)), 0);
        let k0 = f.rendezvous_key(0);
        let k1 = f.rendezvous_key(1);
        assert_ne!(k0, k1);
    }

    #[test]
    fn rendezvous_keys_distinct_across_files() {
        let f0 = FileState::new(FileId(0), "a".into(), StripeLayout::paragon_default());
        let f1 = FileState::new(FileId(1), "b".into(), StripeLayout::paragon_default());
        assert_ne!(f0.rendezvous_key(0), f1.rendezvous_key(0));
    }
}
