//! Per-file PFS state: mode, shared pointer, openers, serialization
//! token. Each process's private pointer and client cache live in the
//! server's handle table (`handles.rs`).

use crate::handles::PidSlots;
use crate::mode::IoMode;
use crate::stripe::StripeLayout;
use sioscope_sim::{Calendar, FileId, Pid};

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
    /// Current openers in pid order: collective rounds count them and
    /// rank their members by position.
    openers: Vec<Pid>,
    /// Per-process counter of collective operations issued on this
    /// file; used to key rendezvous groups so successive collective
    /// rounds never collide. A close keeps it.
    collective_seq: PidSlots<u32>,
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
            collective_seq: PidSlots::default(),
        }
    }

    /// Register `pid` as an opener. Returns `false` if already open
    /// by this pid.
    pub(crate) fn add_opener(&mut self, pid: Pid) -> bool {
        match self.openers.binary_search(&pid) {
            Ok(_) => false,
            Err(pos) => {
                self.openers.insert(pos, pid);
                true
            }
        }
    }

    /// Deregister `pid`. Returns `false` if it was not an opener.
    pub(crate) fn remove_opener(&mut self, pid: Pid) -> bool {
        match self.openers.binary_search(&pid) {
            Ok(i) => {
                self.openers.remove(i);
                true
            }
            Err(_) => false,
        }
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
        let c = self.collective_seq.get_or_default(pid);
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
    fn remove_opener_reranks_the_rest() {
        let mut f = file();
        for p in [2, 7, 4] {
            f.add_opener(Pid(p));
        }
        assert!(f.remove_opener(Pid(2)));
        assert!(!f.remove_opener(Pid(2)));
        assert_eq!(f.rank(Pid(4)), Some(0));
        assert_eq!(f.rank(Pid(7)), Some(1));
        assert_eq!(f.opener_count(), 2);
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
    fn collective_seq_counts_per_pid_and_outlives_a_close() {
        let mut f = file();
        assert_eq!(f.next_collective_seq(Pid(0)), 0);
        assert_eq!(f.next_collective_seq(Pid(0)), 1);
        assert_eq!(f.next_collective_seq(Pid(1)), 0);
        f.add_opener(Pid(0));
        f.remove_opener(Pid(0));
        assert_eq!(f.next_collective_seq(Pid(0)), 2);
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
