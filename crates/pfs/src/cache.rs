//! Client-side per-process, per-file buffering state.
//!
//! OSF/1 buffered file reads through a client cache: a small read
//! fetches a whole buffer block, and subsequent reads inside the block
//! are memory copies. PRISM's developers disabled this buffering for
//! the restart file in version C — the paper shows the consequence
//! (Table 5: read jumps to 83.9% of I/O time because every sub-40-byte
//! header read now pays a full disk access). `ClientFileState`
//! models exactly that switch, plus the prefetch/write-aggregation
//! policies of [`crate::policy`].

use crate::adaptive::PatternDetector;
use sioscope_sim::Time;

/// Result of probing the read cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadProbe {
    /// The whole range is in the cached block: pure memory copy.
    Hit,
    /// The range is inside a block that was prefetched; the fetch
    /// completes at the stored time.
    PrefetchHit {
        /// When the in-flight prefetched block arrives.
        ready_at: Time,
    },
    /// Not cached: the caller must fetch from the I/O nodes.
    Miss,
}

/// A pending coalesced write range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteBuf {
    /// File offset where the buffered range begins.
    pub start: u64,
    /// Buffered length in bytes.
    pub len: u64,
}

impl WriteBuf {
    /// End offset (exclusive).
    pub(crate) fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Per-(process, file) client state.
#[derive(Debug, Clone)]
pub(crate) struct ClientFileState {
    /// Is read buffering enabled? Defaults to `true` (OSF/1 default);
    /// PRISM version C turns it off for the restart file.
    pub buffering: bool,
    /// The currently cached read block, as `(offset, len)`.
    cached: Option<(u64, u64)>,
    /// An in-flight prefetched block: `(offset, len, ready_at)`.
    prefetched: Option<(u64, u64, Time)>,
    /// Pending coalesced writes (aggregation policy).
    pub write_buf: Option<WriteBuf>,
    /// When the last asynchronous write-behind drain completes
    /// (flush/close must wait for it).
    pub drain_done_at: Time,
    /// Offset one past the end of the last read, for sequential-
    /// pattern detection.
    last_read_end: Option<u64>,
    /// On-line pattern detector over the read stream (adaptive
    /// policy).
    pub read_pattern: PatternDetector,
    /// On-line pattern detector over the write stream.
    pub write_pattern: PatternDetector,
}

impl Default for ClientFileState {
    fn default() -> Self {
        ClientFileState {
            buffering: true,
            cached: None,
            prefetched: None,
            write_buf: None,
            drain_done_at: Time::ZERO,
            last_read_end: None,
            read_pattern: PatternDetector::new(),
            write_pattern: PatternDetector::new(),
        }
    }
}

impl ClientFileState {
    /// Probe the cache for a read of `[offset, offset+len)`.
    pub(crate) fn probe_read(&self, offset: u64, len: u64) -> ReadProbe {
        if !self.buffering || len == 0 {
            return ReadProbe::Miss;
        }
        if let Some((s, l)) = self.cached {
            if offset >= s && offset + len <= s + l {
                return ReadProbe::Hit;
            }
        }
        if let Some((s, l, ready)) = self.prefetched {
            if offset >= s && offset + len <= s + l {
                return ReadProbe::PrefetchHit { ready_at: ready };
            }
        }
        ReadProbe::Miss
    }

    /// Install a freshly fetched block as the cached block.
    pub(crate) fn install_block(&mut self, offset: u64, len: u64) {
        self.cached = Some((offset, len));
    }

    /// Record an in-flight prefetch of `[offset, offset+len)` that
    /// completes at `ready_at`.
    pub(crate) fn install_prefetch(&mut self, offset: u64, len: u64, ready_at: Time) {
        self.prefetched = Some((offset, len, ready_at));
    }

    /// Promote the prefetched block to the cached block (called when a
    /// prefetch hit is consumed). Returns the block range.
    pub(crate) fn promote_prefetch(&mut self) -> Option<(u64, u64)> {
        let (s, l, _) = self.prefetched.take()?;
        self.cached = Some((s, l));
        Some((s, l))
    }

    /// Is a read at `offset` sequential with respect to the previous
    /// read?
    pub(crate) fn read_is_sequential(&self, offset: u64) -> bool {
        self.last_read_end == Some(offset)
    }

    /// Record the end of a completed read.
    pub(crate) fn note_read(&mut self, offset: u64, len: u64) {
        self.last_read_end = Some(offset + len);
    }

    /// Try to append a write of `[offset, offset+len)` to the
    /// aggregation buffer. Returns `true` on success; `false` when the
    /// write is not contiguous with the buffered range (caller must
    /// drain first).
    pub(crate) fn append_write(&mut self, offset: u64, len: u64) -> bool {
        match &mut self.write_buf {
            None => {
                self.write_buf = Some(WriteBuf { start: offset, len });
                true
            }
            Some(buf) if buf.end() == offset => {
                buf.len += len;
                true
            }
            Some(_) => false,
        }
    }

    /// Take the pending write buffer for draining.
    pub(crate) fn take_write_buf(&mut self) -> Option<WriteBuf> {
        self.write_buf.take()
    }

    /// Drop all cached read state (close, or buffering turned off).
    pub(crate) fn invalidate_reads(&mut self) {
        self.cached = None;
        self.prefetched = None;
        self.last_read_end = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses() {
        let c = ClientFileState::default();
        assert_eq!(c.probe_read(0, 10), ReadProbe::Miss);
    }

    #[test]
    fn installed_block_hits_within_range() {
        let mut c = ClientFileState::default();
        c.install_block(100, 50);
        assert_eq!(c.probe_read(100, 50), ReadProbe::Hit);
        assert_eq!(c.probe_read(120, 10), ReadProbe::Hit);
        assert_eq!(c.probe_read(90, 20), ReadProbe::Miss);
        assert_eq!(c.probe_read(140, 20), ReadProbe::Miss);
    }

    #[test]
    fn disabled_buffering_never_hits() {
        let mut c = ClientFileState::default();
        c.install_block(0, 1000);
        c.buffering = false;
        assert_eq!(c.probe_read(0, 10), ReadProbe::Miss);
    }

    #[test]
    fn prefetch_hit_reports_ready_time() {
        let mut c = ClientFileState::default();
        let t = Time::from_millis(30);
        c.install_prefetch(200, 100, t);
        assert_eq!(
            c.probe_read(220, 10),
            ReadProbe::PrefetchHit { ready_at: t }
        );
        let promoted = c.promote_prefetch().unwrap();
        assert_eq!(promoted, (200, 100));
        assert_eq!(c.probe_read(220, 10), ReadProbe::Hit);
        assert!(c.promote_prefetch().is_none());
    }

    #[test]
    fn sequential_detection() {
        let mut c = ClientFileState::default();
        assert!(!c.read_is_sequential(0));
        c.note_read(0, 100);
        assert!(c.read_is_sequential(100));
        assert!(!c.read_is_sequential(50));
    }

    #[test]
    fn write_buffer_coalesces_contiguous() {
        let mut c = ClientFileState::default();
        assert!(c.append_write(0, 10));
        assert!(c.append_write(10, 20));
        assert_eq!(c.write_buf, Some(WriteBuf { start: 0, len: 30 }));
        assert!(!c.append_write(100, 5), "gap forces drain");
        let buf = c.take_write_buf().unwrap();
        assert_eq!(buf.end(), 30);
        assert!(c.write_buf.is_none());
    }

    #[test]
    fn invalidate_clears_read_state() {
        let mut c = ClientFileState::default();
        c.install_block(0, 10);
        c.note_read(0, 10);
        c.invalidate_reads();
        assert_eq!(c.probe_read(0, 5), ReadProbe::Miss);
        assert!(!c.read_is_sequential(10));
    }

    #[test]
    fn zero_length_read_misses() {
        let mut c = ClientFileState::default();
        c.install_block(0, 10);
        assert_eq!(c.probe_read(0, 0), ReadProbe::Miss);
    }
}
