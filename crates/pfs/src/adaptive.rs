//! Adaptive policy selection.
//!
//! §5.4 of the paper points to PPFS (Huber et al. \[6\]) as the way out
//! of manual tuning: *"A file system that dynamically tunes its policy
//! to match the requirements of the application access patterns and
//! disk performance characteristics is a promising alternative."*
//!
//! This module implements that idea over the §7 policy mechanisms:
//! a per-(process, file) access-pattern detector classifies the
//! request stream on line, and the server enables read-ahead for
//! detected sequential read runs and write aggregation for detected
//! small sequential write runs — without the application asking.

/// On-line classification of one process's access stream to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Too few observations to judge.
    Unknown,
    /// Consecutive operations at consecutive offsets.
    Sequential,
    /// Constant non-zero gap between operations.
    Strided,
    /// No detected regularity.
    Random,
}

/// Streaming pattern detector. Feed it `(offset, len)` per operation;
/// it tracks the run structure with O(1) state.
#[derive(Debug, Clone)]
pub struct PatternDetector {
    last_end: Option<u64>,
    last_gap: Option<i64>,
    seq_run: u32,
    stride_run: u32,
    observations: u32,
}

impl Default for PatternDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl PatternDetector {
    /// A fresh detector.
    pub fn new() -> Self {
        PatternDetector {
            last_end: None,
            last_gap: None,
            seq_run: 0,
            stride_run: 0,
            observations: 0,
        }
    }

    /// Observe one operation.
    pub fn observe(&mut self, offset: u64, len: u64) {
        self.observations += 1;
        if let Some(end) = self.last_end {
            let gap = offset as i64 - end as i64;
            if gap == 0 {
                self.seq_run += 1;
                self.stride_run = 0;
                self.last_gap = Some(0);
            } else if self.last_gap == Some(gap) {
                self.stride_run += 1;
                self.seq_run = 0;
            } else {
                self.seq_run = 0;
                self.stride_run = 0;
                self.last_gap = Some(gap);
            }
        }
        self.last_end = Some(offset + len);
    }

    /// Current classification. Requires a run of at least
    /// `confidence` matching transitions before leaving `Unknown` /
    /// `Random`.
    pub fn pattern(&self, confidence: u32) -> AccessPattern {
        if self.observations < 2 {
            AccessPattern::Unknown
        } else if self.seq_run >= confidence {
            AccessPattern::Sequential
        } else if self.stride_run >= confidence {
            AccessPattern::Strided
        } else if self.observations <= confidence {
            AccessPattern::Unknown
        } else {
            AccessPattern::Random
        }
    }

    /// Length of the current sequential run.
    pub fn sequential_run(&self) -> u32 {
        self.seq_run
    }

    /// Number of operations observed.
    pub fn observations(&self) -> u32 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_detector_is_unknown() {
        let d = PatternDetector::new();
        assert_eq!(d.pattern(3), AccessPattern::Unknown);
        assert_eq!(d.observations(), 0);
    }

    #[test]
    fn sequential_run_detected() {
        let mut d = PatternDetector::new();
        let mut off = 0;
        for _ in 0..6 {
            d.observe(off, 100);
            off += 100;
        }
        assert_eq!(d.pattern(3), AccessPattern::Sequential);
        assert_eq!(d.sequential_run(), 5);
    }

    #[test]
    fn strided_run_detected() {
        let mut d = PatternDetector::new();
        // Read 100 bytes every 1000: gaps of 900 between end and next
        // offset.
        for i in 0..6u64 {
            d.observe(i * 1000, 100);
        }
        assert_eq!(d.pattern(3), AccessPattern::Strided);
    }

    #[test]
    fn irregular_stream_is_random() {
        let mut d = PatternDetector::new();
        for &off in &[0u64, 5000, 40, 9999, 123, 77777, 42, 31337] {
            d.observe(off, 10);
        }
        assert_eq!(d.pattern(3), AccessPattern::Random);
    }

    #[test]
    fn pattern_recovers_after_disruption() {
        let mut d = PatternDetector::new();
        let mut off = 0;
        for _ in 0..5 {
            d.observe(off, 100);
            off += 100;
        }
        // One wild seek...
        d.observe(1 << 30, 100);
        assert_ne!(d.pattern(3), AccessPattern::Sequential);
        // ...then sequential again from there.
        let mut off = (1 << 30) + 100;
        for _ in 0..5 {
            d.observe(off, 100);
            off += 100;
        }
        assert_eq!(d.pattern(3), AccessPattern::Sequential);
    }

    #[test]
    fn zero_gap_after_stride_resets_stride() {
        let mut d = PatternDetector::new();
        d.observe(0, 10);
        d.observe(100, 10); // gap 90
        d.observe(200, 10); // gap 90 -> stride_run 1
        d.observe(210, 10); // gap 0 -> sequential restart
        assert_eq!(d.sequential_run(), 1);
    }
}
