//! Time-resolved throughput and burstiness.
//!
//! The vector-supercomputer studies the paper builds on (Miller & Katz
//! [9], Pasquale & Polyzos [12, 13]) characterized scientific I/O as
//! "highly regular, cyclical, and bursty"; the paper's own Figures 3–5
//! and 8–9 are the temporal evidence for the Paragon. This module
//! computes the windowed-throughput series behind such plots plus the
//! burstiness metrics used to compare them.

use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use sioscope_trace::{IoEvent, TraceIndex};

/// Windowed throughput series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthSeries {
    /// Window length.
    pub window: Time,
    /// Bytes completed per window, indexed by window number from t=0.
    pub bytes_per_window: Vec<u64>,
}

impl BandwidthSeries {
    /// Bucket every data event's bytes into the window containing its
    /// completion instant.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn build(events: &[IoEvent], window: Time) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let end = events
            .iter()
            .filter(|e| e.is_data())
            .map(|e| e.end())
            .fold(Time::ZERO, Time::max);
        let n = (end.as_nanos() / window.as_nanos() + 1) as usize;
        let mut bytes_per_window = vec![0u64; n.min(10_000_000)];
        for e in events.iter().filter(|e| e.is_data() && e.bytes > 0) {
            let idx = (e.end().as_nanos() / window.as_nanos()) as usize;
            if let Some(slot) = bytes_per_window.get_mut(idx) {
                *slot += e.bytes;
            }
        }
        BandwidthSeries {
            window,
            bytes_per_window,
        }
    }

    /// Build from a [`TraceIndex`] using the per-kind completion-order
    /// columns — no event scan. Identical to [`build`]
    /// (same series length, same u64 bucket sums): byte adds commute,
    /// and the zero-byte filter in the scan only skips no-op adds.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    ///
    /// [`build`]: BandwidthSeries::build
    pub fn from_index(index: &TraceIndex, window: Time) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let end = [OpKind::Read, OpKind::Write]
            .into_iter()
            .filter_map(|k| index.last_end_of(k))
            .fold(Time::ZERO, Time::max);
        let n = (end.as_nanos() / window.as_nanos() + 1) as usize;
        let mut bytes_per_window = vec![0u64; n.min(10_000_000)];
        for k in [OpKind::Read, OpKind::Write] {
            for (e, b) in index.end_bytes_of(k) {
                let idx = (e.as_nanos() / window.as_nanos()) as usize;
                if let Some(slot) = bytes_per_window.get_mut(idx) {
                    *slot += b;
                }
            }
        }
        BandwidthSeries {
            window,
            bytes_per_window,
        }
    }

    /// Peak window throughput (bytes/s).
    pub fn peak_bps(&self) -> f64 {
        self.bytes_per_window
            .iter()
            .map(|&b| b as f64 / self.window.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Mean throughput over the whole series (bytes/s).
    pub(crate) fn mean_bps(&self) -> f64 {
        if self.bytes_per_window.is_empty() {
            return 0.0;
        }
        let total: u64 = self.bytes_per_window.iter().sum();
        total as f64 / (self.window.as_secs_f64() * self.bytes_per_window.len() as f64)
    }

    /// Peak-to-mean ratio — the classic burstiness indicator (1 =
    /// perfectly smooth; large = bursty).
    pub fn burstiness(&self) -> f64 {
        let mean = self.mean_bps();
        if mean <= 0.0 {
            0.0
        } else {
            self.peak_bps() / mean
        }
    }

    /// Fraction of windows with any I/O at all — duty cycle of the
    /// I/O system.
    pub fn duty_cycle(&self) -> f64 {
        if self.bytes_per_window.is_empty() {
            return 0.0;
        }
        let active = self.bytes_per_window.iter().filter(|&&b| b > 0).count();
        active as f64 / self.bytes_per_window.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::{IoMode, OpKind};
    use sioscope_sim::{FileId, Pid};

    fn ev(kind: OpKind, start_s: u64, bytes: u64) -> IoEvent {
        IoEvent {
            pid: Pid(0),
            file: FileId(0),
            kind,
            start: Time::from_secs(start_s),
            duration: Time::from_millis(10),
            bytes,
            offset: 0,
            mode: IoMode::MUnix,
        }
    }

    #[test]
    fn buckets_by_completion_window() {
        let events = vec![
            ev(OpKind::Read, 0, 1000),
            ev(OpKind::Read, 0, 500),
            ev(OpKind::Write, 10, 2000),
        ];
        let s = BandwidthSeries::build(&events, Time::from_secs(5));
        assert_eq!(s.bytes_per_window[0], 1500);
        assert_eq!(s.bytes_per_window[2], 2000);
        assert!((s.peak_bps() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn control_ops_ignored() {
        let events = vec![ev(OpKind::Open, 0, 0), ev(OpKind::Seek, 1, 0)];
        let s = BandwidthSeries::build(&events, Time::from_secs(1));
        assert_eq!(s.bytes_per_window.iter().sum::<u64>(), 0);
        assert_eq!(s.duty_cycle(), 0.0);
    }

    #[test]
    fn burstiness_of_checkpoint_pattern() {
        // Five bursts of 1 MB separated by 100 s of silence: highly
        // bursty. A continuous stream: burstiness ~1.
        let mut bursty = Vec::new();
        for b in 0..5u64 {
            bursty.push(ev(OpKind::Write, b * 100, 1 << 20));
        }
        let s_bursty = BandwidthSeries::build(&bursty, Time::from_secs(10));
        let mut smooth = Vec::new();
        for t in 0..40u64 {
            smooth.push(ev(OpKind::Write, t * 10, 1 << 20));
        }
        let s_smooth = BandwidthSeries::build(&smooth, Time::from_secs(10));
        assert!(s_bursty.burstiness() > 3.0, "{}", s_bursty.burstiness());
        assert!(s_smooth.burstiness() < 1.5, "{}", s_smooth.burstiness());
        assert!(s_bursty.duty_cycle() < 0.2);
        assert!(s_smooth.duty_cycle() > 0.9);
    }

    #[test]
    fn empty_series() {
        let s = BandwidthSeries::build(&[], Time::from_secs(1));
        assert_eq!(s.bytes_per_window.len(), 1); // one empty window at t=0
        assert_eq!(s.mean_bps(), 0.0);
        assert_eq!(s.burstiness(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        BandwidthSeries::build(&[], Time::ZERO);
    }
}
