//! Request interarrival times.
//!
//! The vector-supercomputer studies the paper builds on characterized
//! I/O as "recurrent and predictable" from request interarrival
//! structure (Pasquale & Polyzos [12, 13]). This module computes
//! per-process interarrival gaps and the regularity metrics used to
//! make such claims: the coefficient of variation (CV ≈ 0 for
//! clockwork arrivals, ≈ 1 for Poisson, > 1 for bursty) and the lag-1
//! autocorrelation of successive gaps.

use sioscope_sim::{Pid, Time};
use sioscope_trace::TraceIndex;
use std::collections::BTreeMap;

/// Interarrival statistics for one process's request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Interarrival {
    /// Number of gaps (requests − 1).
    pub gaps: usize,
    /// Mean gap in seconds.
    pub mean_s: f64,
    /// Coefficient of variation of the gaps.
    pub cv: f64,
    /// Lag-1 autocorrelation of the gaps (`None` with < 3 gaps or
    /// zero variance).
    pub lag1: Option<f64>,
}

/// Compute interarrival statistics over a sequence of start times.
pub fn of_starts(starts: &[Time]) -> Option<Interarrival> {
    if starts.len() < 2 {
        return None;
    }
    let mut sorted: Vec<Time> = starts.to_vec();
    sorted.sort_unstable();
    let gaps: Vec<f64> = sorted
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let n = gaps.len() as f64;
    let mean = gaps.iter().sum::<f64>() / n;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    let lag1 = if gaps.len() >= 3 && var > 0.0 {
        let cov: f64 = gaps
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1.0);
        Some(cov / var)
    } else {
        None
    };
    Some(Interarrival {
        gaps: gaps.len(),
        mean_s: mean,
        cv,
        lag1,
    })
}

/// Per-process interarrival statistics from a [`TraceIndex`]: each
/// pid's start instants come straight off its postings list.
pub fn per_process_indexed(index: &TraceIndex) -> BTreeMap<Pid, Interarrival> {
    index
        .pids()
        .filter_map(|pid| of_starts(&index.starts_of_pid(pid)).map(|ia| (pid, ia)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn too_few_requests_yield_none() {
        assert!(of_starts(&[]).is_none());
        assert!(of_starts(&[t(1)]).is_none());
    }

    #[test]
    fn clockwork_arrivals_have_zero_cv() {
        let starts: Vec<Time> = (0..20).map(|i| t(i * 100)).collect();
        let ia = of_starts(&starts).expect("enough gaps");
        assert_eq!(ia.gaps, 19);
        assert!((ia.mean_s - 0.1).abs() < 1e-9);
        assert!(ia.cv < 1e-9, "cv {}", ia.cv);
    }

    #[test]
    fn bursty_arrivals_have_high_cv() {
        // Bursts of five back-to-back requests, long silence between.
        let mut starts = Vec::new();
        for burst in 0..4u64 {
            for i in 0..5u64 {
                starts.push(t(burst * 10_000 + i));
            }
        }
        let ia = of_starts(&starts).expect("enough gaps");
        assert!(ia.cv > 1.5, "cv {}", ia.cv);
    }

    #[test]
    fn alternating_gaps_have_negative_lag1() {
        // Gaps alternate short/long: successive gaps anticorrelate.
        let mut starts = vec![t(0)];
        let mut now = 0u64;
        for i in 0..40 {
            now += if i % 2 == 0 { 10 } else { 1000 };
            starts.push(t(now));
        }
        let ia = of_starts(&starts).expect("enough gaps");
        let lag1 = ia.lag1.expect("variance present");
        assert!(lag1 < -0.5, "lag1 {lag1}");
    }

    #[test]
    fn unsorted_starts_are_handled() {
        let ia = of_starts(&[t(300), t(100), t(200)]).expect("three starts");
        assert_eq!(ia.gaps, 2);
        assert!((ia.mean_s - 0.1).abs() < 1e-9);
    }

    #[test]
    fn per_process_splits_streams() {
        use sioscope_pfs::{IoMode, OpKind};
        use sioscope_sim::FileId;
        use sioscope_trace::IoEvent;
        let mut events = Vec::new();
        for pid in 0..2u32 {
            for i in 0..5u64 {
                events.push(IoEvent {
                    pid: Pid(pid),
                    file: FileId(0),
                    kind: OpKind::Read,
                    start: t(i * 50 + u64::from(pid)),
                    duration: t(1),
                    bytes: 1,
                    offset: 0,
                    mode: IoMode::MUnix,
                });
            }
        }
        let map = per_process_indexed(&TraceIndex::build(&events));
        assert_eq!(map.len(), 2);
        for ia in map.values() {
            assert_eq!(ia.gaps, 4);
        }
    }
}
