//! Time-indexed disturbance windows.
//!
//! Fault injection needs to answer "what multiplicative slowdown is in
//! force at instant `t`?" for resources whose calendars are reserved
//! analytically (possibly into the simulated future). A
//! [`PiecewiseFactor`] is the kernel-level primitive for that: a set of
//! half-open windows `[start, end)` each carrying a factor, queryable
//! at any instant. Overlapping windows compose multiplicatively, so two
//! simultaneous 2× slowdowns yield a 4× slowdown — the same convention
//! queueing models use for independent service-rate degradations.
//!
//! The type is policy-free: it neither knows what a "fault" is nor who
//! owns the resource. The `sioscope-faults` crate builds these from
//! declarative fault schedules.

use crate::time::Time;

/// A set of factor-carrying windows over simulated time.
#[derive(Debug, Clone, Default)]
pub struct PiecewiseFactor {
    /// `(start, end, factor)` windows; `end` is exclusive. Kept in
    /// insertion order — queries scan, which is exact and fast for the
    /// handful of windows a fault schedule produces.
    windows: Vec<(Time, Time, f64)>,
    /// Cached `[min start, max end)` envelope of all windows: queries
    /// outside it return 1.0 without touching the window list, which
    /// is the common case for a simulation that spends most of its
    /// clock outside fault windows. Purely derived — rebuilt on push
    /// and excluded from equality.
    envelope: Option<(Time, Time)>,
}

impl PartialEq for PiecewiseFactor {
    fn eq(&self, other: &Self) -> bool {
        self.windows == other.windows
    }
}

impl PiecewiseFactor {
    /// The identity timeline: factor 1 everywhere.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Add a window `[start, end)` with the given factor. Windows with
    /// `end <= start` or a non-finite / non-positive factor are
    /// ignored rather than poisoning every query.
    pub fn push_window(&mut self, start: Time, end: Time, factor: f64) {
        if end <= start || !factor.is_finite() || factor <= 0.0 {
            return;
        }
        self.envelope = match self.envelope {
            Some((lo, hi)) => Some((lo.min(start), hi.max(end))),
            None if self.windows.is_empty() => Some((start, end)),
            // Windows predate the cache (deserialized timeline):
            // leave it cold rather than invent a wrong envelope.
            None => None,
        };
        self.windows.push((start, end, factor));
    }

    /// The combined factor in force at instant `t` (product of all
    /// windows containing `t`); `1.0` when none do.
    pub fn at(&self, t: Time) -> f64 {
        if let Some((lo, hi)) = self.envelope {
            if t < lo || t >= hi {
                return 1.0;
            }
        }
        let mut f = 1.0;
        for &(start, end, factor) in &self.windows {
            if t >= start && t < end {
                f *= factor;
            }
        }
        f
    }

    /// Every instant at which the combined factor may change (window
    /// starts and ends), unsorted and possibly duplicated.
    pub fn transitions(&self) -> impl Iterator<Item = Time> + '_ {
        self.windows
            .iter()
            .flat_map(|&(start, end, _)| [start, end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_everywhere_when_empty() {
        let p = PiecewiseFactor::identity();
        assert_eq!(p.at(Time::ZERO), 1.0);
        assert_eq!(p.at(Time::from_secs(100)), 1.0);
    }

    #[test]
    fn single_window_is_half_open() {
        let mut p = PiecewiseFactor::identity();
        p.push_window(Time::from_secs(10), Time::from_secs(20), 2.0);
        assert_eq!(p.at(Time::from_secs(9)), 1.0);
        assert_eq!(p.at(Time::from_secs(10)), 2.0);
        assert_eq!(p.at(Time::from_secs(19)), 2.0);
        assert_eq!(p.at(Time::from_secs(20)), 1.0);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let mut p = PiecewiseFactor::identity();
        p.push_window(Time::from_secs(0), Time::from_secs(10), 2.0);
        p.push_window(Time::from_secs(5), Time::from_secs(15), 3.0);
        assert_eq!(p.at(Time::from_secs(2)), 2.0);
        assert_eq!(p.at(Time::from_secs(7)), 6.0);
        assert_eq!(p.at(Time::from_secs(12)), 3.0);
    }

    #[test]
    fn degenerate_windows_are_ignored() {
        let mut p = PiecewiseFactor::identity();
        p.push_window(Time::from_secs(5), Time::from_secs(5), 2.0);
        p.push_window(Time::from_secs(9), Time::from_secs(3), 2.0);
        p.push_window(Time::from_secs(0), Time::from_secs(10), f64::NAN);
        p.push_window(Time::from_secs(0), Time::from_secs(10), 0.0);
        assert_eq!(p, PiecewiseFactor::identity());
    }

    #[test]
    fn envelope_early_out_agrees_with_full_scan() {
        let mut p = PiecewiseFactor::identity();
        p.push_window(Time::from_secs(10), Time::from_secs(20), 2.0);
        p.push_window(Time::from_secs(30), Time::from_secs(40), 3.0);
        // Outside the envelope (before 10, at/after 40) and inside
        // the gap between windows — all must agree with a naive scan.
        for s in [0, 5, 9, 10, 15, 20, 25, 29, 35, 39, 40, 100] {
            let t = Time::from_secs(s);
            let naive = if (10..20).contains(&s) {
                2.0
            } else if (30..40).contains(&s) {
                3.0
            } else {
                1.0
            };
            assert_eq!(p.at(t), naive, "at {s}s");
        }
    }

    #[test]
    fn equality_ignores_the_cached_envelope() {
        let mut a = PiecewiseFactor::identity();
        a.push_window(Time::from_secs(1), Time::from_secs(2), 2.0);
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn transitions_cover_starts_and_ends() {
        let mut p = PiecewiseFactor::identity();
        p.push_window(Time::from_secs(1), Time::from_secs(2), 2.0);
        p.push_window(Time::from_secs(3), Time::from_secs(4), 2.0);
        let ts: Vec<Time> = p.transitions().collect();
        assert_eq!(
            ts,
            vec![
                Time::from_secs(1),
                Time::from_secs(2),
                Time::from_secs(3),
                Time::from_secs(4)
            ]
        );
    }
}
