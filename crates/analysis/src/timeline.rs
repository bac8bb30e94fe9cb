//! Timeline scatter series — the `(execution time, request size)` and
//! `(execution time, seek duration)` plots of Figures 3, 4, 5, 8
//! and 9.

use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;

/// A scatter of `(time, value)` points in time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    points: Vec<(Time, u64)>,
}

impl Timeline {
    /// Build from points (sorted by time internally).
    pub fn new(mut points: Vec<(Time, u64)>) -> Self {
        points.sort_by_key(|&(t, v)| (t, v));
        Timeline { points }
    }

    /// The `(start, bytes)` scatter of one operation kind, straight
    /// from a [`TraceIndex`] posting list.
    pub fn of_kind(index: &TraceIndex, kind: OpKind) -> Self {
        Timeline::new(index.timeline_of(kind))
    }

    /// The `(start, duration-in-nanoseconds)` scatter of one kind —
    /// the seek-duration plot of Figure 5 — from a [`TraceIndex`].
    pub fn of_durations(index: &TraceIndex, kind: OpKind) -> Self {
        Timeline::new(durations_to_points(&index.duration_timeline_of(kind)))
    }

    /// The points, time-ordered.
    pub fn points(&self) -> &[(Time, u64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First point's time.
    pub fn start(&self) -> Option<Time> {
        self.points.first().map(|&(t, _)| t)
    }

    /// Last point's time.
    pub fn end(&self) -> Option<Time> {
        self.points.last().map(|&(t, _)| t)
    }

    /// Span between first and last point.
    pub fn span(&self) -> Time {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => Time::ZERO,
        }
    }

    /// Largest value in the series.
    pub fn max_value(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Smallest nonzero value (for log-scale axis floors).
    pub(crate) fn min_nonzero(&self) -> Option<u64> {
        self.points.iter().map(|&(_, v)| v).filter(|&v| v > 0).min()
    }

    /// Points within `[t0, t1)`.
    pub fn window(&self, t0: Time, t1: Time) -> Timeline {
        Timeline::new(
            self.points
                .iter()
                .copied()
                .filter(|&(t, _)| t >= t0 && t < t1)
                .collect(),
        )
    }

    /// Reduce to at most `max_points` points by keeping, within each
    /// of `max_points` equal time buckets, the bucket's maximum-value
    /// point — preserving the visual envelope of the scatter.
    pub fn downsample(&self, max_points: usize) -> Timeline {
        if self.points.len() <= max_points || max_points == 0 {
            return self.clone();
        }
        let start = self.start().unwrap_or(Time::ZERO);
        let span = self.span().as_nanos().max(1);
        let mut buckets: Vec<Option<(Time, u64)>> = vec![None; max_points];
        for &(t, v) in &self.points {
            let idx = (((t - start).as_nanos() as u128 * max_points as u128) / (span as u128 + 1))
                as usize;
            let idx = idx.min(max_points - 1);
            match buckets[idx] {
                Some((_, best)) if best >= v => {}
                _ => buckets[idx] = Some((t, v)),
            }
        }
        Timeline::new(buckets.into_iter().flatten().collect())
    }

    /// Count of activity bursts: maximal groups of consecutive points
    /// separated by gaps of at least `gap`. Used to assert e.g. "the
    /// five checkpoints are clearly visible" (Fig. 9).
    pub fn burst_count(&self, gap: Time) -> usize {
        if self.points.is_empty() {
            return 0;
        }
        let mut bursts = 1;
        for pair in self.points.windows(2) {
            if pair[1].0 - pair[0].0 >= gap {
                bursts += 1;
            }
        }
        bursts
    }
}

/// Convert a duration-valued series (e.g. seek durations) to
/// nanosecond values for plotting.
pub(crate) fn durations_to_points(series: &[(Time, Time)]) -> Vec<(Time, u64)> {
    series.iter().map(|&(t, d)| (t, d.as_nanos())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn ordering_and_bounds() {
        let tl = Timeline::new(vec![(t(5), 10), (t(1), 20), (t(9), 5)]);
        assert_eq!(tl.start(), Some(t(1)));
        assert_eq!(tl.end(), Some(t(9)));
        assert_eq!(tl.span(), t(8));
        assert_eq!(tl.max_value(), 20);
        assert_eq!(tl.min_nonzero(), Some(5));
        assert_eq!(tl.len(), 3);
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::new(vec![]);
        assert!(tl.is_empty());
        assert_eq!(tl.span(), Time::ZERO);
        assert_eq!(tl.max_value(), 0);
        assert_eq!(tl.min_nonzero(), None);
        assert_eq!(tl.burst_count(t(1)), 0);
    }

    #[test]
    fn window_selects_half_open_range() {
        let tl = Timeline::new((0..10).map(|i| (t(i), i)).collect());
        let w = tl.window(t(3), t(6));
        assert_eq!(w.len(), 3);
        assert_eq!(w.start(), Some(t(3)));
        assert_eq!(w.end(), Some(t(5)));
    }

    #[test]
    fn downsample_keeps_envelope() {
        let points: Vec<(Time, u64)> = (0..1000).map(|i| (t(i), i % 97)).collect();
        let tl = Timeline::new(points);
        let ds = tl.downsample(50);
        assert!(ds.len() <= 50);
        // The overall max must survive downsampling.
        assert_eq!(ds.max_value(), tl.max_value());
        // Downsampling something already small is the identity.
        let small = Timeline::new(vec![(t(0), 1), (t(1), 2)]);
        assert_eq!(small.downsample(50).len(), 2);
    }

    #[test]
    fn burst_count_finds_checkpoints() {
        // Five bursts of writes separated by long gaps — Figure 9.
        let mut pts = Vec::new();
        for burst in 0..5u64 {
            let base = burst * 1000;
            for i in 0..20 {
                pts.push((t(base + i), 100));
            }
        }
        let tl = Timeline::new(pts);
        assert_eq!(tl.burst_count(t(100)), 5);
        assert_eq!(tl.burst_count(t(2000)), 1);
    }

    #[test]
    fn duration_series_conversion() {
        let series = vec![(t(1), Time::from_millis(5)), (t(2), Time::from_millis(7))];
        let pts = durations_to_points(&series);
        assert_eq!(pts[0].1, 5_000_000);
        assert_eq!(pts[1].1, 7_000_000);
    }
}
