//! I/O parallelism — the second of the paper's three characterization
//! dimensions (§6).
//!
//! Two complementary views:
//!
//! * [`ConcurrencyProfile`] — how many processes have an I/O call
//!   outstanding at each instant (sweep-line over the trace's event
//!   intervals);
//! * [`NodeBalance`] — how evenly I/O time is spread across nodes.
//!   Both applications started with node zero administering nearly all
//!   I/O (§6.1) and ended with all-node parallel access (§6.2); these
//!   metrics make that evolution measurable.

use sioscope_pfs::OpKind;
use sioscope_sim::{Pid, Time};
use sioscope_trace::{IoEvent, TraceIndex};
use std::collections::BTreeMap;

/// Sweep-line concurrency profile of outstanding I/O calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyProfile {
    /// `(instant, outstanding-call count)` breakpoints, time-ordered;
    /// the count holds until the next breakpoint.
    pub steps: Vec<(Time, u32)>,
    /// Maximum concurrent outstanding calls.
    pub peak: u32,
    /// Time-weighted mean concurrency over the busy span (first start
    /// to last end).
    pub mean: f64,
    /// Time-weighted mean concurrency conditioned on at least one call
    /// being outstanding — "how parallel is the I/O when I/O happens".
    pub mean_active: f64,
}

impl ConcurrencyProfile {
    /// Build from a trace.
    pub fn build(events: &[IoEvent]) -> Self {
        let mut deltas: BTreeMap<Time, i64> = BTreeMap::new();
        for e in events {
            *deltas.entry(e.start).or_insert(0) += 1;
            *deltas.entry(e.end()).or_insert(0) -= 1;
        }
        Self::from_breakpoints(deltas.into_iter())
    }

    /// Build from a [`TraceIndex`] without revisiting the events: the
    /// index's start column and end-sorted column are merged into the
    /// same `(instant, delta)` breakpoint sequence the scan derives,
    /// one merged entry per distinct instant (including net-zero
    /// deltas from zero-duration events, which the scan also emits).
    /// The shared fold then performs the identical floating-point
    /// accumulation, so the profile is bit-identical to `build`.
    pub fn from_index(index: &TraceIndex) -> Self {
        let starts = index.starts();
        let ends = index.ends_sorted();
        let mut breaks: Vec<(Time, i64)> = Vec::with_capacity(starts.len() * 2);
        let (mut i, mut j) = (0usize, 0usize);
        while i < starts.len() || j < ends.len() {
            let t = if i < starts.len() && (j >= ends.len() || starts[i] <= ends[j]) {
                starts[i]
            } else {
                ends[j]
            };
            let mut d = 0i64;
            while i < starts.len() && starts[i] == t {
                d += 1;
                i += 1;
            }
            while j < ends.len() && ends[j] == t {
                d -= 1;
                j += 1;
            }
            breaks.push((t, d));
        }
        Self::from_breakpoints(breaks.into_iter())
    }

    /// The shared sweep over time-ordered `(instant, delta)`
    /// breakpoints — both constructors funnel through this fold so
    /// their floating-point results are identical to the bit.
    fn from_breakpoints(deltas: impl Iterator<Item = (Time, i64)>) -> Self {
        let mut steps = Vec::new();
        let mut level: i64 = 0;
        let mut peak = 0u32;
        let mut weighted = 0.0f64;
        let mut active = 0.0f64;
        let mut prev: Option<Time> = None;
        for (t, d) in deltas {
            if let Some(p) = prev {
                let dt = (t - p).as_secs_f64();
                weighted += level as f64 * dt;
                if level > 0 {
                    active += dt;
                }
            }
            level += d;
            debug_assert!(level >= 0, "negative outstanding count");
            peak = peak.max(level as u32);
            steps.push((t, level as u32));
            prev = Some(t);
        }
        let span = match (steps.first(), steps.last()) {
            (Some(&(s, _)), Some(&(e, _))) if e > s => (e - s).as_secs_f64(),
            _ => 0.0,
        };
        let mean = if span > 0.0 { weighted / span } else { 0.0 };
        let mean_active = if active > 0.0 { weighted / active } else { 0.0 };
        ConcurrencyProfile {
            steps,
            peak,
            mean,
            mean_active,
        }
    }
}

/// Distribution of I/O time across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBalance {
    /// Per-node total I/O time, indexed by pid.
    pub per_node: BTreeMap<u32, Time>,
    /// Total I/O time.
    pub total: Time,
}

impl NodeBalance {
    /// Build from a trace (all operations).
    pub fn build(events: &[IoEvent]) -> Self {
        Self::build_filtered(events, |_| true)
    }

    /// Build over the events a predicate selects — e.g. only writes,
    /// to measure the §6.1 "single node coordinates all writes"
    /// pattern.
    pub fn build_filtered(events: &[IoEvent], keep: impl Fn(&IoEvent) -> bool) -> Self {
        let mut per_node: BTreeMap<u32, Time> = BTreeMap::new();
        let mut total = Time::ZERO;
        for e in events.iter().filter(|e| keep(e)) {
            *per_node.entry(e.pid.0).or_insert(Time::ZERO) += e.duration;
            total += e.duration;
        }
        NodeBalance { per_node, total }
    }

    /// Build from a [`TraceIndex`]: one lookup per pid against the
    /// pre-aggregated per-pid totals.
    pub fn from_index(index: &TraceIndex) -> Self {
        let mut per_node = BTreeMap::new();
        let mut total = Time::ZERO;
        for pid in index.pids() {
            let d = index.pid_total_duration(pid);
            per_node.insert(pid.0, d);
            total += d;
        }
        NodeBalance { per_node, total }
    }

    /// Indexed equivalent of
    /// [`build_filtered`](NodeBalance::build_filtered) with a
    /// kind-equality predicate — the only filter the report paths use.
    pub fn of_kind(index: &TraceIndex, kind: OpKind) -> Self {
        let mut per_node = BTreeMap::new();
        let mut total = Time::ZERO;
        for pid in index.pids() {
            if let Some((_, d)) = index.pid_duration_of(pid, kind) {
                per_node.insert(pid.0, d);
                total += d;
            }
        }
        NodeBalance { per_node, total }
    }

    /// Share of total I/O time carried by one node (`[0, 1]`).
    pub fn share(&self, pid: Pid) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.per_node
            .get(&pid.0)
            .map(|t| t.as_secs_f64() / self.total.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Number of nodes that performed any I/O.
    pub fn active_nodes(&self) -> usize {
        self.per_node.values().filter(|t| !t.is_zero()).count()
    }

    /// Gini coefficient of per-node I/O time (0 = perfectly even,
    /// → 1 = one node does everything).
    pub fn gini(&self) -> f64 {
        let mut xs: Vec<f64> = self.per_node.values().map(|t| t.as_secs_f64()).collect();
        if xs.len() < 2 {
            return 0.0;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        if sum == 0.0 {
            return 0.0;
        }
        let weighted: f64 = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted) / (n * sum) - (n + 1.0) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::{IoMode, OpKind};
    use sioscope_sim::FileId;

    fn ev(pid: u32, start_s: u64, dur_s: u64) -> IoEvent {
        IoEvent {
            pid: Pid(pid),
            file: FileId(0),
            kind: OpKind::Read,
            start: Time::from_secs(start_s),
            duration: Time::from_secs(dur_s),
            bytes: 1,
            offset: 0,
            mode: IoMode::MUnix,
        }
    }

    /// Concurrency level at instant `t`.
    fn at(p: &ConcurrencyProfile, t: Time) -> u32 {
        match p.steps.partition_point(|&(s, _)| s <= t) {
            0 => 0,
            i => p.steps[i - 1].1,
        }
    }

    #[test]
    fn concurrency_counts_overlaps() {
        // [0,10), [5,15), [20,25): peak 2.
        let events = vec![ev(0, 0, 10), ev(1, 5, 10), ev(2, 20, 5)];
        let p = ConcurrencyProfile::build(&events);
        assert_eq!(p.peak, 2);
        assert_eq!(at(&p, Time::from_secs(6)), 2);
        assert_eq!(at(&p, Time::from_secs(12)), 1);
        assert_eq!(at(&p, Time::from_secs(17)), 0);
        assert_eq!(at(&p, Time::from_secs(22)), 1);
        // Weighted mean: (5*1 + 5*2 + 5*1 + 5*0 + 5*1)/25 = 1.0.
        assert!((p.mean - 1.0).abs() < 1e-9);
        // Conditioned on activity: 25/20 = 1.25.
        assert!((p.mean_active - 1.25).abs() < 1e-9);
    }

    #[test]
    fn empty_profile() {
        let p = ConcurrencyProfile::build(&[]);
        assert_eq!(p.peak, 0);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.mean_active, 0.0);
        assert_eq!(at(&p, Time::from_secs(5)), 0);
    }

    #[test]
    fn node_balance_shares() {
        let events = vec![ev(0, 0, 9), ev(1, 0, 1)];
        let b = NodeBalance::build(&events);
        assert!((b.share(Pid(0)) - 0.9).abs() < 1e-9);
        assert!((b.share(Pid(1)) - 0.1).abs() < 1e-9);
        assert_eq!(b.share(Pid(9)), 0.0);
        assert_eq!(b.active_nodes(), 2);
    }

    #[test]
    fn filtered_balance_selects_events() {
        let mut events = vec![ev(0, 0, 10)];
        events.push(IoEvent {
            kind: sioscope_pfs::OpKind::Write,
            ..ev(1, 0, 10)
        });
        let writes_only =
            NodeBalance::build_filtered(&events, |e| e.kind == sioscope_pfs::OpKind::Write);
        assert_eq!(writes_only.share(Pid(1)), 1.0);
        assert_eq!(writes_only.share(Pid(0)), 0.0);
    }

    #[test]
    fn gini_extremes() {
        // One node does everything among 4 → high Gini.
        let skewed = vec![ev(0, 0, 100), ev(1, 0, 0), ev(2, 0, 0), ev(3, 0, 0)];
        let g_skewed = NodeBalance::build(&skewed).gini();
        // Perfectly even.
        let even = vec![ev(0, 0, 10), ev(1, 0, 10), ev(2, 0, 10), ev(3, 0, 10)];
        let g_even = NodeBalance::build(&even).gini();
        assert!(g_skewed > 0.7, "skewed gini {g_skewed}");
        assert!(g_even.abs() < 1e-9, "even gini {g_even}");
    }

    #[test]
    fn zero_duration_events_do_not_break_gini() {
        let b = NodeBalance::build(&[ev(0, 0, 0)]);
        assert_eq!(b.gini(), 0.0);
        assert_eq!(b.active_nodes(), 0);
    }
}
