//! Version-to-version evolution deltas.
//!
//! The paper's narrative is built from *differences* between code
//! versions — "a significant reduction in read time was achieved via
//! code restructuring" (§4.1), "the total read time decreases by 125
//! seconds" (§5.3), "the write time in version B increases as a
//! consequence of the concurrent writes" (§5.1). This module computes
//! those deltas from two traces' indexes.

use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use sioscope_trace::TraceIndex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Change in one operation category between two versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpDelta {
    /// Total client-observed time in the "from" version.
    pub from_time: Time,
    /// Total client-observed time in the "to" version.
    pub to_time: Time,
    /// Operation count in the "from" version.
    pub from_count: u64,
    /// Operation count in the "to" version.
    pub to_count: u64,
}

impl OpDelta {
    /// Signed time change in seconds (negative = improvement).
    pub fn time_change_s(&self) -> f64 {
        self.to_time.as_secs_f64() - self.from_time.as_secs_f64()
    }
}

/// Full comparison of two versions' traces.
#[derive(Debug, Clone)]
pub struct Evolution {
    /// Label of the "from" version.
    pub from_label: String,
    /// Label of the "to" version.
    pub to_label: String,
    /// Per-kind deltas (kinds present in either trace).
    pub per_kind: BTreeMap<OpKind, OpDelta>,
}

impl Evolution {
    /// Compare two traces through their indexes: per kind, one count
    /// and one duration total each, with no scan of the events.
    pub fn between(from_label: &str, from: &TraceIndex, to_label: &str, to: &TraceIndex) -> Self {
        let per_kind = OpKind::all()
            .into_iter()
            .map(|kind| {
                let delta = OpDelta {
                    from_time: from.duration_of(kind),
                    to_time: to.duration_of(kind),
                    from_count: from.count_of(kind),
                    to_count: to.count_of(kind),
                };
                (kind, delta)
            })
            .filter(|(_, d)| d.from_count > 0 || d.to_count > 0)
            .collect();
        Evolution {
            from_label: from_label.to_string(),
            to_label: to_label.to_string(),
            per_kind,
        }
    }

    /// Delta for one kind, if either version used it.
    pub fn delta(&self, kind: OpKind) -> Option<&OpDelta> {
        self.per_kind.get(&kind)
    }

    /// The operation whose time *fell* the most (the optimization's
    /// main effect), as `(kind, seconds saved)`.
    pub fn biggest_win(&self) -> Option<(OpKind, f64)> {
        self.per_kind
            .iter()
            .map(|(&k, d)| (k, -d.time_change_s()))
            .filter(|&(_, saved)| saved > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
    }

    /// The operation whose time *rose* the most (the optimization's
    /// cost), as `(kind, seconds added)`.
    pub fn biggest_regression(&self) -> Option<(OpKind, f64)> {
        self.per_kind
            .iter()
            .map(|(&k, d)| (k, d.time_change_s()))
            .filter(|&(_, added)| added > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
    }

    /// Net change in total I/O time (negative = improvement).
    pub(crate) fn net_change_s(&self) -> f64 {
        self.per_kind.values().map(OpDelta::time_change_s).sum()
    }

    /// Render as a delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Evolution {} -> {} (client-observed I/O time)",
            self.from_label, self.to_label
        );
        let _ = writeln!(
            out,
            "{:<10}{:>12}{:>12}{:>12}{:>10}{:>10}",
            "op", self.from_label, self.to_label, "change", "ops", "ops'"
        );
        let _ = writeln!(out, "{}", "-".repeat(66));
        for (kind, d) in &self.per_kind {
            let _ = writeln!(
                out,
                "{:<10}{:>11.2}s{:>11.2}s{:>+11.2}s{:>10}{:>10}",
                kind.label(),
                d.from_time.as_secs_f64(),
                d.to_time.as_secs_f64(),
                d.time_change_s(),
                d.from_count,
                d.to_count,
            );
        }
        let _ = writeln!(out, "net change: {:+.2}s", self.net_change_s());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::IoMode;
    use sioscope_sim::{FileId, Pid};
    use sioscope_trace::{IoEvent, TraceRecorder};

    fn trace(entries: &[(OpKind, u64)]) -> TraceIndex {
        let mut t = TraceRecorder::new();
        for &(kind, dur_ms) in entries {
            t.record(IoEvent {
                pid: Pid(0),
                file: FileId(0),
                kind,
                start: Time::ZERO,
                duration: Time::from_millis(dur_ms),
                bytes: 1,
                offset: 0,
                mode: IoMode::MUnix,
            });
        }
        t.into_index()
    }

    #[test]
    fn deltas_reflect_changes() {
        let a = trace(&[(OpKind::Read, 1000), (OpKind::Open, 500)]);
        let b = trace(&[(OpKind::Read, 200), (OpKind::Write, 100)]);
        let ev = Evolution::between("A", &a, "B", &b);
        let read = ev.delta(OpKind::Read).expect("reads in both");
        assert!((read.time_change_s() + 0.8).abs() < 1e-9);
        // Open disappeared entirely; write appeared.
        assert_eq!(ev.delta(OpKind::Open).unwrap().to_count, 0);
        assert_eq!(ev.delta(OpKind::Write).unwrap().from_count, 0);
        assert!(ev.delta(OpKind::Seek).is_none());
    }

    #[test]
    fn wins_and_regressions() {
        let a = trace(&[(OpKind::Read, 1000), (OpKind::Write, 100)]);
        let b = trace(&[(OpKind::Read, 100), (OpKind::Write, 400)]);
        let ev = Evolution::between("A", &a, "B", &b);
        let (win_kind, saved) = ev.biggest_win().expect("read improved");
        assert_eq!(win_kind, OpKind::Read);
        assert!((saved - 0.9).abs() < 1e-9);
        let (reg_kind, added) = ev.biggest_regression().expect("write regressed");
        assert_eq!(reg_kind, OpKind::Write);
        assert!((added - 0.3).abs() < 1e-9);
        assert!((ev.net_change_s() + 0.6).abs() < 1e-9);
    }

    #[test]
    fn identical_traces_have_zero_net() {
        let a = trace(&[(OpKind::Read, 123)]);
        let ev = Evolution::between("A", &a, "A2", &a);
        assert!(ev.net_change_s().abs() < 1e-12);
        assert!(ev.biggest_win().is_none());
        assert!(ev.biggest_regression().is_none());
    }

    #[test]
    fn render_shows_rows() {
        let a = trace(&[(OpKind::Seek, 1000)]);
        let b = trace(&[(OpKind::Seek, 10)]);
        let text = Evolution::between("B", &a, "C", &b).render();
        assert!(text.contains("seek"));
        assert!(text.contains("net change"));
    }
}
