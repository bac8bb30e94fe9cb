//! I/O-by-access-mode aggregation — the third of the paper's three
//! characterization dimensions (§6: "I/O activity can be classified
//! across three dimensions: I/O request size, I/O parallelism, and I/O
//! access modes").

use sioscope_sim::Time;
use sioscope_trace::IoEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate activity under one access mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ModeStats {
    /// Number of operations (data + control) executed under the mode.
    pub ops: u64,
    /// Bytes moved by data operations.
    pub bytes: u64,
    /// Total client-observed time.
    pub time: Time,
}

/// Per-mode aggregation over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeUsage {
    per_mode: BTreeMap<&'static str, ModeStats>,
}

impl ModeUsage {
    /// Aggregate a trace by access mode.
    pub fn build(events: &[IoEvent]) -> Self {
        let mut per_mode: BTreeMap<&'static str, ModeStats> = BTreeMap::new();
        for e in events {
            let s = per_mode.entry(e.mode.name()).or_default();
            s.ops += 1;
            s.bytes += e.bytes;
            s.time += e.duration;
        }
        ModeUsage { per_mode }
    }

    /// Aggregate from a [`TraceIndex`](sioscope_trace::TraceIndex).
    /// All three accumulations commute, so the result matches
    /// [`build`](ModeUsage::build) regardless of event order.
    pub fn from_index(index: &sioscope_trace::TraceIndex) -> Self {
        let mut per_mode: BTreeMap<&'static str, ModeStats> = BTreeMap::new();
        for e in index.iter() {
            let s = per_mode.entry(e.mode.name()).or_default();
            s.ops += 1;
            s.bytes += e.bytes;
            s.time += e.duration;
        }
        ModeUsage { per_mode }
    }

    /// Modes actually used.
    pub fn used_modes(&self) -> Vec<&'static str> {
        self.per_mode.keys().copied().collect()
    }

    /// The mode carrying the most I/O time.
    pub fn dominant_by_time(&self) -> Option<&'static str> {
        self.per_mode
            .iter()
            .max_by_key(|(_, s)| s.time)
            .map(|(&m, _)| m)
    }

    /// The mode carrying the most bytes.
    pub fn dominant_by_bytes(&self) -> Option<&'static str> {
        self.per_mode
            .iter()
            .max_by_key(|(_, s)| s.bytes)
            .map(|(&m, _)| m)
    }

    /// Render as a fixed-width table.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<10}{:>10}{:>14}{:>14}",
            "mode", "ops", "bytes", "I/O time"
        );
        let _ = writeln!(out, "{}", "-".repeat(48));
        for (mode, s) in &self.per_mode {
            let _ = writeln!(
                out,
                "{:<10}{:>10}{:>14}{:>13.2}s",
                mode,
                s.ops,
                s.bytes,
                s.time.as_secs_f64()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::{IoMode, OpKind};
    use sioscope_sim::{FileId, Pid};

    fn ev(mode: IoMode, kind: OpKind, bytes: u64, dur_ms: u64) -> IoEvent {
        IoEvent {
            pid: Pid(0),
            file: FileId(0),
            kind,
            start: Time::ZERO,
            duration: Time::from_millis(dur_ms),
            bytes,
            offset: 0,
            mode,
        }
    }

    #[test]
    fn aggregates_by_mode() {
        let events = vec![
            ev(IoMode::MUnix, OpKind::Read, 100, 5),
            ev(IoMode::MUnix, OpKind::Open, 0, 20),
            ev(IoMode::MRecord, OpKind::Read, 131072, 3),
            ev(IoMode::MAsync, OpKind::Write, 1800, 1),
        ];
        let u = ModeUsage::build(&events);
        assert_eq!(u.per_mode[IoMode::MUnix.name()].ops, 2);
        assert_eq!(u.per_mode[IoMode::MUnix.name()].bytes, 100);
        assert_eq!(u.per_mode[IoMode::MUnix.name()].time, Time::from_millis(25));
        assert_eq!(u.per_mode[IoMode::MRecord.name()].bytes, 131072);
        assert_eq!(u.per_mode.get(IoMode::MSync.name()).map(|m| m.ops), None);
        assert_eq!(u.dominant_by_time(), Some("M_UNIX"));
        assert_eq!(u.dominant_by_bytes(), Some("M_RECORD"));
        assert_eq!(u.used_modes().len(), 3);
    }

    #[test]
    fn empty_trace() {
        let u = ModeUsage::build(&[]);
        assert!(u.used_modes().is_empty());
        assert_eq!(u.dominant_by_time(), None);
    }

    #[test]
    fn render_lists_modes() {
        let events = vec![ev(IoMode::MGlobal, OpKind::Read, 36, 1)];
        let text = ModeUsage::build(&events).render("Mode usage");
        assert!(text.contains("M_GLOBAL"));
        assert!(text.contains("Mode usage"));
    }
}
