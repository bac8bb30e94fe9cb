//! Naive-scan oracles for the indexed analysis passes: each answers
//! from the event slice alone, with its own fold. The library answers
//! the same questions from a `TraceIndex`; the property tests assert
//! the two agree exactly on arbitrary traces. Where a pass returns
//! floats, its oracle does the same arithmetic in the same order, so
//! `==` holds, and a bug in either fold shows as a mismatch.

use sioscope_analysis::interarrival::Interarrival;
use sioscope_analysis::phases::PhaseSpan;
use sioscope_analysis::{BandwidthSeries, ConcurrencyProfile, NodeBalance, PhaseKind};
use sioscope_pfs::OpKind;
use sioscope_sim::{Pid, Time};
use sioscope_trace::IoEvent;
use std::collections::BTreeMap;

/// Every data event's bytes, bucketed into the window containing its
/// completion instant.
pub fn bandwidth(events: &[IoEvent], window: Time) -> BandwidthSeries {
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

/// The sweep-line over every event's `[start, end)`: a `+1` at each
/// start and a `-1` at each end, netted per instant in a `BTreeMap`.
pub fn concurrency(events: &[IoEvent]) -> ConcurrencyProfile {
    let mut deltas: BTreeMap<Time, i64> = BTreeMap::new();
    for e in events {
        *deltas.entry(e.start).or_insert(0) += 1;
        *deltas.entry(e.end()).or_insert(0) -= 1;
    }
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
        assert!(level >= 0, "negative outstanding count");
        peak = peak.max(level as u32);
        steps.push((t, level as u32));
        prev = Some(t);
    }
    let span = match (steps.first(), steps.last()) {
        (Some(&(s, _)), Some(&(e, _))) if e > s => (e - s).as_secs_f64(),
        _ => 0.0,
    };
    ConcurrencyProfile {
        steps,
        peak,
        mean: if span > 0.0 { weighted / span } else { 0.0 },
        mean_active: if active > 0.0 { weighted / active } else { 0.0 },
    }
}

/// Per-pid I/O time over the events `keep` selects.
pub fn node_balance(events: &[IoEvent], keep: impl Fn(&IoEvent) -> bool) -> NodeBalance {
    let mut per_node: BTreeMap<u32, Time> = BTreeMap::new();
    let mut total = Time::ZERO;
    for e in events.iter().filter(|e| keep(e)) {
        *per_node.entry(e.pid.0).or_insert(Time::ZERO) += e.duration;
        total += e.duration;
    }
    NodeBalance { per_node, total }
}

/// Phases over the events sorted by `(start, pid, file, offset)`: a
/// new phase opens at each event starting `gap` or more after the end
/// of every earlier event in the current phase.
pub fn phases(events: &[IoEvent], gap: Time) -> Vec<PhaseSpan> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| (e.start, e.pid, e.file, e.offset));
    let mut phases: Vec<PhaseSpan> = Vec::new();
    for e in sorted {
        let read = if e.kind == OpKind::Read { e.bytes } else { 0 };
        let written = if e.kind == OpKind::Write { e.bytes } else { 0 };
        match phases.last_mut() {
            Some(p) if e.start.saturating_sub(p.end) < gap => {
                p.end = p.end.max(e.end());
                p.events += 1;
                p.bytes_read += read;
                p.bytes_written += written;
            }
            _ => phases.push(PhaseSpan {
                start: e.start,
                end: e.end(),
                events: 1,
                bytes_read: read,
                bytes_written: written,
                kind: PhaseKind::ControlOnly,
            }),
        }
    }
    for p in &mut phases {
        p.kind = match (p.bytes_read, p.bytes_written) {
            (0, 0) => PhaseKind::ControlOnly,
            (r, w) if r >= w => PhaseKind::ReadDominant,
            _ => PhaseKind::WriteDominant,
        };
    }
    phases
}

/// Per-pid interarrival statistics: each pid's starts sorted, their
/// gaps in seconds, and the gaps' mean, coefficient of variation and
/// lag-1 autocorrelation.
pub fn interarrival(events: &[IoEvent]) -> BTreeMap<Pid, Interarrival> {
    let mut starts: BTreeMap<Pid, Vec<Time>> = BTreeMap::new();
    for e in events {
        starts.entry(e.pid).or_default().push(e.start);
    }
    let mut out = BTreeMap::new();
    for (pid, mut s) in starts {
        if s.len() < 2 {
            continue;
        }
        s.sort_unstable();
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let lag1 = (gaps.len() >= 3 && var > 0.0).then(|| {
            let cov = gaps
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>()
                / (n - 1.0);
            cov / var
        });
        out.insert(
            pid,
            Interarrival {
                gaps: gaps.len(),
                mean_s: mean,
                cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
                lag1,
            },
        );
    }
    out
}

/// One mode's row of the library's `ModeUsage` table: same type and
/// field names, so both render alike under `Debug`.
#[derive(Debug, Default)]
struct ModeStats {
    ops: u64,
    bytes: u64,
    time: Time,
}

/// The `Debug` rendering of the library's `ModeUsage` of these events:
/// operations, bytes and I/O time per access mode. Its per-mode table
/// is private, so the oracle renders a table of the same shape;
/// `Debug` prints every count, byte sum and duration in full, so the
/// renderings are equal exactly when the tables are.
pub fn modes(events: &[IoEvent]) -> String {
    let mut per_mode: BTreeMap<&'static str, ModeStats> = BTreeMap::new();
    for e in events {
        let s = per_mode.entry(e.mode.name()).or_default();
        s.ops += 1;
        s.bytes += e.bytes;
        s.time += e.duration;
    }
    format!("ModeUsage {{ per_mode: {per_mode:?} }}")
}
