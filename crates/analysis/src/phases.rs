//! Automatic I/O-phase detection.
//!
//! The paper identifies each application's phases by inspection
//! (ESCAT: compulsory reads → staged writes → staged reads →
//! compulsory writes; PRISM: reads → checkpointed integration → final
//! writes). This module recovers that structure *from the trace*: I/O
//! events are clustered into phases separated by quiet gaps, and each
//! phase is labelled by its dominant operation direction.

use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use sioscope_trace::{IoEvent, TraceIndex};

/// Dominant direction of a detected phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Bytes read exceed bytes written.
    ReadDominant,
    /// Bytes written exceed bytes read.
    WriteDominant,
    /// Control operations only (opens, seeks, mode changes).
    ControlOnly,
}

/// One detected phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// First event start in the phase.
    pub start: Time,
    /// Last event end in the phase.
    pub end: Time,
    /// Events in the phase.
    pub events: usize,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Dominant direction.
    pub kind: PhaseKind,
}

/// Cluster a (time-sorted) trace into phases separated by I/O gaps of
/// at least `gap`.
pub fn detect(events: &[IoEvent], gap: Time) -> Vec<PhaseSpan> {
    detect_iter(events.iter().copied(), gap)
}

/// Cluster an indexed trace into phases. The index's canonical order
/// is time-sorted, so this is [`detect`] over the properly ordered
/// stream — identical to running `detect` on a sorted trace even if
/// the original slice was not sorted.
pub fn detect_indexed(index: &TraceIndex, gap: Time) -> Vec<PhaseSpan> {
    detect_iter(index.iter(), gap)
}

/// The sequential clustering pass both entry points share.
fn detect_iter(events: impl Iterator<Item = IoEvent>, gap: Time) -> Vec<PhaseSpan> {
    let mut phases: Vec<PhaseSpan> = Vec::new();
    let mut current: Option<PhaseSpan> = None;
    for e in events {
        match current.as_mut() {
            Some(p) if e.start.saturating_sub(p.end) < gap => {
                p.end = p.end.max(e.end());
                p.events += 1;
                match e.kind {
                    OpKind::Read => p.bytes_read += e.bytes,
                    OpKind::Write => p.bytes_written += e.bytes,
                    _ => {}
                }
            }
            _ => {
                if let Some(mut done) = current.take() {
                    done.kind = classify(&done);
                    phases.push(done);
                }
                current = Some(PhaseSpan {
                    start: e.start,
                    end: e.end(),
                    events: 1,
                    bytes_read: if e.kind == OpKind::Read { e.bytes } else { 0 },
                    bytes_written: if e.kind == OpKind::Write { e.bytes } else { 0 },
                    kind: PhaseKind::ControlOnly,
                });
            }
        }
    }
    if let Some(mut done) = current.take() {
        done.kind = classify(&done);
        phases.push(done);
    }
    phases
}

fn classify(p: &PhaseSpan) -> PhaseKind {
    if p.bytes_read == 0 && p.bytes_written == 0 {
        PhaseKind::ControlOnly
    } else if p.bytes_read >= p.bytes_written {
        PhaseKind::ReadDominant
    } else {
        PhaseKind::WriteDominant
    }
}

/// Render detected phases as a table.
pub fn render(phases: &[PhaseSpan]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}{:>12}{:>12}{:>10}{:>14}{:>14}  kind",
        "phase", "start", "end", "events", "read", "written"
    );
    for (i, p) in phases.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<8}{:>11.1}s{:>11.1}s{:>10}{:>14}{:>14}  {:?}",
            i + 1,
            p.start.as_secs_f64(),
            p.end.as_secs_f64(),
            p.events,
            p.bytes_read,
            p.bytes_written,
            p.kind
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::IoMode;
    use sioscope_sim::{FileId, Pid};

    fn ev(kind: OpKind, start_s: u64, bytes: u64) -> IoEvent {
        IoEvent {
            pid: Pid(0),
            file: FileId(0),
            kind,
            start: Time::from_secs(start_s),
            duration: Time::from_millis(100),
            bytes,
            offset: 0,
            mode: IoMode::MUnix,
        }
    }

    #[test]
    fn gap_separates_phases() {
        // Read burst at t=0..2, write burst at t=100..102.
        let events = vec![
            ev(OpKind::Read, 0, 100),
            ev(OpKind::Read, 1, 100),
            ev(OpKind::Read, 2, 100),
            ev(OpKind::Write, 100, 500),
            ev(OpKind::Write, 101, 500),
        ];
        let phases = detect(&events, Time::from_secs(10));
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].kind, PhaseKind::ReadDominant);
        assert_eq!(phases[0].events, 3);
        assert_eq!(phases[1].kind, PhaseKind::WriteDominant);
        assert_eq!(phases[1].bytes_written, 1000);
    }

    #[test]
    fn small_gaps_merge() {
        let events = vec![ev(OpKind::Read, 0, 1), ev(OpKind::Write, 5, 100)];
        let phases = detect(&events, Time::from_secs(60));
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].kind, PhaseKind::WriteDominant);
    }

    #[test]
    fn control_only_phase() {
        let events = vec![ev(OpKind::Open, 0, 0), ev(OpKind::Close, 1, 0)];
        let phases = detect(&events, Time::from_secs(10));
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].kind, PhaseKind::ControlOnly);
    }

    #[test]
    fn empty_trace_no_phases() {
        assert!(detect(&[], Time::from_secs(1)).is_empty());
    }

    #[test]
    fn spans_cover_their_events() {
        let events = vec![ev(OpKind::Read, 3, 1), ev(OpKind::Read, 4, 1)];
        let phases = detect(&events, Time::from_secs(10));
        assert_eq!(phases[0].start, Time::from_secs(3));
        assert!(phases[0].end >= Time::from_secs(4));
        assert!(phases[0].end - phases[0].start >= Time::from_secs(1));
    }

    #[test]
    fn render_lists_phases() {
        let events = vec![ev(OpKind::Read, 0, 10)];
        let text = render(&detect(&events, Time::from_secs(1)));
        assert!(text.contains("ReadDominant"));
    }
}
