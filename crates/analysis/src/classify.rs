//! High-level I/O classification.
//!
//! Miller & Katz \[9\] first proposed classifying supercomputer I/O into
//! **compulsory**, **checkpoint**, and **data staging** operations;
//! the paper uses the same taxonomy throughout (§4: ESCAT's phases are
//! compulsory → staging → staging → compulsory; §5: PRISM's are
//! compulsory → checkpointing → compulsory). This module infers the
//! class of every file from its trace, so the classification can be
//! *checked* against the phase structure instead of assumed.
//!
//! Heuristics (per file, over the whole run):
//!
//! * read before ever being written → **compulsory input**;
//! * written and later read back within the run → **data staging**
//!   (scratch data, e.g. the ESCAT quadrature files);
//! * written in ≥3 well-separated bursts and never read →
//!   **checkpoint** (periodic snapshots, e.g. PRISM's statistics
//!   files);
//! * written and never read, without periodic structure →
//!   **compulsory output** (final results).

use crate::timeline::Timeline;
use sioscope_pfs::OpKind;
use sioscope_sim::{FileId, Time};
use sioscope_trace::IoEvent;
use std::collections::BTreeMap;

/// Miller–Katz I/O class of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoClass {
    /// Input that must be read to start the computation.
    CompulsoryInput,
    /// Results that must be written at the end.
    CompulsoryOutput,
    /// Scratch data written and re-read within the run (out-of-core
    /// staging).
    DataStaging,
    /// Periodic snapshot writes, never read back within the run.
    Checkpoint,
    /// No data operations observed.
    Untouched,
}

impl IoClass {
    /// Human label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            IoClass::CompulsoryInput => "compulsory (input)",
            IoClass::CompulsoryOutput => "compulsory (output)",
            IoClass::DataStaging => "data staging",
            IoClass::Checkpoint => "checkpoint",
            IoClass::Untouched => "untouched",
        }
    }
}

/// Classification result for one file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// The file.
    pub file: FileId,
    /// Inferred class.
    pub class: IoClass,
    /// Bytes read from the file.
    pub bytes_read: u64,
    /// Bytes written to the file.
    pub bytes_written: u64,
    /// Client-observed time spent in the file's data operations.
    pub io_time: Time,
}

/// Classify one file. `burst_gap` is the minimum quiet period that
/// separates write bursts when testing for checkpoint periodicity.
pub fn classify_file(events: &[IoEvent], file: FileId, burst_gap: Time) -> FileClass {
    let mut bytes_read = 0;
    let mut bytes_written = 0;
    let mut io_time = Time::ZERO;
    let mut first_write: Option<Time> = None;
    let mut read_after_write = false;
    let mut write_points = Vec::new();
    let mut any_read = false;

    for e in events.iter().filter(|e| e.file == file && e.is_data()) {
        io_time += e.duration;
        match e.kind {
            OpKind::Read => {
                any_read = true;
                bytes_read += e.bytes;
                if first_write.is_some_and(|w| e.start >= w) {
                    read_after_write = true;
                }
            }
            OpKind::Write => {
                bytes_written += e.bytes;
                if first_write.is_none() {
                    first_write = Some(e.start);
                }
                write_points.push((e.start, e.bytes));
            }
            _ => {}
        }
    }

    let class = if bytes_read == 0 && bytes_written == 0 && !any_read {
        IoClass::Untouched
    } else if bytes_written == 0 {
        IoClass::CompulsoryInput
    } else if read_after_write {
        IoClass::DataStaging
    } else {
        let bursts = Timeline::new(write_points).burst_count(burst_gap);
        if bursts >= 3 {
            IoClass::Checkpoint
        } else {
            IoClass::CompulsoryOutput
        }
    };

    FileClass {
        file,
        class,
        bytes_read,
        bytes_written,
        io_time,
    }
}

/// Classify every file appearing in the trace.
pub fn classify_all(events: &[IoEvent], burst_gap: Time) -> Vec<FileClass> {
    let mut files: Vec<FileId> = events.iter().map(|e| e.file).collect();
    files.sort_unstable();
    files.dedup();
    files
        .into_iter()
        .map(|f| classify_file(events, f, burst_gap))
        .collect()
}

/// Aggregate `(bytes moved, I/O time)` per class.
pub fn class_totals(classes: &[FileClass]) -> BTreeMap<&'static str, (u64, Time)> {
    let mut out: BTreeMap<&'static str, (u64, Time)> = BTreeMap::new();
    for c in classes {
        let entry = out.entry(c.class.label()).or_insert((0, Time::ZERO));
        entry.0 += c.bytes_read + c.bytes_written;
        entry.1 += c.io_time;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_sim::Pid;

    fn ev(kind: OpKind, file: u32, start_s: u64, bytes: u64) -> IoEvent {
        IoEvent {
            pid: Pid(0),
            file: FileId(file),
            kind,
            start: Time::from_secs(start_s),
            duration: Time::from_millis(1),
            bytes,
            offset: 0,
            mode: sioscope_pfs::IoMode::MUnix,
        }
    }

    #[test]
    fn input_only_file_is_compulsory_input() {
        let t = vec![ev(OpKind::Read, 0, 1, 100), ev(OpKind::Read, 0, 2, 100)];
        let c = classify_file(&t, FileId(0), Time::from_secs(10));
        assert_eq!(c.class, IoClass::CompulsoryInput);
        assert_eq!(c.bytes_read, 200);
        assert_eq!(c.bytes_written, 0);
    }

    #[test]
    fn write_then_read_is_staging() {
        let t = vec![
            ev(OpKind::Write, 0, 1, 100),
            ev(OpKind::Write, 0, 2, 100),
            ev(OpKind::Read, 0, 50, 200),
        ];
        let c = classify_file(&t, FileId(0), Time::from_secs(10));
        assert_eq!(c.class, IoClass::DataStaging);
    }

    #[test]
    fn read_then_write_is_not_staging() {
        // Reading first (input) and appending results later without
        // re-reading: treat as output (the write is the final state).
        let t = vec![ev(OpKind::Read, 0, 1, 10), ev(OpKind::Write, 0, 2, 10)];
        let c = classify_file(&t, FileId(0), Time::from_secs(10));
        assert_eq!(c.class, IoClass::CompulsoryOutput);
    }

    #[test]
    fn periodic_write_bursts_are_checkpoints() {
        let mut t = Vec::new();
        for burst in 0..5u64 {
            for i in 0..4 {
                t.push(ev(OpKind::Write, 0, burst * 100 + i, 1000));
            }
        }
        let c = classify_file(&t, FileId(0), Time::from_secs(50));
        assert_eq!(c.class, IoClass::Checkpoint);
    }

    #[test]
    fn single_final_write_burst_is_compulsory_output() {
        let t = vec![
            ev(OpKind::Write, 0, 100, 500),
            ev(OpKind::Write, 0, 101, 500),
        ];
        let c = classify_file(&t, FileId(0), Time::from_secs(50));
        assert_eq!(c.class, IoClass::CompulsoryOutput);
    }

    #[test]
    fn untouched_file() {
        let t = vec![ev(OpKind::Read, 1, 1, 10)];
        let c = classify_file(&t, FileId(0), Time::from_secs(10));
        assert_eq!(c.class, IoClass::Untouched);
        assert_eq!(c.io_time, Time::ZERO);
    }

    #[test]
    fn classify_all_covers_files_and_totals_sum() {
        let t = vec![
            ev(OpKind::Read, 0, 1, 100),
            ev(OpKind::Write, 1, 2, 50),
            ev(OpKind::Read, 1, 3, 50),
        ];
        let classes = classify_all(&t, Time::from_secs(10));
        assert_eq!(classes.len(), 2);
        let totals = class_totals(&classes);
        let bytes: u64 = totals.values().map(|&(b, _)| b).sum();
        assert_eq!(bytes, 100 + 50 + 50);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            IoClass::CompulsoryInput.label(),
            IoClass::CompulsoryOutput.label(),
            IoClass::DataStaging.label(),
            IoClass::Checkpoint.label(),
            IoClass::Untouched.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
