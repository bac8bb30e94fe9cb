//! The paper's percentage tables.
//!
//! * [`IoTimeTable`] — "time of operation / duration of all I/O
//!   operations × 100" per operation kind: Tables 2 and 5.
//! * [`ExecTimeTable`] — "time of operation / total execution time ×
//!   100": Table 3.
//!
//! Both render as fixed-width text matching the paper's row order
//! (open, gopen, read, seek, write, iomode, flush, close), with "–"
//! for absent operations, and support multi-column (multi-version)
//! layouts.

use sioscope_pfs::OpKind;
use sioscope_sim::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Percentage of total I/O time per operation kind (Tables 2 / 5).
#[derive(Debug, Clone)]
pub struct IoTimeTable {
    /// Column label (version name).
    pub label: String,
    /// Percentage (0–100) per kind; absent kinds were never executed.
    pub percent: BTreeMap<OpKind, f64>,
    /// Total I/O time the percentages are relative to.
    pub total_io: Time,
}

impl IoTimeTable {
    /// Build from per-kind duration sums.
    pub fn from_durations(label: &str, durations: &BTreeMap<OpKind, Time>) -> Self {
        let total_io: Time = durations.values().copied().sum();
        let denom = total_io.as_secs_f64();
        let percent = durations
            .iter()
            .map(|(&k, &d)| {
                let p = if denom > 0.0 {
                    100.0 * d.as_secs_f64() / denom
                } else {
                    0.0
                };
                (k, p)
            })
            .collect();
        IoTimeTable {
            label: label.to_string(),
            percent,
            total_io,
        }
    }

    /// Percentage for one kind (0 if absent).
    pub fn pct(&self, kind: OpKind) -> f64 {
        self.percent.get(&kind).copied().unwrap_or(0.0)
    }

    /// The kind with the largest share, if any.
    pub fn dominant(&self) -> Option<OpKind> {
        self.percent
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN percentages"))
            .map(|(&k, _)| k)
    }
}

/// Percentage of total *execution* time per operation kind (Table 3).
#[derive(Debug, Clone)]
pub struct ExecTimeTable {
    /// Column label.
    pub label: String,
    /// Percentage (0–100) of execution time per kind.
    pub percent: BTreeMap<OpKind, f64>,
    /// All-I/O percentage (the paper's "All I/O" row).
    pub all_io: f64,
    /// Total execution time.
    pub exec_time: Time,
}

impl ExecTimeTable {
    /// Build from per-kind duration sums and the run's execution time.
    pub fn from_durations(
        label: &str,
        durations: &BTreeMap<OpKind, Time>,
        exec_time: Time,
    ) -> Self {
        let denom = exec_time.as_secs_f64();
        let percent: BTreeMap<OpKind, f64> = durations
            .iter()
            .map(|(&k, &d)| {
                let p = if denom > 0.0 {
                    100.0 * d.as_secs_f64() / denom
                } else {
                    0.0
                };
                (k, p)
            })
            .collect();
        let all_io = percent.values().sum();
        ExecTimeTable {
            label: label.to_string(),
            percent,
            all_io,
            exec_time,
        }
    }
}

/// Render several [`IoTimeTable`] columns side by side in the paper's
/// layout.
pub fn render_io_table(title: &str, columns: &[IoTimeTable]) -> String {
    render(
        title,
        columns.iter().map(|c| (&c.label, &c.percent)).collect(),
        None,
    )
}

/// Render several [`ExecTimeTable`] columns side by side, with the
/// "All I/O" summary row.
pub fn render_exec_table(title: &str, columns: &[ExecTimeTable]) -> String {
    let all_io: Vec<f64> = columns.iter().map(|c| c.all_io).collect();
    render(
        title,
        columns.iter().map(|c| (&c.label, &c.percent)).collect(),
        Some(all_io),
    )
}

fn render(
    title: &str,
    columns: Vec<(&String, &BTreeMap<OpKind, f64>)>,
    all_io: Option<Vec<f64>>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<12}", "Operation");
    for (label, _) in &columns {
        let _ = write!(out, "{label:>10}");
    }
    out.push('\n');
    let width = 12 + 10 * columns.len();
    let _ = writeln!(out, "{}", "-".repeat(width));
    for kind in OpKind::all() {
        // Skip rows no column ever executed.
        if !columns.iter().any(|(_, m)| m.contains_key(&kind)) {
            continue;
        }
        let _ = write!(out, "{:<12}", kind.label());
        for (_, m) in &columns {
            match m.get(&kind) {
                Some(p) => {
                    let _ = write!(out, "{p:>10.2}");
                }
                None => {
                    let _ = write!(out, "{:>10}", "-");
                }
            }
        }
        out.push('\n');
    }
    if let Some(all) = all_io {
        let _ = writeln!(out, "{}", "-".repeat(width));
        let _ = write!(out, "{:<12}", "All I/O");
        for p in all {
            let _ = write!(out, "{p:>10.2}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn durations(pairs: &[(OpKind, u64)]) -> BTreeMap<OpKind, Time> {
        pairs
            .iter()
            .map(|&(k, ms)| (k, Time::from_millis(ms)))
            .collect()
    }

    #[test]
    fn io_table_percentages() {
        let d = durations(&[
            (OpKind::Open, 500),
            (OpKind::Read, 300),
            (OpKind::Write, 200),
        ]);
        let t = IoTimeTable::from_durations("A", &d);
        assert!((t.pct(OpKind::Open) - 50.0).abs() < 1e-9);
        assert!((t.pct(OpKind::Read) - 30.0).abs() < 1e-9);
        assert_eq!(t.pct(OpKind::Seek), 0.0);
        assert_eq!(t.dominant(), Some(OpKind::Open));
        assert!((t.percent.values().sum::<f64>() - 100.0).abs() < 1e-6);
        assert_eq!(t.total_io, Time::from_millis(1000));
    }

    #[test]
    fn empty_io_table_is_consistent() {
        let t = IoTimeTable::from_durations("X", &BTreeMap::new());
        assert!(t.percent.is_empty());
        assert_eq!(t.dominant(), None);
    }

    #[test]
    fn exec_table_all_io_row() {
        let d = durations(&[(OpKind::Open, 100), (OpKind::Read, 100)]);
        let t = ExecTimeTable::from_durations("C", &d, Time::from_secs(10));
        assert!((t.percent[&OpKind::Open] - 1.0).abs() < 1e-9);
        assert!((t.all_io - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_marks_absent_ops_with_dash() {
        let a = IoTimeTable::from_durations("A", &durations(&[(OpKind::Open, 10)]));
        let b =
            IoTimeTable::from_durations("B", &durations(&[(OpKind::Open, 5), (OpKind::Gopen, 5)]));
        let text = render_io_table("Table 2", &[a, b]);
        assert!(text.contains("Table 2"));
        assert!(text.contains("open"));
        let gopen_line = text.lines().find(|l| l.starts_with("gopen")).unwrap();
        assert!(gopen_line.contains('-'), "A never gopens: {gopen_line}");
        assert!(!text.contains("seek"), "no column has seeks");
    }

    #[test]
    fn render_exec_includes_all_io() {
        let t = ExecTimeTable::from_durations(
            "C",
            &durations(&[(OpKind::Write, 73)]),
            Time::from_secs(10),
        );
        let text = render_exec_table("Table 3", &[t]);
        assert!(text.contains("All I/O"));
        assert!(text.contains("0.73"));
    }
}
