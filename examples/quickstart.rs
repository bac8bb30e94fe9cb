//! Quickstart: build a small workload by hand, run it on a simulated
//! Paragon, and inspect the Pablo-style trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sioscope::simulator::{run, SimOptions};
use sioscope_analysis::table::{render_io_table, IoTimeTable};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{IoMode, IoOp, PfsConfig};
use sioscope_sim::Time;
use sioscope_trace::LifetimeSummary;
use sioscope_workloads::{FileSpec, Stmt, Workload};

fn main() {
    // Four nodes: everyone reads a shared input file under M_UNIX
    // (serialized — the paper's version-A pattern), then all nodes
    // write disjoint slices of a result file under M_ASYNC (the
    // version-C pattern).
    let nodes = 4u32;
    let slice = 256 * 1024u64;
    let programs = (0..nodes)
        .map(|pid| {
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Open,
            }];
            for _ in 0..32 {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: 1024 },
                });
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p.push(Stmt::Compute(Time::from_secs(2)));
            p.push(Stmt::Io {
                file: 1,
                op: IoOp::Gopen {
                    group: nodes,
                    mode: IoMode::MAsync,
                    record_size: None,
                },
            });
            p.push(Stmt::Io {
                file: 1,
                op: IoOp::Seek {
                    offset: u64::from(pid) * slice,
                },
            });
            for _ in 0..4 {
                p.push(Stmt::Io {
                    file: 1,
                    op: IoOp::Write { size: slice / 4 },
                });
            }
            p.push(Stmt::Io {
                file: 1,
                op: IoOp::Close,
            });
            p
        })
        .collect();

    let workload = Workload {
        name: "quickstart".into(),
        version: "demo".into(),
        os: OsRelease::Osf13,
        nodes,
        files: vec![
            FileSpec {
                name: "input".into(),
                initial_size: 1 << 20,
            },
            FileSpec {
                name: "output".into(),
                initial_size: 0,
            },
        ],
        programs,
        phases: vec![],
    };

    let pfs = PfsConfig::caltech(nodes, OsRelease::Osf13);
    let result = run(&workload, pfs, SimOptions::default()).expect("workload runs");

    println!("execution time : {}", result.exec_time);
    println!("events         : {}", result.events);
    println!("I/O operations : {}", result.trace.len());
    println!("total I/O time : {}", result.trace.total_io_time());
    println!();

    let table = IoTimeTable::from_durations("demo", &result.trace.duration_by_kind());
    println!(
        "{}",
        render_io_table("Share of I/O time by operation:", &[table])
    );

    for file_idx in [0u32, 1] {
        let summary =
            LifetimeSummary::from_index(result.trace.index(), sioscope_sim::FileId(file_idx));
        println!(
            "file {}: {} bytes accessed, open span {:?}",
            workload.files[file_idx as usize].name,
            summary.bytes_accessed(),
            summary.open_span().map(|t| t.to_string()),
        );
    }
}
