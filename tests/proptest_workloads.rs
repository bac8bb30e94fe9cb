//! Property-based end-to-end tests: randomly generated (but
//! structurally valid) workloads run to completion without deadlock,
//! conserve bytes, and produce causally consistent traces.

use sioscope::simulator::{run, SimOptions};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{IoMode, IoOp, OpKind, PfsConfig};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, Time};
use sioscope_workloads::{FileSpec, Stmt, Workload};

/// A random but well-formed workload: `nodes` processes, one shared
/// input file (collectively opened in a random collective-safe mode)
/// plus per-node private files, with random read/write/compute
/// sequences and matching barrier placement.
fn arb_workload(rng: &mut DetRng) -> Workload {
    let nodes = rng.range_inclusive(2, 5) as u32;
    let barriers = rng.range_inclusive(0, 2);
    let mut ops = |min_len: u64, max_len: u64, kinds: u64, max_size: u64| -> Vec<(u64, u64)> {
        let len = rng.range_inclusive(min_len, max_len);
        (0..len)
            .map(|_| {
                (
                    rng.range_inclusive(0, kinds - 1),
                    rng.range_inclusive(1, max_size),
                )
            })
            .collect()
    };
    let shared_ops = ops(1, 19, 4, 199_999);
    let private_ops = ops(0, 14, 2, 99_999);
    let shared_mode =
        [IoMode::MGlobal, IoMode::MAsync, IoMode::MUnix][rng.range_inclusive(0, 2) as usize];
    let mut files = vec![FileSpec {
        name: "shared".into(),
        initial_size: 64 << 20,
    }];
    for i in 0..nodes {
        files.push(FileSpec {
            name: format!("private{i}"),
            initial_size: 1 << 20,
        });
    }
    let programs = (0..nodes)
        .map(|pid| {
            let mut p = Vec::new();
            // Shared file: collective gopen in the chosen mode.
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: nodes,
                    mode: shared_mode,
                    record_size: None,
                },
            });
            for &(kind, size) in &shared_ops {
                // All nodes must issue identical collective
                // streams in M_GLOBAL; reads only to keep the
                // shared pointer meaningful.
                match (shared_mode, kind) {
                    (IoMode::MGlobal, _) => p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Read {
                            size: size % 65_536 + 1,
                        },
                    }),
                    (_, 0) => p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Read { size },
                    }),
                    (_, 1) => p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Write { size },
                    }),
                    (_, 2) => p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Seek {
                            offset: (size * (u64::from(pid) + 1)) % (32 << 20),
                        },
                    }),
                    _ => p.push(Stmt::Compute(Time::from_millis(size % 50 + 1))),
                }
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            for _ in 0..barriers {
                p.push(Stmt::Barrier);
            }
            // Private file: unconstrained ops.
            let f = 1 + pid;
            p.push(Stmt::Io {
                file: f,
                op: IoOp::Open,
            });
            for &(kind, size) in &private_ops {
                match kind {
                    0 => p.push(Stmt::Io {
                        file: f,
                        op: IoOp::Read { size },
                    }),
                    _ => p.push(Stmt::Io {
                        file: f,
                        op: IoOp::Write { size },
                    }),
                }
            }
            p.push(Stmt::Io {
                file: f,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    Workload {
        name: "random".into(),
        version: "prop".into(),
        os: OsRelease::Osf13,
        nodes,
        files,
        programs,
        phases: vec![],
    }
}

/// Random workloads validate, complete without deadlock, and every
/// trace event is causally sane.
#[test]
fn random_workloads_run_to_completion() {
    cases("random_workloads_run_to_completion", 64, |rng| {
        let w = arb_workload(rng);
        assert!(w.validate().is_empty(), "{:?}", w.validate());
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r = run(&w, cfg, SimOptions::default()).expect("no deadlock");
        assert!(r.exec_time > Time::ZERO);
        assert_eq!(r.node_finish.len(), w.nodes as usize);
        for e in r.trace.events() {
            let end = e.start.as_nanos().checked_add(e.duration.as_nanos());
            assert!(end.is_some(), "event interval overflows");
            assert!(e.end() <= r.exec_time);
        }
        // Byte conservation.
        let (reads, writes) = w.declared_volume();
        let by = r.trace.into_index().bytes_by_kind();
        assert_eq!(by.get(&OpKind::Read).copied().unwrap_or(0), reads);
        assert_eq!(by.get(&OpKind::Write).copied().unwrap_or(0), writes);
    });
}

/// The same workload is bit-for-bit deterministic.
#[test]
fn random_workloads_are_deterministic() {
    cases("random_workloads_are_deterministic", 64, |rng| {
        let w = arb_workload(rng);
        let cfg = PfsConfig::caltech(w.nodes, w.os);
        let r1 = run(&w, cfg.clone(), SimOptions::default()).expect("run 1");
        let r2 = run(&w, cfg, SimOptions::default()).expect("run 2");
        assert_eq!(r1.exec_time, r2.exec_time);
        assert_eq!(r1.trace.events(), r2.trace.events());
    });
}
