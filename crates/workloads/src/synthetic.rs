//! The derived parallel-file-system benchmark suite.
//!
//! The paper closes: *"From these characterizations, a comprehensive
//! set of parallel file system I/O benchmarks will be derived."* This
//! module is that derivation: each kernel isolates one access pattern
//! the ESCAT/PRISM study found to matter, parameterized by node count,
//! request size and volume, so file-system variants (modes, policies,
//! machine configurations) can be compared on exactly the behaviours
//! the applications exhibited.
//!
//! | kernel | pattern distilled from |
//! |---|---|
//! | `sequential_scan` | ESCAT phase-3 reload / PRISM restart body |
//! | `strided_read` | per-node slices of a shared matrix |
//! | `checkpoint_burst` | PRISM's periodic statistics bursts |
//! | `collective_reload` | ESCAT's M_RECORD quadrature rounds |
//! | `global_init_read` | PRISM's M_GLOBAL parameter reads |
//! | `log_append` | stdout-style M_LOG appends |
//! | `random_small_io` | the untuned small-request pathology |
//! | `staging_pipeline` | ESCAT's write-then-reload staging cycle |
//! | `msync_result_gather` | node-ordered variable-size result output (M_SYNC) |

use crate::program::{FileSpec, Stmt, Workload};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{IoMode, IoOp};
use sioscope_sim::{DetRng, Time};

/// Common kernel parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// Request size in bytes.
    pub request: u64,
    /// Total bytes moved across all nodes.
    pub total_bytes: u64,
    /// Compute time inserted between consecutive requests per node.
    pub think_time: Time,
    /// RNG seed (random kernels).
    pub seed: u64,
}

impl KernelConfig {
    /// A small default: 8 nodes, 4 KB requests, 16 MB total.
    pub fn small() -> Self {
        KernelConfig {
            nodes: 8,
            request: 4096,
            total_bytes: 16 << 20,
            think_time: Time::from_micros(200),
            seed: 0xBE7C,
        }
    }

    /// Paper-scale default: 64 nodes, 8 KB requests, 256 MB total —
    /// requests small enough to exercise the client buffering and
    /// policy paths (the regime the paper's applications lived in).
    pub fn paper_scale() -> Self {
        KernelConfig {
            nodes: 64,
            request: 8 << 10,
            total_bytes: 256 << 20,
            think_time: Time::from_micros(500),
            seed: 0x510,
        }
    }

    fn requests_per_node(&self) -> u64 {
        (self.total_bytes / u64::from(self.nodes) / self.request).max(1)
    }
}

fn workload(name: &str, nodes: u32, files: Vec<FileSpec>, programs: Vec<Vec<Stmt>>) -> Workload {
    Workload {
        name: format!("synthetic/{name}"),
        version: "bench".into(),
        os: OsRelease::Osf13,
        nodes,
        files,
        programs,
        phases: vec![],
    }
}

/// Every node scans its own contiguous region of a shared file
/// sequentially — the staged-data reload pattern.
pub(crate) fn sequential_scan(cfg: &KernelConfig) -> Workload {
    let per_node = cfg.requests_per_node() * cfg.request;
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut p = vec![
                Stmt::Io {
                    file: 0,
                    op: IoOp::Gopen {
                        group: cfg.nodes,
                        mode: IoMode::MAsync,
                        record_size: None,
                    },
                },
                Stmt::Io {
                    file: 0,
                    op: IoOp::Seek {
                        offset: u64::from(pid) * per_node,
                    },
                },
            ];
            for _ in 0..cfg.requests_per_node() {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: cfg.request },
                });
                p.push(Stmt::Compute(cfg.think_time));
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "sequential-scan",
        cfg.nodes,
        vec![FileSpec {
            name: "scan.dat".into(),
            initial_size: per_node * u64::from(cfg.nodes),
        }],
        programs,
    )
}

/// Nodes read interleaved stripes of a shared file: node `i` reads
/// request `k` at offset `(k * nodes + i) * request` — the classic
/// strided distribution of a block-cyclic matrix.
pub(crate) fn strided_read(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MAsync,
                    record_size: None,
                },
            }];
            for k in 0..reqs {
                let offset = (k * u64::from(cfg.nodes) + u64::from(pid)) * cfg.request;
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Seek { offset },
                });
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: cfg.request },
                });
                p.push(Stmt::Compute(cfg.think_time));
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "strided-read",
        cfg.nodes,
        vec![FileSpec {
            name: "strided.dat".into(),
            initial_size: reqs * u64::from(cfg.nodes) * cfg.request,
        }],
        programs,
    )
}

/// Synchronized periodic write bursts from node zero (measurement
/// records) plus all-node barriers — the checkpoint shape.
pub(crate) fn checkpoint_burst(cfg: &KernelConfig, bursts: u32) -> Workload {
    let writes_per_burst = (cfg.requests_per_node() / u64::from(bursts.max(1))).max(1);
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut p = Vec::new();
            if pid == 0 {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Open,
                });
            }
            for _ in 0..bursts {
                p.push(Stmt::Compute(Time::from_millis(200)));
                if pid == 0 {
                    for _ in 0..writes_per_burst {
                        p.push(Stmt::Io {
                            file: 0,
                            op: IoOp::Write { size: cfg.request },
                        });
                    }
                    p.push(Stmt::Io {
                        file: 0,
                        op: IoOp::Flush,
                    });
                }
                p.push(Stmt::Barrier);
            }
            if pid == 0 {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Close,
                });
            }
            p
        })
        .collect();
    workload(
        "checkpoint-burst",
        cfg.nodes,
        vec![FileSpec {
            name: "ckpt.dat".into(),
            initial_size: 0,
        }],
        programs,
    )
}

/// All nodes reload staged data in node-ordered M_RECORD rounds —
/// the ESCAT phase-3 kernel. The request size is forced to a record
/// that tiles (`total = nodes * request * rounds`).
pub(crate) fn collective_reload(cfg: &KernelConfig) -> Workload {
    let rounds = cfg.requests_per_node().max(1);
    let programs = (0..cfg.nodes)
        .map(|_| {
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MRecord,
                    record_size: Some(cfg.request),
                },
            }];
            for _ in 0..rounds {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: cfg.request },
                });
                p.push(Stmt::Compute(cfg.think_time));
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "collective-reload",
        cfg.nodes,
        vec![FileSpec {
            name: "staged.dat".into(),
            initial_size: rounds * u64::from(cfg.nodes) * cfg.request,
        }],
        programs,
    )
}

/// All nodes read the same initialization data through M_GLOBAL —
/// one disk access per request regardless of node count.
pub(crate) fn global_init_read(cfg: &KernelConfig) -> Workload {
    let reqs = (cfg.total_bytes / cfg.request).clamp(1, 4096);
    let programs = (0..cfg.nodes)
        .map(|_| {
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MGlobal,
                    record_size: None,
                },
            }];
            for _ in 0..reqs {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: cfg.request },
                });
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "global-init-read",
        cfg.nodes,
        vec![FileSpec {
            name: "init.dat".into(),
            initial_size: reqs * cfg.request,
        }],
        programs,
    )
}

/// Unsynchronized first-come-first-served appends to a shared log —
/// the stdout pattern (M_LOG).
pub(crate) fn log_append(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let mut root_rng = DetRng::new(cfg.seed);
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut rng = root_rng.fork(u64::from(pid));
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MLog,
                    record_size: None,
                },
            }];
            for _ in 0..reqs {
                p.push(Stmt::Compute(rng.jitter(cfg.think_time, 0.5)));
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Write { size: cfg.request },
                });
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    let _ = &mut root_rng;
    workload(
        "log-append",
        cfg.nodes,
        vec![FileSpec {
            name: "app.log".into(),
            initial_size: 0,
        }],
        programs,
    )
}

/// Random small reads over a large shared file with buffering off —
/// the pathology the paper's developers tuned away from.
pub(crate) fn random_small_io(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let extent = cfg.total_bytes.max(cfg.request * 2);
    let root_rng = DetRng::new(cfg.seed);
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut rng = root_rng.fork(u64::from(pid));
            let mut p = vec![
                Stmt::Io {
                    file: 0,
                    op: IoOp::Gopen {
                        group: cfg.nodes,
                        mode: IoMode::MAsync,
                        record_size: None,
                    },
                },
                Stmt::Io {
                    file: 0,
                    op: IoOp::SetBuffering { enabled: false },
                },
            ];
            for _ in 0..reqs {
                let offset = rng.range_inclusive(0, extent - cfg.request);
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Seek { offset },
                });
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: cfg.request },
                });
                p.push(Stmt::Compute(cfg.think_time));
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "random-small-io",
        cfg.nodes,
        vec![FileSpec {
            name: "random.dat".into(),
            initial_size: extent,
        }],
        programs,
    )
}

/// Write staged data from all nodes (M_ASYNC), synchronize, reload it
/// collectively (M_RECORD) — ESCAT's full out-of-core staging cycle.
pub(crate) fn staging_pipeline(cfg: &KernelConfig) -> Workload {
    let record = cfg.request.max(64 << 10);
    let rounds = (cfg.total_bytes / (u64::from(cfg.nodes) * record)).max(1);
    let per_node = rounds * record;
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let mut p = vec![
                Stmt::Io {
                    file: 0,
                    op: IoOp::Gopen {
                        group: cfg.nodes,
                        mode: IoMode::MAsync,
                        record_size: None,
                    },
                },
                Stmt::Io {
                    file: 0,
                    op: IoOp::Seek {
                        offset: u64::from(pid) * per_node,
                    },
                },
            ];
            for _ in 0..rounds {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Write { size: record },
                });
                p.push(Stmt::Compute(cfg.think_time));
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p.push(Stmt::Barrier);
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MRecord,
                    record_size: Some(record),
                },
            });
            for _ in 0..rounds {
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Read { size: record },
                });
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "staging-pipeline",
        cfg.nodes,
        vec![FileSpec {
            name: "stage.dat".into(),
            initial_size: 0,
        }],
        programs,
    )
}

/// Every node contributes a variable-size result record to a shared
/// output file in node order through M_SYNC — the synchronized result
/// gather the mode exists for. Node `i` writes `request + i * 256`
/// bytes per round.
pub(crate) fn msync_result_gather(cfg: &KernelConfig) -> Workload {
    let rounds = cfg.requests_per_node().clamp(1, 512);
    let programs = (0..cfg.nodes)
        .map(|pid| {
            let my_size = cfg.request + u64::from(pid) * 256;
            let mut p = vec![Stmt::Io {
                file: 0,
                op: IoOp::Gopen {
                    group: cfg.nodes,
                    mode: IoMode::MSync,
                    record_size: None,
                },
            }];
            for _ in 0..rounds {
                p.push(Stmt::Compute(cfg.think_time));
                p.push(Stmt::Io {
                    file: 0,
                    op: IoOp::Write { size: my_size },
                });
            }
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Close,
            });
            p
        })
        .collect();
    workload(
        "msync-result-gather",
        cfg.nodes,
        vec![FileSpec {
            name: "results.dat".into(),
            initial_size: 0,
        }],
        programs,
    )
}

/// A vector-supercomputer-era workload for the §2 related-work
/// contrast: one process (the Cray had no I/O parallelism to speak
/// of) cycling through compute → burst-write → compute phases with
/// clockwork regularity — the "highly regular, cyclical, and bursty"
/// behaviour Miller & Katz reported, against which the paper's
/// Paragon workloads look irregular.
pub fn cray_cyclical(cfg: &KernelConfig, cycles: u32) -> Workload {
    let writes_per_cycle = (cfg.requests_per_node() / u64::from(cycles.max(1))).max(1);
    let mut p = vec![Stmt::Io {
        file: 0,
        op: IoOp::Open,
    }];
    for _ in 0..cycles {
        p.push(Stmt::Compute(Time::from_secs(30)));
        for _ in 0..writes_per_cycle {
            p.push(Stmt::Io {
                file: 0,
                op: IoOp::Write { size: cfg.request },
            });
        }
    }
    p.push(Stmt::Io {
        file: 0,
        op: IoOp::Close,
    });
    workload(
        "cray-cyclical",
        1,
        vec![FileSpec {
            name: "cray.dat".into(),
            initial_size: 0,
        }],
        vec![p],
    )
}

/// All kernels, with names, at one configuration.
pub fn suite(cfg: &KernelConfig) -> Vec<Workload> {
    vec![
        sequential_scan(cfg),
        strided_read(cfg),
        checkpoint_burst(cfg, 5),
        collective_reload(cfg),
        global_init_read(cfg),
        log_append(cfg),
        random_small_io(cfg),
        staging_pipeline(cfg),
        msync_result_gather(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_validate() {
        let cfg = KernelConfig::small();
        for w in suite(&cfg) {
            let problems = w.validate();
            assert!(problems.is_empty(), "{}: {problems:?}", w.name);
        }
    }

    #[test]
    fn suite_has_nine_distinct_kernels() {
        let cfg = KernelConfig::small();
        let names: Vec<String> = suite(&cfg).iter().map(|w| w.name.clone()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn cray_kernel_is_single_node_and_cyclical() {
        let cfg = KernelConfig::small();
        let w = cray_cyclical(&cfg, 5);
        assert_eq!(w.nodes, 1);
        assert!(w.validate().is_empty());
        let computes = w.programs[0]
            .iter()
            .filter(|s| matches!(s, Stmt::Compute(_)))
            .count();
        assert_eq!(computes, 5, "one compute burst per cycle");
    }

    #[test]
    fn msync_gather_writes_node_ordered_variable_sizes() {
        let cfg = KernelConfig::small();
        let w = msync_result_gather(&cfg);
        assert!(w.validate().is_empty());
        // Node sizes differ: the M_SYNC mode's distinguishing feature.
        let size_of = |pid: usize| -> u64 {
            w.programs[pid]
                .iter()
                .find_map(|s| match s {
                    Stmt::Io {
                        op: IoOp::Write { size },
                        ..
                    } => Some(*size),
                    _ => None,
                })
                .expect("writes present")
        };
        assert_ne!(size_of(0), size_of(1));
    }

    #[test]
    fn volumes_match_configuration() {
        let cfg = KernelConfig::small();
        let (read, _) = sequential_scan(&cfg).declared_volume();
        assert_eq!(read, cfg.total_bytes);
        let (read, _) = strided_read(&cfg).declared_volume();
        assert_eq!(read, cfg.total_bytes);
        let (_, written) = log_append(&cfg).declared_volume();
        assert_eq!(written, cfg.total_bytes);
        // Staging moves the volume twice: once out, once back.
        let (read, written) = staging_pipeline(&cfg).declared_volume();
        assert_eq!(read, written);
    }

    #[test]
    fn collective_reload_tiles_records() {
        let cfg = KernelConfig::small();
        let w = collective_reload(&cfg);
        let (read, _) = w.declared_volume();
        assert_eq!(read % (u64::from(cfg.nodes) * cfg.request), 0);
    }

    #[test]
    fn checkpoint_burst_writes_through_node_zero_only() {
        let cfg = KernelConfig::small();
        let w = checkpoint_burst(&cfg, 4);
        for (pid, prog) in w.programs.iter().enumerate() {
            let writes = prog.iter().any(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        op: IoOp::Write { .. },
                        ..
                    }
                )
            });
            assert_eq!(writes, pid == 0);
        }
    }

    #[test]
    fn random_kernel_is_deterministic_per_seed() {
        let cfg = KernelConfig::small();
        let a = random_small_io(&cfg);
        let b = random_small_io(&cfg);
        assert_eq!(a.programs, b.programs);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let c = random_small_io(&cfg2);
        assert_ne!(a.programs, c.programs);
    }
}
