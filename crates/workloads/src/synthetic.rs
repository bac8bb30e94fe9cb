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

use crate::builder::ProgramBuilder;
use crate::program::{FileSpec, Workload};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::IoMode;
use sioscope_sim::{DetRng, Time};

/// Common kernel parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// Request size in bytes.
    pub request: u64,
    /// The volume each kernel sizes itself from. Most give every node
    /// `total_bytes / nodes / request` requests (at least one), so they
    /// move about `total_bytes` in all; `staging_pipeline` writes about
    /// that much and reads it back, moving it twice. Four move
    /// something else: `global_init_read` sizes its shared file from
    /// it (at most 4,096 requests) and every node reads the whole file;
    /// `msync_result_gather` keeps the per-node request count (at most
    /// 512 rounds) but node `i` writes `request + i * 256` bytes a
    /// round; `checkpoint_burst` and `cray_cyclical` have one node
    /// write one node's share, `total_bytes / nodes`, over their bursts
    /// or cycles.
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

/// A kernel over one shared file `(file, size)`: node `pid`'s program
/// is what `program(pid, _)` writes.
fn kernel(
    name: &str,
    nodes: u32,
    (file, size): (&str, u64),
    program: impl Fn(u32, &mut ProgramBuilder),
) -> Workload {
    Workload {
        name: format!("synthetic/{name}"),
        version: "bench".into(),
        os: OsRelease::Osf13,
        nodes,
        files: vec![FileSpec {
            name: file.into(),
            initial_size: size,
        }],
        programs: (0..nodes)
            .map(|pid| {
                let mut b = ProgramBuilder::new();
                program(pid, &mut b);
                b.build()
            })
            .collect(),
        phases: vec![],
    }
}

/// Every node scans its own contiguous region of a shared file
/// sequentially — the staged-data reload pattern.
pub(crate) fn sequential_scan(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let per_node = reqs * cfg.request;
    let file = ("scan.dat", per_node * u64::from(cfg.nodes));
    kernel("sequential-scan", cfg.nodes, file, |pid, b| {
        let start = u64::from(pid) * per_node;
        b.gopen(0, cfg.nodes, IoMode::MAsync).seek(0, start);
        for _ in 0..reqs {
            b.read(0, cfg.request).compute(cfg.think_time);
        }
        b.close(0);
    })
}

/// Nodes read interleaved stripes of a shared file: node `i` reads
/// request `k` at offset `(k * nodes + i) * request` — the classic
/// strided distribution of a block-cyclic matrix.
pub(crate) fn strided_read(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let nodes = u64::from(cfg.nodes);
    let file = ("strided.dat", reqs * nodes * cfg.request);
    kernel("strided-read", cfg.nodes, file, |pid, b| {
        b.gopen(0, cfg.nodes, IoMode::MAsync);
        for k in 0..reqs {
            let offset = (k * nodes + u64::from(pid)) * cfg.request;
            b.seek(0, offset).read(0, cfg.request);
            b.compute(cfg.think_time);
        }
        b.close(0);
    })
}

/// Synchronized periodic write bursts from node zero (measurement
/// records) plus all-node barriers — the checkpoint shape.
pub(crate) fn checkpoint_burst(cfg: &KernelConfig, bursts: u32) -> Workload {
    let writes_per_burst = (cfg.requests_per_node() / u64::from(bursts.max(1))).max(1);
    kernel("checkpoint-burst", cfg.nodes, ("ckpt.dat", 0), |pid, b| {
        let writer = pid == 0;
        if writer {
            b.open(0);
        }
        for _ in 0..bursts {
            b.compute(Time::from_millis(200));
            if writer {
                for _ in 0..writes_per_burst {
                    b.write(0, cfg.request);
                }
                b.flush(0);
            }
            b.barrier();
        }
        if writer {
            b.close(0);
        }
    })
}

/// All nodes reload staged data in node-ordered M_RECORD rounds —
/// the ESCAT phase-3 kernel. The request size is forced to a record
/// that tiles (`total = nodes * request * rounds`).
pub(crate) fn collective_reload(cfg: &KernelConfig) -> Workload {
    let rounds = cfg.requests_per_node().max(1);
    let file = ("staged.dat", rounds * u64::from(cfg.nodes) * cfg.request);
    kernel("collective-reload", cfg.nodes, file, |_, b| {
        b.gopen_record(0, cfg.nodes, cfg.request);
        for _ in 0..rounds {
            b.read(0, cfg.request).compute(cfg.think_time);
        }
        b.close(0);
    })
}

/// All nodes read the same initialization data through M_GLOBAL —
/// one disk access per request regardless of node count.
pub(crate) fn global_init_read(cfg: &KernelConfig) -> Workload {
    let reqs = (cfg.total_bytes / cfg.request).clamp(1, 4096);
    let file = ("init.dat", reqs * cfg.request);
    kernel("global-init-read", cfg.nodes, file, |_, b| {
        b.gopen(0, cfg.nodes, IoMode::MGlobal);
        for _ in 0..reqs {
            b.read(0, cfg.request);
        }
        b.close(0);
    })
}

/// Unsynchronized first-come-first-served appends to a shared log —
/// the stdout pattern (M_LOG).
pub(crate) fn log_append(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let root_rng = DetRng::new(cfg.seed);
    kernel("log-append", cfg.nodes, ("app.log", 0), |pid, b| {
        let mut rng = root_rng.fork(u64::from(pid));
        b.gopen(0, cfg.nodes, IoMode::MLog);
        for _ in 0..reqs {
            b.compute_jittered(cfg.think_time, 0.5, &mut rng)
                .write(0, cfg.request);
        }
        b.close(0);
    })
}

/// Random small reads over a large shared file with buffering off —
/// the pathology the paper's developers tuned away from.
pub(crate) fn random_small_io(cfg: &KernelConfig) -> Workload {
    let reqs = cfg.requests_per_node();
    let extent = cfg.total_bytes.max(cfg.request * 2);
    let root_rng = DetRng::new(cfg.seed);
    let file = ("random.dat", extent);
    kernel("random-small-io", cfg.nodes, file, |pid, b| {
        let mut rng = root_rng.fork(u64::from(pid));
        b.gopen(0, cfg.nodes, IoMode::MAsync);
        b.set_buffering(0, false);
        for _ in 0..reqs {
            let offset = rng.range_inclusive(0, extent - cfg.request);
            b.seek(0, offset).read(0, cfg.request);
            b.compute(cfg.think_time);
        }
        b.close(0);
    })
}

/// Write staged data from all nodes (M_ASYNC), synchronize, reload it
/// collectively (M_RECORD) — ESCAT's full out-of-core staging cycle.
pub(crate) fn staging_pipeline(cfg: &KernelConfig) -> Workload {
    let record = cfg.request.max(64 << 10);
    let rounds = (cfg.total_bytes / (u64::from(cfg.nodes) * record)).max(1);
    let per_node = rounds * record;
    kernel("staging-pipeline", cfg.nodes, ("stage.dat", 0), |pid, b| {
        let start = u64::from(pid) * per_node;
        b.gopen(0, cfg.nodes, IoMode::MAsync).seek(0, start);
        for _ in 0..rounds {
            b.write(0, record).compute(cfg.think_time);
        }
        b.close(0).barrier().gopen_record(0, cfg.nodes, record);
        for _ in 0..rounds {
            b.read(0, record);
        }
        b.close(0);
    })
}

/// Every node contributes a variable-size result record to a shared
/// output file in node order through M_SYNC — the synchronized result
/// gather the mode exists for. Node `i` writes `request + i * 256`
/// bytes per round.
pub(crate) fn msync_result_gather(cfg: &KernelConfig) -> Workload {
    let rounds = cfg.requests_per_node().clamp(1, 512);
    let file = ("results.dat", 0);
    kernel("msync-result-gather", cfg.nodes, file, |pid, b| {
        let my_size = cfg.request + u64::from(pid) * 256;
        b.gopen(0, cfg.nodes, IoMode::MSync);
        for _ in 0..rounds {
            b.compute(cfg.think_time).write(0, my_size);
        }
        b.close(0);
    })
}

/// A vector-supercomputer-era workload for the §2 related-work
/// contrast: one process (the Cray had no I/O parallelism to speak
/// of) cycling through compute → burst-write → compute phases with
/// clockwork regularity — the "highly regular, cyclical, and bursty"
/// behaviour Miller & Katz reported, against which the paper's
/// Paragon workloads look irregular.
pub fn cray_cyclical(cfg: &KernelConfig, cycles: u32) -> Workload {
    let writes_per_cycle = (cfg.requests_per_node() / u64::from(cycles.max(1))).max(1);
    kernel("cray-cyclical", 1, ("cray.dat", 0), |_, b| {
        b.open(0);
        for _ in 0..cycles {
            b.compute(Time::from_secs(30));
            for _ in 0..writes_per_cycle {
                b.write(0, cfg.request);
            }
        }
        b.close(0);
    })
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
    use crate::program::Stmt;
    use sioscope_pfs::IoOp;

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
