//! ESCAT — the Schwinger Multichannel electron scattering code (§4).
//!
//! Four I/O phases:
//!
//! 1. **Phase One** — initialization data is read from three input
//!    files (compulsory I/O).
//! 2. **Phase Two** — quadrature data is written to disk (data
//!    staging) in a series of compute/write cycles, one data file per
//!    collision channel.
//! 3. **Phase Three** — quadrature data is read back (data staging),
//!    combined with energy-dependent structures.
//! 4. **Phase Four** — results are written (compulsory I/O), one
//!    output file per channel.
//!
//! Version differences (Table 1):
//!
//! | Phase | A | B | C |
//! |---|---|---|---|
//! | One   | all nodes, M_UNIX | node zero, M_UNIX | node zero, M_UNIX |
//! | Two   | node zero, M_UNIX | all nodes, M_UNIX (gopen + seeks) | all nodes, M_ASYNC |
//! | Three | node zero, M_UNIX | all nodes, M_RECORD | all nodes, M_RECORD |
//! | Four  | node zero, M_UNIX | node zero, M_UNIX | node zero, M_UNIX |
//!
//! Versions A and B ran under OSF/1 R1.2 (no M_ASYNC), version C under
//! R1.3. Figure 1 tracks six progressions; [`EscatVersion`] includes
//! the three intermediate builds (`A2`, `B2`, `B3`) whose differences
//! were instrumentation and operating-system updates rather than I/O
//! restructuring.

use crate::builder::ProgramBuilder;
use crate::checkpoint::{young_interval, CheckpointPolicy, Recoverable};
use crate::program::{FileSpec, PhaseDesc, Stmt, Workload};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::IoMode;
use sioscope_sim::{DetRng, Time};

/// The six code progressions of Figure 1. `A`, `B`, `C` are the
/// versions analyzed in Tables 1–3; `A2`, `B2`, `B3` are the
/// intermediate builds (instrumentation and OS updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EscatVersion {
    /// Initial port from the Intel Touchstone Delta (CFS habits).
    A,
    /// A with updated Pablo instrumentation.
    A2,
    /// Restructured: node-zero reads + broadcast, all-node staging
    /// writes with seeks under M_UNIX, M_RECORD reloads.
    B,
    /// B with reduced instrumentation overhead.
    B2,
    /// B under the OSF/1 R1.3 upgrade.
    B3,
    /// B with phase-two writes switched to M_ASYNC.
    C,
}

impl EscatVersion {
    /// The I/O structure this progression uses (intermediates share
    /// their parent's structure).
    pub(crate) fn structure(self) -> EscatVersion {
        match self {
            EscatVersion::A | EscatVersion::A2 => EscatVersion::A,
            EscatVersion::B | EscatVersion::B2 | EscatVersion::B3 => EscatVersion::B,
            EscatVersion::C => EscatVersion::C,
        }
    }

    /// OS release the progression ran under.
    pub(crate) fn os(self) -> OsRelease {
        match self {
            EscatVersion::A | EscatVersion::A2 | EscatVersion::B | EscatVersion::B2 => {
                OsRelease::Osf12
            }
            EscatVersion::B3 | EscatVersion::C => OsRelease::Osf13,
        }
    }

    /// Multiplicative compute inflation relative to version C. The
    /// paper attributes part of the Figure-1 execution-time evolution
    /// to "operating system changes, new application code versions,
    /// and software instrumentation updates" — i.e. non-I/O overheads
    /// that shrank across progressions.
    pub(crate) fn compute_scale(self) -> f64 {
        match self {
            EscatVersion::A => 1.145,
            EscatVersion::A2 => 1.12,
            EscatVersion::B => 1.06,
            EscatVersion::B2 => 1.04,
            EscatVersion::B3 => 1.015,
            EscatVersion::C => 1.0,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EscatVersion::A => "A",
            EscatVersion::A2 => "A'",
            EscatVersion::B => "B",
            EscatVersion::B2 => "B'",
            EscatVersion::B3 => "B''",
            EscatVersion::C => "C",
        }
    }

    /// The six progressions in chronological order (Figure 1's
    /// x-axis).
    pub fn progressions() -> [EscatVersion; 6] {
        [
            EscatVersion::A,
            EscatVersion::A2,
            EscatVersion::B,
            EscatVersion::B2,
            EscatVersion::B3,
            EscatVersion::C,
        ]
    }
}

/// The two datasets the paper reports (§4.1, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EscatDataset {
    /// Electronic excitation of ethylene to its first triplet state:
    /// two collision channels (elastic + inelastic triplet), 128
    /// nodes.
    Ethylene,
    /// Electronic excitation of carbon monoxide: 13 collision
    /// channels, 256 nodes. Quadrature volume grows as O(channels³);
    /// we scale it down for simulation tractability (see DESIGN.md)
    /// while keeping I/O's share of execution time at the paper's
    /// ~20%.
    CarbonMonoxide,
}

impl EscatDataset {
    /// Number of collision channels (one quadrature file and one
    /// output file each).
    pub(crate) fn channels(self) -> u32 {
        match self {
            EscatDataset::Ethylene => 2,
            EscatDataset::CarbonMonoxide => 13,
        }
    }
}

/// Full ESCAT workload configuration.
///
/// ```
/// use sioscope_workloads::{EscatConfig, EscatVersion};
///
/// let workload = EscatConfig::ethylene(EscatVersion::C).build();
/// assert_eq!(workload.nodes, 128);
/// assert!(workload.validate().is_empty());
/// // Three inputs, two quadrature files, two output files.
/// assert_eq!(workload.files.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct EscatConfig {
    /// Code progression to build.
    pub version: EscatVersion,
    /// Dataset.
    pub dataset: EscatDataset,
    /// Compute nodes (paper: 128 for ethylene, 256 for carbon
    /// monoxide).
    pub nodes: u32,
    /// RNG seed for compute jitter.
    pub seed: u64,
    /// Tunable request-stream parameters.
    pub(crate) knobs: EscatKnobs,
}

/// Calibration knobs for the ESCAT request stream. Defaults reproduce
/// the paper's figures for the ethylene dataset; the carbon monoxide
/// constructor scales them.
#[derive(Debug, Clone)]
pub(crate) struct EscatKnobs {
    /// Size of the problem-definition input file.
    pub input_problem_bytes: u64,
    /// Size of each of the two initial-matrix input files.
    pub input_matrix_bytes: u64,
    /// Small-read request size during phase one (paper: < 2 KB).
    pub init_small_read: u64,
    /// Number of small reads each reader performs per input file.
    pub init_small_reads_per_file: u32,
    /// Large-read request size during phase one.
    pub init_large_read: u64,
    /// Number of large reads per matrix file.
    pub init_large_reads: u32,
    /// Quadrature bytes per collision channel. Must be a multiple of
    /// `nodes × record_read` so M_RECORD rounds tile exactly.
    pub quad_bytes_per_channel: u64,
    /// Number of compute/write cycles in phase two.
    pub cycles: u32,
    /// Version-A phase-two write sizes (node zero coordinates writes
    /// "with four different request sizes", Fig. 4).
    pub write_sizes_a: [u64; 4],
    /// Version-B/C phase-two write size (Fig. 4: "all write requests
    /// are of the same size").
    pub write_size_bc: u64,
    /// Version-A phase-three read chunk (node zero reads "in small
    /// chunks (less than 2K bytes)").
    pub reload_chunk_a: u64,
    /// Version-B/C phase-three M_RECORD record size (128 KB — twice
    /// the PFS stripe unit).
    pub record_read: u64,
    /// Result bytes written per channel in phase four.
    pub output_bytes_per_channel: u64,
    /// Phase-four write size (small, < 2 KB).
    pub output_write: u64,
    /// Compute time before phase two starts (phase one work).
    pub compute_init: Time,
    /// Total compute across phase two (split over cycles, jittered
    /// ±20% per node per cycle).
    pub compute_stage: Time,
    /// Total compute across phase three.
    pub compute_solve: Time,
    /// Compute in phase four.
    pub compute_final: Time,
    /// Broadcast chunk used when node zero redistributes data.
    pub broadcast_chunk: u64,
}

impl EscatKnobs {
    /// Ethylene defaults (128 nodes, 2 channels).
    pub(crate) fn ethylene() -> Self {
        EscatKnobs {
            input_problem_bytes: 64 * 1024,
            input_matrix_bytes: 1536 * 1024,
            init_small_read: 1024,
            init_small_reads_per_file: 192,
            init_large_read: 640 * 1024,
            init_large_reads: 1,
            // 32 MB per channel = 2 M_RECORD rounds of 128 nodes ×
            // 128 KB.
            quad_bytes_per_channel: 32 * 1024 * 1024,
            cycles: 16,
            write_sizes_a: [512, 1024, 2048, 2944],
            write_size_bc: 1800,
            reload_chunk_a: 2048,
            record_read: 128 * 1024,
            output_bytes_per_channel: 1024 * 1024,
            output_write: 1500,
            compute_init: Time::from_secs(60),
            compute_stage: Time::from_secs(3300),
            compute_solve: Time::from_secs(1700),
            compute_final: Time::from_secs(120),
            broadcast_chunk: 1024 * 1024,
        }
    }

    /// Carbon monoxide (256 nodes, 13 channels). The physical
    /// quadrature volume scales as O(channels³); we scale the
    /// simulated volume by (13/2)² instead of (13/2)³ to keep event
    /// counts tractable, and shrink per-channel compute so that I/O
    /// reaches the ~20% share of Table 3.
    pub(crate) fn carbon_monoxide() -> Self {
        EscatKnobs {
            // 32 MB per channel = 1 M_RECORD round of 256 × 128 KB;
            // thirteen channels put 416 MB through the staging files.
            quad_bytes_per_channel: 32 * 1024 * 1024,
            cycles: 26,
            // Larger staging writes keep the op count simulable.
            write_size_bc: 16 * 1024,
            compute_init: Time::from_secs(120),
            compute_stage: Time::from_secs(2600),
            compute_solve: Time::from_secs(1500),
            compute_final: Time::from_secs(150),
            ..Self::ethylene()
        }
    }
}

impl EscatConfig {
    /// The ethylene study configuration for one progression.
    pub fn ethylene(version: EscatVersion) -> Self {
        EscatConfig {
            version,
            dataset: EscatDataset::Ethylene,
            nodes: 128,
            seed: 0xE5CA7,
            knobs: EscatKnobs::ethylene(),
        }
    }

    /// The carbon monoxide configuration (version C only in the
    /// paper's Table 3).
    pub fn carbon_monoxide(version: EscatVersion) -> Self {
        EscatConfig {
            version,
            dataset: EscatDataset::CarbonMonoxide,
            nodes: 256,
            seed: 0xC0C0,
            knobs: EscatKnobs::carbon_monoxide(),
        }
    }

    /// A scaled-down configuration for fast tests: 8 nodes, 1 MB of
    /// quadrature per channel, short compute.
    pub fn tiny(version: EscatVersion) -> Self {
        let mut knobs = EscatKnobs::ethylene();
        knobs.quad_bytes_per_channel = 8 * 128 * 1024; // 1 round at 8 nodes
        knobs.cycles = 2;
        knobs.compute_init = Time::from_secs(1);
        knobs.compute_stage = Time::from_secs(8);
        knobs.compute_solve = Time::from_secs(4);
        knobs.compute_final = Time::from_secs(1);
        knobs.init_small_reads_per_file = 5;
        EscatConfig {
            version,
            dataset: EscatDataset::Ethylene,
            nodes: 8,
            seed: 7,
            knobs,
        }
    }

    /// Validate the configuration's arithmetic: the quadrature volume
    /// must tile M_RECORD rounds exactly, the cycle structure must
    /// divide the volume, and the staging write size must fit a
    /// cycle's per-node share. Returns problems (empty = valid).
    pub(crate) fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let k = &self.knobs;
        let per_round = u64::from(self.nodes) * k.record_read;
        if per_round == 0 || !k.quad_bytes_per_channel.is_multiple_of(per_round) {
            problems.push(format!(
                "quadrature per channel ({}) must be a multiple of nodes x record ({})",
                k.quad_bytes_per_channel, per_round
            ));
        }
        let quad_total = u64::from(self.dataset.channels()) * k.quad_bytes_per_channel;
        let cycle_div = u64::from(k.cycles) * u64::from(self.nodes);
        if k.cycles == 0 || !quad_total.is_multiple_of(cycle_div) {
            problems.push(format!(
                "total quadrature ({quad_total}) must divide evenly over cycles x nodes ({cycle_div})"
            ));
        }
        if self.dataset.channels() != 0 && !k.cycles.is_multiple_of(self.dataset.channels()) {
            problems.push(format!(
                "cycles ({}) must be a multiple of channels ({}) so staging files fill evenly",
                k.cycles,
                self.dataset.channels()
            ));
        }
        if k.write_size_bc == 0 || k.init_small_read == 0 {
            problems.push("request sizes must be positive".into());
        }
        problems
    }

    /// Build the runnable workload.
    ///
    /// # Panics
    /// Panics if `EscatConfig::validate` reports problems.
    pub fn build(&self) -> Workload {
        let problems = self.validate();
        assert!(problems.is_empty(), "invalid ESCAT config: {problems:?}");
        let v = self.version.structure();
        let ch = self.dataset.channels();
        let n = self.nodes;
        let k = &self.knobs;
        let scale = self.version.compute_scale();

        // File table: 3 inputs, `ch` quadrature files, `ch` outputs.
        let mut files = vec![
            FileSpec {
                name: "escat/input.problem".into(),
                initial_size: k.input_problem_bytes,
            },
            FileSpec {
                name: "escat/input.matrix1".into(),
                initial_size: k.input_matrix_bytes,
            },
            FileSpec {
                name: "escat/input.matrix2".into(),
                initial_size: k.input_matrix_bytes,
            },
        ];
        for c in 0..ch {
            files.push(FileSpec {
                name: format!("escat/quad.ch{c}"),
                initial_size: 0,
            });
        }
        for c in 0..ch {
            files.push(FileSpec {
                name: format!("escat/out.ch{c}"),
                initial_size: 0,
            });
        }
        let quad_file = |c: u32| 3 + c;
        let out_file = |c: u32| 3 + ch + c;

        let root_rng = DetRng::new(self.seed);
        let mut programs = Vec::with_capacity(n as usize);
        for pid in 0..n {
            let mut rng = root_rng.fork(u64::from(pid));
            let mut b = ProgramBuilder::new();
            let is_root = pid == 0;

            // ---- Phase One: compulsory initialization reads --------
            match v {
                EscatVersion::A => {
                    // All nodes concurrently open and read the three
                    // input files under M_UNIX — fully serialized.
                    self.phase1_reads(&mut b);
                }
                _ => {
                    // B/C: node zero reads and broadcasts.
                    if is_root {
                        self.phase1_reads(&mut b);
                    }
                    let init_total = k.input_problem_bytes + 2 * k.input_matrix_bytes;
                    let chunks = init_total.div_ceil(k.broadcast_chunk);
                    for _ in 0..chunks {
                        b.broadcast(0, k.broadcast_chunk);
                    }
                }
            }
            b.compute_jittered(k.compute_init.scale(scale), 0.1, &mut rng);

            // ---- Phase Two: quadrature staging writes --------------
            let quad_total = u64::from(ch) * k.quad_bytes_per_channel;
            match v {
                EscatVersion::A => {
                    // Node zero collects and writes everything.
                    if is_root {
                        for c in 0..ch {
                            b.open(quad_file(c));
                        }
                    }
                    let per_cycle = quad_total / u64::from(k.cycles);
                    for cycle in 0..k.cycles {
                        b.compute_jittered(
                            (k.compute_stage / u64::from(k.cycles)).scale(scale),
                            0.2,
                            &mut rng,
                        );
                        b.barrier();
                        b.gather(0, per_cycle / u64::from(n));
                        if is_root {
                            // Four request sizes, round-robin.
                            let f = quad_file(cycle % ch);
                            let mut written = 0;
                            let mut i = 0usize;
                            while written < per_cycle {
                                let sz = k.write_sizes_a[i % 4].min(per_cycle - written);
                                b.write(f, sz);
                                written += sz;
                                i += 1;
                            }
                        }
                    }
                    if is_root {
                        for c in 0..ch {
                            b.close(quad_file(c));
                        }
                    }
                }
                _ => {
                    // All nodes write their share directly. The phase
                    // boundary synchronizes the nodes, so the
                    // collective opens see aligned arrivals.
                    b.barrier();
                    for c in 0..ch {
                        b.gopen(quad_file(c), n, IoMode::MUnix);
                        if v == EscatVersion::C {
                            // "Intel introduced the more efficient
                            // M_ASYNC mode in the OSF/1 1.3 release"
                            // (§4.1) — version C switches to it.
                            b.setiomode(quad_file(c), n, IoMode::MAsync);
                        }
                    }
                    let per_node_cycle = quad_total / (u64::from(k.cycles) * u64::from(n));
                    for cycle in 0..k.cycles {
                        b.compute_jittered(
                            (k.compute_stage / u64::from(k.cycles)).scale(scale),
                            0.2,
                            &mut rng,
                        );
                        let f = quad_file(cycle % ch);
                        // "Each node seeks to a calculated offset
                        // dependent on the node number, iteration, and
                        // the Paragon PFS stripe size before writing
                        // any data" (§4.1). Under M_UNIX (version B)
                        // each of these seeks is a serialized
                        // file-server round trip; under M_ASYNC
                        // (version C) they are local pointer updates.
                        let channel_cycle = u64::from(cycle / ch);
                        let base = channel_cycle * u64::from(n) * per_node_cycle
                            + u64::from(pid) * per_node_cycle;
                        let mut written = 0;
                        while written < per_node_cycle {
                            let sz = k.write_size_bc.min(per_node_cycle - written);
                            b.seek(f, base + written);
                            b.write(f, sz);
                            written += sz;
                        }
                        b.barrier();
                    }
                    for c in 0..ch {
                        b.close(quad_file(c));
                    }
                }
            }

            // ---- Phase Three: quadrature reload --------------------
            // The energy-dependent structures are generated first;
            // the staged quadrature is then reloaded and combined, so
            // read activity reappears only near the end of execution
            // (Figure 3).
            b.compute_jittered(k.compute_solve.scale(scale * 0.9), 0.1, &mut rng);
            match v {
                EscatVersion::A => {
                    // Node zero re-reads everything in small chunks and
                    // broadcasts.
                    if is_root {
                        for c in 0..ch {
                            b.open(quad_file(c));
                            let mut read = 0;
                            while read < k.quad_bytes_per_channel {
                                let sz = k.reload_chunk_a.min(k.quad_bytes_per_channel - read);
                                b.read(quad_file(c), sz);
                                read += sz;
                            }
                            b.close(quad_file(c));
                        }
                    }
                    let chunks = quad_total.div_ceil(k.broadcast_chunk);
                    for _ in 0..chunks {
                        b.broadcast(0, k.broadcast_chunk);
                    }
                }
                _ => {
                    // B/C: all nodes reload with M_RECORD in 128 KB
                    // records (twice the stripe unit). The mode is set
                    // with a collective setiomode after the gopen —
                    // the `iomode` rows of Table 2.
                    b.barrier();
                    for c in 0..ch {
                        b.gopen(quad_file(c), n, IoMode::MUnix);
                        b.setiomode_record(quad_file(c), n, k.record_read);
                        let rounds = k.quad_bytes_per_channel / (u64::from(n) * k.record_read);
                        for _ in 0..rounds {
                            b.read(quad_file(c), k.record_read);
                        }
                        b.close(quad_file(c));
                    }
                }
            }
            b.compute_jittered(k.compute_solve.scale(scale * 0.1), 0.1, &mut rng);

            // ---- Phase Four: compulsory result writes --------------
            if is_root {
                for c in 0..ch {
                    b.open(out_file(c));
                    let mut written = 0;
                    while written < k.output_bytes_per_channel {
                        let sz = k.output_write.min(k.output_bytes_per_channel - written);
                        b.write(out_file(c), sz);
                        written += sz;
                    }
                    b.close(out_file(c));
                }
            }
            b.compute_jittered(k.compute_final.scale(scale), 0.1, &mut rng);
            b.barrier();

            programs.push(b.build());
        }

        Workload {
            name: format!(
                "ESCAT-{}/{}",
                self.version.label(),
                match self.dataset {
                    EscatDataset::Ethylene => "ethylene",
                    EscatDataset::CarbonMonoxide => "carbon-monoxide",
                }
            ),
            version: self.version.label().to_string(),
            os: self.version.os(),
            nodes: n,
            files,
            programs,
            phases: phase_table(v),
        }
    }

    /// The statements a restarted ESCAT run executes before resuming
    /// from a checkpoint: the phase-one compulsory reads (all nodes in
    /// version A; node zero plus broadcasts in B/C) followed by the
    /// initialization compute. The staged quadrature written before
    /// the crash stays on the PFS — it *is* the checkpoint — and phase
    /// three re-reads it through the normal path, so no extra reload
    /// statements are needed here. One entry per node; RNG-free.
    pub(crate) fn restart_prologue(&self) -> Vec<Vec<Stmt>> {
        let v = self.version.structure();
        let k = &self.knobs;
        let scale = self.version.compute_scale();
        (0..self.nodes)
            .map(|pid| {
                let mut b = ProgramBuilder::new();
                match v {
                    EscatVersion::A => self.phase1_reads(&mut b),
                    _ => {
                        if pid == 0 {
                            self.phase1_reads(&mut b);
                        }
                        let init_total = k.input_problem_bytes + 2 * k.input_matrix_bytes;
                        let chunks = init_total.div_ceil(k.broadcast_chunk);
                        for _ in 0..chunks {
                            b.broadcast(0, k.broadcast_chunk);
                        }
                    }
                }
                b.compute(k.compute_init.scale(scale));
                b.build()
            })
            .collect()
    }

    /// Build the workload under a checkpoint policy. Commit markers go
    /// after every `interval`-th barrier — the staging-cycle grain of
    /// phase two — and the checkpoint payload is the staged quadrature
    /// files themselves (phase three re-reads them anyway, which is
    /// why ESCAT restarts so cheaply). [`CheckpointPolicy::None`]
    /// keeps the application I/O identical with no markers.
    pub fn recoverable(&self, policy: CheckpointPolicy) -> Recoverable {
        let stride = match policy {
            CheckpointPolicy::None => return Recoverable::plain(self.build()),
            CheckpointPolicy::Fixed { interval } => interval.max(1),
            CheckpointPolicy::Young {
                checkpoint_cost,
                mtbf,
            } => {
                let k = &self.knobs;
                let cycle = (k.compute_stage / u64::from(k.cycles.max(1)))
                    .scale(self.version.compute_scale());
                let ideal = young_interval(checkpoint_cost, mtbf);
                let cycles = if cycle.is_zero() {
                    1.0
                } else {
                    (ideal.as_secs_f64() / cycle.as_secs_f64()).round()
                };
                cycles.clamp(1.0, f64::from(self.knobs.cycles.max(1))) as u32
            }
        };
        let files = (3..3 + self.dataset.channels()).collect();
        Recoverable::annotate(self.build(), stride, self.restart_prologue(), files)
    }

    /// Phase-one read pattern for one reader. The problem-definition
    /// file is parsed in small reads; each matrix file is read with a
    /// leading burst of small reads followed by a few large requests —
    /// matching Figure 2a's version-A mix (97% small requests, large
    /// requests carrying most of the data).
    fn phase1_reads(&self, b: &mut ProgramBuilder) {
        let k = &self.knobs;
        // Problem definition: fully scanned in small reads.
        b.open(0);
        let problem_reads = (k.input_problem_bytes / k.init_small_read) as u32;
        b.read_n(0, problem_reads, k.init_small_read);
        b.close(0);
        // Initial matrices: header/small region then bulk reads.
        for f in 1..3u32 {
            b.open(f);
            b.read_n(f, k.init_small_reads_per_file, k.init_small_read);
            b.read_n(f, k.init_large_reads, k.init_large_read);
            b.close(f);
        }
    }
}

/// Table 1's rows for a structural version.
fn phase_table(v: EscatVersion) -> Vec<PhaseDesc> {
    let m = |s: &str, m: IoMode| (s.to_string(), m);
    match v {
        EscatVersion::A => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "All Nodes".into(),
                modes: vec![m("inputs", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "Node zero".into(),
                modes: vec![m("quadrature", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "Node zero".into(),
                modes: vec![m("quadrature", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Four".into(),
                activity: "Node zero".into(),
                modes: vec![m("outputs", IoMode::MUnix)],
            },
        ],
        EscatVersion::B => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "Node zero".into(),
                modes: vec![m("inputs", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "All Nodes".into(),
                modes: vec![m("quadrature", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "All Nodes".into(),
                modes: vec![m("quadrature", IoMode::MRecord)],
            },
            PhaseDesc {
                phase: "Phase Four".into(),
                activity: "Node zero".into(),
                modes: vec![m("outputs", IoMode::MUnix)],
            },
        ],
        EscatVersion::C => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "Node zero".into(),
                modes: vec![m("inputs", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "All Nodes".into(),
                modes: vec![m("quadrature", IoMode::MAsync)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "All Nodes".into(),
                modes: vec![m("quadrature", IoMode::MRecord)],
            },
            PhaseDesc {
                phase: "Phase Four".into(),
                activity: "Node zero".into(),
                modes: vec![m("outputs", IoMode::MUnix)],
            },
        ],
        _ => phase_table(v.structure()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Stmt;

    #[test]
    fn all_versions_build_valid_workloads() {
        for v in EscatVersion::progressions() {
            let w = EscatConfig::tiny(v).build();
            let problems = w.validate();
            assert!(problems.is_empty(), "version {v:?} invalid: {problems:?}");
        }
    }

    #[test]
    fn ethylene_matches_paper_scale() {
        let cfg = EscatConfig::ethylene(EscatVersion::C);
        assert_eq!(cfg.nodes, 128);
        assert_eq!(cfg.dataset.channels(), 2);
        let w = cfg.build();
        assert_eq!(w.nodes, 128);
        assert_eq!(w.files.len(), 3 + 2 + 2);
        assert_eq!(w.os, OsRelease::Osf13);
    }

    #[test]
    fn carbon_monoxide_matches_paper_scale() {
        let cfg = EscatConfig::carbon_monoxide(EscatVersion::C);
        assert_eq!(cfg.nodes, 256);
        assert_eq!(cfg.dataset.channels(), 13);
        let w = cfg.build();
        assert_eq!(w.files.len(), 3 + 13 + 13);
    }

    #[test]
    fn version_a_runs_under_osf12_without_masync() {
        let w = EscatConfig::tiny(EscatVersion::A).build();
        assert_eq!(w.os, OsRelease::Osf12);
        assert!(w.validate().is_empty());
    }

    #[test]
    fn version_structure_collapses_intermediates() {
        assert_eq!(EscatVersion::A2.structure(), EscatVersion::A);
        assert_eq!(EscatVersion::B2.structure(), EscatVersion::B);
        assert_eq!(EscatVersion::B3.structure(), EscatVersion::B);
        assert_eq!(EscatVersion::C.structure(), EscatVersion::C);
    }

    #[test]
    fn compute_scales_decrease_monotonically() {
        let scales: Vec<f64> = EscatVersion::progressions()
            .iter()
            .map(|v| v.compute_scale())
            .collect();
        for pair in scales.windows(2) {
            assert!(pair[0] >= pair[1], "scales must not increase: {scales:?}");
        }
        assert_eq!(scales[5], 1.0);
    }

    #[test]
    fn validation_catches_bad_tiling() {
        let mut cfg = EscatConfig::tiny(EscatVersion::C);
        assert!(cfg.validate().is_empty());
        cfg.knobs.quad_bytes_per_channel += 1;
        assert!(!cfg.validate().is_empty());
        let mut cfg = EscatConfig::tiny(EscatVersion::C);
        cfg.knobs.cycles = 3; // not a multiple of 2 channels
        assert!(!cfg.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid ESCAT config")]
    fn build_panics_on_invalid_config() {
        let mut cfg = EscatConfig::tiny(EscatVersion::C);
        cfg.knobs.quad_bytes_per_channel += 1;
        let _ = cfg.build();
    }

    #[test]
    fn quadrature_tiles_m_record_rounds_exactly() {
        for cfg in [
            EscatConfig::ethylene(EscatVersion::C),
            EscatConfig::carbon_monoxide(EscatVersion::C),
            EscatConfig::tiny(EscatVersion::C),
        ] {
            let per_round = u64::from(cfg.nodes) * cfg.knobs.record_read;
            assert_eq!(
                cfg.knobs.quad_bytes_per_channel % per_round,
                0,
                "quadrature must tile M_RECORD rounds"
            );
        }
    }

    #[test]
    fn declared_volumes_match_quadrature() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let w = cfg.build();
        let (read, written) = w.declared_volume();
        let quad = u64::from(cfg.dataset.channels()) * cfg.knobs.quad_bytes_per_channel;
        // Everything written in phase two is re-read in phase three.
        assert!(read >= quad, "read {read} < quadrature {quad}");
        assert!(written >= quad, "written {written} < quadrature {quad}");
    }

    #[test]
    fn version_a_has_all_node_phase1_reads() {
        let w = EscatConfig::tiny(EscatVersion::A).build();
        // Every node opens the input files in version A...
        for prog in &w.programs {
            let opens = prog
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Stmt::Io {
                            file: 0..=2,
                            op: sioscope_pfs::IoOp::Open
                        }
                    )
                })
                .count();
            assert_eq!(opens, 3);
        }
        // ...but only node zero in versions B and C.
        let wb = EscatConfig::tiny(EscatVersion::B).build();
        for (pid, prog) in wb.programs.iter().enumerate() {
            let opens = prog
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Stmt::Io {
                            file: 0..=2,
                            op: sioscope_pfs::IoOp::Open
                        }
                    )
                })
                .count();
            assert_eq!(opens, if pid == 0 { 3 } else { 0 });
        }
    }

    #[test]
    fn restart_prologue_is_deterministic_and_root_reads() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let a = cfg.restart_prologue();
        assert_eq!(a, cfg.restart_prologue());
        assert_eq!(a.len(), cfg.nodes as usize);
        // B/C: only node zero re-reads; everyone broadcasts.
        assert!(a[0].iter().any(|s| matches!(
            s,
            Stmt::Io {
                op: sioscope_pfs::IoOp::Read { .. },
                ..
            }
        )));
        assert!(!a[1].iter().any(|s| matches!(
            s,
            Stmt::Io {
                op: sioscope_pfs::IoOp::Read { .. },
                ..
            }
        )));
        let bcasts = |prog: &[Stmt]| {
            prog.iter()
                .filter(|s| matches!(s, Stmt::Broadcast { .. }))
                .count()
        };
        assert_eq!(bcasts(&a[0]), bcasts(&a[1]), "collective alignment");
        // Version A: every node re-reads, no broadcasts.
        let pa = EscatConfig::tiny(EscatVersion::A).restart_prologue();
        assert!(pa[1].iter().any(|s| matches!(
            s,
            Stmt::Io {
                op: sioscope_pfs::IoOp::Read { .. },
                ..
            }
        )));
        assert_eq!(bcasts(&pa[1]), 0);
    }

    #[test]
    fn recoverable_policies_annotate_and_slice() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let none = cfg.recoverable(CheckpointPolicy::None);
        assert_eq!(none.checkpoints(), 0);

        // tiny C: 2 cycles → barriers = cycles + 3 = 5, the last is
        // program-final → 4 markers at stride 1.
        let fixed = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        assert_eq!(fixed.checkpoints(), 4);
        assert!(fixed.workload().validate().is_empty());
        assert!(fixed.prologue_read_bytes() > 0);
        assert_eq!(fixed.checkpoint_files(), &[3, 4]);
        // Marker 1 sits after cycle 0's barrier: the cycle-0 staging
        // writes to quadrature channel 0 are durable.
        let sliced = fixed.slice_from(Some(1));
        assert!(sliced.validate().is_empty(), "{:?}", sliced.validate());
        assert!(sliced.files[3].initial_size > 0);

        // Version A: barriers = cycles + 1 = 3 → 2 markers.
        let a =
            EscatConfig::tiny(EscatVersion::A).recoverable(CheckpointPolicy::Fixed { interval: 1 });
        assert_eq!(a.checkpoints(), 2);
        let sliced_a = a.slice_from(Some(0));
        assert!(sliced_a.validate().is_empty(), "{:?}", sliced_a.validate());

        // Young: cycle time 4 s; sqrt(2 · 8 s · 16 s) = 16 s → 4
        // cycles, clamped to the 2 cycles available → stride 2 → 2
        // markers (barriers 2 and 4 of 5).
        let young = cfg.recoverable(CheckpointPolicy::Young {
            checkpoint_cost: Time::from_secs(8),
            mtbf: Time::from_secs(16),
        });
        assert_eq!(young.checkpoints(), 2);
        assert!(young.workload().validate().is_empty());
    }

    #[test]
    fn phase_tables_match_table1() {
        let a = phase_table(EscatVersion::A);
        assert_eq!(a[0].activity, "All Nodes");
        assert_eq!(a[1].activity, "Node zero");
        let b = phase_table(EscatVersion::B);
        assert_eq!(b[0].activity, "Node zero");
        assert_eq!(b[2].modes[0].1, IoMode::MRecord);
        let c = phase_table(EscatVersion::C);
        assert_eq!(c[1].modes[0].1, IoMode::MAsync);
        assert_eq!(c[3].modes[0].1, IoMode::MUnix);
    }
}
