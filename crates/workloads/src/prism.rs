//! PRISM — the 3-D spectral-element Navier–Stokes solver (§5).
//!
//! Three I/O phases:
//!
//! 1. **Phase One** — three input files initialize the system
//!    (compulsory I/O): a *parameter* file (Reynolds number, mesh
//!    elements, boundary conditions — small text records), a *restart*
//!    file (a tiny header plus a body accessed in 155,584-byte
//!    requests), and a *connectivity* file (text in versions A/B,
//!    binary in C).
//! 2. **Phase Two** — time integration with checkpointing: node zero
//!    writes a measurement file (lift/drag/viscous forces, kinetic
//!    energy) and three flow-statistics files (velocity, vorticity,
//!    turbulent stresses), plus history points.
//! 3. **Phase Three** — results transform back to physical space and
//!    the field file is written (compulsory I/O).
//!
//! Version differences (Table 4; all versions under OSF/1 R1.3):
//!
//! | Phase | A | B | C |
//! |---|---|---|---|
//! | One   | all nodes, M_UNIX | P: M_GLOBAL, R: M_GLOBAL(header)+M_RECORD(body), C: M_GLOBAL | P: M_GLOBAL, R: M_ASYNC (buffering disabled), C: M_GLOBAL |
//! | Two   | node zero, M_UNIX | node zero, M_UNIX | node zero, M_UNIX |
//! | Three | node zero, M_UNIX | all nodes, M_ASYNC | all nodes, M_ASYNC |
//!
//! Versions A/B reach their modes through `open` + `setiomode` (the
//! expensive path Table 5 shows); version C uses `gopen`.

use crate::builder::ProgramBuilder;
use crate::checkpoint::{young_interval, CheckpointPolicy, Recoverable};
use crate::program::{FileSpec, PhaseDesc, Stmt, Workload};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{IoMode, IoOp};
use sioscope_sim::{DetRng, Time};

// Workload file indices.
const PARAM: u32 = 0;
const RESTART: u32 = 1;
const CONN: u32 = 2;
const MEASURE: u32 = 3;
const STATS0: u32 = 4; // 4,5,6: velocity / vorticity / stresses
const FIELD: u32 = 7;
const HISTORY: u32 = 8;

/// The three PRISM code versions of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrismVersion {
    /// Standard UNIX I/O everywhere; node zero administers phases two
    /// and three.
    A,
    /// Collective initialization reads (M_GLOBAL / M_RECORD via
    /// `setiomode`), concurrent field writes (M_ASYNC).
    B,
    /// `gopen` everywhere; restart file via M_ASYNC with system
    /// buffering disabled (the small-read pathology of §5.1/§5.4).
    C,
}

impl PrismVersion {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PrismVersion::A => "A",
            PrismVersion::B => "B",
            PrismVersion::C => "C",
        }
    }

    /// All versions in order.
    pub fn all() -> [PrismVersion; 3] {
        [PrismVersion::A, PrismVersion::B, PrismVersion::C]
    }

    /// Compute inflation relative to version C (Figure 6's ~23%
    /// execution-time reduction includes code and instrumentation
    /// improvements beyond I/O).
    pub(crate) fn compute_scale(self) -> f64 {
        match self {
            PrismVersion::A => 1.18,
            PrismVersion::B => 1.05,
            PrismVersion::C => 1.0,
        }
    }
}

/// Full PRISM workload configuration. The paper's test problem: 201
/// mesh elements, Reynolds number 1000, 1250 time steps with
/// checkpoints every 250 steps, on 64 of the Paragon's nodes.
#[derive(Debug, Clone)]
pub struct PrismConfig {
    /// Code version.
    pub version: PrismVersion,
    /// Compute nodes (paper: 64).
    pub nodes: u32,
    /// Spectral-element count (201 in the test problem).
    pub elements: u32,
    /// Time steps (1250).
    pub steps: u32,
    /// Checkpoint interval in steps (250).
    pub checkpoint_every: u32,
    /// RNG seed.
    pub seed: u64,
    /// Request-stream knobs.
    pub knobs: PrismKnobs,
}

/// Calibration knobs for the PRISM request stream.
#[derive(Debug, Clone)]
pub struct PrismKnobs {
    /// Parameter-file size.
    pub param_bytes: u64,
    /// Parameter-file small-read size (paper: < 40 bytes).
    pub param_read: u64,
    /// Parameter-file reads per reader.
    pub param_reads: u32,
    /// Restart-header size.
    pub header_bytes: u64,
    /// Restart-header read size (< 40 bytes).
    pub header_read: u64,
    /// Restart-header reads per reader.
    pub header_reads: u32,
    /// Restart-body record (paper: 155,584 bytes).
    pub body_record: u64,
    /// Body records per node ("a few requests of 155,584 bytes each")
    /// in versions B and C, where each node reads only its slice.
    pub body_records_per_node: u32,
    /// Body records each node reads in version A: without M_RECORD
    /// partitioning, every node redundantly scans a large prefix of
    /// the restart body.
    pub body_reads_a: u32,
    /// Connectivity-file size.
    pub conn_bytes: u64,
    /// Connectivity text-read size (versions A/B).
    pub conn_text_read: u64,
    /// Connectivity text reads per reader.
    pub conn_text_reads: u32,
    /// Connectivity binary-read size (version C).
    pub conn_bin_read: u64,
    /// Connectivity binary reads per reader (version C).
    pub conn_bin_reads: u32,
    /// Measurement record written by node zero.
    pub measurement_write: u64,
    /// Steps between measurement writes.
    pub measurement_every: u32,
    /// History-point record size.
    pub history_write: u64,
    /// Steps between history writes.
    pub history_every: u32,
    /// Per-statistics-file write size at each checkpoint (mean,
    /// variance, skewness, flatness per field).
    pub stats_write: u64,
    /// Writes per statistics file per checkpoint.
    pub stats_writes: u32,
    /// Compute time per integration step (before version scaling).
    pub step_compute: Time,
    /// Compute during initialization.
    pub init_compute: Time,
    /// Compute during post-processing.
    pub final_compute: Time,
}

impl PrismKnobs {
    /// The paper's 201-element test problem.
    pub(crate) fn test_problem() -> Self {
        PrismKnobs {
            param_bytes: 8 * 1024,
            param_read: 36,
            param_reads: 120,
            header_bytes: 160,
            header_read: 36,
            header_reads: 4,
            body_record: 155_584,
            body_records_per_node: 3,
            body_reads_a: 24,
            conn_bytes: 256 * 1024,
            conn_text_read: 60,
            conn_text_reads: 160,
            conn_bin_read: 24 * 1024,
            conn_bin_reads: 10,
            measurement_write: 96,
            measurement_every: 5,
            history_write: 240,
            history_every: 25,
            stats_write: 8 * 1024,
            stats_writes: 6,
            step_compute: Time::from_secs_f64(5.5),
            init_compute: Time::from_secs(40),
            final_compute: Time::from_secs(60),
        }
    }
}

impl PrismConfig {
    /// The paper's configuration for a given version.
    pub fn test_problem(version: PrismVersion) -> Self {
        PrismConfig {
            version,
            nodes: 64,
            elements: 201,
            steps: 1250,
            checkpoint_every: 250,
            seed: 0x9815,
            knobs: PrismKnobs::test_problem(),
        }
    }

    /// Scaled-down configuration for fast tests.
    pub fn tiny(version: PrismVersion) -> Self {
        let mut knobs = PrismKnobs::test_problem();
        knobs.param_reads = 10;
        knobs.conn_text_reads = 10;
        knobs.step_compute = Time::from_millis(50);
        knobs.init_compute = Time::from_secs(1);
        knobs.final_compute = Time::from_secs(1);
        PrismConfig {
            version,
            nodes: 8,
            elements: 24,
            steps: 20,
            checkpoint_every: 5,
            seed: 11,
            knobs,
        }
    }

    /// The name of the workload [`PrismConfig::build`] gives
    /// (`PRISM-B`).
    pub fn name(&self) -> String {
        format!("PRISM-{}", self.version.label())
    }

    /// The OS release every PRISM version ran under.
    pub fn os(&self) -> OsRelease {
        OsRelease::Osf13
    }

    /// Number of checkpoints ("a total of five checkpoints" for the
    /// test problem).
    pub fn checkpoints(&self) -> u32 {
        self.steps / self.checkpoint_every
    }

    /// Phase-one initialization reads for node `pid` (shared between
    /// [`PrismConfig::build`] and [`PrismConfig::restart_prologue`]).
    /// RNG-free: the statement sequence is a pure function of the
    /// configuration.
    fn phase_one(&self, b: &mut ProgramBuilder, pid: u32) {
        let n = self.nodes;
        let k = &self.knobs;
        match self.version {
            PrismVersion::A => {
                // All nodes, standard UNIX I/O, fully serialized.
                b.open(PARAM);
                b.read_n(PARAM, k.param_reads, k.param_read);
                b.close(PARAM);

                b.open(RESTART);
                b.read_n(RESTART, k.header_reads, k.header_read);
                // Without M_RECORD partitioning every node scans a
                // large prefix of the body redundantly; the seek
                // past the header pays the shared-file server
                // round trip.
                b.seek(RESTART, k.header_bytes);
                b.read_n(RESTART, k.body_reads_a, k.body_record);
                b.close(RESTART);

                b.open(CONN);
                b.read_n(CONN, k.conn_text_reads, k.conn_text_read);
                b.close(CONN);
            }
            PrismVersion::B => {
                // open + setiomode, then collective reads.
                b.open(PARAM);
                b.setiomode(PARAM, n, IoMode::MGlobal);
                b.read_n(PARAM, k.param_reads, k.param_read);
                b.close(PARAM);

                // Restart: header via M_GLOBAL, body via M_RECORD.
                b.open(RESTART);
                b.setiomode(RESTART, n, IoMode::MGlobal);
                b.read_n(RESTART, k.header_reads, k.header_read);
                b.io(
                    RESTART,
                    IoOp::SetIoMode {
                        group: n,
                        mode: IoMode::MRecord,
                        record_size: Some(k.body_record),
                    },
                );
                b.read_n(RESTART, k.body_records_per_node, k.body_record);
                b.close(RESTART);

                b.open(CONN);
                b.setiomode(CONN, n, IoMode::MGlobal);
                b.read_n(CONN, k.conn_text_reads, k.conn_text_read);
                b.close(CONN);
            }
            PrismVersion::C => {
                // gopen everywhere; restart via M_ASYNC with
                // system buffering disabled.
                b.gopen(PARAM, n, IoMode::MGlobal);
                b.read_n(PARAM, k.param_reads, k.param_read);
                b.close(PARAM);

                b.gopen(RESTART, n, IoMode::MAsync);
                b.set_buffering(RESTART, false);
                b.read_n(RESTART, k.header_reads, k.header_read);
                let slice = k.header_bytes
                    + u64::from(pid) * u64::from(k.body_records_per_node) * k.body_record;
                b.seek(RESTART, slice);
                b.read_n(RESTART, k.body_records_per_node, k.body_record);
                b.close(RESTART);

                // Connectivity read as binary data: far fewer,
                // larger requests (§5.2).
                b.gopen(CONN, n, IoMode::MGlobal);
                b.read_n(CONN, k.conn_bin_reads, k.conn_bin_read);
                b.close(CONN);
            }
        }
    }

    /// The statements a restarted PRISM run executes before resuming
    /// from a checkpoint: the full phase-one read sequence through the
    /// real PFS path (parameter file, restart header plus the
    /// 155,584-byte body records, connectivity) followed by the
    /// initialization compute. One entry per node; RNG-free, so every
    /// replay attempt issues the identical prologue.
    pub(crate) fn restart_prologue(&self) -> Vec<Vec<Stmt>> {
        let scale = self.version.compute_scale();
        (0..self.nodes)
            .map(|pid| {
                let mut b = ProgramBuilder::new();
                self.phase_one(&mut b, pid);
                b.compute(self.knobs.init_compute.scale(scale));
                b.build()
            })
            .collect()
    }

    /// Snap a desired checkpoint interval (in integration steps) to
    /// the divisor of [`PrismConfig::steps`] nearest to it (ties go to
    /// the smaller divisor), so the rebuilt configuration always
    /// passes `PrismConfig::validate`.
    pub fn snap_interval(&self, desired: u32) -> u32 {
        let desired = desired.max(1);
        (1..=self.steps)
            .filter(|d| self.steps.is_multiple_of(*d))
            .min_by_key(|d| (d.abs_diff(desired), *d))
            .unwrap_or(self.steps.max(1))
    }

    /// Build the workload under a checkpoint policy. For
    /// [`CheckpointPolicy::None`] the application I/O is identical to
    /// [`PrismConfig::build`] with no commit markers (every crash
    /// replays from the start). Fixed and Young policies rebuild the
    /// integration loop at the snapped interval and mark a commit
    /// after every checkpoint barrier; the checkpoint payload is the
    /// three flow-statistics files.
    pub fn recoverable(&self, policy: CheckpointPolicy) -> Recoverable {
        match policy {
            CheckpointPolicy::None => Recoverable::plain(self.build()),
            CheckpointPolicy::Fixed { interval } => {
                self.recoverable_every(self.snap_interval(interval))
            }
            CheckpointPolicy::Young {
                checkpoint_cost,
                mtbf,
            } => {
                let step = self.knobs.step_compute.scale(self.version.compute_scale());
                let ideal = young_interval(checkpoint_cost, mtbf);
                let steps = if step.is_zero() {
                    1.0
                } else {
                    (ideal.as_secs_f64() / step.as_secs_f64()).round()
                };
                self.recoverable_every(
                    self.snap_interval(steps.clamp(1.0, f64::from(self.steps)) as u32),
                )
            }
        }
    }

    fn recoverable_every(&self, every: u32) -> Recoverable {
        let mut cfg = self.clone();
        cfg.checkpoint_every = every;
        let prologue = cfg.restart_prologue();
        Recoverable::annotate(
            cfg.build(),
            1,
            prologue,
            vec![STATS0, STATS0 + 1, STATS0 + 2],
        )
    }

    /// Validate the configuration's arithmetic. Returns problems
    /// (empty = valid).
    pub(crate) fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let k = &self.knobs;
        if self.checkpoint_every == 0 || !self.steps.is_multiple_of(self.checkpoint_every) {
            problems.push(format!(
                "steps ({}) must be a whole number of checkpoint intervals ({})",
                self.steps, self.checkpoint_every
            ));
        }
        if k.body_record == 0 || k.param_read == 0 {
            problems.push("request sizes must be positive".into());
        }
        if k.body_records_per_node == 0 {
            problems.push("each node must read at least one body record".into());
        }
        if k.measurement_every == 0 || k.history_every == 0 {
            problems.push("write cadences must be positive".into());
        }
        problems
    }

    /// Build the runnable workload.
    ///
    /// # Panics
    /// Panics if `PrismConfig::validate` reports problems.
    pub fn build(&self) -> Workload {
        let problems = self.validate();
        assert!(problems.is_empty(), "invalid PRISM config: {problems:?}");
        let v = self.version;
        let n = self.nodes;
        let k = &self.knobs;
        let scale = v.compute_scale();

        let body_bytes = u64::from(n) * u64::from(k.body_records_per_node) * k.body_record;
        let files = vec![
            FileSpec {
                name: "prism/parameters".into(),
                initial_size: k.param_bytes,
            },
            FileSpec {
                name: "prism/restart".into(),
                initial_size: k.header_bytes + body_bytes,
            },
            FileSpec {
                name: "prism/connectivity".into(),
                initial_size: k.conn_bytes,
            },
            FileSpec {
                name: "prism/measurement".into(),
                initial_size: 0,
            },
            FileSpec {
                name: "prism/stats.velocity".into(),
                initial_size: 0,
            },
            FileSpec {
                name: "prism/stats.vorticity".into(),
                initial_size: 0,
            },
            FileSpec {
                name: "prism/stats.stresses".into(),
                initial_size: 0,
            },
            FileSpec {
                name: "prism/field".into(),
                initial_size: 0,
            },
            FileSpec {
                name: "prism/history".into(),
                initial_size: 0,
            },
        ];

        let root_rng = DetRng::new(self.seed);
        let mut programs = Vec::with_capacity(n as usize);
        for pid in 0..n {
            let mut rng = root_rng.fork(u64::from(pid));
            let mut b = ProgramBuilder::new();
            let is_root = pid == 0;

            // ---- Phase One: initialization reads -------------------
            self.phase_one(&mut b, pid);
            b.compute_jittered(k.init_compute.scale(scale), 0.1, &mut rng);

            // ---- Phase Two: integration with checkpointing ---------
            if is_root {
                b.open(MEASURE);
                for s in 0..3 {
                    b.open(STATS0 + s);
                }
                b.open(HISTORY);
            }
            for step in 1..=self.steps {
                b.compute_jittered(k.step_compute.scale(scale), 0.15, &mut rng);
                if is_root {
                    if step % k.measurement_every == 0 {
                        b.write(MEASURE, k.measurement_write);
                    }
                    if step % k.history_every == 0 {
                        b.write(HISTORY, k.history_write);
                    }
                    if step % self.checkpoint_every == 0 {
                        // Flow statistics burst: mean, variance,
                        // skewness, flatness for each of the three
                        // statistics files.
                        for s in 0..3 {
                            b.write_n(STATS0 + s, k.stats_writes, k.stats_write);
                            b.flush(STATS0 + s);
                        }
                    }
                }
                if step % self.checkpoint_every == 0 {
                    b.barrier();
                }
            }
            if is_root {
                b.close(MEASURE);
                for s in 0..3 {
                    b.close(STATS0 + s);
                }
                b.close(HISTORY);
            }

            // ---- Phase Three: field output --------------------------
            let slice_bytes = u64::from(k.body_records_per_node) * k.body_record;
            match v {
                PrismVersion::A => {
                    if is_root {
                        b.open(FIELD);
                        for _ in 0..n {
                            b.write(FIELD, k.body_record);
                        }
                        b.close(FIELD);
                    }
                }
                PrismVersion::B | PrismVersion::C => {
                    // All nodes write their slice concurrently.
                    b.gopen(FIELD, n, IoMode::MAsync);
                    b.seek(FIELD, u64::from(pid) * slice_bytes);
                    b.write_n(FIELD, k.body_records_per_node, k.body_record);
                    b.close(FIELD);
                }
            }
            b.compute_jittered(k.final_compute.scale(scale), 0.1, &mut rng);
            b.barrier();

            programs.push(b.build());
        }

        Workload {
            name: self.name(),
            version: v.label().to_string(),
            os: self.os(),
            nodes: n,
            files,
            programs,
            phases: phase_table(v),
        }
    }
}

/// Table 4's rows.
fn phase_table(v: PrismVersion) -> Vec<PhaseDesc> {
    let m = |s: &str, md: IoMode| (s.to_string(), md);
    match v {
        PrismVersion::A => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "All Nodes".into(),
                modes: vec![
                    m("P", IoMode::MUnix),
                    m("R", IoMode::MUnix),
                    m("C", IoMode::MUnix),
                ],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "Node Zero".into(),
                modes: vec![m("stats", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "Node Zero".into(),
                modes: vec![m("field", IoMode::MUnix)],
            },
        ],
        PrismVersion::B => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "All Nodes".into(),
                modes: vec![
                    m("P", IoMode::MGlobal),
                    m("R(h)", IoMode::MGlobal),
                    m("R(b)", IoMode::MRecord),
                    m("C", IoMode::MGlobal),
                ],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "Node Zero".into(),
                modes: vec![m("stats", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "All Nodes".into(),
                modes: vec![m("field", IoMode::MAsync)],
            },
        ],
        PrismVersion::C => vec![
            PhaseDesc {
                phase: "Phase One".into(),
                activity: "All Nodes".into(),
                modes: vec![
                    m("P", IoMode::MGlobal),
                    m("R", IoMode::MAsync),
                    m("C", IoMode::MGlobal),
                ],
            },
            PhaseDesc {
                phase: "Phase Two".into(),
                activity: "Node Zero".into(),
                modes: vec![m("stats", IoMode::MUnix)],
            },
            PhaseDesc {
                phase: "Phase Three".into(),
                activity: "All Nodes".into(),
                modes: vec![m("field", IoMode::MAsync)],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Stmt;

    #[test]
    fn all_versions_build_valid_workloads() {
        for v in PrismVersion::all() {
            let w = PrismConfig::tiny(v).build();
            let problems = w.validate();
            assert!(problems.is_empty(), "version {v:?} invalid: {problems:?}");
        }
    }

    #[test]
    fn test_problem_matches_paper() {
        let cfg = PrismConfig::test_problem(PrismVersion::C);
        assert_eq!(cfg.nodes, 64);
        assert_eq!(cfg.elements, 201);
        assert_eq!(cfg.steps, 1250);
        assert_eq!(cfg.checkpoints(), 5, "five checkpoints");
        let w = cfg.build();
        assert_eq!(w.files.len(), 9);
        assert_eq!(w.os, OsRelease::Osf13);
    }

    #[test]
    fn validation_catches_bad_cadences() {
        let mut cfg = PrismConfig::tiny(PrismVersion::A);
        assert!(cfg.validate().is_empty());
        cfg.checkpoint_every = 7; // does not divide 20 steps
        assert!(!cfg.validate().is_empty());
        let mut cfg = PrismConfig::tiny(PrismVersion::A);
        cfg.knobs.body_records_per_node = 0;
        assert!(!cfg.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid PRISM config")]
    fn build_panics_on_invalid_config() {
        let mut cfg = PrismConfig::tiny(PrismVersion::B);
        cfg.checkpoint_every = 0;
        let _ = cfg.build();
    }

    #[test]
    fn restart_body_uses_155584_byte_records() {
        let cfg = PrismConfig::test_problem(PrismVersion::B);
        assert_eq!(cfg.knobs.body_record, 155_584);
        let w = cfg.build();
        let has_record_mode = w.programs[0].iter().any(|s| {
            matches!(
                s,
                Stmt::Io {
                    op: IoOp::SetIoMode {
                        mode: IoMode::MRecord,
                        record_size: Some(155_584),
                        ..
                    },
                    ..
                }
            )
        });
        assert!(has_record_mode, "B must reload the body via M_RECORD");
    }

    #[test]
    fn version_c_disables_buffering_on_restart() {
        let w = PrismConfig::tiny(PrismVersion::C).build();
        let disables = w.programs[0].iter().any(|s| {
            matches!(
                s,
                Stmt::Io {
                    file: 1,
                    op: IoOp::SetBuffering { enabled: false }
                }
            )
        });
        assert!(disables);
        // And uses gopen, never bare open... except phase-two node-zero
        // bookkeeping files, which stayed plain UNIX in all versions.
        let bare_input_opens = w.programs[1]
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        file: 0..=2,
                        op: IoOp::Open
                    }
                )
            })
            .count();
        assert_eq!(bare_input_opens, 0, "version C must gopen its inputs");
    }

    #[test]
    fn version_b_pays_setiomode_calls() {
        let w = PrismConfig::tiny(PrismVersion::B).build();
        let iomodes = w.programs[0]
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        op: IoOp::SetIoMode { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(iomodes, 4, "P, R(header), R(body), C");
    }

    #[test]
    fn only_node_zero_writes_phase_two() {
        let w = PrismConfig::tiny(PrismVersion::C).build();
        for (pid, prog) in w.programs.iter().enumerate() {
            let writes_measurement = prog.iter().any(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        file: 3,
                        op: IoOp::Write { .. }
                    }
                )
            });
            assert_eq!(writes_measurement, pid == 0);
        }
    }

    #[test]
    fn field_written_by_all_in_b_and_c_but_root_only_in_a() {
        let wa = PrismConfig::tiny(PrismVersion::A).build();
        for (pid, prog) in wa.programs.iter().enumerate() {
            let writes_field = prog.iter().any(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        file: 7,
                        op: IoOp::Write { .. }
                    }
                )
            });
            assert_eq!(writes_field, pid == 0);
        }
        let wc = PrismConfig::tiny(PrismVersion::C).build();
        for prog in &wc.programs {
            assert!(prog.iter().any(|s| matches!(
                s,
                Stmt::Io {
                    file: 7,
                    op: IoOp::Write { .. }
                }
            )));
        }
    }

    #[test]
    fn phase_tables_match_table4() {
        let a = phase_table(PrismVersion::A);
        assert_eq!(a.len(), 3);
        assert!(a[0].modes.iter().all(|(_, m)| *m == IoMode::MUnix));
        let b = phase_table(PrismVersion::B);
        assert_eq!(b[0].modes.len(), 4);
        assert_eq!(b[2].modes[0].1, IoMode::MAsync);
        let c = phase_table(PrismVersion::C);
        assert_eq!(c[0].modes[1].1, IoMode::MAsync);
    }

    #[test]
    fn compute_scale_decreases() {
        assert!(PrismVersion::A.compute_scale() > PrismVersion::B.compute_scale());
        assert!(PrismVersion::B.compute_scale() > PrismVersion::C.compute_scale());
    }

    #[test]
    fn restart_prologue_is_deterministic_and_rereads_the_body() {
        let cfg = PrismConfig::tiny(PrismVersion::C);
        let a = cfg.restart_prologue();
        let b = cfg.restart_prologue();
        assert_eq!(a, b, "prologue is a pure function of the config");
        assert_eq!(a.len(), cfg.nodes as usize);
        let body_reads = a[0]
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Io {
                        file: 1,
                        op: IoOp::Read { size }
                    } if *size == cfg.knobs.body_record
                )
            })
            .count();
        assert_eq!(body_reads as u32, cfg.knobs.body_records_per_node);
    }

    #[test]
    fn snap_interval_picks_nearest_divisor() {
        let cfg = PrismConfig::tiny(PrismVersion::B); // 20 steps
        assert_eq!(cfg.snap_interval(0), 1);
        assert_eq!(cfg.snap_interval(3), 2, "ties go to the smaller divisor");
        assert_eq!(cfg.snap_interval(5), 5);
        assert_eq!(cfg.snap_interval(13), 10);
        assert_eq!(cfg.snap_interval(100), 20);
    }

    #[test]
    fn recoverable_policies_annotate_and_slice() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        let none = cfg.recoverable(CheckpointPolicy::None);
        assert_eq!(none.checkpoints(), 0);
        assert_eq!(none.workload().programs, cfg.build().programs);

        // 20 steps every 5 → 4 checkpoint barriers → 4 markers.
        let fixed = cfg.recoverable(CheckpointPolicy::Fixed { interval: 5 });
        assert_eq!(fixed.checkpoints(), 4);
        assert!(fixed.workload().validate().is_empty());
        assert!(fixed.prologue_read_bytes() > 0);
        let sliced = fixed.slice_from(Some(0));
        assert!(sliced.validate().is_empty(), "{:?}", sliced.validate());
        // The replay re-reads phase one: restart-body records appear.
        assert!(sliced.programs[1].iter().any(|s| matches!(
            s,
            Stmt::Io {
                file: 1,
                op: IoOp::Read { size }
            } if *size == cfg.knobs.body_record
        )));

        // Young: sqrt(2 · 0.1 s · 2 s) ≈ 0.632 s of 50 ms steps →
        // 13 steps, snapped to the nearest divisor of 20 (10) → 2
        // checkpoints.
        let young = cfg.recoverable(CheckpointPolicy::Young {
            checkpoint_cost: Time::from_millis(100),
            mtbf: Time::from_secs(2),
        });
        assert_eq!(young.checkpoints(), 2);
        assert!(young.workload().validate().is_empty());
    }
}
