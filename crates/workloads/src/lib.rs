//! # sioscope-workloads
//!
//! Synthetic reconstructions of the two Scalable I/O Initiative
//! applications the paper characterizes:
//!
//! * **ESCAT** (§4) — the Schwinger Multichannel electron scattering
//!   code: four I/O phases (compulsory initialization reads, staged
//!   quadrature writes, staged quadrature reads, compulsory result
//!   writes), studied in versions A, B and C on 128 nodes with the
//!   ethylene dataset (2 collision channels) and on 256 nodes with the
//!   carbon monoxide dataset (13 channels).
//! * **PRISM** (§5) — the 3-D spectral-element Navier–Stokes solver:
//!   three I/O phases (initialization reads, checkpointed integration,
//!   post-processing field output), studied in versions A, B and C on
//!   64 nodes (201 elements, Re = 1000, 1250 steps, checkpoints every
//!   250 steps).
//!
//! Each version reproduces the node activity and PFS access modes of
//! the paper's Tables 1 and 4, and request-size distributions
//! consistent with Figures 2–5 and 7–9. Workloads are generated as
//! per-node [`program::Stmt`] sequences consumed by the `sioscope`
//! core simulator.
//!
//! [`synthetic`] additionally provides the parallel-file-system
//! benchmark kernels the paper says should be derived from these
//! characterizations (§7). The ESCAT, PRISM and synthetic generators
//! all write their node programs through [`ProgramBuilder`].

pub mod builder;
pub mod checkpoint;
pub mod escat;
pub mod prism;
pub mod program;
pub mod replay;
pub mod streaming;
pub mod synthetic;

pub use builder::ProgramBuilder;
pub use checkpoint::{CheckpointPolicy, Recoverable};
pub use escat::{EscatConfig, EscatDataset, EscatVersion};
pub use prism::{PrismConfig, PrismVersion};
pub use program::{FileSpec, Stmt, Workload};
pub use sioscope_pfs::mode::OsRelease;
pub use streaming::StreamCadence;
