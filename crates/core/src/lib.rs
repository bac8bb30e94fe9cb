//! # sioscope
//!
//! Reproduction of **Smirni, Aydt, Chien & Reed, "I/O Requirements of
//! Scientific Applications: An Evolutionary View" (HPDC 1996)** as a
//! deterministic simulation study.
//!
//! The paper instrumented two Scalable I/O Initiative applications —
//! ESCAT (electron scattering) and PRISM (3-D Navier–Stokes) — with
//! the Pablo performance environment and tracked how their I/O
//! behaviour evolved over eighteen months on the Caltech Intel Paragon
//! XP/S under Intel's Parallel File System. This crate is the glue
//! that re-runs that study on simulated hardware:
//!
//! * [`simulator`] executes a [`sioscope_workloads::Workload`] — one
//!   program per compute node — against a
//!   [`sioscope_pfs::Pfs`] instance, capturing a Pablo-style trace;
//! * [`experiments`] maps every table and figure of the paper to a
//!   runnable experiment;
//! * [`paper`] records the paper's published numbers so reports and
//!   tests can compare shape;
//! * [`report`] renders experiment output next to the paper's values.
//!
//! ## Quickstart
//!
//! ```
//! use sioscope::simulator::{run, SimOptions};
//! use sioscope_workloads::{EscatConfig, EscatVersion};
//! use sioscope_pfs::PfsConfig;
//! use sioscope_pfs::mode::OsRelease;
//!
//! let workload = EscatConfig::tiny(EscatVersion::C).build();
//! let pfs = PfsConfig::caltech(workload.nodes, OsRelease::Osf13);
//! let result = run(&workload, pfs, SimOptions::default()).unwrap();
//! assert!(result.exec_time > sioscope_sim::Time::ZERO);
//! assert!(!result.trace.is_empty());
//! ```

pub mod canon;
pub mod chaos;
pub mod coupled;
pub mod experiments;
pub mod paper;
pub mod recovery;
pub mod report;
pub mod schedule;
pub mod simulator;
pub mod sweeps;

pub use coupled::{run_coupled, FileRoute, Route};
pub use recovery::{run_with_recovery, run_with_recovery_backend, RecoveryStats};
pub use schedule::{run_schedule, ScheduleOutcome};
pub use simulator::{run, run_backend, RunResult, SimOptions};
