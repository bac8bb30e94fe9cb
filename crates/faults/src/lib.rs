//! # sioscope-faults
//!
//! Deterministic fault injection for the sioscope stack.
//!
//! The paper (§7) observes that application I/O behaviour is shaped by
//! the machine's failure habits as much as by its healthy performance;
//! this crate makes failure shapes a first-class, reproducible
//! experiment dimension. It has three layers:
//!
//! * [`FaultSchedule`] — a declarative list of timed fault events:
//!   latent sector errors, RAID-3 spindle failures (with optional
//!   timed rebuild), I/O-node crashes with restart, I/O-node slowdown
//!   windows, mesh-link congestion bursts, and
//!   *compute*-node crashes (the PFS never sees those; the recovery
//!   driver in `sioscope-core` consumes them to model
//!   checkpoint/restart time-to-solution).
//! * [`FaultGen`] — draws a schedule from the deterministic sim RNG so
//!   a `(seed, intensity)` pair names a reproducible fault scenario,
//!   and intensity `k` is always a prefix of intensity `k + 1`
//!   (monotone sweeps by construction).
//! * [`FaultState`] — the compiled runtime form: per-I/O-node
//!   down/degraded/latent windows and slowdown timelines, a global
//!   link-congestion timeline, and the sorted list of transition
//!   instants the simulator interleaves with its event calendar.
//!
//! The cardinal invariant: a schedule that does not
//! [`FaultSchedule::engages`] must leave every downstream computation
//! bit-identical to a build without this crate in the loop. All hooks
//! are therefore gated on `Option<FaultState>` rather than on neutral
//! parameter values.

pub mod generator;
pub mod schedule;
pub mod state;

pub use generator::FaultGen;
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, Tier};
pub use state::{BurstFaultState, FaultState, ObjectFaultState};
