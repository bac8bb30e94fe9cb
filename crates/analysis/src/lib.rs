//! # sioscope-analysis
//!
//! The data-analysis toolkit that turns sioscope traces into the
//! paper's tables and figures: cumulative distribution functions of
//! request sizes and transferred data (Figures 2 and 7), timeline
//! scatters of request sizes and durations (Figures 3–5, 8–9),
//! percentage-of-I/O-time tables (Tables 2 and 5),
//! percentage-of-execution-time tables (Table 3), and ASCII renderings
//! of all of them.
//!
//! Each pass over a trace has one entry point (`from_index` /
//! `of_kind` / `*_indexed`), which answers from a shared
//! [`sioscope_trace::TraceIndex`] without revisiting the event vector;
//! build the index once and ask it every question. Only the Miller–Katz
//! classifier ([`classify_file`], [`classify_all`]) scans an event
//! slice. The naive scans live on as test oracles in
//! `tests/oracle/`, each with its own fold, and the property tests in
//! `tests/proptest_indexed.rs` require every indexed pass to equal its
//! oracle exactly. The crate root re-exports only the names the
//! binaries and examples import from it.

pub mod bandwidth;
pub mod cdf;
pub mod classify;
pub mod compare;
pub mod histogram;
pub mod interarrival;
pub mod modes;
pub mod parallelism;
pub mod phases;
pub mod plot;
pub mod stats;
pub mod table;
pub mod timeline;

pub use bandwidth::BandwidthSeries;
pub use cdf::Cdf;
pub use classify::{classify_all, classify_file, IoClass};
pub use compare::Evolution;
pub use histogram::LogHistogram;
pub use modes::ModeUsage;
pub use parallelism::{ConcurrencyProfile, NodeBalance};
pub use phases::{detect_indexed as detect_phases_indexed, PhaseKind};
pub use timeline::Timeline;
