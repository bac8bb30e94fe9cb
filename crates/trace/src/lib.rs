//! # sioscope-trace
//!
//! A stand-in for the Pablo performance analysis environment's I/O
//! instrumentation (§3.1 of the paper). Pablo captured, for every I/O
//! operation, "the time, duration, size, and other parameters", and
//! offered three statistical summary forms:
//!
//! * **file lifetime summaries** — per-file counts and total durations
//!   of reads, writes, seeks, opens and closes, bytes accessed, and
//!   the total time the file was open;
//! * **time window summaries** — the same data restricted to a time
//!   window;
//! * **file region summaries** — the spatial analog, restricted to a
//!   byte range of one file.
//!
//! This crate reproduces that data model: [`IoEvent`] is the raw trace
//! record, [`TraceRecorder`] the capture library, and [`summary`] the
//! three summary forms. [`binary`] serializes traces as a compact
//! binary record stream (`.siot`) — the stand-in for Pablo's SDDF
//! self-describing data format.
//!
//! [`index`] is the analytics engine behind all of it: a columnar
//! [`TraceIndex`] built once per trace, answering every summary form
//! (and the `sioscope-analysis` passes) without re-scanning the event
//! vector.
//!
//! A simulation records into a [`Sink`]: the full [`TraceRecorder`]
//! where its events are read, or [`IoTotals`], an operation count and
//! a duration sum, where only those are.

pub mod binary;
pub mod event;
pub mod index;
pub mod jobmap;
pub mod recorder;
pub mod sink;
pub mod summary;

pub use event::IoEvent;
pub use index::TraceIndex;
pub use jobmap::JobMap;
pub use recorder::TraceRecorder;
pub use sink::{IoTotals, Sink};
pub use summary::{FileRegionSummary, LifetimeSummary, TimeWindowSummary};
