//! # sioscope-sched
//!
//! A deterministic space-sharing batch scheduler over the simulated
//! Paragon. The paper (§3.2) measured ESCAT and PRISM in *dedicated*
//! mode and explicitly notes that production machines run mixed
//! workloads whose jobs contend for the same sixteen I/O nodes; this
//! crate supplies the scheduling layer that multi-tenant story needs:
//!
//! * [`JobStream`] — seeded job-arrival generators (open Poisson and
//!   scripted streams) over any [`sioscope_workloads::Workload`], in
//!   the same declarative style as `FaultSchedule`;
//! * [`PartitionAllocator`] — a first-fit 2-D sub-mesh allocator over
//!   the machine's compute grid (freed partitions coalesce
//!   automatically), so co-resident jobs get disjoint compute nodes
//!   while sharing I/O nodes and mesh links;
//! * [`QueuePolicy`] — FCFS and EASY backfill;
//! * [`ScheduleStats`] / [`JobOutcome`] — makespan and per-job
//!   wait/stretch/bounded-slowdown accounting.
//!
//! The multi-job event loop that drives all of this against one shared
//! [`Pfs`](../sioscope_pfs/struct.Pfs.html) lives in the `sioscope`
//! core crate (`sioscope::schedule`), next to the dedicated-mode
//! simulator it generalizes.

pub mod alloc;
pub mod policy;
pub mod stats;
pub mod stream;

pub use alloc::{Partition, PartitionAllocator};
pub use policy::QueuePolicy;
pub use stats::{JobOutcome, ScheduleStats};
pub use stream::{JobStream, JobTemplate, StreamKind};
