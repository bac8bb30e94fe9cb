//! # sioscope-pfs
//!
//! A model of the Intel Paragon Parallel File System (PFS) as
//! described in §3.2 of Smirni et al. (HPDC 1996), faithful to the six
//! documented file access modes:
//!
//! * **M_UNIX** — the default. Standard UNIX sharing semantics: each
//!   process has a private file pointer, any request size, and request
//!   atomicity is preserved — which serializes concurrent accesses to
//!   the same file and makes multi-node access expensive.
//! * **M_RECORD** — private pointers, *fixed-size* records, concurrent
//!   operations in node order. Each process operates on its own file
//!   region in a parallel, highly structured fashion. Performs well
//!   when the record size is a multiple of the stripe unit.
//! * **M_ASYNC** — private pointers, variable sizes, *no* atomicity:
//!   the system overhead of atomicity is avoided and seeks become
//!   local pointer updates.
//! * **M_GLOBAL** — one shared pointer, all processes access the same
//!   data in a synchronized fashion; identical requests are aggregated
//!   so the data moves from disk only once and is broadcast.
//! * **M_SYNC** — one shared pointer, requests processed in node
//!   order, synchronized, sizes may vary per node.
//! * **M_LOG** — one shared pointer, first-come-first-served,
//!   unsynchronized, variable sizes (the stdout/stderr mode).
//!
//! On top of the measured PFS behaviour, [`policy`] implements the
//! file-system design principles the paper advocates in §7 — request
//! aggregation, prefetching, and write-behind — so their effect can be
//! quantified in ablation benchmarks.
//!
//! The PFS is one of three storage tiers behind the [`backend`] seam;
//! [`object`] and [`burst`] are the modern comparison points the
//! evolutionary experiments replay the same workloads against.

pub mod adaptive;
pub mod backend;
pub mod burst;
pub mod cache;
pub mod costs;
pub mod error;
pub mod file;
mod handles;
pub mod ioncache;
pub mod mode;
pub mod object;
pub mod op;
pub mod policy;
pub mod resilience;
pub mod server;
pub mod stripe;

pub use adaptive::{AccessPattern, PatternDetector};
pub use backend::{BackendConfig, BackendKind, BackendStats, StorageBackend};
pub use burst::{BurstAbsorb, BurstBuffer, BurstBufferConfig};
pub use costs::PfsCosts;
pub use error::PfsError;
pub use mode::IoMode;
pub use object::{ObjectStore, ObjectStoreConfig};
pub use op::{Completion, IoOp, OpKind, Outcome};
pub use policy::PolicyConfig;
pub use resilience::ResilienceStats;
pub use server::{Pfs, PfsConfig};
pub use stripe::StripeLayout;
