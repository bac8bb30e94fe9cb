//! # sioscope-campaign
//!
//! The campaign engine: thousands of simulator runs as one cheap,
//! resumable batch. A run is treated as a *pure function of its
//! canonicalized configuration* — the resolved config is serialized
//! into a canonical string (independent of TOML key order; the spec
//! language has no floats, so no float-formatting instability either),
//! hashed with the deterministic Fx hasher from `sioscope-sim`, and
//! the result is cached on disk under that content address. Repeating
//! or overlapping campaigns are then near-free, and an interrupted
//! campaign resumes by skipping every hash already on disk.
//!
//! The pieces:
//!
//! * [`minitoml`] — a dependency-free parser for the TOML subset
//!   `campaign.toml` uses (tables, strings, integers, booleans,
//!   arrays);
//! * [`spec`] — [`CampaignSpec`]: cross-products of
//!   (workload × fault intensity × seed), (scheduler policy × load
//!   factor × seed), and registry experiment/sweep ids, expanded into
//!   a deterministic, deduplicated run list of [`RunSpec`]s;
//! * [`confhash`] — the 128-bit content address over a run's
//!   canonical serialization;
//! * [`cache`] — the on-disk `artifacts/campaign/<hash>.json` store,
//!   written through [`write_atomic`] so a killed campaign never
//!   leaves a truncated entry, and validated (parse + schema + hash)
//!   before it is ever trusted;
//! * [`exec`] — the parallel executor: cache hits are served on the
//!   calling thread and only misses fan out over scoped threads, with
//!   per-run panic isolation: one bad config fails that run, not the
//!   campaign;
//! * [`report`] — the aggregated campaign report. Its JSON rendering
//!   contains only deterministic fields, so a cold campaign, a fully
//!   cached campaign, and a single-worker campaign all produce
//!   bit-identical bytes; wall-clock and cache hit/miss accounting
//!   appear only in the human summary;
//! * [`json`] — a minimal deterministic JSON emitter/parser (sorted
//!   object keys, integer-only emission) used by the cache and report;
//! * [`cliutil`] — the CLI error/exit-code contract and the
//!   crash-safe [`write_atomic`] staging rename, shared with the
//!   `sioscope-bench` binaries.

pub mod cache;
pub mod cliutil;
pub mod confhash;
pub mod exec;
pub mod json;
pub mod minitoml;
pub mod report;
pub mod spec;

pub use cliutil::{exit_with, write_atomic, CliError};
pub use confhash::config_hash;
pub use exec::{run_campaign, ExecOptions};
pub use report::CampaignReport;
pub use spec::{CampaignSpec, RunSpec};
