//! # sioscope-sim
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! sioscope reproduction of Smirni et al., *"I/O Requirements of
//! Scientific Applications: An Evolutionary View"* (HPDC 1996).
//!
//! The kernel is intentionally small and policy-free. It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`EventQueue`] — a deterministic priority queue of timestamped
//!   events with stable FIFO tie-breaking,
//! * [`Calendar`] / [`CalendarPool`] — analytic resource calendars used
//!   to model serialized devices (disk arms, file-atomicity tokens,
//!   metadata servers) without explicit blocking,
//! * [`RendezvousTable`] — group synchronization used to model
//!   collective file operations (`gopen`, `M_GLOBAL`, `M_RECORD`,
//!   `M_SYNC`) and compute-phase barriers,
//! * [`DetRng`] — a seeded random-number source so every experiment is
//!   exactly reproducible,
//! * [`par::map`] — an order-preserving parallel map over scoped
//!   threads, for running independent simulations side by side.
//!
//! Higher layers (the machine model, the PFS model, the application
//! workloads) are pure policy over these mechanisms; the event loop
//! itself lives in the `sioscope` core crate.

pub mod calendar;
pub mod event;
pub mod hash;
pub mod ids;
pub mod par;
pub mod rendezvous;
pub mod rng;
pub mod time;
pub mod timeline;

pub use calendar::{Calendar, CalendarPool};
pub use event::EventQueue;
pub use hash::{DetHashMap, DetHashSet, FxHasher};
pub use ids::{FileId, JobId, NodeId, Pid};
pub use rendezvous::{RendezvousOutcome, RendezvousTable};
pub use rng::DetRng;
pub use time::Time;
pub use timeline::PiecewiseFactor;
