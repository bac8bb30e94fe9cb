//! Resilience policy: how clients survive injected faults.
//!
//! The measured PFS had no client-visible fault handling — a dead I/O
//! node simply hung the caller. This module supplies the policy layer
//! the §7 recommendations imply a production file system needs:
//! per-request timeouts, bounded retry with exponential backoff,
//! re-routing away from crashed I/O nodes (data reconstructed from the
//! surviving stripes + parity, at a service-time premium), and a
//! reduced-stripe-width fast path for reads that skips the full retry
//! ladder. Every decision is a pure function of the fault state and
//! the request instant, so runs stay deterministic.

use sioscope_sim::Time;

/// Knobs for the client-side fault-handling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// How long a request waits on an unresponsive I/O node before the
    /// client declares a timeout and starts the retry ladder.
    pub request_timeout: Time,
    /// Retries after the initial timeout before giving up on the node.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: Time,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_multiplier: f64,
    /// After exhausting retries, re-route the request to a healthy
    /// I/O node instead of stalling until restart.
    pub reroute: bool,
    /// Reads skip the retry ladder: after the first timeout and one
    /// probing retry they fall back to reconstructing the stripe from
    /// the surviving nodes (reads can be served from parity; writes
    /// cannot).
    pub reduced_stripe_reads: bool,
    /// Service-time factor on re-routed requests — the serving node
    /// must reconstruct the missing stripe from parity.
    pub reroute_penalty: f64,
}

impl ResilienceConfig {
    /// Defaults sized against Paragon-era service times: a 50 ms
    /// timeout clears healthy queueing, four retries with 20 ms
    /// doubling backoff span ~0.3 s before re-routing.
    pub fn standard() -> Self {
        ResilienceConfig {
            request_timeout: Time::from_millis(50),
            max_retries: 4,
            backoff_base: Time::from_millis(20),
            backoff_multiplier: 2.0,
            reroute: true,
            reduced_stripe_reads: true,
            reroute_penalty: 1.5,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Counters of every resilience action a run took. All-zero on a
/// fault-free run by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Requests that hit the per-request timeout on a crashed node.
    pub timeouts: u64,
    /// Retry attempts issued (including the probing retry before a
    /// reduced-stripe read).
    pub retries: u64,
    /// Requests re-routed to a healthy I/O node.
    pub reroutes: u64,
    /// Reads served via the reduced-stripe-width reconstruction path.
    pub degraded_reads: u64,
    /// Requests that found no healthy node and stalled until restart.
    pub aborts: u64,
    /// Writes that fell through to the backing store while the
    /// burst-buffer log was down (crashed, not yet repaired).
    pub writethroughs: u64,
}

impl ResilienceStats {
    /// `true` iff no resilience machinery fired.
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }

    /// Sum of all counters — a scalar "how eventful was this run".
    pub fn total_actions(&self) -> u64 {
        self.timeouts
            + self.retries
            + self.reroutes
            + self.degraded_reads
            + self.aborts
            + self.writethroughs
    }

    /// Accumulate another run's counters into this one.
    pub(crate) fn merge(&mut self, other: &ResilienceStats) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.reroutes += other.reroutes;
        self.degraded_reads += other.degraded_reads;
        self.aborts += other.aborts;
        self.writethroughs += other.writethroughs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_standard() {
        let d = ResilienceConfig::default();
        assert_eq!(d, ResilienceConfig::standard());
        assert!(d.reroute);
        assert!(d.reduced_stripe_reads);
        assert!(d.reroute_penalty > 1.0);
        assert!(d.backoff_multiplier > 1.0);
    }

    #[test]
    fn stats_start_quiet_and_merge() {
        let mut a = ResilienceStats::default();
        assert!(a.is_quiet());
        assert_eq!(a.total_actions(), 0);
        let b = ResilienceStats {
            timeouts: 1,
            retries: 4,
            reroutes: 1,
            degraded_reads: 2,
            aborts: 0,
            writethroughs: 3,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(!a.is_quiet());
        assert_eq!(a.retries, 8);
        assert_eq!(a.writethroughs, 6);
        assert_eq!(a.total_actions(), 22);
    }
}
