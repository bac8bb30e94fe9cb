//! Streaming cadence extraction: the producer-side view of a coupled
//! in-transit pipeline.
//!
//! A [`StreamCadence`] flattens a checkpointing workload into the
//! sequence the in-transit layer actually sees: alternating compute
//! intervals and write *bursts* (the chunks emitted at each checkpoint
//! barrier). [`PrismConfig::stream_cadence`] derives it from the same
//! configuration and RNG discipline as [`PrismConfig::build`], so the
//! streamed producer and the file-based workload agree step for step
//! on when data becomes available — the differential experiments
//! compare routes, not applications.

use crate::prism::PrismConfig;
use sioscope_sim::{DetRng, Time};

/// One checkpoint burst: the compute that precedes it and the chunks
/// it emits, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    /// Wall time the producer computes before this burst becomes
    /// available (the barrier-synchronised interval: max over nodes of
    /// their jittered per-step computes).
    pub compute: Time,
    /// Chunk sizes emitted at the barrier, in order.
    pub chunks: Vec<u64>,
}

impl Burst {
    /// Bytes this burst emits.
    pub fn bytes(&self) -> u64 {
        self.chunks.iter().sum()
    }
}

/// A producer job reduced to its streaming skeleton: named, versioned,
/// sized, and scheduled as a list of bursts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCadence {
    /// Workload name (e.g. `PRISM-C`).
    pub name: String,
    /// Version label.
    pub version: String,
    /// Compute nodes driving the producer.
    pub nodes: u32,
    /// Bursts in emission order.
    pub bursts: Vec<Burst>,
}

impl StreamCadence {
    /// Total bytes across all bursts.
    pub fn total_bytes(&self) -> u64 {
        self.bursts.iter().map(Burst::bytes).sum()
    }

    /// Total chunk count across all bursts.
    pub fn total_chunks(&self) -> u64 {
        self.bursts.iter().map(|b| b.chunks.len() as u64).sum()
    }

    /// Largest single chunk (0 for an empty cadence) — the lower bound
    /// a bounded staging queue's depth must clear.
    pub fn max_chunk(&self) -> u64 {
        self.bursts
            .iter()
            .flat_map(|b| b.chunks.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Structural problems (empty = valid): a cadence must carry at
    /// least one burst, and no chunk may be empty.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.bursts.is_empty() {
            problems.push("cadence has no bursts".into());
        }
        if self.nodes == 0 {
            problems.push("cadence needs at least one producer node".into());
        }
        for (i, b) in self.bursts.iter().enumerate() {
            if b.chunks.contains(&0) {
                problems.push(format!("burst {i}: zero-byte chunk"));
            }
        }
        problems
    }
}

impl PrismConfig {
    /// The streaming skeleton of this PRISM configuration: one burst
    /// per checkpoint, each carrying the three flow-statistics files'
    /// writes as chunks (`3 × stats_writes` chunks of `stats_write`
    /// bytes) and preceded by the barrier-synchronised compute of its
    /// checkpoint interval.
    ///
    /// Mirrors [`PrismConfig::build`]'s RNG discipline exactly: one
    /// fork of the root RNG per pid, one jitter draw for the scaled
    /// init compute (10%) and one per integration step (15%), so the
    /// cadence is bit-reproducible against the file-based workload.
    ///
    /// # Panics
    /// Panics if `PrismConfig::validate` reports problems.
    pub fn stream_cadence(&self) -> StreamCadence {
        let problems = self.validate();
        assert!(problems.is_empty(), "invalid PRISM config: {problems:?}");
        let k = &self.knobs;
        let scale = self.version.compute_scale();
        let root_rng = DetRng::new(self.seed);

        // Per-node jitter streams, drawn in build() order.
        let mut rngs: Vec<DetRng> = (0..self.nodes)
            .map(|pid| root_rng.fork(u64::from(pid)))
            .collect();
        let init: Vec<Time> = rngs
            .iter_mut()
            .map(|rng| rng.jitter(k.init_compute.scale(scale), 0.1))
            .collect();

        let intervals = self.checkpoints();
        let mut bursts = Vec::with_capacity(intervals as usize);
        let chunk_count = (3 * k.stats_writes) as usize;
        for interval in 0..intervals {
            // Barrier semantics: the interval ends when its slowest
            // node arrives, so the burst's compute is the max over
            // nodes of their summed step jitters (plus init before
            // the first barrier).
            let mut slowest = Time::ZERO;
            for (pid, rng) in rngs.iter_mut().enumerate() {
                let mut t: Time = (0..self.checkpoint_every)
                    .map(|_| rng.jitter(k.step_compute.scale(scale), 0.15))
                    .sum();
                if interval == 0 {
                    t += init[pid];
                }
                slowest = slowest.max(t);
            }
            bursts.push(Burst {
                compute: slowest,
                chunks: vec![k.stats_write; chunk_count],
            });
        }

        StreamCadence {
            name: format!("PRISM-{}", self.version.label()),
            version: self.version.label().to_string(),
            nodes: self.nodes,
            bursts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prism::PrismVersion;

    #[test]
    fn cadence_matches_checkpoint_arithmetic() {
        let cfg = PrismConfig::tiny(PrismVersion::C);
        let c = cfg.stream_cadence();
        assert!(c.validate().is_empty(), "{:?}", c.validate());
        assert_eq!(c.name, "PRISM-C");
        assert_eq!(c.nodes, cfg.nodes);
        assert_eq!(c.bursts.len(), cfg.checkpoints() as usize);
        let per_burst = 3 * cfg.knobs.stats_writes as u64;
        assert_eq!(c.total_chunks(), per_burst * u64::from(cfg.checkpoints()));
        assert_eq!(
            c.total_bytes(),
            per_burst * cfg.knobs.stats_write * u64::from(cfg.checkpoints())
        );
        assert_eq!(c.max_chunk(), cfg.knobs.stats_write);
    }

    #[test]
    fn cadence_is_deterministic_and_seed_sensitive() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        assert_eq!(cfg.stream_cadence(), cfg.stream_cadence());
        let mut other = cfg.clone();
        other.seed ^= 0xdead_beef;
        assert_ne!(
            cfg.stream_cadence().bursts[0].compute,
            other.stream_cadence().bursts[0].compute
        );
    }

    #[test]
    fn first_burst_carries_init_compute() {
        let cfg = PrismConfig::tiny(PrismVersion::A);
        let c = cfg.stream_cadence();
        // Init compute (≈1 s here) dwarfs one 5-step interval of 50 ms
        // steps, so the first burst's compute must exceed the second's.
        assert!(c.bursts[0].compute > c.bursts[1].compute);
    }

    #[test]
    fn interval_compute_is_barrier_max_over_nodes() {
        // With one node the burst compute is just that node's sum —
        // strictly below a many-node max drawn from the same base.
        let mut one = PrismConfig::tiny(PrismVersion::C);
        one.nodes = 1;
        let mut many = PrismConfig::tiny(PrismVersion::C);
        many.nodes = 8;
        let c1 = one.stream_cadence();
        let c8 = many.stream_cadence();
        // Node 0's jitter stream is identical (same fork), so the
        // 8-node barrier max can only be ≥ the single-node time.
        assert!(c8.bursts[1].compute >= c1.bursts[1].compute);
    }

    #[test]
    #[should_panic(expected = "invalid PRISM config")]
    fn cadence_panics_on_invalid_config() {
        let mut cfg = PrismConfig::tiny(PrismVersion::A);
        cfg.checkpoint_every = 0;
        let _ = cfg.stream_cadence();
    }
}
