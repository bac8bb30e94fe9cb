//! Seeded schedule generation.
//!
//! A [`FaultGen`] names a whole family of fault scenarios by
//! `(seed, horizon, io_nodes)`; the `events` knob picks how deep into
//! the family's deterministic event stream to go. Events are drawn
//! *sequentially* from one RNG stream, so the schedule at intensity
//! `k` is exactly the first `k` events of the schedule at intensity
//! `k + 1`. That nesting is what makes a `fault_intensity` sweep
//! meaningful: each point adds faults to the previous point's scenario
//! instead of rolling an unrelated one, so exec-time inflation is
//! monotone by construction rather than by luck.

use crate::schedule::{FaultKind, FaultSchedule};
use sioscope_sim::{DetRng, Time};

/// Salt folded into the user seed so fault streams never collide with
/// workload RNG streams derived from the same experiment seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0BAD_D15C;

/// Salt for the compute-crash stream: distinct from
/// [`FAULT_STREAM_SALT`] so adding crashes to a scenario never
/// perturbs the I/O-side fault draws of the same seed.
const CRASH_STREAM_SALT: u64 = 0xC0DE_CAA5_4E57_A27B;

/// Salt for the object-tier fault stream: one seed names one scenario
/// *per tier*, each drawn from its own independent stream.
const OBJECT_STREAM_SALT: u64 = 0x0B1E_C7FA_CADE_5A1D;

/// Salt for the burst-tier fault stream.
const BURST_STREAM_SALT: u64 = 0xB0B5_7CAF_E11A_5EED;

/// A deterministic fault-scenario generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultGen {
    /// Seed of the fault event stream.
    pub seed: u64,
    /// Rough length of the run being disturbed; fault instants and
    /// window lengths are drawn as fractions of this.
    pub horizon: Time,
    /// Number of I/O nodes available to target.
    pub io_nodes: u32,
    /// How many events to take from the stream (the intensity axis).
    pub events: usize,
}

impl FaultGen {
    /// A generator with the given stream identity and zero intensity.
    pub fn new(seed: u64, horizon: Time, io_nodes: u32) -> Self {
        FaultGen {
            seed,
            horizon,
            io_nodes,
            events: 0,
        }
    }

    /// The same generator at a different intensity.
    pub fn with_events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Materialize the schedule: the first [`FaultGen::events`] events
    /// of the stream. Generated schedules always pass
    /// [`FaultSchedule::validate_for`] for this generator's `io_nodes`.
    pub fn schedule(&self) -> FaultSchedule {
        let mut rng = DetRng::new(self.seed ^ FAULT_STREAM_SALT);
        let mut sched = FaultSchedule::empty();
        if self.io_nodes == 0 {
            return sched;
        }
        // Windows never collapse to zero even on tiny horizons.
        let min_window = Time::from_millis(50);
        for _ in 0..self.events {
            // Strike somewhere in the first 90% of the horizon so the
            // fault actually intersects the run.
            let at = self.horizon.scale(0.9 * rng.unit());
            let ion = rng.range_inclusive(0, u64::from(self.io_nodes - 1)) as u32;
            let kind = match rng.range_inclusive(0, 4) {
                0 => FaultKind::LatentSector {
                    ion,
                    duration: self.window(&mut rng, 0.05, 0.20, min_window),
                    penalty: Time::from_millis(rng.range_inclusive(100, 500)),
                },
                1 => FaultKind::SpindleFailure {
                    ion,
                    rebuild: if rng.chance(0.5) {
                        Some(self.window(&mut rng, 0.20, 0.50, min_window))
                    } else {
                        None
                    },
                },
                2 => FaultKind::IonCrash {
                    ion,
                    restart: self.window(&mut rng, 0.05, 0.20, min_window),
                },
                3 => FaultKind::IonSlowdown {
                    ion,
                    duration: self.window(&mut rng, 0.10, 0.30, min_window),
                    factor: 1.5 + 2.5 * rng.unit(),
                },
                _ => FaultKind::LinkCongestion {
                    duration: self.window(&mut rng, 0.10, 0.30, min_window),
                    factor: 1.5 + 2.5 * rng.unit(),
                },
            };
            sched.push(at, kind);
        }
        sched
    }

    /// A window length uniform in `[lo, hi]` fractions of the horizon,
    /// floored at `min`.
    fn window(&self, rng: &mut DetRng, lo: f64, hi: f64, min: Time) -> Time {
        self.horizon.scale(lo + (hi - lo) * rng.unit()).max(min)
    }

    /// An *object-tier* scenario: the first [`FaultGen::events`]
    /// events of a stream over metadata-shard outages and
    /// degraded-service windows, targeting a store with `md_shards`
    /// metadata shards. Same nesting guarantee as
    /// [`FaultGen::schedule`], independently salted so one seed names
    /// uncorrelated scenarios on each tier. Generated schedules always
    /// pass `validate_for_tier(Tier::Object, md_shards, _)`.
    pub fn object_schedule(&self, md_shards: u32) -> FaultSchedule {
        let mut rng = DetRng::new(self.seed ^ OBJECT_STREAM_SALT);
        let mut sched = FaultSchedule::empty();
        if md_shards == 0 {
            return sched;
        }
        let min_window = Time::from_millis(50);
        for _ in 0..self.events {
            let at = self.horizon.scale(0.9 * rng.unit());
            let kind = if rng.chance(0.5) {
                FaultKind::MetadataShardOutage {
                    shard: rng.range_inclusive(0, u64::from(md_shards - 1)) as u32,
                    duration: self.window(&mut rng, 0.05, 0.20, min_window),
                }
            } else {
                FaultKind::DegradedService {
                    duration: self.window(&mut rng, 0.10, 0.30, min_window),
                    factor: 1.5 + 2.5 * rng.unit(),
                }
            };
            sched.push(at, kind);
        }
        sched
    }

    /// A *burst-tier* scenario: drain stalls and (rarer) burst-node
    /// crashes with repair windows. Same nesting and salting contract
    /// as [`FaultGen::object_schedule`]. Generated schedules always
    /// pass `validate_for_tier(Tier::Burst, _, _)`.
    pub fn burst_schedule(&self) -> FaultSchedule {
        let mut rng = DetRng::new(self.seed ^ BURST_STREAM_SALT);
        let mut sched = FaultSchedule::empty();
        let min_window = Time::from_millis(50);
        for _ in 0..self.events {
            let at = self.horizon.scale(0.9 * rng.unit());
            let kind = if rng.chance(0.7) {
                FaultKind::DrainStall {
                    duration: self.window(&mut rng, 0.10, 0.40, min_window),
                }
            } else {
                FaultKind::BurstNodeCrash {
                    repair: self.window(&mut rng, 0.05, 0.20, min_window),
                }
            };
            sched.push(at, kind);
        }
        sched
    }

    /// An MTBF-style compute-crash scenario: inter-crash gaps are
    /// exponential with mean `mtbf` (the memoryless model behind
    /// Young's interval formula), the victim pid is uniform over
    /// `0..compute_nodes`, and generation stops at the horizon. Every
    /// crash charges the same `rework` restart latency. The stream is
    /// salted independently of [`FaultGen::schedule`], so layering
    /// crashes onto an I/O-fault scenario with the same seed leaves
    /// the I/O-side draws untouched.
    pub fn compute_crash_schedule(
        &self,
        mtbf: Time,
        rework: Time,
        compute_nodes: u32,
    ) -> FaultSchedule {
        let mut sched = FaultSchedule::empty();
        if compute_nodes == 0 || mtbf.is_zero() || rework.is_zero() {
            return sched;
        }
        let mut rng = DetRng::new(self.seed ^ CRASH_STREAM_SALT);
        let mut t = Time::ZERO;
        loop {
            // Inverse-CDF exponential draw; `1 - u` keeps ln's
            // argument in (0, 1]. Floored so pathological draws can't
            // schedule two crashes in the same nanosecond.
            let gap = mtbf
                .scale(-(1.0 - rng.unit()).ln())
                .max(Time::from_millis(1));
            t = t.saturating_add(gap);
            if t > self.horizon {
                return sched;
            }
            let node = rng.range_inclusive(0, u64::from(compute_nodes - 1)) as u32;
            sched.push(t, FaultKind::ComputeNodeCrash { node, rework });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(events: usize) -> FaultGen {
        FaultGen::new(42, Time::from_secs(100), 8).with_events(events)
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(gen(10).schedule(), gen(10).schedule());
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(10).schedule();
        let mut g = gen(10);
        g.seed = 43;
        assert_ne!(a, g.schedule());
    }

    #[test]
    fn intensities_are_nested_prefixes() {
        let deep = gen(12).schedule();
        for k in 0..12 {
            let shallow = gen(k).schedule();
            assert_eq!(shallow.events.len(), k);
            assert_eq!(shallow.events[..], deep.events[..k]);
        }
    }

    #[test]
    fn generated_schedules_validate() {
        for seed in 0..20u64 {
            let mut g = gen(16);
            g.seed = seed;
            let s = g.schedule();
            let problems = s.validate_for(8, u32::MAX);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
        }
    }

    #[test]
    fn zero_intensity_is_fault_free() {
        let s = gen(0).schedule();
        assert!(s.is_empty());
        assert!(!s.engages());
    }

    #[test]
    fn zero_io_nodes_yields_empty_schedule() {
        let mut g = gen(5);
        g.io_nodes = 0;
        assert!(g.schedule().is_empty());
    }

    #[test]
    fn crash_schedule_is_deterministic_and_valid() {
        let g = FaultGen::new(42, Time::from_secs(100), 8);
        let mtbf = Time::from_secs(20);
        let rework = Time::from_secs(3);
        let a = g.compute_crash_schedule(mtbf, rework, 16);
        let b = g.compute_crash_schedule(mtbf, rework, 16);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "mtbf of horizon/5 should yield crashes");
        assert!(a.validate_for(8, 16).is_empty());
        let mut last = Time::ZERO;
        for ev in &a.events {
            assert!(ev.at > last, "crash instants strictly increase");
            assert!(ev.at <= Time::from_secs(100));
            assert!(matches!(
                ev.kind,
                FaultKind::ComputeNodeCrash {
                    rework: r, ..
                } if r == rework
            ));
            last = ev.at;
        }
    }

    #[test]
    fn crash_stream_does_not_disturb_io_stream() {
        let g = gen(10);
        let io_only = g.schedule();
        let _crashes = g.compute_crash_schedule(Time::from_secs(10), Time::from_secs(1), 8);
        assert_eq!(io_only, g.schedule());
    }

    #[test]
    fn longer_mtbf_means_fewer_crashes() {
        let g = FaultGen::new(7, Time::from_secs(1000), 4);
        let rework = Time::from_secs(1);
        let fast = g.compute_crash_schedule(Time::from_secs(50), rework, 8);
        let slow = g.compute_crash_schedule(Time::from_secs(200), rework, 8);
        assert!(fast.events.len() > slow.events.len());
    }

    #[test]
    fn degenerate_crash_generators_yield_empty() {
        let g = FaultGen::new(1, Time::from_secs(100), 4);
        assert!(g
            .compute_crash_schedule(Time::ZERO, Time::from_secs(1), 8)
            .is_empty());
        assert!(g
            .compute_crash_schedule(Time::from_secs(1), Time::ZERO, 8)
            .is_empty());
        assert!(g
            .compute_crash_schedule(Time::from_secs(1), Time::from_secs(1), 0)
            .is_empty());
    }

    #[test]
    fn stream_covers_every_fault_class() {
        let s = gen(64).schedule();
        let labels: std::collections::HashSet<&str> =
            s.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels.len(), 5, "64 draws should hit all 5 classes");
    }

    #[test]
    fn tier_streams_are_nested_valid_and_independent() {
        use crate::schedule::Tier;
        let deep_obj = gen(12).object_schedule(4);
        let deep_burst = gen(12).burst_schedule();
        for k in 0..12 {
            assert_eq!(gen(k).object_schedule(4).events[..], deep_obj.events[..k]);
            assert_eq!(gen(k).burst_schedule().events[..], deep_burst.events[..k]);
        }
        for seed in 0..20u64 {
            let mut g = gen(16);
            g.seed = seed;
            let o = g.object_schedule(4);
            assert!(
                o.validate_for_tier(Tier::Object, 4, u32::MAX).is_empty(),
                "seed {seed}: {:?}",
                o.validate_for_tier(Tier::Object, 4, u32::MAX)
            );
            let b = g.burst_schedule();
            assert!(
                b.validate_for_tier(Tier::Burst, 0, u32::MAX).is_empty(),
                "seed {seed}: {:?}",
                b.validate_for_tier(Tier::Burst, 0, u32::MAX)
            );
        }
        // Each tier stream is independently salted: drawing one does
        // not disturb the others, and the PFS stream is unchanged.
        let g = gen(10);
        let io_only = g.schedule();
        let _ = g.object_schedule(4);
        let _ = g.burst_schedule();
        assert_eq!(io_only, g.schedule());
    }

    #[test]
    fn tier_streams_cover_their_fault_classes() {
        let obj = gen(64).object_schedule(4);
        let labels: std::collections::HashSet<&str> =
            obj.events.iter().map(|e| e.kind.label()).collect();
        assert!(labels.contains("md-shard-outage"));
        assert!(labels.contains("degraded-service"));
        let burst = gen(64).burst_schedule();
        let labels: std::collections::HashSet<&str> =
            burst.events.iter().map(|e| e.kind.label()).collect();
        assert!(labels.contains("drain-stall"));
        assert!(labels.contains("burst-crash"));
        assert!(gen(0).object_schedule(4).is_empty());
        assert!(gen(0).burst_schedule().is_empty());
        let mut g = gen(5);
        g.io_nodes = 0;
        assert!(!g.object_schedule(4).is_empty(), "md shards, not io nodes");
        assert!(g.object_schedule(0).is_empty());
    }
}
