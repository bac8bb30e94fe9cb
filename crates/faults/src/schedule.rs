//! Declarative fault schedules.
//!
//! A schedule is plain data: a list of `(instant, fault)` pairs. It
//! carries no behaviour beyond validation; the runtime interpretation
//! (windows, timelines, transition instants) lives in
//! [`crate::state::FaultState`], and the policy reaction (retry,
//! re-route, degrade) lives in the PFS layer.

use sioscope_sim::Time;

/// One injectable fault class.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A latent sector error on one array: for the window's duration
    /// every request to the array pays the drive's internal
    /// retry/remap penalty on top of normal service.
    LatentSector {
        /// Afflicted I/O node.
        ion: u32,
        /// How long the bad region keeps being hit.
        duration: Time,
        /// Extra service time per request while the window is open.
        penalty: Time,
    },
    /// A RAID-3 spindle failure: the array runs degraded (parity
    /// reconstruction on every access) from the fault instant until
    /// the rebuild completes — or forever when `rebuild` is `None`,
    /// which reproduces the old statically-degraded-array model.
    SpindleFailure {
        /// Afflicted I/O node.
        ion: u32,
        /// Rebuild duration; `None` = never rebuilt.
        rebuild: Option<Time>,
    },
    /// An I/O-node crash: the node serves nothing until it restarts.
    /// In-flight and newly arriving requests time out and the PFS
    /// resilience policy decides whether to retry, re-route, or wait.
    IonCrash {
        /// Afflicted I/O node.
        ion: u32,
        /// Time from crash to the node accepting requests again.
        restart: Time,
    },
    /// An I/O-node slowdown window: every request served during the
    /// window takes `factor`× its normal service time (daemon CPU
    /// starvation, firmware retries, thermal throttling).
    IonSlowdown {
        /// Afflicted I/O node.
        ion: u32,
        /// Window length.
        duration: Time,
        /// Service-time multiplier, `> 1.0` to slow down.
        factor: f64,
    },
    /// A mesh-wide congestion burst: wire transfer time is scaled by
    /// `factor` for the window (contending traffic from another
    /// partition; the Paragon ran space-shared).
    LinkCongestion {
        /// Window length.
        duration: Time,
        /// Wire-time multiplier, `> 1.0` to slow down.
        factor: f64,
    },
    /// A *compute*-node crash. The applications are gang-scheduled
    /// SPMD codes, so one dead node kills the whole attempt: the run
    /// is torn down, the partition reboots for `rework`, and the
    /// application restarts from its last committed checkpoint. The
    /// PFS layer never sees this fault — it is interpreted by the
    /// recovery driver in `sioscope-core`, which charges the restart
    /// latency and replays the lost work.
    ComputeNodeCrash {
        /// The compute node (pid) that dies.
        node: u32,
        /// Time from the crash to the replacement partition being
        /// ready to rerun the application (reboot + reschedule).
        rework: Time,
    },
    /// An object-store metadata shard outage: for the window's
    /// duration the shard answers nothing and the store's resilience
    /// policy decides whether to retry, re-route to the replica
    /// shard, or stall until the shard returns.
    MetadataShardOutage {
        /// Afflicted metadata shard.
        shard: u32,
        /// How long the shard is dark.
        duration: Time,
    },
    /// A degraded-service window on the object store: every PUT/GET
    /// served during the window pays `factor`× its normal service
    /// latency (compaction storms, recovery traffic, noisy
    /// neighbours). Sizes and ordering are untouched, so the PUT/GET
    /// semantics oracle still holds under this fault.
    DegradedService {
        /// Window length.
        duration: Time,
        /// Service-latency multiplier, `> 1.0` to slow down.
        factor: f64,
    },
    /// A burst-buffer drain stall: the background drain channel to
    /// the inner PFS makes no progress for the window (drain daemon
    /// wedged, PFS backpressure). Absorbed writes still complete at
    /// log speed; the resident backlog just drains later.
    DrainStall {
        /// Window length.
        duration: Time,
    },
    /// A burst-buffer node crash: every logged byte not yet drained
    /// to the inner PFS at the crash instant is *lost*, and while the
    /// log rebuilds (`repair`) writes fall through to the inner PFS
    /// directly. The recovery driver consumes the durability side of
    /// this: a checkpoint committed to the log but never drained
    /// cannot be restored from.
    BurstNodeCrash {
        /// Time from the crash to the log absorbing writes again.
        repair: Time,
    },
    /// An in-situ consumer crash on a streaming pipeline: the consumer
    /// makes no progress for the outage, so staged chunks stop
    /// draining, the bounded staging queue stops returning credits,
    /// and the *producer* ultimately stalls through backpressure —
    /// qualitatively unlike any disk fault, where the writer pays at
    /// the device. Only the `stream` tier can express this; storage
    /// tiers have no consumer to kill.
    ConsumerCrash {
        /// How long the consumer is down (restart + reattach).
        stall: Time,
    },
}

/// The storage tier a fault schedule is interpreted against. Lives
/// here (not in the PFS crate) because the fault crate sits below the
/// storage crates in the dependency order; `sioscope-pfs` maps its
/// `BackendKind` onto this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The 1996-style parallel file system (also the inner PFS of a
    /// burst buffer).
    Pfs,
    /// The flat-namespace object store.
    Object,
    /// The host-side burst-buffer log (its inner PFS validates its
    /// own schedule as [`Tier::Pfs`]).
    Burst,
    /// The in-transit streaming layer: bounded staging queues between
    /// a producer and an in-situ consumer. No storage device is in the
    /// path, so every disk-era fault class is rejected here; the one
    /// fault the tier expresses is the consumer crash.
    Stream,
}

impl Tier {
    /// Short stable id, matching the `BackendKind` ids.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Tier::Pfs => "pfs",
            Tier::Object => "object",
            Tier::Burst => "burst",
            Tier::Stream => "stream",
        }
    }

    /// The labels of every fault class this tier can express,
    /// verbatim for fail-fast diagnostics.
    pub fn valid_fault_labels(&self) -> &'static [&'static str] {
        match self {
            Tier::Pfs => &[
                "latent-sector",
                "spindle-failure",
                "ion-crash",
                "ion-slowdown",
                "link-congestion",
                "compute-crash",
            ],
            Tier::Object => &["md-shard-outage", "degraded-service", "compute-crash"],
            Tier::Burst => &["drain-stall", "burst-crash", "compute-crash"],
            Tier::Stream => &["consumer-crash"],
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FaultKind {
    /// The I/O node this fault pins down, if it is node-scoped.
    pub(crate) fn ion(&self) -> Option<u32> {
        match *self {
            FaultKind::LatentSector { ion, .. }
            | FaultKind::SpindleFailure { ion, .. }
            | FaultKind::IonCrash { ion, .. }
            | FaultKind::IonSlowdown { ion, .. } => Some(ion),
            _ => None,
        }
    }

    /// The metadata shard this fault pins down, if it is shard-scoped
    /// (disjoint from [`FaultKind::ion`]).
    pub(crate) fn shard(&self) -> Option<u32> {
        match *self {
            FaultKind::MetadataShardOutage { shard, .. } => Some(shard),
            _ => None,
        }
    }

    /// `true` iff this fault class is expressible on `tier`.
    /// Compute-node crashes are agnostic across the *storage* tiers —
    /// the storage layer never sees them, the recovery driver does —
    /// but the coupled stream driver has no rollback path, so the
    /// stream tier rejects them along with every disk fault.
    pub(crate) fn valid_on(&self, tier: Tier) -> bool {
        match self {
            FaultKind::ComputeNodeCrash { .. } => tier != Tier::Stream,
            FaultKind::ConsumerCrash { .. } => tier == Tier::Stream,
            FaultKind::LatentSector { .. }
            | FaultKind::SpindleFailure { .. }
            | FaultKind::IonCrash { .. }
            | FaultKind::IonSlowdown { .. }
            | FaultKind::LinkCongestion { .. } => tier == Tier::Pfs,
            FaultKind::MetadataShardOutage { .. } | FaultKind::DegradedService { .. } => {
                tier == Tier::Object
            }
            FaultKind::DrainStall { .. } | FaultKind::BurstNodeCrash { .. } => tier == Tier::Burst,
        }
    }

    /// Short stable label for reports and sweep axes.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FaultKind::LatentSector { .. } => "latent-sector",
            FaultKind::SpindleFailure { .. } => "spindle-failure",
            FaultKind::IonCrash { .. } => "ion-crash",
            FaultKind::IonSlowdown { .. } => "ion-slowdown",
            FaultKind::LinkCongestion { .. } => "link-congestion",
            FaultKind::ComputeNodeCrash { .. } => "compute-crash",
            FaultKind::MetadataShardOutage { .. } => "md-shard-outage",
            FaultKind::DegradedService { .. } => "degraded-service",
            FaultKind::DrainStall { .. } => "drain-stall",
            FaultKind::BurstNodeCrash { .. } => "burst-crash",
            FaultKind::ConsumerCrash { .. } => "consumer-crash",
        }
    }
}

/// A fault scheduled at an instant of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete fault scenario for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The timed fault events, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Route the run through the fault machinery even with no events.
    /// The determinism regression tests use this to prove the hooks
    /// themselves are bit-neutral; ordinary empty schedules leave it
    /// `false` so fault-free runs skip the hooks entirely.
    pub engage_when_empty: bool,
}

impl FaultSchedule {
    /// The fault-free schedule: no events, hooks disengaged.
    pub fn empty() -> Self {
        Self::default()
    }

    /// No events, but the fault machinery stays in the loop. Exists so
    /// tests can assert the hooks are bit-neutral; see
    /// [`FaultSchedule::engage_when_empty`].
    pub fn engaged_empty() -> Self {
        FaultSchedule {
            events: Vec::new(),
            engage_when_empty: true,
        }
    }

    /// The legacy statically-degraded-array scenario: each listed I/O
    /// node suffers a never-rebuilt spindle failure at time zero.
    pub fn degraded_from_start(ions: &[u32]) -> Self {
        FaultSchedule {
            events: ions
                .iter()
                .map(|&ion| FaultEvent {
                    at: Time::ZERO,
                    kind: FaultKind::SpindleFailure { ion, rebuild: None },
                })
                .collect(),
            engage_when_empty: false,
        }
    }

    /// Append one fault.
    pub fn push(&mut self, at: Time, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// `true` iff the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `true` iff the run must route through the fault machinery.
    pub fn engages(&self) -> bool {
        !self.events.is_empty() || self.engage_when_empty
    }

    /// Structural problems, one message each; empty = valid. `io_nodes`
    /// bounds I/O-node-scoped faults, and compute-node crashes must
    /// name a pid in `0..compute_nodes` and a sane rework time. PFS
    /// semantics: any fault class the 1996-style file system cannot
    /// express is rejected.
    pub fn validate_for(&self, io_nodes: u32, compute_nodes: u32) -> Vec<String> {
        self.validate_for_tier(Tier::Pfs, io_nodes, compute_nodes)
    }

    /// Backend-aware validation. `scope_nodes` bounds the tier's
    /// node-scoped faults — I/O nodes on `pfs`, metadata shards on
    /// `object`, unused on `burst` — and `compute_nodes` bounds
    /// compute-node crash victims. A fault class the tier cannot
    /// express is a hard problem whose message names the tier's valid
    /// fault set, so CLIs can fail fast with exit code 2.
    pub fn validate_for_tier(
        &self,
        tier: Tier,
        scope_nodes: u32,
        compute_nodes: u32,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.kind.valid_on(tier) {
                problems.push(format!(
                    "event {i}: {} is not a fault of the {tier} tier \
                     (valid on {tier}: {})",
                    ev.kind.label(),
                    tier.valid_fault_labels().join(", ")
                ));
                continue;
            }
            if let Some(ion) = ev.kind.ion() {
                if ion >= scope_nodes {
                    problems.push(format!(
                        "event {i}: {} targets I/O node {ion}, machine has {scope_nodes}",
                        ev.kind.label()
                    ));
                }
            }
            if let Some(shard) = ev.kind.shard() {
                if shard >= scope_nodes {
                    problems.push(format!(
                        "event {i}: {} targets metadata shard {shard}, store has {scope_nodes}",
                        ev.kind.label()
                    ));
                }
            }
            match ev.kind {
                FaultKind::LatentSector {
                    duration, penalty, ..
                } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: latent-sector window is empty"));
                    }
                    if penalty.is_zero() {
                        problems.push(format!("event {i}: latent-sector penalty is zero"));
                    }
                }
                FaultKind::SpindleFailure { rebuild, .. } => {
                    if rebuild.is_some_and(|r| r.is_zero()) {
                        problems.push(format!(
                            "event {i}: spindle rebuild of zero duration (use None for 'never')"
                        ));
                    }
                }
                FaultKind::IonCrash { restart, .. } => {
                    if restart.is_zero() {
                        problems.push(format!("event {i}: crash with zero restart time"));
                    }
                }
                FaultKind::IonSlowdown {
                    duration, factor, ..
                } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: slowdown window is empty"));
                    }
                    if !factor.is_finite() || factor <= 1.0 {
                        problems.push(format!("event {i}: slowdown factor {factor} is not > 1"));
                    }
                }
                FaultKind::LinkCongestion { duration, factor } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: congestion window is empty"));
                    }
                    if !factor.is_finite() || factor <= 1.0 {
                        problems.push(format!("event {i}: congestion factor {factor} is not > 1"));
                    }
                }
                FaultKind::ComputeNodeCrash { node, rework } => {
                    if node >= compute_nodes {
                        problems.push(format!(
                            "event {i}: compute-crash targets node {node}, \
                             application has {compute_nodes}"
                        ));
                    }
                    if rework.is_zero() {
                        problems.push(format!("event {i}: compute-crash with zero rework time"));
                    }
                }
                FaultKind::MetadataShardOutage { duration, .. } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: md-shard-outage window is empty"));
                    }
                }
                FaultKind::DegradedService { duration, factor } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: degraded-service window is empty"));
                    }
                    if !factor.is_finite() || factor <= 1.0 {
                        problems.push(format!(
                            "event {i}: degraded-service factor {factor} is not > 1"
                        ));
                    }
                }
                FaultKind::DrainStall { duration } => {
                    if duration.is_zero() {
                        problems.push(format!("event {i}: drain-stall window is empty"));
                    }
                }
                FaultKind::BurstNodeCrash { repair } => {
                    if repair.is_zero() {
                        problems.push(format!("event {i}: burst-crash with zero repair time"));
                    }
                }
                FaultKind::ConsumerCrash { stall } => {
                    if stall.is_zero() {
                        problems.push(format!("event {i}: consumer-crash with zero stall time"));
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_does_not_engage_but_engaged_empty_does() {
        assert!(!FaultSchedule::empty().engages());
        assert!(FaultSchedule::empty().is_empty());
        assert!(FaultSchedule::engaged_empty().engages());
        assert!(FaultSchedule::engaged_empty().is_empty());
        assert!(!FaultSchedule::default().engages());
    }

    #[test]
    fn degraded_from_start_is_permanent_spindle_failures() {
        let s = FaultSchedule::degraded_from_start(&[0, 3]);
        assert!(s.engages());
        assert_eq!(s.events.len(), 2);
        for ev in &s.events {
            assert_eq!(ev.at, Time::ZERO);
            assert!(matches!(
                ev.kind,
                FaultKind::SpindleFailure { rebuild: None, .. }
            ));
        }
        assert!(s.validate_for(4, u32::MAX).is_empty());
    }

    #[test]
    fn validate_catches_bad_events() {
        let mut s = FaultSchedule::empty();
        s.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 9,
                restart: Time::ZERO,
            },
        );
        s.push(
            Time::from_secs(1),
            FaultKind::IonSlowdown {
                ion: 0,
                duration: Time::from_secs(1),
                factor: 0.5,
            },
        );
        let problems = s.validate_for(2, u32::MAX);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn labels_are_stable() {
        let kinds = [
            FaultKind::LatentSector {
                ion: 0,
                duration: Time::from_secs(1),
                penalty: Time::from_millis(1),
            },
            FaultKind::SpindleFailure {
                ion: 0,
                rebuild: Some(Time::from_secs(1)),
            },
            FaultKind::IonCrash {
                ion: 0,
                restart: Time::from_secs(1),
            },
            FaultKind::IonSlowdown {
                ion: 0,
                duration: Time::from_secs(1),
                factor: 2.0,
            },
            FaultKind::LinkCongestion {
                duration: Time::from_secs(1),
                factor: 2.0,
            },
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::from_secs(1),
            },
        ];
        let labels: std::collections::HashSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        assert_eq!(kinds[4].ion(), None);
        assert_eq!(kinds[0].ion(), Some(0));
        assert_eq!(kinds[5].ion(), None);
    }

    #[test]
    fn tier_validation_rejects_cross_tier_faults() {
        let mut s = FaultSchedule::empty();
        s.push(
            Time::from_secs(1),
            FaultKind::LatentSector {
                ion: 0,
                duration: Time::from_secs(1),
                penalty: Time::from_millis(1),
            },
        );
        s.push(
            Time::from_secs(2),
            FaultKind::MetadataShardOutage {
                shard: 0,
                duration: Time::from_secs(1),
            },
        );
        s.push(
            Time::from_secs(3),
            FaultKind::BurstNodeCrash {
                repair: Time::from_secs(1),
            },
        );
        s.push(
            Time::from_secs(4),
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::from_secs(1),
            },
        );
        s.push(
            Time::from_secs(5),
            FaultKind::ConsumerCrash {
                stall: Time::from_secs(1),
            },
        );
        // Each storage tier accepts exactly its own class plus
        // compute-crash; the stream tier accepts only consumer-crash.
        for (tier, rejected) in [
            (Tier::Pfs, 3),
            (Tier::Object, 3),
            (Tier::Burst, 3),
            (Tier::Stream, 4),
        ] {
            let problems = s.validate_for_tier(tier, 4, 8);
            assert_eq!(problems.len(), rejected, "{tier}: {problems:?}");
            for p in &problems {
                assert!(p.contains(&format!("valid on {tier}:")), "{p}");
            }
        }
        // The legacy PFS entry point rejects the new tier variants too.
        assert_eq!(s.validate_for(4, 8).len(), 3);
    }

    #[test]
    fn stream_tier_validates_consumer_crashes() {
        let mut s = FaultSchedule::empty();
        s.push(
            Time::from_secs(1),
            FaultKind::ConsumerCrash {
                stall: Time::from_secs(2),
            },
        );
        assert!(s.validate_for_tier(Tier::Stream, 0, 8).is_empty());
        s.push(
            Time::from_secs(3),
            FaultKind::ConsumerCrash { stall: Time::ZERO },
        );
        let problems = s.validate_for_tier(Tier::Stream, 0, 8);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("zero stall"));
        // Every storage tier rejects the class by name.
        for tier in [Tier::Pfs, Tier::Object, Tier::Burst] {
            let problems = s.validate_for_tier(tier, 4, 8);
            assert!(
                problems.iter().all(|p| p.contains("consumer-crash")),
                "{tier}: {problems:?}"
            );
            assert_eq!(problems.len(), 2, "{tier}: {problems:?}");
        }
    }

    #[test]
    fn tier_validation_checks_structure_and_shard_bounds() {
        let mut s = FaultSchedule::empty();
        s.push(
            Time::ZERO,
            FaultKind::MetadataShardOutage {
                shard: 7,
                duration: Time::ZERO,
            },
        );
        s.push(
            Time::from_secs(1),
            FaultKind::DegradedService {
                duration: Time::from_secs(1),
                factor: 0.5,
            },
        );
        let problems = s.validate_for_tier(Tier::Object, 4, 8);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("metadata shard 7"));

        let mut b = FaultSchedule::empty();
        b.push(
            Time::ZERO,
            FaultKind::DrainStall {
                duration: Time::ZERO,
            },
        );
        b.push(
            Time::from_secs(1),
            FaultKind::BurstNodeCrash { repair: Time::ZERO },
        );
        let problems = b.validate_for_tier(Tier::Burst, 0, 8);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn tier_labels_and_fault_sets_are_stable() {
        assert_eq!(Tier::Pfs.label(), "pfs");
        assert_eq!(Tier::Object.label(), "object");
        assert_eq!(Tier::Burst.label(), "burst");
        assert_eq!(Tier::Stream.label(), "stream");
        assert_eq!(Tier::Pfs.valid_fault_labels().len(), 6);
        assert_eq!(Tier::Stream.valid_fault_labels(), &["consumer-crash"]);
        let crash = FaultKind::ConsumerCrash {
            stall: Time::from_secs(1),
        };
        assert_eq!(crash.label(), "consumer-crash");
        assert_eq!(crash.ion(), None);
        assert_eq!(crash.shard(), None);
        assert!(crash.valid_on(Tier::Stream));
        assert!(!crash.valid_on(Tier::Pfs));
        assert!(Tier::Object
            .valid_fault_labels()
            .contains(&"md-shard-outage"));
        assert!(Tier::Burst.valid_fault_labels().contains(&"burst-crash"));
        for tier in [Tier::Pfs, Tier::Object, Tier::Burst] {
            assert!(tier.valid_fault_labels().contains(&"compute-crash"));
        }
        let outage = FaultKind::MetadataShardOutage {
            shard: 3,
            duration: Time::from_secs(1),
        };
        assert_eq!(outage.label(), "md-shard-outage");
        assert_eq!(outage.shard(), Some(3));
        assert_eq!(outage.ion(), None);
        let crash = FaultKind::BurstNodeCrash {
            repair: Time::from_secs(1),
        };
        assert_eq!(crash.label(), "burst-crash");
        assert_eq!(crash.shard(), None);
    }

    #[test]
    fn validate_for_bounds_compute_crashes() {
        let mut s = FaultSchedule::empty();
        s.push(
            Time::from_secs(1),
            FaultKind::ComputeNodeCrash {
                node: 8,
                rework: Time::from_secs(5),
            },
        );
        s.push(
            Time::from_secs(2),
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::ZERO,
            },
        );
        // An unbounded pid still rejects the zero rework.
        let unbounded = s.validate_for(4, u32::MAX);
        assert_eq!(unbounded.len(), 1, "{unbounded:?}");
        let problems = s.validate_for(4, 8);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("node 8"));
        assert!(s.validate_for(4, 9).len() == 1);
    }
}
