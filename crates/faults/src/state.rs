//! Compiled runtime fault state.
//!
//! [`FaultState`] is the query-optimised form of a [`FaultSchedule`]:
//! per-I/O-node window sets plus a global link timeline, built once
//! before the run starts. Everything is precomputed from declarative
//! data — no RNG draws happen at query time — so two runs over the
//! same schedule see byte-identical disturbances regardless of what
//! else the simulation does.

use crate::schedule::{FaultKind, FaultSchedule};
use sioscope_machine::DiskDisturbance;
use sioscope_sim::{PiecewiseFactor, Time};

/// Per-node and global fault windows, ready for instant queries.
#[derive(Debug, Clone)]
pub struct FaultState {
    io_nodes: u32,
    /// Per-ion crash windows `[start, end)` — the node serves nothing.
    down: Vec<Vec<(Time, Time)>>,
    /// Per-ion degraded-array windows (`Time::MAX` end = never rebuilt).
    degraded: Vec<Vec<(Time, Time)>>,
    /// Per-ion latent-sector windows with their per-request penalty.
    latent: Vec<Vec<(Time, Time, Time)>>,
    /// Per-ion service-time slowdown timelines.
    slow: Vec<PiecewiseFactor>,
    /// Global wire-time congestion timeline.
    link: PiecewiseFactor,
    /// Sorted, deduplicated instants at which any window opens or
    /// closes — the fault calendar the simulator interleaves with its
    /// event calendar.
    transitions: Vec<Time>,
}

impl FaultState {
    /// Compile a schedule against a machine with `io_nodes` I/O nodes.
    /// Events targeting out-of-range nodes are dropped (callers are
    /// expected to have run [`FaultSchedule::validate_for`] first).
    pub fn new(schedule: &FaultSchedule, io_nodes: u32) -> Self {
        let n = io_nodes as usize;
        let mut state = FaultState {
            io_nodes,
            down: vec![Vec::new(); n],
            degraded: vec![Vec::new(); n],
            latent: vec![Vec::new(); n],
            slow: vec![PiecewiseFactor::identity(); n],
            link: PiecewiseFactor::identity(),
            transitions: Vec::new(),
        };
        for ev in &schedule.events {
            if ev.kind.ion().is_some_and(|ion| ion >= io_nodes) {
                continue;
            }
            match ev.kind {
                FaultKind::LatentSector {
                    ion,
                    duration,
                    penalty,
                } => {
                    let end = ev.at.saturating_add(duration);
                    state.latent[ion as usize].push((ev.at, end, penalty));
                }
                FaultKind::SpindleFailure { ion, rebuild } => {
                    let end = match rebuild {
                        Some(r) => ev.at.saturating_add(r),
                        None => Time::MAX,
                    };
                    state.degraded[ion as usize].push((ev.at, end));
                }
                FaultKind::IonCrash { ion, restart } => {
                    let end = ev.at.saturating_add(restart);
                    state.down[ion as usize].push((ev.at, end));
                }
                FaultKind::IonSlowdown {
                    ion,
                    duration,
                    factor,
                } => {
                    state.slow[ion as usize].push_window(
                        ev.at,
                        ev.at.saturating_add(duration),
                        factor,
                    );
                }
                FaultKind::LinkCongestion { duration, factor } => {
                    state
                        .link
                        .push_window(ev.at, ev.at.saturating_add(duration), factor);
                }
                // The PFS never observes a compute crash, so schedules
                // that only add compute crashes leave the I/O-side
                // simulation byte-identical; the recovery driver takes
                // them straight from the schedule. Object-, burst-, and
                // stream-tier faults are invisible to the PFS;
                // validation rejects them on this tier, and the
                // compiled forms live in [`ObjectFaultState`],
                // [`BurstFaultState`], and the stream driver's stall
                // calendar.
                FaultKind::ComputeNodeCrash { .. }
                | FaultKind::MetadataShardOutage { .. }
                | FaultKind::DegradedService { .. }
                | FaultKind::DrainStall { .. }
                | FaultKind::BurstNodeCrash { .. }
                | FaultKind::ConsumerCrash { .. } => {}
            }
        }
        state.collect_transitions();
        state
    }

    fn collect_transitions(&mut self) {
        let mut ts = Vec::new();
        let mut push = |t: Time| {
            if t != Time::MAX {
                ts.push(t);
            }
        };
        for windows in self.down.iter().chain(self.degraded.iter()) {
            for &(start, end) in windows {
                push(start);
                push(end);
            }
        }
        for windows in &self.latent {
            for &(start, end, _) in windows {
                push(start);
                push(end);
            }
        }
        for tl in &self.slow {
            for t in tl.transitions() {
                push(t);
            }
        }
        for t in self.link.transitions() {
            push(t);
        }
        ts.sort_unstable();
        ts.dedup();
        self.transitions = ts;
    }

    /// The disk-model disturbance in force on `ion` at instant `t`.
    pub fn disk_disturbance(&self, ion: u32, t: Time) -> DiskDisturbance {
        let Some(i) = self.index(ion) else {
            return DiskDisturbance::NONE;
        };
        let degraded = self.degraded[i].iter().any(|&(s, e)| t >= s && t < e);
        let latent_penalty = self.latent[i]
            .iter()
            .filter(|&&(s, e, _)| t >= s && t < e)
            .fold(Time::ZERO, |acc, &(_, _, p)| acc.saturating_add(p));
        DiskDisturbance {
            degraded,
            slow_factor: self.slow[i].at(t),
            latent_penalty,
        }
    }

    /// `true` iff `ion` is crashed at instant `t`.
    pub fn is_down(&self, ion: u32, t: Time) -> bool {
        self.down_until(ion, t).is_some()
    }

    /// If `ion` is crashed at `t`, the instant it comes back up
    /// (latest end among covering crash windows).
    pub fn down_until(&self, ion: u32, t: Time) -> Option<Time> {
        let i = self.index(ion)?;
        self.down[i]
            .iter()
            .filter(|&&(s, e)| t >= s && t < e)
            .map(|&(_, e)| e)
            .max()
    }

    /// The wire-time congestion factor at instant `t`.
    pub fn link_factor(&self, t: Time) -> f64 {
        self.link.at(t)
    }

    /// The lowest-numbered I/O node that is up at `t` and differs from
    /// `not` — the deterministic re-route target for requests fleeing
    /// a crashed node. `None` when every other node is also down.
    pub fn first_healthy_ion(&self, t: Time, not: u32) -> Option<u32> {
        (0..self.io_nodes).find(|&ion| ion != not && !self.is_down(ion, t))
    }

    /// Instants at which any fault window opens or closes, sorted and
    /// deduplicated.
    pub fn transitions(&self) -> &[Time] {
        &self.transitions
    }

    fn index(&self, ion: u32) -> Option<usize> {
        (ion < self.io_nodes).then_some(ion as usize)
    }
}

/// Compiled runtime form of an *object-tier* fault schedule:
/// per-metadata-shard outage windows plus a global degraded-service
/// timeline. Built once before the run; query-only afterwards, so two
/// runs over the same schedule see byte-identical disturbances.
#[derive(Debug, Clone)]
pub struct ObjectFaultState {
    md_shards: u32,
    /// Per-shard outage windows `[start, end)` — the shard answers
    /// nothing.
    down: Vec<Vec<(Time, Time)>>,
    /// Global PUT/GET service-latency timeline.
    degraded: PiecewiseFactor,
    /// Sorted, deduplicated window boundaries (the fault calendar).
    transitions: Vec<Time>,
}

impl ObjectFaultState {
    /// Compile a schedule against a store with `md_shards` metadata
    /// shards. Events targeting out-of-range shards are dropped
    /// (callers run [`FaultSchedule::validate_for_tier`] first).
    pub fn new(schedule: &FaultSchedule, md_shards: u32) -> Self {
        let mut state = ObjectFaultState {
            md_shards,
            down: vec![Vec::new(); md_shards as usize],
            degraded: PiecewiseFactor::identity(),
            transitions: Vec::new(),
        };
        for ev in &schedule.events {
            match ev.kind {
                FaultKind::MetadataShardOutage { shard, duration } if shard < md_shards => {
                    state.down[shard as usize].push((ev.at, ev.at.saturating_add(duration)));
                }
                FaultKind::DegradedService { duration, factor } => {
                    state
                        .degraded
                        .push_window(ev.at, ev.at.saturating_add(duration), factor);
                }
                _ => {}
            }
        }
        let mut ts = Vec::new();
        let mut push = |t: Time| {
            if t != Time::MAX {
                ts.push(t);
            }
        };
        for windows in &state.down {
            for &(start, end) in windows {
                push(start);
                push(end);
            }
        }
        for t in state.degraded.transitions() {
            push(t);
        }
        ts.sort_unstable();
        ts.dedup();
        state.transitions = ts;
        state
    }

    /// If `shard` is dark at `t`, the instant it comes back (latest
    /// end among covering outage windows).
    pub fn shard_down_until(&self, shard: u32, t: Time) -> Option<Time> {
        let windows = self.down.get(shard as usize)?;
        windows
            .iter()
            .filter(|&&(s, e)| t >= s && t < e)
            .map(|&(_, e)| e)
            .max()
    }

    /// `true` iff `shard` is dark at instant `t`.
    pub fn is_shard_down(&self, shard: u32, t: Time) -> bool {
        self.shard_down_until(shard, t).is_some()
    }

    /// The deterministic replica re-route target: the lowest-numbered
    /// shard that is up at `t` and differs from `not`. `None` when the
    /// whole metadata service is dark.
    pub fn first_healthy_shard(&self, t: Time, not: u32) -> Option<u32> {
        (0..self.md_shards).find(|&s| s != not && !self.is_shard_down(s, t))
    }

    /// The PUT/GET service-latency factor at instant `t`.
    pub fn service_factor(&self, t: Time) -> f64 {
        self.degraded.at(t)
    }

    /// Instants at which any window opens or closes, sorted and
    /// deduplicated.
    pub fn transitions(&self) -> &[Time] {
        &self.transitions
    }
}

/// Compiled runtime form of a *burst-tier* fault schedule: merged
/// drain-stall windows plus burst-node crash windows `(at, repaired)`.
#[derive(Debug, Clone)]
pub struct BurstFaultState {
    /// Drain-stall windows, sorted by start, overlaps merged — so a
    /// forward scan clears them in one pass.
    stalls: Vec<(Time, Time)>,
    /// Burst-node crashes as `[at, repaired)` windows, sorted.
    crashes: Vec<(Time, Time)>,
    /// Sorted, deduplicated window boundaries (the fault calendar).
    transitions: Vec<Time>,
}

impl BurstFaultState {
    /// Compile a burst-tier schedule. No node bound: the log is one
    /// host-side device.
    pub fn new(schedule: &FaultSchedule) -> Self {
        let mut stalls = Vec::new();
        let mut crashes = Vec::new();
        for ev in &schedule.events {
            match ev.kind {
                FaultKind::DrainStall { duration } => {
                    stalls.push((ev.at, ev.at.saturating_add(duration)));
                }
                FaultKind::BurstNodeCrash { repair } => {
                    crashes.push((ev.at, ev.at.saturating_add(repair)));
                }
                _ => {}
            }
        }
        stalls.sort_unstable();
        let mut merged: Vec<(Time, Time)> = Vec::with_capacity(stalls.len());
        for (s, e) in stalls {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        crashes.sort_unstable();
        let mut ts = Vec::new();
        for &(start, end) in merged.iter().chain(crashes.iter()) {
            if start != Time::MAX {
                ts.push(start);
            }
            if end != Time::MAX {
                ts.push(end);
            }
        }
        ts.sort_unstable();
        ts.dedup();
        BurstFaultState {
            stalls: merged,
            crashes,
            transitions: ts,
        }
    }

    /// The earliest instant `>= t` at which the drain channel makes
    /// progress: pushes `t` past every covering stall window. Merged
    /// windows have strictly positive gaps, so clearing one window
    /// never lands inside the next.
    pub fn drain_clear(&self, t: Time) -> Time {
        let mut t = t;
        let mut i = self.stalls.partition_point(|&(_, e)| e <= t);
        while i < self.stalls.len() && self.stalls[i].0 <= t {
            t = self.stalls[i].1;
            i += 1;
        }
        t
    }

    /// Burst-node crashes as `[at, repaired)` windows, sorted.
    pub fn crashes(&self) -> &[(Time, Time)] {
        &self.crashes
    }

    /// If the log node is down (crashed, not yet repaired) at `t`,
    /// the repair instant — the window in which writes fall through
    /// to the inner PFS.
    pub fn log_down_until(&self, t: Time) -> Option<Time> {
        self.crashes
            .iter()
            .filter(|&&(s, e)| t >= s && t < e)
            .map(|&(_, e)| e)
            .max()
    }

    /// Instants at which any window opens or closes, sorted and
    /// deduplicated.
    pub fn transitions(&self) -> &[Time] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultEvent;

    fn sec(s: u64) -> Time {
        Time::from_secs(s)
    }

    fn state(events: Vec<FaultEvent>) -> FaultState {
        FaultState::new(
            &FaultSchedule {
                events,
                engage_when_empty: false,
            },
            4,
        )
    }

    #[test]
    fn empty_schedule_disturbs_nothing() {
        let s = state(vec![]);
        for ion in 0..4 {
            assert_eq!(s.disk_disturbance(ion, sec(5)), DiskDisturbance::NONE);
            assert!(!s.is_down(ion, sec(5)));
        }
        assert_eq!(s.link_factor(sec(5)), 1.0);
        assert!(s.transitions().is_empty());
    }

    #[test]
    fn crash_window_reports_restart_instant() {
        let s = state(vec![FaultEvent {
            at: sec(10),
            kind: FaultKind::IonCrash {
                ion: 2,
                restart: sec(5),
            },
        }]);
        assert!(!s.is_down(2, sec(9)));
        assert_eq!(s.down_until(2, sec(10)), Some(sec(15)));
        assert_eq!(s.down_until(2, sec(14)), Some(sec(15)));
        assert!(!s.is_down(2, sec(15)));
        assert!(!s.is_down(1, sec(12)));
        assert_eq!(s.first_healthy_ion(sec(12), 2), Some(0));
        assert_eq!(s.transitions(), &[sec(10), sec(15)]);
    }

    #[test]
    fn permanent_spindle_failure_never_ends() {
        let s = state(vec![FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::SpindleFailure {
                ion: 0,
                rebuild: None,
            },
        }]);
        assert!(s.disk_disturbance(0, Time::ZERO).degraded);
        assert!(s.disk_disturbance(0, Time::from_secs(1_000_000)).degraded);
        assert!(!s.disk_disturbance(1, sec(1)).degraded);
        // MAX never shows up as a transition instant.
        assert_eq!(s.transitions(), &[Time::ZERO]);
    }

    #[test]
    fn rebuild_restores_the_array() {
        let s = state(vec![FaultEvent {
            at: sec(2),
            kind: FaultKind::SpindleFailure {
                ion: 1,
                rebuild: Some(sec(6)),
            },
        }]);
        assert!(!s.disk_disturbance(1, sec(1)).degraded);
        assert!(s.disk_disturbance(1, sec(4)).degraded);
        assert!(!s.disk_disturbance(1, sec(8)).degraded);
    }

    #[test]
    fn latent_penalties_accumulate_and_slowdowns_compose() {
        let s = state(vec![
            FaultEvent {
                at: sec(0),
                kind: FaultKind::LatentSector {
                    ion: 3,
                    duration: sec(10),
                    penalty: Time::from_millis(200),
                },
            },
            FaultEvent {
                at: sec(5),
                kind: FaultKind::LatentSector {
                    ion: 3,
                    duration: sec(10),
                    penalty: Time::from_millis(300),
                },
            },
            FaultEvent {
                at: sec(0),
                kind: FaultKind::IonSlowdown {
                    ion: 3,
                    duration: sec(20),
                    factor: 2.0,
                },
            },
        ]);
        let early = s.disk_disturbance(3, sec(2));
        assert_eq!(early.latent_penalty, Time::from_millis(200));
        assert_eq!(early.slow_factor, 2.0);
        let overlap = s.disk_disturbance(3, sec(7));
        assert_eq!(overlap.latent_penalty, Time::from_millis(500));
        let late = s.disk_disturbance(3, sec(16));
        assert_eq!(late.latent_penalty, Time::ZERO);
        assert_eq!(late.slow_factor, 2.0);
    }

    #[test]
    fn link_congestion_is_global() {
        let s = state(vec![FaultEvent {
            at: sec(1),
            kind: FaultKind::LinkCongestion {
                duration: sec(2),
                factor: 3.0,
            },
        }]);
        assert_eq!(s.link_factor(sec(0)), 1.0);
        assert_eq!(s.link_factor(sec(2)), 3.0);
        assert_eq!(s.link_factor(sec(3)), 1.0);
    }

    #[test]
    fn all_nodes_down_means_no_reroute_target() {
        let s = FaultState::new(
            &FaultSchedule {
                events: (0..2)
                    .map(|ion| FaultEvent {
                        at: Time::ZERO,
                        kind: FaultKind::IonCrash {
                            ion,
                            restart: sec(10),
                        },
                    })
                    .collect(),
                engage_when_empty: false,
            },
            2,
        );
        assert_eq!(s.first_healthy_ion(sec(5), 0), None);
        assert_eq!(s.first_healthy_ion(sec(11), 0), Some(1));
    }

    #[test]
    fn compute_crashes_are_invisible_to_pfs() {
        let s = state(vec![
            FaultEvent {
                at: sec(30),
                kind: FaultKind::ComputeNodeCrash {
                    node: 5,
                    rework: sec(2),
                },
            },
            FaultEvent {
                at: sec(10),
                kind: FaultKind::ComputeNodeCrash {
                    node: 1,
                    rework: sec(3),
                },
            },
        ]);
        // The PFS-facing view is untouched: no transitions, no windows.
        assert!(s.transitions().is_empty());
        assert!(!s.is_down(1, sec(11)));
        assert_eq!(s.disk_disturbance(1, sec(11)), DiskDisturbance::NONE);
    }

    #[test]
    fn out_of_range_targets_are_dropped() {
        let s = state(vec![FaultEvent {
            at: sec(1),
            kind: FaultKind::IonCrash {
                ion: 99,
                restart: sec(5),
            },
        }]);
        assert!(s.transitions().is_empty());
        assert!(!s.is_down(99, sec(2)));
        assert_eq!(s.disk_disturbance(99, sec(2)), DiskDisturbance::NONE);
    }

    fn object_state(events: Vec<FaultEvent>) -> ObjectFaultState {
        ObjectFaultState::new(
            &FaultSchedule {
                events,
                engage_when_empty: false,
            },
            4,
        )
    }

    #[test]
    fn object_state_compiles_shard_outages_and_degraded_windows() {
        let s = object_state(vec![
            FaultEvent {
                at: sec(10),
                kind: FaultKind::MetadataShardOutage {
                    shard: 1,
                    duration: sec(5),
                },
            },
            FaultEvent {
                at: sec(20),
                kind: FaultKind::DegradedService {
                    duration: sec(10),
                    factor: 3.0,
                },
            },
        ]);
        assert!(!s.is_shard_down(1, sec(9)));
        assert_eq!(s.shard_down_until(1, sec(10)), Some(sec(15)));
        assert_eq!(s.shard_down_until(1, sec(14)), Some(sec(15)));
        assert!(!s.is_shard_down(1, sec(15)));
        assert!(!s.is_shard_down(0, sec(12)));
        assert_eq!(s.first_healthy_shard(sec(12), 1), Some(0));
        assert_eq!(s.service_factor(sec(19)), 1.0);
        assert_eq!(s.service_factor(sec(25)), 3.0);
        assert_eq!(s.service_factor(sec(30)), 1.0);
        assert_eq!(s.transitions(), &[sec(10), sec(15), sec(20), sec(30)]);
        // PFS-tier events never reach the object state.
        let t = object_state(vec![FaultEvent {
            at: sec(1),
            kind: FaultKind::IonCrash {
                ion: 0,
                restart: sec(5),
            },
        }]);
        assert!(t.transitions().is_empty());
    }

    #[test]
    fn object_state_drops_out_of_range_shards_and_ignores_crashes() {
        let s = object_state(vec![
            FaultEvent {
                at: sec(1),
                kind: FaultKind::MetadataShardOutage {
                    shard: 99,
                    duration: sec(5),
                },
            },
            FaultEvent {
                at: sec(9),
                kind: FaultKind::ComputeNodeCrash {
                    node: 2,
                    rework: sec(1),
                },
            },
            FaultEvent {
                at: sec(3),
                kind: FaultKind::ComputeNodeCrash {
                    node: 0,
                    rework: sec(1),
                },
            },
        ]);
        // Out-of-range shard dropped; compute crashes kept out of the
        // transition calendar.
        assert!(s.transitions().is_empty());
        // Every shard dark => no re-route target.
        let dark = object_state(
            (0..4)
                .map(|shard| FaultEvent {
                    at: Time::ZERO,
                    kind: FaultKind::MetadataShardOutage {
                        shard,
                        duration: sec(10),
                    },
                })
                .collect(),
        );
        assert_eq!(dark.first_healthy_shard(sec(5), 0), None);
        assert_eq!(dark.first_healthy_shard(sec(10), 0), Some(1));
    }

    fn burst_state(events: Vec<FaultEvent>) -> BurstFaultState {
        BurstFaultState::new(&FaultSchedule {
            events,
            engage_when_empty: false,
        })
    }

    #[test]
    fn burst_state_merges_stalls_and_clears_forward() {
        let s = burst_state(vec![
            FaultEvent {
                at: sec(10),
                kind: FaultKind::DrainStall { duration: sec(5) },
            },
            FaultEvent {
                at: sec(12),
                kind: FaultKind::DrainStall { duration: sec(8) },
            },
            FaultEvent {
                at: sec(30),
                kind: FaultKind::DrainStall { duration: sec(2) },
            },
        ]);
        // Overlapping [10,15) and [12,20) merge into [10,20).
        assert_eq!(s.drain_clear(sec(5)), sec(5));
        assert_eq!(s.drain_clear(sec(10)), sec(20));
        assert_eq!(s.drain_clear(sec(19)), sec(20));
        assert_eq!(s.drain_clear(sec(20)), sec(20));
        assert_eq!(s.drain_clear(sec(31)), sec(32));
        assert_eq!(s.transitions(), &[sec(10), sec(20), sec(30), sec(32)]);
    }

    #[test]
    fn burst_state_reports_crash_windows() {
        let s = burst_state(vec![FaultEvent {
            at: sec(40),
            kind: FaultKind::BurstNodeCrash { repair: sec(6) },
        }]);
        assert_eq!(s.crashes(), &[(sec(40), sec(46))]);
        assert_eq!(s.log_down_until(sec(39)), None);
        assert_eq!(s.log_down_until(sec(40)), Some(sec(46)));
        assert_eq!(s.log_down_until(sec(45)), Some(sec(46)));
        assert_eq!(s.log_down_until(sec(46)), None);
        assert_eq!(s.transitions(), &[sec(40), sec(46)]);
        assert_eq!(s.drain_clear(sec(41)), sec(41));
    }
}
