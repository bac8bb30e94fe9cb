//! Group rendezvous.
//!
//! PFS collective operations (`gopen`, `M_GLOBAL` reads, `M_RECORD`
//! node-ordered transfers, `M_SYNC` synchronized transfers) and the
//! applications' compute-phase barriers all share one mechanism: every
//! participant blocks until the whole group has arrived, then the
//! operation is costed once and completions are handed back to all
//! members.
//!
//! [`RendezvousTable`] tracks any number of concurrently-forming
//! groups, keyed by an opaque `u64` chosen by the caller (the PFS uses
//! `(file, generation)` pairs packed into the key; barriers use their
//! barrier id).

use crate::hash::DetHashMap;
use crate::ids::Pid;
use crate::time::Time;

/// Result of one participant arriving at a rendezvous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RendezvousOutcome {
    /// The group is still forming; the caller must block.
    Waiting,
    /// This arrival completed the group. `arrivals` lists every member
    /// (including the current one) with its arrival time, in arrival
    /// order; `release` is the latest arrival time, i.e. the instant
    /// the collective operation can begin.
    Complete {
        /// All `(pid, arrival_time)` pairs in arrival order.
        arrivals: Vec<(Pid, Time)>,
        /// When the last member arrived.
        release: Time,
    },
}

#[derive(Debug, Default)]
struct Group {
    expected: usize,
    arrivals: Vec<(Pid, Time)>,
}

/// Tracks concurrently-forming rendezvous groups.
#[derive(Debug, Default)]
pub struct RendezvousTable {
    groups: DetHashMap<u64, Group>,
}

impl RendezvousTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `pid` arrived at rendezvous `key` at time `now`,
    /// where the group completes once `expected` distinct arrivals have
    /// been seen.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero, if a forming group was created
    /// with a different `expected`, or if the same `pid` arrives twice
    /// at the same forming group — all three indicate a workload
    /// generation bug that must not be silently absorbed.
    pub fn arrive(&mut self, key: u64, pid: Pid, now: Time, expected: usize) -> RendezvousOutcome {
        assert!(
            expected > 0,
            "rendezvous group must expect at least one member"
        );
        let group = self.groups.entry(key).or_insert_with(|| Group {
            expected,
            arrivals: Vec::with_capacity(expected),
        });
        assert_eq!(
            group.expected, expected,
            "rendezvous {key}: group size disagreement"
        );
        assert!(
            !group.arrivals.iter().any(|&(p, _)| p == pid),
            "rendezvous {key}: {pid} arrived twice"
        );
        group.arrivals.push((pid, now));
        if group.arrivals.len() == group.expected {
            let group = self.groups.remove(&key).expect("group just inserted");
            let release = group
                .arrivals
                .iter()
                .map(|&(_, t)| t)
                .fold(Time::ZERO, Time::max);
            RendezvousOutcome::Complete {
                arrivals: group.arrivals,
                release,
            }
        } else {
            RendezvousOutcome::Waiting
        }
    }

    /// Number of groups currently forming (useful for deadlock checks:
    /// when the event queue drains this must be zero).
    pub fn forming(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_completes_immediately() {
        let mut t = RendezvousTable::new();
        match t.arrive(1, Pid(0), Time::from_secs(3), 1) {
            RendezvousOutcome::Complete { arrivals, release } => {
                assert_eq!(arrivals, vec![(Pid(0), Time::from_secs(3))]);
                assert_eq!(release, Time::from_secs(3));
            }
            RendezvousOutcome::Waiting => panic!("should complete"),
        }
        assert_eq!(t.forming(), 0);
    }

    #[test]
    fn group_releases_at_last_arrival() {
        let mut t = RendezvousTable::new();
        assert_eq!(
            t.arrive(7, Pid(0), Time::from_secs(1), 3),
            RendezvousOutcome::Waiting
        );
        assert_eq!(
            t.arrive(7, Pid(1), Time::from_secs(9), 3),
            RendezvousOutcome::Waiting
        );
        assert_eq!(t.forming(), 1);
        match t.arrive(7, Pid(2), Time::from_secs(4), 3) {
            RendezvousOutcome::Complete { arrivals, release } => {
                assert_eq!(release, Time::from_secs(9));
                assert_eq!(arrivals.len(), 3);
                // Arrival order preserved.
                assert_eq!(arrivals[0].0, Pid(0));
                assert_eq!(arrivals[1].0, Pid(1));
                assert_eq!(arrivals[2].0, Pid(2));
            }
            RendezvousOutcome::Waiting => panic!("should complete"),
        }
        assert_eq!(t.forming(), 0);
    }

    #[test]
    fn independent_keys_do_not_interfere() {
        let mut t = RendezvousTable::new();
        assert_eq!(
            t.arrive(1, Pid(0), Time::ZERO, 2),
            RendezvousOutcome::Waiting
        );
        assert_eq!(
            t.arrive(2, Pid(1), Time::ZERO, 2),
            RendezvousOutcome::Waiting
        );
        assert_eq!(t.forming(), 2);
        assert!(matches!(
            t.arrive(1, Pid(1), Time::ZERO, 2),
            RendezvousOutcome::Complete { .. }
        ));
        assert_eq!(t.forming(), 1);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut t = RendezvousTable::new();
        t.arrive(1, Pid(0), Time::ZERO, 2);
        t.arrive(1, Pid(0), Time::ZERO, 2);
    }

    #[test]
    #[should_panic(expected = "group size disagreement")]
    fn size_disagreement_panics() {
        let mut t = RendezvousTable::new();
        t.arrive(1, Pid(0), Time::ZERO, 2);
        t.arrive(1, Pid(1), Time::ZERO, 3);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_size_group_panics() {
        let mut t = RendezvousTable::new();
        t.arrive(1, Pid(0), Time::ZERO, 0);
    }
}
