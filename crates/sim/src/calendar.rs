//! Calendar resources.
//!
//! A [`Calendar`] models a serially-reusable resource (a disk arm, a
//! file's atomicity token, a metadata server) analytically: a request
//! arriving at time `t` with service demand `s` is granted the interval
//! `[max(t, free_at), max(t, free_at) + s)`, and `free_at` advances.
//! Queueing delay therefore *emerges* from overlapping reservations
//! without the kernel having to block and re-dispatch processes.
//!
//! This is the standard analytic treatment used by I/O subsystem
//! simulators; it is exact for FIFO single-server resources, which is
//! what the Paragon's per-I/O-node RAID-3 controllers and the PFS
//! per-file atomicity token are.

use crate::time::Time;

/// The granted interval for one request on a calendar resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When service begins (>= arrival).
    pub start: Time,
    /// When service completes.
    pub finish: Time,
}

impl Reservation {
    /// Queueing delay experienced before service began.
    pub fn wait(&self, arrival: Time) -> Time {
        self.start.saturating_sub(arrival)
    }
}

/// A single FIFO serially-reusable resource.
///
/// ```
/// use sioscope_sim::{Calendar, Time};
///
/// let mut disk = Calendar::new();
/// let first = disk.reserve(Time::ZERO, Time::from_millis(10));
/// let second = disk.reserve(Time::from_millis(2), Time::from_millis(5));
/// // The second request queues behind the first.
/// assert_eq!(second.start, first.finish);
/// assert_eq!(second.wait(Time::from_millis(2)), Time::from_millis(8));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Calendar {
    free_at: Time,
    busy: Time,
}

impl Calendar {
    /// A calendar that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `service` time for a request arriving at `arrival`.
    pub fn reserve(&mut self, arrival: Time, service: Time) -> Reservation {
        let start = arrival.max(self.free_at);
        let finish = start + service;
        self.free_at = finish;
        self.busy += service;
        Reservation { start, finish }
    }

    /// Earliest instant a new arrival would begin service.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Utilization over `[0, horizon]`, in `[0, 1]`.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }
}

/// A pool of identical calendar resources indexed densely (e.g. the
/// sixteen I/O nodes of the Caltech Paragon).
#[derive(Debug, Clone)]
pub struct CalendarPool {
    members: Vec<Calendar>,
}

impl CalendarPool {
    /// `n` initially-free calendars.
    pub fn new(n: usize) -> Self {
        CalendarPool {
            members: vec![Calendar::new(); n],
        }
    }

    /// Number of member resources.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Reserve on member `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn reserve(&mut self, idx: usize, arrival: Time, service: Time) -> Reservation {
        self.members[idx].reserve(arrival, service)
    }

    /// Immutable view of a member.
    pub fn get(&self, idx: usize) -> Option<&Calendar> {
        self.members.get(idx)
    }

    /// Aggregate busy time across all members.
    pub fn total_busy(&self) -> Time {
        self.members.iter().map(|c| c.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut c = Calendar::new();
        let r = c.reserve(Time::from_secs(5), Time::from_secs(2));
        assert_eq!(r.start, Time::from_secs(5));
        assert_eq!(r.finish, Time::from_secs(7));
        assert_eq!(r.wait(Time::from_secs(5)), Time::ZERO);
    }

    #[test]
    fn overlapping_requests_queue_fifo() {
        let mut c = Calendar::new();
        let r1 = c.reserve(Time::from_secs(0), Time::from_secs(10));
        let r2 = c.reserve(Time::from_secs(1), Time::from_secs(3));
        assert_eq!(r1.finish, Time::from_secs(10));
        assert_eq!(r2.start, Time::from_secs(10));
        assert_eq!(r2.finish, Time::from_secs(13));
        assert_eq!(r2.wait(Time::from_secs(1)), Time::from_secs(9));
    }

    #[test]
    fn gap_between_requests_leaves_idle_time() {
        let mut c = Calendar::new();
        c.reserve(Time::from_secs(0), Time::from_secs(1));
        let r = c.reserve(Time::from_secs(10), Time::from_secs(1));
        assert_eq!(r.start, Time::from_secs(10));
        assert_eq!(c.busy_time(), Time::from_secs(2));
        assert!((c.utilization(Time::from_secs(11)) - 2.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn reserve_on_pool_member() {
        let mut p = CalendarPool::new(2);
        let r = p.reserve(1, Time::from_secs(1), Time::from_secs(4));
        assert_eq!(r.start, Time::from_secs(1));
        assert_eq!(r.finish, Time::from_secs(5));
        assert_eq!(p.total_busy(), Time::from_secs(4));
        assert_eq!(p.get(0).unwrap().busy_time(), Time::ZERO);
    }

    #[test]
    fn utilization_zero_horizon() {
        let c = Calendar::new();
        assert_eq!(c.utilization(Time::ZERO), 0.0);
    }

    #[test]
    fn pool_members_are_independent() {
        let mut p = CalendarPool::new(2);
        let r0 = p.reserve(0, Time::ZERO, Time::from_secs(5));
        let r1 = p.reserve(1, Time::ZERO, Time::from_secs(3));
        assert_eq!(r0.start, Time::ZERO);
        assert_eq!(r1.start, Time::ZERO);
        assert_eq!(p.total_busy(), Time::from_secs(8));
        assert_eq!(p.get(0).unwrap().free_at(), Time::from_secs(5));
        assert_eq!(p.get(1).unwrap().free_at(), Time::from_secs(3));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic]
    fn pool_out_of_range_panics() {
        let mut p = CalendarPool::new(1);
        p.reserve(3, Time::ZERO, Time::ZERO);
    }
}
