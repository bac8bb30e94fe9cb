//! Mapping global pids back to the jobs that owned them.
//!
//! A scheduled (multi-tenant) run assigns every dispatched job attempt
//! a contiguous range of *global* pids, so one machine-wide trace
//! interleaves the I/O of many jobs. [`JobMap`] records those ranges
//! and lets the analytics layer answer "whose operation was this?" in
//! logarithmic time, mirroring how per-pid postings answer "which
//! node?".

use sioscope_sim::{JobId, Pid};

/// Half-open global-pid ranges, each owned by one job.
///
/// Ranges must be disjoint; a pid outside every range (e.g. one from a
/// crashed attempt whose events were discarded) maps to no job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMap {
    /// `(start, end, job)` triples sorted by `start`, pairwise
    /// disjoint.
    ranges: Vec<(u32, u32, JobId)>,
}

impl JobMap {
    /// An empty map (every pid unattributed).
    pub fn new() -> Self {
        JobMap::default()
    }

    /// Attribute global pids `[start, end)` to `job`.
    ///
    /// # Panics
    ///
    /// If the range is empty or overlaps an existing range.
    pub fn insert(&mut self, start: u32, end: u32, job: JobId) {
        assert!(start < end, "empty pid range for {job}");
        let at = self.ranges.partition_point(|r| r.0 < start);
        if let Some(prev) = at.checked_sub(1).map(|i| &self.ranges[i]) {
            assert!(prev.1 <= start, "pid range overlaps {}", prev.2);
        }
        if let Some(next) = self.ranges.get(at) {
            assert!(end <= next.0, "pid range overlaps {}", next.2);
        }
        self.ranges.insert(at, (start, end, job));
    }

    /// The job owning `pid`, if any.
    pub(crate) fn job_of(&self, pid: Pid) -> Option<JobId> {
        let at = self.ranges.partition_point(|r| r.1 <= pid.0);
        self.ranges.get(at).filter(|r| r.0 <= pid.0).map(|r| r.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_the_owning_range() {
        let mut m = JobMap::new();
        m.insert(0, 4, JobId(0));
        m.insert(10, 12, JobId(2));
        m.insert(4, 10, JobId(1));
        assert_eq!(m.job_of(Pid(0)), Some(JobId(0)));
        assert_eq!(m.job_of(Pid(3)), Some(JobId(0)));
        assert_eq!(m.job_of(Pid(4)), Some(JobId(1)));
        assert_eq!(m.job_of(Pid(11)), Some(JobId(2)));
        assert_eq!(m.job_of(Pid(12)), None);
        assert_eq!(m.ranges.len(), 3);
        assert_eq!(m.ranges[0], (0, 4, JobId(0)));
    }

    #[test]
    fn gaps_map_to_no_job() {
        let mut m = JobMap::new();
        m.insert(8, 16, JobId(1));
        assert_eq!(m.job_of(Pid(7)), None);
        assert_eq!(m.job_of(Pid(8)), Some(JobId(1)));
        assert_eq!(m.job_of(Pid(16)), None);
        assert!(JobMap::new().job_of(Pid(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_is_rejected() {
        let mut m = JobMap::new();
        m.insert(0, 8, JobId(0));
        m.insert(4, 6, JobId(1));
    }
}
