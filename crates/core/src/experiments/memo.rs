//! The memo the ESCAT and PRISM experiments share their canonical runs
//! through.
//!
//! Each key owns a [`OnceLock`], so the first caller of a key
//! simulates while every concurrent caller of the same key waits for
//! that one result: a key is simulated once however many threads miss
//! on it together.

use crate::simulator::RunResult;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

type Slot = Arc<OnceLock<Arc<RunResult>>>;

/// Memoized runs, one slot per key. A list, not a map: the registry has
/// a handful of keys, and a `Vec` lets the memo be a plain `static`.
pub(crate) struct RunMemo<K> {
    slots: Mutex<Vec<(K, Slot)>>,
}

impl<K: Copy + PartialEq> RunMemo<K> {
    pub(crate) const fn new() -> Self {
        RunMemo {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn slots(&self) -> MutexGuard<'_, Vec<(K, Slot)>> {
        // Every update is one push or a clear, so a panic elsewhere
        // cannot leave the list half-written.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The run memoized under `key`, simulated by `run` on a miss. The
    /// result's trace index is built before any caller sees it, so
    /// every figure and table renderer queries the same index. Its
    /// sort-based views (sorted sizes, completion order, file regions)
    /// wait for the first renderer that asks, behind the index's own
    /// `OnceLock`s, and then serve every later one.
    pub(crate) fn get_or_run(&self, key: K, run: impl FnOnce() -> RunResult) -> Arc<RunResult> {
        let slot = {
            let mut slots = self.slots();
            match slots.iter().find(|(k, _)| *k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.push((key, Arc::clone(&slot)));
                    slot
                }
            }
        };
        // Outside the slots lock, so other keys fill side by side.
        Arc::clone(slot.get_or_init(|| {
            let result = Arc::new(run());
            result.trace.index();
            result
        }))
    }

    /// Forget every memoized run.
    pub(crate) fn clear(&self) {
        self.slots().clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::chaos::fingerprint;
    use crate::experiments::{escat, prism, Scale};
    use crate::simulator::{run, SimOptions};
    use sioscope_faults::FaultSchedule;
    use sioscope_pfs::{PfsConfig, PolicyConfig};
    use sioscope_workloads::{
        CheckpointPolicy, EscatConfig, EscatDataset, EscatVersion, PrismConfig, PrismVersion,
        Workload,
    };
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn concurrent_misses_on_one_key_share_one_run() {
        // A key no other test fills, so every thread misses together.
        const THREADS: usize = 4;
        let start = Barrier::new(THREADS);
        let runs: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        escat::run_version(
                            EscatVersion::B,
                            EscatDataset::CarbonMonoxide,
                            Scale::Smoke,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("run_version"))
                .collect()
        });
        assert!(runs.iter().all(|r| Arc::ptr_eq(r, &runs[0])));
    }

    /// The experiments take these memo runs in place of runs they used
    /// to simulate themselves, on the measured-PFS policy with an empty
    /// fault schedule (recovery: the no-checkpoint workload). Each must
    /// be the same run, bit for bit.
    #[test]
    fn memo_runs_are_the_runs_the_experiments_replaced() {
        let fresh = |w: &Workload| {
            let mut pfs = PfsConfig::caltech(w.nodes, w.os);
            pfs.policy = PolicyConfig::measured_pfs();
            pfs.faults = FaultSchedule::empty();
            fingerprint(&run(w, pfs, SimOptions::default()).expect("fresh run"))
        };
        let escat_memo =
            |v| fingerprint(&escat::run_version(v, EscatDataset::Ethylene, Scale::Smoke));
        let prism_memo = |v| fingerprint(&prism::run_version(v, Scale::Smoke));
        for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
            assert_eq!(
                escat_memo(v),
                fresh(&EscatConfig::tiny(v).build()),
                "ESCAT {v:?}"
            );
        }
        for v in [PrismVersion::B, PrismVersion::C] {
            assert_eq!(
                prism_memo(v),
                fresh(&PrismConfig::tiny(v).build()),
                "PRISM {v:?}"
            );
        }
        let plain = EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::None);
        assert_eq!(escat_memo(EscatVersion::C), fresh(plain.workload()));
        let plain = PrismConfig::tiny(PrismVersion::B).recoverable(CheckpointPolicy::None);
        assert_eq!(prism_memo(PrismVersion::B), fresh(plain.workload()));
    }
}
