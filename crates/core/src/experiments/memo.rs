//! The single-flight memo that shares deterministic runs within a
//! process: the ESCAT and PRISM experiments' canonical runs, and the
//! campaign's fault-free tier runs (`canon::workload_run`).
//!
//! Each key owns a [`OnceLock`], so the first caller of a key runs
//! while every concurrent caller of the same key waits for that one
//! result: a key is run once however many threads miss on it together.
//! If the run panics, the slot stays empty and the next caller of the
//! key runs it again.
//!
//! A canonical run is memoized as a `RunResult<TraceIndex>`: its
//! scalars and its trace's index, with the raw events dropped once the
//! index is built.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// Memoized values, one slot per key. A list, not a map: each memo has
/// a handful of keys, and a `Vec` lets the memo be a plain `static`.
pub(crate) struct RunMemo<K, V> {
    slots: Mutex<Vec<(K, Slot<V>)>>,
}

impl<K: Copy + PartialEq, V> RunMemo<K, V> {
    pub(crate) const fn new() -> Self {
        RunMemo {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn slots(&self) -> MutexGuard<'_, Vec<(K, Slot<V>)>> {
        // Every update is one push or a clear, so a panic elsewhere
        // cannot leave the list half-written.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value memoized under `key`, computed by `run` on a miss.
    pub(crate) fn get_or_run(&self, key: K, run: impl FnOnce() -> V) -> Arc<V> {
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
        Arc::clone(slot.get_or_init(|| Arc::new(run())))
    }

    /// Forget every memoized value.
    pub(crate) fn clear(&self) {
        self.slots().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::RunMemo;
    use crate::experiments::{escat, prism, Scale};
    use crate::simulator::{run, RunResult, SimOptions};
    use sioscope_faults::FaultSchedule;
    use sioscope_pfs::{PfsConfig, PolicyConfig};
    use sioscope_trace::TraceIndex;
    use sioscope_workloads::{
        CheckpointPolicy, EscatConfig, EscatDataset, EscatVersion, PrismConfig, PrismVersion,
        Workload,
    };
    use std::panic::{catch_unwind, AssertUnwindSafe};
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

    #[test]
    fn a_panicking_run_leaves_its_key_to_the_next_caller() {
        let memo = RunMemo::<u8, u64>::new();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_run(1, || panic!("the run failed"))
        }));
        assert!(panicked.is_err());
        assert_eq!(*memo.get_or_run(1, || 5), 5, "the next caller runs");
        assert_eq!(*memo.get_or_run(1, || 6), 5, "and its value stays");
        memo.clear();
        assert_eq!(*memo.get_or_run(1, || 6), 6, "until the memo is cleared");
    }

    /// The experiments take these memo runs in place of runs they used
    /// to simulate themselves, on the measured-PFS policy with an empty
    /// fault schedule (recovery: the no-checkpoint workload). Each must
    /// be the same run, bit for bit: the same scalars, and an index
    /// that gives back the fresh run's trace event by event.
    #[test]
    fn memo_runs_are_the_runs_the_experiments_replaced() {
        let fresh = |w: &Workload| {
            let mut pfs = PfsConfig::caltech(w.nodes, w.os);
            pfs.policy = PolicyConfig::measured_pfs();
            pfs.faults = FaultSchedule::empty();
            run(w, pfs, SimOptions::default()).expect("fresh run")
        };
        let same = |memo: &RunResult<TraceIndex>, fresh: RunResult, what: &str| {
            assert_eq!(memo.exec_time, fresh.exec_time, "{what}");
            assert_eq!(memo.node_finish, fresh.node_finish, "{what}");
            assert_eq!(memo.events, fresh.events, "{what}");
            assert_eq!(memo.resilience, fresh.resilience, "{what}");
            assert_eq!(memo.fault_transitions, fresh.fault_transitions, "{what}");
            assert_eq!(memo.trace.len(), fresh.trace.len(), "{what}");
            for (i, (m, f)) in memo.trace.iter().zip(fresh.trace.events()).enumerate() {
                assert_eq!(m, *f, "{what}: event {i}");
            }
        };
        let escat_memo = |v| escat::run_version(v, EscatDataset::Ethylene, Scale::Smoke);
        let prism_memo = |v| prism::run_version(v, Scale::Smoke);
        for v in [EscatVersion::A, EscatVersion::B, EscatVersion::C] {
            let what = format!("ESCAT {v:?}");
            same(&escat_memo(v), fresh(&EscatConfig::tiny(v).build()), &what);
        }
        for v in [PrismVersion::B, PrismVersion::C] {
            let what = format!("PRISM {v:?}");
            same(&prism_memo(v), fresh(&PrismConfig::tiny(v).build()), &what);
        }
        let plain = EscatConfig::tiny(EscatVersion::C).recoverable(CheckpointPolicy::None);
        same(
            &escat_memo(EscatVersion::C),
            fresh(plain.workload()),
            "ESCAT C, no checkpoints",
        );
        let plain = PrismConfig::tiny(PrismVersion::B).recoverable(CheckpointPolicy::None);
        same(
            &prism_memo(PrismVersion::B),
            fresh(plain.workload()),
            "PRISM B, no checkpoints",
        );
    }
}
