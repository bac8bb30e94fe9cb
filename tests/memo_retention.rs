//! Heap-retention regression test: a memoized canonical run keeps its
//! trace index and not its raw trace.
//!
//! The test binary counts live heap bytes with its own global
//! allocator and holds a single test, so nothing else allocates while
//! it measures. It measures what a smoke-scale ESCAT run keeps alive
//! twice: memoized by `run_version`, and as the `RunResult` of the
//! same simulation kept beside its index. Dropping the raw trace saves
//! its whole size, less a few kilobytes of the memo's own structs, so
//! the memoized run must keep fewer bytes by at least half the raw
//! trace. If a copy of the trace comes back into the memo, this fails.

use sioscope::experiments::escat::run_version;
use sioscope::experiments::Scale;
use sioscope::simulator::{run, RunResult, SimOptions};
use sioscope_pfs::PfsConfig;
use sioscope_trace::{IoEvent, TraceIndex};
use sioscope_workloads::{EscatConfig, EscatDataset, EscatVersion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it has handed out and not
/// yet taken back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each meets `GlobalAlloc`'s requirements exactly as `System` does; the
// counter never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // which got it from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is non-zero and fits `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

/// `make`'s value, and the heap bytes it keeps alive once `make` has
/// returned.
fn retained<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let kept = make();
    (kept, LIVE.load(Relaxed).saturating_sub(before))
}

#[test]
fn a_memoized_run_keeps_its_index_and_not_its_trace() {
    let version = EscatVersion::A;
    let simulate = || -> RunResult {
        let workload = EscatConfig::tiny(version).build();
        let pfs = PfsConfig::caltech(workload.nodes, workload.os);
        run(&workload, pfs, SimOptions::default()).expect("ESCAT A runs")
    };
    // A first run pays for whatever the simulator sets up once per
    // process, so neither measurement below is charged for it.
    drop(simulate());

    let ((full, _index), full_bytes) = retained(|| {
        let r = simulate();
        let index = TraceIndex::build(r.trace.events());
        (r, index)
    });
    let (memo, memo_bytes) =
        retained(|| run_version(version, EscatDataset::Ethylene, Scale::Smoke));
    let raw_bytes = full.trace.len() * std::mem::size_of::<IoEvent>();

    assert_eq!(memo.trace.len(), full.trace.len(), "the same run");
    assert!(raw_bytes > 0, "the run traces I/O");
    assert!(
        memo_bytes + raw_bytes / 2 <= full_bytes,
        "the memoized run keeps {memo_bytes} B; the run with its index keeps \
         {full_bytes} B, of which {raw_bytes} B are the raw trace"
    );
}
