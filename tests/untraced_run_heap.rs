//! Heap-peak regression test: a campaign workload run records its
//! totals, not its trace.
//!
//! The test binary counts live heap bytes and their peak with its own
//! global allocator, and holds a single test, so nothing else allocates
//! while it measures. It compares the heap peak of a cold fault-free
//! smoke-scale workload run through `canon::execute` with the peak of
//! the same simulation through `run_backend`, which records the trace.
//! Both build the workload and simulate it on the same tier, so what
//! the traced run holds beyond the other is its events: the untraced
//! run must peak lower by at least half the raw trace. If the
//! campaign's simulations record the trace again, this fails.

use sioscope::canon::{execute, tier_config, BackendKind, RunSpec, WorkloadId};
use sioscope::experiments::{clear_run_caches, Scale};
use sioscope::simulator::{run_backend, SimOptions};
use sioscope_faults::FaultSchedule;
use sioscope_trace::IoEvent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it has handed out and not
/// yet taken back, and the most of them live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each meets `GlobalAlloc`'s requirements exactly as `System` does; the
// counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
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
            // A moving realloc holds both blocks for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

/// `run`'s value, and the most heap bytes it held at once beyond what
/// was live when it started.
fn peak<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let value = run();
    (value, PEAK.load(Relaxed).saturating_sub(before))
}

#[test]
fn a_campaign_workload_run_peaks_below_the_traced_run() {
    // ESCAT B rather than A: building ESCAT A holds more heap for a
    // moment than its simulation does, and that build peak would hide
    // part of the trace from the comparison.
    let (id, backend, scale) = (WorkloadId::EscatB, BackendKind::Pfs, Scale::Smoke);
    let spec = RunSpec::Workload {
        id,
        backend,
        scale,
        fault_events: 0,
        seed: 0,
    };
    let untraced = || execute(&spec).expect("ESCAT B runs").1;
    // The same simulation, recording the trace: its length and the
    // workload's I/O statement count.
    let traced = || {
        let workload = id.build(scale);
        let cfg = tier_config(backend, &workload, FaultSchedule::empty());
        let run = run_backend(&workload, &cfg, SimOptions::default()).expect("ESCAT B runs");
        (run.trace.len(), workload.io_stmts())
    };
    // A first run of each pays for whatever the simulator sets up once
    // per process, so neither measurement below is charged for it.
    traced();
    untraced();

    clear_run_caches();
    let (metrics, untraced_peak) = peak(untraced);
    let ((events, io_stmts), traced_peak) = peak(traced);
    let raw_bytes = io_stmts * std::mem::size_of::<IoEvent>();

    assert_eq!(metrics["trace_events"], events as u64, "the same run");
    assert_eq!(events, io_stmts, "one event per I/O statement");
    assert!(raw_bytes > 0, "the run traces I/O");
    assert!(
        untraced_peak + raw_bytes / 2 <= traced_peak,
        "the cold workload run peaks at {untraced_peak} B; the traced run peaks at \
         {traced_peak} B, of which {raw_bytes} B are the raw trace"
    );
}
