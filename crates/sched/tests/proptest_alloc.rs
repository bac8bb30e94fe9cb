//! Property-based tests of the 2-D partition allocator.
//!
//! The allocator underpins every multi-job schedule: if two live
//! partitions ever share a cell, two jobs' compute phases would
//! interleave on one node and the contention results would be
//! garbage. These properties drive random first-fit alloc/free churn
//! and check, after every step:
//!
//! * live partitions never overlap and never leave the compute
//!   complement;
//! * `allocate` is complete — it finds a placement exactly when a
//!   naive exhaustive scan over anchors says one exists;
//! * freeing everything restores a pristine allocator;
//! * identical op sequences place identically (determinism).

use sioscope_prop::cases;
use sioscope_sched::{Partition, PartitionAllocator};
use sioscope_sim::DetRng;
use std::collections::HashSet;

/// A mesh small enough to exhaust quickly but large enough to
/// fragment: `rows × cols` with a possibly-partial compute complement.
fn mesh(rng: &mut DetRng) -> (u32, u32, u32) {
    let rows = rng.range_inclusive(1, 8) as u32;
    let cols = rng.range_inclusive(1, 16) as u32;
    let compute = rng.range_inclusive(1, u64::from(rows * cols)) as u32;
    (rows, cols, compute)
}

/// A request size in `1..=20` nodes.
fn request(rng: &mut DetRng) -> u32 {
    rng.range_inclusive(1, 20) as u32
}

/// 1..=59 churn steps `(free first?, victim pick, request size)`.
fn churn_ops(rng: &mut DetRng) -> Vec<(bool, u64, u32)> {
    let len = rng.range_inclusive(1, 59);
    (0..len)
        .map(|_| {
            let free_first = rng.chance(0.5);
            let pick = rng.range_inclusive(0, u64::MAX);
            (free_first, pick, request(rng))
        })
        .collect()
}

/// `len` in `[min_len, max_len]` request sizes.
fn requests(rng: &mut DetRng, min_len: u64, max_len: u64) -> Vec<u32> {
    let len = rng.range_inclusive(min_len, max_len);
    (0..len).map(|_| request(rng)).collect()
}

/// Reference feasibility oracle: an `n`-node request fits iff some
/// anchor places the canonical shape entirely on free compute cells.
/// Deliberately re-derived from the shape rule in the module docs, not
/// from the allocator's own `fits_at`.
fn reference_fits(
    rows: u32,
    cols: u32,
    compute: u32,
    occupied: &HashSet<(u32, u32)>,
    n: u32,
) -> bool {
    let w = n.clamp(1, cols);
    let h = n.div_ceil(w);
    if h > rows || n > compute {
        return false;
    }
    for y in 0..=(rows - h) {
        'anchor: for x in 0..=(cols - w) {
            for p in 0..n {
                let (cx, cy) = (x + p % w, y + p / w);
                if cy * cols + cx >= compute || occupied.contains(&(cx, cy)) {
                    continue 'anchor;
                }
            }
            return true;
        }
    }
    false
}

/// Run one alloc/free churn sequence, returning every partition ever
/// granted (in grant order) and the final live set.
fn churn(
    rows: u32,
    cols: u32,
    compute: u32,
    ops: &[(bool, u64, u32)],
) -> (Vec<Partition>, Vec<Partition>, PartitionAllocator) {
    let mut alloc = PartitionAllocator::new(rows, cols, compute);
    let mut live: Vec<Partition> = Vec::new();
    let mut granted: Vec<Partition> = Vec::new();
    for &(free_first, pick, n) in ops {
        if free_first && !live.is_empty() {
            let victim = live.swap_remove((pick % live.len() as u64) as usize);
            alloc.free(&victim);
        }
        if let Some(p) = alloc.allocate(n) {
            granted.push(p);
            live.push(p);
        }
    }
    (granted, live, alloc)
}

/// After every churn step: no two live partitions share a cell,
/// every cell is a real compute node, the free count balances, and
/// `allocate` succeeds exactly when the reference oracle says a
/// placement exists.
#[test]
fn live_partitions_disjoint_in_bounds_and_complete() {
    cases(
        "live_partitions_disjoint_in_bounds_and_complete",
        256,
        |rng| {
            let (rows, cols, compute) = mesh(rng);
            let ops = churn_ops(rng);
            let mut alloc = PartitionAllocator::new(rows, cols, compute);
            let mut live: Vec<Partition> = Vec::new();
            for &(free_first, pick, n) in &ops {
                if free_first && !live.is_empty() {
                    let victim = live.swap_remove((pick % live.len() as u64) as usize);
                    alloc.free(&victim);
                }
                let occupied: HashSet<(u32, u32)> = live.iter().flat_map(|p| p.cells()).collect();
                let feasible = reference_fits(rows, cols, compute, &occupied, n);
                match alloc.allocate(n) {
                    Some(p) => {
                        assert!(feasible, "allocator placed an infeasible {n}-node request");
                        assert_eq!(p.nodes, n);
                        assert_eq!(p.w, n.clamp(1, cols), "shape width rule violated");
                        assert_eq!(p.h, n.div_ceil(n.clamp(1, cols)));
                        live.push(p);
                    }
                    None => {
                        assert!(!feasible, "allocator missed a feasible {n}-node placement");
                    }
                }
                let mut seen: HashSet<(u32, u32)> = HashSet::new();
                let mut busy = 0u32;
                for p in &live {
                    for (x, y) in p.cells() {
                        assert!(x < cols && y < rows, "cell ({x},{y}) off the mesh");
                        assert!(
                            y * cols + x < compute,
                            "cell ({x},{y}) is not a compute node"
                        );
                        assert!(seen.insert((x, y)), "cell ({x},{y}) double-booked");
                        busy += 1;
                    }
                }
                assert_eq!(
                    alloc.free_nodes(),
                    compute - busy,
                    "free-node accounting drifted"
                );
            }
        },
    );
}

/// Freeing every live partition — in arbitrary order — restores a
/// pristine allocator: empty, full free count, and able to grant
/// the whole compute complement as one partition again.
#[test]
fn alloc_free_round_trips_to_empty() {
    cases("alloc_free_round_trips_to_empty", 256, |rng| {
        let (rows, cols, compute) = mesh(rng);
        let sizes = requests(rng, 1, 39);
        let picks: Vec<u64> = (0..40).map(|_| rng.range_inclusive(0, u64::MAX)).collect();
        let mut alloc = PartitionAllocator::new(rows, cols, compute);
        let mut live: Vec<Partition> = Vec::new();
        for &n in &sizes {
            if let Some(p) = alloc.allocate(n) {
                live.push(p);
            }
        }
        let mut pick = picks.iter().copied().cycle();
        while !live.is_empty() {
            let victim = live.swap_remove((pick.next().unwrap() % live.len() as u64) as usize);
            alloc.free(&victim);
        }
        assert!(alloc.is_empty(), "cells leaked after freeing everything");
        assert_eq!(alloc.free_nodes(), alloc.capacity());
        assert_eq!(alloc.capacity(), compute);
        // The coalesced grid grants the whole machine in one request,
        // anchored at the origin like a dedicated run.
        let p = alloc.allocate(compute);
        assert!(p.is_some(), "full-machine request failed on an empty grid");
        let p = p.unwrap();
        assert_eq!((p.x, p.y), (0, 0));
        assert_eq!(p.nodes, compute);
    });
}

/// `contains_machine_node` agrees with the cell iterator: the set
/// of machine node ids a partition claims is exactly its cells'
/// row-major ids.
#[test]
fn machine_node_membership_matches_cells() {
    cases("machine_node_membership_matches_cells", 256, |rng| {
        let (rows, cols, compute) = mesh(rng);
        let sizes = requests(rng, 1, 19);
        let mut alloc = PartitionAllocator::new(rows, cols, compute);
        for &n in &sizes {
            if let Some(p) = alloc.allocate(n) {
                let from_cells: HashSet<u32> = p.cells().map(|(x, y)| y * cols + x).collect();
                let from_contains: HashSet<u32> = (0..rows * cols)
                    .filter(|&id| p.contains_machine_node(id, cols))
                    .collect();
                assert_eq!(from_cells, from_contains);
            }
        }
    });
}

/// The allocator is a pure function of its op sequence: replaying
/// the same churn yields bit-identical placements.
#[test]
fn identical_op_sequences_place_identically() {
    cases("identical_op_sequences_place_identically", 256, |rng| {
        let (rows, cols, compute) = mesh(rng);
        let ops = churn_ops(rng);
        let (granted_a, live_a, _) = churn(rows, cols, compute, &ops);
        let (granted_b, live_b, _) = churn(rows, cols, compute, &ops);
        assert_eq!(
            granted_a, granted_b,
            "placement depends on more than the op sequence"
        );
        assert_eq!(live_a, live_b);
    });
}
