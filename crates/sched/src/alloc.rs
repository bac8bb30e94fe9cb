//! 2-D sub-mesh partition allocation.
//!
//! The Paragon space-shares its mesh: each admitted job receives a
//! rectangular sub-mesh of compute nodes and keeps it until
//! completion. The allocator here tracks per-cell occupancy of the
//! compute grid and carves out partitions first fit: each goes to the
//! row-major-first anchor that fits.
//!
//! Freed partitions clear their cells outright, so adjacent free
//! regions coalesce automatically — there is no free-list to merge,
//! and no fragmentation beyond what the live partitions themselves
//! impose.
//!
//! ## Shape invariant
//!
//! A request for `n` nodes is shaped as `w = min(n, cols)` columns by
//! `ceil(n / w)` rows, with local node `p` at offset
//! `(p % w, p / w)` from the anchor — row-major within the partition.
//! Anchored at the origin this reproduces the machine's dedicated-mode
//! row-major fill exactly (for `n ≥ cols` the widths agree; for
//! `n < cols` both lay the nodes along row zero), which is what makes
//! a single-job schedule bit-identical to a dedicated run.

use sioscope_machine::MachineConfig;

/// An allocated sub-mesh: anchor, shape, and the node count actually
/// occupied (the last row may be ragged when `nodes % w != 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Anchor column.
    pub x: u32,
    /// Anchor row.
    pub y: u32,
    /// Partition width (columns).
    pub w: u32,
    /// Partition height (rows).
    pub h: u32,
    /// Number of occupied cells (`≤ w·h`).
    pub nodes: u32,
}

impl Partition {
    /// Mesh coordinates of local node `p` (`0 ≤ p < nodes`): row-major
    /// from the anchor.
    pub fn position_of(&self, p: u32) -> (u32, u32) {
        debug_assert!(p < self.nodes);
        (self.x + p % self.w, self.y + p / self.w)
    }

    /// All occupied cells, in local-node order.
    pub fn cells(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.nodes).map(|p| self.position_of(p))
    }

    /// Does the partition occupy the machine cell with row-major id
    /// `node` on a `cols`-wide mesh?
    pub fn contains_machine_node(&self, node: u32, cols: u32) -> bool {
        let (x, y) = (node % cols.max(1), node / cols.max(1));
        if x < self.x || y < self.y || y >= self.y + self.h {
            return false;
        }
        let (lx, ly) = (x - self.x, y - self.y);
        lx < self.w && ly * self.w + lx < self.nodes
    }
}

/// Occupancy tracker over the machine's compute grid.
///
/// The grid covers the mesh's `rows × cols` cells, but only cells
/// whose row-major id is below `compute_nodes` are allocatable — the
/// machine's compute complement, node ids `0..compute_nodes`.
#[derive(Debug, Clone)]
pub struct PartitionAllocator {
    rows: u32,
    cols: u32,
    compute_nodes: u32,
    /// One occupancy bitmask per row (bit `x` = cell `(x, row)` busy).
    occ: Vec<u64>,
}

impl PartitionAllocator {
    /// An empty allocator over a `rows × cols` mesh with
    /// `compute_nodes` allocatable cells.
    ///
    /// # Panics
    /// Panics if `cols` exceeds 64 (one `u64` mask per row) or
    /// `compute_nodes` exceeds the grid.
    pub fn new(rows: u32, cols: u32, compute_nodes: u32) -> Self {
        assert!((1..=64).contains(&cols), "mesh width {cols} not in 1..=64");
        assert!(rows >= 1, "mesh must have rows");
        assert!(
            compute_nodes <= rows * cols,
            "{compute_nodes} compute nodes exceed the {rows}x{cols} grid"
        );
        PartitionAllocator {
            rows,
            cols,
            compute_nodes,
            occ: vec![0u64; rows as usize],
        }
    }

    /// An allocator over `machine`'s compute grid.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        PartitionAllocator::new(machine.mesh.rows, machine.mesh.cols, machine.compute_nodes)
    }

    /// The canonical shape for an `n`-node request: full-mesh-width
    /// rows when `n ≥ cols`, a single row otherwise.
    pub fn shape_for(&self, n: u32) -> (u32, u32) {
        let w = n.clamp(1, self.cols);
        (w, n.div_ceil(w))
    }

    /// Free allocatable cells remaining.
    pub fn free_nodes(&self) -> u32 {
        let busy: u32 = self.occ.iter().map(|m| m.count_ones()).sum();
        self.compute_nodes - busy
    }

    /// `true` iff nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.occ.iter().all(|&m| m == 0)
    }

    /// Total allocatable cells.
    pub fn capacity(&self) -> u32 {
        self.compute_nodes
    }

    fn row_len(n: u32, w: u32, r: u32, h: u32) -> u32 {
        if r + 1 == h {
            n - w * (h - 1)
        } else {
            w
        }
    }

    fn mask(len: u32, x: u32) -> u64 {
        debug_assert!((1..=64).contains(&len));
        if len == 64 {
            u64::MAX
        } else {
            ((1u64 << len) - 1) << x
        }
    }

    fn fits_at(&self, x: u32, y: u32, n: u32, w: u32, h: u32) -> bool {
        for r in 0..h {
            let len = Self::row_len(n, w, r, h);
            if self.occ[(y + r) as usize] & Self::mask(len, x) != 0 {
                return false;
            }
            // Every occupied cell must be a real compute node.
            if (y + r) * self.cols + x + len > self.compute_nodes {
                return false;
            }
        }
        true
    }

    /// Allocate an `n`-node partition at the first feasible anchor in
    /// row-major order, or `None` if none exists (insufficient capacity
    /// *or* fragmentation).
    pub fn allocate(&mut self, n: u32) -> Option<Partition> {
        if n == 0 || n > self.free_nodes() {
            return None;
        }
        let (w, h) = self.shape_for(n);
        if h > self.rows {
            return None;
        }
        for y in 0..=(self.rows - h) {
            for x in 0..=(self.cols - w) {
                if self.fits_at(x, y, n, w, h) {
                    return Some(self.mark(x, y, n, w, h));
                }
            }
        }
        None
    }

    fn mark(&mut self, x: u32, y: u32, n: u32, w: u32, h: u32) -> Partition {
        for r in 0..h {
            let len = Self::row_len(n, w, r, h);
            let m = Self::mask(len, x);
            debug_assert_eq!(self.occ[(y + r) as usize] & m, 0);
            self.occ[(y + r) as usize] |= m;
        }
        Partition {
            x,
            y,
            w,
            h,
            nodes: n,
        }
    }

    /// Return a partition's cells to the free pool. Freed regions
    /// coalesce with their free neighbours by construction.
    ///
    /// # Panics
    /// Debug-panics if any cell was not allocated (double free).
    pub fn free(&mut self, p: &Partition) {
        for r in 0..p.h {
            let len = Self::row_len(p.nodes, p.w, r, p.h);
            let m = Self::mask(len, p.x);
            debug_assert_eq!(
                self.occ[(p.y + r) as usize] & m,
                m,
                "freeing cells that were not allocated"
            );
            self.occ[(p.y + r) as usize] &= !m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_8x2() -> PartitionAllocator {
        // 2 rows × 8 cols, all 16 cells allocatable.
        PartitionAllocator::new(2, 8, 16)
    }

    #[test]
    fn shape_matches_dedicated_row_major() {
        let a = alloc_8x2();
        assert_eq!(a.shape_for(3), (3, 1));
        assert_eq!(a.shape_for(8), (8, 1));
        assert_eq!(a.shape_for(11), (8, 2));
        let (w, _) = a.shape_for(5);
        let p = Partition {
            x: 0,
            y: 0,
            w,
            h: 1,
            nodes: 5,
        };
        for n in 0..5 {
            // Dedicated fill on an 8-wide mesh: (n % 8, n / 8).
            assert_eq!(p.position_of(n), (n % 8, n / 8));
        }
    }

    #[test]
    fn first_fit_packs_row_major_and_coalesces() {
        let mut a = alloc_8x2();
        let p1 = a.allocate(8).unwrap();
        assert_eq!((p1.x, p1.y), (0, 0));
        let p2 = a.allocate(4).unwrap();
        assert_eq!((p2.x, p2.y), (0, 1));
        let p3 = a.allocate(4).unwrap();
        assert_eq!((p3.x, p3.y), (4, 1));
        assert_eq!(a.free_nodes(), 0);
        assert!(a.allocate(1).is_none());
        a.free(&p2);
        a.free(&p3);
        // The freed halves of row 1 coalesce back into a full row.
        let p4 = a.allocate(8).unwrap();
        assert_eq!((p4.x, p4.y), (0, 1));
    }

    #[test]
    fn ragged_last_row_occupies_only_its_nodes() {
        let mut a = alloc_8x2();
        let p = a.allocate(11).unwrap(); // 8 + 3
        assert_eq!((p.w, p.h), (8, 2));
        assert_eq!(a.free_nodes(), 5);
        // The 5 unused cells of row 1 are still allocatable.
        let q = a.allocate(5).unwrap();
        assert_eq!((q.x, q.y), (3, 1));
        assert!(p.contains_machine_node(10, 8)); // (2,1) is node 2 of row 1
        assert!(!p.contains_machine_node(11, 8)); // (3,1) belongs to q
    }

    #[test]
    fn respects_partial_compute_complement() {
        // 16×32 mesh but only 8 compute nodes (ids 0..8, row 0).
        let mut a = PartitionAllocator::new(16, 32, 8);
        assert!(a.allocate(9).is_none());
        let p = a.allocate(8).unwrap();
        assert_eq!((p.x, p.y, p.w, p.h), (0, 0, 8, 1));
        assert_eq!(a.free_nodes(), 0);
    }

    #[test]
    fn for_machine_matches_config() {
        let m = MachineConfig::tiny(); // 2×4 mesh, 4 compute nodes
        let mut a = PartitionAllocator::for_machine(&m);
        assert_eq!(a.capacity(), 4);
        assert!(a.allocate(5).is_none());
        assert!(a.allocate(4).is_some());
    }

    #[test]
    fn full_width_mask_is_safe() {
        // cols == 64 exercises the 1<<64 guard.
        let mut a = PartitionAllocator::new(1, 64, 64);
        let p = a.allocate(64).unwrap();
        assert_eq!(a.free_nodes(), 0);
        a.free(&p);
        assert_eq!(a.free_nodes(), 64);
        assert!(a.is_empty());
    }
}
