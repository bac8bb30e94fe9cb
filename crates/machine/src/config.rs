//! Whole-machine configuration.

use crate::disk::DiskParams;
use crate::mesh::MeshParams;
use sioscope_sim::NodeId;

/// Configuration of the simulated machine: mesh geometry, the set of
/// compute nodes an application runs on, and the I/O node complement.
///
/// The paper's platform is captured by [`MachineConfig::caltech_paragon`]:
/// a 16×32 mesh (512 nodes), sixteen I/O nodes each with a 4.8 GB
/// RAID-3 array, files striped in 64 KB units (the PFS default).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Mesh geometry and link timing.
    pub mesh: MeshParams,
    /// Number of compute nodes allocated to the application partition.
    pub compute_nodes: u32,
    /// Number of I/O nodes (each one disk array).
    pub io_nodes: u32,
    /// Disk array characteristics (identical across I/O nodes).
    pub disk: DiskParams,
    /// Per-node mesh-placement overrides, indexed by node id. A `None`
    /// entry (and every node beyond the table) falls back to the
    /// default row-major fill, so dedicated-mode runs — which never
    /// populate this — are untouched. The batch scheduler fills it as
    /// it carves sub-mesh partitions out of the shared machine.
    pub placement: Vec<Option<(u32, u32)>>,
}

impl MachineConfig {
    /// The Caltech Center of Advanced Computing Research Paragon XP/S
    /// as described in §3.2 of the paper, with the application
    /// partition size left to the workload (128 nodes for ESCAT
    /// ethylene, 256 for carbon monoxide, 64 for PRISM).
    pub fn caltech_paragon(compute_nodes: u32) -> Self {
        MachineConfig {
            mesh: MeshParams::paragon_16x32(),
            compute_nodes,
            io_nodes: 16,
            disk: DiskParams::raid3_4_8gb(),
            placement: Vec::new(),
        }
    }

    /// The Intel Touchstone Delta (where ESCAT was first developed,
    /// §4.1): a 16×32 mesh like the Paragon's, but with slower links
    /// and fewer, slower I/O nodes under the Concurrent File System.
    /// Version A's access patterns are artifacts of this machine's
    /// habits (§6.1).
    pub fn touchstone_delta(compute_nodes: u32) -> Self {
        let mut mesh = MeshParams::paragon_16x32();
        mesh.sw_setup = sioscope_sim::Time::from_micros(150);
        mesh.bandwidth_bps = 22.0e6;
        let mut disk = DiskParams::raid3_4_8gb();
        disk.bandwidth_bps = 3.0e6;
        MachineConfig {
            mesh,
            compute_nodes,
            io_nodes: 8,
            disk,
            placement: Vec::new(),
        }
    }

    /// The Intel iPSC/860 (where PRISM was developed, §6.1): a
    /// hypercube modelled here as an 8×16 mesh of equivalent diameter,
    /// with the Concurrent File System's I/O complement.
    pub fn ipsc860(compute_nodes: u32) -> Self {
        let mut mesh = MeshParams::paragon_16x32();
        mesh.rows = 8;
        mesh.cols = 16;
        mesh.sw_setup = sioscope_sim::Time::from_micros(300);
        mesh.bandwidth_bps = 2.8e6;
        let mut disk = DiskParams::raid3_4_8gb();
        disk.bandwidth_bps = 1.5e6;
        MachineConfig {
            mesh,
            compute_nodes,
            io_nodes: 4,
            disk,
            placement: Vec::new(),
        }
    }

    /// A deliberately tiny machine for unit tests and the quickstart
    /// example: 2×4 mesh, 4 compute nodes, 2 I/O nodes.
    pub fn tiny() -> Self {
        MachineConfig {
            mesh: MeshParams::tiny_2x4(),
            compute_nodes: 4,
            io_nodes: 2,
            disk: DiskParams::raid3_4_8gb(),
            placement: Vec::new(),
        }
    }

    /// Mesh coordinates of a compute node. A scheduler-registered
    /// [`MachineConfig::placement`] entry wins; otherwise compute nodes
    /// fill the mesh in row-major order from the origin. A partition
    /// anchored at the origin with full-mesh-width rows therefore
    /// places its nodes exactly where a dedicated run would — the
    /// property the single-job bit-identity guarantee rests on.
    pub fn compute_position(&self, node: NodeId) -> (u32, u32) {
        if let Some(Some(pos)) = self.placement.get(node.index()) {
            return *pos;
        }
        let cols = self.mesh.cols.max(1);
        let i = node.0 % (self.mesh.rows * self.mesh.cols).max(1);
        (i % cols, i / cols)
    }

    /// Register (or clear, with `None`) the mesh position of one node,
    /// growing the placement table as needed.
    pub fn place_node(&mut self, node: NodeId, pos: Option<(u32, u32)>) {
        if self.placement.len() <= node.index() {
            self.placement.resize(node.index() + 1, None);
        }
        self.placement[node.index()] = pos;
    }

    /// Mesh coordinates of an I/O node. The Paragon placed I/O nodes
    /// along one edge of the mesh; we follow suit, spreading them
    /// evenly down the last column.
    pub fn io_position(&self, ion: u32) -> (u32, u32) {
        let rows = self.mesh.rows.max(1);
        let row = if self.io_nodes <= 1 {
            0
        } else {
            // Evenly spaced rows, deterministic.
            (ion * rows.saturating_sub(1)) / (self.io_nodes - 1).max(1)
        };
        (self.mesh.cols.saturating_sub(1), row.min(rows - 1))
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::caltech_paragon(128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caltech_paragon_matches_paper() {
        let m = MachineConfig::caltech_paragon(128);
        assert_eq!(m.io_nodes, 16);
        assert_eq!(m.compute_nodes, 128);
        assert_eq!(m.mesh.rows * m.mesh.cols, 512);
    }

    #[test]
    fn compute_positions_are_in_bounds() {
        let m = MachineConfig::caltech_paragon(512);
        for n in (0..m.compute_nodes).map(NodeId) {
            let (x, y) = m.compute_position(n);
            assert!(x < m.mesh.cols);
            assert!(y < m.mesh.rows);
        }
    }

    #[test]
    fn io_positions_distinct_and_in_bounds() {
        let m = MachineConfig::caltech_paragon(128);
        let mut seen = std::collections::HashSet::new();
        for ion in 0..m.io_nodes {
            let (x, y) = m.io_position(ion);
            assert!(x < m.mesh.cols);
            assert!(y < m.mesh.rows);
            assert!(seen.insert((x, y)), "duplicate I/O node placement");
        }
    }

    #[test]
    fn single_io_node_at_origin_row() {
        let mut m = MachineConfig::tiny();
        m.io_nodes = 1;
        assert_eq!(m.io_position(0).1, 0);
    }

    #[test]
    fn predecessor_machines_are_slower() {
        let paragon = MachineConfig::caltech_paragon(128);
        let delta = MachineConfig::touchstone_delta(128);
        let ipsc = MachineConfig::ipsc860(64);
        assert!(delta.io_nodes < paragon.io_nodes);
        assert!(delta.disk.bandwidth_bps < paragon.disk.bandwidth_bps);
        assert!(ipsc.mesh.bandwidth_bps < delta.mesh.bandwidth_bps);
        assert_eq!(ipsc.mesh.rows * ipsc.mesh.cols, 128);
    }

    #[test]
    fn default_is_paragon() {
        let m = MachineConfig::default();
        assert_eq!(m.compute_nodes, 128);
    }

    #[test]
    fn placement_overrides_and_falls_back() {
        let mut m = MachineConfig::tiny();
        assert_eq!(m.compute_position(NodeId(5)), (1, 1));
        m.place_node(NodeId(5), Some((3, 0)));
        assert_eq!(m.compute_position(NodeId(5)), (3, 0));
        // Nodes without an entry (or with a cleared one) keep the
        // row-major fallback.
        assert_eq!(m.compute_position(NodeId(2)), (2, 0));
        m.place_node(NodeId(5), None);
        assert_eq!(m.compute_position(NodeId(5)), (1, 1));
    }
}
