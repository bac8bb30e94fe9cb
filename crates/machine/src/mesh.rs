//! The 2-D mesh interconnect.
//!
//! The Paragon XP/S used a 2-D mesh with dimension-ordered (XY)
//! wormhole routing. For wormhole routing, message latency is well
//! approximated by `setup + hops * per_hop + bytes / bandwidth`: the
//! per-hop term covers the header flit pipeline, and the payload
//! streams at link bandwidth once the path is set up.

use sioscope_sim::Time;

/// Mesh geometry and link timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshParams {
    /// Mesh rows.
    pub rows: u32,
    /// Mesh columns.
    pub cols: u32,
    /// Software message setup/teardown cost (send + receive system
    /// call path). Paragon NX message latency was on the order of
    /// 50-100 µs for small messages.
    pub sw_setup: Time,
    /// Per-hop header routing latency. Paragon routers switched a flit
    /// in well under a microsecond.
    pub per_hop: Time,
    /// Link bandwidth in bytes per second. Paragon links moved
    /// ~175 MB/s raw; delivered application bandwidth was much lower,
    /// ~35-90 MB/s. We use a delivered figure.
    pub bandwidth_bps: f64,
}

impl MeshParams {
    /// The Caltech machine: 16 rows × 32 columns.
    pub(crate) fn paragon_16x32() -> Self {
        MeshParams {
            rows: 16,
            cols: 32,
            sw_setup: Time::from_micros(60),
            per_hop: Time::from_nanos(400),
            bandwidth_bps: 60.0e6,
        }
    }

    /// A tiny 2×4 mesh for tests.
    pub(crate) fn tiny_2x4() -> Self {
        MeshParams {
            rows: 2,
            cols: 4,
            ..Self::paragon_16x32()
        }
    }
}

/// Analytic mesh latency model.
#[derive(Debug, Clone)]
pub struct MeshModel {
    params: MeshParams,
}

impl MeshModel {
    /// Build a model over the given parameters.
    pub fn new(params: MeshParams) -> Self {
        MeshModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &MeshParams {
        &self.params
    }

    /// Manhattan hop count between two mesh coordinates (XY routing).
    pub fn hops(&self, a: (u32, u32), b: (u32, u32)) -> u32 {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }

    /// One-way latency for a `bytes`-byte message across `hops` hops.
    pub fn message_time_hops(&self, bytes: u64, hops: u32) -> Time {
        let wire = Time::from_secs_f64(bytes as f64 / self.params.bandwidth_bps);
        self.params.sw_setup + self.params.per_hop * u64::from(hops) + wire
    }

    /// One-way latency across `hops` hops under link congestion. A
    /// congestion factor of `c` means the payload streams at `1/c` of
    /// the link bandwidth (contending wormhole traffic); the setup and
    /// per-hop header terms are unaffected. `c == 1.0` takes exactly
    /// the uncongested path so fault-free runs stay bit-identical.
    pub(crate) fn message_time_hops_congested(
        &self,
        bytes: u64,
        hops: u32,
        congestion: f64,
    ) -> Time {
        if congestion == 1.0 {
            return self.message_time_hops(bytes, hops);
        }
        let wire = Time::from_secs_f64(bytes as f64 * congestion / self.params.bandwidth_bps);
        self.params.sw_setup + self.params.per_hop * u64::from(hops) + wire
    }

    /// Time for a binomial-tree broadcast of `bytes` from one root to
    /// `members` processes. Each of the `ceil(log2(members))` stages
    /// forwards the full payload one average-distance hop span away.
    pub fn broadcast_time(&self, members: u32, bytes: u64) -> Time {
        if members <= 1 {
            return Time::ZERO;
        }
        let stages = 32 - (members - 1).leading_zeros(); // ceil(log2(members))
        let avg_hops = (self.params.rows + self.params.cols) / 4;
        self.message_time_hops(bytes, avg_hops.max(1)) * u64::from(stages)
    }

    /// [`MeshModel::broadcast_time`] under link congestion; see
    /// `MeshModel::message_time_hops_congested` for the convention.
    pub fn broadcast_time_congested(&self, members: u32, bytes: u64, congestion: f64) -> Time {
        if congestion == 1.0 {
            return self.broadcast_time(members, bytes);
        }
        if members <= 1 {
            return Time::ZERO;
        }
        let stages = 32 - (members - 1).leading_zeros();
        let avg_hops = (self.params.rows + self.params.cols) / 4;
        self.message_time_hops_congested(bytes, avg_hops.max(1), congestion) * u64::from(stages)
    }

    /// Diameter of the mesh in hops.
    pub fn diameter(&self) -> u32 {
        (self.params.rows - 1) + (self.params.cols - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MeshModel {
        MeshModel::new(MeshParams::paragon_16x32())
    }

    #[test]
    fn hops_is_manhattan() {
        let m = model();
        assert_eq!(m.hops((0, 0), (0, 0)), 0);
        assert_eq!(m.hops((0, 0), (3, 4)), 7);
        assert_eq!(m.hops((5, 2), (1, 9)), 11);
    }

    #[test]
    fn message_time_increases_with_size_and_distance() {
        let m = model();
        let small_near = m.message_time_hops(64, 1);
        let small_far = m.message_time_hops(64, 40);
        let big_near = m.message_time_hops(1 << 20, 1);
        assert!(small_far > small_near);
        assert!(big_near > small_near);
    }

    #[test]
    fn zero_byte_message_still_costs_setup() {
        let m = model();
        assert!(m.message_time_hops(0, 0) >= Time::from_micros(60));
    }

    #[test]
    fn broadcast_grows_logarithmically() {
        let m = model();
        let b2 = m.broadcast_time(2, 1024);
        let b128 = m.broadcast_time(128, 1024);
        let b256 = m.broadcast_time(256, 1024);
        assert_eq!(m.broadcast_time(1, 1024), Time::ZERO);
        // 128 members -> 7 stages, 2 members -> 1 stage.
        assert_eq!(b128.as_nanos(), b2.as_nanos() * 7);
        assert_eq!(b256.as_nanos(), b2.as_nanos() * 8);
    }

    #[test]
    fn congestion_factor_one_is_bit_identical() {
        let m = model();
        for bytes in [0u64, 64, 1 << 20] {
            assert_eq!(
                m.message_time_hops_congested(bytes, 7, 1.0),
                m.message_time_hops(bytes, 7)
            );
            assert_eq!(
                m.broadcast_time_congested(128, bytes, 1.0),
                m.broadcast_time(128, bytes)
            );
        }
    }

    #[test]
    fn congestion_stretches_wire_time_only() {
        let m = model();
        // Header-only message: congestion doesn't touch setup/per-hop.
        assert_eq!(
            m.message_time_hops_congested(0, 7, 4.0),
            m.message_time_hops(0, 7)
        );
        // Payload-heavy message: congestion dominates.
        let clean = m.message_time_hops(1 << 20, 7);
        let jammed = m.message_time_hops_congested(1 << 20, 7, 4.0);
        assert!(jammed > clean);
        assert!(m.broadcast_time_congested(128, 1 << 20, 4.0) > m.broadcast_time(128, 1 << 20));
    }

    #[test]
    fn diameter_matches_geometry() {
        assert_eq!(model().diameter(), 15 + 31);
    }
}
