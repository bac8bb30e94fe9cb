//! RAID-3 disk array model.
//!
//! Each Paragon I/O node fronted a 4.8 GB RAID-3 array. RAID-3 stripes
//! every request byte-interleaved across all data spindles with a
//! dedicated parity disk, so the array behaves like a single disk with
//! multiplied transfer bandwidth: one positioning cost per request,
//! then transfer at the aggregate rate.
//!
//! Service time for a request of `b` bytes:
//!
//! ```text
//! t = controller_overhead + positioning + b / aggregate_bandwidth
//! positioning = avg_seek + avg_rotational_latency   (random access)
//!             = track_switch                          (sequential access)
//! ```
//!
//! "Sequential" means the request starts where the previous request on
//! this array ended — the PFS layer tracks that and passes the flag.

use sioscope_sim::Time;

/// Physical characteristics of one RAID-3 array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Fixed controller/command overhead per request.
    pub controller_overhead: Time,
    /// Average seek time of the member spindles.
    pub avg_seek: Time,
    /// Average rotational latency (half a revolution).
    pub avg_rotation: Time,
    /// Positioning cost when the request is sequential to the previous
    /// one (head settles on the next track).
    pub track_switch: Time,
    /// Aggregate transfer bandwidth of the array, bytes/second.
    pub bandwidth_bps: f64,
    /// Service-time multiplier when the array runs degraded (one
    /// failed spindle, data reconstructed from parity on every
    /// access). RAID-3 tolerates the failure but the controller must
    /// XOR-reconstruct the missing stream and loses overlap with the
    /// dedicated parity disk.
    pub degraded_factor: f64,
}

impl DiskParams {
    /// The 4.8 GB RAID-3 arrays on the Caltech machine. Early-90s
    /// 3.5-inch SCSI spindles: ~12 ms average seek, 4500 RPM
    /// (≈6.7 ms half-rotation). RAID-3 byte-striping across four data
    /// spindles with synchronized rotation delivered ~8 MB/s per
    /// array once positioned.
    pub fn raid3_4_8gb() -> Self {
        DiskParams {
            controller_overhead: Time::from_micros(500),
            avg_seek: Time::from_millis(12),
            avg_rotation: Time::from_micros(6700),
            track_switch: Time::from_millis(1),
            bandwidth_bps: 8.0e6,
            degraded_factor: 1.6,
        }
    }
}

/// A transient disturbance applied to one array's service model at a
/// particular instant. Produced by the fault-injection layer; the
/// neutral value ([`DiskDisturbance::NONE`]) must leave
/// [`DiskModel::service_time_disturbed`] bit-identical to
/// [`DiskModel::service_time`], which is what keeps fault-free runs
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskDisturbance {
    /// The array runs degraded (one failed spindle; parity
    /// reconstruction on every access, costed by
    /// [`DiskParams::degraded_factor`]).
    pub degraded: bool,
    /// Multiplier on the whole service time (I/O-node daemon starved
    /// of CPU, controller firmware retrying, etc.). `1.0` = none.
    pub slow_factor: f64,
    /// Additive penalty for a latent sector error: the drive's
    /// internal retry/remap cycle before the request completes.
    pub latent_penalty: Time,
}

impl DiskDisturbance {
    /// No disturbance: the healthy, undisturbed service model.
    pub const NONE: DiskDisturbance = DiskDisturbance {
        degraded: false,
        slow_factor: 1.0,
        latent_penalty: Time::ZERO,
    };
}

impl Default for DiskDisturbance {
    fn default() -> Self {
        Self::NONE
    }
}

/// Analytic service-time model for one array.
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
}

impl DiskModel {
    /// Build a model over the given parameters.
    pub fn new(params: DiskParams) -> Self {
        DiskModel { params }
    }

    /// Service time for one request of `bytes` bytes.
    pub fn service_time(&self, bytes: u64, sequential: bool) -> Time {
        self.service_time_in(bytes, sequential, false)
    }

    /// Service time, optionally on a degraded array (one failed
    /// spindle; every access pays parity reconstruction).
    pub(crate) fn service_time_in(&self, bytes: u64, sequential: bool, degraded: bool) -> Time {
        let positioning = if sequential {
            self.params.track_switch
        } else {
            self.params.avg_seek + self.params.avg_rotation
        };
        let transfer = Time::from_secs_f64(bytes as f64 / self.params.bandwidth_bps);
        let healthy = self.params.controller_overhead + positioning + transfer;
        if degraded {
            healthy.scale(self.params.degraded_factor)
        } else {
            healthy
        }
    }

    /// Service time under a fault-injection disturbance. With
    /// [`DiskDisturbance::NONE`] this takes exactly the same code path
    /// as [`DiskModel::service_time`] (no float is multiplied by 1.0),
    /// so undisturbed requests stay bit-identical.
    pub fn service_time_disturbed(
        &self,
        bytes: u64,
        sequential: bool,
        disturbance: &DiskDisturbance,
    ) -> Time {
        let base = self.service_time_in(bytes, sequential, disturbance.degraded);
        let slowed = if disturbance.slow_factor == 1.0 {
            base
        } else {
            base.scale(disturbance.slow_factor)
        };
        slowed + disturbance.latent_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiskModel {
        DiskModel::new(DiskParams::raid3_4_8gb())
    }

    #[test]
    fn sequential_beats_random() {
        let m = model();
        assert!(m.service_time(65536, true) < m.service_time(65536, false));
    }

    #[test]
    fn zero_byte_request_costs_positioning() {
        let m = model();
        let t = m.service_time(0, false);
        assert!(t >= Time::from_millis(18)); // overhead + seek + rotation
    }

    #[test]
    fn big_requests_amortize_positioning() {
        let m = model();
        // 1 MB random read should deliver a large fraction of the raw rate;
        // 1 KB random read should deliver almost none of it.
        let eff = |bytes: u64| bytes as f64 / m.service_time(bytes, false).as_secs_f64();
        let raw = DiskParams::raid3_4_8gb().bandwidth_bps;
        assert!(eff(1 << 20) > 0.5 * raw);
        assert!(eff(1 << 10) < 0.05 * raw);
    }

    #[test]
    fn degraded_array_is_slower() {
        let m = model();
        let healthy = m.service_time_in(65536, false, false);
        let degraded = m.service_time_in(65536, false, true);
        assert!(degraded > healthy);
        assert!(degraded < healthy * 3, "degradation is bounded");
        assert_eq!(m.service_time(65536, false), healthy);
    }

    #[test]
    fn neutral_disturbance_is_bit_identical() {
        let m = model();
        for sz in [0u64, 512, 65536, 1 << 20] {
            for seq in [false, true] {
                assert_eq!(
                    m.service_time_disturbed(sz, seq, &DiskDisturbance::NONE),
                    m.service_time(sz, seq)
                );
            }
        }
        assert_eq!(DiskDisturbance::default(), DiskDisturbance::NONE);
    }

    #[test]
    fn disturbances_compose_and_slow_the_disk() {
        let m = model();
        let healthy = m.service_time(65536, false);
        let slow = DiskDisturbance {
            slow_factor: 2.0,
            ..DiskDisturbance::NONE
        };
        assert!(m.service_time_disturbed(65536, false, &slow) > healthy);
        let latent = DiskDisturbance {
            latent_penalty: Time::from_millis(300),
            ..DiskDisturbance::NONE
        };
        assert_eq!(
            m.service_time_disturbed(65536, false, &latent),
            healthy + Time::from_millis(300)
        );
        let degraded = DiskDisturbance {
            degraded: true,
            ..DiskDisturbance::NONE
        };
        assert_eq!(
            m.service_time_disturbed(65536, false, &degraded),
            m.service_time_in(65536, false, true)
        );
    }

    #[test]
    fn service_time_is_monotone_in_size() {
        let m = model();
        let mut last = Time::ZERO;
        for sz in [0u64, 512, 4096, 65536, 1 << 20] {
            let t = m.service_time(sz, false);
            assert!(t >= last);
            last = t;
        }
    }
}
