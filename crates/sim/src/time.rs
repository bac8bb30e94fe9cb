//! Simulated time.
//!
//! [`Time`] is a nanosecond count since the start of the simulation.
//! The same type is used for instants and for durations; the paper's
//! measurements span thousands of seconds, which fits comfortably in a
//! `u64` nanosecond counter (wrap at ~584 years of simulated time).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A simulated instant or duration, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start) / the zero duration.
    pub const ZERO: Time = Time(0);
    /// The largest representable time.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative and non-finite
    /// inputs saturate to zero; this keeps the cost model total even if
    /// a calibration constant underflows.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Time::ZERO;
        }
        Time((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Scale a duration by a dimensionless factor, saturating and
    /// clamping negative/non-finite factors to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Time {
        if !factor.is_finite() || factor <= 0.0 {
            return Time::ZERO;
        }
        Time((self.0 as f64 * factor).round().min(u64::MAX as f64) as u64)
    }

    /// `true` iff this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub(crate) fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(Time::from_millis(3), Time::from_micros(3_000));
        assert_eq!(Time::from_micros(5), Time::from_nanos(5_000));
    }

    #[test]
    fn fractional_seconds_round_trip() {
        let t = Time::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NEG_INFINITY), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_secs(3);
        let b = Time::from_secs(1);
        assert_eq!(a + b, Time::from_secs(4));
        assert_eq!(a - b, Time::from_secs(2));
        assert_eq!(a * 2, Time::from_secs(6));
        assert_eq!(a / 3, Time::from_secs(1));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn scale_clamps_and_rounds() {
        let t = Time::from_secs(10);
        assert_eq!(t.scale(0.5), Time::from_secs(5));
        assert_eq!(t.scale(-2.0), Time::ZERO);
        assert_eq!(t.scale(f64::NAN), Time::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Time = (1..=4u64).map(Time::from_secs).sum();
        assert_eq!(total, Time::from_secs(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
        assert_eq!(Time::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Time::from_micros(2).to_string(), "2.000us");
        assert_eq!(Time::from_nanos(2).to_string(), "2ns");
    }
}
