//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulation clock is a single monotonically non-decreasing [`SimTime`].
//! All network and CPU cost models in `lmpi-netmodel` are expressed as
//! [`SimDur`] values, typically built with [`SimDur::from_us`] since the
//! paper reports microseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::time::Duration;

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    ns: u64,
}

/// A span of virtual time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur {
    ns: u64,
}

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime { ns: 0 };

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime { ns }
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.ns
    }

    /// Microseconds since simulation start, as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.ns as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.ns as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur {
            ns: self
                .ns
                .checked_sub(earlier.ns)
                .expect("SimTime::since: earlier is later than self"),
        }
    }
}

impl SimDur {
    /// Zero-length duration.
    pub const ZERO: SimDur = SimDur { ns: 0 };

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDur { ns }
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDur { ns: us * 1_000 }
    }

    /// Construct from fractional microseconds (rounds to nearest ns).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        assert!(
            us >= 0.0 && us.is_finite(),
            "duration must be finite and non-negative"
        );
        SimDur {
            ns: (us * 1_000.0).round() as u64,
        }
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDur { ns: ms * 1_000_000 }
    }

    /// Construct from fractional seconds (rounds to nearest ns).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be finite and non-negative"
        );
        SimDur {
            ns: (secs * 1_000_000_000.0).round() as u64,
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.ns
    }

    /// Microseconds as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.ns as f64 / 1_000.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.ns as f64 / 1_000_000_000.0
    }

    /// Saturating duration subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur {
            ns: self.ns.saturating_sub(rhs.ns),
        }
    }
}

/// A wall-clock length as virtual time, to the nanosecond (saturating at
/// about 584 years).
impl From<Duration> for SimDur {
    fn from(d: Duration) -> Self {
        SimDur {
            ns: u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime {
            ns: self.ns.checked_add(rhs.ns).expect("SimTime overflow"),
        }
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDur {
        self.since(rhs)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur {
            ns: self.ns.checked_add(rhs.ns).expect("SimDur overflow"),
        }
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur {
            ns: self
                .ns
                .checked_sub(rhs.ns)
                .expect("SimDur underflow; use saturating_sub"),
        }
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur {
            ns: self.ns.checked_mul(rhs).expect("SimDur overflow"),
        }
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn div(self, rhs: u64) -> SimDur {
        SimDur { ns: self.ns / rhs }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(1_500);
        let d = SimDur::from_us(2);
        assert_eq!((t + d).as_ns(), 3_500);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn us_f64_rounding() {
        assert_eq!(SimDur::from_us_f64(0.0005).as_ns(), 1); // rounds up
        assert_eq!(SimDur::from_us_f64(52.0).as_ns(), 52_000);
        assert_eq!(SimDur::from_us_f64(0.0).as_ns(), 0);
    }

    #[test]
    fn since_measures_elapsed() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(350);
        assert_eq!(b.since(a).as_ns(), 250);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn since_panics_on_negative() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(50);
        let _ = b.since(a);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimDur::from_ns(5);
        let b = SimDur::from_ns(9);
        assert_eq!(a.saturating_sub(b), SimDur::ZERO);
        assert_eq!(b.saturating_sub(a).as_ns(), 4);
    }

    #[test]
    fn scalar_ops() {
        let d = SimDur::from_us(10);
        assert_eq!((d * 3).as_us_f64(), 30.0);
        assert_eq!((d / 4).as_ns(), 2_500);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimDur::from_ns(1_500)), "1.500us");
        assert_eq!(format!("{}", SimTime::from_ns(52_000)), "52.000us");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimDur::from_us(1) < SimDur::from_ms(1));
    }
}
