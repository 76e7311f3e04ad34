//! Virtual time for the discrete-event simulation.
//!
//! [`SimTime`] is used both as an *instant* (nanoseconds since simulation
//! start) and as a *duration* (a span of nanoseconds). This mirrors how MPI
//! tracing tools treat `MPI_Wtime` deltas and keeps arithmetic trivial and
//! overflow-checked in debug builds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, with nanosecond resolution.
///
/// The simulation clock starts at [`SimTime::ZERO`]. All network and
/// middleware costs are expressed as `SimTime` spans.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The origin of the simulation clock (and the zero-length span).
    pub const ZERO: SimTime = SimTime { nanos: 0 };
    /// The largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime {
            nanos: micros * 1_000,
        }
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Construct from fractional seconds (rounded to nearest ns).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        let ns = (secs * 1e9).round();
        SimTime {
            nanos: if ns <= 0.0 { 0 } else { ns as u64 },
        }
    }

    /// Whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.nanos as f64 / 1_000.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos.saturating_sub(other.nanos),
        }
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.nanos.checked_add(other.nanos).map(SimTime::from_nanos)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if this is the zero time/span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self
                .nanos
                .checked_add(rhs.nanos)
                .expect("SimTime overflow in add"),
        }
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self
                .nanos
                .checked_sub(rhs.nanos)
                .expect("SimTime underflow in sub"),
        }
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime {
            nanos: self
                .nanos
                .checked_mul(rhs)
                .expect("SimTime overflow in mul"),
        }
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime {
            nanos: self.nanos / rhs,
        }
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 && self.nanos.is_multiple_of(1_000_000) {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn negative_float_saturates_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-0.1), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!((a + b).as_micros_f64(), 14.0);
        assert_eq!((a - b).as_micros_f64(), 6.0);
        assert_eq!((a * 3).as_micros_f64(), 30.0);
        assert_eq!((a / 2).as_micros_f64(), 5.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn ordering_and_sum() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::from_nanos(1),
            SimTime::from_nanos(3),
        ];
        v.sort();
        assert_eq!(v[0].as_nanos(), 1);
        let total: SimTime = v.into_iter().sum();
        assert_eq!(total.as_nanos(), 9);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimTime::from_micros(340)), "340.000us");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
    }
}
