//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time in nanoseconds.
///
/// `u64` nanoseconds covers ~584 simulated years — far beyond any run —
/// while keeping arithmetic exact. Additions are `checked` in debug
/// builds via the standard integer overflow checks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Conversion to floating-point seconds (for table output).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elementwise maximum.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_ns(3_000).as_ns(), 3_000);
        assert!((SimTime::from_ns(1_500_000_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime(100);
        let b = SimTime(250);
        assert_eq!(a + b, SimTime(350));
        assert_eq!(b - a, SimTime(150));
        assert_eq!(a + 50u64, SimTime(150));
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(SimTime::from_ns(1_219_000_000).to_string(), "1.219000s");
    }
}
