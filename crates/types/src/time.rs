//! Virtual time.
//!
//! The whole system is driven by a discrete-event simulator (see
//! `saguaro-net`); every timestamp in the workspace is a [`SimTime`] measured
//! in *microseconds of virtual time* since the start of the experiment.
//! Durations are also expressed in microseconds.  Using integers keeps event
//! ordering exact and the simulation deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in virtual microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// The number of whole microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// A point in virtual time (microseconds since experiment start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The experiment origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a timestamp from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds (fractional) since the origin.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let t2 = t + Duration::from_millis(5);
        assert_eq!(t2.as_micros(), 15_000);
        assert_eq!(t2 - t, Duration::from_millis(5));
        assert_eq!(t - t2, Duration::ZERO); // saturating
        assert_eq!(t2.since(t).as_millis_f64(), 5.0);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += Duration::from_micros(42);
        assert_eq!(t.as_micros(), 42);
    }

    #[test]
    fn debug_uses_readable_units() {
        assert_eq!(format!("{:?}", Duration::from_micros(12)), "12us");
        assert_eq!(format!("{:?}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{:?}", Duration::from_millis(2_000)), "2.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(5) < SimTime::from_micros(6));
        assert!(Duration::from_millis(1) > Duration::from_micros(999));
    }
}
