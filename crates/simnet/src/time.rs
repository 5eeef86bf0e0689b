//! Virtual time.
//!
//! The simulator counts microseconds from the start of the run. Wrapped
//! in newtypes so simulated instants and durations cannot be confused
//! with wall-clock values.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant, saturating at zero when
    /// `earlier` is actually after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "clamped non-negative before the cast; saturation at u64::MAX is the documented duration ceiling"
        )]
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t.as_micros(), 2_000_000);
        let t2 = t + SimDuration::from_millis(500);
        assert_eq!((t2 - t).as_secs_f64(), 0.5);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.001).as_micros(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimTime::from_micros(1_500_000).as_secs_f64(), 1.5);
    }

    #[test]
    fn since_saturates_backwards() {
        assert_eq!(
            SimTime::ZERO.since(SimTime::from_micros(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_micros(5)
                .since(SimTime::from_micros(2))
                .as_micros(),
            3
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_micros(1_000_000).to_string(), "t=1.000000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }
}
