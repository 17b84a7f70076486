//! Virtual time types.
//!
//! [`SimTime`] is an instant measured from the start of the simulation and
//! [`SimDuration`] is a span between instants. Both have microsecond
//! resolution, which is finer than anything the paper reports (its most
//! precise latency is 0.078 ms) while still giving ~584 000 years of range
//! in a `u64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, in microseconds since simulation start.
///
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_millis(), 2000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
///
/// ```
/// use simkit::SimDuration;
/// assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since simulation start.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`; saturates
    /// to zero in release builds.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() with a later instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Total microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds as a float (the unit of the paper's Table 1).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.as_millis();
        let (h, rem) = (total_ms / 3_600_000, total_ms % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        write!(f, "{h}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3600);
        assert_eq!(SimTime::from_secs(5).as_millis(), 5_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        let u = t + SimDuration::from_millis(50);
        assert_eq!((u - t).as_millis(), 50);
        assert_eq!((u - SimDuration::from_millis(150)), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_millis(10) * 3,
            SimDuration::from_millis(30)
        );
        assert_eq!(
            SimDuration::from_millis(30) / 3,
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn saturating_behaviour() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(9);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.500s");
        let t = SimTime::from_secs(3_723) + SimDuration::from_millis(42);
        assert_eq!(t.to_string(), "1:02:03.042");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
