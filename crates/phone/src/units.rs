//! Electrical unit newtypes.
//!
//! Power, energy, current and voltage each get their own type so a bench
//! can never accidentally print joules where the paper's table wants
//! milliwatts (guide rule C-NEWTYPE).

use simkit::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Electrical power in milliwatts.
///
/// ```
/// use phone::Milliwatts;
/// use simkit::SimDuration;
/// let e = Milliwatts(1000.0) * SimDuration::from_secs(2);
/// assert_eq!(e.as_joules(), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Milliwatts(pub f64);

/// Energy in millijoules.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Millijoules(pub f64);

/// Electrical current in milliamps.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Milliamps(pub f64);

/// Electrical potential in volts.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Volts(pub f64);

impl Milliwatts {
    /// Zero power.
    pub const ZERO: Milliwatts = Milliwatts(0.0);

    /// The current this power implies at the given supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if `v` is zero or negative.
    pub fn current_at(self, v: Volts) -> Milliamps {
        assert!(v.0 > 0.0, "supply voltage must be positive");
        Milliamps(self.0 / v.0)
    }
}

impl Millijoules {
    /// Zero energy.
    pub const ZERO: Millijoules = Millijoules(0.0);

    /// Value in joules — the unit of the paper's Table 2.
    pub fn as_joules(self) -> f64 {
        self.0 / 1e3
    }
}

impl Milliamps {
    /// The power this current implies at the given supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative.
    pub fn power_at(self, v: Volts) -> Milliwatts {
        assert!(v.0 >= 0.0, "supply voltage must be non-negative");
        Milliwatts(self.0 * v.0)
    }

    /// The voltage dropped across `ohms` by this current (Ohm's law).
    pub fn drop_across(self, ohms: f64) -> Volts {
        Volts(self.0 / 1e3 * ohms)
    }
}

impl Mul<SimDuration> for Milliwatts {
    type Output = Millijoules;
    fn mul(self, d: SimDuration) -> Millijoules {
        Millijoules(self.0 * d.as_secs_f64())
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    fn add(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 + rhs.0)
    }
}

impl Sub for Milliwatts {
    type Output = Milliwatts;
    fn sub(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 - rhs.0)
    }
}

impl Sum for Milliwatts {
    fn sum<I: Iterator<Item = Milliwatts>>(iter: I) -> Self {
        iter.fold(Milliwatts::ZERO, Add::add)
    }
}

impl Add for Millijoules {
    type Output = Millijoules;
    fn add(self, rhs: Millijoules) -> Millijoules {
        Millijoules(self.0 + rhs.0)
    }
}

impl AddAssign for Millijoules {
    fn add_assign(&mut self, rhs: Millijoules) {
        self.0 += rhs.0;
    }
}

impl Sub for Millijoules {
    type Output = Millijoules;
    fn sub(self, rhs: Millijoules) -> Millijoules {
        Millijoules(self.0 - rhs.0)
    }
}

impl Div<u64> for Millijoules {
    type Output = Millijoules;
    fn div(self, n: u64) -> Millijoules {
        Millijoules(self.0 / n as f64)
    }
}

impl Sum for Millijoules {
    fn sum<I: Iterator<Item = Millijoules>>(iter: I) -> Self {
        iter.fold(Millijoules::ZERO, Add::add)
    }
}

impl Sub for Volts {
    type Output = Volts;
    fn sub(self, rhs: Volts) -> Volts {
        Volts(self.0 - rhs.0)
    }
}

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mW", self.0)
    }
}

impl fmt::Display for Millijoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.as_joules())
    }
}

impl fmt::Display for Milliamps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mA", self.0)
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Milliwatts(500.0) * SimDuration::from_secs(4);
        assert_eq!(e, Millijoules(2000.0));
        assert_eq!(e.as_joules(), 2.0);
    }

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts(4.0965);
        let p = Milliwatts(1190.0); // WiFi connected, per the paper
        let i = p.current_at(v);
        assert!((i.0 - 290.5).abs() < 1.0, "current {i}");
        let back = i.power_at(v);
        assert!((back.0 - 1190.0).abs() < 1e-6);
    }

    #[test]
    fn shunt_drop_matches_fluke_spec() {
        // Fluke 189 burden: 1.8 mV/mA -> 1.8 ohm
        let drop = Milliamps(300.0).drop_across(1.8);
        assert!((drop.0 - 0.54).abs() < 1e-9, "drop {drop}");
    }

    #[test]
    fn sums() {
        let p: Milliwatts = [Milliwatts(1.0), Milliwatts(2.5)].into_iter().sum();
        assert_eq!(p.0, 3.5);
        let e: Millijoules = [Millijoules(1.0), Millijoules(2.0)].into_iter().sum();
        assert_eq!(e.0, 3.0);
    }

    #[test]
    fn displays() {
        assert_eq!(Milliwatts(76.2).to_string(), "76.20 mW");
        assert_eq!(Millijoules(14076.0).to_string(), "14.076 J");
        assert_eq!(Volts(4.0965).to_string(), "4.0965 V");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn current_at_zero_volts_panics() {
        let _ = Milliwatts(1.0).current_at(Volts(0.0));
    }
}
