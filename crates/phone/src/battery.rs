//! Battery and protection-circuit model.
//!
//! The paper's methodology section measured a stable 4.0965 V pack (drift
//! < 2 % in the first hour under high load) and discovered that new
//! low-voltage phones *switch off* when the measurement shunt's burden
//! resistance drops the supply below the protection threshold during WiFi
//! in-rush. [`Battery`] models exactly that: terminal voltage as a function
//! of load current and any series resistance inserted by a meter.

use crate::units::{Milliamps, Volts};

/// A single Lithium-Ion cell with internal resistance and a low-voltage
/// protection circuit.
///
/// ```
/// use phone::{Battery, Milliamps};
/// let b = Battery::nokia_pack();
/// // Light load: comfortably above the protection threshold.
/// assert!(!b.protection_trips(Milliamps(50.0), 0.0));
/// // WiFi in-rush through a 1.8 ohm meter shunt: trips.
/// assert!(b.protection_trips(Milliamps(600.0), 1.8));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Battery {
    open_circuit: Volts,
    internal_ohms: f64,
    protect_below: Volts,
    capacity_mah: f64,
    drawn_mah: f64,
}

impl Battery {
    /// The pack used across the paper's experiments: 4.0965 V full charge,
    /// protection circuit around 3.40 V, ~900 mAh (BL-5C class).
    pub fn nokia_pack() -> Self {
        Battery::new(Volts(4.0965), 0.15, Volts(3.40), 900.0)
    }

    /// Creates a battery.
    ///
    /// # Panics
    ///
    /// Panics if voltages or capacity are non-positive, or if the
    /// protection threshold is not below the open-circuit voltage.
    pub fn new(
        open_circuit: Volts,
        internal_ohms: f64,
        protect_below: Volts,
        capacity_mah: f64,
    ) -> Self {
        assert!(
            open_circuit.0 > 0.0,
            "open-circuit voltage must be positive"
        );
        assert!(
            internal_ohms >= 0.0,
            "internal resistance must be non-negative"
        );
        assert!(
            protect_below.0 > 0.0 && protect_below.0 < open_circuit.0,
            "protection threshold must be below the open-circuit voltage"
        );
        assert!(capacity_mah > 0.0, "capacity must be positive");
        Battery {
            open_circuit,
            internal_ohms,
            protect_below,
            capacity_mah,
            drawn_mah: 0.0,
        }
    }

    /// Nominal (open-circuit) voltage.
    pub fn open_circuit(&self) -> Volts {
        self.open_circuit
    }

    /// Protection-circuit threshold.
    pub fn protect_below(&self) -> Volts {
        self.protect_below
    }

    /// Terminal voltage when `load` flows through the internal resistance
    /// plus `series_ohms` of external (meter/wire) resistance.
    pub fn voltage_under_load(&self, load: Milliamps, series_ohms: f64) -> Volts {
        let sag = load.drop_across(self.internal_ohms + series_ohms);
        Volts(self.open_circuit.0 - sag.0)
    }

    /// Whether the protection circuit would trip at this load.
    pub fn protection_trips(&self, load: Milliamps, series_ohms: f64) -> bool {
        self.voltage_under_load(load, series_ohms).0 < self.protect_below.0
    }

    /// Records charge drawn (for battery-life estimates in the sailing
    /// scenario). `hours` of `load` at the terminal.
    pub fn drain(&mut self, load: Milliamps, hours: f64) {
        self.drawn_mah = (self.drawn_mah + load.0 * hours).min(self.capacity_mah);
    }

    /// Remaining state of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        1.0 - self.drawn_mah / self.capacity_mah
    }

    /// True once the pack is fully drained.
    pub fn is_empty(&self) -> bool {
        self.state_of_charge() <= 0.0
    }
}

impl Default for Battery {
    fn default() -> Self {
        Battery::nokia_pack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_sags_with_load_and_series_resistance() {
        let b = Battery::nokia_pack();
        let v0 = b.voltage_under_load(Milliamps(0.0), 0.0);
        assert_eq!(v0, Volts(4.0965));
        let v = b.voltage_under_load(Milliamps(300.0), 1.8);
        // 300 mA * 1.95 ohm = 0.585 V of sag
        assert!((v.0 - (4.0965 - 0.585)).abs() < 1e-9);
    }

    #[test]
    fn wifi_inrush_with_meter_trips_protection() {
        // The paper: communicator switched off < 30 s after WiFi came up
        // whenever the multimeter was in circuit.
        let b = Battery::nokia_pack();
        assert!(b.protection_trips(Milliamps(600.0), 1.8));
        // Without the meter the same in-rush survives.
        assert!(!b.protection_trips(Milliamps(600.0), 0.0));
    }

    #[test]
    fn bt_load_never_trips() {
        let b = Battery::nokia_pack();
        // BT inquiry ~ 100 mA worst case, even with the meter in series.
        assert!(!b.protection_trips(Milliamps(100.0), 1.8));
    }

    #[test]
    fn drain_and_soc() {
        let mut b = Battery::nokia_pack();
        assert_eq!(b.state_of_charge(), 1.0);
        b.drain(Milliamps(450.0), 1.0);
        assert!((b.state_of_charge() - 0.5).abs() < 1e-9);
        b.drain(Milliamps(450.0), 2.0);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "below the open-circuit")]
    fn bad_threshold_panics() {
        let _ = Battery::new(Volts(4.0), 0.1, Volts(4.5), 900.0);
    }
}
