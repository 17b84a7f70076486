//! The assembled phone.
//!
//! [`Phone`] ties together profile, power model, battery and optional
//! multimeter, and implements the protection-circuit
//! brown-out the paper ran into: with the meter in series, sustained high
//! current sags the supply below the battery's protection threshold and
//! the phone switches itself off within ~30 s.

use crate::battery::Battery;
use crate::meter::{Multimeter, MultimeterConfig};
use crate::power::{baseline, Consumer, PowerModel};
use crate::profiles::PhoneModel;
use crate::units::Milliwatts;
use simkit::{DetRng, Sim, SimDuration};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// How long a brown-out condition must persist before the protection
/// circuit switches the phone off. The paper observed "less than 30 sec".
const BROWNOUT_GRACE: SimDuration = SimDuration::from_secs(25);

/// Configuration for building a [`Phone`].
#[derive(Clone, Debug)]
pub struct PhoneConfig {
    /// Which hardware profile to instantiate.
    pub model: PhoneModel,
    /// Seed for this device's random stream (meter noise etc.).
    pub seed: u64,
    /// Wire a sampling multimeter in series with the battery.
    pub with_meter: bool,
    /// Start with the display on.
    pub display_on: bool,
    /// Start with the back-light on (implies display on).
    pub backlight_on: bool,
}

impl PhoneConfig {
    /// The paper's default measurement posture: GSM radio off, back-light
    /// off, display off, meter in circuit.
    pub fn measurement(model: PhoneModel) -> Self {
        PhoneConfig {
            model,
            seed: 0x0c0ffee,
            with_meter: true,
            display_on: false,
            backlight_on: false,
        }
    }
}

impl Default for PhoneConfig {
    fn default() -> Self {
        PhoneConfig {
            model: PhoneModel::Nokia6630,
            seed: 0x0c0ffee,
            with_meter: false,
            display_on: false,
            backlight_on: false,
        }
    }
}

struct Inner {
    on: bool,
    battery: Battery,
    brownout_pending: bool,
}

/// Shared handle to a simulated smart phone.
///
/// ```
/// use phone::{Phone, PhoneConfig, PhoneModel};
/// use simkit::Sim;
///
/// let sim = Sim::new();
/// let phone = Phone::new(&sim, PhoneConfig::measurement(PhoneModel::Nokia6630));
/// assert!(phone.is_on());
/// // idle floor from the paper
/// assert!((phone.power().total().0 - 5.75).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct Phone {
    sim: Sim,
    model: PhoneModel,
    power: PowerModel,
    meter: Option<Multimeter>,
    inner: Rc<RefCell<Inner>>,
}

impl Phone {
    /// Builds a phone, registers its baseline consumers, attaches the
    /// meter if requested and arms the brown-out watchdog.
    pub fn new(sim: &Sim, cfg: PhoneConfig) -> Self {
        let mut rng = DetRng::new(cfg.seed);
        let power = PowerModel::new(sim);
        power.set(Consumer::Baseline, baseline::IDLE);
        let meter = if cfg.with_meter {
            Some(Multimeter::new(
                sim,
                MultimeterConfig::default(),
                rng.fork(1),
            ))
        } else {
            None
        };
        let phone = Phone {
            sim: sim.clone(),
            model: cfg.model,
            power: power.clone(),
            meter,
            inner: Rc::new(RefCell::new(Inner {
                on: true,
                battery: Battery::nokia_pack(),
                brownout_pending: false,
            })),
        };
        phone.set_display(cfg.display_on || cfg.backlight_on);
        phone.set_backlight(cfg.backlight_on);
        if let Some(m) = &phone.meter {
            let p = power.clone();
            let inner = phone.inner.clone();
            m.start(move || {
                if inner.borrow().on {
                    let v = inner.borrow().battery.open_circuit();
                    p.total().current_at(v)
                } else {
                    crate::units::Milliamps(0.0)
                }
            });
        }
        // Brown-out watchdog: every power change re-evaluates the supply.
        {
            let weak = Rc::downgrade(&phone.inner);
            let sim2 = sim.clone();
            let shunt = phone.meter.as_ref().map(|m| m.shunt_ohms()).unwrap_or(0.0);
            let power2 = power.clone();
            power.on_change(move |total| {
                let Some(inner_rc) = weak.upgrade() else {
                    return;
                };
                let tripping = {
                    let inner = inner_rc.borrow();
                    if !inner.on {
                        return;
                    }
                    let v = inner.battery.open_circuit();
                    inner
                        .battery
                        .protection_trips(total.current_at(v), shunt)
                };
                if !tripping {
                    inner_rc.borrow_mut().brownout_pending = false;
                    return;
                }
                if inner_rc.borrow().brownout_pending {
                    return;
                }
                inner_rc.borrow_mut().brownout_pending = true;
                let weak2 = Rc::downgrade(&inner_rc);
                let power3 = power2.clone();
                sim2.schedule_in(BROWNOUT_GRACE, move || {
                    let Some(inner_rc) = weak2.upgrade() else {
                        return;
                    };
                    let still = {
                        let inner = inner_rc.borrow();
                        inner.on && inner.brownout_pending && {
                            let v = inner.battery.open_circuit();
                            inner
                                .battery
                                .protection_trips(power3.total().current_at(v), shunt)
                        }
                    };
                    if still {
                        Phone::power_off_inner(&inner_rc, &power3);
                    }
                });
            });
        }
        phone
    }

    fn power_off_inner(inner_rc: &Rc<RefCell<Inner>>, power: &PowerModel) {
        {
            let mut inner = inner_rc.borrow_mut();
            if !inner.on {
                return;
            }
            inner.on = false;
        }
        for c in power.breakdown() {
            power.clear(c.0);
        }
    }

    /// The hardware profile.
    pub fn model(&self) -> PhoneModel {
        self.model
    }

    /// The power accounting handle (radios register their draws here).
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The series multimeter, if one was wired in.
    pub fn meter(&self) -> Option<&Multimeter> {
        self.meter.as_ref()
    }

    /// The simulator this phone lives in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Whether the phone is powered on.
    pub fn is_on(&self) -> bool {
        self.inner.borrow().on
    }

    /// Immediately powers the phone off (also used by the protection
    /// circuit). All consumers drop to zero.
    pub fn power_off(&self) {
        Phone::power_off_inner(&self.inner, &self.power);
    }

    /// Powers the phone back on with the baseline draw (display state is
    /// reset to off, as after a reboot).
    pub fn power_on(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.on {
                return;
            }
            inner.on = true;
            inner.brownout_pending = false;
        }
        self.power.set(Consumer::Baseline, baseline::IDLE);
    }

    /// Turns the display panel on or off.
    pub fn set_display(&self, on: bool) {
        self.power.set(
            Consumer::Display,
            if on { baseline::DISPLAY } else { Milliwatts::ZERO },
        );
    }

    /// Turns the back-light on or off (the paper's WiFi rows include the
    /// back-light cost because the communicator kept it on).
    pub fn set_backlight(&self, on: bool) {
        if on {
            self.set_display(true);
        }
        self.power.set(
            Consumer::Backlight,
            if on { baseline::BACKLIGHT } else { Milliwatts::ZERO },
        );
    }

    /// Marks the Contory middleware as running (adds its 1.64 mW of timer
    /// and bookkeeping overhead measured in §6.1).
    pub fn set_middleware_running(&self, on: bool) {
        self.power.set(
            Consumer::Middleware,
            if on { baseline::CONTORY } else { Milliwatts::ZERO },
        );
    }
}

impl fmt::Debug for Phone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Phone")
            .field("model", &self.model)
            .field("on", &self.is_on())
            .field("total_mw", &self.power.total().0)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn baseline_matches_paper_modes() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::default());
        assert!((p.power().total().0 - 5.75).abs() < 1e-9);
        p.set_display(true);
        assert!((p.power().total().0 - 14.35).abs() < 1e-9);
        p.set_backlight(true);
        assert!((p.power().total().0 - 76.20).abs() < 1e-9);
        p.set_backlight(false);
        p.set_display(false);
        assert!((p.power().total().0 - 5.75).abs() < 1e-9);
    }

    #[test]
    fn middleware_overhead() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::default());
        p.power().set(Consumer::BtRadio, baseline::BT_SCAN);
        p.set_middleware_running(true);
        assert!((p.power().total().0 - 10.11).abs() < 1e-9);
    }

    #[test]
    fn meter_samples_phone_current() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::measurement(PhoneModel::Nokia6630));
        sim.run_for(SimDuration::from_secs(5));
        assert!(p.meter().unwrap().sample_count() >= 9);
    }

    #[test]
    fn wifi_inrush_with_meter_causes_shutdown_within_30s() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::measurement(PhoneModel::Nokia9500));
        // WiFi startup: ~2.5 W in-rush (> 600 mA) through the 1.8 ohm shunt.
        p.power().set(Consumer::WifiRadio, Milliwatts(2500.0));
        sim.run_for(SimDuration::from_secs(30));
        assert!(!p.is_on(), "phone should have browned out");
        assert_eq!(p.power().total(), Milliwatts::ZERO);
    }

    #[test]
    fn wifi_inrush_without_meter_survives() {
        let sim = Sim::new();
        let mut cfg = PhoneConfig::default();
        cfg.model = PhoneModel::Nokia9500;
        let p = Phone::new(&sim, cfg);
        p.power().set(Consumer::WifiRadio, Milliwatts(2500.0));
        sim.run_for(SimDuration::from_secs(60));
        assert!(p.is_on());
    }

    #[test]
    fn brownout_clears_if_load_drops_in_time() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::measurement(PhoneModel::Nokia9500));
        p.power().set(Consumer::WifiRadio, Milliwatts(2500.0));
        sim.run_for(SimDuration::from_secs(10));
        p.power().set(Consumer::WifiRadio, Milliwatts(100.0));
        sim.run_for(SimDuration::from_secs(60));
        assert!(p.is_on(), "load dropped before the grace period expired");
    }

    #[test]
    fn off_listener_fires_and_power_cycle_restores_baseline() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::default());
        p.power_off();
        assert!(!p.is_on());
        assert_eq!(p.power().total().0, 0.0);
        p.power_on();
        assert!(p.is_on());
        assert!((p.power().total().0 - 5.75).abs() < 1e-9);
    }

    #[test]
    fn energy_accounting_via_power_model() {
        let sim = Sim::new();
        let p = Phone::new(&sim, PhoneConfig::default());
        sim.run_for(SimDuration::from_secs(100));
        let e = p.power().energy_between(SimTime::ZERO, sim.now());
        assert!((e.as_joules() - 0.575).abs() < 1e-9);
    }
}
