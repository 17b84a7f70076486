//! Sampling multimeter (the paper's Fluke 189).
//!
//! The meter sits in series between battery and phone (paper Fig. 3),
//! reads current roughly every 500 ms, and perturbs the circuit through
//! its shunt resistance (1.8 mV/mA). Accuracy 0.75 %, precision 0.15 %;
//! the paper derives a worst-case experiment inaccuracy of ~8 %.

use crate::units::{Milliamps, Millijoules, Milliwatts, Volts};
use simkit::trace::TimeSeries;
use simkit::{DetRng, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of a [`Multimeter`].
#[derive(Clone, Debug, PartialEq)]
pub struct MultimeterConfig {
    /// Sampling period; the Fluke logged ~every 500 ms.
    pub sample_period: SimDuration,
    /// Shunt burden, volts dropped per amp (1.8 mV/mA → 1.8 Ω).
    pub shunt_ohms: f64,
    /// Gain error, fraction of reading (0.75 %).
    pub accuracy: f64,
    /// Random per-sample noise, fraction of reading (0.15 %).
    pub precision: f64,
}

impl Default for MultimeterConfig {
    fn default() -> Self {
        MultimeterConfig {
            sample_period: SimDuration::from_millis(500),
            shunt_ohms: 1.8,
            accuracy: 0.0075,
            precision: 0.0015,
        }
    }
}

struct Inner {
    cfg: MultimeterConfig,
    readings: TimeSeries,
    gain: f64,
    rng: DetRng,
    running: bool,
}

/// A sampling ammeter in series with the phone's battery.
///
/// Call [`Multimeter::start`] with a closure that reports the true load
/// current; the meter then samples on its own schedule. Energy estimates
/// come from the *sampled* readings, exactly like the paper's PC-logged
/// meter — so they inherit the same quantization and gain error.
#[derive(Clone)]
pub struct Multimeter {
    inner: Rc<RefCell<Inner>>,
    sim: Sim,
}

impl Multimeter {
    /// Creates a meter. The gain error is drawn once per instrument, as a
    /// real miscalibration would be, from ±`accuracy`.
    pub fn new(sim: &Sim, cfg: MultimeterConfig, mut rng: DetRng) -> Self {
        let gain = 1.0 + rng.range_f64(-cfg.accuracy, cfg.accuracy);
        Multimeter {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                readings: TimeSeries::new("current_ma"),
                gain,
                rng,
                running: false,
            })),
            sim: sim.clone(),
        }
    }

    /// Series resistance this meter inserts into the circuit.
    pub fn shunt_ohms(&self) -> f64 {
        self.inner.borrow().cfg.shunt_ohms
    }

    /// Starts periodic sampling; `read_current` must return the true load
    /// current at call time. Sampling stops when [`Multimeter::stop`] is
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if the meter is already running.
    pub fn start(&self, read_current: impl Fn() -> Milliamps + 'static) {
        {
            let mut inner = self.inner.borrow_mut();
            assert!(!inner.running, "multimeter already started");
            inner.running = true;
        }
        let handle = self.inner.clone();
        let sim = self.sim.clone();
        let period = self.inner.borrow().cfg.sample_period;
        self.sim.schedule_repeating(period, move || {
            let mut inner = handle.borrow_mut();
            if !inner.running {
                return false;
            }
            let truth = read_current().0;
            let precision = inner.cfg.precision;
            let noise = 1.0 + inner.rng.range_f64(-precision, precision);
            let gain = inner.gain;
            let reading = truth * gain * noise;
            let now = sim.now();
            inner.readings.record(now, reading);
            true
        });
    }

    /// Stops sampling (the recorded series is kept).
    pub fn stop(&self) {
        self.inner.borrow_mut().running = false;
    }

    /// Number of samples logged so far.
    pub fn sample_count(&self) -> usize {
        self.inner.borrow().readings.len()
    }

    /// Copy of the logged current series (mA).
    pub fn readings(&self) -> TimeSeries {
        self.inner.borrow().readings.clone()
    }

    /// Mean measured current over a window, from the sampled step function.
    pub fn mean_current(&self, from: SimTime, to: SimTime) -> Milliamps {
        Milliamps(self.inner.borrow().readings.mean_between(from, to))
    }

    /// Energy estimate over a window: measured current × assumed supply
    /// voltage, integrated over the sampled step function — the same
    /// computation the paper performs from its meter logs via Ohm's law.
    pub fn energy_between(&self, from: SimTime, to: SimTime, supply: Volts) -> Millijoules {
        let ma_secs = self.inner.borrow().readings.integrate(from, to);
        Millijoules(ma_secs * supply.0)
    }

    /// Mean power over a window at the assumed supply voltage.
    pub fn mean_power(&self, from: SimTime, to: SimTime, supply: Volts) -> Milliwatts {
        self.mean_current(from, to).power_at(supply)
    }
}

impl std::fmt::Debug for Multimeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multimeter")
            .field("samples", &self.sample_count())
            .field("running", &self.inner.borrow().running)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter(sim: &Sim) -> Multimeter {
        Multimeter::new(sim, MultimeterConfig::default(), DetRng::new(99))
    }

    #[test]
    fn samples_every_500ms() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(10.0));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(m.sample_count(), 10);
    }

    #[test]
    fn reading_error_within_spec() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(100.0));
        sim.run_for(SimDuration::from_secs(60));
        for (_, v) in m.readings().iter() {
            // gain (0.75%) + noise (0.15%) < 1% total
            assert!((v - 100.0).abs() < 1.0, "reading {v}");
        }
    }

    #[test]
    fn energy_close_to_truth() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(244.1)); // ~1000 mW at 4.0965 V
        sim.run_for(SimDuration::from_secs(10));
        let e = m.energy_between(SimTime::ZERO, sim.now(), Volts(4.0965));
        let truth = 244.1 * 4.0965 * 10.0; // mJ
                                           // First 500 ms are unsampled (meter starts at its first tick), so
                                           // allow that bias plus the <1% instrument error.
        assert!(
            (e.0 - truth).abs() / truth < 0.06,
            "e={} truth={truth}",
            e.0
        );
    }

    #[test]
    fn stop_halts_sampling() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(1.0));
        sim.run_for(SimDuration::from_secs(2));
        m.stop();
        let n = m.sample_count();
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(m.sample_count(), n);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(1.0));
        m.start(|| Milliamps(1.0));
    }

    #[test]
    fn mean_power_uses_supply_voltage() {
        let sim = Sim::new();
        let m = meter(&sim);
        m.start(|| Milliamps(100.0));
        sim.run_for(SimDuration::from_secs(10));
        let p = m.mean_power(SimTime::from_secs(1), sim.now(), Volts(4.0));
        assert!((p.0 - 400.0).abs() < 5.0, "p {p}");
    }
}
