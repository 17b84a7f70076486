//! Power-consumer registry and draw trace.
//!
//! Every hardware block that draws current registers under a [`Consumer`]
//! key and updates its draw as its state changes; [`PowerModel`] sums the
//! draws and appends each change to a step-function [`TimeSeries`], from
//! which energy over any window is an exact integral.
//!
//! The idle-mode constants in [`baseline`] are the paper's own
//! measurements (§6.1, GSM radio off).

use crate::units::Milliwatts;
use simkit::trace::TimeSeries;
use simkit::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Baseline draw constants measured in the paper (§6.1), GSM radio off.
pub mod baseline {
    use crate::units::Milliwatts;

    /// Everything interesting off: no BT, no back-light, no display.
    pub const IDLE: Milliwatts = Milliwatts(5.75);
    /// Display on (back-light off) adds 8.60 mW over idle (14.35 total).
    pub const DISPLAY: Milliwatts = Milliwatts(14.35 - 5.75);
    /// Back-light adds 61.85 mW over display-on (76.20 total).
    pub const BACKLIGHT: Milliwatts = Milliwatts(76.20 - 14.35);
    /// BT in page and inquiry scan state adds 2.72 mW (8.47 total).
    pub const BT_SCAN: Milliwatts = Milliwatts(8.47 - 5.75);
    /// The Contory middleware itself adds 1.64 mW (10.11 total).
    pub const CONTORY: Milliwatts = Milliwatts(10.11 - 8.47);
}

/// A hardware or software block that draws power.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Consumer {
    /// Always-on platform floor (Symbian kernel, RAM refresh…).
    Baseline,
    /// LCD panel.
    Display,
    /// LCD back-light.
    Backlight,
    /// Bluetooth radio.
    BtRadio,
    /// 802.11b WLAN radio.
    WifiRadio,
    /// 2G/3G cellular radio.
    CellRadio,
    /// CPU load above idle.
    Cpu,
    /// Middleware overhead (timers, bookkeeping).
    Middleware,
    /// Anything else (e.g. an attached peripheral), labelled.
    Other(&'static str),
}

impl fmt::Display for Consumer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consumer::Other(name) => f.write_str(name),
            other => write!(f, "{other:?}"),
        }
    }
}

struct Inner {
    sim: Sim,
    draws: BTreeMap<Consumer, f64>,
    trace: TimeSeries,
    listeners: Vec<Rc<dyn Fn(Milliwatts)>>,
}

impl Inner {
    /// The draws summed in consumer order. The sum starts at -0.0, as
    /// `Iterator::sum` does, so a model with no consumers totals -0.0.
    fn total(&self) -> f64 {
        let mut total = -0.0;
        for draw in self.draws.values() {
            total += draw;
        }
        total
    }
}

/// Shared handle to a device's power accounting.
///
/// ```
/// use phone::{Consumer, Milliwatts, PowerModel};
/// use simkit::{Sim, SimDuration, SimTime};
///
/// let sim = Sim::new();
/// let power = PowerModel::new(&sim);
/// power.set(Consumer::Baseline, Milliwatts(5.75));
/// sim.run_for(SimDuration::from_secs(10));
/// power.set(Consumer::BtRadio, Milliwatts(2.72));
/// sim.run_for(SimDuration::from_secs(10));
/// let e = power.energy_between(SimTime::ZERO, sim.now());
/// assert!((e.as_joules() - (0.05750 + 0.08470)).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct PowerModel {
    inner: Rc<RefCell<Inner>>,
}

impl PowerModel {
    /// Creates a power model with no consumers registered.
    pub fn new(sim: &Sim) -> Self {
        let mut trace = TimeSeries::new("power_mw");
        trace.record(sim.now(), 0.0);
        PowerModel {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                draws: BTreeMap::new(),
                trace,
                listeners: Vec::new(),
            })),
        }
    }

    /// Sets (or registers) `consumer`'s draw and records the new total.
    ///
    /// # Panics
    ///
    /// Panics if the draw is negative or not finite.
    pub fn set(&self, consumer: Consumer, draw: Milliwatts) {
        assert!(
            draw.0.is_finite() && draw.0 >= 0.0,
            "power draw must be finite and non-negative, got {draw}"
        );
        let total = {
            let mut inner = self.inner.borrow_mut();
            inner.draws.insert(consumer, draw.0);
            let now = inner.sim.now();
            let total = inner.total();
            inner.trace.record(now, total);
            total
        };
        self.notify(Milliwatts(total));
    }

    /// Removes a consumer entirely (equivalent to a zero draw, but also
    /// drops it from [`PowerModel::breakdown`]).
    pub fn clear(&self, consumer: Consumer) {
        let total = {
            let mut inner = self.inner.borrow_mut();
            inner.draws.remove(&consumer);
            let now = inner.sim.now();
            let total = inner.total();
            inner.trace.record(now, total);
            total
        };
        self.notify(Milliwatts(total));
    }

    fn notify(&self, total: Milliwatts) {
        // Clone the handles out so listeners can read (or even mutate) the
        // model without hitting a RefCell re-borrow.
        let listeners: Vec<Rc<dyn Fn(Milliwatts)>> = self.inner.borrow().listeners.clone();
        for f in listeners {
            f(total);
        }
    }

    /// Current draw of a single consumer, if registered.
    pub fn get(&self, consumer: Consumer) -> Option<Milliwatts> {
        self.inner
            .borrow()
            .draws
            .get(&consumer)
            .map(|&v| Milliwatts(v))
    }

    /// Current total draw.
    pub fn total(&self) -> Milliwatts {
        Milliwatts(self.inner.borrow().total())
    }

    /// Per-consumer breakdown at this instant.
    pub fn breakdown(&self) -> Vec<(Consumer, Milliwatts)> {
        self.inner
            .borrow()
            .draws
            .iter()
            .map(|(&c, &v)| (c, Milliwatts(v)))
            .collect()
    }

    /// Exact energy drawn over `[from, to]` (integral of the trace).
    pub fn energy_between(&self, from: SimTime, to: SimTime) -> crate::units::Millijoules {
        crate::units::Millijoules(self.inner.borrow().trace.integrate(from, to))
    }

    /// Time-weighted average draw over `[from, to]`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> Milliwatts {
        Milliwatts(self.inner.borrow().trace.mean_between(from, to))
    }

    /// A copy of the full power trace (for figures).
    pub fn trace_snapshot(&self) -> TimeSeries {
        self.inner.borrow().trace.clone()
    }

    /// Registers a listener invoked after every total-draw change.
    pub fn on_change(&self, f: impl Fn(Milliwatts) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }
}

impl fmt::Debug for PowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerModel")
            .field("total_mw", &self.total().0)
            .field("consumers", &self.inner.borrow().draws.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn totals_sum_consumers() {
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        p.set(Consumer::Baseline, baseline::IDLE);
        p.set(Consumer::BtRadio, baseline::BT_SCAN);
        assert!((p.total().0 - 8.47).abs() < 1e-9);
        p.set(Consumer::Middleware, baseline::CONTORY);
        assert!((p.total().0 - 10.11).abs() < 1e-9);
    }

    #[test]
    fn paper_idle_modes_reproduced() {
        // §6.1: 76.20 -> 14.35 -> 5.75 mW as back-light then display go off.
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        p.set(Consumer::Baseline, baseline::IDLE);
        p.set(Consumer::Display, baseline::DISPLAY);
        p.set(Consumer::Backlight, baseline::BACKLIGHT);
        assert!((p.total().0 - 76.20).abs() < 1e-9);
        p.set(Consumer::Backlight, Milliwatts::ZERO);
        assert!((p.total().0 - 14.35).abs() < 1e-9);
        p.set(Consumer::Display, Milliwatts::ZERO);
        assert!((p.total().0 - 5.75).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates_over_changes() {
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        p.set(Consumer::Cpu, Milliwatts(100.0));
        sim.run_for(SimDuration::from_secs(1));
        p.set(Consumer::Cpu, Milliwatts(300.0));
        sim.run_for(SimDuration::from_secs(1));
        p.set(Consumer::Cpu, Milliwatts::ZERO);
        let e = p.energy_between(SimTime::ZERO, sim.now());
        assert!((e.0 - 400.0).abs() < 1e-6, "got {e}");
        let m = p.mean_between(SimTime::ZERO, sim.now());
        assert!((m.0 - 200.0).abs() < 1e-6);
    }

    #[test]
    fn clear_removes_consumer() {
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        p.set(Consumer::WifiRadio, Milliwatts(1190.0));
        assert_eq!(p.breakdown().len(), 1);
        p.clear(Consumer::WifiRadio);
        assert_eq!(p.breakdown().len(), 0);
        assert_eq!(p.total(), Milliwatts::ZERO);
        assert_eq!(p.get(Consumer::WifiRadio), None);
    }

    #[test]
    fn listener_sees_new_total() {
        use std::cell::Cell;
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        let seen = Rc::new(Cell::new(0.0));
        let s = seen.clone();
        p.on_change(move |total| s.set(total.0));
        p.set(Consumer::Cpu, Milliwatts(42.0));
        assert_eq!(seen.get(), 42.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_draw_panics() {
        let sim = Sim::new();
        let p = PowerModel::new(&sim);
        p.set(Consumer::Cpu, Milliwatts(-1.0));
    }
}
