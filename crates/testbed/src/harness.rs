//! Measurement harness reproducing the paper's methodology: repeat an
//! operation, report `avg [90 % CI]`; read energy from the phone's power
//! trace (or the series multimeter) over the operation window.

use phone::{Millijoules, Milliwatts, Phone};
use simkit::stats::Summary;
use simkit::{Sim, SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// Runs the simulation until `flag` is set, returning the elapsed time.
///
/// # Panics
///
/// Panics if `max` elapses first (the operation never completed).
pub fn run_until_flag(sim: &Sim, flag: &Rc<Cell<bool>>, max: SimDuration) -> SimDuration {
    let t0 = sim.now();
    let deadline = t0 + max;
    while !flag.get() {
        assert!(
            sim.now() <= deadline,
            "operation did not complete within {max}"
        );
        assert!(
            sim.step(),
            "simulation drained before the operation completed"
        );
    }
    sim.now() - t0
}

/// Repeats an asynchronous operation `n` times and summarizes the
/// completion latencies in milliseconds (the unit of the paper's
/// Table 1). Between repetitions the simulation settles for `settle`
/// (letting radio tails drain, as the paper's short spaced experiments
/// did).
pub fn measure_async(
    sim: &Sim,
    n: usize,
    settle: SimDuration,
    mut op: impl FnMut(usize, Box<dyn FnOnce()>),
) -> Summary {
    let mut latencies = Summary::new();
    for i in 0..n {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let t0 = sim.now();
        op(i, Box::new(move || d.set(true)));
        while !done.get() {
            assert!(sim.step(), "operation {i} never completed");
        }
        latencies.push((sim.now() - t0).as_millis_f64());
        sim.run_for(settle);
    }
    latencies
}

/// Energy accounting over a window of a phone's life, with baseline
/// subtraction — the paper reports *per-operation* energy beyond the
/// idle floor.
pub struct EnergyProbe {
    phone: Phone,
    sim: Sim,
    start: SimTime,
}

impl EnergyProbe {
    /// Starts a probe now.
    pub fn start(sim: &Sim, phone: &Phone) -> Self {
        EnergyProbe {
            phone: phone.clone(),
            sim: sim.clone(),
            start: sim.now(),
        }
    }

    /// Total energy drawn since the probe started.
    pub fn total(&self) -> Millijoules {
        self.phone
            .power()
            .energy_between(self.start, self.sim.now())
    }

    /// Energy beyond a constant baseline draw.
    pub fn above_baseline(&self, baseline: Milliwatts) -> Millijoules {
        let window = self.sim.now() - self.start;
        let floor = baseline * window;
        Millijoules((self.total().0 - floor.0).max(0.0))
    }

    /// Mean power over the probe window.
    pub fn mean_power(&self) -> Milliwatts {
        self.phone.power().mean_between(self.start, self.sim.now())
    }

    /// Elapsed probe time.
    pub fn elapsed(&self) -> SimDuration {
        self.sim.now() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phone::{Consumer, PhoneConfig};

    #[test]
    fn run_until_flag_advances_to_the_event() {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        let f = flag.clone();
        sim.schedule_in(SimDuration::from_millis(250), move || f.set(true));
        let took = run_until_flag(&sim, &flag, SimDuration::from_secs(1));
        assert_eq!(took, SimDuration::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "drained")]
    fn run_until_flag_panics_when_nothing_happens() {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        run_until_flag(&sim, &flag, SimDuration::from_secs(1));
    }

    #[test]
    fn measure_async_summarizes_latencies() {
        let sim = Sim::new();
        let s = sim.clone();
        let summary = measure_async(&sim, 5, SimDuration::from_millis(10), move |_i, done| {
            s.schedule_in(SimDuration::from_millis(100), done);
        });
        assert_eq!(summary.count(), 5);
        assert!((summary.mean() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn energy_probe_subtracts_baseline() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let probe = EnergyProbe::start(&sim, &phone);
        phone.power().set(Consumer::Cpu, Milliwatts(100.0));
        sim.run_for(SimDuration::from_secs(10));
        phone.power().set(Consumer::Cpu, Milliwatts(0.0));
        // total = (5.75 baseline + 100) * 10 s
        assert!((probe.total().as_joules() - 1.0575).abs() < 1e-6);
        let extra = probe.above_baseline(Milliwatts(5.75));
        assert!((extra.as_joules() - 1.0).abs() < 1e-6);
    }
}
