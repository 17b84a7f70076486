//! Step-function time series.
//!
//! [`TimeSeries`] records `(time, value)` samples where each value holds
//! until the next sample — exactly how a power rail behaves between state
//! changes. It supports time-weighted averaging, integration (energy =
//! ∫ power dt), resampling at a fixed period (the paper's Fluke 189 sampled
//! every 500 ms) and a small ASCII renderer used by the figure binaries.

use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A named step-function time series.
///
/// ```
/// use simkit::trace::TimeSeries;
/// use simkit::{SimTime, SimDuration};
///
/// let mut ts = TimeSeries::new("power_mw");
/// ts.record(SimTime::ZERO, 10.0);
/// ts.record(SimTime::from_secs(1), 30.0);
/// // 10 mW for 1 s + 30 mW for 1 s = 40 mJ over [0, 2 s]
/// let mj = ts.integrate(SimTime::ZERO, SimTime::from_secs(2));
/// assert!((mj - 40.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a name (used as the CSV column header).
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples must be recorded in non-decreasing time
    /// order; a sample at the same instant as the previous one replaces it.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded sample.
    pub fn record(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "samples must be time-ordered");
            if t == last {
                if let Some(p) = self.points.last_mut() {
                    p.1 = value;
                }
                return;
            }
        }
        self.points.push((t, value));
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Value in effect at time `t` (`None` before the first sample).
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let i = self.points.partition_point(|&(pt, _)| pt <= t);
        self.points.get(i.checked_sub(1)?).map(|&(_, v)| v)
    }

    /// Largest recorded value (`None` if empty).
    pub fn max_value(&self) -> Option<f64> {
        let mut max = None;
        for &(_, v) in &self.points {
            max = Some(match max {
                None => v,
                Some(m) => f64::max(m, v),
            });
        }
        max
    }

    /// Integral of the step function over `[from, to]`, in value × seconds.
    /// With values in milliwatts this yields millijoules.
    ///
    /// Time before the first sample contributes zero.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &(t, v)) in self.points.iter().enumerate() {
            let seg_start = t.max(from);
            let seg_end = match self.points.get(i + 1) {
                Some(&(next, _)) => next.min(to),
                None => to,
            };
            if seg_end > seg_start {
                acc += v * (seg_end - seg_start).as_secs_f64();
            }
            if t >= to {
                break;
            }
        }
        acc
    }

    /// Time-weighted mean value over `[from, to]`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integrate(from, to) / span
    }

    /// Resamples the step function every `period` over `[from, to)`,
    /// mimicking a sampling multimeter. Times before the first sample read
    /// as 0.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn resample(&self, from: SimTime, to: SimTime, period: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!period.is_zero(), "resample period must be non-zero");
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            out.push((t, self.value_at(t).unwrap_or(0.0)));
            t += period;
        }
        out
    }

    /// Renders an ASCII plot (`width` columns × `height` rows) of the series
    /// over `[from, to]`, used by the figure-regeneration binaries.
    pub fn ascii_plot(&self, from: SimTime, to: SimTime, width: usize, height: usize) -> String {
        let width = width.max(8);
        let height = height.max(3);
        let lo = 0.0_f64;
        let hi = self.max_value().unwrap_or(1.0).max(1e-9);
        let span = (to - from).as_secs_f64().max(1e-9);
        let mut grid = vec![vec![' '; width]; height];
        for col in 0..width {
            let t = from + SimDuration::from_secs_f64(span * col as f64 / width as f64);
            let v = self.value_at(t).unwrap_or(0.0);
            let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            let bar = (frac * (height - 1) as f64).round() as usize;
            for (row, grid_row) in grid.iter_mut().enumerate() {
                // row 0 is the top of the plot
                let level = height - 1 - row;
                if level <= bar && v > 0.0 || (level == 0) {
                    if let Some(cell) = grid_row.get_mut(col) {
                        *cell = if level == bar { '*' } else { '.' };
                    }
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} (max {:.1})", self.name, hi);
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "+{} {:.0}s..{:.0}s",
            "-".repeat(width),
            from.as_secs_f64(),
            to.as_secs_f64()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_steps() {
        let mut ts = TimeSeries::new("p");
        ts.record(secs(1), 5.0);
        ts.record(secs(3), 7.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert_eq!(ts.value_at(secs(1)), Some(5.0));
        assert_eq!(ts.value_at(secs(2)), Some(5.0));
        assert_eq!(ts.value_at(secs(3)), Some(7.0));
        assert_eq!(ts.value_at(secs(99)), Some(7.0));
    }

    #[test]
    fn same_instant_replaces() {
        let mut ts = TimeSeries::new("p");
        ts.record(secs(1), 5.0);
        ts.record(secs(1), 9.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(secs(1)), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_panics() {
        let mut ts = TimeSeries::new("p");
        ts.record(secs(2), 1.0);
        ts.record(secs(1), 1.0);
    }

    #[test]
    fn integrate_spans_segments() {
        let mut ts = TimeSeries::new("p");
        ts.record(SimTime::ZERO, 10.0);
        ts.record(secs(2), 20.0);
        // [0,2): 10*2 = 20; [2,5): 20*3 = 60
        assert!((ts.integrate(SimTime::ZERO, secs(5)) - 80.0).abs() < 1e-9);
        // partial window
        assert!((ts.integrate(secs(1), secs(3)) - 30.0).abs() < 1e-9);
        // empty window
        assert_eq!(ts.integrate(secs(3), secs(3)), 0.0);
    }

    #[test]
    fn integrate_before_first_sample_is_zero() {
        let mut ts = TimeSeries::new("p");
        ts.record(secs(5), 100.0);
        assert_eq!(ts.integrate(SimTime::ZERO, secs(5)), 0.0);
        assert!((ts.integrate(SimTime::ZERO, secs(6)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_between_is_time_weighted() {
        let mut ts = TimeSeries::new("p");
        ts.record(SimTime::ZERO, 0.0);
        ts.record(secs(1), 100.0);
        let m = ts.mean_between(SimTime::ZERO, secs(2));
        assert!((m - 50.0).abs() < 1e-9);
    }

    #[test]
    fn resample_period() {
        let mut ts = TimeSeries::new("p");
        ts.record(SimTime::ZERO, 1.0);
        ts.record(secs(1), 2.0);
        let samples = ts.resample(SimTime::ZERO, secs(2), SimDuration::from_millis(500));
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].1, 1.0);
        assert_eq!(samples[1].1, 1.0);
        assert_eq!(samples[2].1, 2.0);
        assert_eq!(samples[3].1, 2.0);
    }

    #[test]
    fn min_max_values() {
        let mut ts = TimeSeries::new("p");
        assert_eq!(ts.max_value(), None);
        ts.record(SimTime::ZERO, 3.0);
        ts.record(secs(1), -1.0);
        assert_eq!(ts.max_value(), Some(3.0));
    }

    #[test]
    fn ascii_plot_has_expected_shape() {
        let mut ts = TimeSeries::new("p");
        ts.record(SimTime::ZERO, 0.0);
        ts.record(secs(5), 100.0);
        let plot = ts.ascii_plot(SimTime::ZERO, secs(10), 40, 8);
        assert!(plot.contains('*'));
        assert_eq!(plot.lines().count(), 8 + 2);
    }
}
