//! Online statistics and confidence intervals.
//!
//! The paper reports every measurement as `avg [90% confidence interval
//! half-width]`; [`Summary`] produces exactly that pair. Small samples use
//! Student's t critical values, larger ones the normal approximation.

use std::fmt;

/// Student's t critical values for a two-sided 90 % interval (α = 0.05 per
/// tail), indexed by degrees of freedom 1..=30.
const T90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

/// z-value for a two-sided 90 % interval under the normal approximation.
const Z90: f64 = 1.645;

/// Welford online accumulator for mean / variance / extrema.
///
/// ```
/// use simkit::stats::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert!(s.ci90_half() > 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in samples {
            s.push(v);
        }
        s
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the two-sided 90 % confidence interval on the mean —
    /// the bracketed number the paper prints next to every average.
    pub fn ci90_half(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        // `n ≥ 2`, so `df ≥ 1`; beyond the table the normal value holds.
        let df = (self.n - 1) as usize;
        let crit = T90.get(df - 1).copied().unwrap_or(Z90);
        crit * self.sem()
    }

    /// Smallest sample seen (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    /// Paper-style `avg [half-width]` rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} [{:.3}]", self.mean(), self.ci90_half())
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci90_half(), 0.0);
    }

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&data);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive unbiased variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn ci90_uses_t_for_small_samples() {
        // n=2, df=1 -> t = 6.314
        let s = Summary::of(&[0.0, 2.0]);
        // std = sqrt(2), sem = 1
        assert!((s.ci90_half() - 6.314).abs() < 1e-9);
    }

    #[test]
    fn ci90_uses_z_for_large_samples() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::of(&data);
        let expect = Z90 * s.sem();
        assert!((s.ci90_half() - expect).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined() {
        let a: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let b: Vec<f64> = (0..70).map(|i| (i as f64).cos() * 3.0 + 1.0).collect();
        let mut m = Summary::of(&a);
        m.merge(&Summary::of(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let full = Summary::of(&all);
        assert_eq!(m.count(), full.count());
        assert!((m.mean() - full.mean()).abs() < 1e-9);
        assert!((m.variance() - full.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Summary::new();
        a.merge(&Summary::of(&[1.0, 2.0]));
        assert_eq!(a.count(), 2);
        let mut b = Summary::of(&[1.0, 2.0]);
        b.merge(&Summary::new());
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn display_is_paper_style() {
        let s = Summary::of(&[1.0, 1.0, 1.0]);
        assert_eq!(s.to_string(), "1.000 [0.000]");
    }

    #[test]
    fn from_iterator() {
        let s: Summary = (1..=3).map(|v| v as f64).collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }
}
