//! Log2-bucketed histograms.
//!
//! A [`Histogram`] summarizes a stream of `u64` observations
//! (microseconds, bytes, event counts) into power-of-two buckets.
//! Merging is exact: it equals recording both streams into one.
//!
//! Only the buckets from the smallest observation's to the largest's
//! are stored, in one `Vec`, so both of its ends are non-empty and the
//! derived `==` compares streams. A fleet device's fan-out latencies
//! span 1–6 buckets, so this is smaller than 65 counters or a map node.
//!
//! It lives in simkit because the engine profile records into it and
//! the engine must not depend on obskit, which re-exports it.
//!
//! Quantiles resolve to the *upper bound* of the bucket holding the
//! requested rank, so `quantile(q)` is non-decreasing in `q`.

/// Bucket index for a value: `64 - leading_zeros(v)`, so 0 maps to
/// bucket 0 and bucket `b > 0` covers `[2^(b-1), 2^b - 1]`.
fn bucket_of(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Inclusive upper bound of bucket `b` (at most 64).
fn bucket_upper(b: u32) -> u64 {
    u64::MAX.checked_shr(64 - b).unwrap_or(0)
}

/// A deterministic log2-bucketed histogram over `u64` observations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Counts of buckets `bucket_of(min)..=bucket_of(max)`; empty until
    /// the first observation.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.widen(v, v);
        let at = bucket_of(v) - bucket_of(self.min);
        if let Some(c) = self.counts.get_mut(at as usize) {
            *c += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds another histogram into this one. Exact: the result is
    /// indistinguishable from having recorded both streams here.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.widen(other.min, other.max);
        let offset = (bucket_of(other.min) - bucket_of(self.min)) as usize;
        let span = self.counts.iter_mut().skip(offset);
        for (c, n) in span.zip(&other.counts) {
            *c += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Extends `min`, `max` and the stored bucket span to cover
    /// `lo..=hi`; new buckets start at zero.
    fn widen(&mut self, lo: u64, hi: u64) {
        if self.counts.is_empty() {
            self.min = lo;
            self.max = lo;
            self.counts.push(0);
        } else if lo < self.min {
            let front = (bucket_of(self.min) - bucket_of(lo)) as usize;
            self.counts.splice(..0, std::iter::repeat_n(0, front));
            self.min = lo;
        }
        if hi > self.max {
            self.max = hi;
            let span = bucket_of(hi) - bucket_of(self.min) + 1;
            self.counts.resize(span as usize, 0);
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer (floor) mean, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Exact mean as a float, or 0.0 when empty.
    pub fn mean_f64(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// observation of rank `ceil(q * count)` (clamped to `[1, count]`).
    ///
    /// Returns 0 when the histogram is empty. `q` is clamped to
    /// `[0.0, 1.0]`; the result is monotonically non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (upper, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as ascending `(inclusive_upper_bound, count)`
    /// pairs, for exporters.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (bucket_of(self.min)..)
            .zip(&self.counts)
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| (bucket_upper(b), *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn record_tracks_stats() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(100);
        h.record(7);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn empty_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.mean_f64(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn log2_hist_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1013);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 168);
        // 0 → bucket 0 (upper 0); 1,1 → upper 1; 3 → upper 3;
        // 8 → upper 15; 1000 → upper 1023. Empty buckets are skipped.
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 2), (3, 1), (15, 1), (1023, 1)]);
    }

    #[test]
    fn merge_equals_joint_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut joint = Histogram::new();
        for v in [1u64, 5, 9, 1000] {
            a.record(v);
            joint.record(v);
        }
        for v in [0u64, 42, 1 << 40] {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn quantile_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [2u64, 2, 8, 120, 4096] {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            assert!(q >= last, "quantile not monotone at {i}");
            last = q;
        }
        assert!(h.quantile(1.0) >= h.max());
    }

    fn recorded(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(*v);
        }
        h
    }

    proptest! {
        /// The span form is canonical: any recording order and any
        /// split merged in either order give `==` histograms, including
        /// at the extreme buckets 0 and 64.
        #[test]
        fn any_order_or_split_gives_equal_histograms(
            values in collection::vec(
                prop_oneof![
                    Just(0u64),
                    Just(u64::MAX),
                    0u64..64,
                    0u64..1 << 24,
                    0u64..u64::MAX,
                ],
                0..40,
            ),
            split in 0usize..40,
        ) {
            let whole = recorded(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(recorded(&sorted), whole.clone());
            let (a, b) = values.split_at(split.min(values.len()));
            let mut ab = recorded(a);
            ab.merge(&recorded(b));
            prop_assert_eq!(ab, whole.clone());
            let mut ba = recorded(b);
            ba.merge(&recorded(a));
            prop_assert_eq!(ba, whole);
        }
    }
}
