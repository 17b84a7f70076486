//! Property tests for the histogram obskit re-exports and a same-seed
//! determinism check over the exporters.
//!
//! The histogram properties pin down the invariants the break-up and
//! snapshot reports rely on: recording never loses mass, merging two
//! histograms equals recording the concatenation, and quantiles are
//! monotone in `q`. The determinism test drives two identical workloads
//! through two collectors and asserts the JSONL span stream and the
//! Prometheus-style snapshot are byte-identical.

use obskit::{Histogram, Obs, Phase};
use proptest::collection;
use proptest::prelude::*;
use simkit::{DetRng, SimDuration, SimTime};

proptest! {
    #[test]
    fn record_preserves_count_sum_min_max(
        values in collection::vec(0u64..1_000_000_000u64, 0..64),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        if !values.is_empty() {
            prop_assert_eq!(h.min(), *values.iter().min().unwrap());
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
            // Every recorded value is <= the q=1.0 bucket upper bound.
            prop_assert!(h.quantile(1.0) >= h.max());
        }
    }

    #[test]
    fn merge_equals_recording_the_concatenation(
        a in collection::vec(0u64..1_000_000_000u64, 0..48),
        b in collection::vec(0u64..1_000_000_000u64, 0..48),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut direct = Histogram::new();
        for &v in a.iter().chain(b.iter()) {
            direct.record(v);
        }
        prop_assert_eq!(merged, direct);
        // Merging is commutative.
        let mut flipped = hb.clone();
        flipped.merge(&ha);
        let mut merged2 = ha.clone();
        merged2.merge(&hb);
        prop_assert_eq!(flipped, merged2);
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        values in collection::vec(0u64..1_000_000_000u64, 1..64),
        qa in 0.0f64..1.0f64,
        qb in 0.0f64..1.0f64,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(
            h.quantile(lo) <= h.quantile(hi),
            "quantile({}) = {} > quantile({}) = {}",
            lo, h.quantile(lo), hi, h.quantile(hi)
        );
    }
}

/// Drives one deterministic workload into a collector: counters, gauges,
/// histogram observations and a small span tree, all derived from a
/// seeded [`DetRng`].
fn workload(seed: u64) -> Obs {
    let obs = Obs::new();
    let _guard = obs.install();
    let mut rng = DetRng::new(seed);
    let mut now = SimTime::ZERO;
    let phases = [
        Phase::Connect,
        Phase::Serialize,
        Phase::ThreadSwitch,
        Phase::Transfer,
        Phase::Discovery,
    ];
    let mut open = Vec::new();
    for i in 0..200u64 {
        let step = SimDuration::from_micros(1 + rng.range_u64(0, 5_000));
        now += step;
        let phase = phases[(rng.range_u64(0, phases.len() as u64 - 1)) as usize];
        obskit::count("ops", 1);
        obskit::count(&format!("ops_{}", phase.as_str()), 1);
        obskit::gauge("depth", open.len() as f64);
        obskit::observe("step_us", step.as_micros());
        let parent = open.last().copied();
        if let Some(span) = obskit::start(phase, &format!("op:{i}"), parent, now) {
            open.push(span);
        }
        if rng.range_u64(0, 2) == 0 {
            if let Some(span) = open.pop() {
                now += SimDuration::from_micros(rng.range_u64(0, 2_000));
                obskit::end(Some(span), now);
            }
        }
    }
    while let Some(span) = open.pop() {
        now += SimDuration::from_micros(17);
        obskit::end(Some(span), now);
    }
    obs
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let a = workload(0xC0FFEE);
    let b = workload(0xC0FFEE);
    assert_eq!(a.spans_jsonl(), b.spans_jsonl());
    assert_eq!(a.metrics_snapshot(), b.metrics_snapshot());
    assert!(!a.spans_jsonl().is_empty());
    assert!(a.metrics_snapshot().contains("# TYPE ops counter"));
}

#[test]
fn different_seeds_diverge() {
    let a = workload(1);
    let b = workload(2);
    assert_ne!(a.spans_jsonl(), b.spans_jsonl());
}
