//! The CxtAggregator (§4.3): "can be used to combine context items
//! collected from single or multiple CxtProviders" — the mechanism behind
//! the paper's claim that combining results from different context
//! mechanisms "allows applications to partly relieve the uncertainty of
//! single context sources".

use crate::item::{CxtItem, CxtValue, Metadata, Name, Trust};
use simkit::SimTime;
use std::collections::BTreeMap;

/// How to fuse a set of items of the same type into one estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregationStrategy {
    /// Keep the newest item as-is.
    MostRecent,
    /// Unweighted mean of numeric values.
    Average,
    /// Inverse-variance weighting: more accurate sources count more.
    WeightedByAccuracy,
    /// Most frequent textual value (categorical context).
    MajorityVote,
}

/// Stateless fusion helper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CxtAggregator;

impl CxtAggregator {
    /// Creates an aggregator.
    pub fn new() -> Self {
        CxtAggregator
    }

    /// Fuses `items` (all of the same context type) into a single item
    /// using `strategy`. Returns `None` when `items` is empty, when a
    /// numeric strategy finds no numeric values, or when items disagree
    /// on type.
    pub fn combine(
        &self,
        items: &[CxtItem],
        strategy: AggregationStrategy,
        now: SimTime,
    ) -> Option<CxtItem> {
        let first = items.first()?;
        if !items.iter().all(|i| i.cxt_type == first.cxt_type) {
            return None;
        }
        obskit::count("aggregator_combines", 1);
        obskit::count("aggregator_items_fused", items.len() as u64);
        match strategy {
            AggregationStrategy::MostRecent => {
                items.iter().max_by_key(|i| i.timestamp).cloned()
            }
            AggregationStrategy::Average => {
                let values: Vec<f64> = items.iter().filter_map(|i| i.value.as_f64()).collect();
                if values.is_empty() {
                    return None;
                }
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                Some(self.fused(first, items, mean, now))
            }
            AggregationStrategy::WeightedByAccuracy => {
                // Inverse-variance weighting; items without accuracy get
                // a pessimistic default weight.
                const DEFAULT_ACCURACY: f64 = 10.0;
                let mut num = 0.0;
                let mut den = 0.0;
                let mut fused_var_inv = 0.0;
                let mut any = false;
                for i in items {
                    let Some(v) = i.value.as_f64() else { continue };
                    let acc = i.metadata.accuracy.unwrap_or(DEFAULT_ACCURACY).max(1e-6);
                    let w = 1.0 / (acc * acc);
                    num += w * v;
                    den += w;
                    fused_var_inv += w;
                    any = true;
                }
                if !any {
                    return None;
                }
                let mean = num / den;
                let mut out = self.fused(first, items, mean, now);
                out.metadata.accuracy = Some((1.0 / fused_var_inv).sqrt());
                Some(out)
            }
            AggregationStrategy::MajorityVote => {
                let mut votes: BTreeMap<String, usize> = BTreeMap::new();
                for i in items {
                    *votes.entry(i.value.to_string()).or_default() += 1;
                }
                let (winner, _) = votes.into_iter().max_by_key(|(_, n)| *n)?;
                let template = items
                    .iter()
                    .filter(|i| i.value.to_string() == winner)
                    .max_by_key(|i| i.timestamp)?;
                Some(template.clone())
            }
        }
    }

    fn fused(&self, first: &CxtItem, items: &[CxtItem], mean: f64, now: SimTime) -> CxtItem {
        let unit = match &first.value {
            CxtValue::Number { unit, .. } => unit.clone(),
            _ => Name::default(),
        };
        let mut metadata = Metadata::none();
        // Accuracy of an unweighted mean: the worst input accuracy is a
        // safe bound.
        metadata.accuracy = items
            .iter()
            .filter_map(|i| i.metadata.accuracy)
            .fold(None, |acc: Option<f64>, a| Some(acc.map_or(a, |m| m.max(a))));
        // Trust of a fusion is the weakest input trust.
        metadata.trust = items
            .iter()
            .map(|i| i.metadata.trust)
            .min()
            .unwrap_or(Trust::Unknown);
        CxtItem {
            cxt_type: first.cxt_type.clone(),
            value: CxtValue::Number { value: mean, unit },
            timestamp: now,
            lifetime: None,
            source: Some(crate::item::SourceId::new(format!(
                "aggregate({} items)",
                items.len()
            ))),
            metadata,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(v: f64, acc: f64, at: u64) -> CxtItem {
        CxtItem::new(
            "temperature",
            CxtValue::quantity(v, "C"),
            SimTime::from_secs(at),
        )
        .with_accuracy(acc)
        .with_trust(Trust::Community)
    }

    #[test]
    fn most_recent_picks_newest() {
        let agg = CxtAggregator::new();
        let fused = agg
            .combine(
                &[item(10.0, 1.0, 5), item(20.0, 1.0, 9), item(15.0, 1.0, 7)],
                AggregationStrategy::MostRecent,
                SimTime::from_secs(10),
            )
            .unwrap();
        assert_eq!(fused.value.as_f64(), Some(20.0));
    }

    #[test]
    fn average_is_unweighted() {
        let agg = CxtAggregator::new();
        let fused = agg
            .combine(
                &[item(10.0, 0.1, 1), item(20.0, 5.0, 2)],
                AggregationStrategy::Average,
                SimTime::from_secs(3),
            )
            .unwrap();
        assert_eq!(fused.value.as_f64(), Some(15.0));
        // worst-accuracy bound
        assert_eq!(fused.metadata.accuracy, Some(5.0));
        assert_eq!(fused.timestamp, SimTime::from_secs(3));
    }

    #[test]
    fn weighted_fusion_prefers_accurate_sources() {
        let agg = CxtAggregator::new();
        let fused = agg
            .combine(
                &[item(10.0, 0.1, 1), item(20.0, 10.0, 2)],
                AggregationStrategy::WeightedByAccuracy,
                SimTime::from_secs(3),
            )
            .unwrap();
        let v = fused.value.as_f64().unwrap();
        assert!((v - 10.0).abs() < 0.01, "fused {v} should hug the accurate source");
        // fused accuracy is better than the best single source
        assert!(fused.metadata.accuracy.unwrap() <= 0.1);
    }

    #[test]
    fn majority_vote_on_categorical_values() {
        let agg = CxtAggregator::new();
        let mk = |s: &str, at: u64| {
            CxtItem::new("activity", CxtValue::Text(s.into()), SimTime::from_secs(at))
        };
        let fused = agg
            .combine(
                &[mk("sailing", 1), mk("walking", 2), mk("sailing", 3)],
                AggregationStrategy::MajorityVote,
                SimTime::from_secs(4),
            )
            .unwrap();
        assert_eq!(fused.value, CxtValue::Text("sailing".into()));
        assert_eq!(fused.timestamp, SimTime::from_secs(3), "newest of the winners");
    }

    #[test]
    fn empty_and_mixed_inputs() {
        let agg = CxtAggregator::new();
        assert!(agg
            .combine(&[], AggregationStrategy::Average, SimTime::ZERO)
            .is_none());
        let mixed = [
            item(1.0, 1.0, 1),
            CxtItem::new("wind", CxtValue::number(2.0), SimTime::ZERO),
        ];
        assert!(agg
            .combine(&mixed, AggregationStrategy::Average, SimTime::ZERO)
            .is_none());
        // text-only values cannot be averaged
        let texts = [CxtItem::new(
            "activity",
            CxtValue::Text("sailing".into()),
            SimTime::ZERO,
        )];
        assert!(agg
            .combine(&texts, AggregationStrategy::Average, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn fusion_trust_is_weakest_input() {
        let agg = CxtAggregator::new();
        let mut a = item(10.0, 1.0, 1);
        a.metadata.trust = Trust::Trusted;
        let mut b = item(20.0, 1.0, 2);
        b.metadata.trust = Trust::Unknown;
        let fused = agg
            .combine(&[a, b], AggregationStrategy::Average, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(fused.metadata.trust, Trust::Unknown);
    }
}
