//! Programmatic query construction (guide rule C-BUILDER).
//!
//! Applications that prefer not to concatenate query strings can build a
//! [`CxtQuery`] fluently; the builder enforces the same invariants as the
//! parser.

use super::ast::*;
use simkit::SimDuration;

/// Fluent builder for [`CxtQuery`].
///
/// ```
/// use contory::query::{NumNodes, QueryBuilder};
/// use simkit::SimDuration;
///
/// let q = QueryBuilder::select("temperature")
///     .from_adhoc(NumNodes::First(10), 3)
///     .where_numeric("accuracy", contory::query::CmpOp::Eq, 0.2)
///     .freshness(SimDuration::from_secs(30))
///     .duration(SimDuration::from_hours(1))
///     .event_avg_above("temperature", 25.0)
///     .build();
/// assert_eq!(
///     q.to_string(),
///     "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 \
///      FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct QueryBuilder {
    query: CxtQuery,
}

impl QueryBuilder {
    /// Starts a query for a context type. The duration defaults to one
    /// sample (an on-demand, single-shot query) until set.
    pub fn select(cxt_type: impl Into<String>) -> Self {
        QueryBuilder {
            query: CxtQuery {
                select: cxt_type.into(),
                from: None,
                where_clause: Vec::new(),
                freshness: None,
                duration: DurationClause::Samples(1),
                mode: QueryMode::OnDemand,
            },
        }
    }

    /// FROM intSensor.
    pub fn from_int_sensor(mut self) -> Self {
        self.query.from = Some(Source::IntSensor);
        self
    }

    /// FROM adHocNetwork(numNodes, numHops).
    ///
    /// # Panics
    ///
    /// Panics if `num_hops` is zero.
    pub fn from_adhoc(mut self, num_nodes: NumNodes, num_hops: u32) -> Self {
        assert!(num_hops >= 1, "numHops must be at least 1");
        self.query.from = Some(Source::AdHocNetwork {
            num_nodes,
            num_hops,
        });
        self
    }

    /// FROM region(x, y, radius).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    pub fn from_region(mut self, x: f64, y: f64, radius: f64) -> Self {
        assert!(radius >= 0.0, "region radius must be non-negative");
        self.query.from = Some(Source::Region { x, y, radius });
        self
    }

    /// Adds a numeric WHERE predicate.
    pub fn where_numeric(mut self, key: impl Into<String>, op: CmpOp, value: f64) -> Self {
        self.query.where_clause.push(WherePredicate {
            key: key.into(),
            op,
            value: PredValue::Number(value),
        });
        self
    }

    /// FRESHNESS: maximum item age.
    pub fn freshness(mut self, freshness: SimDuration) -> Self {
        self.query.freshness = Some(freshness);
        self
    }

    /// DURATION as wall time.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.query.duration = DurationClause::Time(duration);
        self
    }

    /// DURATION as a sample budget.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn duration_samples(mut self, samples: u32) -> Self {
        assert!(samples >= 1, "sample budget must be at least 1");
        self.query.duration = DurationClause::Samples(samples);
        self
    }

    /// EVERY: periodic delivery.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn every(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "EVERY period must be non-zero");
        self.query.mode = QueryMode::Periodic(period);
        self
    }

    /// EVENT with an arbitrary expression.
    pub fn event(mut self, expr: EventExpr) -> Self {
        self.query.mode = QueryMode::Event(expr);
        self
    }

    /// Convenience: `EVENT AVG(field) > threshold`.
    pub fn event_avg_above(self, field: impl Into<String>, threshold: f64) -> Self {
        self.event(EventExpr::Cmp {
            left: EventTerm::Agg {
                func: AggFunc::Avg,
                field: field.into(),
            },
            op: CmpOp::Gt,
            right: EventTerm::Number(threshold),
        })
    }

    /// Finishes the query.
    pub fn build(self) -> CxtQuery {
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_parser() {
        let built = QueryBuilder::select("location")
            .from_int_sensor()
            .freshness(SimDuration::from_secs(5))
            .duration(SimDuration::from_mins(10))
            .every(SimDuration::from_secs(2))
            .build();
        let parsed = CxtQuery::parse(
            "SELECT location FROM intSensor FRESHNESS 5 sec DURATION 10 min EVERY 2 sec",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn entity_and_region_builders() {
        let q = QueryBuilder::select("wind")
            .from_region(100.0, 200.0, 50.0)
            .duration(SimDuration::from_mins(1))
            .build();
        assert!(matches!(q.from, Some(Source::Region { .. })));
    }

    #[test]
    fn default_is_single_sample_on_demand() {
        let q = QueryBuilder::select("noise").build();
        assert_eq!(q.duration, DurationClause::Samples(1));
        assert_eq!(q.mode, QueryMode::OnDemand);
    }

    #[test]
    #[should_panic(expected = "numHops")]
    fn zero_hops_panics() {
        let _ = QueryBuilder::select("x").from_adhoc(NumNodes::All, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let _ = QueryBuilder::select("x").every(SimDuration::ZERO);
    }
}
