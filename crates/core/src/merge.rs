//! Query aggregation: clustering, merging and post-extraction (§4.3).
//!
//! "To avoid redundancy and keep the number of active queries minimal,
//! the Facade performs query aggregation": similar queries are merged
//! into one *covering* query handed to a single provider, and the
//! provider's results are *post-extracted* per original query.
//!
//! Clustering follows the paper's simplification of the Crespo et al.
//! algorithm: queries with the same SELECT clause land in the same
//! cluster. Merging then applies clause-specific rules, reproduced from
//! the paper's q1+q2→q3 example:
//!
//! | clause    | rule                                        |
//! |-----------|---------------------------------------------|
//! | FROM      | widest scope (max hops, `all` ⊔ `k` nodes)  |
//! | WHERE     | loosest common predicates                   |
//! | FRESHNESS | loosest (maximum age)                       |
//! | DURATION  | longest                                     |
//! | EVERY     | fastest (minimum period)                    |
//! | EVENT     | disjunction of the member conditions        |
//!
//! The merged query *covers* each member: every item a member should see
//! is produced by the merged query, and [`post_extract`] filters the
//! covering stream back down with the member's own WHERE and FRESHNESS.

use crate::item::CxtItem;
use crate::predicate::matches_where;
use crate::query::{
    CmpOp, CxtQuery, DurationClause, EventExpr, NumNodes, PredValue, QueryMode, Source,
    WherePredicate,
};
use simkit::SimTime;

/// Clustering key: queries sharing it may be merged (the paper puts
/// "queries with the same SELECT clause" in one cluster; the interaction
/// mode must also be compatible, which the paper's example satisfies
/// implicitly since both q1 and q2 are EVERY queries).
pub(crate) fn cluster_key(q: &CxtQuery) -> (String, ModeKind) {
    (q.select.clone(), ModeKind::of(&q.mode))
}

/// Coarse interaction-mode class used for clustering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ModeKind {
    OnDemand,
    Periodic,
    Event,
}

impl ModeKind {
    pub(crate) fn of(mode: &QueryMode) -> ModeKind {
        match mode {
            QueryMode::OnDemand => ModeKind::OnDemand,
            QueryMode::Periodic(_) => ModeKind::Periodic,
            QueryMode::Event(_) => ModeKind::Event,
        }
    }
}

/// Attempts to merge two queries into a covering query.
///
/// Returns `None` when the queries are not mergeable: different SELECT,
/// incompatible interaction modes, or FROM clauses naming different
/// mechanisms / destinations.
///
/// The merged query *covers* both inputs: every item either member should
/// receive is produced by the merged query (then [`post_extract`] filters
/// it back down per member).
pub fn try_merge(a: &CxtQuery, b: &CxtQuery) -> Option<CxtQuery> {
    if cluster_key(a) != cluster_key(b) {
        return None;
    }
    let from = merge_from(&a.from, &b.from)?;
    let freshness = match (a.freshness, b.freshness) {
        (Some(x), Some(y)) => Some(x.max(y)),
        // One member has no freshness bound: the covering query must not
        // have one either.
        _ => None,
    };
    let duration = merge_duration(a.duration, b.duration);
    let mode = merge_mode(&a.mode, &b.mode)?;
    Some(CxtQuery {
        select: a.select.clone(),
        from,
        where_clause: merge_where(&a.where_clause, &b.where_clause),
        freshness,
        duration,
        mode,
    })
}

fn merge_from(a: &Option<Source>, b: &Option<Source>) -> Option<Option<Source>> {
    match (a, b) {
        (None, None) => Some(None),
        // An unconstrained member dominates: leave mechanism choice free.
        (None, Some(_)) | (Some(_), None) => Some(None),
        (Some(x), Some(y)) => merge_sources(x, y).map(Some),
    }
}

fn merge_sources(a: &Source, b: &Source) -> Option<Source> {
    match (a, b) {
        (Source::IntSensor, Source::IntSensor) => Some(Source::IntSensor),
        (Source::ExtInfra, Source::ExtInfra) => Some(Source::ExtInfra),
        (
            Source::AdHocNetwork {
                num_nodes: n1,
                num_hops: h1,
            },
            Source::AdHocNetwork {
                num_nodes: n2,
                num_hops: h2,
            },
        ) => Some(Source::AdHocNetwork {
            num_nodes: merge_num_nodes(*n1, *n2),
            num_hops: (*h1).max(*h2),
        }),
        (Source::Entity(e1), Source::Entity(e2)) if e1 == e2 => Some(Source::Entity(e1.clone())),
        (
            Source::Region {
                x: x1,
                y: y1,
                radius: r1,
            },
            Source::Region {
                x: x2,
                y: y2,
                radius: r2,
            },
        ) if x1 == x2 && y1 == y2 => Some(Source::Region {
            x: *x1,
            y: *y1,
            radius: r1.max(*r2),
        }),
        _ => None,
    }
}

fn merge_num_nodes(a: NumNodes, b: NumNodes) -> NumNodes {
    match (a, b) {
        (NumNodes::All, _) | (_, NumNodes::All) => NumNodes::All,
        (NumNodes::First(x), NumNodes::First(y)) => NumNodes::First(x.max(y)),
    }
}

fn merge_duration(a: DurationClause, b: DurationClause) -> DurationClause {
    match (a, b) {
        (DurationClause::Time(x), DurationClause::Time(y)) => DurationClause::Time(x.max(y)),
        (DurationClause::Samples(x), DurationClause::Samples(y)) => {
            DurationClause::Samples(x.max(y))
        }
        // Mixed: run on wall time (members with a sample budget are
        // retired individually by post-extraction bookkeeping).
        (DurationClause::Time(t), DurationClause::Samples(_))
        | (DurationClause::Samples(_), DurationClause::Time(t)) => DurationClause::Time(t),
    }
}

fn merge_mode(a: &QueryMode, b: &QueryMode) -> Option<QueryMode> {
    match (a, b) {
        (QueryMode::OnDemand, QueryMode::OnDemand) => Some(QueryMode::OnDemand),
        (QueryMode::Periodic(x), QueryMode::Periodic(y)) => {
            Some(QueryMode::Periodic((*x).min(*y)))
        }
        (QueryMode::Event(x), QueryMode::Event(y)) => Some(QueryMode::Event(EventExpr::Or(
            Box::new(x.clone()),
            Box::new(y.clone()),
        ))),
        _ => None,
    }
}

/// Loosest common WHERE: keep predicates on keys both queries constrain,
/// relaxed to the weaker bound; drop the rest (members re-apply their own
/// predicates in post-extraction).
fn merge_where(a: &[WherePredicate], b: &[WherePredicate]) -> Vec<WherePredicate> {
    let mut out = Vec::new();
    for pa in a {
        for pb in b {
            if pa.key != pb.key || pa.op != pb.op {
                continue;
            }
            match (&pa.value, &pb.value) {
                (PredValue::Number(x), PredValue::Number(y)) => {
                    let loosest = match pa.op {
                        // Quality thresholds / upper bounds: looser = larger.
                        CmpOp::Eq | CmpOp::Lt | CmpOp::Le => x.max(*y),
                        // Lower bounds: looser = smaller.
                        CmpOp::Gt | CmpOp::Ge => x.min(*y),
                        // Identical exclusions can be kept; differing ones
                        // cannot be loosened jointly.
                        CmpOp::Ne if x == y => *x,
                        CmpOp::Ne => continue,
                    };
                    out.push(WherePredicate {
                        key: pa.key.clone(),
                        op: pa.op,
                        value: PredValue::Number(loosest),
                    });
                }
                (PredValue::Text(x), PredValue::Text(y)) if x == y => {
                    out.push(pa.clone());
                }
                _ => {}
            }
        }
    }
    out
}

/// Post-extraction: filters a covering query's results down to what one
/// member asked for (its WHERE predicates and FRESHNESS bound).
pub fn post_extract(member: &CxtQuery, items: &[CxtItem], now: SimTime) -> Vec<CxtItem> {
    items
        .iter()
        .filter(|i| extracts(member, i, now))
        .cloned()
        .collect()
}

/// Whether post-extraction keeps `item` for `member` at `now`: its type,
/// lifetime, FRESHNESS bound and WHERE predicates. Owners of a batch
/// filter it in place with this instead of copying through
/// [`post_extract`].
pub(crate) fn extracts(member: &CxtQuery, item: &CxtItem, now: SimTime) -> bool {
    item.cxt_type == member.select
        && item.is_valid_at(now)
        && member.freshness.is_none_or(|f| item.is_fresh_at(now, f))
        && matches_where(item, &member.where_clause)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::CxtValue;
    use simkit::SimDuration;

    fn q(text: &str) -> CxtQuery {
        CxtQuery::parse(text).unwrap()
    }

    #[test]
    fn reproduces_the_papers_q1_q2_q3_example() {
        let q1 = q("SELECT temperature FROM adHocNetwork(all,3) FRESHNESS 10 sec \
                    DURATION 1 hour EVERY 15 sec");
        let q2 = q("SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 20 sec \
                    DURATION 2 hour EVERY 30 sec");
        let q3 = try_merge(&q1, &q2).expect("q1 and q2 merge");
        assert_eq!(
            q3,
            q("SELECT temperature FROM adHocNetwork(all,3) FRESHNESS 20 sec \
               DURATION 2 hour EVERY 15 sec")
        );
        // merging is symmetric
        assert_eq!(try_merge(&q2, &q1), Some(q3));
    }

    #[test]
    fn different_select_does_not_merge() {
        let a = q("SELECT temperature DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT wind DURATION 1 hour EVERY 5 sec");
        assert_eq!(try_merge(&a, &b), None);
    }

    #[test]
    fn different_modes_do_not_merge() {
        let a = q("SELECT t DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t DURATION 1 hour");
        assert_eq!(try_merge(&a, &b), None);
        let c = q("SELECT t DURATION 1 hour EVENT AVG(t)>5");
        assert_eq!(try_merge(&a, &c), None);
    }

    #[test]
    fn different_mechanisms_do_not_merge() {
        let a = q("SELECT t FROM intSensor DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t FROM extInfra DURATION 1 hour EVERY 5 sec");
        assert_eq!(try_merge(&a, &b), None);
    }

    #[test]
    fn unconstrained_from_dominates() {
        let a = q("SELECT t FROM intSensor DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &b).unwrap();
        assert_eq!(m.from, None);
    }

    #[test]
    fn num_nodes_widen() {
        let a = q("SELECT t FROM adHocNetwork(5,2) DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t FROM adHocNetwork(10,1) DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &b).unwrap();
        assert_eq!(
            m.from,
            Some(Source::AdHocNetwork {
                num_nodes: NumNodes::First(10),
                num_hops: 2
            })
        );
        let c = q("SELECT t FROM adHocNetwork(all,1) DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &c).unwrap();
        assert!(matches!(
            m.from,
            Some(Source::AdHocNetwork {
                num_nodes: NumNodes::All,
                ..
            })
        ));
    }

    #[test]
    fn entities_merge_only_when_equal() {
        let a = q("SELECT location FROM entity(friend) DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT location FROM entity(friend) DURATION 2 hour EVERY 9 sec");
        assert!(try_merge(&a, &b).is_some());
        let c = q("SELECT location FROM entity(stranger) DURATION 1 hour EVERY 5 sec");
        assert_eq!(try_merge(&a, &c), None);
    }

    #[test]
    fn regions_widen_radius_at_same_center() {
        let a = q("SELECT wind FROM region(10,20,100) DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT wind FROM region(10,20,300) DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &b).unwrap();
        assert_eq!(
            m.from,
            Some(Source::Region {
                x: 10.0,
                y: 20.0,
                radius: 300.0
            })
        );
        let c = q("SELECT wind FROM region(99,20,100) DURATION 1 hour EVERY 5 sec");
        assert_eq!(try_merge(&a, &c), None);
    }

    #[test]
    fn where_keeps_loosest_common_bound() {
        let a = q("SELECT t WHERE accuracy=0.2 AND correctness>0.9 DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t WHERE accuracy=0.5 DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &b).unwrap();
        assert_eq!(m.where_clause.len(), 1);
        assert_eq!(m.where_clause[0].value, PredValue::Number(0.5));
        // the lower-bound direction
        let c = q("SELECT t WHERE correctness>0.5 DURATION 1 hour EVERY 5 sec");
        let m = try_merge(&a, &c).unwrap();
        assert_eq!(m.where_clause[0].value, PredValue::Number(0.5));
    }

    #[test]
    fn missing_freshness_dominates() {
        let a = q("SELECT t FRESHNESS 10 sec DURATION 1 hour EVERY 5 sec");
        let b = q("SELECT t DURATION 1 hour EVERY 5 sec");
        assert_eq!(try_merge(&a, &b).unwrap().freshness, None);
    }

    #[test]
    fn event_queries_merge_into_disjunction() {
        let a = q("SELECT t DURATION 1 hour EVENT AVG(t)>25");
        let b = q("SELECT t DURATION 2 hour EVENT MIN(t)<5");
        let m = try_merge(&a, &b).unwrap();
        match m.mode {
            QueryMode::Event(EventExpr::Or(_, _)) => {}
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn mixed_duration_units_prefer_time() {
        let a = q("SELECT t DURATION 50 samples EVERY 5 sec");
        let b = q("SELECT t DURATION 1 hour EVERY 5 sec");
        assert_eq!(
            merge_duration(a.duration, b.duration),
            DurationClause::Time(SimDuration::from_hours(1))
        );
        assert_eq!(
            merge_duration(a.duration, DurationClause::Samples(80)),
            DurationClause::Samples(80)
        );
    }

    #[test]
    fn post_extract_applies_member_filters() {
        let member = q("SELECT temperature WHERE accuracy=0.2 FRESHNESS 10 sec DURATION 1 hour \
                        EVERY 15 sec");
        let now = SimTime::from_secs(100);
        let items = vec![
            // matches everything
            CxtItem::new("temperature", CxtValue::number(20.0), SimTime::from_secs(95))
                .with_accuracy(0.1),
            // too old for the member's 10 s freshness
            CxtItem::new("temperature", CxtValue::number(21.0), SimTime::from_secs(80))
                .with_accuracy(0.1),
            // accuracy too poor
            CxtItem::new("temperature", CxtValue::number(22.0), SimTime::from_secs(99))
                .with_accuracy(0.5),
            // wrong type entirely
            CxtItem::new("wind", CxtValue::number(5.0), SimTime::from_secs(99)).with_accuracy(0.1),
        ];
        let extracted = post_extract(&member, &items, now);
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].value, CxtValue::number(20.0));
    }

    #[test]
    fn post_extract_respects_item_lifetime() {
        let member = q("SELECT t DURATION 1 hour EVERY 5 sec");
        let expired = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO)
            .with_lifetime(SimDuration::from_secs(5));
        let extracted = post_extract(&member, &[expired], SimTime::from_secs(60));
        assert!(extracted.is_empty());
    }
}
