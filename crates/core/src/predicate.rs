//! Evaluation of WHERE predicates and EVENT expressions.
//!
//! ## WHERE semantics
//!
//! WHERE filters compare against item *metadata*. For quality metadata,
//! `=` is interpreted as a quality threshold rather than strict equality
//! (the paper's example query "WHERE accuracy=0.2" asks for data with
//! accuracy *of* 0.2 °C — a sensor that is *better* than 0.2 °C clearly
//! qualifies):
//!
//! - `accuracy` / `precision` (lower is better): `=v` accepts values ≤ v.
//! - `correctness` / `completeness` (higher is better): `=v` accepts ≥ v.
//! - `trust`: `=level` accepts at least that level
//!   (unknown < community < trusted).
//! - Everything else (`privacy`, unknown keys): literal comparison.
//!
//! Explicit `<`, `<=`, `>`, `>=`, `!=` always compare literally. An item
//! missing the referenced metadata fails the predicate — quality that
//! cannot be verified is not assumed.
//!
//! ## EVENT semantics
//!
//! EVENT expressions are evaluated over the items collected in the
//! current round ([`EventWindow`]): aggregates (`AVG`, `MIN`, `MAX`,
//! `SUM`, `COUNT`) and latest-value references, combined with `AND`/`OR`.

use crate::item::{CxtItem, Name, Trust};
use crate::query::{AggFunc, CmpOp, EventExpr, EventTerm, PredValue, WherePredicate};
use crate::vocab::metadata_keys;
use simkit::{SimDuration, SimTime};
use std::borrow::Borrow;

/// Whether `item` satisfies every predicate in `preds`.
pub(crate) fn matches_where(item: &CxtItem, preds: &[WherePredicate]) -> bool {
    preds.iter().all(|p| matches_one(item, p))
}

fn matches_one(item: &CxtItem, pred: &WherePredicate) -> bool {
    match (&pred.value, pred.key.as_str()) {
        (PredValue::Number(target), key) => {
            let Some(actual) = item.metadata.numeric(key) else {
                return false;
            };
            match pred.op {
                CmpOp::Eq => quality_eq(key, actual, *target),
                op => op.eval_f64(actual, *target),
            }
        }
        (PredValue::Text(target), metadata_keys::TRUST) => {
            let Some(target_level) = parse_trust(target) else {
                return false;
            };
            let actual = item.metadata.trust;
            match pred.op {
                CmpOp::Eq | CmpOp::Ge => actual >= target_level,
                CmpOp::Ne => actual != target_level,
                CmpOp::Gt => actual > target_level,
                CmpOp::Lt => actual < target_level,
                CmpOp::Le => actual <= target_level,
            }
        }
        (PredValue::Text(target), metadata_keys::PRIVACY) => {
            let actual = item.metadata.privacy.as_deref();
            match pred.op {
                CmpOp::Eq => actual == Some(target.as_str()),
                CmpOp::Ne => actual != Some(target.as_str()),
                _ => false,
            }
        }
        // Text comparison against the item's value itself (categorical
        // context, e.g. activity=walking).
        (PredValue::Text(target), "value") => {
            let text = item.value.to_string();
            match pred.op {
                CmpOp::Eq => text == *target,
                CmpOp::Ne => text != *target,
                _ => false,
            }
        }
        _ => false,
    }
}

/// Quality-threshold reading of `=` (see module docs).
fn quality_eq(key: &str, actual: f64, target: f64) -> bool {
    const EPS: f64 = 1e-9;
    match key {
        metadata_keys::ACCURACY | metadata_keys::PRECISION => actual <= target + EPS,
        metadata_keys::CORRECTNESS | metadata_keys::COMPLETENESS => actual >= target - EPS,
        _ => (actual - target).abs() <= EPS,
    }
}

fn parse_trust(s: &str) -> Option<Trust> {
    match s {
        "unknown" => Some(Trust::Unknown),
        "community" => Some(Trust::Community),
        "trusted" => Some(Trust::Trusted),
        _ => None,
    }
}

/// The set of items collected in the current round, against which EVENT
/// conditions are evaluated.
///
/// The window keeps one 24-byte entry per collected item, holding only
/// what an EVENT condition reads: the item's timestamp, the position of
/// its context type in the window's own small table of type names, and
/// its numeric value (or a flag that it has none). It keeps no copy of
/// the item.
///
/// Aggregates are folded incrementally. For each type an `AVG`, `MIN`,
/// `MAX`, `SUM` or `COUNT` has named, the window caches the count, sum,
/// minimum and maximum of that type's numeric entries among the first
/// `upto` entries, and [`EventWindow::eval`] folds only the entries
/// pushed since. Float addition is not associative, so the sum is only
/// ever extended in window order, one entry at a time, exactly as a full
/// pass would accumulate it: every aggregate is bit-identical to a pass
/// over the whole window. Dropping entries ([`EventWindow::retain_fresh`]
/// that drops any, [`EventWindow::clear`]) discards the caches, and the
/// next `eval` refolds from the first entry.
///
/// ```
/// use contory::{CxtItem, CxtValue, EventWindow};
/// use contory::query::CxtQuery;
/// use simkit::SimTime;
///
/// let q = CxtQuery::parse("SELECT t DURATION 1 hour EVENT AVG(t)>25")?;
/// let mut w = EventWindow::new();
/// w.push(CxtItem::new("t", CxtValue::number(24.0), SimTime::ZERO));
/// w.push(&CxtItem::new("t", CxtValue::number(28.0), SimTime::ZERO));
/// if let contory::query::QueryMode::Event(expr) = &q.mode {
///     assert!(w.eval(expr)); // AVG = 26 > 25
/// }
/// # Ok::<(), contory::query::ParseQueryError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventWindow {
    entries: Vec<Entry>,
    /// The context types pushed since the last clear, each once; an
    /// entry names its type by position here.
    types: Vec<Name>,
    /// One fold per aggregated type, each over a prefix of `entries`.
    folds: Vec<Fold>,
}

/// One collected item, as an EVENT condition reads it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    timestamp: SimTime,
    /// The item's numeric value; meaningless unless `numeric`.
    value: f64,
    /// Position of the item's type in [`EventWindow::types`].
    ty: u32,
    /// Whether the item has a numeric value.
    numeric: bool,
}

/// The aggregates of one type's numeric entries among `entries[..upto]`.
#[derive(Clone, Debug)]
struct Fold {
    ty: u32,
    upto: usize,
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Fold {
    fn new(ty: u32) -> Self {
        Fold {
            ty,
            upto: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds in the type's numeric entries among `entries[self.upto..]`,
    /// in order.
    fn extend(&mut self, entries: &[Entry]) {
        let new = entries.get(self.upto..).unwrap_or_default();
        for e in new.iter().filter(|e| e.ty == self.ty && e.numeric) {
            self.count += 1;
            self.sum += e.value;
            self.min = self.min.min(e.value);
            self.max = self.max.max(e.value);
        }
        self.upto = entries.len();
    }

    fn value(&self, func: AggFunc) -> Option<f64> {
        if self.count == 0 && func != AggFunc::Count {
            return None;
        }
        Some(match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Avg => self.sum / self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Sum => self.sum,
        })
    }
}

impl EventWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        EventWindow::default()
    }

    /// Adds a collected item: its timestamp, type and numeric value.
    pub fn push(&mut self, item: impl Borrow<CxtItem>) {
        let item = item.borrow();
        let ty = match self.type_index(&item.cxt_type) {
            Some(ty) => ty,
            None => {
                let ty = self.types.len() as u32;
                self.types.push(item.cxt_type.clone());
                ty
            }
        };
        let value = item.value.as_f64();
        self.entries.push(Entry {
            timestamp: item.timestamp,
            value: value.unwrap_or_default(),
            ty,
            numeric: value.is_some(),
        });
    }

    /// Number of items in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no items have been collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the window (start of a new round).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.types.clear();
        self.folds.clear();
    }

    /// Drops items older than `max_age` at `now` (sliding windows), by
    /// [`CxtItem::is_fresh_at`]'s rule.
    pub fn retain_fresh(&mut self, now: SimTime, max_age: SimDuration) {
        let before = self.entries.len();
        self.entries.retain(|e| now - e.timestamp <= max_age);
        if self.entries.len() != before {
            self.folds.clear();
        }
    }

    /// Evaluates an EVENT expression against the window. Comparisons
    /// whose terms cannot be computed (no data for the field) are false.
    pub fn eval(&mut self, expr: &EventExpr) -> bool {
        match expr {
            EventExpr::Cmp { left, op, right } => {
                match (self.term(left), self.term(right)) {
                    (Some(l), Some(r)) => op.eval_f64(l, r),
                    _ => false,
                }
            }
            EventExpr::And(a, b) => self.eval(a) && self.eval(b),
            EventExpr::Or(a, b) => self.eval(a) || self.eval(b),
        }
    }

    /// Position of `cxt_type` in the type table.
    fn type_index(&self, cxt_type: &str) -> Option<u32> {
        let at = self.types.iter().position(|t| **t == *cxt_type)?;
        Some(at as u32)
    }

    fn term(&mut self, term: &EventTerm) -> Option<f64> {
        match term {
            EventTerm::Number(n) => Some(*n),
            EventTerm::Field(name) => {
                let ty = self.type_index(name)?;
                let newest = self.entries.iter().rev().find(|e| e.ty == ty)?;
                newest.numeric.then_some(newest.value)
            }
            EventTerm::Agg { func, field } => {
                let Some(ty) = self.type_index(field) else {
                    // No item of this type: COUNT is 0, the others have
                    // no value.
                    return (*func == AggFunc::Count).then_some(0.0);
                };
                let at = match self.folds.iter().position(|f| f.ty == ty) {
                    Some(at) => at,
                    None => {
                        self.folds.push(Fold::new(ty));
                        self.folds.len() - 1
                    }
                };
                let fold = self.folds.get_mut(at)?;
                fold.extend(&self.entries);
                fold.value(*func)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::CxtValue;
    use crate::query::CxtQuery;
    use proptest::prelude::*;

    fn item_with_accuracy(acc: f64) -> CxtItem {
        CxtItem::new("temperature", CxtValue::number(20.0), SimTime::ZERO).with_accuracy(acc)
    }

    fn preds(text: &str) -> Vec<WherePredicate> {
        CxtQuery::parse(&format!("SELECT t WHERE {text} DURATION 1 min"))
            .unwrap()
            .where_clause
    }

    #[test]
    fn accuracy_eq_is_a_quality_threshold() {
        let ps = preds("accuracy=0.2");
        assert!(matches_where(&item_with_accuracy(0.2), &ps));
        assert!(matches_where(&item_with_accuracy(0.1), &ps), "better passes");
        assert!(!matches_where(&item_with_accuracy(0.5), &ps), "worse fails");
    }

    #[test]
    fn correctness_eq_is_a_floor() {
        let ps = preds("correctness=0.8");
        let good = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO).with_correctness(0.9);
        let bad = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO).with_correctness(0.5);
        assert!(matches_where(&good, &ps));
        assert!(!matches_where(&bad, &ps));
    }

    #[test]
    fn explicit_operators_compare_literally() {
        let ps = preds("accuracy>0.3");
        assert!(matches_where(&item_with_accuracy(0.5), &ps));
        assert!(!matches_where(&item_with_accuracy(0.2), &ps));
        let ps = preds("accuracy!=0.2");
        assert!(!matches_where(&item_with_accuracy(0.2), &ps));
    }

    #[test]
    fn missing_metadata_fails() {
        let bare = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO);
        assert!(!matches_where(&bare, &preds("accuracy=0.2")));
        assert!(matches_where(&bare, &[]));
    }

    #[test]
    fn trust_is_ordered() {
        let community = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO)
            .with_trust(Trust::Community);
        let trusted =
            CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO).with_trust(Trust::Trusted);
        let ps = preds("trust=community");
        assert!(matches_where(&community, &ps));
        assert!(matches_where(&trusted, &ps), "more trusted passes");
        let ps = preds("trust=trusted");
        assert!(!matches_where(&community, &ps));
        let ps = preds("trust!=trusted");
        assert!(matches_where(&community, &ps));
    }

    #[test]
    fn privacy_is_literal() {
        let mut item = CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO);
        item.metadata.privacy = Some("community".into());
        assert!(matches_where(&item, &preds("privacy=community")));
        assert!(!matches_where(&item, &preds("privacy=public")));
        assert!(matches_where(&item, &preds("privacy!=public")));
    }

    #[test]
    fn all_predicates_must_hold() {
        let item = item_with_accuracy(0.1);
        let ps = preds("accuracy=0.2 AND correctness=0.5");
        assert!(!matches_where(&item, &ps), "correctness missing");
    }

    #[test]
    fn event_window_aggregates() {
        let mut w = EventWindow::new();
        for v in [10.0, 20.0, 30.0] {
            w.push(CxtItem::new("temperature", CxtValue::number(v), SimTime::ZERO));
        }
        w.push(CxtItem::new("wind", CxtValue::number(99.0), SimTime::ZERO));
        let q = |s: &str| match CxtQuery::parse(&format!("SELECT t DURATION 1 min EVENT {s}"))
            .unwrap()
            .mode
        {
            crate::query::QueryMode::Event(e) => e,
            _ => unreachable!(),
        };
        assert!(w.eval(&q("AVG(temperature)=20")));
        assert!(w.eval(&q("MIN(temperature)<15")));
        assert!(w.eval(&q("MAX(temperature)>=30")));
        assert!(w.eval(&q("SUM(temperature)=60")));
        assert!(w.eval(&q("COUNT(temperature)=3")));
        assert!(!w.eval(&q("AVG(wind)>100")));
        // boolean structure
        assert!(w.eval(&q("AVG(temperature)>15 AND COUNT(temperature)>=3")));
        assert!(w.eval(&q("AVG(temperature)>100 OR MIN(wind)=99")));
    }

    #[test]
    fn event_on_empty_window_is_false_except_count() {
        let mut w = EventWindow::new();
        let q = |s: &str| match CxtQuery::parse(&format!("SELECT t DURATION 1 min EVENT {s}"))
            .unwrap()
            .mode
        {
            crate::query::QueryMode::Event(e) => e,
            _ => unreachable!(),
        };
        assert!(!w.eval(&q("AVG(temperature)>0")));
        assert!(w.eval(&q("COUNT(temperature)=0")));
    }

    #[test]
    fn field_term_uses_latest_value() {
        let mut w = EventWindow::new();
        w.push(CxtItem::new("t", CxtValue::number(5.0), SimTime::ZERO));
        w.push(CxtItem::new("t", CxtValue::number(9.0), SimTime::from_secs(1)));
        let e = EventExpr::Cmp {
            left: EventTerm::Field("t".into()),
            op: CmpOp::Eq,
            right: EventTerm::Number(9.0),
        };
        assert!(w.eval(&e));
        // The newest item has no number: no value, not an older one.
        w.push(CxtItem::new("t", CxtValue::Text("calm".into()), SimTime::from_secs(2)));
        assert!(!w.eval(&e));
    }

    /// One step in the life of a window over the fields `a`, `b`, `c`.
    #[derive(Clone, Debug)]
    enum Op {
        /// Advances the clock `dt` seconds and pushes an item of field
        /// `field` (`None`: a text value) taken then.
        Push {
            field: usize,
            value: Option<f64>,
            dt: u64,
        },
        /// Compares an aggregate of `field` with `threshold`.
        Eval {
            func: usize,
            field: usize,
            op: usize,
            threshold: f64,
        },
        /// Drops items older than `max_age` seconds.
        RetainFresh {
            max_age: u64,
        },
        Clear,
    }

    const FIELDS: [&str; 3] = ["a", "b", "c"];
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Sum,
    ];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn op() -> impl Strategy<Value = Op> {
        let push = (0usize..3, proptest::option::of(-1e6f64..1e6), 0u64..10)
            .prop_map(|(field, value, dt)| Op::Push { field, value, dt });
        prop_oneof![
            push.clone(),
            push.clone(),
            push,
            (0usize..5, 0usize..3, 0usize..6, -1e6f64..1e6).prop_map(
                |(func, field, op, threshold)| Op::Eval {
                    func,
                    field,
                    op,
                    threshold
                }
            ),
            (0u64..60).prop_map(|max_age| Op::RetainFresh { max_age }),
            Just(Op::Clear),
        ]
    }

    /// A full pass over the window in item order: the reference the
    /// folds must match bit for bit.
    fn naive(items: &[CxtItem], func: AggFunc, field: &str) -> Option<f64> {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in items
            .iter()
            .filter(|i| i.cxt_type == field)
            .filter_map(|i| i.value.as_f64())
        {
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 && func != AggFunc::Count {
            return None;
        }
        Some(match func {
            AggFunc::Count => count as f64,
            AggFunc::Avg => sum / count as f64,
            AggFunc::Min => min,
            AggFunc::Max => max,
            AggFunc::Sum => sum,
        })
    }

    /// The newest item of `field`'s value: the reference for `Field`
    /// terms.
    fn naive_latest(items: &[CxtItem], field: &str) -> Option<f64> {
        let newest = items.iter().rev().find(|i| i.cxt_type == field)?;
        newest.value.as_f64()
    }

    proptest! {
        /// At every evaluation, over any interleaving of pushes (of
        /// numbers and text), evaluations, freshness drops and clears on
        /// one to three fields, the window answers as a window of whole
        /// items would: the folded aggregates carry the bits of a full
        /// pass over the items, `Field` terms the newest item's value,
        /// the EVENT condition the same truth value, and `len` the
        /// number of items.
        #[test]
        fn folded_aggregates_match_a_full_pass(
            fields in 1usize..4,
            ops in proptest::collection::vec(op(), 0..80),
        ) {
            let mut w = EventWindow::new();
            let mut items: Vec<CxtItem> = Vec::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Push { field, value, dt } => {
                        let value = match value {
                            Some(v) => CxtValue::number(v),
                            None => CxtValue::Text("calm".into()),
                        };
                        now += SimDuration::from_secs(dt);
                        let item = CxtItem::new(FIELDS[field % fields], value, now);
                        w.push(&item);
                        items.push(item);
                    }
                    Op::Eval { func, field, op, threshold } => {
                        let (func, field, op) = (FUNCS[func], FIELDS[field % fields], OPS[op]);
                        let want = naive(&items, func, field)
                            .is_some_and(|v| op.eval_f64(v, threshold));
                        let expr = EventExpr::Cmp {
                            left: EventTerm::Agg { func, field: field.into() },
                            op,
                            right: EventTerm::Number(threshold),
                        };
                        prop_assert_eq!(w.eval(&expr), want);
                        let want = naive_latest(&items, field)
                            .is_some_and(|v| op.eval_f64(v, threshold));
                        let expr = EventExpr::Cmp {
                            left: EventTerm::Field(field.into()),
                            op,
                            right: EventTerm::Number(threshold),
                        };
                        prop_assert_eq!(w.eval(&expr), want);
                        for field in &FIELDS[..fields] {
                            for func in FUNCS {
                                let want = naive(&items, func, field).map(f64::to_bits);
                                let term = EventTerm::Agg { func, field: (*field).into() };
                                prop_assert_eq!(w.term(&term).map(f64::to_bits), want);
                            }
                            let want = naive_latest(&items, field).map(f64::to_bits);
                            let term = EventTerm::Field((*field).into());
                            prop_assert_eq!(w.term(&term).map(f64::to_bits), want);
                        }
                    }
                    Op::RetainFresh { max_age } => {
                        let max_age = SimDuration::from_secs(max_age);
                        w.retain_fresh(now, max_age);
                        items.retain(|i| i.is_fresh_at(now, max_age));
                    }
                    Op::Clear => {
                        w.clear();
                        items.clear();
                    }
                }
                prop_assert_eq!(w.len(), items.len());
                prop_assert_eq!(w.is_empty(), items.is_empty());
            }
        }
    }

    #[test]
    fn an_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }


    #[test]
    fn window_housekeeping() {
        let mut w = EventWindow::new();
        w.push(CxtItem::new("t", CxtValue::number(1.0), SimTime::ZERO));
        w.push(CxtItem::new("t", CxtValue::number(2.0), SimTime::from_secs(100)));
        assert_eq!(w.len(), 2);
        w.retain_fresh(SimTime::from_secs(110), SimDuration::from_secs(30));
        assert_eq!(w.len(), 1);
        w.clear();
        assert!(w.is_empty());
    }
}
