//! Abstract syntax of context queries, with canonical rendering.

use simkit::SimDuration;
use std::fmt;

/// Comparison operators usable in WHERE and EVENT clauses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to two floats (`Eq`/`Ne` use a small epsilon).
    pub fn eval_f64(self, left: f64, right: f64) -> bool {
        const EPS: f64 = 1e-9;
        match self {
            CmpOp::Eq => (left - right).abs() <= EPS,
            CmpOp::Ne => (left - right).abs() > EPS,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Right-hand side of a WHERE predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum PredValue {
    /// Numeric literal.
    Number(f64),
    /// Textual literal (e.g. `trust=trusted`).
    Text(String),
}

impl fmt::Display for PredValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredValue::Number(n) => write!(f, "{}", fmt_num(*n)),
            PredValue::Text(t) => f.write_str(t),
        }
    }
}

/// One WHERE predicate: `<metadata key> <op> <value>`.
#[derive(Clone, Debug, PartialEq)]
pub struct WherePredicate {
    /// Metadata key (see [`crate::metadata_keys`]).
    pub key: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: PredValue,
}

impl fmt::Display for WherePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.key, self.op, self.value)
    }
}

/// Multiplicity of ad hoc source nodes (`numNodes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumNodes {
    /// All nodes that can be discovered.
    All,
    /// The first `k` nodes found.
    First(u32),
}

impl fmt::Display for NumNodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumNodes::All => f.write_str("all"),
            NumNodes::First(k) => write!(f, "{k}"),
        }
    }
}

/// The FROM clause: which provisioning mechanism / destination to use.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Internal sensor-based provisioning.
    IntSensor,
    /// External infrastructure-based provisioning.
    ExtInfra,
    /// Distributed provisioning in an ad hoc network.
    AdHocNetwork {
        /// How many provider nodes to involve.
        num_nodes: NumNodes,
        /// Maximum provider distance in hops.
        num_hops: u32,
    },
    /// A specific entity ("to know when a friend is nearby").
    Entity(String),
    /// A geographic region to monitor ("next exit on the highway").
    Region {
        /// Centre easting, metres.
        x: f64,
        /// Centre northing, metres.
        y: f64,
        /// Radius, metres.
        radius: f64,
    },
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::IntSensor => f.write_str("intSensor"),
            Source::ExtInfra => f.write_str("extInfra"),
            Source::AdHocNetwork {
                num_nodes,
                num_hops,
            } => write!(f, "adHocNetwork({num_nodes},{num_hops})"),
            Source::Entity(e) => write!(f, "entity({e})"),
            Source::Region { x, y, radius } => {
                write!(f, "region({},{},{})", fmt_num(*x), fmt_num(*y), fmt_num(*radius))
            }
        }
    }
}

/// The DURATION clause: "as time (e.g., 1 hour) or as the number of
/// samples that must be collected".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DurationClause {
    /// Query lifetime as wall time.
    Time(SimDuration),
    /// Query lifetime as a sample budget.
    Samples(u32),
}

impl fmt::Display for DurationClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurationClause::Time(d) => f.write_str(&fmt_duration(*d)),
            DurationClause::Samples(n) => write!(f, "{n} samples"),
        }
    }
}

/// Aggregation functions usable in EVENT expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Sample count.
    Count,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
        })
    }
}

/// A term in an EVENT comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum EventTerm {
    /// An aggregate over the collection window, e.g. `AVG(temperature)`.
    Agg {
        /// Aggregation function.
        func: AggFunc,
        /// Context type aggregated.
        field: String,
    },
    /// The latest value of a context type.
    Field(String),
    /// A numeric literal.
    Number(f64),
}

impl fmt::Display for EventTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventTerm::Agg { func, field } => write!(f, "{func}({field})"),
            EventTerm::Field(name) => f.write_str(name),
            EventTerm::Number(n) => f.write_str(&fmt_num(*n)),
        }
    }
}

/// An EVENT condition over collected context data.
#[derive(Clone, Debug, PartialEq)]
pub enum EventExpr {
    /// A comparison between two terms.
    Cmp {
        /// Left term.
        left: EventTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: EventTerm,
    },
    /// Both sub-expressions must hold.
    And(Box<EventExpr>, Box<EventExpr>),
    /// Either sub-expression must hold.
    Or(Box<EventExpr>, Box<EventExpr>),
}

impl fmt::Display for EventExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventExpr::Cmp { left, op, right } => write!(f, "{left}{op}{right}"),
            EventExpr::And(a, b) => write!(f, "{a} AND {b}"),
            EventExpr::Or(a, b) => write!(f, "({a} OR {b})"),
        }
    }
}

/// Interaction mode: on-demand, periodic (EVERY) or event-based (EVENT).
#[derive(Clone, Debug, PartialEq)]
pub enum QueryMode {
    /// Single round, results returned once.
    OnDemand,
    /// New results every interval.
    Periodic(SimDuration),
    /// New results whenever the condition holds at the provider.
    Event(EventExpr),
}

impl QueryMode {
    /// True for EVERY/EVENT queries.
    pub fn is_long_running(&self) -> bool {
        !matches!(self, QueryMode::OnDemand)
    }
}

/// A parsed context query.
#[derive(Clone, Debug, PartialEq)]
pub struct CxtQuery {
    /// SELECT: requested context type.
    pub select: String,
    /// FROM: requested source (None = middleware decides).
    pub from: Option<Source>,
    /// WHERE: metadata predicates (all must hold).
    pub where_clause: Vec<WherePredicate>,
    /// FRESHNESS: maximum item age.
    pub freshness: Option<SimDuration>,
    /// DURATION: query lifetime.
    pub duration: DurationClause,
    /// EVERY/EVENT/on-demand.
    pub mode: QueryMode,
}

impl CxtQuery {
    /// The paper's cited object size for a context query.
    pub const WIRE_SIZE: usize = 205;

    /// Serialized size in bytes. Queries are fixed-layout objects in the
    /// prototype: 205 bytes (§6.1).
    pub fn wire_size(&self) -> usize {
        Self::WIRE_SIZE
    }
}

impl fmt::Display for CxtQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", self.select)?;
        if let Some(src) = &self.from {
            write!(f, " FROM {src}")?;
        }
        if !self.where_clause.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.where_clause.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if let Some(fr) = self.freshness {
            write!(f, " FRESHNESS {}", fmt_duration(fr))?;
        }
        write!(f, " DURATION {}", self.duration)?;
        match &self.mode {
            QueryMode::OnDemand => Ok(()),
            QueryMode::Periodic(d) => write!(f, " EVERY {}", fmt_duration(*d)),
            QueryMode::Event(e) => write!(f, " EVENT {e}"),
        }
    }
}

/// Renders a duration in the query language's units (largest exact unit).
pub(crate) fn fmt_duration(d: SimDuration) -> String {
    let us = d.as_micros();
    if us == 0 {
        return "0 sec".to_owned();
    }
    if us.is_multiple_of(3_600_000_000) {
        format!("{} hour", us / 3_600_000_000)
    } else if us.is_multiple_of(60_000_000) {
        format!("{} min", us / 60_000_000)
    } else if us.is_multiple_of(1_000_000) {
        format!("{} sec", us / 1_000_000)
    } else {
        format!("{} msec", us / 1_000)
    }
}

/// Renders a float without a trailing `.0` when integral.
pub(crate) fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval_f64(0.2, 0.2));
        assert!(!CmpOp::Eq.eval_f64(0.2, 0.3));
        assert!(CmpOp::Ne.eval_f64(1.0, 2.0));
        assert!(CmpOp::Lt.eval_f64(1.0, 2.0));
        assert!(CmpOp::Le.eval_f64(2.0, 2.0));
        assert!(CmpOp::Gt.eval_f64(3.0, 2.0));
        assert!(CmpOp::Ge.eval_f64(2.0, 2.0));
    }

    #[test]
    fn display_round_trip_of_paper_example() {
        let text = "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 \
                    FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25";
        let q = CxtQuery::parse(text).unwrap();
        assert_eq!(q.to_string(), text);
    }

    #[test]
    fn duration_formatting_picks_largest_unit() {
        assert_eq!(fmt_duration(SimDuration::from_hours(2)), "2 hour");
        assert_eq!(fmt_duration(SimDuration::from_mins(90)), "90 min");
        assert_eq!(fmt_duration(SimDuration::from_secs(45)), "45 sec");
        assert_eq!(fmt_duration(SimDuration::from_millis(250)), "250 msec");
        assert_eq!(fmt_duration(SimDuration::ZERO), "0 sec");
    }

    #[test]
    fn wire_size_is_fixed() {
        let q = CxtQuery::parse("SELECT light DURATION 10 samples").unwrap();
        assert_eq!(q.wire_size(), 205);
    }

    #[test]
    fn mode_long_running() {
        assert!(!QueryMode::OnDemand.is_long_running());
        assert!(QueryMode::Periodic(SimDuration::from_secs(1)).is_long_running());
    }
}
