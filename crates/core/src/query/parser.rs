//! Recursive-descent parser for the query language.

use super::ast::*;
use super::lexer::{lex, Token, TokenKind};
use simkit::SimDuration;
use std::error::Error;
use std::fmt;

/// Error from [`CxtQuery::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct ParseQueryError {
    /// Byte offset in the query text where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseQueryError {}

impl CxtQuery {
    /// Parses a context query from its textual form.
    ///
    /// # Errors
    ///
    /// Returns [`ParseQueryError`] when the text is not a valid query —
    /// including a missing mandatory SELECT or DURATION clause, clauses
    /// out of order, both EVERY and EVENT present (they are mutually
    /// exclusive), or an EVENT expression nested more than 128
    /// parentheses deep.
    pub fn parse(input: &str) -> Result<CxtQuery, ParseQueryError> {
        let tokens = lex(input).map_err(|e| ParseQueryError {
            offset: e.offset,
            message: e.message,
        })?;
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
        .query()
    }
}

/// Deepest parenthesis nesting an EVENT expression may have. Each level
/// costs stack frames, so without a bound a hostile query could overflow
/// the stack.
const MAX_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses currently open in the EVENT expression.
    depth: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseQueryError {
        let offset = self
            .tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.offset)
            .unwrap_or(0);
        ParseQueryError {
            offset,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseQueryError> {
        match self.bump() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected {what}, found {}",
                other.map_or("end of query".to_owned(), |t| t.to_string())
            ))),
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<f64, ParseQueryError> {
        match self.bump() {
            Some(TokenKind::Number(n)) => Ok(n),
            other => Err(self.err(format!(
                "expected {what}, found {}",
                other.map_or("end of query".to_owned(), |t| t.to_string())
            ))),
        }
    }

    fn query(&mut self) -> Result<CxtQuery, ParseQueryError> {
        if !self.eat(&TokenKind::Select) {
            return Err(self.err("query must start with SELECT"));
        }
        let select = self.expect_ident("a context type after SELECT")?;

        let from = if self.eat(&TokenKind::From) {
            Some(self.source()?)
        } else {
            None
        };

        let mut where_clause = Vec::new();
        if self.eat(&TokenKind::Where) {
            loop {
                where_clause.push(self.where_predicate()?);
                if !(self.eat(&TokenKind::And) || self.eat(&TokenKind::Comma)) {
                    break;
                }
            }
        }

        let freshness = if self.eat(&TokenKind::Freshness) {
            Some(self.time()?)
        } else {
            None
        };

        if !self.eat(&TokenKind::Duration) {
            return Err(self.err("DURATION clause is mandatory"));
        }
        let duration = self.duration()?;

        let mode = if self.eat(&TokenKind::Every) {
            QueryMode::Periodic(self.time()?)
        } else if self.eat(&TokenKind::Event) {
            QueryMode::Event(self.event_or()?)
        } else {
            QueryMode::OnDemand
        };

        if let Some(t) = self.peek() {
            let msg = if matches!(t, TokenKind::Every | TokenKind::Event) {
                "EVERY and EVENT are mutually exclusive".to_owned()
            } else {
                format!("unexpected {t} after the query")
            };
            return Err(self.err(msg));
        }

        Ok(CxtQuery {
            select,
            from,
            where_clause,
            freshness,
            duration,
            mode,
        })
    }

    fn source(&mut self) -> Result<Source, ParseQueryError> {
        let name_offset = self.tokens.get(self.pos).map(|t| t.offset).unwrap_or(0);
        let name = self.expect_ident("a source after FROM")?;
        match name.as_str() {
            "intSensor" => Ok(Source::IntSensor),
            "extInfra" => Ok(Source::ExtInfra),
            "adHocNetwork" => {
                if !self.eat(&TokenKind::LParen) {
                    // Bare adHocNetwork: all nodes within one hop.
                    return Ok(Source::AdHocNetwork {
                        num_nodes: NumNodes::All,
                        num_hops: 1,
                    });
                }
                let num_nodes = match self.bump() {
                    Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("all") => NumNodes::All,
                    Some(TokenKind::Number(n)) if n >= 1.0 && n.fract() == 0.0 => {
                        NumNodes::First(n as u32)
                    }
                    _ => return Err(self.err("numNodes must be 'all' or a positive integer")),
                };
                if !self.eat(&TokenKind::Comma) {
                    return Err(self.err("expected ',' between numNodes and numHops"));
                }
                let hops = self.expect_number("numHops")?;
                if hops < 1.0 || hops.fract() != 0.0 {
                    return Err(self.err("numHops must be a positive integer"));
                }
                if !self.eat(&TokenKind::RParen) {
                    return Err(self.err("expected ')' after adHocNetwork arguments"));
                }
                Ok(Source::AdHocNetwork {
                    num_nodes,
                    num_hops: hops as u32,
                })
            }
            "entity" => {
                if !self.eat(&TokenKind::LParen) {
                    return Err(self.err("expected '(' after entity"));
                }
                let id = self.expect_ident("an entity identifier")?;
                if !self.eat(&TokenKind::RParen) {
                    return Err(self.err("expected ')' after entity identifier"));
                }
                Ok(Source::Entity(id))
            }
            "region" => {
                if !self.eat(&TokenKind::LParen) {
                    return Err(self.err("expected '(' after region"));
                }
                let x = self.expect_number("region centre x")?;
                if !self.eat(&TokenKind::Comma) {
                    return Err(self.err("expected ',' in region coordinates"));
                }
                let y = self.expect_number("region centre y")?;
                if !self.eat(&TokenKind::Comma) {
                    return Err(self.err("expected ',' in region coordinates"));
                }
                let radius = self.expect_number("region radius")?;
                if radius < 0.0 {
                    return Err(self.err("region radius must be non-negative"));
                }
                if !self.eat(&TokenKind::RParen) {
                    return Err(self.err("expected ')' after region"));
                }
                Ok(Source::Region { x, y, radius })
            }
            other => Err(ParseQueryError {
                offset: name_offset,
                message: format!(
                    "unknown source '{other}' (expected intSensor, extInfra, adHocNetwork, entity or region)"
                ),
            }),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseQueryError> {
        match self.bump() {
            Some(TokenKind::Eq) => Ok(CmpOp::Eq),
            Some(TokenKind::Ne) => Ok(CmpOp::Ne),
            Some(TokenKind::Lt) => Ok(CmpOp::Lt),
            Some(TokenKind::Le) => Ok(CmpOp::Le),
            Some(TokenKind::Gt) => Ok(CmpOp::Gt),
            Some(TokenKind::Ge) => Ok(CmpOp::Ge),
            _ => Err(self.err("expected a comparison operator")),
        }
    }

    fn where_predicate(&mut self) -> Result<WherePredicate, ParseQueryError> {
        let key = self.expect_ident("a metadata key")?;
        let op = self.cmp_op()?;
        let value = match self.bump() {
            Some(TokenKind::Number(n)) => PredValue::Number(n),
            Some(TokenKind::Ident(s)) => PredValue::Text(s),
            _ => return Err(self.err("expected a literal after the operator")),
        };
        Ok(WherePredicate { key, op, value })
    }

    /// `<number> <unit>` where unit ∈ {msec, ms, sec, s, min, hour, h}.
    fn time(&mut self) -> Result<SimDuration, ParseQueryError> {
        let n = self.expect_number("a time value")?;
        if n < 0.0 {
            return Err(self.err("time must be non-negative"));
        }
        let unit = self.expect_ident("a time unit (msec/sec/min/hour)")?;
        let secs = match unit.to_ascii_lowercase().as_str() {
            "ms" | "msec" | "millis" => n / 1e3,
            "s" | "sec" | "secs" | "second" | "seconds" => n,
            "min" | "mins" | "minute" | "minutes" => n * 60.0,
            "h" | "hour" | "hours" => n * 3600.0,
            other => return Err(self.err(format!("unknown time unit '{other}'"))),
        };
        Ok(SimDuration::from_secs_f64(secs))
    }

    /// DURATION value: a time or `<n> samples`.
    fn duration(&mut self) -> Result<DurationClause, ParseQueryError> {
        let n = self.expect_number("a duration value")?;
        let unit = self.expect_ident("a duration unit (time unit or 'samples')")?;
        if unit.eq_ignore_ascii_case("samples") || unit.eq_ignore_ascii_case("sample") {
            if n < 1.0 || n.fract() != 0.0 {
                return Err(self.err("sample count must be a positive integer"));
            }
            return Ok(DurationClause::Samples(n as u32));
        }
        // Re-use the time path by rewinding the two tokens.
        self.pos -= 2;
        Ok(DurationClause::Time(self.time()?))
    }

    /// `or := and (OR and)*`
    fn event_or(&mut self) -> Result<EventExpr, ParseQueryError> {
        let mut left = self.event_and()?;
        while self.eat(&TokenKind::Or) {
            let right = self.event_and()?;
            left = EventExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `and := cmp (AND cmp)*`
    fn event_and(&mut self) -> Result<EventExpr, ParseQueryError> {
        let mut left = self.event_cmp()?;
        while self.eat(&TokenKind::And) {
            let right = self.event_cmp()?;
            left = EventExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `cmp := term op term | '(' or ')'`
    fn event_cmp(&mut self) -> Result<EventExpr, ParseQueryError> {
        if self.eat(&TokenKind::LParen) {
            if self.depth == MAX_DEPTH {
                return Err(self.err(format!("EVENT expression nested deeper than {MAX_DEPTH}")));
            }
            self.depth += 1;
            let inner = self.event_or()?;
            self.depth -= 1;
            if !self.eat(&TokenKind::RParen) {
                return Err(self.err("expected ')' in EVENT expression"));
            }
            return Ok(inner);
        }
        let left = self.event_term()?;
        let op = self.cmp_op()?;
        let right = self.event_term()?;
        Ok(EventExpr::Cmp { left, op, right })
    }

    fn event_term(&mut self) -> Result<EventTerm, ParseQueryError> {
        match self.bump() {
            Some(TokenKind::Number(n)) => Ok(EventTerm::Number(n)),
            Some(TokenKind::Ident(name)) => {
                let func = match name.to_ascii_uppercase().as_str() {
                    "AVG" => Some(AggFunc::Avg),
                    "MIN" => Some(AggFunc::Min),
                    "MAX" => Some(AggFunc::Max),
                    "SUM" => Some(AggFunc::Sum),
                    "COUNT" => Some(AggFunc::Count),
                    _ => None,
                };
                match func {
                    Some(func) if self.eat(&TokenKind::LParen) => {
                        let field = self.expect_ident("a context type inside the aggregate")?;
                        if !self.eat(&TokenKind::RParen) {
                            return Err(self.err("expected ')' after aggregate argument"));
                        }
                        Ok(EventTerm::Agg { func, field })
                    }
                    _ => Ok(EventTerm::Field(name)),
                }
            }
            _ => Err(self.err("expected a term in the EVENT expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        let q = CxtQuery::parse(
            "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 \
             FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25",
        )
        .unwrap();
        assert_eq!(q.select, "temperature");
        assert_eq!(
            q.from,
            Some(Source::AdHocNetwork {
                num_nodes: NumNodes::First(10),
                num_hops: 3
            })
        );
        assert_eq!(q.where_clause.len(), 1);
        assert_eq!(q.where_clause[0].key, "accuracy");
        assert_eq!(q.freshness, Some(SimDuration::from_secs(30)));
        assert_eq!(q.duration, DurationClause::Time(SimDuration::from_hours(1)));
        match &q.mode {
            QueryMode::Event(EventExpr::Cmp { left, op, right }) => {
                assert_eq!(
                    left,
                    &EventTerm::Agg {
                        func: AggFunc::Avg,
                        field: "temperature".into()
                    }
                );
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(right, &EventTerm::Number(25.0));
            }
            other => panic!("wrong mode {other:?}"),
        }
    }

    #[test]
    fn parses_the_merging_example_queries() {
        // q1 and q2 of §4.3.
        let q1 = CxtQuery::parse(
            "SELECT temperature FROM adHocNetwork(all,3) FRESHNESS 10 sec \
             DURATION 1 hour EVERY 15 sec",
        )
        .unwrap();
        assert_eq!(
            q1.from,
            Some(Source::AdHocNetwork {
                num_nodes: NumNodes::All,
                num_hops: 3
            })
        );
        assert_eq!(q1.mode, QueryMode::Periodic(SimDuration::from_secs(15)));
        let q2 = CxtQuery::parse(
            "SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 20 sec \
             DURATION 2 hour EVERY 30 sec",
        )
        .unwrap();
        assert_eq!(q2.duration, DurationClause::Time(SimDuration::from_hours(2)));
    }

    #[test]
    fn minimal_query_is_select_plus_duration() {
        let q = CxtQuery::parse("SELECT location DURATION 50 samples").unwrap();
        assert_eq!(q.select, "location");
        assert_eq!(q.from, None);
        assert!(q.where_clause.is_empty());
        assert_eq!(q.freshness, None);
        assert_eq!(q.duration, DurationClause::Samples(50));
        assert_eq!(q.mode, QueryMode::OnDemand);
    }

    #[test]
    fn parses_entity_and_region_sources() {
        let q = CxtQuery::parse("SELECT location FROM entity(friend-7) DURATION 1 hour").unwrap();
        assert_eq!(q.from, Some(Source::Entity("friend-7".into())));
        let q =
            CxtQuery::parse("SELECT wind FROM region(1500,-200,800) DURATION 10 min").unwrap();
        assert_eq!(
            q.from,
            Some(Source::Region {
                x: 1500.0,
                y: -200.0,
                radius: 800.0
            })
        );
    }

    #[test]
    fn bare_adhoc_defaults_to_one_hop_all() {
        let q = CxtQuery::parse("SELECT noise FROM adHocNetwork DURATION 1 min").unwrap();
        assert_eq!(
            q.from,
            Some(Source::AdHocNetwork {
                num_nodes: NumNodes::All,
                num_hops: 1
            })
        );
    }

    #[test]
    fn where_supports_and_and_comma_and_text() {
        let q = CxtQuery::parse(
            "SELECT temperature WHERE accuracy<=0.5 AND trust=trusted, correctness>0.8 \
             DURATION 1 min",
        )
        .unwrap();
        assert_eq!(q.where_clause.len(), 3);
        assert_eq!(q.where_clause[1].value, PredValue::Text("trusted".into()));
        assert_eq!(q.where_clause[2].op, CmpOp::Gt);
    }

    #[test]
    fn event_expressions_with_boolean_structure() {
        let q = CxtQuery::parse(
            "SELECT temperature DURATION 1 hour \
             EVENT AVG(temperature)>25 AND MIN(temperature)>10 OR COUNT(temperature)>=5",
        )
        .unwrap();
        match q.mode {
            QueryMode::Event(EventExpr::Or(a, _b)) => {
                assert!(matches!(*a, EventExpr::And(_, _)));
            }
            other => panic!("wrong structure {other:?}"),
        }
    }

    #[test]
    fn time_units_accepted() {
        for (text, secs) in [
            ("500 msec", 0.5),
            ("30 sec", 30.0),
            ("2 min", 120.0),
            ("1 hour", 3600.0),
        ] {
            let q = CxtQuery::parse(&format!("SELECT x DURATION {text}")).unwrap();
            assert_eq!(
                q.duration,
                DurationClause::Time(SimDuration::from_secs_f64(secs)),
                "{text}"
            );
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        // missing SELECT
        assert!(CxtQuery::parse("DURATION 1 hour").is_err());
        // missing DURATION (mandatory)
        let err = CxtQuery::parse("SELECT temperature EVERY 5 sec").unwrap_err();
        assert!(err.message.contains("DURATION"), "{err}");
        // EVERY and EVENT together
        let err = CxtQuery::parse(
            "SELECT t DURATION 1 hour EVERY 5 sec EVENT AVG(t)>1",
        )
        .unwrap_err();
        assert!(err.message.contains("mutually exclusive"), "{err}");
        // unknown source
        assert!(CxtQuery::parse("SELECT t FROM bogusSource DURATION 1 min").is_err());
        // bad unit
        assert!(CxtQuery::parse("SELECT t DURATION 3 fortnights").is_err());
        // zero hops
        assert!(CxtQuery::parse("SELECT t FROM adHocNetwork(all,0) DURATION 1 min").is_err());
        // trailing garbage
        assert!(CxtQuery::parse("SELECT t DURATION 1 min banana").is_err());
        // negative freshness
        assert!(CxtQuery::parse("SELECT t FRESHNESS -5 sec DURATION 1 min").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let query = |levels: usize| {
            format!(
                "SELECT temperature FROM intSensor DURATION 1 hour EVENT {}AVG(temperature)>25{}",
                "(".repeat(levels),
                ")".repeat(levels)
            )
        };
        assert!(CxtQuery::parse(&query(MAX_DEPTH)).is_ok());
        let deep = query(10_000);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || CxtQuery::parse(&deep))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread panicked");
        let err = res.expect_err("10,000 levels must be refused");
        assert!(err.message.contains("nested deeper than 128"), "{err}");
    }

    #[test]
    fn error_offsets_are_useful() {
        let err = CxtQuery::parse("SELECT t FROM bogus DURATION 1 min").unwrap_err();
        assert_eq!(err.offset, 14);
        assert!(err.to_string().contains("byte 14"));
    }
}
