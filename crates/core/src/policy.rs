//! Control policies: `contextRule`s (§4.3).
//!
//! "Control policies are formulated as contextRules consisting of a
//! condition and an action statement. Conditions are articulated as
//! Boolean expressions, and the operators currently supported are equal,
//! notEqual, moreThan, and lessThan. An example of condition is
//! `<batteryLevel, equal, low>`. Through and and or operators, elementary
//! conditions can be combined. … Actions currently supported are
//! reducePower, reduceMemory, and reduceLoad."

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Operators of the rules vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleOp {
    /// `equal`
    Equal,
    /// `notEqual`
    NotEqual,
    /// `moreThan`
    MoreThan,
    /// `lessThan`
    LessThan,
}

impl RuleOp {
    fn parse(s: &str) -> Option<RuleOp> {
        match s {
            "equal" => Some(RuleOp::Equal),
            "notEqual" => Some(RuleOp::NotEqual),
            "moreThan" => Some(RuleOp::MoreThan),
            "lessThan" => Some(RuleOp::LessThan),
            _ => None,
        }
    }
}

impl fmt::Display for RuleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleOp::Equal => "equal",
            RuleOp::NotEqual => "notEqual",
            RuleOp::MoreThan => "moreThan",
            RuleOp::LessThan => "lessThan",
        })
    }
}

/// A status-variable value.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleValue {
    /// Numeric status (e.g. `memoryUtilization`).
    Number(f64),
    /// Categorical status (e.g. `batteryLevel = low`).
    Text(String),
}

impl fmt::Display for RuleValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleValue::Number(n) => write!(f, "{n}"),
            RuleValue::Text(t) => f.write_str(t),
        }
    }
}

/// A Boolean condition over system status variables.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// `<variable, op, value>`
    Cmp {
        /// Status variable name.
        variable: String,
        /// Operator.
        op: RuleOp,
        /// Literal to compare with.
        value: RuleValue,
    },
    /// Both must hold.
    And(Box<Condition>, Box<Condition>),
    /// Either must hold.
    Or(Box<Condition>, Box<Condition>),
}

/// Failure to parse a condition's text form.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseConditionError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseConditionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "condition parse error: {}", self.message)
    }
}

impl Error for ParseConditionError {}

impl Condition {
    /// Builds an elementary comparison.
    pub fn cmp(variable: impl Into<String>, op: RuleOp, value: RuleValue) -> Self {
        Condition::Cmp {
            variable: variable.into(),
            op,
            value,
        }
    }

    /// Combines with AND.
    pub fn and(self, other: Condition) -> Self {
        Condition::And(Box::new(self), Box::new(other))
    }

    /// Combines with OR.
    pub fn or(self, other: Condition) -> Self {
        Condition::Or(Box::new(self), Box::new(other))
    }

    /// Parses the paper's text form:
    /// `<batteryLevel, equal, low> and <memoryUtilization, moreThan, 0.8>`.
    /// `and` binds tighter than `or`; both are case-insensitive.
    ///
    /// # Errors
    ///
    /// Returns [`ParseConditionError`] for malformed input.
    pub fn parse(text: &str) -> Result<Condition, ParseConditionError> {
        let mut tokens = tokenize(text)?;
        tokens.reverse(); // pop() from the front
        let cond = parse_or(&mut tokens)?;
        if !tokens.is_empty() {
            return Err(ParseConditionError {
                message: "trailing input after condition".into(),
            });
        }
        Ok(cond)
    }

    /// Evaluates against the system status. Comparisons on unknown
    /// variables are false.
    pub fn eval(&self, status: &SystemStatus) -> bool {
        match self {
            Condition::Cmp {
                variable,
                op,
                value,
            } => match (status.get(variable), value) {
                (Some(RuleValue::Number(actual)), RuleValue::Number(target)) => match op {
                    RuleOp::Equal => (actual - target).abs() <= 1e-9,
                    RuleOp::NotEqual => (actual - target).abs() > 1e-9,
                    RuleOp::MoreThan => *actual > *target,
                    RuleOp::LessThan => *actual < *target,
                },
                (Some(RuleValue::Text(actual)), RuleValue::Text(target)) => match op {
                    RuleOp::Equal => actual == target,
                    RuleOp::NotEqual => actual != target,
                    _ => false,
                },
                _ => false,
            },
            Condition::And(a, b) => a.eval(status) && b.eval(status),
            Condition::Or(a, b) => a.eval(status) || b.eval(status),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Cmp {
                variable,
                op,
                value,
            } => write!(f, "<{variable}, {op}, {value}>"),
            Condition::And(a, b) => write!(f, "{a} and {b}"),
            // No parentheses in the text form (the grammar has none):
            // `and` binds tighter, which re-parses with identical
            // semantics.
            Condition::Or(a, b) => write!(f, "{a} or {b}"),
        }
    }
}

enum CondToken {
    Cmp(Condition),
    And,
    Or,
}

fn tokenize(text: &str) -> Result<Vec<CondToken>, ParseConditionError> {
    let mut out = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix('<') {
            let Some((inner, after)) = tail.split_once('>') else {
                return Err(ParseConditionError {
                    message: "unterminated '<...>' comparison".into(),
                });
            };
            let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
            let [var, op, value] = parts.as_slice() else {
                return Err(ParseConditionError {
                    message: format!("expected <variable, op, value>, got <{inner}>"),
                });
            };
            let op = RuleOp::parse(op).ok_or_else(|| ParseConditionError {
                message: format!("unknown operator '{op}'"),
            })?;
            let value = match value.parse::<f64>() {
                Ok(n) => RuleValue::Number(n),
                Err(_) => RuleValue::Text((*value).to_owned()),
            };
            out.push(CondToken::Cmp(Condition::cmp(*var, op, value)));
            rest = after.trim_start();
        } else {
            let word_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let (word, tail) = rest.split_at(word_end);
            match word.to_ascii_lowercase().as_str() {
                "and" => out.push(CondToken::And),
                "or" => out.push(CondToken::Or),
                other => {
                    return Err(ParseConditionError {
                        message: format!("unexpected token '{other}'"),
                    })
                }
            }
            rest = tail.trim_start();
        }
    }
    Ok(out)
}

fn parse_or(tokens: &mut Vec<CondToken>) -> Result<Condition, ParseConditionError> {
    let mut left = parse_and(tokens)?;
    while matches!(tokens.last(), Some(CondToken::Or)) {
        tokens.pop();
        let right = parse_and(tokens)?;
        left = left.or(right);
    }
    Ok(left)
}

fn parse_and(tokens: &mut Vec<CondToken>) -> Result<Condition, ParseConditionError> {
    let mut left = parse_leaf(tokens)?;
    while matches!(tokens.last(), Some(CondToken::And)) {
        tokens.pop();
        let right = parse_leaf(tokens)?;
        left = left.and(right);
    }
    Ok(left)
}

fn parse_leaf(tokens: &mut Vec<CondToken>) -> Result<Condition, ParseConditionError> {
    match tokens.pop() {
        Some(CondToken::Cmp(c)) => Ok(c),
        _ => Err(ParseConditionError {
            message: "expected a '<variable, op, value>' comparison".into(),
        }),
    }
}

/// Actions a rule can trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleAction {
    /// Suspend or downgrade energy-hungry provisioning (e.g. terminate
    /// 2G/3G queries, replace WiFi multi-hop with BT one-hop).
    ReducePower,
    /// Trim local context storage.
    ReduceMemory,
    /// Lower provisioning rates.
    ReduceLoad,
}

impl fmt::Display for RuleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleAction::ReducePower => crate::vocab::rule_actions::REDUCE_POWER,
            RuleAction::ReduceMemory => crate::vocab::rule_actions::REDUCE_MEMORY,
            RuleAction::ReduceLoad => crate::vocab::rule_actions::REDUCE_LOAD,
        })
    }
}

/// A control policy rule: when the condition holds, the action becomes
/// active and is enforced by the `ContextFactory`.
#[derive(Clone, Debug, PartialEq)]
pub struct ContextRule {
    /// Trigger condition.
    pub condition: Condition,
    /// Action to enforce while the condition holds.
    pub action: RuleAction,
}

impl ContextRule {
    /// Creates a rule.
    pub fn new(condition: Condition, action: RuleAction) -> Self {
        ContextRule { condition, action }
    }
}

impl fmt::Display for ContextRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "when {} do {}", self.condition, self.action)
    }
}

/// Snapshot of system status variables rules are evaluated against.
///
/// Well-known variables maintained by the `ResourcesMonitor`:
/// `batteryLevel` (low/medium/high), `memoryUtilization` (0–1),
/// `activeQueries` (count).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemStatus {
    vars: BTreeMap<String, RuleValue>,
}

impl SystemStatus {
    /// Creates an empty status.
    pub fn new() -> Self {
        SystemStatus::default()
    }

    /// Sets a variable.
    pub fn set(&mut self, variable: impl Into<String>, value: RuleValue) {
        self.vars.insert(variable.into(), value);
    }

    /// Reads a variable.
    pub fn get(&self, variable: &str) -> Option<&RuleValue> {
        self.vars.get(variable)
    }

    /// The actions of all rules whose conditions currently hold.
    pub fn active_actions(&self, rules: &[ContextRule]) -> Vec<RuleAction> {
        let mut actions: Vec<RuleAction> = Vec::new();
        for rule in rules.iter().filter(|r| r.condition.eval(self)) {
            if !actions.contains(&rule.action) {
                actions.push(rule.action);
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(battery: &str, mem: f64) -> SystemStatus {
        let mut s = SystemStatus::new();
        s.set("batteryLevel", RuleValue::Text(battery.into()));
        s.set("memoryUtilization", RuleValue::Number(mem));
        s
    }

    #[test]
    fn parses_the_paper_example_condition() {
        let c = Condition::parse("<batteryLevel, equal, low>").unwrap();
        assert!(c.eval(&status("low", 0.2)));
        assert!(!c.eval(&status("high", 0.2)));
    }

    #[test]
    fn and_or_combinations() {
        let c = Condition::parse(
            "<batteryLevel, equal, low> and <memoryUtilization, moreThan, 0.5>",
        )
        .unwrap();
        assert!(!c.eval(&status("low", 0.2)));
        assert!(c.eval(&status("low", 0.8)));
        let c = Condition::parse(
            "<batteryLevel, equal, low> or <memoryUtilization, moreThan, 0.5>",
        )
        .unwrap();
        assert!(c.eval(&status("high", 0.8)));
        assert!(!c.eval(&status("high", 0.2)));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        // a or (b and c)
        let c = Condition::parse(
            "<batteryLevel, equal, low> or <batteryLevel, equal, medium> and \
             <memoryUtilization, moreThan, 0.5>",
        )
        .unwrap();
        assert!(c.eval(&status("low", 0.0)));
        assert!(c.eval(&status("medium", 0.9)));
        assert!(!c.eval(&status("medium", 0.1)));
    }

    #[test]
    fn numeric_operators() {
        let more = Condition::parse("<memoryUtilization, moreThan, 0.5>").unwrap();
        let less = Condition::parse("<memoryUtilization, lessThan, 0.5>").unwrap();
        let ne = Condition::parse("<memoryUtilization, notEqual, 0.5>").unwrap();
        assert!(more.eval(&status("x", 0.6)));
        assert!(less.eval(&status("x", 0.4)));
        assert!(ne.eval(&status("x", 0.4)));
        assert!(!ne.eval(&status("x", 0.5)));
    }

    #[test]
    fn unknown_variable_is_false() {
        let c = Condition::parse("<nosuch, equal, 1>").unwrap();
        assert!(!c.eval(&SystemStatus::new()));
    }

    #[test]
    fn type_mismatch_is_false() {
        let c = Condition::parse("<batteryLevel, moreThan, 5>").unwrap();
        assert!(!c.eval(&status("low", 0.0)));
    }

    #[test]
    fn parse_errors() {
        assert!(Condition::parse("").is_err());
        assert!(Condition::parse("<a, equal>").is_err());
        assert!(Condition::parse("<a, sortaEqualish, 1>").is_err());
        assert!(Condition::parse("<a, equal, 1> xor <b, equal, 2>").is_err());
        assert!(Condition::parse("<a, equal, 1> and").is_err());
        assert!(Condition::parse("<a, equal, 1").is_err());
    }

    #[test]
    fn display_round_trips() {
        let text = "<batteryLevel, equal, low> and <memoryUtilization, moreThan, 0.8>";
        let c = Condition::parse(text).unwrap();
        let again = Condition::parse(&c.to_string()).unwrap();
        assert_eq!(c, again);
    }

    #[test]
    fn active_actions_dedup() {
        let rules = vec![
            ContextRule::new(
                Condition::parse("<batteryLevel, equal, low>").unwrap(),
                RuleAction::ReducePower,
            ),
            ContextRule::new(
                Condition::parse("<memoryUtilization, moreThan, 0.9>").unwrap(),
                RuleAction::ReduceMemory,
            ),
            ContextRule::new(
                Condition::parse("<batteryLevel, notEqual, high>").unwrap(),
                RuleAction::ReducePower,
            ),
        ];
        let s = status("low", 0.95);
        let actions = s.active_actions(&rules);
        assert_eq!(
            actions,
            vec![RuleAction::ReducePower, RuleAction::ReduceMemory]
        );
        let s = status("high", 0.1);
        assert!(s.active_actions(&rules).is_empty());
    }

    #[test]
    fn rule_display() {
        let r = ContextRule::new(
            Condition::parse("<batteryLevel, equal, low>").unwrap(),
            RuleAction::ReducePower,
        );
        assert_eq!(r.to_string(), "when <batteryLevel, equal, low> do reducePower");
    }
}
