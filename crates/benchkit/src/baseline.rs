//! The perf regression gate: a checked-in baseline with per-metric
//! tolerance bands, diffed against the current run by `bench_all
//! --check`.
//!
//! `results/baseline.json` (schema `contory-bench-baseline/1`) pins one
//! `(scenario, id)` entry per measurement with the value measured when
//! the baseline was written and the tolerances the gate allows:
//! a metric passes iff
//!
//! ```text
//! |current - baseline| <= rel_tol * |baseline| + abs_tol
//! ```
//!
//! Tolerances come from each [`Measurement`]'s `gate_rel_tol` /
//! `gate_abs_tol`, so the scenario that knows a metric's noise floor
//! sets its band — the same spirit (and failure mode) as the lintkit
//! and obs gates: out-of-band means the gate fails loudly, in-band
//! means the perf trajectory is still inside what the repo promised.

use crate::json::Json;
use crate::measure::Unit;
use crate::report::Report;

/// Schema tag stamped into `results/baseline.json`.
pub const BASELINE_SCHEMA: &str = "contory-bench-baseline/1";

/// One pinned metric.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineMetric {
    /// Scenario name the metric belongs to.
    pub scenario: String,
    /// Measurement id inside the scenario.
    pub id: String,
    /// Unit recorded at pin time (a unit change is a gate failure: the
    /// metric's meaning shifted).
    pub unit: Unit,
    /// Value at pin time.
    pub value: f64,
    /// Allowed relative drift (fraction of `|value|`).
    pub rel_tol: f64,
    /// Allowed absolute drift on top of the relative band.
    pub abs_tol: f64,
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Pinned metrics in file order.
    pub metrics: Vec<BaselineMetric>,
}

/// One gate violation found by [`Baseline::check`].
#[derive(Clone, Debug)]
pub enum Violation {
    /// The current run no longer produces a pinned metric.
    Missing {
        /// Scenario name.
        scenario: String,
        /// Measurement id.
        id: String,
    },
    /// The metric's unit changed since the baseline was pinned.
    UnitChanged {
        /// Scenario name.
        scenario: String,
        /// Measurement id.
        id: String,
        /// Unit at pin time.
        baseline: Unit,
        /// Unit now.
        current: Unit,
    },
    /// The metric drifted outside its tolerance band.
    OutOfBand {
        /// Scenario name.
        scenario: String,
        /// Measurement id.
        id: String,
        /// Value at pin time.
        baseline: f64,
        /// Value now.
        current: f64,
        /// Maximum absolute drift the band allows.
        allowed: f64,
        /// Unit of the metric.
        unit: Unit,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Missing { scenario, id } => {
                write!(
                    f,
                    "{scenario}/{id}: pinned in the baseline but missing from this run"
                )
            }
            Violation::UnitChanged {
                scenario,
                id,
                baseline,
                current,
            } => write!(
                f,
                "{scenario}/{id}: unit changed {baseline} -> {current} (re-pin the baseline)"
            ),
            Violation::OutOfBand {
                scenario,
                id,
                baseline,
                current,
                allowed,
                unit,
            } => write!(
                f,
                "{scenario}/{id}: {current:.4} {unit} vs baseline {baseline:.4} {unit} \
                 (drift {:.4} > allowed {allowed:.4})",
                (current - baseline).abs()
            ),
        }
    }
}

impl Baseline {
    /// Pins every measurement of `report` at its current value, carrying
    /// each measurement's gate tolerances.
    pub fn from_report(report: &Report) -> Baseline {
        let mut metrics = Vec::new();
        for s in &report.scenarios {
            for m in &s.measurements {
                metrics.push(BaselineMetric {
                    scenario: s.name.clone(),
                    id: m.id.clone(),
                    unit: m.unit,
                    value: m.value,
                    rel_tol: m.gate_rel_tol,
                    abs_tol: m.gate_abs_tol,
                });
            }
        }
        Baseline { metrics }
    }

    /// Renders the baseline file (pretty JSON, byte-deterministic).
    pub fn to_json_string(&self) -> String {
        let mut o = Json::obj();
        o.set("schema", Json::str(BASELINE_SCHEMA));
        o.set(
            "metrics",
            Json::Arr(
                self.metrics
                    .iter()
                    .map(|m| {
                        let mut e = Json::obj();
                        e.set("scenario", Json::str(&m.scenario));
                        e.set("id", Json::str(&m.id));
                        e.set("unit", Json::str(m.unit.as_str()));
                        e.set("value", Json::num(m.value));
                        e.set("rel_tol", Json::num(m.rel_tol));
                        e.set("abs_tol", Json::num(m.abs_tol));
                        e
                    })
                    .collect(),
            ),
        );
        o.render()
    }

    /// Parses a baseline file.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(BASELINE_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported baseline schema '{other}'")),
            None => return Err("baseline missing 'schema'".to_owned()),
        }
        let entries = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| "baseline missing 'metrics' array".to_owned())?;
        let mut metrics = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("baseline metric #{i} missing '{k}'"))
            };
            let num = |k: &str| {
                field(k)?
                    .as_f64()
                    .ok_or_else(|| format!("baseline metric #{i}: '{k}' not a number"))
            };
            let text = |k: &str| {
                Ok::<String, String>(
                    field(k)?
                        .as_str()
                        .ok_or_else(|| format!("baseline metric #{i}: '{k}' not a string"))?
                        .to_owned(),
                )
            };
            let unit_s = text("unit")?;
            let unit = Unit::parse(&unit_s)
                .ok_or_else(|| format!("baseline metric #{i}: unknown unit '{unit_s}'"))?;
            metrics.push(BaselineMetric {
                scenario: text("scenario")?,
                id: text("id")?,
                unit,
                value: num("value")?,
                rel_tol: num("rel_tol")?,
                abs_tol: num("abs_tol")?,
            });
        }
        Ok(Baseline { metrics })
    }

    /// Diffs `report` against the baseline; an empty vector means the
    /// gate passes. New (unpinned) measurements are allowed — they only
    /// start gating once the baseline is re-pinned.
    pub fn check(&self, report: &Report) -> Vec<Violation> {
        let mut violations = Vec::new();
        for b in &self.metrics {
            let Some(m) = report
                .scenario(&b.scenario)
                .and_then(|s| s.measurement(&b.id))
            else {
                violations.push(Violation::Missing {
                    scenario: b.scenario.clone(),
                    id: b.id.clone(),
                });
                continue;
            };
            if m.unit != b.unit {
                violations.push(Violation::UnitChanged {
                    scenario: b.scenario.clone(),
                    id: b.id.clone(),
                    baseline: b.unit,
                    current: m.unit,
                });
                continue;
            }
            let allowed = b.rel_tol * b.value.abs() + b.abs_tol;
            if (m.value - b.value).abs() > allowed {
                violations.push(Violation::OutOfBand {
                    scenario: b.scenario.clone(),
                    id: b.id.clone(),
                    baseline: b.value,
                    current: m.value,
                    allowed,
                    unit: b.unit,
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurement;
    use crate::report::ScenarioReport;

    fn report_with(value: f64) -> Report {
        let mut s = ScenarioReport::new("table1_latency", "T1", "Table 1", 101);
        s.measurements.push(
            Measurement::scalar("get_bt_1hop", "getCxtItem BT", Unit::Millis, value)
                .with_gate_rel_tol(0.10),
        );
        let mut r = Report::new();
        r.scenarios.push(s);
        r
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let base = Baseline::from_report(&report_with(31.8));
        let text = base.to_json_string();
        let back = Baseline::parse(&text).expect("parse");
        assert_eq!(back.metrics, base.metrics);
        assert!(text.contains(BASELINE_SCHEMA));
    }

    /// The acceptance-criterion test: the gate passes in-band and
    /// *demonstrably fails* when a tolerance band is violated.
    #[test]
    fn gate_passes_in_band_and_fails_out_of_band() {
        let base = Baseline::from_report(&report_with(31.8));
        // Identical run: clean.
        assert!(base.check(&report_with(31.8)).is_empty());
        // Drift inside the 10 % band: clean.
        assert!(base.check(&report_with(33.0)).is_empty());
        // A 50 % latency regression: the gate fires.
        let violations = base.check(&report_with(47.7));
        assert_eq!(violations.len(), 1);
        let text = violations[0].to_string();
        assert!(text.contains("table1_latency/get_bt_1hop"), "{text}");
        assert!(matches!(violations[0], Violation::OutOfBand { .. }));
    }

    #[test]
    fn gate_fails_on_missing_metric_and_unit_change() {
        let base = Baseline::from_report(&report_with(31.8));
        // Missing measurement.
        let empty = Report::new();
        let violations = base.check(&empty);
        assert!(matches!(violations[0], Violation::Missing { .. }));
        // Unit change.
        let mut changed = report_with(31.8);
        changed.scenarios[0].measurements[0].unit = Unit::Secs;
        let violations = base.check(&changed);
        assert!(matches!(violations[0], Violation::UnitChanged { .. }));
    }

    #[test]
    fn abs_tol_covers_near_zero_metrics() {
        let mut s = ScenarioReport::new("sm_breakup", "SM", "§6.1", 11);
        s.measurements.push(
            Measurement::scalar("obs_share_connect", "share", Unit::Percent, 4.0)
                .with_gate_rel_tol(0.0)
                .with_gate_abs_tol(3.0),
        );
        let mut r = Report::new();
        r.scenarios.push(s);
        let base = Baseline::from_report(&r);
        r.scenarios[0].measurements[0].value = 6.5; // +2.5 pp: inside
        assert!(base.check(&r).is_empty());
        r.scenarios[0].measurements[0].value = 7.5; // +3.5 pp: outside
        assert_eq!(base.check(&r).len(), 1);
    }

    #[test]
    fn parse_rejects_bad_schema_and_units() {
        assert!(Baseline::parse("{\"schema\":\"nope\",\"metrics\":[]}").is_err());
        let bad_unit = "{\"schema\":\"contory-bench-baseline/1\",\"metrics\":[\
            {\"scenario\":\"a\",\"id\":\"b\",\"unit\":\"furlongs\",\
             \"value\":1,\"rel_tol\":0.1,\"abs_tol\":0}]}";
        assert!(Baseline::parse(bad_unit).is_err());
    }
}
