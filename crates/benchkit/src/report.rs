//! Report assembly and rendering: one [`ScenarioReport`] per scenario,
//! one [`Report`] per `bench_all` run.
//!
//! The human tables in `results/*.txt` and the machine-readable
//! `BENCH_contory.json` are rendered *from the same structured data*,
//! so they cannot drift apart — the drift between `results/`,
//! `EXPERIMENTS.md` and the code's actual measurements is what this
//! module exists to end.

use crate::json::Json;
use crate::measure::Measurement;
use crate::scenario::Check;
use std::fmt::Write as _;

/// Schema tag stamped into `BENCH_contory.json`.
pub const SCHEMA: &str = "contory-bench/1";

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Stable scenario name.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Paper reference (`"Table 1"`, `"Fig. 5"`, …).
    pub paper_ref: String,
    /// Base seed.
    pub seed: u64,
    /// Total simulator events processed across the scenario's testbeds
    /// (accumulated via [`crate::RunCtx::tally_sim`]).
    pub sim_events: u64,
    /// Total virtual time simulated, in seconds.
    pub sim_time_s: f64,
    /// Typed measurements in push order.
    pub measurements: Vec<Measurement>,
    /// Tolerance-band checks in push order.
    pub checks: Vec<Check>,
    /// Prose notes.
    pub notes: Vec<String>,
    /// Free-form text artifacts (title, body) — text report only.
    pub artifacts: Vec<(String, String)>,
    /// Parsed obskit metrics snapshot (`Registry::snapshot_json`).
    pub obs_metrics: Json,
    /// Span-derived per-phase totals in milliseconds (nonzero phases
    /// only, taxonomy order).
    pub obs_phases: Vec<(String, f64)>,
    /// Number of spans the run recorded.
    pub obs_span_count: u64,
}

impl ScenarioReport {
    /// Creates an empty report shell.
    pub fn new(name: &str, title: &str, paper_ref: &str, seed: u64) -> ScenarioReport {
        ScenarioReport {
            name: name.to_owned(),
            title: title.to_owned(),
            paper_ref: paper_ref.to_owned(),
            seed,
            sim_events: 0,
            sim_time_s: 0.0,
            measurements: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            artifacts: Vec::new(),
            obs_metrics: Json::Null,
            obs_phases: Vec::new(),
            obs_span_count: 0,
        }
    }

    /// Finds a measurement by id.
    pub fn measurement(&self, id: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.id == id)
    }

    /// Descriptions of every failed check.
    pub fn failed_checks(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| {
                format!(
                    "{}/{}: {} = {} outside {}",
                    self.name,
                    c.id,
                    c.label,
                    obskit::json::fmt_f64(c.value),
                    c.band_text()
                )
            })
            .collect()
    }

    /// JSON export (stable key and element order).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("name", Json::str(&self.name));
        o.set("title", Json::str(&self.title));
        o.set("paper_ref", Json::str(&self.paper_ref));
        o.set("seed", Json::num(self.seed as f64));
        o.set("sim_events", Json::num(self.sim_events as f64));
        o.set("sim_time_s", Json::num(self.sim_time_s));
        o.set(
            "measurements",
            Json::Arr(self.measurements.iter().map(Measurement::to_json).collect()),
        );
        o.set(
            "checks",
            Json::Arr(self.checks.iter().map(Check::to_json).collect()),
        );
        o.set(
            "notes",
            Json::Arr(self.notes.iter().map(Json::str).collect()),
        );
        let mut obs = Json::obj();
        obs.set("span_count", Json::num(self.obs_span_count as f64));
        let mut phases = Json::obj();
        for (name, ms) in &self.obs_phases {
            phases.set(name, Json::num(*ms));
        }
        obs.set("phase_totals_ms", phases);
        obs.set("metrics", self.obs_metrics.clone());
        o.set("obskit", obs);
        o
    }

    /// Renders the full human report: header, measurement table, check
    /// list, notes, artifacts. This is what `results/<name>.txt` holds.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        let _ = writeln!(
            out,
            "paper ref: {} | scenario: {} | seed: {} | sim events: {} | sim time: {:.0} s",
            self.paper_ref, self.name, self.seed, self.sim_events, self.sim_time_s
        );
        out.push('\n');
        out.push_str(&render_measurement_table(&self.measurements));
        if !self.checks.is_empty() {
            let _ = writeln!(out, "\nchecks (tolerance bands):");
            for c in &self.checks {
                let _ = writeln!(
                    out,
                    "  [{}] {} ({}): {} in {}",
                    if c.pass { "PASS" } else { "FAIL" },
                    c.label,
                    c.id,
                    obskit::json::fmt_f64(c.value),
                    c.band_text()
                );
            }
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\nnotes:");
            for n in &self.notes {
                let _ = writeln!(out, "  {n}");
            }
        }
        if !self.obs_phases.is_empty() || self.obs_span_count > 0 {
            let _ = writeln!(
                out,
                "\nobskit: {} spans; phase totals (ms):",
                self.obs_span_count
            );
            for (name, ms) in &self.obs_phases {
                let _ = writeln!(out, "  {name:<14} {ms:>12.3}");
            }
        }
        for (title, body) in &self.artifacts {
            let _ = writeln!(out, "\n--- {title} ---");
            let _ = writeln!(out, "{}", body.trim_end_matches('\n'));
        }
        out
    }
}

/// Renders the measurement comparison table (the old `print_table`
/// layout, returned as a `String` so library code never prints).
pub fn render_measurement_table(rows: &[Measurement]) -> String {
    let mut out = String::new();
    let cells: Vec<(String, String, String, String)> = rows
        .iter()
        .map(|m| {
            (
                m.label.clone(),
                format!("{} {}", m.measured_text(), m.unit),
                m.paper_column(),
                m.note_column(),
            )
        })
        .collect();
    let w_label = cells
        .iter()
        .map(|c| c.0.len())
        .chain([9])
        .max()
        .unwrap_or(9);
    let w_meas = cells
        .iter()
        .map(|c| c.1.len())
        .chain([8])
        .max()
        .unwrap_or(8);
    let w_paper = cells
        .iter()
        .map(|c| c.2.len())
        .chain([5])
        .max()
        .unwrap_or(5);
    let _ = writeln!(
        out,
        "{:<w_label$}  {:>w_meas$}  {:>w_paper$}  note",
        "operation", "measured", "paper"
    );
    let _ = writeln!(out, "{}", "-".repeat(w_label + w_meas + w_paper + 10));
    for (label, meas, paper, note) in &cells {
        let _ = writeln!(
            out,
            "{label:<w_label$}  {meas:>w_meas$}  {paper:>w_paper$}  {note}"
        );
    }
    out
}

/// One `bench_all` run: every scenario's report under one schema.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-scenario reports in registration order.
    pub scenarios: Vec<ScenarioReport>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Finds a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Descriptions of every failed check across all scenarios.
    pub fn failed_checks(&self) -> Vec<String> {
        self.scenarios
            .iter()
            .flat_map(ScenarioReport::failed_checks)
            .collect()
    }

    /// The versioned `BENCH_contory.json` document.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("schema", Json::str(SCHEMA));
        o.set(
            "paper",
            Json::str("Contory: A Middleware for the Provisioning of Context Information on Smart Phones (Middleware 2006)"),
        );
        o.set(
            "scenarios",
            Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
        );
        o
    }

    /// Rendered JSON document (pretty, byte-deterministic).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Unit;

    fn toy_report() -> ScenarioReport {
        let mut r = ScenarioReport::new("toy", "Toy", "Table 0", 42);
        r.measurements
            .push(Measurement::scalar("m", "a metric", Unit::Millis, 1.5).with_paper(1.4));
        r.checks.push(Check {
            id: "c".into(),
            label: "a check".into(),
            value: 2.0,
            lo: Some(0.0),
            hi: Some(5.0),
            unit: Unit::Secs,
            pass: true,
        });
        r.notes.push("hello".into());
        r.artifacts.push(("plot".into(), "###".into()));
        r
    }

    #[test]
    fn text_and_json_come_from_same_data() {
        let r = toy_report();
        let text = r.render_text();
        assert!(text.contains("=== Toy ==="));
        assert!(text.contains("a metric"));
        assert!(text.contains("[PASS] a check"));
        assert!(text.contains("--- plot ---"));
        let j = r.to_json();
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(
            j.get("measurements").and_then(Json::as_arr).unwrap().len(),
            1
        );
        assert_eq!(j.get("checks").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn report_json_has_schema() {
        let mut rep = Report::new();
        rep.scenarios.push(toy_report());
        let doc = Json::parse(&rep.to_json_string()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("scenarios").and_then(Json::as_arr).unwrap().len(),
            1
        );
    }

    #[test]
    fn failed_checks_surface_scenario_and_band() {
        let mut r = toy_report();
        r.checks.push(Check {
            id: "gap".into(),
            label: "gap SLO".into(),
            value: 50.0,
            lo: None,
            hi: Some(45.0),
            unit: Unit::Secs,
            pass: false,
        });
        let mut rep = Report::new();
        rep.scenarios.push(r);
        let failed = rep.failed_checks();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("toy/gap"), "{failed:?}");
        assert!(failed[0].contains("45"));
    }
}
