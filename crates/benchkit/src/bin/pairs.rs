//! Compares two builds over alternating pairs of benchmark runs.
//!
//! ```text
//! pairs <BENCHMARK.json> <runs.txt>
//! ```
//!
//! `scripts/pairs.sh` writes `runs.txt`: one line per run,
//! `<base|change> <seed> <the run's last stdout line>`, and the two runs
//! of one seed form a pair. For every end-to-end metric that
//! `BENCHMARK.json` declares, this prints each side's median and
//! quartiles, the change/base ratio of the medians, how many pairs the
//! change won, the base's quartile spread ((q3 − q1) / median) and a
//! verdict:
//!
//! - `gain`: the change won at least 9 in 10 of at least 10 pairs, and
//!   its median is better than the base's by more than the base's spread;
//! - `too few pairs`: as `gain`, but from fewer than 10 pairs, whose
//!   wins and quartiles overstate a difference too often to be claimed
//!   (five `fleet` pairs read 5 of 5 on a metric the change never ran);
//! - `worse`: the change's median is worse than the base's by more than
//!   the metric's bound, from any number of pairs;
//! - `unresolved`: either side's spread is wider than the bound, and not
//!   every change run reads better than every base run;
//! - `no change`: otherwise.
//!
//! It reads no clock: every figure comes from the runs. It exits 1 when
//! a metric is `worse` or a run was not `correct` or failed operations,
//! and 2 on unreadable input.

use contory_benchkit::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// The last line of one run.
struct Run {
    correct: bool,
    failed: f64,
    metrics: Json,
}

impl Run {
    fn value(&self, metric: &str) -> Result<f64, String> {
        self.metrics
            .get(metric)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a run has no value for `{metric}`"))
    }
}

/// Median, quartiles and extremes of a sample.
struct Quartiles {
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    max: f64,
}

impl Quartiles {
    /// Linear interpolation between order statistics.
    fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * sorted.len().saturating_sub(1) as f64;
            let lo = sorted
                .get(pos.floor() as usize)
                .copied()
                .unwrap_or(f64::NAN);
            let hi = sorted.get(pos.ceil() as usize).copied().unwrap_or(f64::NAN);
            lo + (hi - lo) * pos.fract()
        };
        Quartiles {
            min: at(0.0),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: at(1.0),
        }
    }

    /// The interquartile range over the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn metrics(bench: &Json) -> Result<Vec<Metric>, String> {
    let rows = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    rows.iter()
        .map(|row| {
            let text = |key: &str| {
                row.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("an end_to_end metric has no `{key}`"))
            };
            Ok(Metric {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                lower_is_better: text("better")? == "lower",
                bound: row
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric has no `bound`")?,
            })
        })
        .collect()
}

/// The runs by seed: `(base, change)`.
type Pairs = BTreeMap<u64, (Option<Run>, Option<Run>)>;

fn runs(text: &str) -> Result<Pairs, String> {
    let mut pairs = Pairs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("runs line {}: {what}", n + 1);
        let (side, rest) = line.split_once(' ').ok_or_else(|| bad("no seed"))?;
        let (seed, last) = rest.split_once(' ').ok_or_else(|| bad("no result"))?;
        let seed: u64 = seed.parse().map_err(|_| bad("the seed is not a number"))?;
        let json = Json::parse(last).map_err(|e| bad(e.as_str()))?;
        let run = Run {
            correct: json.get("correct").and_then(Json::as_bool) == Some(true),
            failed: json
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            metrics: json
                .get("metrics")
                .cloned()
                .ok_or_else(|| bad("no metrics"))?,
        };
        let slot = pairs.entry(seed).or_default();
        match side {
            "base" => slot.0 = Some(run),
            "change" => slot.1 = Some(run),
            _ => return Err(bad("the side is neither `base` nor `change`")),
        }
    }
    Ok(pairs)
}

/// Four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Pairs a `gain` verdict needs.
const MIN_GAIN_PAIRS: usize = 10;

/// The verdict on one metric, from the change's `wins` out of `pairs`
/// and both sides' quartiles (see the module docs).
fn verdict(m: &Metric, wins: usize, pairs: usize, b: &Quartiles, c: &Quartiles) -> &'static str {
    let (better_by, every_run_better) = if m.lower_is_better {
        ((b.median - c.median) / b.median.abs(), c.max < b.min)
    } else {
        ((c.median - b.median) / b.median.abs(), c.min > b.max)
    };
    if better_by < -m.bound {
        "worse"
    } else if wins * 10 >= pairs * 9 && better_by > b.spread() {
        if pairs < MIN_GAIN_PAIRS {
            "too few pairs"
        } else {
            "gain"
        }
    } else if b.spread().max(c.spread()) > m.bound && !every_run_better {
        "unresolved"
    } else {
        "no change"
    }
}

fn report(bench: &str, runs_path: &str) -> Result<(String, bool), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let metrics = metrics(&Json::parse(&read(bench)?).map_err(|e| format!("{bench}: {e}"))?)?;
    let all = runs(&read(runs_path)?)?;
    let pairs: Vec<(u64, &Run, &Run)> = all
        .iter()
        .filter_map(|(seed, (b, c))| Some((*seed, b.as_ref()?, c.as_ref()?)))
        .collect();
    let unpaired = all.len() - pairs.len();
    let (Some(first), Some(last)) = (pairs.first(), pairs.last()) else {
        return Err(format!(
            "{runs_path}: no seed has both a base and a change run"
        ));
    };
    let mut healthy = true;
    let mut out = format!(
        "{} pairs, seeds {}..={}{}\n",
        pairs.len(),
        first.0,
        last.0,
        if unpaired > 0 {
            format!(" ({unpaired} unpaired seeds left out)")
        } else {
            String::new()
        }
    );
    let base_runs: Vec<&Run> = pairs.iter().map(|p| p.1).collect();
    let change_runs: Vec<&Run> = pairs.iter().map(|p| p.2).collect();
    for (side, side_runs) in [("base", base_runs), ("change", change_runs)] {
        let correct = side_runs.iter().filter(|r| r.correct).count();
        let failed: f64 = side_runs.iter().map(|r| r.failed).sum();
        healthy &= correct == pairs.len() && failed == 0.0;
        out += &format!(
            "{side}: {correct}/{} runs correct, {failed} failed operations\n",
            pairs.len()
        );
    }
    out += &format!(
        "{:<28} {:>6} {:>30} {:>30} {:>7} {:>6} {:>7} {:>6}  verdict\n",
        "metric (unit)",
        "better",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "ratio",
        "wins",
        "spread",
        "bound"
    );
    for m in &metrics {
        let mut base = Vec::new();
        let mut change = Vec::new();
        let mut wins = 0;
        for (_, b, c) in &pairs {
            let (b, c) = (b.value(&m.name)?, c.value(&m.name)?);
            wins += usize::from(if m.lower_is_better { c < b } else { c > b });
            base.push(b);
            change.push(c);
        }
        let (b, c) = (Quartiles::of(&base), Quartiles::of(&change));
        let verdict = verdict(m, wins, pairs.len(), &b, &c);
        healthy &= verdict != "worse";
        let side = |q: &Quartiles| format!("{} [{}, {}]", sig(q.median), sig(q.q1), sig(q.q3));
        out += &format!(
            "{:<28} {:>6} {:>30} {:>30} {:>7.3} {:>6} {:>6.1}% {:>5.0}%  {verdict}\n",
            format!("{} ({})", m.name, m.unit),
            if m.lower_is_better { "lower" } else { "higher" },
            side(&b),
            side(&c),
            c.median / b.median,
            format!("{wins}/{}", pairs.len()),
            100.0 * b.spread(),
            100.0 * m.bound,
        );
    }
    Ok((out, healthy))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [bench, runs] = args.as_slice() else {
        eprintln!("usage: pairs <BENCHMARK.json> <runs.txt>");
        return ExitCode::from(2);
    };
    match report(bench, runs) {
        Ok((text, healthy)) => {
            print!("{text}");
            if healthy {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("pairs: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "peak_rss_mb".into(),
            unit: "MB".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (q.min, q.q1, q.median, q.q3, q.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn verdicts_follow_wins_medians_spreads_and_bounds() {
        let base = Quartiles::of(&[6.7, 6.8, 6.9]);
        let smaller = Quartiles::of(&[5.5, 5.6, 5.7]);
        let m = lower(0.2);
        assert_eq!(verdict(&m, 10, 10, &base, &smaller), "gain");
        assert_eq!(verdict(&m, 9, 10, &base, &smaller), "gain");
        assert_eq!(verdict(&m, 8, 10, &base, &smaller), "no change");
        // Five of five pairs meet the 9-in-10 rule, but are too few.
        assert_eq!(verdict(&m, 5, 5, &base, &smaller), "too few pairs");
        assert_eq!(verdict(&m, 9, 9, &base, &smaller), "too few pairs");
        assert_eq!(verdict(&m, 0, 5, &smaller, &base), "worse");
        assert_eq!(verdict(&lower(0.25), 0, 10, &smaller, &base), "no change");
        assert_eq!(verdict(&m, 0, 10, &smaller, &base), "worse");
        let wide = Quartiles::of(&[4.0, 6.8, 9.0]);
        assert_eq!(verdict(&m, 5, 10, &base, &wide), "unresolved");
        assert_eq!(verdict(&m, 10, 10, &wide, &smaller), "unresolved");
        // A spread wider than the bound, but every change run is better.
        let wide = Quartiles::of(&[6.0, 6.8, 9.0]);
        assert_eq!(verdict(&m, 10, 10, &wide, &smaller), "no change");
    }
}
