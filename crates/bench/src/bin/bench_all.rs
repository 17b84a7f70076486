//! Runs the whole §6 suite through benchkit and exports it:
//!
//! * `results/<scenario>.txt` — the human tables (one per scenario),
//! * `BENCH_contory.json` — the versioned machine-readable report at the
//!   repo root (schema `contory-bench/1`),
//!
//! both rendered from the same structured data, so they cannot drift.
//!
//! Flags:
//!
//! * `--check` — additionally diff the run against the checked-in
//!   `results/baseline.json` tolerance bands and exit non-zero on any
//!   out-of-band regression (the perf gate `scripts/verify.sh` runs);
//! * `--write-baseline` — re-pin `results/baseline.json` from this run
//!   (do this deliberately, and review the diff).
//!
//! Everything is seed-driven and sim-clock-only: two runs write
//! byte-identical files on any host, whatever its core count. Wall time
//! is perfbench's job (`BENCHMARK.json`).

use benchkit::Baseline;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root resolvable")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    if let Some(a) = args
        .iter()
        .find(|a| *a != "--check" && *a != "--write-baseline")
    {
        eprintln!("unknown flag '{a}' (known: --check, --write-baseline)");
        std::process::exit(2);
    }

    let root = repo_root();
    let results_dir = root.join("results");
    std::fs::create_dir_all(&results_dir).expect("results/ creatable");

    let scenarios = contory_bench::scenarios::all();
    let mut report = benchkit::Report::new();
    for s in &scenarios {
        println!("==> running {} ({})", s.name(), s.paper_ref());
        let sr = benchkit::run_scenario(s.as_ref());
        let txt_path = results_dir.join(format!("{}.txt", sr.name));
        std::fs::write(&txt_path, sr.render_text()).expect("results txt writable");
        println!(
            "    {} measurements, {} checks, {} spans -> {}",
            sr.measurements.len(),
            sr.checks.len(),
            sr.obs_span_count,
            txt_path.display()
        );
        report.scenarios.push(sr);
    }

    let json_path = root.join("BENCH_contory.json");
    std::fs::write(&json_path, report.to_json_string()).expect("bench json writable");
    println!("\nwrote {}", json_path.display());

    // In-scenario tolerance bands (the obs gate half of the mechanism).
    let failed = report.failed_checks();
    if !failed.is_empty() {
        eprintln!("\nFAILED in-scenario checks:");
        for f in &failed {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all in-scenario tolerance-band checks passed");

    let baseline_path = results_dir.join("baseline.json");
    if write_baseline {
        let base = Baseline::from_report(&report);
        std::fs::write(&baseline_path, base.to_json_string()).expect("baseline writable");
        println!("re-pinned {} ({} metrics)", baseline_path.display(), base.metrics.len());
    }

    if check {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "cannot read {} ({e}); run with --write-baseline first",
                baseline_path.display()
            );
            std::process::exit(2);
        });
        let base = Baseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let violations = base.check(&report);
        if violations.is_empty() {
            println!(
                "bench gate: {} pinned metrics within tolerance bands",
                base.metrics.len()
            );
        } else {
            eprintln!("\nbench gate FAILED ({} violations):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
