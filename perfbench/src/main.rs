//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fleet|provisioning|broker_tcp> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` prints the per-layer metrics of the
//! traced attribution run. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! stamp the run (nproc, engine threads and shards, build profile, seed,
//! source) and explain it. The exit code is 0 only when every output
//! check passed. `--selftest` runs every workload at toy size on a
//! held-out seed with its output checks.

mod broker_tcp;
mod common;
mod fleet;
mod layers;
mod provisioning;
mod runs;

use common::Outcome;
use runs::Ctx;

/// The workloads, as BENCHMARK.json lists them.
const WORKLOADS: [&str; 3] = ["fleet", "provisioning", "broker_tcp"];

/// The self-test's seed: never used while the workloads were written.
const HELD_OUT_SEED: u64 = 0x5eed_0ff5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The JSON result line.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn stamp(workload: &str, args_seed: u64, ctx: &Ctx, trace: bool) -> String {
    let (threads, shards) = match workload {
        "fleet" => (format!("1,{}", ctx.nproc), fleet::SHARDS.to_string()),
        "provisioning" => ("1".to_owned(), "1".to_owned()),
        _ => ("-".to_owned(), "-".to_owned()),
    };
    format!(
        "# perfbench workload={workload} seed={args_seed} seconds={} trace={} nproc={} \
         engine_threads={threads} engine_shards={shards} profile={} source={}",
        ctx.budget_s,
        u8::from(trace),
        simkit::ShardConfig::max_threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("PERFBENCH_SOURCE"),
    )
}

fn selftest() -> i32 {
    let mut failed = 0;
    for w in WORKLOADS {
        for nproc in [1, simkit::ShardConfig::max_threads().max(2)] {
            let ctx = Ctx {
                seed: HELD_OUT_SEED,
                budget_s: 0.0,
                nproc,
                toy: true,
            };
            let Some((o, _)) = runs::untraced(w, &ctx) else {
                continue;
            };
            let ok = o.failed == 0 && o.attempted > 0 && o.metrics.0.iter().all(|m| m.1 > 0.0);
            println!(
                "selftest {w:<13} nproc={nproc} attempted={} failed={} {}",
                o.attempted,
                o.failed,
                if ok { "ok" } else { "FAILED" }
            );
            for n in &o.notes {
                println!("  {n}");
            }
            if !ok {
                failed += 1;
            }
        }
    }
    i32::from(failed > 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selftest {
        std::process::exit(selftest());
    }
    let ctx = Ctx {
        seed: args.seed,
        budget_s: args.seconds,
        nproc: simkit::ShardConfig::max_threads(),
        toy: false,
    };
    let outcome = if args.trace {
        runs::traced(&args.workload, &ctx)
    } else {
        runs::untraced(&args.workload, &ctx).map(|(o, _)| o)
    };
    let Some(mut o) = outcome else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    o.correct = o.failed == 0;
    println!("{}", stamp(&args.workload, args.seed, &ctx, args.trace));
    for n in &o.notes {
        println!("# {n}");
    }
    println!("{}", result_line(&o));
    std::process::exit(if o.correct { 0 } else { 1 });
}
