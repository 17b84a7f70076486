#!/usr/bin/env sh
# Regenerates every table/figure of the paper's §6 evaluation through the
# benchkit harness:
#
#   ./scripts/bench.sh                  # run suite, rewrite results/*.txt
#                                       # + BENCH_contory.json
#   ./scripts/bench.sh --check          # also diff against the pinned
#                                       # results/baseline.json bands
#   ./scripts/bench.sh --write-baseline # re-pin the baseline (review the
#                                       # diff before committing!)
#
# Everything is seed-driven and sim-clock-only, so two runs write
# byte-identical artefacts on any host; the tier-1 suite's
# tests/bench_schema.rs keeps the committed JSON structurally honest in
# between full runs. Wall-clock performance is measured by perfbench
# (BENCHMARK.json, perfbench/README.md), not here.
set -eu
cd "$(dirname "$0")/.."

cargo run -q --release -p contory-bench --bin bench_all -- "$@"
