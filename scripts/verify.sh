#!/usr/bin/env sh
# Repository verification: tier-1 gate plus the failure-scenario work.
#
#   ./scripts/verify.sh
#
# 1. tier-1: release build + the whole workspace test suite
#    (unit + per-crate integration + cross-crate integration +
#    property tests);
# 2. the lintkit gate: the offline determinism/robustness lint pass
#    must report zero findings above the checked-in ratchet baseline
#    (results/lint_baseline.json) and zero stale pragmas
#    (DESIGN.md §5c, §5g); then clippy over every target of simkit,
#    obskit, benchkit, fuego, core, smartmsg, sensors, testbed, brokerd,
#    tracekit, sailing, alloccount and bench (and the workspace crates
#    they depend on) with warnings as errors, and rustfmt's check over
#    simkit, obskit, benchkit, fuego, sensors, phone, brokerd, tracekit,
#    testbed, sailing, alloccount and bench (core still has rustfmt
#    diffs);
# 3. the failure-scenario suite in isolation — every scenario runs
#    across the three fixed seeds baked into the suite (11, 22, 33);
# 4. the shard gate: the partition-invariance suite on the partitioned
#    ShardSim engine — the broker-fleet trace transcript and the
#    scale_city outcome at shard counts {4, 16} x thread counts
#    {1, max} must be byte-identical to 1 shard on 1 thread, and
#    scale_city also at 64 threads; the fleet's obskit exports
#    (metrics snapshot, span stream) must be byte-identical at 1 vs 4
#    threads (DESIGN.md §5f);
# 5. the perf gate: perfbench's self-test runs every benchmark workload
#    at toy size on a held-out seed with its output checks; the fleet
#    report must be identical at 1 and max(nproc, 2) engine threads
#    (perfbench/README.md). Then brokerd's alloc_budget test counts the
#    heap allocations, bytes and peak live heap of a seeded 2,000-device
#    fleet run and fails above any of its budgets, fuego's counts the
#    allocations and bytes of a periodic extInfra subscription pushing
#    200 records for 30 sim-minutes, and testbed's those of two phones'
#    extInfra and intSensor queries for 30 sim-minutes: cost checks
#    that, unlike wall time, do not swing with the host's load (all
#    three count with the one allocator in crates/alloccount); testbed's
#    also checks that an empty testbed, a broker with its
#    infrastructure, and a Fuego client leave no live heap behind once
#    dropped;
# 6. the Fig. 5 failover bench, which asserts the recovery SLO
#    (worst provisioning gap <= 45 s) from the FailoverReport;
# 7. the obs gate: the sm_breakup bench re-measures the paper's §6.1
#    latency break-up from obskit spans and asserts each phase share
#    (connection 4-5 %, serialization 26-33 %, thread switching
#    12-14 %, transfer 51-54 %) within ±3 pp (DESIGN.md §5d);
# 8. the broker gate: the brokerd subsystem in its two harnesses —
#    unit suite, loopback TCP smoke, fleet partition invariance and
#    the 1696 B envelope golden test (scripts/broker.sh, DESIGN.md §5h);
# 9. the trace gate: the tracekit causal-tracing plane — unit suite,
#    assembly property tests, golden JSONL/break-up schemas, fleet
#    trace partition invariance and the STATS/TRACE ops surface
#    (scripts/trace.sh, DESIGN.md §5i);
# 10. the chaos gate: the chaoskit layer — lossy-link chaos streams,
#    the dedup window's exactly-once filter, forward retry/backoff,
#    crash-restart recovery with lease renewal + anti-entropy, the
#    chaos property tests and the hardened wire surface
#    (scripts/chaos.sh, DESIGN.md §5j);
# 11. the bench gate: bench_all re-runs the whole §6 suite (now
#    including scale_city at 100k devices, broker_load at 10k devices
#    over 4 brokers, and broker_chaos at 10k devices under lossy
#    links with a mid-run crash-restart), rewrites results/*.txt +
#    BENCH_contory.json, and diffs every pinned metric against the
#    results/baseline.json tolerance bands (DESIGN.md §5e). bench_all
#    reads no clock and runs at fixed shard/thread counts, so its
#    artefacts are a pure function of the seeds: the step also fails
#    if the run changed the committed files (a checksum of
#    BENCH_contory.json and results/*.txt before and after), i.e. if
#    they are stale.
set -eu
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (full workspace)"
cargo test -q

echo "==> lintkit gate (determinism & robustness lints, ratchet baseline)"
cargo run -q --release -p lintkit -- --workspace --baseline results/lint_baseline.json

echo "==> clippy gate (simkit, obskit, benchkit, fuego, core, smartmsg, sensors, testbed, brokerd, tracekit, sailing, alloccount, bench; every target, warnings are errors)"
cargo clippy -q -p contory-simkit -p contory-obskit -p contory-benchkit -p contory-fuego -p contory \
    -p contory-smartmsg -p contory-sensors -p contory-testbed -p contory-brokerd -p contory-tracekit \
    -p contory-sailing -p contory-alloccount -p contory-bench --all-targets -- -D warnings

echo "==> fmt gate (simkit, obskit, benchkit, fuego, sensors, phone, brokerd, tracekit, testbed, sailing, alloccount, bench)"
cargo fmt --check -p contory-simkit -p contory-obskit -p contory-benchkit -p contory-fuego \
    -p contory-sensors -p contory-phone -p contory-brokerd -p contory-tracekit \
    -p contory-testbed -p contory-sailing -p contory-alloccount -p contory-bench

echo "==> failure-scenario suite (seeds 11, 22, 33)"
cargo test -q --test failover_scenarios

echo "==> property tests (incl. fault/failover properties)"
cargo test -q --test proptests

echo "==> shard gate (partition/thread invariance, DESIGN.md 5f)"
cargo test -q --test shard_determinism

echo "==> perf gate (perfbench self-test: output checks at 1 and max(nproc, 2) threads; fleet, extInfra and provisioning allocation budgets)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --selftest
cargo test -q --release -p contory-brokerd --test alloc_budget
cargo test -q --release -p contory-fuego --test alloc_budget
cargo test -q --release -p contory-testbed --test alloc_budget

echo "==> Fig. 5 failover bench (recovery SLO)"
cargo run -q --release -p contory-bench --bin fig5_failover

echo "==> obs gate (span-measured 6.1 break-up within +/-3pp)"
cargo run -q --release -p contory-bench --bin sm_breakup

echo "==> broker gate (brokerd in its two harnesses, DESIGN.md 5h)"
./scripts/broker.sh

echo "==> trace gate (tracekit causal tracing plane, DESIGN.md 5i)"
./scripts/trace.sh

echo "==> chaos gate (lossy links, crash-recovery, idempotence, DESIGN.md 5j)"
./scripts/chaos.sh

echo "==> bench gate (full 6 suite vs results/baseline.json bands, stale artefacts)"
before=$(cksum BENCH_contory.json results/*.txt)
cargo run -q --release -p contory-bench --bin bench_all -- --check
after=$(cksum BENCH_contory.json results/*.txt)
if [ "$before" != "$after" ]; then
    echo "bench gate FAILED: bench_all changed BENCH_contory.json or results/*.txt;" >&2
    echo "the committed artefacts are stale: run ./scripts/bench.sh and commit them" >&2
    exit 1
fi

echo "==> verify: OK"
