#!/usr/bin/env sh
# tracekit subsystem gate: the causal tracing plane proven end to end
# (DESIGN.md §5i).
#
#   ./scripts/trace.sh
#
# 1. the tracekit unit suite (TraceCtx sampling/parsing, span logs,
#    assembly, critical paths, break-up table);
# 2. the trace-assembly property tests — span conservation, causal
#    parent-precedes-child order and fold-order invariance under
#    adversarial inputs;
# 3. the golden trace-schema test — the canonical span JSONL export
#    and the contory-trace-breakup/1 JSON pinned byte-for-byte;
# 4. the fleet trace suite — traces recorded across the sharded
#    10k-device harness assemble into deliveries, and the canonical
#    export is byte-identical across engine partitions;
# 5. the ops-surface smoke — STATS/TRACE requests answered over a
#    real loopback TCP session, oversized-frame refusals included.
set -eu
cd "$(dirname "$0")/.."

echo "==> tracekit unit suite"
cargo test -q --release -p contory-tracekit --lib

echo "==> trace-assembly property tests"
cargo test -q --release -p contory-tracekit --test assembly_props

echo "==> golden trace-export schema (JSONL + break-up JSON)"
cargo test -q --release --test trace_schema

echo "==> fleet tracing (assembly + partition-invariant export)"
cargo test -q --release -p contory-brokerd --lib fleet::
cargo test -q --release -p contory-brokerd --test fleet_determinism trace_export

echo "==> live ops surface (STATS/TRACE over loopback TCP)"
cargo test -q --release -p contory-brokerd --lib net::

echo "==> trace: OK"
