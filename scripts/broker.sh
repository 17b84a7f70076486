#!/usr/bin/env sh
# brokerd subsystem gate: the federated context-broker core proven in
# its two harnesses (DESIGN.md §5h).
#
#   ./scripts/broker.sh
#
# 1. the brokerd unit suite (admission, subscription table, federation
#    plane, wire protocol);
# 2. the loopback TCP smoke test — the same BrokerNode core as a real
#    multi-threaded service on 127.0.0.1 sockets, logical-clock wire
#    frames, a packet federating across two live servers;
# 3. the fleet partition-invariance suite — byte-identical
#    FleetOutcome reports across engine shard/thread counts, faults
#    included;
# 4. the 1696 B envelope golden test — brokerd packets on the Fuego
#    compat path still cost exactly the paper's measured frame.
set -eu
cd "$(dirname "$0")/.."

echo "==> brokerd unit suite"
cargo test -q --release -p contory-brokerd --lib

echo "==> loopback TCP smoke (real sockets, one broker core)"
cargo test -q --release -p contory-brokerd --test loopback_smoke

echo "==> fleet partition invariance (shards x threads)"
cargo test -q --release -p contory-brokerd --test fleet_determinism

echo "==> 1696 B envelope golden test (fuego compat path)"
cargo test -q --release --test broker_envelope

echo "==> broker: OK"
