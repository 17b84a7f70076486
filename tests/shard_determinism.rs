//! Partition-invariance regression suite: the tentpole contract of the
//! sharded engine, asserted end-to-end.
//!
//! Same seed ⇒ byte-identical outputs *regardless of shard or thread
//! count*, on the partitioned [`ShardSim`] engine, where shards are
//! physically separate queues stepped by real threads and merged at
//! round boundaries:
//!
//! * the broker-fleet trace transcript (fleet report, canonical trace
//!   JSONL export, digest and break-up) across shard counts {4, 16} ×
//!   worker threads {1, max}, against 1 shard on 1 thread;
//! * the `scale_city` gossip model across the same matrix: event
//!   totals, deliveries and the folded state checksum;
//! * the obskit exports (metrics snapshot and span stream) of a run
//!   under an installed collector, at 1 vs 4 worker threads.
//!
//! Three seeds each, so an ordering leak that happens to cancel for one
//! jitter stream still shows up.
#![deny(warnings)]

mod common;

use common::fleet_trace_transcript;
use contory_bench::scenarios::scale_city::{run_city, CityConfig};
use simkit::{ShardConfig, SimDuration};

const SEEDS: [u64; 3] = [501, 11, 42];

/// The broker fleet renders the same trace transcript byte-for-byte
/// for every shard × thread layout.
#[test]
fn fleet_trace_transcript_is_partition_and_thread_invariant() {
    let max = ShardConfig::max_threads();
    for seed in SEEDS {
        let reference = fleet_trace_transcript(seed, 1, 1);
        assert!(
            reference.contains("\"stage\":\"deliver\"")
                && reference.contains("\"stage\":\"federate\""),
            "seed {seed}: no federated deliveries traced — comparison proves nothing"
        );
        for shards in [4u32, 16] {
            for threads in [1u32, max] {
                let got = fleet_trace_transcript(seed, shards, threads);
                assert!(
                    got == reference,
                    "seed {seed}: {shards} shards x {threads} threads diverged from 1x1\n\
                     --- 1x1 ---\n{reference}\n--- {shards}x{threads} ---\n{got}"
                );
            }
        }
    }
}

/// One fully-sampled fleet run under a fresh obskit collector: the
/// collector's metrics and span exports, the fleet report and its
/// canonical trace export — plus the number of rounds stepped on
/// worker threads.
fn observed_fleet(seed: u64, threads: u32) -> ([String; 4], u64) {
    let obs = obskit::Obs::new();
    let (out, profile) = {
        let _guard = obs.install();
        brokerd::run_fleet_profiled(&brokerd::FleetConfig {
            seed,
            brokers: 4,
            devices: 1_000,
            shards: 8,
            threads,
            run_for: SimDuration::from_secs(5),
            node: brokerd::NodeConfig {
                trace_sample_log2: 0,
                ..brokerd::NodeConfig::default()
            },
            ..brokerd::FleetConfig::default()
        })
    };
    let exports = [
        obs.metrics_snapshot(),
        obs.spans_jsonl(),
        out.report(),
        out.trace.export_jsonl(),
    ];
    (exports, profile.parallel_rounds)
}

/// Observability is thread-invariant too: whatever the fleet records
/// while an obskit collector is installed is the same at 1 and at 4
/// worker threads — nothing is recorded on (and lost with) a worker
/// thread. 4 rather than `max_threads()`, so a 1-CPU host still steps
/// rounds on workers.
#[test]
fn fleet_observability_is_thread_invariant() {
    const NAMES: [&str; 4] = ["metrics snapshot", "span stream", "report", "trace export"];
    for seed in SEEDS {
        let (reference, _) = observed_fleet(seed, 1);
        let (got, parallel_rounds) = observed_fleet(seed, 4);
        assert!(
            parallel_rounds > 0,
            "seed {seed}: no round stepped on workers — comparison proves nothing"
        );
        for ((name, want), got) in NAMES.iter().zip(&reference).zip(&got) {
            assert!(want == got, "seed {seed}: {name} differs at 4 threads vs 1");
        }
    }
}

/// The partitioned engine: a small gossip city produces bit-identical
/// outcomes across the full shard × thread matrix.
#[test]
fn city_outcome_is_partition_and_thread_invariant() {
    let max = ShardConfig::max_threads();
    for seed in SEEDS {
        let base = CityConfig {
            devices: 400,
            shards: 1,
            threads: 1,
            seed,
            horizon: SimDuration::from_secs(12),
        };
        let reference = run_city(base);
        assert!(reference.delivered > 0, "seed {seed}: no gossip delivered");
        assert_eq!(reference.dead_letters, 0, "seed {seed}: dead letters");
        for shards in [4u32, 16] {
            for threads in [1u32, max] {
                let out = run_city(CityConfig { shards, threads, ..base });
                assert_eq!(
                    out, reference,
                    "seed {seed}: {shards} shards x {threads} threads diverged from 1x1"
                );
            }
        }
    }
}

/// Worker count beyond the physical shard count (and beyond the host's
/// cores) still changes nothing — the thread axis is pure mechanism.
#[test]
fn oversubscribed_threads_change_nothing() {
    let base = CityConfig {
        devices: 128,
        shards: 4,
        threads: 1,
        seed: 7,
        horizon: SimDuration::from_secs(8),
    };
    let reference = run_city(base);
    let oversub = run_city(CityConfig { threads: 64, ..base });
    assert_eq!(oversub, reference);
}
