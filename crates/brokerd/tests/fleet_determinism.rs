//! Partition-invariance of the broker fleet: the same scenario must
//! produce a byte-identical [`FleetOutcome::report`] across engine
//! shard counts and worker-thread counts — including under scripted
//! broker faults.

use brokerd::{fault_edges, run_fleet, FleetConfig};
use simkit::faults::FaultPlan;
use simkit::{SimDuration, SimTime};

fn cfg(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    FleetConfig {
        seed,
        brokers: 4,
        devices: 400,
        shards,
        threads,
        run_for: SimDuration::from_secs(30),
        ..FleetConfig::default()
    }
}

#[test]
fn report_is_byte_identical_across_the_partition_matrix() {
    for seed in [1u64, 17] {
        let reference = run_fleet(&cfg(seed, 1, 1)).report();
        for (shards, threads) in [(1u32, 2u32), (4, 1), (4, 4)] {
            let got = run_fleet(&cfg(seed, shards, threads)).report();
            assert_eq!(
                got, reference,
                "diverged: seed={seed} shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn trace_export_is_byte_identical_across_partitions() {
    // Full sampling so the trace plane carries real traffic; the
    // canonical JSONL export (not just its digest) must be the same
    // bytes for every partition of the engine.
    let traced = |shards, threads| {
        let mut c = cfg(29, shards, threads);
        c.node.trace_sample_log2 = 0;
        run_fleet(&c)
    };
    let reference = traced(1, 1);
    assert!(reference.trace_spans > 0, "full sampling recorded nothing");
    let reference_export = reference.trace.export_jsonl();
    for (shards, threads) in [(2u32, 2u32), (4, 4)] {
        let got = traced(shards, threads);
        assert_eq!(
            got.trace.export_jsonl(),
            reference_export,
            "trace export diverged at shards={shards} threads={threads}"
        );
        assert_eq!(got.trace_digest, reference.trace_digest);
    }
}

#[test]
fn faulted_runs_are_equally_partition_invariant() {
    let mut plan = FaultPlan::new(23);
    plan.kill_at("broker:1", SimTime::from_secs(10));
    plan.down_between("broker:3", SimTime::from_secs(5), SimTime::from_secs(15));
    let edges = fault_edges(&plan, 4);

    let mut base = cfg(23, 1, 1);
    base.fault_edges = edges.clone();
    let reference = run_fleet(&base).report();
    assert!(reference.contains("rehomes="), "report shape changed");

    for (shards, threads) in [(2u32, 2u32), (4, 4)] {
        let mut c = cfg(23, shards, threads);
        c.fault_edges = edges.clone();
        assert_eq!(
            run_fleet(&c).report(),
            reference,
            "faulted run diverged at shards={shards} threads={threads}"
        );
    }

    // And the faults actually bit: re-homing happened.
    let out = {
        let mut c = cfg(23, 1, 1);
        c.fault_edges = edges;
        run_fleet(&c)
    };
    assert!(out.rehomes > 0, "kill produced no re-homing");
}
