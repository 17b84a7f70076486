//! `broker_chaos` — the federated broker fleet under lossy-link chaos
//! with a mid-run crash-restart (beyond-paper; gates the chaoskit layer
//! of `crates/brokerd`).
//!
//! 10 000 devices publish into a four-broker federation whose
//! broker-to-broker links are all scripted lossy: probabilistic drop,
//! duplication, bounded reorder and delivery jitter, each drawn from a
//! per-link deterministic RNG stream ([`simkit::faults::LinkChaos`]).
//! One broker is crash-restarted mid-run — it comes back with empty
//! tables and an empty dedup window — and the fleet must heal through
//! lease-renewal re-subscription and anti-entropy digest exchange.
//!
//! The scenario pins the three chaos SLOs of `DESIGN.md §5j`:
//!
//! * **idempotence** — `duplicate_deliveries` is exactly **0**: no
//!   device observes the same sequenced packet twice, despite link
//!   duplication, at-least-once forward retries and the wiped dedup
//!   window (the retry horizon is provably shorter than the crash
//!   downtime, so no pre-crash retry can land post-restart);
//! * **convergence** — `dir_converged` is exactly **1**: after the
//!   chaos window closes, every broker's directory row for every peer
//!   agrees on version and table digest;
//! * **delivery under chaos** — the fleet still delivers context end to
//!   end at a pinned rate while links drop ~6% of federation traffic.
//!
//! All rows are pure functions of the seed and byte-identical across
//! engine shard/thread counts (cross-checked in-scenario on a small
//! fleet, chaos included). Wall time is not measured here; perfbench
//! (`BENCHMARK.json`) is the repository's one wall-clock harness.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use brokerd::{
    fault_edges, link_faults, link_label, restart_edges, run_fleet, FleetConfig, NodeConfig,
};
use simkit::faults::{FaultPlan, LinkFault};
use simkit::shard::ShardConfig;
use simkit::{SimDuration, SimTime};
use tracekit::Stage;

/// Engine shard count of the big chaos run.
const SHARDS: u32 = 8;
/// Worker threads of the big chaos run: fixed, not the host's core
/// count, so the notes are the same on every host.
const THREADS: u32 = 4;

/// The big run's device population.
pub const FLEET_DEVICES: u64 = 10_000;
/// Brokers in the federation.
pub const FLEET_BROKERS: u16 = 4;
/// Virtual horizon of the big run.
pub const FLEET_HORIZON_SECS: u64 = 30;
/// The broker the fault plan crash-restarts, and its outage window.
const CRASHED_BROKER: &str = "broker:1";
const CRASH_AT_SECS: u64 = 6;
/// Downtime must exceed the forward-retry horizon (~2.25 s at the
/// default 150 ms timeout × 4 attempts) so a pre-crash retry can never
/// land on the post-restart broker's empty dedup window.
const CRASH_DOWN_SECS: u64 = 5;
/// Chaos stops here; the remaining 15 s (3 gossip periods) is the heal
/// window the convergence SLO is measured over.
const CHAOS_UNTIL_SECS: u64 = 15;

/// The scripted per-link fault: ~6% drop, 5% duplication, 4% reorder,
/// bounded 60 ms reorder delay, up to 20 ms jitter on every copy.
const LINK_FAULT: LinkFault = LinkFault {
    drop_ppm: 60_000,
    dup_ppm: 50_000,
    reorder_ppm: 40_000,
    reorder_delay: SimDuration::from_millis(60),
    jitter: SimDuration::from_millis(20),
};

/// The chaos fleet: every directed federation link lossy, one broker
/// crash-restarted mid-run, leases short enough that renewal traffic
/// flows through the chaos window.
fn chaos_fleet(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    let mut plan = FaultPlan::new(seed);
    for a in 0..FLEET_BROKERS {
        for b in 0..FLEET_BROKERS {
            if a != b {
                plan.lossy_link(&link_label(a, b), LINK_FAULT);
            }
        }
    }
    plan.crash_restart(
        CRASHED_BROKER,
        SimTime::from_secs(CRASH_AT_SECS),
        SimDuration::from_secs(CRASH_DOWN_SECS),
    );
    let mut cfg = FleetConfig {
        seed,
        brokers: FLEET_BROKERS,
        devices: FLEET_DEVICES,
        shards,
        threads,
        run_for: SimDuration::from_secs(FLEET_HORIZON_SECS),
        node: NodeConfig::default(),
        ..FleetConfig::default()
    };
    cfg.node.fwd_attempts = 4;
    cfg.fault_edges = fault_edges(&plan, FLEET_BROKERS);
    cfg.restarts = restart_edges(&plan, FLEET_BROKERS);
    cfg.link_faults = link_faults(&plan, FLEET_BROKERS);
    cfg.chaos_until = Some(SimTime::from_secs(CHAOS_UNTIL_SECS));
    cfg.sub_lease = Some(SimDuration::from_secs(12));
    cfg.resub_every = Some(SimDuration::from_secs(5));
    cfg
}

/// The lossy-link / crash-recovery chaos scenario.
pub struct BrokerChaos;

impl Scenario for BrokerChaos {
    fn name(&self) -> &'static str {
        "broker_chaos"
    }
    fn title(&self) -> &'static str {
        "Broker federation under lossy-link chaos with a mid-run crash-restart"
    }
    fn paper_ref(&self) -> &'static str {
        "beyond-paper robustness"
    }
    fn seed(&self) -> u64 {
        900
    }

    fn run(&self, ctx: &mut RunCtx) {
        let cfg = chaos_fleet(self.seed(), SHARDS, THREADS);
        let out = run_fleet(&cfg);
        let horizon = FLEET_HORIZON_SECS as f64;
        ctx.tally_events(out.events, SimTime::from_secs(FLEET_HORIZON_SECS));
        obskit::count("broker_chaos_published", out.published);
        obskit::count("broker_chaos_delivered", out.delivered);
        obskit::count("broker_chaos_dropped", out.packets_dropped);
        obskit::count("broker_chaos_duped", out.packets_duped);
        obskit::count("broker_chaos_reordered", out.packets_reordered);
        obskit::count("broker_chaos_retries", out.retries);
        obskit::count("broker_chaos_retry_exhausted", out.retry_exhausted);
        obskit::count("broker_chaos_dedup_suppressed", out.dedup_suppressed);
        obskit::count("broker_chaos_resubscriptions", out.resubscriptions);
        obskit::count("broker_chaos_anti_entropy", out.anti_entropy_rounds);
        obskit::count("broker_chaos_duplicate_deliveries", out.duplicate_deliveries);

        ctx.note(format!(
            "{FLEET_DEVICES} devices on {FLEET_BROKERS} brokers, horizon {horizon} sim-s, \
             {} shards x {} threads; every federation link lossy \
             (drop {} ppm, dup {} ppm, reorder {} ppm) until t={CHAOS_UNTIL_SECS}s; \
             {CRASHED_BROKER} crash-restarted at t={CRASH_AT_SECS}s for {CRASH_DOWN_SECS}s",
            cfg.shards, cfg.threads, LINK_FAULT.drop_ppm, LINK_FAULT.dup_ppm,
            LINK_FAULT.reorder_ppm,
        ));
        ctx.note(
            "SLOs: duplicate_deliveries pinned exactly 0 (idempotence), dir_converged \
             pinned exactly 1 (post-heal anti-entropy convergence); the crash downtime \
             exceeds the forward-retry horizon by design — see DESIGN.md §5j",
        );

        // Deterministic rows: pure functions of the seed, pinned
        // (near-)exactly, byte-identical across partitionings.
        ctx.push(
            Measurement::scalar("devices", "device population", Unit::Count, FLEET_DEVICES as f64)
                .with_gate_rel_tol(0.0)
                .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "published",
                "publishes offered by devices",
                Unit::Count,
                out.published as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("seed-determined; shard/thread-invariant"),
        );
        ctx.push(
            Measurement::scalar(
                "delivered",
                "context deliveries to devices",
                Unit::Count,
                out.delivered as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("the delivery-under-chaos SLO row"),
        );
        ctx.push(
            Measurement::scalar(
                "delivered_per_sim_sec",
                "delivery throughput per simulated second, chaos included",
                Unit::PerSec,
                out.delivered as f64 / horizon,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "link_dropped",
                "federation sends eaten by scripted link loss",
                Unit::Count,
                out.packets_dropped as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "link_duplicated",
                "federation sends duplicated by the scripted links",
                Unit::Count,
                out.packets_duped as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "link_reordered",
                "federation sends deferred past a later send",
                Unit::Count,
                out.packets_reordered as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "retries",
                "federation forward re-sends after a missing ack",
                Unit::Count,
                out.retries as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "retry_exhausted",
                "tracked forwards that ran out of attempts",
                Unit::Count,
                out.retry_exhausted as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "dedup_suppressed",
                "duplicate publishes suppressed by broker dedup windows",
                Unit::Count,
                out.dedup_suppressed as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("each is positively acked, so at-least-once senders stop"),
        );
        ctx.push(
            Measurement::scalar(
                "resubscriptions",
                "lease renewals absorbed by brokers",
                Unit::Count,
                out.resubscriptions as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "anti_entropy_rounds",
                "gossip digests that changed a broker's directory view",
                Unit::Count,
                out.anti_entropy_rounds as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "duplicate_deliveries",
                "device-witnessed duplicate deliveries (the idempotence SLO)",
                Unit::Count,
                out.duplicate_deliveries as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("pinned exactly 0: at-least-once transport, exactly-once delivery"),
        );
        ctx.push(
            Measurement::scalar(
                "restarts",
                "broker crash-restarts executed by the fault plan",
                Unit::Count,
                out.restarts as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "dir_converged",
                "post-heal directory convergence (1 = all views agree)",
                Unit::Count,
                f64::from(u8::from(out.dir_converged)),
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("every broker's row for every peer agrees on version and digest"),
        );
        ctx.push(
            Measurement::scalar(
                "p50_fanout_ms",
                "median publish-to-delivery fan-out latency under chaos",
                Unit::Millis,
                out.p50_fanout_us as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "p99_fanout_ms",
                "p99 publish-to-delivery fan-out latency under chaos",
                Unit::Millis,
                out.p99_fanout_us as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("includes retry backoff and scripted link jitter"),
        );
        ctx.push(
            Measurement::scalar(
                "report_digest32",
                "fleet report digest (low 32 bits)",
                Unit::Count,
                (out.digest & 0xffff_ffff) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("byte-identity witness across shard/thread counts"),
        );

        // The chaos-path trace spans: retries, duplicate suppressions
        // and the crash recovery all leave hop spans on sampled traces.
        let stage_count = |stage: Stage| -> u64 {
            out.trace.events().iter().filter(|e| e.stage == stage).count() as u64
        };
        ctx.push(
            Measurement::scalar(
                "trace_retry_spans",
                "Retry hop spans on sampled traces",
                Unit::Count,
                stage_count(Stage::Retry) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "trace_dup_suppress_spans",
                "DupSuppress hop spans on sampled traces",
                Unit::Count,
                stage_count(Stage::DupSuppress) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "trace_recover_spans",
                "Recover spans emitted by broker restarts",
                Unit::Count,
                stage_count(Stage::Recover) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );

        // The SLO assertions themselves — these, not the pinned rows,
        // are what a chaos regression trips first.
        ctx.check_true(
            "zero_duplicate_deliveries",
            "no device observed the same sequenced packet twice",
            out.duplicate_deliveries == 0,
        );
        ctx.check_true(
            "post_heal_convergence",
            "broker directories converged after the chaos window closed",
            out.dir_converged,
        );
        ctx.check_true(
            "delivery_slo_held",
            "the fleet delivered at least half a delivery per device despite chaos",
            out.delivered >= FLEET_DEVICES / 2,
        );
        ctx.check_true(
            "chaos_engaged",
            "the scripted links dropped, duplicated and reordered traffic",
            out.packets_dropped > 0 && out.packets_duped > 0 && out.packets_reordered > 0,
        );
        ctx.check_true(
            "retries_recovered_losses",
            "lost forwards were retried and duplicates were suppressed",
            out.retries > 0 && out.dedup_suppressed > 0,
        );
        ctx.check_true(
            "crash_restart_executed",
            "exactly one broker crash-restart ran",
            out.restarts == 1,
        );
        ctx.check_true(
            "leases_renewed",
            "devices renewed subscription leases through the chaos window",
            out.resubscriptions > 0,
        );
        ctx.check_true(
            "chaos_spans_traced",
            "sampled traces recorded retry, dup-suppress and recover hops",
            stage_count(Stage::Retry) > 0
                && stage_count(Stage::DupSuppress) > 0
                && stage_count(Stage::Recover) > 0,
        );
        ctx.check_true(
            "fanout_quantiles_ordered",
            "p99 fan-out >= p50 fan-out",
            out.p99_fanout_us >= out.p50_fanout_us,
        );

        // Partition-invariance cross-check on a small fleet with the
        // full chaos config: 1 shard x 1 thread must equal 4 shards x
        // max threads byte-for-byte, transcripts included.
        let mut seq_cfg = chaos_fleet(self.seed() ^ 0xc0a5, 1, 1);
        seq_cfg.devices = 300;
        let mut par_cfg = chaos_fleet(self.seed() ^ 0xc0a5, 4, ShardConfig::max_threads());
        par_cfg.devices = 300;
        let seq = run_fleet(&seq_cfg);
        let par = run_fleet(&par_cfg);
        ctx.check_true(
            "partition_invariance_under_chaos",
            "300-device chaos fleet: 1x1 engine == 4x(max) engine, byte for byte",
            seq.report() == par.report() && seq.trace_digest == par.trace_digest,
        );
        ctx.tally_events(
            seq.events + par.events,
            SimTime::from_secs(2 * FLEET_HORIZON_SECS),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_chaos_fleet_is_partition_invariant() {
        let mut a = chaos_fleet(7, 1, 1);
        a.devices = 120;
        let mut b = chaos_fleet(7, 4, 2);
        b.devices = 120;
        let ra = run_fleet(&a);
        let rb = run_fleet(&b);
        assert_eq!(ra.report(), rb.report());
        assert_eq!(ra.trace_digest, rb.trace_digest);
    }

    #[test]
    fn tiny_chaos_fleet_meets_the_slos() {
        let mut cfg = chaos_fleet(7, 2, 2);
        cfg.devices = 200;
        let out = run_fleet(&cfg);
        assert_eq!(out.duplicate_deliveries, 0, "idempotence SLO broken");
        assert!(out.dir_converged, "convergence SLO broken");
        assert_eq!(out.restarts, 1);
        assert!(out.packets_dropped > 0 && out.packets_duped > 0);
        assert!(out.retries > 0, "chaos never forced a retry");
    }
}
