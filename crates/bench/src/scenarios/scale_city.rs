//! `scale_city` — the partitioned-engine scale scenario (beyond-paper).
//!
//! The paper's testbed tops out at a handful of phones; this scenario
//! asks what the same provisioning traffic shape looks like at *city*
//! scale: 100 000 devices, each waking on its own deterministic period
//! and gossiping small context items to derived neighbors, driven by the
//! partitioned [`simkit::ShardSim`] engine (per-shard queues merged on
//! the `(time, actor, seq)` total order — see DESIGN.md §5f).
//!
//! Every row is a pure function of the seed and pinned exactly in
//! `results/baseline.json`:
//!
//! * **Outcome rows** (event totals, deliveries, events per sim second,
//!   the folded state checksum): identical for every shard/thread count.
//! * **Engine-profile rows** (merge rounds, per-shard load, queue peak,
//!   barrier imbalance): they describe the partition layout, which the
//!   fixed `SHARDS` × `THREADS` run makes the same on every host.
//!
//! Wall time is not measured here; perfbench (`BENCHMARK.json`) is the
//! repository's one wall-clock harness.
//!
//! The scenario also cross-checks the partition-invariance contract on a
//! small city: 1 shard × 1 thread and 16 shards × max threads must
//! produce bit-identical outcomes.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use simkit::hash::mix64;
use simkit::shard::EngineProfile;
use simkit::{ActorId, EventCtx, ShardConfig, ShardSim, SimDuration, SimTime};

/// Shard count of the 100k-device run.
const SHARDS: u32 = 16;
/// Worker threads of the 100k-device run: fixed, not the host's core
/// count, so the engine profile (`parallel_rounds` included) is the same
/// on every host.
const THREADS: u32 = 4;

/// One city run's knobs.
#[derive(Clone, Copy, Debug)]
pub struct CityConfig {
    /// Device (actor) population.
    pub devices: u64,
    /// Physical shard count.
    pub shards: u32,
    /// Worker threads for rounds big enough to step in parallel.
    pub threads: u32,
    /// Master seed.
    pub seed: u64,
    /// Virtual horizon.
    pub horizon: SimDuration,
}

/// Deterministic outcome of a city run — every field is a pure function
/// of `(seed, devices, horizon)`, independent of `shards`/`threads`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CityOutcome {
    /// Events executed (ticks + gossip deliveries).
    pub events: u64,
    /// Cross-actor gossip messages delivered.
    pub delivered: u64,
    /// Messages that targeted no actor (always 0 here).
    pub dead_letters: u64,
    /// Folded per-device state checksum.
    pub checksum: u64,
}

#[derive(Clone)]
enum Ev {
    /// Periodic wake-up; reschedules itself.
    Tick,
    /// A gossiped context item with a remaining forward budget.
    Gossip { hops: u32 },
}

struct Device {
    /// Wake period, drawn once from the device's own stream.
    period: Option<SimDuration>,
    ticks: u64,
    received: u64,
    /// Running event-order-sensitive accumulator.
    acc: u64,
}

/// 100 ms grid: every tick period, start offset and gossip delay is a
/// multiple of this, so the engine's merge rounds stay coarse (hundreds
/// of rounds per run instead of one per microsecond-distinct event).
const GRID_MS: u64 = 100;

fn on_event(dev: &mut Device, ctx: &mut EventCtx<'_, Ev>, ev: Ev, devices: u64) {
    match ev {
        Ev::Tick => {
            let period = *dev.period.get_or_insert_with(|| {
                // 1.0 s – 3.0 s on the 100 ms grid.
                SimDuration::from_millis(1000 + GRID_MS * (ctx.rng().next_u64() % 21))
            });
            dev.ticks += 1;
            dev.acc = mix64(dev.acc ^ ctx.now().as_micros());
            // Gossip one context item to a derived neighbor.
            let jump = 1 + ctx.rng().next_u64() % (devices - 1);
            let dest = ActorId((ctx.actor().0 + jump) % devices);
            let delay = SimDuration::from_millis(GRID_MS * (1 + ctx.rng().next_u64() % 5));
            ctx.send(dest, delay, Ev::Gossip { hops: 1 });
            ctx.schedule_self(period, Ev::Tick);
        }
        Ev::Gossip { hops } => {
            dev.received += 1;
            dev.acc = mix64(dev.acc ^ ctx.now().as_micros().rotate_left(13));
            if hops > 0 {
                let jump = 1 + ctx.rng().next_u64() % (devices - 1);
                let dest = ActorId((ctx.actor().0 + jump) % devices);
                let delay = SimDuration::from_millis(GRID_MS * (1 + ctx.rng().next_u64() % 5));
                ctx.send(dest, delay, Ev::Gossip { hops: hops - 1 });
            }
        }
    }
}

/// Runs one deterministic city. Public so the root `shard_determinism`
/// test can replay small cities across shard/thread matrices and compare
/// outcomes bit-for-bit.
pub fn run_city(cfg: CityConfig) -> CityOutcome {
    run_city_profiled(cfg).0
}

/// [`run_city`] plus the engine's execution profile (per-shard event
/// counts, queue peaks, merge-barrier imbalance). The outcome is
/// partition-invariant; the profile describes the partition layout and
/// therefore is not.
pub fn run_city_profiled(cfg: CityConfig) -> (CityOutcome, EngineProfile) {
    assert!(cfg.devices >= 2, "gossip needs at least two devices");
    let devices = cfg.devices;
    let mut sim = ShardSim::new(
        ShardConfig {
            seed: cfg.seed,
            shards: cfg.shards,
            threads: cfg.threads,
            record_transcript: false,
        },
        move |dev: &mut Device, ctx: &mut EventCtx<'_, Ev>, ev| {
            on_event(dev, ctx, ev, devices);
        },
    );
    // Stagger first wake-ups across the first second of the grid with a
    // stream *separate* from each actor's in-engine stream (same salt
    // would double-draw).
    let mut offsets = simkit::DetRng::derive(cfg.seed, 0x0c17_15ca_1ec1_7100);
    for i in 0..devices {
        let added = sim.add_actor(
            ActorId(i),
            Device {
                period: None,
                ticks: 0,
                received: 0,
                acc: mix64(i),
            },
        );
        debug_assert!(added, "duplicate device id");
        let at = SimTime::from_millis(GRID_MS * (1 + offsets.next_u64() % 10));
        let scheduled = sim.schedule(ActorId(i), at, Ev::Tick);
        debug_assert!(scheduled.is_ok(), "tick for unknown device");
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);
    let mut checksum = 0u64;
    for i in 0..devices {
        if let Some(dev) = sim.actor_state(ActorId(i)) {
            checksum = mix64(checksum ^ dev.acc ^ (dev.ticks << 17) ^ dev.received);
        }
    }
    let out = CityOutcome {
        events: sim.events_processed(),
        delivered: sim.messages_delivered(),
        dead_letters: sim.dead_letters(),
        checksum,
    };
    (out, sim.profile().clone())
}

/// The 100k-device partitioned-engine scale scenario.
pub struct ScaleCity;

/// The big run's population.
pub const CITY_DEVICES: u64 = 100_000;
/// The big run's virtual horizon.
pub const CITY_HORIZON_SECS: u64 = 30;

impl Scenario for ScaleCity {
    fn name(&self) -> &'static str {
        "scale_city"
    }
    fn title(&self) -> &'static str {
        "City-scale gossip on the partitioned engine (100k devices)"
    }
    fn paper_ref(&self) -> &'static str {
        "beyond-paper scale"
    }
    fn seed(&self) -> u64 {
        700
    }

    fn run(&self, ctx: &mut RunCtx) {
        let cfg = CityConfig {
            devices: CITY_DEVICES,
            shards: SHARDS,
            threads: THREADS,
            seed: self.seed(),
            horizon: SimDuration::from_secs(CITY_HORIZON_SECS),
        };
        let (out, profile) = run_city_profiled(cfg);
        let horizon = CITY_HORIZON_SECS as f64;
        ctx.tally_events(out.events, SimTime::from_secs(CITY_HORIZON_SECS));
        obskit::count("scale_city_events", out.events);
        obskit::count("scale_city_delivered", out.delivered);
        obskit::gauge("scale_city_queue_peak_max", profile.max_queue_peak() as f64);
        obskit::gauge("scale_city_merge_rounds", profile.rounds as f64);
        for (shard, events) in profile.events_per_shard.iter().enumerate() {
            obskit::gauge(&format!("scale_city_shard{shard}_events"), *events as f64);
        }

        ctx.note(format!(
            "population {CITY_DEVICES}, horizon {horizon} sim-s, {} shards x {} threads",
            cfg.shards, cfg.threads,
        ));

        // Deterministic rows: pinned (near-)exactly. `abs_tol 0.4` keeps
        // the band non-degenerate for the schema test while still failing
        // on any integer drift.
        ctx.push(
            Measurement::scalar("devices", "device population", Unit::Count, CITY_DEVICES as f64)
                .with_gate_rel_tol(0.0)
                .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "events_total",
                "events executed (ticks + deliveries)",
                Unit::Count,
                out.events as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("seed-determined; shard/thread-invariant"),
        );
        ctx.push(
            Measurement::scalar(
                "messages_delivered",
                "cross-actor gossip deliveries",
                Unit::Count,
                out.delivered as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "events_per_sim_sec",
                "event throughput per simulated second",
                Unit::PerSec,
                out.events as f64 / horizon,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "state_checksum32",
                "folded device-state checksum (low 32 bits)",
                Unit::Count,
                (out.checksum & 0xffff_ffff) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("byte-identity witness across shard/thread counts"),
        );
        ctx.check_true(
            "no_dead_letters",
            "every gossip message found its device",
            out.dead_letters == 0,
        );

        // Engine-profile rows: they describe the partition layout itself,
        // which the fixed SHARDS x THREADS run pins, so they are exact too.
        let shard_n = profile.events_per_shard.len().max(1) as f64;
        ctx.push(
            Measurement::scalar(
                "merge_rounds",
                "engine merge-barrier rounds",
                Unit::Count,
                profile.rounds as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "events_per_shard_mean",
                "events executed per shard (mean)",
                Unit::Count,
                profile.total_events() as f64 / shard_n,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "queue_peak_max",
                "worst per-shard ready-queue depth",
                Unit::Count,
                profile.max_queue_peak() as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "barrier_imbalance_mean",
                "mean per-round max-min shard batch gap",
                Unit::Count,
                profile.barrier_imbalance.mean() as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.check_true(
            "profile_accounts_all_events",
            "per-shard profile counts sum to the engine event total",
            profile.total_events() == out.events,
        );
        ctx.artifact("engine profile (per-shard)", profile.table());

        // Partition-invariance cross-check on a small city: sequential
        // 1x1 vs 16 shards on all cores must agree bit-for-bit.
        let small = CityConfig {
            devices: 2_000,
            shards: 1,
            threads: 1,
            seed: self.seed() ^ 0x5ca1e,
            horizon: SimDuration::from_secs(10),
        };
        let seq = run_city(small);
        let par = run_city(CityConfig {
            shards: 16,
            threads: ShardConfig::max_threads(),
            ..small
        });
        ctx.check_true(
            "shard_invariance_small_city",
            "2k-device city: 1 shard x 1 thread == 16 shards x max threads",
            seq == par,
        );
        ctx.tally_events(seq.events + par.events, SimTime::from_secs(2 * 10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shards: u32, threads: u32) -> CityOutcome {
        run_city(CityConfig {
            devices: 64,
            shards,
            threads,
            seed: 9,
            horizon: SimDuration::from_secs(6),
        })
    }

    #[test]
    fn tiny_city_runs_and_gossips() {
        let out = tiny(1, 1);
        assert!(out.events > 64, "no ticks executed");
        assert!(out.delivered > 0, "no gossip delivered");
        assert_eq!(out.dead_letters, 0);
    }

    #[test]
    fn outcome_is_partition_invariant() {
        let reference = tiny(1, 1);
        for (shards, threads) in [(2, 1), (4, 2), (16, 4), (64, ShardConfig::max_threads())] {
            assert_eq!(tiny(shards, threads), reference, "{shards}x{threads} diverged");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_city(CityConfig {
            devices: 64,
            shards: 4,
            threads: 2,
            seed: 1,
            horizon: SimDuration::from_secs(6),
        });
        let b = run_city(CityConfig {
            devices: 64,
            shards: 4,
            threads: 2,
            seed: 2,
            horizon: SimDuration::from_secs(6),
        });
        assert_ne!(a.checksum, b.checksum);
    }
}
