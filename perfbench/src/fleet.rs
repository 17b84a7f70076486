//! `fleet`: the federated broker fleet on the sharded engine.
//!
//! `brokerd::run_fleet_profiled` with 10k devices, 4 brokers and 8
//! engine shards; `broker:2` is killed at 10 sim-s and the horizon is
//! 20 sim-s. Every repetition runs the same seeded fleet at 1 engine
//! thread and at `nproc` threads. Broker admit→dispatch and the
//! `ShardSim` per-round barrier do almost all the work: about five
//! events per round over ~100k rounds, so above one thread the barrier
//! dominates.

use crate::common::{timed, Tracer};
use brokerd::{fault_edges, run_fleet_profiled, FleetConfig, FleetOutcome, NodeConfig};
use simkit::faults::FaultPlan;
use simkit::shard::EngineProfile;
use simkit::{SimDuration, SimTime};

/// Engine shards of the fleet.
pub const SHARDS: u32 = 8;

/// Brokers of the fleet.
pub const BROKERS: u16 = 4;

/// Population and horizon of one fleet run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Device population.
    pub devices: u64,
    /// Simulated seconds.
    pub horizon_s: u64,
    /// When `broker:2` is killed.
    pub kill_at_s: u64,
}

/// The measured size.
pub const FULL: Size = Size {
    devices: 10_000,
    horizon_s: 20,
    kill_at_s: 10,
};

/// Self-test size.
pub const TOY: Size = Size {
    devices: 400,
    horizon_s: 16,
    kill_at_s: 4,
};

/// The fleet for `seed` at `threads` engine threads.
pub fn config(seed: u64, size: Size, threads: u32) -> FleetConfig {
    let mut plan = FaultPlan::new(seed);
    plan.kill_at("broker:2", SimTime::from_secs(size.kill_at_s));
    FleetConfig {
        seed,
        brokers: BROKERS,
        devices: size.devices,
        shards: SHARDS,
        threads,
        run_for: SimDuration::from_secs(size.horizon_s),
        node: NodeConfig::default(),
        fault_edges: fault_edges(&plan, BROKERS),
        ..FleetConfig::default()
    }
}

/// Nominal wall seconds of one repetition on a 2-CPU host. It only
/// turns `--seconds` into a repetition count; the count never depends
/// on how fast the code under test runs.
pub const NOMINAL_REP_S: f64 = 7.0;

/// 1-thread runs per repetition, one on each side of the parallel run.
pub const ONE_THREAD_RUNS: usize = 2;

/// One repetition: the same fleet at 1 engine thread, at `threads`, and
/// at 1 engine thread again.
pub struct Rep {
    /// Wall seconds of the 1-thread runs.
    pub wall_1t: [f64; ONE_THREAD_RUNS],
    /// Wall seconds at `threads` engine threads.
    pub wall_nt: f64,
    /// Outcome of the first 1-thread run.
    pub out: FleetOutcome,
    /// Engine profile of the `threads` run.
    pub profile: EngineProfile,
    /// Output-check failures (empty when every check passed).
    pub failures: Vec<String>,
}

/// Output checks of one fleet outcome against its other-thread twin.
pub fn check(a: &FleetOutcome, b: &FleetOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    if a.report() != b.report() {
        bad.push("fleet report differs between 1 and nproc engine threads".to_owned());
    }
    if (a.published, a.delivered, a.shed) != (b.published, b.delivered, b.shed) {
        bad.push("fleet published/delivered/shed differ between thread counts".to_owned());
    }
    if a.delivered == 0 || a.published == 0 {
        bad.push("fleet delivered nothing".to_owned());
    }
    if a.rehomes == 0 {
        bad.push("killing broker:2 re-homed no publisher".to_owned());
    }
    bad
}

/// The set-up step: builds both configs and then the fleet itself
/// (brokers, device actors and their start events) by running it to
/// simulated time zero only. Returns the configs with its wall seconds.
pub fn setup(seed: u64, size: Size, threads: u32) -> ((FleetConfig, FleetConfig), f64) {
    timed(|| {
        let cfgs = (config(seed, size, 1), config(seed, size, threads));
        let start = FleetConfig {
            run_for: SimDuration::ZERO,
            ..cfgs.0.clone()
        };
        std::hint::black_box(run_fleet_profiled(&start));
        cfgs
    })
}

/// Runs one repetition.
pub fn run_rep(cfgs: &(FleetConfig, FleetConfig), tr: &Tracer) -> Rep {
    let run = |cfg| timed(|| tr.span("brokerd.fleet", || run_fleet_profiled(cfg)));
    let mut wall_1t = [0.0; ONE_THREAD_RUNS];
    let mut outs = Vec::new();
    let mut parallel = None;
    for (i, w) in wall_1t.iter_mut().enumerate() {
        if i == ONE_THREAD_RUNS / 2 {
            parallel = Some(run(&cfgs.1));
        }
        let ((out, _), s) = run(&cfgs.0);
        *w = s;
        outs.push(out);
    }
    let ((out_n, profile), wall_nt) = parallel.expect("the parallel run ran");
    let failures = outs.iter().flat_map(|o| check(o, &out_n)).collect();
    Rep {
        wall_1t,
        wall_nt,
        out: outs.swap_remove(0),
        profile,
        failures,
    }
}
