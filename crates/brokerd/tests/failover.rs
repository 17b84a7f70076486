//! Broker kill-over through the full middleware stack.
//!
//! An application submits `SELECT wind FROM extInfra EVERY 5 sec` to a
//! real `ContextFactory`; the query rides `InfraCxtProvider`, whose
//! cellular reference is a [`FederatedCell`] over four brokers. A
//! [`FaultPlan`] kills the selected broker mid-run. The paper's §6
//! failover experiments bound infrastructure failover at 45 s — this
//! test asserts the delivery gap around the kill stays inside that SLO,
//! across 3 seeds.

use brokerd::cell::FederatedCell;
use brokerd::{BrokerId, NodeConfig};
use contory::refs::{CellReference, References};
use contory::{Client, ContextFactory, CxtItem, CxtValue, FactoryConfig, QueryId};
use simkit::faults::FaultPlan;
use simkit::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The §6 infrastructure failover service-level objective.
const FAILOVER_SLO: SimDuration = SimDuration::from_secs(45);

const KILL_AT: SimTime = SimTime::from_secs(60);
const RUN_FOR: SimDuration = SimDuration::from_secs(180);

/// Client that records the *simulated arrival time* of every delivery.
struct TimestampingClient {
    sim: Sim,
    arrivals: Rc<RefCell<Vec<SimTime>>>,
}

impl Client for TimestampingClient {
    fn receive_cxt_item(&self, _query: QueryId, _item: CxtItem) {
        self.arrivals.borrow_mut().push(self.sim.now());
    }
    fn inform_error(&self, _message: &str) {}
    fn make_decision(&self, _message: &str) -> bool {
        true
    }
}

struct Outcome {
    arrivals: Vec<SimTime>,
    reselects: u64,
    selected: Option<BrokerId>,
}

fn run_scenario(seed: u64) -> Outcome {
    let sim = Sim::new();
    let cell = FederatedCell::new(&sim, NodeConfig::default());
    // broker0 has the best link, so QoS selection pins it first — and
    // the fault plan kills exactly that broker mid-run.
    for b in 0..4u16 {
        cell.add_broker(BrokerId(b), 5_000 + u64::from(b) * 2_000);
    }
    let mut plan = FaultPlan::new(seed);
    plan.kill_at("broker:0", KILL_AT);
    cell.set_fault_plan(plan);

    // Infrastructure-side publisher: a buoy refreshes the retained
    // `wind` record every 5 s (60 s lifetime, attributed).
    {
        let publisher = cell.clone();
        let pub_sim = sim.clone();
        sim.schedule_repeating(SimDuration::from_secs(5), move || {
            let item = CxtItem::new("wind", CxtValue::number(8.5), pub_sim.now())
                .with_lifetime(SimDuration::from_secs(60))
                .with_source("buoy-1");
            publisher.store(&item, Box::new(|_| {}));
            true
        });
    }

    let refs = References {
        cell: Some(Rc::new(cell.clone())),
        ..References::none()
    };
    let factory = ContextFactory::new(&sim, refs, FactoryConfig::default());
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    let client = Rc::new(TimestampingClient {
        sim: sim.clone(),
        arrivals: arrivals.clone(),
    });
    factory
        .process_cxt_query_text("SELECT wind FROM extInfra DURATION 170 sec EVERY 5 sec", client)
        .expect("submit extInfra query");

    sim.run_for(RUN_FOR);
    let arrivals = arrivals.borrow().clone();
    Outcome {
        arrivals,
        reselects: cell.reselects(),
        selected: cell.selected(),
    }
}

#[test]
fn broker_kill_over_meets_the_45s_slo_across_seeds_and_shards() {
    for seed in [3u64, 5, 9] {
        let out = run_scenario(seed);
        let label = format!("seed={seed}");

        // The federation failed over away from the dead broker.
        assert!(out.reselects >= 1, "{label}: no reselection happened");
        assert_ne!(
            out.selected,
            Some(BrokerId(0)),
            "{label}: still pinned to the killed broker"
        );

        // Deliveries on both sides of the kill.
        let before: Vec<_> = out.arrivals.iter().filter(|t| **t < KILL_AT).collect();
        let after: Vec<_> = out.arrivals.iter().filter(|t| **t >= KILL_AT).collect();
        assert!(!before.is_empty(), "{label}: no deliveries before the kill");
        assert!(!after.is_empty(), "{label}: no deliveries after the kill");

        // The SLO: no delivery gap anywhere in the run — including
        // straddling the kill — exceeds 45 s.
        let max_gap = out
            .arrivals
            .windows(2)
            .map(|w| w[1].since(w[0]))
            .max()
            .expect("at least two deliveries");
        assert!(
            max_gap <= FAILOVER_SLO,
            "{label}: delivery gap {}s exceeds the 45s SLO",
            max_gap.as_secs()
        );
    }
}

#[test]
fn same_seed_same_shard_count_is_deterministic() {
    let a = run_scenario(5);
    let b = run_scenario(5);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.reselects, b.reselects);
}
