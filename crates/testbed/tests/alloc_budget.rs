//! A deterministic allocation budget for the paper's provisioning path.
//!
//! Two Nokia 6630s each run an `extInfra` query over UMTS and an
//! `intSensor` query, against a weather station that stores a wind
//! record every minute. The `extInfra` query has no FRESHNESS, so every
//! periodic push re-sends the whole wind history: the number of items
//! delivered grows with the run, and so does whatever the path spends on
//! each one. This test counts the heap traffic of 30 simulated minutes
//! of it with the workspace's counting allocator (`crates/alloccount`),
//! and fails when a change makes the path allocate clearly more: one
//! heap copy of every delivered item's type name, an item's names made
//! per reading instead of once per sensor, one copy of every delivered
//! item put back into a provider's filter, or an envelope header built
//! to size each frame, is enough to trip it. The simulation is seeded
//! and single-threaded, so the count does not swing with the host's
//! load the way wall time does.
//!
//! The same allocator also counts frees, so the file's other test checks
//! that a dropped world's fuego parts leave no live heap behind: a
//! reference cycle between a handler and its owner would keep them
//! alive after every handle is gone.
//!
//! The counters are per thread, so only allocations made on the test's
//! own thread count.
//!
//! Run it on its own with
//! `cargo test -q --release -p contory-testbed --test alloc_budget`;
//! add `-- --nocapture` to print the measured figures.

use contory::{Client, CxtItem, QueryId};
use fuego::{ContextInfrastructure, EventBroker, FuegoClient};
use phone::{Phone, PhoneConfig};
use radio::cell::{CellNetwork, CellParams};
use radio::{NodeId, Position};
use sensors::EnvField;
use simkit::{Sim, SimDuration};
use std::cell::Cell;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// Allocation budget: the measured 5,539 plus just under 5 %. A copy of
/// every delivered item in the provider's filter makes 6,073, names made
/// per reading 6,619, a heap copy of every delivered item's type name
/// 6,767, and building the envelope header to size each frame 11,551;
/// the path whose items owned their names made 20,727, and the one that
/// also copied items in both filters and built a `<record>` element per
/// record per push made 52,245.
const MAX_ALLOCS: u64 = 5_815;
/// Budget of bytes requested: just under 5 % over the 632,476 measured
/// when it was set; the path now requests 631,996 (854,812 when each
/// pushed batch's items are collected without the batch's size,
/// 1,260,444 with the provider's copy, 1,174,694 when items owned their
/// names).
const MAX_BYTES: u64 = 664_000;

#[global_allocator]
static COUNTING: alloccount::Counting = alloccount::Counting;

/// Counts the items delivered to it without keeping them.
#[derive(Default)]
struct Tally {
    wind: Cell<u64>,
    temperature: Cell<u64>,
}

impl Client for Tally {
    fn receive_cxt_item(&self, _query: QueryId, item: CxtItem) {
        let n = match item.cxt_type.as_str() {
            "wind" => &self.wind,
            _ => &self.temperature,
        };
        n.set(n.get() + 1);
    }

    fn inform_error(&self, message: &str) {
        panic!("provisioning failed: {message}");
    }
}

#[test]
fn provisioning_path_stays_within_its_allocation_budget() {
    let tb = Testbed::with_seed(2006);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    let phones: Vec<_> = (0..2)
        .map(|i| {
            tb.add_phone(PhoneSetup {
                internal_sensors: vec![EnvField::TemperatureC],
                cell_on: true,
                metered: false,
                ..PhoneSetup::nokia6630(format!("phone{i}"), Position::new(i as f64 * 3.0, 0.0))
            })
        })
        .collect();
    tb.sim.run_for(SimDuration::from_secs(5));

    let (tally, used) = alloccount::measure(|| {
        let tally = Rc::new(Tally::default());
        for phone in &phones {
            for text in [
                "SELECT wind FROM extInfra DURATION 1 hour EVERY 60 sec",
                "SELECT temperature FROM intSensor DURATION 1 hour EVERY 10 sec",
            ] {
                phone
                    .submit(text, tally.clone())
                    .expect("the query is accepted");
            }
        }
        tb.sim.run_for(SimDuration::from_secs(30 * 60));
        tally
    });
    let (allocs, bytes) = (used.allocs, used.bytes);
    let (wind, temperature) = (tally.wind.get(), tally.temperature.get());
    let summary = format!(
        "{allocs} allocations, {bytes} bytes for {wind} wind and {temperature} temperature items"
    );
    // The seeded world delivers the same items on every run: 1 + 2 + …
    // + 29 wind records to each phone, and its temperature samples.
    assert_eq!((wind, temperature), (870, 358), "{summary}");
    assert!(
        allocs <= MAX_ALLOCS,
        "allocation budget {MAX_ALLOCS} exceeded: {summary}"
    );
    assert!(
        bytes <= MAX_BYTES,
        "byte budget {MAX_BYTES} exceeded: {summary}"
    );
    eprintln!("{summary}");
}

/// Live heap bytes that building and dropping a world leaves behind.
/// The world is built and dropped once before the two readings, so
/// one-time set-up on the test's thread does not count.
fn left_after_drop(build_and_drop: impl Fn()) -> i64 {
    build_and_drop();
    alloccount::measure(build_and_drop).1.live
}

#[test]
fn dropped_worlds_leave_no_fuego_state_live() {
    let empty = left_after_drop(|| drop(Testbed::with_seed(2006)));
    assert_eq!(empty, 0, "an empty testbed left {empty} bytes live");
    let infra = left_after_drop(|| {
        let sim = Sim::new();
        let broker = EventBroker::new(&sim, &CellNetwork::new(&sim, CellParams::default(), 99));
        drop(ContextInfrastructure::new(&broker));
    });
    assert_eq!(
        infra, 0,
        "a broker and its infrastructure left {infra} bytes live"
    );
    // A bare phone leaves bytes of its own; a client on its modem must
    // add none.
    let phone = |with_client: bool| {
        let sim = Sim::new();
        let net = CellNetwork::new(&sim, CellParams::default(), 99);
        let modem = net.attach(NodeId(1), &Phone::new(&sim, PhoneConfig::default()), 8);
        if with_client {
            drop(FuegoClient::new(&sim, &modem, "phone-1"));
        }
    };
    let (bare, client) = (
        left_after_drop(|| phone(false)),
        left_after_drop(|| phone(true)),
    );
    assert_eq!(
        client, bare,
        "a client left {client} bytes live, its phone and modem {bare}"
    );
}
