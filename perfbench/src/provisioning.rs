//! `provisioning`: the paper's own path on the classic `Sim`.
//!
//! A seeded population of testbed phones runs the paper's CQL mix through
//! `ContextFactory::process_cxt_query_text`: Nokia 6630s with internal
//! sensors and UMTS (periodic intSensor queries the facade merges, BT
//! `adHocNetwork(all,1)`, extInfra over UMTS, an `EVENT AVG(…)` query and
//! on-demand one-shots), Nokia 9500 communicators for WiFi/Smart Messages
//! multi-hop `adHocNetwork(all,3)`, and a weather station behind fuego.
//! The query language, facade merging, predicates, fuego XML and the
//! classic engine do all the work; ShardSim and brokerd never run.
//!
//! The application side fuses each query's new items once per slice with
//! `CxtAggregator::combine`, the way the paper's applications combine
//! results from several providers.

use crate::common::{fnv, timed, Gen, Tracer, FNV0};
use contory::{
    AggregationStrategy, Client, CxtAggregator, CxtItem, CxtValue, Mechanism, QueryId, Trust,
};
use radio::Position;
use sensors::EnvField;
use simkit::SimDuration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// Population and horizon of one provisioning run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Nokia 6630 phones (internal sensors, UMTS, BT).
    pub phones: u64,
    /// Nokia 9500 communicators (WiFi multi-hop).
    pub communicators: u64,
    /// Simulated minutes per run.
    pub minutes: u64,
    /// Simulated seconds per engine-advance request.
    pub slice_secs: u64,
}

/// The measured size: long enough for per-query state to grow.
pub const FULL: Size = Size {
    phones: 10,
    communicators: 6,
    minutes: 60,
    slice_secs: 60,
};

/// Self-test size.
pub const TOY: Size = Size {
    phones: 3,
    communicators: 3,
    minutes: 6,
    slice_secs: 30,
};

/// Per-query delivery log kept by the application.
#[derive(Default)]
struct QueryLog {
    items: u64,
    digest: u64,
    fresh: Vec<CxtItem>,
}

/// The application on one device: a client shared by its queries.
#[derive(Default)]
struct App {
    logs: RefCell<BTreeMap<u64, QueryLog>>,
    errors: RefCell<u64>,
}

impl Client for App {
    fn receive_cxt_item(&self, query: QueryId, item: CxtItem) {
        let mut logs = self.logs.borrow_mut();
        let log = logs.entry(query.0).or_insert_with(|| QueryLog {
            digest: FNV0,
            ..QueryLog::default()
        });
        log.items += 1;
        let rec = format!(
            "{} {} {:?} {:?}",
            item.timestamp.as_micros(),
            item.cxt_type,
            item.value,
            item.source
        );
        log.digest = fnv(log.digest, rec.as_bytes());
        log.fresh.push(item);
    }

    fn inform_error(&self, _message: &str) {
        *self.errors.borrow_mut() += 1;
    }

    fn make_decision(&self, _message: &str) -> bool {
        true
    }
}

/// Query text of phone slot `i`: the paper's CQL mix. Periods, sample
/// counts and EVENT thresholds come from fixed tables by slot, so every
/// seed submits the same multiset of queries; the seed shuffles which
/// phone gets which slot.
pub fn phone_queries(i: u64) -> Vec<String> {
    const EVERY: [(u64, u64); 4] = [(10, 20), (15, 30), (20, 10), (30, 15)];
    const FRESH: [(u64, u64); 3] = [(10, 30), (20, 10), (30, 20)];
    let (e1, e2) = EVERY[(i % 4) as usize];
    let (f1, f2) = FRESH[(i % 3) as usize];
    vec![
        format!(
            "SELECT temperature FROM intSensor FRESHNESS {f1} sec DURATION 1 hour EVERY {e1} sec"
        ),
        format!(
            "SELECT temperature FROM intSensor FRESHNESS {f2} sec DURATION 1 hour EVERY {e2} sec"
        ),
        format!(
            "SELECT temperature FROM adHocNetwork(all,1) DURATION {} samples EVERY 30 sec",
            4 + i % 5
        ),
        format!(
            "SELECT wind FROM extInfra DURATION 1 hour EVERY {} sec",
            [60, 90, 120][(i % 3) as usize]
        ),
        format!(
            "SELECT temperature FROM intSensor DURATION 1 hour EVENT AVG(temperature)>{}",
            2 + i % 8
        ),
        "SELECT light FROM intSensor DURATION 1 samples".to_owned(),
    ]
}

/// Query texts of communicator slot `i`: WiFi/Smart Messages multi-hop.
pub fn communicator_queries(i: u64) -> Vec<String> {
    vec![
        format!(
            "SELECT temperature FROM adHocNetwork(all,3) DURATION 1 hour EVERY {} sec",
            [60, 90, 120][(i % 3) as usize]
        ),
        "SELECT temperature FROM adHocNetwork(all,3) DURATION 1 hour EVERY 120 sec".to_owned(),
    ]
}

const MECHANISMS: [Mechanism; 4] = [
    Mechanism::IntSensor,
    Mechanism::AdHocBt,
    Mechanism::AdHocWifi,
    Mechanism::Infra,
];

/// The on-demand one-shot a phone submits mid-run.
pub const ONE_SHOT: &str = "SELECT humidity FROM intSensor DURATION 1 samples";

/// Every CQL text one run of `size` submits, in submission order
/// (phones first, six each, then communicators, two each).
pub fn query_texts(seed: u64, size: Size) -> Vec<String> {
    let mut g = Gen::new(seed, 0xc91);
    let mut phones: Vec<u64> = (0..size.phones).collect();
    let mut communicators: Vec<u64> = (0..size.communicators).collect();
    g.shuffle(&mut phones);
    g.shuffle(&mut communicators);
    let mut out = Vec::new();
    for i in phones {
        out.extend(phone_queries(i));
    }
    for i in communicators {
        out.extend(communicator_queries(i));
    }
    out
}

/// An assembled population, ready for its first query.
struct World {
    tb: Testbed,
    phones: Vec<Rc<testbed::TestbedPhone>>,
    communicators: Vec<Rc<testbed::TestbedPhone>>,
}

/// The simulated world's own seed (radio and sensor noise). It is fixed
/// rather than drawn from `--seed`: a different radio world changes how
/// much work a run does by tens of percent, which would swamp the
/// comparison between runs. `--seed` draws the inputs: which phone runs
/// which queries and where each device stands.
const WORLD_SEED: u64 = 2006;

/// Builds the testbed: phones in BT clusters, a WiFi chain of
/// communicators, a fuego weather station, and every device publishing
/// its temperature for the ad hoc queries.
fn build(seed: u64, size: Size) -> World {
    let tb = Testbed::with_seed(WORLD_SEED);
    let mut g = Gen::new(seed, 0x9b5);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[EnvField::TemperatureC, EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    let phones: Vec<_> = (0..size.phones)
        .map(|i| {
            let (cluster, slot) = (i / 4, i % 4);
            let x = cluster as f64 * 300.0 + slot as f64 * 3.0 + g.below(100) as f64 / 100.0;
            tb.add_phone(PhoneSetup {
                internal_sensors: vec![
                    EnvField::TemperatureC,
                    EnvField::LightLux,
                    EnvField::HumidityPct,
                ],
                cell_on: true,
                metered: false,
                ..PhoneSetup::nokia6630(format!("phone{i}"), Position::new(x, 0.0))
            })
        })
        .collect();
    let communicators: Vec<_> = (0..size.communicators)
        .map(|i| {
            let x = i as f64 * 80.0 + g.below(10) as f64;
            tb.add_phone(PhoneSetup::nokia9500(
                format!("comm{i}"),
                Position::new(x, 5_000.0),
            ))
        })
        .collect();
    // Radios join before anyone publishes (WiFi association takes a few
    // simulated seconds).
    tb.sim.run_for(SimDuration::from_secs(5));
    for dev in phones.iter().chain(&communicators) {
        dev.factory().register_cxt_server("perfbench");
        let factory = dev.factory().clone();
        let env = tb.env.clone();
        let world = tb.world.clone();
        let node = dev.node();
        let sim = tb.sim.clone();
        let publish = move || {
            let pos = world.position_of(node).unwrap_or_default();
            let v = env.sample(EnvField::TemperatureC, pos, sim.now());
            let _ = factory.publish_cxt_item(
                CxtItem::new("temperature", CxtValue::quantity(v, "C"), sim.now())
                    .with_accuracy(0.2)
                    .with_trust(Trust::Community),
                None,
            );
        };
        publish();
        tb.sim
            .schedule_repeating(SimDuration::from_secs(20), move || {
                publish();
                true
            });
    }
    World {
        tb,
        phones,
        communicators,
    }
}

/// Wall seconds of a set-up alone: building the testbed for `seed`.
pub fn setup_s(seed: u64, size: Size) -> f64 {
    timed(|| build(seed, size)).1
}

/// Nominal wall seconds of one full-size run on a 2-CPU host. It only
/// turns `--seconds` into a run count; the count never depends on how
/// fast the code under test runs.
pub const NOMINAL_REP_S: f64 = 0.2;

/// Exact operation counts of one run, for attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Query texts submitted (each parsed once).
    pub submits: u64,
    /// Submissions the factory refused.
    pub refused: u64,
    /// Errors reported to the application (`AllMechanismsFailed` …).
    pub errors: u64,
    /// Items delivered to the application.
    pub items: u64,
    /// `CxtAggregator::combine` calls made by the application.
    pub combines: u64,
    /// Classic-engine events executed.
    pub events: u64,
    /// Providers alive after the initial submissions, over all facades.
    pub providers: u64,
    /// Queries submitted before the provider count was taken.
    pub initial_queries: u64,
}

/// One measured run.
pub struct RunOut {
    /// Set-up seconds (testbed assembly).
    pub setup_s: f64,
    /// Host ms of each request: step 0 submits the initial queries;
    /// every later step submits that slice's one-shots, advances the
    /// engine one slice and fuses the new items.
    pub step_ms: Vec<f64>,
    /// Items delivered during each step (deterministic for a seed).
    pub step_items: Vec<u64>,
    /// Per-query `(items, item-stream digest)`, by `(device, query id)`.
    pub digests: BTreeMap<(usize, u64), (u64, u64)>,
    /// Host µs of each `process_cxt_query_text` call.
    pub submit_us: Vec<f64>,
    /// Exact counts.
    pub counts: Counts,
}

/// Runs one provisioning population to its horizon.
pub fn run(seed: u64, size: Size, tr: &Tracer) -> RunOut {
    let (world, setup_s) = timed(|| build(seed, size));
    let devices: Vec<_> = world.phones.iter().chain(&world.communicators).collect();
    let apps: Vec<Rc<App>> = devices.iter().map(|_| Rc::new(App::default())).collect();
    let texts = query_texts(seed, size);
    let mut counts = Counts::default();
    let mut submit_us = Vec::new();
    let aggregator = CxtAggregator::new();
    let mut submit = |d: usize, text: &str, counts: &mut Counts| {
        counts.submits += 1;
        let client: Rc<dyn Client> = apps[d].clone();
        let (res, s) = timed(|| {
            tr.span("core.factory", || {
                devices[d].factory().process_cxt_query_text(text, client)
            })
        });
        submit_us.push(s * 1e6);
        if res.is_err() {
            counts.refused += 1;
        }
    };

    let ((), first) = timed(|| {
        let mut next = texts.iter();
        for d in 0..devices.len() {
            let n = if d < world.phones.len() { 6 } else { 2 };
            for text in next.by_ref().take(n) {
                submit(d, text, &mut counts);
            }
        }
    });
    let mut step_ms = vec![first * 1e3];
    let mut step_items = vec![0];
    counts.initial_queries = counts.submits;
    counts.providers = devices
        .iter()
        .map(|d| {
            MECHANISMS
                .iter()
                .filter_map(|m| d.factory().facade(*m))
                .map(|f| f.provider_count() as u64)
                .sum::<u64>()
        })
        .sum();

    for s in 0..size.minutes * 60 / size.slice_secs {
        let (items, secs) = timed(|| {
            // On-demand one-shots: every fifth slice, each phone asks once.
            if s % 5 == 4 {
                for d in 0..world.phones.len() {
                    submit(d, ONE_SHOT, &mut counts);
                }
            }
            tr.span("simkit.sim", || {
                world
                    .tb
                    .sim
                    .run_for(SimDuration::from_secs(size.slice_secs));
            });
            // The application fuses each query's new items.
            let now = world.tb.sim.now();
            let mut items = 0;
            for app in &apps {
                for log in app.logs.borrow_mut().values_mut() {
                    items += log.fresh.len() as u64;
                    if log.fresh.iter().any(|i| i.value.as_f64().is_some()) {
                        counts.combines += 1;
                        let fused = tr.span("core.aggregator", || {
                            aggregator.combine(&log.fresh, AggregationStrategy::Average, now)
                        });
                        std::hint::black_box(fused);
                    }
                    log.fresh.clear();
                }
            }
            items
        });
        step_ms.push(secs * 1e3);
        step_items.push(items);
    }
    let mut digests = BTreeMap::new();
    for (d, app) in apps.iter().enumerate() {
        for (q, log) in app.logs.borrow().iter() {
            digests.insert((d, *q), (log.items, log.digest));
        }
        counts.errors += *app.errors.borrow();
    }
    counts.items = digests.values().map(|v| v.0).sum();
    counts.events = world.tb.sim.events_processed();
    RunOut {
        setup_s,
        step_ms,
        step_items,
        digests,
        submit_us,
        counts,
    }
}
