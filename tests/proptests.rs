//! Cross-crate property-based tests (proptest): invariants of the query
//! language, query merging, statistics, traces, the XML codec, NMEA,
//! the event windows, the fault-injection/failover machinery, the
//! partitioned engine's `(time, actor, seq)` merge, the brokerd
//! chaos layer (dedup idempotence, restart recovery, chaos-transcript
//! partition invariance) and the broker wire format's percent codec.

use brokerd::{
    fault_edges, link_faults, link_label, pct_decode, pct_encode, restart_edges, run_fleet,
    BrokerId, BrokerNode, DedupWindow, FleetConfig, NodeConfig, PacketSeq, SubMode,
};
use contory::backoff::BackoffPolicy;
use contory::merge::{post_extract, try_merge};
use contory::policy::Condition;
use contory::query::{
    AggFunc, CmpOp, CxtQuery, DurationClause, EventExpr, EventTerm, NumNodes, PredValue,
    QueryMode, Source, WherePredicate,
};
use contory::{CxtItem, CxtValue, EventWindow};
use fuego::xml::XmlElement;
use proptest::prelude::*;
use simkit::stats::Summary;
use simkit::trace::TimeSeries;
use simkit::{ActorId, EventCtx, ShardConfig, ShardSim, SimDuration, SimTime};

// ------------------------------------------------------------------
// Strategies
// ------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    // Identifiers that cannot collide with keywords or aggregates.
    "[a-z][a-z0-9]{0,8}".prop_map(|s| format!("t{s}"))
}

fn duration_secs() -> impl Strategy<Value = SimDuration> {
    (1u64..7200).prop_map(SimDuration::from_secs)
}

fn num3() -> impl Strategy<Value = f64> {
    // Numbers with three decimals: exact in display/parse round trips.
    (0u32..100_000).prop_map(|n| n as f64 / 1000.0)
}

fn source() -> impl Strategy<Value = Source> {
    prop_oneof![
        Just(Source::IntSensor),
        Just(Source::ExtInfra),
        (
            prop_oneof![Just(NumNodes::All), (1u32..20).prop_map(NumNodes::First)],
            1u32..5
        )
            .prop_map(|(num_nodes, num_hops)| Source::AdHocNetwork {
                num_nodes,
                num_hops
            }),
        ident().prop_map(Source::Entity),
        (num3(), num3(), num3()).prop_map(|(x, y, radius)| Source::Region { x, y, radius }),
    ]
}

fn where_predicate() -> impl Strategy<Value = WherePredicate> {
    (
        prop_oneof![
            Just("accuracy".to_owned()),
            Just("precision".to_owned()),
            Just("correctness".to_owned()),
            Just("completeness".to_owned()),
        ],
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        num3(),
    )
        .prop_map(|(key, op, value)| WherePredicate {
            key,
            op,
            value: PredValue::Number(value),
        })
}

fn event_term(field: String) -> impl Strategy<Value = EventTerm> {
    prop_oneof![
        num3().prop_map(EventTerm::Number),
        Just(EventTerm::Field(field.clone())),
        prop_oneof![
            Just(AggFunc::Avg),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
            Just(AggFunc::Sum),
            Just(AggFunc::Count),
        ]
        .prop_map(move |func| EventTerm::Agg {
            func,
            field: field.clone()
        }),
    ]
}

fn event_expr(field: String) -> impl Strategy<Value = EventExpr> {
    let leaf = (
        event_term(field.clone()),
        prop_oneof![Just(CmpOp::Gt), Just(CmpOp::Lt), Just(CmpOp::Ge), Just(CmpOp::Le)],
        event_term(field),
    )
        .prop_map(|(left, op, right)| EventExpr::Cmp { left, op, right });
    leaf.prop_recursive(3, 12, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| {
            if a == b {
                a
            } else {
                EventExpr::And(Box::new(a), Box::new(b))
            }
        })
    })
}

fn query() -> impl Strategy<Value = CxtQuery> {
    (
        ident(),
        proptest::option::of(source()),
        proptest::collection::vec(where_predicate(), 0..3),
        proptest::option::of(duration_secs()),
        prop_oneof![
            duration_secs().prop_map(DurationClause::Time),
            (1u32..100).prop_map(DurationClause::Samples)
        ],
    )
        .prop_flat_map(|(select, from, where_clause, freshness, duration)| {
            let field = select.clone();
            prop_oneof![
                Just(QueryMode::OnDemand),
                duration_secs().prop_map(QueryMode::Periodic),
                event_expr(field).prop_map(QueryMode::Event),
            ]
            .prop_map(move |mode| CxtQuery {
                select: select.clone(),
                from: from.clone(),
                where_clause: where_clause.clone(),
                freshness,
                duration,
                mode,
            })
        })
}

fn item_for(select: &str) -> impl Strategy<Value = CxtItem> {
    let select = select.to_owned();
    (num3(), proptest::option::of(num3()), 0u64..3600).prop_map(move |(v, acc, age)| {
        let mut item = CxtItem::new(
            select.clone(),
            CxtValue::number(v),
            SimTime::from_secs(3600 - age),
        );
        item.metadata.accuracy = acc;
        item.metadata.precision = acc;
        item.metadata.correctness = acc.map(|a| a.min(1.0));
        item.metadata.completeness = acc.map(|a| a.min(1.0));
        item
    })
}

// ------------------------------------------------------------------
// Partitioned-engine plans
// ------------------------------------------------------------------

/// Actor population the shard-merge plans run over.
const PLAN_ACTORS: u64 = 12;

/// One scheduled root event: `(actor, at_ms, payload, hops)` where each
/// hop `(dest, delay_ms)` is a cross-actor forward executed in sequence.
type PlanRoot = (u8, u16, u32, Vec<(u8, u16)>);

/// A message chain for the shard-merge properties: executing an event
/// appends `payload` to the actor's log, then forwards the remaining
/// hops (payload incremented per hop) to the next destination.
#[derive(Clone)]
struct ChainEv {
    payload: u32,
    hops: Vec<(u8, u16)>,
}

fn shard_plan() -> impl Strategy<Value = Vec<PlanRoot>> {
    proptest::collection::vec(
        (
            0u8..(PLAN_ACTORS as u8),
            0u16..2000,
            0u32..1_000_000,
            proptest::collection::vec((0u8..(PLAN_ACTORS as u8), 0u16..400), 0..4),
        ),
        1..24,
    )
}

/// Runs a plan on a `shards` × `threads` engine until idle and returns
/// (per-actor logs in actor order, events processed, messages delivered,
/// dead letters).
fn run_plan(plan: &[PlanRoot], shards: u32, threads: u32) -> (Vec<Vec<u32>>, u64, u64, u64) {
    let mut sim = ShardSim::new(
        ShardConfig {
            seed: 1,
            shards,
            threads,
            record_transcript: false,
        },
        |log: &mut Vec<u32>, ctx: &mut EventCtx<'_, ChainEv>, ev: ChainEv| {
            log.push(ev.payload);
            let mut hops = ev.hops;
            if !hops.is_empty() {
                let (dest, delay) = hops.remove(0);
                ctx.send(
                    ActorId(u64::from(dest)),
                    SimDuration::from_millis(u64::from(delay)),
                    ChainEv {
                        payload: ev.payload.wrapping_add(1),
                        hops,
                    },
                );
            }
        },
    );
    for a in 0..PLAN_ACTORS {
        assert!(sim.add_actor(ActorId(a), Vec::new()));
    }
    for (actor, at, payload, hops) in plan {
        sim.schedule(
            ActorId(u64::from(*actor)),
            SimTime::from_millis(u64::from(*at)),
            ChainEv {
                payload: *payload,
                hops: hops.clone(),
            },
        )
        .expect("plan actors all registered");
    }
    sim.run_until_idle();
    let logs = (0..PLAN_ACTORS)
        .map(|a| sim.actor_state(ActorId(a)).cloned().unwrap_or_default())
        .collect();
    (
        logs,
        sim.events_processed(),
        sim.messages_delivered(),
        sim.dead_letters(),
    )
}

// ------------------------------------------------------------------
// Brokerd chaos helpers
// ------------------------------------------------------------------

/// A small chaotic broker fleet: every federation link lossy, one
/// broker crash-restarted mid-run, short leases with renewal. The crash
/// downtime (3 s) exceeds the forward-retry horizon (~2.25 s at the
/// default 150 ms timeout × 4 attempts), matching the `broker_chaos`
/// scenario's sizing rule.
fn chaos_fleet(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    let mut plan = simkit::FaultPlan::new(seed);
    let fault = simkit::faults::LinkFault {
        drop_ppm: 70_000,
        dup_ppm: 60_000,
        reorder_ppm: 50_000,
        reorder_delay: SimDuration::from_millis(40),
        jitter: SimDuration::from_millis(15),
    };
    let brokers = 3u16;
    for a in 0..brokers {
        for b in 0..brokers {
            if a != b {
                plan.lossy_link(&link_label(a, b), fault);
            }
        }
    }
    plan.crash_restart("broker:1", SimTime::from_secs(5), SimDuration::from_secs(3));
    let mut cfg = FleetConfig {
        seed,
        brokers,
        devices: 48,
        shards,
        threads,
        run_for: SimDuration::from_secs(16),
        ..FleetConfig::default()
    };
    cfg.node.fwd_attempts = 4;
    cfg.fault_edges = fault_edges(&plan, brokers);
    cfg.restarts = restart_edges(&plan, brokers);
    cfg.link_faults = link_faults(&plan, brokers);
    cfg.chaos_until = Some(SimTime::from_secs(12));
    cfg.sub_lease = Some(SimDuration::from_secs(8));
    cfg.resub_every = Some(SimDuration::from_secs(4));
    cfg
}

// ------------------------------------------------------------------
// Properties
// ------------------------------------------------------------------

proptest! {
    /// Rendering a query and parsing it back is stable: the round-trip
    /// fixes the canonical form.
    #[test]
    fn query_display_parse_round_trip(q in query()) {
        let rendered = q.to_string();
        let parsed = CxtQuery::parse(&rendered)
            .unwrap_or_else(|e| panic!("canonical text must parse: {rendered}: {e}"));
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    /// Parsing canonical text reproduces the query's clauses exactly for
    /// non-EVENT queries (EVENT trees may re-associate).
    #[test]
    fn query_parse_is_exact_without_event(q in query()) {
        prop_assume!(!matches!(q.mode, QueryMode::Event(_)));
        let parsed = CxtQuery::parse(&q.to_string()).unwrap();
        prop_assert_eq!(parsed, q);
    }

    /// Merging is symmetric: merge(a,b) == merge(b,a).
    #[test]
    fn merge_is_symmetric(a in query(), b in query()) {
        let ab = try_merge(&a, &b);
        let ba = try_merge(&b, &a);
        match (&ab, &ba) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                // EVENT disjunction order may differ; compare modulo mode
                // for event queries.
                if !matches!(a.mode, QueryMode::Event(_)) {
                    prop_assert_eq!(x, y);
                }
            }
            _ => prop_assert!(false, "asymmetric mergeability"),
        }
    }

    /// Coverage: any item a member accepts, the merged query accepts too
    /// (post-extraction can always recover member results).
    #[test]
    fn merged_query_covers_members(a in query(), b in query(), items in proptest::collection::vec(item_for("tshared"), 1..8)) {
        let mut a = a;
        let mut b = b;
        a.select = "tshared".to_owned();
        b.select = "tshared".to_owned();
        let Some(merged) = try_merge(&a, &b) else {
            return Ok(());
        };
        let now = SimTime::from_secs(3600);
        for member in [&a, &b] {
            let member_hits = post_extract(member, &items, now);
            let merged_hits = post_extract(&merged, &items, now);
            for hit in &member_hits {
                prop_assert!(
                    merged_hits.contains(hit),
                    "item accepted by member but dropped by merged:\n member {member}\n merged {merged}"
                );
            }
        }
    }

    /// Merging is idempotent on a query with itself, except for EVENT
    /// queries (self-merge produces `cond OR cond`).
    #[test]
    fn merge_with_self_is_identity(q in query()) {
        prop_assume!(!matches!(q.mode, QueryMode::Event(_)));
        // WHERE clauses with repeated keys can collapse; require unique keys.
        let mut keys: Vec<&str> = q.where_clause.iter().map(|p| p.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assume!(keys.len() == q.where_clause.len());
        let merged = try_merge(&q, &q).expect("self-merge always possible");
        prop_assert_eq!(merged, q);
    }

    /// Summary::merge equals accumulating everything in one pass.
    #[test]
    fn summary_merge_matches_combined(a in proptest::collection::vec(-1e6f64..1e6, 0..50),
                                      b in proptest::collection::vec(-1e6f64..1e6, 0..50)) {
        let mut m = Summary::of(&a);
        m.merge(&Summary::of(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let full = Summary::of(&all);
        prop_assert_eq!(m.count(), full.count());
        prop_assert!((m.mean() - full.mean()).abs() <= 1e-6 * (1.0 + full.mean().abs()));
        prop_assert!((m.variance() - full.variance()).abs() <= 1e-4 * (1.0 + full.variance().abs()));
    }

    /// Trace integration is additive over adjacent windows.
    #[test]
    fn trace_integration_is_additive(points in proptest::collection::vec((0u64..1000, 0f64..2000.0), 1..30),
                                     split in 0u64..1000) {
        let mut sorted = points;
        sorted.sort_by_key(|(t, _)| *t);
        sorted.dedup_by_key(|(t, _)| *t);
        let mut ts = TimeSeries::new("p");
        for (t, v) in &sorted {
            ts.record(SimTime::from_secs(*t), *v);
        }
        let a = SimTime::ZERO;
        let m = SimTime::from_secs(split);
        let z = SimTime::from_secs(1000);
        let whole = ts.integrate(a, z);
        let parts = ts.integrate(a, m) + ts.integrate(m, z);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    /// XML escaping round-trips arbitrary attribute values and text.
    #[test]
    fn xml_round_trips(attr in "[ -~]{0,40}", text in "[ -~]{0,60}") {
        let el = XmlElement::new("node")
            .attr("value", attr.clone())
            .child(XmlElement::new("inner").text(text.clone()));
        let parsed = XmlElement::parse(&el.to_xml()).unwrap();
        prop_assert_eq!(parsed.attribute("value"), Some(attr.as_str()));
        prop_assert_eq!(parsed.find("inner").unwrap().text_content(), text.as_str());
    }

    /// EventWindow's AVG equals the naive mean of the window's values.
    #[test]
    fn event_window_avg_matches_naive(values in proptest::collection::vec(-1e3f64..1e3, 1..40), threshold in -1e3f64..1e3) {
        let mut w = EventWindow::new();
        for v in &values {
            w.push(CxtItem::new("x", CxtValue::number(*v), SimTime::ZERO));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let expr = EventExpr::Cmp {
            left: EventTerm::Agg { func: AggFunc::Avg, field: "x".into() },
            op: CmpOp::Gt,
            right: EventTerm::Number(threshold),
        };
        // Skip knife-edge comparisons where float associativity decides.
        prop_assume!((mean - threshold).abs() > 1e-9);
        prop_assert_eq!(w.eval(&expr), mean > threshold);
    }

    /// GGA sentences round-trip positions to within NMEA quantization.
    #[test]
    fn nmea_gga_round_trip(x in -20_000f64..20_000.0, y in -20_000f64..20_000.0) {
        use std::rc::Rc;
        let p = radio::Position::new(x, y);
        let mut gps = sensors::GpsReceiver::new(Rc::new(move || p), 0.0, 1);
        let burst = gps.nmea_burst(SimTime::from_secs(60));
        let gga = burst.iter().find(|s| s.starts_with("$GPGGA")).unwrap();
        let back = sensors::gps::parse_gga(gga).unwrap();
        prop_assert!((back.x - x).abs() < 1.0, "x {} vs {}", back.x, x);
        prop_assert!((back.y - y).abs() < 1.0, "y {} vs {}", back.y, y);
    }

    /// Policy conditions round-trip through their text form.
    #[test]
    fn condition_round_trip(variable in "[a-z]{1,10}", n in 0u32..1000) {
        let text = format!("<{variable}, moreThan, {n}> or <{variable}, equal, low>");
        let c = Condition::parse(&text).unwrap();
        let again = Condition::parse(&c.to_string()).unwrap();
        prop_assert_eq!(c, again);
    }

    /// Item wire sizes stay within the paper's envelope for items shaped
    /// like the paper's (wind-like through location-like).
    #[test]
    fn item_wire_size_bounds(v in num3(), acc in proptest::option::of(num3())) {
        let mut small = CxtItem::new("wind", CxtValue::quantity(v, "kn"), SimTime::ZERO);
        small.metadata.accuracy = acc;
        prop_assert!((40..=80).contains(&small.wire_size()), "wind {}", small.wire_size());
        let big = CxtItem::new("location", CxtValue::Position { x: v, y: v }, SimTime::ZERO)
            .with_source("btgps://inssirf-iii/serial-0")
            .with_accuracy(5.0)
            .with_trust(contory::Trust::Trusted);
        prop_assert!((110..=160).contains(&big.wire_size()), "location {}", big.wire_size());
    }

    /// Backoff delays honour the policy contract for arbitrary policies:
    /// capped at `max`, monotone in the attempt number (multipliers below
    /// 1 are clamped), and jittered draws stay inside the ±jitter band
    /// around the undithered base delay.
    #[test]
    fn backoff_delays_are_capped_monotone_and_jitter_bounded(
        initial in 1u64..120,
        max in 1u64..600,
        multiplier in 0.5f64..4.0,
        jitter in 0.0f64..0.9,
    ) {
        let policy = BackoffPolicy {
            initial: SimDuration::from_secs(initial),
            max: SimDuration::from_secs(max),
            multiplier,
            jitter,
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 0..40u32 {
            let base = policy.base_delay(attempt);
            prop_assert!(base <= policy.max, "attempt {attempt}: {base:?} over the cap");
            prop_assert!(base >= prev, "attempt {attempt}: base delay not monotone");
            prev = base;
            for unit in [0.0, 0.25, 0.5, 0.75, 0.999] {
                let d = policy.delay_with_unit(attempt, unit).as_secs_f64();
                let b = base.as_secs_f64();
                // SimDuration quantises to microseconds; allow for it.
                prop_assert!(
                    d >= b * (1.0 - jitter) - 2e-6 && d <= b * (1.0 + jitter) + 2e-6,
                    "attempt {attempt} unit {unit}: {d} outside ±{jitter} of {b}"
                );
            }
        }
    }

    /// A scripted link outage is airtight: while the fault plan holds the
    /// requester's BT radio down, no context item is delivered to the
    /// client (a short grace window covers frames already in flight when
    /// the link drops).
    #[test]
    fn fault_plan_never_delivers_through_a_down_link(
        seed in 0u64..100_000,
        start in 60u64..120,
        len in 30u64..90,
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let tb = testbed::Testbed::with_seed(seed);
        let requester = tb.add_phone(testbed::PhoneSetup {
            metered: false,
            ..testbed::PhoneSetup::nokia6630("req", radio::Position::new(0.0, 0.0))
        });
        let provider = tb.add_phone(testbed::PhoneSetup {
            metered: false,
            ..testbed::PhoneSetup::nokia6630("prov", radio::Position::new(6.0, 0.0))
        });
        provider.factory().register_cxt_server("app");
        {
            let factory = provider.factory().clone();
            let sim = tb.sim.clone();
            tb.sim.schedule_repeating(SimDuration::from_secs(10), move || {
                let _ = factory.publish_cxt_item(
                    CxtItem::new("wind", CxtValue::quantity(9.0, "kn"), sim.now())
                        .with_accuracy(0.5)
                        .with_trust(contory::Trust::Community),
                    None,
                );
                true
            });
        }
        let mut plan = simkit::FaultPlan::new(seed);
        plan.down_between(
            "bt:req",
            SimTime::from_secs(start),
            SimTime::from_secs(start + len),
        );
        tb.install_faults(&plan);
        tb.sim.run_for(SimDuration::from_secs(2));
        let client = Rc::new(contory::CollectingClient::new());
        let id = requester
            .submit(
                "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
                client.clone(),
            )
            .unwrap();
        // Sample the delivered-item count once per simulated second.
        let samples: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let samples = samples.clone();
            let client = client.clone();
            let tick = std::cell::Cell::new(0u64);
            tb.sim.schedule_repeating(SimDuration::from_secs(1), move || {
                tick.set(tick.get() + 1);
                samples.borrow_mut().push((tick.get() + 2, client.items_for(id).len()));
                true
            });
        }
        tb.sim.run_until(SimTime::from_secs(start + len));
        let grace = 3;
        for w in samples.borrow().windows(2) {
            let (_, c0) = w[0];
            let (t1, c1) = w[1];
            if t1 > start + grace && t1 <= start + len {
                prop_assert!(
                    c1 == c0,
                    "item delivered at t≈{t1}s inside the outage [{start}, {}]s",
                    start + len
                );
            }
        }
    }

    /// The whole failure/recovery pipeline is deterministic: the same
    /// seed and the same fault plan reproduce the identical
    /// `FailoverReport` (and the identical item stream and fault log).
    #[test]
    fn same_seed_and_plan_give_identical_failover_reports(
        seed in 0u64..100_000,
        start in 60u64..110,
        len in 40u64..80,
    ) {
        use std::rc::Rc;
        let run = || {
            let tb = testbed::Testbed::with_seed(seed);
            let requester = tb.add_phone(testbed::PhoneSetup {
                metered: false,
                factory: contory::FactoryConfig {
                    failover: contory::FailoverConfig {
                        max_retries: 1,
                        silence_periods: 4,
                        ..contory::FailoverConfig::default()
                    },
                    ..contory::FactoryConfig::default()
                },
                ..testbed::PhoneSetup::nokia6630("req", radio::Position::new(0.0, 0.0))
            });
            let provider = tb.add_phone(testbed::PhoneSetup {
                metered: false,
                ..testbed::PhoneSetup::nokia6630("prov", radio::Position::new(6.0, 0.0))
            });
            provider.factory().register_cxt_server("app");
            {
                let factory = provider.factory().clone();
                let sim = tb.sim.clone();
                tb.sim.schedule_repeating(SimDuration::from_secs(10), move || {
                    let _ = factory.publish_cxt_item(
                        CxtItem::new("wind", CxtValue::quantity(9.0, "kn"), sim.now())
                            .with_accuracy(0.5)
                            .with_trust(contory::Trust::Community),
                        None,
                    );
                    true
                });
            }
            let mut plan = simkit::FaultPlan::new(seed);
            plan.down_between(
                "bt:req",
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
            );
            let injector = tb.install_faults(&plan);
            tb.sim.run_for(SimDuration::from_secs(2));
            let client = Rc::new(contory::CollectingClient::new());
            let id = requester
                .submit(
                    "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
                    client.clone(),
                )
                .unwrap();
            tb.sim.run_until(SimTime::from_secs(400));
            let report = requester.factory().monitor().failover_report(tb.sim.now());
            let items: Vec<String> =
                client.items_for(id).iter().map(|i| i.to_string()).collect();
            (report.to_string(), items, injector.transitions_applied())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// `EventKey`'s ordering is exactly the lexicographic order on
    /// `(time, actor, seq)` — a total order, antisymmetric and
    /// transitive, with no partition component to leak.
    #[test]
    fn event_key_order_is_lexicographic(
        keys in proptest::collection::vec((0u64..5000, 0u64..64, 0u64..1000), 2..40),
    ) {
        let mut keys: Vec<simkit::EventKey> = keys
            .into_iter()
            .map(|(t, a, s)| simkit::EventKey {
                time: SimTime::from_micros(t),
                actor: ActorId(a),
                seq: s,
            })
            .collect();
        let mut tuples: Vec<(SimTime, u64, u64)> =
            keys.iter().map(|k| (k.time, k.actor.0, k.seq)).collect();
        keys.sort();
        tuples.sort();
        for (k, t) in keys.iter().zip(&tuples) {
            prop_assert_eq!((k.time, k.actor.0, k.seq), *t);
        }
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1]);
            prop_assert_eq!(w[0] < w[1], !(w[1] <= w[0]) || w[0] != w[1]);
        }
    }

    /// No event is lost or duplicated by the cross-shard merge: for a
    /// random schedule of forward chains, the executed-event count, the
    /// delivery count and the multiset of (actor, payload) observations
    /// all equal what the plan predicts.
    #[test]
    fn sharded_merge_loses_and_duplicates_nothing(plan in shard_plan()) {
        let expected_events: u64 = plan.iter().map(|(_, _, _, h)| 1 + h.len() as u64).sum();
        let expected_deliveries: u64 = plan.iter().map(|(_, _, _, h)| h.len() as u64).sum();
        let mut expected_obs: Vec<(u64, u32)> = Vec::new();
        for (actor, _, payload, hops) in &plan {
            expected_obs.push((u64::from(*actor), *payload));
            let mut p = *payload;
            for (dest, _) in hops {
                p = p.wrapping_add(1);
                expected_obs.push((u64::from(*dest), p));
            }
        }
        expected_obs.sort_unstable();

        let (logs, events, delivered, dead) = run_plan(&plan, 3, 2);
        prop_assert_eq!(events, expected_events);
        prop_assert_eq!(delivered, expected_deliveries);
        prop_assert_eq!(dead, 0);
        let mut observed: Vec<(u64, u32)> = logs
            .iter()
            .enumerate()
            .flat_map(|(a, log)| log.iter().map(move |p| (a as u64, *p)))
            .collect();
        observed.sort_unstable();
        prop_assert_eq!(observed, expected_obs);
    }

    /// Merge commutativity with the sequential engine: any partition of
    /// the same plan — including oversubscribed worker counts — produces
    /// the sequential engine's per-actor logs, in the same order, with
    /// the same counters.
    #[test]
    fn sharded_merge_matches_sequential_engine(plan in shard_plan()) {
        let reference = run_plan(&plan, 1, 1);
        for (shards, threads) in [(2u32, 1u32), (2, 3), (5, 2), (8, 8), (16, 4)] {
            let sharded = run_plan(&plan, shards, threads);
            prop_assert!(
                sharded == reference,
                "{shards} shards x {threads} threads diverged from sequential"
            );
        }
    }

    /// The dedup window is an exactly-once filter on an at-least-once
    /// stream: for any schedule of duplicated, arbitrarily reordered
    /// in-window packets, no `(origin, n)` is ever admitted twice, and
    /// none is lost — first copy `Fresh`, every other copy `Duplicate`.
    #[test]
    fn dedup_never_double_delivers_under_duplication_and_reorder(
        stream in proptest::collection::vec((0u64..6, 0u64..120), 1..250),
    ) {
        use std::collections::BTreeMap;
        let mut win = DedupWindow::new(8);
        let mut fresh_seen: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for &(origin, n) in &stream {
            let seq = PacketSeq::new(origin, n + 1);
            let was_seen = win.seen(seq);
            let verdict = win.observe(seq);
            // seen() is the pure preview of observe()'s verdict.
            prop_assert_eq!(was_seen, verdict == brokerd::SeqVerdict::Duplicate);
            if verdict == brokerd::SeqVerdict::Fresh {
                *fresh_seen.entry((origin, n)).or_insert(0) += 1;
            }
        }
        // Never twice…
        for (&(origin, n), &count) in &fresh_seen {
            prop_assert!(
                count <= 1,
                "({origin}, {n}) admitted {count} times — double delivery"
            );
        }
        // …and, because every n fits inside SEQ_WINDOW, never lost.
        let mut distinct: Vec<(u64, u64)> = stream.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // An unequal count here means an in-window packet was lost.
        prop_assert_eq!(fresh_seen.len(), distinct.len());
        prop_assert_eq!(win.admitted() + win.suppressed(), stream.len() as u64);
    }

    /// Crash recovery loses no subscription: renewing every lease of a
    /// wiped broker rebuilds the full table — in *any* renewal order
    /// the live set comes back complete without stacking duplicates,
    /// and replaying the original order reproduces the pre-crash
    /// anti-entropy digest bit for bit.
    #[test]
    fn restart_plus_renewal_loses_no_subscription(
        subs in proptest::collection::vec((0u64..40, 0u8..12, 0u8..3), 1..30),
        lease_secs in 30u64..600,
    ) {
        let now = SimTime::from_secs(10);
        let expiry = SimTime::from_secs(10 + lease_secs);
        let mode_of = |tag: u8| match tag {
            0 => SubMode::Event,
            1 => SubMode::OneShot,
            _ => SubMode::Periodic(SimDuration::from_secs(30)),
        };
        let mut before = BrokerNode::new(BrokerId(0), NodeConfig::default());
        for &(subscriber, ty, tag) in &subs {
            before.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
        }
        let pre_digest = before.table_digest();
        let pre_count = before.subscriptions();
        let mut distinct = subs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(pre_count, distinct.len());

        // The crash: a brand-new node with empty tables. Devices renew
        // every lease they hold in a scrambled order; the live set must
        // come back complete, with first renewals re-registering
        // (renewed = false) and repeats extending idempotently.
        let mut scrambled = BrokerNode::new(BrokerId(0), NodeConfig::default());
        let mut renewals = subs.clone();
        renewals.sort_by_key(|&(s, ty, tag)| (u64::from(ty) << 32) ^ s ^ u64::from(tag));
        let mut seen: Vec<(u64, u8, u8)> = Vec::new();
        for &(subscriber, ty, tag) in &renewals {
            let (_, renewed) = scrambled.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
            prop_assert_eq!(renewed, seen.contains(&(subscriber, ty, tag)));
            seen.push((subscriber, ty, tag));
        }
        prop_assert_eq!(scrambled.subscriptions(), pre_count);

        // Replaying the renewals in the original order reproduces the
        // pre-crash digest exactly — the anti-entropy convergence
        // witness a healed fleet's directory agrees on.
        let mut replayed = BrokerNode::new(BrokerId(0), NodeConfig::default());
        for &(subscriber, ty, tag) in &subs {
            replayed.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
        }
        prop_assert_eq!(replayed.subscriptions(), pre_count);
        prop_assert_eq!(replayed.table_digest(), pre_digest);
    }

    /// Chaos is partition-invariant: for any seed, the chaotic fleet's
    /// full report — link-fault counters, retries, dedup suppressions,
    /// restart recovery and all — is byte-identical across {1,4} engine
    /// shards times {1,4} worker threads, trace digest included.
    #[test]
    fn chaos_transcripts_are_identical_across_partitionings(seed in 0u64..100_000) {
        let reference = run_fleet(&chaos_fleet(seed, 1, 1));
        for (shards, threads) in [(1u32, 4u32), (4, 1), (4, 4)] {
            let got = run_fleet(&chaos_fleet(seed, shards, threads));
            prop_assert!(
                got.report() == reference.report(),
                "chaos transcript diverged at {shards} shards x {threads} threads"
            );
            prop_assert_eq!(got.trace_digest, reference.trace_digest);
        }
    }

    /// `pct_encode` then `pct_decode` is the identity on any text:
    /// spaces, controls, `%`, `-` and multi-byte UTF-8 included, plus the
    /// three tokens the encoder special-cases.
    #[test]
    fn pct_codec_round_trips(text in "[ -~\t\n\r\u{0}\u{7f}-\u{24f}€😀]{0,24}") {
        for t in [text.as_str(), "", "-", "%2d"] {
            prop_assert_eq!(pct_decode(&pct_encode(t)), Ok(t.to_owned()));
        }
    }
}

/// Exhaustive over every byte pair `X`,`Y` that forms valid UTF-8:
/// `pct_decode("%XY")` succeeds only when both are ASCII hex digits.
#[test]
fn pct_decode_accepts_only_hex_escapes() {
    for x in 0..=u8::MAX {
        for y in 0..=u8::MAX {
            let bytes = [b'%', x, y];
            let Ok(token) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if pct_decode(token).is_ok() {
                assert!(
                    x.is_ascii_hexdigit() && y.is_ascii_hexdigit(),
                    "{token:?} decoded"
                );
            }
        }
    }
}
