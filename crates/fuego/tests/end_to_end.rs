//! End-to-end tests: phone-side Fuego client ↔ event broker ↔ context
//! infrastructure over the simulated UMTS link.

use fuego::event::EventNotification;
use fuego::xml::XmlElement;
use fuego::{
    ContextInfrastructure, EventBroker, FuegoClient, InfraClient, InfraQuery, InfraRecord,
    PushMode, RequestError,
};
use phone::{Phone, PhoneConfig};
use radio::cell::{CellModem, CellNetwork, CellParams};
use radio::{NodeId, Position, Region};
use simkit::{Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

struct Rig {
    sim: Sim,
    net: CellNetwork,
    broker: EventBroker,
    infra: ContextInfrastructure,
}

impl Rig {
    fn new() -> Self {
        let sim = Sim::new();
        let net = CellNetwork::new(&sim, CellParams::default(), 99);
        let broker = EventBroker::new(&sim, &net);
        let infra = ContextInfrastructure::new(&broker);
        Rig {
            sim,
            net,
            broker,
            infra,
        }
    }

    fn phone(&self, id: u32) -> (Phone, CellModem, FuegoClient) {
        let phone = Phone::new(&self.sim, PhoneConfig::default());
        let modem = self.net.attach(NodeId(id), &phone, id as u64 + 7);
        modem.set_radio(true);
        let client = FuegoClient::new(&self.sim, &modem, format!("phone-{id}"));
        (phone, modem, client)
    }
}

#[test]
fn store_then_query_round_trip() {
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let infra_client = InfraClient::new(&client);
    let stored = Rc::new(Cell::new(false));
    let s = stored.clone();
    let record = InfraRecord::new("boat-1", "temperature", "14.0C", rig.sim.now())
        .at(Position::new(100.0, 200.0))
        .with_metadata("accuracy", "0.2");
    infra_client.store(record, move |res| {
        res.unwrap();
        s.set(true);
    });
    rig.sim.run_for(SimDuration::from_secs(30));
    assert!(stored.get());
    assert_eq!(rig.infra.record_count(), 1);

    let got: Rc<RefCell<Option<Vec<Rc<InfraRecord>>>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    infra_client.query(
        &InfraQuery::for_type("temperature"),
        SimDuration::from_secs(30),
        move |res| *g.borrow_mut() = Some(res.unwrap()),
    );
    rig.sim.run_for(SimDuration::from_secs(30));
    let records = got.borrow_mut().take().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].entity, "boat-1");
    assert_eq!(records[0].value_text, "14.0C");
    assert_eq!(records[0].metadata.get("accuracy").unwrap(), "0.2");
}

#[test]
fn region_and_freshness_filters_apply() {
    let rig = Rig::new();
    let now = rig.sim.now();
    rig.infra
        .store(InfraRecord::new("b1", "wind", "5kn", now).at(Position::new(0.0, 0.0)));
    rig.infra
        .store(InfraRecord::new("b2", "wind", "9kn", now).at(Position::new(5_000.0, 0.0)));
    rig.sim.run_for(SimDuration::from_secs(120));
    rig.infra
        .store(InfraRecord::new("b3", "wind", "12kn", rig.sim.now()).at(Position::new(10.0, 0.0)));

    // Region filter: only records near the origin.
    let q = InfraQuery {
        region: Some(Region::new(Position::new(0.0, 0.0), 100.0)),
        ..InfraQuery::for_type("wind")
    };
    let hits = rig.infra.eval(&q);
    assert_eq!(hits.len(), 2);

    // Freshness filter: only the record stored just now.
    let q = InfraQuery {
        freshness: Some(SimDuration::from_secs(30)),
        ..InfraQuery::for_type("wind")
    };
    let hits = rig.infra.eval(&q);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].entity, "b3");

    // Entity + max_items.
    let q = InfraQuery {
        entity: Some("b1".into()),
        ..InfraQuery::for_type("wind")
    };
    assert_eq!(rig.infra.eval(&q).len(), 1);
    let q = InfraQuery {
        max_items: 1,
        ..InfraQuery::for_type("wind")
    };
    let hits = rig.infra.eval(&q);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].entity, "b3", "most recent first");
}

#[test]
fn periodic_subscription_pushes_batches() {
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let infra_client = InfraClient::new(&client);
    rig.infra.store(InfraRecord::new(
        "b1",
        "temperature",
        "13.5C",
        rig.sim.now(),
    ));
    let batches = Rc::new(Cell::new(0u32));
    let b = batches.clone();
    let sub = infra_client.subscribe(
        &InfraQuery::for_type("temperature"),
        PushMode::Periodic(SimDuration::from_secs(60)),
        move |records| {
            assert!(!records.is_empty());
            b.set(b.get() + 1);
        },
    );
    rig.sim.run_for(SimDuration::from_secs(310));
    let received = batches.get();
    assert!(
        (3..=5).contains(&received),
        "expected ~5 periodic pushes, got {received}"
    );
    sub.cancel();
    rig.sim.run_for(SimDuration::from_secs(180));
    assert!(
        batches.get() <= received + 1,
        "pushes must stop after cancel"
    );
}

#[test]
fn on_store_subscription_pushes_matching_records_only() {
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let infra_client = InfraClient::new(&client);
    let got: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    let _sub = infra_client.subscribe(
        &InfraQuery::for_type("temperature"),
        PushMode::OnStore,
        move |records| {
            for r in records {
                g.borrow_mut().push(r.value_text.clone());
            }
        },
    );
    rig.sim.run_for(SimDuration::from_secs(30)); // let the subscribe land
    rig.infra.store(InfraRecord::new(
        "b1",
        "temperature",
        "14.0C",
        rig.sim.now(),
    ));
    rig.infra
        .store(InfraRecord::new("b1", "humidity", "80%", rig.sim.now()));
    rig.infra.store(InfraRecord::new(
        "b2",
        "temperature",
        "15.0C",
        rig.sim.now(),
    ));
    rig.sim.run_for(SimDuration::from_secs(30));
    // Downlink latencies are independent log-normal draws, so the two
    // pushes may arrive in either order.
    let mut values = got.borrow().clone();
    values.sort();
    assert_eq!(values, vec!["14.0C".to_owned(), "15.0C".to_owned()]);
}

/// Every event the client encodes is sent: a subscription names its push
/// topic after the client's next event number without encoding an
/// event, so one `OnStore` subscription encodes only its request, and
/// the numbers of later events are what they were.
#[test]
fn a_subscription_encodes_only_the_events_it_sends() {
    let obs = obskit::Obs::new();
    let _guard = obskit::install(&obs);
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let infra_client = InfraClient::new(&client);
    let _sub = infra_client.subscribe(
        &InfraQuery::for_type("temperature"),
        PushMode::OnStore,
        |_records| {},
    );
    rig.sim.run_for(SimDuration::from_secs(30));
    let sent = obs.counter("fuego_requests") + obs.counter("fuego_publishes");
    assert_eq!(sent, 1);
    assert_eq!(obs.counter("fuego_events_encoded"), sent);
    // Number 1 named the push topic and 2 the subscribe request.
    assert_eq!(client.make_event("t", XmlElement::new("x")).id, 3);
}

/// A request to a topic the broker does not serve, and one it cannot
/// read, report `NoService`: a store request whose body prints a record
/// but that does not carry it, and a query whose body is not a query.
#[test]
fn request_to_unknown_service_reports_no_service() {
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let record = InfraRecord::new("boat-1", "temperature", "14.0C", rig.sim.now());
    for (topic, body) in [
        ("no/such/service", XmlElement::new("x")),
        ("cxt/store", record.to_xml()),
        ("cxt/query", XmlElement::new("x")),
    ] {
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        let ev = client.make_event(topic, body);
        client.request(topic, ev, SimDuration::from_secs(30), move |res| {
            g.set(Some(res.unwrap_err()));
        });
        rig.sim.run_for(SimDuration::from_secs(35));
        assert_eq!(got.take(), Some(RequestError::NoService), "{topic}");
    }
    assert_eq!(rig.infra.record_count(), 0);
}

#[test]
fn request_with_radio_off_fails_fast_and_timeout_fires_otherwise() {
    let rig = Rig::new();
    let (_p, modem, client) = rig.phone(1);
    modem.set_radio(false);
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    let ev = client.make_event("cxt/query", XmlElement::new("x"));
    client.request("cxt/query", ev, SimDuration::from_secs(30), move |res| {
        g.set(Some(res.unwrap_err()));
    });
    rig.sim.run_for(SimDuration::from_secs(1));
    assert!(matches!(got.take(), Some(RequestError::Link(_))));

    // Timeout: radio back on, but the response is lost because we turn
    // the radio off right after the uplink completes.
    modem.set_radio(true);
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    let ev = client.make_event("cxt/query", XmlElement::new("bad-query"));
    client.request("cxt/query", ev, SimDuration::from_millis(1), move |res| {
        g.set(Some(res.unwrap_err()));
    });
    rig.sim.run_for(SimDuration::from_secs(5));
    assert_eq!(got.take(), Some(RequestError::Timeout));
}

#[test]
fn broker_outage_times_out_requests_then_recovers() {
    let obs = obskit::Obs::new();
    let _guard = obskit::install(&obs);
    let rig = Rig::new();
    let (_p, _m, client) = rig.phone(1);
    let infra_client = InfraClient::new(&client);

    // Store one record while healthy.
    let record = InfraRecord::new("boat-1", "temperature", "14.0C", rig.sim.now());
    infra_client.store(record, |res| res.unwrap());
    rig.sim.run_for(SimDuration::from_secs(10));
    assert_eq!(rig.infra.record_count(), 1);

    // Dark broker: queries vanish into the void and time out.
    rig.broker.set_outage(true);
    assert!(rig.broker.is_in_outage());
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    infra_client.query(
        &InfraQuery::for_type("temperature"),
        SimDuration::from_secs(5),
        move |res| g.set(Some(res.map(|r| r.len()))),
    );
    rig.sim.run_for(SimDuration::from_secs(10));
    assert_eq!(got.take(), Some(Err(RequestError::Timeout)));
    assert!(obs.counter("fuego_broker_dropped") > 0);

    // Restored broker: same query succeeds, prior state intact.
    rig.broker.set_outage(false);
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    infra_client.query(
        &InfraQuery::for_type("temperature"),
        SimDuration::from_secs(30),
        move |res| g.set(Some(res.map(|r| r.len()))),
    );
    rig.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(got.take(), Some(Ok(1)));
}

#[test]
fn broker_outage_silences_subscriptions_until_restore() {
    let rig = Rig::new();
    let (_p1, _m1, alice) = rig.phone(1);
    let (_p2, _m2, bob) = rig.phone(2);
    let seen = Rc::new(Cell::new(0u32));
    let s = seen.clone();
    alice.subscribe("regatta/news", move |_ev| s.set(s.get() + 1));
    rig.sim.run_for(SimDuration::from_secs(5));

    rig.broker.set_outage(true);
    let ev = bob.make_event("regatta/news", XmlElement::new("gust"));
    // The uplink transfer itself succeeds — the *broker* eats the frame.
    bob.publish(ev, |res| res.unwrap());
    rig.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(seen.get(), 0, "dark broker must not deliver");

    rig.broker.set_outage(false);
    let ev = bob.make_event("regatta/news", XmlElement::new("gust2"));
    bob.publish(ev, |res| res.unwrap());
    rig.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(seen.get(), 1, "subscription must survive the outage");
}

#[test]
fn pubsub_between_two_phones() {
    let obs = obskit::Obs::new();
    let _guard = obskit::install(&obs);
    let rig = Rig::new();
    let (_p1, _m1, alice) = rig.phone(1);
    let (_p2, _m2, bob) = rig.phone(2);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    bob.subscribe("regatta/positions", move |ev| {
        s.borrow_mut().push(ev.sender.clone());
    });
    rig.sim.run_for(SimDuration::from_secs(10));
    let ev = alice.make_event(
        "regatta/positions",
        XmlElement::new("pos").attr("lat", "60.1"),
    );
    alice.publish(ev, |res| res.unwrap());
    rig.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(*seen.borrow(), vec!["phone-1".to_owned()]);
    assert_eq!(rig.broker.subscriber_count("regatta/positions"), 1);
    assert_eq!(obs.counter("fuego_broker_published"), 1);
    assert_eq!(obs.counter("fuego_broker_deliveries"), 1);
}

#[test]
fn a_topic_with_two_subscribers_hands_both_handlers_equal_notifications() {
    let obs = obskit::Obs::new();
    let _guard = obskit::install(&obs);
    let rig = Rig::new();
    let (_p1, _m1, alice) = rig.phone(1);
    let (_p2, _m2, bob) = rig.phone(2);
    let (_p3, _m3, carol) = rig.phone(3);
    let seen = Rc::new(RefCell::new(Vec::new()));
    for client in [&bob, &carol] {
        let s = seen.clone();
        client.subscribe("regatta/news", move |ev: EventNotification| {
            s.borrow_mut()
                .push((ev.topic, ev.sender, ev.id, ev.timestamp, ev.body));
        });
    }
    rig.sim.run_for(SimDuration::from_secs(10));
    let ev = alice.make_event("regatta/news", XmlElement::new("gust").attr("kn", "25"));
    let sent = (
        ev.topic.clone(),
        ev.sender.clone(),
        ev.id,
        ev.timestamp,
        ev.body.clone(),
    );
    alice.publish(ev, |res| res.unwrap());
    rig.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(*seen.borrow(), vec![sent.clone(), sent]);
    assert_eq!(obs.counter("fuego_broker_deliveries"), 2);
}

#[test]
fn query_xml_round_trip_preserves_fields() {
    let q = InfraQuery {
        item_type: "wind".into(),
        entity: Some("boat-1".into()),
        region: Some(Region::new(Position::new(10.0, 20.0), 500.0)),
        freshness: Some(SimDuration::from_secs(30)),
        max_items: 10,
    };
    let back = InfraQuery::from_xml(&q.to_xml()).unwrap();
    assert_eq!(back.item_type, "wind");
    assert_eq!(back.entity.as_deref(), Some("boat-1"));
    assert_eq!(back.region.unwrap().radius, 500.0);
    assert_eq!(back.freshness, Some(SimDuration::from_secs(30)));
    assert_eq!(back.max_items, 10);
}
