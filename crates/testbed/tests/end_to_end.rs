//! Full-stack tests: Contory middleware over the simulated phones,
//! radios, Smart Messages and Fuego infrastructure.

use contory::{CollectingClient, CxtItem, CxtValue, Mechanism, Trust};
use radio::Position;
use sensors::EnvField;
use simkit::{SimDuration, SimTime};
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

fn boat(tb: &Testbed, name: &str, x: f64) -> std::rc::Rc<testbed::TestbedPhone> {
    tb.add_phone(PhoneSetup {
        metered: false,
        ..PhoneSetup::nokia6630(name, Position::new(x, 0.0))
    })
}

fn communicator(tb: &Testbed, name: &str, x: f64) -> std::rc::Rc<testbed::TestbedPhone> {
    tb.add_phone(PhoneSetup::nokia9500(name, Position::new(x, 0.0)))
}

#[test]
fn internal_sensor_periodic_query_end_to_end() {
    let tb = Testbed::with_seed(1);
    let phone = tb.add_phone(PhoneSetup {
        internal_sensors: vec![EnvField::TemperatureC],
        metered: false,
        ..PhoneSetup::nokia6630("solo", Position::new(0.0, 0.0))
    });
    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT temperature FROM intSensor DURATION 1 min EVERY 10 sec",
            client.clone(),
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(70));
    let items = client.items_for(id);
    assert!(
        (5..=6).contains(&items.len()),
        "expected ~6 samples, got {}",
        items.len()
    );
    // Values track the synthetic environment at the phone's position.
    let truth = tb.env.sample(
        EnvField::TemperatureC,
        Position::new(0.0, 0.0),
        tb.sim.now(),
    );
    let last = items.last().unwrap().value.as_f64().unwrap();
    assert!((last - truth).abs() < 3.0, "sensor {last} vs truth {truth}");
}

#[test]
fn bt_one_hop_adhoc_query_end_to_end() {
    let tb = Testbed::with_seed(2);
    let requester = boat(&tb, "requester", 0.0);
    let provider = boat(&tb, "provider", 5.0);
    // The provider publishes its temperature in the ad hoc network.
    provider.factory().register_cxt_server("app");
    provider
        .factory()
        .publish_cxt_item(
            CxtItem::new("temperature", CxtValue::quantity(14.5, "C"), tb.sim.now())
                .with_accuracy(0.2)
                .with_trust(Trust::Community),
            None,
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(1));
    let client = Rc::new(CollectingClient::new());
    let id = requester
        .submit(
            "SELECT temperature FROM adHocNetwork(all,1) WHERE accuracy=0.5 \
             DURATION 2 samples EVERY 30 sec",
            client.clone(),
        )
        .unwrap();
    assert_eq!(
        requester.factory().mechanism_of(id),
        Some(Mechanism::AdHocBt)
    );
    // First round includes BT discovery (~13 s inquiry + SDP).
    tb.sim.run_for(SimDuration::from_secs(90));
    let items = client.items_for(id);
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].value.as_f64(), Some(14.5));
    assert!(items[0].source.as_ref().unwrap().0.contains("provider"));
}

#[test]
fn wifi_multihop_adhoc_query_end_to_end() {
    let tb = Testbed::with_seed(3);
    let requester = communicator(&tb, "c0", 0.0);
    let _relay = communicator(&tb, "c1", 80.0);
    let far = communicator(&tb, "c2", 160.0);
    tb.sim.run_for(SimDuration::from_secs(5)); // WiFi joins
    far.factory().register_cxt_server("app");
    far.factory()
        .publish_cxt_item(
            CxtItem::new("temperature", CxtValue::quantity(19.0, "C"), tb.sim.now())
                .with_accuracy(0.2),
            None,
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(1));
    let client = Rc::new(CollectingClient::new());
    let id = requester
        .submit(
            "SELECT temperature FROM adHocNetwork(all,3) DURATION 1 samples",
            client.clone(),
        )
        .unwrap();
    assert_eq!(
        requester.factory().mechanism_of(id),
        Some(Mechanism::AdHocWifi)
    );
    tb.sim.run_for(SimDuration::from_secs(20));
    let items = client.items_for(id);
    assert_eq!(items.len(), 1, "two-hop provider found via SM-FINDER");
    assert_eq!(items[0].value.as_f64(), Some(19.0));
    assert!(items[0].source.as_ref().unwrap().0.contains("c2"));
}

#[test]
fn infra_query_end_to_end_over_umts() {
    let tb = Testbed::with_seed(4);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[EnvField::TemperatureC, EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    tb.sim.run_for(SimDuration::from_secs(120)); // two observations stored
    let phone = tb.add_phone(PhoneSetup {
        cell_on: true,
        metered: false,
        ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
    });
    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT wind FROM extInfra DURATION 1 samples",
            client.clone(),
        )
        .unwrap();
    assert_eq!(phone.factory().mechanism_of(id), Some(Mechanism::Infra));
    tb.sim.run_for(SimDuration::from_secs(30));
    let items = client.items_for(id);
    assert_eq!(items.len(), 1);
    assert!(items[0].source.as_ref().unwrap().0.contains("fmi-harmaja"));
}

#[test]
fn store_cxt_item_reaches_the_infrastructure() {
    let tb = Testbed::with_seed(5);
    let phone = tb.add_phone(PhoneSetup {
        cell_on: true,
        metered: false,
        ..PhoneSetup::nokia6630("sailor", Position::new(10.0, 20.0))
    });
    phone.factory().store_cxt_item(
        CxtItem::new("speed", CxtValue::quantity(6.2, "kn"), tb.sim.now()).with_accuracy(0.1),
    );
    tb.sim.run_for(SimDuration::from_secs(30));
    assert_eq!(tb.infra.record_count(), 1);
    // and it is locally cached too
    assert!(phone.factory().repository().latest("speed").is_some());
}

#[test]
fn fig5_failover_gps_to_adhoc_and_back() {
    // The paper's Fig. 5 scenario on the real simulated stack:
    // a phone reads location from a BT-GPS; the GPS is switched off at
    // t≈155 s; Contory switches to ad hoc provisioning (a neighbour
    // publishes its location); the GPS returns and Contory switches back.
    let tb = Testbed::with_seed(6);
    let phone = boat(&tb, "sailor", 0.0);
    let gps = tb.add_bt_gps(Position::new(2.0, 0.0), SimDuration::from_secs(5));
    let neighbor = boat(&tb, "neighbor", 6.0);
    neighbor.factory().register_cxt_server("app");

    // The neighbour keeps publishing its own (ad hoc) location.
    {
        let factory = neighbor.factory().clone();
        let world = tb.world.clone();
        let node = neighbor.node();
        let sim = tb.sim.clone();
        tb.sim
            .schedule_repeating(SimDuration::from_secs(10), move || {
                let p = world.position_of(node).unwrap();
                let _ = factory.publish_cxt_item(
                    CxtItem::new("location", CxtValue::Position { x: p.x, y: p.y }, sim.now())
                        .with_accuracy(30.0)
                        .with_trust(Trust::Community),
                    None,
                );
                true
            });
    }

    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT location FROM intSensor DURATION 2 hour EVERY 5 sec",
            client.clone(),
        )
        .unwrap();

    // Phase 1: GPS provisioning (discovery ~14 s, then 5 s NMEA stream).
    tb.sim.run_until(SimTime::from_secs(155));
    assert_eq!(phone.factory().mechanism_of(id), Some(Mechanism::IntSensor));
    let phase1 = client.items_for(id).len();
    assert!(phase1 >= 10, "GPS items in phase 1: {phase1}");

    // t = 155 s: the GPS device is switched off.
    gps.set_powered(false);
    tb.sim.run_for(SimDuration::from_secs(120));
    assert_eq!(
        phone.factory().mechanism_of(id),
        Some(Mechanism::AdHocBt),
        "switched to ad hoc location provisioning"
    );
    let phase2 = client.items_for(id).len();
    assert!(phase2 > phase1, "ad hoc items flow: {phase1} -> {phase2}");
    let last = client.items_for(id).pop().unwrap();
    assert!(
        last.source.as_ref().unwrap().0.contains("neighbor"),
        "items now come from the neighbour, got {:?}",
        last.source
    );

    // The GPS comes back; a recovery probe rediscovers it (~30 s cadence
    // + 13 s inquiry).
    gps.set_powered(true);
    tb.sim.run_for(SimDuration::from_secs(180));
    assert_eq!(
        phone.factory().mechanism_of(id),
        Some(Mechanism::IntSensor),
        "switched back to the GPS"
    );
    let phase3 = client.items_for(id).len();
    tb.sim.run_for(SimDuration::from_secs(30));
    let last = client.items_for(id).pop().unwrap();
    assert!(
        last.source.as_ref().unwrap().0.contains("inssirf"),
        "items come from the GPS again, got {:?}",
        last.source
    );
    assert!(client.items_for(id).len() > phase3);
}

#[test]
fn authenticated_publishing_needs_the_key() {
    let tb = Testbed::with_seed(7);
    let requester = communicator(&tb, "c0", 0.0);
    let provider = communicator(&tb, "c1", 50.0);
    tb.sim.run_for(SimDuration::from_secs(5));
    provider.factory().register_cxt_server("app");
    provider
        .factory()
        .publish_cxt_item(
            CxtItem::new(
                "location",
                CxtValue::Position { x: 50.0, y: 0.0 },
                tb.sim.now(),
            )
            .with_accuracy(5.0),
            Some("regatta-2005".into()),
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(1));
    // Without the key the finder sees the tag name but cannot read it.
    let client = Rc::new(CollectingClient::new());
    let _id = requester
        .submit(
            "SELECT location FROM adHocNetwork(all,1) DURATION 1 samples",
            client.clone(),
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(60));
    assert!(client.all_items().is_empty(), "locked item must not leak");
}

#[test]
fn merged_queries_share_a_provider_on_the_real_stack() {
    let tb = Testbed::with_seed(8);
    let requester = boat(&tb, "requester", 0.0);
    let provider = boat(&tb, "provider", 5.0);
    provider.factory().register_cxt_server("app");
    provider
        .factory()
        .publish_cxt_item(
            CxtItem::new("temperature", CxtValue::quantity(15.0, "C"), tb.sim.now())
                .with_accuracy(0.2),
            None,
        )
        .unwrap();
    let c1 = Rc::new(CollectingClient::new());
    let c2 = Rc::new(CollectingClient::new());
    requester
        .submit(
            "SELECT temperature FROM adHocNetwork(all,1) DURATION 1 hour EVERY 20 sec",
            c1.clone(),
        )
        .unwrap();
    requester
        .submit(
            "SELECT temperature FROM adHocNetwork(all,1) DURATION 2 hour EVERY 40 sec",
            c2.clone(),
        )
        .unwrap();
    let facade = requester.factory().facade(Mechanism::AdHocBt).unwrap();
    assert_eq!(
        facade.provider_count(),
        1,
        "queries merged onto one provider"
    );
    tb.sim.run_for(SimDuration::from_secs(120));
    assert!(!c1.all_items().is_empty());
    assert!(!c2.all_items().is_empty());
}

#[test]
fn handover_bug_and_the_2g_workaround() {
    // The DYNAMOS field trials: "when a UMTS connection was active and
    // the phone went through 2G/3G handover, the phone switched off
    // (this did not occur if the phone was set to operate only in 2G
    // mode)."
    use radio::cell::CellMode;
    for (mode, survives) in [(CellMode::Dual, false), (CellMode::TwoG, true)] {
        let tb = Testbed::with_seed(31);
        tb.add_weather_station(
            "station",
            Position::new(5_000.0, 0.0),
            &[EnvField::WindKnots],
            SimDuration::from_secs(30),
        );
        tb.sim.run_for(SimDuration::from_secs(60));
        let phone = tb.add_phone(PhoneSetup {
            cell_on: true,
            metered: false,
            ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
        });
        phone.modem().unwrap().set_mode(mode);
        let client = Rc::new(CollectingClient::new());
        phone
            .submit(
                "SELECT wind FROM extInfra DURATION 1 samples",
                client.clone(),
            )
            .unwrap();
        // Trigger a handover while the UMTS transfer is in flight.
        tb.sim.run_for(SimDuration::from_millis(300));
        phone.modem().unwrap().trigger_handover();
        tb.sim.run_for(SimDuration::from_secs(30));
        assert_eq!(
            phone.phone().is_on(),
            survives,
            "mode {mode:?}: phone on should be {survives}"
        );
        assert_eq!(
            !client.all_items().is_empty(),
            survives,
            "mode {mode:?}: delivery should be {survives}"
        );
    }
}

#[test]
fn the_repository_keeps_the_newest_items_an_infra_push_delivers() {
    // A push delivers its records newest first, and every push repeats
    // the records the last one delivered.
    let tb = Testbed::with_seed(4);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    tb.sim.run_for(SimDuration::from_secs(300));
    let phone = tb.add_phone(PhoneSetup {
        cell_on: true,
        metered: false,
        ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
    });
    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT wind FROM extInfra DURATION 1 hour EVERY 60 sec",
            client.clone(),
        )
        .unwrap();
    tb.sim.run_for(SimDuration::from_secs(300));
    let items = client.items_for(id);
    let mut times: Vec<SimTime> = items.iter().map(|i| i.timestamp).collect();
    let delivered = times.len();
    times.sort();
    times.dedup();
    assert!(delivered > times.len(), "pushes repeat records");
    let newest = *times.last().unwrap();
    let repo = phone.factory().repository();
    assert_eq!(repo.latest("wind").unwrap().timestamp, newest);
    assert_eq!(repo.len(), times.len(), "each record stored once");
}
