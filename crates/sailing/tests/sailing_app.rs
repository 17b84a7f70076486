//! Application-level tests: WeatherWatcher and RegattaClassifier on the
//! full simulated stack.

use radio::{Position, Region};
use sailing::scenario::{start_regatta, straight_course};
use sailing::{WeatherSource, WeatherWatcher};
use sensors::EnvField;
use simkit::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

#[test]
fn weather_from_nearby_boats_over_adhoc() {
    let tb = Testbed::with_seed(11);
    // Two communicators sailing near each other; the neighbour shares its
    // weather observations.
    let me = tb.add_phone(PhoneSetup {
        internal_sensors: vec![EnvField::TemperatureC, EnvField::WindKnots],
        ..PhoneSetup::nokia9500("me", Position::new(0.0, 0.0))
    });
    let neighbor = tb.add_phone(PhoneSetup {
        internal_sensors: vec![EnvField::TemperatureC, EnvField::WindKnots],
        ..PhoneSetup::nokia9500("neighbor", Position::new(60.0, 0.0))
    });
    tb.sim.run_for(SimDuration::from_secs(5));
    let neighbor_watcher = WeatherWatcher::new(&tb.sim, neighbor.factory());
    neighbor_watcher.start_sharing(&["temperature", "wind"], SimDuration::from_secs(20));
    tb.sim.run_for(SimDuration::from_secs(60));

    let watcher = WeatherWatcher::new(&tb.sim, me.factory());
    let report = Rc::new(RefCell::new(None));
    let r = report.clone();
    watcher.request(
        Region::new(Position::new(50.0, 0.0), 300.0),
        &["temperature", "wind"],
        move |res| *r.borrow_mut() = Some(res.unwrap()),
    );
    tb.sim.run_for(SimDuration::from_secs(60));
    let report = report.borrow_mut().take().expect("report arrived");
    assert_eq!(report.source, WeatherSource::AdHoc);
    assert!(report.latest("temperature").is_some());
    let t = report
        .latest("temperature")
        .unwrap()
        .value
        .as_f64()
        .unwrap();
    let truth = tb.env.sample(
        EnvField::TemperatureC,
        Position::new(60.0, 0.0),
        tb.sim.now(),
    );
    assert!((t - truth).abs() < 3.0, "reported {t}, truth {truth}");
}

#[test]
fn weather_for_a_far_region_falls_back_to_the_infrastructure() {
    let tb = Testbed::with_seed(12);
    // An official station reports from the far harbour region.
    let harbour = Position::new(30_000.0, 5_000.0);
    tb.add_weather_station(
        "harbour-station",
        harbour,
        &[EnvField::TemperatureC, EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    tb.sim.run_for(SimDuration::from_secs(130));
    let me = tb.add_phone(PhoneSetup {
        cell_on: true,
        ..PhoneSetup::nokia9500("me", Position::new(0.0, 0.0))
    });
    let watcher =
        WeatherWatcher::new(&tb.sim, me.factory()).with_patience(SimDuration::from_secs(10));
    let report = Rc::new(RefCell::new(None));
    let r = report.clone();
    watcher.request(Region::new(harbour, 1_000.0), &["wind"], move |res| {
        *r.borrow_mut() = Some(res.unwrap())
    });
    tb.sim.run_for(SimDuration::from_secs(90));
    let report = report.borrow_mut().take().expect("report arrived");
    assert_eq!(report.source, WeatherSource::Infrastructure);
    let wind = report.latest("wind").expect("wind observation");
    assert!(wind.source.as_ref().unwrap().0.contains("harbour-station"));
}

#[test]
fn regatta_classification_tracks_the_fastest_boat() {
    let tb = Testbed::with_seed(13);
    let course = straight_course(3, 600.0);
    let regatta = start_regatta(&tb, 3, course);
    // Sail for 20 minutes: boat-0 (fastest) should lead.
    tb.sim.run_for(SimDuration::from_mins(20));
    let standings = regatta.classifier.standings();
    assert!(!standings.is_empty(), "passages reached the infrastructure");
    assert_eq!(
        standings[0].entity, "boat-0",
        "fastest boat leads: {standings:?}"
    );
    // Standings are consistent with each participant's local view.
    for p in &regatta.participants {
        let local = p.checkpoints_passed();
        let remote = standings
            .iter()
            .find(|s| s.entity == p.name())
            .map(|s| s.passed)
            .unwrap_or(0);
        assert!(
            remote <= local,
            "{}: infrastructure ({remote}) cannot know more than the boat ({local})",
            p.name()
        );
        assert!(
            local - remote <= 1,
            "{}: at most one passage still in flight",
            p.name()
        );
    }
    // The leader actually finished all checkpoints by now.
    assert_eq!(standings[0].passed, 3);
    assert!(standings[0].last_speed > 0.0, "speed reported at passage");
}

#[test]
fn regatta_order_is_stable_under_reruns_with_same_seed() {
    let run = |seed| {
        let tb = Testbed::with_seed(seed);
        let regatta = start_regatta(&tb, 3, straight_course(2, 500.0));
        tb.sim.run_for(SimDuration::from_mins(15));
        regatta
            .classifier
            .standings()
            .into_iter()
            .map(|s| (s.entity, s.passed))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99), "deterministic replay");
}
