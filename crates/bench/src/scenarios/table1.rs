//! Regenerates **Table 1** of the paper: latency times of basic Contory
//! operations — `createCxtItem`, `publishCxtItem` (BT / WiFi-SM / UMTS),
//! `createCxtQuery`, and `getCxtItem` over BT one-hop, WiFi one- and
//! two-hop, and UMTS.
//!
//! Topologies per the paper: a Nokia 6630/7610 pair for BT, three Nokia
//! 9500 communicators arranged in a line for WiFi multi-hop, and a remote
//! infrastructure over UMTS. Items are the 136-byte `lightItem`, queries
//! are 205 bytes, UMTS envelopes 1696 bytes.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use contory::refs::{AdHocSpec, BtReference, InternalReference};
use contory::{CxtItem, CxtValue};
use fuego::xml::XmlElement;
use radio::Position;
use sensors::EnvField;
use simkit::stats::Summary;
use simkit::SimDuration;
use testbed::{measure_async, PhoneSetup, Testbed};

const REPS: usize = 30;

pub(crate) fn light_item(now: simkit::SimTime) -> CxtItem {
    // ~136 bytes like the paper's lightItem: fully populated metadata.
    let mut item = CxtItem::new("light", CxtValue::quantity(740.5, "lux"), now)
        .with_source("intSensor://nokia6630-352087/light0")
        .with_accuracy(1.0)
        .with_correctness(0.93)
        .with_trust(contory::Trust::Trusted);
    item.metadata.precision = Some(0.5);
    item.metadata.completeness = Some(1.0);
    item.metadata.privacy = Some("community".into());
    debug_assert!(
        (130..=142).contains(&item.wire_size()),
        "{}",
        item.wire_size()
    );
    item
}

/// Table 1 scenario.
pub struct Table1Latency;

impl Scenario for Table1Latency {
    fn name(&self) -> &'static str {
        "table1_latency"
    }
    fn title(&self) -> &'static str {
        "Table 1: latency times of basic Contory operations"
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1"
    }
    fn seed(&self) -> u64 {
        101
    }

    fn run(&self, ctx: &mut RunCtx) {
        ctx.note(format!(
            "reps per operation: {REPS}; values are avg [90% CI half-width]"
        ));

        // ---------------- createCxtItem (provider side) ----------------
        let create = {
            let tb = Testbed::with_seed(101);
            let phone = tb.add_phone(PhoneSetup {
                internal_sensors: vec![EnvField::LightLux],
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            let internal = phone.internal_reference().expect("sensor configured");
            let s = measure_async(&tb.sim, REPS, SimDuration::from_millis(10), |_i, done| {
                internal.sample(
                    "light",
                    Box::new(move |res| {
                        res.expect("sample ok");
                        done();
                    }),
                );
            });
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary("create_cxt_item", "createCxtItem", Unit::Millis, &create)
                .with_paper(0.078)
                .with_paper_text("0.078 [0.001]")
                .with_paper_tol(0.15),
        );

        // ---------------- publishCxtItem, BT-based ----------------
        let publish_bt = {
            let tb = Testbed::with_seed(102);
            let phone = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            let bt = phone.bt_reference();
            let sim = tb.sim.clone();
            let s = measure_async(
                &tb.sim,
                REPS,
                SimDuration::from_millis(50),
                move |_i, done| {
                    let item = light_item(sim.now());
                    bt.publish(
                        &item,
                        None,
                        Box::new(move |res| {
                            res.expect("publish ok");
                            done();
                        }),
                    );
                },
            );
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "publish_bt",
                "adHocNetwork, BT-based: publishCxtItem",
                Unit::Millis,
                &publish_bt,
            )
            .with_paper(140.359)
            .with_paper_text("140.359 [0.337]")
            .with_paper_tol(0.05)
            .with_gate_rel_tol(0.15),
        );

        // ---------------- publishCxtItem, WiFi/SM-based ----------------
        let publish_wifi = {
            let tb = Testbed::with_seed(103);
            let phone = tb.add_phone(PhoneSetup::nokia9500("c0", Position::new(0.0, 0.0)));
            tb.sim.run_for(SimDuration::from_secs(40)); // join + startup
            let wifi = phone.wifi_reference().expect("communicator");
            let sim = tb.sim.clone();
            let s = measure_async(
                &tb.sim,
                REPS,
                SimDuration::from_millis(10),
                move |_i, done| {
                    let item = light_item(sim.now());
                    use contory::refs::WifiReference;
                    wifi.publish(
                        &item,
                        None,
                        Box::new(move |res| {
                            res.expect("publish ok");
                            done();
                        }),
                    );
                },
            );
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "publish_wifi",
                "adHocNetwork, WiFi-based: publishCxtItem",
                Unit::Millis,
                &publish_wifi,
            )
            .with_paper(0.130)
            .with_paper_text("0.130 [0.006]")
            .with_paper_tol(0.10),
        );

        // ---------------- publishCxtItem, UMTS-based ----------------
        let publish_umts = {
            let tb = Testbed::with_seed(104);
            let phone = tb.add_phone(PhoneSetup {
                cell_on: true,
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            let fuego = phone.fuego().expect("fuego client").clone();
            let s = measure_async(
                &tb.sim,
                REPS,
                SimDuration::from_secs(30),
                move |_i, done| {
                    // A context item encapsulated in a 1696-byte event notification.
                    let ev = fuego.make_event(
                        "cxt/light",
                        XmlElement::new("cxtItem")
                            .attr("type", "light")
                            .text("740.5"),
                    );
                    fuego.publish(ev, move |res| {
                        res.expect("uplink ok");
                        done();
                    });
                },
            );
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "publish_umts",
                "extInfra, UMTS-based: publishCxtItem",
                Unit::Millis,
                &publish_umts,
            )
            .with_paper(772.728)
            .with_paper_text("772.728 [158.924]")
            .with_paper_tol(0.20),
        );

        // ---------------- createCxtQuery ----------------
        // The paper's table leaves this cell blank/garbled in the available
        // text; we model query-object creation like item creation scaled by
        // object size (205 B vs 136 B) and report it for completeness.
        let create_query = {
            let mut rng = simkit::DetRng::new(105);
            let mut s = Summary::new();
            for _ in 0..REPS {
                s.push(
                    rng.gauss_duration(
                        SimDuration::from_micros(78 * 205 / 136),
                        SimDuration::from_micros(2),
                    )
                    .as_millis_f64(),
                );
            }
            s
        };
        ctx.push(
            Measurement::from_summary(
                "create_cxt_query",
                "createCxtQuery",
                Unit::Millis,
                &create_query,
            )
            .with_paper_text("(cell empty in source)")
            .with_note("modeled: createCxtItem x 205B/136B"),
        );

        // ---------------- getCxtItem, BT one hop ----------------
        let get_bt = {
            let tb = Testbed::with_seed(106);
            let requester = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("req", Position::new(0.0, 0.0))
            });
            let provider = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("prov", Position::new(5.0, 0.0))
            });
            provider.factory().register_cxt_server("bench");
            provider
                .factory()
                .publish_cxt_item(light_item(tb.sim.now()), None)
                .expect("published");
            tb.sim.run_for(SimDuration::from_secs(1));
            let bt = requester.bt_reference();
            // Warm-up round performs device + service discovery (~14 s);
            // the table's number is "once device and service discovery has
            // occurred".
            {
                let done = std::rc::Rc::new(std::cell::Cell::new(false));
                let d = done.clone();
                bt.adhoc_round(
                    &AdHocSpec::one_hop("light"),
                    Box::new(move |res| {
                        assert_eq!(res.expect("round ok").len(), 1);
                        d.set(true);
                    }),
                );
                testbed::run_until_flag(&tb.sim, &done, SimDuration::from_secs(60));
            }
            let s = measure_async(&tb.sim, REPS, SimDuration::from_secs(2), move |_i, done| {
                bt.adhoc_round(
                    &AdHocSpec::one_hop("light"),
                    Box::new(move |res| {
                        assert!(!res.expect("round ok").is_empty());
                        done();
                    }),
                );
            });
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "get_bt_1hop",
                "adHocNetwork, BT-based, one hop: getCxtItem",
                Unit::Millis,
                &get_bt,
            )
            .with_paper(31.830)
            .with_paper_text("31.830 [0.151]")
            .with_paper_tol(0.10),
        );

        // ---------------- getCxtItem, WiFi one & two hops ----------------
        let (get_wifi1, get_wifi2) = {
            let mut run = |hops: u32, seed: u64| -> Summary {
                let tb = Testbed::with_seed(seed);
                let requester = tb.add_phone(PhoneSetup::nokia9500("c0", Position::new(0.0, 0.0)));
                let _relay = tb.add_phone(PhoneSetup::nokia9500("c1", Position::new(80.0, 0.0)));
                let far = tb.add_phone(PhoneSetup::nokia9500("c2", Position::new(160.0, 0.0)));
                tb.sim.run_for(SimDuration::from_secs(40));
                let provider = if hops == 1 { &_relay } else { &far };
                provider.factory().register_cxt_server("bench");
                provider
                    .factory()
                    .publish_cxt_item(light_item(tb.sim.now()), None)
                    .expect("published");
                tb.sim.run_for(SimDuration::from_secs(1));
                let wifi = requester.wifi_reference().expect("communicator");
                let spec = AdHocSpec {
                    num_hops: hops,
                    ..AdHocSpec::one_hop("light")
                };
                // Warm-up: builds the SM route and code caches ("once the
                // route has been built").
                {
                    use contory::refs::WifiReference;
                    let done = std::rc::Rc::new(std::cell::Cell::new(false));
                    let d = done.clone();
                    let s = spec.clone();
                    wifi.adhoc_round(
                        &s,
                        Box::new(move |res| {
                            assert_eq!(res.expect("round ok").len(), 1);
                            d.set(true);
                        }),
                    );
                    testbed::run_until_flag(&tb.sim, &done, SimDuration::from_secs(60));
                }
                let s = measure_async(&tb.sim, REPS, SimDuration::from_secs(1), move |_i, done| {
                    use contory::refs::WifiReference;
                    wifi.adhoc_round(
                        &spec,
                        Box::new(move |res| {
                            assert!(!res.expect("round ok").is_empty());
                            done();
                        }),
                    );
                });
                ctx.tally_sim(&tb.sim);
                s
            };
            (run(1, 107), run(2, 108))
        };
        ctx.push(
            Measurement::from_summary(
                "get_wifi_1hop",
                "adHocNetwork, WiFi-based, one hop: getCxtItem",
                Unit::Millis,
                &get_wifi1,
            )
            .with_paper(761.280)
            .with_paper_text("761.280 [28.940]")
            .with_paper_tol(0.10),
        );
        ctx.push(
            Measurement::from_summary(
                "get_wifi_2hop",
                "adHocNetwork, WiFi-based, two hops: getCxtItem",
                Unit::Millis,
                &get_wifi2,
            )
            .with_paper(1422.5)
            .with_paper_text("1422.500 [60.001]")
            .with_paper_tol(0.10),
        );

        // ---------------- getCxtItem, UMTS ----------------
        let get_umts = {
            let tb = Testbed::with_seed(109);
            tb.add_weather_station(
                "station",
                Position::new(10_000.0, 0.0),
                &[EnvField::LightLux],
                SimDuration::from_secs(30),
            );
            tb.sim.run_for(SimDuration::from_secs(60));
            let phone = tb.add_phone(PhoneSetup {
                cell_on: true,
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            let cell = phone.cell_reference();
            let spec = contory::refs::InfraSpec {
                cxt_type: "light".into(),
                max_items: 1,
                ..Default::default()
            };
            let s = measure_async(
                &tb.sim,
                REPS,
                SimDuration::from_secs(30),
                move |_i, done| {
                    use contory::refs::CellReference;
                    cell.fetch(
                        &spec,
                        Box::new(move |res| {
                            assert!(!res.expect("fetch ok").is_empty());
                            done();
                        }),
                    );
                },
            );
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "get_umts",
                "extInfra, UMTS-based: getCxtItem",
                Unit::Millis,
                &get_umts,
            )
            .with_paper(1473.0)
            .with_paper_text("1473.000 [275.000]")
            .with_paper_tol(0.15)
            .with_note(format!(
                "observed range {:.0}..{:.0} (paper: 703..2766)",
                get_umts.min(),
                get_umts.max()
            )),
        );

        // Shape checks the paper's prose calls out, as gated ratios.
        ctx.push(
            Measurement::scalar(
                "shape_bt_publish_vs_sm",
                "shape: BT publish / SM-tag publish",
                Unit::Ratio,
                publish_bt.mean() / publish_wifi.mean(),
            )
            .with_paper(1080.0)
            .with_paper_tol(0.15)
            .with_note("paper ~1080x"),
        );
        ctx.push(
            Measurement::scalar(
                "shape_wifi_2hop_vs_1hop",
                "shape: WiFi 2-hop / 1-hop",
                Unit::Ratio,
                get_wifi2.mean() / get_wifi1.mean(),
            )
            .with_paper(1.87)
            .with_paper_tol(0.10)
            .with_note("paper 1.87x"),
        );
        ctx.check_band(
            "wifi_hop_scaling",
            "WiFi 2-hop / 1-hop latency ratio near the paper's 1.87x",
            get_wifi2.mean() / get_wifi1.mean(),
            Some(1.5),
            Some(2.3),
            Unit::Ratio,
        );
        ctx.note(format!(
            "UMTS variance is extreme: std {:.0} ms over mean {:.0} ms",
            get_umts.std_dev(),
            get_umts.mean()
        ));
    }
}
