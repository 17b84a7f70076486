//! Regenerates **Table 2** of the paper: energy consumption per context
//! item for every provisioning mechanism.
//!
//! Methodology mirrors §6.1: short experiments (high-energy runs ≤ 10
//! min), idle floors measured before each run and subtracted, WiFi rows
//! computed from the power log (the paper's multimeter browned the
//! communicator out — reproduced by `phone::Battery` — so those rows are
//! lower bounds taken "based on the logs we gathered", with the
//! back-light on).

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use contory::refs::{AdHocSpec, BtReference, CellReference, WifiReference};
use phone::Milliwatts;
use radio::Position;
use sensors::EnvField;
use simkit::stats::Summary;
use simkit::{Sim, SimDuration};
use std::cell::Cell;
use std::rc::Rc;
use testbed::{EnergyProbe, PhoneSetup, Testbed};

use super::table1::light_item;

/// Measures the idle floor of a phone over 30 s.
fn idle_floor(sim: &Sim, phone: &phone::Phone) -> Milliwatts {
    let probe = EnergyProbe::start(sim, phone);
    sim.run_for(SimDuration::from_secs(30));
    probe.mean_power()
}

fn round_once(sim: &Sim, bt: &Rc<testbed::SimBtReference>) {
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    bt.adhoc_round(
        &AdHocSpec::one_hop("light"),
        Box::new(move |res| {
            assert!(!res.expect("round ok").is_empty(), "provider must answer");
            d.set(true);
        }),
    );
    testbed::run_until_flag(sim, &done, SimDuration::from_secs(60));
}

fn wifi_round_once(sim: &Sim, wifi: &Rc<testbed::SimWifiReference>, spec: &AdHocSpec) {
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    wifi.adhoc_round(
        spec,
        Box::new(move |res| {
            assert!(!res.expect("round ok").is_empty(), "provider must answer");
            d.set(true);
        }),
    );
    testbed::run_until_flag(sim, &done, SimDuration::from_secs(60));
}

/// Table 2 scenario.
pub struct Table2Energy;

impl Scenario for Table2Energy {
    fn name(&self) -> &'static str {
        "table2_energy"
    }
    fn title(&self) -> &'static str {
        "Table 2: energy consumption of context provisioning mechanisms"
    }
    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }
    fn seed(&self) -> u64 {
        201
    }

    fn run(&self, ctx: &mut RunCtx) {
        ctx.note("values are avg [90% CI half-width] joules per cxtItem".to_string());

        // ---- adHocNetwork BT: provideCxtItem (provider side) ----
        let provide_bt = {
            let tb = Testbed::with_seed(201);
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
            // Warm-up establishes discovery + the link.
            round_once(&tb.sim, &bt);
            let floor = idle_floor(&tb.sim, provider.phone());
            let mut per_item = Summary::new();
            for _ in 0..10 {
                let probe = EnergyProbe::start(&tb.sim, provider.phone());
                round_once(&tb.sim, &bt);
                tb.sim.run_for(SimDuration::from_secs(5)); // drain active tails
                per_item.push(probe.above_baseline(floor).as_joules());
            }
            ctx.tally_sim(&tb.sim);
            per_item
        };
        ctx.push(
            Measurement::from_summary(
                "provide_bt",
                "adHocNetwork, BT: provideCxtItem",
                Unit::JoulesPerItem,
                &provide_bt,
            )
            .with_paper(0.133)
            .with_paper_text("0.133 [0.002]")
            .with_paper_tol(0.15),
        );

        // ---- adHocNetwork BT: getCxtItem, on-demand incl. discovery ----
        let get_bt_discovery = {
            let tb = Testbed::with_seed(202);
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
            let floor = idle_floor(&tb.sim, requester.phone());
            let mut per_item = Summary::new();
            for _ in 0..5 {
                bt.forget_peers(); // cold: every run pays full discovery
                tb.sim.run_for(SimDuration::from_secs(5));
                let probe = EnergyProbe::start(&tb.sim, requester.phone());
                round_once(&tb.sim, &bt);
                tb.sim.run_for(SimDuration::from_secs(5));
                per_item.push(probe.above_baseline(floor).as_joules());
            }
            ctx.tally_sim(&tb.sim);
            per_item
        };
        ctx.push(
            Measurement::from_summary(
                "get_bt_discovery",
                "adHocNetwork, BT: getCxtItem (on-demand, incl. discovery)",
                Unit::JoulesPerItem,
                &get_bt_discovery,
            )
            .with_paper(5.270)
            .with_paper_text("5.270 [0.010]")
            .with_paper_tol(0.15),
        );

        // ---- adHocNetwork BT: getCxtItem, periodic w/o discovery ----
        let get_bt_periodic = {
            let tb = Testbed::with_seed(203);
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
            // Periodic = push subscription: the query travels once, items are
            // pushed every period; the table's cost is per received item.
            let got = Rc::new(Cell::new(0usize));
            let g = got.clone();
            let _h = bt.adhoc_subscribe(
                &AdHocSpec::one_hop("light"),
                SimDuration::from_secs(5),
                Rc::new(move |items| g.set(g.get() + items.len())),
                Rc::new(|_e| {}),
            );
            tb.sim.run_for(SimDuration::from_secs(40)); // discovery settles
            let floor = Milliwatts(5.75 + 2.72 + 1.64 + 6.0); // idle + scan + mw + link
            let before = got.get();
            let probe = EnergyProbe::start(&tb.sim, requester.phone());
            tb.sim.run_for(SimDuration::from_secs(120));
            let received = got.get() - before;
            let mut per_item = Summary::new();
            per_item.push(probe.above_baseline(floor).as_joules() / received as f64);
            ctx.tally_sim(&tb.sim);
            per_item
        };
        ctx.push(
            Measurement::from_summary(
                "get_bt_periodic",
                "adHocNetwork, BT: getCxtItem (periodic, w/o discovery)",
                Unit::JoulesPerItem,
                &get_bt_periodic,
            )
            .with_paper(0.099)
            .with_paper_text("0.099 [0.007]")
            .with_paper_tol(0.15),
        );

        // ---- intSensor BT-GPS: getCxtItem (periodic, w/o discovery) ----
        let get_gps = {
            let tb = Testbed::with_seed(204);
            let phone = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
            });
            let _gps = tb.add_bt_gps(Position::new(2.0, 0.0), SimDuration::from_secs(5));
            let client = Rc::new(contory::CollectingClient::new());
            let id = phone
                .submit(
                    "SELECT location FROM intSensor DURATION 1 hour EVERY 5 sec",
                    client.clone(),
                )
                .expect("query accepted");
            // Discovery + connection, then steady streaming.
            tb.sim.run_for(SimDuration::from_secs(40));
            let before = client.items_for(id).len();
            // Floor with the link open: BT scan + middleware + link idle.
            let floor = Milliwatts(5.75 + 2.72 + 1.64 + 6.0);
            let probe = EnergyProbe::start(&tb.sim, phone.phone());
            tb.sim.run_for(SimDuration::from_secs(120));
            let items = client.items_for(id).len() - before;
            let mut s = Summary::new();
            s.push(probe.above_baseline(floor).as_joules() / items as f64);
            ctx.tally_sim(&tb.sim);
            s
        };
        ctx.push(
            Measurement::from_summary(
                "get_gps_periodic",
                "intSensor, BT-GPS: getCxtItem (periodic, w/o discovery)",
                Unit::JoulesPerItem,
                &get_gps,
            )
            .with_paper(0.422)
            .with_paper_text("0.422 [0.084]")
            .with_paper_tol(0.20),
        );

        // ---- adHocNetwork WiFi: one hop & two hops, periodic ----
        let (wifi1, wifi2) = {
            let mut run = |hops: u32, seed: u64| -> Summary {
                let tb = Testbed::with_seed(seed);
                let requester = tb.add_phone(PhoneSetup::nokia9500("c0", Position::new(0.0, 0.0)));
                let relay = tb.add_phone(PhoneSetup::nokia9500("c1", Position::new(80.0, 0.0)));
                let far = tb.add_phone(PhoneSetup::nokia9500("c2", Position::new(160.0, 0.0)));
                // The paper's WiFi runs had the back-light on.
                requester.phone().set_backlight(true);
                tb.sim.run_for(SimDuration::from_secs(40));
                let provider = if hops == 1 { &relay } else { &far };
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
                wifi_round_once(&tb.sim, &wifi, &spec); // route build
                let mut per_item = Summary::new();
                for _ in 0..10 {
                    // Per-item energy is the full device draw over the
                    // retrieval window (WiFi's constant 1190 mW dominates).
                    let probe = EnergyProbe::start(&tb.sim, requester.phone());
                    wifi_round_once(&tb.sim, &wifi, &spec);
                    per_item.push(probe.total().as_joules());
                    tb.sim.run_for(SimDuration::from_secs(20));
                }
                ctx.tally_sim(&tb.sim);
                per_item
            };
            (run(1, 205), run(2, 206))
        };
        ctx.push(
            Measurement::from_summary(
                "get_wifi_1hop",
                "adHocNetwork, WiFi: getCxtItem (one hop, periodic)",
                Unit::JoulesPerItem,
                &wifi1,
            )
            .with_paper(0.906)
            .with_paper_text("> 0.906")
            .with_paper_tol(0.15)
            .as_lower_bound()
            .with_note("back-light on; from power log"),
        );
        ctx.push(
            Measurement::from_summary(
                "get_wifi_2hop",
                "adHocNetwork, WiFi: getCxtItem (two hops, periodic)",
                Unit::JoulesPerItem,
                &wifi2,
            )
            .with_paper(1.693)
            .with_paper_text("> 1.693")
            .with_paper_tol(0.15)
            .as_lower_bound()
            .with_note("back-light on; from power log"),
        );

        // ---- extInfra UMTS: getCxtItem, on-demand ----
        let get_umts = {
            let tb = Testbed::with_seed(207);
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
            let floor = idle_floor(&tb.sim, phone.phone());
            let spec = contory::refs::InfraSpec {
                cxt_type: "light".into(),
                max_items: 1,
                ..Default::default()
            };
            let mut per_item = Summary::new();
            for _ in 0..8 {
                let probe = EnergyProbe::start(&tb.sim, phone.phone());
                let done = Rc::new(Cell::new(false));
                let d = done.clone();
                cell.fetch(
                    &spec,
                    Box::new(move |res| {
                        assert!(!res.expect("fetch ok").is_empty());
                        d.set(true);
                    }),
                );
                testbed::run_until_flag(&tb.sim, &done, SimDuration::from_secs(60));
                // Let the DCH and FACH tails drain (this *is* most of the cost).
                tb.sim.run_for(SimDuration::from_secs(60));
                per_item.push(probe.above_baseline(floor).as_joules());
            }
            ctx.tally_sim(&tb.sim);
            per_item
        };
        ctx.push(
            Measurement::from_summary(
                "get_umts",
                "extInfra, UMTS: getCxtItem (on-demand)",
                Unit::JoulesPerItem,
                &get_umts,
            )
            .with_paper(14.076)
            .with_paper_text("14.076 [0.496]")
            .with_paper_tol(0.15),
        );

        // Shape checks the paper's prose calls out, as gated ratios.
        ctx.push(
            Measurement::scalar(
                "shape_bt_discovery_vs_periodic",
                "shape: BT on-demand (discovery) / periodic",
                Unit::Ratio,
                get_bt_discovery.mean() / get_bt_periodic.mean(),
            )
            .with_paper(53.0)
            .with_paper_tol(0.25)
            .with_note("paper ~53x: discovery dominates on-demand"),
        );
        ctx.push(
            Measurement::scalar(
                "shape_gps_vs_bt_periodic",
                "shape: GPS stream (340 B, segmented) / compact item",
                Unit::Ratio,
                get_gps.mean() / get_bt_periodic.mean(),
            )
            .with_paper(4.3)
            .with_paper_tol(0.30)
            .with_note("paper ~4.3x"),
        );
        ctx.push(
            Measurement::scalar(
                "shape_wifi_2hop_vs_1hop",
                "shape: WiFi 2-hop / 1-hop energy",
                Unit::Ratio,
                wifi2.mean() / wifi1.mean(),
            )
            .with_paper(1.87)
            .with_paper_tol(0.15)
            .with_note("paper ~1.87x"),
        );
        ctx.push(
            Measurement::scalar(
                "shape_umts_vs_bt_periodic",
                "shape: UMTS / BT periodic energy",
                Unit::Ratio,
                get_umts.mean() / get_bt_periodic.mean(),
            )
            .with_paper(142.0)
            .with_paper_tol(0.25)
            .with_note("paper ~142x: UMTS is the most expensive per item"),
        );
        ctx.check_band(
            "umts_most_expensive",
            "UMTS is the most expensive mechanism per item",
            (get_umts.mean() > get_bt_discovery.mean()
                && get_umts.mean() > wifi2.mean()
                && get_umts.mean() > get_gps.mean()) as u8 as f64,
            Some(1.0),
            Some(1.0),
            Unit::Count,
        );
    }
}
