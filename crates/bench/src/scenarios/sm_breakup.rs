//! Regenerates the paper's in-text Smart Messages analysis (§6.1):
//!
//! - the latency break-up of SM retrievals: "connection establishment
//!   accounts for 4-5% of the total latency time, serialization for
//!   26-33%, thread switching for 12-14%, and transfer time for 51-54%.
//!   The SM overhead is negligible."
//! - "BT device discovery takes approximately 13 sec and BT service
//!   discovery takes approximately 1.12 sec."
//! - "The additional time required to build the route is approximately
//!   twice the corresponding latency value in the table."
//!
//! The span-measured break-up bands that previously lived in inline
//! `assert!`s (the obs gate) are now tolerance-band checks, so the obs
//! gate and the bench gate share one mechanism.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use phone::{Phone, PhoneConfig, PhoneModel};
use radio::bt::{BtMedium, BtParams};
use radio::wifi::{WifiMedium, WifiParams};
use radio::{Position, World};
use simkit::stats::Summary;
use simkit::{Sim, SimDuration};
use smartmsg::finder::{Finder, FinderResult, FinderSpec};
use smartmsg::{SmNode, SmOutcome, SmParams, SmPlatform, Tag, TagValue};
use std::cell::RefCell;
use std::rc::Rc;

/// Smart Messages / BT break-up scenario.
pub struct SmBreakup;

impl Scenario for SmBreakup {
    fn name(&self) -> &'static str {
        "sm_breakup"
    }
    fn title(&self) -> &'static str {
        "Smart Messages / Bluetooth break-up (§6.1 in-text)"
    }
    fn paper_ref(&self) -> &'static str {
        "§6.1 in-text"
    }
    fn seed(&self) -> u64 {
        701
    }

    fn run(&self, ctx: &mut RunCtx) {
        // ---- component shares, from the platform's own cost model ----
        let p = SmParams::default();
        let wifi = WifiParams::default();
        let wire = p.control_state_size + 205; // control state + query, code cached
        let per_connect = p.connect.as_secs_f64();
        let per_serialize =
            p.serialize_base.as_secs_f64() + p.serialize_per_byte.as_secs_f64() * wire as f64;
        let per_transfer = p.transfer_base.as_secs_f64() + wifi.transfer_time(wire).as_secs_f64();
        let per_thread = p.thread_switch.as_secs_f64();
        let issuer = p.issuer_serialize.as_secs_f64() + p.issuer_thread.as_secs_f64();
        let total = issuer + 2.0 * (per_connect + per_serialize + per_transfer + per_thread);
        let model_shares = [
            (
                "model_share_connect",
                "model: connection establishment",
                100.0 * 2.0 * per_connect / total,
                "4-5%",
            ),
            (
                "model_share_serialize",
                "model: serialization",
                100.0 * (p.issuer_serialize.as_secs_f64() + 2.0 * per_serialize) / total,
                "26-33%",
            ),
            (
                "model_share_thread",
                "model: thread switching",
                100.0 * (p.issuer_thread.as_secs_f64() + 2.0 * per_thread) / total,
                "12-14%",
            ),
            (
                "model_share_transfer",
                "model: transfer time",
                100.0 * 2.0 * per_transfer / total,
                "51-54%",
            ),
        ];
        for (id, label, share, band) in model_shares {
            ctx.push(
                Measurement::scalar(id, label, Unit::Percent, share)
                    .with_paper_text(band)
                    .with_note("from the platform's cost-model constants"),
            );
        }
        ctx.push(
            Measurement::scalar(
                "model_total_ms",
                "model: total one-hop retrieval",
                Unit::Millis,
                total * 1e3,
            )
            .with_paper(761.0)
            .with_paper_text("761 (table)")
            .with_paper_tol(0.10),
        );

        // ---- BT discovery durations, measured ----
        let (inq, sdp) = {
            let sim = Sim::new();
            let world = World::new(&sim);
            let medium = BtMedium::new(&sim, &world, BtParams::default());
            let a = world.add_node(Position::new(0.0, 0.0));
            let b = world.add_node(Position::new(5.0, 0.0));
            let pa = Phone::new(&sim, PhoneConfig::default());
            let pb = Phone::new(&sim, PhoneConfig::default());
            let ra = medium.attach(a, &pa, 1);
            let _rb = medium.attach(b, &pb, 2);
            let mut inq = Summary::new();
            let mut sdp = Summary::new();
            for _ in 0..10 {
                let t0 = sim.now();
                let done = Rc::new(std::cell::Cell::new(false));
                let d = done.clone();
                ra.inquiry(move |res| {
                    assert_eq!(res.expect("inquiry ok").len(), 1);
                    d.set(true);
                });
                testbed::run_until_flag(&sim, &done, SimDuration::from_secs(30));
                inq.push((sim.now() - t0).as_secs_f64());
                let t1 = sim.now();
                let done = Rc::new(std::cell::Cell::new(false));
                let d = done.clone();
                ra.sdp_query(b, move |res| {
                    res.expect("sdp ok");
                    d.set(true);
                });
                testbed::run_until_flag(&sim, &done, SimDuration::from_secs(30));
                sdp.push((sim.now() - t1).as_secs_f64());
            }
            ctx.tally_sim(&sim);
            (inq, sdp)
        };
        ctx.push(
            Measurement::from_summary("inq_s", "BT device discovery", Unit::Secs, &inq)
                .with_paper(13.0)
                .with_paper_text("~13")
                .with_paper_tol(0.10),
        );
        ctx.push(
            Measurement::from_summary("sdp_s", "BT service discovery", Unit::Secs, &sdp)
                .with_paper(1.12)
                .with_paper_text("~1.12")
                .with_paper_tol(0.10),
        );

        // ---- route build vs routed retrieval, measured on a branchy net ----
        let (cold, warm) = {
            let sim = Sim::new();
            let world = World::new(&sim);
            let wifi_medium = WifiMedium::new(&sim, &world, WifiParams::default());
            let platform = SmPlatform::new(&sim, SmParams::default());
            let mk = |x: f64, y: f64, seed: u64| -> SmNode {
                let id = world.add_node(Position::new(x, y));
                let phone = Phone::new(
                    &sim,
                    PhoneConfig {
                        model: PhoneModel::Nokia9500,
                        ..PhoneConfig::default()
                    },
                );
                let radio = wifi_medium.attach(id, &phone, seed);
                radio.power_on(|| {});
                platform.install(&radio, &phone, seed + 100)
            };
            // issuer with a decoy branch (explored first on the cold query)
            let issuer = mk(0.0, 0.0, 1);
            let _decoy1 = mk(-80.0, 0.0, 2);
            let _decoy2 = mk(-160.0, 0.0, 3);
            let _relay = mk(80.0, 0.0, 4);
            let provider = mk(160.0, 0.0, 5);
            sim.run_for(SimDuration::from_secs(40));
            provider.publish_tag_now(Tag::new(
                "temperature",
                TagValue::with_data("14.0C", Rc::new(14.0f64), 136),
                sim.now(),
            ));
            let run = |issuer: &SmNode| -> SimDuration {
                let out: Rc<RefCell<Option<SmOutcome>>> = Rc::new(RefCell::new(None));
                let o = out.clone();
                let t0 = sim.now();
                issuer.inject(
                    Box::new(Finder::new(FinderSpec::first_match("temperature", 3))),
                    SimDuration::from_secs(120),
                    move |outcome| *o.borrow_mut() = Some(outcome),
                );
                while out.borrow().is_none() {
                    assert!(sim.step());
                }
                let results = out
                    .borrow()
                    .as_ref()
                    .expect("outcome set")
                    .completed_as::<Vec<FinderResult>>()
                    .expect("completed");
                assert_eq!(results.len(), 1);
                sim.now() - t0
            };
            let cold = run(&issuer);
            sim.run_for(SimDuration::from_secs(5));
            let warm = run(&issuer);
            ctx.tally_sim(&sim);
            (cold, warm)
        };
        ctx.push(Measurement::scalar(
            "cold_retrieval_ms",
            "cold retrieval (route build)",
            Unit::Millis,
            cold.as_millis_f64(),
        ));
        ctx.push(Measurement::scalar(
            "warm_retrieval_ms",
            "warm retrieval (routed)",
            Unit::Millis,
            warm.as_millis_f64(),
        ));
        ctx.push(
            Measurement::scalar(
                "route_build_ratio",
                "route-build overhead vs routed retrieval",
                Unit::Ratio,
                cold.as_secs_f64() / warm.as_secs_f64(),
            )
            .with_paper(2.0)
            .with_paper_text("~2x")
            .with_paper_tol(0.25),
        );

        // ---- obs gate: span-measured break-up of a warm one-hop retrieval ----
        //
        // The same percentages, but *measured* from obskit spans recorded by
        // the platform while a retrieval runs, rather than derived from the
        // cost-model constants above. The harness installed the scenario's
        // own collector, so the retrieval below records straight into
        // `ctx.obs()`; the break-up is computed under the *last* SM root
        // span (the observed pass).
        {
            let sim = Sim::new();
            let world = World::new(&sim);
            let wifi_medium = WifiMedium::new(&sim, &world, WifiParams::default());
            let platform = SmPlatform::new(&sim, SmParams::default());
            let mk = |x: f64, seed: u64| -> SmNode {
                let id = world.add_node(Position::new(x, 0.0));
                let phone = Phone::new(
                    &sim,
                    PhoneConfig {
                        model: PhoneModel::Nokia9500,
                        ..PhoneConfig::default()
                    },
                );
                let radio = wifi_medium.attach(id, &phone, seed);
                radio.power_on(|| {});
                platform.install(&radio, &phone, seed + 100)
            };
            let issuer = mk(0.0, 11);
            let provider = mk(80.0, 12);
            sim.run_for(SimDuration::from_secs(30));
            provider.publish_tag_now(Tag::new(
                "temperature",
                TagValue::with_data("14.0C", Rc::new(14.0f64), 136),
                sim.now(),
            ));
            let run = |issuer: &SmNode| {
                let out: Rc<RefCell<Option<SmOutcome>>> = Rc::new(RefCell::new(None));
                let o = out.clone();
                issuer.inject(
                    Box::new(Finder::new(FinderSpec::first_match("temperature", 1))),
                    SimDuration::from_secs(120),
                    move |outcome| *o.borrow_mut() = Some(outcome),
                );
                while out.borrow().is_none() {
                    assert!(sim.step());
                }
                let results = out
                    .borrow()
                    .as_ref()
                    .expect("outcome set")
                    .completed_as::<Vec<FinderResult>>()
                    .expect("completed");
                assert_eq!(results.len(), 1);
            };
            // Warm-up pass (code cache + neighbour tables).
            run(&issuer);
            sim.run_for(SimDuration::from_secs(5));
            // Observed pass.
            run(&issuer);
            ctx.tally_sim(&sim);
            let obs = ctx.obs().clone();
            let root = obs
                .spans()
                .into_iter()
                .rfind(|s| s.phase == obskit::Phase::Migrate && s.label.starts_with("sm:"))
                .expect("SM root span recorded");
            let breakup = obs.breakup_under(root.id);
            ctx.artifact(
                "span-measured break-up (one hop, warm code cache)",
                breakup.table(),
            );
            let bands: [(obskit::Phase, &str, &str, f64, f64); 4] = [
                (
                    obskit::Phase::Connect,
                    "obs_share_connect",
                    "connection establishment",
                    4.0,
                    5.0,
                ),
                (
                    obskit::Phase::Serialize,
                    "obs_share_serialize",
                    "serialization",
                    26.0,
                    33.0,
                ),
                (
                    obskit::Phase::ThreadSwitch,
                    "obs_share_thread",
                    "thread switching",
                    12.0,
                    14.0,
                ),
                (
                    obskit::Phase::Transfer,
                    "obs_share_transfer",
                    "transfer time",
                    51.0,
                    54.0,
                ),
            ];
            const TOLERANCE_PP: f64 = 3.0;
            for (phase, id, label, lo, hi) in bands {
                let share = breakup.share_pct(phase);
                ctx.push(
                    Measurement::scalar(id, &format!("measured: {label}"), Unit::Percent, share)
                        .with_paper_text(format!("{lo:.0}-{hi:.0}%"))
                        .with_gate_abs_tol(TOLERANCE_PP)
                        .with_gate_rel_tol(0.0),
                );
                ctx.check_band(
                    &format!("{id}_band"),
                    &format!("{label} share within paper band ±{TOLERANCE_PP:.0}pp"),
                    share,
                    Some(lo - TOLERANCE_PP),
                    Some(hi + TOLERANCE_PP),
                    Unit::Percent,
                );
            }
            ctx.note(format!(
                "obs gate: {} spans recorded, retrieval total {:.0} ms",
                obs.span_count(),
                breakup.total().as_millis_f64()
            ));
        }
    }
}
