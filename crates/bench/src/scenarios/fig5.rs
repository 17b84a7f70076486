//! Regenerates **Fig. 5** of the paper: Contory's behaviour in the
//! presence of a BT-GPS failure.
//!
//! Timeline per the paper: the phone retrieves location from a BT-GPS;
//! "after 155 sec, we caused a GPS failure by manually switching off the
//! GPS device. As a reaction, Contory switches from sensor-based
//! provisioning to ad hoc provisioning and starts collecting location
//! data from a neighboring device. Later on, the GPS device becomes
//! available again … Contory switches back to sensor-based provisioning.
//! The cost in terms of power consumption of the switches is due mostly
//! to the BT device discovery."
//!
//! The recovery SLOs that previously lived in inline `assert!`s are now
//! tolerance-band checks, so the obs gate and the bench gate share one
//! mechanism.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use contory::{CollectingClient, CxtItem, CxtValue, Mechanism, Trust};
use radio::Position;
use simkit::{FaultPlan, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// The mechanism serving the query at each sampled instant.
type Timeline = Rc<RefCell<Vec<(SimTime, Option<Mechanism>)>>>;

/// Fig. 5 scenario.
pub struct Fig5Failover;

impl Scenario for Fig5Failover {
    fn name(&self) -> &'static str {
        "fig5_failover"
    }
    fn title(&self) -> &'static str {
        "Fig. 5: Contory behaviour under a BT-GPS failure"
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 5"
    }
    fn seed(&self) -> u64 {
        501
    }

    fn run(&self, ctx: &mut RunCtx) {
        let tb = Testbed::with_seed(501);
        let phone = tb.add_phone(PhoneSetup {
            metered: false,
            ..PhoneSetup::nokia6630("sailor", Position::new(0.0, 0.0))
        });
        let gps = tb.add_bt_gps(Position::new(2.0, 0.0), SimDuration::from_secs(5));
        let neighbor = tb.add_phone(PhoneSetup {
            metered: false,
            ..PhoneSetup::nokia6630("neighbor", Position::new(6.0, 0.0))
        });
        neighbor.factory().register_cxt_server("app");
        {
            let factory = neighbor.factory().clone();
            let world = tb.world.clone();
            let node = neighbor.node();
            let sim = tb.sim.clone();
            tb.sim
                .schedule_repeating(SimDuration::from_secs(10), move || {
                    let p = world.position_of(node).expect("node placed");
                    let _ = factory.publish_cxt_item(
                        CxtItem::new("location", CxtValue::Position { x: p.x, y: p.y }, sim.now())
                            .with_accuracy(30.0)
                            .with_trust(Trust::Community),
                        None,
                    );
                    true
                });
        }

        // Resource gauges sampled on sim ticks for the metrics snapshot.
        phone
            .factory()
            .monitor()
            .start_sampling(&tb.sim, SimDuration::from_secs(10));

        let client = Rc::new(CollectingClient::new());
        let id = phone
            .submit(
                "SELECT location FROM intSensor DURATION 2 hour EVERY 5 sec",
                client.clone(),
            )
            .expect("query accepted");

        // Record the mechanism timeline while the scenario plays out.
        let timeline: Timeline = Rc::new(RefCell::new(Vec::new()));
        {
            let timeline = timeline.clone();
            let factory = phone.factory().clone();
            let sim = tb.sim.clone();
            tb.sim
                .schedule_repeating(SimDuration::from_secs(1), move || {
                    timeline
                        .borrow_mut()
                        .push((sim.now(), factory.mechanism_of(id)));
                    true
                });
        }

        // Scripted fault: the GPS puck is dark between t = 155 s and
        // t = 330 s (the paper's "manually switching off the GPS device"),
        // driven through the deterministic fault-injection subsystem.
        let mut plan = FaultPlan::new(501);
        plan.down_between("gps", SimTime::from_secs(155), SimTime::from_secs(330));
        let injector = tb.install_faults(&plan);
        {
            let gps2 = gps.clone();
            injector.register("gps", move |up| gps2.set_powered(up));
        }
        tb.sim.run_until(SimTime::from_secs(520));

        // Power trace.
        let trace = phone.phone().power().trace_snapshot();
        ctx.artifact(
            "power trace (ASCII)",
            trace.ascii_plot(SimTime::ZERO, SimTime::from_secs(520), 110, 14),
        );

        // Mechanism timeline: record the switches.
        let mut last: Option<Mechanism> = None;
        let mut switch_times: Vec<(SimTime, Option<Mechanism>)> = Vec::new();
        let mut timeline_lines = vec!["provisioning timeline:".to_owned()];
        for (t, m) in timeline.borrow().iter() {
            if *m != last {
                timeline_lines.push(format!(
                    "  t={:>7}  ->  {}",
                    t.to_string(),
                    match m {
                        Some(m) => m.to_string(),
                        None => "(none)".to_owned(),
                    }
                ));
                switch_times.push((*t, *m));
                last = *m;
            }
        }
        ctx.artifact("mechanism timeline", timeline_lines.join("\n"));

        // Switch timing checks (formerly inline asserts).
        let to_adhoc = switch_times
            .iter()
            .find(|(_, m)| *m == Some(Mechanism::AdHocBt))
            .map(|(t, _)| *t);
        let back = switch_times
            .iter()
            .rev()
            .find(|(_, m)| *m == Some(Mechanism::IntSensor))
            .map(|(t, _)| *t);
        ctx.check_true(
            "switched_to_adhoc",
            "switched to ad hoc provisioning after the GPS failure",
            to_adhoc.is_some(),
        );
        ctx.check_true(
            "switched_back",
            "switched back to sensor-based provisioning after recovery",
            back.is_some(),
        );
        let to_adhoc = to_adhoc.unwrap_or(SimTime::ZERO);
        let back = back.unwrap_or(SimTime::ZERO);
        ctx.push(
            Measurement::scalar(
                "switch_to_adhoc_s",
                "GPS off at t=155 s; switch to ad hoc at",
                Unit::Secs,
                to_adhoc.as_secs_f64(),
            )
            .with_note("paper: shortly after 155 s"),
        );
        ctx.push(
            Measurement::scalar(
                "switch_back_s",
                "GPS on at t=330 s; switch back at",
                Unit::Secs,
                back.as_secs_f64(),
            )
            .with_note("paper: after GPS reappears"),
        );
        ctx.check_band(
            "switch_to_adhoc_window",
            "failover switch shortly after the 155 s outage",
            to_adhoc.as_secs_f64(),
            Some(155.0),
            Some(200.0),
            Unit::Secs,
        );
        ctx.check_band(
            "switch_back_after_recovery",
            "recovery switch after the GPS returns at 330 s",
            back.as_secs_f64(),
            Some(330.0),
            None,
            Unit::Secs,
        );

        // Switch cost: mean extra power during the two switch windows (the
        // paper attributes 163-292 mW to BT device discovery).
        for (mid, label, from) in [
            (
                "switch_cost_failover_mw",
                "mean power around the failover switch",
                to_adhoc,
            ),
            (
                "switch_cost_recovery_mw",
                "mean power around the recovery switch",
                back - SimDuration::from_secs(45),
            ),
        ] {
            let to = from + SimDuration::from_secs(20);
            let mean = trace.mean_between(from, to);
            ctx.push(
                Measurement::scalar(mid, label, Unit::Milliwatts, mean)
                    .with_note("discovery-driven; paper: 163-292 mW band"),
            );
        }
        let items = client.items_for(id);
        ctx.push(Measurement::scalar(
            "items_delivered",
            "location items delivered across the whole run",
            Unit::Count,
            items.len() as f64,
        ));
        ctx.check_band(
            "items_delivered_floor",
            "provisioning kept flowing throughout",
            items.len() as f64,
            Some(51.0),
            None,
            Unit::Count,
        );

        // Recovery SLOs from the middleware's own failover accounting
        // (surfaced through the ResourcesMonitor), now as shared bands.
        let report = phone.factory().monitor().failover_report(tb.sim.now());
        ctx.artifact("failover report", format!("{report}"));
        let row = report.get(id).expect("query tracked");
        ctx.check_band(
            "failures_detected",
            "GPS outage detected",
            row.failures as f64,
            Some(1.0),
            None,
            Unit::Count,
        );
        ctx.check_true(
            "tried_adhoc",
            "ad hoc provisioning in the failover trail",
            row.mechanisms_tried.contains(&Mechanism::AdHocBt),
        );
        ctx.push(Measurement::scalar(
            "gap_max_s",
            "longest provisioning gap",
            Unit::Secs,
            row.gap_max.as_secs_f64(),
        ));
        ctx.check_band(
            "gap_slo",
            "longest provisioning gap within the 45 s SLO",
            row.gap_max.as_secs_f64(),
            None,
            Some(45.0),
            Unit::Secs,
        );
        ctx.note(format!(
            "failover SLO: longest provisioning gap {:.1}s (<= 45 s), ~{} periodic items lost, \
             {} fault transitions applied",
            row.gap_max.as_secs_f64(),
            row.items_lost_estimate,
            injector.transitions_applied(),
        ));

        // Metrics snapshot alongside the FailoverReport: the same scenario
        // seen through the obskit registry (counters, gauges, histograms).
        // The harness installed `ctx.obs()` around this run, so the
        // provisioning layers recorded straight into the report's registry.
        let obs = ctx.obs().clone();
        ctx.artifact("metrics snapshot (obskit)", obs.metrics_snapshot());
        let failover_spans = obs
            .spans()
            .iter()
            .filter(|s| s.phase == obskit::Phase::Failover && s.end.is_some())
            .count();
        ctx.note(format!(
            "span log: {} spans total, {} closed blackout (failover) spans",
            obs.span_count(),
            failover_spans
        ));
        ctx.check_band(
            "factory_mechanism_switches",
            "obskit saw the failover switch to ad hoc",
            obs.counter("factory_mechanism_switches") as f64,
            Some(1.0),
            None,
            Unit::Count,
        );
        ctx.check_band(
            "factory_recoveries",
            "obskit saw the recovery switch back to the GPS",
            obs.counter("factory_recoveries") as f64,
            Some(1.0),
            None,
            Unit::Count,
        );
        ctx.check_band(
            "failover_spans",
            "blackout span recorded for the GPS outage",
            failover_spans as f64,
            Some(1.0),
            None,
            Unit::Count,
        );
        ctx.tally_sim(&tb.sim);
    }
}
