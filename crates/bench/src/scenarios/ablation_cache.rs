//! Ablation: **peer/discovery caching** (DESIGN.md §5).
//!
//! The paper notes that BT on-demand cost is dominated by the ~13 s
//! device-discovery phase, and that "in some cases a list of pre-known
//! devices is used". This ablation quantifies what the cached
//! neighbourhood buys: latency and energy of an ad hoc BT round with a
//! cold cache (full inquiry + SDP each time) versus a warm cache.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use contory::refs::{AdHocSpec, BtReference};
use contory::{CxtItem, CxtValue};
use radio::Position;
use simkit::stats::Summary;
use simkit::SimDuration;
use std::cell::Cell;
use std::rc::Rc;
use testbed::{EnergyProbe, PhoneSetup, Testbed};

/// BT discovery-cache ablation scenario.
pub struct AblationDiscoveryCache;

impl Scenario for AblationDiscoveryCache {
    fn name(&self) -> &'static str {
        "ablation_discovery_cache"
    }
    fn title(&self) -> &'static str {
        "Ablation: BT discovery cache (pre-known devices)"
    }
    fn paper_ref(&self) -> &'static str {
        "ablation"
    }
    fn seed(&self) -> u64 {
        801
    }

    fn run(&self, ctx: &mut RunCtx) {
        let tb = Testbed::with_seed(801);
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
            .publish_cxt_item(
                CxtItem::new("temperature", CxtValue::quantity(14.0, "C"), tb.sim.now())
                    .with_accuracy(0.2),
                None,
            )
            .expect("published");
        tb.sim.run_for(SimDuration::from_secs(1));
        let bt = requester.bt_reference();

        let run = |cold: bool| -> (Summary, Summary) {
            let mut lat = Summary::new();
            let mut energy = Summary::new();
            for _ in 0..8 {
                if cold {
                    bt.forget_peers();
                    tb.sim.run_for(SimDuration::from_secs(5));
                }
                let probe = EnergyProbe::start(&tb.sim, requester.phone());
                let t0 = tb.sim.now();
                let done = Rc::new(Cell::new(false));
                let d = done.clone();
                bt.adhoc_round(
                    &AdHocSpec::one_hop("temperature"),
                    Box::new(move |res| {
                        assert!(!res.expect("round ok").is_empty());
                        d.set(true);
                    }),
                );
                testbed::run_until_flag(&tb.sim, &done, SimDuration::from_secs(60));
                lat.push((tb.sim.now() - t0).as_millis_f64());
                tb.sim.run_for(SimDuration::from_secs(5));
                energy.push(
                    probe
                        .above_baseline(phone::Milliwatts(5.75 + 2.72 + 1.64 + 6.0))
                        .as_joules(),
                );
            }
            (lat, energy)
        };

        let (cold_lat, cold_energy) = run(true);
        // Warm once, then measure.
        {
            let done = Rc::new(Cell::new(false));
            let d = done.clone();
            bt.adhoc_round(
                &AdHocSpec::one_hop("temperature"),
                Box::new(move |_res| d.set(true)),
            );
            testbed::run_until_flag(&tb.sim, &done, SimDuration::from_secs(60));
        }
        let (warm_lat, warm_energy) = run(false);
        ctx.tally_sim(&tb.sim);

        ctx.push(Measurement::from_summary(
            "cold_latency_ms",
            "cold cache: round latency (full inquiry + SDP)",
            Unit::Millis,
            &cold_lat,
        ));
        ctx.push(Measurement::from_summary(
            "warm_latency_ms",
            "warm cache: round latency",
            Unit::Millis,
            &warm_lat,
        ));
        ctx.push(Measurement::from_summary(
            "cold_energy_j",
            "cold cache: energy per round",
            Unit::Joules,
            &cold_energy,
        ));
        ctx.push(Measurement::from_summary(
            "warm_energy_j",
            "warm cache: energy per round",
            Unit::Joules,
            &warm_energy,
        ));
        ctx.push(
            Measurement::scalar(
                "cache_speedup_latency",
                "cache speedup: latency",
                Unit::Ratio,
                cold_lat.mean() / warm_lat.mean(),
            )
            .with_note("cold / warm"),
        );
        ctx.push(
            Measurement::scalar(
                "cache_speedup_energy",
                "cache speedup: energy",
                Unit::Ratio,
                cold_energy.mean() / warm_energy.mean(),
            )
            .with_note("cold / warm"),
        );
        ctx.note(
            "the paper's Table 2 shows the same split: 5.27 J with discovery vs 0.099 J without"
                .to_string(),
        );

        // Formerly inline asserts, now shared tolerance bands.
        ctx.check_band(
            "cold_pays_inquiry",
            "cold rounds pay the ~13 s inquiry",
            cold_lat.mean(),
            Some(10_000.0),
            None,
            Unit::Millis,
        );
        ctx.check_band(
            "warm_is_fast",
            "warm rounds are two orders faster",
            warm_lat.mean(),
            None,
            Some(100.0),
            Unit::Millis,
        );
    }
}
