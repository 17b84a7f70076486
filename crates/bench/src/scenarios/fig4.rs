//! Regenerates **Fig. 4** of the paper: power consumption of extInfra
//! provisioning — "a test in which 5 queries were sent to the
//! infrastructure over UMTS, every 3 min".
//!
//! Expected shape: ~1000 mW peaks when each query opens the UMTS
//! connection, long DCH/FACH decay tails after each transfer, and GSM
//! paging spikes of 450–481 mW every 50–60 s in between.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use contory::refs::{CellReference, InfraSpec};
use radio::Position;
use sensors::EnvField;
use simkit::SimDuration;
use std::cell::Cell;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// Fig. 4 scenario.
pub struct Fig4PowerTrace;

impl Scenario for Fig4PowerTrace {
    fn name(&self) -> &'static str {
        "fig4_power_trace"
    }
    fn title(&self) -> &'static str {
        "Fig. 4: power consumption for extInfra provisioning"
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 4"
    }
    fn seed(&self) -> u64 {
        401
    }

    fn run(&self, ctx: &mut RunCtx) {
        ctx.note("5 on-demand queries over UMTS, one every 3 minutes; GSM radio on".to_string());

        let tb = Testbed::with_seed(401);
        tb.add_weather_station(
            "station",
            Position::new(10_000.0, 0.0),
            &[EnvField::TemperatureC],
            SimDuration::from_secs(30),
        );
        tb.sim.run_for(SimDuration::from_secs(60));
        let phone = tb.add_phone(PhoneSetup {
            cell_on: true,
            metered: false,
            ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
        });
        let cell = phone.cell_reference();
        let t0 = tb.sim.now();

        // 5 queries, one every 3 minutes (first at t0 + 60 s).
        let completed = Rc::new(Cell::new(0u32));
        for k in 0..5u64 {
            let cell = cell.clone();
            let completed = completed.clone();
            tb.sim
                .schedule_at(t0 + SimDuration::from_secs(60 + 180 * k), move || {
                    let spec = InfraSpec {
                        cxt_type: "temperature".into(),
                        max_items: 1,
                        ..Default::default()
                    };
                    let completed = completed.clone();
                    cell.fetch(
                        &spec,
                        Box::new(move |res| {
                            assert!(!res.expect("fetch ok").is_empty());
                            completed.set(completed.get() + 1);
                        }),
                    );
                });
        }
        tb.sim.run_for(SimDuration::from_secs(15 * 60));
        ctx.check_band(
            "queries_completed",
            "all five queries answered",
            completed.get() as f64,
            Some(5.0),
            Some(5.0),
            Unit::Count,
        );

        let trace = phone.phone().power().trace_snapshot();
        let t_end = tb.sim.now();
        ctx.artifact("power trace (ASCII)", trace.ascii_plot(t0, t_end, 110, 16));

        // Quantitative shape checks.
        let peak = trace.max_value().unwrap_or(0.0);
        ctx.push(
            Measurement::scalar("peak_power_mw", "peak power", Unit::Milliwatts, peak)
                .with_paper(1000.0)
                .with_paper_tol(0.10)
                .with_note("paper: ~1000 mW when the connection opens"),
        );
        let samples = trace.resample(t0, t_end, SimDuration::from_millis(500));
        let paging = samples
            .iter()
            .filter(|(_, v)| (440.0..500.0).contains(v))
            .count();
        ctx.push(
            Measurement::scalar(
                "paging_band_samples",
                "paging-band samples (440..500 mW)",
                Unit::Count,
                paging as f64,
            )
            .with_note("450-481 mW spikes every 50-60 s between queries"),
        );
        ctx.check_band(
            "paging_spikes_present",
            "GSM paging spikes visible between queries",
            paging as f64,
            Some(1.0),
            None,
            Unit::Count,
        );
        let mean = trace.mean_between(t0, t_end);
        let energy_j = trace.integrate(t0, t_end) / 1_000.0;
        ctx.push(Measurement::scalar(
            "mean_power_mw",
            "mean power over the 15 min test",
            Unit::Milliwatts,
            mean,
        ));
        ctx.push(Measurement::scalar(
            "total_energy_j",
            "total energy over the test",
            Unit::Joules,
            energy_j,
        ));
        ctx.push(Measurement::scalar(
            "energy_per_query_j",
            "energy per query incl. idle floor",
            Unit::JoulesPerItem,
            energy_j / 5.0,
        ));
        // Count distinct high-power episodes (the five query peaks).
        let mut episodes = 0u32;
        let mut above = false;
        for (_, v) in &samples {
            if *v > 900.0 && !above {
                episodes += 1;
                above = true;
            } else if *v < 600.0 {
                above = false;
            }
        }
        ctx.push(
            Measurement::scalar(
                "high_power_episodes",
                "distinct high-power episodes",
                Unit::Count,
                episodes as f64,
            )
            .with_paper(5.0)
            .with_note("paper: 5 — one per query"),
        );
        ctx.check_band(
            "high_power_episodes_band",
            "one high-power episode per query",
            episodes as f64,
            Some(5.0),
            Some(5.0),
            Unit::Count,
        );
        ctx.tally_sim(&tb.sim);
    }
}
