//! Regenerates the paper's in-text idle-power measurements (§6.1):
//!
//! > "When BT is turned off, back-light is switched on, and display is
//! > switched on, the average power consumption is about 76.20 mW. If the
//! > back-light is turned off, the consumption decreases to 14.35 mW. A
//! > consumption of 5.75 mW is achieved if also the display is turned
//! > off. Turning on BT in page and inquiry scan state increases the
//! > power consumption to 8.47 mW. Turning on Contory as well leads to a
//! > power consumption of 10.11 mW. … having WiFi connected at full
//! > signal (with back light on) drains a constant current of 300 mA,
//! > which leads to an average power consumption of 1190 mW … more than
//! > 100 times more energy-consuming than having BT in inquiry mode."

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use phone::{Phone, PhoneConfig, Volts};
use radio::Position;
use simkit::{Sim, SimDuration};
use testbed::{EnergyProbe, PhoneSetup, Testbed};

fn measure_mode(ctx: &mut RunCtx, configure: impl Fn(&Sim, &Phone)) -> f64 {
    let sim = Sim::new();
    let phone = Phone::new(&sim, PhoneConfig::default());
    configure(&sim, &phone);
    let probe = EnergyProbe::start(&sim, &phone);
    sim.run_for(SimDuration::from_secs(60));
    ctx.tally_sim(&sim);
    probe.mean_power().0
}

/// Idle-power in-text measurement scenario.
pub struct IdlePower;

impl Scenario for IdlePower {
    fn name(&self) -> &'static str {
        "idle_power"
    }
    fn title(&self) -> &'static str {
        "Idle operating modes (in-text measurements of §6.1)"
    }
    fn paper_ref(&self) -> &'static str {
        "§6.1 in-text"
    }
    fn seed(&self) -> u64 {
        601
    }

    fn run(&self, ctx: &mut RunCtx) {
        let full = measure_mode(ctx, |_s, p| {
            p.set_display(true);
            p.set_backlight(true);
        });
        ctx.push(
            Measurement::scalar(
                "idle_display_backlight",
                "display + back-light on, BT off",
                Unit::Milliwatts,
                full,
            )
            .with_paper(76.20)
            .with_paper_tol(0.01),
        );

        let display = measure_mode(ctx, |_s, p| p.set_display(true));
        ctx.push(
            Measurement::scalar(
                "idle_display_only",
                "display on, back-light off",
                Unit::Milliwatts,
                display,
            )
            .with_paper(14.35)
            .with_paper_tol(0.01),
        );

        let dark = measure_mode(ctx, |_s, _p| {});
        ctx.push(
            Measurement::scalar(
                "idle_dark",
                "display + back-light off",
                Unit::Milliwatts,
                dark,
            )
            .with_paper(5.75)
            .with_paper_tol(0.01),
        );

        // BT page/inquiry scan: attach a radio (discoverable by default).
        let bt_scan = {
            let tb = Testbed::with_seed(601);
            let phone = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            phone.phone().set_middleware_running(false);
            let probe = EnergyProbe::start(&tb.sim, phone.phone());
            tb.sim.run_for(SimDuration::from_secs(60));
            ctx.tally_sim(&tb.sim);
            probe.mean_power().0
        };
        ctx.push(
            Measurement::scalar(
                "idle_bt_scan",
                "+ BT page/inquiry scan",
                Unit::Milliwatts,
                bt_scan,
            )
            .with_paper(8.47)
            .with_paper_tol(0.01),
        );

        let with_contory = {
            let tb = Testbed::with_seed(602);
            let phone = tb.add_phone(PhoneSetup {
                metered: false,
                ..PhoneSetup::nokia6630("p", Position::new(0.0, 0.0))
            });
            let probe = EnergyProbe::start(&tb.sim, phone.phone());
            tb.sim.run_for(SimDuration::from_secs(60));
            ctx.tally_sim(&tb.sim);
            probe.mean_power().0
        };
        ctx.push(
            Measurement::scalar(
                "idle_contory",
                "+ Contory running",
                Unit::Milliwatts,
                with_contory,
            )
            .with_paper(10.11)
            .with_paper_tol(0.01),
        );

        // WiFi connected at full signal, back-light on.
        let wifi = {
            let tb = Testbed::with_seed(603);
            let phone = tb.add_phone(PhoneSetup::nokia9500("c", Position::new(0.0, 0.0)));
            phone.phone().set_backlight(true);
            phone.phone().set_middleware_running(false);
            tb.sim.run_for(SimDuration::from_secs(40)); // past startup in-rush
            let probe = EnergyProbe::start(&tb.sim, phone.phone());
            tb.sim.run_for(SimDuration::from_secs(60));
            ctx.tally_sim(&tb.sim);
            probe.mean_power().0
        };
        ctx.push(
            Measurement::scalar(
                "idle_wifi_connected",
                "WiFi connected, back-light on",
                Unit::Milliwatts,
                wifi,
            )
            .with_paper(1190.0)
            .with_paper_tol(0.01),
        );

        let current_ma = phone::Milliwatts(wifi).current_at(Volts(4.0965)).0;
        ctx.push(
            Measurement::scalar(
                "wifi_current_ma",
                "WiFi connected current",
                Unit::Milliamps,
                current_ma,
            )
            .with_paper(300.0)
            .with_paper_tol(0.02)
            .with_note("paper: constant ~300 mA"),
        );
        ctx.push(
            Measurement::scalar(
                "wifi_vs_bt_scan",
                "WiFi / BT-scan power ratio",
                Unit::Ratio,
                wifi / bt_scan,
            )
            .with_paper_text("> 100")
            .with_note("paper: \"more than 100 times\""),
        );
        ctx.check_band(
            "wifi_vs_bt_ratio",
            "WiFi at least 100x BT inquiry-scan power",
            wifi / bt_scan,
            Some(100.0),
            None,
            Unit::Ratio,
        );
    }
}
