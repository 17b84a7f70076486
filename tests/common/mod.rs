//! Shared transcript machinery for the determinism suites.
//!
//! [`run_fig5_transcript`] runs the Fig. 5 BT-GPS outage scenario on the
//! classic `Sim` and renders everything observable about the run into
//! one string: event counts, the mechanism-switch timeline, every
//! delivered item, the serialized `FailoverReport`, the obskit
//! metrics/span exports, the benchkit scenario JSON and, last, the
//! [`fleet_trace_transcript`] of a small broker fleet on one shard and
//! one thread. `tests/determinism.rs` compares whole transcripts (same
//! seed ⇒ same bytes); `tests/shard_determinism.rs` compares the fleet
//! transcript across the shard and thread counts of the partitioned
//! `ShardSim` engine (same seed ⇒ same bytes *for every partition*).

use benchkit::{Measurement, Unit};
use contory::{CollectingClient, CxtItem, CxtValue, Mechanism, Trust};
use radio::Position;
use simkit::{FaultPlan, SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// Runs the Fig. 5 BT-GPS outage scenario and renders everything
/// observable about the run into one string.
#[allow(dead_code)] // tests/shard_determinism.rs uses only the fleet half
pub fn run_fig5_transcript(seed: u64) -> String {
    // Observability: the obskit exports and the benchkit scenario-report
    // JSON are part of the transcript, so a nondeterministic counter,
    // span id, float rendering or export ordering diffs too.
    let mut ctx = benchkit::RunCtx::new(
        "fig5_failover_transcript",
        "Fig. 5 determinism transcript",
        "Fig. 5",
        seed,
    );
    let obs = ctx.obs().clone();
    let _obs_guard = obs.install();
    let tb = Testbed::with_seed(seed);
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
        tb.sim.schedule_repeating(SimDuration::from_secs(10), move || {
            if let Some(p) = world.position_of(node) {
                let _ = factory.publish_cxt_item(
                    CxtItem::new("location", CxtValue::Position { x: p.x, y: p.y }, sim.now())
                        .with_accuracy(30.0)
                        .with_trust(Trust::Community),
                    None,
                );
            }
            true
        });
    }

    let client = Rc::new(CollectingClient::new());
    let id = phone
        .submit(
            "SELECT location FROM intSensor DURATION 2 hour EVERY 5 sec",
            client.clone(),
        )
        .expect("query accepted");

    // Sampled mechanism timeline (collapsed to switches below).
    let timeline: Rc<RefCell<Vec<(SimTime, Option<Mechanism>)>>> =
        Rc::new(RefCell::new(Vec::new()));
    {
        let timeline = timeline.clone();
        let factory = phone.factory().clone();
        let sim = tb.sim.clone();
        tb.sim.schedule_repeating(SimDuration::from_secs(1), move || {
            timeline.borrow_mut().push((sim.now(), factory.mechanism_of(id)));
            true
        });
    }

    // GPS dark between t = 155 s and t = 330 s, via the deterministic
    // fault-injection subsystem.
    let mut plan = FaultPlan::new(seed);
    plan.down_between("gps", SimTime::from_secs(155), SimTime::from_secs(330));
    let injector = tb.install_faults(&plan);
    {
        let gps2 = gps.clone();
        injector.register("gps", move |up| gps2.set_powered(up));
    }
    tb.sim.run_until(SimTime::from_secs(520));

    // Render the transcript: anything nondeterministic in the stack
    // perturbs at least one of these sections.
    let mut out = String::new();
    let _ = writeln!(out, "seed={seed}");
    let _ = writeln!(out, "events_processed={}", tb.sim.events_processed());

    let _ = writeln!(out, "-- mechanism switches --");
    let mut last: Option<Option<Mechanism>> = None;
    for (t, m) in timeline.borrow().iter() {
        if last.as_ref() != Some(m) {
            let label = m.map_or_else(|| "(none)".to_owned(), |m| m.to_string());
            let _ = writeln!(out, "t={t} -> {label}");
            last = Some(*m);
        }
    }

    let _ = writeln!(out, "-- delivered items --");
    for item in client.items_for(id) {
        let _ = writeln!(out, "{item:?}");
    }

    let report = phone.factory().monitor().failover_report(tb.sim.now());
    let _ = writeln!(out, "-- failover report (display) --");
    let _ = writeln!(out, "{report}");
    let _ = writeln!(out, "-- failover report (debug) --");
    let _ = writeln!(out, "{report:#?}");

    // obskit exports: metrics snapshot + full span stream, byte for byte.
    let _ = writeln!(out, "-- obskit metrics snapshot --");
    let _ = writeln!(out, "{}", obs.metrics_snapshot());
    let _ = writeln!(out, "-- obskit spans (jsonl) --");
    let _ = writeln!(out, "{}", obs.spans_jsonl());

    // benchkit export: the same run assembled into a scenario report and
    // rendered as `BENCH_contory.json` would render it — the bench JSON
    // is part of the byte-identity contract.
    ctx.tally_sim(&tb.sim);
    let items = client.items_for(id);
    ctx.push(Measurement::scalar(
        "items_delivered",
        "location items delivered",
        Unit::Count,
        items.len() as f64,
    ));
    if let Some(row) = report.get(id) {
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
    }
    let _ = writeln!(out, "-- benchkit scenario report (json) --");
    let _ = writeln!(out, "{}", ctx.finish().to_json().render());

    out.push_str(&fleet_trace_transcript(seed, 1, 1));
    out
}

/// Runs a small fully-sampled broker fleet on the partitioned `ShardSim`
/// engine with `shards` shards stepped by `threads` workers, and renders
/// its report, canonical trace JSONL export, trace digest and assembled
/// break-up. The trace plane is partition-invariant, so every section
/// must be byte-identical for every `(shards, threads)`.
pub fn fleet_trace_transcript(seed: u64, shards: u32, threads: u32) -> String {
    let fleet = brokerd::run_fleet(&brokerd::FleetConfig {
        seed: seed ^ 0x77ace,
        brokers: 3,
        devices: 60,
        shards,
        threads,
        run_for: SimDuration::from_secs(5),
        node: brokerd::NodeConfig {
            trace_sample_log2: 0,
            ..brokerd::NodeConfig::default()
        },
        ..brokerd::FleetConfig::default()
    });
    let mut out = String::new();
    let _ = writeln!(out, "-- tracekit fleet report --");
    let _ = writeln!(out, "{}", fleet.report());
    let _ = writeln!(out, "-- tracekit trace export (jsonl) --");
    let _ = write!(out, "{}", fleet.trace.export_jsonl());
    let _ = writeln!(out, "trace_digest={:016x}", fleet.trace.digest());
    let breakup = tracekit::Breakup::of(&tracekit::assemble(&fleet.trace));
    let _ = writeln!(out, "-- trace break-up (json) --");
    let _ = writeln!(out, "{}", breakup.to_json());
    out
}
