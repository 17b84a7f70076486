//! Workload runners: the untraced end-to-end runs, the traced
//! attribution runs, and the toy-size self-test.
//!
//! An untraced run makes a fixed number of repetitions, set by
//! `--seconds` alone, and reports medians over whole repetitions
//! (`fleet`) or the fastest whole repetition (`provisioning`). A
//! traced run measures one untraced repetition, then one repetition with
//! the benchmark's spans on, then every layer's unit cost; unit cost ×
//! the run's exact operation counts, over its wall time, gives each
//! layer's share (`explained_share` is their sum).

use crate::common::{median, peak_rss_mb, percentile, timed, Metrics, Outcome, Tracer};
use crate::{broker_tcp, fleet, layers, provisioning};
use brokerd::FleetOutcome;

/// One invocation's settings.
#[derive(Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, wall seconds.
    pub budget_s: f64,
    /// Engine worker threads for the parallel runs (`nproc`).
    pub nproc: u32,
    /// Toy sizes (the self-test).
    pub toy: bool,
}

/// Exact counts and representative times of one workload run, for
/// attribution.
#[derive(Default)]
pub struct Detail {
    /// Wall seconds of one measured repetition at `nproc` threads.
    pub wall_s: f64,
    /// Wall seconds of the same repetition at one engine thread.
    pub wall_1t_s: f64,
    /// `items_per_s` of this run.
    pub items_per_s: f64,
    /// ShardSim rounds.
    pub rounds: u64,
    /// ShardSim events.
    pub events: u64,
    /// Mean per-round shard batch gap (events).
    pub imbalance: f64,
    /// Classic-engine events.
    pub sim_events: u64,
    /// Failed or refused operations, and operations attempted, as the
    /// workload's `error_rate` counts them.
    pub errors: (u64, u64),
    /// The fleet outcome.
    pub fleet: Option<FleetOutcome>,
    /// Provisioning counts and median submit µs.
    pub prov: Option<(provisioning::Counts, f64)>,
    /// broker_tcp counts.
    pub tcp: Option<TcpCounts>,
}

/// What broker_tcp's attribution needs from a run.
pub struct TcpCounts {
    /// Requests sent.
    pub requests: u64,
    /// PUBs sent (each crosses both brokers).
    pub pubs: u64,
    /// Frames both clients moved.
    pub frames: u64,
    /// PING round trips, ms.
    pub ping_ms: Vec<f64>,
}

/// Set-ups timed per invocation, at least; `setup_s` is their median. A
/// fleet set-up takes about 10 ms, so it is timed more often than
/// broker_tcp's (about 0.3 s, mostly spent in its subscription round
/// trips).
const SETUPS: usize = 5;
const FLEET_SETUPS: usize = 25;

/// Repetitions of an untraced run: `budget_s` over the nominal seconds
/// of one repetition, at least one. The count depends on the arguments
/// alone, so code under test that runs faster or slower makes the same
/// number of repetitions and its medians compare like with like.
fn rep_count(budget_s: f64, nominal_rep_s: f64) -> usize {
    ((budget_s / nominal_rep_s).round() as usize).max(1)
}

/// Runs `rep` `n` times. Also returns the peak RSS through the first
/// repetition: later ones must not count, since the testbed keeps every
/// assembled device alive and provisioning's footprint would otherwise
/// grow with the repetition count.
fn repeat<R>(n: usize, mut rep: impl FnMut() -> R) -> (Vec<R>, f64) {
    let mut out = Vec::with_capacity(n);
    let mut rss = 0.0;
    for i in 0..n {
        out.push(rep());
        if i == 0 {
            rss = peak_rss_mb();
        }
    }
    (out, rss)
}

fn e2e_metrics(
    m: &mut Metrics,
    setup: &[f64],
    ips: f64,
    ips_1t: f64,
    rtt: &[f64],
    delivery: &[f64],
    rss_mb: f64,
) {
    m.set("setup_s", median(setup), "s");
    m.set("items_per_s", ips, "items/s");
    m.set("items_per_s_1t", ips_1t, "items/s");
    m.set("rtt_p50_ms", median(rtt), "ms");
    m.set("rtt_p90_ms", percentile(rtt, 90.0), "ms");
    m.set("delivery_p50_ms", median(delivery), "ms");
    m.set("peak_rss_mb", rss_mb, "MB");
}

/// Host ms per delivered item, for each step that delivered any.
fn per_item(items: &[u64], ms: &[f64]) -> Vec<f64> {
    items
        .iter()
        .zip(ms)
        .filter(|(n, _)| **n > 0)
        .map(|(n, t)| t / *n as f64)
        .collect()
}

/// `fleet`, untraced (or traced when `tr` records). One engine run is
/// one request; `rtt_*` are taken over the 1-thread runs, which are the
/// more numerous and the less disturbed by other tenants of the host.
pub fn fleet(ctx: &Ctx, tr: &Tracer) -> (Outcome, Detail) {
    let size = if ctx.toy { fleet::TOY } else { fleet::FULL };
    let mut setup = Vec::new();
    let mut cfgs = None;
    for _ in 0..FLEET_SETUPS {
        let (c, s) = fleet::setup(ctx.seed, size, ctx.nproc);
        setup.push(s);
        cfgs = Some(c);
    }
    let cfgs = cfgs.expect("the set-ups ran");
    let n = rep_count(ctx.budget_s, fleet::NOMINAL_REP_S);
    let (reps, rss) = repeat(n, || fleet::run_rep(&cfgs, tr));
    let runs_per_rep = 1 + fleet::ONE_THREAD_RUNS as u64;
    let mut o = Outcome {
        attempted: runs_per_rep * reps.len() as u64,
        ..Outcome::default()
    };
    for r in &reps {
        if !r.failures.is_empty() {
            o.failed += runs_per_rep;
            o.notes.extend(r.failures.iter().cloned());
        }
    }
    let first = &reps[0];
    let out = first.out.clone();
    o.notes.push(format!(
        "fleet outcome: published={} delivered={} shed={} events={} digest={:016x} repetitions={}",
        out.published,
        out.delivered,
        out.shed,
        out.events,
        out.digest,
        reps.len()
    ));
    let items = out.delivered as f64;
    let nt_ms: Vec<f64> = reps.iter().map(|r| r.wall_nt * 1e3).collect();
    let one_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.wall_1t)
        .map(|s| s * 1e3)
        .collect();
    let (nt_s, one_s) = (median(&nt_ms) / 1e3, median(&one_ms) / 1e3);
    let per_item_ms: Vec<f64> = nt_ms.iter().map(|ms| ms / items.max(1.0)).collect();
    e2e_metrics(
        &mut o.metrics,
        &setup,
        items / nt_s,
        items / one_s,
        &one_ms,
        &per_item_ms,
        rss,
    );
    let refused = out.shed + out.unattributed;
    let detail = Detail {
        wall_s: nt_s,
        wall_1t_s: one_s,
        items_per_s: items / nt_s,
        rounds: first.profile.rounds,
        events: out.events,
        imbalance: first.profile.barrier_imbalance.mean() as f64,
        errors: (refused, out.published + out.forwarded),
        fleet: Some(out),
        ..Detail::default()
    };
    (o, detail)
}

/// `provisioning`, untraced (or traced when `tr` records). Each request
/// advances the engine one slice.
pub fn provisioning(ctx: &Ctx, tr: &Tracer) -> (Outcome, Detail) {
    let size = if ctx.toy {
        provisioning::TOY
    } else {
        provisioning::FULL
    };
    let n = rep_count(ctx.budget_s, provisioning::NOMINAL_REP_S);
    let (runs, rss) = repeat(n, || provisioning::run(ctx.seed, size, tr));
    let mut o = Outcome::default();
    let reference = &runs[0];
    for r in &runs {
        o.attempted += r.counts.submits;
        o.failed += r.counts.refused;
        if r.digests != reference.digests || r.step_items != reference.step_items {
            o.failed += 1;
            o.notes
                .push("per-query item streams differ between repetitions".to_owned());
        }
    }
    let c = reference.counts;
    o.notes.push(format!(
        "provisioning outcome: queries={} items={} engine events={} repetitions={}",
        c.submits,
        c.items,
        c.events,
        runs.len()
    ));
    if c.items == 0 || reference.digests.len() as u64 + c.refused < c.submits {
        o.failed += 1;
        o.notes.push(format!(
            "only {} of {} queries delivered items",
            reference.digests.len(),
            c.submits
        ));
    }
    let mut setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    // The toy and traced runs make one repetition: build the testbed
    // alone until there are `SETUPS` samples.
    while setup.len() < SETUPS {
        setup.push(provisioning::setup_s(ctx.seed, size));
    }
    // Every run does the same deterministic work, so the fastest of the
    // fixed number of runs is the one other tenants of the host disturbed
    // least; all timings come from that one run.
    let fastest = runs
        .iter()
        .min_by(|a, b| {
            a.step_ms
                .iter()
                .sum::<f64>()
                .total_cmp(&b.step_ms.iter().sum::<f64>())
        })
        .expect("at least one run");
    let wall_s = fastest.step_ms.iter().sum::<f64>() / 1e3;
    let items: u64 = fastest.step_items.iter().sum();
    let ips = items as f64 / wall_s;
    let delivery = per_item(&fastest.step_items, &fastest.step_ms);
    // The classic engine steps on one thread: `items_per_s_1t` is the
    // same measurement.
    e2e_metrics(
        &mut o.metrics,
        &setup,
        ips,
        ips,
        &fastest.step_ms,
        &delivery,
        rss,
    );
    let detail = Detail {
        wall_s,
        wall_1t_s: wall_s,
        items_per_s: ips,
        sim_events: c.events,
        errors: (c.refused + c.errors, c.submits),
        prov: Some((c, median(&reference.submit_us))),
        ..Detail::default()
    };
    (o, detail)
}

/// `broker_tcp`, untraced (or traced when `tr` records).
pub fn broker_tcp(ctx: &Ctx, tr: &Tracer) -> (Outcome, Detail) {
    let mut o = Outcome::default();
    let mut setup = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        let (r, s) = timed(|| broker_tcp::setup(tr));
        setup.push(s);
        rig = Some(r);
    }
    let mut rig = match rig.unwrap_or_else(|| Err("no set-up ran".to_owned())) {
        Ok(r) => r,
        Err(e) => {
            o.attempted = 1;
            o.failed = 1;
            o.notes.push(format!("set-up failed: {e}"));
            return (o, Detail::default());
        }
    };
    let (budget_s, max_ops) = if ctx.toy {
        (f64::INFINITY, 60)
    } else {
        (ctx.budget_s, u64::MAX)
    };
    let run = broker_tcp::run(&mut rig, ctx.seed, budget_s, max_ops, tr);
    drop(rig);
    o.attempted = run.requests + run.matching;
    o.failed = run.failures;
    o.notes.push(format!(
        "broker_tcp outcome: requests={} pubs={} evts={}",
        run.requests, run.pubs, run.evts
    ));
    o.notes.extend(run.failure_notes.iter().cloned());
    let ips = run.evts as f64 / run.wall_s;
    // No engine runs here: `items_per_s_1t` is the same measurement.
    e2e_metrics(
        &mut o.metrics,
        &setup,
        ips,
        ips,
        &run.rtt_ms,
        &run.delivery_ms,
        peak_rss_mb(),
    );
    let detail = Detail {
        wall_s: run.wall_s,
        wall_1t_s: run.wall_s,
        items_per_s: ips,
        errors: (run.failures, o.attempted),
        tcp: Some(TcpCounts {
            requests: run.requests,
            pubs: run.pubs,
            frames: run.frames,
            ping_ms: run.ping_ms.clone(),
        }),
        ..Detail::default()
    };
    (o, detail)
}

/// Runs workload `name` with the tracer `tr`.
fn with_tracer(name: &str, ctx: &Ctx, tr: &Tracer) -> Option<(Outcome, Detail)> {
    Some(match name {
        "fleet" => fleet(ctx, tr),
        "provisioning" => provisioning(ctx, tr),
        "broker_tcp" => broker_tcp(ctx, tr),
        _ => return None,
    })
}

/// Runs workload `name` untraced.
pub fn untraced(name: &str, ctx: &Ctx) -> Option<(Outcome, Detail)> {
    with_tracer(name, ctx, &Tracer::new(false))
}

/// Layers whose wall-time share the attribution reports.
const LAYERS: [&str; 13] = [
    "simkit.shard",
    "simkit.sim",
    "brokerd.node",
    "brokerd.wire",
    "brokerd.net",
    "tracekit",
    "core.query",
    "core.factory",
    "core.merge",
    "core.predicate",
    "core.aggregator",
    "core.vocab",
    "fuego.xml",
];

/// The traced attribution run of workload `name`: one untraced and one
/// traced repetition, every layer's unit cost, and the attribution.
pub fn traced(name: &str, ctx: &Ctx) -> Option<Outcome> {
    // One repetition each; broker_tcp's closed loop gets a few seconds.
    let one = Ctx {
        budget_s: if name == "broker_tcp" {
            ctx.budget_s.min(5.0)
        } else {
            0.0
        },
        ..*ctx
    };
    let (base_o, base) = untraced(name, &one)?;
    let tr = Tracer::new(true);
    let obs = obskit::Obs::new();
    let (traced_o, traced) = {
        let _installed = obs.install();
        with_tracer(name, &one, &tr)?
    };
    let mut o = Outcome {
        attempted: base_o.attempted + traced_o.attempted,
        failed: base_o.failed + traced_o.failed,
        ..Outcome::default()
    };
    o.notes.extend(base_o.notes);
    o.notes.extend(traced_o.notes);
    layer_metrics(name, ctx, &base, &traced, &obs, &mut o);
    o.notes.push(format!(
        "traced run: {} spans; self seconds by layer:",
        tr.span_count()
    ));
    for (layer, secs) in tr.self_secs() {
        o.notes.push(format!("  {layer:<16} {secs:.6}"));
    }
    Some(o)
}

/// Per-layer unit costs, counts, shares and `explained_share`.
fn layer_metrics(
    name: &str,
    ctx: &Ctx,
    base: &Detail,
    traced: &Detail,
    obs: &obskit::Obs,
    o: &mut Outcome,
) {
    let m = &mut o.metrics;
    let seed = ctx.seed;
    let fleet_size = if ctx.toy { fleet::TOY } else { fleet::FULL };
    let shard = layers::shard_cost(fleet::SHARDS, ctx.nproc);
    let dispatch_s = layers::sim_dispatch_s();
    // The node replays the traffic this run's fleet reported, or
    // broker_tcp's mix where no fleet ran.
    let shape = match &base.fleet {
        Some(f) => layers::NodeShape::fleet(
            &fleet::config(seed, fleet_size, 1),
            f,
            fleet_size.horizon_s - fleet_size.kill_at_s,
        ),
        None => layers::NodeShape::tcp(),
    };
    let node = layers::node_cost(seed, &shape);
    o.notes.push(format!("brokerd.node replay: {shape}"));
    let (encode_s, decode_s, frame_bytes) = layers::wire_cost(seed);
    let ping = match &base.tcp {
        Some(t) if !t.ping_ms.is_empty() => t.ping_ms.clone(),
        _ => layers::ping_ms(20).unwrap_or_default(),
    };
    let (spans_per_kevent, trace_ratio, span_s) = layers::trace_cost(seed);
    let texts = layers::cql_texts(seed);
    let parse_s = layers::parse_s(&texts);
    let merge_s = layers::merge_s(&texts);
    let prov_size = if ctx.toy {
        provisioning::TOY
    } else {
        provisioning::FULL
    };
    let polls = prov_size.minutes * 60 / 5;
    let eval_s = layers::eval_s(&texts, polls as usize);
    let (intern_s, cmp_s) = layers::vocab_s(seed);
    let (to_xml_s, xml_parse_s, envelope_bytes) = layers::xml_s(seed);
    let (prov, submit_us) = match base.prov {
        Some(p) => p,
        None => {
            let probe = provisioning::run(seed, provisioning::TOY, &Tracer::new(false));
            (probe.counts, median(&probe.submit_us))
        }
    };
    let batch = prov.items / prov.combines.max(1);
    let combine_s = layers::combine_s(batch as usize);

    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    m.set("simkit.shard.rounds", base.rounds as f64, "count");
    m.set(
        "simkit.shard.events_per_round",
        per(base.events as f64, base.rounds),
        "events",
    );
    m.set("simkit.shard.barrier_us", shard.barrier_s * 1e6, "us");
    m.set(
        "simkit.shard.event_ns",
        per(base.wall_1t_s * 1e9, base.events),
        "ns",
    );
    m.set("simkit.shard.engine_event_ns", shard.event_s * 1e9, "ns");
    let speedup = if base.rounds > 0 {
        base.wall_1t_s / base.wall_s
    } else {
        0.0
    };
    m.set("simkit.shard.speedup", speedup, "ratio");
    m.set("simkit.shard.imbalance", base.imbalance, "events");
    m.set("simkit.sim.events", base.sim_events as f64, "count");
    m.set(
        "simkit.sim.event_ns",
        per(base.wall_s * 1e9, base.sim_events),
        "ns",
    );
    m.set("simkit.sim.dispatch_ns", dispatch_s * 1e9, "ns");
    m.set("brokerd.node.publish_ns", node.publish_s * 1e9, "ns");
    m.set("brokerd.node.drain_ns", node.drain_s * 1e9, "ns");
    m.set("brokerd.node.fanout", node.fanout, "ratio");
    m.set("brokerd.node.admit_ratio", node.admit_ratio, "ratio");
    m.set("brokerd.wire.encode_ns", encode_s * 1e9, "ns");
    m.set("brokerd.wire.decode_ns", decode_s * 1e9, "ns");
    m.set("brokerd.wire.frame_bytes", frame_bytes, "bytes");
    let ping_ms = median(&ping);
    m.set("brokerd.net.ping_rtt_ms", ping_ms, "ms");
    m.set("tracekit.spans_per_kevent", spans_per_kevent, "count");
    m.set("tracekit.overhead", trace_ratio, "ratio");
    m.set("core.query.parse_ns", parse_s * 1e9, "ns");
    m.set("core.factory.submit_us", submit_us, "us");
    m.set("core.merge.try_merge_ns", merge_s * 1e9, "ns");
    m.set(
        "core.merge.queries_per_provider",
        per(prov.initial_queries as f64, prov.providers),
        "ratio",
    );
    m.set("core.predicate.eval_ns", eval_s * 1e9, "ns");
    m.set("core.aggregator.combine_ns", combine_s * 1e9, "ns");
    m.set("core.vocab.intern_ns", intern_s * 1e9, "ns");
    m.set("core.vocab.sym_cmp_ns", cmp_s * 1e9, "ns");
    m.set("fuego.xml.to_xml_ns", to_xml_s * 1e9, "ns");
    m.set("fuego.xml.parse_ns", xml_parse_s * 1e9, "ns");
    m.set("fuego.xml.envelope_bytes", envelope_bytes, "bytes");
    // A failed output check counts as a failed operation too.
    m.set(
        "error_rate",
        per(
            (base.errors.0 + o.failed) as f64,
            base.errors.1 + o.attempted,
        ),
        "ratio",
    );
    m.set(
        "bench.trace_overhead",
        if base.items_per_s > 0.0 {
            traced.items_per_s / base.items_per_s
        } else {
            0.0
        },
        "ratio",
    );

    // Attribution: unit cost × exact operation count, in seconds.
    let mut secs: Vec<(&str, f64)> = Vec::new();
    match name {
        "fleet" => {
            if let Some(f) = &base.fleet {
                // Every `BrokerNode::publish` call the fleet reports: acked
                // and refused device publishes, and federation forwards.
                // Interning the type is part of `publish`, and the replay
                // samples no traces, so `core.vocab` and `tracekit` are
                // not counted inside `brokerd.node`.
                let publishes = (f.acked + f.shed + f.unattributed + f.forwarded) as f64;
                let drained = if node.fanout > 0.0 {
                    f.delivered as f64 / node.fanout
                } else {
                    0.0
                };
                secs.push((
                    "simkit.shard",
                    base.rounds as f64 * shard.barrier_s + base.events as f64 * shard.event_s,
                ));
                secs.push((
                    "brokerd.node",
                    publishes * node.publish_s + drained * node.drain_s,
                ));
                secs.push(("tracekit", f.trace_spans as f64 * span_s));
            }
        }
        "provisioning" => {
            let submits = prov.submits as f64;
            let query = submits * parse_s;
            let merges = submits * merge_s;
            secs.push(("core.query", query));
            secs.push(("core.merge", merges));
            secs.push((
                "core.factory",
                (submits * submit_us * 1e-6 - query - merges).max(0.0),
            ));
            secs.push(("simkit.sim", base.sim_events as f64 * dispatch_s));
            secs.push(("core.predicate", (prov_size.phones * polls) as f64 * eval_s));
            secs.push(("core.aggregator", prov.combines as f64 * combine_s));
            let envelopes = obs.counter("fuego_requests")
                + obs.counter("fuego_responses")
                + obs.counter("fuego_publishes");
            secs.push(("fuego.xml", envelopes as f64 * (to_xml_s + xml_parse_s)));
            o.notes
                .push(format!("fuego envelopes (traced run): {envelopes}"));
        }
        "broker_tcp" => {
            if let Some(t) = &base.tcp {
                secs.push(("brokerd.net", t.requests as f64 * ping_ms * 1e-3));
                secs.push(("brokerd.wire", t.frames as f64 * (encode_s + decode_s)));
                secs.push((
                    "brokerd.node",
                    2.0 * t.pubs as f64 * (node.publish_s + node.drain_s),
                ));
            }
        }
        _ => {}
    }
    let wall = base.wall_s.max(1e-9);
    let mut explained = 0.0;
    for layer in LAYERS {
        let s = secs
            .iter()
            .filter(|(l, _)| *l == layer)
            .fold(0.0, |acc, (_, s)| acc + s);
        explained += s / wall;
        m.set(&format!("share.{layer}"), s / wall, "ratio");
    }
    m.set("explained_share", explained, "ratio");
    o.notes.push(format!(
        "attribution of {wall:.4} s wall: explained {:.1} %",
        explained * 100.0
    ));
    for (layer, s) in &secs {
        o.notes.push(format!(
            "  {layer:<16} {:>8.4} s  {:>6.1} %",
            s,
            s / wall * 100.0
        ));
    }
}
