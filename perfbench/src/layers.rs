//! Per-layer unit costs, each measured from outside the layer through
//! its public functions on the workloads' own seeded inputs. Multiplied
//! by a workload's exact operation counts they attribute its wall time
//! (see `layer_metrics` in `runs.rs`).

use crate::broker_tcp::{self, Kind, Mix};
use crate::common::{median, timed, Gen, Tracer};
use crate::provisioning;
use brokerd::{BrokerId, BrokerNode, ContextPacket, Effect, NodeConfig, PacketSeq, SubMode};
use brokerd::{FleetConfig, FleetOutcome};
use brokerd::{Request, Response};
use contory::query::{CxtQuery, QueryMode};
use contory::vocab::Interner;
use contory::{merge, AggregationStrategy, CxtAggregator, CxtItem, CxtValue, EventWindow};
use fuego::compat::{envelope_for_packet, PacketFields};
use fuego::xml::XmlElement;
use simkit::{ActorId, ShardConfig, ShardSim, Sim, SimDuration, SimTime};
use std::hint::black_box;

/// Median of `reps` timings of `f`, in seconds.
fn best_of<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&xs)
}

/// `ShardSim` cost: wall seconds per round of near-empty rounds (one
/// event per shard per round), and engine-only ns per event of dense
/// rounds at one thread (`per_shard` events per shard per round).
pub struct ShardCost {
    /// Seconds per near-empty round at the requested thread count.
    pub barrier_s: f64,
    /// Engine seconds per event (dense rounds, one thread, barrier
    /// cost removed).
    pub event_s: f64,
}

/// Runs `rounds` rounds of a ring of `shards * per_shard` actors, each
/// event forwarding one message to the next actor 1 µs later.
fn ring(shards: u32, threads: u32, per_shard: u64, rounds: u64) -> (f64, u64) {
    let actors = u64::from(shards) * per_shard;
    let mut sim = ShardSim::new(
        ShardConfig {
            seed: 1,
            shards,
            threads,
            record_transcript: false,
        },
        move |n: &mut u64, ctx: &mut simkit::EventCtx<'_, ()>, ()| {
            *n += 1;
            let next = ActorId((ctx.actor().0 + 1) % actors);
            ctx.send(next, SimDuration::from_micros(1), ());
        },
    );
    for a in 0..actors {
        sim.add_actor(ActorId(a), 0u64);
        let _ = sim.schedule(ActorId(a), SimTime::ZERO, ());
    }
    let ((), wall) = timed(|| sim.run_until(SimTime::from_micros(rounds - 1)));
    (wall, sim.events_processed())
}

/// Measures the shard engine at `shards` shards and `threads` threads.
pub fn shard_cost(shards: u32, threads: u32) -> ShardCost {
    let rounds = 1_000;
    let barrier = |threads| {
        median(
            &(0..3)
                .map(|_| ring(shards, threads, 1, rounds).0 / rounds as f64)
                .collect::<Vec<_>>(),
        )
    };
    let barrier_s = barrier(threads);
    let barrier_1t = barrier(1);
    let dense_rounds = 100;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (wall, events) = ring(shards, 1, 256, dense_rounds);
            (wall - barrier_1t * dense_rounds as f64).max(0.0) / events as f64
        })
        .collect();
    ShardCost {
        barrier_s,
        event_s: median(&samples),
    }
}

/// Classic `Sim` dispatch cost: seconds per no-op event.
pub fn sim_dispatch_s() -> f64 {
    let n = 200_000u64;
    let per = |_: ()| {
        let sim = Sim::new();
        for i in 0..n {
            sim.schedule_in(SimDuration::from_micros(i % 997), || {});
        }
        timed(|| sim.run_until_idle()).1 / n as f64
    };
    median(&(0..3).map(|_| per(())).collect::<Vec<_>>())
}

/// One broker's traffic, replayed through a standalone `BrokerNode`: its
/// subscribers, the devices publishing to it directly, the devices whose
/// publishes reach it as federation forwards, and how many of each
/// arrive per drain tick.
pub struct NodeShape {
    /// `(subscriber, type, mode)` of every subscription.
    subs: Vec<(u64, String, SubMode)>,
    /// `(device, type)` of the devices publishing here.
    local: Vec<(u64, String)>,
    /// `(device, type, home broker)` of the devices publishing elsewhere.
    remote: Vec<(u64, String, BrokerId)>,
    /// Device publishes per drain tick.
    local_per_tick: u64,
    /// Federation forwards per drain tick.
    forwards_per_tick: u64,
    /// Drain ticks replayed.
    ticks: u64,
    /// Drain cadence.
    tick: SimDuration,
    /// Broker count (this node is broker 0; the rest are its peers).
    brokers: u16,
    /// Broker tunables.
    node: NodeConfig,
}

impl NodeShape {
    /// Broker 0 of the fleet `cfg`: its home devices subscribe and
    /// publish there (type and mode by device id, as the fleet assigns
    /// them), and publishes and forwards arrive at the rates the run
    /// `out` reports per live broker and drain tick, one broker being
    /// down for the last `down_s` simulated seconds.
    pub fn fleet(cfg: &FleetConfig, out: &FleetOutcome, down_s: u64) -> NodeShape {
        let brokers = u64::from(cfg.brokers.max(1));
        let tick_us = cfg.drain_every.as_micros().max(1);
        let ticks = cfg.run_for.as_micros() / tick_us;
        let live = (brokers * ticks)
            .saturating_sub(down_s * 1_000_000 / tick_us)
            .max(1);
        let per_tick = |n: u64| (n + live / 2) / live;
        let types = u64::from(brokerd::fleet::FLEET_TYPES);
        let mut shape = NodeShape {
            subs: Vec::new(),
            local: Vec::new(),
            remote: Vec::new(),
            local_per_tick: per_tick(out.acked + out.shed + out.unattributed).max(1),
            forwards_per_tick: per_tick(out.forwarded),
            ticks,
            tick: cfg.drain_every,
            brokers: cfg.brokers.max(1),
            node: cfg.node.clone(),
        };
        for d in 0..cfg.devices {
            // Device actors follow the broker actors.
            let id = brokers + d;
            let ty = format!("ctx{:02}", d % types);
            let home = d % brokers;
            if home == 0 {
                let mode = match d % 3 {
                    0 => SubMode::Periodic(cfg.publish_period),
                    1 => SubMode::Event,
                    _ => SubMode::OneShot,
                };
                shape.subs.push((id, ty.clone(), mode));
                shape.local.push((id, ty));
            } else {
                shape.remote.push((id, ty, BrokerId(home as u16)));
            }
        }
        shape
    }

    /// Broker A of `broker_tcp`: event subscriptions on half the mix's
    /// types, and one publish per request from any type, each drained
    /// at once as the server's pump does.
    pub fn tcp() -> NodeShape {
        let ty = |t: u64| format!("ctx{t:02}");
        NodeShape {
            subs: (0..broker_tcp::TYPES / 2)
                .map(|t| (t, ty(t), SubMode::Event))
                .collect(),
            local: (0..broker_tcp::TYPES).map(|t| (t % 7, ty(t))).collect(),
            remote: Vec::new(),
            local_per_tick: 1,
            forwards_per_tick: 0,
            ticks: 20_000,
            tick: SimDuration::from_millis(1),
            brokers: 2,
            node: NodeConfig::default(),
        }
    }
}

impl std::fmt::Display for NodeShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} subscribers, {} publishes + {} forwards per tick, {} ticks",
            self.subs.len(),
            self.local_per_tick,
            self.forwards_per_tick,
            self.ticks
        )
    }
}

/// What [`node_cost`] measures.
pub struct NodeCost {
    /// Seconds per `publish` call.
    pub publish_s: f64,
    /// Seconds per packet drained (`drain` + `periodic_fire`).
    pub drain_s: f64,
    /// Deliver effects per drained packet.
    pub fanout: f64,
    /// Admitted publishes over offered publishes.
    pub admit_ratio: f64,
}

/// Replays `shape` through a standalone `BrokerNode` with trace sampling
/// off (the fleet attributes tracing separately) and measures
/// [`NodeCost`]; `seed` draws which device sends each packet.
pub fn node_cost(seed: u64, shape: &NodeShape) -> NodeCost {
    let mut g = Gen::new(seed, 0x40de);
    let cfg = NodeConfig {
        trace_sample_log2: 60,
        ..shape.node.clone()
    };
    let mut node = BrokerNode::new(BrokerId(0), cfg);
    for p in 1..shape.brokers {
        node.peers_mut()
            .introduce(BrokerId(p), 5_000 * u64::from(p), SimTime::ZERO);
    }
    let far = SimTime::ZERO + shape.tick * (shape.ticks + 1) * 2;
    for (d, ty, mode) in &shape.subs {
        node.subscribe(*d, ty, *mode, far, SimTime::ZERO);
    }
    let lifetime = SimDuration::from_secs(30);
    let packet = |(origin, ty): (u64, &str), now, seq| {
        ContextPacket::new(
            ty,
            (origin % 1000) as i64 * 10,
            now,
            lifetime,
            format!("dev{origin}"),
        )
        .with_seq(PacketSeq::new(origin, seq))
    };
    let (mut publish_s, mut drain_s) = (0.0, 0.0);
    let (mut offered, mut admitted, mut drained, mut delivered) = (0u64, 0u64, 0u64, 0u64);
    let mut seq = 0;
    for tick in 1..=shape.ticks {
        let now = SimTime::ZERO + shape.tick * tick;
        let mut packets: Vec<ContextPacket> = Vec::new();
        for _ in 0..shape.local_per_tick {
            if let Some((d, ty)) = shape.local.get(g.below(shape.local.len() as u64) as usize) {
                seq += 1;
                packets.push(packet((*d, ty), now, seq));
            }
        }
        for _ in 0..shape.forwards_per_tick {
            let pick = g.below(shape.remote.len() as u64) as usize;
            if let Some((d, ty, home)) = shape.remote.get(pick) {
                seq += 1;
                packets.push(packet((*d, ty), now, seq).with_hop(*home));
            }
        }
        let before = node.stats().admission.admitted;
        offered += packets.len() as u64;
        let ((), s) = timed(|| {
            for p in packets {
                let _ = black_box(node.publish(p, now));
            }
        });
        publish_s += s;
        admitted += node.stats().admission.admitted - before;
        let depth = node.queue_depth();
        let (effects, s) = timed(|| {
            let mut e = node.drain(now);
            e.extend(node.periodic_fire(now));
            e
        });
        drain_s += s;
        drained += (depth - node.queue_depth()) as u64;
        for e in &effects {
            match e {
                Effect::Deliver { .. } => delivered += 1,
                // The peer takes every forward at once, as a live fleet
                // broker acks it.
                Effect::Forward { fwd_id, .. } => {
                    node.fwd_ack(*fwd_id);
                }
            }
        }
    }
    NodeCost {
        publish_s: publish_s / offered as f64,
        drain_s: drain_s / drained.max(1) as f64,
        fanout: delivered as f64 / drained.max(1) as f64,
        admit_ratio: admitted as f64 / offered as f64,
    }
}

/// `brokerd::wire` on broker_tcp's own frames: seconds per encode and
/// per decode, and mean frame bytes (newline included).
pub fn wire_cost(seed: u64) -> (f64, f64, f64) {
    let mut mix = Mix::new(seed);
    let mut reqs = Vec::new();
    let mut resps = Vec::new();
    for n in 0..2_000u64 {
        let (kind, t, v) = mix.next();
        let now = SimTime::from_micros(1_000 * (n + 2));
        let packet = ContextPacket::new(
            format!("ctx{t:02}"),
            v,
            now,
            SimDuration::from_secs(3_600),
            format!("dev{}", t % 7),
        )
        .with_seq(PacketSeq::new(7, n + 1));
        match kind {
            Kind::Pub => {
                reqs.push(Request::Pub(packet.clone()));
                resps.push(Response::Ok("pub".into()));
                if t < broker_tcp::TYPES / 2 {
                    resps.push(Response::Evt {
                        sub: brokerd::SubId(t),
                        packet,
                    });
                }
            }
            Kind::Fetch => {
                reqs.push(Request::Fetch {
                    type_name: format!("ctx{t:02}"),
                    now,
                });
                resps.push(Response::Evt {
                    sub: brokerd::net::FETCH_SUB,
                    packet,
                });
            }
            Kind::Ping => {
                reqs.push(Request::Ping(now));
                resps.push(Response::Pong(now));
            }
        }
    }
    let frames = (reqs.len() + resps.len()) as f64;
    let encode = || {
        let a: Vec<String> = reqs.iter().filter_map(|r| r.encode().ok()).collect();
        let b: Vec<String> = resps.iter().filter_map(|r| r.encode().ok()).collect();
        (a, b)
    };
    let (lines_req, lines_resp) = encode();
    let bytes: usize = lines_req
        .iter()
        .chain(&lines_resp)
        .map(|l| l.len() + 1)
        .sum();
    let encode_s = best_of(5, encode) / frames;
    let decode_s = best_of(5, || {
        let a = lines_req
            .iter()
            .filter(|l| Request::decode(l).is_ok())
            .count();
        let b = lines_resp
            .iter()
            .filter(|l| Response::decode(l).is_ok())
            .count();
        a + b
    }) / frames;
    (encode_s, decode_s, bytes as f64 / frames)
}

/// `brokerd::net` PING round trips on a fresh server, ms.
pub fn ping_ms(n: usize) -> Result<Vec<f64>, String> {
    let tr = Tracer::new(false);
    let server = brokerd::net::BrokerServer::spawn(BrokerId(9), NodeConfig::default())
        .map_err(|e| e.to_string())?;
    let mut c = broker_tcp::Client::connect(&server).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for i in 0..n {
        let (resp, s) = timed(|| c.call(&Request::Ping(SimTime::from_millis(i as u64)), &tr));
        match resp {
            Ok(Response::Pong(_)) => out.push(s * 1e3),
            other => return Err(format!("PING answered {other:?}")),
        }
    }
    Ok(out)
}

/// The tracing plane: a small fleet at full trace sampling against the
/// same fleet with none. Returns `(spans per 1000 events, wall ratio
/// full/none, seconds per span)`.
pub fn trace_cost(seed: u64) -> (f64, f64, f64) {
    let mut full = crate::fleet::config(seed, crate::fleet::TOY, 1);
    full.devices = 1_000;
    full.run_for = SimDuration::from_secs(10);
    full.node.trace_sample_log2 = 0;
    let mut none = full.clone();
    none.node.trace_sample_log2 = 60;
    let mut ratios = Vec::new();
    let mut per_span = Vec::new();
    let mut spans_per_kevent = 0.0;
    for _ in 0..3 {
        let (a, wa) = timed(|| brokerd::run_fleet(&full));
        let (b, wb) = timed(|| brokerd::run_fleet(&none));
        spans_per_kevent = (a.trace_spans * 1_000 / a.events.max(1)) as f64;
        ratios.push(wa / wb);
        let extra_spans = a.trace_spans.saturating_sub(b.trace_spans).max(1);
        per_span.push((wa - wb).max(0.0) / extra_spans as f64);
    }
    (spans_per_kevent, median(&ratios), median(&per_span))
}

/// `CxtQuery::parse` on provisioning's CQL texts: seconds per parse.
pub fn parse_s(texts: &[String]) -> f64 {
    best_of(5, || {
        (0..20)
            .flat_map(|_| texts.iter())
            .filter(|t| CxtQuery::parse(t).is_ok())
            .count()
    }) / (20 * texts.len()) as f64
}

/// `merge::try_merge` over every ordered pair of provisioning's queries
/// (seconds per call), plus `post_extract` of a 16-item batch per pair.
pub fn merge_s(texts: &[String]) -> f64 {
    let qs: Vec<CxtQuery> = texts
        .iter()
        .filter_map(|t| CxtQuery::parse(t).ok())
        .collect();
    let now = SimTime::from_secs(60);
    let items: Vec<CxtItem> = (0..16)
        .map(|i| {
            CxtItem::new(
                "temperature",
                CxtValue::quantity(10.0 + f64::from(i), "C"),
                SimTime::from_secs(50),
            )
            .with_accuracy(0.2)
        })
        .collect();
    let calls = qs.len() * qs.len();
    best_of(5, || {
        let mut merged = 0;
        for a in &qs {
            for b in &qs {
                if let Some(m) = merge::try_merge(a, b) {
                    merged += merge::post_extract(b, &items, now).len();
                    black_box(m);
                }
            }
        }
        merged
    }) / calls as f64
}

/// `EventWindow::eval` on the run's EVENT expressions, averaged over the
/// window sizes a run reaches (one sample per 5 s poll, `window` polls).
pub fn eval_s(texts: &[String], window: usize) -> f64 {
    let exprs: Vec<_> = texts
        .iter()
        .filter_map(|t| CxtQuery::parse(t).ok())
        .filter_map(|q| match q.mode {
            QueryMode::Event(e) => Some(e),
            _ => None,
        })
        .collect();
    let Some(expr) = exprs.first() else {
        return 0.0;
    };
    best_of(3, || {
        let mut w = EventWindow::new();
        let mut fired = 0;
        for i in 0..window {
            w.push(CxtItem::new(
                "temperature",
                CxtValue::quantity(8.0 + (i % 7) as f64, "C"),
                SimTime::from_secs(5 * i as u64),
            ));
            fired += usize::from(w.eval(expr));
        }
        fired
    }) / window as f64
}

/// `CxtAggregator::combine` (Average) on batches of `batch` items.
pub fn combine_s(batch: usize) -> f64 {
    let items: Vec<CxtItem> = (0..batch.max(1))
        .map(|i| {
            CxtItem::new(
                "temperature",
                CxtValue::quantity(10.0 + i as f64, "C"),
                SimTime::from_secs(i as u64),
            )
            .with_accuracy(0.2)
        })
        .collect();
    let agg = CxtAggregator::new();
    let reps = 2_000;
    best_of(5, || {
        (0..reps)
            .filter(|_| {
                agg.combine(&items, AggregationStrategy::Average, SimTime::from_secs(60))
                    .is_some()
            })
            .count()
    }) / reps as f64
}

/// `core::vocab` on the fleet's 64 types: seconds per `intern` of a
/// known name and per `Sym` compare.
pub fn vocab_s(seed: u64) -> (f64, f64) {
    let names: Vec<String> = (0..64).map(|i| format!("ctx{i:02}")).collect();
    let mut tab = Interner::new();
    let syms: Vec<_> = names.iter().map(|n| tab.intern(n)).collect();
    let reps = 200;
    let intern_s = best_of(5, || {
        let mut acc = 0u32;
        for _ in 0..reps {
            for n in &names {
                acc = acc.wrapping_add(u32::from(tab.intern(black_box(n)).0));
            }
        }
        acc
    }) / (reps * names.len()) as f64;
    let mut g = Gen::new(seed, 0x5e);
    let pairs: Vec<_> = (0..100_000)
        .map(|_| (syms[g.below(64) as usize], syms[g.below(64) as usize]))
        .collect();
    let cmp_s = best_of(5, || {
        pairs
            .iter()
            .filter(|(a, b)| black_box(*a) == black_box(*b))
            .count()
    }) / pairs.len() as f64;
    (intern_s, cmp_s)
}

/// fuego XML on UMTS envelopes shaped like provisioning's weather-station
/// items: seconds per `to_xml`, per `parse`, and the envelope bytes.
pub fn xml_s(seed: u64) -> (f64, f64, f64) {
    let mut g = Gen::new(seed, 0x3a1);
    let envelopes: Vec<XmlElement> = (0..200u64)
        .map(|i| {
            let at = SimTime::from_secs(60 * i);
            let f = PacketFields {
                type_name: if i % 2 == 0 { "wind" } else { "temperature" },
                value_milli: g.below(40_000) as i64,
                published_at: at,
                expires_at: at + SimDuration::from_secs(600),
                source: "station://fmi-harmaja",
                hops: &[],
                trace: None,
            };
            envelope_for_packet(&f, i)
        })
        .collect();
    let texts: Vec<String> = envelopes.iter().map(XmlElement::to_xml).collect();
    let n = envelopes.len() as f64;
    let to_xml = best_of(5, || {
        envelopes.iter().map(|e| e.to_xml().len()).sum::<usize>()
    }) / n;
    let parse = best_of(5, || {
        texts
            .iter()
            .filter(|t| XmlElement::parse(t).is_ok())
            .count()
    }) / n;
    let bytes = texts.first().map_or(0, String::len) as f64;
    (to_xml, parse, bytes)
}

/// Provisioning's CQL texts for `seed` (every query plus the one-shot).
pub fn cql_texts(seed: u64) -> Vec<String> {
    let mut texts = provisioning::query_texts(seed, provisioning::FULL);
    texts.push(provisioning::ONE_SHOT.to_owned());
    texts
}
