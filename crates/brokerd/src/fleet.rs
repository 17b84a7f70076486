//! The sharded-simulation harness: a federated broker fleet plus a
//! device population as [`ShardSim`] actors.
//!
//! Brokers and devices are actors; every interaction — publish, ack,
//! delivery, federation forward, gossip — is a cross-actor message, so
//! the engine's partition-independent ordering makes a whole fleet run
//! **byte-identical across physical shard counts and worker-thread
//! counts**. The [`FleetOutcome::report`] string is the identity
//! witness; `broker_load` gates on it and `tests/fleet_determinism.rs`
//! checks the {1,4}-shard × thread matrix.
//!
//! Fault edges come from [`simkit::faults::FaultPlan`] (target label
//! `broker:<id>`): a killed broker stops acking, draining and gossiping;
//! its publishers miss acks and deterministically re-home to the next
//! broker, and its peers see its digests go stale. No wall clock, no
//! floats, no unordered maps anywhere on this path.

use crate::dedup::{DedupWindow, SeqVerdict};
use crate::federation::LoadDigest;
use crate::node::{BrokerNode, DirEntry, Effect, NodeConfig, NodeStats};
use crate::packet::{BrokerId, ContextPacket, PacketSeq};
use crate::table::SubMode;
use obskit::Histogram;
use simkit::faults::{FaultPlan, LinkChaos, LinkFault};
use simkit::shard::{ActorId, EngineProfile, EventCtx, ShardConfig, ShardSim};
use simkit::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use tracekit::{Stage, TraceCtx, TraceLog};

/// Number of distinct context types the fleet publishes.
pub const FLEET_TYPES: u16 = 64;

/// Missed acks before a publisher re-homes to the next broker.
const REHOME_AFTER_MISSES: u32 = 2;

/// Lifetime stamped on every published packet.
const LIFETIME: SimDuration = SimDuration::from_secs(30);
/// Broker sweep cadence.
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(10);
/// Broker gossip cadence.
const GOSSIP_EVERY: SimDuration = SimDuration::from_secs(5);

/// Fleet scenario configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Master seed.
    pub seed: u64,
    /// Broker count (≥ 1).
    pub brokers: u16,
    /// Device count.
    pub devices: u64,
    /// Physical shard count of the engine.
    pub shards: u32,
    /// Worker threads.
    pub threads: u32,
    /// Virtual duration of the run.
    pub run_for: SimDuration,
    /// Device publish cadence (jittered ±25 % per device).
    pub publish_period: SimDuration,
    /// Broker drain cadence.
    pub drain_every: SimDuration,
    /// Broker tunables (trace sampling, forward retries).
    pub node: NodeConfig,
    /// Scripted up/down edges `(broker, at, up)`; build with
    /// [`fault_edges`].
    pub fault_edges: Vec<(u16, SimTime, bool)>,
    /// Crash-*restart* instants `(broker, at)`; build with
    /// [`restart_edges`]. An up edge that coincides with a restart
    /// instant boots a **fresh** node (state wiped) instead of merely
    /// flipping liveness back on.
    pub restarts: Vec<(u16, SimTime)>,
    /// Per-federation-link chaos `(from, to, fault)`; build with
    /// [`link_faults`]. Links not listed here are lossless.
    pub link_faults: Vec<(u16, u16, LinkFault)>,
    /// When link chaos switches off (`None` = lossy for the whole
    /// run). Convergence assertions need a few lossless gossip rounds
    /// after the heal.
    pub chaos_until: Option<SimTime>,
    /// Broker-side lease length of device subscriptions (`None` =
    /// twice the run horizon, the legacy effectively-forever lease).
    pub sub_lease: Option<SimDuration>,
    /// Device lease-renewal cadence (`None` = no renewal — legacy).
    /// Renewal is what re-populates a crashed broker's table.
    pub resub_every: Option<SimDuration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            brokers: 4,
            devices: 1_000,
            shards: 1,
            threads: 1,
            run_for: SimDuration::from_secs(30),
            publish_period: SimDuration::from_secs(5),
            drain_every: SimDuration::from_millis(50),
            node: NodeConfig::default(),
            fault_edges: Vec::new(),
            restarts: Vec::new(),
            link_faults: Vec::new(),
            chaos_until: None,
            sub_lease: None,
            resub_every: None,
        }
    }
}

/// Extracts the fleet's fault edges from a [`FaultPlan`] using the
/// `broker:<id>` target convention.
pub fn fault_edges(plan: &FaultPlan, brokers: u16) -> Vec<(u16, SimTime, bool)> {
    let mut edges = Vec::new();
    for b in 0..brokers {
        for e in plan.edges(&format!("broker:{b}")) {
            edges.push((b, e.at, e.up));
        }
    }
    edges
}

/// Extracts the fleet's crash-restart instants from a [`FaultPlan`]
/// (targets `broker:<id>`, built with
/// [`FaultPlan::crash_restart`]).
pub fn restart_edges(plan: &FaultPlan, brokers: u16) -> Vec<(u16, SimTime)> {
    let mut edges = Vec::new();
    for b in 0..brokers {
        for at in plan.restarts(&format!("broker:{b}")) {
            edges.push((b, at));
        }
    }
    edges
}

/// Extracts per-federation-link chaos from a [`FaultPlan`] using the
/// `link:<from>-><to>` label convention (built with
/// [`FaultPlan::lossy_link`]).
pub fn link_faults(plan: &FaultPlan, brokers: u16) -> Vec<(u16, u16, LinkFault)> {
    let mut links = Vec::new();
    for from in 0..brokers {
        for to in 0..brokers {
            if from == to {
                continue;
            }
            if let Some(fault) = plan.link_fault(&link_label(from, to)) {
                links.push((from, to, fault));
            }
        }
    }
    links
}

/// Canonical label of the directed federation link `from -> to`, the
/// key both [`FaultPlan::lossy_link`] and the per-link chaos RNG
/// streams are salted with.
pub fn link_label(from: u16, to: u16) -> String {
    format!("link:{from}->{to}")
}

/// Events exchanged by fleet actors.
#[derive(Clone, Debug)]
pub enum FleetEvent {
    /// Device: subscribe and start the publish cadence.
    Start,
    /// Device: publish one packet to the home broker.
    PublishTick,
    /// Broker: a packet arrives (device publish or federation forward).
    Packet {
        /// The published packet.
        packet: ContextPacket,
        /// Publishing device actor for direct publishes (acked/nacked);
        /// `None` for unattributed transports. The transport knows its
        /// sender even when the packet itself lacks attribution.
        origin: Option<u64>,
    },
    /// Broker: a federation forward arrives over a (possibly lossy)
    /// inter-broker link.
    Fwd {
        /// The forwarded packet.
        packet: ContextPacket,
        /// Forwarding broker (where the ack goes).
        from: u16,
        /// Retry-tracking handle minted by the forwarder; `0` for
        /// fire-and-forget forwards (no ack expected).
        fwd_id: u64,
    },
    /// Broker: a peer acknowledged a tracked forward.
    FwdAck(u64),
    /// Broker: register a subscription.
    Sub {
        /// Subscribing device actor.
        subscriber: u64,
        /// Context type index.
        type_idx: u16,
        /// Delivery mode.
        mode: SubMode,
    },
    /// Broker: renew (or re-register) a subscription lease — the
    /// idempotent path devices use on their renewal cadence, and what
    /// re-populates a crashed broker's table after a restart.
    Renew {
        /// Subscribing device actor.
        subscriber: u64,
        /// Context type index.
        type_idx: u16,
        /// Delivery mode.
        mode: SubMode,
    },
    /// Broker: service the inbox and fire due periodic deliveries.
    DrainTick,
    /// Broker: expiry sweep.
    SweepTick,
    /// Broker: broadcast a load digest to peers.
    GossipTick,
    /// Broker: a peer's digest arrives.
    Digest(LoadDigest),
    /// Device: a delivery arrives.
    Delivery(ContextPacket),
    /// Device: the home broker admitted the last publish.
    Ack,
    /// Device: the home broker shed the last publish.
    Nack,
    /// Broker: scripted fault edge (`true` = back up).
    SetUp(bool),
    /// Broker: crash-restart recovery — boot a **fresh** node (table,
    /// inbox, dedup window, directory and pending forwards wiped; the
    /// run's ledger is carried outside the node).
    Restart,
    /// Device: renew the subscription lease with the home broker.
    ResubTick,
}

/// Per-device state.
struct DeviceState {
    home: u16,
    /// Where this device's *subscription* lives — fixed at start.
    /// Publishing re-homes after missed acks; the lease does not, so a
    /// device never holds live leases at two brokers (which would turn
    /// forwarded packets into duplicate deliveries).
    sub_home: u16,
    type_idx: u16,
    mode_tag: u8,
    published: u64,
    acked: u64,
    nacked: u64,
    received: u64,
    misses: u32,
    awaiting_ack: bool,
    rehomes: u64,
    fanout_us: Histogram,
    /// End-to-end idempotence witness: deliveries already seen, by
    /// `(origin, seq)`. Periodic re-delivery of retained context is
    /// intentional, so only event/one-shot devices consult it.
    dedup: DedupWindow,
    /// Sequenced deliveries that reached this device more than once —
    /// the chaos scenario pins this to exactly zero fleet-wide.
    dup_deliveries: u64,
    /// Device-side hop spans (publish roots, delivery terminals).
    /// Plain `Send` data: shard workers record locally, the fold below
    /// merges in actor order.
    trace: TraceLog,
}

/// Per-broker actor state: the pure node plus everything that must
/// survive a crash-restart of the node itself.
struct BrokerState {
    node: Box<BrokerNode>,
    alive: bool,
    /// Outbound link-chaos state, keyed by destination broker. Lives
    /// in the *sender's* actor state so every chaos decision is made
    /// in a partition-independent event context.
    chaos: BTreeMap<u16, LinkChaos>,
    /// Counters of dead incarnations (the process died; the run's
    /// ledger did not).
    carried: NodeStats,
    /// Trace spans of dead incarnations.
    carried_trace: TraceLog,
    restarts: u64,
}

/// Fleet actor: broker or device.
enum FleetActor {
    Broker(Box<BrokerState>),
    Device(Box<DeviceState>),
}

/// Field-wise sum of two [`NodeStats`] ledgers (used to fold a dead
/// incarnation's counters into the carried total).
fn fold_stats(into: &mut NodeStats, s: &NodeStats) {
    into.admission.admitted += s.admission.admitted;
    into.admission.shed += s.admission.shed;
    into.admission.unattributed += s.admission.unattributed;
    into.admission.expired += s.admission.expired;
    into.admission.blocked += s.admission.blocked;
    into.delivered += s.delivered;
    into.forwarded += s.forwarded;
    into.loops_dropped += s.loops_dropped;
    into.subs_expired += s.subs_expired;
    into.packets_expired += s.packets_expired;
    into.gossip_sent += s.gossip_sent;
    into.gossip_heard += s.gossip_heard;
    into.dedup_suppressed += s.dedup_suppressed;
    into.retries += s.retries;
    into.retry_exhausted += s.retry_exhausted;
    into.resubscriptions += s.resubscriptions;
    into.anti_entropy_rounds += s.anti_entropy_rounds;
}

/// A fresh broker node wired into the ring topology — used at setup
/// and again on every crash-restart.
fn fresh_node(b: u16, brokers: u16, cfg: &NodeConfig) -> BrokerNode {
    let mut node = BrokerNode::new(BrokerId(b), cfg.clone());
    for peer in 0..brokers {
        if peer != b {
            node.peers_mut().introduce(BrokerId(peer), 0, SimTime::ZERO);
        }
    }
    node
}

/// Sends `ev` to broker `to` over the sender's outbound link: through
/// the link's chaos state while chaos is active (possibly dropping,
/// duplicating, reordering or delaying it), verbatim otherwise.
fn send_link(
    chaos: &mut BTreeMap<u16, LinkChaos>,
    ctx: &mut EventCtx<'_, FleetEvent>,
    to: u16,
    base: SimDuration,
    ev: FleetEvent,
    chaos_until: Option<SimTime>,
) {
    let active = chaos_until.is_none_or(|t| ctx.now() < t);
    match chaos.get_mut(&to) {
        Some(link) if active => {
            for delay in link.decide() {
                ctx.send(broker_actor(to), base + delay, ev.clone());
            }
        }
        _ => ctx.send(broker_actor(to), base, ev),
    }
}

/// Deterministic aggregate of one fleet run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Packets devices attempted to publish.
    pub published: u64,
    /// Publishes acked by a live broker.
    pub acked: u64,
    /// Publishes shed by backpressure (nacked).
    pub shed: u64,
    /// Deliveries received by devices.
    pub delivered: u64,
    /// Federation forwards between brokers.
    pub forwarded: u64,
    /// Forwards suppressed by the loop guard.
    pub loops_dropped: u64,
    /// Load digests gossiped out to federation peers.
    pub gossip_sent: u64,
    /// Load digests heard from federation peers.
    pub gossip_heard: u64,
    /// Publishes refused for missing attribution.
    pub unattributed: u64,
    /// Subscriptions expired by sweeps.
    pub subs_expired: u64,
    /// Retained/queued packets expired.
    pub packets_expired: u64,
    /// Publisher re-homings after missed acks.
    pub rehomes: u64,
    /// Link-chaos: inter-broker sends dropped on the wire.
    pub packets_dropped: u64,
    /// Link-chaos: inter-broker sends duplicated on the wire.
    pub packets_duped: u64,
    /// Link-chaos: inter-broker sends pushed past a younger sibling.
    pub packets_reordered: u64,
    /// Link-chaos: inter-broker sends jittered (delay > 0).
    pub packets_delayed: u64,
    /// Federation forwards re-sent after an ack timeout.
    pub retries: u64,
    /// Federation forwards abandoned after the retry budget.
    pub retry_exhausted: u64,
    /// Duplicate publishes suppressed by broker dedup windows.
    pub dedup_suppressed: u64,
    /// Lease renewals brokers processed.
    pub resubscriptions: u64,
    /// Anti-entropy directory reconciliations across all brokers.
    pub anti_entropy_rounds: u64,
    /// Sequenced deliveries that reached a device more than once —
    /// the end-to-end idempotence violation count (chaos pins it 0).
    pub duplicate_deliveries: u64,
    /// Broker crash-restarts executed.
    pub restarts: u64,
    /// Post-run anti-entropy witness: every broker's directory entry
    /// for every other broker agrees (version *and* table digest).
    pub dir_converged: bool,
    /// Median fan-out latency (publish → device delivery), micros.
    pub p50_fanout_us: u64,
    /// p99 fan-out latency, micros.
    pub p99_fanout_us: u64,
    /// Engine events executed.
    pub events: u64,
    /// Cross-actor messages delivered.
    pub messages: u64,
    /// Engine transcript digest.
    pub digest: u64,
    /// Hop spans recorded across all actors (sampled traces only).
    pub trace_spans: u64,
    /// FNV digest of the canonical trace JSONL export.
    pub trace_digest: u64,
    /// The folded trace log itself (brokers then devices, actor-id
    /// order), ready for [`tracekit::assemble`]/[`tracekit::Breakup`].
    pub trace: TraceLog,
}

impl FleetOutcome {
    /// Shed rate in parts-per-million of offered publishes.
    pub fn shed_ppm(&self) -> u64 {
        if self.published == 0 {
            0
        } else {
            self.shed * 1_000_000 / self.published
        }
    }

    /// The byte-identity witness: every field, one line.
    pub fn report(&self) -> String {
        format!(
            "published={} acked={} shed={} delivered={} forwarded={} loops={} \
             gossip_sent={} gossip_heard={} \
             unattributed={} subs_expired={} packets_expired={} rehomes={} \
             dropped={} duped={} reordered={} delayed={} \
             retries={} retry_exhausted={} dedup_suppressed={} resubs={} \
             anti_entropy={} dup_deliveries={} restarts={} dir_converged={} \
             p50_us={} p99_us={} shed_ppm={} events={} messages={} digest={:016x} \
             trace_spans={} trace_digest={:016x}",
            self.published,
            self.acked,
            self.shed,
            self.delivered,
            self.forwarded,
            self.loops_dropped,
            self.gossip_sent,
            self.gossip_heard,
            self.unattributed,
            self.subs_expired,
            self.packets_expired,
            self.rehomes,
            self.packets_dropped,
            self.packets_duped,
            self.packets_reordered,
            self.packets_delayed,
            self.retries,
            self.retry_exhausted,
            self.dedup_suppressed,
            self.resubscriptions,
            self.anti_entropy_rounds,
            self.duplicate_deliveries,
            self.restarts,
            u8::from(self.dir_converged),
            self.p50_fanout_us,
            self.p99_fanout_us,
            self.shed_ppm(),
            self.events,
            self.messages,
            self.digest,
            self.trace_spans,
            self.trace_digest,
        )
    }
}

fn type_name(idx: u16) -> String {
    format!("ctx{idx:02}")
}

fn broker_actor(b: u16) -> ActorId {
    ActorId(u64::from(b))
}

/// Runs one fleet scenario to completion.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    run_fleet_profiled(cfg).0
}

/// Runs one fleet scenario and also returns the engine's self-profile
/// (per-shard event counts, queue peaks, merge-barrier imbalance).
/// The profile describes the physical layout and is deliberately kept
/// **outside** the equality-compared [`FleetOutcome`].
pub fn run_fleet_profiled(cfg: &FleetConfig) -> (FleetOutcome, EngineProfile) {
    let brokers = cfg.brokers.max(1);
    let node_cfg = cfg.node.clone();
    let restart_cfg = cfg.node.clone();
    let seed = cfg.seed;
    let trace_rate = cfg.node.trace_sample_log2;
    let publish_period = cfg.publish_period;
    let drain_every = cfg.drain_every;
    let horizon = cfg.run_for;
    let chaos_until = cfg.chaos_until;
    let sub_lease = cfg.sub_lease.unwrap_or(horizon + horizon);
    let resub_every = cfg.resub_every;

    let handler = move |actor: &mut FleetActor, ctx: &mut EventCtx<'_, FleetEvent>, ev: FleetEvent| {
        match (actor, ev) {
            // ---------------- broker side ----------------
            (FleetActor::Broker(st), ev) => match ev {
                FleetEvent::Sub {
                    subscriber,
                    type_idx,
                    mode,
                } => {
                    st.node.subscribe(
                        subscriber,
                        &type_name(type_idx),
                        mode,
                        ctx.now() + sub_lease,
                        ctx.now(),
                    );
                }
                FleetEvent::Renew {
                    subscriber,
                    type_idx,
                    mode,
                } => {
                    if st.alive {
                        st.node.subscribe_renewing(
                            subscriber,
                            &type_name(type_idx),
                            mode,
                            ctx.now() + sub_lease,
                            ctx.now(),
                        );
                    }
                }
                FleetEvent::Packet { packet, origin } => {
                    if !st.alive {
                        return; // down: no ack, publisher times out
                    }
                    let origin = origin.map(ActorId);
                    // Duplicate admits are acked positively too — an
                    // at-least-once sender must stop retrying.
                    match st.node.publish(packet, ctx.now()) {
                        Ok(_) => {
                            if let Some(dev) = origin {
                                ctx.send(dev, SimDuration::from_millis(2), FleetEvent::Ack);
                            }
                        }
                        Err(_) => {
                            if let Some(dev) = origin {
                                ctx.send(dev, SimDuration::from_millis(2), FleetEvent::Nack);
                            }
                        }
                    }
                }
                FleetEvent::Fwd {
                    packet,
                    from,
                    fwd_id,
                } => {
                    if !st.alive {
                        return; // dropped on the floor; the sender retries
                    }
                    // Fresh *and* duplicate admits ack (idempotent
                    // at-least-once); sheds stay silent so the
                    // sender's retry clock keeps running.
                    if st.node.publish(packet, ctx.now()).is_ok() && fwd_id != 0 {
                        send_link(
                            &mut st.chaos,
                            ctx,
                            from,
                            SimDuration::from_millis(10),
                            FleetEvent::FwdAck(fwd_id),
                            chaos_until,
                        );
                    }
                }
                FleetEvent::FwdAck(fwd_id) => {
                    if st.alive {
                        st.node.fwd_ack(fwd_id);
                    }
                }
                FleetEvent::DrainTick => {
                    if st.alive {
                        let me = st.node.id().0;
                        let mut effects = st.node.drain(ctx.now());
                        effects.extend(st.node.periodic_fire(ctx.now()));
                        effects.extend(st.node.fwd_retries_due(ctx.now()));
                        for e in effects {
                            match e {
                                Effect::Deliver {
                                    subscriber, packet, ..
                                } => ctx.send(
                                    ActorId(subscriber),
                                    SimDuration::from_millis(5),
                                    FleetEvent::Delivery(packet),
                                ),
                                Effect::Forward { to, packet, fwd_id } => send_link(
                                    &mut st.chaos,
                                    ctx,
                                    to.0,
                                    SimDuration::from_millis(10),
                                    FleetEvent::Fwd {
                                        packet,
                                        from: me,
                                        fwd_id,
                                    },
                                    chaos_until,
                                ),
                            }
                        }
                    }
                    ctx.schedule_self(drain_every, FleetEvent::DrainTick);
                }
                FleetEvent::SweepTick => {
                    if st.alive {
                        st.node.sweep(ctx.now());
                    }
                    ctx.schedule_self(SWEEP_EVERY, FleetEvent::SweepTick);
                }
                FleetEvent::GossipTick => {
                    if st.alive {
                        let digest = st.node.gossip_digest(ctx.now());
                        for peer in st.node.peers().brokers() {
                            send_link(
                                &mut st.chaos,
                                ctx,
                                peer.0,
                                SimDuration::from_millis(10),
                                FleetEvent::Digest(digest),
                                chaos_until,
                            );
                        }
                    }
                    ctx.schedule_self(GOSSIP_EVERY, FleetEvent::GossipTick);
                }
                FleetEvent::Digest(d) => {
                    if st.alive {
                        st.node.hear_gossip(&d, ctx.now());
                    }
                }
                FleetEvent::SetUp(up) => {
                    st.alive = up;
                    ctx.emit(format!(
                        "broker{} {}",
                        st.node.id().0,
                        if up { "up" } else { "down" }
                    ));
                }
                FleetEvent::Restart => {
                    // The process died; the run's ledger did not. Fold
                    // the dead incarnation's counters and spans, then
                    // boot a fresh node into the same ring slot. Its
                    // table re-fills from lease renewals, its
                    // directory from anti-entropy gossip.
                    fold_stats(&mut st.carried, st.node.stats());
                    st.carried_trace.merge(st.node.trace_log());
                    let b = st.node.id().0;
                    *st.node = fresh_node(b, brokers, &restart_cfg);
                    st.alive = true;
                    st.restarts += 1;
                    st.node.note_recovery(ctx.now());
                    ctx.emit(format!("broker{b} restarted"));
                }
                _ => {}
            },
            // ---------------- device side ----------------
            (FleetActor::Device(dev), ev) => match ev {
                FleetEvent::Start => {
                    let mode = match dev.mode_tag {
                        0 => SubMode::Periodic(publish_period),
                        1 => SubMode::Event,
                        _ => SubMode::OneShot,
                    };
                    ctx.send(
                        broker_actor(dev.sub_home),
                        SimDuration::from_millis(2),
                        FleetEvent::Sub {
                            subscriber: ctx.actor().0,
                            type_idx: dev.type_idx,
                            mode,
                        },
                    );
                    let jitter = ctx.rng().jitter(publish_period, 0.25);
                    ctx.schedule_self(jitter, FleetEvent::PublishTick);
                    if let Some(every) = resub_every {
                        let jitter = ctx.rng().jitter(every, 0.25);
                        ctx.schedule_self(jitter, FleetEvent::ResubTick);
                    }
                }
                FleetEvent::ResubTick => {
                    let mode = match dev.mode_tag {
                        0 => SubMode::Periodic(publish_period),
                        1 => SubMode::Event,
                        _ => SubMode::OneShot,
                    };
                    // Renewal goes to the *subscription* home — fixed
                    // for the device's lifetime — which is also what
                    // re-registers the lease after that broker
                    // crash-restarts with an empty table.
                    ctx.send(
                        broker_actor(dev.sub_home),
                        SimDuration::from_millis(2),
                        FleetEvent::Renew {
                            subscriber: ctx.actor().0,
                            type_idx: dev.type_idx,
                            mode,
                        },
                    );
                    if let Some(every) = resub_every {
                        ctx.schedule_self(every, FleetEvent::ResubTick);
                    }
                }
                FleetEvent::PublishTick => {
                    if dev.awaiting_ack {
                        dev.misses += 1;
                        if dev.misses >= REHOME_AFTER_MISSES {
                            dev.home = (dev.home + 1) % brokers;
                            dev.rehomes += 1;
                            dev.misses = 0;
                        }
                    }
                    dev.published += 1;
                    dev.awaiting_ack = true;
                    // 1 in 97 devices "forgets" attribution: exercises
                    // the hygiene refusal path under load.
                    let source = if ctx.actor().0 % 97 == 0 {
                        String::new()
                    } else {
                        format!("dev{}", ctx.actor().0)
                    };
                    let mut packet = ContextPacket::new(
                        type_name(dev.type_idx),
                        (ctx.actor().0 as i64 % 1000) * 10,
                        ctx.now(),
                        LIFETIME,
                        source,
                    );
                    packet.value_milli += (ctx.rng().next_u64() % 1000) as i64;
                    // Sequence-number the publish: `(device, n)` is the
                    // idempotence key dedup windows track end to end.
                    packet.seq = PacketSeq::new(ctx.actor().0, dev.published);
                    // Root the trace from pure (seed, actor, seq)
                    // material — sampling is a function of the id, so
                    // the sampled set is partition-independent.
                    let root = TraceCtx::root(
                        seed ^ (ctx.actor().0 << 20) ^ dev.published,
                        trace_rate,
                    );
                    let span = dev.trace.record(root, Stage::Publish, ctx.actor().0, ctx.now());
                    if span != 0 {
                        packet.trace = root.child(span);
                    }
                    ctx.send(
                        broker_actor(dev.home),
                        SimDuration::from_millis(2),
                        FleetEvent::Packet {
                            packet,
                            origin: Some(ctx.actor().0),
                        },
                    );
                    let jitter = ctx.rng().jitter(publish_period, 0.25);
                    ctx.schedule_self(jitter, FleetEvent::PublishTick);
                }
                FleetEvent::Ack => {
                    dev.acked += 1;
                    dev.awaiting_ack = false;
                    dev.misses = 0;
                }
                FleetEvent::Nack => {
                    dev.nacked += 1;
                    dev.awaiting_ack = false;
                }
                FleetEvent::Delivery(packet) => {
                    dev.received += 1;
                    // Periodic devices re-receive retained context by
                    // design; event/one-shot devices must see each
                    // `(origin, seq)` exactly once, chaos or not.
                    if dev.mode_tag != 0
                        && packet.seq.is_some()
                        && dev.dedup.observe(packet.seq) == SeqVerdict::Duplicate
                    {
                        dev.dup_deliveries += 1;
                    }
                    let latency = ctx.now().since(packet.published_at);
                    dev.fanout_us.record(latency.as_micros());
                    dev.trace
                        .record(packet.trace, Stage::Deliver, ctx.actor().0, ctx.now());
                }
                _ => {}
            },
        }
    };

    let shard_cfg = ShardConfig {
        seed: cfg.seed,
        shards: cfg.shards,
        threads: cfg.threads,
        record_transcript: false,
    };
    let mut sim = ShardSim::new(shard_cfg, handler);

    // Brokers are actors 0..brokers; each peers with every other broker.
    for b in 0..brokers {
        let node = fresh_node(b, brokers, &node_cfg);
        // Outbound link-chaos streams: each directed link draws from
        // its own label-salted RNG, so the byte stream is a pure
        // function of (seed, link), not of partition layout.
        let mut chaos = BTreeMap::new();
        for (from, to, fault) in &cfg.link_faults {
            if *from == b && *to < brokers && !fault.is_noop() {
                chaos.insert(*to, LinkChaos::new(cfg.seed, &link_label(*from, *to), *fault));
            }
        }
        sim.add_actor(
            broker_actor(b),
            FleetActor::Broker(Box::new(BrokerState {
                node: Box::new(node),
                alive: true,
                chaos,
                carried: NodeStats::default(),
                carried_trace: TraceLog::new(),
                restarts: 0,
            })),
        );
    }
    for d in 0..cfg.devices {
        let id = ActorId(u64::from(brokers) + d);
        let home = (d % u64::from(brokers)) as u16;
        let dev = DeviceState {
            home,
            sub_home: home,
            type_idx: (d % u64::from(FLEET_TYPES)) as u16,
            mode_tag: (d % 3) as u8,
            published: 0,
            acked: 0,
            nacked: 0,
            received: 0,
            misses: 0,
            awaiting_ack: false,
            rehomes: 0,
            fanout_us: Histogram::new(),
            dedup: DedupWindow::new(1024),
            dup_deliveries: 0,
            trace: TraceLog::new(),
        };
        sim.add_actor(id, FleetActor::Device(Box::new(dev)));
    }

    // Kick-off: broker cadences, device starts, scripted fault edges.
    for b in 0..brokers {
        let a = broker_actor(b);
        let _ = sim.schedule(a, SimTime::ZERO, FleetEvent::DrainTick);
        let _ = sim.schedule(a, SimTime::ZERO, FleetEvent::SweepTick);
        let _ = sim.schedule(a, SimTime::ZERO, FleetEvent::GossipTick);
    }
    for d in 0..cfg.devices {
        let _ = sim.schedule(
            ActorId(u64::from(brokers) + d),
            SimTime::ZERO,
            FleetEvent::Start,
        );
    }
    // An up edge that coincides with a crash-restart instant boots a
    // fresh node instead of merely flipping liveness back on.
    let restart_set: BTreeSet<(u16, u64)> = cfg
        .restarts
        .iter()
        .map(|(b, at)| (*b, at.as_micros()))
        .collect();
    for (b, at, up) in &cfg.fault_edges {
        if *b < brokers {
            let ev = if *up && restart_set.contains(&(*b, at.as_micros())) {
                FleetEvent::Restart
            } else {
                FleetEvent::SetUp(*up)
            };
            let _ = sim.schedule(broker_actor(*b), *at, ev);
        }
    }

    sim.run_until(SimTime::ZERO + cfg.run_for);

    // Fold outcomes in actor-id order — deterministic by construction.
    let mut out = FleetOutcome::default();
    let mut fanout = Histogram::new();
    let mut dirs: Vec<(u16, BTreeMap<BrokerId, DirEntry>)> = Vec::new();
    for b in 0..brokers {
        if let Some(FleetActor::Broker(st)) = sim.actor_state(broker_actor(b)) {
            let mut s = st.carried;
            fold_stats(&mut s, st.node.stats());
            out.shed += s.admission.shed;
            out.unattributed += s.admission.unattributed;
            out.forwarded += s.forwarded;
            out.loops_dropped += s.loops_dropped;
            out.gossip_sent += s.gossip_sent;
            out.gossip_heard += s.gossip_heard;
            out.subs_expired += s.subs_expired;
            out.packets_expired += s.packets_expired;
            out.retries += s.retries;
            out.retry_exhausted += s.retry_exhausted;
            out.dedup_suppressed += s.dedup_suppressed;
            out.resubscriptions += s.resubscriptions;
            out.anti_entropy_rounds += s.anti_entropy_rounds;
            out.restarts += st.restarts;
            for link in st.chaos.values() {
                let ls = link.stats();
                out.packets_dropped += ls.dropped;
                out.packets_duped += ls.duplicated;
                out.packets_reordered += ls.reordered;
                out.packets_delayed += ls.delayed;
            }
            dirs.push((b, st.node.directory().clone()));
            out.trace.merge(&st.carried_trace);
            out.trace.merge(st.node.trace_log());
        }
    }
    // Anti-entropy witness: for every broker X, every *other* broker's
    // directory entry for X must exist and agree on version and table
    // digest — the post-heal convergence the chaos scenario pins.
    out.dir_converged = (0..brokers).all(|x| {
        let mut views = Vec::new();
        for (b, dir) in &dirs {
            if *b == x {
                continue;
            }
            match dir.get(&BrokerId(x)) {
                Some(e) => views.push(*e),
                None => return false,
            }
        }
        views.iter().skip(1).all(|v| Some(v) == views.first())
    });
    for d in 0..cfg.devices {
        let id = ActorId(u64::from(brokers) + d);
        if let Some(FleetActor::Device(dev)) = sim.actor_state(id) {
            out.published += dev.published;
            out.acked += dev.acked;
            out.delivered += dev.received;
            out.rehomes += dev.rehomes;
            out.duplicate_deliveries += dev.dup_deliveries;
            fanout.merge(&dev.fanout_us);
            out.trace.merge(&dev.trace);
        }
    }
    out.p50_fanout_us = fanout.quantile(0.50);
    out.p99_fanout_us = fanout.quantile(0.99);
    out.events = sim.events_processed();
    out.messages = sim.messages_delivered();
    out.digest = sim.digest();
    out.trace_spans = out.trace.len() as u64;
    // The digest hashes the *canonical* export, so it is invariant to
    // the fold order above and comparable across partition layouts.
    out.trace_digest = out.trace.digest();
    (out, sim.profile().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, shards: u32, threads: u32) -> FleetConfig {
        FleetConfig {
            seed,
            brokers: 3,
            devices: 120,
            shards,
            threads,
            run_for: SimDuration::from_secs(20),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_runs_and_delivers() {
        let out = run_fleet(&small(7, 1, 1));
        assert!(out.published > 300, "published={}", out.published);
        assert!(out.delivered > 0);
        assert!(out.acked > 0);
        assert!(out.forwarded > 0, "federation never forwarded");
        assert!(out.unattributed > 0, "hygiene path never exercised");
        assert!(out.p99_fanout_us >= out.p50_fanout_us);
    }

    #[test]
    fn report_is_identical_across_partitions() {
        let reference = run_fleet(&small(11, 1, 1)).report();
        for (shards, threads) in [(2, 1), (4, 2), (8, 4)] {
            let (out, profile) = run_fleet_profiled(&small(11, shards, threads));
            assert_eq!(out.report(), reference, "diverged at shards={shards} threads={threads}");
            // The profile sees the layout; the outcome must not.
            assert_eq!(profile.events_per_shard.len(), shards as usize);
            assert_eq!(profile.total_events(), out.events);
        }
    }

    #[test]
    fn fleet_traces_assemble_into_deliveries() {
        let mut cfg = small(7, 1, 1);
        cfg.node.trace_sample_log2 = 0; // sample every trace
        let out = run_fleet(&cfg);
        assert!(out.trace_spans > 0, "no spans recorded");
        assert_eq!(out.trace_digest, out.trace.digest());
        let trees = tracekit::assemble(&out.trace);
        let breakup = tracekit::Breakup::of(&trees);
        assert!(breakup.deliveries() > 0, "no traced delivery paths");
        // Sampled-down runs record strictly fewer spans.
        let sampled = run_fleet(&small(7, 1, 1));
        assert!(sampled.trace_spans < out.trace_spans);
    }

    /// A small chaos fleet: lossy federation links in both directions
    /// on every pair, one crash-restart mid-run, chaos healing well
    /// before the horizon, leases short enough to need renewal.
    fn chaotic(seed: u64, shards: u32, threads: u32) -> FleetConfig {
        let mut plan = FaultPlan::new(seed);
        let fault = LinkFault {
            drop_ppm: 80_000,
            dup_ppm: 60_000,
            reorder_ppm: 50_000,
            reorder_delay: SimDuration::from_millis(40),
            jitter: SimDuration::from_millis(15),
        };
        for a in 0..3u16 {
            for b in 0..3u16 {
                if a != b {
                    plan.lossy_link(&link_label(a, b), fault);
                }
            }
        }
        plan.crash_restart(
            "broker:1",
            SimTime::from_secs(12),
            SimDuration::from_secs(4),
        );
        let mut cfg = FleetConfig {
            seed,
            brokers: 3,
            devices: 120,
            shards,
            threads,
            run_for: SimDuration::from_secs(60),
            ..FleetConfig::default()
        };
        cfg.node.fwd_attempts = 4;
        cfg.fault_edges = fault_edges(&plan, 3);
        cfg.restarts = restart_edges(&plan, 3);
        cfg.link_faults = link_faults(&plan, 3);
        cfg.chaos_until = Some(SimTime::from_secs(40));
        cfg.sub_lease = Some(SimDuration::from_secs(20));
        cfg.resub_every = Some(SimDuration::from_secs(8));
        cfg
    }

    #[test]
    fn chaos_retries_recovers_and_never_double_delivers() {
        let out = run_fleet(&chaotic(23, 1, 1));
        assert!(out.packets_dropped > 0, "chaos never dropped");
        assert!(out.packets_duped > 0, "chaos never duplicated");
        assert!(out.packets_delayed > 0, "chaos never jittered");
        assert!(out.retries > 0, "lost forwards were never retried");
        assert!(out.dedup_suppressed > 0, "duplicates never reached dedup");
        assert!(out.resubscriptions > 0, "leases were never renewed");
        assert_eq!(out.restarts, 1);
        assert!(out.delivered > 0);
        // The two chaos SLOs: end-to-end idempotence and post-heal
        // anti-entropy convergence.
        assert_eq!(out.duplicate_deliveries, 0, "a device saw a packet twice");
        assert!(out.dir_converged, "directories diverged post-heal");
    }

    #[test]
    fn chaos_report_is_identical_across_partitions() {
        let reference = run_fleet(&chaotic(29, 1, 1)).report();
        for (shards, threads) in [(2, 2), (4, 4)] {
            let got = run_fleet(&chaotic(29, shards, threads)).report();
            assert_eq!(got, reference, "diverged at shards={shards} threads={threads}");
        }
    }

    #[test]
    fn restart_wipes_the_node_but_carries_the_ledger() {
        let mut plan = FaultPlan::new(5);
        plan.crash_restart(
            "broker:0",
            SimTime::from_secs(8),
            SimDuration::from_secs(3),
        );
        let mut cfg = small(17, 1, 1);
        cfg.fault_edges = fault_edges(&plan, cfg.brokers);
        cfg.restarts = restart_edges(&plan, cfg.brokers);
        cfg.resub_every = Some(SimDuration::from_secs(4));
        cfg.sub_lease = Some(SimDuration::from_secs(10));
        let out = run_fleet(&cfg);
        assert_eq!(out.restarts, 1);
        assert!(out.resubscriptions > 0);
        // Pre-crash admissions still count: the carried ledger saw them.
        let healthy = run_fleet(&small(17, 1, 1));
        assert!(out.acked > healthy.acked / 2);
    }

    #[test]
    fn killed_broker_causes_rehoming() {
        let mut plan = FaultPlan::new(1);
        plan.kill_at("broker:0", SimTime::from_secs(8));
        let mut cfg = small(13, 1, 1);
        cfg.fault_edges = fault_edges(&plan, cfg.brokers);
        let out = run_fleet(&cfg);
        assert!(out.rehomes > 0, "no publisher re-homed after the kill");
        let healthy = run_fleet(&small(13, 1, 1));
        assert_eq!(healthy.rehomes, 0);
        assert!(out.acked < healthy.acked);
    }
}
