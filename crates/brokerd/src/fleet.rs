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

use crate::federation::LoadDigest;
use crate::node::{BrokerNode, DirEntry, Effect, NodeConfig, NodeStats};
use crate::packet::{BrokerId, ContextPacket, PacketSeq};
use crate::table::SubMode;
use simkit::faults::{FaultPlan, LinkChaos, LinkFault};
use simkit::shard::{ActorId, EngineProfile, EventCtx, ShardConfig, ShardSim};
use simkit::{Histogram, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
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
///
/// Devices key each arrival by `(origin, n)` in one `u32`, as
/// `origin × (max_publishes + 1) + n`, where `max_publishes` is the most
/// publishes one device can make: `run_for / (publish_period / 2) + 1`,
/// since publish gaps are at least three quarters of the period. So the
/// actor count (`brokers + devices`) times `max_publishes + 1` must be
/// at most 2^32, which also keeps every actor id a `u32` trace node. A
/// zero `publish_period` bounds no publish count and never fits.
/// [`run_fleet`] checks this before it starts and panics on a larger
/// fleet.
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

impl FleetConfig {
    /// The most publishes one device can make in a run: each publish gap
    /// is a jitter of at least three quarters of `publish_period`, so in
    /// whole microseconds never shorter than half of it.
    fn max_publishes(&self) -> u64 {
        match self.publish_period.as_micros() {
            0 => u64::MAX,
            period => self.run_for.as_micros() / (period / 2).max(1) + 1,
        }
    }

    /// The stride of this fleet's arrival keys, `max_publishes + 1`, when
    /// every key fits in `u32` (`actors × stride ≤ 2^32`, see the type's
    /// docs); `None` for a larger fleet or a zero publish period.
    fn arrival_stride(&self) -> Option<u64> {
        let stride = self.max_publishes().checked_add(1)?;
        let actors = u64::from(self.brokers.max(1)).checked_add(self.devices)?;
        (actors.checked_mul(stride)? <= 1 << 32).then_some(stride)
    }
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
///
/// Payloads larger than a few words ride behind pointers, so the engine
/// moves a small event through its queues and barrier: a packet in
/// transit is boxed, and a delivery shares its arrival's packet.
#[derive(Clone, Debug)]
pub enum FleetEvent {
    /// Device: subscribe and start the publish cadence.
    Start,
    /// Device: publish one packet to the home broker.
    PublishTick,
    /// Broker: a packet arrives (device publish or federation forward).
    Packet {
        /// The published packet.
        packet: Box<ContextPacket>,
        /// Publishing device actor for direct publishes (acked/nacked);
        /// `None` for unattributed transports. The transport knows its
        /// sender even when the packet itself lacks attribution.
        origin: Option<u64>,
    },
    /// Broker: a federation forward arrives over a (possibly lossy)
    /// inter-broker link.
    Fwd {
        /// The forwarded packet.
        packet: Box<ContextPacket>,
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
    Digest(Box<LoadDigest>),
    /// Device: a delivery arrives (the packet every delivery of one
    /// broker arrival shares).
    Delivery(Arc<ContextPacket>),
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
    /// This device's actor id as its tracekit node.
    node: u32,
    /// End-to-end idempotence witness: the [`arrival_key`] of every
    /// sequenced delivery, in arrival order. The fold counts its repeats
    /// exactly; the chaos scenario pins that count to zero fleet-wide.
    /// Periodic re-delivery of retained context is intentional, so only
    /// event/one-shot devices record.
    arrivals: Vec<u32>,
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
    /// Packets shed by backpressure: device publishes (nacked) and
    /// federation forwards shed at full peer inboxes.
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
    /// Engine transcript digest: `ShardSim::digest` over the records
    /// the run emits, which are only the brokers' down, up and restart
    /// records. It witnesses the fault script's effect, not the traffic:
    /// two runs with the same script share it whatever they delivered.
    /// The counters above and `trace_digest` witness the traffic.
    pub digest: u64,
    /// Hop spans recorded across all actors (sampled traces only): the
    /// sum of the per-actor logs' lengths.
    pub trace_spans: u64,
    /// Order-independent digest of every hop event: the wrapping sum of
    /// the per-actor logs' [`TraceLog::digest`], which equals the merged
    /// log's. [`run_fleet_traced`] returns that log, whose
    /// `export_jsonl()` is the byte-level witness.
    pub trace_digest: u64,
}

impl FleetOutcome {
    /// Shed rate in parts-per-million of offered publishes.
    pub fn shed_ppm(&self) -> u64 {
        (self.shed * 1_000_000)
            .checked_div(self.published)
            .unwrap_or(0)
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

/// A delivery's `(origin, n)` in one `u32`: `origin × stride + n`, where
/// `stride` is the fleet's `max_publishes + 1`. Exact for every seq a
/// fleet carries: devices mint them as `(actor id, publish count)` with
/// `1 ≤ n ≤ max_publishes`, forwards keep them verbatim, and
/// [`run_fleet`] checks that `actors × stride ≤ 2^32`.
fn arrival_key(seq: PacketSeq, stride: u64) -> u32 {
    (seq.origin * stride + seq.n) as u32
}

/// Copies of an arrival key beyond its first in `seen`: sorts a copy in
/// `scratch` (reused across calls) and counts what `dedup` removes.
fn repeats(seen: &[u32], scratch: &mut Vec<u32>) -> u64 {
    scratch.clear();
    scratch.extend_from_slice(seen);
    scratch.sort_unstable();
    scratch.dedup();
    (seen.len() - scratch.len()) as u64
}

fn type_name(idx: u16) -> String {
    format!("ctx{idx:02}")
}

fn broker_actor(b: u16) -> ActorId {
    ActorId(u64::from(b))
}

/// Runs one fleet scenario to completion.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    simulate(cfg, false).0
}

/// Runs one fleet scenario and also returns the engine's self-profile
/// (per-shard event counts, queue peaks, merge-barrier imbalance).
/// The profile describes the physical layout and is deliberately kept
/// **outside** the equality-compared [`FleetOutcome`].
pub fn run_fleet_profiled(cfg: &FleetConfig) -> (FleetOutcome, EngineProfile) {
    let (out, profile, _) = simulate(cfg, false);
    (out, profile)
}

/// Runs one fleet scenario and also returns, beside its outcome and
/// profile, the merged trace log: every actor's hop events, brokers then
/// devices in actor-id order, ready for
/// [`tracekit::assemble`]/[`tracekit::Breakup`]. Its `len()` and
/// `digest()` are the outcome's `trace_spans` and `trace_digest`.
pub fn run_fleet_traced(cfg: &FleetConfig) -> (FleetOutcome, EngineProfile, TraceLog) {
    simulate(cfg, true)
}

/// The one fleet run behind the three entry points; `merge_trace` says
/// whether the caller reads the merged trace log (otherwise it comes
/// back empty).
fn simulate(cfg: &FleetConfig, merge_trace: bool) -> (FleetOutcome, EngineProfile, TraceLog) {
    let stride = cfg.arrival_stride();
    assert!(
        stride.is_some(),
        "a fleet's arrival keys must fit in u32, but {} brokers and {} devices with up \
         to {} publishes a device need more than 2^32",
        cfg.brokers,
        cfg.devices,
        cfg.max_publishes()
    );
    let stride = stride.unwrap_or_default();
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

    let handler = move |actor: &mut FleetActor,
                        ctx: &mut EventCtx<'_, FleetEvent>,
                        ev: FleetEvent| {
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
                } if st.alive => {
                    st.node.subscribe_renewing(
                        subscriber,
                        &type_name(type_idx),
                        mode,
                        ctx.now() + sub_lease,
                        ctx.now(),
                    );
                }
                FleetEvent::Packet { packet, origin } => {
                    if !st.alive {
                        return; // down: no ack, publisher times out
                    }
                    let origin = origin.map(ActorId);
                    // Duplicate admits are acked positively too — an
                    // at-least-once sender must stop retrying.
                    match st.node.publish(*packet, ctx.now()) {
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
                    if st.node.publish(*packet, ctx.now()).is_ok() && fwd_id != 0 {
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
                FleetEvent::FwdAck(fwd_id) if st.alive => {
                    st.node.fwd_ack(fwd_id);
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
                                FleetEvent::Digest(Box::new(digest)),
                                chaos_until,
                            );
                        }
                    }
                    ctx.schedule_self(GOSSIP_EVERY, FleetEvent::GossipTick);
                }
                FleetEvent::Digest(d) if st.alive => {
                    st.node.hear_gossip(&d, ctx.now());
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
                    let source = if ctx.actor().0.is_multiple_of(97) {
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
                    // idempotence key brokers filter on and devices log.
                    packet.seq = PacketSeq::new(ctx.actor().0, dev.published);
                    // Root the trace from pure (seed, actor, seq)
                    // material — sampling is a function of the id, so
                    // the sampled set is partition-independent.
                    let root =
                        TraceCtx::root(seed ^ (ctx.actor().0 << 20) ^ dev.published, trace_rate);
                    let span = dev.trace.record(root, Stage::Publish, dev.node, ctx.now());
                    if span != 0 {
                        packet.trace = root.child(span);
                    }
                    ctx.send(
                        broker_actor(dev.home),
                        SimDuration::from_millis(2),
                        FleetEvent::Packet {
                            packet: Box::new(packet),
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
                    if dev.mode_tag != 0 && packet.seq.is_some() {
                        dev.arrivals.push(arrival_key(packet.seq, stride));
                    }
                    let latency = ctx.now().since(packet.published_at);
                    dev.fanout_us.record(latency.as_micros());
                    dev.trace
                        .record(packet.trace, Stage::Deliver, dev.node, ctx.now());
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
                chaos.insert(
                    *to,
                    LinkChaos::new(cfg.seed, &link_label(*from, *to), *fault),
                );
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
            node: id.0 as u32,
            arrivals: Vec::new(),
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
    let mut trace = TraceLog::new();
    if merge_trace {
        // Size the merged trace once: a log grown by doubling would hold
        // up to twice its events and copy them at every growth step.
        let mut events = 0;
        for a in 0..u64::from(brokers) + cfg.devices {
            events += match sim.actor_state(ActorId(a)) {
                Some(FleetActor::Broker(st)) => st.carried_trace.len() + st.node.trace_log().len(),
                Some(FleetActor::Device(dev)) => dev.trace.len(),
                None => 0,
            };
        }
        trace.reserve_exact(events);
    }
    // Each actor's log adds its length and digest to the outcome; the
    // digest sums one hash per event, so the total is invariant to the
    // fold order and comparable across partition layouts.
    let mut fold_log = |out: &mut FleetOutcome, log: &TraceLog| {
        out.trace_spans += log.len() as u64;
        out.trace_digest = out.trace_digest.wrapping_add(log.digest());
        if merge_trace {
            trace.merge(log);
        }
    };
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
            fold_log(&mut out, &st.carried_trace);
            fold_log(&mut out, st.node.trace_log());
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
    let mut scratch = Vec::new();
    for d in 0..cfg.devices {
        let id = ActorId(u64::from(brokers) + d);
        if let Some(FleetActor::Device(dev)) = sim.actor_state(id) {
            out.published += dev.published;
            out.acked += dev.acked;
            out.delivered += dev.received;
            out.rehomes += dev.rehomes;
            out.duplicate_deliveries += repeats(&dev.arrivals, &mut scratch);
            fanout.merge(&dev.fanout_us);
            fold_log(&mut out, &dev.trace);
        }
    }
    out.p50_fanout_us = fanout.quantile(0.50);
    out.p99_fanout_us = fanout.quantile(0.99);
    out.events = sim.events_processed();
    out.messages = sim.messages_delivered();
    out.digest = sim.digest();
    (out, sim.profile().clone(), trace)
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
    fn engine_events_and_effects_stay_four_words() {
        // The engine moves every event through its heap and barrier, so
        // a packet inline would be copied on each move.
        let event = std::mem::size_of::<FleetEvent>();
        let effect = std::mem::size_of::<Effect>();
        assert!(event <= 32, "FleetEvent is {event} bytes");
        assert!(effect <= 32, "Effect is {effect} bytes");
    }

    #[test]
    fn the_witness_counts_what_a_bounded_window_misjudges() {
        use crate::dedup::DedupWindow;
        let seq = PacketSeq::new;
        // A fleet of 2^12 actors whose devices publish fewer than 2^20
        // times: its keys fill `u32` exactly.
        let stride = 1 << 20;
        let key = |origin, n| arrival_key(seq(origin, n), stride);
        let mut scratch = Vec::new();
        assert_eq!(repeats(&[key(7, 1), key(9, 1), key(7, 1)], &mut scratch), 1);
        assert_eq!(repeats(&[key(7, 1); 3], &mut scratch), 2);
        // Origin and `n` keep their own parts of the key.
        let top = stride - 1;
        let parts = [key(1, 2), key(2, 1), key(4095, 1), key(1, top), key(2, top)];
        assert_eq!(repeats(&parts, &mut scratch), 0);
        assert_eq!(key(4095, top), u32::MAX);

        // A straggler far behind its origin's newest packet is fresh,
        // but a window suppresses it as below its bitmap.
        let straggler = [seq(3, 1000), seq(3, 1)];
        assert_eq!(
            repeats(&straggler.map(|s| arrival_key(s, stride)), &mut scratch),
            0
        );
        let mut window = DedupWindow::new(1024);
        for s in straggler {
            window.observe(s);
        }
        assert_eq!(window.suppressed(), 1);

        // A repeat after 1,024 other origins is still a repeat, but the
        // window has evicted its origin by then.
        let mut evicted = vec![seq(3, 1)];
        evicted.extend((100..1124).map(|o| seq(o, 1)));
        evicted.push(seq(3, 1));
        let keys: Vec<u32> = evicted.iter().map(|s| arrival_key(*s, stride)).collect();
        assert_eq!(repeats(&keys, &mut scratch), 1);
        let mut window = DedupWindow::new(1024);
        for s in &evicted {
            window.observe(*s);
        }
        assert_eq!(window.suppressed(), 0);
    }

    #[test]
    fn arrival_keys_are_distinct_inside_the_bound() {
        // Small fleets: every `(origin, n)`, exhaustively.
        let dense = FleetConfig {
            devices: 5,
            publish_period: SimDuration::from_micros(1),
            run_for: SimDuration::from_micros(300),
            ..small(3, 1, 1)
        };
        for cfg in [small(3, 1, 1), dense] {
            let stride = cfg.arrival_stride().expect("a small fleet fits");
            let (actors, most) = (u64::from(cfg.brokers) + cfg.devices, cfg.max_publishes());
            let keys: BTreeSet<u32> = (0..actors)
                .flat_map(|o| (1..=most).map(move |n| arrival_key(PacketSeq::new(o, n), stride)))
                .collect();
            assert_eq!(keys.len() as u64, actors * most);
        }
        // At the limit, `actors × stride = 2^32`: each origin's keys run
        // from its first to its last without wrapping, below the next
        // origin's first, and the very last is `u32::MAX`.
        let edge = FleetConfig {
            brokers: 4,
            devices: 4092,
            publish_period: SimDuration::from_micros(2),
            run_for: SimDuration::from_micros((1 << 20) - 2),
            ..small(3, 1, 1)
        };
        let stride = edge.arrival_stride().expect("the limit itself fits");
        assert_eq!(stride, 1 << 20);
        let most = edge.max_publishes();
        let mut last = None;
        for o in 0..4096 {
            let first = arrival_key(PacketSeq::new(o, 1), stride);
            let end = arrival_key(PacketSeq::new(o, most), stride);
            assert!(last < Some(first), "origin {o} overlaps its predecessor");
            assert_eq!(u64::from(end - first), most - 1, "origin {o} wrapped");
            last = Some(end);
        }
        assert_eq!(last, Some(u32::MAX));
    }

    #[test]
    fn fleets_past_the_u32_keys_are_refused_before_they_run() {
        let too_many = FleetConfig {
            devices: u64::from(u32::MAX),
            ..small(3, 1, 1)
        };
        // 1 µs periods over 2^32 µs allow 2^32 + 1 publishes a device.
        let too_long = FleetConfig {
            devices: 1,
            publish_period: SimDuration::from_micros(1),
            run_for: SimDuration::from_micros(1 << 32),
            ..small(3, 1, 1)
        };
        // A zero period bounds no publish count.
        let unbounded = FleetConfig {
            publish_period: SimDuration::ZERO,
            ..small(3, 1, 1)
        };
        // 4 actors at a key stride of 2^30 span 2^32 key values, exactly
        // the limit.
        let longest = FleetConfig {
            run_for: SimDuration::from_micros((1 << 30) - 2),
            ..too_long.clone()
        };
        assert_eq!(longest.max_publishes(), (1 << 30) - 1);
        assert_eq!(longest.arrival_stride(), Some(1 << 30));
        // One microsecond more allows one more publish, past the limit.
        let past = FleetConfig {
            run_for: SimDuration::from_micros((1 << 30) - 1),
            ..longest
        };
        for cfg in [&too_many, &too_long, &unbounded, &past] {
            assert_eq!(cfg.arrival_stride(), None);
            assert!(std::panic::catch_unwind(|| run_fleet(cfg)).is_err());
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
            assert_eq!(
                out.report(),
                reference,
                "diverged at shards={shards} threads={threads}"
            );
            // The profile sees the layout; the outcome must not.
            assert_eq!(profile.events_per_shard.len(), shards as usize);
            assert_eq!(profile.total_events(), out.events);
        }
    }

    #[test]
    fn fleet_traces_assemble_into_deliveries() {
        let mut cfg = small(7, 1, 1);
        cfg.node.trace_sample_log2 = 0; // sample every trace
        let (out, _, trace) = run_fleet_traced(&cfg);
        assert!(out.trace_spans > 0, "no spans recorded");
        assert_eq!(out.trace_spans, trace.len() as u64);
        assert_eq!(out.trace_digest, trace.digest());
        // Merging the log is all the traced entry point adds.
        assert_eq!(run_fleet(&cfg), out);
        let trees = tracekit::assemble(&trace);
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
            assert_eq!(
                got, reference,
                "diverged at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn restart_wipes_the_node_but_carries_the_ledger() {
        let mut plan = FaultPlan::new(5);
        plan.crash_restart("broker:0", SimTime::from_secs(8), SimDuration::from_secs(3));
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
