//! Reference-trait implementations over the simulated platform.
//!
//! - [`SimInternalReference`]: integrated sensors sampling the synthetic
//!   environment. (The paper's prototype left the `InternalReference`
//!   unimplemented because its phones had no usable integrated sensors;
//!   we implement it so the full architecture is exercised, and simply
//!   give paper-faithful scenarios no internal sensors.)
//! - [`SimBtReference`]: JSR-82-style — sensor discovery/streaming for
//!   the BT-GPS, one-hop ad hoc provisioning via SDP context services,
//!   publish as a `ServiceRecord` in the SDDB (~140 ms).
//! - [`SimWifiReference`]: SM-FINDER rounds and tag-space publishing over
//!   the Smart Messages platform (~0.13 ms to publish).
//! - [`SimCellReference`]: store/fetch/subscribe against the remote
//!   [`fuego::ContextInfrastructure`] through the Fuego client.

use crate::convert::{item_to_record, record_to_item, SensorNames};
use contory::query::NumNodes;
use contory::refs::{
    AdHocSpec, BtReference, CellReference, Done, InfraPushMode, InfraSpec, InfraSubHandle,
    InternalReference, ItemsResult, OnItems, OnRefError, RefError, StreamHandle, WifiReference,
};
use contory::{CxtItem, SourceId};
use fuego::{InfraClient, InfraQuery, InfraRecord, InfraSubscription, PushMode, RequestError};
use radio::bt::{BtError, BtRadio, LinkId, ServiceRecord};
use radio::cell::CellModem;
use radio::wifi::WifiRadio;
use radio::{NodeId, Position, Region};
use sensors::{gps, EnvField, EnvSensor, Environment};
use simkit::{DetRng, Sim, SimDuration, SimTime};
use smartmsg::finder::{Finder, FinderResult, FinderSpec};
use smartmsg::{SmNode, SmOutcome, Tag, TagValue};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// SDP service UUID prefix under which Contory advertises context items.
const CONTORY_SERVICE_PREFIX: &str = "contory-cxt-";
/// How long a BT neighbourhood snapshot stays valid before the next ad
/// hoc round needs a fresh inquiry.
const PEER_CACHE_TTL: SimDuration = SimDuration::from_secs(120);
/// How long an ad hoc round waits for peer replies after sending.
const ADHOC_REPLY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

// ------------------------------------------------------------------
// Internal sensors
// ------------------------------------------------------------------

/// Integrated sensors sampling the ground-truth environment.
pub struct SimInternalReference {
    sim: Sim,
    sensors: RefCell<BTreeMap<String, (EnvSensor, SensorNames)>>,
    rng: RefCell<DetRng>,
}

impl SimInternalReference {
    /// Creates a reference with one sensor per listed field, bound to the
    /// (possibly moving) position source.
    pub fn new(
        sim: &Sim,
        env: &Environment,
        fields: &[EnvField],
        position: Rc<dyn Fn() -> Position>,
        device_name: &str,
        seed: u64,
    ) -> Self {
        let source = SourceId::new(format!("intSensor://{device_name}"));
        let sensors = fields
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let p = position.clone();
                let sensor = EnvSensor::new(
                    env,
                    f,
                    Rc::new(move || p()),
                    default_accuracy(f),
                    seed + i as u64,
                );
                let names = SensorNames::new(f.type_name(), f.unit(), source.clone());
                (f.type_name().to_owned(), (sensor, names))
            })
            .collect();
        SimInternalReference {
            sim: sim.clone(),
            sensors: RefCell::new(sensors),
            rng: RefCell::new(DetRng::new(seed ^ 0x1257)),
        }
    }

    /// Flips the dropout switch of one sensor (fault injection). Unknown
    /// types are a no-op. Returns whether a sensor was found.
    pub fn set_sensor_online(&self, cxt_type: &str, up: bool) -> bool {
        match self.sensors.borrow().get(cxt_type) {
            Some((s, _)) => {
                s.set_online(up);
                true
            }
            None => false,
        }
    }

    /// Context types this reference has sensors for (fault wiring
    /// enumerates them to register per-sensor dropout switches).
    pub fn sensor_types(&self) -> Vec<String> {
        self.sensors.borrow().keys().cloned().collect()
    }
}

fn default_accuracy(field: EnvField) -> f64 {
    match field {
        EnvField::TemperatureC => 0.5,
        EnvField::WindKnots => 1.0,
        EnvField::WindDirDeg => 10.0,
        EnvField::HumidityPct => 5.0,
        EnvField::PressureHpa => 1.0,
        EnvField::LightLux => 100.0,
        EnvField::NoiseDb => 2.0,
    }
}

impl InternalReference for SimInternalReference {
    fn provides(&self, cxt_type: &str) -> bool {
        self.sensors.borrow().contains_key(cxt_type)
    }

    fn sample(&self, cxt_type: &str, cb: Done<Result<CxtItem, RefError>>) {
        if !self.provides(cxt_type) {
            let what = cxt_type.to_owned();
            self.sim.schedule_in(SimDuration::ZERO, move || {
                cb(Err(RefError::NotFound(format!("no sensor for {what}"))))
            });
            return;
        }
        // createCxtItem measured at 0.078 ms in Table 1.
        let latency = self
            .rng
            .borrow_mut()
            .gauss_duration(SimDuration::from_micros(78), SimDuration::from_micros(2));
        // `provides` was checked above, so a missing sensor cannot reach
        // here; it would read as a silent one.
        let item = self
            .sensors
            .borrow_mut()
            .get_mut(cxt_type)
            .and_then(|(sensor, names)| {
                sensor
                    .try_sample(self.sim.now())
                    .map(|reading| names.item(&reading))
            });
        match item {
            Some(item) => {
                self.sim.schedule_in(latency, move || cb(Ok(item)));
            }
            None => {
                // Dropped-out sensor (fault injection): the device is
                // present but silent.
                let what = cxt_type.to_owned();
                self.sim.schedule_in(latency, move || {
                    cb(Err(RefError::Unavailable(format!("sensor {what} offline"))))
                });
            }
        }
    }
}

impl fmt::Debug for SimInternalReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimInternalReference")
            .field("sensors", &self.sensors.borrow().len())
            .finish()
    }
}

// ------------------------------------------------------------------
// Bluetooth
// ------------------------------------------------------------------

/// Messages Contory exchanges over BT ACL links.
enum BtMsg {
    /// A context query (205 bytes on the wire).
    Query { qid: u64, spec: AdHocSpec },
    /// The matching items (53–136 bytes each).
    Reply { qid: u64, items: Vec<CxtItem> },
    /// A long-running query: push matching items every `period`.
    Subscribe {
        qid: u64,
        spec: AdHocSpec,
        period: SimDuration,
    },
    /// A pushed notification for a subscription.
    Notify { qid: u64, items: Vec<CxtItem> },
    /// Cancels a subscription at the provider.
    Cancel { qid: u64 },
}

impl BtMsg {
    fn wire_size(&self) -> usize {
        match self {
            BtMsg::Query { .. } => contory::query::CxtQuery::WIRE_SIZE,
            BtMsg::Subscribe { .. } => contory::query::CxtQuery::WIRE_SIZE + 8,
            BtMsg::Reply { items, .. } | BtMsg::Notify { items, .. } => {
                16 + items.iter().map(CxtItem::wire_size).sum::<usize>()
            }
            BtMsg::Cancel { .. } => 24,
        }
    }
}

/// A requester-side ad hoc subscription.
struct AdHocSub {
    on_items: OnItems,
    on_error: OnRefError,
    spec: AdHocSpec,
    peers: Vec<NodeId>,
}

/// A provider-side push registration.
struct ProviderPush {
    qid: u64,
    link: LinkId,
    active: Rc<std::cell::Cell<bool>>,
}

struct StreamState {
    handle: StreamHandle,
    link: LinkId,
    cxt_type: String,
    on_items: OnItems,
    on_error: OnRefError,
}

struct PendingRound {
    qid: u64,
    expected: usize,
    items: Vec<CxtItem>,
    spec: AdHocSpec,
    cb: Option<Done<ItemsResult>>,
}

struct BtRefInner {
    sim: Sim,
    radio: BtRadio,
    entity: String,
    serving: BTreeMap<String, (CxtItem, Option<String>)>,
    streams: Vec<StreamState>,
    next_stream: u64,
    known_peers: Vec<NodeId>,
    peers_fresh_until: SimTime,
    peer_links: BTreeMap<NodeId, LinkId>,
    pending: Vec<PendingRound>,
    next_qid: u64,
    /// Requester side: active ad hoc subscriptions by qid.
    adhoc_subs: BTreeMap<u64, AdHocSub>,
    /// Provider side: push registrations.
    pushes: Vec<ProviderPush>,
}

/// The JSR-82-backed `BTReference`.
#[derive(Clone)]
pub struct SimBtReference {
    inner: Rc<RefCell<BtRefInner>>,
}

impl SimBtReference {
    /// Creates the reference and installs itself as the radio's receive
    /// and disconnect handler (so one instance per radio).
    pub fn new(sim: &Sim, radio: &BtRadio, entity: &str) -> Self {
        let me = SimBtReference {
            inner: Rc::new(RefCell::new(BtRefInner {
                sim: sim.clone(),
                radio: radio.clone(),
                entity: entity.to_owned(),
                serving: BTreeMap::new(),
                streams: Vec::new(),
                next_stream: 0,
                known_peers: Vec::new(),
                peers_fresh_until: SimTime::ZERO,
                peer_links: BTreeMap::new(),
                pending: Vec::new(),
                next_qid: 0,
                adhoc_subs: BTreeMap::new(),
                pushes: Vec::new(),
            })),
        };
        {
            let weak = Rc::downgrade(&me.inner);
            radio.on_receive(move |link, from, payload| {
                if let Some(inner) = weak.upgrade() {
                    SimBtReference { inner }.handle_receive(link, from, payload);
                }
            });
        }
        {
            let weak = Rc::downgrade(&me.inner);
            radio.on_disconnect(move |link, peer| {
                if let Some(inner) = weak.upgrade() {
                    SimBtReference { inner }.handle_disconnect(link, peer);
                }
            });
        }
        me
    }

    fn sim(&self) -> Sim {
        self.inner.borrow().sim.clone()
    }

    fn radio(&self) -> BtRadio {
        self.inner.borrow().radio.clone()
    }

    /// Drops the cached neighbourhood and peer links, forcing the next ad
    /// hoc round through full discovery (used by the on-demand benches
    /// and the discovery-cache ablation).
    pub fn forget_peers(&self) {
        let (links, radio) = {
            let mut inner = self.inner.borrow_mut();
            inner.known_peers.clear();
            inner.peers_fresh_until = SimTime::ZERO;
            let links: Vec<LinkId> = inner.peer_links.values().copied().collect();
            inner.peer_links.clear();
            (links, inner.radio.clone())
        };
        for link in links {
            radio.disconnect(link);
        }
    }

    fn handle_receive(&self, link: LinkId, _from: NodeId, payload: Rc<dyn std::any::Any>) {
        // Context query from a peer: answer with matching served items.
        if let Some(msg) = payload.downcast_ref::<BtMsg>() {
            match msg {
                BtMsg::Query { qid, spec } => {
                    let now = self.sim().now();
                    let (items, radio, entity) = {
                        let inner = self.inner.borrow();
                        let items: Vec<CxtItem> = inner
                            .serving
                            .iter()
                            .filter(|(_, (item, key))| {
                                key_allows(key.as_deref(), spec.key.as_deref())
                                    && spec.matches(item, now)
                            })
                            .map(|(_, (item, _))| item.clone())
                            .collect();
                        (items, inner.radio.clone(), inner.entity.clone())
                    };
                    let items: Vec<CxtItem> = items
                        .into_iter()
                        .map(|i| i.with_source(format!("bt://{entity}")))
                        .collect();
                    let reply = BtMsg::Reply { qid: *qid, items };
                    let size = reply.wire_size();
                    radio.send(link, size, Rc::new(reply), |_res| {});
                }
                BtMsg::Reply { qid, items } => {
                    self.handle_reply(*qid, items.clone());
                }
                BtMsg::Subscribe { qid, spec, period } => {
                    self.install_push(*qid, link, spec.clone(), *period);
                }
                BtMsg::Notify { qid, items } => {
                    let (handler, spec) = {
                        let inner = self.inner.borrow();
                        match inner.adhoc_subs.get(qid) {
                            Some(sub) => (Some(sub.on_items.clone()), Some(sub.spec.clone())),
                            None => (None, None),
                        }
                    };
                    if let (Some(on_items), Some(spec)) = (handler, spec) {
                        let items = finalize_items(items.clone(), &spec);
                        if !items.is_empty() {
                            on_items(items);
                        }
                    }
                }
                BtMsg::Cancel { qid } => {
                    let mut inner = self.inner.borrow_mut();
                    if let Some(pos) = inner.pushes.iter().position(|p| p.qid == *qid) {
                        inner.pushes.remove(pos).active.set(false);
                    }
                }
            }
            return;
        }
        // NMEA sentence from a BT-GPS puck.
        if let Some(sentence) = payload.downcast_ref::<String>() {
            if let Some(pos) = gps::parse_gga(sentence) {
                let now = self.sim().now();
                let streams: Vec<(OnItems, String)> = {
                    let inner = self.inner.borrow();
                    inner
                        .streams
                        .iter()
                        .filter(|s| s.link == link && s.cxt_type == "location")
                        .map(|s| (s.on_items.clone(), s.cxt_type.clone()))
                        .collect()
                };
                for (on_items, cxt_type) in streams {
                    let item = CxtItem::new(
                        cxt_type,
                        contory::CxtValue::Position { x: pos.x, y: pos.y },
                        now,
                    )
                    .with_accuracy(5.0)
                    .with_source("btgps://inssirf-iii");
                    on_items(vec![item]);
                }
            }
            return;
        }
        // Generic BT sensor pushing structured items.
        if let Ok(item) = payload.downcast::<CxtItem>() {
            let streams: Vec<OnItems> = {
                let inner = self.inner.borrow();
                inner
                    .streams
                    .iter()
                    .filter(|s| s.link == link && s.cxt_type == item.cxt_type)
                    .map(|s| s.on_items.clone())
                    .collect()
            };
            for on_items in streams {
                on_items(vec![item.as_ref().clone()]);
            }
        }
    }

    fn handle_disconnect(&self, link: LinkId, peer: NodeId) {
        let (dead_streams, orphaned_subs) = {
            let mut inner = self.inner.borrow_mut();
            let dead: Vec<(StreamHandle, OnRefError)> = inner
                .streams
                .iter()
                .filter(|s| s.link == link)
                .map(|s| (s.handle, s.on_error.clone()))
                .collect();
            inner.streams.retain(|s| s.link != link);
            inner.peer_links.remove(&peer);
            // Provider side: stop pushes riding this link.
            for p in inner.pushes.iter().filter(|p| p.link == link) {
                p.active.set(false);
            }
            inner.pushes.retain(|p| p.link != link);
            // Requester side: drop the peer from subscriptions; report
            // subscriptions that lost their last provider.
            let mut orphaned: Vec<OnRefError> = Vec::new();
            for sub in inner.adhoc_subs.values_mut() {
                if sub.peers.contains(&peer) {
                    sub.peers.retain(|&n| n != peer);
                    if sub.peers.is_empty() {
                        orphaned.push(sub.on_error.clone());
                    }
                }
            }
            (dead, orphaned)
        };
        for (_h, on_error) in dead_streams {
            on_error(RefError::Unavailable("bluetooth link lost".into()));
        }
        for on_error in orphaned_subs {
            on_error(RefError::Unavailable("all ad hoc providers lost".into()));
        }
    }

    /// Provider side: registers a repeating push for a subscription.
    fn install_push(&self, qid: u64, link: LinkId, spec: AdHocSpec, period: SimDuration) {
        let active = Rc::new(std::cell::Cell::new(true));
        {
            let mut inner = self.inner.borrow_mut();
            inner.pushes.push(ProviderPush {
                qid,
                link,
                active: active.clone(),
            });
        }
        let me = self.clone();
        let sim = self.sim();
        self.sim().schedule_repeating(period, move || {
            if !active.get() {
                return false;
            }
            let now = sim.now();
            let (items, radio, entity, link_open) = {
                let inner = me.inner.borrow();
                let items: Vec<CxtItem> = inner
                    .serving
                    .iter()
                    .filter(|(_, (item, key))| {
                        key_allows(key.as_deref(), spec.key.as_deref()) && spec.matches(item, now)
                    })
                    .map(|(_, (item, _))| item.clone())
                    .collect();
                let link_open = inner.radio.links().iter().any(|(l, _)| *l == link);
                (items, inner.radio.clone(), inner.entity.clone(), link_open)
            };
            if !link_open {
                active.set(false);
                return false;
            }
            if !items.is_empty() {
                let items: Vec<CxtItem> = items
                    .into_iter()
                    .map(|i| i.with_source(format!("bt://{entity}")))
                    .collect();
                let msg = BtMsg::Notify { qid, items };
                let size = msg.wire_size();
                radio.send(link, size, Rc::new(msg), |_res| {});
            }
            true
        });
    }

    /// Requester side: once peers are known, sends them the subscription.
    fn establish_subscription(&self, qid: u64, peers: Vec<NodeId>, period: SimDuration) {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(sub) = inner.adhoc_subs.get_mut(&qid) {
                sub.peers = peers.clone();
            } else {
                return; // already cancelled
            }
        }
        let spec = match self.inner.borrow().adhoc_subs.get(&qid) {
            Some(s) => s.spec.clone(),
            None => return,
        };
        if peers.is_empty() {
            // Nobody around yet: retry discovery later (MANETs are
            // dynamic); the subscription stays armed.
            let me = self.clone();
            self.sim().schedule_in(period * 3, move || {
                if me.inner.borrow().adhoc_subs.contains_key(&qid) {
                    me.resolve_subscription_peers(qid, period);
                }
            });
            return;
        }
        for peer in peers {
            self.send_subscribe_to(peer, qid, spec.clone(), period);
        }
    }

    fn send_subscribe_to(&self, peer: NodeId, qid: u64, spec: AdHocSpec, period: SimDuration) {
        let link = self.inner.borrow().peer_links.get(&peer).copied();
        match link {
            Some(link) => {
                let msg = BtMsg::Subscribe { qid, spec, period };
                let size = msg.wire_size();
                self.radio().send(link, size, Rc::new(msg), |_res| {});
            }
            None => {
                let me = self.clone();
                self.radio().connect(peer, move |res| {
                    if let Ok(link) = res {
                        me.inner.borrow_mut().peer_links.insert(peer, link);
                        me.send_subscribe_to(peer, qid, spec, period);
                    }
                });
            }
        }
    }

    /// Finds (or re-finds) providers for a subscription, then establishes
    /// the pushes. The seed round's items are delivered as the first
    /// batch.
    fn resolve_subscription_peers(&self, qid: u64, period: SimDuration) {
        let spec = match self.inner.borrow().adhoc_subs.get(&qid) {
            Some(s) => s.spec.clone(),
            None => return,
        };
        let me = self.clone();
        let limit = match spec.num_nodes {
            NumNodes::All => usize::MAX,
            NumNodes::First(k) => k as usize,
        };
        self.peers_for_round(
            spec,
            Box::new(move |res| {
                // Deliver the seed batch.
                if let Ok(items) = &res {
                    let handler = {
                        let inner = me.inner.borrow();
                        inner
                            .adhoc_subs
                            .get(&qid)
                            .map(|s| (s.on_items.clone(), s.spec.clone()))
                    };
                    if let Some((on_items, sspec)) = handler {
                        let items = finalize_items(items.clone(), &sspec);
                        if !items.is_empty() {
                            on_items(items);
                        }
                    }
                }
                // peers_for_round refreshed the known-peer cache; subscribe to
                // (up to numNodes of) them.
                let peers: Vec<NodeId> = {
                    let inner = me.inner.borrow();
                    inner.known_peers.iter().copied().take(limit).collect()
                };
                me.establish_subscription(qid, peers, period);
            }),
        );
    }

    fn handle_reply(&self, qid: u64, items: Vec<CxtItem>) {
        let finished = {
            let mut inner = self.inner.borrow_mut();
            let Some((pos, p)) = inner
                .pending
                .iter_mut()
                .enumerate()
                .find(|(_, p)| p.qid == qid)
            else {
                return;
            };
            p.items.extend(items);
            p.expected = p.expected.saturating_sub(1);
            let done_by_count = match p.spec.num_nodes {
                NumNodes::First(k) => p.items.len() >= k as usize,
                NumNodes::All => false,
            };
            if p.expected == 0 || done_by_count {
                Some(inner.pending.remove(pos))
            } else {
                None
            }
        };
        if let Some(mut p) = finished {
            let items = finalize_items(std::mem::take(&mut p.items), &p.spec);
            if let Some(cb) = p.cb.take() {
                cb(Ok(items));
            }
        }
    }

    /// Finds peers advertising a Contory context service for the type,
    /// using the cached neighbourhood when fresh (the paper's periodic
    /// queries run "without discovery").
    fn peers_for_round(&self, spec: AdHocSpec, cb: Done<ItemsResult>) {
        let (cache_ok, peers) = {
            let inner = self.inner.borrow();
            (
                inner.sim.now() <= inner.peers_fresh_until && !inner.known_peers.is_empty(),
                inner.known_peers.clone(),
            )
        };
        if cache_ok {
            self.query_peers(peers, spec, cb);
            return;
        }
        let me = self.clone();
        self.radio().inquiry(move |res| match res {
            // The radio is already inquiring (e.g. a recovery probe):
            // this round simply finds nobody rather than failing the
            // whole mechanism.
            Err(BtError::Busy) => cb(Ok(Vec::new())),
            Err(e) => cb(Err(map_bt_err(e))),
            Ok(found) => {
                // SDP-filter the found devices one by one.
                me.sdp_filter(found, Vec::new(), spec, cb);
            }
        });
    }

    /// Sequentially SDP-queries candidates, keeping those that advertise
    /// a Contory context service for the spec's type.
    fn sdp_filter(
        &self,
        mut candidates: Vec<NodeId>,
        mut matching: Vec<NodeId>,
        spec: AdHocSpec,
        cb: Done<ItemsResult>,
    ) {
        let Some(next) = candidates.pop() else {
            {
                let mut inner = self.inner.borrow_mut();
                inner.known_peers = matching.clone();
                let now = inner.sim.now();
                inner.peers_fresh_until = now + PEER_CACHE_TTL;
            }
            self.query_peers(matching, spec, cb);
            return;
        };
        let me = self.clone();
        let uuid = format!("{CONTORY_SERVICE_PREFIX}{}", spec.cxt_type);
        self.radio().sdp_query(next, move |res| {
            if let Ok(records) = res {
                if records.iter().any(|r| r.uuid == uuid) {
                    matching.push(next);
                }
            }
            me.sdp_filter(candidates, matching, spec, cb);
        });
    }

    /// Sends the query to (up to `numNodes`) peers over (cached) links.
    fn query_peers(&self, peers: Vec<NodeId>, spec: AdHocSpec, cb: Done<ItemsResult>) {
        let limit = match spec.num_nodes {
            NumNodes::All => peers.len(),
            NumNodes::First(k) => peers.len().min(k as usize),
        };
        let targets: Vec<NodeId> = peers.into_iter().take(limit).collect();
        if targets.is_empty() {
            let sim = self.sim();
            sim.schedule_in(SimDuration::ZERO, move || cb(Ok(Vec::new())));
            return;
        }
        let qid = {
            let mut inner = self.inner.borrow_mut();
            inner.next_qid += 1;
            let qid = inner.next_qid;
            inner.pending.push(PendingRound {
                qid,
                expected: targets.len(),
                items: Vec::new(),
                spec: spec.clone(),
                cb: Some(cb),
            });
            qid
        };
        for peer in targets {
            self.send_query_to(peer, qid, spec.clone());
        }
        // Round timeout: return whatever arrived.
        let me = self.clone();
        self.sim().schedule_in(ADHOC_REPLY_TIMEOUT, move || {
            let finished = {
                let mut inner = me.inner.borrow_mut();
                inner
                    .pending
                    .iter()
                    .position(|p| p.qid == qid)
                    .map(|pos| inner.pending.remove(pos))
            };
            if let Some(mut p) = finished {
                let items = finalize_items(std::mem::take(&mut p.items), &p.spec);
                if let Some(cb) = p.cb.take() {
                    cb(Ok(items));
                }
            }
        });
    }

    fn send_query_to(&self, peer: NodeId, qid: u64, spec: AdHocSpec) {
        let link = self.inner.borrow().peer_links.get(&peer).copied();
        match link {
            Some(link) => {
                let msg = BtMsg::Query { qid, spec };
                let size = msg.wire_size();
                let me = self.clone();
                self.radio().send(link, size, Rc::new(msg), move |res| {
                    if res.is_err() {
                        me.handle_reply(qid, Vec::new()); // count the peer out
                    }
                });
            }
            None => {
                let me = self.clone();
                self.radio().connect(peer, move |res| match res {
                    Ok(link) => {
                        me.inner.borrow_mut().peer_links.insert(peer, link);
                        me.send_query_to(peer, qid, spec);
                    }
                    Err(_e) => me.handle_reply(qid, Vec::new()),
                });
            }
        }
    }
}

fn key_allows(published_key: Option<&str>, presented: Option<&str>) -> bool {
    match published_key {
        None => true,
        Some(k) => presented == Some(k),
    }
}

/// Applies entity filtering and the numNodes cap to gathered items.
fn finalize_items(mut items: Vec<CxtItem>, spec: &AdHocSpec) -> Vec<CxtItem> {
    if let Some(entity) = &spec.entity {
        items.retain(|i| {
            i.source
                .as_ref()
                .is_some_and(|s| s.0.contains(entity.0.as_str()))
        });
    }
    if let NumNodes::First(k) = spec.num_nodes {
        items.truncate(k as usize);
    }
    items
}

fn map_bt_err(e: BtError) -> RefError {
    match e {
        BtError::RadioOff => RefError::Unavailable("bluetooth radio off".into()),
        BtError::Busy => RefError::Unavailable("bluetooth radio busy".into()),
        BtError::OutOfRange(n) => RefError::NotFound(format!("{n} out of range")),
        BtError::PeerUnavailable(n) => RefError::NotFound(format!("{n} unavailable")),
        BtError::LinkClosed(_) => RefError::Unavailable("bluetooth link closed".into()),
    }
}

impl BtReference for SimBtReference {
    fn is_available(&self) -> bool {
        self.radio().is_on()
    }

    fn discover_sensor(&self, cxt_type: &str, cb: Done<Result<SourceId, RefError>>) {
        let me = self.clone();
        let wanted = cxt_type.to_owned();
        self.radio().inquiry(move |res| match res {
            Err(e) => cb(Err(map_bt_err(e))),
            Ok(found) => me.sdp_find_sensor(found, wanted, cb),
        });
    }

    fn open_sensor_stream(
        &self,
        source: &SourceId,
        cxt_type: &str,
        on_items: OnItems,
        on_error: OnRefError,
        cb: Done<Result<StreamHandle, RefError>>,
    ) {
        let Some(node) = parse_bt_source(source) else {
            let sim = self.sim();
            let src = source.clone();
            sim.schedule_in(SimDuration::ZERO, move || {
                cb(Err(RefError::NotFound(format!("bad source {src}"))))
            });
            return;
        };
        let me = self.clone();
        let cxt_type = cxt_type.to_owned();
        self.radio().connect(node, move |res| match res {
            Err(e) => cb(Err(map_bt_err(e))),
            Ok(link) => {
                let handle = {
                    let mut inner = me.inner.borrow_mut();
                    inner.next_stream += 1;
                    let handle = StreamHandle(inner.next_stream);
                    inner.streams.push(StreamState {
                        handle,
                        link,
                        cxt_type,
                        on_items,
                        on_error,
                    });
                    handle
                };
                cb(Ok(handle));
            }
        });
    }

    fn close_sensor_stream(&self, handle: StreamHandle) {
        let link = {
            let mut inner = self.inner.borrow_mut();
            let link = inner
                .streams
                .iter()
                .find(|s| s.handle == handle)
                .map(|s| s.link);
            inner.streams.retain(|s| s.handle != handle);
            link
        };
        if let Some(link) = link {
            self.radio().disconnect(link);
        }
    }

    fn adhoc_round(&self, spec: &AdHocSpec, cb: Done<ItemsResult>) {
        if !self.is_available() {
            let sim = self.sim();
            sim.schedule_in(SimDuration::ZERO, move || {
                cb(Err(RefError::Unavailable("bluetooth radio off".into())))
            });
            return;
        }
        self.peers_for_round(spec.clone(), cb);
    }

    fn adhoc_subscribe(
        &self,
        spec: &AdHocSpec,
        period: SimDuration,
        on_items: OnItems,
        on_error: OnRefError,
    ) -> StreamHandle {
        let qid = {
            let mut inner = self.inner.borrow_mut();
            inner.next_qid += 1;
            let qid = inner.next_qid;
            inner.adhoc_subs.insert(
                qid,
                AdHocSub {
                    on_items,
                    on_error: on_error.clone(),
                    spec: spec.clone(),
                    peers: Vec::new(),
                },
            );
            qid
        };
        if !self.is_available() {
            let sim = self.sim();
            sim.schedule_in(SimDuration::ZERO, move || {
                on_error(RefError::Unavailable("bluetooth radio off".into()))
            });
            return StreamHandle(qid);
        }
        self.resolve_subscription_peers(qid, period);
        StreamHandle(qid)
    }

    fn adhoc_unsubscribe(&self, handle: StreamHandle) {
        let qid = handle.0;
        let peers = {
            let mut inner = self.inner.borrow_mut();
            match inner.adhoc_subs.remove(&qid) {
                Some(sub) => sub.peers,
                None => return,
            }
        };
        for peer in peers {
            let link = self.inner.borrow().peer_links.get(&peer).copied();
            if let Some(link) = link {
                let msg = BtMsg::Cancel { qid };
                let size = msg.wire_size();
                self.radio().send(link, size, Rc::new(msg), |_res| {});
            }
        }
    }

    fn publish(&self, item: &CxtItem, key: Option<String>, cb: Done<Result<(), RefError>>) {
        let record = ServiceRecord::new(
            format!("{CONTORY_SERVICE_PREFIX}{}", item.cxt_type),
            "contory",
        )
        .with_attribute("type", item.cxt_type.as_str())
        .with_attribute(
            "access",
            if key.is_some() {
                "authenticated"
            } else {
                "public"
            },
        );
        {
            let mut inner = self.inner.borrow_mut();
            let entity = inner.entity.clone();
            inner.serving.insert(
                item.cxt_type.to_string(),
                (item.clone().with_source(format!("bt://{entity}")), key),
            );
        }
        self.radio()
            .register_service(record, move |res| cb(res.map_err(map_bt_err)));
    }

    fn unpublish(&self, cxt_type: &str) {
        self.inner.borrow_mut().serving.remove(cxt_type);
        self.radio()
            .unregister_service(&format!("{CONTORY_SERVICE_PREFIX}{cxt_type}"));
    }
}

impl SimBtReference {
    fn sdp_find_sensor(
        &self,
        mut candidates: Vec<NodeId>,
        cxt_type: String,
        cb: Done<Result<SourceId, RefError>>,
    ) {
        let Some(next) = candidates.pop() else {
            cb(Err(RefError::NotFound(format!(
                "no BT sensor serving {cxt_type}"
            ))));
            return;
        };
        let me = self.clone();
        self.radio().sdp_query(next, move |res| {
            let found =
                res.map(|records| records.iter().any(|r| sensor_record_serves(r, &cxt_type)));
            match found {
                Ok(true) => cb(Ok(SourceId::new(format!("bt://node{}", next.0)))),
                _ => me.sdp_find_sensor(candidates, cxt_type, cb),
            }
        });
    }
}

/// Whether an SDP record advertises a *sensor* for the context type (a
/// GPS-NMEA serial service serves `location`). Contory context services
/// — peers' published items — are explicitly not sensors: they are served
/// by the ad hoc mechanism, not the intSensor one.
fn sensor_record_serves(record: &ServiceRecord, cxt_type: &str) -> bool {
    if record.uuid.starts_with(CONTORY_SERVICE_PREFIX) {
        return false;
    }
    match record.attributes.get("type").map(String::as_str) {
        Some("gps-nmea") => cxt_type == "location",
        Some(t) => t == cxt_type,
        None => false,
    }
}

fn parse_bt_source(source: &SourceId) -> Option<NodeId> {
    source
        .0
        .strip_prefix("bt://node")
        .and_then(|s| s.parse().ok())
        .map(NodeId)
}

impl fmt::Debug for SimBtReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SimBtReference")
            .field("serving", &inner.serving.len())
            .field("streams", &inner.streams.len())
            .finish()
    }
}

// ------------------------------------------------------------------
// WiFi / Smart Messages
// ------------------------------------------------------------------

/// The SM-backed `WiFiReference`.
#[derive(Clone)]
pub struct SimWifiReference {
    sim: Sim,
    sm: SmNode,
    wifi: WifiRadio,
    entity: String,
    world: radio::World,
    /// Testbed-wide map of entity names to nodes (for `entity(...)`
    /// destinations).
    entities: Rc<RefCell<BTreeMap<String, NodeId>>>,
}

impl SimWifiReference {
    /// Creates the reference over an installed SM runtime.
    pub fn new(
        sim: &Sim,
        sm: &SmNode,
        wifi: &WifiRadio,
        entity: &str,
        world: &radio::World,
        entities: Rc<RefCell<BTreeMap<String, NodeId>>>,
    ) -> Self {
        SimWifiReference {
            sim: sim.clone(),
            sm: sm.clone(),
            wifi: wifi.clone(),
            entity: entity.to_owned(),
            world: world.clone(),
            entities,
        }
    }
}

impl WifiReference for SimWifiReference {
    fn is_available(&self) -> bool {
        self.wifi.is_joined()
    }

    fn adhoc_round(&self, spec: &AdHocSpec, cb: Done<ItemsResult>) {
        if !self.is_available() {
            let sim = self.sim.clone();
            sim.schedule_in(SimDuration::ZERO, move || {
                cb(Err(RefError::Unavailable("wifi not joined".into())))
            });
            return;
        }
        let target_entity = spec
            .entity
            .as_ref()
            .and_then(|e| self.entities.borrow().get(e.0.as_str()).copied());
        if let (Some(who), None) = (spec.entity.clone(), target_entity) {
            let sim = self.sim.clone();
            sim.schedule_in(SimDuration::ZERO, move || {
                cb(Err(RefError::NotFound(format!("unknown entity {who}"))))
            });
            return;
        }
        let filter_spec = spec.clone();
        let finder_spec = FinderSpec {
            tag: spec.cxt_type.clone(),
            key: spec.key.clone(),
            filter: Some(Rc::new(move |tag: &Tag, now: SimTime| {
                match &tag.value.data {
                    Some(data) => match data.clone().downcast::<CxtItem>() {
                        Ok(item) => filter_spec.matches(&item, now),
                        Err(_) => false,
                    },
                    None => false,
                }
            })),
            num_nodes: match spec.num_nodes {
                NumNodes::All => smartmsg::finder::NumNodes::All,
                NumNodes::First(k) => smartmsg::finder::NumNodes::First(k),
            },
            num_hops: spec.num_hops,
            query_size: contory::query::CxtQuery::WIRE_SIZE,
            target_entity,
        };
        let region = spec.region;
        let num_hops = spec.num_hops;
        let world = self.world.clone();
        let timeout = SimDuration::from_secs(10) + SimDuration::from_secs(4) * num_hops as u64;
        self.sm.inject(
            Box::new(Finder::new(finder_spec)),
            timeout,
            move |outcome| match outcome {
                SmOutcome::Completed(_) => {
                    let Some(results) = outcome.completed_as::<Vec<FinderResult>>() else {
                        cb(Err(RefError::Unavailable(
                            "finder returned no results".into(),
                        )));
                        return;
                    };
                    let items: Vec<CxtItem> = results
                        .iter()
                        // Providers that drifted out of the hop range of
                        // interest are discarded (the paper's hopCnt check).
                        .filter(|r| r.found_depth <= num_hops)
                        // Region destinations: the *provider node* must be
                        // inside the monitored region.
                        .filter(|r| provider_in_region(&world, r.provider, region))
                        .filter_map(|r| {
                            r.tag
                                .value
                                .data
                                .clone()
                                .and_then(|d| d.downcast::<CxtItem>().ok())
                                .map(|i| i.as_ref().clone())
                        })
                        .collect();
                    cb(Ok(items));
                }
                SmOutcome::TimedOut => cb(Err(RefError::Timeout)),
                SmOutcome::Failed(e) => cb(Err(RefError::Unavailable(e.to_string()))),
            },
        );
    }

    fn publish(&self, item: &CxtItem, key: Option<String>, cb: Done<Result<(), RefError>>) {
        let mut tag = Tag::new(
            item.cxt_type.as_str(),
            TagValue::with_data(
                item.value_text(),
                Rc::new(item.clone().with_source(format!("wifi://{}", self.entity))),
                item.wire_size(),
            ),
            self.sim.now(),
        );
        if let Some(lifetime) = item.lifetime {
            tag = tag.with_lifetime(lifetime);
        }
        if let Some(k) = key {
            tag = tag.with_key(k);
        }
        self.sm.publish_tag(tag, move || cb(Ok(())));
    }

    fn unpublish(&self, cxt_type: &str) {
        self.sm.remove_tag(cxt_type);
    }
}

/// Region destinations: true when the providing node sits inside the
/// monitored region (queries whose destination is "the coordinates of a
/// region to be monitored", §4.2).
fn provider_in_region(
    world: &radio::World,
    provider: NodeId,
    region: Option<(f64, f64, f64)>,
) -> bool {
    let Some((x, y, r)) = region else {
        return true;
    };
    world
        .position_of(provider)
        .is_some_and(|p| Region::new(Position::new(x, y), r).contains(p))
}

impl fmt::Debug for SimWifiReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimWifiReference")
            .field("entity", &self.entity)
            .field("joined", &self.is_available())
            .finish()
    }
}

// ------------------------------------------------------------------
// Cellular / Fuego
// ------------------------------------------------------------------

/// The Fuego-backed `2G/3GReference`.
pub struct SimCellReference {
    modem: CellModem,
    client: InfraClient,
    entity: String,
    position: Rc<dyn Fn() -> Option<Position>>,
    subs: RefCell<BTreeMap<u64, InfraSubscription>>,
    next_sub: std::cell::Cell<u64>,
}

impl SimCellReference {
    /// Creates the reference. `position` georeferences stored items.
    pub fn new(
        modem: &CellModem,
        client: &InfraClient,
        entity: &str,
        position: Rc<dyn Fn() -> Option<Position>>,
    ) -> Self {
        SimCellReference {
            modem: modem.clone(),
            client: client.clone(),
            entity: entity.to_owned(),
            position,
            subs: RefCell::new(BTreeMap::new()),
            next_sub: std::cell::Cell::new(0),
        }
    }

    fn infra_query(&self, spec: &InfraSpec) -> InfraQuery {
        InfraQuery {
            item_type: spec.cxt_type.clone(),
            entity: spec.entity.clone(),
            region: spec
                .region
                .map(|(x, y, r)| Region::new(Position::new(x, y), r)),
            freshness: spec.freshness,
            max_items: spec.max_items,
        }
    }
}

/// The items a batch of infrastructure records carries, in the batch's
/// order, in a `Vec` sized once for the whole batch.
fn items_of(records: &[Rc<InfraRecord>]) -> Vec<CxtItem> {
    let mut items = Vec::with_capacity(records.len());
    items.extend(records.iter().filter_map(|r| record_to_item(r)));
    items
}

fn map_req_err(e: RequestError) -> RefError {
    match e {
        RequestError::Timeout => RefError::Timeout,
        RequestError::NoService => RefError::NotFound("no such infrastructure service".into()),
        RequestError::Link(e) => RefError::Unavailable(e.to_string()),
    }
}

impl CellReference for SimCellReference {
    fn is_available(&self) -> bool {
        self.modem.is_on()
    }

    fn store(&self, item: &CxtItem, cb: Done<Result<(), RefError>>) {
        let record = item_to_record(item, &self.entity, (self.position)());
        self.client
            .store(record, move |res| cb(res.map_err(map_req_err)));
    }

    fn fetch(&self, spec: &InfraSpec, cb: Done<ItemsResult>) {
        let q = self.infra_query(spec);
        self.client
            .query(&q, SimDuration::from_secs(30), move |res| match res {
                Ok(records) => cb(Ok(items_of(&records))),
                Err(e) => cb(Err(map_req_err(e))),
            });
    }

    fn subscribe(
        &self,
        spec: &InfraSpec,
        mode: InfraPushMode,
        on_items: OnItems,
    ) -> InfraSubHandle {
        let q = self.infra_query(spec);
        let push_mode = match mode {
            InfraPushMode::Periodic(every) => PushMode::Periodic(every),
            InfraPushMode::OnArrival => PushMode::OnStore,
        };
        let sub = self.client.subscribe(&q, push_mode, move |records| {
            let items = items_of(&records);
            if !items.is_empty() {
                on_items(items);
            }
        });
        self.next_sub.set(self.next_sub.get() + 1);
        let handle = InfraSubHandle(self.next_sub.get());
        self.subs.borrow_mut().insert(handle.0, sub);
        handle
    }

    fn unsubscribe(&self, handle: InfraSubHandle) {
        if let Some(sub) = self.subs.borrow_mut().remove(&handle.0) {
            sub.cancel();
        }
    }
}

impl fmt::Debug for SimCellReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCellReference")
            .field("entity", &self.entity)
            .field("subs", &self.subs.borrow().len())
            .finish()
    }
}
