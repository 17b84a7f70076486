//! Bluetooth radio model (JSR-82-level abstractions).
//!
//! Reproduces the behaviour the paper measured on the Nokia testbed:
//!
//! - **Device inquiry** takes ≈ 13 s and dominates on-demand provisioning
//!   cost (Table 2: 5.27 J including discovery vs 0.099 J without).
//! - **SDP service discovery** takes ≈ 1.12 s.
//! - **Service registration** (building the `DataElement` and inserting it
//!   into the Service Discovery Database) takes ≈ 140.4 ms — this is why
//!   BT-based `publishCxtItem` is three orders of magnitude slower than
//!   publishing an SM tag (Table 1).
//! - **Data exchange** is segmented into L2CAP packets; a 205-byte query
//!   plus a 136-byte item reply costs ≈ 31.8 ms at one hop.
//! - **Power**: page/inquiry scan draws 2.72 mW, inquiry ≈ 385 mW, and the
//!   radio stays in an elevated *active window* around each transfer —
//!   which is what makes a periodic GPS-NMEA stream (340 B in several
//!   sentences) cost 0.42 J/item against 0.099 J for a compact context
//!   item, exactly the segmentation effect the paper calls out.
//!
//! The model is callback-based: every operation completes via a closure
//! scheduled on the simulator, never synchronously.

use crate::world::{NodeId, World};
use phone::{Consumer, Milliwatts, Phone, PowerModel};
use simkit::{DetRng, Sim, SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Opaque application payload carried over a link. The wire size is passed
/// separately (the simulation does not serialize for real).
pub type Payload = Rc<dyn Any>;

/// Identifier of an open ACL link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u64);

/// Errors surfaced by Bluetooth operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BtError {
    /// The local radio is powered off (or the phone is off).
    RadioOff,
    /// The peer is not within radio range.
    OutOfRange(NodeId),
    /// The peer exists but its radio is off or not discoverable.
    PeerUnavailable(NodeId),
    /// The link was closed or never existed.
    LinkClosed(LinkId),
    /// An inquiry or SDP query is already in progress.
    Busy,
}

impl fmt::Display for BtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtError::RadioOff => write!(f, "bluetooth radio is off"),
            BtError::OutOfRange(n) => write!(f, "{n} is out of bluetooth range"),
            BtError::PeerUnavailable(n) => write!(f, "{n} is unavailable"),
            BtError::LinkClosed(l) => write!(f, "link {l:?} is closed"),
            BtError::Busy => write!(f, "radio is busy"),
        }
    }
}

impl Error for BtError {}

/// An entry in a device's Service Discovery Database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Service class UUID (stringly, as JSR-82 exposes it).
    pub uuid: String,
    /// Human-readable service name.
    pub name: String,
    /// Attribute list (`DataElement`s flattened to strings).
    pub attributes: BTreeMap<String, String>,
}

impl ServiceRecord {
    /// Creates a record with no attributes.
    pub fn new(uuid: impl Into<String>, name: impl Into<String>) -> Self {
        ServiceRecord {
            uuid: uuid.into(),
            name: name.into(),
            attributes: BTreeMap::new(),
        }
    }

    /// Adds an attribute, builder style.
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Approximate wire size of the record when transferred during SDP.
    pub fn wire_size(&self) -> usize {
        let attrs: usize = self
            .attributes
            .iter()
            .map(|(k, v)| k.len() + v.len() + 6)
            .sum();
        self.uuid.len() + self.name.len() + attrs + 16
    }
}

/// Calibration constants of the Bluetooth model. Defaults reproduce the
/// paper's Tables 1 and 2 (see module docs).
#[derive(Clone, Debug)]
pub struct BtParams {
    /// Radio range in metres (class 2).
    pub range_m: f64,
    /// Mean device-inquiry duration (~13 s in the paper).
    pub inquiry_mean: SimDuration,
    /// Inquiry duration standard deviation.
    pub inquiry_std: SimDuration,
    /// Mean SDP service-search duration (~1.12 s).
    pub sdp_mean: SimDuration,
    /// SDP duration standard deviation.
    pub sdp_std: SimDuration,
    /// Mean page (connect) duration.
    pub page_mean: SimDuration,
    /// Page duration standard deviation.
    pub page_std: SimDuration,
    /// Mean service-registration latency (DataElement + SDDB insert,
    /// ~140.36 ms).
    pub register_mean: SimDuration,
    /// Service-registration standard deviation.
    pub register_std: SimDuration,
    /// L2CAP segment payload size in bytes.
    pub mtu: usize,
    /// Fixed per-send latency (link setup on the ACL).
    pub send_base: SimDuration,
    /// Per-packet airtime latency.
    pub per_packet: SimDuration,
    /// Draw while in page/inquiry scan (discoverable idle): 2.72 mW.
    pub scan_mw: f64,
    /// Draw while running an inquiry: ~385 mW (13 s of this is most of
    /// the 5.27 J on-demand cost).
    pub inquiry_mw: f64,
    /// Draw while an SDP transaction runs.
    pub sdp_mw: f64,
    /// Idle draw with an ACL link open.
    pub link_idle_mw: f64,
    /// Draw during the receive-side active window.
    pub active_rx_mw: f64,
    /// Draw during the transmit-side active window.
    pub active_tx_mw: f64,
    /// Fixed length of the post-transfer active window.
    pub active_window_base: SimDuration,
    /// Active-window extension per payload byte.
    pub active_window_per_byte: SimDuration,
}

impl Default for BtParams {
    fn default() -> Self {
        BtParams {
            range_m: 10.0,
            inquiry_mean: SimDuration::from_millis(13_000),
            inquiry_std: SimDuration::from_millis(120),
            sdp_mean: SimDuration::from_millis(1_120),
            sdp_std: SimDuration::from_millis(40),
            page_mean: SimDuration::from_millis(640),
            page_std: SimDuration::from_millis(60),
            register_mean: SimDuration::from_micros(140_359),
            register_std: SimDuration::from_micros(700),
            mtu: 96,
            send_base: SimDuration::from_micros(4_000),
            per_packet: SimDuration::from_micros(4_766),
            scan_mw: 2.72,
            inquiry_mw: 385.0,
            sdp_mw: 150.0,
            link_idle_mw: 6.0,
            active_rx_mw: 120.0,
            active_tx_mw: 161.0,
            active_window_base: SimDuration::from_micros(485_000),
            active_window_per_byte: SimDuration::from_micros(3_200),
        }
    }
}

impl BtParams {
    /// Number of L2CAP packets a payload of `bytes` segments into.
    pub fn packets_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.mtu).max(1)
    }
}

type ReceiveHandler = Rc<dyn Fn(LinkId, NodeId, Payload)>;
type DisconnectHandler = Rc<dyn Fn(LinkId, NodeId)>;
type ConnectHandler = Rc<dyn Fn(LinkId, NodeId)>;

struct RadioState {
    on: bool,
    discoverable: bool,
    services: Vec<ServiceRecord>,
    inquiring: bool,
    sdp_busy: bool,
    // link id -> peer
    links: BTreeMap<LinkId, NodeId>,
    tx_active_until: SimTime,
    rx_active_until: SimTime,
    on_receive: Option<ReceiveHandler>,
    on_disconnect: Option<DisconnectHandler>,
    on_connect: Option<ConnectHandler>,
    power: PowerModel,
    phone: Phone,
    rng: DetRng,
}

impl RadioState {
    fn current_draw(&self, params: &BtParams, now: SimTime) -> f64 {
        if !self.on || !self.phone.is_on() {
            return 0.0;
        }
        let mut draw: f64 = 0.0;
        if self.discoverable {
            draw = draw.max(params.scan_mw);
        }
        if !self.links.is_empty() {
            draw = draw.max(params.link_idle_mw);
        }
        if self.rx_active_until > now {
            draw = draw.max(params.active_rx_mw);
        }
        if self.tx_active_until > now {
            draw = draw.max(params.active_tx_mw);
        }
        if self.sdp_busy {
            draw = draw.max(params.sdp_mw);
        }
        if self.inquiring {
            draw = draw.max(params.inquiry_mw);
        }
        draw
    }
}

struct MediumInner {
    sim: Sim,
    world: World,
    params: BtParams,
    radios: BTreeMap<NodeId, Rc<RefCell<RadioState>>>,
    next_link: u64,
}

/// The shared Bluetooth medium: attach one radio per node.
#[derive(Clone)]
pub struct BtMedium {
    inner: Rc<RefCell<MediumInner>>,
}

impl BtMedium {
    /// Creates a medium over a world, with calibration parameters.
    pub fn new(sim: &Sim, world: &World, params: BtParams) -> Self {
        BtMedium {
            inner: Rc::new(RefCell::new(MediumInner {
                sim: sim.clone(),
                world: world.clone(),
                params,
                radios: BTreeMap::new(),
                next_link: 0,
            })),
        }
    }

    /// Attaches a Bluetooth radio to `node`, drawing power from `phone`.
    /// The radio starts powered on and discoverable (page/inquiry scan),
    /// like the paper's 8.47 mW baseline.
    ///
    /// # Panics
    ///
    /// Panics if the node already has a radio attached.
    pub fn attach(&self, node: NodeId, phone: &Phone, seed: u64) -> BtRadio {
        let state = Rc::new(RefCell::new(RadioState {
            on: true,
            discoverable: true,
            services: Vec::new(),
            inquiring: false,
            sdp_busy: false,
            links: BTreeMap::new(),
            tx_active_until: SimTime::ZERO,
            rx_active_until: SimTime::ZERO,
            on_receive: None,
            on_disconnect: None,
            on_connect: None,
            power: phone.power().clone(),
            phone: phone.clone(),
            rng: DetRng::new(seed),
        }));
        {
            let mut inner = self.inner.borrow_mut();
            let prev = inner.radios.insert(node, state.clone());
            assert!(prev.is_none(), "{node} already has a BT radio");
        }
        let radio = BtRadio {
            medium: self.clone(),
            node,
        };
        radio.refresh_power();
        radio
    }

    fn sim(&self) -> Sim {
        self.inner.borrow().sim.clone()
    }

    fn params(&self) -> BtParams {
        self.inner.borrow().params.clone()
    }

    fn state_of(&self, node: NodeId) -> Option<Rc<RefCell<RadioState>>> {
        self.inner.borrow().radios.get(&node).cloned()
    }

    fn alloc_link(&self) -> LinkId {
        let mut inner = self.inner.borrow_mut();
        inner.next_link += 1;
        LinkId(inner.next_link)
    }

    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        let inner = self.inner.borrow();
        inner.world.in_range(a, b, inner.params.range_m)
    }

    /// Nodes whose radios are on, discoverable and within range of `of`.
    fn discoverable_neighbors(&self, of: NodeId) -> Vec<NodeId> {
        let (world, range): (World, f64) = {
            let inner = self.inner.borrow();
            (inner.world.clone(), inner.params.range_m)
        };
        let neighbors = world.neighbors(of, range);
        let inner = self.inner.borrow();
        neighbors
            .into_iter()
            .filter(|n| {
                inner.radios.get(n).is_some_and(|r| {
                    let r = r.borrow();
                    r.on && r.discoverable && r.phone.is_on()
                })
            })
            .collect()
    }
}

impl fmt::Debug for BtMedium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BtMedium")
            .field("radios", &self.inner.borrow().radios.len())
            .finish()
    }
}

/// One node's Bluetooth radio. Cloneable handle.
#[derive(Clone)]
pub struct BtRadio {
    medium: BtMedium,
    node: NodeId,
}

impl BtRadio {
    /// The node this radio belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn state(&self) -> Rc<RefCell<RadioState>> {
        self.medium
            .state_of(self.node)
            // Attach is the only constructor, radios are never detached:
            // an absent entry is unreachable by construction.
            .expect("radio detached from medium") // lint:allow(panic-reachable) attach-time invariant
    }

    /// Recomputes this radio's draw and pokes the phone's power model.
    fn refresh_power(&self) {
        let params = self.medium.params();
        let now = self.medium.sim().now();
        let state = self.state();
        let (draw, power) = {
            let s = state.borrow();
            (s.current_draw(&params, now), s.power.clone())
        };
        power.set(Consumer::BtRadio, Milliwatts(draw));
    }

    /// Schedules a power refresh at `t` (used for active-window expiry).
    fn refresh_power_at(&self, t: SimTime) {
        let me = self.clone();
        self.medium.sim().schedule_at(t, move || me.refresh_power());
    }

    /// Powers the radio on or off. Powering off closes all links (both
    /// ends observe the disconnect).
    pub fn set_power(&self, on: bool) {
        let peers: Vec<(LinkId, NodeId)> = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.on = on;
            if on {
                Vec::new()
            } else {
                s.links.iter().map(|(&l, &p)| (l, p)).collect()
            }
        };
        for (link, peer) in peers {
            self.teardown_link(link, peer);
        }
        self.refresh_power();
    }

    /// True if the radio (and its phone) are powered.
    pub fn is_on(&self) -> bool {
        let state = self.state();
        let s = state.borrow();
        s.on && s.phone.is_on()
    }

    /// Installs the receive handler: `(link, from, payload)`.
    pub fn on_receive(&self, f: impl Fn(LinkId, NodeId, Payload) + 'static) {
        self.state().borrow_mut().on_receive = Some(Rc::new(f));
    }

    /// Installs the disconnect handler: `(link, peer)`.
    pub fn on_disconnect(&self, f: impl Fn(LinkId, NodeId) + 'static) {
        self.state().borrow_mut().on_disconnect = Some(Rc::new(f));
    }

    /// Installs the incoming-connection handler: `(link, initiator)`.
    /// Fired on the callee side when a peer opens an ACL link (how a
    /// BT-GPS puck learns a phone attached to it).
    pub fn on_connect(&self, f: impl Fn(LinkId, NodeId) + 'static) {
        self.state().borrow_mut().on_connect = Some(Rc::new(f));
    }

    /// Starts a device inquiry; `cb` receives discoverable in-range nodes
    /// after the ~13 s inquiry completes.
    ///
    /// # Errors
    ///
    /// The callback receives [`BtError::RadioOff`] if the radio is off or
    /// [`BtError::Busy`] if an inquiry is already running.
    pub fn inquiry(&self, cb: impl FnOnce(Result<Vec<NodeId>, BtError>) + 'static) {
        if !self.is_on() {
            let sim = self.medium.sim();
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let dur = {
            let state = self.state();
            let mut s = state.borrow_mut();
            if s.inquiring {
                drop(s);
                let sim = self.medium.sim();
                sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::Busy)));
                return;
            }
            s.inquiring = true;
            s.rng.gauss_duration(params.inquiry_mean, params.inquiry_std)
        };
        self.refresh_power();
        obskit::count("bt_inquiries", 1);
        let span = obskit::start(
            obskit::Phase::Discovery,
            &format!("bt_inquiry:{}", self.node),
            None,
            self.medium.sim().now(),
        );
        let me = self.clone();
        self.medium.sim().schedule_in(dur, move || {
            me.state().borrow_mut().inquiring = false;
            me.refresh_power();
            obskit::end(span, me.medium.sim().now());
            let found = if me.is_on() {
                me.medium.discoverable_neighbors(me.node)
            } else {
                Vec::new()
            };
            obskit::count("bt_inquiry_found", found.len() as u64);
            cb(Ok(found));
        });
    }

    /// Registers a context service in the local SDDB. Completion (after
    /// the ~140 ms `DataElement` encapsulation + insert) is signalled via
    /// `cb`. Replaces any record with the same UUID.
    pub fn register_service(
        &self,
        record: ServiceRecord,
        cb: impl FnOnce(Result<(), BtError>) + 'static,
    ) {
        let sim = self.medium.sim();
        if !self.is_on() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let dur = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.rng
                .gauss_duration(params.register_mean, params.register_std)
        };
        obskit::count("bt_service_registrations", 1);
        obskit::observe("bt_register_us", dur.as_micros());
        let me = self.clone();
        sim.schedule_in(dur, move || {
            let state = me.state();
            let mut s = state.borrow_mut();
            s.services.retain(|r| r.uuid != record.uuid);
            s.services.push(record);
            drop(s);
            cb(Ok(()));
        });
    }

    /// Removes a service record immediately.
    pub fn unregister_service(&self, uuid: &str) {
        self.state().borrow_mut().services.retain(|r| r.uuid != uuid);
    }

    /// Snapshot of the local SDDB (mainly for tests and inspection).
    pub fn local_services(&self) -> Vec<ServiceRecord> {
        self.state().borrow().services.clone()
    }

    /// Runs an SDP service search against `peer` (~1.12 s).
    ///
    /// # Errors
    ///
    /// The callback receives [`BtError`] if the radio is off, busy, or the
    /// peer is out of range / unavailable at completion time.
    pub fn sdp_query(
        &self,
        peer: NodeId,
        cb: impl FnOnce(Result<Vec<ServiceRecord>, BtError>) + 'static,
    ) {
        let sim = self.medium.sim();
        if !self.is_on() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let dur = {
            let state = self.state();
            let mut s = state.borrow_mut();
            if s.sdp_busy {
                drop(s);
                sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::Busy)));
                return;
            }
            s.sdp_busy = true;
            s.rng.gauss_duration(params.sdp_mean, params.sdp_std)
        };
        self.refresh_power();
        obskit::count("bt_sdp_queries", 1);
        let span = obskit::start(
            obskit::Phase::Sdp,
            &format!("bt_sdp:{}->{}", self.node, peer),
            None,
            sim.now(),
        );
        let me = self.clone();
        sim.schedule_in(dur, move || {
            me.state().borrow_mut().sdp_busy = false;
            me.refresh_power();
            obskit::end(span, me.medium.sim().now());
            let result = if !me.is_on() {
                Err(BtError::RadioOff)
            } else if !me.medium.in_range(me.node, peer) {
                Err(BtError::OutOfRange(peer))
            } else {
                match me.medium.state_of(peer) {
                    Some(p) if p.borrow().on && p.borrow().phone.is_on() => {
                        Ok(p.borrow().services.clone())
                    }
                    _ => Err(BtError::PeerUnavailable(peer)),
                }
            };
            if result.is_err() {
                obskit::count("bt_sdp_failures", 1);
            }
            cb(result);
        });
    }

    /// Opens an ACL link to `peer` (paging, ~0.6 s).
    ///
    /// # Errors
    ///
    /// The callback receives [`BtError`] if either radio is off or the
    /// peer is out of range.
    pub fn connect(&self, peer: NodeId, cb: impl FnOnce(Result<LinkId, BtError>) + 'static) {
        let sim = self.medium.sim();
        if !self.is_on() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let dur = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.rng.gauss_duration(params.page_mean, params.page_std)
        };
        obskit::count("bt_connects", 1);
        let span = obskit::start(
            obskit::Phase::Connect,
            &format!("bt_page:{}->{}", self.node, peer),
            None,
            sim.now(),
        );
        let me = self.clone();
        sim.schedule_in(dur, move || {
            obskit::end(span, me.medium.sim().now());
            if !me.is_on() {
                obskit::count("bt_connect_failures", 1);
                cb(Err(BtError::RadioOff));
                return;
            }
            if !me.medium.in_range(me.node, peer) {
                obskit::count("bt_connect_failures", 1);
                cb(Err(BtError::OutOfRange(peer)));
                return;
            }
            let Some(peer_state) = me.medium.state_of(peer) else {
                obskit::count("bt_connect_failures", 1);
                cb(Err(BtError::PeerUnavailable(peer)));
                return;
            };
            if !(peer_state.borrow().on && peer_state.borrow().phone.is_on()) {
                obskit::count("bt_connect_failures", 1);
                cb(Err(BtError::PeerUnavailable(peer)));
                return;
            }
            let link = me.medium.alloc_link();
            me.state().borrow_mut().links.insert(link, peer);
            peer_state.borrow_mut().links.insert(link, me.node);
            me.refresh_power();
            BtRadio {
                medium: me.medium.clone(),
                node: peer,
            }
            .refresh_power();
            let connect_handler = peer_state.borrow().on_connect.clone();
            if let Some(h) = connect_handler {
                h(link, me.node);
            }
            cb(Ok(link));
        });
    }

    /// Sends `payload` (`wire_bytes` on the air) over `link`. Delivery
    /// latency follows the segmented-packet model; both ends hold an
    /// elevated active power window sized by the payload.
    ///
    /// # Errors
    ///
    /// The callback receives [`BtError::LinkClosed`] if the link is not
    /// open locally, or [`BtError::OutOfRange`] if the peer moved away
    /// before delivery (the link is then torn down).
    pub fn send(
        &self,
        link: LinkId,
        wire_bytes: usize,
        payload: Payload,
        cb: impl FnOnce(Result<(), BtError>) + 'static,
    ) {
        let sim = self.medium.sim();
        if !self.is_on() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let peer = {
            let state = self.state();
            let s = state.borrow();
            match s.links.get(&link) {
                Some(&p) => p,
                None => {
                    drop(s);
                    sim.schedule_in(SimDuration::ZERO, move || cb(Err(BtError::LinkClosed(link))));
                    return;
                }
            }
        };
        let packets = params.packets_for(wire_bytes);
        let latency = {
            let state = self.state();
            let mut s = state.borrow_mut();
            let nominal = params.send_base + params.per_packet * packets as u64;
            s.rng.jitter(nominal, 0.01)
        };
        obskit::count("bt_sends", 1);
        obskit::count("bt_tx_packets", packets as u64);
        obskit::count("bt_tx_bytes", wire_bytes as u64);
        obskit::observe("bt_send_us", latency.as_micros());
        let span = obskit::start(
            obskit::Phase::Transfer,
            &format!("bt_send:{}->{}:{}B/{}pkt", self.node, peer, wire_bytes, packets),
            None,
            sim.now(),
        );
        // Open the transmit active window now.
        let window = params.active_window_base + params.active_window_per_byte * wire_bytes as u64;
        {
            let state = self.state();
            let mut s = state.borrow_mut();
            let now = sim.now();
            let start = s.tx_active_until.max(now);
            s.tx_active_until = start + window;
        }
        self.refresh_power();
        self.refresh_power_at(self.state().borrow().tx_active_until);

        let me = self.clone();
        sim.schedule_in(latency, move || {
            obskit::end(span, me.medium.sim().now());
            if !me.medium.in_range(me.node, peer) {
                obskit::count("bt_send_failures", 1);
                me.teardown_link(link, peer);
                cb(Err(BtError::OutOfRange(peer)));
                return;
            }
            let Some(peer_state) = me.medium.state_of(peer) else {
                obskit::count("bt_send_failures", 1);
                cb(Err(BtError::PeerUnavailable(peer)));
                return;
            };
            let handler = {
                let mut p = peer_state.borrow_mut();
                if !(p.on && p.phone.is_on() && p.links.contains_key(&link)) {
                    drop(p);
                    obskit::count("bt_send_failures", 1);
                    me.teardown_link(link, peer);
                    cb(Err(BtError::LinkClosed(link)));
                    return;
                }
                // Receive-side active window.
                let now = me.medium.sim().now();
                let start = p.rx_active_until.max(now);
                p.rx_active_until = start + window;
                p.on_receive.clone()
            };
            let peer_radio = BtRadio {
                medium: me.medium.clone(),
                node: peer,
            };
            peer_radio.refresh_power();
            peer_radio.refresh_power_at(peer_state.borrow().rx_active_until);
            if let Some(h) = handler {
                h(link, me.node, payload);
            }
            cb(Ok(()));
        });
    }

    /// Closes a link (both ends see the disconnect).
    pub fn disconnect(&self, link: LinkId) {
        let peer = self.state().borrow().links.get(&link).copied();
        if let Some(peer) = peer {
            self.teardown_link(link, peer);
        }
    }

    /// Open links and their peers.
    pub fn links(&self) -> Vec<(LinkId, NodeId)> {
        self.state().borrow().links.iter().map(|(&l, &p)| (l, p)).collect()
    }

    fn teardown_link(&self, link: LinkId, peer: NodeId) {
        let removed_local = self.state().borrow_mut().links.remove(&link).is_some();
        let removed_peer = self
            .medium
            .state_of(peer)
            .map(|p| p.borrow_mut().links.remove(&link).is_some())
            .unwrap_or(false);
        if removed_local {
            self.notify_disconnect(link, peer);
            self.refresh_power();
        }
        if removed_peer {
            let peer_radio = BtRadio {
                medium: self.medium.clone(),
                node: peer,
            };
            peer_radio.notify_disconnect(link, self.node);
            peer_radio.refresh_power();
        }
    }

    fn notify_disconnect(&self, link: LinkId, peer: NodeId) {
        let handler = self.state().borrow().on_disconnect.clone();
        if let Some(h) = handler {
            h(link, peer);
        }
    }
}

impl fmt::Debug for BtRadio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BtRadio").field("node", &self.node).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Position;
    use phone::PhoneConfig;
    use std::cell::{Cell, RefCell as StdRefCell};

    struct Rig {
        sim: Sim,
        world: World,
        medium: BtMedium,
    }

    fn rig() -> Rig {
        let sim = Sim::new();
        let world = World::new(&sim);
        let medium = BtMedium::new(&sim, &world, BtParams::default());
        Rig { sim, world, medium }
    }

    /// Stops `radio` answering inquiries (page/inquiry scan off).
    fn hide(radio: &BtRadio) {
        radio.state().borrow_mut().discoverable = false;
        radio.refresh_power();
    }

    fn phone_at(rig: &Rig, x: f64) -> (NodeId, Phone) {
        let node = rig.world.add_node(Position::new(x, 0.0));
        let phone = Phone::new(&rig.sim, PhoneConfig::default());
        (node, phone)
    }

    #[test]
    fn inquiry_finds_in_range_discoverable_peers() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let (c, pc) = phone_at(&r, 50.0); // out of range
        let ra = r.medium.attach(a, &pa, 1);
        let _rb = r.medium.attach(b, &pb, 2);
        let _rc = r.medium.attach(c, &pc, 3);
        let found = Rc::new(StdRefCell::new(Vec::new()));
        let f = found.clone();
        ra.inquiry(move |res| *f.borrow_mut() = res.unwrap());
        r.sim.run_until_idle();
        assert_eq!(*found.borrow(), vec![b]);
        // inquiry takes ~13 s
        let t = r.sim.now().as_secs_f64();
        assert!((12.0..14.0).contains(&t), "inquiry took {t}");
    }

    #[test]
    fn non_discoverable_peer_is_hidden() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let rb = r.medium.attach(b, &pb, 2);
        hide(&rb);
        let found = Rc::new(StdRefCell::new(vec![NodeId(999)]));
        let f = found.clone();
        ra.inquiry(move |res| *f.borrow_mut() = res.unwrap());
        r.sim.run_until_idle();
        assert!(found.borrow().is_empty());
    }

    #[test]
    fn sdp_returns_registered_services() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let rb = r.medium.attach(b, &pb, 2);
        let record = ServiceRecord::new("uuid-ctx", "contory")
            .with_attribute("type", "temperature");
        rb.register_service(record.clone(), |res| res.unwrap());
        r.sim.run_until_idle();
        let t_reg = r.sim.now().as_secs_f64();
        assert!(
            (0.13..0.15).contains(&t_reg),
            "service registration took {t_reg}s, expected ~140 ms"
        );
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        ra.sdp_query(b, move |res| *g.borrow_mut() = res.unwrap());
        let t0 = r.sim.now();
        r.sim.run_until_idle();
        let sdp_secs = (r.sim.now() - t0).as_secs_f64();
        assert!((1.0..1.3).contains(&sdp_secs), "sdp took {sdp_secs}");
        assert_eq!(*got.borrow(), vec![record]);
    }

    #[test]
    fn exchange_latency_matches_table1() {
        // 205 B query + 136 B reply over an open link ≈ 31.8 ms.
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let rb = r.medium.attach(b, &pb, 2);
        let link = Rc::new(Cell::new(None));
        let l = link.clone();
        ra.connect(b, move |res| l.set(Some(res.unwrap())));
        r.sim.run_until_idle();
        let link = link.get().unwrap();
        // echo server on b: replies with a 136-byte item
        {
            let rb2 = rb.clone();
            rb.on_receive(move |lnk, _from, _payload| {
                rb2.send(lnk, 136, Rc::new(()), |res| res.unwrap());
            });
        }
        let done_at = Rc::new(Cell::new(None));
        {
            let d = done_at.clone();
            let sim = r.sim.clone();
            ra.on_receive(move |_l, _f, _p| d.set(Some(sim.now())));
        }
        let t0 = r.sim.now();
        ra.send(link, 205, Rc::new(()), |res| res.unwrap());
        r.sim.run_until_idle();
        let rtt_ms = (done_at.get().unwrap() - t0).as_millis_f64();
        assert!(
            (30.0..34.0).contains(&rtt_ms),
            "exchange took {rtt_ms} ms, expected ~31.8"
        );
    }

    #[test]
    fn periodic_item_energy_matches_table2() {
        // Provider pushes a 136 B item; requester-side energy per item
        // should be ≈ 0.099 J (active window model).
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let rb = r.medium.attach(b, &pb, 2);
        // Not discoverable: isolate the active-window energy from scan draw.
        hide(&ra);
        hide(&rb);
        let link = Rc::new(Cell::new(None));
        let l = link.clone();
        rb.connect(a, move |res| l.set(Some(res.unwrap())));
        r.sim.run_until_idle();
        let link = link.get().unwrap();
        let t0 = r.sim.now();
        let items = 10u64;
        let rb2 = rb.clone();
        let sent = Rc::new(Cell::new(0u64));
        let s = sent.clone();
        r.sim.schedule_repeating(SimDuration::from_secs(5), move || {
            rb2.send(link, 136, Rc::new(()), |_res| {});
            s.set(s.get() + 1);
            s.get() < items
        });
        r.sim.run_for(SimDuration::from_secs(60));
        let e = pa.power().energy_between(t0, r.sim.now());
        // Subtract the baseline + link idle floor to isolate per-item cost.
        let floor = (5.75 + 6.0) * 60.0 / 1000.0; // J
        let per_item = (e.as_joules() - floor) / items as f64;
        assert!(
            (0.085..0.115).contains(&per_item),
            "per-item energy {per_item} J, expected ~0.099"
        );
    }

    #[test]
    fn out_of_range_send_fails_and_disconnects() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let _rb = r.medium.attach(b, &pb, 2);
        let link = Rc::new(Cell::new(None));
        let l = link.clone();
        ra.connect(b, move |res| l.set(Some(res.unwrap())));
        r.sim.run_until_idle();
        let link = link.get().unwrap();
        let dropped = Rc::new(Cell::new(false));
        let d = dropped.clone();
        ra.on_disconnect(move |_l, _p| d.set(true));
        // peer sails away
        r.world.set_position(b, Position::new(1000.0, 0.0));
        let err = Rc::new(StdRefCell::new(None));
        let e = err.clone();
        ra.send(link, 100, Rc::new(()), move |res| {
            *e.borrow_mut() = Some(res.unwrap_err())
        });
        r.sim.run_until_idle();
        assert_eq!(*err.borrow(), Some(BtError::OutOfRange(b)));
        assert!(dropped.get());
        assert!(ra.links().is_empty());
    }

    #[test]
    fn radio_off_rejects_operations() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let ra = r.medium.attach(a, &pa, 1);
        ra.set_power(false);
        let got = Rc::new(StdRefCell::new(None));
        let g = got.clone();
        ra.inquiry(move |res| *g.borrow_mut() = Some(res));
        r.sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(Err(BtError::RadioOff)));
        assert_eq!(pa.power().get(Consumer::BtRadio), Some(Milliwatts(0.0)));
    }

    #[test]
    fn concurrent_inquiry_is_busy() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let ra = r.medium.attach(a, &pa, 1);
        ra.inquiry(|_res| {});
        let got = Rc::new(StdRefCell::new(None));
        let g = got.clone();
        ra.inquiry(move |res| *g.borrow_mut() = Some(res));
        r.sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(Err(BtError::Busy)));
    }

    #[test]
    fn scan_draw_matches_paper() {
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let _ra = r.medium.attach(a, &pa, 1);
        // 5.75 baseline + 2.72 scan = 8.47 mW
        assert!((pa.power().total().0 - 8.47).abs() < 1e-9);
    }

    #[test]
    fn ondemand_discovery_energy_matches_table2() {
        // inquiry (13 s @ 385 mW) + SDP (1.12 s @ 150 mW) + exchange
        // ≈ 5.27 J total on the requester.
        let r = rig();
        let (a, pa) = phone_at(&r, 0.0);
        let (b, pb) = phone_at(&r, 5.0);
        let ra = r.medium.attach(a, &pa, 1);
        let rb = r.medium.attach(b, &pb, 2);
        hide(&ra); // requester needn't answer scans
        rb.register_service(ServiceRecord::new("uuid-ctx", "contory"), |_res| {});
        r.sim.run_until_idle();
        let t0 = r.sim.now();
        let ra2 = ra.clone();
        let ra3 = ra.clone();
        let rb2 = rb.clone();
        ra.inquiry(move |res| {
            let peer = res.unwrap()[0];
            ra2.sdp_query(peer, move |recs| {
                assert_eq!(recs.unwrap().len(), 1);
                let ra4 = ra3.clone();
                ra3.connect(peer, move |link| {
                    let link = link.unwrap();
                    rb2.on_receive({
                        let rb3 = rb2.clone();
                        move |l, _f, _p| rb3.send(l, 136, Rc::new(()), |_res| {})
                    });
                    ra4.send(link, 205, Rc::new(()), |_res| {});
                });
            });
        });
        r.sim.run_until_idle();
        let e = pa.power().energy_between(t0, r.sim.now());
        let elapsed = (r.sim.now() - t0).as_secs_f64();
        let baseline = 5.75 * elapsed / 1000.0;
        let op = e.as_joules() - baseline;
        assert!(
            (4.7..5.9).contains(&op),
            "on-demand discovery+get cost {op} J, expected ~5.27"
        );
    }
}
