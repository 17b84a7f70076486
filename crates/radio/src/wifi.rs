//! 802.11b ad hoc (IBSS) WiFi model.
//!
//! The paper's WiFi findings are dominated by one fact: *having WiFi
//! connected at full signal drains a constant ≈ 300 mA* (≈ 1190 mW with
//! the back-light on) — more than 100× BT's inquiry-scan draw. Latency of
//! a one-hop transfer is, by contrast, cheap; multi-hop cost comes from
//! the Smart Messages platform built on top (see `contory-smartmsg`).
//!
//! The model also reproduces the measurement artefact the paper hit:
//! WiFi startup draws a large in-rush current, and with a multimeter's
//! shunt in series the supply sags below the battery protection threshold,
//! switching the communicator off within ~30 s (hence Table 2's `>`
//! lower bounds for the WiFi rows).

use crate::world::{NodeId, World};
use phone::{Consumer, Milliwatts, Phone, PowerModel};
use simkit::{DetRng, Sim, SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Opaque application payload (wire size passed separately).
pub type Payload = Rc<dyn Any>;

/// Errors surfaced by WiFi operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WifiError {
    /// The local radio is off (or the phone is off).
    RadioOff,
    /// The destination is not reachable in one hop right now.
    Unreachable(NodeId),
}

impl fmt::Display for WifiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WifiError::RadioOff => write!(f, "wifi radio is off"),
            WifiError::Unreachable(n) => write!(f, "{n} unreachable over wifi"),
        }
    }
}

impl Error for WifiError {}

/// Calibration constants for the WiFi model.
#[derive(Clone, Debug)]
pub struct WifiParams {
    /// Usable ad hoc range in metres.
    pub range_m: f64,
    /// Time from power-on to a usable IBSS join.
    pub join_duration: SimDuration,
    /// Steady connected draw. 1190 mW total with back-light (76.20 mW)
    /// on: 1113.8 mW for the radio itself.
    pub connected_mw: f64,
    /// In-rush draw during the startup phase.
    pub inrush_mw: f64,
    /// How long the startup phase (at in-rush draw) lasts. Long enough
    /// that a metered phone browns out first, as observed in the paper.
    pub inrush_duration: SimDuration,
    /// Fixed per-send MAC/queueing latency.
    pub send_base: SimDuration,
    /// Effective application-level throughput in bytes/second. J2ME-era
    /// TCP on these communicators was slow; ~26 KB/s makes the SM transfer
    /// component match the paper's break-up.
    pub throughput_bps: f64,
}

impl Default for WifiParams {
    fn default() -> Self {
        WifiParams {
            range_m: 100.0,
            join_duration: SimDuration::from_millis(1_500),
            connected_mw: 1190.0 - 76.20,
            inrush_mw: 2500.0,
            inrush_duration: SimDuration::from_secs(28),
            send_base: SimDuration::from_micros(2_000),
            throughput_bps: 26_600.0,
        }
    }
}

impl WifiParams {
    /// Transfer airtime for a payload of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.send_base + SimDuration::from_secs_f64(bytes as f64 / self.throughput_bps)
    }
}

type ReceiveHandler = Rc<dyn Fn(NodeId, Payload)>;

struct RadioState {
    on: bool,
    joined: bool,
    powered_since: SimTime,
    on_receive: Option<ReceiveHandler>,
    power: PowerModel,
    phone: Phone,
    rng: DetRng,
}

struct MediumInner {
    sim: Sim,
    world: World,
    params: WifiParams,
    radios: BTreeMap<NodeId, Rc<RefCell<RadioState>>>,
}

/// The shared ad hoc WiFi medium.
#[derive(Clone)]
pub struct WifiMedium {
    inner: Rc<RefCell<MediumInner>>,
}

impl WifiMedium {
    /// Creates a medium over a world.
    pub fn new(sim: &Sim, world: &World, params: WifiParams) -> Self {
        WifiMedium {
            inner: Rc::new(RefCell::new(MediumInner {
                sim: sim.clone(),
                world: world.clone(),
                params,
                radios: BTreeMap::new(),
            })),
        }
    }

    /// Attaches a WiFi radio to `node` (starts powered *off* — WiFi is too
    /// expensive to leave on).
    ///
    /// # Panics
    ///
    /// Panics if the node already has a WiFi radio.
    pub fn attach(&self, node: NodeId, phone: &Phone, seed: u64) -> WifiRadio {
        let state = Rc::new(RefCell::new(RadioState {
            on: false,
            joined: false,
            powered_since: SimTime::ZERO,
            on_receive: None,
            power: phone.power().clone(),
            phone: phone.clone(),
            rng: DetRng::new(seed),
        }));
        let mut inner = self.inner.borrow_mut();
        let prev = inner.radios.insert(node, state);
        assert!(prev.is_none(), "{node} already has a WiFi radio");
        WifiRadio {
            medium: self.clone(),
            node,
        }
    }

    fn sim(&self) -> Sim {
        self.inner.borrow().sim.clone()
    }

    fn params(&self) -> WifiParams {
        self.inner.borrow().params.clone()
    }

    fn state_of(&self, node: NodeId) -> Option<Rc<RefCell<RadioState>>> {
        self.inner.borrow().radios.get(&node).cloned()
    }

    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        let inner = self.inner.borrow();
        inner.world.in_range(a, b, inner.params.range_m)
    }

    /// Nodes with a joined radio in range of `of` (ad hoc beacon view).
    pub fn joined_neighbors(&self, of: NodeId) -> Vec<NodeId> {
        let (world, range) = {
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
                    r.on && r.joined && r.phone.is_on()
                })
            })
            .collect()
    }
}

impl fmt::Debug for WifiMedium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WifiMedium")
            .field("radios", &self.inner.borrow().radios.len())
            .finish()
    }
}

/// One node's WiFi radio. Cloneable handle.
#[derive(Clone)]
pub struct WifiRadio {
    medium: WifiMedium,
    node: NodeId,
}

impl WifiRadio {
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

    /// True if the radio is on, joined to the IBSS, and the phone is up.
    pub fn is_joined(&self) -> bool {
        let state = self.state();
        let s = state.borrow();
        s.on && s.joined && s.phone.is_on()
    }

    /// Powers the radio on. `cb` fires once the ad hoc network is joined
    /// (~1.5 s). Draw goes to in-rush level immediately, dropping to the
    /// steady connected draw after the startup phase — unless the battery
    /// protection circuit kills the phone first (metered runs).
    pub fn power_on(&self, cb: impl FnOnce() + 'static) {
        let sim = self.medium.sim();
        let params = self.medium.params();
        {
            let state = self.state();
            let mut s = state.borrow_mut();
            if s.on {
                drop(s);
                sim.schedule_in(SimDuration::ZERO, cb);
                return;
            }
            s.on = true;
            s.powered_since = sim.now();
            s.power
                .set(Consumer::WifiRadio, Milliwatts(params.inrush_mw));
        }
        let me = self.clone();
        let join_jitter = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.rng.jitter(params.join_duration, 0.1)
        };
        obskit::count("wifi_power_ons", 1);
        let span = obskit::start(
            obskit::Phase::Connect,
            &format!("wifi_join:{}", self.node),
            None,
            sim.now(),
        );
        sim.schedule_in(join_jitter, move || {
            obskit::end(span, me.medium.sim().now());
            let state = me.state();
            let mut s = state.borrow_mut();
            if s.on && s.phone.is_on() {
                s.joined = true;
                drop(s);
                cb();
            }
        });
        let me2 = self.clone();
        let since = self.state().borrow().powered_since;
        sim.schedule_in(params.inrush_duration, move || {
            let state = me2.state();
            let s = state.borrow();
            // Still the same power-on session, still on, phone survived.
            if s.on && s.powered_since == since && s.phone.is_on() {
                s.power
                    .set(Consumer::WifiRadio, Milliwatts(params.connected_mw));
            }
        });
    }

    /// Powers the radio off immediately.
    pub fn power_off(&self) {
        let state = self.state();
        let mut s = state.borrow_mut();
        s.on = false;
        s.joined = false;
        s.power.set(Consumer::WifiRadio, Milliwatts::ZERO);
    }

    /// Installs the receive handler: `(from, payload)`.
    pub fn on_receive(&self, f: impl Fn(NodeId, Payload) + 'static) {
        self.state().borrow_mut().on_receive = Some(Rc::new(f));
    }

    /// Joined neighbors visible right now.
    pub fn neighbors(&self) -> Vec<NodeId> {
        if !self.is_joined() {
            return Vec::new();
        }
        self.medium.joined_neighbors(self.node)
    }

    /// Sends `payload` (`wire_bytes` on the air) to a one-hop neighbor.
    ///
    /// # Errors
    ///
    /// The callback receives [`WifiError::RadioOff`] if this radio is not
    /// joined, or [`WifiError::Unreachable`] if `dst` is not a joined
    /// neighbor when the frame would arrive.
    pub fn send(
        &self,
        dst: NodeId,
        wire_bytes: usize,
        payload: Payload,
        cb: impl FnOnce(Result<(), WifiError>) + 'static,
    ) {
        let sim = self.medium.sim();
        if !self.is_joined() {
            sim.schedule_in(SimDuration::ZERO, move || cb(Err(WifiError::RadioOff)));
            return;
        }
        let params = self.medium.params();
        let latency = {
            let state = self.state();
            let mut s = state.borrow_mut();
            s.rng.jitter(params.transfer_time(wire_bytes), 0.02)
        };
        obskit::count("wifi_hops", 1);
        obskit::count("wifi_tx_bytes", wire_bytes as u64);
        obskit::observe("wifi_hop_us", latency.as_micros());
        let span = obskit::start(
            obskit::Phase::Transfer,
            &format!("wifi_hop:{}->{}:{}B", self.node, dst, wire_bytes),
            None,
            sim.now(),
        );
        let me = self.clone();
        sim.schedule_in(latency, move || {
            obskit::end(span, me.medium.sim().now());
            if !me.is_joined() {
                obskit::count("wifi_hop_failures", 1);
                cb(Err(WifiError::RadioOff));
                return;
            }
            if !me.medium.in_range(me.node, dst) {
                obskit::count("wifi_hop_failures", 1);
                cb(Err(WifiError::Unreachable(dst)));
                return;
            }
            let Some(peer) = me.medium.state_of(dst) else {
                obskit::count("wifi_hop_failures", 1);
                cb(Err(WifiError::Unreachable(dst)));
                return;
            };
            let handler = {
                let p = peer.borrow();
                if !(p.on && p.joined && p.phone.is_on()) {
                    drop(p);
                    obskit::count("wifi_hop_failures", 1);
                    cb(Err(WifiError::Unreachable(dst)));
                    return;
                }
                p.on_receive.clone()
            };
            if let Some(h) = handler {
                h(me.node, payload);
            }
            cb(Ok(()));
        });
    }
}

impl fmt::Debug for WifiRadio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WifiRadio")
            .field("node", &self.node)
            .field("joined", &self.is_joined())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Position;
    use phone::{PhoneConfig, PhoneModel};
    use std::cell::Cell;

    struct Rig {
        sim: Sim,
        world: World,
        medium: WifiMedium,
    }

    fn rig() -> Rig {
        let sim = Sim::new();
        let world = World::new(&sim);
        let medium = WifiMedium::new(&sim, &world, WifiParams::default());
        Rig { sim, world, medium }
    }

    fn communicator(rig: &Rig, x: f64, metered: bool) -> (NodeId, Phone, WifiRadio) {
        let node = rig.world.add_node(Position::new(x, 0.0));
        let cfg = if metered {
            PhoneConfig::measurement(PhoneModel::Nokia9500)
        } else {
            PhoneConfig {
                model: PhoneModel::Nokia9500,
                ..PhoneConfig::default()
            }
        };
        let phone = Phone::new(&rig.sim, cfg);
        let radio = rig.medium.attach(node, &phone, node.0 as u64 + 1);
        (node, phone, radio)
    }

    #[test]
    fn join_then_steady_draw_matches_paper() {
        let r = rig();
        let (_, phone, radio) = communicator(&r, 0.0, false);
        phone.set_backlight(true); // the paper's WiFi runs kept it on
        let joined = Rc::new(Cell::new(false));
        let j = joined.clone();
        radio.power_on(move || j.set(true));
        r.sim.run_for(SimDuration::from_secs(2));
        assert!(joined.get());
        r.sim.run_for(SimDuration::from_secs(30));
        // steady: 1113.8 radio + 76.20 backlight-on baseline = 1190 mW
        assert!(
            (phone.power().total().0 - 1190.0).abs() < 1e-6,
            "total {}",
            phone.power().total()
        );
    }

    #[test]
    fn metered_phone_browns_out_within_30s_of_wifi_on() {
        let r = rig();
        let (_, phone, radio) = communicator(&r, 0.0, true);
        radio.power_on(|| {});
        r.sim.run_for(SimDuration::from_secs(30));
        assert!(!phone.is_on(), "paper: communicator switched off < 30 s");
    }

    #[test]
    fn unmetered_phone_survives_wifi() {
        let r = rig();
        let (_, phone, radio) = communicator(&r, 0.0, false);
        radio.power_on(|| {});
        r.sim.run_for(SimDuration::from_secs(60));
        assert!(phone.is_on());
    }

    #[test]
    fn one_hop_send_delivers_with_transfer_latency() {
        let r = rig();
        let (_, _pa, ra) = communicator(&r, 0.0, false);
        let (b, _pb, rb) = communicator(&r, 50.0, false);
        ra.power_on(|| {});
        rb.power_on(|| {});
        r.sim.run_for(SimDuration::from_secs(40));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        rb.on_receive(move |_from, _p| g.set(true));
        let t0 = r.sim.now();
        ra.send(b, 10_240, Rc::new(()), |res| res.unwrap());
        r.sim.run_until_idle();
        assert!(got.get());
        let ms = (r.sim.now() - t0).as_millis_f64();
        // ~10 KB at ~26.6 KB/s ≈ 385 ms
        assert!((350.0..430.0).contains(&ms), "transfer took {ms} ms");
    }

    #[test]
    fn out_of_range_send_fails() {
        let r = rig();
        let (_, _pa, ra) = communicator(&r, 0.0, false);
        let (b, _pb, rb) = communicator(&r, 500.0, false);
        ra.power_on(|| {});
        rb.power_on(|| {});
        r.sim.run_for(SimDuration::from_secs(40));
        let err = Rc::new(Cell::new(None));
        let e = err.clone();
        ra.send(b, 100, Rc::new(()), move |res| e.set(Some(res.unwrap_err())));
        r.sim.run_until_idle();
        assert_eq!(err.take(), Some(WifiError::Unreachable(b)));
    }

    #[test]
    fn radio_off_rejects_send_and_hides_from_neighbors() {
        let r = rig();
        let (_, _pa, ra) = communicator(&r, 0.0, false);
        let (b, _pb, rb) = communicator(&r, 50.0, false);
        ra.power_on(|| {});
        rb.power_on(|| {});
        r.sim.run_for(SimDuration::from_secs(40));
        assert_eq!(ra.neighbors(), vec![b]);
        rb.power_off();
        assert!(ra.neighbors().is_empty());
        rb.send(ra.node(), 10, Rc::new(()), |res| {
            assert_eq!(res.unwrap_err(), WifiError::RadioOff);
        });
        r.sim.run_until_idle();
    }

    #[test]
    fn energy_of_one_hop_periodic_item_is_latency_times_power() {
        // Table 2: WiFi 1-hop periodic getCxtItem > 0.906 J — which is the
        // 761 ms 1-hop latency at the 1190 mW connected draw.
        let p = WifiParams::default();
        let e_joules: f64 = 0.761 * 1.190;
        assert!((e_joules - 0.906).abs() < 0.01);
        // and 2 hops doubles it: 1422.5 ms * 1.19 W ≈ 1.693 J
        assert!((1.4225_f64 * 1.190 - 1.693).abs() < 0.01);
        let _ = p;
    }
}
