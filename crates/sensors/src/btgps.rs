//! The external Bluetooth GPS puck (InsSirf III class).
//!
//! A small battery device advertising a serial-port GPS service over SDP.
//! Once a phone opens an ACL link, the puck streams NMEA bursts at a
//! configurable rate, each burst sent sentence-by-sentence (the packet
//! segmentation that makes GPS the most expensive periodic BT source in
//! Table 2). Switching the puck off tears the link down — the event that
//! triggers Contory's provisioning failover in Fig. 5.

use crate::gps::GpsReceiver;
use phone::{Phone, PhoneConfig};
use radio::bt::{BtMedium, BtRadio, LinkId, ServiceRecord};
use radio::{NodeId, World};
use simkit::{Sim, SimDuration};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// SDP service UUID the puck advertises (SPP).
pub const GPS_SERVICE_UUID: &str = "00001101-gps-spp";

struct Inner {
    gps: GpsReceiver,
    links: Vec<LinkId>,
    powered: bool,
    bursts_sent: u64,
}

/// A simulated BT-GPS receiver node.
///
/// The puck hosts its own tiny battery/"phone" shell purely for power
/// bookkeeping of its radio; the interesting energy numbers are on the
/// *phone* side of the link.
#[derive(Clone)]
pub struct BtGpsDevice {
    node: NodeId,
    bt: BtRadio,
    inner: Rc<RefCell<Inner>>,
}

impl BtGpsDevice {
    /// Creates a puck mounted on `node` (already registered in `world`,
    /// possibly mobile — a boat), streaming one NMEA burst per
    /// `interval` to every connected phone.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or the node already has a BT radio.
    pub fn new(
        sim: &Sim,
        medium: &BtMedium,
        world: &World,
        node: NodeId,
        interval: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(!interval.is_zero(), "NMEA interval must be non-zero");
        let shell = Phone::new(sim, PhoneConfig::default());
        let bt = medium.attach(node, &shell, seed ^ 0xb7);
        let w = world.clone();
        let gps = GpsReceiver::new(
            Rc::new(move || w.position_of(node).unwrap_or_default()),
            5.0,
            seed,
        );
        let device = BtGpsDevice {
            node,
            bt: bt.clone(),
            inner: Rc::new(RefCell::new(Inner {
                gps,
                links: Vec::new(),
                powered: true,
                bursts_sent: 0,
            })),
        };
        device.register_service();
        // Track connections and disconnections.
        {
            let inner = device.inner.clone();
            bt.on_connect(move |link, _from| {
                inner.borrow_mut().links.push(link);
            });
        }
        {
            let inner = device.inner.clone();
            bt.on_disconnect(move |link, _peer| {
                inner.borrow_mut().links.retain(|&l| l != link);
            });
        }
        // Streaming loop: one burst per `interval`, for as long as the
        // simulation runs (an unpowered puck keeps ticking so it can be
        // repowered).
        {
            let inner = device.inner.clone();
            let bt = bt.clone();
            let sim2 = sim.clone();
            sim.schedule_repeating(interval, move || {
                let (burst, links) = {
                    let mut st = inner.borrow_mut();
                    if !st.powered {
                        return true;
                    }
                    let now = sim2.now();
                    let burst = st.gps.nmea_burst(now);
                    if !burst.is_empty() && !st.links.is_empty() {
                        st.bursts_sent += 1;
                    }
                    (burst, st.links.clone())
                };
                for link in links {
                    // Sentence-by-sentence: this is what triggers BT's
                    // per-send segmentation cost on the phone.
                    for sentence in &burst {
                        let wire = sentence.len() + 2;
                        bt.send(link, wire, Rc::new(sentence.clone()), |_res| {});
                    }
                }
                true
            });
        }
        device
    }

    fn register_service(&self) {
        let record = ServiceRecord::new(GPS_SERVICE_UUID, "InsSirf III GPS")
            .with_attribute("type", "gps-nmea")
            .with_attribute("protocol", "rfcomm-spp");
        self.bt.register_service(record, |_res| {});
    }

    /// The world node this puck is mounted on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The puck's radio (tests peek at its SDDB).
    pub fn radio(&self) -> &BtRadio {
        &self.bt
    }

    /// NMEA bursts streamed so far (to any link).
    pub fn bursts_sent(&self) -> u64 {
        self.inner.borrow().bursts_sent
    }

    /// Switches the puck on or off. Switching off kills the radio (links
    /// drop, the service vanishes) — the paper's Fig. 5 fault.
    pub fn set_powered(&self, on: bool) {
        {
            let mut st = self.inner.borrow_mut();
            if st.powered == on {
                return;
            }
            st.powered = on;
            st.gps.set_powered(on);
            if !on {
                st.links.clear();
            }
        }
        self.bt.set_power(on);
        if on {
            self.register_service();
        }
    }
}

impl fmt::Debug for BtGpsDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("BtGpsDevice")
            .field("node", &self.node)
            .field("powered", &st.powered)
            .field("links", &st.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio::bt::BtParams;
    use radio::Position;

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

    #[test]
    fn advertises_gps_service_and_streams_to_connected_phone() {
        let r = rig();
        let puck_node = r.world.add_node(Position::new(0.0, 0.0));
        let puck = BtGpsDevice::new(
            &r.sim,
            &r.medium,
            &r.world,
            puck_node,
            SimDuration::from_secs(1),
            7,
        );
        let phone_node = r.world.add_node(Position::new(2.0, 0.0));
        let phone = Phone::new(&r.sim, PhoneConfig::default());
        let radio = r.medium.attach(phone_node, &phone, 8);
        r.sim.run_for(SimDuration::from_secs(1));
        // SDP sees the GPS service.
        let recs = Rc::new(RefCell::new(Vec::new()));
        let rc = recs.clone();
        radio.sdp_query(puck_node, move |res| *rc.borrow_mut() = res.unwrap());
        r.sim.run_for(SimDuration::from_secs(2));
        assert_eq!(recs.borrow().len(), 1);
        assert_eq!(recs.borrow()[0].uuid, GPS_SERVICE_UUID);
        // Connect and receive sentences.
        let sentences: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let s = sentences.clone();
        radio.on_receive(move |_l, _f, payload| {
            if let Ok(text) = payload.downcast::<String>() {
                s.borrow_mut().push(text.as_ref().clone());
            }
        });
        radio.connect(puck_node, |res| {
            res.unwrap();
        });
        r.sim.run_for(SimDuration::from_secs(5));
        let got = sentences.borrow();
        assert!(
            got.len() >= 18,
            "expected several bursts, got {}",
            got.len()
        );
        assert!(got.iter().any(|s| s.starts_with("$GPGGA")));
        assert!(puck.bursts_sent() >= 3);
    }

    #[test]
    fn power_off_drops_link_and_stops_stream() {
        let r = rig();
        let puck_node = r.world.add_node(Position::new(0.0, 0.0));
        let puck = BtGpsDevice::new(
            &r.sim,
            &r.medium,
            &r.world,
            puck_node,
            SimDuration::from_secs(1),
            7,
        );
        let phone_node = r.world.add_node(Position::new(2.0, 0.0));
        let phone = Phone::new(&r.sim, PhoneConfig::default());
        let radio = r.medium.attach(phone_node, &phone, 8);
        let dropped = Rc::new(std::cell::Cell::new(false));
        let d = dropped.clone();
        radio.on_disconnect(move |_l, _p| d.set(true));
        radio.connect(puck_node, |res| {
            res.unwrap();
        });
        r.sim.run_for(SimDuration::from_secs(3));
        let before = puck.bursts_sent();
        assert!(before > 0);
        puck.set_powered(false);
        r.sim.run_for(SimDuration::from_secs(5));
        assert!(dropped.get(), "phone must see the BT disconnection");
        assert_eq!(puck.bursts_sent(), before, "no bursts while off");
        // Power back on: the service is re-advertised.
        puck.set_powered(true);
        r.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(puck.radio().local_services().len(), 1);
    }
}
