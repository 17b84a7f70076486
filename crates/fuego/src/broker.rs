//! The fixed-side event broker.
//!
//! Phones publish, subscribe and issue requests over the cellular link;
//! the broker routes publishes to topic subscribers (as downlink
//! deliveries) and serves the context infrastructure's requests
//! (`cxt/store`, `cxt/query`, `cxt/subscribe`, `cxt/unsubscribe`) from
//! the record store it owns.

use crate::event::EventNotification;
use crate::infra::{ContextInfrastructure, Store};
use radio::cell::CellNetwork;
use radio::NodeId;
use simkit::Sim;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Client-scoped subscription identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// Protocol frames exchanged between [`crate::FuegoClient`]s and the
/// broker. Crate-internal: carried as the opaque payload of cellular
/// messages, with the wire size taken from the XML envelope.
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// Client → broker: publish to a topic.
    Publish { event: EventNotification },
    /// Client → broker: subscribe to a topic.
    Subscribe { topic: String, sub: SubId },
    /// Client → broker: cancel a subscription.
    Unsubscribe { sub: SubId },
    /// Client → broker: request/response to a service topic.
    Request {
        topic: String,
        req: u64,
        event: EventNotification,
    },
    /// Broker → client: response to a request (`None` = no such service).
    Response {
        req: u64,
        event: Option<EventNotification>,
    },
    /// Broker → client: delivery for a subscription.
    Deliver {
        sub: SubId,
        event: EventNotification,
    },
}

impl Frame {
    /// Bytes on the wire: the enclosed envelope plus a small frame header.
    pub(crate) fn wire_size(&self) -> usize {
        const HEADER: usize = 64;
        match self {
            Frame::Publish { event }
            | Frame::Request { event, .. }
            | Frame::Deliver { event, .. } => HEADER + event.wire_size(),
            Frame::Response { event, .. } => {
                HEADER + event.as_ref().map_or(0, EventNotification::wire_size)
            }
            Frame::Subscribe { topic, .. } => HEADER + topic.len(),
            Frame::Unsubscribe { .. } => HEADER,
        }
    }
}

/// What the broker owns: the topic table, the outage switch and the
/// context infrastructure's records and push subscriptions.
struct Shared {
    sim: Sim,
    net: CellNetwork,
    subs: RefCell<BTreeMap<String, Vec<(NodeId, SubId)>>>,
    /// Fault injection: while `true` the broker is dark — every uplink
    /// frame and server-side publish is dropped on the floor (clients
    /// see request timeouts, subscribers see silence).
    outage: Cell<bool>,
    /// The record store [`ContextInfrastructure`] serves.
    store: RefCell<Store>,
}

/// The event broker living on the fixed side of the cellular network.
#[derive(Clone)]
pub struct EventBroker {
    shared: Rc<Shared>,
}

impl EventBroker {
    /// Creates a broker and wires it to the network's uplink.
    ///
    /// Only one broker may be attached per [`CellNetwork`] (it owns the
    /// uplink handler). The handler holds the broker weakly, so the
    /// network does not keep a dropped broker alive.
    pub fn new(sim: &Sim, net: &CellNetwork) -> Self {
        let broker = EventBroker {
            shared: Rc::new(Shared {
                sim: sim.clone(),
                net: net.clone(),
                subs: RefCell::new(BTreeMap::new()),
                outage: Cell::new(false),
                store: RefCell::default(),
            }),
        };
        let weak = Rc::downgrade(&broker.shared);
        net.on_uplink(move |from, payload| {
            if let (Some(shared), Ok(frame)) = (weak.upgrade(), payload.downcast::<Frame>()) {
                EventBroker { shared }.handle(from, Rc::unwrap_or_clone(frame));
            }
        });
        broker
    }

    /// The simulator the broker runs on.
    pub(crate) fn sim(&self) -> &Sim {
        &self.shared.sim
    }

    /// The context infrastructure's records and push subscriptions.
    pub(crate) fn store(&self) -> &RefCell<Store> {
        &self.shared.store
    }

    /// Fault injection: turns the broker dark (`true`) or back on
    /// (`false`). A dark broker drops every uplink frame and every
    /// server-side publish; subscriptions and stored records survive
    /// the outage and resume working once restored.
    pub fn set_outage(&self, dark: bool) {
        self.shared.outage.set(dark);
    }

    /// Whether the broker is currently dark.
    pub fn is_in_outage(&self) -> bool {
        self.shared.outage.get()
    }

    /// Publishes an event from the fixed side (e.g. infrastructure pushes)
    /// to all subscribers of its topic.
    pub fn publish_from_server(&self, event: EventNotification) {
        if self.is_in_outage() {
            obskit::count("fuego_broker_dropped", 1);
            return;
        }
        obskit::count("fuego_broker_published", 1);
        let subscribers: Vec<(NodeId, SubId)> = self
            .shared
            .subs
            .borrow()
            .get(&event.topic)
            .cloned()
            .unwrap_or_default();
        // Every subscriber but the last gets a copy; the last takes the
        // event itself.
        if let Some((&(node, sub), others)) = subscribers.split_last() {
            for &(node, sub) in others {
                self.deliver(node, sub, event.clone());
            }
            self.deliver(node, sub, event);
        }
    }

    fn deliver(&self, node: NodeId, sub: SubId, event: EventNotification) {
        obskit::count("fuego_broker_deliveries", 1);
        obskit::event(
            obskit::Phase::Deliver,
            &format!("fuego_fanout:{}->{node}", event.topic),
            None,
            self.shared.sim.now(),
        );
        let frame = Frame::Deliver { sub, event };
        let size = frame.wire_size();
        self.shared.net.send_downlink(node, size, Rc::new(frame));
    }

    /// Current subscriber count on a topic.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.shared.subs.borrow().get(topic).map_or(0, Vec::len)
    }

    fn handle(&self, from: NodeId, frame: Frame) {
        if self.is_in_outage() {
            obskit::count("fuego_broker_dropped", 1);
            return;
        }
        match frame {
            Frame::Publish { event } => self.publish_from_server(event),
            Frame::Subscribe { topic, sub } => {
                self.shared
                    .subs
                    .borrow_mut()
                    .entry(topic)
                    .or_default()
                    .push((from, sub));
            }
            Frame::Unsubscribe { sub } => {
                let mut subs = self.shared.subs.borrow_mut();
                for list in subs.values_mut() {
                    list.retain(|&(n, s)| !(n == from && s == sub));
                }
                subs.retain(|_, v| !v.is_empty());
            }
            Frame::Request { topic, req, event } => {
                obskit::count("fuego_broker_requests", 1);
                obskit::event(
                    obskit::Phase::Broker,
                    &format!("fuego_dispatch:{topic}@{from}"),
                    None,
                    self.shared.sim.now(),
                );
                let frame = Frame::Response {
                    req,
                    event: ContextInfrastructure::new(self).serve(&topic, event),
                };
                let size = frame.wire_size();
                self.shared.net.send_downlink(from, size, Rc::new(frame));
            }
            Frame::Response { .. } | Frame::Deliver { .. } => {
                // Downlink-only frames arriving on the uplink are ignored.
            }
        }
    }
}

impl fmt::Debug for EventBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBroker")
            .field("topics", &self.shared.subs.borrow().len())
            .field("outage", &self.is_in_outage())
            .finish()
    }
}
