//! The fixed-side event broker.
//!
//! Phones publish, subscribe and issue requests over the cellular link;
//! the broker routes publishes to topic subscribers (as downlink
//! deliveries) and dispatches requests to registered services (the
//! context infrastructure registers itself here).

use crate::event::EventNotification;
use radio::cell::CellNetwork;
use radio::NodeId;
use simkit::Sim;
use std::cell::RefCell;
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

type Service = Rc<dyn Fn(NodeId, EventNotification) -> Option<EventNotification>>;

struct BrokerInner {
    subs: BTreeMap<String, Vec<(NodeId, SubId)>>,
    services: BTreeMap<String, Service>,
    published: u64,
    delivered: u64,
    /// Fault injection: while `true` the broker is dark — every uplink
    /// frame and server-side publish is dropped on the floor (clients
    /// see request timeouts, subscribers see silence).
    outage: bool,
    /// Frames/publishes discarded during outages.
    dropped: u64,
}

/// The event broker living on the fixed side of the cellular network.
#[derive(Clone)]
pub struct EventBroker {
    sim: Sim,
    net: CellNetwork,
    inner: Rc<RefCell<BrokerInner>>,
}

impl EventBroker {
    /// Creates a broker and wires it to the network's uplink.
    ///
    /// Only one broker may be attached per [`CellNetwork`] (it owns the
    /// uplink handler).
    pub fn new(sim: &Sim, net: &CellNetwork) -> Self {
        let broker = EventBroker {
            sim: sim.clone(),
            net: net.clone(),
            inner: Rc::new(RefCell::new(BrokerInner {
                subs: BTreeMap::new(),
                services: BTreeMap::new(),
                published: 0,
                delivered: 0,
                outage: false,
                dropped: 0,
            })),
        };
        let b = broker.clone();
        net.on_uplink(move |from, payload| {
            if let Ok(frame) = payload.downcast::<Frame>() {
                b.handle(from, Rc::unwrap_or_clone(frame));
            }
        });
        broker
    }

    /// Registers a request/response service on a topic (e.g. the context
    /// infrastructure's `cxt/query`). Replaces any previous handler.
    pub fn register_service(
        &self,
        topic: impl Into<String>,
        f: impl Fn(NodeId, EventNotification) -> Option<EventNotification> + 'static,
    ) {
        self.inner
            .borrow_mut()
            .services
            .insert(topic.into(), Rc::new(f));
    }

    /// Fault injection: turns the broker dark (`true`) or back on
    /// (`false`). A dark broker drops every uplink frame and every
    /// server-side publish; subscriptions and registered services
    /// survive the outage and resume working once restored.
    pub fn set_outage(&self, dark: bool) {
        self.inner.borrow_mut().outage = dark;
    }

    /// Whether the broker is currently dark.
    pub fn is_in_outage(&self) -> bool {
        self.inner.borrow().outage
    }

    /// Frames and publishes discarded during outages so far.
    pub fn dropped_count(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Publishes an event from the fixed side (e.g. infrastructure pushes)
    /// to all subscribers of its topic.
    pub fn publish_from_server(&self, event: EventNotification) {
        let subscribers: Vec<(NodeId, SubId)> = {
            let mut inner = self.inner.borrow_mut();
            if inner.outage {
                inner.dropped += 1;
                obskit::count("fuego_broker_dropped", 1);
                return;
            }
            inner.published += 1;
            obskit::count("fuego_broker_published", 1);
            inner.subs.get(&event.topic).cloned().unwrap_or_default()
        };
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
        self.inner.borrow_mut().delivered += 1;
        obskit::count("fuego_broker_deliveries", 1);
        obskit::event(
            obskit::Phase::Deliver,
            &format!("fuego_fanout:{}->{node}", event.topic),
            None,
            self.sim.now(),
        );
        let frame = Frame::Deliver { sub, event };
        let size = frame.wire_size();
        self.net.send_downlink(node, size, Rc::new(frame));
    }

    /// Events published through the broker so far.
    pub fn published_count(&self) -> u64 {
        self.inner.borrow().published
    }

    /// Deliveries fanned out so far.
    pub fn delivered_count(&self) -> u64 {
        self.inner.borrow().delivered
    }

    /// Current subscriber count on a topic.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner.borrow().subs.get(topic).map_or(0, Vec::len)
    }

    fn handle(&self, from: NodeId, frame: Frame) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.outage {
                inner.dropped += 1;
                obskit::count("fuego_broker_dropped", 1);
                return;
            }
        }
        match frame {
            Frame::Publish { event } => self.publish_from_server(event),
            Frame::Subscribe { topic, sub } => {
                self.inner
                    .borrow_mut()
                    .subs
                    .entry(topic)
                    .or_default()
                    .push((from, sub));
            }
            Frame::Unsubscribe { sub } => {
                let mut inner = self.inner.borrow_mut();
                for list in inner.subs.values_mut() {
                    list.retain(|&(n, s)| !(n == from && s == sub));
                }
                inner.subs.retain(|_, v| !v.is_empty());
            }
            Frame::Request { topic, req, event } => {
                obskit::count("fuego_broker_requests", 1);
                obskit::event(
                    obskit::Phase::Broker,
                    &format!("fuego_dispatch:{topic}@{from}"),
                    None,
                    self.sim.now(),
                );
                let service = self.inner.borrow().services.get(&topic).cloned();
                let response = service.and_then(|s| s(from, event));
                let frame = Frame::Response {
                    req,
                    event: response,
                };
                let size = frame.wire_size();
                self.net.send_downlink(from, size, Rc::new(frame));
            }
            Frame::Response { .. } | Frame::Deliver { .. } => {
                // Downlink-only frames arriving on the uplink are ignored.
            }
        }
    }
}

impl fmt::Debug for EventBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("EventBroker")
            .field("topics", &inner.subs.len())
            .field("services", &inner.services.len())
            .field("published", &inner.published)
            .finish()
    }
}
