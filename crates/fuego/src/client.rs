//! The phone-side Fuego endpoint.
//!
//! Wraps a [`CellModem`] with the event abstractions Contory's
//! `2G/3GReference` offers: publish, subscribe and request/response, all
//! asynchronous with callbacks.

use crate::broker::{Frame, SubId};
use crate::event::EventNotification;
use crate::xml::XmlElement;
use radio::cell::{CellError, CellModem};
use simkit::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Errors from [`FuegoClient::request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// No response arrived within the timeout.
    Timeout,
    /// The broker serves no such topic, or could not read the request.
    NoService,
    /// The cellular link failed.
    Link(CellError),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Timeout => write!(f, "request timed out"),
            RequestError::NoService => write!(f, "no service on topic"),
            RequestError::Link(e) => write!(f, "link error: {e}"),
        }
    }
}

impl Error for RequestError {}

type ResponseHandler = Box<dyn FnOnce(Result<EventNotification, RequestError>)>;
type DeliveryHandler = Rc<dyn Fn(EventNotification)>;

struct ClientInner {
    sender: String,
    next_event: u64,
    next_sub: u64,
    next_req: u64,
    pending: BTreeMap<u64, ResponseHandler>,
    subs: BTreeMap<SubId, DeliveryHandler>,
    /// Open obskit spans for in-flight requests, keyed by request id.
    req_spans: BTreeMap<u64, obskit::SpanId>,
}

/// A Fuego client bound to one phone's modem.
#[derive(Clone)]
pub struct FuegoClient {
    sim: Sim,
    modem: CellModem,
    inner: Rc<RefCell<ClientInner>>,
}

impl FuegoClient {
    /// Creates a client and installs itself as the modem's receive
    /// handler. `sender` identifies this device in event envelopes. The
    /// handler holds the client weakly, so the modem does not keep a
    /// dropped client alive.
    pub fn new(sim: &Sim, modem: &CellModem, sender: impl Into<String>) -> Self {
        let client = FuegoClient {
            sim: sim.clone(),
            modem: modem.clone(),
            inner: Rc::new(RefCell::new(ClientInner {
                sender: sender.into(),
                next_event: 0,
                next_sub: 0,
                next_req: 0,
                pending: BTreeMap::new(),
                subs: BTreeMap::new(),
                req_spans: BTreeMap::new(),
            })),
        };
        let weak = Rc::downgrade(&client.inner);
        let sim = sim.clone();
        modem.on_receive(move |payload| {
            if let (Some(inner), Ok(frame)) = (weak.upgrade(), payload.downcast::<Frame>()) {
                handle_downlink(&sim, &inner, Rc::unwrap_or_clone(frame));
            }
        });
        client
    }

    /// Builds a notification stamped with this client's identity, a fresh
    /// sequence number and the current time.
    pub fn make_event(&self, topic: impl Into<String>, body: XmlElement) -> EventNotification {
        let mut inner = self.inner.borrow_mut();
        inner.next_event += 1;
        let event = EventNotification::new(topic, inner.sender.clone(), body, self.sim.now())
            .with_id(inner.next_event);
        // Encoding cost accounting: the XML envelope's wire size is what
        // the cellular legs pay for.
        obskit::count("fuego_events_encoded", 1);
        if obskit::enabled() {
            obskit::observe("fuego_event_bytes", event.wire_size() as u64);
        }
        event
    }

    /// Draws the next sequence number as [`FuegoClient::make_event`]
    /// does and names a topic after it, `{prefix}/{sender}/{number}`,
    /// without building or counting an event: the numbers of the events
    /// made later stay the same.
    pub(crate) fn unique_topic(&self, prefix: &str) -> String {
        let mut inner = self.inner.borrow_mut();
        inner.next_event += 1;
        format!("{prefix}/{}/{}", inner.sender, inner.next_event)
    }

    /// Publishes an event. `cb` fires when the uplink transfer completes
    /// (Table 1's `publishCxtItem` over UMTS measures exactly this).
    pub fn publish(
        &self,
        event: EventNotification,
        cb: impl FnOnce(Result<(), CellError>) + 'static,
    ) {
        let topic = event.topic.clone();
        let frame = Frame::Publish { event };
        let size = frame.wire_size();
        obskit::count("fuego_publishes", 1);
        obskit::count("fuego_publish_bytes", size as u64);
        let span = obskit::start(
            obskit::Phase::Publish,
            &format!("fuego_pub:{topic}"),
            None,
            self.sim.now(),
        );
        let sim = self.sim.clone();
        self.modem.send_event(size, Rc::new(frame), move |res| {
            obskit::end(span, sim.now());
            if res.is_err() {
                obskit::count("fuego_publish_failures", 1);
            }
            cb(res);
        });
    }

    /// Subscribes to a topic; `handler` receives every delivery until
    /// [`FuegoClient::unsubscribe`]. The subscription is registered at the
    /// broker asynchronously.
    pub fn subscribe(
        &self,
        topic: impl Into<String>,
        handler: impl Fn(EventNotification) + 'static,
    ) -> SubId {
        let sub = {
            let mut inner = self.inner.borrow_mut();
            inner.next_sub += 1;
            let sub = SubId(inner.next_sub);
            inner.subs.insert(sub, Rc::new(handler));
            sub
        };
        obskit::count("fuego_subscribes", 1);
        let frame = Frame::Subscribe {
            topic: topic.into(),
            sub,
        };
        let size = frame.wire_size();
        self.modem.send_event(size, Rc::new(frame), |_res| {});
        sub
    }

    /// Cancels a subscription locally and at the broker.
    pub fn unsubscribe(&self, sub: SubId) {
        obskit::count("fuego_unsubscribes", 1);
        self.inner.borrow_mut().subs.remove(&sub);
        let frame = Frame::Unsubscribe { sub };
        let size = frame.wire_size();
        self.modem.send_event(size, Rc::new(frame), |_res| {});
    }

    /// Sends a request to a broker service; `cb` receives the response,
    /// [`RequestError::NoService`], a link error, or
    /// [`RequestError::Timeout`] if nothing arrives within `timeout`.
    pub fn request(
        &self,
        topic: impl Into<String>,
        event: EventNotification,
        timeout: SimDuration,
        cb: impl FnOnce(Result<EventNotification, RequestError>) + 'static,
    ) {
        let topic = topic.into();
        let req = {
            let mut inner = self.inner.borrow_mut();
            inner.next_req += 1;
            let req = inner.next_req;
            inner.pending.insert(req, Box::new(cb));
            req
        };
        obskit::count("fuego_requests", 1);
        if let Some(span) = obskit::start(
            obskit::Phase::Broker,
            &format!("fuego_req:{topic}"),
            None,
            self.sim.now(),
        ) {
            self.inner.borrow_mut().req_spans.insert(req, span);
        }
        let frame = Frame::Request { topic, req, event };
        let size = frame.wire_size();
        // Timeout watchdog.
        {
            let inner = self.inner.clone();
            let sim = self.sim.clone();
            self.sim.schedule_in(timeout, move || {
                let (cb, span) = {
                    let mut inner = inner.borrow_mut();
                    (inner.pending.remove(&req), inner.req_spans.remove(&req))
                };
                obskit::end(span, sim.now());
                if let Some(cb) = cb {
                    obskit::count("fuego_request_timeouts", 1);
                    cb(Err(RequestError::Timeout));
                }
            });
        }
        let inner = self.inner.clone();
        let sim = self.sim.clone();
        self.modem.send_event(size, Rc::new(frame), move |res| {
            if let Err(e) = res {
                let (cb, span) = {
                    let mut inner = inner.borrow_mut();
                    (inner.pending.remove(&req), inner.req_spans.remove(&req))
                };
                obskit::end(span, sim.now());
                if let Some(cb) = cb {
                    obskit::count("fuego_request_link_failures", 1);
                    cb(Err(RequestError::Link(e)));
                }
            }
        });
    }
}

/// Hands a downlink frame to the client whose state is `inner`.
fn handle_downlink(sim: &Sim, inner: &RefCell<ClientInner>, frame: Frame) {
    match frame {
        Frame::Response { req, event } => {
            let (cb, span) = {
                let mut inner = inner.borrow_mut();
                (inner.pending.remove(&req), inner.req_spans.remove(&req))
            };
            obskit::end(span, sim.now());
            if let Some(cb) = cb {
                obskit::count("fuego_responses", 1);
                match event {
                    Some(ev) => cb(Ok(ev)),
                    None => cb(Err(RequestError::NoService)),
                }
            }
        }
        Frame::Deliver { sub, event } => {
            let handler = inner.borrow().subs.get(&sub).cloned();
            if let Some(h) = handler {
                obskit::count("fuego_deliveries", 1);
                obskit::event(
                    obskit::Phase::Deliver,
                    &format!("fuego_deliver:{}", event.topic),
                    None,
                    sim.now(),
                );
                h(event);
            }
        }
        // Uplink-only frames on the downlink are ignored.
        _ => {}
    }
}

impl fmt::Debug for FuegoClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FuegoClient")
            .field("sender", &inner.sender)
            .field("subs", &inner.subs.len())
            .field("pending", &inner.pending.len())
            .finish()
    }
}
