//! The remote context infrastructure (the paper's `extInfra` provider).
//!
//! A context service running on the fixed network behind the event
//! broker: phones push context records into it (`storeCxtItem`), query it
//! on demand, or subscribe for periodic / on-arrival pushes. This is the
//! component the DYNAMOS field trials used as "remote repository", and
//! what `WeatherWatcher` falls back to when the target region is too far
//! for multi-hop ad hoc provisioning.

use crate::broker::EventBroker;
use crate::client::{FuegoClient, RequestError};
use crate::event::EventNotification;
use crate::xml::XmlElement;
use radio::{Position, Region};
use simkit::{Sim, SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A context record as stored by the infrastructure.
#[derive(Clone, Debug)]
pub struct InfraRecord {
    /// Identity of the providing entity (e.g. `"boat-7"`).
    pub entity: String,
    /// Context type (the SELECT clause's name, e.g. `"temperature"`).
    pub item_type: String,
    /// Printable value (e.g. `"14.0C"`).
    pub value_text: String,
    /// When the value was observed.
    pub timestamp: SimTime,
    /// Where it was observed, if georeferenced.
    pub position: Option<Position>,
    /// Metadata key/value pairs (accuracy, trust, …).
    pub metadata: BTreeMap<String, String>,
    /// Structured fast-path payload (not serialized).
    pub payload: Option<Rc<dyn Any>>,
}

impl InfraRecord {
    /// Creates a record with no metadata or position.
    pub fn new(
        entity: impl Into<String>,
        item_type: impl Into<String>,
        value_text: impl Into<String>,
        timestamp: SimTime,
    ) -> Self {
        InfraRecord {
            entity: entity.into(),
            item_type: item_type.into(),
            value_text: value_text.into(),
            timestamp,
            position: None,
            metadata: BTreeMap::new(),
            payload: None,
        }
    }

    /// Sets the observation position, builder style.
    pub fn at(mut self, position: Position) -> Self {
        self.position = Some(position);
        self
    }

    /// Adds a metadata entry, builder style.
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Attaches a structured payload, builder style.
    pub fn with_payload(mut self, payload: Rc<dyn Any>) -> Self {
        self.payload = Some(payload);
        self
    }

    /// XML encoding (used for wire sizes and round-tripping).
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new("record")
            .attr("entity", &self.entity)
            .attr("type", &self.item_type)
            .attr("ts", self.timestamp.as_millis().to_string())
            .child(XmlElement::new("value").text(&self.value_text));
        if let Some(p) = self.position {
            el = el.attr("x", format!("{:.1}", p.x)).attr("y", format!("{:.1}", p.y));
        }
        for (k, v) in &self.metadata {
            el = el.child(XmlElement::new("meta").attr("k", k).text(v));
        }
        el
    }

    /// Decodes a record produced by [`InfraRecord::to_xml`].
    pub fn from_xml(el: &XmlElement) -> Option<InfraRecord> {
        if el.name != "record" {
            return None;
        }
        let mut rec = InfraRecord::new(
            el.attribute("entity")?,
            el.attribute("type")?,
            el.find("value")?.text_content(),
            SimTime::from_millis(el.attribute("ts")?.parse().ok()?),
        );
        if let (Some(x), Some(y)) = (el.attribute("x"), el.attribute("y")) {
            rec.position = Some(Position::new(x.parse().ok()?, y.parse().ok()?));
        }
        for m in el.find_all("meta") {
            if let Some(k) = m.attribute("k") {
                rec.metadata.insert(k.to_owned(), m.text_content().to_owned());
            }
        }
        Some(rec)
    }
}

/// A query against the infrastructure's record store.
#[derive(Clone, Debug, Default)]
pub struct InfraQuery {
    /// Required context type.
    pub item_type: String,
    /// Restrict to a providing entity.
    pub entity: Option<String>,
    /// Restrict to records observed inside a region.
    pub region: Option<Region>,
    /// Maximum record age.
    pub freshness: Option<SimDuration>,
    /// Cap on returned records (most recent first). 0 means unlimited.
    pub max_items: usize,
}

impl InfraQuery {
    /// A query for the freshest records of a type.
    pub fn for_type(item_type: impl Into<String>) -> Self {
        InfraQuery {
            item_type: item_type.into(),
            ..InfraQuery::default()
        }
    }

    /// Whether `record` satisfies this query at time `now`.
    pub fn matches(&self, record: &InfraRecord, now: SimTime) -> bool {
        if record.item_type != self.item_type {
            return false;
        }
        if let Some(e) = &self.entity {
            if &record.entity != e {
                return false;
            }
        }
        if let Some(region) = self.region {
            match record.position {
                Some(p) if region.contains(p) => {}
                _ => return false,
            }
        }
        if let Some(fresh) = self.freshness {
            if now - record.timestamp > fresh {
                return false;
            }
        }
        true
    }

    /// XML encoding.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new("query").attr("type", &self.item_type);
        if let Some(e) = &self.entity {
            el = el.attr("entity", e);
        }
        if let Some(r) = self.region {
            el = el
                .attr("rx", format!("{:.1}", r.center.x))
                .attr("ry", format!("{:.1}", r.center.y))
                .attr("rr", format!("{:.1}", r.radius));
        }
        if let Some(f) = self.freshness {
            el = el.attr("freshness_ms", f.as_millis().to_string());
        }
        if self.max_items > 0 {
            el = el.attr("max", self.max_items.to_string());
        }
        el
    }

    /// Decodes a query produced by [`InfraQuery::to_xml`].
    pub fn from_xml(el: &XmlElement) -> Option<InfraQuery> {
        if el.name != "query" {
            return None;
        }
        let mut q = InfraQuery::for_type(el.attribute("type")?);
        q.entity = el.attribute("entity").map(str::to_owned);
        if let (Some(x), Some(y), Some(r)) =
            (el.attribute("rx"), el.attribute("ry"), el.attribute("rr"))
        {
            q.region = Some(Region::new(
                Position::new(x.parse().ok()?, y.parse().ok()?),
                r.parse().ok()?,
            ));
        }
        if let Some(f) = el.attribute("freshness_ms") {
            q.freshness = Some(SimDuration::from_millis(f.parse().ok()?));
        }
        if let Some(m) = el.attribute("max") {
            q.max_items = m.parse().ok()?;
        }
        Some(q)
    }
}

/// How the infrastructure pushes results for a subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushMode {
    /// Evaluate and push every interval (the EVERY clause).
    Periodic(SimDuration),
    /// Push each newly stored matching record (the EVENT clause's
    /// transport; predicate refinement happens at the subscriber).
    OnStore,
}

struct ServerSub {
    id: u64,
    topic: String,
    query: InfraQuery,
    mode: PushMode,
    active: Rc<std::cell::Cell<bool>>,
}

struct InfraInner {
    records: Vec<InfraRecord>,
    capacity: usize,
    subs: Vec<ServerSub>,
    next_sub: u64,
}

/// The context infrastructure service.
#[derive(Clone)]
pub struct ContextInfrastructure {
    sim: Sim,
    broker: EventBroker,
    inner: Rc<RefCell<InfraInner>>,
}

impl ContextInfrastructure {
    /// Creates the infrastructure and registers its services
    /// (`cxt/store`, `cxt/query`, `cxt/subscribe`, `cxt/unsubscribe`)
    /// at the broker.
    pub fn new(sim: &Sim, broker: &EventBroker) -> Self {
        let infra = ContextInfrastructure {
            sim: sim.clone(),
            broker: broker.clone(),
            inner: Rc::new(RefCell::new(InfraInner {
                records: Vec::new(),
                capacity: 10_000,
                subs: Vec::new(),
                next_sub: 0,
            })),
        };
        // cxt/store: push a record in.
        {
            let me = infra.clone();
            broker.register_service("cxt/store", move |_from, ev| {
                let mut record = match ev.payload.as_ref().and_then(|p| {
                    p.clone().downcast::<InfraRecord>().ok().map(|r| r.as_ref().clone())
                }) {
                    Some(r) => Some(r),
                    None => InfraRecord::from_xml(&ev.body),
                }?;
                // Preserve structured payloads shipped alongside.
                if record.payload.is_none() {
                    record.payload = ev.payload.clone();
                }
                me.store(record);
                Some(EventNotification::new(
                    "cxt/store/ack",
                    "infra",
                    XmlElement::new("ok"),
                    ev.timestamp,
                ))
            });
        }
        // cxt/query: on-demand evaluation.
        {
            let me = infra.clone();
            broker.register_service("cxt/query", move |_from, ev| {
                let query = InfraQuery::from_xml(&ev.body)?;
                let results = me.eval(&query);
                Some(me.results_event(&results, ev.timestamp))
            });
        }
        // cxt/subscribe: long-running query registration.
        {
            let me = infra.clone();
            broker.register_service("cxt/subscribe", move |_from, ev| {
                let body = &ev.body;
                let query = InfraQuery::from_xml(body.find("query")?)?;
                let topic = body.find("topic")?.text_content().to_owned();
                let mode = match body.attribute("every_ms") {
                    Some(ms) => PushMode::Periodic(SimDuration::from_millis(ms.parse().ok()?)),
                    None => PushMode::OnStore,
                };
                let id = me.register_sub(topic, query, mode);
                Some(EventNotification::new(
                    "cxt/subscribe/ack",
                    "infra",
                    XmlElement::new("sub").attr("id", id.to_string()),
                    ev.timestamp,
                ))
            });
        }
        // cxt/unsubscribe.
        {
            let me = infra.clone();
            broker.register_service("cxt/unsubscribe", move |_from, ev| {
                let id: u64 = ev.body.attribute("id")?.parse().ok()?;
                me.cancel_sub(id);
                Some(EventNotification::new(
                    "cxt/unsubscribe/ack",
                    "infra",
                    XmlElement::new("ok"),
                    ev.timestamp,
                ))
            });
        }
        infra
    }

    /// Stores a record directly (server-side sources like official
    /// weather stations use this path).
    pub fn store(&self, record: InfraRecord) {
        let on_store_pushes: Vec<(String, InfraRecord)> = {
            let mut inner = self.inner.borrow_mut();
            if inner.records.len() >= inner.capacity {
                inner.records.remove(0);
            }
            inner.records.push(record.clone());
            let now = self.sim.now();
            inner
                .subs
                .iter()
                .filter(|s| {
                    s.active.get() && s.mode == PushMode::OnStore && s.query.matches(&record, now)
                })
                .map(|s| (s.topic.clone(), record.clone()))
                .collect()
        };
        for (topic, rec) in on_store_pushes {
            let ev = self.results_event(&[rec], self.sim.now()).retopic(topic);
            self.broker.publish_from_server(ev);
        }
    }

    /// Evaluates a query against the store, most recent first.
    pub fn eval(&self, query: &InfraQuery) -> Vec<InfraRecord> {
        let now = self.sim.now();
        let inner = self.inner.borrow();
        let mut hits: Vec<InfraRecord> = inner
            .records
            .iter()
            .filter(|r| query.matches(r, now))
            .cloned()
            .collect();
        hits.sort_by_key(|r| std::cmp::Reverse(r.timestamp));
        if query.max_items > 0 {
            hits.truncate(query.max_items);
        }
        hits
    }

    /// Number of records currently stored.
    pub fn record_count(&self) -> usize {
        self.inner.borrow().records.len()
    }

    fn register_sub(&self, topic: String, query: InfraQuery, mode: PushMode) -> u64 {
        let active = Rc::new(std::cell::Cell::new(true));
        let id = {
            let mut inner = self.inner.borrow_mut();
            inner.next_sub += 1;
            let id = inner.next_sub;
            inner.subs.push(ServerSub {
                id,
                topic: topic.clone(),
                query: query.clone(),
                mode,
                active: active.clone(),
            });
            id
        };
        if let PushMode::Periodic(every) = mode {
            let me = self.clone();
            self.sim.schedule_repeating(every, move || {
                if !active.get() {
                    return false;
                }
                let results = me.eval(&query);
                if !results.is_empty() {
                    let ev = me
                        .results_event(&results, me.sim.now())
                        .retopic(topic.clone());
                    me.broker.publish_from_server(ev);
                }
                true
            });
        }
        id
    }

    fn cancel_sub(&self, id: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(s) = inner.subs.iter().find(|s| s.id == id) {
            s.active.set(false);
        }
        inner.subs.retain(|s| s.id != id);
    }

    fn results_event(&self, results: &[InfraRecord], timestamp: SimTime) -> EventNotification {
        let mut body = XmlElement::new("results").attr("n", results.len().to_string());
        for r in results {
            body = body.child(r.to_xml());
        }
        EventNotification::new("cxt/results", "infra", body, timestamp)
            .with_payload(Rc::new(results.to_vec()))
    }
}

impl fmt::Debug for ContextInfrastructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ContextInfrastructure")
            .field("records", &inner.records.len())
            .field("subs", &inner.subs.len())
            .finish()
    }
}

impl EventNotification {
    fn retopic(mut self, topic: String) -> Self {
        self.topic = topic;
        self
    }
}

/// A phone-side subscription to infrastructure pushes.
pub struct InfraSubscription {
    client: FuegoClient,
    sub: crate::broker::SubId,
    server_id: Rc<std::cell::Cell<Option<u64>>>,
}

impl InfraSubscription {
    /// Cancels the subscription locally and at the infrastructure.
    pub fn cancel(self) {
        self.client.unsubscribe(self.sub);
        if let Some(id) = self.server_id.get() {
            let ev = self.client.make_event(
                "cxt/unsubscribe",
                XmlElement::new("cancel").attr("id", id.to_string()),
            );
            self.client
                .request("cxt/unsubscribe", ev, SimDuration::from_secs(30), |_res| {});
        }
    }
}

impl fmt::Debug for InfraSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InfraSubscription")
            .field("server_id", &self.server_id.get())
            .finish()
    }
}

/// Phone-side convenience API for talking to the infrastructure.
#[derive(Clone, Debug)]
pub struct InfraClient {
    fuego: FuegoClient,
}

impl InfraClient {
    /// Wraps a Fuego client.
    pub fn new(fuego: &FuegoClient) -> Self {
        InfraClient {
            fuego: fuego.clone(),
        }
    }

    /// The underlying event client.
    pub fn fuego(&self) -> &FuegoClient {
        &self.fuego
    }

    /// Stores a record remotely (`storeCxtItem`). `cb` observes the ack.
    pub fn store(
        &self,
        record: InfraRecord,
        cb: impl FnOnce(Result<(), RequestError>) + 'static,
    ) {
        let payload = Rc::new(record.clone());
        let ev = self
            .fuego
            .make_event("cxt/store", record.to_xml())
            .with_payload(payload);
        self.fuego
            .request("cxt/store", ev, SimDuration::from_secs(60), move |res| {
                cb(res.map(|_ev| ()))
            });
    }

    /// On-demand query (`getCxtItem` over UMTS in Table 1/2).
    pub fn query(
        &self,
        query: &InfraQuery,
        timeout: SimDuration,
        cb: impl FnOnce(Result<Vec<InfraRecord>, RequestError>) + 'static,
    ) {
        let ev = self.fuego.make_event("cxt/query", query.to_xml());
        self.fuego.request("cxt/query", ev, timeout, move |res| {
            cb(res.map(|ev| decode_results(&ev)))
        });
    }

    /// Long-running query: the infrastructure pushes matching records
    /// periodically or as they arrive; `handler` receives each batch.
    pub fn subscribe(
        &self,
        query: &InfraQuery,
        mode: PushMode,
        handler: impl Fn(Vec<InfraRecord>) + 'static,
    ) -> InfraSubscription {
        let topic = {
            // A unique push topic per subscription.
            let ev = self.fuego.make_event("x", XmlElement::new("x"));
            format!("cxt/push/{}/{}", ev.sender, ev.id)
        };
        let sub = self
            .fuego
            .subscribe(topic.clone(), move |ev| handler(decode_results(&ev)));
        let mut body = XmlElement::new("subscribe")
            .child(InfraQuery::to_xml(query))
            .child(XmlElement::new("topic").text(topic));
        if let PushMode::Periodic(every) = mode {
            body = body.attr("every_ms", every.as_millis().to_string());
        }
        let server_id = Rc::new(std::cell::Cell::new(None));
        let sid = server_id.clone();
        let ev = self.fuego.make_event("cxt/subscribe", body);
        self.fuego
            .request("cxt/subscribe", ev, SimDuration::from_secs(60), move |res| {
                if let Ok(ack) = res {
                    if let Some(id) = ack.body.attribute("id").and_then(|s| s.parse().ok()) {
                        sid.set(Some(id));
                    }
                }
            });
        InfraSubscription {
            client: self.fuego.clone(),
            sub,
            server_id,
        }
    }
}

fn decode_results(ev: &EventNotification) -> Vec<InfraRecord> {
    if let Some(p) = &ev.payload {
        if let Ok(records) = p.clone().downcast::<Vec<InfraRecord>>() {
            return records.as_ref().clone();
        }
    }
    ev.body.find_all("record").filter_map(InfraRecord::from_xml).collect()
}
