//! The remote context infrastructure (the paper's `extInfra` provider).
//!
//! A context service running on the fixed network behind the event
//! broker: phones push context records into it (`storeCxtItem`), query it
//! on demand, or subscribe for periodic / on-arrival pushes. This is the
//! component the DYNAMOS field trials used as "remote repository", and
//! what `WeatherWatcher` falls back to when the target region is too far
//! for multi-hop ad hoc provisioning.
//!
//! The broker owns the store and answers the infrastructure's requests
//! itself; [`ContextInfrastructure`] is a handle on that broker. The
//! store keeps each record once, behind an `Rc`, beside the printed
//! length of its `<record>` element, counted when it is stored. A
//! `cxt/store` request carries its record as that `Rc`, so the record
//! crosses into the store without a copy. Query results, periodic and
//! on-store pushes and the phone-side result sets share those records
//! instead of copying them, and a result set's wire size adds the
//! stored lengths: no push builds or prints an element per record,
//! however much history the store holds.

use crate::broker::EventBroker;
use crate::client::{FuegoClient, RequestError};
use crate::event::EventNotification;
use crate::xml::XmlElement;
use radio::{Position, Region};
use simkit::{SimDuration, SimTime};
use std::any::Any;
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

    /// XML encoding: the record's printed form on the wire.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new("record")
            .attr("entity", &self.entity)
            .attr("type", &self.item_type)
            .attr("ts", self.timestamp.as_millis().to_string())
            .child(XmlElement::new("value").text(&self.value_text));
        if let Some(p) = self.position {
            el = el
                .attr("x", format!("{:.1}", p.x))
                .attr("y", format!("{:.1}", p.y));
        }
        for (k, v) in &self.metadata {
            el = el.child(XmlElement::new("meta").attr("k", k).text(v));
        }
        el
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

/// A stored record beside the printed length of its `<record>` element.
#[derive(Clone)]
struct Stored {
    record: Rc<InfraRecord>,
    xml_bytes: usize,
}

/// The records a `cxt/results` notification carries, shared with the
/// store, and the printed length of their `<record>` elements together.
#[derive(Clone)]
pub(crate) struct ResultSet {
    pub(crate) records: Vec<Rc<InfraRecord>>,
    pub(crate) xml_bytes: usize,
}

/// The infrastructure's records and push subscriptions, owned by the
/// broker that serves them.
#[derive(Default)]
pub(crate) struct Store {
    records: Vec<Stored>,
    subs: Vec<ServerSub>,
    next_sub: u64,
}

/// Records the store keeps; storing one more drops the oldest.
const STORE_CAPACITY: usize = 10_000;

/// The context infrastructure service: a handle on the broker that keeps
/// its records and answers its requests.
#[derive(Clone)]
pub struct ContextInfrastructure {
    broker: EventBroker,
}

impl ContextInfrastructure {
    /// The infrastructure `broker` serves: the broker answers
    /// `cxt/store`, `cxt/query`, `cxt/subscribe` and `cxt/unsubscribe`
    /// requests from the record store it owns.
    pub fn new(broker: &EventBroker) -> Self {
        ContextInfrastructure {
            broker: broker.clone(),
        }
    }

    /// The response to a request on `topic`: `None` (no service) for any
    /// other topic, and for a request the service cannot read.
    pub(crate) fn serve(&self, topic: &str, ev: EventNotification) -> Option<EventNotification> {
        let (ack_topic, ack) = match topic {
            // The body is the record's `<record>` element, so its counted
            // size is the record's stored length.
            "cxt/store" => {
                let xml_bytes = ev.body.wire_size();
                self.keep(ev.record?, xml_bytes);
                ("cxt/store/ack", XmlElement::new("ok"))
            }
            "cxt/query" => {
                let query = InfraQuery::from_xml(&ev.body)?;
                return Some(results_event(self.results(&query), ev.timestamp));
            }
            "cxt/subscribe" => {
                let body = &ev.body;
                let query = InfraQuery::from_xml(body.find("query")?)?;
                let topic = body.find("topic")?.text_content().to_owned();
                let mode = match body.attribute("every_ms") {
                    Some(ms) => PushMode::Periodic(SimDuration::from_millis(ms.parse().ok()?)),
                    None => PushMode::OnStore,
                };
                let id = self.register_sub(topic, query, mode);
                (
                    "cxt/subscribe/ack",
                    XmlElement::new("sub").attr("id", id.to_string()),
                )
            }
            "cxt/unsubscribe" => {
                let id: u64 = ev.body.attribute("id")?.parse().ok()?;
                self.cancel_sub(id);
                ("cxt/unsubscribe/ack", XmlElement::new("ok"))
            }
            _ => return None,
        };
        Some(EventNotification::new(
            ack_topic,
            "infra",
            ack,
            ev.timestamp,
        ))
    }

    /// Stores a record directly (server-side sources like official
    /// weather stations use this path).
    pub fn store(&self, record: InfraRecord) {
        let xml_bytes = record.to_xml().wire_size();
        self.keep(Rc::new(record), xml_bytes);
    }

    /// Stores `record`, whose `<record>` element prints `xml_bytes` long,
    /// and pushes it to each on-store subscription it matches.
    fn keep(&self, record: Rc<InfraRecord>, xml_bytes: usize) {
        let stored = Stored { record, xml_bytes };
        let now = self.broker.sim().now();
        let on_store_topics: Vec<String> = {
            let mut store = self.broker.store().borrow_mut();
            if store.records.len() >= STORE_CAPACITY {
                store.records.remove(0);
            }
            let topics = store
                .subs
                .iter()
                .filter(|s| {
                    s.active.get()
                        && s.mode == PushMode::OnStore
                        && s.query.matches(&stored.record, now)
                })
                .map(|s| s.topic.clone())
                .collect();
            store.records.push(stored.clone());
            topics
        };
        for topic in on_store_topics {
            let set = ResultSet {
                records: vec![stored.record.clone()],
                xml_bytes: stored.xml_bytes,
            };
            let ev = results_event(set, now).retopic(topic);
            self.broker.publish_from_server(ev);
        }
    }

    /// Evaluates a query against the store, most recent first. The
    /// records are the store's own, shared.
    pub fn eval(&self, query: &InfraQuery) -> Vec<Rc<InfraRecord>> {
        self.results(query).records
    }

    /// [`ContextInfrastructure::eval`] with the stored lengths of the hits.
    fn results(&self, query: &InfraQuery) -> ResultSet {
        let now = self.broker.sim().now();
        let store = self.broker.store().borrow();
        let mut hits: Vec<&Stored> = store
            .records
            .iter()
            .filter(|s| query.matches(&s.record, now))
            .collect();
        hits.sort_by_key(|s| std::cmp::Reverse(s.record.timestamp));
        if query.max_items > 0 {
            hits.truncate(query.max_items);
        }
        ResultSet {
            xml_bytes: hits.iter().map(|s| s.xml_bytes).sum(),
            records: hits.into_iter().map(|s| s.record.clone()).collect(),
        }
    }

    /// Number of records currently stored.
    pub fn record_count(&self) -> usize {
        self.broker.store().borrow().records.len()
    }

    fn register_sub(&self, topic: String, query: InfraQuery, mode: PushMode) -> u64 {
        let active = Rc::new(std::cell::Cell::new(true));
        let id = {
            let mut store = self.broker.store().borrow_mut();
            store.next_sub += 1;
            let id = store.next_sub;
            store.subs.push(ServerSub {
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
            self.broker.sim().schedule_repeating(every, move || {
                if !active.get() {
                    return false;
                }
                let results = me.results(&query);
                if !results.records.is_empty() {
                    let ev = results_event(results, me.broker.sim().now()).retopic(topic.clone());
                    me.broker.publish_from_server(ev);
                }
                true
            });
        }
        id
    }

    fn cancel_sub(&self, id: u64) {
        let mut store = self.broker.store().borrow_mut();
        if let Some(s) = store.subs.iter().find(|s| s.id == id) {
            s.active.set(false);
        }
        store.subs.retain(|s| s.id != id);
    }
}

/// The `cxt/results` notification for a result set: the body states the
/// count, and the records ride as the set (see
/// [`EventNotification::to_envelope`]).
fn results_event(set: ResultSet, timestamp: SimTime) -> EventNotification {
    let body = XmlElement::new("results").attr("n", set.records.len().to_string());
    let mut ev = EventNotification::new("cxt/results", "infra", body, timestamp);
    ev.records = Some(set);
    ev
}

impl fmt::Debug for ContextInfrastructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = self.broker.store().borrow();
        f.debug_struct("ContextInfrastructure")
            .field("records", &store.records.len())
            .field("subs", &store.subs.len())
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

    /// Stores a record remotely (`storeCxtItem`). `cb` observes the ack.
    /// The request's body is the record's `<record>` element, and the
    /// record itself rides along, shared, into the store.
    pub fn store(&self, record: InfraRecord, cb: impl FnOnce(Result<(), RequestError>) + 'static) {
        let mut ev = self.fuego.make_event("cxt/store", record.to_xml());
        ev.record = Some(Rc::new(record));
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
        cb: impl FnOnce(Result<Vec<Rc<InfraRecord>>, RequestError>) + 'static,
    ) {
        let ev = self.fuego.make_event("cxt/query", query.to_xml());
        self.fuego
            .request("cxt/query", ev, timeout, move |res| cb(res.map(records_of)));
    }

    /// Long-running query: the infrastructure pushes matching records
    /// periodically or as they arrive; `handler` receives each batch.
    pub fn subscribe(
        &self,
        query: &InfraQuery,
        mode: PushMode,
        handler: impl Fn(Vec<Rc<InfraRecord>>) + 'static,
    ) -> InfraSubscription {
        // A unique push topic per subscription.
        let topic = self.fuego.unique_topic("cxt/push");
        let sub = self
            .fuego
            .subscribe(topic.clone(), move |ev| handler(records_of(ev)));
        let mut body = XmlElement::new("subscribe")
            .child(InfraQuery::to_xml(query))
            .child(XmlElement::new("topic").text(topic));
        if let PushMode::Periodic(every) = mode {
            body = body.attr("every_ms", every.as_millis().to_string());
        }
        let server_id = Rc::new(std::cell::Cell::new(None));
        let sid = server_id.clone();
        let ev = self.fuego.make_event("cxt/subscribe", body);
        self.fuego.request(
            "cxt/subscribe",
            ev,
            SimDuration::from_secs(60),
            move |res| {
                if let Ok(ack) = res {
                    if let Some(id) = ack.body.attribute("id").and_then(|s| s.parse().ok()) {
                        sid.set(Some(id));
                    }
                }
            },
        );
        InfraSubscription {
            client: self.fuego.clone(),
            sub,
            server_id,
        }
    }
}

/// The records a `cxt/results` notification carries, shared with the
/// store.
fn records_of(ev: EventNotification) -> Vec<Rc<InfraRecord>> {
    ev.records.map_or_else(Vec::new, |set| set.records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(records: Vec<InfraRecord>) -> ResultSet {
        ResultSet {
            xml_bytes: records.iter().map(|r| r.to_xml().wire_size()).sum(),
            records: records.into_iter().map(Rc::new).collect(),
        }
    }

    #[test]
    fn a_result_set_with_a_shared_payload_still_decodes() {
        let set = set_of(vec![InfraRecord::new(
            "boat-1",
            "wind",
            "12kn",
            SimTime::from_millis(5),
        )]);
        let ev = results_event(set, SimTime::ZERO);
        // The broker hands every subscriber but the last a copy.
        let copy = ev.clone();
        let got = records_of(ev);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].entity, "boat-1");
        assert_eq!(
            copy.records.map(|set| set.records.len()),
            Some(1),
            "the other holder keeps its records"
        );
    }

    /// Records whose `<record>` elements exercise every escaped
    /// character, multi-byte text, positions and metadata.
    fn awkward_records(n: usize) -> Vec<InfraRecord> {
        (0..n)
            .map(|i| {
                let mut r = InfraRecord::new(
                    format!("boat-{i}&<>\"'"),
                    "wind",
                    format!("{i}kn é中"),
                    SimTime::from_millis(1_000 * i as u64),
                )
                .with_metadata("accuracy", "0.5")
                .with_metadata("note", format!("<{i}> & \"é\" '中'"));
                if i % 2 == 0 {
                    r = r.at(Position::new(i as f64 * 1.5, -2.25));
                }
                r
            })
            .collect()
    }

    #[test]
    fn a_result_set_sizes_and_prints_as_the_records_in_its_body() {
        for n in [0, 1, 50] {
            let records = awkward_records(n);
            let mut body = XmlElement::new("results").attr("n", n.to_string());
            for r in &records {
                body = body.child(r.to_xml());
            }
            let at = SimTime::from_millis(7_000);
            // The notification with every `<record>` built into its body.
            let full = EventNotification::new("cxt/results", "infra", body, at).with_id(3);
            let printed = full.to_envelope().to_xml();
            let ev = results_event(set_of(records), at).with_id(3);
            assert_eq!(ev.wire_size(), printed.len(), "{n} records");
            assert_eq!(ev.to_envelope().to_xml(), printed, "{n} records");
        }
    }
}
