//! The tag space: named shared memory addressable by content.
//!
//! Tags have a file-system-like name used for content-based naming of
//! nodes; Contory publishes each context item as a tag whose name carries
//! the item type and whose value carries value + metadata. Tags may have
//! a lifetime and are either publicly readable or locked behind a key
//! (the paper's *public* vs *authenticated* access modalities).

use simkit::{SimDuration, SimTime};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Access modality of a published tag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TagAccess {
    /// Any external entity may read the tag.
    #[default]
    Public,
    /// The requester must present this key.
    Authenticated(String),
}

/// The value stored in a tag: a printable text form (what would go on the
/// wire), an optional structured payload for in-simulation consumers, and
/// the wire size used by the migration cost model.
#[derive(Clone)]
pub struct TagValue {
    /// Human/wire representation, e.g. `"14.0C,0.2C,trusted"`.
    pub text: String,
    /// Structured payload (e.g. a `CxtItem`) for zero-copy consumption.
    pub data: Option<Rc<dyn Any>>,
    /// Serialized size in bytes (defaults to the text length).
    pub wire_size: usize,
}

impl TagValue {
    /// A plain text value.
    pub fn text(text: impl Into<String>) -> Self {
        let text = text.into();
        let wire_size = text.len();
        TagValue {
            text,
            data: None,
            wire_size,
        }
    }

    /// A value carrying a structured payload with an explicit wire size.
    pub fn with_data(text: impl Into<String>, data: Rc<dyn Any>, wire_size: usize) -> Self {
        TagValue {
            text: text.into(),
            data: Some(data),
            wire_size,
        }
    }
}

impl fmt::Debug for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagValue")
            .field("text", &self.text)
            .field("wire_size", &self.wire_size)
            .field("has_data", &self.data.is_some())
            .finish()
    }
}

impl PartialEq for TagValue {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text && self.wire_size == other.wire_size
    }
}

/// A named entry in a node's tag space.
#[derive(Clone, Debug, PartialEq)]
pub struct Tag {
    /// Content name (e.g. `"temperature"`, `"contory"`).
    pub name: String,
    /// Stored value.
    pub value: TagValue,
    /// When the tag was (last) published.
    pub published_at: SimTime,
    /// Validity duration; expired tags read as absent.
    pub lifetime: Option<SimDuration>,
    /// Public or authenticated access.
    pub access: TagAccess,
}

impl Tag {
    /// Creates a public tag with no lifetime.
    pub fn new(name: impl Into<String>, value: TagValue, published_at: SimTime) -> Self {
        Tag {
            name: name.into(),
            value,
            published_at,
            lifetime: None,
            access: TagAccess::Public,
        }
    }

    /// Sets a validity duration, builder style.
    pub fn with_lifetime(mut self, lifetime: SimDuration) -> Self {
        self.lifetime = Some(lifetime);
        self
    }

    /// Locks the tag behind a key, builder style.
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.access = TagAccess::Authenticated(key.into());
        self
    }

    /// Whether the tag is expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        match self.lifetime {
            Some(l) => now > self.published_at + l,
            None => false,
        }
    }

    /// Whether a reader presenting `key` may read this tag.
    pub fn readable_with(&self, key: Option<&str>) -> bool {
        match &self.access {
            TagAccess::Public => true,
            TagAccess::Authenticated(k) => key == Some(k.as_str()),
        }
    }

    /// Age of the tag at `now`.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now - self.published_at
    }
}

/// One node's tag space: a name-addressed hashtable (the portable SM
/// implementation literally used a `Hashtable`).
#[derive(Clone, Debug, Default)]
pub struct TagSpace {
    tags: BTreeMap<String, Tag>,
}

impl TagSpace {
    /// Creates an empty tag space.
    pub fn new() -> Self {
        TagSpace::default()
    }

    /// Publishes (or replaces) a tag. Returns the previous tag with the
    /// same name, if any.
    pub fn publish(&mut self, tag: Tag) -> Option<Tag> {
        self.tags.insert(tag.name.clone(), tag)
    }

    /// Removes a tag by name.
    pub fn remove(&mut self, name: &str) -> Option<Tag> {
        self.tags.remove(name)
    }

    /// Reads a live (non-expired) tag, respecting access control.
    /// Expired or key-protected tags read as absent.
    pub fn read(&self, name: &str, now: SimTime, key: Option<&str>) -> Option<&Tag> {
        self.tags
            .get(name)
            .filter(|t| !t.is_expired(now) && t.readable_with(key))
    }

    /// Whether a live tag with this name exists (ignoring access — the
    /// name itself is visible for routing, like a file name).
    pub fn exposes(&self, name: &str, now: SimTime) -> bool {
        self.tags.get(name).is_some_and(|t| !t.is_expired(now))
    }

    /// Drops expired tags (housekeeping).
    pub fn sweep(&mut self, now: SimTime) {
        self.tags.retain(|_, t| !t.is_expired(now));
    }

    /// Number of stored tags (including expired, pre-sweep).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if no tags are stored.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn publish_read_remove() {
        let mut ts = TagSpace::new();
        ts.publish(Tag::new("temperature", TagValue::text("14.0C"), t(0)));
        assert!(ts.exposes("temperature", t(1)));
        let tag = ts.read("temperature", t(1), None).unwrap();
        assert_eq!(tag.value.text, "14.0C");
        assert_eq!(tag.age(t(5)), SimDuration::from_secs(5));
        ts.remove("temperature");
        assert!(ts.read("temperature", t(1), None).is_none());
    }

    #[test]
    fn replace_returns_previous() {
        let mut ts = TagSpace::new();
        ts.publish(Tag::new("x", TagValue::text("1"), t(0)));
        let prev = ts.publish(Tag::new("x", TagValue::text("2"), t(1))).unwrap();
        assert_eq!(prev.value.text, "1");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.read("x", t(2), None).unwrap().value.text, "2");
    }

    #[test]
    fn lifetime_expiry() {
        let mut ts = TagSpace::new();
        ts.publish(
            Tag::new("wind", TagValue::text("5kn"), t(0))
                .with_lifetime(SimDuration::from_secs(30)),
        );
        assert!(ts.read("wind", t(30), None).is_some());
        assert!(ts.read("wind", t(31), None).is_none());
        assert!(!ts.exposes("wind", t(31)));
        ts.sweep(t(31));
        assert!(ts.is_empty());
    }

    #[test]
    fn authenticated_access_requires_key() {
        let mut ts = TagSpace::new();
        ts.publish(Tag::new("location", TagValue::text("60N,22E"), t(0)).with_key("secret"));
        assert!(ts.read("location", t(1), None).is_none());
        assert!(ts.read("location", t(1), Some("wrong")).is_none());
        assert!(ts.read("location", t(1), Some("secret")).is_some());
        // the name is still exposed for routing
        assert!(ts.exposes("location", t(1)));
    }

    #[test]
    fn tag_value_wire_size_defaults_to_text_len() {
        let v = TagValue::text("hello");
        assert_eq!(v.wire_size, 5);
        let v = TagValue::with_data("x", Rc::new(42u32), 136);
        assert_eq!(v.wire_size, 136);
        assert!(v.data.is_some());
    }
}
