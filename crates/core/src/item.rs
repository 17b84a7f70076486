//! Context items and their metadata (paper §4.1).
//!
//! A situation is a set of context items — `<noise=medium, light=natural,
//! activity=walking>`. Each [`CxtItem`] has a type, value(s), timestamp
//! and optionally a lifetime, a source identifier and quality metadata
//! (correctness, precision, accuracy, completeness, privacy, trust).

use simkit::{SimDuration, SimTime};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A name an item carries: its type, a unit, a text value, a component
/// name, a privacy label or a source id.
///
/// An item never changes after it is made, so its copies share one
/// allocation of each name: cloning a `Name` bumps a count. A `Name`
/// derefs to `str`, compares with `&str` and `String`, orders and hashes
/// as its text, and prints with `{}` and `{:?}` exactly as its text
/// does.
///
/// ```
/// use contory::Name;
///
/// let unit = Name::from("kn");
/// assert_eq!(unit, "kn");
/// assert_eq!(format!("{unit} {unit:?}"), "kn \"kn\"");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Rc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Rc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Rc::from(s))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        **self == *other.0
    }
}

/// Identifier of the source an item came from: a sensor, a neighboring
/// device, or an infrastructure ("sensor, infrastructure, and device
/// addresses" in the paper).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub Name);

impl SourceId {
    /// Creates a source id.
    pub fn new(id: impl Into<Name>) -> Self {
        SourceId(id.into())
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> Self {
        SourceId(s.into())
    }
}

impl From<String> for SourceId {
    fn from(s: String) -> Self {
        SourceId(s.into())
    }
}

/// Trust level attached to an item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Trust {
    /// From an unknown entity.
    #[default]
    Unknown,
    /// From a community member (e.g. another regatta participant).
    Community,
    /// From an authenticated, known source.
    Trusted,
}

impl fmt::Display for Trust {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trust::Unknown => f.write_str("unknown"),
            Trust::Community => f.write_str("community"),
            Trust::Trusted => f.write_str("trusted"),
        }
    }
}

/// Quality metadata of a context item (§4.1): "correctness (closeness to
/// the true state), precision, accuracy, completeness, and level of
/// privacy and trust".
#[derive(Clone, Debug, PartialEq)]
pub struct Metadata {
    /// Estimated closeness to the true state, `0.0..=1.0`.
    pub correctness: Option<f64>,
    /// Measurement precision (repeatability), in the value's unit.
    pub precision: Option<f64>,
    /// Measurement accuracy (1-σ error bound), in the value's unit.
    pub accuracy: Option<f64>,
    /// Fraction of the described information that is known, `0.0..=1.0`.
    pub completeness: Option<f64>,
    /// Privacy label controlling redistribution.
    pub privacy: Option<Name>,
    /// Trust in the source.
    pub trust: Trust,
}

impl Metadata {
    /// Metadata with nothing known.
    pub fn none() -> Self {
        Metadata {
            correctness: None,
            precision: None,
            accuracy: None,
            completeness: None,
            privacy: None,
            trust: Trust::Unknown,
        }
    }

    /// Numeric metadata field by vocabulary name, if set.
    pub fn numeric(&self, key: &str) -> Option<f64> {
        match key {
            crate::vocab::metadata_keys::CORRECTNESS => self.correctness,
            crate::vocab::metadata_keys::PRECISION => self.precision,
            crate::vocab::metadata_keys::ACCURACY => self.accuracy,
            crate::vocab::metadata_keys::COMPLETENESS => self.completeness,
            _ => None,
        }
    }
}

impl Default for Metadata {
    fn default() -> Self {
        Metadata::none()
    }
}

/// The value(s) of a context item.
#[derive(Clone, Debug, PartialEq)]
pub enum CxtValue {
    /// A numeric quantity with a unit, e.g. `14.0 °C`.
    Number {
        /// Magnitude.
        value: f64,
        /// Unit suffix (empty for dimensionless).
        unit: Name,
    },
    /// A categorical/text value, e.g. `activity=walking`.
    Text(Name),
    /// A geographic position in world metres (location items).
    Position {
        /// Easting in metres.
        x: f64,
        /// Northing in metres.
        y: f64,
    },
    /// Several named components, e.g. a weather observation.
    Composite(Vec<(Name, f64)>),
}

impl CxtValue {
    /// Creates a unit-less number.
    pub fn number(value: f64) -> Self {
        CxtValue::Number {
            value,
            unit: Name::default(),
        }
    }

    /// Creates a number with a unit.
    pub fn quantity(value: f64, unit: impl Into<Name>) -> Self {
        CxtValue::Number {
            value,
            unit: unit.into(),
        }
    }

    /// The primary numeric magnitude, if this value has one (a number,
    /// a position's first component, or a composite's first component).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            CxtValue::Number { value, .. } => Some(*value),
            CxtValue::Position { x, .. } => Some(*x),
            CxtValue::Composite(parts) => parts.first().map(|(_, v)| *v),
            CxtValue::Text(_) => None,
        }
    }

    /// Approximate serialized size in bytes (the paper: a wind item is
    /// 53 bytes, a location item 136 bytes).
    fn wire_size(&self) -> usize {
        match self {
            CxtValue::Number { unit, .. } => 10 + unit.len(),
            CxtValue::Text(t) => t.len() + 2,
            // lat/lon as doubles plus geodetic datum fields — the big one.
            CxtValue::Position { .. } => 72,
            CxtValue::Composite(parts) => {
                parts.iter().map(|(k, _)| k.len() + 10).sum::<usize>() + 4
            }
        }
    }
}

impl fmt::Display for CxtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CxtValue::Number { value, unit } => write!(f, "{value:.1}{unit}"),
            CxtValue::Text(t) => f.write_str(t),
            CxtValue::Position { x, y } => write!(f, "({x:.1}, {y:.1})"),
            CxtValue::Composite(parts) => {
                let mut first = true;
                for (k, v) in parts {
                    if !first {
                        f.write_str(",")?;
                    }
                    write!(f, "{k}={v:.1}")?;
                    first = false;
                }
                Ok(())
            }
        }
    }
}

/// A context item (§4.1): type, value, timestamp, and optional lifetime,
/// source and metadata.
///
/// ```
/// use contory::{CxtItem, CxtValue, Trust};
/// use simkit::{SimDuration, SimTime};
///
/// let item = CxtItem::new("temperature", CxtValue::quantity(14.0, "C"), SimTime::ZERO)
///     .with_lifetime(SimDuration::from_secs(30))
///     .with_accuracy(0.2)
///     .with_trust(Trust::Trusted);
/// assert!(item.is_valid_at(SimTime::from_secs(30)));
/// assert!(!item.is_valid_at(SimTime::from_secs(31)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CxtItem {
    /// Context category (the SELECT clause name).
    pub cxt_type: Name,
    /// Current value(s).
    pub value: CxtValue,
    /// When the item had this value.
    pub timestamp: SimTime,
    /// Validity duration, if bounded.
    pub lifetime: Option<SimDuration>,
    /// Where the item came from.
    pub source: Option<SourceId>,
    /// Quality metadata.
    pub metadata: Metadata,
}

impl CxtItem {
    /// Creates an item with no lifetime, source or metadata.
    pub fn new(cxt_type: impl Into<Name>, value: CxtValue, timestamp: SimTime) -> Self {
        CxtItem {
            cxt_type: cxt_type.into(),
            value,
            timestamp,
            lifetime: None,
            source: None,
            metadata: Metadata::none(),
        }
    }

    /// Sets the validity duration, builder style.
    pub fn with_lifetime(mut self, lifetime: SimDuration) -> Self {
        self.lifetime = Some(lifetime);
        self
    }

    /// Sets the source, builder style.
    pub fn with_source(mut self, source: impl Into<SourceId>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Sets the accuracy metadata, builder style.
    pub fn with_accuracy(mut self, accuracy: f64) -> Self {
        self.metadata.accuracy = Some(accuracy);
        self
    }

    /// Sets the correctness metadata, builder style.
    pub fn with_correctness(mut self, correctness: f64) -> Self {
        self.metadata.correctness = Some(correctness);
        self
    }

    /// Sets the trust metadata, builder style.
    pub fn with_trust(mut self, trust: Trust) -> Self {
        self.metadata.trust = trust;
        self
    }

    /// Replaces all metadata, builder style.
    pub fn with_metadata(mut self, metadata: Metadata) -> Self {
        self.metadata = metadata;
        self
    }

    /// Age of the item at `now`.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now - self.timestamp
    }

    /// Whether the item is within its lifetime at `now` (items without a
    /// lifetime never expire).
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        match self.lifetime {
            Some(l) => now <= self.timestamp + l,
            None => true,
        }
    }

    /// Whether the item is no older than `freshness` at `now`.
    pub fn is_fresh_at(&self, now: SimTime, freshness: SimDuration) -> bool {
        self.age(now) <= freshness
    }

    /// Approximate serialized size in bytes. A wind item is ~53 bytes and
    /// a location item ~136 bytes, matching the paper's §6.1.
    pub fn wire_size(&self) -> usize {
        let mut size = 24 // header: type tag, timestamp, flags
            + self.cxt_type.len()
            + self.value.wire_size();
        if self.lifetime.is_some() {
            size += 8;
        }
        if let Some(s) = &self.source {
            size += s.0.len() + 2;
        }
        let m = &self.metadata;
        for field in [m.correctness, m.precision, m.accuracy, m.completeness] {
            if field.is_some() {
                size += 9;
            }
        }
        if let Some(p) = &m.privacy {
            size += p.len() + 2;
        }
        if m.trust != Trust::Unknown {
            size += 8;
        }
        size
    }

    /// Printable value text (what goes in a tag, e.g. `"14.0C,0.2,trusted"`).
    pub fn value_text(&self) -> String {
        let mut s = self.value.to_string();
        if let Some(a) = self.metadata.accuracy {
            s.push_str(&format!(",{a}"));
        }
        if self.metadata.trust != Trust::Unknown {
            s.push_str(&format!(",{}", self.metadata.trust));
        }
        s
    }
}

impl fmt::Display for CxtItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={} @ {}", self.cxt_type, self.value, self.timestamp)?;
        if let Some(s) = &self.source {
            write!(f, " from {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lifetime_validity() {
        let item = CxtItem::new("temperature", CxtValue::number(14.0), t(10))
            .with_lifetime(SimDuration::from_secs(5));
        assert!(item.is_valid_at(t(10)));
        assert!(item.is_valid_at(t(15)));
        assert!(!item.is_valid_at(t(16)));
        let eternal = CxtItem::new("temperature", CxtValue::number(14.0), t(10));
        assert!(eternal.is_valid_at(t(10_000)));
    }

    #[test]
    fn freshness() {
        let item = CxtItem::new("wind", CxtValue::quantity(5.0, "kn"), t(100));
        assert!(item.is_fresh_at(t(130), SimDuration::from_secs(30)));
        assert!(!item.is_fresh_at(t(131), SimDuration::from_secs(30)));
        assert_eq!(item.age(t(160)), SimDuration::from_secs(60));
    }

    #[test]
    fn wire_sizes_match_paper_ranges() {
        // "the size of a context item varies from 53 bytes (e.g., a wind
        //  item) to 136 bytes (e.g., a location item)"
        let wind = CxtItem::new("wind", CxtValue::quantity(5.2, "kn"), t(0))
            .with_accuracy(0.5);
        assert!(
            (45..=65).contains(&wind.wire_size()),
            "wind item {} bytes",
            wind.wire_size()
        );
        let location = CxtItem::new(
            "location",
            CxtValue::Position { x: 1_234.5, y: -987.6 },
            t(0),
        )
        .with_source("btgps://inssirf-iii/0")
        .with_accuracy(5.0)
        .with_trust(Trust::Trusted);
        assert!(
            (120..=150).contains(&location.wire_size()),
            "location item {} bytes",
            location.wire_size()
        );
    }

    #[test]
    fn metadata_numeric_lookup() {
        let mut m = Metadata::none();
        m.accuracy = Some(0.2);
        m.correctness = Some(0.9);
        assert_eq!(m.numeric("accuracy"), Some(0.2));
        assert_eq!(m.numeric("correctness"), Some(0.9));
        assert_eq!(m.numeric("precision"), None);
        assert_eq!(m.numeric("bogus"), None);
    }

    #[test]
    fn value_accessors_and_display() {
        assert_eq!(CxtValue::number(3.5).as_f64(), Some(3.5));
        assert_eq!(CxtValue::Text("walking".into()).as_f64(), None);
        assert_eq!(
            CxtValue::Position { x: 1.0, y: 2.0 }.to_string(),
            "(1.0, 2.0)"
        );
        let comp = CxtValue::Composite(vec![("speed".into(), 6.1), ("course".into(), 82.0)]);
        assert_eq!(comp.as_f64(), Some(6.1));
        assert_eq!(comp.to_string(), "speed=6.1,course=82.0");
        assert_eq!(CxtValue::quantity(14.02, "C").to_string(), "14.0C");
    }

    #[test]
    fn value_text_carries_metadata() {
        let item = CxtItem::new("temperature", CxtValue::quantity(14.0, "C"), t(0))
            .with_accuracy(1.0)
            .with_trust(Trust::Trusted);
        assert_eq!(item.value_text(), "14.0C,1,trusted");
    }

    /// The text of an item's names is what perfbench's item-stream
    /// digests (`{}` of the type, `{:?}` of the value and source) and the
    /// bench artefacts read: a name prints exactly as its text, never as
    /// `Name("C")`.
    #[test]
    fn names_print_as_their_text() {
        assert_eq!(
            format!("{:?}", CxtValue::quantity(14.0, "C")),
            r#"Number { value: 14.0, unit: "C" }"#
        );
        assert_eq!(
            format!("{:?}", CxtValue::number(2.5)),
            r#"Number { value: 2.5, unit: "" }"#
        );
        assert_eq!(
            format!("{:?}", Some(SourceId::new("x"))),
            r#"Some(SourceId("x"))"#
        );
        assert_eq!(
            format!("{:?}", CxtValue::Text("walking".into())),
            r#"Text("walking")"#
        );
        assert_eq!(
            format!(
                "{:?}",
                CxtValue::Composite(vec![("speed".into(), 6.1), ("course".into(), 82.0)])
            ),
            r#"Composite([("speed", 6.1), ("course", 82.0)])"#
        );
        let item = CxtItem::new("temperature", CxtValue::quantity(14.04, "C"), t(61))
            .with_source("intSensor://phone0");
        assert_eq!(
            item.to_string(),
            "temperature=14.0C @ 0:01:01.000 from intSensor://phone0"
        );
        assert_eq!(
            format!("{} {:?} {:?}", item.cxt_type, item.value, item.source),
            r#"temperature Number { value: 14.04, unit: "C" } Some(SourceId("intSensor://phone0"))"#
        );
        // Escapes, non-ASCII text and padding are the text's own.
        for text in ["a\"b\\c\n", "é中", ""] {
            let name = Name::from(text);
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(
                format!("{name}|{name:>6}|{name:<6}|"),
                format!("{text}|{text:>6}|{text:<6}|")
            );
        }
    }

    #[test]
    fn names_compare_order_and_share_as_their_text() {
        let name = Name::from("wind");
        let owned = String::from("wind");
        assert_eq!(name, "wind");
        assert_eq!(name, owned);
        assert_eq!(owned, name);
        assert_ne!(name, "windy");
        let mut names = ["ba", "b", "a"].map(Name::from);
        names.sort();
        assert_eq!(names, ["a", "b", "ba"]);
        let mut map = std::collections::BTreeMap::new();
        map.insert(name.clone(), 1);
        assert_eq!(map.get("wind"), Some(&1));
        let copy = name.clone();
        assert!(
            std::ptr::eq(copy.as_str(), name.as_str()),
            "a copy shares the text"
        );
    }

    #[test]
    fn display_mentions_source() {
        let item = CxtItem::new("location", CxtValue::Position { x: 0.0, y: 0.0 }, t(1))
            .with_source("node7");
        assert!(item.to_string().contains("from node7"));
    }
}
