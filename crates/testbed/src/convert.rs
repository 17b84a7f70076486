//! Conversions between the substrate data types and Contory's context
//! items.

use contory::{CxtItem, CxtValue, Metadata, Name, SourceId, Trust};
use fuego::InfraRecord;
use radio::Position;
use sensors::Reading;

/// Turns a sensor reading into a context item.
pub fn reading_to_item(reading: &Reading, source: impl Into<SourceId>) -> CxtItem {
    SensorNames::new(reading.quantity, reading.unit, source).item(reading)
}

/// The names one sensor's items carry: its context type, its unit and
/// its source. A sensor that makes them once shares them with every item
/// it reports.
pub(crate) struct SensorNames {
    cxt_type: Name,
    unit: Name,
    source: SourceId,
}

impl SensorNames {
    pub(crate) fn new(cxt_type: &str, unit: &str, source: impl Into<SourceId>) -> Self {
        SensorNames {
            cxt_type: cxt_type.into(),
            unit: unit.into(),
            source: source.into(),
        }
    }

    /// The context item of one of this sensor's readings.
    pub(crate) fn item(&self, reading: &Reading) -> CxtItem {
        CxtItem::new(
            self.cxt_type.clone(),
            CxtValue::quantity(reading.value, self.unit.clone()),
            reading.timestamp,
        )
        .with_accuracy(reading.accuracy)
        .with_source(self.source.clone())
    }
}

/// Turns a context item into an infrastructure record. `entity` names
/// the providing device; `position` georeferences the observation (the
/// item's own position for location items, the device position
/// otherwise).
pub fn item_to_record(item: &CxtItem, entity: &str, position: Option<Position>) -> InfraRecord {
    let pos = match &item.value {
        CxtValue::Position { x, y } => Some(Position::new(*x, *y)),
        _ => position,
    };
    let mut record = InfraRecord::new(entity, item.cxt_type.as_str(), item.value.to_string(), item.timestamp)
        .with_payload(std::rc::Rc::new(item.clone()));
    if let Some(p) = pos {
        record = record.at(p);
    }
    if let Some(a) = item.metadata.accuracy {
        record = record.with_metadata("accuracy", format!("{a}"));
    }
    if let Some(c) = item.metadata.correctness {
        record = record.with_metadata("correctness", format!("{c}"));
    }
    if item.metadata.trust != Trust::Unknown {
        record = record.with_metadata("trust", item.metadata.trust.to_string());
    }
    record
}

/// Turns an infrastructure record back into a context item. Prefers the
/// structured payload when it survived (same-simulation fast path),
/// otherwise reconstructs from the record fields.
pub fn record_to_item(record: &InfraRecord) -> CxtItem {
    if let Some(p) = &record.payload {
        if let Ok(item) = p.clone().downcast::<CxtItem>() {
            return item.as_ref().clone();
        }
    }
    let value = parse_value_text(&record.value_text, record.position);
    let mut metadata = Metadata::none();
    if let Some(a) = record.metadata.get("accuracy").and_then(|s| s.parse().ok()) {
        metadata.accuracy = Some(a);
    }
    if let Some(c) = record
        .metadata
        .get("correctness")
        .and_then(|s| s.parse().ok())
    {
        metadata.correctness = Some(c);
    }
    metadata.trust = match record.metadata.get("trust").map(String::as_str) {
        Some("trusted") => Trust::Trusted,
        Some("community") => Trust::Community,
        _ => Trust::Unknown,
    };
    CxtItem::new(record.item_type.clone(), value, record.timestamp)
        .with_source(format!("infra://{}", record.entity))
        .with_metadata(metadata)
}

/// Parses a printable value back into a structured one: `"14.0C"` →
/// number + unit; `"(x, y)"` → the record's position; anything else →
/// text.
fn parse_value_text(text: &str, position: Option<Position>) -> CxtValue {
    if text.starts_with('(') {
        if let Some(p) = position {
            return CxtValue::Position { x: p.x, y: p.y };
        }
    }
    let split = text
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == '-'))
        .map(|(i, _)| i)
        .unwrap_or(text.len());
    // An empty number part fails to parse.
    if let Some((number, unit)) = text.split_at_checked(split) {
        if let Ok(v) = number.parse::<f64>() {
            return CxtValue::Number {
                value: v,
                unit: unit.into(),
            };
        }
    }
    CxtValue::Text(text.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn reading_round_trip() {
        let r = Reading {
            quantity: "temperature",
            value: 14.3,
            unit: "C",
            timestamp: SimTime::from_secs(10),
            accuracy: 0.2,
            position: Some(Position::new(1.0, 2.0)),
        };
        let item = reading_to_item(&r, "sensor://t0");
        assert_eq!(item.cxt_type, "temperature");
        assert_eq!(item.value.as_f64(), Some(14.3));
        assert_eq!(item.metadata.accuracy, Some(0.2));
    }

    #[test]
    fn item_record_round_trip_via_payload() {
        let item = CxtItem::new("wind", CxtValue::quantity(7.5, "kn"), SimTime::from_secs(5))
            .with_accuracy(0.5)
            .with_trust(Trust::Community);
        let record = item_to_record(&item, "boat-1", Some(Position::new(10.0, 20.0)));
        assert_eq!(record.entity, "boat-1");
        assert_eq!(record.position.unwrap().x, 10.0);
        let back = record_to_item(&record);
        assert_eq!(back, item);
    }

    #[test]
    fn item_record_round_trip_without_payload() {
        let item = CxtItem::new("wind", CxtValue::quantity(7.5, "kn"), SimTime::from_secs(5))
            .with_accuracy(0.5)
            .with_trust(Trust::Trusted);
        let mut record = item_to_record(&item, "boat-1", None);
        record.payload = None; // simulate a wire crossing
        let back = record_to_item(&record);
        assert_eq!(back.cxt_type, "wind");
        assert_eq!(back.value.as_f64(), Some(7.5));
        assert_eq!(back.metadata.accuracy, Some(0.5));
        assert_eq!(back.metadata.trust, Trust::Trusted);
        assert_eq!(back.timestamp, SimTime::from_secs(5));
    }

    #[test]
    fn location_items_use_their_own_position() {
        let item = CxtItem::new(
            "location",
            CxtValue::Position { x: 5.0, y: 6.0 },
            SimTime::ZERO,
        );
        let record = item_to_record(&item, "boat-2", Some(Position::new(99.0, 99.0)));
        assert_eq!(record.position.unwrap().x, 5.0);
        let mut stripped = record.clone();
        stripped.payload = None;
        let back = record_to_item(&stripped);
        assert!(matches!(back.value, CxtValue::Position { x, .. } if x == 5.0));
    }

    #[test]
    fn text_values_survive() {
        let item = CxtItem::new("activity", CxtValue::Text("sailing".into()), SimTime::ZERO);
        let mut record = item_to_record(&item, "boat-3", None);
        record.payload = None;
        let back = record_to_item(&record);
        assert_eq!(back.value, CxtValue::Text("sailing".into()));
    }
}
