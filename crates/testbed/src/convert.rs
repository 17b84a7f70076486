//! Conversions between the substrate data types and Contory's context
//! items.

use contory::{CxtItem, CxtValue, Name, SourceId, Trust};
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
    let mut record = InfraRecord::new(
        entity,
        item.cxt_type.as_str(),
        item.value.to_string(),
        item.timestamp,
    )
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

/// The context item an infrastructure record carries. Every record a
/// testbed world stores is made by [`item_to_record`], which attaches
/// its item; a record from elsewhere carries none.
pub fn record_to_item(record: &InfraRecord) -> Option<CxtItem> {
    record.payload.as_ref()?.downcast_ref::<CxtItem>().cloned()
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
        assert_eq!(record.item_type, "wind");
        assert_eq!(record.value_text, "7.5kn");
        assert_eq!(record.timestamp, SimTime::from_secs(5));
        assert_eq!(record.position.unwrap().x, 10.0);
        assert_eq!(record.metadata.get("accuracy").unwrap(), "0.5");
        assert_eq!(record.metadata.get("trust").unwrap(), "community");
        assert_eq!(record_to_item(&record), Some(item));

        let text = CxtItem::new("activity", CxtValue::Text("sailing".into()), SimTime::ZERO);
        let record = item_to_record(&text, "boat-3", None);
        assert_eq!(record.value_text, "sailing");
        assert!(record.position.is_none() && record.metadata.is_empty());
        assert_eq!(record_to_item(&record), Some(text));

        let bare = InfraRecord::new("boat-1", "wind", "7.5kn", SimTime::ZERO);
        assert_eq!(record_to_item(&bare), None);
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
        assert_eq!(record.position.unwrap().y, 6.0);
    }
}
