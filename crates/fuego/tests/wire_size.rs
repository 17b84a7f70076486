//! Counted wire sizes against printed ones: `XmlElement::wire_size` and
//! `EventNotification::wire_size` count bytes without printing, and must
//! agree with the printed document byte for byte, since every UMTS leg's
//! latency is drawn from them.

use fuego::event::EventNotification;
use fuego::xml::XmlElement;
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::SimTime;

/// Attribute values, text, senders and topics: the five characters the
/// writer escapes, a space, and two- and three-byte UTF-8 characters.
const TEXT: &str = r#"[a-c&<>"' é中]{0,12}"#;

fn element() -> BoxedStrategy<XmlElement> {
    let attrs = vec(("[a-z:]{1,6}", TEXT), 0..3);
    let leaf =
        ("[a-z:]{1,8}", attrs.clone(), TEXT).prop_map(|(name, attributes, text)| XmlElement {
            name,
            attributes,
            text,
            children: Vec::new(),
        });
    leaf.prop_recursive(4, 32, 4, move |inner| {
        ("[a-z:]{1,8}", attrs.clone(), TEXT, vec(inner, 0..4)).prop_map(
            |(name, attributes, text, children)| XmlElement {
                name,
                attributes,
                text,
                children,
            },
        )
    })
}

fn id() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..u64::MAX]
}

fn millis() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(10_000_000_000_000),
        0u64..10_000_000_000_001
    ]
}

proptest! {
    #[test]
    fn element_wire_size_is_its_printed_length(el in element()) {
        prop_assert_eq!(el.wire_size(), el.to_xml().len());
    }

    #[test]
    fn notification_wire_size_is_its_printed_envelope_length(
        topic in TEXT,
        sender in TEXT,
        id in id(),
        millis in millis(),
        body in element(),
    ) {
        let ev = EventNotification::new(topic, sender, body, SimTime::from_millis(millis))
            .with_id(id);
        prop_assert_eq!(ev.wire_size(), ev.to_envelope().to_xml().len());
    }
}
