//! Compatibility path between the `brokerd` federation and the classic
//! Fuego XML wire format.
//!
//! Table 1's paper numbers are calibrated against Fuego's framing: every
//! context item or query crosses the cellular link inside an event
//! notification the paper measured at **1696 bytes**. This module renders
//! a brokerd [`ContextPacket`](../../brokerd/struct.ContextPacket.html)
//! into the same `fg:notification` envelope, padded to the fixed
//! [`ENVELOPE_BYTES`] frame, so a broker packet costs exactly the frame
//! the paper measured. The `extInfra` leg itself still runs over this
//! crate's own broker and record store ([`crate::ContextInfrastructure`]);
//! nothing on that path calls this module.
//!
//! The API is field-level rather than taking the brokerd type directly,
//! keeping this crate free of a brokerd dependency; the umbrella crate's
//! `tests/broker_envelope.rs` golden test drives it with a real
//! `brokerd::ContextPacket` and pins the 1696-byte frame.

use crate::event::EventNotification;
use crate::xml::XmlElement;
use simkit::SimTime;

/// The §6 envelope frame: "event notifications whose size is 1696
/// bytes". Compat envelopes are padded up to exactly this size; a body
/// too large for the frame is carried unpadded (and pays its real cost).
pub const ENVELOPE_BYTES: usize = 1696;

/// Field view of a brokerd context packet. Mirrors
/// `brokerd::ContextPacket` minus the interned symbol (wire formats
/// carry names, not table indices).
#[derive(Clone, Debug)]
pub struct PacketFields<'a> {
    /// Context type name (e.g. `"wind"`).
    pub type_name: &'a str,
    /// Value in integer milli-units.
    pub value_milli: i64,
    /// Publication instant.
    pub published_at: SimTime,
    /// Mandatory expiry instant.
    pub expires_at: SimTime,
    /// Mandatory source attribution.
    pub source: &'a str,
    /// Federation hop trail (broker ids, publish order).
    pub hops: &'a [u16],
    /// Optional trace context carried across the compat boundary.
    /// `None` (or an inactive context) renders the classic layout
    /// byte-for-byte; an active context adds a `trace` element that the
    /// padding region absorbs, so the frame stays [`ENVELOPE_BYTES`]
    /// either way.
    pub trace: Option<tracekit::TraceCtx>,
}

/// Renders the packet's application body: the `cxtItem` shape Contory's
/// own encoder uses (§4.1 fields), extended with the federation route
/// trail the brokerd hygiene contract adds.
fn packet_body(f: &PacketFields<'_>) -> XmlElement {
    let lifetime_ms = f.expires_at.since(f.published_at).as_micros() / 1_000;
    let mut route = XmlElement::new("route").attr("hops", f.hops.len().to_string());
    for b in f.hops {
        route = route.child(XmlElement::new("via").attr("id", b.to_string()));
    }
    let mut item = XmlElement::new("cxtItem")
        .attr("type", f.type_name)
        .attr("timestamp", (f.published_at.as_micros() / 1_000).to_string())
        .attr("lifetime", lifetime_ms.to_string())
        .attr("source", f.source)
        .child(
            XmlElement::new("value")
                .attr("unit", "milli")
                .text(f.value_milli.to_string()),
        )
        .child(
            XmlElement::new("metadata")
                .child(XmlElement::new("correctness").text("0.93"))
                .child(XmlElement::new("privacy").text("community"))
                .child(XmlElement::new("trust").text("trusted")),
        )
        .child(route);
    if let Some(trace) = f.trace.filter(|t| t.is_active()) {
        item = item.child(
            XmlElement::new("trace")
                .attr("id", format!("{:016x}", trace.trace_id))
                .attr("span", trace.parent_span.to_string())
                .attr("hop", trace.hop.to_string()),
        );
    }
    item
}

/// Wraps a broker packet in a Fuego event notification (topic
/// `cxt/<type>`, the packet's source as sender).
pub fn notification_for_packet(f: &PacketFields<'_>, id: u64) -> EventNotification {
    EventNotification::new(
        format!("cxt/{}", f.type_name),
        f.source,
        packet_body(f),
        f.published_at,
    )
    .with_id(id)
}

/// The full wire envelope, padded to the fixed [`ENVELOPE_BYTES`] frame.
///
/// Padding is an explicit `fg:padding` element (dots), with a root-text
/// fallback for gaps smaller than the element's own overhead, so the
/// result is byte-exact for every §6-shaped packet.
pub fn envelope_for_packet(f: &PacketFields<'_>, id: u64) -> XmlElement {
    let mut env = notification_for_packet(f, id).to_envelope();
    let size = env.wire_size();
    let gap = ENVELOPE_BYTES.saturating_sub(size);
    // <fg:padding>…</fg:padding> costs 25 bytes plus its text.
    const PAD_OVERHEAD: usize = 25;
    if gap >= PAD_OVERHEAD {
        env = env.child(XmlElement::new("fg:padding").text(".".repeat(gap - PAD_OVERHEAD)));
    } else if gap > 0 {
        env.text = " ".repeat(gap);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn canonical() -> (String, u64) {
        ("intSensor://nokia6630-352087/wind0".to_owned(), 42)
    }

    #[test]
    fn compat_envelope_is_exactly_the_paper_frame() {
        let (source, id) = canonical();
        let f = PacketFields {
            type_name: "wind",
            value_milli: 8_500,
            published_at: SimTime::from_secs(120),
            expires_at: SimTime::from_secs(120) + SimDuration::from_secs(60),
            source: &source,
            hops: &[1],
            trace: None,
        };
        let env = envelope_for_packet(&f, id);
        assert_eq!(env.wire_size(), ENVELOPE_BYTES);
    }

    #[test]
    fn frame_is_stable_across_field_widths() {
        // Short and long names, zero and multi hop: the padding absorbs
        // the variation, so every §6-shaped packet costs the same.
        for (ty, src, hops) in [
            ("t", "s", &[][..]),
            ("temperature", "extSensor://weatherstation-helsinki-kumpula/t9", &[0, 1, 2][..]),
        ] {
            let f = PacketFields {
                type_name: ty,
                value_milli: -1_234_567,
                published_at: SimTime::from_millis(1_123_851_807),
                expires_at: SimTime::from_millis(1_123_851_807) + SimDuration::from_secs(300),
                source: src,
                hops,
                trace: None,
            };
            assert_eq!(envelope_for_packet(&f, 7).wire_size(), ENVELOPE_BYTES, "{ty}");
        }
    }

    #[test]
    fn trace_context_rides_in_the_padding_region() {
        let (source, id) = canonical();
        let mut f = PacketFields {
            type_name: "wind",
            value_milli: 8_500,
            published_at: SimTime::from_secs(120),
            expires_at: SimTime::from_secs(120) + SimDuration::from_secs(60),
            source: &source,
            hops: &[1],
            trace: None,
        };
        let classic = envelope_for_packet(&f, id);
        assert_eq!(classic.wire_size(), ENVELOPE_BYTES);
        assert!(!classic.to_xml().contains("<trace"), "untraced layout grew a trace element");

        // An inactive context renders the classic layout byte-for-byte.
        f.trace = Some(tracekit::TraceCtx::NONE);
        assert_eq!(envelope_for_packet(&f, id).to_xml(), classic.to_xml());

        // An active one adds the element; the padding absorbs it.
        let ctx = tracekit::TraceCtx::root(0xabcd, 0).child(7);
        f.trace = Some(ctx);
        let traced = envelope_for_packet(&f, id);
        assert_eq!(traced.wire_size(), ENVELOPE_BYTES, "trace element broke the pinned frame");
        let parsed = XmlElement::parse(&traced.to_xml()).expect("traced envelope stays well-formed");
        let back = EventNotification::from_envelope(&parsed).expect("envelope shape intact");
        let trace = back.body.find("trace").expect("trace element");
        assert_eq!(trace.attribute("id"), Some(format!("{:016x}", ctx.trace_id).as_str()));
        assert_eq!(trace.attribute("span"), Some("7"));
        assert_eq!(trace.attribute("hop"), Some("0"));
    }

    #[test]
    fn envelope_still_parses_and_round_trips_routing() {
        let (source, id) = canonical();
        let f = PacketFields {
            type_name: "wind",
            value_milli: 8_500,
            published_at: SimTime::from_secs(120),
            expires_at: SimTime::from_secs(120) + SimDuration::from_secs(60),
            source: &source,
            hops: &[1, 3],
            trace: None,
        };
        let env = envelope_for_packet(&f, id);
        let parsed = XmlElement::parse(&env.to_xml()).expect("padded envelope stays well-formed");
        let back = EventNotification::from_envelope(&parsed).expect("envelope shape intact");
        assert_eq!(back.topic, "cxt/wind");
        assert_eq!(back.sender, source);
        assert_eq!(back.id, id);
        let body = back.body;
        assert_eq!(body.attribute("type"), Some("wind"));
        assert_eq!(body.attribute("source"), Some(source.as_str()));
        assert_eq!(body.attribute("lifetime"), Some("60000"));
        let route = body.find("route").expect("route trail");
        assert_eq!(route.attribute("hops"), Some("2"));
        assert_eq!(route.children.len(), 2);
    }
}
