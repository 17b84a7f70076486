//! The context packet: the broker-side representation of a published
//! context item, with the hygiene contract made unskippable.
//!
//! Two fields the middleware's `CxtItem` treats as optional metadata are
//! *mandatory* here, by construction: every packet carries an **expiry
//! instant** (brokers never retain or deliver stale context) and a
//! **source attribution** (admission refuses a packet without one). A
//! third field — the **hop list** — records which brokers federated the
//! packet, bounding forwarding loops and making the provenance of every
//! delivery auditable.
//!
//! Values travel as fixed-point milli-units (`i64`), never floats: the
//! broker fan-out path is shared with the sharded simulation engine,
//! whose byte-identity contract floats would undermine.

use contory::vocab::Sym;
use simkit::{SimDuration, SimTime};
use std::fmt;
use tracekit::TraceCtx;

/// Stable identity of a broker in the federation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BrokerId(pub u16);

impl fmt::Display for BrokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "broker{}", self.0)
    }
}

/// Maximum federation hops a packet may take before brokers drop it.
pub const MAX_HOPS: usize = 3;

/// End-to-end packet identity for idempotent at-least-once delivery:
/// the publisher's stable id plus a per-publisher monotone sequence
/// number. Retried and chaos-duplicated copies of a packet carry the
/// same `PacketSeq`, which is what dedup windows key on.
///
/// [`PacketSeq::NONE`] marks legacy/unsequenced traffic — such packets
/// bypass dedup entirely (the pre-chaos wire layout is still valid).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketSeq {
    /// Stable publisher identity (fleet actor id, session id, …).
    pub origin: u64,
    /// 1-based sequence number within `origin`'s stream; 0 = unset.
    pub n: u64,
}

impl PacketSeq {
    /// The "unsequenced" sentinel carried by legacy traffic.
    pub const NONE: PacketSeq = PacketSeq { origin: 0, n: 0 };

    /// Builds a sequence tag; `n` must be 1-based.
    pub fn new(origin: u64, n: u64) -> Self {
        PacketSeq { origin, n }
    }

    /// True when the packet carries a real sequence tag.
    pub fn is_some(self) -> bool {
        self.n != 0
    }
}

impl fmt::Display for PacketSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.origin, self.n)
    }
}

/// A published context record as brokers store and forward it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContextPacket {
    /// Interned context type, assigned by the admitting broker
    /// ([`Sym::default`] until admission).
    pub cxt_type: Sym,
    /// Context type name as published on the wire.
    pub type_name: String,
    /// Fixed-point value in milli-units (e.g. m°C, mm/s).
    pub value_milli: i64,
    /// When the source observed the value.
    pub published_at: SimTime,
    /// Instant after which the packet must never be delivered or
    /// retained. Mandatory: there is no way to build an eternal packet.
    pub expires_at: SimTime,
    /// Attributed source. Mandatory and non-empty; unattributed publishes
    /// are refused at admission.
    pub source: String,
    /// Brokers this packet already visited, in federation order.
    pub hops: Vec<BrokerId>,
    /// Causal trace context ([`TraceCtx::NONE`] until a publisher mints
    /// a root). Sampling is decided at the root from the deterministic
    /// id material, never re-rolled per hop.
    pub trace: TraceCtx,
    /// Idempotency tag ([`PacketSeq::NONE`] for legacy traffic).
    /// Preserved verbatim across federation hops and retries.
    pub seq: PacketSeq,
}

impl ContextPacket {
    /// Builds a packet. The expiry is `published_at + lifetime` — there
    /// is deliberately no constructor taking an unbounded lifetime.
    pub fn new(
        type_name: impl Into<String>,
        value_milli: i64,
        published_at: SimTime,
        lifetime: SimDuration,
        source: impl Into<String>,
    ) -> Self {
        ContextPacket {
            cxt_type: Sym::default(),
            type_name: type_name.into(),
            value_milli,
            published_at,
            expires_at: published_at + lifetime,
            source: source.into(),
            hops: Vec::new(),
            trace: TraceCtx::NONE,
            seq: PacketSeq::NONE,
        }
    }

    /// Attaches a trace context (builder style).
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches an idempotency tag (builder style).
    pub fn with_seq(mut self, seq: PacketSeq) -> Self {
        self.seq = seq;
        self
    }

    /// True while the packet may still be delivered.
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now <= self.expires_at
    }

    /// True if the packet carries a non-empty source attribution.
    pub fn is_attributed(&self) -> bool {
        !self.source.is_empty()
    }

    /// True if this broker already federated the packet (loop guard).
    pub fn visited(&self, broker: BrokerId) -> bool {
        self.hops.contains(&broker)
    }

    /// Records a federation hop through `broker`.
    pub fn with_hop(mut self, broker: BrokerId) -> Self {
        self.hops.push(broker);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_is_mandatory_by_construction() {
        let p = ContextPacket::new(
            "wind",
            5_000,
            SimTime::from_secs(10),
            SimDuration::from_secs(30),
            "buoy-1",
        );
        assert_eq!(p.expires_at, SimTime::from_secs(40));
        assert!(p.is_valid_at(SimTime::from_secs(40)));
        assert!(!p.is_valid_at(SimTime::from_secs(41)));
    }

    #[test]
    fn hop_list_guards_federation_loops() {
        let p = ContextPacket::new("t", 0, SimTime::ZERO, SimDuration::from_secs(1), "s")
            .with_hop(BrokerId(2))
            .with_hop(BrokerId(5));
        assert!(p.visited(BrokerId(2)));
        assert!(!p.visited(BrokerId(3)));
        assert_eq!(p.hops.len(), 2);
    }
}
