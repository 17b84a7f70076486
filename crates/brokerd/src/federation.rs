//! The federation plane: load gossip and peer views.
//!
//! Brokers periodically exchange [`LoadDigest`]s — tiny summaries of
//! subscription count and a fingerprint of the sender's subscription
//! table. Each broker keeps a [`PeerView`], the set of peers it forwards
//! published context to, and adopts every sender it hears into it; the
//! table fingerprints feed the anti-entropy directory
//! (`BrokerNode::hear_gossip`).

use crate::packet::BrokerId;
use simkit::SimTime;
use std::collections::BTreeSet;
use tracekit::TraceCtx;

/// A broker's gossiped load summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadDigest {
    /// Originating broker.
    pub broker: BrokerId,
    /// Live subscriptions at digest time.
    pub subscriptions: u64,
    /// When the digest was produced.
    pub at: SimTime,
    /// Gossip-plane trace context (minted per digest by the emitting
    /// broker; [`TraceCtx::NONE`] for hand-built digests).
    pub trace: TraceCtx,
    /// Anti-entropy fingerprint of the sender's subscription table at
    /// digest time (see `BrokerNode::table_digest`); `0` for
    /// hand-built digests.
    pub table_digest: u64,
}

/// One node's federation peers, in id order.
#[derive(Clone, Debug, Default)]
pub struct PeerView {
    peers: BTreeSet<BrokerId>,
}

impl PeerView {
    /// An empty view.
    pub fn new() -> Self {
        PeerView::default()
    }

    /// Introduces a peer before any digest from it is heard. The view
    /// keeps membership only: `latency_us` and `at` are not kept.
    pub fn introduce(&mut self, broker: BrokerId, _latency_us: u64, _at: SimTime) {
        self.peers.insert(broker);
    }

    /// Adopts the sender of a heard digest.
    pub fn absorb(&mut self, digest: &LoadDigest) {
        self.peers.insert(digest.broker);
    }

    /// All known peers in id order.
    pub fn brokers(&self) -> Vec<BrokerId> {
        self.peers.iter().copied().collect()
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no peer is known.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}
