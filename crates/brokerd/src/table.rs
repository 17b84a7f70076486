//! Subscription tables, keyed by interned context type.
//!
//! A broker holds one [`SubscriptionTable`]: subscriptions and the
//! retained packet of each type live under the type's [`Sym`] in a
//! `BTreeMap`, so an arriving packet only consults its own type's list.
//! Whole-table walks ([`SubscriptionTable::live_entries`],
//! [`SubscriptionTable::periodic_due`]) visit types in id order and then
//! sort by subscription id, so delivery order never depends on which
//! types happen to be registered.
//!
//! Three subscription modes mirror the CQL clauses: **one-shot**
//! (plain `SELECT`, answered once), **periodic** (`EVERY`/freshness,
//! re-delivered from retained context on a cadence) and **event**
//! (`EVENT`, pushed on every matching arrival). Every subscription
//! carries a `DURATION`-derived expiry, swept alongside retained
//! packets.

use crate::packet::ContextPacket;
use contory::vocab::Sym;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Handle to a registered subscription, unique per broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// Delivery semantics of a subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubMode {
    /// Answered from the next matching arrival (or retained context),
    /// then removed.
    OneShot,
    /// Re-delivered from retained context every `period`.
    Periodic(SimDuration),
    /// Pushed on every matching arrival.
    Event,
}

/// One registered subscription.
#[derive(Clone, Debug)]
pub struct Subscription {
    /// Broker-unique handle.
    pub id: SubId,
    /// Opaque subscriber identity (device actor, TCP session, …).
    pub subscriber: u64,
    /// Context type subscribed to.
    pub cxt_type: Sym,
    /// Delivery semantics.
    pub mode: SubMode,
    /// `DURATION`-derived expiry; the sweep removes the subscription
    /// after this instant.
    pub expires_at: SimTime,
    /// Next periodic delivery due (periodic mode only).
    pub next_due: SimTime,
}

/// What an expiry sweep removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Subscriptions past their duration.
    pub subscriptions: usize,
    /// Retained packets past their expiry.
    pub packets: usize,
}

/// A broker's subscription state, keyed by interned context type.
#[derive(Debug, Default)]
pub struct SubscriptionTable {
    subs: BTreeMap<Sym, Vec<Subscription>>,
    retained: BTreeMap<Sym, Arc<ContextPacket>>,
    next_id: u64,
    live: usize,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SubscriptionTable::default()
    }

    /// Registers a subscription and returns its handle.
    pub fn subscribe(
        &mut self,
        subscriber: u64,
        cxt_type: Sym,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> SubId {
        let id = SubId(self.next_id);
        self.next_id += 1;
        let next_due = match mode {
            SubMode::Periodic(period) => now + period,
            _ => now,
        };
        self.subs.entry(cxt_type).or_default().push(Subscription {
            id,
            subscriber,
            cxt_type,
            mode,
            expires_at,
            next_due,
        });
        self.live += 1;
        id
    }

    /// Lease renewal: if a subscription for the same `(subscriber,
    /// type, mode)` is live, extends its expiry (never shortens it) and
    /// returns `(existing id, true)`; otherwise registers a fresh
    /// subscription and returns `(new id, false)`. The idempotent form
    /// of [`SubscriptionTable::subscribe`] that periodic
    /// re-subscription needs — calling it on a cadence never stacks
    /// duplicate subscriptions.
    pub fn renew_or_subscribe(
        &mut self,
        subscriber: u64,
        cxt_type: Sym,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> (SubId, bool) {
        if let Some(subs) = self.subs.get_mut(&cxt_type) {
            for s in subs.iter_mut() {
                if s.subscriber == subscriber && s.mode == mode && now <= s.expires_at {
                    s.expires_at = s.expires_at.max(expires_at);
                    return (s.id, true);
                }
            }
        }
        (
            self.subscribe(subscriber, cxt_type, mode, expires_at, now),
            false,
        )
    }

    /// Every live subscription, cloned, in subscription-id order (the
    /// input to the anti-entropy table digest).
    pub fn live_entries(&self) -> Vec<Subscription> {
        let mut out = Vec::with_capacity(self.live);
        for subs in self.subs.values() {
            out.extend(subs.iter().cloned());
        }
        out.sort_by_key(|s| s.id);
        out
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubId) -> bool {
        for subs in self.subs.values_mut() {
            let before = subs.len();
            subs.retain(|s| s.id != id);
            if subs.len() < before {
                self.live -= 1;
                return true;
            }
        }
        false
    }

    /// Live subscriptions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Retains `packet` as the latest context of its type (replacing any
    /// older retained packet). The slot shares the packet with the
    /// deliveries of the arrival that brought it.
    pub fn retain(&mut self, packet: Arc<ContextPacket>) {
        self.retained.insert(packet.cxt_type, packet);
    }

    /// The retained packet of a type, if still valid at `now`.
    pub fn retained(&self, cxt_type: Sym, now: SimTime) -> Option<&Arc<ContextPacket>> {
        self.retained.get(&cxt_type).filter(|p| p.is_valid_at(now))
    }

    /// Matches an arrival against the type's subscriptions: event and
    /// one-shot subscribers still within their duration, in id order.
    /// Matched one-shots are removed (their single answer is spent).
    pub fn on_arrival(&mut self, cxt_type: Sym, now: SimTime) -> Vec<Subscription> {
        let Some(subs) = self.subs.get_mut(&cxt_type) else {
            return Vec::new();
        };
        let mut matched = Vec::new();
        subs.retain(|s| {
            if now > s.expires_at {
                return true; // expired: left for the sweep to count
            }
            match s.mode {
                SubMode::Event => {
                    matched.push(s.clone());
                    true
                }
                SubMode::OneShot => {
                    matched.push(s.clone());
                    false
                }
                SubMode::Periodic(_) => true,
            }
        });
        self.live -= matched
            .iter()
            .filter(|s| s.mode == SubMode::OneShot)
            .count();
        matched
    }

    /// Periodic subscriptions due at `now`: each is returned and its
    /// `next_due` advanced by its period. Results are in subscription-id
    /// order: the walk visits types in id order, which would otherwise
    /// leak type registration order into delivery order.
    pub fn periodic_due(&mut self, now: SimTime) -> Vec<Subscription> {
        let mut due = Vec::new();
        for subs in self.subs.values_mut() {
            for s in subs.iter_mut() {
                if let SubMode::Periodic(period) = s.mode {
                    if s.next_due <= now && now <= s.expires_at {
                        due.push(s.clone());
                        s.next_due += period;
                    }
                }
            }
        }
        due.sort_by_key(|s| s.id);
        due
    }

    /// Removes expired subscriptions and retained packets,
    /// deterministically (`BTreeMap` type order).
    pub fn sweep(&mut self, now: SimTime) -> SweepStats {
        let mut stats = SweepStats::default();
        for subs in self.subs.values_mut() {
            let before = subs.len();
            subs.retain(|s| now <= s.expires_at);
            stats.subscriptions += before - subs.len();
        }
        self.subs.retain(|_, v| !v.is_empty());
        let before = self.retained.len();
        self.retained.retain(|_, p| p.is_valid_at(now));
        stats.packets += before - self.retained.len();
        self.live -= stats.subscriptions;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOREVER: SimTime = SimTime::from_secs(1_000_000);

    fn pkt(sym: Sym, at: u64, life: u64) -> Arc<ContextPacket> {
        let mut p = ContextPacket::new(
            "t",
            1,
            SimTime::from_secs(at),
            SimDuration::from_secs(life),
            "src",
        );
        p.cxt_type = sym;
        Arc::new(p)
    }

    #[test]
    fn event_subs_match_every_arrival_one_shots_once() {
        let mut tab = SubscriptionTable::new();
        let t = Sym(3);
        tab.subscribe(1, t, SubMode::Event, FOREVER, SimTime::ZERO);
        tab.subscribe(2, t, SubMode::OneShot, FOREVER, SimTime::ZERO);
        let first = tab.on_arrival(t, SimTime::from_secs(1));
        assert_eq!(first.len(), 2);
        let second = tab.on_arrival(t, SimTime::from_secs(2));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].subscriber, 1);
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn periodic_subs_fire_on_cadence_not_arrival() {
        let mut tab = SubscriptionTable::new();
        let t = Sym(0);
        tab.subscribe(
            7,
            t,
            SubMode::Periodic(SimDuration::from_secs(10)),
            FOREVER,
            SimTime::ZERO,
        );
        assert!(tab.on_arrival(t, SimTime::from_secs(1)).is_empty());
        assert!(tab.periodic_due(SimTime::from_secs(9)).is_empty());
        let due = tab.periodic_due(SimTime::from_secs(10));
        assert_eq!(due.len(), 1);
        // Advanced: not due again until t=20.
        assert!(tab.periodic_due(SimTime::from_secs(15)).is_empty());
        assert_eq!(tab.periodic_due(SimTime::from_secs(20)).len(), 1);
    }

    #[test]
    fn sweep_removes_expired_subs_and_packets() {
        let mut tab = SubscriptionTable::new();
        tab.subscribe(
            1,
            Sym(0),
            SubMode::Event,
            SimTime::from_secs(5),
            SimTime::ZERO,
        );
        tab.subscribe(2, Sym(1), SubMode::Event, FOREVER, SimTime::ZERO);
        tab.retain(pkt(Sym(0), 0, 3));
        tab.retain(pkt(Sym(1), 0, 100));
        let stats = tab.sweep(SimTime::from_secs(10));
        assert_eq!(
            stats,
            SweepStats {
                subscriptions: 1,
                packets: 1
            }
        );
        assert_eq!(tab.len(), 1);
        assert!(tab.retained(Sym(1), SimTime::from_secs(10)).is_some());
        assert!(tab.retained(Sym(0), SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn retained_respects_expiry_even_before_sweep() {
        let mut tab = SubscriptionTable::new();
        tab.retain(pkt(Sym(5), 0, 10));
        assert!(tab.retained(Sym(5), SimTime::from_secs(10)).is_some());
        assert!(tab.retained(Sym(5), SimTime::from_secs(11)).is_none());
    }

    #[test]
    fn renewal_extends_instead_of_stacking() {
        let mut tab = SubscriptionTable::new();
        let t = Sym(2);
        let mode = SubMode::Periodic(SimDuration::from_secs(5));
        let (id, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(30), SimTime::ZERO);
        assert!(!renewed);
        let (again, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(60), SimTime::from_secs(10));
        assert!(renewed);
        assert_eq!(id, again);
        assert_eq!(tab.len(), 1);
        // Renewal never shortens a lease.
        tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(40), SimTime::from_secs(11));
        assert_eq!(tab.live_entries()[0].expires_at, SimTime::from_secs(60));
        // A different mode or subscriber is a distinct lease.
        let (other, renewed) =
            tab.renew_or_subscribe(9, t, SubMode::Event, SimTime::from_secs(60), SimTime::ZERO);
        assert!(!renewed);
        assert_ne!(id, other);
        assert_eq!(tab.len(), 2);
        // After expiry the lease is gone: renewal re-registers.
        tab.sweep(SimTime::from_secs(100));
        let (fresh, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(200), SimTime::from_secs(100));
        assert!(!renewed);
        assert_ne!(fresh, id);
    }

    #[test]
    fn live_entries_are_id_ordered_across_types() {
        let mut tab = SubscriptionTable::new();
        // Types interleave by id, so type-order iteration alone would
        // return 0, 5, 10, 15, 1, 6, …
        for sub in 0..17u64 {
            tab.subscribe(
                sub,
                Sym((sub % 5) as u16),
                SubMode::Event,
                FOREVER,
                SimTime::ZERO,
            );
        }
        let ids: Vec<u64> = tab.live_entries().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn periodic_due_is_id_ordered_across_types() {
        let mut tab = SubscriptionTable::new();
        let period = SubMode::Periodic(SimDuration::from_secs(5));
        // Registered on descending types, so type-order iteration alone
        // would return 3, 7, 11, 2, 6, …
        for sub in 0..12u64 {
            tab.subscribe(
                sub,
                Sym((11 - sub) as u16 % 4),
                period,
                FOREVER,
                SimTime::ZERO,
            );
        }
        let due = tab.periodic_due(SimTime::from_secs(5));
        let ids: Vec<u64> = due.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn unsubscribe_is_idempotent() {
        let mut tab = SubscriptionTable::new();
        let id = tab.subscribe(1, Sym(0), SubMode::Event, FOREVER, SimTime::ZERO);
        assert!(tab.unsubscribe(id));
        assert!(!tab.unsubscribe(id));
        assert!(tab.is_empty());
    }
}
