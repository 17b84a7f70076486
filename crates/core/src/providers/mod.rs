//! CxtProviders: the components that accomplish context provisioning
//! (§4.3). One family per mechanism:
//!
//! - [`local::LocalCxtProvider`] — sensors on the device or attached over
//!   Bluetooth ("These providers periodically pull sensor devices and
//!   report values that match WHERE and FRESHNESS requirements").
//! - [`adhoc::AdHocCxtProvider`] — distributed provisioning in ad hoc
//!   networks, BT one-hop or WiFi multi-hop.
//! - [`infra::InfraCxtProvider`] — retrieval from remote context
//!   infrastructures.
//!
//! Each provider serves exactly one (possibly merged) query at a time and
//! supports the three interaction modes: on-demand, periodic (EVERY) and
//! event-based (EVENT).

pub(crate) mod adhoc;
pub(crate) mod infra;
pub(crate) mod local;

use crate::item::CxtItem;
use crate::merge::extracts;
use crate::predicate::EventWindow;
use crate::query::{CxtQuery, QueryMode};
use crate::refs::RefError;
use simkit::SimTime;
use std::rc::Rc;

/// Where collected items go (the owning Facade wraps this to perform
/// post-extraction per member query).
pub(crate) type ProviderSink = Rc<dyn Fn(Vec<CxtItem>)>;

/// How a provider reports that its mechanism stopped working (triggers
/// the factory's reconfiguration strategy).
pub(crate) type ProviderFailure = Rc<dyn Fn(RefError)>;

/// A running context provider.
pub(crate) trait CxtProvider {
    /// Begins provisioning.
    fn start(&self);

    /// Stops provisioning and releases resources. Idempotent.
    fn stop(&self);

    /// Updates the (merged) query this provider serves — called when the
    /// Facade merges a new member in or drops one.
    fn update_query(&self, query: &CxtQuery);
}

/// Shared helper: evaluates the merged query's WHERE and FRESHNESS
/// against a batch at delivery time, keeping the passing items in place.
pub(crate) fn provider_filter(
    query: &CxtQuery,
    mut items: Vec<CxtItem>,
    now: SimTime,
) -> Vec<CxtItem> {
    items.retain(|i| extracts(query, i, now));
    items
}

/// What a provider hands its sink for a collected batch: the batch after
/// [`provider_filter`]. For an EVENT query the batch also joins `window`
/// and is handed on only on the rising edge of the condition, once per
/// condition episode (`armed` is false while the condition holds).
pub(crate) fn event_gate(
    query: &CxtQuery,
    window: &mut EventWindow,
    armed: &mut bool,
    items: Vec<CxtItem>,
    now: SimTime,
) -> Vec<CxtItem> {
    let filtered = provider_filter(query, items, now);
    let QueryMode::Event(expr) = &query.mode else {
        return filtered;
    };
    for i in &filtered {
        window.push(i);
    }
    if let Some(f) = query.freshness {
        window.retain_fresh(now, f);
    }
    let holds = window.eval(expr);
    let fire = holds && *armed;
    *armed = !holds;
    if fire {
        filtered
    } else {
        Vec::new()
    }
}
