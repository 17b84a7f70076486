//! Reference traits: Contory's portability boundary.
//!
//! A *Reference* "mediates the access to a certain communication module
//! by offering useful programming abstractions" (§4.3). The middleware
//! core is written entirely against these traits; `contory-testbed`
//! implements them over the simulated radios, the Smart Messages
//! platform and the Fuego event middleware — a real port would implement
//! them over JSR-82, an 802.11 stack and an operator bearer instead.
//!
//! All operations are asynchronous: results arrive through callbacks
//! scheduled on the simulator, mirroring the event-driven J2ME original.

use crate::item::{CxtItem, SourceId};
use crate::query::{NumNodes, WherePredicate};
use simkit::SimDuration;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Which communication module a reference drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RefKind {
    /// Sensors integrated in the device.
    Internal,
    /// Bluetooth (sensor links and one-hop ad hoc).
    Bt,
    /// WiFi ad hoc (multi-hop via Smart Messages).
    Wifi,
    /// 2G/3G cellular (event-based infrastructure access).
    Cell,
}

impl fmt::Display for RefKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RefKind::Internal => "InternalReference",
            RefKind::Bt => "BTReference",
            RefKind::Wifi => "WiFiReference",
            RefKind::Cell => "2G/3GReference",
        })
    }
}

/// Errors reported by references.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefError {
    /// The module is off, failed, or the phone is down.
    Unavailable(String),
    /// No source serving the requested context type was found.
    NotFound(String),
    /// The operation did not complete in time.
    Timeout,
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::Unavailable(why) => write!(f, "unavailable: {why}"),
            RefError::NotFound(what) => write!(f, "not found: {what}"),
            RefError::Timeout => write!(f, "timed out"),
        }
    }
}

impl Error for RefError {}

/// Result of a provisioning round.
pub type ItemsResult = Result<Vec<CxtItem>, RefError>;

/// One-shot completion callback.
pub type Done<T> = Box<dyn FnOnce(T)>;

/// Repeated-delivery handler.
pub type OnItems = Rc<dyn Fn(Vec<CxtItem>)>;

/// Stream-error handler (e.g. a BT-GPS disconnection).
pub type OnRefError = Rc<dyn Fn(RefError)>;

/// What an ad hoc provisioning round should collect — derived from the
/// query's SELECT / FROM / WHERE / FRESHNESS clauses. Predicates travel
/// with the query so they are evaluated *at the provider's node* (§4.2).
#[derive(Clone, Debug)]
pub struct AdHocSpec {
    /// Context type searched for.
    pub cxt_type: String,
    /// How many provider nodes to involve.
    pub num_nodes: NumNodes,
    /// Maximum provider distance in hops.
    pub num_hops: u32,
    /// Maximum item age.
    pub freshness: Option<SimDuration>,
    /// Metadata predicates evaluated at the provider.
    pub where_clause: Vec<WherePredicate>,
    /// Key for authenticated items.
    pub key: Option<String>,
    /// Restrict to one entity (queries sent "to the identifier of an
    /// entity").
    pub entity: Option<SourceId>,
    /// Restrict to providers inside a region `(x, y, radius)`.
    pub region: Option<(f64, f64, f64)>,
}

impl AdHocSpec {
    /// A spec collecting `cxt_type` from the first node within one hop.
    pub fn one_hop(cxt_type: impl Into<String>) -> Self {
        AdHocSpec {
            cxt_type: cxt_type.into(),
            num_nodes: NumNodes::First(1),
            num_hops: 1,
            freshness: None,
            where_clause: Vec::new(),
            key: None,
            entity: None,
            region: None,
        }
    }

    /// Evaluates the spec's type, WHERE and FRESHNESS requirements
    /// against a candidate item — this is what runs *at the provider's
    /// node* (carried there by the SM-FINDER or the BT query message).
    pub fn matches(&self, item: &CxtItem, now: simkit::SimTime) -> bool {
        if item.cxt_type != self.cxt_type || !item.is_valid_at(now) {
            return false;
        }
        if let Some(f) = self.freshness {
            if !item.is_fresh_at(now, f) {
                return false;
            }
        }
        crate::predicate::matches_where(item, &self.where_clause)
    }
}

/// What to fetch from the external context infrastructure.
#[derive(Clone, Debug, Default)]
pub struct InfraSpec {
    /// Context type requested.
    pub cxt_type: String,
    /// Restrict to records about one entity.
    pub entity: Option<String>,
    /// Restrict to records observed in a region `(x, y, radius)`.
    pub region: Option<(f64, f64, f64)>,
    /// Maximum record age.
    pub freshness: Option<SimDuration>,
    /// Cap on returned items (0 = unlimited).
    pub max_items: usize,
}

/// Push cadence of an infrastructure subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfraPushMode {
    /// Evaluate and push every interval (EVERY queries).
    Periodic(SimDuration),
    /// Push matching records as they arrive (EVENT queries; the EVENT
    /// predicate itself is refined on the phone).
    OnArrival,
}

/// Handle to an open sensor stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamHandle(pub u64);

/// Handle to an infrastructure subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InfraSubHandle(pub u64);

/// Access to sensors integrated in the device.
pub trait InternalReference {
    /// Whether the device integrates a sensor for this context type.
    fn provides(&self, cxt_type: &str) -> bool;

    /// Samples the integrated sensor once.
    fn sample(&self, cxt_type: &str, cb: Done<Result<CxtItem, RefError>>);
}

/// Bluetooth: external sensors (e.g. a BT-GPS) and one-hop ad hoc
/// provisioning via SDP service records.
pub trait BtReference {
    /// True if the radio is usable right now.
    fn is_available(&self) -> bool;

    /// Discovers a BT sensor serving `cxt_type` (device inquiry + SDP;
    /// expect ~14 s).
    fn discover_sensor(&self, cxt_type: &str, cb: Done<Result<SourceId, RefError>>);

    /// Connects to a discovered sensor and streams its readings;
    /// `on_error` fires on disconnection (the Fig. 5 trigger).
    fn open_sensor_stream(
        &self,
        source: &SourceId,
        cxt_type: &str,
        on_items: OnItems,
        on_error: OnRefError,
        cb: Done<Result<StreamHandle, RefError>>,
    );

    /// Closes a sensor stream.
    fn close_sensor_stream(&self, handle: StreamHandle);

    /// One round of one-hop ad hoc provisioning (discovery included when
    /// no provider is cached).
    fn adhoc_round(&self, spec: &AdHocSpec, cb: Done<ItemsResult>);

    /// Long-running one-hop provisioning: the query travels to the
    /// provider(s) once; matching items are then *pushed* back every
    /// `period` without re-sending the query — the paper's cheap periodic
    /// case ("being periodically notified with context data is fast and
    /// the energy cost is definitely low"). `on_error` fires if the
    /// provisioning breaks (e.g. all provider links drop).
    fn adhoc_subscribe(
        &self,
        spec: &AdHocSpec,
        period: SimDuration,
        on_items: OnItems,
        on_error: OnRefError,
    ) -> StreamHandle;

    /// Cancels an ad hoc subscription.
    fn adhoc_unsubscribe(&self, handle: StreamHandle);

    /// Publishes an item as an SDP context service (≈ 140 ms).
    fn publish(&self, item: &CxtItem, key: Option<String>, cb: Done<Result<(), RefError>>);

    /// Withdraws a published context service.
    fn unpublish(&self, cxt_type: &str);
}

/// WiFi ad hoc: multi-hop provisioning through Smart Messages.
pub trait WifiReference {
    /// True if the radio is joined to the ad hoc network.
    fn is_available(&self) -> bool;

    /// One SM-FINDER round.
    fn adhoc_round(&self, spec: &AdHocSpec, cb: Done<ItemsResult>);

    /// Publishes an item as a tag in the local tag space (≈ 0.13 ms).
    fn publish(&self, item: &CxtItem, key: Option<String>, cb: Done<Result<(), RefError>>);

    /// Removes a published tag.
    fn unpublish(&self, cxt_type: &str);
}

/// 2G/3G: event-based access to the external context infrastructure.
pub trait CellReference {
    /// True if the cellular radio is on.
    fn is_available(&self) -> bool;

    /// Stores an item in the remote repository.
    fn store(&self, item: &CxtItem, cb: Done<Result<(), RefError>>);

    /// On-demand fetch from the infrastructure.
    fn fetch(&self, spec: &InfraSpec, cb: Done<ItemsResult>);

    /// Long-running subscription; batches arrive via `on_items`.
    fn subscribe(&self, spec: &InfraSpec, mode: InfraPushMode, on_items: OnItems)
        -> InfraSubHandle;

    /// Cancels a subscription.
    fn unsubscribe(&self, handle: InfraSubHandle);
}

/// The set of references available on a device. Absent references mean
/// the hardware lacks that module (the Nokia 6630 has no WiFi; the 9500
/// has no UMTS).
#[derive(Clone, Default)]
pub struct References {
    /// Integrated sensors.
    pub internal: Option<Rc<dyn InternalReference>>,
    /// Bluetooth.
    pub bt: Option<Rc<dyn BtReference>>,
    /// WiFi ad hoc.
    pub wifi: Option<Rc<dyn WifiReference>>,
    /// Cellular.
    pub cell: Option<Rc<dyn CellReference>>,
}

impl References {
    /// No references at all (useful as a starting point in tests).
    pub fn none() -> Self {
        References::default()
    }
}

impl fmt::Debug for References {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("References")
            .field("internal", &self.internal.is_some())
            .field("bt", &self.bt.is_some())
            .field("wifi", &self.wifi.is_some())
            .field("cell", &self.cell.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_kind_displays_paper_names() {
        assert_eq!(RefKind::Bt.to_string(), "BTReference");
        assert_eq!(RefKind::Cell.to_string(), "2G/3GReference");
    }

    #[test]
    fn ref_error_displays() {
        assert!(RefError::NotFound("gps".into()).to_string().contains("gps"));
        assert_eq!(RefError::Timeout.to_string(), "timed out");
    }

    #[test]
    fn adhoc_spec_one_hop_defaults() {
        let s = AdHocSpec::one_hop("temperature");
        assert_eq!(s.num_hops, 1);
        assert_eq!(s.num_nodes, NumNodes::First(1));
        assert!(s.where_clause.is_empty());
    }

    #[test]
    fn references_debug_shows_presence() {
        let refs = References::none();
        let s = format!("{refs:?}");
        assert!(s.contains("internal: false"));
    }
}
