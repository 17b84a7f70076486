//! AdHocCxtProvider: distributed provisioning in ad hoc networks.
//!
//! Uses the `BTReference` for one-hop provisioning or the `WiFiReference`
//! for multi-hop provisioning (§4.3). Each round, the query (with its
//! WHERE/FRESHNESS requirements) travels to candidate provider nodes;
//! matching items come back. EVENT queries accumulate rounds into an
//! [`EventWindow`] and fire on the rising edge of the condition.

use super::{event_gate, CxtProvider, ProviderFailure, ProviderSink};
use crate::predicate::EventWindow;
use crate::query::{CxtQuery, NumNodes, QueryMode, Source};
use crate::refs::{AdHocSpec, BtReference, RefError, StreamHandle, WifiReference};
use simkit::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Which radio flavour this provider rides on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdHocFlavor {
    /// One-hop over Bluetooth (SDP context services).
    Bt,
    /// Multi-hop over WiFi (SM-FINDER).
    Wifi,
}

/// Consecutive failed rounds before the provider declares its mechanism
/// broken.
const MAX_CONSECUTIVE_FAILURES: u32 = 2;

struct Inner {
    query: CxtQuery,
    window: EventWindow,
    running: bool,
    event_armed: bool,
    consecutive_failures: u32,
    round_in_flight: bool,
    /// BT push subscription, when the query is long-running over BT.
    sub: Option<StreamHandle>,
}

/// Provider for `adHocNetwork` provisioning.
pub(crate) struct AdHocCxtProvider {
    sim: Sim,
    flavor: AdHocFlavor,
    bt: Option<Rc<dyn BtReference>>,
    wifi: Option<Rc<dyn WifiReference>>,
    sink: ProviderSink,
    on_failure: ProviderFailure,
    inner: Rc<RefCell<Inner>>,
}

/// Derives the round spec from a query (the predicates travel with it so
/// they are evaluated at the provider's node).
pub(crate) fn spec_from_query(query: &CxtQuery, flavor: AdHocFlavor) -> AdHocSpec {
    let (num_nodes, num_hops) = match &query.from {
        Some(Source::AdHocNetwork {
            num_nodes,
            num_hops,
        }) => (*num_nodes, *num_hops),
        // Entity/region destinations and unconstrained queries default to
        // a wide one-round search.
        _ => (NumNodes::All, 3),
    };
    // BT reaches one hop only, whatever the query asked.
    let num_hops = match flavor {
        AdHocFlavor::Bt => 1,
        AdHocFlavor::Wifi => num_hops,
    };
    let entity = match &query.from {
        Some(Source::Entity(e)) => Some(crate::item::SourceId::new(e.clone())),
        _ => None,
    };
    let region = match &query.from {
        Some(Source::Region { x, y, radius }) => Some((*x, *y, *radius)),
        _ => None,
    };
    AdHocSpec {
        cxt_type: query.select.clone(),
        num_nodes,
        num_hops,
        freshness: query.freshness,
        where_clause: query.where_clause.clone(),
        key: None,
        entity,
        region,
    }
}

impl AdHocCxtProvider {
    /// Creates a provider riding the given flavour.
    pub(crate) fn new(
        sim: &Sim,
        flavor: AdHocFlavor,
        bt: Option<Rc<dyn BtReference>>,
        wifi: Option<Rc<dyn WifiReference>>,
        query: CxtQuery,
        sink: ProviderSink,
        on_failure: ProviderFailure,
    ) -> Self {
        AdHocCxtProvider {
            sim: sim.clone(),
            flavor,
            bt,
            wifi,
            sink,
            on_failure,
            inner: Rc::new(RefCell::new(Inner {
                query,
                window: EventWindow::new(),
                running: false,
                event_armed: true,
                consecutive_failures: 0,
                round_in_flight: false,
                sub: None,
            })),
        }
    }

    fn clone_handle(&self) -> AdHocCxtProvider {
        AdHocCxtProvider {
            sim: self.sim.clone(),
            flavor: self.flavor,
            bt: self.bt.clone(),
            wifi: self.wifi.clone(),
            sink: self.sink.clone(),
            on_failure: self.on_failure.clone(),
            inner: self.inner.clone(),
        }
    }

    fn round_period(&self) -> SimDuration {
        match &self.inner.borrow().query.mode {
            QueryMode::Periodic(p) => *p,
            // EVENT queries poll the neighbourhood at a default cadence.
            QueryMode::Event(_) => SimDuration::from_secs(15),
            QueryMode::OnDemand => SimDuration::from_secs(1),
        }
    }

    /// Launches one provisioning round.
    fn round(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.running || inner.round_in_flight {
                return;
            }
            inner.round_in_flight = true;
        }
        obskit::count("provider_adhoc_rounds", 1);
        let spec = spec_from_query(&self.inner.borrow().query, self.flavor);
        let me = self.clone_handle();
        let cb = Box::new(move |result: Result<Vec<crate::item::CxtItem>, RefError>| {
            me.inner.borrow_mut().round_in_flight = false;
            if !me.inner.borrow().running {
                return;
            }
            match result {
                Ok(items) => {
                    me.inner.borrow_mut().consecutive_failures = 0;
                    me.handle_items(items);
                }
                Err(e) => {
                    obskit::count("provider_adhoc_round_failures", 1);
                    let failures = {
                        let mut inner = me.inner.borrow_mut();
                        inner.consecutive_failures += 1;
                        inner.consecutive_failures
                    };
                    if failures >= MAX_CONSECUTIVE_FAILURES {
                        (me.on_failure)(e);
                    }
                }
            }
        });
        match self.flavor {
            AdHocFlavor::Bt => match &self.bt {
                Some(bt) if bt.is_available() => bt.adhoc_round(&spec, cb),
                _ => {
                    self.inner.borrow_mut().round_in_flight = false;
                    (self.on_failure)(RefError::Unavailable("BT radio off".into()));
                }
            },
            AdHocFlavor::Wifi => match &self.wifi {
                Some(wifi) if wifi.is_available() => wifi.adhoc_round(&spec, cb),
                _ => {
                    self.inner.borrow_mut().round_in_flight = false;
                    (self.on_failure)(RefError::Unavailable("WiFi not joined".into()));
                }
            },
        }
    }

    fn handle_items(&self, items: Vec<crate::item::CxtItem>) {
        let now = self.sim.now();
        let to_deliver = {
            let inner = &mut *self.inner.borrow_mut();
            event_gate(
                &inner.query,
                &mut inner.window,
                &mut inner.event_armed,
                items,
                now,
            )
        };
        if !to_deliver.is_empty() {
            obskit::count("provider_adhoc_deliveries", 1);
            obskit::count("provider_adhoc_items", to_deliver.len() as u64);
            (self.sink)(to_deliver);
        }
    }
}

impl CxtProvider for AdHocCxtProvider {
    fn start(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.running {
                return;
            }
            inner.running = true;
        }
        let long_running = self.inner.borrow().query.mode.is_long_running();
        // Long-running BT queries ride a push subscription: the query
        // travels to the providers once, items come back every period.
        if long_running && self.flavor == AdHocFlavor::Bt {
            self.start_bt_subscription();
            return;
        }
        if long_running {
            self.schedule_rounds(self.round_period());
        }
        // Every polled mode starts with an immediate round.
        self.round();
    }

    fn stop(&self) {
        let sub = {
            let mut inner = self.inner.borrow_mut();
            inner.running = false;
            inner.sub.take()
        };
        if let (Some(handle), Some(bt)) = (sub, self.bt.clone()) {
            bt.adhoc_unsubscribe(handle);
        }
    }

    fn update_query(&self, query: &CxtQuery) {
        let need_resub = {
            let inner = self.inner.borrow();
            inner.running
                && inner.sub.is_some()
                && (inner.query.mode != query.mode || inner.query.from != query.from)
        };
        if need_resub {
            self.stop();
            self.inner.borrow_mut().query = query.clone();
            self.start();
        } else {
            self.inner.borrow_mut().query = query.clone();
        }
    }
}

impl AdHocCxtProvider {
    /// (Re)arms the round timer; re-arms itself when the merged query's
    /// period changes (e.g. under `reduceLoad`).
    fn schedule_rounds(&self, period: SimDuration) {
        let me = self.clone_handle();
        self.sim.schedule_repeating(period, move || {
            if !me.inner.borrow().running {
                return false;
            }
            let want = me.round_period();
            if want != period {
                me.schedule_rounds(want);
                return false;
            }
            me.round();
            true
        });
    }

    fn start_bt_subscription(&self) {
        let Some(bt) = self.bt.clone() else {
            (self.on_failure)(RefError::Unavailable("no BT reference".into()));
            return;
        };
        if !bt.is_available() {
            (self.on_failure)(RefError::Unavailable("BT radio off".into()));
            return;
        }
        let spec = spec_from_query(&self.inner.borrow().query, self.flavor);
        let period = self.round_period();
        let me = self.clone_handle();
        let me_err = self.clone_handle();
        let handle = bt.adhoc_subscribe(
            &spec,
            period,
            Rc::new(move |items| me.handle_items(items)),
            Rc::new(move |err| {
                if me_err.inner.borrow().running {
                    (me_err.on_failure)(err);
                }
            }),
        );
        self.inner.borrow_mut().sub = Some(handle);
    }
}
