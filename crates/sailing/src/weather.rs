//! WeatherWatcher (paper §6.2).
//!
//! "It allows users to retrieve weather information in a certain
//! geographical region. … as this type of information can change very
//! quickly, the information owned by boats currently sailing in such a
//! region is often more reliable than the one provided by official
//! weather stations. Once the user has issued a weather request, if the
//! target region is not dense enough or too far away to support
//! multi-hop ad hoc network provisioning, the query is sent to the
//! remote infrastructure."

use contory::query::QueryBuilder;
use contory::{Client, ContextFactory, ContoryError, CxtItem, QueryId};
use radio::Region;
use simkit::{Sim, SimDuration};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Where a weather report ultimately came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeatherSource {
    /// Boats currently sailing in the region (ad hoc provisioning).
    AdHoc,
    /// The remote context infrastructure.
    Infrastructure,
}

/// A completed weather request.
#[derive(Clone, Debug)]
pub struct WeatherReport {
    /// The region asked about.
    pub region: Region,
    /// Observations gathered (one or more per requested field).
    pub observations: Vec<CxtItem>,
    /// Which provisioning path produced them.
    pub source: WeatherSource,
}

impl WeatherReport {
    /// The freshest observation of a given type, if any.
    pub fn latest(&self, cxt_type: &str) -> Option<&CxtItem> {
        self.observations
            .iter()
            .filter(|i| i.cxt_type == cxt_type)
            .max_by_key(|i| i.timestamp)
    }
}

/// Collects items for the in-flight weather request, noting whether any
/// of them were served by a non-ad-hoc mechanism (failover may silently
/// reroute a region query to the infrastructure).
struct RequestClient {
    items: Rc<RefCell<Vec<CxtItem>>>,
    factory: Option<ContextFactory>,
    any_non_adhoc: Rc<std::cell::Cell<bool>>,
}

impl Client for RequestClient {
    fn receive_cxt_item(&self, query: QueryId, item: CxtItem) {
        if let Some(f) = &self.factory {
            match f.mechanism_of(query) {
                Some(contory::Mechanism::AdHocBt) | Some(contory::Mechanism::AdHocWifi) => {}
                _ => self.any_non_adhoc.set(true),
            }
        }
        self.items.borrow_mut().push(item);
    }
    fn inform_error(&self, _message: &str) {}
}

/// The weather service running on one phone.
pub struct WeatherWatcher {
    sim: Sim,
    factory: ContextFactory,
    /// How long to wait for ad hoc answers before falling back to the
    /// infrastructure.
    adhoc_patience: SimDuration,
    /// Maximum hop distance attempted over the ad hoc network.
    max_hops: u32,
}

impl WeatherWatcher {
    /// Creates a watcher over the phone's middleware.
    pub fn new(sim: &Sim, factory: &ContextFactory) -> Self {
        WeatherWatcher {
            sim: sim.clone(),
            factory: factory.clone(),
            adhoc_patience: SimDuration::from_secs(20),
            max_hops: 3,
        }
    }

    /// Adjusts the ad hoc patience window, builder style.
    pub fn with_patience(mut self, patience: SimDuration) -> Self {
        self.adhoc_patience = patience;
        self
    }

    /// Requests weather (the given fields) for a region. The callback
    /// receives the report: ad hoc observations when boats in the region
    /// answered within the patience window, otherwise whatever the
    /// infrastructure has.
    ///
    /// # Errors
    ///
    /// The callback receives an error only if *both* paths are
    /// unavailable on this device.
    pub fn request(
        &self,
        region: Region,
        fields: &[&str],
        cb: impl FnOnce(Result<WeatherReport, ContoryError>) + 'static,
    ) {
        let items: Rc<RefCell<Vec<CxtItem>>> = Rc::new(RefCell::new(Vec::new()));
        let any_non_adhoc = Rc::new(std::cell::Cell::new(false));
        let client = Rc::new(RequestClient {
            items: items.clone(),
            factory: Some(self.factory.clone()),
            any_non_adhoc: any_non_adhoc.clone(),
        });
        // Phase 1: ad hoc sweep of the region.
        let mut adhoc_ids: Vec<QueryId> = Vec::new();
        let mut adhoc_possible = false;
        for field in fields {
            let q = QueryBuilder::select(*field)
                .from_region(region.center.x, region.center.y, region.radius)
                .freshness(SimDuration::from_mins(10))
                .duration_samples(8)
                .build();
            // Entity/region queries prefer ad hoc WiFi; hop bound applies.
            let mut q = q;
            q.from = Some(contory::query::Source::Region {
                x: region.center.x,
                y: region.center.y,
                radius: region.radius,
            });
            if let Ok(id) = self.factory.process_cxt_query(q, client.clone()) {
                adhoc_possible = true;
                adhoc_ids.push(id);
            }
        }
        let _ = self.max_hops;
        let factory = self.factory.clone();
        let fields: Vec<String> = fields.iter().map(|s| s.to_string()).collect();
        let sim = self.sim.clone();
        let patience = if adhoc_possible {
            self.adhoc_patience
        } else {
            SimDuration::ZERO
        };
        self.sim.schedule_in(patience, move || {
            let gathered = items.borrow().clone();
            if !gathered.is_empty() {
                for id in adhoc_ids {
                    let _ = factory.cancel_cxt_query(id);
                }
                cb(Ok(WeatherReport {
                    region,
                    observations: gathered,
                    source: if any_non_adhoc.get() {
                        WeatherSource::Infrastructure
                    } else {
                        WeatherSource::AdHoc
                    },
                }));
                return;
            }
            // Phase 2: the infrastructure. ("…the query is sent to the
            // remote infrastructure. The infrastructure checks if any
            // WeatherWatcher of users currently sailing in that region
            // has recently provided weather information.")
            for id in adhoc_ids {
                let _ = factory.cancel_cxt_query(id);
            }
            let infra_items: Rc<RefCell<Vec<CxtItem>>> = Rc::new(RefCell::new(Vec::new()));
            let infra_client = Rc::new(RequestClient {
                items: infra_items.clone(),
                factory: None,
                any_non_adhoc: Rc::new(std::cell::Cell::new(true)),
            });
            let mut any = false;
            for field in &fields {
                let mut q = QueryBuilder::select(field.clone())
                    .freshness(SimDuration::from_mins(30))
                    .duration_samples(8)
                    .build();
                q.from = Some(contory::query::Source::Region {
                    x: region.center.x,
                    y: region.center.y,
                    radius: region.radius,
                });
                // Force the infrastructure path.
                q.from = Some(contory::query::Source::ExtInfra);
                if factory.process_cxt_query(q, infra_client.clone()).is_ok() {
                    any = true;
                }
            }
            if !any {
                cb(Err(ContoryError::NoMechanism {
                    cxt_type: fields.join(","),
                    reason: "neither ad hoc nor infrastructure available".into(),
                }));
                return;
            }
            sim.schedule_in(SimDuration::from_secs(20), move || {
                cb(Ok(WeatherReport {
                    region,
                    observations: infra_items.borrow().clone(),
                    source: WeatherSource::Infrastructure,
                }));
            });
        });
    }

    /// Starts sharing this boat's own observations: every `every`, the
    /// given fields are sampled from local sensors, published in the ad
    /// hoc network and stored in the remote repository — this is what
    /// makes other boats' WeatherWatchers (and the infrastructure path)
    /// work.
    pub fn start_sharing(&self, fields: &[&str], every: SimDuration) {
        self.factory.register_cxt_server("weather-watcher");
        let factory = self.factory.clone();
        let items: Rc<RefCell<Vec<CxtItem>>> = Rc::new(RefCell::new(Vec::new()));
        let client = Rc::new(RequestClient {
            items: items.clone(),
            factory: None,
            any_non_adhoc: Rc::new(std::cell::Cell::new(false)),
        });
        for field in fields {
            let q = QueryBuilder::select(*field)
                .from_int_sensor()
                .duration(SimDuration::from_hours(24))
                .every(every)
                .build();
            let _ = factory.process_cxt_query(q, client.clone());
        }
        // Republish whatever arrived since the last tick.
        self.sim.schedule_repeating(every, move || {
            let batch: Vec<CxtItem> = items.borrow_mut().drain(..).collect();
            for item in batch {
                let _ = factory.publish_cxt_item(item.clone(), None);
                factory.store_cxt_item(item);
            }
            true
        });
    }
}

impl fmt::Debug for WeatherWatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeatherWatcher")
            .field("patience", &self.adhoc_patience)
            .finish()
    }
}
