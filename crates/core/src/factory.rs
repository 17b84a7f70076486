//! The ContextFactory (§4.3): the core of the architecture.
//!
//! One ContextFactory is instantiated per device and shared by all
//! applications. It exposes the paper's `ContextFactory` interface
//! (submit/cancel queries, publish/store items, register publishers),
//! assigns queries to per-mechanism [`Facade`]s based on the FROM clause,
//! sensor availability and the active control policies, and enforces the
//! reconfiguration strategy when the [`ResourcesMonitor`] or a provider
//! reports a failure — e.g. moving location provisioning from a
//! `LocalLocationProvider` to an `AdHocLocationProvider` when the BT-GPS
//! disconnects (the paper's Fig. 5), and back once the sensor recovers.

use crate::access::{AccessController, SecurityMode};
use crate::backoff::BackoffState;
use crate::client::Client;
use crate::error::ContoryError;
use crate::facade::Facade;
use crate::failover::{FailoverConfig, FailoverReport, FailoverTracker};
use crate::item::CxtItem;
use crate::manager::{QueryManager, QueryRecord};
use crate::monitor::{ResourceEvent, ResourcesMonitor};
use crate::policy::{ContextRule, RuleAction, RuleValue};
use crate::providers::adhoc::{AdHocCxtProvider, AdHocFlavor};
use crate::providers::infra::InfraCxtProvider;
use crate::providers::local::LocalCxtProvider;
use crate::publisher::CxtPublisher;
use crate::query::{CxtQuery, DurationClause, QueryMode, Source};
use crate::refs::{RefError, RefKind, References};
use crate::repository::CxtRepository;
use simkit::{DetRng, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Identifier of a submitted context query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A concrete provisioning mechanism a query can ride.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mechanism {
    /// Internal/attached sensor provisioning.
    IntSensor,
    /// Ad hoc provisioning over Bluetooth (one hop).
    AdHocBt,
    /// Ad hoc provisioning over WiFi (multi-hop Smart Messages).
    AdHocWifi,
    /// External infrastructure over 2G/3G.
    Infra,
}

impl Mechanism {
    /// The communication module this mechanism depends on.
    pub fn kind(self) -> RefKind {
        match self {
            Mechanism::IntSensor => RefKind::Bt, // BT-attached sensors dominate
            Mechanism::AdHocBt => RefKind::Bt,
            Mechanism::AdHocWifi => RefKind::Wifi,
            Mechanism::Infra => RefKind::Cell,
        }
    }

    /// Stable snake_case key for metric names.
    pub fn metric_key(self) -> &'static str {
        match self {
            Mechanism::IntSensor => "int_sensor",
            Mechanism::AdHocBt => "adhoc_bt",
            Mechanism::AdHocWifi => "adhoc_wifi",
            Mechanism::Infra => "infra",
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mechanism::IntSensor => "intSensor",
            Mechanism::AdHocBt => "adHocNetwork/BT",
            Mechanism::AdHocWifi => "adHocNetwork/WiFi",
            Mechanism::Infra => "extInfra",
        })
    }
}

/// Local repository capacity per context type.
const REPO_CAPACITY: usize = 32;
/// Access-controller known-source capacity.
const ACCESS_CAPACITY: usize = 64;
/// Seed of the retry jitter stream (deterministic per factory).
const RETRY_JITTER_SEED: u64 = 0x5EED_CAFE;

/// Factory configuration.
#[derive(Clone, Debug)]
pub struct FactoryConfig {
    /// Access-control posture.
    pub security: SecurityMode,
    /// How often to probe a failed preferred mechanism for recovery.
    pub recovery_probe: SimDuration,
    /// Failure detection, retry and backoff tunables.
    pub failover: FailoverConfig,
}

impl Default for FactoryConfig {
    fn default() -> Self {
        FactoryConfig {
            security: SecurityMode::Low,
            recovery_probe: SimDuration::from_secs(30),
            failover: FailoverConfig::default(),
        }
    }
}

struct Inner {
    sim: Sim,
    refs: References,
    config: FactoryConfig,
    monitor: ResourcesMonitor,
    access: AccessController,
    repo: CxtRepository,
    publisher: CxtPublisher,
    manager: QueryManager,
    facades: BTreeMap<Mechanism, Facade>,
    rules: Vec<ContextRule>,
    next_query: u64,
    registered_servers: BTreeSet<String>,
    probes_in_flight: BTreeSet<QueryId>,
    prev_actions: Vec<RuleAction>,
    /// Per-query failover bookkeeping (also attached to the monitor).
    failover: FailoverTracker,
    /// Per-query retry counters driving the backoff schedule.
    backoff: BTreeMap<QueryId, BackoffState>,
    /// Queries with a same-mechanism retry scheduled (watchdog holds off).
    retry_pending: BTreeSet<QueryId>,
    /// Deterministic jitter stream for retry delays.
    rng: DetRng,
    /// Terminal errors recorded while a submit cascade unwound, so
    /// `process_cxt_query` can report them synchronously.
    terminations: BTreeMap<QueryId, ContoryError>,
}

/// The device's context factory. Cloneable handle; create one per device.
#[derive(Clone)]
pub struct ContextFactory {
    inner: Rc<RefCell<Inner>>,
}

impl ContextFactory {
    /// Builds a factory over the device's references.
    pub fn new(sim: &Sim, refs: References, config: FactoryConfig) -> Self {
        let monitor = ResourcesMonitor::new();
        let access = AccessController::new(config.security, ACCESS_CAPACITY);
        let repo = CxtRepository::new(REPO_CAPACITY);
        {
            // Lifetime enforcement (§4.3): queries never see expired
            // items, and a periodic sweep evicts them deterministically.
            let clock_sim = sim.clone();
            repo.set_clock(Rc::new(move || clock_sim.now()));
            let sweep_repo = repo.clone();
            let sweep_sim = sim.clone();
            sim.schedule_repeating(config.recovery_probe, move || {
                sweep_repo.sweep_expired(sweep_sim.now());
                true
            });
        }
        if let Some(cell) = &refs.cell {
            repo.set_remote(cell.clone());
        }
        let publisher = CxtPublisher::new(refs.bt.clone(), refs.wifi.clone());
        let failover = FailoverTracker::new();
        monitor.attach_failover(failover.clone());
        let rng = DetRng::new(RETRY_JITTER_SEED);
        let factory = ContextFactory {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                refs,
                config,
                monitor: monitor.clone(),
                access,
                repo,
                publisher,
                manager: QueryManager::new(),
                facades: BTreeMap::new(),
                rules: Vec::new(),
                next_query: 0,
                registered_servers: BTreeSet::new(),
                probes_in_flight: BTreeSet::new(),
                prev_actions: Vec::new(),
                failover,
                backoff: BTreeMap::new(),
                retry_pending: BTreeSet::new(),
                rng,
                terminations: BTreeMap::new(),
            })),
        };
        factory.build_facades();
        // Monitor events drive policy enforcement and reconfiguration.
        {
            let weak = Rc::downgrade(&factory.inner);
            monitor.on_event(move |event| {
                if let Some(inner) = weak.upgrade() {
                    let f = ContextFactory { inner };
                    f.enforce_policies();
                    if let ResourceEvent::RefFailed { kind, .. } = event {
                        f.reassign_kind(*kind);
                    }
                }
            });
        }
        factory
    }

    fn build_facades(&self) {
        let (sim, refs) = {
            let inner = self.inner.borrow();
            (inner.sim.clone(), inner.refs.clone())
        };
        let mut facades = BTreeMap::new();
        // intSensor facade exists when any sensor path exists.
        if refs.internal.is_some() || refs.bt.is_some() {
            facades.insert(
                Mechanism::IntSensor,
                self.make_facade(Mechanism::IntSensor, {
                    let sim = sim.clone();
                    let internal = refs.internal.clone();
                    let bt = refs.bt.clone();
                    Rc::new(move |query: &CxtQuery, sink, on_failure| {
                        Ok(Box::new(LocalCxtProvider::new(
                            &sim,
                            internal.clone(),
                            bt.clone(),
                            query.clone(),
                            sink,
                            on_failure,
                        )) as Box<dyn crate::providers::CxtProvider>)
                    })
                }),
            );
        }
        if let Some(bt) = refs.bt.clone() {
            facades.insert(
                Mechanism::AdHocBt,
                self.make_facade(Mechanism::AdHocBt, {
                    let sim = sim.clone();
                    Rc::new(move |query: &CxtQuery, sink, on_failure| {
                        Ok(Box::new(AdHocCxtProvider::new(
                            &sim,
                            AdHocFlavor::Bt,
                            Some(bt.clone()),
                            None,
                            query.clone(),
                            sink,
                            on_failure,
                        )) as Box<dyn crate::providers::CxtProvider>)
                    })
                }),
            );
        }
        if let Some(wifi) = refs.wifi.clone() {
            facades.insert(
                Mechanism::AdHocWifi,
                self.make_facade(Mechanism::AdHocWifi, {
                    let sim = sim.clone();
                    Rc::new(move |query: &CxtQuery, sink, on_failure| {
                        Ok(Box::new(AdHocCxtProvider::new(
                            &sim,
                            AdHocFlavor::Wifi,
                            None,
                            Some(wifi.clone()),
                            query.clone(),
                            sink,
                            on_failure,
                        )) as Box<dyn crate::providers::CxtProvider>)
                    })
                }),
            );
        }
        if let Some(cell) = refs.cell.clone() {
            facades.insert(
                Mechanism::Infra,
                self.make_facade(Mechanism::Infra, {
                    let sim = sim.clone();
                    Rc::new(move |query: &CxtQuery, sink, on_failure| {
                        Ok(Box::new(InfraCxtProvider::new(
                            &sim,
                            cell.clone(),
                            query.clone(),
                            sink,
                            on_failure,
                        )) as Box<dyn crate::providers::CxtProvider>)
                    })
                }),
            );
        }
        self.inner.borrow_mut().facades = facades;
    }

    fn make_facade(
        &self,
        mechanism: Mechanism,
        make_provider: crate::facade::ProviderFactory,
    ) -> Facade {
        let weak = Rc::downgrade(&self.inner);
        let sim = self.inner.borrow().sim.clone();
        let deliver = {
            let weak = weak.clone();
            Rc::new(move |id: QueryId, items: Vec<CxtItem>| {
                if let Some(inner) = weak.upgrade() {
                    let (manager, repo, access) = {
                        let i = inner.borrow();
                        (i.manager.clone(), i.repo.clone(), i.access.clone())
                    };
                    // Access control: every external source is vetted; in
                    // high-security mode, unknown sources are granted or
                    // blocked by the owning application's makeDecision.
                    let client = manager.client_of(id);
                    let items: Vec<CxtItem> = items
                        .into_iter()
                        .filter(|item| match (&item.source, &client) {
                            (Some(source), Some(client)) => {
                                let client = client.clone();
                                let ask = move |s: &crate::item::SourceId| {
                                    client.make_decision(&format!(
                                        "allow context source {s}?"
                                    ))
                                };
                                access.check_with(source, Some(&ask))
                                    == crate::access::AccessDecision::Granted
                            }
                            _ => true,
                        })
                        .collect();
                    if items.is_empty() {
                        return;
                    }
                    for item in &items {
                        repo.store_local(item.clone());
                    }
                    let n = items.len() as u64;
                    let delivered = manager.deliver(id, items);
                    if delivered {
                        // Successful delivery: close any provisioning gap
                        // and reset the retry budget for this query.
                        let (tracker, now) = {
                            let mut i = inner.borrow_mut();
                            i.backoff.remove(&id);
                            (i.failover.clone(), i.sim.now())
                        };
                        tracker.delivered(id, n, now);
                    }
                }
            })
        };
        let member_done = {
            let weak = weak.clone();
            Rc::new(move |id: QueryId| {
                if let Some(inner) = weak.upgrade() {
                    ContextFactory { inner }.finish_query(id);
                }
            })
        };
        let provider_failed = {
            let weak = weak.clone();
            Rc::new(move |ids: Vec<QueryId>, err: RefError| {
                if let Some(inner) = weak.upgrade() {
                    ContextFactory { inner }.handle_provider_failure(mechanism, ids, err);
                }
            })
        };
        Facade::new(&sim, make_provider, deliver, member_done, provider_failed)
    }

    /// The resources monitor (the platform feeds battery/memory/reference
    /// events into it).
    pub fn monitor(&self) -> ResourcesMonitor {
        self.inner.borrow().monitor.clone()
    }

    /// The local/remote context repository.
    pub fn repository(&self) -> CxtRepository {
        self.inner.borrow().repo.clone()
    }

    /// The access controller.
    pub fn access_controller(&self) -> AccessController {
        self.inner.borrow().access.clone()
    }

    /// The active-query table.
    pub fn manager(&self) -> QueryManager {
        self.inner.borrow().manager.clone()
    }

    /// The facade serving a mechanism, if the device supports it
    /// (exposed for inspection in tests and benches).
    pub fn facade(&self, mechanism: Mechanism) -> Option<Facade> {
        self.inner.borrow().facades.get(&mechanism).cloned()
    }

    /// Installs a control policy rule.
    pub fn add_rule(&self, rule: ContextRule) {
        self.inner.borrow_mut().rules.push(rule);
        self.enforce_policies();
    }

    /// Parses and submits a query (`processCxtQuery` with query text).
    ///
    /// # Errors
    ///
    /// Returns [`ContoryError::Parse`] for bad query text, plus the
    /// errors of [`ContextFactory::process_cxt_query`].
    pub fn process_cxt_query_text(
        &self,
        text: &str,
        client: Rc<dyn Client>,
    ) -> Result<QueryId, ContoryError> {
        let query = CxtQuery::parse(text)?;
        self.process_cxt_query(query, client)
    }

    /// Submits a query (`processCxtQuery`): assigns it to a suitable
    /// facade and schedules its expiry.
    ///
    /// # Errors
    ///
    /// Returns [`ContoryError::NoMechanism`] when no available mechanism
    /// can serve the query.
    pub fn process_cxt_query(
        &self,
        query: CxtQuery,
        client: Rc<dyn Client>,
    ) -> Result<QueryId, ContoryError> {
        let id = {
            let mut inner = self.inner.borrow_mut();
            inner.next_query += 1;
            QueryId(inner.next_query)
        };
        obskit::count("factory_queries_submitted", 1);
        {
            let inner = self.inner.borrow();
            obskit::event(
                obskit::Phase::Dispatch,
                &format!("submit:{id}:{}", query.select),
                None,
                inner.sim.now(),
            );
        }
        {
            let inner = self.inner.borrow();
            inner.manager.insert(
                id,
                QueryRecord {
                    query: query.clone(),
                    client,
                    mechanism: Mechanism::IntSensor, // placeholder until assigned
                    failed: Vec::new(),
                    suspended: false,
                },
            );
        }
        match self.assign(id) {
            Ok(_mechanism) => {}
            Err(e) => {
                self.inner.borrow().manager.remove(id);
                return Err(e);
            }
        }
        // A provider whose module was already down fails synchronously
        // inside submit; the failure cascade may have exhausted every
        // candidate and terminated the query before assign() returned.
        // Surface that terminal error to the caller.
        let terminal = self.inner.borrow_mut().terminations.remove(&id);
        if let Some(e) = terminal {
            if !self.inner.borrow().manager.contains(id) {
                return Err(e);
            }
        }
        {
            let inner = self.inner.borrow();
            let period = match query.mode {
                QueryMode::Periodic(p) => Some(p),
                _ => None,
            };
            inner.failover.set_period(id, period);
        }
        // Silence watchdog for periodic queries (opt-in via config).
        if let QueryMode::Periodic(p) = query.mode {
            let k = self.inner.borrow().config.failover.silence_periods;
            if k > 0 {
                self.start_watchdog(id, p, k);
            }
        }
        // Wall-time queries expire on schedule.
        if let DurationClause::Time(d) = query.duration {
            let weak = Rc::downgrade(&self.inner);
            let sim = self.inner.borrow().sim.clone();
            sim.schedule_in(d, move || {
                if let Some(inner) = weak.upgrade() {
                    ContextFactory { inner }.finish_query(id);
                }
            });
        }
        self.update_status();
        Ok(id)
    }

    /// Cancels an active query (`cancelCxtQuery`).
    ///
    /// # Errors
    ///
    /// Returns [`ContoryError::UnknownQuery`] if the id is not active.
    pub fn cancel_cxt_query(&self, id: QueryId) -> Result<(), ContoryError> {
        if !self.inner.borrow().manager.contains(id) {
            return Err(ContoryError::UnknownQuery(id.0));
        }
        obskit::count("factory_queries_cancelled", 1);
        self.finish_query(id);
        Ok(())
    }

    /// Publishes a context item in the ad hoc network(s)
    /// (`publishCxtItem`). `key = Some` selects authenticated access.
    ///
    /// # Errors
    ///
    /// Returns [`ContoryError::AccessDenied`] when no context server is
    /// registered (publishers must register first, §4.4), or
    /// [`ContoryError::Reference`] when no ad hoc reference accepted the
    /// item.
    pub fn publish_cxt_item(&self, item: CxtItem, key: Option<String>) -> Result<(), ContoryError> {
        {
            let inner = self.inner.borrow();
            if inner.registered_servers.is_empty() {
                return Err(ContoryError::AccessDenied(
                    "publisher is not a registered context server".into(),
                ));
            }
        }
        let publisher = self.inner.borrow().publisher.clone();
        publisher.publish(item, key, Box::new(|_res| {}));
        Ok(())
    }

    /// Withdraws a published item.
    pub fn unpublish_cxt_item(&self, cxt_type: &str) {
        self.inner.borrow().publisher.unpublish(cxt_type);
    }

    /// Stores an item locally and in the remote repository
    /// (`storeCxtItem`).
    pub fn store_cxt_item(&self, item: CxtItem) {
        let (repo, has_cell) = {
            let inner = self.inner.borrow();
            (inner.repo.clone(), inner.refs.cell.is_some())
        };
        repo.store_local(item.clone());
        if has_cell {
            repo.store_remote(item, Box::new(|_res| {}));
        }
    }

    /// Registers a context server eligible to publish
    /// (`registerCxtServer`).
    pub fn register_cxt_server(&self, name: impl Into<String>) {
        self.inner.borrow_mut().registered_servers.insert(name.into());
    }

    /// Deregisters a context server (`deregisterCxtServer`).
    pub fn deregister_cxt_server(&self, name: &str) {
        self.inner.borrow_mut().registered_servers.remove(name);
    }

    /// Number of active queries.
    pub fn active_queries(&self) -> usize {
        self.inner.borrow().manager.len()
    }

    /// The mechanism currently serving a query.
    pub fn mechanism_of(&self, id: QueryId) -> Option<Mechanism> {
        self.inner.borrow().manager.mechanism_of(id)
    }

    /// Ordered candidate mechanisms for a query, given the FROM clause,
    /// device capabilities and active policies.
    pub fn candidates(&self, query: &CxtQuery) -> Vec<Mechanism> {
        let inner = self.inner.borrow();
        let has = |m: Mechanism| inner.facades.contains_key(&m);
        let internal_provides = inner
            .refs
            .internal
            .as_ref()
            .is_some_and(|i| i.provides(&query.select));
        let mut order: Vec<Mechanism> = match &query.from {
            Some(Source::IntSensor) => vec![
                Mechanism::IntSensor,
                Mechanism::AdHocBt,
                Mechanism::AdHocWifi,
                Mechanism::Infra,
            ],
            Some(Source::ExtInfra) => vec![
                Mechanism::Infra,
                Mechanism::AdHocWifi,
                Mechanism::AdHocBt,
            ],
            Some(Source::AdHocNetwork { num_hops, .. }) => {
                if *num_hops > 1 {
                    vec![Mechanism::AdHocWifi, Mechanism::AdHocBt, Mechanism::Infra]
                } else {
                    vec![Mechanism::AdHocBt, Mechanism::AdHocWifi, Mechanism::Infra]
                }
            }
            Some(Source::Entity(_)) => {
                vec![Mechanism::AdHocWifi, Mechanism::AdHocBt, Mechanism::Infra]
            }
            Some(Source::Region { .. }) => vec![Mechanism::AdHocWifi, Mechanism::Infra],
            None => {
                let mut v = Vec::new();
                if internal_provides {
                    v.push(Mechanism::IntSensor);
                }
                v.extend([Mechanism::AdHocBt, Mechanism::AdHocWifi, Mechanism::Infra]);
                v
            }
        };
        // intSensor needs either an integrated sensor or BT for an
        // attached one.
        order.retain(|&m| match m {
            Mechanism::IntSensor => internal_provides || inner.refs.bt.is_some(),
            _ => true,
        });
        order.retain(|&m| has(m));
        // Active reducePower: prefer BT one-hop over WiFi multi-hop and
        // demote the UMTS infrastructure to last resort.
        let actions = inner.monitor.status().active_actions(&inner.rules);
        if actions.contains(&RuleAction::ReducePower) {
            order.sort_by_key(|&m| match m {
                Mechanism::IntSensor => 0,
                Mechanism::AdHocBt => 1,
                Mechanism::AdHocWifi => 2,
                Mechanism::Infra => 3,
            });
        }
        order
    }

    /// Assigns (or reassigns) a query to the best non-failed candidate.
    fn assign(&self, id: QueryId) -> Result<Mechanism, ContoryError> {
        let (query, failed, manager) = {
            let inner = self.inner.borrow();
            let Some(query) = inner.manager.query_of(id) else {
                return Err(ContoryError::UnknownQuery(id.0));
            };
            (query, inner.manager.failed_of(id), inner.manager.clone())
        };
        let candidates = self.candidates(&query);
        let pick = candidates.iter().copied().find(|m| !failed.contains(m));
        let Some(mechanism) = pick else {
            if candidates.is_empty() {
                return Err(ContoryError::NoMechanism {
                    cxt_type: query.select.clone(),
                    reason: "device has no mechanism for this FROM clause".into(),
                });
            }
            let tried: Vec<String> = candidates.iter().map(|m| m.to_string()).collect();
            return Err(ContoryError::AllMechanismsFailed {
                cxt_type: query.select.clone(),
                tried: tried.join(", "),
            });
        };
        // `candidates()` only returns mechanisms with a registered facade,
        // but propagate instead of panicking if that invariant ever slips.
        let Some(facade) = self.inner.borrow().facades.get(&mechanism).cloned() else {
            return Err(ContoryError::NoMechanism {
                cxt_type: query.select.clone(),
                reason: format!("no facade registered for {mechanism}"),
            });
        };
        // Record the mechanism *before* submitting: a provider whose
        // radio is already down fails synchronously inside submit(),
        // re-entering assign() — which must not be overwritten afterwards.
        manager.set_mechanism(id, mechanism);
        manager.set_suspended(id, false);
        {
            let inner = self.inner.borrow();
            inner.failover.assigned(id, mechanism, inner.sim.now());
        }
        obskit::count("factory_assignments", 1);
        obskit::count(&format!("factory_assigned_{}", mechanism.metric_key()), 1);
        facade.submit(id, query)?;
        Ok(mechanism)
    }

    /// Ends a query silently (duration expiry, sample budget, or explicit
    /// cancel).
    fn finish_query(&self, id: QueryId) {
        let facades: Vec<Facade> = self.inner.borrow().facades.values().cloned().collect();
        for f in facades {
            if f.cancel(id) {
                break;
            }
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.backoff.remove(&id);
            inner.retry_pending.remove(&id);
            let now = inner.sim.now();
            inner.failover.finished(id, now);
        }
        self.inner.borrow().manager.remove(id);
        self.update_status();
    }

    /// A provider died: either retry the same mechanism after a backoff
    /// delay (while the per-query retry budget lasts), or mark the
    /// mechanism failed, move the query to the next candidate and start
    /// recovery probes. With every candidate failed, long-running queries
    /// are suspended (revived by the probe) and on-demand queries are
    /// terminated with [`ContoryError::AllMechanismsFailed`].
    fn handle_provider_failure(&self, mechanism: Mechanism, ids: Vec<QueryId>, err: RefError) {
        let (manager, tracker, now) = {
            let inner = self.inner.borrow();
            (inner.manager.clone(), inner.failover.clone(), inner.sim.now())
        };
        for id in ids {
            if !manager.contains(id) {
                continue;
            }
            tracker.failure(id, mechanism, now);
            obskit::count("factory_provider_failures", 1);
            obskit::event(
                obskit::Phase::Failover,
                &format!("fail:{id}:{mechanism}"),
                None,
                now,
            );
            // Same-mechanism retry with capped exponential backoff.
            let retry_delay = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                let max_retries = inner.config.failover.max_retries;
                let policy = inner.config.failover.backoff.clone();
                let state = inner.backoff.entry(id).or_default();
                if state.attempts() < max_retries {
                    let delay = state.next_delay(&policy, &mut inner.rng);
                    inner.retry_pending.insert(id);
                    Some(delay)
                } else {
                    inner.backoff.remove(&id);
                    None
                }
            };
            if let Some(delay) = retry_delay {
                tracker.retried(id);
                obskit::count("factory_retries", 1);
                obskit::observe("factory_retry_delay_us", delay.as_micros());
                obskit::event(obskit::Phase::Retry, &format!("retry:{id}:{mechanism}"), None, now);
                manager.inform_error(
                    id,
                    &format!(
                        "{mechanism} failed: {err}; retrying in {:.1}s",
                        delay.as_secs_f64()
                    ),
                );
                let weak = Rc::downgrade(&self.inner);
                let sim = self.inner.borrow().sim.clone();
                sim.schedule_in(delay, move || {
                    if let Some(inner) = weak.upgrade() {
                        ContextFactory { inner }.retry_mechanism(id);
                    }
                });
                continue;
            }
            // Retry budget exhausted: fail over to the next candidate.
            manager.mark_failed(id, mechanism);
            manager.inform_error(id, &format!("{mechanism} failed: {err}"));
            match self.assign(id) {
                Ok(new_mechanism) => {
                    obskit::count("factory_mechanism_switches", 1);
                    obskit::event(
                        obskit::Phase::Switch,
                        &format!("switch:{id}:{mechanism}->{new_mechanism}"),
                        None,
                        now,
                    );
                    manager.inform_error(
                        id,
                        &format!("switched provisioning to {new_mechanism}"),
                    );
                    self.schedule_recovery_probe(id);
                }
                Err(e) => self.on_assign_failed(id, e),
            }
        }
        self.update_status();
    }

    /// Fires a scheduled same-mechanism retry.
    fn retry_mechanism(&self, id: QueryId) {
        self.inner.borrow_mut().retry_pending.remove(&id);
        let manager = self.inner.borrow().manager.clone();
        if !manager.contains(id) || manager.is_suspended(id) {
            return;
        }
        match self.assign(id) {
            Ok(_) => {}
            Err(e) => self.on_assign_failed(id, e),
        }
    }

    /// Every candidate mechanism failed for a query: suspend long-running
    /// queries (the recovery probe revives them) and terminate on-demand
    /// ones.
    fn on_assign_failed(&self, id: QueryId, e: ContoryError) {
        let (manager, tracker, now, long_running) = {
            let inner = self.inner.borrow();
            let long_running = inner
                .manager
                .query_of(id)
                .is_some_and(|q| q.mode.is_long_running());
            (
                inner.manager.clone(),
                inner.failover.clone(),
                inner.sim.now(),
                long_running,
            )
        };
        if long_running && matches!(e, ContoryError::AllMechanismsFailed { .. }) {
            manager.set_suspended(id, true);
            tracker.suspended(id, now);
            obskit::count("factory_suspensions", 1);
            obskit::event(obskit::Phase::Suspend, &format!("suspend:{id}"), None, now);
            manager.inform_error(id, &format!("query suspended: {e}"));
            self.schedule_recovery_probe(id);
        } else {
            obskit::count("factory_terminations", 1);
            manager.inform_error(id, &format!("query terminated: {e}"));
            tracker.finished(id, now);
            self.inner.borrow_mut().terminations.insert(id, e);
            manager.remove(id);
        }
        self.update_status();
    }

    /// A whole communication module failed (reported via the monitor):
    /// reassign every query riding it.
    fn reassign_kind(&self, kind: RefKind) {
        let (manager, ids): (QueryManager, Vec<QueryId>) = {
            let inner = self.inner.borrow();
            let ids = inner
                .facades
                .keys()
                .filter(|m| m.kind() == kind)
                .flat_map(|m| inner.manager.queries_on(*m))
                .collect();
            (inner.manager.clone(), ids)
        };
        for id in ids {
            let Some(current) = manager.mechanism_of(id) else {
                continue;
            };
            // Pull the query out of its current facade before reassigning.
            if let Some(f) = self.facade(current) {
                f.cancel(id);
            }
            self.handle_provider_failure(current, vec![id], RefError::Unavailable(
                format!("{kind} reported failed"),
            ));
        }
    }

    /// Periodically checks whether a query's preferred mechanism works
    /// again; if so, moves the query back (Fig. 5's switch-back once the
    /// GPS device is rediscovered).
    fn schedule_recovery_probe(&self, id: QueryId) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.probes_in_flight.insert(id) {
                return; // already probing
            }
        }
        let weak = Rc::downgrade(&self.inner);
        let (sim, interval) = {
            let inner = self.inner.borrow();
            (inner.sim.clone(), inner.config.recovery_probe)
        };
        sim.schedule_repeating(interval, move || {
            let Some(inner_rc) = weak.upgrade() else {
                return false;
            };
            let factory = ContextFactory { inner: inner_rc };
            factory.probe_step(id)
        });
    }

    /// One probe round; returns whether probing should continue.
    fn probe_step(&self, id: QueryId) -> bool {
        let (manager, query, failed) = {
            let inner = self.inner.borrow();
            let m = inner.manager.clone();
            let Some(q) = m.query_of(id) else {
                drop(inner);
                self.inner.borrow_mut().probes_in_flight.remove(&id);
                return false;
            };
            (m, q, inner.manager.failed_of(id))
        };
        if failed.is_empty() {
            self.inner.borrow_mut().probes_in_flight.remove(&id);
            return false;
        }
        let preferred = match self.candidates(&query).first().copied() {
            Some(m) => m,
            None => return true,
        };
        if !failed.contains(&preferred) {
            // Preferred already serves (or is untested): stop probing.
            self.inner.borrow_mut().probes_in_flight.remove(&id);
            return false;
        }
        // Probe the preferred mechanism's availability.
        let weak = Rc::downgrade(&self.inner);
        let select = query.select.clone();
        let on_result: Box<dyn FnOnce(bool)> = Box::new(move |ok| {
            if !ok {
                return;
            }
            let Some(inner_rc) = weak.upgrade() else {
                return;
            };
            let factory = ContextFactory { inner: inner_rc };
            let manager = factory.inner.borrow().manager.clone();
            if !manager.contains(id) {
                return;
            }
            let Some(current) = manager.mechanism_of(id) else {
                return;
            };
            if let Some(f) = factory.facade(current) {
                f.cancel(id);
            }
            manager.clear_failed(id);
            match factory.assign(id) {
                Ok(m) => {
                    // The assign may have cascaded into a re-suspension if
                    // the probed module flapped straight back down.
                    if !manager.is_suspended(id) {
                        let now = factory.inner.borrow().sim.now();
                        obskit::count("factory_recoveries", 1);
                        obskit::event(
                            obskit::Phase::Revive,
                            &format!("revive:{id}:{m}"),
                            None,
                            now,
                        );
                        manager.inform_error(id, &format!("recovered: back on {m}"));
                    }
                }
                Err(e) => factory.on_assign_failed(id, e),
            }
        });
        let refs = self.inner.borrow().refs.clone();
        match preferred {
            Mechanism::IntSensor => {
                let internal_ok = refs
                    .internal
                    .as_ref()
                    .is_some_and(|i| i.provides(&select));
                if internal_ok {
                    on_result(true);
                } else if let Some(bt) = refs.bt {
                    // Real discovery: this is the BT inquiry visible as the
                    // power spikes in Fig. 5.
                    bt.discover_sensor(&select, Box::new(move |res| on_result(res.is_ok())));
                } else {
                    on_result(false);
                }
            }
            Mechanism::AdHocBt => {
                on_result(refs.bt.is_some_and(|b| b.is_available()));
            }
            Mechanism::AdHocWifi => {
                on_result(refs.wifi.is_some_and(|w| w.is_available()));
            }
            Mechanism::Infra => {
                on_result(refs.cell.is_some_and(|c| c.is_available()));
            }
        }
        let _ = manager;
        true
    }

    /// Starts the per-query silence watchdog: a periodic query that
    /// delivers nothing for `k` consecutive periods is declared failed on
    /// its current mechanism (the paper's transparent failover, but
    /// driven by *absence* of data rather than an explicit provider
    /// error).
    fn start_watchdog(&self, id: QueryId, period: SimDuration, k: u32) {
        let weak = Rc::downgrade(&self.inner);
        let sim = self.inner.borrow().sim.clone();
        sim.schedule_repeating(period, move || {
            let Some(inner) = weak.upgrade() else {
                return false;
            };
            ContextFactory { inner }.watchdog_step(id, period, k)
        });
    }

    /// One watchdog tick; returns whether the watchdog should keep
    /// running.
    fn watchdog_step(&self, id: QueryId, period: SimDuration, k: u32) -> bool {
        let (manager, tracker, now, retry_pending) = {
            let inner = self.inner.borrow();
            (
                inner.manager.clone(),
                inner.failover.clone(),
                inner.sim.now(),
                inner.retry_pending.contains(&id),
            )
        };
        if !manager.contains(id) {
            return false;
        }
        // Suspended queries are revived by the recovery probe; queries
        // with a retry in flight are waiting out their backoff delay.
        if manager.is_suspended(id) || retry_pending {
            return true;
        }
        let Some(last) = tracker.last_activity(id) else {
            return false;
        };
        if now.since(last) >= period * u64::from(k) {
            let Some(current) = manager.mechanism_of(id) else {
                return true;
            };
            obskit::count("factory_watchdog_fires", 1);
            manager.inform_error(
                id,
                &format!("watchdog: no items for {k} periods on {current}"),
            );
            // Pull the silent provider out before declaring the failure.
            if let Some(f) = self.facade(current) {
                f.cancel(id);
            }
            self.handle_provider_failure(current, vec![id], RefError::Timeout);
        }
        true
    }

    /// Snapshot of the per-query failover history (also available from
    /// the monitor via [`ResourcesMonitor::failover_report`]).
    pub fn failover_report(&self) -> FailoverReport {
        let inner = self.inner.borrow();
        inner.failover.report_at(inner.sim.now())
    }

    /// Evaluates the control policies against the current status and
    /// enforces actions on rising edges.
    pub fn enforce_policies(&self) {
        let (actions, prev) = {
            let inner = self.inner.borrow();
            let actions = inner.monitor.status().active_actions(&inner.rules);
            (actions, inner.prev_actions.clone())
        };
        for action in &actions {
            if prev.contains(action) {
                continue; // already enforced
            }
            match action {
                RuleAction::ReduceMemory => {
                    self.inner.borrow().repo.trim();
                }
                RuleAction::ReduceLoad => {
                    let facades: Vec<Facade> =
                        self.inner.borrow().facades.values().cloned().collect();
                    for f in facades {
                        f.slow_down(2);
                    }
                }
                RuleAction::ReducePower => {
                    self.apply_reduce_power();
                }
            }
        }
        self.inner.borrow_mut().prev_actions = actions;
    }

    /// Moves queries off the most power-hungry mechanisms: UMTS-based
    /// queries are suspended or moved, WiFi multi-hop falls back to BT
    /// one-hop (§4.3's example enforcement).
    fn apply_reduce_power(&self) {
        let manager = self.inner.borrow().manager.clone();
        for victim in [Mechanism::Infra, Mechanism::AdHocWifi] {
            for id in manager.queries_on(victim) {
                if let Some(f) = self.facade(victim) {
                    f.cancel(id);
                }
                manager.mark_failed(id, victim);
                match self.assign(id) {
                    Ok(m) => manager.inform_error(
                        id,
                        &format!("reducePower: moved from {victim} to {m}"),
                    ),
                    Err(_) => {
                        manager
                            .inform_error(id, "reducePower: query suspended (no alternative)");
                        manager.remove(id);
                    }
                }
            }
        }
        self.update_status();
    }

    fn update_status(&self) {
        let inner = self.inner.borrow();
        inner
            .monitor
            .set_status("activeQueries", RuleValue::Number(inner.manager.len() as f64));
        inner.monitor.set_status(
            "suspendedQueries",
            RuleValue::Number(inner.manager.suspended_count() as f64),
        );
    }
}

impl fmt::Debug for ContextFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ContextFactory")
            .field("active_queries", &inner.manager.len())
            .field("facades", &inner.facades.len())
            .finish()
    }
}
