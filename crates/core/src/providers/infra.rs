//! InfraCxtProvider: retrieval from remote context infrastructures over
//! the `2G/3GReference` (§4.3).

use super::{event_gate, CxtProvider, ProviderFailure, ProviderSink};
use crate::predicate::EventWindow;
use crate::query::{CxtQuery, QueryMode, Source};
use crate::refs::{CellReference, InfraPushMode, InfraSpec, InfraSubHandle, RefError};
use simkit::Sim;
use std::cell::RefCell;
use std::rc::Rc;

struct Inner {
    query: CxtQuery,
    window: EventWindow,
    running: bool,
    event_armed: bool,
    sub: Option<InfraSubHandle>,
}

/// Provider for `extInfra` provisioning.
pub(crate) struct InfraCxtProvider {
    sim: Sim,
    cell: Rc<dyn CellReference>,
    sink: ProviderSink,
    on_failure: ProviderFailure,
    inner: Rc<RefCell<Inner>>,
}

/// Derives the infrastructure query from a context query.
pub(crate) fn spec_from_query(query: &CxtQuery) -> InfraSpec {
    let entity = match &query.from {
        Some(Source::Entity(e)) => Some(e.clone()),
        _ => None,
    };
    let region = match &query.from {
        Some(Source::Region { x, y, radius }) => Some((*x, *y, *radius)),
        _ => None,
    };
    InfraSpec {
        cxt_type: query.select.clone(),
        entity,
        region,
        freshness: query.freshness,
        max_items: 0,
    }
}

impl InfraCxtProvider {
    /// Creates a provider over the cellular reference.
    pub(crate) fn new(
        sim: &Sim,
        cell: Rc<dyn CellReference>,
        query: CxtQuery,
        sink: ProviderSink,
        on_failure: ProviderFailure,
    ) -> Self {
        InfraCxtProvider {
            sim: sim.clone(),
            cell,
            sink,
            on_failure,
            inner: Rc::new(RefCell::new(Inner {
                query,
                window: EventWindow::new(),
                running: false,
                event_armed: true,
                sub: None,
            })),
        }
    }

    fn clone_handle(&self) -> InfraCxtProvider {
        InfraCxtProvider {
            sim: self.sim.clone(),
            cell: self.cell.clone(),
            sink: self.sink.clone(),
            on_failure: self.on_failure.clone(),
            inner: self.inner.clone(),
        }
    }

    fn handle_items(&self, items: Vec<crate::item::CxtItem>) {
        let now = self.sim.now();
        let to_deliver = {
            let inner = &mut *self.inner.borrow_mut();
            if !inner.running {
                return;
            }
            event_gate(
                &inner.query,
                &mut inner.window,
                &mut inner.event_armed,
                items,
                now,
            )
        };
        if !to_deliver.is_empty() {
            obskit::count("provider_infra_deliveries", 1);
            obskit::count("provider_infra_items", to_deliver.len() as u64);
            (self.sink)(to_deliver);
        }
    }
}

impl CxtProvider for InfraCxtProvider {
    fn start(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.running {
                return;
            }
            inner.running = true;
        }
        if !self.cell.is_available() {
            (self.on_failure)(RefError::Unavailable("cellular radio off".into()));
            return;
        }
        let (mode, spec) = {
            let inner = self.inner.borrow();
            (inner.query.mode.clone(), spec_from_query(&inner.query))
        };
        match mode {
            QueryMode::OnDemand => {
                obskit::count("provider_infra_fetches", 1);
                let me = self.clone_handle();
                self.cell.fetch(
                    &spec,
                    Box::new(move |res| match res {
                        Ok(items) => me.handle_items(items),
                        Err(e) => {
                            if me.inner.borrow().running {
                                (me.on_failure)(e)
                            }
                        }
                    }),
                );
            }
            QueryMode::Periodic(period) => {
                obskit::count("provider_infra_subscribes", 1);
                let me = self.clone_handle();
                let handle = self.cell.subscribe(
                    &spec,
                    InfraPushMode::Periodic(period),
                    Rc::new(move |items| me.handle_items(items)),
                );
                self.inner.borrow_mut().sub = Some(handle);
            }
            QueryMode::Event(_) => {
                obskit::count("provider_infra_subscribes", 1);
                let me = self.clone_handle();
                let handle = self.cell.subscribe(
                    &spec,
                    InfraPushMode::OnArrival,
                    Rc::new(move |items| me.handle_items(items)),
                );
                self.inner.borrow_mut().sub = Some(handle);
            }
        }
    }

    fn stop(&self) {
        let sub = {
            let mut inner = self.inner.borrow_mut();
            if !inner.running {
                return;
            }
            inner.running = false;
            inner.sub.take()
        };
        if let Some(handle) = sub {
            self.cell.unsubscribe(handle);
        }
    }

    fn update_query(&self, query: &CxtQuery) {
        // Re-subscribe when the merged spec changed materially.
        let need_resub = {
            let inner = self.inner.borrow();
            inner.running
                && inner.sub.is_some()
                && (inner.query.mode != query.mode
                    || inner.query.freshness != query.freshness
                    || inner.query.from != query.from)
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
