//! LocalCxtProvider: internal sensors and BT-attached sensors.

use super::{event_gate, CxtProvider, ProviderFailure, ProviderSink};
use crate::item::CxtItem;
use crate::predicate::EventWindow;
use crate::query::{CxtQuery, QueryMode};
use crate::item::SourceId;
use crate::refs::{BtReference, InternalReference, RefError, StreamHandle};
use simkit::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// How the provider reaches its sensor.
enum Binding {
    /// Sensor integrated in the device.
    Internal,
    /// Sensor reachable over Bluetooth; populated after discovery.
    Bt {
        source: Option<SourceId>,
        stream: Option<StreamHandle>,
    },
}

struct Inner {
    query: CxtQuery,
    binding: Binding,
    window: EventWindow,
    running: bool,
    event_armed: bool,
}

/// Provider for `intSensor` provisioning.
pub(crate) struct LocalCxtProvider {
    sim: Sim,
    internal: Option<Rc<dyn InternalReference>>,
    bt: Option<Rc<dyn BtReference>>,
    sink: ProviderSink,
    on_failure: ProviderFailure,
    inner: Rc<RefCell<Inner>>,
}

impl LocalCxtProvider {
    /// Creates a provider. The sensor binding is decided at start time:
    /// an integrated sensor if the device has one for the query's type,
    /// otherwise a Bluetooth sensor (discovered on demand).
    pub(crate) fn new(
        sim: &Sim,
        internal: Option<Rc<dyn InternalReference>>,
        bt: Option<Rc<dyn BtReference>>,
        query: CxtQuery,
        sink: ProviderSink,
        on_failure: ProviderFailure,
    ) -> Self {
        let use_internal = internal
            .as_ref()
            .is_some_and(|i| i.provides(&query.select));
        LocalCxtProvider {
            sim: sim.clone(),
            internal,
            bt,
            sink,
            on_failure,
            inner: Rc::new(RefCell::new(Inner {
                query,
                binding: if use_internal {
                    Binding::Internal
                } else {
                    Binding::Bt {
                        source: None,
                        stream: None,
                    }
                },
                window: EventWindow::new(),
                running: false,
                event_armed: true,
            })),
        }
    }

    /// Periodic poll period: the EVERY interval, or a default poll used
    /// to feed EVENT windows.
    fn poll_period(&self) -> SimDuration {
        match &self.inner.borrow().query.mode {
            QueryMode::Periodic(p) => *p,
            _ => SimDuration::from_secs(5),
        }
    }

    fn deliver(&self, items: Vec<CxtItem>) {
        let now = self.sim.now();
        let filtered = {
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
        if !filtered.is_empty() {
            obskit::count("provider_local_deliveries", 1);
            obskit::count("provider_local_items", filtered.len() as u64);
            (self.sink)(filtered);
        }
    }

    fn start_internal(&self) {
        let Some(internal) = self.internal.clone() else {
            (self.on_failure)(RefError::Unavailable("no internal sensor reference".into()));
            return;
        };
        let mode = self.inner.borrow().query.mode.clone();
        let cxt_type = self.inner.borrow().query.select.clone();
        match mode {
            QueryMode::OnDemand => {
                let me = self.clone_handle();
                internal.sample(
                    &cxt_type,
                    Box::new(move |res| match res {
                        Ok(item) => me.deliver(vec![item]),
                        Err(e) => (me.on_failure)(e),
                    }),
                );
            }
            QueryMode::Periodic(_) | QueryMode::Event(_) => {
                self.schedule_poll(self.poll_period());
            }
        }
    }

    fn start_bt(&self) {
        let Some(bt) = self.bt.clone() else {
            (self.on_failure)(RefError::Unavailable("no BT reference".into()));
            return;
        };
        if !bt.is_available() {
            (self.on_failure)(RefError::Unavailable("BT radio off".into()));
            return;
        }
        let cxt_type = self.inner.borrow().query.select.clone();
        let me = self.clone_handle();
        bt.discover_sensor(
            &cxt_type,
            Box::new(move |res| {
                if !me.inner.borrow().running {
                    return;
                }
                match res {
                    Err(e) => (me.on_failure)(e),
                    Ok(source) => me.open_stream(source),
                }
            }),
        );
    }

    fn open_stream(&self, source: SourceId) {
        let Some(bt) = self.bt.clone() else {
            (self.on_failure)(RefError::Unavailable("no BT reference".into()));
            return;
        };
        let cxt_type = self.inner.borrow().query.select.clone();
        {
            let mut inner = self.inner.borrow_mut();
            if let Binding::Bt { source: s, .. } = &mut inner.binding {
                *s = Some(source.clone());
            }
        }
        let me = self.clone_handle();
        let me_err = self.clone_handle();
        let me_done = self.clone_handle();
        bt.open_sensor_stream(
            &source,
            &cxt_type,
            Rc::new(move |items| me.deliver(items)),
            Rc::new(move |err| {
                // Sensor stream died (e.g. the BT-GPS was switched off):
                // this is the Fig. 5 trigger.
                if me_err.inner.borrow().running {
                    (me_err.on_failure)(err);
                }
            }),
            Box::new(move |res| match res {
                Ok(handle) => {
                    let mut inner = me_done.inner.borrow_mut();
                    if let Binding::Bt { stream, .. } = &mut inner.binding {
                        *stream = Some(handle);
                    }
                    let still_running = inner.running;
                    drop(inner);
                    if !still_running {
                        bt_close(&me_done);
                    }
                }
                Err(e) => {
                    if me_done.inner.borrow().running {
                        (me_done.on_failure)(e)
                    }
                }
            }),
        );
    }

    /// (Re)arms the periodic sampling timer; re-arms itself when the
    /// merged query's period changes (e.g. under `reduceLoad`).
    fn schedule_poll(&self, period: SimDuration) {
        let me = self.clone_handle();
        self.sim.schedule_repeating(period, move || {
            if !me.inner.borrow().running {
                return false;
            }
            let want = me.poll_period();
            if want != period {
                me.schedule_poll(want);
                return false;
            }
            let Some(internal) = me.internal.clone() else {
                (me.on_failure)(RefError::Unavailable("no internal sensor reference".into()));
                return false;
            };
            let me2 = me.clone_handle();
            let cxt_type = me.inner.borrow().query.select.clone();
            internal.sample(
                &cxt_type,
                Box::new(move |res| match res {
                    Ok(item) => me2.deliver(vec![item]),
                    Err(e) => (me2.on_failure)(e),
                }),
            );
            true
        });
    }

    fn clone_handle(&self) -> LocalCxtProvider {
        LocalCxtProvider {
            sim: self.sim.clone(),
            internal: self.internal.clone(),
            bt: self.bt.clone(),
            sink: self.sink.clone(),
            on_failure: self.on_failure.clone(),
            inner: self.inner.clone(),
        }
    }
}

fn bt_close(p: &LocalCxtProvider) {
    let handle = {
        let mut inner = p.inner.borrow_mut();
        match &mut inner.binding {
            Binding::Bt { stream, .. } => stream.take(),
            Binding::Internal => None,
        }
    };
    if let (Some(h), Some(bt)) = (handle, p.bt.clone()) {
        bt.close_sensor_stream(h);
    }
}

impl CxtProvider for LocalCxtProvider {
    fn start(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.running {
                return;
            }
            inner.running = true;
        }
        let is_internal = matches!(self.inner.borrow().binding, Binding::Internal);
        obskit::count("provider_local_starts", 1);
        if is_internal {
            self.start_internal();
        } else {
            self.start_bt();
        }
    }

    fn stop(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.running {
                return;
            }
            inner.running = false;
        }
        bt_close(self);
    }

    fn update_query(&self, query: &CxtQuery) {
        self.inner.borrow_mut().query = query.clone();
    }
}
