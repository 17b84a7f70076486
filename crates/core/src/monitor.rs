//! The ResourcesMonitor (§4.3).
//!
//! "The ResourcesMonitor component is in charge of maintaining an updated
//! view on the status of several hardware items, on the device's overall
//! power state, and on the available memory space. Each time network,
//! sensors, or device failures affect the functioning of a communication
//! module, the corresponding Reference notifies the ResourcesMonitor.
//! This, in turn, will inform the ContextFactory which will enforce a
//! reconfiguration strategy."

use crate::failover::{FailoverReport, FailoverTracker};
use crate::policy::{RuleValue, SystemStatus};
use crate::refs::RefKind;
use simkit::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Coarse resource level (the rules vocabulary speaks of
/// `batteryLevel = low`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceLevel {
    /// Nearly exhausted.
    Low,
    /// Usable.
    Medium,
    /// Plentiful.
    High,
}

impl fmt::Display for ResourceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceLevel::Low => "low",
            ResourceLevel::Medium => "medium",
            ResourceLevel::High => "high",
        })
    }
}

/// Events flowing from references and the platform into the monitor.
#[derive(Clone, Debug, PartialEq)]
pub enum ResourceEvent {
    /// A communication module failed (disconnection, hardware fault…).
    RefFailed {
        /// Which module.
        kind: RefKind,
        /// Human-readable cause.
        reason: String,
    },
    /// A previously failed module works again.
    RefRecovered {
        /// Which module.
        kind: RefKind,
    },
    /// The battery level changed.
    Battery(ResourceLevel),
    /// Memory utilization changed (fraction of budget in use).
    Memory(f64),
}

type Listener = Rc<dyn Fn(&ResourceEvent)>;

struct Inner {
    status: SystemStatus,
    ref_health: BTreeMap<RefKind, bool>,
    listeners: Vec<Listener>,
    failover: Option<FailoverTracker>,
}

/// Shared handle to the device's resource view.
///
/// ```
/// use contory::{ResourceEvent, ResourceLevel, ResourcesMonitor};
///
/// let monitor = ResourcesMonitor::new();
/// monitor.report(ResourceEvent::Battery(ResourceLevel::Low));
/// let status = monitor.status();
/// assert_eq!(
///     status.get("batteryLevel"),
///     Some(&contory::policy::RuleValue::Text("low".into()))
/// );
/// ```
#[derive(Clone)]
pub struct ResourcesMonitor {
    inner: Rc<RefCell<Inner>>,
}

impl Default for ResourcesMonitor {
    fn default() -> Self {
        ResourcesMonitor::new()
    }
}

impl ResourcesMonitor {
    /// Creates a monitor with every module assumed healthy, battery high
    /// and memory empty.
    pub fn new() -> Self {
        let mut status = SystemStatus::new();
        status.set("batteryLevel", RuleValue::Text("high".into()));
        status.set("memoryUtilization", RuleValue::Number(0.0));
        ResourcesMonitor {
            inner: Rc::new(RefCell::new(Inner {
                status,
                ref_health: BTreeMap::new(),
                listeners: Vec::new(),
                failover: None,
            })),
        }
    }

    /// Feeds an event into the monitor: updates the status view, then
    /// notifies listeners (the `ContextFactory`'s reconfiguration hook).
    pub fn report(&self, event: ResourceEvent) {
        {
            let mut inner = self.inner.borrow_mut();
            match &event {
                ResourceEvent::RefFailed { kind, .. } => {
                    inner.ref_health.insert(*kind, false);
                }
                ResourceEvent::RefRecovered { kind } => {
                    inner.ref_health.insert(*kind, true);
                }
                ResourceEvent::Battery(level) => {
                    inner
                        .status
                        .set("batteryLevel", RuleValue::Text(level.to_string()));
                }
                ResourceEvent::Memory(util) => {
                    inner
                        .status
                        .set("memoryUtilization", RuleValue::Number(*util));
                }
            }
        }
        obskit::count("monitor_events", 1);
        if let ResourceEvent::RefFailed { .. } = &event {
            obskit::count("monitor_ref_failures", 1);
        }
        self.export_gauges();
        let listeners: Vec<Listener> = self.inner.borrow().listeners.clone();
        for l in listeners {
            l(&event);
        }
    }

    /// Publishes the monitor's resource view as obskit gauges (battery
    /// level, memory utilization, per-module health and the query-load
    /// status variables). No-op when no collector is installed.
    pub fn export_gauges(&self) {
        if !obskit::enabled() {
            return;
        }
        let inner = self.inner.borrow();
        if let Some(RuleValue::Text(level)) = inner.status.get("batteryLevel") {
            let v = match level.as_str() {
                "low" => 0.0,
                "medium" => 1.0,
                _ => 2.0,
            };
            obskit::gauge("monitor_battery_level", v);
        }
        for var in ["memoryUtilization", "activeQueries", "suspendedQueries"] {
            if let Some(RuleValue::Number(n)) = inner.status.get(var) {
                obskit::gauge(&format!("monitor_{var}"), *n);
            }
        }
        for (kind, healthy) in &inner.ref_health {
            let key = match kind {
                RefKind::Internal => "internal",
                RefKind::Bt => "bt",
                RefKind::Wifi => "wifi",
                RefKind::Cell => "cell",
            };
            obskit::gauge(
                &format!("monitor_ref_healthy_{key}"),
                if *healthy { 1.0 } else { 0.0 },
            );
        }
    }

    /// Samples the resource view into obskit gauges on every sim tick of
    /// `period`, until the monitor is dropped. Also counts the ticks so
    /// sampling cadence shows up in metrics snapshots.
    pub fn start_sampling(&self, sim: &Sim, period: SimDuration) {
        self.export_gauges();
        let weak = Rc::downgrade(&self.inner);
        sim.schedule_repeating(period, move || {
            let Some(inner) = weak.upgrade() else {
                return false;
            };
            let monitor = ResourcesMonitor { inner };
            obskit::count("monitor_sample_ticks", 1);
            monitor.export_gauges();
            true
        });
    }

    /// Registers a listener for every reported event.
    pub fn on_event(&self, f: impl Fn(&ResourceEvent) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }

    /// Snapshot of the status view rules are evaluated against.
    pub fn status(&self) -> SystemStatus {
        self.inner.borrow().status.clone()
    }

    /// Sets an arbitrary status variable (e.g. `activeQueries`). Numeric
    /// variables are mirrored to obskit gauges immediately.
    pub fn set_status(&self, variable: impl Into<String>, value: RuleValue) {
        let variable = variable.into();
        if let RuleValue::Number(n) = &value {
            obskit::gauge(&format!("monitor_{variable}"), *n);
        }
        self.inner.borrow_mut().status.set(variable, value);
    }

    /// Attaches the factory's failover tracker so failure-scenario tests
    /// and benches can pull a [`FailoverReport`] from the monitor.
    pub fn attach_failover(&self, tracker: FailoverTracker) {
        self.inner.borrow_mut().failover = Some(tracker);
    }

    /// Snapshot of the per-query failover history (empty when no factory
    /// is attached). Open provisioning gaps accrue up to `now`.
    pub fn failover_report(&self, now: SimTime) -> FailoverReport {
        self.inner
            .borrow()
            .failover
            .as_ref()
            .map(|t| t.report_at(now))
            .unwrap_or_default()
    }
}

impl fmt::Debug for ResourcesMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ResourcesMonitor")
            .field("ref_health", &inner.ref_health)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Whether a module is healthy in the gauge view (unknown modules
    /// are presumed healthy until a failure is reported).
    fn healthy(m: &ResourcesMonitor, kind: RefKind) -> bool {
        *m.inner.borrow().ref_health.get(&kind).unwrap_or(&true)
    }

    #[test]
    fn failures_flip_health_and_notify() {
        let m = ResourcesMonitor::new();
        assert!(healthy(&m, RefKind::Bt));
        let seen = Rc::new(Cell::new(0));
        let s = seen.clone();
        m.on_event(move |_e| s.set(s.get() + 1));
        m.report(ResourceEvent::RefFailed {
            kind: RefKind::Bt,
            reason: "gps link lost".into(),
        });
        assert!(!healthy(&m, RefKind::Bt));
        m.report(ResourceEvent::RefRecovered { kind: RefKind::Bt });
        assert!(healthy(&m, RefKind::Bt));
        assert_eq!(seen.get(), 2);
    }

    #[test]
    fn battery_and_memory_feed_the_status_view() {
        let m = ResourcesMonitor::new();
        m.report(ResourceEvent::Battery(ResourceLevel::Low));
        m.report(ResourceEvent::Memory(0.85));
        let s = m.status();
        assert_eq!(s.get("batteryLevel"), Some(&RuleValue::Text("low".into())));
        assert_eq!(s.get("memoryUtilization"), Some(&RuleValue::Number(0.85)));
    }

    #[test]
    fn custom_status_variables() {
        let m = ResourcesMonitor::new();
        m.set_status("activeQueries", RuleValue::Number(3.0));
        assert_eq!(m.status().get("activeQueries"), Some(&RuleValue::Number(3.0)));
    }

    #[test]
    fn defaults_are_optimistic() {
        let m = ResourcesMonitor::new();
        assert_eq!(
            m.status().get("batteryLevel"),
            Some(&RuleValue::Text("high".into()))
        );
        assert!(healthy(&m, RefKind::Cell));
    }
}
