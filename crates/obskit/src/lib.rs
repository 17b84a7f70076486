//! obskit — deterministic sim-time observability for the Contory
//! reproduction.
//!
//! The paper's evaluation is an attribution exercise: the SM latency
//! break-up (connection 4–5 %, serialization 26–33 %, thread switch
//! 12–14 %, transfer 51–54 %), per-mechanism energy costs, and the
//! Fig. 5 failover timeline. This crate is the measurement substrate
//! that lets the reproduction make the same attributions:
//!
//! * [`Registry`] — counters, gauges and log2-bucketed [`Histogram`]s,
//!   BTree-ordered with exact merge and quantile support;
//! * [`SpanLog`] — spans keyed on [`SimTime`] with parent/child ids and
//!   typed [`Phase`] labels;
//! * exporters — JSONL span stream ([`SpanLog::export_jsonl`]),
//!   Prometheus-style text snapshot ([`Registry::snapshot`]) and the
//!   per-query latency [`Breakup`] table;
//! * [`json`] — the one JSON string escaper and float formatter the
//!   JSON exporters here and benchkit's JSON writer share.
//!
//! # Determinism rules
//!
//! Everything is sim-clock-only: the only time type is [`SimTime`], all
//! maps are `BTreeMap`s, span ids come from a monotone creation-order
//! counter, and exporters render in key/id order. Two runs that perform
//! the same recording sequence produce byte-identical exports — the
//! property `tests/determinism.rs` and the obskit test-suite pin down.
//!
//! # Scoped collection
//!
//! Instrumented crates never hold an `Obs` handle. They call the free
//! functions ([`count`], [`gauge`], [`observe`], [`start`], [`end`],
//! [`event`]), which record into the innermost [`install`]ed collector
//! — and no-op when none is installed, so uninstrumented runs are
//! byte-for-byte unchanged. The classic `Sim` is single-threaded, so a
//! thread-local stack is both safe and deterministic there. Code that
//! `ShardSim` actors run may be stepped on a worker thread, which has
//! no collector installed, so it never calls these functions: it keeps
//! its observations in per-actor state the harness folds after the run.
//!
//! ```
//! use obskit::{Obs, Phase};
//! use simkit::SimTime;
//!
//! let obs = Obs::new();
//! {
//!     let _guard = obskit::install(&obs);
//!     obskit::count("queries_submitted", 1);
//!     let root = obskit::start(Phase::Migrate, "sm:1", None, SimTime::ZERO);
//!     let hop = obskit::start(Phase::Transfer, "a->b", root, SimTime::ZERO);
//!     obskit::end(hop, SimTime::from_millis(175));
//!     obskit::end(root, SimTime::from_millis(200));
//! }
//! assert_eq!(obs.counter("queries_submitted"), 1);
//! assert_eq!(obs.span_count(), 2);
//! println!("{}", obs.breakup().table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod metrics;
mod span;

pub use hist::Histogram;
pub use metrics::Registry;
pub use span::{Breakup, Phase, Span, SpanId, SpanLog};

use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct Inner {
    registry: Registry,
    spans: SpanLog,
}

/// A collector: one metrics registry plus one span log, cheap to clone
/// (shared interior). Create one per run/scenario, [`install`] it for
/// the duration of the run, then pull exports from it.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Rc<RefCell<Inner>>,
}

impl Obs {
    /// Creates an empty collector.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Installs this collector as the current recording target; see
    /// the free [`install`] function.
    pub fn install(&self) -> Guard {
        install(self)
    }

    // --- recording (usable directly, or via the free functions) ---

    /// Adds `by` to counter `name`.
    pub fn counter_add(&self, name: &str, by: u64) {
        self.inner.borrow_mut().registry.counter_add(name, by);
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.inner.borrow_mut().registry.gauge_set(name, v);
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.inner.borrow_mut().registry.observe(name, v);
    }

    /// Opens a span.
    pub fn span_start(
        &self,
        phase: Phase,
        label: &str,
        parent: Option<SpanId>,
        now: SimTime,
    ) -> SpanId {
        self.inner.borrow_mut().spans.start(phase, label, parent, now)
    }

    /// Closes a span (no-op for unknown/closed ids).
    pub fn span_end(&self, id: SpanId, now: SimTime) {
        self.inner.borrow_mut().spans.end(id, now);
    }

    /// Records a zero-width event span.
    pub fn span_event(
        &self,
        phase: Phase,
        label: &str,
        parent: Option<SpanId>,
        now: SimTime,
    ) -> SpanId {
        self.inner.borrow_mut().spans.event(phase, label, parent, now)
    }

    // --- inspection ---

    /// Counter value (0 if untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().registry.counter(name)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().registry.gauge(name)
    }

    /// Clone of a named histogram, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().registry.histogram(name).cloned()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Clone of all spans in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.spans().to_vec()
    }

    // --- exporters ---

    /// Prometheus-style metrics snapshot (byte-deterministic).
    pub fn metrics_snapshot(&self) -> String {
        self.inner.borrow().registry.snapshot()
    }

    /// Deterministic JSON metrics snapshot (counters, gauges, histogram
    /// p50/p90/p99); see [`Registry::snapshot_json`].
    pub fn metrics_json(&self) -> String {
        self.inner.borrow().registry.snapshot_json()
    }

    /// Sum of closed-span durations for one phase across the whole log.
    pub fn phase_total(&self, phase: Phase) -> simkit::SimDuration {
        self.inner.borrow().spans.phase_total(phase)
    }

    /// JSONL span stream (byte-deterministic).
    pub fn spans_jsonl(&self) -> String {
        self.inner.borrow().spans.export_jsonl()
    }

    /// Latency break-up over all spans.
    pub fn breakup(&self) -> Breakup {
        self.inner.borrow().spans.breakup()
    }

    /// Latency break-up restricted to descendants of `root`.
    pub fn breakup_under(&self, root: SpanId) -> Breakup {
        self.inner.borrow().spans.breakup_under(root)
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`install`]; uninstalls on drop.
#[must_use = "the collector is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct Guard {
    _private: (),
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Installs `obs` as the innermost current collector for this thread;
/// all free-function recordings land in it until the guard drops.
/// Installations nest (a scoped inner collector shadows the outer one).
pub fn install(obs: &Obs) -> Guard {
    CURRENT.with(|c| c.borrow_mut().push(obs.clone()));
    Guard { _private: () }
}

/// True if a collector is currently installed.
pub fn enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

fn with_current<R>(f: impl FnOnce(&Obs) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let obs = c.borrow().last().cloned();
        obs.map(|o| f(&o))
    })
}

/// Adds `by` to counter `name` on the current collector (no-op when
/// none is installed).
pub fn count(name: &str, by: u64) {
    let _ = with_current(|o| o.counter_add(name, by));
}

/// Sets gauge `name` on the current collector (no-op when none).
pub fn gauge(name: &str, v: f64) {
    let _ = with_current(|o| o.gauge_set(name, v));
}

/// Records `v` into histogram `name` on the current collector (no-op
/// when none).
pub fn observe(name: &str, v: u64) {
    let _ = with_current(|o| o.observe(name, v));
}

/// Opens a span on the current collector; `None` when none installed.
pub fn start(phase: Phase, label: &str, parent: Option<SpanId>, now: SimTime) -> Option<SpanId> {
    with_current(|o| o.span_start(phase, label, parent, now))
}

/// Closes a span opened by [`start`]. Accepts the `Option` that
/// [`start`] returned, so call sites need no branching.
pub fn end(id: Option<SpanId>, now: SimTime) {
    if let Some(id) = id {
        let _ = with_current(|o| o.span_end(id, now));
    }
}

/// Records a zero-width event span; `None` when none installed.
pub fn event(phase: Phase, label: &str, parent: Option<SpanId>, now: SimTime) -> Option<SpanId> {
    with_current(|o| o.span_event(phase, label, parent, now))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_fns_noop_when_uninstalled() {
        assert!(!enabled());
        count("x", 1);
        gauge("g", 1.0);
        observe("h", 1);
        let s = start(Phase::Connect, "c", None, SimTime::ZERO);
        assert!(s.is_none());
        end(s, SimTime::ZERO);
        assert!(event(Phase::Retry, "r", None, SimTime::ZERO).is_none());
    }

    #[test]
    fn install_scopes_and_nests() {
        let outer = Obs::new();
        let inner = Obs::new();
        {
            let _g1 = install(&outer);
            count("hits", 1);
            {
                let _g2 = install(&inner);
                count("hits", 10);
            }
            count("hits", 1);
        }
        count("hits", 100); // uninstalled: dropped
        assert_eq!(outer.counter("hits"), 2);
        assert_eq!(inner.counter("hits"), 10);
    }

    #[test]
    fn spans_flow_through_free_fns() {
        let obs = Obs::new();
        let _g = obs.install();
        let root = start(Phase::Migrate, "root", None, SimTime::ZERO);
        let hop = start(Phase::Transfer, "hop", root, SimTime::from_millis(1));
        end(hop, SimTime::from_millis(5));
        end(root, SimTime::from_millis(6));
        drop(_g);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(obs.breakup().transfer.as_millis(), 4);
    }

    #[test]
    fn exports_are_reproducible() {
        let run = || {
            let obs = Obs::new();
            let _g = obs.install();
            count("a", 2);
            observe("lat_us", 1234);
            let s = start(Phase::Serialize, "ser", None, SimTime::from_millis(2));
            end(s, SimTime::from_millis(8));
            (obs.metrics_snapshot(), obs.spans_jsonl())
        };
        assert_eq!(run(), run());
    }
}
