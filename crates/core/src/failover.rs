//! Failure detection, retry accounting and the [`FailoverReport`].
//!
//! The paper's Fig. 5 shows the middleware switching a location query
//! from a BT-GPS stream to ad hoc provisioning and back. This module adds
//! the bookkeeping needed to *measure* such failovers: per query, when
//! failures were detected, which mechanisms were tried, how long the
//! delivery gap lasted and roughly how many periodic items were lost.
//! The [`FailoverTracker`] is fed by the `ContextFactory` and surfaced
//! through the `ResourcesMonitor`, so failure-scenario tests and the
//! Fig. 5 bench can assert recovery SLOs without instrumenting clients.

#![deny(warnings)]

use crate::backoff::BackoffPolicy;
use crate::factory::{Mechanism, QueryId};
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Tunables for failure detection and retry behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailoverConfig {
    /// Same-mechanism retries (with backoff) before a failing mechanism
    /// is declared failed and the query moves to the next candidate.
    /// `0` = fail over immediately (the seed behaviour).
    pub max_retries: u32,
    /// Delay schedule between same-mechanism retries.
    pub backoff: BackoffPolicy,
    /// Watchdog: a periodic query that delivers nothing for this many
    /// consecutive periods is declared failed on its current mechanism.
    /// `0` disables the watchdog.
    pub silence_periods: u32,
}

/// Per-query failover record (a row of the [`FailoverReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryFailover {
    /// When the query was submitted.
    pub submitted_at: SimTime,
    /// Delivery period, for item-loss estimation (periodic queries).
    pub period: Option<SimDuration>,
    /// Mechanisms that served the query, in order (consecutive
    /// duplicates collapsed): the failover trail.
    pub mechanisms_tried: Vec<Mechanism>,
    /// Failure events detected (provider errors + watchdog timeouts).
    pub failures: u32,
    /// Same-mechanism retries spent.
    pub retries: u32,
    /// Successful mechanism switches.
    pub switches: u32,
    /// When the first failure was detected.
    pub first_failure_at: Option<SimTime>,
    /// When the most recent failure was detected.
    pub last_failure_at: Option<SimTime>,
    /// Total time spent between a detected failure and the next
    /// delivery (or query end): the provisioning blackout.
    pub gap_total: SimDuration,
    /// Longest single blackout.
    pub gap_max: SimDuration,
    /// Items delivered to the client.
    pub items_delivered: u64,
    /// Estimated periodic items lost to blackouts (`gap / period`).
    pub items_lost_estimate: u64,
    /// Times the query was suspended (all mechanisms failed).
    pub suspensions: u32,
    /// Whether the query is currently suspended.
    pub suspended: bool,
    /// Start of the currently open blackout, if any.
    pub open_gap_since: Option<SimTime>,
    /// Most recent activity (submit, delivery or switch) — what the
    /// silence watchdog measures against.
    pub last_activity: SimTime,
}

impl QueryFailover {
    fn new(now: SimTime, mechanism: Mechanism, period: Option<SimDuration>) -> Self {
        QueryFailover {
            submitted_at: now,
            period,
            mechanisms_tried: vec![mechanism],
            failures: 0,
            retries: 0,
            switches: 0,
            first_failure_at: None,
            last_failure_at: None,
            gap_total: SimDuration::ZERO,
            gap_max: SimDuration::ZERO,
            items_delivered: 0,
            items_lost_estimate: 0,
            suspensions: 0,
            suspended: false,
            open_gap_since: None,
            last_activity: now,
        }
    }

    fn close_gap(&mut self, now: SimTime) {
        if let Some(since) = self.open_gap_since.take() {
            let gap = now.since(since);
            self.gap_total += gap;
            self.gap_max = self.gap_max.max(gap);
            if let Some(p) = self.period {
                if !p.is_zero() {
                    self.items_lost_estimate += gap.as_micros() / p.as_micros().max(1);
                }
            }
        }
    }
}

/// Snapshot of every tracked query's failover history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailoverReport {
    /// Per-query rows, including finished queries.
    pub queries: BTreeMap<QueryId, QueryFailover>,
}

impl FailoverReport {
    /// The row for one query.
    pub fn get(&self, id: QueryId) -> Option<&QueryFailover> {
        self.queries.get(&id)
    }

    /// Total blackout time across all queries.
    pub fn total_gap(&self) -> SimDuration {
        self.queries
            .values()
            .fold(SimDuration::ZERO, |acc, q| acc + q.gap_total)
    }

    /// Total failures detected across all queries.
    pub fn total_failures(&self) -> u64 {
        self.queries.values().map(|q| u64::from(q.failures)).sum()
    }

    /// Total mechanism switches across all queries.
    pub fn total_switches(&self) -> u64 {
        self.queries.values().map(|q| u64::from(q.switches)).sum()
    }
}

impl fmt::Display for FailoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "failover report: {} queries, {} failures, {} switches, {:.1}s total gap",
            self.queries.len(),
            self.total_failures(),
            self.total_switches(),
            self.total_gap().as_secs_f64()
        )?;
        for (id, q) in &self.queries {
            let trail: Vec<String> = q.mechanisms_tried.iter().map(|m| m.to_string()).collect();
            writeln!(
                f,
                "  {id}: {} | failures={} retries={} gap={:.1}s (max {:.1}s) \
                 items={} lost~{}{}",
                trail.join(" -> "),
                q.failures,
                q.retries,
                q.gap_total.as_secs_f64(),
                q.gap_max.as_secs_f64(),
                q.items_delivered,
                q.items_lost_estimate,
                if q.suspended { " [suspended]" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// Shared failover bookkeeping handle (cheap to clone).
#[derive(Clone, Default)]
pub struct FailoverTracker {
    inner: Rc<RefCell<BTreeMap<QueryId, QueryFailover>>>,
    /// Open obskit blackout spans, one per query with an open gap. Span
    /// ids are allocated in creation order, so per-seed runs produce
    /// identical id sequences.
    gap_spans: Rc<RefCell<BTreeMap<QueryId, obskit::SpanId>>>,
}

impl FailoverTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        FailoverTracker::default()
    }

    /// A query was assigned to a mechanism. The first call creates the
    /// row; later calls record a switch (or a same-mechanism re-start)
    /// and clear any suspension.
    pub fn assigned(&self, id: QueryId, mechanism: Mechanism, now: SimTime) {
        let mut inner = self.inner.borrow_mut();
        match inner.get_mut(&id) {
            Some(q) => {
                q.switches += 1;
                q.suspended = false;
                q.last_activity = now;
                if q.mechanisms_tried.last() != Some(&mechanism) {
                    q.mechanisms_tried.push(mechanism);
                }
            }
            None => {
                inner.insert(id, QueryFailover::new(now, mechanism, None));
            }
        }
    }

    /// Records the query's delivery period for item-loss estimation.
    pub fn set_period(&self, id: QueryId, period: Option<SimDuration>) {
        if let Some(q) = self.inner.borrow_mut().get_mut(&id) {
            q.period = period;
        }
    }

    /// Items reached the client: closes any open blackout.
    pub fn delivered(&self, id: QueryId, items: u64, now: SimTime) {
        if let Some(q) = self.inner.borrow_mut().get_mut(&id) {
            q.close_gap(now);
            q.items_delivered += items;
            q.last_activity = now;
        }
        self.end_gap_span(id, now);
    }

    /// A failure was detected on `mechanism`: opens a blackout if none
    /// is already open.
    pub fn failure(&self, id: QueryId, mechanism: Mechanism, now: SimTime) {
        let opened = {
            let mut inner = self.inner.borrow_mut();
            let q = inner
                .entry(id)
                .or_insert_with(|| QueryFailover::new(now, mechanism, None));
            q.failures += 1;
            q.first_failure_at.get_or_insert(now);
            q.last_failure_at = Some(now);
            if q.open_gap_since.is_none() {
                q.open_gap_since = Some(now);
                true
            } else {
                false
            }
        };
        if opened {
            self.open_gap_span(id, now);
        }
    }

    /// A same-mechanism retry was scheduled.
    pub fn retried(&self, id: QueryId) {
        if let Some(q) = self.inner.borrow_mut().get_mut(&id) {
            q.retries += 1;
        }
    }

    /// All mechanisms failed: the query is parked until a probe revives
    /// it. The blackout stays open.
    pub fn suspended(&self, id: QueryId, now: SimTime) {
        let opened = {
            let mut inner = self.inner.borrow_mut();
            let Some(q) = inner.get_mut(&id) else {
                return;
            };
            q.suspensions += 1;
            q.suspended = true;
            q.last_failure_at = Some(now);
            if q.open_gap_since.is_none() {
                q.open_gap_since = Some(now);
                true
            } else {
                false
            }
        };
        if opened {
            self.open_gap_span(id, now);
        }
    }

    /// The query ended (expiry, budget, cancel or termination): closes
    /// any open blackout. The row is kept for reporting.
    pub fn finished(&self, id: QueryId, now: SimTime) {
        if let Some(q) = self.inner.borrow_mut().get_mut(&id) {
            q.close_gap(now);
            q.suspended = false;
        }
        self.end_gap_span(id, now);
    }

    /// Opens the obskit blackout span for a query's provisioning gap.
    fn open_gap_span(&self, id: QueryId, now: SimTime) {
        if let Some(span) = obskit::start(obskit::Phase::Failover, &format!("gap:{id}"), None, now)
        {
            self.gap_spans.borrow_mut().insert(id, span);
        }
    }

    /// Ends the blackout span, if one is open.
    fn end_gap_span(&self, id: QueryId, now: SimTime) {
        let span = self.gap_spans.borrow_mut().remove(&id);
        obskit::end(span, now);
    }

    /// Most recent activity timestamp for the silence watchdog.
    pub fn last_activity(&self, id: QueryId) -> Option<SimTime> {
        self.inner.borrow().get(&id).map(|q| q.last_activity)
    }

    /// Snapshot of all rows (open blackouts are reported as accrued up
    /// to `now`).
    pub fn report_at(&self, now: SimTime) -> FailoverReport {
        let mut queries = self.inner.borrow().clone();
        for q in queries.values_mut() {
            if let Some(since) = q.open_gap_since {
                let gap = now.since(since);
                q.gap_total += gap;
                q.gap_max = q.gap_max.max(gap);
                if let Some(p) = q.period {
                    if !p.is_zero() {
                        q.items_lost_estimate += gap.as_micros() / p.as_micros().max(1);
                    }
                }
                q.open_gap_since = None;
            }
        }
        FailoverReport { queries }
    }
}

impl fmt::Debug for FailoverTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailoverTracker")
            .field("queries", &self.inner.borrow().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn gap_accrues_between_failure_and_next_delivery() {
        let tr = FailoverTracker::new();
        let id = QueryId(1);
        tr.assigned(id, Mechanism::IntSensor, t(0));
        tr.set_period(id, Some(SimDuration::from_secs(5)));
        tr.delivered(id, 3, t(10));
        tr.failure(id, Mechanism::IntSensor, t(20));
        tr.assigned(id, Mechanism::AdHocBt, t(21));
        tr.delivered(id, 1, t(35));
        let r = tr.report_at(t(40));
        let q = r.get(id).unwrap();
        assert_eq!(q.gap_total, SimDuration::from_secs(15));
        assert_eq!(q.gap_max, SimDuration::from_secs(15));
        assert_eq!(q.items_delivered, 4);
        assert_eq!(q.items_lost_estimate, 3); // 15s gap / 5s period
        assert_eq!(
            q.mechanisms_tried,
            vec![Mechanism::IntSensor, Mechanism::AdHocBt]
        );
        assert_eq!(q.failures, 1);
        assert_eq!(q.switches, 1);
        assert_eq!(q.first_failure_at, Some(t(20)));
    }

    #[test]
    fn open_gap_is_reported_up_to_now_without_mutating_state() {
        let tr = FailoverTracker::new();
        let id = QueryId(2);
        tr.assigned(id, Mechanism::Infra, t(0));
        tr.failure(id, Mechanism::Infra, t(100));
        let r1 = tr.report_at(t(130));
        assert_eq!(r1.get(id).unwrap().gap_total, SimDuration::from_secs(30));
        let r2 = tr.report_at(t(160));
        assert_eq!(r2.get(id).unwrap().gap_total, SimDuration::from_secs(60));
        // Closing at delivery uses the real timestamps.
        tr.delivered(id, 1, t(200));
        let r3 = tr.report_at(t(999));
        assert_eq!(r3.get(id).unwrap().gap_total, SimDuration::from_secs(100));
    }

    #[test]
    fn repeated_failures_keep_one_open_gap() {
        let tr = FailoverTracker::new();
        let id = QueryId(3);
        tr.assigned(id, Mechanism::AdHocBt, t(0));
        tr.failure(id, Mechanism::AdHocBt, t(10));
        tr.retried(id);
        tr.failure(id, Mechanism::AdHocBt, t(15));
        tr.failure(id, Mechanism::AdHocWifi, t(20));
        tr.delivered(id, 1, t(30));
        let q = tr.report_at(t(30)).get(id).unwrap().clone();
        assert_eq!(q.failures, 3);
        assert_eq!(q.retries, 1);
        assert_eq!(q.gap_total, SimDuration::from_secs(20));
    }

    #[test]
    fn suspension_and_finish_round_trip() {
        let tr = FailoverTracker::new();
        let id = QueryId(4);
        tr.assigned(id, Mechanism::Infra, t(0));
        tr.set_period(id, Some(SimDuration::from_secs(10)));
        tr.failure(id, Mechanism::Infra, t(50));
        tr.suspended(id, t(50));
        assert!(tr.report_at(t(60)).get(id).unwrap().suspended);
        tr.assigned(id, Mechanism::Infra, t(120));
        assert!(!tr.report_at(t(120)).get(id).unwrap().suspended);
        tr.delivered(id, 1, t(125));
        tr.finished(id, t(200));
        let q = tr.report_at(t(999)).get(id).unwrap().clone();
        assert_eq!(q.suspensions, 1);
        assert_eq!(q.gap_total, SimDuration::from_secs(75));
        assert_eq!(q.items_lost_estimate, 7);
    }

    #[test]
    fn report_totals_and_display() {
        let tr = FailoverTracker::new();
        tr.assigned(QueryId(1), Mechanism::IntSensor, t(0));
        tr.failure(QueryId(1), Mechanism::IntSensor, t(5));
        tr.assigned(QueryId(1), Mechanism::AdHocBt, t(6));
        tr.delivered(QueryId(1), 1, t(8));
        tr.assigned(QueryId(2), Mechanism::Infra, t(0));
        let r = tr.report_at(t(10));
        assert_eq!(r.total_failures(), 1);
        assert_eq!(r.total_switches(), 1);
        assert_eq!(r.total_gap(), SimDuration::from_secs(3));
        let text = r.to_string();
        assert!(text.contains("q1"), "{text}");
        assert!(text.contains("intSensor -> adHocNetwork/BT"), "{text}");
    }

    #[test]
    fn last_activity_tracks_submit_delivery_and_switch() {
        let tr = FailoverTracker::new();
        let id = QueryId(7);
        tr.assigned(id, Mechanism::IntSensor, t(1));
        assert_eq!(tr.last_activity(id), Some(t(1)));
        tr.delivered(id, 1, t(9));
        assert_eq!(tr.last_activity(id), Some(t(9)));
        tr.failure(id, Mechanism::IntSensor, t(12));
        assert_eq!(tr.last_activity(id), Some(t(9)), "failure is not activity");
        tr.assigned(id, Mechanism::Infra, t(14));
        assert_eq!(tr.last_activity(id), Some(t(14)));
    }
}
