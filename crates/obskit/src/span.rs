//! Span-based structured tracing keyed on [`SimTime`].
//!
//! A [`Span`] is an interval of virtual time attributed to a typed
//! [`Phase`] (the paper's latency-break-up vocabulary: connection,
//! serialization, thread switch, transfer, …) with an optional parent,
//! so per-hop costs nest under their migration and per-query events nest
//! under their query. Ids are assigned 1, 2, 3, … in creation order;
//! because the classic simulation is single-threaded and event-ordered,
//! the id sequence — and hence the JSONL export — is byte-deterministic
//! per seed.

use crate::json::escape_into;
use simkit::{SimDuration, SimTime};
use std::fmt;
use std::fmt::Write as _;

/// Typed phase labels for spans; the first four are the paper's SM
/// latency break-up vocabulary (Sec. 6.2), the rest cover discovery,
/// migration, brokering and the failover lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Phase {
    Connect,
    Serialize,
    ThreadSwitch,
    Transfer,
    Discovery,
    Sdp,
    Migrate,
    Broker,
    Dispatch,
    Admission,
    Failover,
    Suspend,
    Revive,
    Switch,
    Retry,
    Rrc,
    Publish,
    Deliver,
}

impl Phase {
    /// Every phase, in declaration order — the closed taxonomy exporters
    /// iterate over (e.g. benchkit's per-phase break-up capture).
    pub const ALL: [Phase; 18] = [
        Phase::Connect,
        Phase::Serialize,
        Phase::ThreadSwitch,
        Phase::Transfer,
        Phase::Discovery,
        Phase::Sdp,
        Phase::Migrate,
        Phase::Broker,
        Phase::Dispatch,
        Phase::Admission,
        Phase::Failover,
        Phase::Suspend,
        Phase::Revive,
        Phase::Switch,
        Phase::Retry,
        Phase::Rrc,
        Phase::Publish,
        Phase::Deliver,
    ];

    /// Stable snake_case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Connect => "connect",
            Phase::Serialize => "serialize",
            Phase::ThreadSwitch => "thread_switch",
            Phase::Transfer => "transfer",
            Phase::Discovery => "discovery",
            Phase::Sdp => "sdp",
            Phase::Migrate => "migrate",
            Phase::Broker => "broker",
            Phase::Dispatch => "dispatch",
            Phase::Admission => "admission",
            Phase::Failover => "failover",
            Phase::Suspend => "suspend",
            Phase::Revive => "revive",
            Phase::Switch => "switch",
            Phase::Retry => "retry",
            Phase::Rrc => "rrc",
            Phase::Publish => "publish",
            Phase::Deliver => "deliver",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifier of a span; assigned 1, 2, 3, … in creation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One recorded span: a phase-typed interval of virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Deterministic creation-order id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Typed phase label.
    pub phase: Phase,
    /// Free-form label (query id, hop endpoints, mechanism name, …).
    pub label: String,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed; `None` while still open.
    pub end: Option<SimTime>,
}

impl Span {
    /// Duration of a closed span; zero-width events return
    /// `SimDuration::ZERO`, open spans return `None`.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }
}

/// Append-only log of spans with deterministic id assignment: span
/// `n` is always `spans[n - 1]`.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Opens a span and returns its id.
    pub fn start(
        &mut self,
        phase: Phase,
        label: &str,
        parent: Option<SpanId>,
        now: SimTime,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            phase,
            label: label.to_owned(),
            start: now,
            end: None,
        });
        id
    }

    /// Closes a span. Closing an unknown or already-closed span is a
    /// no-op (instrumentation must never panic the middleware).
    pub fn end(&mut self, id: SpanId, now: SimTime) {
        if let Some(span) = slot(id).and_then(|i| self.spans.get_mut(i)) {
            if span.end.is_none() {
                span.end = Some(now.max(span.start));
            }
        }
    }

    /// Records a zero-width event span (`start == end`).
    pub fn event(
        &mut self,
        phase: Phase,
        label: &str,
        parent: Option<SpanId>,
        now: SimTime,
    ) -> SpanId {
        let id = self.start(phase, label, parent, now);
        self.end(id, now);
        id
    }

    /// All spans in id (creation) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of closed-span durations for one phase.
    pub fn phase_total(&self, phase: Phase) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .filter_map(Span::duration)
            .sum()
    }

    /// True if `span` is `root` or transitively parented under it.
    fn is_under(&self, span: &Span, root: SpanId) -> bool {
        let mut cur = Some(span.id);
        let mut hops = 0usize;
        while let Some(id) = cur {
            if id == root {
                return true;
            }
            hops += 1;
            if hops > self.spans.len() {
                return false; // defensive: malformed parent cycle
            }
            cur = slot(id)
                .and_then(|i| self.spans.get(i))
                .and_then(|s| s.parent);
        }
        false
    }

    /// Latency break-up over the whole log.
    pub fn breakup(&self) -> Breakup {
        self.breakup_filtered(|_| true)
    }

    /// Latency break-up restricted to descendants of `root` (the
    /// per-query view: pass the query's or migration's root span).
    pub fn breakup_under(&self, root: SpanId) -> Breakup {
        self.breakup_filtered(|s| self.is_under(s, root))
    }

    fn breakup_filtered(&self, keep: impl Fn(&Span) -> bool) -> Breakup {
        let mut b = Breakup::default();
        for s in self.spans.iter().filter(|s| keep(s)) {
            let Some(d) = s.duration() else { continue };
            match s.phase {
                Phase::Connect => b.connect += d,
                Phase::Serialize => b.serialize += d,
                Phase::ThreadSwitch => b.thread_switch += d,
                Phase::Transfer => b.transfer += d,
                _ => {}
            }
        }
        b
    }

    /// Serializes the log as one JSON object per line, in id order.
    ///
    /// Schema: `{"id":1,"parent":null,"phase":"connect","label":"…",
    /// "start_us":0,"end_us":15000}` with `end_us` null for open spans.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(out, "{{\"id\":{}", s.id.0);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{}", p.0);
                }
                None => out.push_str(",\"parent\":null"),
            }
            let _ = write!(out, ",\"phase\":\"{}\"", s.phase.as_str());
            out.push_str(",\"label\":\"");
            escape_into(&s.label, &mut out);
            out.push('"');
            let _ = write!(out, ",\"start_us\":{}", s.start.as_micros());
            match s.end {
                Some(e) => {
                    let _ = write!(out, ",\"end_us\":{}", e.as_micros());
                }
                None => out.push_str(",\"end_us\":null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Position of span `id` in a [`SpanLog`]; `None` for `SpanId(0)`,
/// which is never assigned.
fn slot(id: SpanId) -> Option<usize> {
    usize::try_from(id.0.checked_sub(1)?).ok()
}

/// The paper's four-way latency break-up: connection, serialization,
/// thread switch, transfer (Sec. 6.2 attributes 4–5 %, 26–33 %,
/// 12–14 % and 51–54 % of SM round-trip latency to these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakup {
    /// Time in [`Phase::Connect`] spans.
    pub connect: SimDuration,
    /// Time in [`Phase::Serialize`] spans.
    pub serialize: SimDuration,
    /// Time in [`Phase::ThreadSwitch`] spans.
    pub thread_switch: SimDuration,
    /// Time in [`Phase::Transfer`] spans.
    pub transfer: SimDuration,
}

impl Breakup {
    /// Sum of the four phase totals.
    pub fn total(&self) -> SimDuration {
        self.connect + self.serialize + self.thread_switch + self.transfer
    }

    /// Share of `phase` in percent (0.0 when the total is zero or the
    /// phase is not one of the four break-up phases).
    pub fn share_pct(&self, phase: Phase) -> f64 {
        let total = self.total().as_micros();
        if total == 0 {
            return 0.0;
        }
        let part = match phase {
            Phase::Connect => self.connect,
            Phase::Serialize => self.serialize,
            Phase::ThreadSwitch => self.thread_switch,
            Phase::Transfer => self.transfer,
            _ => SimDuration::ZERO,
        };
        part.as_micros() as f64 * 100.0 / total as f64
    }

    /// Renders the break-up as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<14} {:>12} {:>8}", "phase", "time", "share");
        for phase in [
            Phase::Connect,
            Phase::Serialize,
            Phase::ThreadSwitch,
            Phase::Transfer,
        ] {
            let d = match phase {
                Phase::Connect => self.connect,
                Phase::Serialize => self.serialize,
                Phase::ThreadSwitch => self.thread_switch,
                _ => self.transfer,
            };
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>7.1}%",
                phase.as_str(),
                d.to_string(),
                self.share_pct(phase)
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>7.1}%",
            "total",
            self.total().to_string(),
            if self.total().is_zero() { 0.0 } else { 100.0 }
        );
        out
    }
}

impl fmt::Display for Breakup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ids_are_sequential_and_stable() {
        let mut log = SpanLog::new();
        let a = log.start(Phase::Connect, "a", None, t(0));
        let b = log.start(Phase::Transfer, "b", Some(a), t(1));
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        log.end(b, t(5));
        log.end(a, t(9));
        assert_eq!(log.spans()[1].duration(), Some(SimDuration::from_millis(4)));
    }

    #[test]
    fn double_end_and_unknown_end_are_noops() {
        let mut log = SpanLog::new();
        let a = log.start(Phase::Connect, "a", None, t(0));
        log.end(a, t(3));
        log.end(a, t(99));
        log.end(SpanId(42), t(1));
        log.end(SpanId(0), t(1));
        assert_eq!(log.spans()[0].end, Some(t(3)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn jsonl_escapes_and_serializes() {
        let mut log = SpanLog::new();
        let a = log.start(Phase::Serialize, "say \"hi\"\n", None, t(1));
        log.end(a, t(2));
        log.start(Phase::Migrate, "open", Some(a), t(3));
        let j = log.export_jsonl();
        let lines: Vec<&str> = j.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":1,\"parent\":null,\"phase\":\"serialize\",\
             \"label\":\"say \\\"hi\\\"\\n\",\"start_us\":1000,\"end_us\":2000}"
        );
        assert!(lines[1].ends_with("\"end_us\":null}"));
        assert!(lines[1].contains("\"parent\":1"));
    }

    #[test]
    fn breakup_sums_only_leaf_phases() {
        let mut log = SpanLog::new();
        let root = log.start(Phase::Migrate, "root", None, t(0));
        let c = log.start(Phase::Connect, "c", Some(root), t(0));
        log.end(c, t(10));
        let x = log.start(Phase::Transfer, "x", Some(root), t(10));
        log.end(x, t(40));
        log.end(root, t(40));
        // A stray span outside the root.
        let s = log.start(Phase::Serialize, "stray", None, t(0));
        log.end(s, t(50));

        let all = log.breakup();
        assert_eq!(all.connect, SimDuration::from_millis(10));
        assert_eq!(all.serialize, SimDuration::from_millis(50));
        let under = log.breakup_under(root);
        assert_eq!(under.serialize, SimDuration::ZERO);
        assert_eq!(under.total(), SimDuration::from_millis(40));
        assert!((under.share_pct(Phase::Transfer) - 75.0).abs() < 1e-9);
        let table = under.table();
        assert!(table.contains("transfer"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
    }
}
