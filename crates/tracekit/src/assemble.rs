//! Trace-tree assembly, critical paths and the latency break-up table.
//!
//! Assembly is pure and deterministic: events are taken in
//! [`TraceLog::canonical_events`] order and parent links are accepted
//! only when the parent sorts strictly earlier than the child, so the
//! result is always a forest in which **a parent precedes its child in
//! sim time** — even if the input stream is adversarial (orphaned
//! parents, duplicate span ids, unsampled upstream hops). Orphans
//! simply become roots; no event is ever dropped or duplicated.

use crate::log::{Stage, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One assembled hop with its tree links (indices into
/// [`TraceTree::nodes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    /// The underlying hop event.
    pub event: TraceEvent,
    /// Index of the causal parent, if it was observed.
    pub parent: Option<usize>,
    /// Indices of observed children, in canonical order.
    pub children: Vec<usize>,
}

/// All observed hops of one trace, assembled into a forest (a single
/// tree when every hop was sampled and recorded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    /// Trace identity.
    pub trace_id: u64,
    /// Hops in canonical (time/pipeline) order.
    pub nodes: Vec<TraceNode>,
}

/// One end-to-end delivery inside a trace: the critical path from the
/// earliest observed ancestor down to a `deliver` hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Index of the `deliver` node in [`TraceTree::nodes`].
    pub deliver: usize,
    /// End-to-end latency along the path, in µs.
    pub latency_us: u64,
    /// Node indices from root to the delivering hop.
    pub path: Vec<usize>,
}

impl TraceTree {
    /// First observed instant of the trace, in µs.
    pub fn start_us(&self) -> u64 {
        self.nodes.first().map_or(0, |n| n.event.at.as_micros())
    }

    /// Last observed instant of the trace, in µs.
    pub fn end_us(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.event.at.as_micros())
            .max()
            .unwrap_or(0)
    }

    /// Every delivery's critical path (root → `deliver`), in canonical
    /// order of the delivering hop.
    pub fn deliveries(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.event.stage != Stage::Deliver {
                continue;
            }
            let mut path = vec![i];
            let mut cur = i;
            while let Some(p) = self.nodes.get(cur).and_then(|n| n.parent) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            let root_at = self.nodes.get(path.first().copied().unwrap_or(i));
            let latency_us = node
                .event
                .at
                .as_micros()
                .saturating_sub(root_at.map_or(0, |r| r.event.at.as_micros()));
            out.push(Delivery {
                deliver: i,
                latency_us,
                path,
            });
        }
        out
    }
}

/// Reconstructs every trace in the log as a tree (forest), in
/// ascending trace-id order.
pub fn assemble(log: &TraceLog) -> Vec<TraceTree> {
    let events = log.canonical_events();
    let mut trees: Vec<TraceTree> = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let trace_id = match events.get(start) {
            Some(ev) => ev.trace_id,
            None => break,
        };
        let mut end = start;
        while events.get(end).is_some_and(|ev| ev.trace_id == trace_id) {
            end += 1;
        }
        let slice = events.get(start..end).unwrap_or(&[]);
        // First occurrence of each span id wins; later duplicates still
        // become nodes, they just can't be linked to as parents.
        let mut by_span: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, ev) in slice.iter().enumerate() {
            by_span.entry(ev.span).or_insert(i);
        }
        let mut nodes: Vec<TraceNode> = slice
            .iter()
            .map(|ev| TraceNode {
                event: *ev,
                parent: None,
                children: Vec::new(),
            })
            .collect();
        for i in 0..nodes.len() {
            let parent_span = nodes.get(i).map_or(0, |n| n.event.parent);
            if parent_span == 0 {
                continue;
            }
            // Accept the link only when the parent sorts strictly
            // earlier: canonical order is time-major, so this enforces
            // "parent precedes child in sim time" and rules out cycles.
            let Some(&j) = by_span.get(&parent_span) else {
                continue;
            };
            if j >= i {
                continue;
            }
            if let Some(n) = nodes.get_mut(i) {
                n.parent = Some(j);
            }
            if let Some(p) = nodes.get_mut(j) {
                p.children.push(i);
            }
        }
        trees.push(TraceTree { trace_id, nodes });
        start = end;
    }
    trees
}

/// Per-stage row of the break-up table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Total µs attributed to reaching this stage from its parent,
    /// summed over every delivery critical path.
    pub us: u64,
    /// Path segments folded into `us`.
    pub samples: u64,
}

/// The broker-side latency break-up: every delivery critical path
/// decomposed into "time to reach stage X from its parent" buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakup {
    stages: BTreeMap<&'static str, StageCost>,
    latencies_us: Vec<u64>,
    total_us: u64,
}

impl Breakup {
    /// Folds every delivery of every tree into the table.
    pub fn of(trees: &[TraceTree]) -> Breakup {
        let mut b = Breakup::default();
        for tree in trees {
            for d in tree.deliveries() {
                for pair in d.path.windows(2) {
                    let (Some(&pi), Some(&ci)) = (pair.first(), pair.get(1)) else {
                        continue;
                    };
                    let (Some(p), Some(c)) = (tree.nodes.get(pi), tree.nodes.get(ci)) else {
                        continue;
                    };
                    let dt = c
                        .event
                        .at
                        .as_micros()
                        .saturating_sub(p.event.at.as_micros());
                    let row = b.stages.entry(c.event.stage.as_str()).or_default();
                    row.us += dt;
                    row.samples += 1;
                    b.total_us += dt;
                }
                b.latencies_us.push(d.latency_us);
            }
        }
        b.latencies_us.sort_unstable();
        b
    }

    /// Deliveries folded in.
    pub fn deliveries(&self) -> u64 {
        self.latencies_us.len() as u64
    }

    /// Total µs across all paths and stages.
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// A stage's cost row (zero row if the stage never appeared).
    pub fn stage(&self, stage: Stage) -> StageCost {
        self.stages.get(stage.as_str()).copied().unwrap_or_default()
    }

    /// A stage's share of the total, in per-mille (integer math — no
    /// float ordering anywhere near the determinism gates).
    pub fn share_pm(&self, stage: Stage) -> u64 {
        self.per_mille(self.stage(stage).us)
    }

    /// `us` as a per-mille share of the total (0 when the total is 0).
    fn per_mille(&self, us: u64) -> u64 {
        (us * 1000).checked_div(self.total_us).unwrap_or(0)
    }

    /// End-to-end latency quantile over all deliveries, in µs
    /// (nearest-rank; 0 when empty).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let n = self.latencies_us.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_us.get(rank - 1).copied().unwrap_or(0)
    }

    /// Renders the human table (stage, total µs, share, samples).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>7} {:>9}",
            "stage", "total_us", "share", "samples"
        );
        for (name, row) in &self.stages {
            let pm = self.per_mille(row.us);
            let _ = writeln!(
                out,
                "{:<10} {:>12} {:>4}.{}% {:>9}",
                name,
                row.us,
                pm / 10,
                pm % 10,
                row.samples
            );
        }
        let _ = writeln!(
            out,
            "{:<10} {:>12} 100.0% {:>9}",
            "total",
            self.total_us,
            self.deliveries()
        );
        out
    }

    /// Renders the deterministic JSON export (schema
    /// `contory-trace-breakup/1`; integers only, keys sorted).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"contory-trace-breakup/1\",\"deliveries\":{},\
             \"latency_us_total\":{},\"latency_us_p50\":{},\"latency_us_p99\":{},\
             \"stages\":{{",
            self.deliveries(),
            self.total_us,
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.99),
        );
        let mut first = true;
        for (name, row) in &self.stages {
            if !first {
                out.push(',');
            }
            first = false;
            let pm = self.per_mille(row.us);
            let _ = write!(
                out,
                "\"{name}\":{{\"us\":{},\"share_pm\":{pm},\"samples\":{}}}",
                row.us, row.samples
            );
        }
        out.push_str("}}");
        out
    }
}

/// A compact per-trace row for the live `TRACE` ops request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace identity.
    pub trace_id: u64,
    /// Observed hop events.
    pub spans: u64,
    /// First observed instant, µs.
    pub start_us: u64,
    /// Last observed instant, µs.
    pub end_us: u64,
    /// Deliveries observed.
    pub deliveries: u64,
    /// Worst end-to-end delivery latency, µs.
    pub worst_latency_us: u64,
}

impl TraceSummary {
    /// The single-line wire rendering.
    pub fn line(&self) -> String {
        format!(
            "trace={:016x} spans={} start_us={} end_us={} deliveries={} worst_us={}",
            self.trace_id,
            self.spans,
            self.start_us,
            self.end_us,
            self.deliveries,
            self.worst_latency_us
        )
    }
}

/// The `limit` most recent trace summaries (latest last-activity
/// first; trace id breaks ties for determinism).
pub fn summaries(log: &TraceLog, limit: usize) -> Vec<TraceSummary> {
    let mut rows: Vec<TraceSummary> = assemble(log)
        .iter()
        .map(|tree| {
            let deliveries = tree.deliveries();
            TraceSummary {
                trace_id: tree.trace_id,
                spans: tree.nodes.len() as u64,
                start_us: tree.start_us(),
                end_us: tree.end_us(),
                deliveries: deliveries.len() as u64,
                worst_latency_us: deliveries.iter().map(|d| d.latency_us).max().unwrap_or(0),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.end_us.cmp(&a.end_us).then(a.trace_id.cmp(&b.trace_id)));
    rows.truncate(limit);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TraceCtx;
    use simkit::{SimDuration, SimTime};

    /// publish(dev) → admit/enqueue(b1) → dispatch(b1) → {deliver(sub),
    /// federate(b1) → admit/enqueue(b2) → dispatch(b2) → deliver(sub2)}
    fn two_hop_log() -> TraceLog {
        let mut log = TraceLog::new();
        let ms = SimDuration::from_millis;
        let t0 = SimTime::from_secs(5);
        let root = TraceCtx::root(99, 0);
        let p = log.record(root, Stage::Publish, 1000, t0);
        let a = log.record(root.child(p), Stage::Admit, 1, t0 + ms(2));
        let e = log.record(root.child(a), Stage::Enqueue, 1, t0 + ms(2));
        let d = log.record(root.child(e), Stage::Dispatch, 1, t0 + ms(40));
        log.record(root.child(d), Stage::Deliver, 2000, t0 + ms(45));
        let f = log.record(root.child(d), Stage::Federate, 1, t0 + ms(40));
        let fwd = root.hopped(f);
        let a2 = log.record(fwd, Stage::Admit, 2, t0 + ms(50));
        let e2 = log.record(fwd.child(a2), Stage::Enqueue, 2, t0 + ms(50));
        let d2 = log.record(fwd.child(e2), Stage::Dispatch, 2, t0 + ms(90));
        log.record(fwd.child(d2), Stage::Deliver, 2001, t0 + ms(95));
        log
    }

    #[test]
    fn assembly_conserves_spans_and_orders_parents() {
        let log = two_hop_log();
        let trees = assemble(&log);
        assert_eq!(trees.len(), 1);
        let tree = trees.first().unwrap();
        assert_eq!(tree.nodes.len(), log.len());
        let roots = tree.nodes.iter().filter(|n| n.parent.is_none()).count();
        assert_eq!(roots, 1, "fully sampled trace assembles to one tree");
        for (i, n) in tree.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i);
                let pat = tree.nodes.get(p).unwrap().event.at;
                assert!(pat <= n.event.at, "parent must precede child");
            }
        }
    }

    #[test]
    fn critical_paths_cover_both_deliveries() {
        let log = two_hop_log();
        let trees = assemble(&log);
        let tree = trees.first().unwrap();
        let ds = tree.deliveries();
        assert_eq!(ds.len(), 2);
        let local = ds.first().unwrap();
        let remote = ds.get(1).unwrap();
        assert_eq!(local.latency_us, 45_000);
        assert_eq!(remote.latency_us, 95_000);
        // Remote path crosses the federation hop.
        let stages: Vec<Stage> = remote
            .path
            .iter()
            .filter_map(|&i| tree.nodes.get(i).map(|n| n.event.stage))
            .collect();
        assert_eq!(
            stages,
            vec![
                Stage::Publish,
                Stage::Admit,
                Stage::Enqueue,
                Stage::Dispatch,
                Stage::Federate,
                Stage::Admit,
                Stage::Enqueue,
                Stage::Dispatch,
                Stage::Deliver
            ]
        );
    }

    #[test]
    fn breakup_accounts_every_microsecond() {
        let log = two_hop_log();
        let b = Breakup::of(&assemble(&log));
        assert_eq!(b.deliveries(), 2);
        let stage_sum: u64 = Stage::ALL.iter().map(|s| b.stage(*s).us).sum();
        assert_eq!(stage_sum, b.total_us());
        // total = 45ms (local) + 95ms (remote) path time.
        assert_eq!(b.total_us(), 140_000);
        assert_eq!(b.latency_quantile_us(0.50), 45_000);
        assert_eq!(b.latency_quantile_us(0.99), 95_000);
        let json = b.to_json();
        assert!(json.starts_with("{\"schema\":\"contory-trace-breakup/1\""));
        // Dispatch wait is charged per delivery path: 38 ms on the
        // local path plus 38 ms + 40 ms on the federated one.
        assert!(json.contains("\"dispatch\":{\"us\":116000"));
        assert!(b.table().contains("total"));
    }

    #[test]
    fn orphaned_parent_becomes_root() {
        let mut log = TraceLog::new();
        // An active ctx claiming a parent span nobody recorded
        // (e.g. the upstream hop pre-dates the log window).
        let ctx = TraceCtx {
            parent_span: 777,
            ..TraceCtx::root(3, 0)
        };
        log.record(ctx, Stage::Dispatch, 1, SimTime::from_secs(1));
        let trees = assemble(&log);
        assert_eq!(trees.first().unwrap().nodes.first().unwrap().parent, None);
    }

    #[test]
    fn summaries_are_recent_first_and_bounded() {
        let mut log = two_hop_log();
        let other = TraceCtx::root(123, 0);
        log.record(other, Stage::Publish, 1, SimTime::from_secs(99));
        let rows = summaries(&log, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.first().unwrap().end_us, 99_000_000);
        assert_eq!(rows.get(1).unwrap().deliveries, 2);
        assert!(rows.first().unwrap().line().starts_with("trace="));
        assert_eq!(summaries(&log, 1).len(), 1);
    }
}
