//! Hop-event logs: the raw material traces are assembled from.
//!
//! A [`TraceLog`] is a plain `Vec` of [`TraceEvent`]s — `Send`, cheap
//! to merge, and deliberately *not* the thread-local obskit collector:
//! shard-parallel actors (fleet brokers, devices) each own a log and
//! record into it as they process events, and the harness folds the
//! logs **in actor-id order** after the run. Each node's recording
//! order is a pure function of the seed, so the folded stream — and
//! its JSONL export, which additionally canonicalises the order — is
//! byte-identical across shard and thread counts.

use crate::ctx::TraceCtx;
use simkit::hash::{fnv1a, mix64, FNV_OFFSET};
use simkit::SimTime;
use std::fmt;
use std::fmt::Write as _;

/// The pipeline stage a hop event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The device handed the item to its uplink.
    Publish,
    /// A broker accepted the packet past admission control.
    Admit,
    /// Admission refused the packet (shed/hygiene).
    Shed,
    /// The packet entered the broker's bounded inbox.
    Enqueue,
    /// A drain cycle picked the packet up for fan-out.
    Dispatch,
    /// The packet was forwarded to a federation peer.
    Federate,
    /// A load digest hop on the gossip plane.
    Gossip,
    /// The packet reached a subscriber endpoint.
    Deliver,
    /// A federation forward was re-sent after an ack timeout.
    Retry,
    /// The dedup window suppressed an already-seen sequence number.
    DupSuppress,
    /// A crashed broker came back up and re-entered the federation.
    Recover,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 11] = [
        Stage::Publish,
        Stage::Admit,
        Stage::Shed,
        Stage::Enqueue,
        Stage::Dispatch,
        Stage::Federate,
        Stage::Gossip,
        Stage::Deliver,
        Stage::Retry,
        Stage::DupSuppress,
        Stage::Recover,
    ];

    /// Stable snake_case name (export vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Publish => "publish",
            Stage::Admit => "admit",
            Stage::Shed => "shed",
            Stage::Enqueue => "enqueue",
            Stage::Dispatch => "dispatch",
            Stage::Federate => "federate",
            Stage::Gossip => "gossip",
            Stage::Deliver => "deliver",
            Stage::Retry => "retry",
            Stage::DupSuppress => "dup_suppress",
            Stage::Recover => "recover",
        }
    }

    /// Parses an export name back.
    pub fn from_str(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Pipeline position used for canonical ordering of same-instant
    /// events (publish before admit before enqueue …).
    pub fn rank(self) -> u8 {
        match self {
            Stage::Publish => 0,
            Stage::Admit | Stage::Shed => 1,
            Stage::Enqueue => 2,
            Stage::Dispatch => 3,
            Stage::Federate | Stage::Gossip | Stage::Retry | Stage::Recover => 4,
            Stage::Deliver => 5,
            Stage::DupSuppress => 1,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hop event inside a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace identity.
    pub trace_id: u64,
    /// This event's span id (unique within the trace w.h.p. — derived
    /// by hashing `(trace, node, seq)`, no cross-node coordination).
    pub span: u32,
    /// Causal parent's span id (0 ⇒ root).
    pub parent: u32,
    /// Pipeline stage.
    pub stage: Stage,
    /// Recording node (broker id, or a device id in the harness's
    /// node namespace).
    pub node: u64,
    /// Federation hop count at recording time.
    pub hop: u8,
    /// Sim instant of the event.
    pub at: SimTime,
}

impl TraceEvent {
    /// Canonical sort key: trace, then time, then pipeline position.
    fn key(&self) -> (u64, u64, u8, u8, u64, u32) {
        (
            self.trace_id,
            self.at.as_micros(),
            self.hop,
            self.stage.rank(),
            self.node,
            self.span,
        )
    }
}

/// An append-only, mergeable log of hop events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    seq: u32,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Records a hop event for an active context and returns its span
    /// id (for re-parenting the propagated context). Inactive contexts
    /// record nothing and return 0.
    pub fn record(&mut self, ctx: TraceCtx, stage: Stage, node: u64, at: SimTime) -> u32 {
        if !ctx.is_active() {
            return 0;
        }
        self.seq = self.seq.wrapping_add(1);
        // `| 1` keeps real span ids distinct from the 0 root marker.
        let span =
            (mix64(ctx.trace_id ^ node.rotate_left(24) ^ u64::from(self.seq)) as u32) | 1;
        self.events.push(TraceEvent {
            trace_id: ctx.trace_id,
            span,
            parent: ctx.parent_span,
            stage,
            node,
            hop: ctx.hop,
            at,
        });
        span
    }

    /// Appends `other`'s events (the harness folds per-actor logs in
    /// actor-id order, which keeps the merged stream deterministic).
    pub fn merge(&mut self, other: &TraceLog) {
        self.events.extend_from_slice(&other.events);
    }

    /// All recorded events, in recording/merge order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded hop events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events in canonical order (trace, time, pipeline position) —
    /// the order the JSONL export and the assembler use, so exports
    /// are identical however the per-actor logs were folded.
    pub fn canonical_events(&self) -> Vec<TraceEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(TraceEvent::key);
        evs
    }

    /// Renders the canonical JSONL export (schema `contory-trace/1`):
    /// one object per hop event, keys in a fixed order.
    ///
    /// ```json
    /// {"trace":"00000000000000ab","span":3,"parent":0,"stage":"admit","node":1,"hop":0,"at_us":2000}
    /// ```
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.canonical_events() {
            let _ = writeln!(
                out,
                "{{\"trace\":\"{:016x}\",\"span\":{},\"parent\":{},\"stage\":\"{}\",\
                 \"node\":{},\"hop\":{},\"at_us\":{}}}",
                ev.trace_id,
                ev.span,
                ev.parent,
                ev.stage,
                ev.node,
                ev.hop,
                ev.at.as_micros(),
            );
        }
        out
    }

    /// FNV-1a digest of the canonical export — the compact byte-identity
    /// witness determinism transcripts embed.
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.export_jsonl().as_bytes())
    }

    /// Parses a `contory-trace/1` JSONL stream back into a log
    /// (round-trip partner of [`TraceLog::export_jsonl`]).
    pub fn parse_jsonl(text: &str) -> Result<TraceLog, TraceError> {
        let mut log = TraceLog::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |detail: &str| TraceError::BadLine {
                line: i + 1,
                detail: detail.to_owned(),
            };
            if !(line.starts_with('{') && line.ends_with('}')) {
                return Err(bad("not one JSON object"));
            }
            let trace_hex = field_str(line, "trace").ok_or_else(|| bad("missing trace"))?;
            let trace_id =
                u64::from_str_radix(trace_hex, 16).map_err(|_| bad("bad trace id"))?;
            let stage_name = field_str(line, "stage").ok_or_else(|| bad("missing stage"))?;
            let stage = Stage::from_str(stage_name).ok_or_else(|| bad("unknown stage"))?;
            let span = field_u64(line, "span").ok_or_else(|| bad("missing span"))?;
            let span = u32::try_from(span).map_err(|_| bad("span out of range"))?;
            let parent = field_u64(line, "parent").ok_or_else(|| bad("missing parent"))?;
            let parent = u32::try_from(parent).map_err(|_| bad("parent out of range"))?;
            let node = field_u64(line, "node").ok_or_else(|| bad("missing node"))?;
            let hop = field_u64(line, "hop").ok_or_else(|| bad("missing hop"))?;
            let hop = u8::try_from(hop).map_err(|_| bad("hop out of range"))?;
            let at_us = field_u64(line, "at_us").ok_or_else(|| bad("missing at_us"))?;
            log.events.push(TraceEvent {
                trace_id,
                span,
                parent,
                stage,
                node,
                hop,
                at: SimTime::from_micros(at_us),
            });
        }
        Ok(log)
    }
}

/// Why a JSONL stream could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A line was malformed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadLine { line, detail } => {
                write!(f, "trace jsonl line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Extracts the string value of `"key":"…"` from a flat JSON line,
/// honouring backslash escapes (returns the raw escaped slice).
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return rest.get(..i),
            _ => i += 1,
        }
    }
    None
}

/// Extracts the numeric value of `"key":123` from a flat JSON line. The
/// value must be all digits up to the next `,` or `}`, so `2000.75` or
/// `3abc` is refused rather than truncated.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let digits = rest.get(..rest.find([',', '}'])?)?;
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        let root = TraceCtx::root(1, 0);
        let t0 = SimTime::from_secs(1);
        let p = log.record(root, Stage::Publish, 100, t0);
        let a = log.record(root.child(p), Stage::Admit, 1, t0 + SimDuration::from_millis(2));
        let e = log.record(root.child(a), Stage::Enqueue, 1, t0 + SimDuration::from_millis(2));
        let d = log.record(root.child(e), Stage::Dispatch, 1, t0 + SimDuration::from_millis(50));
        log.record(root.child(d), Stage::Deliver, 200, t0 + SimDuration::from_millis(55));
        log
    }

    #[test]
    fn inactive_contexts_record_nothing() {
        let mut log = TraceLog::new();
        assert_eq!(log.record(TraceCtx::NONE, Stage::Admit, 1, SimTime::ZERO), 0);
        let unsampled = TraceCtx {
            sampled: false,
            ..TraceCtx::root(1, 0)
        };
        assert_eq!(log.record(unsampled, Stage::Admit, 1, SimTime::ZERO), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn export_round_trips() {
        let log = sample_log();
        let jsonl = log.export_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        let back = TraceLog::parse_jsonl(&jsonl).unwrap();
        assert_eq!(back.canonical_events(), log.canonical_events());
        assert_eq!(back.digest(), log.digest());
    }

    #[test]
    fn export_is_fold_order_invariant() {
        let log = sample_log();
        let mut reversed = TraceLog::new();
        for ev in log.events().iter().rev() {
            reversed.events.push(*ev);
        }
        assert_eq!(log.export_jsonl(), reversed.export_jsonl());
        assert_eq!(log.digest(), reversed.digest());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let err = TraceLog::parse_jsonl("{\"trace\":\"zz\"}").unwrap_err();
        assert!(matches!(err, TraceError::BadLine { line: 1, .. }));
        assert!(TraceLog::parse_jsonl("").unwrap().is_empty());
        // Ids wider than their field are refused, not truncated.
        for line in [
            "{\"trace\":\"00000000000000ab\",\"span\":4294967299,\"parent\":0,\
             \"stage\":\"admit\",\"node\":1,\"hop\":256,\"at_us\":2000}",
            "{\"trace\":\"00000000000000ab\",\"span\":3,\"parent\":4294967296,\
             \"stage\":\"admit\",\"node\":1,\"hop\":0,\"at_us\":2000}",
            "{\"trace\":\"00000000000000ab\",\"span\":3,\"parent\":0,\
             \"stage\":\"admit\",\"node\":1,\"hop\":256,\"at_us\":2000}",
        ] {
            let err = TraceLog::parse_jsonl(line).unwrap_err();
            assert!(matches!(err, TraceError::BadLine { line: 1, .. }), "{line}");
        }
        // A number ends at `,` or `}`, and a line is one object.
        let canonical = "{\"trace\":\"00000000000000ab\",\"span\":3,\"parent\":0,\
                         \"stage\":\"admit\",\"node\":1,\"hop\":0,\"at_us\":2000}";
        assert_eq!(TraceLog::parse_jsonl(canonical).unwrap().len(), 1);
        for line in [
            canonical.replace("2000", "2000.75"),
            canonical.replace("\"span\":3", "\"span\":3abc"),
            canonical.replace("\"hop\":0", "\"hop\":0e9"),
            canonical.trim_end_matches('}').to_owned(),
            "garbage \"trace\":\"ab\" \"stage\":\"admit\" \"span\":4 \"parent\":0 \
             \"node\":1 \"hop\":0 \"at_us\":5"
                .to_owned(),
        ] {
            let err = TraceLog::parse_jsonl(&line).unwrap_err();
            assert!(matches!(err, TraceError::BadLine { line: 1, .. }), "{line}");
        }
    }
}
