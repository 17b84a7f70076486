//! Hop-event logs: the raw material traces are assembled from.
//!
//! A [`TraceLog`] is a plain `Vec` of [`TraceEvent`]s — `Send`, cheap
//! to merge, and deliberately *not* the thread-local obskit collector:
//! shard-parallel actors (fleet brokers, devices) each own a log and
//! record into it as they process events, and the harness folds the
//! logs **in actor-id order** after the run. Each node's recording
//! order is a pure function of the seed, so the folded stream — and
//! its JSONL export, which additionally canonicalises the order — is
//! byte-identical across shard and thread counts. The digest sums a
//! hash per event, so it needs neither the canonical order nor the
//! export.

use crate::ctx::TraceCtx;
use simkit::hash::mix64;
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
    pub fn from_name(s: &str) -> Option<Stage> {
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
    /// node namespace). A `u32` keeps an event at 32 bytes; the hash,
    /// the canonical order and span ids take it widened to `u64`, the
    /// definition `digest_known_answer` pins.
    pub node: u32,
    /// Federation hop count at recording time.
    pub hop: u8,
    /// Sim instant of the event.
    pub at: SimTime,
}

impl TraceEvent {
    /// One [`mix64`] chain over every field. Each link is a bijection of
    /// the field xor the running value, so changing any one field
    /// changes the hash. `span`/`parent` and stage/`hop` share a word;
    /// a stage's discriminant is its index in [`Stage::ALL`].
    fn hash(&self) -> u64 {
        let ids = u64::from(self.span) << 32 | u64::from(self.parent);
        let stage_hop = (self.stage as u64) << 8 | u64::from(self.hop);
        let mut h = mix64(self.trace_id);
        for word in [ids, stage_hop, u64::from(self.node), self.at.as_micros()] {
            h = mix64(h ^ word);
        }
        h
    }

    /// Canonical sort key: trace, then time, then pipeline position.
    fn key(&self) -> (u64, u64, u8, u8, u64, u32) {
        (
            self.trace_id,
            self.at.as_micros(),
            self.hop,
            self.stage.rank(),
            u64::from(self.node),
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
    pub fn record(&mut self, ctx: TraceCtx, stage: Stage, node: u32, at: SimTime) -> u32 {
        if !ctx.is_active() {
            return 0;
        }
        self.seq = self.seq.wrapping_add(1);
        let material = ctx.trace_id ^ u64::from(node).rotate_left(24) ^ u64::from(self.seq);
        // `| 1` keeps real span ids distinct from the 0 root marker.
        let span = (mix64(material) as u32) | 1;
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

    /// Makes room for exactly `additional` more events, so a fold that
    /// counts its logs first merges them without growing by doubling.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.events.reserve_exact(additional);
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

    /// Order-independent digest of every recorded event: the wrapping
    /// sum of one [`mix64`] chain per event over all its fields. Addition
    /// commutes, so any fold order of the same events gives the same
    /// value without sorting or printing them; the byte-level witness
    /// stays [`TraceLog::export_jsonl`].
    pub fn digest(&self) -> u64 {
        self.events
            .iter()
            .fold(0u64, |sum, ev| sum.wrapping_add(ev.hash()))
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
            let trace_id = u64::from_str_radix(trace_hex, 16).map_err(|_| bad("bad trace id"))?;
            let stage_name = field_str(line, "stage").ok_or_else(|| bad("missing stage"))?;
            let stage = Stage::from_name(stage_name).ok_or_else(|| bad("unknown stage"))?;
            let span = field_num(line, "span").map_err(|e| bad(&e))?;
            let parent = field_num(line, "parent").map_err(|e| bad(&e))?;
            let node = field_num(line, "node").map_err(|e| bad(&e))?;
            let hop = field_num(line, "hop").map_err(|e| bad(&e))?;
            let at_us = field_num(line, "at_us").map_err(|e| bad(&e))?;
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

/// Extracts the numeric value of `"key":123` from a flat JSON line as a
/// `T`. The value must be all digits up to the next `,` or `}`, so
/// `2000.75`, `-1` or `3abc` is refused rather than truncated. The error
/// names the field: `missing node` when the key is absent, `bad node`
/// when its value is not a number, `node out of range` when the number
/// does not fit a `T`.
fn field_num<T: TryFrom<u64>>(line: &str, key: &str) -> Result<T, String> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle).ok_or_else(|| format!("missing {key}"))? + needle.len();
    let rest = line.get(start..).unwrap_or_default();
    let digits = rest.split([',', '}']).next().unwrap_or_default();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad {key}"));
    }
    // All digits, so a failed parse is a number past `u64::MAX`.
    digits
        .parse()
        .ok()
        .and_then(|v: u64| T::try_from(v).ok())
        .ok_or_else(|| format!("{key} out of range"))
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
        let a = log.record(
            root.child(p),
            Stage::Admit,
            1,
            t0 + SimDuration::from_millis(2),
        );
        let e = log.record(
            root.child(a),
            Stage::Enqueue,
            1,
            t0 + SimDuration::from_millis(2),
        );
        let d = log.record(
            root.child(e),
            Stage::Dispatch,
            1,
            t0 + SimDuration::from_millis(50),
        );
        log.record(
            root.child(d),
            Stage::Deliver,
            200,
            t0 + SimDuration::from_millis(55),
        );
        log
    }

    #[test]
    fn an_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    #[test]
    fn inactive_contexts_record_nothing() {
        let mut log = TraceLog::new();
        assert_eq!(
            log.record(TraceCtx::NONE, Stage::Admit, 1, SimTime::ZERO),
            0
        );
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
    fn digest_known_answer() {
        // Pins the definition (a separate model of it, outside this
        // crate, gives the same value): a new value is a new digest,
        // not a refactor.
        assert_eq!(TraceLog::new().digest(), 0);
        assert_eq!(sample_log().digest(), 0xba86_6b44_966d_c4a9);
        // The hash takes a stage's discriminant as its `Stage::ALL` index.
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage}");
        }
    }

    #[test]
    fn digest_sees_every_field_and_every_event() {
        let log = sample_log();
        let base = log.digest();
        type Edit = fn(&mut TraceEvent);
        let edits: [(&str, Edit); 7] = [
            ("trace_id", |e| e.trace_id ^= 1 << 40),
            ("span", |e| e.span ^= 2),
            ("parent", |e| e.parent ^= 2),
            ("stage", |e| {
                e.stage = Stage::ALL[(e.stage as usize + 1) % Stage::ALL.len()]
            }),
            ("node", |e| e.node += 1),
            ("hop", |e| e.hop += 1),
            ("at", |e| e.at += SimDuration::from_micros(1)),
        ];
        for i in 0..log.len() {
            for (field, edit) in edits {
                let mut changed = log.clone();
                edit(&mut changed.events[i]);
                assert_ne!(changed.digest(), base, "{field} of event {i}");
            }
            let mut dropped = log.clone();
            dropped.events.remove(i);
            assert_ne!(dropped.digest(), base, "event {i} dropped");
            let mut duplicated = log.clone();
            duplicated.events.push(log.events[i]);
            assert_ne!(duplicated.digest(), base, "event {i} duplicated");
        }
        // Swapping two events' places is not a change.
        let mut swapped = log.clone();
        swapped.events.swap(0, 4);
        assert_eq!(swapped.digest(), base);
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

    #[test]
    fn parse_errors_name_the_field_and_what_is_wrong() {
        let canonical = "{\"trace\":\"00000000000000ab\",\"span\":3,\"parent\":0,\
                         \"stage\":\"admit\",\"node\":1,\"hop\":0,\"at_us\":2000}";
        let detail = |line: String| match TraceLog::parse_jsonl(&line) {
            Err(TraceError::BadLine { line: 1, detail }) => detail,
            other => panic!("{line}: {other:?}"),
        };
        let max = canonical.replace("\"node\":1", "\"node\":4294967295");
        assert_eq!(
            TraceLog::parse_jsonl(&max).unwrap().events()[0].node,
            u32::MAX
        );
        for (from, to, want) in [
            ("\"node\":1", "\"node\":4294967296", "node out of range"),
            (
                "\"node\":1",
                "\"node\":99999999999999999999",
                "node out of range",
            ),
            ("\"node\":1", "\"node\":-1", "bad node"),
            ("\"node\":1", "\"node\":", "bad node"),
            ("\"node\":1", "\"nod\":1", "missing node"),
            ("2000}", "2000.5}", "bad at_us"),
            ("2000}", "99999999999999999999}", "at_us out of range"),
            ("\"hop\":0", "\"hop\":256", "hop out of range"),
            ("\"span\":3", "\"span\":\"3\"", "bad span"),
        ] {
            assert_eq!(detail(canonical.replace(from, to)), want, "{to}");
        }
    }
}
