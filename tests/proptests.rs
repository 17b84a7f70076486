//! Cross-crate property-based tests (proptest): invariants of the query
//! language, query merging, statistics, traces, the XML codec, NMEA,
//! the event windows, the fault-injection/failover machinery, the
//! partitioned engine's `(time, actor, seq)` merge, the brokerd
//! chaos layer (dedup idempotence, restart recovery, chaos-transcript
//! partition invariance), the broker wire format (its packet frames
//! and its percent codec) and the trace JSONL export.

use benchkit::json::Json;
use brokerd::{
    fault_edges, link_faults, link_label, pct_decode, pct_encode, restart_edges, run_fleet,
    run_fleet_traced, BrokerId, BrokerNode, ContextPacket, DedupWindow, FleetConfig, NodeConfig,
    PacketSeq, Request, Response, SubId, SubMode, MAX_HOPS,
};
use contory::backoff::BackoffPolicy;
use contory::merge::{post_extract, try_merge};
use contory::policy::Condition;
use contory::query::{
    AggFunc, CmpOp, CxtQuery, DurationClause, EventExpr, EventTerm, NumNodes, PredValue,
    QueryMode, Source, WherePredicate,
};
use contory::{CxtItem, CxtValue, EventWindow};
use fuego::xml::XmlElement;
use proptest::prelude::*;
use simkit::stats::Summary;
use simkit::trace::TimeSeries;
use simkit::{ActorId, EventCtx, ShardConfig, ShardSim, SimDuration, SimTime};
use tracekit::{Stage, TraceCtx, TraceError, TraceLog};

// ------------------------------------------------------------------
// Strategies
// ------------------------------------------------------------------

const CQL_WORDS: [&str; 14] = [
    "SELECT",
    "FROM",
    "WHERE",
    "FRESHNESS",
    "DURATION",
    "EVERY",
    "EVENT",
    "AND",
    "OR",
    "AVG",
    "adHocNetwork",
    "extInfra",
    "sec",
    "samples",
];

/// A piece of would-be CQL: a keyword or word of the language, a run of
/// digits, `.`, `-` and `+`, operators and punctuation, an identifier
/// with non-ASCII letters, or blanks.
fn cql_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..CQL_WORDS.len()).prop_map(|i| CQL_WORDS[i].to_owned()),
        "[0-9.+-]{1,6}",
        "[=<>!(),]{1,3}",
        "[a-zA-Z_é中ü-]{1,6}",
        "[ \t]{1,2}",
    ]
}

const CONDITION_WORDS: [&str; 10] = [
    "equal",
    "notEqual",
    "moreThan",
    "lessThan",
    "and",
    "OR",
    "batteryLevel",
    "memoryUtilization",
    "low",
    "0.8",
];

/// A piece of would-be policy condition: a word of the rules vocabulary,
/// a run of `<`, `>` and `,`, digits, letters with non-ASCII ones, or
/// blanks.
fn condition_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..CONDITION_WORDS.len()).prop_map(|i| CONDITION_WORDS[i].to_owned()),
        "[<>,]{1,3}",
        "[0-9.-]{1,4}",
        "[a-zé中]{1,4}",
        "[ \t]{1,2}",
    ]
}

const XML_PIECES: [&str; 20] = [
    "<a>",
    "</a>",
    "<fg:b x=\"1\" y='2'>",
    "</fg:b>",
    "<c/>",
    "/>",
    "\"",
    "'",
    "=",
    "&amp;",
    "&#x4e2d;",
    "&#233;",
    "&bogus;",
    "&#xZZ;",
    "&",
    "<!--",
    "-->",
    "<?xml version=\"1.0\"?>",
    "<",
    ">",
];

/// A piece of would-be XML: tags, `/>`, both quote kinds, known,
/// numeric and unknown entities, comment and declaration markers, text
/// with non-ASCII letters, or blanks.
fn xml_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..XML_PIECES.len()).prop_map(|i| XML_PIECES[i].to_owned()),
        (0..XML_PIECES.len()).prop_map(|i| XML_PIECES[i].to_owned()),
        "[a-z0-9é中]{1,5}",
        "[ \t\n]{1,2}",
    ]
}

/// A piece of would-be NMEA: the GGA talker, field separators, runs of
/// digits, `.` and `-`, hemispheres, the checksum marker, non-ASCII
/// letters, or nothing.
fn nmea_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("$GPGGA".to_owned()),
        ",{1,3}",
        "[0-9.-]{1,10}",
        "[NSEW]",
        "[*0-9A-F]{1,3}",
        "[é中]{1,2}",
        Just(String::new()),
    ]
}

const JSONL_KEYS: [&str; 7] = ["trace", "span", "parent", "stage", "node", "hop", "at_us"];

const JSONL_PIECES: [&str; 28] = [
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\\"",
    "\\",
    "\"trace\":\"",
    "\"span\":",
    "\"parent\":",
    "\"stage\":\"",
    "\"node\":",
    "\"hop\":",
    "\"at_us\":",
    "00000000000000ab\"",
    "admit\"",
    "dup_suppress\"",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "-",
    "-1",
    ".",
    "2000.5",
    "1e9",
    "\n",
];

/// A piece of would-be trace JSONL: braces, commas, colons, quotes and
/// escaped quotes, the export's keys, a trace id and stage names,
/// numbers at and past `u32::MAX` and `u64::MAX`, minus signs,
/// decimals and exponents, digit runs, letters with non-ASCII ones, or
/// blanks.
fn jsonl_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..JSONL_PIECES.len()).prop_map(|i| JSONL_PIECES[i].to_owned()),
        (0..JSONL_PIECES.len()).prop_map(|i| JSONL_PIECES[i].to_owned()),
        "[0-9]{1,22}",
        "[a-f0-9é中]{1,5}",
        "[ \t]{1,2}",
    ]
}

/// A trace log of up to 24 hop events whose ids, parents, nodes, hops
/// and instants reach their types' extremes.
fn trace_log() -> impl Strategy<Value = TraceLog> {
    proptest::collection::vec(
        (
            prop_oneof![1u64..64, 1u64..u64::MAX, Just(u64::MAX)],
            prop_oneof![0u32..4, 0u32..u32::MAX, Just(u32::MAX)],
            0..Stage::ALL.len(),
            prop_oneof![0u32..16, 0u32..u32::MAX, Just(u32::MAX)],
            prop_oneof![0u8..4, 0u8..u8::MAX, Just(u8::MAX)],
            prop_oneof![0u64..60_000_000, 0u64..u64::MAX, Just(u64::MAX)],
        ),
        0..24,
    )
    .prop_map(|events| {
        let mut log = TraceLog::new();
        for (trace_id, parent_span, stage, node, hop, at_us) in events {
            let ctx = TraceCtx {
                trace_id,
                parent_span,
                hop,
                sampled: true,
            };
            log.record(ctx, Stage::ALL[stage], node, SimTime::from_micros(at_us));
        }
        log
    })
}

/// `line` with `key`'s value replaced by `value`, and `line` without
/// `key` and its value.
fn edit_jsonl_field(line: &str, key: &str, value: &str) -> (String, String) {
    let needle = format!("\"{key}\":");
    let Some(start) = line.find(&needle) else {
        return (line.to_owned(), line.to_owned());
    };
    let from = start + needle.len();
    let end = line[from..]
        .find([',', '}'])
        .map_or(line.len(), |i| from + i);
    let swapped = format!("{}{value}{}", &line[..from], &line[end..]);
    let dropped = format!("{}{}", &line[..start], line[end..].trim_start_matches(','));
    (swapped, dropped)
}

/// A finite number: a fraction, an integer, an extreme (the largest,
/// the smallest normal and subnormal, `-0`) or any finite bit pattern.
fn json_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        (-1_000_000_000i64..1_000_000_000).prop_map(|n| n as f64),
        (0usize..5).prop_map(|i| [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, -0.0][i]),
        (0u64..u64::MAX).prop_map(|b| Some(f64::from_bits(b)).filter(|v| v.is_finite()).unwrap_or(0.5)),
    ]
}

/// A string with quotes, backslashes, control and multi-byte characters.
const JSON_TEXT: &str = "[ -~\t\n\r\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é中😀]{0,12}";

/// A JSON tree of scalars, arrays and objects, at most 4 containers deep.
fn json_tree() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|b| Json::Bool(b == 1)),
        json_number().prop_map(Json::Num),
        JSON_TEXT.prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((JSON_TEXT, inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

const JSON_PIECES: [&str; 29] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\\"", "\\u", "\\u00e9", "\\ud800", "\\x", "true",
    "tru", "false", "nul", "null", "-", "-0", "1e999", "-1e999", "1e-999", ".5", "1.", "0x10", "+1",
    "NaN", "\"k\":",
];

/// A piece of would-be JSON: brackets, quotes, good and bad escapes,
/// literals whole and cut short, numbers out of range or malformed, a
/// key, digit runs, letters with non-ASCII ones, or blanks.
fn json_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..JSON_PIECES.len()).prop_map(|i| JSON_PIECES[i].to_owned()),
        (0..JSON_PIECES.len()).prop_map(|i| JSON_PIECES[i].to_owned()),
        "[0-9]{1,22}",
        "[a-z0-9é中😀\u{7f}]{1,5}",
        "[ \t\n\r]{1,2}",
    ]
}

/// A piece of would-be trace context: hex digits, dots, signs and
/// sample flags, digit runs past `u64::MAX`, `u32::MAX` or `u8::MAX`,
/// or non-ASCII letters.
fn trace_ctx_fragment() -> impl Strategy<Value = String> {
    prop_oneof!["[0-9a-f.+su-]{0,6}", "[0-9]{1,21}", "[0-9a-fA-F]{15,18}", "[é中 ]{1,2}"]
}

const WIRE_WORDS: [&str; 14] = [
    "PUB", "SUB", "UNSUB", "FETCH", "PING", "STATS", "TRACE", "OK", "ERR", "EVT", "PONG",
    "oneshot", "periodic", "event",
];

/// A piece of would-be broker frame: a verb or mode word, numbers,
/// hop lists and sequence tags, good and bad percent escapes, letters
/// with non-ASCII ones, or blanks.
fn wire_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..WIRE_WORDS.len()).prop_map(|i| WIRE_WORDS[i].to_owned()),
        "[0-9-]{1,8}",
        "[0-9,:.-]{1,6}",
        "%[0-9a-fA-F]{2}",
        "%[0-9g-z%]{0,2}",
        "[a-zA-Zé中]{1,5}",
        "[ \t]{1,2}",
    ]
}

fn ident() -> impl Strategy<Value = String> {
    // Identifiers that cannot collide with keywords or aggregates.
    "[a-z][a-z0-9]{0,8}".prop_map(|s| format!("t{s}"))
}

fn duration_secs() -> impl Strategy<Value = SimDuration> {
    (1u64..7200).prop_map(SimDuration::from_secs)
}

fn num3() -> impl Strategy<Value = f64> {
    // Numbers with three decimals: exact in display/parse round trips.
    (0u32..100_000).prop_map(|n| n as f64 / 1000.0)
}

fn source() -> impl Strategy<Value = Source> {
    prop_oneof![
        Just(Source::IntSensor),
        Just(Source::ExtInfra),
        (
            prop_oneof![Just(NumNodes::All), (1u32..20).prop_map(NumNodes::First)],
            1u32..5
        )
            .prop_map(|(num_nodes, num_hops)| Source::AdHocNetwork {
                num_nodes,
                num_hops
            }),
        ident().prop_map(Source::Entity),
        (num3(), num3(), num3()).prop_map(|(x, y, radius)| Source::Region { x, y, radius }),
    ]
}

fn where_predicate() -> impl Strategy<Value = WherePredicate> {
    (
        prop_oneof![
            Just("accuracy".to_owned()),
            Just("precision".to_owned()),
            Just("correctness".to_owned()),
            Just("completeness".to_owned()),
        ],
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        num3(),
    )
        .prop_map(|(key, op, value)| WherePredicate {
            key,
            op,
            value: PredValue::Number(value),
        })
}

fn event_term(field: String) -> impl Strategy<Value = EventTerm> {
    prop_oneof![
        num3().prop_map(EventTerm::Number),
        Just(EventTerm::Field(field.clone())),
        prop_oneof![
            Just(AggFunc::Avg),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
            Just(AggFunc::Sum),
            Just(AggFunc::Count),
        ]
        .prop_map(move |func| EventTerm::Agg {
            func,
            field: field.clone()
        }),
    ]
}

fn event_expr(field: String) -> impl Strategy<Value = EventExpr> {
    let leaf = (
        event_term(field.clone()),
        prop_oneof![Just(CmpOp::Gt), Just(CmpOp::Lt), Just(CmpOp::Ge), Just(CmpOp::Le)],
        event_term(field),
    )
        .prop_map(|(left, op, right)| EventExpr::Cmp { left, op, right });
    leaf.prop_recursive(3, 12, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| {
            if a == b {
                a
            } else {
                EventExpr::And(Box::new(a), Box::new(b))
            }
        })
    })
}

fn query() -> impl Strategy<Value = CxtQuery> {
    (
        ident(),
        proptest::option::of(source()),
        proptest::collection::vec(where_predicate(), 0..3),
        proptest::option::of(duration_secs()),
        prop_oneof![
            duration_secs().prop_map(DurationClause::Time),
            (1u32..100).prop_map(DurationClause::Samples)
        ],
    )
        .prop_flat_map(|(select, from, where_clause, freshness, duration)| {
            let field = select.clone();
            prop_oneof![
                Just(QueryMode::OnDemand),
                duration_secs().prop_map(QueryMode::Periodic),
                event_expr(field).prop_map(QueryMode::Event),
            ]
            .prop_map(move |mode| CxtQuery {
                select: select.clone(),
                from: from.clone(),
                where_clause: where_clause.clone(),
                freshness,
                duration,
                mode,
            })
        })
}

fn item_for(select: &str) -> impl Strategy<Value = CxtItem> {
    let select = select.to_owned();
    (num3(), proptest::option::of(num3()), 0u64..3600).prop_map(move |(v, acc, age)| {
        let mut item = CxtItem::new(
            select.clone(),
            CxtValue::number(v),
            SimTime::from_secs(3600 - age),
        );
        item.metadata.accuracy = acc;
        item.metadata.precision = acc;
        item.metadata.correctness = acc.map(|a| a.min(1.0));
        item.metadata.completeness = acc.map(|a| a.min(1.0));
        item
    })
}

// ------------------------------------------------------------------
// Partitioned-engine plans
// ------------------------------------------------------------------

/// Actor population the shard-merge plans run over.
const PLAN_ACTORS: u64 = 12;

/// One scheduled root event: `(actor, at_ms, payload, hops)` where each
/// hop `(dest, delay_ms)` is a cross-actor forward executed in sequence.
type PlanRoot = (u8, u16, u32, Vec<(u8, u16)>);

/// A message chain for the shard-merge properties: executing an event
/// appends `payload` to the actor's log, then forwards the remaining
/// hops (payload incremented per hop) to the next destination.
#[derive(Clone)]
struct ChainEv {
    payload: u32,
    hops: Vec<(u8, u16)>,
}

fn shard_plan() -> impl Strategy<Value = Vec<PlanRoot>> {
    proptest::collection::vec(
        (
            0u8..(PLAN_ACTORS as u8),
            0u16..2000,
            0u32..1_000_000,
            proptest::collection::vec((0u8..(PLAN_ACTORS as u8), 0u16..400), 0..4),
        ),
        1..24,
    )
}

/// Runs a plan on a `shards` × `threads` engine until idle and returns
/// (per-actor logs in actor order, events processed, messages delivered,
/// dead letters).
fn run_plan(plan: &[PlanRoot], shards: u32, threads: u32) -> (Vec<Vec<u32>>, u64, u64, u64) {
    let mut sim = ShardSim::new(
        ShardConfig {
            seed: 1,
            shards,
            threads,
            record_transcript: false,
        },
        |log: &mut Vec<u32>, ctx: &mut EventCtx<'_, ChainEv>, ev: ChainEv| {
            log.push(ev.payload);
            let mut hops = ev.hops;
            if !hops.is_empty() {
                let (dest, delay) = hops.remove(0);
                ctx.send(
                    ActorId(u64::from(dest)),
                    SimDuration::from_millis(u64::from(delay)),
                    ChainEv {
                        payload: ev.payload.wrapping_add(1),
                        hops,
                    },
                );
            }
        },
    );
    for a in 0..PLAN_ACTORS {
        assert!(sim.add_actor(ActorId(a), Vec::new()));
    }
    for (actor, at, payload, hops) in plan {
        sim.schedule(
            ActorId(u64::from(*actor)),
            SimTime::from_millis(u64::from(*at)),
            ChainEv {
                payload: *payload,
                hops: hops.clone(),
            },
        )
        .expect("plan actors all registered");
    }
    sim.run_until_idle();
    let logs = (0..PLAN_ACTORS)
        .map(|a| sim.actor_state(ActorId(a)).cloned().unwrap_or_default())
        .collect();
    (
        logs,
        sim.events_processed(),
        sim.messages_delivered(),
        sim.dead_letters(),
    )
}

// ------------------------------------------------------------------
// Brokerd chaos helpers
// ------------------------------------------------------------------

/// A small chaotic broker fleet: every federation link lossy, one
/// broker crash-restarted mid-run, short leases with renewal. The crash
/// downtime (3 s) exceeds the forward-retry horizon (~2.25 s at the
/// default 150 ms timeout × 4 attempts), matching the `broker_chaos`
/// scenario's sizing rule.
/// A broker packet as a wire peer may hand it over: names drawn from
/// printable ASCII plus the whitespace the decoder splits on beyond
/// `' '`, any value, up to `MAX_HOPS` hops, traced or not, sequenced or
/// not.
fn wire_packet() -> impl Strategy<Value = ContextPacket> {
    let name = || "[ -~\t\r\u{a0}\u{3000}]{0,10}";
    (
        (name(), name(), i64::MIN..i64::MAX),
        (0u64..1 << 40, 0u64..1 << 40),
        proptest::collection::vec(0u16..u16::MAX, 0..MAX_HOPS + 1),
        proptest::option::of((0u64..u64::MAX, 0u32..u32::MAX)),
        proptest::option::of((0u64..u64::MAX, 1u64..u64::MAX)),
    )
        .prop_map(
            |((type_name, source, value), (at, life), hops, trace, seq)| {
                let mut p = ContextPacket::new(
                    type_name,
                    value,
                    SimTime::from_micros(at),
                    SimDuration::from_micros(life),
                    source,
                );
                p.hops = hops.into_iter().map(BrokerId).collect();
                if let Some((material, span)) = trace {
                    p.trace = TraceCtx::root(material, 0).child(span);
                }
                if let Some((origin, n)) = seq {
                    p.seq = PacketSeq::new(origin, n);
                }
                p
            },
        )
}

fn chaos_fleet(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    let mut plan = simkit::FaultPlan::new(seed);
    let fault = simkit::faults::LinkFault {
        drop_ppm: 70_000,
        dup_ppm: 60_000,
        reorder_ppm: 50_000,
        reorder_delay: SimDuration::from_millis(40),
        jitter: SimDuration::from_millis(15),
    };
    let brokers = 3u16;
    for a in 0..brokers {
        for b in 0..brokers {
            if a != b {
                plan.lossy_link(&link_label(a, b), fault);
            }
        }
    }
    plan.crash_restart("broker:1", SimTime::from_secs(5), SimDuration::from_secs(3));
    let mut cfg = FleetConfig {
        seed,
        brokers,
        devices: 48,
        shards,
        threads,
        run_for: SimDuration::from_secs(16),
        ..FleetConfig::default()
    };
    cfg.node.fwd_attempts = 4;
    cfg.fault_edges = fault_edges(&plan, brokers);
    cfg.restarts = restart_edges(&plan, brokers);
    cfg.link_faults = link_faults(&plan, brokers);
    cfg.chaos_until = Some(SimTime::from_secs(12));
    cfg.sub_lease = Some(SimDuration::from_secs(8));
    cfg.resub_every = Some(SimDuration::from_secs(4));
    cfg
}

/// A small fleet without faults or chaos, every publish traced.
fn plain_fleet(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    FleetConfig {
        seed,
        brokers: 3,
        devices: 48,
        shards,
        threads,
        run_for: SimDuration::from_secs(16),
        node: NodeConfig {
            trace_sample_log2: 0,
            ..NodeConfig::default()
        },
        ..FleetConfig::default()
    }
}

// ------------------------------------------------------------------
// Properties
// ------------------------------------------------------------------

proptest! {
    /// Rendering a query and parsing it back is stable: the round-trip
    /// fixes the canonical form.
    #[test]
    fn query_display_parse_round_trip(q in query()) {
        let rendered = q.to_string();
        let parsed = CxtQuery::parse(&rendered)
            .unwrap_or_else(|e| panic!("canonical text must parse: {rendered}: {e}"));
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    /// Parsing canonical text reproduces the query's clauses exactly for
    /// non-EVENT queries (EVENT trees may re-associate).
    #[test]
    fn query_parse_is_exact_without_event(q in query()) {
        prop_assume!(!matches!(q.mode, QueryMode::Event(_)));
        let parsed = CxtQuery::parse(&q.to_string()).unwrap();
        prop_assert_eq!(parsed, q);
    }

    /// Merging is symmetric: merge(a,b) == merge(b,a).
    #[test]
    fn merge_is_symmetric(a in query(), b in query()) {
        let ab = try_merge(&a, &b);
        let ba = try_merge(&b, &a);
        match (&ab, &ba) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                // EVENT disjunction order may differ; compare modulo mode
                // for event queries.
                if !matches!(a.mode, QueryMode::Event(_)) {
                    prop_assert_eq!(x, y);
                }
            }
            _ => prop_assert!(false, "asymmetric mergeability"),
        }
    }

    /// Coverage: any item a member accepts, the merged query accepts too
    /// (post-extraction can always recover member results).
    #[test]
    fn merged_query_covers_members(a in query(), b in query(), items in proptest::collection::vec(item_for("tshared"), 1..8)) {
        let mut a = a;
        let mut b = b;
        a.select = "tshared".to_owned();
        b.select = "tshared".to_owned();
        let Some(merged) = try_merge(&a, &b) else {
            return Ok(());
        };
        let now = SimTime::from_secs(3600);
        for member in [&a, &b] {
            let member_hits = post_extract(member, &items, now);
            let merged_hits = post_extract(&merged, &items, now);
            for hit in &member_hits {
                prop_assert!(
                    merged_hits.contains(hit),
                    "item accepted by member but dropped by merged:\n member {member}\n merged {merged}"
                );
            }
        }
    }

    /// Merging is idempotent on a query with itself, except for EVENT
    /// queries (self-merge produces `cond OR cond`).
    #[test]
    fn merge_with_self_is_identity(q in query()) {
        prop_assume!(!matches!(q.mode, QueryMode::Event(_)));
        // WHERE clauses with repeated keys can collapse; require unique keys.
        let mut keys: Vec<&str> = q.where_clause.iter().map(|p| p.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assume!(keys.len() == q.where_clause.len());
        let merged = try_merge(&q, &q).expect("self-merge always possible");
        prop_assert_eq!(merged, q);
    }

    /// Summary::merge equals accumulating everything in one pass.
    #[test]
    fn summary_merge_matches_combined(a in proptest::collection::vec(-1e6f64..1e6, 0..50),
                                      b in proptest::collection::vec(-1e6f64..1e6, 0..50)) {
        let mut m = Summary::of(&a);
        m.merge(&Summary::of(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let full = Summary::of(&all);
        prop_assert_eq!(m.count(), full.count());
        prop_assert!((m.mean() - full.mean()).abs() <= 1e-6 * (1.0 + full.mean().abs()));
        prop_assert!((m.variance() - full.variance()).abs() <= 1e-4 * (1.0 + full.variance().abs()));
    }

    /// Trace integration is additive over adjacent windows.
    #[test]
    fn trace_integration_is_additive(points in proptest::collection::vec((0u64..1000, 0f64..2000.0), 1..30),
                                     split in 0u64..1000) {
        let mut sorted = points;
        sorted.sort_by_key(|(t, _)| *t);
        sorted.dedup_by_key(|(t, _)| *t);
        let mut ts = TimeSeries::new("p");
        for (t, v) in &sorted {
            ts.record(SimTime::from_secs(*t), *v);
        }
        let a = SimTime::ZERO;
        let m = SimTime::from_secs(split);
        let z = SimTime::from_secs(1000);
        let whole = ts.integrate(a, z);
        let parts = ts.integrate(a, m) + ts.integrate(m, z);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    /// XML escaping round-trips arbitrary attribute values and text,
    /// multi-byte UTF-8 characters included.
    #[test]
    fn xml_round_trips(attr in "[ -~é中]{0,40}", text in "[ -~é中]{0,60}") {
        let el = XmlElement::new("node")
            .attr("value", attr.clone())
            .child(XmlElement::new("inner").text(text.clone()));
        let parsed = XmlElement::parse(&el.to_xml()).unwrap();
        prop_assert_eq!(parsed.attribute("value"), Some(attr.as_str()));
        prop_assert_eq!(parsed.find("inner").unwrap().text_content(), text.as_str());
    }

    /// `CxtQuery::parse` is total: on arbitrary text (fragments of the
    /// language, real queries cut short, or both) it returns a query or
    /// a `ParseQueryError` whose offset is a char boundary of the text,
    /// and never panics.
    #[test]
    fn query_parse_is_total(
        fragments in proptest::collection::vec(cql_fragment(), 0..16),
        real in query(),
        cut in 0usize..160,
    ) {
        let noise = fragments.concat();
        let truncated: String = real.to_string().chars().take(cut).collect();
        for text in [noise.clone(), truncated.clone(), format!("{truncated}{noise}")] {
            if let Err(e) = CxtQuery::parse(&text) {
                prop_assert!(
                    text.is_char_boundary(e.offset),
                    "offset {} in {:?}",
                    e.offset,
                    text
                );
            }
        }
    }

    /// `XmlElement::parse` is total: on arbitrary text (fragments of XML,
    /// a real document cut short, either inside elements nested past
    /// the parser's depth limit of 128) it returns an element or a
    /// `ParseXmlError` with a message and an offset within the text, and
    /// never panics.
    #[test]
    fn xml_parse_is_total(
        fragments in proptest::collection::vec(xml_fragment(), 0..16),
        text in "[ -~é中]{0,20}",
        cut in 0usize..120,
        depth in prop_oneof![0usize..4, 120usize..140],
    ) {
        let noise = fragments.concat();
        let real = XmlElement::new("fg:node")
            .attr("value", text.clone())
            .child(XmlElement::new("inner").text(text))
            .to_xml();
        let truncated: String = real.chars().take(cut).collect();
        let (open, close) = ("<a>".repeat(depth), "</a>".repeat(depth));
        for text in [
            noise.clone(),
            truncated.clone(),
            format!("{truncated}{noise}"),
            format!("{open}{noise}{close}"),
            format!("{open}{real}{close}"),
        ] {
            if let Err(e) = XmlElement::parse(&text) {
                prop_assert!(!e.message.is_empty(), "{:?}", text);
                prop_assert!(e.offset <= text.len(), "offset {} in {:?}", e.offset, text);
            }
        }
    }

    /// Trace JSONL print→parse is the identity: parsing a log's export
    /// gives back its events (ids, parents, `u32::MAX` nodes, `u64::MAX`
    /// instants) and its digest, and printing them again gives the same
    /// bytes.
    #[test]
    fn trace_jsonl_round_trips(log in trace_log()) {
        let mut log = log;
        let root = TraceCtx::root(7, 0);
        log.record(root, Stage::Deliver, u32::MAX, SimTime::from_micros(u64::MAX));
        let export = log.export_jsonl();
        let back = TraceLog::parse_jsonl(&export).unwrap();
        prop_assert_eq!(back.canonical_events(), log.canonical_events());
        prop_assert_eq!(back.digest(), log.digest());
        prop_assert_eq!(back.export_jsonl(), export);
    }

    /// `TraceLog::parse_jsonl` is total: on arbitrary text (fragments of
    /// the export, inside braces or not, a real export cut short, or a
    /// real line with one value swapped for a fragment or one key
    /// removed) it returns a log that prints and parses back unchanged,
    /// or a `TraceError` that names a line of the text and what is
    /// wrong with it, and never panics.
    #[test]
    fn trace_jsonl_parse_is_total(
        fragments in proptest::collection::vec(jsonl_fragment(), 0..16),
        log in trace_log(),
        cut in 0usize..600,
        key in 0..JSONL_KEYS.len(),
        value in jsonl_fragment(),
    ) {
        let noise = fragments.concat();
        let real = log.export_jsonl();
        let truncated: String = real.chars().take(cut).collect();
        let line = real.lines().next().unwrap_or(
            "{\"trace\":\"00000000000000ab\",\"span\":3,\"parent\":0,\
             \"stage\":\"admit\",\"node\":1,\"hop\":0,\"at_us\":2000}",
        );
        let (swapped, dropped) = edit_jsonl_field(line, JSONL_KEYS[key], &value);
        for text in [
            noise.clone(),
            format!("{{{noise}}}"),
            truncated.clone(),
            format!("{truncated}{noise}"),
            swapped,
            dropped,
        ] {
            match TraceLog::parse_jsonl(&text) {
                Ok(parsed) => {
                    let again = TraceLog::parse_jsonl(&parsed.export_jsonl());
                    prop_assert_eq!(
                        again.map(|l| l.canonical_events()),
                        Ok(parsed.canonical_events())
                    );
                }
                Err(TraceError::BadLine { line, detail }) => {
                    prop_assert!(
                        (1..=text.lines().count()).contains(&line),
                        "line {} of {:?}",
                        line,
                        text
                    );
                    prop_assert!(!detail.is_empty(), "{:?}", text);
                }
            }
        }
    }

    /// benchkit's JSON print→parse is the identity: a rendered tree of
    /// finite numbers, awkward strings and containers, nested up to the
    /// parser's limit of 128, parses back to the same tree.
    #[test]
    fn json_round_trips(tree in json_tree(), wrap in 0usize..125, key in JSON_TEXT) {
        // `json_tree` nests at most 4 deep, so the wrapped tree reaches
        // 128 at most.
        let tree = (0..wrap).fold(tree, |t, level| match level % 2 {
            0 => Json::Arr(vec![t]),
            _ => Json::Obj(vec![(key.clone(), t)]),
        });
        prop_assert_eq!(Json::parse(&tree.render()), Ok(tree));
    }

    /// `Json::parse` is total: on arbitrary text (fragments of JSON, a
    /// real document cut short, either inside arrays nested past the
    /// parser's depth limit of 128, far past it too) it returns a tree
    /// that prints and parses back unchanged, or an error message, and
    /// never panics or overflows the stack.
    #[test]
    fn json_parse_is_total(
        fragments in proptest::collection::vec(json_fragment(), 0..16),
        tree in json_tree(),
        cut in 0usize..200,
        depth in prop_oneof![0usize..4, 120usize..140, Just(100_000usize)],
    ) {
        let noise = fragments.concat();
        let real = tree.render();
        let truncated: String = real.chars().take(cut).collect();
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        for text in [
            noise.clone(),
            truncated.clone(),
            format!("{truncated}{noise}"),
            format!("{open}{noise}{close}"),
            format!("{open}{real}{close}"),
        ] {
            match Json::parse(&text) {
                Ok(parsed) => prop_assert_eq!(Json::parse(&parsed.render()), Ok(parsed)),
                Err(message) => prop_assert!(!message.is_empty(), "{:?}", text),
            }
        }
    }

    /// `TraceCtx`'s printed form parses back to the same context.
    #[test]
    fn trace_ctx_round_trips(
        trace_id in prop_oneof![0u64..64, 0u64..u64::MAX, Just(u64::MAX)],
        parent_span in prop_oneof![0u32..4, 0u32..u32::MAX, Just(u32::MAX)],
        hop in prop_oneof![0u8..4, 0u8..u8::MAX, Just(u8::MAX)],
        sampled in 0u8..2,
    ) {
        let ctx = TraceCtx { trace_id, parent_span, hop, sampled: sampled == 1 };
        prop_assert_eq!(ctx.to_string().parse::<TraceCtx>(), Ok(ctx));
    }

    /// `TraceCtx::from_str` is total: on arbitrary text (fragments of the
    /// printed form, a real one cut short, or a real one with one field
    /// swapped for a fragment) it returns a context that prints and
    /// parses back to itself, or an error with a message, and never
    /// panics.
    #[test]
    fn trace_ctx_parse_is_total(
        fragments in proptest::collection::vec(trace_ctx_fragment(), 0..10),
        trace_id in 0u64..u64::MAX,
        cut in 0usize..40,
        field in 0usize..4,
        value in trace_ctx_fragment(),
    ) {
        let noise = fragments.concat();
        let real = TraceCtx { trace_id, parent_span: 7, hop: 3, sampled: true }.to_string();
        let truncated: String = real.chars().take(cut).collect();
        let mut fields: Vec<&str> = real.split('.').collect();
        fields[field] = &value;
        for text in [noise.clone(), truncated.clone(), format!("{truncated}{noise}"), fields.join(".")] {
            match text.parse::<TraceCtx>() {
                Ok(ctx) => prop_assert_eq!(ctx.to_string().parse::<TraceCtx>(), Ok(ctx)),
                Err(e) => prop_assert!(!e.0.is_empty(), "{:?}", text),
            }
        }
    }

    /// `parse_gga` is total: on arbitrary text (fragments of NMEA, a
    /// real GGA sentence cut short, or both) it returns a position or
    /// `None`, and never panics.
    #[test]
    fn nmea_parse_is_total(
        fragments in proptest::collection::vec(nmea_fragment(), 0..16),
        x in -20_000f64..20_000.0,
        cut in 0usize..80,
    ) {
        use std::rc::Rc;
        let noise = fragments.concat();
        let p = radio::Position::new(x, -x);
        let mut gps = sensors::GpsReceiver::new(Rc::new(move || p), 0.0, 1);
        let burst = gps.nmea_burst(SimTime::from_secs(60));
        let real = burst.iter().find(|s| s.starts_with("$GPGGA")).unwrap();
        let truncated: String = real.chars().take(cut).collect();
        for text in [noise.clone(), truncated.clone(), format!("{truncated}{noise}")] {
            let _position = sensors::gps::parse_gga(&text);
        }
    }

    /// `Request::decode` and `Response::decode` are total: on arbitrary
    /// lines (fragments of the wire format, a real frame cut short, or
    /// either repeated past `MAX_FRAME_BYTES`) each returns a frame or a
    /// `WireError`, and never panics.
    #[test]
    fn wire_decode_is_total(
        fragments in proptest::collection::vec(wire_fragment(), 0..16),
        value in i64::MIN..i64::MAX,
        hops in proptest::collection::vec(0u16..u16::MAX, 0..MAX_HOPS + 1),
        evt in 0usize..2,
        cut in 0usize..120,
    ) {
        let noise = fragments.concat();
        let mut packet = ContextPacket::new(
            "wind",
            value,
            SimTime::from_secs(60),
            SimDuration::from_secs(600),
            "station://harmaja",
        );
        packet.hops = hops.into_iter().map(BrokerId).collect();
        packet.seq = PacketSeq::new(7, 42);
        let real = if evt == 1 {
            Response::Evt { sub: SubId(3), packet }.encode().unwrap()
        } else {
            Request::Pub(packet).encode().unwrap()
        };
        let truncated: String = real.chars().take(cut).collect();
        let long = format!("{real} ").repeat(brokerd::MAX_FRAME_BYTES / real.len() + 1);
        for line in [noise.clone(), truncated.clone(), format!("{truncated}{noise}"), long] {
            if let Err(e) = Request::decode(&line) {
                prop_assert!(!e.to_string().is_empty(), "{:?}", line);
            }
            if let Err(e) = Response::decode(&line) {
                prop_assert!(!e.to_string().is_empty(), "{:?}", line);
            }
        }
    }

    /// EventWindow's AVG equals the naive mean of the window's values.
    #[test]
    fn event_window_avg_matches_naive(values in proptest::collection::vec(-1e3f64..1e3, 1..40), threshold in -1e3f64..1e3) {
        let mut w = EventWindow::new();
        for v in &values {
            w.push(CxtItem::new("x", CxtValue::number(*v), SimTime::ZERO));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let expr = EventExpr::Cmp {
            left: EventTerm::Agg { func: AggFunc::Avg, field: "x".into() },
            op: CmpOp::Gt,
            right: EventTerm::Number(threshold),
        };
        // Skip knife-edge comparisons where float associativity decides.
        prop_assume!((mean - threshold).abs() > 1e-9);
        prop_assert_eq!(w.eval(&expr), mean > threshold);
    }

    /// GGA sentences round-trip positions to within NMEA quantization.
    #[test]
    fn nmea_gga_round_trip(x in -20_000f64..20_000.0, y in -20_000f64..20_000.0) {
        use std::rc::Rc;
        let p = radio::Position::new(x, y);
        let mut gps = sensors::GpsReceiver::new(Rc::new(move || p), 0.0, 1);
        let burst = gps.nmea_burst(SimTime::from_secs(60));
        let gga = burst.iter().find(|s| s.starts_with("$GPGGA")).unwrap();
        let back = sensors::gps::parse_gga(gga).unwrap();
        prop_assert!((back.x - x).abs() < 1.0, "x {} vs {}", back.x, x);
        prop_assert!((back.y - y).abs() < 1.0, "y {} vs {}", back.y, y);
    }

    /// Policy conditions round-trip through their text form.
    #[test]
    fn condition_round_trip(variable in "[a-z]{1,10}", n in 0u32..1000) {
        let text = format!("<{variable}, moreThan, {n}> or <{variable}, equal, low>");
        let c = Condition::parse(&text).unwrap();
        let again = Condition::parse(&c.to_string()).unwrap();
        prop_assert_eq!(c, again);
    }

    /// `Condition::parse` is total: on arbitrary text (condition
    /// fragments, a real condition cut short, or both) it returns a
    /// condition or a `ParseConditionError`, and never panics.
    #[test]
    fn condition_parse_is_total(
        fragments in proptest::collection::vec(condition_fragment(), 0..16),
        variable in "[a-zé]{1,6}",
        cut in 0usize..64,
    ) {
        let noise = fragments.concat();
        let real = format!("<{variable}, moreThan, 0.8> and <{variable}, equal, low>");
        let truncated: String = real.chars().take(cut).collect();
        for text in [noise.clone(), truncated.clone(), format!("{truncated}{noise}")] {
            if let Err(e) = Condition::parse(&text) {
                prop_assert!(!e.message.is_empty(), "{:?}", text);
            }
        }
    }

    /// Item wire sizes stay within the paper's envelope for items shaped
    /// like the paper's (wind-like through location-like).
    #[test]
    fn item_wire_size_bounds(v in num3(), acc in proptest::option::of(num3())) {
        let mut small = CxtItem::new("wind", CxtValue::quantity(v, "kn"), SimTime::ZERO);
        small.metadata.accuracy = acc;
        prop_assert!((40..=80).contains(&small.wire_size()), "wind {}", small.wire_size());
        let big = CxtItem::new("location", CxtValue::Position { x: v, y: v }, SimTime::ZERO)
            .with_source("btgps://inssirf-iii/serial-0")
            .with_accuracy(5.0)
            .with_trust(contory::Trust::Trusted);
        prop_assert!((110..=160).contains(&big.wire_size()), "location {}", big.wire_size());
    }

    /// Backoff delays honour the policy contract for arbitrary policies:
    /// capped at `max`, monotone in the attempt number (multipliers below
    /// 1 are clamped), and jittered draws stay inside the ±jitter band
    /// around the undithered base delay.
    #[test]
    fn backoff_delays_are_capped_monotone_and_jitter_bounded(
        initial in 1u64..120,
        max in 1u64..600,
        multiplier in 0.5f64..4.0,
        jitter in 0.0f64..0.9,
    ) {
        let policy = BackoffPolicy {
            initial: SimDuration::from_secs(initial),
            max: SimDuration::from_secs(max),
            multiplier,
            jitter,
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 0..40u32 {
            let base = policy.base_delay(attempt);
            prop_assert!(base <= policy.max, "attempt {attempt}: {base:?} over the cap");
            prop_assert!(base >= prev, "attempt {attempt}: base delay not monotone");
            prev = base;
            for unit in [0.0, 0.25, 0.5, 0.75, 0.999] {
                let d = policy.delay_with_unit(attempt, unit).as_secs_f64();
                let b = base.as_secs_f64();
                // SimDuration quantises to microseconds; allow for it.
                prop_assert!(
                    d >= b * (1.0 - jitter) - 2e-6 && d <= b * (1.0 + jitter) + 2e-6,
                    "attempt {attempt} unit {unit}: {d} outside ±{jitter} of {b}"
                );
            }
        }
    }

    /// A scripted link outage is airtight: while the fault plan holds the
    /// requester's BT radio down, no context item is delivered to the
    /// client (a short grace window covers frames already in flight when
    /// the link drops).
    #[test]
    fn fault_plan_never_delivers_through_a_down_link(
        seed in 0u64..100_000,
        start in 60u64..120,
        len in 30u64..90,
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let tb = testbed::Testbed::with_seed(seed);
        let requester = tb.add_phone(testbed::PhoneSetup {
            metered: false,
            ..testbed::PhoneSetup::nokia6630("req", radio::Position::new(0.0, 0.0))
        });
        let provider = tb.add_phone(testbed::PhoneSetup {
            metered: false,
            ..testbed::PhoneSetup::nokia6630("prov", radio::Position::new(6.0, 0.0))
        });
        provider.factory().register_cxt_server("app");
        {
            let factory = provider.factory().clone();
            let sim = tb.sim.clone();
            tb.sim.schedule_repeating(SimDuration::from_secs(10), move || {
                let _ = factory.publish_cxt_item(
                    CxtItem::new("wind", CxtValue::quantity(9.0, "kn"), sim.now())
                        .with_accuracy(0.5)
                        .with_trust(contory::Trust::Community),
                    None,
                );
                true
            });
        }
        let mut plan = simkit::FaultPlan::new(seed);
        plan.down_between(
            "bt:req",
            SimTime::from_secs(start),
            SimTime::from_secs(start + len),
        );
        tb.install_faults(&plan);
        tb.sim.run_for(SimDuration::from_secs(2));
        let client = Rc::new(contory::CollectingClient::new());
        let id = requester
            .submit(
                "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
                client.clone(),
            )
            .unwrap();
        // Sample the delivered-item count once per simulated second.
        let samples: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let samples = samples.clone();
            let client = client.clone();
            let tick = std::cell::Cell::new(0u64);
            tb.sim.schedule_repeating(SimDuration::from_secs(1), move || {
                tick.set(tick.get() + 1);
                samples.borrow_mut().push((tick.get() + 2, client.items_for(id).len()));
                true
            });
        }
        tb.sim.run_until(SimTime::from_secs(start + len));
        let grace = 3;
        for w in samples.borrow().windows(2) {
            let (_, c0) = w[0];
            let (t1, c1) = w[1];
            if t1 > start + grace && t1 <= start + len {
                prop_assert!(
                    c1 == c0,
                    "item delivered at t≈{t1}s inside the outage [{start}, {}]s",
                    start + len
                );
            }
        }
    }

    /// The whole failure/recovery pipeline is deterministic: the same
    /// seed and the same fault plan reproduce the identical
    /// `FailoverReport` (and the identical item stream and fault log).
    #[test]
    fn same_seed_and_plan_give_identical_failover_reports(
        seed in 0u64..100_000,
        start in 60u64..110,
        len in 40u64..80,
    ) {
        use std::rc::Rc;
        let run = || {
            let tb = testbed::Testbed::with_seed(seed);
            let requester = tb.add_phone(testbed::PhoneSetup {
                metered: false,
                factory: contory::FactoryConfig {
                    failover: contory::FailoverConfig {
                        max_retries: 1,
                        silence_periods: 4,
                        ..contory::FailoverConfig::default()
                    },
                    ..contory::FactoryConfig::default()
                },
                ..testbed::PhoneSetup::nokia6630("req", radio::Position::new(0.0, 0.0))
            });
            let provider = tb.add_phone(testbed::PhoneSetup {
                metered: false,
                ..testbed::PhoneSetup::nokia6630("prov", radio::Position::new(6.0, 0.0))
            });
            provider.factory().register_cxt_server("app");
            {
                let factory = provider.factory().clone();
                let sim = tb.sim.clone();
                tb.sim.schedule_repeating(SimDuration::from_secs(10), move || {
                    let _ = factory.publish_cxt_item(
                        CxtItem::new("wind", CxtValue::quantity(9.0, "kn"), sim.now())
                            .with_accuracy(0.5)
                            .with_trust(contory::Trust::Community),
                        None,
                    );
                    true
                });
            }
            let mut plan = simkit::FaultPlan::new(seed);
            plan.down_between(
                "bt:req",
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
            );
            let injector = tb.install_faults(&plan);
            tb.sim.run_for(SimDuration::from_secs(2));
            let client = Rc::new(contory::CollectingClient::new());
            let id = requester
                .submit(
                    "SELECT wind FROM adHocNetwork(all,1) DURATION 30 min EVERY 10 sec",
                    client.clone(),
                )
                .unwrap();
            tb.sim.run_until(SimTime::from_secs(400));
            let report = requester.factory().monitor().failover_report(tb.sim.now());
            let items: Vec<String> =
                client.items_for(id).iter().map(|i| i.to_string()).collect();
            (report.to_string(), items, injector.transitions_applied())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// `EventKey`'s ordering is exactly the lexicographic order on
    /// `(time, actor, seq)` — a total order, antisymmetric and
    /// transitive, with no partition component to leak.
    #[test]
    fn event_key_order_is_lexicographic(
        keys in proptest::collection::vec((0u64..5000, 0u64..64, 0u64..1000), 2..40),
    ) {
        let mut keys: Vec<simkit::EventKey> = keys
            .into_iter()
            .map(|(t, a, s)| simkit::EventKey {
                time: SimTime::from_micros(t),
                actor: ActorId(a),
                seq: s,
            })
            .collect();
        let mut tuples: Vec<(SimTime, u64, u64)> =
            keys.iter().map(|k| (k.time, k.actor.0, k.seq)).collect();
        keys.sort();
        tuples.sort();
        for (k, t) in keys.iter().zip(&tuples) {
            prop_assert_eq!((k.time, k.actor.0, k.seq), *t);
        }
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1]);
            prop_assert_eq!(w[0] < w[1], !(w[1] <= w[0]) || w[0] != w[1]);
        }
    }

    /// No event is lost or duplicated by the cross-shard merge: for a
    /// random schedule of forward chains, the executed-event count, the
    /// delivery count and the multiset of (actor, payload) observations
    /// all equal what the plan predicts.
    #[test]
    fn sharded_merge_loses_and_duplicates_nothing(plan in shard_plan()) {
        let expected_events: u64 = plan.iter().map(|(_, _, _, h)| 1 + h.len() as u64).sum();
        let expected_deliveries: u64 = plan.iter().map(|(_, _, _, h)| h.len() as u64).sum();
        let mut expected_obs: Vec<(u64, u32)> = Vec::new();
        for (actor, _, payload, hops) in &plan {
            expected_obs.push((u64::from(*actor), *payload));
            let mut p = *payload;
            for (dest, _) in hops {
                p = p.wrapping_add(1);
                expected_obs.push((u64::from(*dest), p));
            }
        }
        expected_obs.sort_unstable();

        let (logs, events, delivered, dead) = run_plan(&plan, 3, 2);
        prop_assert_eq!(events, expected_events);
        prop_assert_eq!(delivered, expected_deliveries);
        prop_assert_eq!(dead, 0);
        let mut observed: Vec<(u64, u32)> = logs
            .iter()
            .enumerate()
            .flat_map(|(a, log)| log.iter().map(move |p| (a as u64, *p)))
            .collect();
        observed.sort_unstable();
        prop_assert_eq!(observed, expected_obs);
    }

    /// Merge commutativity with the sequential engine: any partition of
    /// the same plan — including oversubscribed worker counts — produces
    /// the sequential engine's per-actor logs, in the same order, with
    /// the same counters.
    #[test]
    fn sharded_merge_matches_sequential_engine(plan in shard_plan()) {
        let reference = run_plan(&plan, 1, 1);
        for (shards, threads) in [(2u32, 1u32), (2, 3), (5, 2), (8, 8), (16, 4)] {
            let sharded = run_plan(&plan, shards, threads);
            prop_assert!(
                sharded == reference,
                "{shards} shards x {threads} threads diverged from sequential"
            );
        }
    }

    /// The dedup window is an exactly-once filter on an at-least-once
    /// stream: for any schedule of duplicated, arbitrarily reordered
    /// in-window packets, no `(origin, n)` is ever admitted twice, and
    /// none is lost — first copy `Fresh`, every other copy `Duplicate`.
    #[test]
    fn dedup_never_double_delivers_under_duplication_and_reorder(
        stream in proptest::collection::vec((0u64..6, 0u64..120), 1..250),
    ) {
        use std::collections::BTreeMap;
        let mut win = DedupWindow::new(8);
        let mut fresh_seen: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for &(origin, n) in &stream {
            let seq = PacketSeq::new(origin, n + 1);
            let was_seen = win.seen(seq);
            let verdict = win.observe(seq);
            // seen() is the pure preview of observe()'s verdict.
            prop_assert_eq!(was_seen, verdict == brokerd::SeqVerdict::Duplicate);
            if verdict == brokerd::SeqVerdict::Fresh {
                *fresh_seen.entry((origin, n)).or_insert(0) += 1;
            }
        }
        // Never twice…
        for (&(origin, n), &count) in &fresh_seen {
            prop_assert!(
                count <= 1,
                "({origin}, {n}) admitted {count} times — double delivery"
            );
        }
        // …and, because every n fits inside SEQ_WINDOW, never lost.
        let mut distinct: Vec<(u64, u64)> = stream.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // An unequal count here means an in-window packet was lost.
        prop_assert_eq!(fresh_seen.len(), distinct.len());
        prop_assert_eq!(win.admitted() + win.suppressed(), stream.len() as u64);
    }

    /// Crash recovery loses no subscription: renewing every lease of a
    /// wiped broker rebuilds the full table — in *any* renewal order
    /// the live set comes back complete without stacking duplicates,
    /// and replaying the original order reproduces the pre-crash
    /// anti-entropy digest bit for bit.
    #[test]
    fn restart_plus_renewal_loses_no_subscription(
        subs in proptest::collection::vec((0u64..40, 0u8..12, 0u8..3), 1..30),
        lease_secs in 30u64..600,
    ) {
        let now = SimTime::from_secs(10);
        let expiry = SimTime::from_secs(10 + lease_secs);
        let mode_of = |tag: u8| match tag {
            0 => SubMode::Event,
            1 => SubMode::OneShot,
            _ => SubMode::Periodic(SimDuration::from_secs(30)),
        };
        let mut before = BrokerNode::new(BrokerId(0), NodeConfig::default());
        for &(subscriber, ty, tag) in &subs {
            before.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
        }
        let pre_digest = before.table_digest();
        let pre_count = before.subscriptions();
        let mut distinct = subs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(pre_count, distinct.len());

        // The crash: a brand-new node with empty tables. Devices renew
        // every lease they hold in a scrambled order; the live set must
        // come back complete, with first renewals re-registering
        // (renewed = false) and repeats extending idempotently.
        let mut scrambled = BrokerNode::new(BrokerId(0), NodeConfig::default());
        let mut renewals = subs.clone();
        renewals.sort_by_key(|&(s, ty, tag)| (u64::from(ty) << 32) ^ s ^ u64::from(tag));
        let mut seen: Vec<(u64, u8, u8)> = Vec::new();
        for &(subscriber, ty, tag) in &renewals {
            let (_, renewed) = scrambled.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
            prop_assert_eq!(renewed, seen.contains(&(subscriber, ty, tag)));
            seen.push((subscriber, ty, tag));
        }
        prop_assert_eq!(scrambled.subscriptions(), pre_count);

        // Replaying the renewals in the original order reproduces the
        // pre-crash digest exactly — the anti-entropy convergence
        // witness a healed fleet's directory agrees on.
        let mut replayed = BrokerNode::new(BrokerId(0), NodeConfig::default());
        for &(subscriber, ty, tag) in &subs {
            replayed.subscribe_renewing(
                subscriber,
                &format!("ctx{ty}"),
                mode_of(tag),
                expiry,
                now,
            );
        }
        prop_assert_eq!(replayed.subscriptions(), pre_count);
        prop_assert_eq!(replayed.table_digest(), pre_digest);
    }

    /// Chaos is partition-invariant: for any seed, the chaotic fleet's
    /// full report — link-fault counters, retries, dedup suppressions,
    /// restart recovery and all — is byte-identical across {1,4} engine
    /// shards times {1,4} worker threads, trace digest included.
    #[test]
    fn chaos_transcripts_are_identical_across_partitionings(seed in 0u64..100_000) {
        let reference = run_fleet(&chaos_fleet(seed, 1, 1));
        for (shards, threads) in [(1u32, 4u32), (4, 1), (4, 4)] {
            let got = run_fleet(&chaos_fleet(seed, shards, threads));
            prop_assert!(
                got.report() == reference.report(),
                "chaos transcript diverged at {shards} shards x {threads} threads"
            );
            prop_assert_eq!(got.trace_digest, reference.trace_digest);
        }
    }

    /// A traced run returns the log its outcome counts: `trace_spans`
    /// events whose digest is `trace_digest`, both summed per actor
    /// without merging. The plain and the chaos fleet, on 1 shard at 1
    /// thread and on 4 shards at the most threads.
    #[test]
    fn traced_runs_return_the_log_their_outcome_counts(seed in 0u64..100_000) {
        let fleets: [fn(u64, u32, u32) -> FleetConfig; 2] = [plain_fleet, chaos_fleet];
        for fleet in fleets {
            for (shards, threads) in [(1u32, 1u32), (4, ShardConfig::max_threads())] {
                let (out, _, log) = run_fleet_traced(&fleet(seed, shards, threads));
                prop_assert!(out.trace_spans > 0, "nothing traced");
                prop_assert_eq!(log.len() as u64, out.trace_spans);
                prop_assert_eq!(log.digest(), out.trace_digest);
            }
        }
    }

    /// `pct_encode` then `pct_decode` is the identity on any text:
    /// spaces, controls, `%`, `-` and multi-byte UTF-8 included, plus the
    /// three tokens the encoder special-cases.
    #[test]
    fn pct_codec_round_trips(text in "[ -~\t\n\r\u{0}\u{7f}-\u{24f}€😀]{0,24}") {
        for t in [text.as_str(), "", "-", "%2d"] {
            prop_assert_eq!(pct_decode(&pct_encode(t)), Ok(t.to_owned()));
        }
    }

    /// Print→parse is the identity for broker packet frames: a `PUB`
    /// request or `EVT` response either refuses to encode or decodes
    /// back to the very packet, attribution and hop list included.
    #[test]
    fn wire_packet_frames_round_trip_or_refuse(p in wire_packet()) {
        let publish = Request::Pub(p.clone());
        if let Ok(line) = publish.encode() {
            prop_assert_eq!(Request::decode(&line), Ok(publish));
        }
        let evt = Response::Evt { sub: SubId(3), packet: p };
        if let Ok(line) = evt.encode() {
            prop_assert_eq!(Response::decode(&line), Ok(evt));
        }
    }
}

/// Exhaustive over every byte pair `X`,`Y` that forms valid UTF-8:
/// `pct_decode("%XY")` succeeds only when both are ASCII hex digits.
#[test]
fn pct_decode_accepts_only_hex_escapes() {
    for x in 0..=u8::MAX {
        for y in 0..=u8::MAX {
            let bytes = [b'%', x, y];
            let Ok(token) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if pct_decode(token).is_ok() {
                assert!(
                    x.is_ascii_hexdigit() && y.is_ascii_hexdigit(),
                    "{token:?} decoded"
                );
            }
        }
    }
}
