//! Property tests for trace assembly (ISSUE 9 satellite):
//!
//! * **Conservation** — assembling any event stream neither loses nor
//!   duplicates spans: the forest holds exactly the input events.
//! * **Causal order** — in every assembled tree, a parent precedes its
//!   child in sim time, even for adversarial parent pointers (cycles,
//!   orphans, self-references, duplicate span ids).
//! * **Fold invariance** — the canonical export (and therefore the
//!   assembled forest) does not depend on the order per-actor logs were
//!   merged in, which is the property the shard-parallel fleet relies
//!   on for byte-identity.

use proptest::collection;
use proptest::prelude::*;
use tracekit::{assemble, Breakup, Stage, TraceCtx, TraceLog};

/// Builds a log from raw generated tuples: (trace material, stage
/// index, node, at_ms, reparent onto an earlier span?).
fn build_log(raw: &[(u64, u8, u32, u64, u8)]) -> TraceLog {
    let mut log = TraceLog::new();
    let mut spans: Vec<(u64, u32)> = Vec::new(); // (trace_id, span)
    for &(material, stage_ix, node, at_ms, link) in raw {
        let link = link != 0;
        let stage = Stage::ALL[usize::from(stage_ix) % Stage::ALL.len()];
        let root = TraceCtx::root(material % 8, 0); // few distinct traces
                                                    // Optionally parent onto the most recent span of the same trace
                                                    // (causally valid); otherwise claim an arbitrary parent id,
                                                    // which may be an orphan or even a *later* span — assembly must
                                                    // stay a time-ordered forest regardless.
        let parent = if link {
            spans
                .iter()
                .rev()
                .find(|(t, _)| *t == root.trace_id)
                .map(|(_, s)| *s)
                .unwrap_or(0)
        } else {
            (material >> 8) as u32
        };
        let ctx = TraceCtx {
            parent_span: parent,
            ..root
        };
        let span = log.record(ctx, stage, node, simkit::SimTime::from_millis(at_ms));
        spans.push((root.trace_id, span));
    }
    log
}

proptest! {
    #[test]
    fn assembly_conserves_spans(
        raw in collection::vec(
            (0u64..1000, 0u8..8, 0u32..16, 0u64..10_000, 0u8..2),
            0..64,
        ),
    ) {
        let log = build_log(&raw);
        let trees = assemble(&log);
        let assembled: usize = trees.iter().map(|t| t.nodes.len()).sum();
        // No loss, no duplication.
        prop_assert_eq!(assembled, log.len());
        // Every input event appears exactly once across the forest.
        let mut got: Vec<_> = trees
            .iter()
            .flat_map(|t| t.nodes.iter().map(|n| n.event))
            .collect();
        let mut want = log.canonical_events();
        got.sort_by_key(|e| (e.trace_id, e.at.as_micros(), e.span));
        want.sort_by_key(|e| (e.trace_id, e.at.as_micros(), e.span));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn parents_precede_children_in_sim_time(
        raw in collection::vec(
            (0u64..1000, 0u8..8, 0u32..16, 0u64..10_000, 0u8..2),
            0..64,
        ),
    ) {
        let log = build_log(&raw);
        for tree in assemble(&log) {
            for (i, node) in tree.nodes.iter().enumerate() {
                if let Some(p) = node.parent {
                    prop_assert!(p < i, "parent index precedes child");
                    let parent = &tree.nodes[p];
                    prop_assert!(
                        parent.event.at <= node.event.at,
                        "parent at {} must not follow child at {}",
                        parent.event.at,
                        node.event.at
                    );
                    prop_assert_eq!(parent.event.trace_id, node.event.trace_id);
                }
                for &c in &node.children {
                    prop_assert_eq!(tree.nodes[c].parent, Some(i));
                }
            }
            // Critical paths terminate (forests have no cycles) and the
            // break-up total never exceeds the sum of path spans.
            for d in tree.deliveries() {
                prop_assert!(d.path.len() <= tree.nodes.len());
            }
        }
    }

    #[test]
    fn export_and_assembly_are_fold_order_invariant(
        raw in collection::vec(
            (0u64..1000, 0u8..8, 0u32..16, 0u64..10_000, 0u8..2),
            0..48,
        ),
        split in 0usize..48,
    ) {
        let log = build_log(&raw);
        let events = log.events();
        let cut = split.min(events.len());
        // Fold the same events as two sub-logs merged in both orders.
        let (a_ev, b_ev) = events.split_at(cut);
        let rebuild = |evs: &[&[tracekit::TraceEvent]]| {
            let parsed: String = evs
                .iter()
                .flat_map(|chunk| chunk.iter())
                .map(|ev| {
                    let mut one = TraceLog::new();
                    let ctx = TraceCtx {
                        trace_id: ev.trace_id,
                        parent_span: ev.parent,
                        hop: ev.hop,
                        sampled: true,
                    };
                    one.record(ctx, ev.stage, ev.node, ev.at);
                    // Preserve the original span id via the jsonl form.
                    one.export_jsonl()
                        .replace(&format!("\"span\":{}", one.events()[0].span), &format!("\"span\":{}", ev.span))
                })
                .collect();
            TraceLog::parse_jsonl(&parsed).expect("round trip")
        };
        let ab = rebuild(&[a_ev, b_ev]);
        let ba = rebuild(&[b_ev, a_ev]);
        prop_assert_eq!(ab.export_jsonl(), ba.export_jsonl());
        prop_assert_eq!(ab.digest(), ba.digest());
        prop_assert_eq!(assemble(&ab), assemble(&ba));
        prop_assert_eq!(
            Breakup::of(&assemble(&ab)).to_json(),
            Breakup::of(&assemble(&ba)).to_json()
        );
    }
}
