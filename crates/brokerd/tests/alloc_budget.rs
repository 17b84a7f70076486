//! A deterministic allocation budget for the broker fleet.
//!
//! Wall time on a shared host swings by tens of percent between runs,
//! but the heap traffic of a seeded fleet run is a pure function of the
//! seed and the engine thread count. This test counts it with a
//! std-only counting allocator and fails when a change makes the fleet
//! allocate clearly more: one extra `String` copy per delivered packet
//! is enough to trip it.
//!
//! The counters live in a `const` thread-local, so only allocations made
//! on the thread running the fleet count. At one engine thread every
//! round is stepped on the calling thread.
//!
//! Run it on its own with
//! `cargo test -q --release -p contory-brokerd --test alloc_budget`.
//! Debug and release builds count the same.

use brokerd::{fault_edges, run_fleet, FleetConfig, NodeConfig};
use simkit::faults::FaultPlan;
use simkit::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation budget: the measured 265,532 plus just under 5 %.
const MAX_ALLOCS: u64 = 278_800;
/// Budget of bytes requested: the measured 38,549,067 plus just under 5 %.
const MAX_BYTES: u64 = 40_430_000;

thread_local! {
    /// `(allocations, bytes requested)` on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// perfbench's `fleet` shape at a fifth of its population: seed 800,
/// 4 brokers, 8 shards, 1 engine thread, `broker:2` killed at 10 s, a
/// 20 s run.
fn fleet() -> FleetConfig {
    let mut plan = FaultPlan::new(800);
    plan.kill_at("broker:2", SimTime::from_secs(10));
    FleetConfig {
        seed: 800,
        brokers: 4,
        devices: 2_000,
        shards: 8,
        threads: 1,
        run_for: SimDuration::from_secs(20),
        node: NodeConfig::default(),
        fault_edges: fault_edges(&plan, 4),
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_run_stays_within_its_allocation_budget() {
    let cfg = fleet();
    let before = COUNTS.with(Cell::get);
    let out = run_fleet(&cfg);
    let after = COUNTS.with(Cell::get);
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    let summary = format!(
        "{allocs} allocations, {bytes} bytes for {} deliveries",
        out.delivered
    );
    assert!(out.delivered > 40_000, "the fleet barely ran: {summary}");
    assert!(
        allocs <= MAX_ALLOCS,
        "allocation budget {MAX_ALLOCS} exceeded: {summary}"
    );
    assert!(
        bytes <= MAX_BYTES,
        "byte budget {MAX_BYTES} exceeded: {summary}"
    );
}
