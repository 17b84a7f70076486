//! A deterministic allocation budget for the paper's provisioning path.
//!
//! Two Nokia 6630s each run an `extInfra` query over UMTS and an
//! `intSensor` query, against a weather station that stores a wind
//! record every minute. The `extInfra` query has no FRESHNESS, so every
//! periodic push re-sends the whole wind history: the number of items
//! delivered grows with the run, and so does whatever the path spends on
//! each one. This test counts the heap traffic of 30 simulated minutes
//! of it with a std-only counting allocator, and fails when a change
//! makes the path allocate clearly more: one heap copy of every
//! delivered item's type name, an item's names made per reading instead
//! of once per sensor, one copy of every delivered item put back into a
//! provider's filter, or an envelope header built to size each frame, is
//! enough to trip it. The simulation is seeded and single-threaded, so
//! the count does not swing with the host's load the way wall time does.
//!
//! The counters live in a `const` thread-local, so only allocations made
//! on the test's own thread count.
//!
//! Run it on its own with
//! `cargo test -q --release -p contory-testbed --test alloc_budget`;
//! add `-- --nocapture` to print the measured figures.

use contory::{Client, CxtItem, QueryId};
use radio::Position;
use sensors::EnvField;
use simkit::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use testbed::{PhoneSetup, Testbed};

/// Allocation budget: the measured 5,539 plus just under 5 %. A copy of
/// every delivered item in the provider's filter makes 6,073, names made
/// per reading 6,619, a heap copy of every delivered item's type name
/// 6,767, and building the envelope header to size each frame 11,551;
/// the path whose items owned their names made 20,727, and the one that
/// also copied items in both filters and built a `<record>` element per
/// record per push made 52,245.
const MAX_ALLOCS: u64 = 5_815;
/// Budget of bytes requested: the measured 632,476 plus just under 5 %
/// (1,260,444 with the provider's copy, 1,174,694 when items owned their
/// names).
const MAX_BYTES: u64 = 664_000;

/// Heap traffic on one thread.
#[derive(Clone, Copy)]
struct Counts {
    /// Allocations and reallocations.
    allocs: u64,
    /// Bytes requested by them.
    bytes: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
}

fn note(requested: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += 1;
        n.bytes += requested as u64;
        c.set(n);
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

/// Counts the items delivered to it without keeping them.
#[derive(Default)]
struct Tally {
    wind: Cell<u64>,
    temperature: Cell<u64>,
}

impl Client for Tally {
    fn receive_cxt_item(&self, _query: QueryId, item: CxtItem) {
        let n = match item.cxt_type.as_str() {
            "wind" => &self.wind,
            _ => &self.temperature,
        };
        n.set(n.get() + 1);
    }

    fn inform_error(&self, message: &str) {
        panic!("provisioning failed: {message}");
    }
}

#[test]
fn provisioning_path_stays_within_its_allocation_budget() {
    let tb = Testbed::with_seed(2006);
    tb.add_weather_station(
        "fmi-harmaja",
        Position::new(2_000.0, 1_000.0),
        &[EnvField::WindKnots],
        SimDuration::from_secs(60),
    );
    let phones: Vec<_> = (0..2)
        .map(|i| {
            tb.add_phone(PhoneSetup {
                internal_sensors: vec![EnvField::TemperatureC],
                cell_on: true,
                metered: false,
                ..PhoneSetup::nokia6630(format!("phone{i}"), Position::new(i as f64 * 3.0, 0.0))
            })
        })
        .collect();
    tb.sim.run_for(SimDuration::from_secs(5));

    let before = COUNTS.with(Cell::get);
    let tally = Rc::new(Tally::default());
    for phone in &phones {
        for text in [
            "SELECT wind FROM extInfra DURATION 1 hour EVERY 60 sec",
            "SELECT temperature FROM intSensor DURATION 1 hour EVERY 10 sec",
        ] {
            phone
                .submit(text, tally.clone())
                .expect("the query is accepted");
        }
    }
    tb.sim.run_for(SimDuration::from_secs(30 * 60));
    let after = COUNTS.with(Cell::get);

    let allocs = after.allocs - before.allocs;
    let bytes = after.bytes - before.bytes;
    let (wind, temperature) = (tally.wind.get(), tally.temperature.get());
    let summary = format!(
        "{allocs} allocations, {bytes} bytes for {wind} wind and {temperature} temperature items"
    );
    // The seeded world delivers the same items on every run: 1 + 2 + …
    // + 29 wind records to each phone, and its temperature samples.
    assert_eq!((wind, temperature), (870, 358), "{summary}");
    assert!(
        allocs <= MAX_ALLOCS,
        "allocation budget {MAX_ALLOCS} exceeded: {summary}"
    );
    assert!(
        bytes <= MAX_BYTES,
        "byte budget {MAX_BYTES} exceeded: {summary}"
    );
    eprintln!("{summary}");
}
