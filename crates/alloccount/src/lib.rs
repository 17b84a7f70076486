//! A counting global allocator for allocation-budget tests.
//!
//! Wall time on a shared host swings by tens of percent between runs,
//! but the heap traffic of a seeded simulation is a pure function of its
//! inputs. A test binary installs [`Counting`] with
//! `#[global_allocator] static COUNTING: alloccount::Counting = alloccount::Counting;`
//! and wraps the code it checks in [`measure`]. The counters live in a
//! `const` thread-local, so only allocations and frees made on the
//! calling thread count.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap traffic on one thread. `live` is signed: a block allocated on
/// another thread may be freed on this one.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: i64,
    /// The largest `live` seen.
    pub peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocs: 0,
            bytes: 0,
            live: 0,
            peak: 0,
        })
    };
}

/// Runs `f` and returns its result with the heap traffic `f` made on
/// the calling thread: its allocations and bytes, the live bytes it
/// left behind (its result's included) and its peak live heap, both
/// counted from the live heap it started at.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(|c| {
        let mut n = c.get();
        n.peak = n.live;
        c.set(n);
        n
    });
    let out = f();
    let after = COUNTS.with(Cell::get);
    let used = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
        peak: after.peak - before.live,
    };
    (out, used)
}

/// Adds `allocs` allocations requesting `requested` bytes in all, and
/// moves the live heap by `requested - freed`.
fn note(allocs: u64, requested: usize, freed: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += allocs;
        n.bytes += requested as u64;
        n.live += requested as i64 - freed as i64;
        n.peak = n.peak.max(n.live);
        c.set(n);
    });
}

/// Counts every allocation, reallocation and free on the calling
/// thread, then defers to [`System`].
#[derive(Debug)]
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}
