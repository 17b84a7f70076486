//! The workspace's one sanctioned stopwatch.
//!
//! [`time_once`] is the only place outside this crate's own tests that
//! reads `Instant`, which keeps the `wallclock-ban` lint meaningful
//! everywhere else. Its one caller is perfbench (`BENCHMARK.json`), the
//! repository's wall-clock harness: repeated samples at 1 and max
//! threads plus per-layer rows. Everything `bench_all` exports is a pure
//! function of the seeds and never reads the wall clock.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Times one call of `f` on the wall clock, returning its output and the
/// elapsed real time.
///
/// This is the sanctioned stopwatch for throughput scenarios (events/sec
/// at scale): keeping `Instant` inside this shim keeps the
/// `wallclock-ban` lint meaningful everywhere else. Wall readings are
/// host-dependent by nature — callers must keep them out of any
/// byte-identity transcript and give them wide regression bands.
pub fn time_once<O>(f: impl FnOnce() -> O) -> (O, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_output_and_elapsed() {
        let (out, dur) = time_once(|| {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert_eq!(out, 499_500);
        assert!(dur.as_nanos() > 0);
    }
}
