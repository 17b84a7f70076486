//! Capped exponential backoff with deterministic jitter.
//!
//! When a provisioning mechanism fails, the `ContextFactory` may retry it
//! a configurable number of times before declaring it failed and moving
//! the query to the next candidate mechanism. The delays between retries
//! follow a capped exponential schedule with multiplicative jitter so a
//! fleet of phones hit by the same outage does not thunder back in
//! lock-step — while staying fully deterministic for a given seed (the
//! jitter is drawn from the simulation's [`DetRng`]).

#![deny(warnings)]

use simkit::{DetRng, SimDuration};
use std::fmt;

/// Retry-delay schedule: `initial * multiplier^attempt`, capped at
/// `max`, then jittered by up to `±jitter` (a fraction of the delay).
#[derive(Clone, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: SimDuration,
    /// Upper bound on any delay (applied before jitter).
    pub max: SimDuration,
    /// Growth factor per attempt (must be >= 1.0).
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1)`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    /// 2 s initial, doubling, capped at 60 s, ±20 % jitter.
    fn default() -> Self {
        BackoffPolicy {
            initial: SimDuration::from_secs(2),
            max: SimDuration::from_secs(60),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }
}

impl BackoffPolicy {
    /// The un-jittered delay for retry attempt `attempt` (0-based).
    pub fn base_delay(&self, attempt: u32) -> SimDuration {
        let mult = self.multiplier.max(1.0);
        let secs = self.initial.as_secs_f64() * mult.powi(attempt.min(63) as i32);
        SimDuration::from_secs_f64(secs.min(self.max.as_secs_f64()))
    }

    /// The jittered delay for attempt `attempt`, using `unit` in `[0, 1)`
    /// as the randomness source (pure, for testing).
    pub fn delay_with_unit(&self, attempt: u32, unit: f64) -> SimDuration {
        let base = self.base_delay(attempt);
        let j = self.jitter.clamp(0.0, 0.999);
        // Scale uniformly within [1 - j, 1 + j).
        let factor = 1.0 - j + 2.0 * j * unit.clamp(0.0, 1.0);
        SimDuration::from_secs_f64(base.as_secs_f64() * factor)
    }

    /// The jittered delay for attempt `attempt`, drawing from `rng`.
    pub fn delay(&self, attempt: u32, rng: &mut DetRng) -> SimDuration {
        let u = rng.unit();
        self.delay_with_unit(attempt, u)
    }
}

/// Per-target retry counter driving a [`BackoffPolicy`].
///
/// `next_delay` returns the delay to wait before the next retry and
/// advances the attempt counter; `reset` is called on success so the next
/// failure starts from the initial delay again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackoffState {
    attempt: u32,
}

impl BackoffState {
    /// Fresh state: next delay is the policy's initial delay.
    pub fn new() -> Self {
        BackoffState::default()
    }

    /// Retry attempts consumed since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Delay before the next retry; advances the counter.
    pub fn next_delay(&mut self, policy: &BackoffPolicy, rng: &mut DetRng) -> SimDuration {
        let d = policy.delay(self.attempt, rng);
        self.attempt = self.attempt.saturating_add(1);
        d
    }
}

impl fmt::Display for BackoffState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backoff(attempt={})", self.attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            initial: SimDuration::from_secs(2),
            max: SimDuration::from_secs(60),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }

    #[test]
    fn base_delays_grow_exponentially_until_the_cap() {
        let p = policy();
        assert_eq!(p.base_delay(0), SimDuration::from_secs(2));
        assert_eq!(p.base_delay(1), SimDuration::from_secs(4));
        assert_eq!(p.base_delay(2), SimDuration::from_secs(8));
        assert_eq!(p.base_delay(4), SimDuration::from_secs(32));
        // 2 * 2^5 = 64 > cap.
        assert_eq!(p.base_delay(5), SimDuration::from_secs(60));
        assert_eq!(p.base_delay(30), SimDuration::from_secs(60));
        // Huge attempt counts do not overflow.
        assert_eq!(p.base_delay(u32::MAX), SimDuration::from_secs(60));
    }

    #[test]
    fn jitter_stays_within_the_declared_bounds() {
        let p = policy();
        let mut rng = DetRng::new(42);
        for attempt in 0..8 {
            let base = p.base_delay(attempt).as_secs_f64();
            for _ in 0..200 {
                let d = p.delay(attempt, &mut rng).as_secs_f64();
                assert!(
                    d >= base * 0.8 - 1e-9 && d <= base * 1.2 + 1e-9,
                    "attempt {attempt}: {d} outside [{}, {}]",
                    base * 0.8,
                    base * 1.2
                );
            }
        }
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut p = policy();
        p.jitter = 0.0;
        let mut rng = DetRng::new(7);
        assert_eq!(p.delay(1, &mut rng), SimDuration::from_secs(4));
    }

    #[test]
    fn state_advances_and_resets() {
        let p = {
            let mut p = policy();
            p.jitter = 0.0;
            p
        };
        let mut rng = DetRng::new(1);
        let mut s = BackoffState::new();
        assert_eq!(s.next_delay(&p, &mut rng), SimDuration::from_secs(2));
        assert_eq!(s.next_delay(&p, &mut rng), SimDuration::from_secs(4));
        assert_eq!(s.next_delay(&p, &mut rng), SimDuration::from_secs(8));
        assert_eq!(s.attempts(), 3);
        // Success drops the state (the factory removes its entry), so the
        // next failure starts over from the initial delay.
        s = BackoffState::default();
        assert_eq!(s.attempts(), 0);
        assert_eq!(s.next_delay(&p, &mut rng), SimDuration::from_secs(2));
    }

    #[test]
    fn same_seed_same_delays() {
        let p = policy();
        let mut a = DetRng::new(99);
        let mut b = DetRng::new(99);
        for attempt in 0..10 {
            assert_eq!(p.delay(attempt, &mut a), p.delay(attempt, &mut b));
        }
    }

    #[test]
    fn multiplier_below_one_is_clamped() {
        let mut p = policy();
        p.multiplier = 0.5;
        assert_eq!(p.base_delay(3), SimDuration::from_secs(2));
    }
}
