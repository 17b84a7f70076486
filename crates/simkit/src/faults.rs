//! Deterministic fault injection.
//!
//! Failures are a first-class, scriptable input to a simulation: a
//! [`FaultPlan`] declares *when* each named target is down, and a
//! [`FaultInjector`] turns the plan into scheduled events that flip the
//! kill-switches upper layers register for those targets.
//!
//! Design points:
//!
//! - **Targets are plain string labels** (`"radio:bt"`, `"radio:wifi"`,
//!   `"radio:cell"`, `"sensor:temperature"`, `"broker"`, `"node:7"`, …)
//!   so this bottom-layer crate needs no knowledge of radios, sensors or
//!   brokers. The layer that owns a kill-switch picks the label; the
//!   testbed wires the two together.
//! - **Plans are compiled eagerly.** Probabilistic flapping draws all of
//!   its on/off intervals at *plan-build* time from a generator derived
//!   from `(plan seed, target label, call index)`. The schedule is
//!   therefore a pure function of the seed and the building calls —
//!   independent of event interleaving and of the order in which targets
//!   are configured — which is what makes failure scenarios exactly
//!   reproducible (same seed + same plan ⇒ same fault timeline).
//! - **State is queryable.** [`FaultPlan::is_up`] answers "was this
//!   target up at time t?" without running a simulation, so property
//!   tests can check "nothing was delivered through a down link" against
//!   the plan itself.
//!
//! # Example
//!
//! ```
//! use simkit::faults::{FaultInjector, FaultPlan};
//! use simkit::{Sim, SimDuration, SimTime};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut plan = FaultPlan::new(42);
//! plan.down_between("radio:bt", SimTime::from_secs(10), SimTime::from_secs(20));
//!
//! let sim = Sim::new();
//! let injector = FaultInjector::new(&sim);
//! let bt_up = Rc::new(Cell::new(true));
//! let flag = bt_up.clone();
//! injector.register("radio:bt", move |up| flag.set(up));
//! injector.install(&plan);
//!
//! sim.run_until(SimTime::from_secs(15));
//! assert!(!bt_up.get());
//! sim.run_until(SimTime::from_secs(25));
//! assert!(bt_up.get());
//! ```

#![deny(warnings)]

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::rng::DetRng;
use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A half-open downtime interval `[start, end)`; `end == None` means the
/// outage never heals (a kill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Downtime {
    start: SimTime,
    end: Option<SimTime>,
}

impl Downtime {
    fn covers(&self, at: SimTime) -> bool {
        at >= self.start && self.end.is_none_or(|e| at < e)
    }
}

/// One up/down edge of a compiled fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEdge {
    /// When the edge fires.
    pub at: SimTime,
    /// `true` = target comes back up, `false` = target goes down.
    pub up: bool,
}

/// A scripted, deterministic failure schedule over named targets.
///
/// Overlapping scripts compose by *union of downtime*: a target is down
/// at `t` iff any configured outage covers `t`. Every target starts up.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    downtimes: BTreeMap<String, Vec<Downtime>>,
    /// Per-target count of flap_random() calls, for derived-stream seeding.
    flap_calls: BTreeMap<String, u64>,
    /// Instants at which a crash-restarted target comes back up with
    /// empty state (as opposed to a transparent outage healing).
    restarts: BTreeMap<String, Vec<SimTime>>,
    /// Per-link lossy-delivery models, keyed by link label.
    links: BTreeMap<String, LinkFault>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives every probabilistic script added
    /// later; two plans built with the same seed and the same calls have
    /// identical schedules.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            downtimes: BTreeMap::new(),
            flap_calls: BTreeMap::new(),
            restarts: BTreeMap::new(),
            links: BTreeMap::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scripts an outage of `target` over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn down_between(&mut self, target: &str, from: SimTime, until: SimTime) -> &mut Self {
        assert!(from < until, "down_between requires from < until");
        self.downtimes
            .entry(target.to_owned())
            .or_default()
            .push(Downtime {
                start: from,
                end: Some(until),
            });
        self
    }

    /// Scripts a one-shot kill: `target` goes down at `at` and never
    /// recovers.
    pub fn kill_at(&mut self, target: &str, at: SimTime) -> &mut Self {
        self.downtimes
            .entry(target.to_owned())
            .or_default()
            .push(Downtime {
                start: at,
                end: None,
            });
        self
    }

    /// Scripts a crash-*restart*: `target` crashes at `at`, stays dark
    /// for `down_for`, then comes back up **with empty state**. The
    /// recovery instant is recorded separately from ordinary outage
    /// healing so harnesses can distinguish "the link came back" (state
    /// intact) from "the process restarted" (state wiped, recovery
    /// protocol must run).
    ///
    /// # Panics
    ///
    /// Panics if `down_for` is zero.
    pub fn crash_restart(&mut self, target: &str, at: SimTime, down_for: SimDuration) -> &mut Self {
        assert!(
            !down_for.is_zero(),
            "crash_restart requires non-zero downtime"
        );
        let back = at + down_for;
        self.down_between(target, at, back);
        let slot = self.restarts.entry(target.to_owned()).or_default();
        slot.push(back);
        slot.sort();
        slot.dedup();
        self
    }

    /// Instants at which `target` restarts with empty state (sorted).
    /// Empty for targets without a [`FaultPlan::crash_restart`] script.
    pub fn restarts(&self, target: &str) -> Vec<SimTime> {
        self.restarts.get(target).cloned().unwrap_or_default()
    }

    /// Attaches a lossy-delivery model to the link labelled `label`
    /// (e.g. `"link:0->1"`). Later calls for the same label replace the
    /// earlier model. Links not configured here are perfect.
    pub fn lossy_link(&mut self, label: &str, fault: LinkFault) -> &mut Self {
        self.links.insert(label.to_owned(), fault);
        self
    }

    /// The lossy-delivery model scripted for `label`, if any.
    pub fn link_fault(&self, label: &str) -> Option<LinkFault> {
        self.links.get(label).copied()
    }

    /// Scripts probabilistic link flapping over `[from, until)`:
    /// alternating up/down phases with exponentially distributed
    /// durations of the given means, starting up. The phase boundaries
    /// are drawn *now*, from a stream derived from the plan seed, the
    /// target label and how many flap scripts this target already has —
    /// so the timeline is reproducible and independent of what other
    /// targets do.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until` or either mean duration is zero.
    pub fn flap_random(
        &mut self,
        target: &str,
        from: SimTime,
        until: SimTime,
        mean_up: SimDuration,
        mean_down: SimDuration,
    ) -> &mut Self {
        assert!(from < until, "flap_random requires from < until");
        assert!(
            !mean_up.is_zero() && !mean_down.is_zero(),
            "flap_random requires non-zero mean phase durations"
        );
        let call = self.flap_calls.entry(target.to_owned()).or_insert(0);
        let stream = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ fnv1a(FNV_OFFSET, target.as_bytes())
            ^ call.wrapping_mul(0xD1B5_4A32_D192_ED03);
        *call += 1;
        let mut rng = DetRng::new(stream);
        let mut t = from;
        loop {
            // Up phase.
            let up_len = SimDuration::from_secs_f64(rng.exp(mean_up.as_secs_f64()));
            t += up_len;
            if t >= until {
                break;
            }
            // Down phase.
            let down_len = SimDuration::from_secs_f64(rng.exp(mean_down.as_secs_f64()));
            let down_end = (t + down_len).min(until);
            if down_end > t {
                self.downtimes
                    .entry(target.to_owned())
                    .or_default()
                    .push(Downtime {
                        start: t,
                        end: Some(down_end),
                    });
            }
            t = down_end;
            if t >= until {
                break;
            }
        }
        self
    }

    /// All targets this plan scripts anything for.
    pub fn targets(&self) -> Vec<&str> {
        self.downtimes.keys().map(String::as_str).collect()
    }

    /// Whether `target` is up at `at` under this plan. Unknown targets
    /// are always up.
    pub fn is_up(&self, target: &str, at: SimTime) -> bool {
        match self.downtimes.get(target) {
            None => true,
            Some(list) => !list.iter().any(|d| d.covers(at)),
        }
    }

    /// The compiled, merged up/down edge sequence for `target`
    /// (chronological; alternating `down, up, down, …` after merging
    /// overlapping scripts). Empty for unknown targets.
    pub fn edges(&self, target: &str) -> Vec<FaultEdge> {
        let Some(list) = self.downtimes.get(target) else {
            return Vec::new();
        };
        let mut intervals = list.clone();
        intervals.sort_by_key(|d| (d.start, d.end.is_none(), d.end));
        let mut merged: Vec<Downtime> = Vec::new();
        for d in intervals {
            match merged.last_mut() {
                Some(prev) if prev.end.is_none() => break, // swallowed by a kill
                Some(prev) if prev.end.is_some_and(|e| d.start <= e) => {
                    // Overlapping or adjacent: extend (a kill, `None`,
                    // swallows the rest).
                    prev.end = prev.end.zip(d.end).map(|(a, b)| a.max(b));
                }
                _ => merged.push(d),
            }
        }
        let mut edges = Vec::new();
        for d in merged {
            edges.push(FaultEdge {
                at: d.start,
                up: false,
            });
            if let Some(e) = d.end {
                edges.push(FaultEdge { at: e, up: true });
            }
        }
        edges
    }
}

/// A per-link lossy-delivery model: probabilistic drop, duplication,
/// bounded reorder and delay jitter. Probabilities are integer
/// parts-per-million so decisions are float-free and exactly portable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Probability (ppm) that a send is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a send is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a send is pushed behind later traffic by
    /// `reorder_delay`.
    pub reorder_ppm: u32,
    /// Extra latency added to reordered (and duplicate) copies — the
    /// bound on how far a packet can fall behind.
    pub reorder_delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]` added to every delivery.
    pub jitter: SimDuration,
}

impl LinkFault {
    /// A perfect link: nothing dropped, duplicated, reordered or
    /// delayed.
    pub const NONE: LinkFault = LinkFault {
        drop_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
        reorder_delay: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
    };

    /// Whether this model can perturb traffic at all.
    pub fn is_noop(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.reorder_ppm == 0 && self.jitter.is_zero()
    }
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault::NONE
    }
}

/// Counters for what a [`LinkChaos`] stream actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Sends pushed through the link (before any perturbation).
    pub sent: u64,
    /// Sends silently dropped.
    pub dropped: u64,
    /// Sends delivered twice.
    pub duplicated: u64,
    /// Sends pushed behind later traffic by the reorder delay.
    pub reordered: u64,
    /// Sends that picked up non-zero jitter.
    pub delayed: u64,
}

/// A runtime per-link chaos stream: owns a [`DetRng`] derived from
/// `(seed, link label)` and turns each send into zero or more delivery
/// copies with extra delays. Every decision consumes a *fixed* number
/// of draws, so the stream stays aligned no matter which outcomes fire
/// — a prerequisite for byte-identical transcripts per seed.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    fault: LinkFault,
    rng: DetRng,
    stats: LinkStats,
}

const LINK_SALT: u64 = 0x11A6_C7A0_5EED_0C11;

impl LinkChaos {
    /// A stream for the link labelled `label`, derived from `seed` and
    /// the label only (independent of construction order).
    pub fn new(seed: u64, label: &str, fault: LinkFault) -> Self {
        LinkChaos {
            fault,
            rng: DetRng::derive(seed, LINK_SALT ^ fnv1a(FNV_OFFSET, label.as_bytes())),
            stats: LinkStats::default(),
        }
    }

    /// The model this stream applies.
    pub fn fault(&self) -> LinkFault {
        self.fault
    }

    /// What the stream has done so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Decides the fate of one send: the returned vector holds one
    /// extra-delay per delivery copy — empty means the send was
    /// dropped, two entries mean it was duplicated. Consumes exactly
    /// four draws regardless of outcome.
    pub fn decide(&mut self) -> Vec<SimDuration> {
        self.stats.sent += 1;
        let drop_draw = self.rng.range_u64(0, 1_000_000);
        let dup_draw = self.rng.range_u64(0, 1_000_000);
        let reorder_draw = self.rng.range_u64(0, 1_000_000);
        let jitter_us = if self.fault.jitter.is_zero() {
            let _ = self.rng.next_u64(); // keep the draw count fixed
            0
        } else {
            self.rng.range_u64(0, self.fault.jitter.as_micros() + 1)
        };
        if drop_draw < u64::from(self.fault.drop_ppm) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let mut delay = SimDuration::from_micros(jitter_us);
        if jitter_us > 0 {
            self.stats.delayed += 1;
        }
        if reorder_draw < u64::from(self.fault.reorder_ppm) {
            self.stats.reordered += 1;
            delay += self.fault.reorder_delay;
        }
        let mut copies = vec![delay];
        if dup_draw < u64::from(self.fault.dup_ppm) {
            self.stats.duplicated += 1;
            copies.push(delay + self.fault.reorder_delay);
        }
        copies
    }
}

/// One applied fault transition, as recorded by the injector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// Target label.
    pub target: String,
    /// New state (`true` = restored).
    pub up: bool,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}",
            self.target,
            if self.up { "UP" } else { "DOWN" },
            self.at
        )
    }
}

type Toggle = Box<dyn Fn(bool)>;

#[derive(Default)]
struct InjectorState {
    toggles: BTreeMap<String, Vec<Toggle>>,
    log: Vec<FaultRecord>,
}

/// Schedules a [`FaultPlan`]'s edges on a [`Sim`] and flips the
/// registered kill-switches when they fire.
///
/// Cheap to clone (handle semantics). Kill-switches may be registered
/// before *or* after [`FaultInjector::install`]: toggles are looked up
/// when each edge fires, not when it is scheduled. Edges for targets
/// with no registered toggle are still recorded in the log, so tests can
/// assert the timeline even for layers they did not wire.
#[derive(Clone, Default)]
pub struct FaultInjector {
    sim: Sim,
    state: Rc<RefCell<InjectorState>>,
}

impl FaultInjector {
    /// Creates an injector bound to `sim`'s clock and queue.
    pub fn new(sim: &Sim) -> Self {
        FaultInjector {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(InjectorState::default())),
        }
    }

    /// Registers a kill-switch for `target`. Multiple switches per
    /// target are allowed; each fires on every edge.
    pub fn register(&self, target: impl Into<String>, toggle: impl Fn(bool) + 'static) {
        self.state
            .borrow_mut()
            .toggles
            .entry(target.into())
            .or_default()
            .push(Box::new(toggle));
    }

    /// Schedules every edge of `plan`. Edges in the past (relative to
    /// the sim clock) fire at the current instant. May be called with
    /// several plans; their schedules compose.
    pub fn install(&self, plan: &FaultPlan) {
        for target in plan.targets() {
            for edge in plan.edges(target) {
                let this = self.clone();
                let label = target.to_owned();
                let up = edge.up;
                self.sim
                    .schedule_at(edge.at, move || this.apply(&label, up));
            }
        }
    }

    /// Applies a transition immediately (outside any plan) — useful for
    /// ad-hoc experiments and for tests of the wiring itself.
    pub fn apply(&self, target: &str, up: bool) {
        // Run the switches after releasing the borrow: a toggle may
        // re-enter the injector (e.g. to read the log).
        let switches: Vec<Toggle> = {
            let mut state = self.state.borrow_mut();
            state.log.push(FaultRecord {
                at: self.sim.now(),
                target: target.to_owned(),
                up,
            });
            match state.toggles.get_mut(target) {
                Some(list) => std::mem::take(list),
                None => Vec::new(),
            }
        };
        for s in &switches {
            s(up);
        }
        if !switches.is_empty() {
            let mut state = self.state.borrow_mut();
            let slot = state.toggles.entry(target.to_owned()).or_default();
            // Re-attach, keeping any switches registered re-entrantly.
            let mut merged = switches;
            merged.append(slot);
            *slot = merged;
        }
    }

    /// Chronological record of every applied transition.
    pub fn log(&self) -> Vec<FaultRecord> {
        self.state.borrow().log.clone()
    }

    /// Number of applied transitions (cheaper than cloning the log).
    pub fn transitions_applied(&self) -> usize {
        self.state.borrow().log.len()
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("FaultInjector")
            .field("targets", &state.toggles.keys().collect::<Vec<_>>())
            .field("transitions_applied", &state.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn down_between_bounds_are_half_open() {
        let mut p = FaultPlan::new(1);
        p.down_between("x", secs(10), secs(20));
        assert!(p.is_up("x", secs(9)));
        assert!(!p.is_up("x", secs(10)));
        assert!(!p.is_up("x", secs(19)));
        assert!(p.is_up("x", secs(20)));
        assert!(p.is_up("unknown", secs(15)));
    }

    #[test]
    fn kill_never_recovers() {
        let mut p = FaultPlan::new(1);
        p.kill_at("x", secs(5));
        assert!(p.is_up("x", secs(4)));
        assert!(!p.is_up("x", secs(5)));
        assert!(!p.is_up("x", secs(1_000_000)));
        assert_eq!(
            p.edges("x"),
            vec![FaultEdge {
                at: secs(5),
                up: false
            }]
        );
    }

    #[test]
    fn overlapping_outages_merge() {
        let mut p = FaultPlan::new(1);
        p.down_between("x", secs(10), secs(20));
        p.down_between("x", secs(15), secs(30));
        p.down_between("x", secs(40), secs(45));
        let edges = p.edges("x");
        assert_eq!(
            edges,
            vec![
                FaultEdge {
                    at: secs(10),
                    up: false
                },
                FaultEdge {
                    at: secs(30),
                    up: true
                },
                FaultEdge {
                    at: secs(40),
                    up: false
                },
                FaultEdge {
                    at: secs(45),
                    up: true
                },
            ]
        );
    }

    #[test]
    fn edges_and_is_up_agree() {
        let mut p = FaultPlan::new(7);
        p.down_between("x", secs(5), secs(8));
        p.flap_random(
            "x",
            secs(10),
            secs(200),
            SimDuration::from_secs(20),
            SimDuration::from_secs(10),
        );
        p.kill_at("x", secs(500));
        let edges = p.edges("x");
        // Alternating polarity, strictly increasing times.
        for pair in edges.windows(2) {
            assert!(pair[0].at < pair[1].at, "non-monotonic edges");
            assert_ne!(pair[0].up, pair[1].up, "non-alternating edges");
        }
        // Walk the edge sequence and compare with is_up at probe points.
        for t in (0..600).map(secs) {
            let state_from_edges = edges
                .iter()
                .take_while(|e| e.at <= t)
                .last()
                .is_none_or(|e| e.up);
            assert_eq!(state_from_edges, p.is_up("x", t), "mismatch at {t}");
        }
    }

    #[test]
    fn flap_random_is_deterministic_and_target_independent() {
        let build = |order_swapped: bool| {
            let mut p = FaultPlan::new(99);
            let win = (secs(0), secs(1_000));
            let up = SimDuration::from_secs(30);
            let down = SimDuration::from_secs(15);
            if order_swapped {
                p.flap_random("b", win.0, win.1, up, down);
                p.flap_random("a", win.0, win.1, up, down);
            } else {
                p.flap_random("a", win.0, win.1, up, down);
                p.flap_random("b", win.0, win.1, up, down);
            }
            (p.edges("a"), p.edges("b"))
        };
        let (a1, b1) = build(false);
        let (a2, b2) = build(true);
        assert_eq!(a1, a2, "flap_random schedule depends on build order");
        assert_eq!(b1, b2, "flap_random schedule depends on build order");
        assert!(!a1.is_empty(), "flap_random produced no edges over 1000s");
        assert_ne!(a1, b1, "distinct targets should flap independently");

        // And a different seed gives a different timeline.
        let mut other = FaultPlan::new(100);
        other.flap_random(
            "a",
            secs(0),
            secs(1_000),
            SimDuration::from_secs(30),
            SimDuration::from_secs(15),
        );
        assert_ne!(a1, other.edges("a"));
    }

    #[test]
    fn crash_restart_records_recovery_instants() {
        let mut p = FaultPlan::new(5);
        p.crash_restart("broker:2", secs(10), SimDuration::from_secs(8));
        assert!(p.is_up("broker:2", secs(9)));
        assert!(!p.is_up("broker:2", secs(12)));
        assert!(p.is_up("broker:2", secs(18)));
        assert_eq!(p.restarts("broker:2"), vec![secs(18)]);
        assert_eq!(p.restarts("broker:0"), Vec::<SimTime>::new());
        // A plain outage heals without a restart record.
        p.down_between("broker:2", secs(30), secs(40));
        assert_eq!(p.restarts("broker:2"), vec![secs(18)]);
    }

    #[test]
    fn link_chaos_streams_are_seeded_per_label() {
        let fault = LinkFault {
            drop_ppm: 200_000,
            dup_ppm: 100_000,
            reorder_ppm: 150_000,
            reorder_delay: SimDuration::from_millis(40),
            jitter: SimDuration::from_millis(10),
        };
        let mut p = FaultPlan::new(42);
        p.lossy_link("link:0->1", fault);
        p.lossy_link("link:1->0", fault);
        assert_eq!(p.link_fault("link:0->1"), Some(fault));
        assert_eq!(p.link_fault("link:9->9"), None);
        let chaos = |label: &str| {
            LinkChaos::new(
                p.seed(),
                label,
                p.link_fault(label).expect("configured link"),
            )
        };

        let run = |label: &str| {
            let mut c = chaos(label);
            (0..2_000).map(|_| c.decide()).collect::<Vec<_>>()
        };
        // Same label replays identically; different labels diverge.
        assert_eq!(run("link:0->1"), run("link:0->1"));
        assert_ne!(run("link:0->1"), run("link:1->0"));

        // Observed rates land near the configured ppm.
        let mut c = chaos("link:0->1");
        for _ in 0..10_000 {
            let copies = c.decide();
            assert!(copies.len() <= 2);
            for d in &copies {
                assert!(
                    *d <= fault.jitter + fault.reorder_delay + fault.reorder_delay,
                    "delay beyond the configured bound"
                );
            }
        }
        let s = c.stats();
        assert_eq!(s.sent, 10_000);
        let near = |got: u64, ppm: u64| {
            let want = ppm * s.sent / 1_000_000;
            got > want / 2 && got < want * 2
        };
        assert!(near(s.dropped, 200_000), "dropped={}", s.dropped);
        assert!(near(s.duplicated, 100_000), "duplicated={}", s.duplicated);
        assert!(near(s.reordered, 150_000), "reordered={}", s.reordered);
        assert!(s.delayed > 0);
    }

    #[test]
    fn noop_link_fault_delivers_exactly_once_undelayed() {
        let mut c = LinkChaos::new(7, "link:a", LinkFault::NONE);
        assert!(LinkFault::NONE.is_noop());
        for _ in 0..100 {
            assert_eq!(c.decide(), vec![SimDuration::ZERO]);
        }
        let s = c.stats();
        assert_eq!(
            (s.dropped, s.duplicated, s.reordered, s.delayed),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn injector_flips_switch_at_scripted_times() {
        let mut p = FaultPlan::new(3);
        p.down_between("radio:bt", secs(10), secs(20));
        let sim = Sim::new();
        let inj = FaultInjector::new(&sim);
        let up = Rc::new(Cell::new(true));
        let flag = up.clone();
        inj.register("radio:bt", move |state| flag.set(state));
        inj.install(&p);
        sim.run_until(secs(9));
        assert!(up.get());
        sim.run_until(secs(10));
        assert!(!up.get());
        sim.run_until(secs(20));
        assert!(up.get());
        let log = inj.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].at, secs(10));
        assert!(!log[0].up);
        assert_eq!(log[1].at, secs(20));
        assert!(log[1].up);
    }

    #[test]
    fn late_registration_still_sees_future_edges() {
        let mut p = FaultPlan::new(3);
        p.down_between("x", secs(10), secs(20));
        let sim = Sim::new();
        let inj = FaultInjector::new(&sim);
        inj.install(&p);
        sim.run_until(secs(5));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        inj.register("x", move |state| sink.borrow_mut().push(state));
        sim.run_until(secs(30));
        assert_eq!(*seen.borrow(), vec![false, true]);
    }

    #[test]
    fn unregistered_targets_are_logged_not_lost() {
        let mut p = FaultPlan::new(3);
        p.kill_at("ghost", secs(1));
        let sim = Sim::new();
        let inj = FaultInjector::new(&sim);
        inj.install(&p);
        sim.run_until_idle();
        assert_eq!(inj.transitions_applied(), 1);
        assert_eq!(inj.log()[0].target, "ghost");
    }

    #[test]
    fn multiple_switches_per_target_all_fire() {
        let sim = Sim::new();
        let inj = FaultInjector::new(&sim);
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let c = count.clone();
            inj.register("x", move |_| c.set(c.get() + 1));
        }
        inj.apply("x", false);
        inj.apply("x", true);
        assert_eq!(count.get(), 6);
    }
}
