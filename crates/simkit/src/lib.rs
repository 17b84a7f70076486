//! # contory-simkit
//!
//! Deterministic discrete-event simulation kernel used by every substrate in
//! the Contory reproduction (phones, radios, Smart Messages, the event
//! infrastructure and the application scenarios).
//!
//! The classic kernel ([`Sim`]) is intentionally small and
//! single-threaded: the paper's evaluation is about *latency* and
//! *energy*, both of which we obtain by advancing a virtual clock, so
//! wall-clock concurrency would only add non-determinism. A scenario
//! seed fully determines every event ordering, which makes the benchmark
//! tables exactly reproducible run-over-run.
//!
//! For populations far beyond the paper's regatta (the ROADMAP's
//! city-scale north star) the [`shard`] module adds a *partitioned*
//! engine, [`ShardSim`]: per-shard event queues under a
//! partition-independent `(time, actor, seq)` total order, a
//! deterministic cross-shard merge batched at time-step barriers, and
//! scoped-thread parallel stepping of the rounds big enough to repay
//! it. Same seed ⇒ byte-identical outputs for any shard or thread
//! count, so parallelism never costs reproducibility.
//!
//! Main pieces:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time.
//! - [`Sim`]: the event queue. Cheap to clone (handle semantics); events are
//!   `FnOnce` closures, repeating timers are supported via
//!   [`Sim::schedule_repeating`].
//! - [`DetRng`]: seeded random source with the distributions the radio
//!   models need (uniform, Gaussian, log-normal, exponential).
//! - [`stats`]: online mean/variance and the 90 % confidence intervals the
//!   paper reports next to every measurement.
//! - [`Histogram`]: the one log2-bucketed histogram, shared by the
//!   engine profile and (re-exported) obskit's metrics registry.
//! - [`trace::TimeSeries`]: step-function time series used for power traces
//!   (paper Figs. 4 and 5), with integration and ASCII rendering.
//! - [`faults`]: deterministic fault injection — scripted
//!   [`FaultPlan`]s compiled to up/down edges and applied to registered
//!   kill-switches by a [`FaultInjector`] (paper Fig. 5's source
//!   failures, made reproducible).
//! - [`hash`]: the one FNV-1a and the one SplitMix64 mixer every
//!   digest and derived stream in the workspace uses.
//!
//! # Example
//!
//! ```
//! use simkit::{Sim, SimDuration};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let sim = Sim::new();
//! let fired = Rc::new(Cell::new(false));
//! let f = fired.clone();
//! sim.schedule_in(SimDuration::from_millis(5), move || f.set(true));
//! sim.run_until_idle();
//! assert!(fired.get());
//! assert_eq!(sim.now().as_millis(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod hash;
mod hist;
mod rng;
pub mod shard;
mod sim;
pub mod stats;
mod time;
pub mod trace;

pub use faults::{FaultInjector, FaultPlan};
pub use hist::Histogram;
pub use rng::DetRng;
pub use shard::{ActorId, EventCtx, EventKey, ShardConfig, ShardSim};
pub use sim::Sim;
pub use time::{SimDuration, SimTime};
