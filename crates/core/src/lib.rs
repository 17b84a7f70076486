//! # Contory
//!
//! A Rust reproduction of **Contory: A Middleware for the Provisioning of
//! Context Information on Smart Phones** (Oriana Riva, MIDDLEWARE 2006).
//!
//! Contory provides context-aware applications with a single, declarative
//! way to obtain context items — *"SELECT temperature FROM
//! adHocNetwork(10,3) WHERE accuracy=0.2 FRESHNESS 30 sec DURATION 1 hour
//! EVENT AVG(temperature)>25"* — while the middleware chooses and manages
//! the underlying provisioning mechanism:
//!
//! - **internal sensor-based** (`intSensor`): sensors on the device or
//!   attached over Bluetooth (e.g. a BT-GPS),
//! - **external infrastructure-based** (`extInfra`): a remote context
//!   service reached over 2G/3G,
//! - **distributed in ad hoc networks** (`adHocNetwork`): one-hop
//!   Bluetooth or multi-hop WiFi via Smart Messages.
//!
//! The architecture follows the paper's Fig. 2: a [`ContextFactory`]
//! fronting per-mechanism `Facade`s (which aggregate similar queries),
//! `CxtProvider`s doing the actual provisioning behind [`refs`]
//! (Reference) traits, a [`QueryManager`], a [`CxtRepository`], a
//! [`CxtPublisher`], a [`ResourcesMonitor`] driving transparent failover
//! between mechanisms, an [`AccessController`], and `contextRule` control
//! policies ([`policy`]).
//!
//! The crate is platform-agnostic above the [`refs`] traits: the
//! simulated smart-phone platform lives in `contory-testbed`, which is
//! also where the paper's testbed experiments run.
//!
//! ## Quick start
//!
//! ```
//! use contory::query::CxtQuery;
//!
//! let q = CxtQuery::parse(
//!     "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 \
//!      FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25",
//! )?;
//! assert_eq!(q.select, "temperature");
//! # Ok::<(), contory::query::ParseQueryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod aggregator;
pub mod backoff;
mod client;
mod error;
mod facade;
mod factory;
pub mod failover;
mod item;
mod manager;
pub mod merge;
mod monitor;
pub mod policy;
mod predicate;
mod providers;
mod publisher;
pub mod query;
pub mod refs;
mod repository;
pub mod vocab;

pub use access::{AccessController, AccessDecision, SecurityMode};
pub use aggregator::{AggregationStrategy, CxtAggregator};
pub use backoff::{BackoffPolicy, BackoffState};
pub use client::{Client, ClientEvent, CollectingClient};
pub use error::ContoryError;
pub use facade::Facade;
pub use factory::{ContextFactory, FactoryConfig, Mechanism, QueryId};
pub use failover::{FailoverConfig, FailoverReport, FailoverTracker, QueryFailover};
pub use item::{CxtItem, CxtValue, Metadata, SourceId, Trust};
pub use manager::QueryManager;
pub use monitor::{ResourceEvent, ResourceLevel, ResourcesMonitor};
pub use predicate::EventWindow;
pub use publisher::CxtPublisher;
pub use repository::CxtRepository;
pub use vocab::{cxt_types, metadata_keys, operators, rule_actions, Interner, Sym};
