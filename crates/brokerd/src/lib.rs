//! # brokerd — the federated context-broker service
//!
//! Contory's third provisioning leg (`extInfra`, §4/Fig. 5) talks to a
//! *context infrastructure*: a service that absorbs published context,
//! matches it against subscriptions and survives when local sensing and
//! ad hoc networking fail. This crate is that service, grown from the
//! paper's single XML broker into the federated design of the
//! cloud-brokering follow-up work: several brokers gossip load digests
//! and forward published context to each other.
//!
//! ## One core, two harnesses
//!
//! The broker itself is the *pure* [`BrokerNode`]: `(input, now) →`
//! [`Effect`]s, no clock, no socket, no thread. Two harnesses
//! interpret it:
//!
//! * [`fleet`] — brokers and 10k-device populations as
//!   [`simkit::shard::ShardSim`] actors; byte-identical across shard and
//!   thread counts, gated by the `broker_load` benchkit scenario;
//! * [`net`] — a real multi-threaded loopback TCP service
//!   (`std::net::TcpListener`, line protocol in [`wire`]) driven by a
//!   logical clock carried in every frame — no wall clock anywhere.
//!
//! Neither harness is wired into the device middleware: the testbed's
//! `extInfra` leg runs over fuego (`testbed::refs_impl::SimCellReference`),
//! and the only middleware module this crate uses is `contory::vocab`.
//!
//! ## The hygiene contract
//!
//! Every packet a broker touches carries a **mandatory expiry** and a
//! **mandatory source attribution** ([`ContextPacket`] cannot be built
//! without either); unattributed or expired publishes are refused at
//! [`admission`] with typed errors, and expiry is enforced at every read
//! *and* by deterministic sweeps — the same contract
//! `contory::CxtRepository` enforces device-side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod dedup;
pub mod federation;
pub mod fleet;
pub mod net;
pub mod node;
pub mod packet;
pub mod table;
pub mod wire;

pub use admission::{AdmissionStats, BrokerError};
pub use dedup::{DedupWindow, SeqVerdict, SEQ_WINDOW};
pub use federation::{LoadDigest, PeerView};
pub use fleet::{
    fault_edges, link_faults, link_label, restart_edges, run_fleet, run_fleet_profiled,
    run_fleet_traced, FleetConfig, FleetEvent, FleetOutcome,
};
pub use node::{Admitted, BrokerNode, DirEntry, Effect, NodeConfig, NodeStats};
pub use packet::{BrokerId, ContextPacket, PacketSeq, MAX_HOPS};
pub use table::{SubId, SubMode, Subscription, SubscriptionTable, SweepStats};
pub use wire::{pct_decode, pct_encode, Request, Response, WireError, MAX_FRAME_BYTES};
