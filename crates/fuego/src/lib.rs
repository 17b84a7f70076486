//! # contory-fuego
//!
//! A reproduction of the **Fuego Core** event middleware (Tarkoma et al.,
//! PIMRC 2006) that Contory's `2G/3GReference` uses to talk to external
//! context infrastructures: a scalable distributed event framework with
//! XML-based messaging, running over GPRS/UMTS.
//!
//! Pieces:
//!
//! - [`xml`]: a small XML writer/parser used to encode event
//!   notifications. The paper reports a context item or query wrapped in
//!   an event notification weighs **1696 bytes** on the wire; the
//!   [`event::EventNotification`] envelope reproduces that framing (and
//!   hence the UMTS latency/energy the paper measured).
//! - [`EventBroker`]: the fixed-side router: topic subscriptions,
//!   publish fan-out, and the context infrastructure's
//!   request/response services over the record store it owns.
//! - [`FuegoClient`]: the phone-side endpoint over a
//!   [`radio::cell::CellModem`], with publish / subscribe / request.
//! - [`ContextInfrastructure`]: the remote context service, a handle on
//!   its broker — stores context records pushed by phones and answers
//!   on-demand, periodic and event-based context queries (the paper's
//!   `extInfra` provisioning).
//! - [`compat`]: brokerd context packets rendered into the same fixed
//!   1696-byte envelope, so a broker packet costs the frame Table 1
//!   measured (the `extInfra` leg itself runs over
//!   [`ContextInfrastructure`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod client;
pub mod compat;
pub mod event;
mod infra;
pub mod xml;

pub use broker::{EventBroker, SubId};
pub use client::{FuegoClient, RequestError};
pub use infra::{
    ContextInfrastructure, InfraClient, InfraQuery, InfraRecord, InfraSubscription, PushMode,
};
