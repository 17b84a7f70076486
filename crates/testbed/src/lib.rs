//! # contory-testbed
//!
//! Binds the platform-agnostic `contory` middleware to the simulated
//! smart-phone platform: implementations of the four Reference traits
//! over the radio models, the Smart Messages platform and the Fuego
//! event middleware — plus scenario builders that assemble whole testbeds
//! (the paper's §6.1 rig of Nokia phones, communicators, a BT-GPS puck
//! and a remote context infrastructure) and a measurement harness that
//! reproduces the paper's methodology (repeated operations, mean with
//! 90 % confidence interval, energy from the series multimeter).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod harness;
mod refs_impl;
mod scenario;

pub use convert::{item_to_record, reading_to_item, record_to_item};
pub use harness::{measure_async, run_until_flag, EnergyProbe};
pub use refs_impl::{SimBtReference, SimCellReference, SimInternalReference, SimWifiReference};
pub use scenario::{PhoneSetup, Testbed, TestbedPhone};
