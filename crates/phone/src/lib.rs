//! # contory-phone
//!
//! Smart-phone device model for the Contory reproduction.
//!
//! The paper's evaluation ran on Nokia 6630 / 7610 phones and Nokia 9500
//! communicators with a Fluke 189 multimeter wired in series with the
//! battery (paper Fig. 3). This crate reproduces that measurement rig in
//! simulation:
//!
//! - [`PhoneModel`]: per-device profiles (CPU, RAM, radios).
//! - [`PowerModel`]: a registry of named power consumers whose summed draw
//!   is recorded as a step-function trace. The baseline numbers come from
//!   the paper §6.1: display+backlight 76.20 mW, backlight off 14.35 mW,
//!   display off 5.75 mW, + BT page/inquiry scan → 8.47 mW, + Contory
//!   running → 10.11 mW.
//! - [`Battery`]: 4.0965 V pack with internal resistance and a protection
//!   circuit — reproducing the paper's observation that the communicator
//!   switched off under WiFi in-rush current because of the meter's burden
//!   resistance (hence the `>` lower bounds in Table 2).
//! - [`Multimeter`]: samples current every 500 ms with the Fluke 189's
//!   accuracy (0.75 %), precision (0.15 %) and 1.8 mV/mA shunt.
//! - [`Phone`]: the assembled device handle used by the radio models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod device;
mod meter;
mod power;
mod profiles;
mod units;

pub use battery::Battery;
pub use device::{Phone, PhoneConfig};
pub use meter::{Multimeter, MultimeterConfig};
pub use power::{baseline, Consumer, PowerModel};
pub use profiles::{PhoneModel, PhoneSpec};
pub use units::{Milliamps, Millijoules, Milliwatts, Volts};
