//! Simulated mobile device for the PMWare reproduction.
//!
//! The paper measured location interfaces on an HTC A310E Explorer with a
//! 1230 mAh battery (Figure 1). This crate stands in for that phone:
//!
//! * [`energy`] — a per-interface energy model calibrated so that sensing
//!   GSM every minute yields ~11× the battery life of sensing GPS every
//!   minute, the headline ratio of Figure 1;
//! * [`battery`] — capacity and drain accounting, per interface;
//! * [`phone`] — [`phone::Device`]: sensors (GSM modem, WiFi
//!   scanner, GPS, accelerometer, Bluetooth) bound to a position source and
//!   a radio environment, every sample billed to the battery;
//! * [`motion`] — the accelerometer-based movement detector used to trigger
//!   WiFi scanning (§2.2.2).
//!
//! # Examples
//!
//! ```
//! use pmware_device::energy::{EnergyModel, Interface};
//! use pmware_world::SimDuration;
//!
//! let model = EnergyModel::htc_explorer();
//! let gps = model.battery_duration_hours(Interface::Gps, SimDuration::from_minutes(1));
//! let gsm = model.battery_duration_hours(Interface::Gsm, SimDuration::from_minutes(1));
//! let ratio = gsm / gps;
//! assert!(ratio > 10.0 && ratio < 12.5, "paper reports ~11x, got {ratio:.1}x");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod energy;
pub mod motion;
pub mod phone;

pub use battery::Battery;
pub use energy::{EnergyModel, Interface};
pub use motion::{MovementDetector, MovementSnapshot};
pub use phone::{Device, PositionProvider};
