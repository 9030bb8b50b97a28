//! PMWare Mobile Service (PMS) — the middleware itself.
//!
//! This crate is the paper's primary contribution: a single service on the
//! (simulated) phone that takes over place and route sensing for every
//! connected application (§2.2). Its pieces map one-to-one onto Figure 3:
//!
//! * [`requirements`] — place-granularity classes (room / building / area,
//!   Figure 2) and what each application asks for;
//! * [`apps`] — the **connected applications module**: registration,
//!   per-app intent filters, and the aggregate sensing demand;
//! * [`preferences`] — **user preferences**: per-app granularity
//!   permissions, payload coarsening, and the global kill switch;
//! * [`intents`] — the message-passing interface (Android-intent-like
//!   broadcasts) connecting PMS to third-party applications;
//! * [`sensing`] — the **triggered-sensing scheduler**: GSM continuously,
//!   WiFi/GPS/Bluetooth on demand, gated by the accelerometer movement
//!   detector;
//! * [`inference`] — the **inference engine** running the discovery
//!   algorithms over live sensor streams;
//! * [`registry`] — the unified place table (signatures, labels, positions);
//! * [`profile_builder`] — day-specific mobility-profile assembly;
//! * [`cloud_client`] — the REST client for the cloud instance (PCI);
//! * [`pms`] — [`pms::PmwareMobileService`], the
//!   orchestrator that runs the whole pipeline over simulated time.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for the end-to-end
//! flow: build a world, register an app, run PMS for a simulated week, and
//! read the discovered places and battery cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod checkpoint;
pub mod cloud_client;
pub mod error;
pub mod inference;
pub mod intents;
pub mod pms;
pub mod preferences;
pub mod profile_builder;
pub mod registry;
pub mod requirements;
pub mod sensing;

pub use apps::{AppId, AppRegistration, ConnectedApps};
pub use checkpoint::PmsCheckpoint;
pub use cloud_client::{ClientState, CloudClient};
pub use error::PmsError;
pub use intents::{Intent, IntentBus, IntentFilter};
pub use pms::{PmsConfig, PmsReport, PmwareMobileService};
pub use preferences::UserPreferences;
pub use registry::{diary, score_against_diary, DIARY_MIN_SHARE};
pub use requirements::{AppRequirement, Granularity, RouteAccuracy};

// The identifier interner lives in `pmware-world` (below every consumer in
// the dependency graph) but is part of the middleware's public surface.
pub use pmware_world::intern::{Interner, Symbol};
