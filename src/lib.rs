//! # PMWare — a middleware for discovering and managing places of human interest
//!
//! A full Rust reproduction of *PMWare* (Yadav, Kumar, Jassal, Naik — ACM
//! Middleware 2014), including every substrate the paper's evaluation
//! needed: a synthetic radio world, schedule-driven human mobility, a
//! simulated phone with a calibrated energy model, the three place-
//! discovery algorithms (GCA, SensLoc, Kang et al.), the PMWare mobile
//! service (triggered sensing, intent bus, privacy granularities, mobility
//! profiles), the cloud instance (REST API, auth, analytics, prediction,
//! geolocation), and the connected applications from the paper (PlaceADs,
//! To-Do, life logging).
//!
//! This facade crate re-exports the workspace members under one roof; see
//! each member crate for details:
//!
//! * [`geo`] — geographic primitives
//! * [`world`] — the synthetic radio world
//! * [`mobility`] — simulated participants
//! * [`device`] — the simulated phone and its battery
//! * [`algorithms`] — GCA / SensLoc / Kang / routes / scoring
//! * [`cloud`] — the PMWare cloud instance (PCI)
//! * [`core`] — the PMWare mobile service (PMS)
//! * [`apps`] — connected applications
//! * [`obs`] — sim-time tracing and the metrics registry
//!
//! # Quickstart
//!
//! ```
//! use pmware::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A city, one participant, one phone.
//! let world = WorldBuilder::new(RegionProfile::test_tiny()).seed(7).build();
//! let population = Population::generate(&world, 1, 7);
//! let itinerary = population.itinerary(&world, population.agents()[0].id(), 2);
//! let env = RadioEnvironment::new(&world, RadioConfig::default());
//! let phone = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 7);
//! let cloud = SharedCloud::new(CloudInstance::new(
//!     CellDatabase::from_world(&world),
//!     7,
//! ));
//!
//! // The middleware, with one connected app.
//! let mut pms = PmwareMobileService::new(
//!     phone,
//!     cloud,
//!     PmsConfig::for_participant(0),
//!     SimTime::EPOCH,
//! )?;
//! let events = pms.register_app(
//!     "quickstart",
//!     AppRequirement::places(Granularity::Building),
//!     IntentFilter::all(),
//! );
//!
//! // Two simulated days.
//! pms.run(SimTime::from_day_time(2, 0, 0, 0))?;
//! assert!(!pms.places().is_empty());
//! drop(events);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pmware_algorithms as algorithms;
pub use pmware_apps as apps;
pub use pmware_cloud as cloud;
pub use pmware_core as core;
pub use pmware_device as device;
pub use pmware_geo as geo;
pub use pmware_mobility as mobility;
pub use pmware_obs as obs;
pub use pmware_world as world;

/// The most common imports in one place.
pub mod prelude {
    pub use pmware_algorithms::matching::{classify_places, GroundTruthVisit};
    pub use pmware_algorithms::signature::{DiscoveredPlace, PlaceSignature};
    pub use pmware_apps::{AdInventory, LifeLogApp, PlaceAdsApp, TodoApp, UserTasteModel};
    pub use pmware_cloud::{
        CellDatabase, CloudEndpoint, CloudInstance, FaultKind, FaultPlan, FaultyCloud, InstanceId,
        SharedCloud, TopologyRouter,
    };
    pub use pmware_core::intents::{actions, Intent, IntentFilter};
    pub use pmware_core::{
        AppRequirement, Granularity, PmsCheckpoint, PmsConfig, PmwareMobileService, RouteAccuracy,
        UserPreferences,
    };
    pub use pmware_device::{Device, EnergyModel, Interface};
    pub use pmware_geo::{GeoPoint, Meters};
    pub use pmware_mobility::{AgentId, Itinerary, Population};
    pub use pmware_obs::Obs;
    pub use pmware_world::builder::{PlaceMix, RegionProfile, WorldBuilder};
    pub use pmware_world::radio::{RadioConfig, RadioEnvironment};
    pub use pmware_world::{SimDuration, SimTime, World};
}
