//! Synthetic human mobility for the PMWare reproduction.
//!
//! The paper's deployment study (§4) followed 16 participants for two weeks,
//! with a diary app recording ground-truth place visits. This crate replaces
//! the participants: a [`population`] of schedule-driven [`agent`]s moves
//! through a [`pmware_world::World`] along roads, dwelling at places
//! according to weekday/weekend [`schedule`] templates, producing
//!
//! * a continuous [`trajectory::Itinerary`] (position + motion state at any
//!   instant) that the device simulator samples, and
//! * a perfect [`visit::TrueVisit`] diary used as ground truth when scoring
//!   discovered places as *correct*, *merged*, or *divided*.
//!
//! Everything is deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use pmware_world::builder::{RegionProfile, WorldBuilder};
//! use pmware_mobility::population::Population;
//!
//! let world = WorldBuilder::new(RegionProfile::test_tiny()).seed(1).build();
//! let pop = Population::generate(&world, 4, 11);
//! let itinerary = pop.itinerary(&world, pop.agents()[0].id(), 7);
//! assert!(!itinerary.visits().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod population;
pub mod schedule;
pub mod trajectory;
pub mod visit;

pub use agent::{AgentId, AgentProfile};
pub use population::Population;
pub use trajectory::{Itinerary, Segment};
pub use visit::TrueVisit;
