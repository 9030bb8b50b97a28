//! Experiment harnesses for the PMWare reproduction.
//!
//! Each module regenerates one of the paper's quantitative artefacts (see
//! `DESIGN.md` §4 for the experiment index); the binaries under `src/bin`
//! print the tables, and the criterion benches under `benches/` measure
//! micro-performance.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_power` | Figure 1 — battery duration per interface × period |
//! | `fig2_characterization` | Figure 2 — app taxonomy by granularity |
//! | `deployment_study` | §4 — 16 participants × 2 weeks, all statistics |
//! | `wifi_coverage` | §1 item 4 — WiFi-covered fraction of a day by region |
//! | `ablation_triggered` | §2.2.2 — triggered sensing vs alternatives |
//! | `ablation_redundancy` | §1 item 3 — shared PMS vs isolated pipelines |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod deployment;
pub mod parallel;
pub mod sensing_modes;
pub mod wifi_coverage;

use pmware_cloud::{SharedCloud, UserId};

/// One user's durable cloud-side state (places, profiles, absorbed
/// observation count, contacts), canonically serialized: two runs that
/// left a user in the same state give equal strings. The chaos soak and
/// the admission study probe convergence with it.
pub fn cloud_snapshot(cloud: &SharedCloud, user: UserId) -> String {
    serde_json::to_string(&(
        cloud.places_of(user),
        cloud.profiles_of(user),
        cloud.observation_count(user),
        cloud.contacts_of(user),
    ))
    .expect("snapshot serializes")
}
