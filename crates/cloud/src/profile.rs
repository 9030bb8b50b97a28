//! The PMWare mobility representation (§2.1.3).
//!
//! *"Mobility Profile is a spatio-temporal representation of user's
//! mobility \[…\] It consists of visited places information along with
//! their respective arrival and departure information, routes information
//! with their start and end time, and social contacts with the encounter
//! start and end time during place visits. In PMWare, a day-specific
//! mobility profile is stored."*
//!
//! `M_X = (P_1,a_1,d_1)… and (R_1,s_1,e_1)… and (H_1,s_1,e_1)…`

use pmware_algorithms::route::RouteId;
use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_world::SimTime;
use serde::{Deserialize, Serialize};

/// `(P_i, a_i, d_i)`: a place visit in the profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaceEntry {
    /// The discovered place.
    pub place: DiscoveredPlaceId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Departure time.
    pub departure: SimTime,
}

/// `(R_i, s_i, e_i)`: a route traversal in the profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// The canonical route.
    pub route: RouteId,
    /// Traversal start.
    pub start: SimTime,
    /// Traversal end.
    pub end: SimTime,
}

/// `(H_i, s_i, e_i)`: a social encounter in the profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContactEntry {
    /// Opaque identifier of the encountered contact (e.g. a hashed
    /// Bluetooth address).
    pub contact: String,
    /// Encounter start.
    pub start: SimTime,
    /// Encounter end.
    pub end: SimTime,
    /// Place at which the encounter happened, when known.
    pub place: Option<DiscoveredPlaceId>,
}

/// Daily activity summary from the accelerometer-based detector — the
/// "activity tracking" contextual extension the paper's §6 plans
/// ("we intend to extend the capabilities of PMWare by integrating other
/// contextual information such as activity tracking").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ActivitySummary {
    /// Seconds classified as moving.
    pub moving_seconds: u64,
    /// Seconds classified as stationary.
    pub stationary_seconds: u64,
}

/// A day-specific mobility profile.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MobilityProfile {
    /// Day index since the simulation epoch.
    pub day: u64,
    /// Place visits, in time order.
    pub places: Vec<PlaceEntry>,
    /// Route traversals, in time order.
    pub routes: Vec<RouteEntry>,
    /// Social encounters, in time order.
    pub contacts: Vec<ContactEntry>,
    /// Daily activity summary (§6 extension).
    #[serde(default)]
    pub activity: ActivitySummary,
}

impl MobilityProfile {
    /// An empty profile for a day.
    pub fn new(day: u64) -> Self {
        MobilityProfile {
            day,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(min: u64) -> SimTime {
        SimTime::from_seconds(min * 60)
    }

    fn profile() -> MobilityProfile {
        MobilityProfile {
            day: 0,
            places: vec![
                PlaceEntry {
                    place: DiscoveredPlaceId(0),
                    arrival: t(0),
                    departure: t(500),
                },
                PlaceEntry {
                    place: DiscoveredPlaceId(1),
                    arrival: t(540),
                    departure: t(1_000),
                },
                PlaceEntry {
                    place: DiscoveredPlaceId(0),
                    arrival: t(1_040),
                    departure: t(1_440),
                },
            ],
            routes: vec![
                RouteEntry {
                    route: RouteId(0),
                    start: t(500),
                    end: t(540),
                },
                RouteEntry {
                    route: RouteId(1),
                    start: t(1_000),
                    end: t(1_040),
                },
            ],
            contacts: vec![ContactEntry {
                contact: "peer-7".into(),
                start: t(600),
                end: t(700),
                place: Some(DiscoveredPlaceId(1)),
            }],
            activity: ActivitySummary {
                moving_seconds: 80 * 60,
                stationary_seconds: 1_360 * 60,
            },
        }
    }

    #[test]
    fn empty_profile() {
        let p = MobilityProfile::new(3);
        assert_eq!(p.day, 3);
        assert!(p.places.is_empty() && p.routes.is_empty());
    }

    #[test]
    fn old_profiles_without_activity_deserialize() {
        // Profiles synced before the §6 extension lack the field.
        let json = r#"{"day":2,"places":[],"routes":[],"contacts":[]}"#;
        let p: MobilityProfile = serde_json::from_str(json).unwrap();
        assert_eq!(p.activity, ActivitySummary::default());
    }

    #[test]
    fn serde_round_trip() {
        let p = profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: MobilityProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
