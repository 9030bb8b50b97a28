//! Place signatures and discovered places.
//!
//! §2.1.1 of the paper: *"each place is uniquely identified by a signature
//! which is combination of a set of Cell IDs or a set of WiFi APs or a pair
//! of GPS-coordinates"*. [`PlaceSignature`] is exactly that sum type.

use std::collections::BTreeSet;

use pmware_geo::{GeoPoint, Meters};
use pmware_world::{Bssid, CellGlobalId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The identity of a discovered place, unique within one discovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DiscoveredPlaceId(pub u32);

impl std::fmt::Display for DiscoveredPlaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "discovered:{}", self.0)
    }
}

/// A place signature: how a place is recognised on future visits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlaceSignature {
    /// A set of GSM cell identities (GCA output):
    /// `P = {c1, c2, c3, c4, c5}`.
    Cells(BTreeSet<CellGlobalId>),
    /// A set of WiFi access points (SensLoc output):
    /// `P = {w1, w2, w3, w4}`.
    WifiAps(BTreeSet<Bssid>),
    /// A GPS coordinate pair with an effective radius (Kang et al. output):
    /// `P = {latitude, longitude}`.
    Coordinates {
        /// Cluster centroid.
        center: GeoPoint,
        /// Cluster radius.
        radius: Meters,
    },
}

impl PlaceSignature {
    /// Short description of the signature kind.
    pub fn kind(&self) -> &'static str {
        match self {
            PlaceSignature::Cells(_) => "gsm-cells",
            PlaceSignature::WifiAps(_) => "wifi-aps",
            PlaceSignature::Coordinates { .. } => "gps-coordinates",
        }
    }

    /// Number of elements in a set signature (1 for coordinates).
    pub fn len(&self) -> usize {
        match self {
            PlaceSignature::Cells(c) => c.len(),
            PlaceSignature::WifiAps(w) => w.len(),
            PlaceSignature::Coordinates { .. } => 1,
        }
    }

    /// Returns `true` for an empty set signature.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One detected stay at a discovered place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveredVisit {
    /// Detected arrival.
    pub arrival: SimTime,
    /// Detected departure.
    pub departure: SimTime,
}

impl DiscoveredVisit {
    /// Stay length.
    pub fn duration(&self) -> SimDuration {
        self.departure.since(self.arrival)
    }
}

/// A place discovered by any of the algorithms, with its visit history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveredPlace {
    /// Run-local identifier.
    pub id: DiscoveredPlaceId,
    /// Recognition signature.
    pub signature: PlaceSignature,
    /// Detected stays, in time order.
    pub visits: Vec<DiscoveredVisit>,
    /// Optional semantic label provided by the user (§2.2.5).
    pub label: Option<String>,
}

impl DiscoveredPlace {
    /// Creates a discovered place.
    pub fn new(
        id: DiscoveredPlaceId,
        signature: PlaceSignature,
        visits: Vec<DiscoveredVisit>,
    ) -> Self {
        DiscoveredPlace {
            id,
            signature,
            visits,
            label: None,
        }
    }

    /// Total time spent at the place across all visits.
    pub fn total_stay(&self) -> SimDuration {
        self.visits.iter().map(|v| v.duration()).sum()
    }

    /// First detected arrival, if any visit exists.
    pub fn first_seen(&self) -> Option<SimTime> {
        self.visits.first().map(|v| v.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_world::{CellId, Lac, Plmn};

    fn cell(id: u32) -> CellGlobalId {
        CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        }
    }

    #[test]
    fn signature_kinds() {
        let cells = PlaceSignature::Cells([cell(1), cell(2)].into_iter().collect());
        assert_eq!(cells.kind(), "gsm-cells");
        assert_eq!(cells.len(), 2);
        assert!(!cells.is_empty());

        let empty = PlaceSignature::WifiAps(BTreeSet::new());
        assert!(empty.is_empty());

        let coord = PlaceSignature::Coordinates {
            center: GeoPoint::new(1.0, 2.0).unwrap(),
            radius: Meters::new(100.0),
        };
        assert_eq!(coord.kind(), "gps-coordinates");
        assert_eq!(coord.len(), 1);
    }

    #[test]
    fn visit_duration() {
        let v = DiscoveredVisit {
            arrival: SimTime::from_seconds(100),
            departure: SimTime::from_seconds(500),
        };
        assert_eq!(v.duration(), SimDuration::from_seconds(400));
    }

    #[test]
    fn place_totals() {
        let place = DiscoveredPlace::new(
            DiscoveredPlaceId(0),
            PlaceSignature::Cells([cell(1)].into_iter().collect()),
            vec![
                DiscoveredVisit {
                    arrival: SimTime::from_seconds(0),
                    departure: SimTime::from_seconds(600),
                },
                DiscoveredVisit {
                    arrival: SimTime::from_seconds(1_000),
                    departure: SimTime::from_seconds(1_300),
                },
            ],
        );
        assert_eq!(place.total_stay(), SimDuration::from_seconds(900));
        assert_eq!(place.first_seen(), Some(SimTime::from_seconds(0)));
        assert!(place.label.is_none());
    }

    #[test]
    fn serde_round_trip() {
        let place = DiscoveredPlace::new(
            DiscoveredPlaceId(7),
            PlaceSignature::WifiAps([Bssid(1), Bssid(2)].into_iter().collect()),
            vec![],
        );
        let json = serde_json::to_string(&place).unwrap();
        let back: DiscoveredPlace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, place);
    }
}
