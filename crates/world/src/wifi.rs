//! WiFi access points.

use pmware_geo::{GeoPoint, Meters};
use serde::{Deserialize, Serialize};

use crate::ids::{ApId, Bssid};

/// A simulated WiFi access point.
///
/// Access points are the unit of SensLoc place signatures: a place is
/// identified by the set of BSSIDs visible from it (§2.1.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessPoint {
    id: ApId,
    bssid: Bssid,
    ssid: String,
    position: GeoPoint,
    range: Meters,
}

impl AccessPoint {
    /// Creates an access point.
    pub fn new(id: ApId, bssid: Bssid, ssid: String, position: GeoPoint, range: Meters) -> Self {
        AccessPoint {
            id,
            bssid,
            ssid,
            position,
            range,
        }
    }

    /// Internal index.
    pub fn id(&self) -> ApId {
        self.id
    }

    /// MAC-layer identifier.
    pub fn bssid(&self) -> Bssid {
        self.bssid
    }

    /// Network name.
    pub fn ssid(&self) -> &str {
        &self.ssid
    }

    /// Antenna position.
    pub fn position(&self) -> GeoPoint {
        self.position
    }

    /// Nominal detection radius.
    pub fn range(&self) -> Meters {
        self.range
    }

    /// Deterministic mean received signal strength (dBm) at `distance`.
    /// Log-distance path loss with exponent 3.5 (indoor/short range).
    pub fn mean_rssi_at(&self, distance: Meters) -> f64 {
        let d = distance.value().max(1.0);
        -35.0 - 35.0 * d.log10()
    }

    /// The distance (1.2× range) from which no scan detects this AP.
    pub(crate) fn detection_limit(&self) -> Meters {
        Meters::new(1.2 * self.range.value())
    }

    /// Probability that a single scan detects this AP from `distance`:
    /// near-certain inside half range, decaying to zero at the
    /// [detection limit](Self::detection_limit).
    pub fn detection_probability(&self, distance: Meters) -> f64 {
        let r = self.range.value();
        let limit = self.detection_limit().value();
        let d = distance.value();
        if d <= 0.5 * r {
            0.98
        } else if d >= limit {
            0.0
        } else {
            // Linear decay from 0.98 at 0.5r to 0 at the limit, over the
            // 0.7r between them.
            0.98 * (limit - d) / (0.7 * r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> AccessPoint {
        AccessPoint::new(
            ApId(0),
            Bssid(0xabcdef),
            "home-net".to_owned(),
            GeoPoint::new(12.97, 77.59).unwrap(),
            Meters::new(60.0),
        )
    }

    #[test]
    fn detection_probability_decays() {
        let ap = ap();
        let p_near = ap.detection_probability(Meters::new(10.0));
        let p_mid = ap.detection_probability(Meters::new(50.0));
        let p_far = ap.detection_probability(Meters::new(100.0));
        assert!(p_near > 0.9);
        assert!(p_mid < p_near && p_mid > 0.0);
        assert_eq!(p_far, 0.0);
        assert_eq!(ap.detection_probability(ap.detection_limit()), 0.0);
    }

    #[test]
    fn detection_probability_is_a_probability() {
        let ap = ap();
        for d in [0.0, 1.0, 30.0, 60.0, 72.0, 73.0, 500.0] {
            let p = ap.detection_probability(Meters::new(d));
            assert!((0.0..=1.0).contains(&p), "p({d})={p}");
        }
    }

    #[test]
    fn rssi_weaker_with_distance() {
        let ap = ap();
        assert!(ap.mean_rssi_at(Meters::new(5.0)) > ap.mean_rssi_at(Meters::new(50.0)));
    }

    #[test]
    fn accessors() {
        let ap = ap();
        assert_eq!(ap.ssid(), "home-net");
        assert_eq!(ap.bssid(), Bssid(0xabcdef));
        assert_eq!(ap.range(), Meters::new(60.0));
    }
}
