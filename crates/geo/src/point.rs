//! Geographic points and great-circle math.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{GeoError, Meters, EARTH_RADIUS_M};

/// A point on the Earth's surface in WGS-84 degrees.
///
/// Construction validates ranges, so a `GeoPoint` always holds a latitude in
/// `[-90, 90]` and a longitude in `[-180, 180]`.
///
/// # Examples
///
/// ```
/// use pmware_geo::GeoPoint;
///
/// let p = GeoPoint::new(12.9716, 77.5946)?; // Bangalore
/// assert_eq!(p.latitude(), 12.9716);
/// # Ok::<(), pmware_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lng: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] or [`GeoError::InvalidLongitude`]
    /// if either coordinate is out of range or not finite.
    pub fn new(lat: f64, lng: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lng.is_finite() || !(-180.0..=180.0).contains(&lng) {
            return Err(GeoError::InvalidLongitude(lng));
        }
        Ok(GeoPoint { lat, lng })
    }

    /// Latitude in degrees.
    pub fn latitude(self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    pub fn longitude(self) -> f64 {
        self.lng
    }

    /// Great-circle distance to `other` using the haversine formula.
    ///
    /// Accurate for all separations; prefer
    /// [`equirectangular_distance`](Self::equirectangular_distance) in hot
    /// loops over sub-kilometre separations.
    pub fn haversine_distance(self, other: GeoPoint) -> Meters {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let dphi = (other.lat - self.lat).to_radians();
        let dlambda = (other.lng - self.lng).to_radians();

        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().atan2((1.0 - a).sqrt());
        Meters::new(EARTH_RADIUS_M * c)
    }

    /// Fast approximate distance using the equirectangular projection.
    ///
    /// Within ~0.1 % of haversine for separations under a few kilometres,
    /// which covers every intra-city query the simulators make.
    pub fn equirectangular_distance(self, other: GeoPoint) -> Meters {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let x = (other.lng - self.lng).to_radians() * mean_lat.cos();
        let y = (other.lat - self.lat).to_radians();
        Meters::new(EARTH_RADIUS_M * (x * x + y * y).sqrt())
    }

    /// Destination point after travelling `distance` on the great circle with
    /// the given initial `bearing_deg` (degrees clockwise from north).
    ///
    /// The result is clamped back into valid coordinate ranges, so the method
    /// cannot fail even at the poles or the antimeridian.
    pub fn destination(self, bearing_deg: f64, distance: Meters) -> GeoPoint {
        let delta = distance.value() / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let phi1 = self.lat.to_radians();
        let lambda1 = self.lng.to_radians();

        let phi2 = (phi1.sin() * delta.cos() + phi1.cos() * delta.sin() * theta.cos()).asin();
        let lambda2 = lambda1
            + (theta.sin() * delta.sin() * phi1.cos()).atan2(delta.cos() - phi1.sin() * phi2.sin());

        let lat = phi2.to_degrees().clamp(-90.0, 90.0);
        let mut lng = lambda2.to_degrees();
        // Normalise longitude into [-180, 180].
        lng = (lng + 540.0) % 360.0 - 180.0;
        GeoPoint { lat, lng }
    }

    /// Linear interpolation between `self` and `other`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`. Performed on raw
    /// coordinates, which is adequate for the intra-city distances the
    /// simulation uses. `t` is clamped to `[0, 1]`.
    pub fn lerp(self, other: GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        GeoPoint {
            lat: self.lat + (other.lat - self.lat) * t,
            lng: self.lng + (other.lng - self.lng) * t,
        }
    }

    /// Centroid of a non-empty set of points.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::TooFewPoints`] if `points` is empty.
    pub fn centroid(points: &[GeoPoint]) -> Result<GeoPoint, GeoError> {
        if points.is_empty() {
            return Err(GeoError::TooFewPoints {
                required: 1,
                actual: 0,
            });
        }
        let n = points.len() as f64;
        let lat = points.iter().map(|p| p.lat).sum::<f64>() / n;
        let lng = points.iter().map(|p| p.lng).sum::<f64>() / n;
        Ok(GeoPoint { lat, lng })
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            GeoPoint::new(91.0, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(-91.0, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(0.0, 181.0),
            Err(GeoError::InvalidLongitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(0.0, f64::NAN),
            Err(GeoError::InvalidLongitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(f64::INFINITY, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
    }

    #[test]
    fn haversine_known_distance() {
        // Delhi to Bangalore is about 1740 km.
        let delhi = p(28.6139, 77.2090);
        let blr = p(12.9716, 77.5946);
        let d = delhi.haversine_distance(blr);
        assert!((d.value() - 1_740_000.0).abs() < 15_000.0, "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let a = p(10.0, 20.0);
        assert_eq!(a.haversine_distance(a), Meters::new(0.0));
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = p(12.9716, 77.5946);
        let b = p(12.9816, 77.6046);
        let h = a.haversine_distance(b).value();
        let e = a.equirectangular_distance(b).value();
        assert!((h - e).abs() / h < 1e-3, "h={h} e={e}");
    }

    #[test]
    fn destination_round_trip() {
        let start = p(12.9716, 77.5946);
        let dest = start.destination(45.0, Meters::new(5_000.0));
        let d = start.haversine_distance(dest);
        assert!((d.value() - 5_000.0).abs() < 1.0, "got {d}");
        // Heading 45°: as far north as east.
        assert!(dest.latitude() > start.latitude() && dest.longitude() > start.longitude());
        let north = start.haversine_distance(p(dest.latitude(), start.longitude()));
        let east = start.haversine_distance(p(start.latitude(), dest.longitude()));
        let skew = (north.value() - east.value()).abs() / north.value();
        assert!(skew < 0.01, "north={north} east={east}");
    }

    #[test]
    fn destination_normalises_longitude_across_antimeridian() {
        let near_edge = p(0.0, 179.9);
        let dest = near_edge.destination(90.0, Meters::new(50_000.0));
        assert!(dest.longitude() <= 180.0 && dest.longitude() >= -180.0);
        assert!(
            dest.longitude() < 0.0,
            "should wrap to negative, got {}",
            dest.longitude()
        );
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = p(10.0, 20.0);
        let b = p(12.0, 24.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((mid.latitude() - 11.0).abs() < 1e-12);
        assert!((mid.longitude() - 22.0).abs() < 1e-12);
        // Out-of-range t is clamped.
        assert_eq!(a.lerp(b, -1.0), a);
        assert_eq!(a.lerp(b, 2.0), b);
    }

    #[test]
    fn centroid_of_points() {
        let pts = [p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0), p(2.0, 2.0)];
        let c = GeoPoint::centroid(&pts).unwrap();
        assert!((c.latitude() - 1.0).abs() < 1e-12);
        assert!((c.longitude() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_empty_errors() {
        assert!(matches!(
            GeoPoint::centroid(&[]),
            Err(GeoError::TooFewPoints {
                required: 1,
                actual: 0
            })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let a = p(12.34, 56.78);
        let json = serde_json::to_string(&a).unwrap();
        let back: GeoPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
