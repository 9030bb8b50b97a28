//! Axis-aligned geographic bounding boxes.

use serde::{Deserialize, Serialize};

use crate::{GeoError, GeoPoint, Meters};

/// An axis-aligned bounding box in latitude/longitude space.
///
/// Does not handle antimeridian wrap-around; the simulated worlds are
/// city-scale regions far from ±180°.
///
/// # Examples
///
/// ```
/// use pmware_geo::{BoundingBox, GeoPoint};
///
/// let sw = GeoPoint::new(12.90, 77.50)?;
/// let ne = GeoPoint::new(13.05, 77.70)?;
/// let bbox = BoundingBox::new(sw, ne)?;
/// assert!(bbox.contains(GeoPoint::new(12.97, 77.59)?));
/// # Ok::<(), pmware_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    south_west: GeoPoint,
    north_east: GeoPoint,
}

impl BoundingBox {
    /// Creates a bounding box from its south-west and north-east corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::TooFewPoints`] if the corners are reversed (the
    /// south-west corner must not be north of or east of the north-east one).
    pub fn new(south_west: GeoPoint, north_east: GeoPoint) -> Result<Self, GeoError> {
        if south_west.latitude() > north_east.latitude()
            || south_west.longitude() > north_east.longitude()
        {
            // Reuse TooFewPoints? No — misuse of corners deserves a clearer
            // signal. Latitude inversion is reported as an invalid latitude.
            return Err(GeoError::InvalidLatitude(south_west.latitude()));
        }
        Ok(BoundingBox {
            south_west,
            north_east,
        })
    }

    /// Smallest box containing all `points`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::TooFewPoints`] if `points` is empty.
    pub fn enclosing(points: &[GeoPoint]) -> Result<Self, GeoError> {
        if points.is_empty() {
            return Err(GeoError::TooFewPoints {
                required: 1,
                actual: 0,
            });
        }
        let mut min_lat = f64::MAX;
        let mut max_lat = f64::MIN;
        let mut min_lng = f64::MAX;
        let mut max_lng = f64::MIN;
        for p in points {
            min_lat = min_lat.min(p.latitude());
            max_lat = max_lat.max(p.latitude());
            min_lng = min_lng.min(p.longitude());
            max_lng = max_lng.max(p.longitude());
        }
        Ok(BoundingBox {
            south_west: GeoPoint::new(min_lat, min_lng).expect("derived from valid points"),
            north_east: GeoPoint::new(max_lat, max_lng).expect("derived from valid points"),
        })
    }

    /// South-west corner.
    pub fn south_west(&self) -> GeoPoint {
        self.south_west
    }

    /// North-east corner.
    pub fn north_east(&self) -> GeoPoint {
        self.north_east
    }

    /// Geometric centre of the box.
    pub fn center(&self) -> GeoPoint {
        self.south_west.lerp(self.north_east, 0.5)
    }

    /// Returns `true` if `point` lies inside or on the edge of the box.
    pub fn contains(&self, point: GeoPoint) -> bool {
        point.latitude() >= self.south_west.latitude()
            && point.latitude() <= self.north_east.latitude()
            && point.longitude() >= self.south_west.longitude()
            && point.longitude() <= self.north_east.longitude()
    }

    /// Approximate width (east–west extent) at the box's mid-latitude.
    pub fn width(&self) -> Meters {
        let mid = self.center().latitude();
        let w = GeoPoint::new(mid, self.south_west.longitude()).expect("valid");
        let e = GeoPoint::new(mid, self.north_east.longitude()).expect("valid");
        w.haversine_distance(e)
    }

    /// Approximate height (north–south extent).
    pub fn height(&self) -> Meters {
        let s =
            GeoPoint::new(self.south_west.latitude(), self.center().longitude()).expect("valid");
        let n =
            GeoPoint::new(self.north_east.latitude(), self.center().longitude()).expect("valid");
        s.haversine_distance(n)
    }

    /// Returns a new box expanded by `margin` on every side, clamped to valid
    /// coordinate ranges.
    pub fn expanded(&self, margin: Meters) -> BoundingBox {
        let sw = self.south_west.destination(
            225.0,
            Meters::new(margin.value() * std::f64::consts::SQRT_2),
        );
        let ne = self
            .north_east
            .destination(45.0, Meters::new(margin.value() * std::f64::consts::SQRT_2));
        BoundingBox {
            south_west: sw,
            north_east: ne,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    fn bbox() -> BoundingBox {
        BoundingBox::new(p(10.0, 20.0), p(11.0, 21.0)).unwrap()
    }

    #[test]
    fn reversed_corners_rejected() {
        assert!(BoundingBox::new(p(11.0, 20.0), p(10.0, 21.0)).is_err());
        assert!(BoundingBox::new(p(10.0, 22.0), p(11.0, 21.0)).is_err());
    }

    #[test]
    fn contains_interior_edges_and_exterior() {
        let b = bbox();
        assert!(b.contains(p(10.5, 20.5)));
        assert!(b.contains(p(10.0, 20.0))); // corner counts
        assert!(b.contains(p(11.0, 21.0)));
        assert!(!b.contains(p(9.99, 20.5)));
        assert!(!b.contains(p(10.5, 21.01)));
    }

    #[test]
    fn enclosing_covers_all_points() {
        let pts = [p(1.0, 2.0), p(3.0, -1.0), p(2.0, 4.0)];
        let b = BoundingBox::enclosing(&pts).unwrap();
        for q in pts {
            assert!(b.contains(q));
        }
        assert_eq!(b.south_west(), p(1.0, -1.0));
        assert_eq!(b.north_east(), p(3.0, 4.0));
    }

    #[test]
    fn enclosing_empty_errors() {
        assert!(BoundingBox::enclosing(&[]).is_err());
    }

    #[test]
    fn center_is_midpoint() {
        let c = bbox().center();
        assert!((c.latitude() - 10.5).abs() < 1e-12);
        assert!((c.longitude() - 20.5).abs() < 1e-12);
    }

    #[test]
    fn width_and_height_are_positive_and_sane() {
        // A 1-degree box near the equator is ~111 km on each side.
        let b = BoundingBox::new(p(0.0, 0.0), p(1.0, 1.0)).unwrap();
        assert!((b.height().value() - 111_195.0).abs() < 1_000.0);
        assert!((b.width().value() - 111_178.0).abs() < 1_500.0);
    }

    #[test]
    fn expanded_contains_original() {
        let b = bbox();
        let bigger = b.expanded(Meters::new(1_000.0));
        assert!(bigger.contains(b.south_west()));
        assert!(bigger.contains(b.north_east()));
        assert!(bigger.width() > b.width());
    }
}
