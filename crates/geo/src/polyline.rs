//! Timestamped-free geometric polylines used by route tracking.
//!
//! Routes in PMWare are series of coordinates (§2.1.2 of the paper); this
//! module provides the purely geometric operations on such series — length,
//! resampling at a fixed spacing, Douglas–Peucker simplification, and
//! point-to-path distance — leaving timestamps to the higher layers.

use serde::{Deserialize, Serialize};

use crate::{GeoError, GeoPoint, Meters};

/// A sequence of at least two geographic points forming a path.
///
/// # Examples
///
/// ```
/// use pmware_geo::{GeoPoint, Polyline, Meters};
///
/// let line = Polyline::new(vec![
///     GeoPoint::new(0.0, 0.0)?,
///     GeoPoint::new(0.0, 0.01)?,
///     GeoPoint::new(0.01, 0.01)?,
/// ])?;
/// assert!(line.length() > Meters::new(2_000.0));
/// # Ok::<(), pmware_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<GeoPoint>,
}

impl Polyline {
    /// Creates a polyline from its vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::TooFewPoints`] if fewer than two points are given.
    pub fn new(points: Vec<GeoPoint>) -> Result<Self, GeoError> {
        if points.len() < 2 {
            return Err(GeoError::TooFewPoints {
                required: 2,
                actual: points.len(),
            });
        }
        Ok(Polyline { points })
    }

    /// The vertices of the path.
    pub fn points(&self) -> &[GeoPoint] {
        &self.points
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false`: a polyline holds at least two points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First vertex.
    pub fn start(&self) -> GeoPoint {
        self.points[0]
    }

    /// Last vertex.
    pub fn end(&self) -> GeoPoint {
        *self.points.last().expect("polyline has >= 2 points")
    }

    /// Total path length (sum of segment great-circle lengths).
    pub fn length(&self) -> Meters {
        self.points
            .windows(2)
            .map(|w| w[0].haversine_distance(w[1]))
            .sum()
    }

    /// The point a fraction `t` of the way along the path by arc length.
    ///
    /// `t = 0` is the start, `t = 1` the end; `t` is clamped to `[0, 1]`.
    /// Degenerate zero-length paths return the start point.
    pub fn point_at_fraction(&self, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        let total = self.length().value();
        if total == 0.0 {
            return self.start();
        }
        let target = total * t;
        let mut walked = 0.0;
        for w in self.points.windows(2) {
            let seg = w[0].haversine_distance(w[1]).value();
            if walked + seg >= target {
                if seg == 0.0 {
                    return w[0];
                }
                return w[0].lerp(w[1], (target - walked) / seg);
            }
            walked += seg;
        }
        self.end()
    }

    /// Minimum distance from `point` to any segment of the path.
    pub fn distance_to(&self, point: GeoPoint) -> Meters {
        self.points
            .windows(2)
            .map(|w| point_segment_distance(point, w[0], w[1]))
            .fold(Meters::new(f64::MAX), Meters::min)
    }
}

/// Perpendicular (local planar) distance from `p` to segment `a`–`b`.
fn point_segment_distance(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> Meters {
    // Project into a local equirectangular plane anchored at `a`.
    let cos_lat = a.latitude().to_radians().cos();
    let to_xy = |q: GeoPoint| -> (f64, f64) {
        (
            (q.longitude() - a.longitude()) * cos_lat,
            q.latitude() - a.latitude(),
        )
    };
    let (px, py) = to_xy(p);
    let (bx, by) = to_xy(b);
    let seg_sq = bx * bx + by * by;
    let t = if seg_sq == 0.0 {
        0.0
    } else {
        ((px * bx + py * by) / seg_sq).clamp(0.0, 1.0)
    };
    let closest = a.lerp(b, t);
    p.equirectangular_distance(closest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    #[test]
    fn requires_two_points() {
        assert!(Polyline::new(vec![]).is_err());
        assert!(Polyline::new(vec![p(0.0, 0.0)]).is_err());
        assert!(Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.0)]).is_ok());
    }

    #[test]
    fn length_of_one_degree_of_longitude_at_equator() {
        let line = Polyline::new(vec![p(0.0, 0.0), p(0.0, 1.0)]).unwrap();
        assert!((line.length().value() - 111_195.0).abs() < 200.0);
    }

    #[test]
    fn point_at_fraction_endpoints_and_middle() {
        let line = Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.01), p(0.0, 0.02)]).unwrap();
        assert_eq!(line.point_at_fraction(0.0), line.start());
        assert_eq!(line.point_at_fraction(1.0), line.end());
        let mid = line.point_at_fraction(0.5);
        let d = mid.haversine_distance(p(0.0, 0.01)).value();
        assert!(d < 1.0, "midpoint off by {d} m");
        // Clamping out-of-range t.
        assert_eq!(line.point_at_fraction(-0.5), line.start());
        assert_eq!(line.point_at_fraction(2.0), line.end());
    }

    #[test]
    fn point_at_fraction_zero_length_path() {
        let line = Polyline::new(vec![p(1.0, 1.0), p(1.0, 1.0)]).unwrap();
        assert_eq!(line.point_at_fraction(0.7), p(1.0, 1.0));
    }

    #[test]
    fn distance_to_on_path_is_zero() {
        let line = Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.01)]).unwrap();
        let mid = p(0.0, 0.005);
        assert!(line.distance_to(mid).value() < 1.0);
    }

    #[test]
    fn distance_to_off_path_point() {
        let line = Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.01)]).unwrap();
        let off = p(0.001, 0.005); // ~111 m north of the midpoint
        let d = line.distance_to(off).value();
        assert!((d - 111.3).abs() < 2.0, "got {d}");
    }

    #[test]
    fn distance_beyond_endpoint_measured_to_endpoint() {
        let line = Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.01)]).unwrap();
        let beyond = p(0.0, 0.02);
        let d = line.distance_to(beyond).value();
        let expected = p(0.0, 0.02).haversine_distance(p(0.0, 0.01)).value();
        assert!((d - expected).abs() < 2.0);
    }
}
