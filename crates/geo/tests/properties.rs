//! Property-based tests for the geographic primitives.

use pmware_geo::{grid::SpatialGrid, BoundingBox, GeoPoint, Meters};
use proptest::prelude::*;

/// Strategy producing valid city-scale coordinates (away from poles and the
/// antimeridian, like every simulated world in this workspace).
fn city_point() -> impl Strategy<Value = GeoPoint> {
    (-60.0..60.0f64, -170.0..170.0f64)
        .prop_map(|(lat, lng)| GeoPoint::new(lat, lng).expect("in range"))
}

fn local_pair() -> impl Strategy<Value = (GeoPoint, GeoPoint)> {
    (city_point(), 0.0..360.0f64, 0.0..5_000.0f64).prop_map(|(a, bearing, dist)| {
        let b = a.destination(bearing, Meters::new(dist));
        (a, b)
    })
}

proptest! {
    #[test]
    fn haversine_is_symmetric((a, b) in local_pair()) {
        let ab = a.haversine_distance(b).value();
        let ba = b.haversine_distance(a).value();
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn haversine_is_nonnegative(a in city_point(), b in city_point()) {
        prop_assert!(a.haversine_distance(b).value() >= 0.0);
    }

    #[test]
    fn triangle_inequality(a in city_point(), b in city_point(), c in city_point()) {
        let ab = a.haversine_distance(b).value();
        let bc = b.haversine_distance(c).value();
        let ac = a.haversine_distance(c).value();
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn destination_travels_requested_distance(
        a in city_point(),
        bearing in 0.0..360.0f64,
        dist in 1.0..50_000.0f64,
    ) {
        let b = a.destination(bearing, Meters::new(dist));
        let measured = a.haversine_distance(b).value();
        prop_assert!((measured - dist).abs() < dist * 0.001 + 0.5,
            "asked {dist}, got {measured}");
    }

    #[test]
    fn equirectangular_matches_haversine_locally((a, b) in local_pair()) {
        let h = a.haversine_distance(b).value();
        let e = a.equirectangular_distance(b).value();
        prop_assert!((h - e).abs() <= h * 0.01 + 0.5, "h={h} e={e}");
    }

    #[test]
    fn lerp_stays_in_enclosing_bbox((a, b) in local_pair(), t in 0.0..1.0f64) {
        let bbox = BoundingBox::enclosing(&[a, b]).unwrap();
        prop_assert!(bbox.contains(a.lerp(b, t)));
    }

    #[test]
    fn enclosing_bbox_contains_all(points in prop::collection::vec(city_point(), 1..20)) {
        let bbox = BoundingBox::enclosing(&points).unwrap();
        for p in &points {
            prop_assert!(bbox.contains(*p));
        }
    }

    #[test]
    fn grid_within_agrees_with_brute_force(
        center in city_point(),
        offsets in prop::collection::vec((0.0..360.0f64, 0.0..3_000.0f64), 1..40),
        radius in 100.0..2_000.0f64,
    ) {
        let mut grid = SpatialGrid::new(Meters::new(400.0)).unwrap();
        let mut all = Vec::new();
        for (i, (bearing, dist)) in offsets.iter().enumerate() {
            let p = center.destination(*bearing, Meters::new(*dist));
            grid.insert(p, i);
            all.push(p);
        }
        let mut found: Vec<usize> = grid
            .within(center, Meters::new(radius))
            .into_iter()
            .map(|(_, i)| *i)
            .collect();
        found.sort_unstable();
        let mut expected: Vec<usize> = all
            .iter()
            .enumerate()
            .filter(|(_, p)| center.equirectangular_distance(**p).value() <= radius)
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(found, expected);
    }
}
