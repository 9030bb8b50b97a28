//! Route discovery and similarity.
//!
//! §2.1.2 of the paper: *"The path taken to travel between two places is
//! marked as a route. \[…\] it comprises of a series of timestamp ordered
//! GPS coordinates or set of time ordered Cell IDs."* PMWare tracks routes
//! in a **low accuracy** mode (GSM only) or a **high accuracy** mode (GPS
//! trace, §2.2.2); the cloud hosts "miscellaneous algorithms such as route
//! similarity" (§2.3.1).

use pmware_geo::{Meters, Polyline};
use pmware_world::{CellGlobalId, GpsFix, GsmObservation, SimTime};
use serde::{Deserialize, Serialize};

use crate::signature::DiscoveredPlaceId;

/// Identifier of a canonical route in a [`RouteStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RouteId(pub u32);

/// The geometry of one traversal, depending on tracking mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RouteGeometry {
    /// Low-accuracy mode: the time-ordered cell sequence observed en route
    /// (consecutive duplicates removed): `R = {c1, c2, …, c10}`.
    CellSequence(Vec<CellGlobalId>),
    /// High-accuracy mode: a GPS trace: `R = {g1, g2, …, g15}`.
    GpsTrace(Polyline),
}

impl RouteGeometry {
    /// Number of elements (cells or trace vertices).
    pub fn len(&self) -> usize {
        match self {
            RouteGeometry::CellSequence(c) => c.len(),
            RouteGeometry::GpsTrace(p) => p.len(),
        }
    }

    /// Returns `true` when the geometry carries no information.
    pub fn is_empty(&self) -> bool {
        match self {
            RouteGeometry::CellSequence(c) => c.is_empty(),
            RouteGeometry::GpsTrace(_) => false,
        }
    }
}

/// One observed traversal between two discovered places.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteObservation {
    /// Departure place.
    pub from: DiscoveredPlaceId,
    /// Arrival place.
    pub to: DiscoveredPlaceId,
    /// Departure time.
    pub start: SimTime,
    /// Arrival time.
    pub end: SimTime,
    /// The recorded geometry.
    pub geometry: RouteGeometry,
}

/// Extracts the deduplicated cell sequence observed in `(start, end)` —
/// the low-accuracy route geometry.
pub fn cell_route(observations: &[GsmObservation], start: SimTime, end: SimTime) -> RouteGeometry {
    let mut cells: Vec<CellGlobalId> = Vec::new();
    for obs in observations {
        if obs.time < start || obs.time > end {
            continue;
        }
        if cells.last() != Some(&obs.cell) {
            cells.push(obs.cell);
        }
    }
    RouteGeometry::CellSequence(cells)
}

/// Extracts a GPS trace polyline for `(start, end)` — the high-accuracy
/// route geometry. Returns `None` when fewer than two fixes fall in the
/// window.
pub fn gps_route(fixes: &[GpsFix], start: SimTime, end: SimTime) -> Option<RouteGeometry> {
    let pts: Vec<_> = fixes
        .iter()
        .filter(|f| f.time >= start && f.time <= end)
        .map(|f| f.position)
        .collect();
    Polyline::new(pts).ok().map(RouteGeometry::GpsTrace)
}

/// Similarity between two routes in `[0, 1]`.
///
/// * Cell sequences: normalised longest-common-subsequence ratio — robust
///   to oscillation-induced insertions.
/// * GPS traces: symmetric mean closest-point distance mapped through
///   `max(0, 1 - d / tolerance)` with a 250 m tolerance.
/// * Mixed geometries are incomparable and score 0.
pub fn route_similarity(a: &RouteGeometry, b: &RouteGeometry) -> f64 {
    match (a, b) {
        (RouteGeometry::CellSequence(x), RouteGeometry::CellSequence(y)) => {
            if x.is_empty() || y.is_empty() {
                return 0.0;
            }
            let lcs = lcs_len(x, y);
            lcs as f64 / x.len().max(y.len()) as f64
        }
        (RouteGeometry::GpsTrace(x), RouteGeometry::GpsTrace(y)) => {
            let d = symmetric_mean_distance(x, y);
            (1.0 - d.value() / 250.0).max(0.0)
        }
        _ => 0.0,
    }
}

fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn symmetric_mean_distance(a: &Polyline, b: &Polyline) -> Meters {
    let one_way = |from: &Polyline, to: &Polyline| -> f64 {
        let pts = from.points();
        pts.iter().map(|p| to.distance_to(*p).value()).sum::<f64>() / pts.len() as f64
    };
    Meters::new((one_way(a, b) + one_way(b, a)) / 2.0)
}

/// A canonical route with usage statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanonicalRoute {
    /// Store-local identifier.
    pub id: RouteId,
    /// Endpoints (directed).
    pub from: DiscoveredPlaceId,
    /// Arrival endpoint.
    pub to: DiscoveredPlaceId,
    /// Representative geometry (from the first traversal).
    pub geometry: RouteGeometry,
    /// How many traversals matched this route — the "route usage frequency"
    /// the Route API exposes (§2.3.3).
    pub usage_count: u32,
    /// Traversal start times, for temporal analytics.
    pub traversals: Vec<SimTime>,
}

/// Clusters traversals into canonical routes by endpoint and similarity.
///
/// # Examples
///
/// ```
/// use pmware_algorithms::route::{RouteGeometry, RouteObservation, RouteStore};
/// use pmware_algorithms::signature::DiscoveredPlaceId;
/// use pmware_world::SimTime;
///
/// let mut store = RouteStore::new(0.5);
/// let obs = RouteObservation {
///     from: DiscoveredPlaceId(0),
///     to: DiscoveredPlaceId(1),
///     start: SimTime::from_seconds(0),
///     end: SimTime::from_seconds(600),
///     geometry: RouteGeometry::CellSequence(vec![]),
/// };
/// // Empty geometry is rejected.
/// assert!(store.record(obs).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteStore {
    routes: Vec<CanonicalRoute>,
    match_threshold: f64,
}

impl RouteStore {
    /// Creates a store; traversals with similarity ≥ `match_threshold` to a
    /// canonical route (with the same endpoints) are counted against it.
    ///
    /// # Panics
    ///
    /// Panics if `match_threshold` is outside `[0, 1]`.
    pub fn new(match_threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&match_threshold),
            "threshold must be a fraction, got {match_threshold}"
        );
        RouteStore {
            routes: Vec::new(),
            match_threshold,
        }
    }

    /// A store holding `routes` as they are, with no re-clustering (a
    /// parked store reading its routes back); `None` when
    /// `match_threshold` is outside `[0, 1]`.
    pub fn from_parts(match_threshold: f64, routes: Vec<CanonicalRoute>) -> Option<Self> {
        (0.0..=1.0)
            .contains(&match_threshold)
            .then_some(RouteStore {
                routes,
                match_threshold,
            })
    }

    /// The similarity a traversal needs to count against a route.
    pub fn match_threshold(&self) -> f64 {
        self.match_threshold
    }

    /// Canonical routes discovered so far.
    pub fn routes(&self) -> &[CanonicalRoute] {
        &self.routes
    }

    /// Records one traversal; returns the canonical route id it was matched
    /// or assigned to, or `None` if the geometry was empty.
    pub fn record(&mut self, observation: RouteObservation) -> Option<RouteId> {
        if observation.geometry.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, route) in self.routes.iter().enumerate() {
            if route.from != observation.from || route.to != observation.to {
                continue;
            }
            let sim = route_similarity(&route.geometry, &observation.geometry);
            if sim >= self.match_threshold && best.is_none_or(|(_, b)| sim > b) {
                best = Some((idx, sim));
            }
        }
        match best {
            Some((idx, _)) => {
                self.routes[idx].usage_count += 1;
                self.routes[idx].traversals.push(observation.start);
                Some(self.routes[idx].id)
            }
            None => {
                let id = RouteId(self.routes.len() as u32);
                self.routes.push(CanonicalRoute {
                    id,
                    from: observation.from,
                    to: observation.to,
                    geometry: observation.geometry,
                    usage_count: 1,
                    traversals: vec![observation.start],
                });
                Some(id)
            }
        }
    }

    /// Routes between two endpoints, most used first.
    pub fn between(&self, from: DiscoveredPlaceId, to: DiscoveredPlaceId) -> Vec<&CanonicalRoute> {
        let mut out: Vec<&CanonicalRoute> = self
            .routes
            .iter()
            .filter(|r| r.from == from && r.to == to)
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.usage_count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_geo::GeoPoint;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellId, Lac, Plmn};

    fn cell(id: u32) -> CellGlobalId {
        CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        }
    }

    fn obs(minute: u64, c: CellGlobalId) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(minute * 60),
            cell: c,
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        }
    }

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    #[test]
    fn cell_route_dedups_consecutive() {
        let stream = vec![
            obs(0, cell(1)),
            obs(1, cell(1)),
            obs(2, cell(2)),
            obs(3, cell(2)),
            obs(4, cell(3)),
            obs(5, cell(2)),
        ];
        let geom = cell_route(
            &stream,
            SimTime::from_seconds(0),
            SimTime::from_seconds(360),
        );
        match geom {
            RouteGeometry::CellSequence(cells) => {
                assert_eq!(cells, vec![cell(1), cell(2), cell(3), cell(2)]);
            }
            _ => panic!("expected cells"),
        }
    }

    #[test]
    fn cell_route_windows_by_time() {
        let stream = vec![obs(0, cell(1)), obs(10, cell(2)), obs(20, cell(3))];
        let geom = cell_route(
            &stream,
            SimTime::from_seconds(5 * 60),
            SimTime::from_seconds(15 * 60),
        );
        match geom {
            RouteGeometry::CellSequence(cells) => assert_eq!(cells, vec![cell(2)]),
            _ => panic!("expected cells"),
        }
    }

    #[test]
    fn gps_route_needs_two_fixes() {
        let fixes = vec![GpsFix {
            time: SimTime::from_seconds(0),
            position: p(0.0, 0.0),
            accuracy: Meters::new(5.0),
        }];
        assert!(gps_route(&fixes, SimTime::from_seconds(0), SimTime::from_seconds(60)).is_none());
    }

    #[test]
    fn identical_cell_routes_have_similarity_one() {
        let a = RouteGeometry::CellSequence(vec![cell(1), cell(2), cell(3)]);
        let b = a.clone();
        assert_eq!(route_similarity(&a, &b), 1.0);
    }

    #[test]
    fn oscillation_insertions_keep_similarity_high() {
        let a = RouteGeometry::CellSequence(vec![cell(1), cell(2), cell(3), cell(4)]);
        let b = RouteGeometry::CellSequence(vec![
            cell(1),
            cell(9), // oscillation glitch
            cell(2),
            cell(3),
            cell(4),
        ]);
        let sim = route_similarity(&a, &b);
        assert!(sim >= 0.75, "got {sim}");
    }

    #[test]
    fn disjoint_cell_routes_score_zero() {
        let a = RouteGeometry::CellSequence(vec![cell(1), cell(2)]);
        let b = RouteGeometry::CellSequence(vec![cell(8), cell(9)]);
        assert_eq!(route_similarity(&a, &b), 0.0);
    }

    #[test]
    fn mixed_geometries_incomparable() {
        let a = RouteGeometry::CellSequence(vec![cell(1)]);
        let b = RouteGeometry::GpsTrace(Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.01)]).unwrap());
        assert_eq!(route_similarity(&a, &b), 0.0);
    }

    #[test]
    fn gps_similarity_distance_sensitive() {
        let a = RouteGeometry::GpsTrace(Polyline::new(vec![p(0.0, 0.0), p(0.0, 0.02)]).unwrap());
        // Same corridor, 50 m to the north.
        let north = p(0.0, 0.0).destination(0.0, Meters::new(50.0));
        let north2 = p(0.0, 0.02).destination(0.0, Meters::new(50.0));
        let b = RouteGeometry::GpsTrace(Polyline::new(vec![north, north2]).unwrap());
        let sim_close = route_similarity(&a, &b);
        assert!(sim_close > 0.7, "got {sim_close}");
        // A parallel street 2 km away scores 0.
        let far1 = p(0.0, 0.0).destination(0.0, Meters::new(2_000.0));
        let far2 = p(0.0, 0.02).destination(0.0, Meters::new(2_000.0));
        let c = RouteGeometry::GpsTrace(Polyline::new(vec![far1, far2]).unwrap());
        assert_eq!(route_similarity(&a, &c), 0.0);
    }

    #[test]
    fn store_counts_repeated_commute() {
        let mut store = RouteStore::new(0.5);
        for day in 0..5 {
            let obs = RouteObservation {
                from: DiscoveredPlaceId(0),
                to: DiscoveredPlaceId(1),
                start: SimTime::from_day_time(day, 8, 30, 0),
                end: SimTime::from_day_time(day, 9, 0, 0),
                geometry: RouteGeometry::CellSequence(vec![cell(1), cell(2), cell(3)]),
            };
            store.record(obs);
        }
        assert_eq!(store.routes().len(), 1);
        assert_eq!(store.routes()[0].usage_count, 5);
        assert_eq!(store.routes()[0].traversals.len(), 5);
    }

    #[test]
    fn store_separates_directions_and_detours() {
        let mut store = RouteStore::new(0.5);
        let forward = RouteObservation {
            from: DiscoveredPlaceId(0),
            to: DiscoveredPlaceId(1),
            start: SimTime::from_seconds(0),
            end: SimTime::from_seconds(600),
            geometry: RouteGeometry::CellSequence(vec![cell(1), cell(2), cell(3)]),
        };
        let backward = RouteObservation {
            from: DiscoveredPlaceId(1),
            to: DiscoveredPlaceId(0),
            start: SimTime::from_seconds(10_000),
            end: SimTime::from_seconds(10_600),
            geometry: RouteGeometry::CellSequence(vec![cell(3), cell(2), cell(1)]),
        };
        let detour = RouteObservation {
            from: DiscoveredPlaceId(0),
            to: DiscoveredPlaceId(1),
            start: SimTime::from_seconds(20_000),
            end: SimTime::from_seconds(21_000),
            geometry: RouteGeometry::CellSequence(vec![
                cell(1),
                cell(7),
                cell(8),
                cell(9),
                cell(10),
                cell(3),
            ]),
        };
        store.record(forward);
        store.record(backward);
        store.record(detour);
        assert_eq!(store.routes().len(), 3);
        let between = store.between(DiscoveredPlaceId(0), DiscoveredPlaceId(1));
        assert_eq!(between.len(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let _ = RouteStore::new(2.0);
    }
}
