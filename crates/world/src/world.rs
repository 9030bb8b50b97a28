//! The assembled world.

use pmware_geo::{grid::SpatialGrid, BoundingBox, GeoPoint, Meters};

use crate::ids::{ApId, PlaceId, TowerId};
use crate::place::WorldPlace;
use crate::roads::RoadGraph;
use crate::tower::CellTower;
use crate::wifi::AccessPoint;

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`World::id`]: every assembled world draws a fresh number.
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(0);

/// A fully built simulated city: towers, access points, places, and roads.
///
/// Construct one with [`builder::WorldBuilder`](crate::builder::WorldBuilder).
#[derive(Debug, Clone)]
pub struct World {
    id: u64,
    bounds: BoundingBox,
    towers: Vec<CellTower>,
    max_tower_range: Meters,
    tower_index: SpatialGrid<TowerId>,
    aps: Vec<AccessPoint>,
    ap_index: SpatialGrid<ApId>,
    max_ap_detection_limit: Meters,
    places: Vec<WorldPlace>,
    place_index: SpatialGrid<PlaceId>,
    roads: RoadGraph,
}

impl World {
    pub(crate) fn assemble(
        bounds: BoundingBox,
        towers: Vec<CellTower>,
        aps: Vec<AccessPoint>,
        places: Vec<WorldPlace>,
        roads: RoadGraph,
    ) -> World {
        let mut tower_index = SpatialGrid::new(Meters::new(1_000.0)).expect("positive cell size");
        for t in &towers {
            tower_index.insert(t.position(), t.id());
        }
        let max_tower_range =
            Meters::new(towers.iter().map(|t| t.range().value()).fold(0.0, f64::max));
        let mut ap_index = SpatialGrid::new(Meters::new(250.0)).expect("positive cell size");
        for a in &aps {
            ap_index.insert(a.position(), a.id());
        }
        let max_ap_detection_limit = Meters::new(
            aps.iter()
                .map(|a| a.detection_limit().value())
                .fold(0.0, f64::max),
        );
        let mut place_index = SpatialGrid::new(Meters::new(500.0)).expect("positive cell size");
        for p in &places {
            place_index.insert(p.position(), p.id());
        }
        World {
            // Relaxed: the counter only hands out distinct values and
            // publishes no other data.
            id: NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed),
            bounds,
            towers,
            max_tower_range,
            tower_index,
            aps,
            ap_index,
            max_ap_detection_limit,
            places,
            place_index,
            roads,
        }
    }

    /// A process-unique identity, drawn when the world is assembled (a
    /// clone shares it, which is sound because a world is never mutated).
    /// Caches derived from the world, such as the radio model's
    /// per-position scratch, key on it.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The world's extent.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// All cell towers.
    pub fn towers(&self) -> &[CellTower] {
        &self.towers
    }

    /// The largest nominal coverage radius of any tower: no phone farther
    /// than this from a tower can hear it.
    pub(crate) fn max_tower_range(&self) -> Meters {
        self.max_tower_range
    }

    /// A tower by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tower of this world.
    pub fn tower(&self, id: TowerId) -> &CellTower {
        &self.towers[id.0 as usize]
    }

    /// All WiFi access points.
    pub fn access_points(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// The largest [detection limit](AccessPoint::detection_limit) of any
    /// access point: no scan farther than this from an AP can see it.
    pub(crate) fn max_ap_detection_limit(&self) -> Meters {
        self.max_ap_detection_limit
    }

    /// An access point by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an access point of this world.
    pub fn access_point(&self, id: ApId) -> &AccessPoint {
        &self.aps[id.0 as usize]
    }

    /// All ground-truth places.
    pub fn places(&self) -> &[WorldPlace] {
        &self.places
    }

    /// A place by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a place of this world.
    pub fn place(&self, id: PlaceId) -> &WorldPlace {
        &self.places[id.0 as usize]
    }

    /// The place whose extent contains `point`, if any. When extents overlap
    /// the nearest centre wins.
    pub fn place_at(&self, point: GeoPoint) -> Option<&WorldPlace> {
        let mut best: Option<(&WorldPlace, f64)> = None;
        self.place_index
            .for_each_within(point, Meters::new(500.0), |_, id, _| {
                let place = self.place(*id);
                let d = place.position().equirectangular_distance(point);
                if d <= place.radius() && best.is_none_or(|(_, bd)| d.value() < bd) {
                    best = Some((place, d.value()));
                }
            });
        best.map(|(p, _)| p)
    }

    /// The road network.
    pub fn roads(&self) -> &RoadGraph {
        &self.roads
    }

    /// Calls `f(tower, distance)` for every tower within `radius` of `point`.
    pub fn for_each_tower_near<F>(&self, point: GeoPoint, radius: Meters, mut f: F)
    where
        F: FnMut(&CellTower, Meters),
    {
        self.tower_index.for_each_within(point, radius, |_, id, d| {
            f(self.tower(*id), d);
        });
    }

    /// Calls `f(ap, distance)` for every access point within `radius`.
    pub fn for_each_ap_near<F>(&self, point: GeoPoint, radius: Meters, mut f: F)
    where
        F: FnMut(&AccessPoint, Meters),
    {
        self.ap_index.for_each_within(point, radius, |_, id, d| {
            f(self.access_point(*id), d);
        });
    }
}
