//! World construction.
//!
//! [`WorldBuilder`] turns a [`RegionProfile`] and a seed into a fully
//! assembled, deterministic [`World`]. Profiles capture the regional
//! differences the paper calls out (§1, item 4): tower density, WiFi
//! coverage (~60 % of places in urban India vs > 90 % in a developed
//! country), and place layout.

use pmware_geo::{BoundingBox, GeoPoint, Meters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::{ApId, Bssid, CellGlobalId, CellId, Lac, PlaceId, Plmn, TowerId};
use crate::place::{PlaceCategory, WorldPlace};
use crate::roads::RoadGraph;
use crate::tower::{CellTower, NetworkLayer};
use crate::wifi::AccessPoint;
use crate::world::World;

/// Number of places to generate per category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceMix {
    /// `(category, count)` pairs; a category may appear once.
    pub counts: Vec<(PlaceCategory, u32)>,
}

impl PlaceMix {
    /// The mix used by the deployment-study experiments: enough places for
    /// 16 agents to accumulate ~120 distinct visited places in two weeks.
    pub fn city_default() -> Self {
        PlaceMix {
            counts: vec![
                (PlaceCategory::Home, 40),
                (PlaceCategory::Workplace, 12),
                (PlaceCategory::Shopping, 10),
                (PlaceCategory::Restaurant, 12),
                (PlaceCategory::Fitness, 6),
                (PlaceCategory::Park, 6),
                (PlaceCategory::Education, 6),
                (PlaceCategory::Entertainment, 6),
                (PlaceCategory::Healthcare, 4),
                (PlaceCategory::Transit, 8),
            ],
        }
    }

    /// A small mix for fast tests.
    pub fn tiny() -> Self {
        PlaceMix {
            counts: vec![
                (PlaceCategory::Home, 6),
                (PlaceCategory::Workplace, 3),
                (PlaceCategory::Shopping, 2),
                (PlaceCategory::Restaurant, 2),
            ],
        }
    }

    /// Total number of places.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// Regional parameters for world generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Centre of the simulated city.
    pub center: GeoPoint,
    /// Edge length of the square region.
    pub extent: Meters,
    /// Spacing of the jittered 2G tower grid.
    pub tower_spacing_2g: Meters,
    /// Spacing of the jittered 3G tower grid.
    pub tower_spacing_3g: Meters,
    /// Coverage range of each tower. Must exceed the spacing for the
    /// overlapping coverage that causes serving-cell oscillation.
    pub tower_range: Meters,
    /// Operator identity stamped on every cell.
    pub plmn: Plmn,
    /// Fraction of places equipped with WiFi access points. This is the
    /// knob behind the paper's "60 % of a day under WiFi in India vs 90 %
    /// in Switzerland" observation.
    pub wifi_place_coverage: f64,
    /// Access points per WiFi-equipped place (inclusive range).
    pub aps_per_place: (u32, u32),
    /// Detection range of place APs.
    pub ap_range: Meters,
    /// Number of free-standing street APs (scan noise while travelling).
    pub background_aps: u32,
    /// Road grid spacing.
    pub road_spacing: Meters,
    /// Minimum separation between place centres.
    pub place_separation: Meters,
    /// Physical radius of places (inclusive range, metres).
    pub place_radius: (f64, f64),
    /// Probability that a place is indoor (GPS-hostile).
    pub indoor_probability: f64,
    /// Place counts.
    pub place_mix: PlaceMix,
}

impl RegionProfile {
    /// Urban-India profile: moderate tower density, ~60 % WiFi coverage.
    pub fn urban_india() -> Self {
        RegionProfile {
            name: "urban-india".to_owned(),
            center: GeoPoint::new(12.9716, 77.5946).expect("valid"), // Bangalore
            extent: Meters::new(6_000.0),
            tower_spacing_2g: Meters::new(800.0),
            tower_spacing_3g: Meters::new(1_000.0),
            tower_range: Meters::new(1_400.0),
            plmn: Plmn { mcc: 404, mnc: 45 },
            wifi_place_coverage: 0.66,
            aps_per_place: (2, 4),
            ap_range: Meters::new(80.0),
            background_aps: 60,
            road_spacing: Meters::new(500.0),
            place_separation: Meters::new(160.0),
            place_radius: (35.0, 70.0),
            indoor_probability: 0.75,
            place_mix: PlaceMix::city_default(),
        }
    }

    /// Urban-Europe profile: denser WiFi (> 90 % of places covered).
    pub fn urban_europe() -> Self {
        RegionProfile {
            name: "urban-europe".to_owned(),
            center: GeoPoint::new(46.5197, 6.6323).expect("valid"), // Lausanne
            extent: Meters::new(6_000.0),
            tower_spacing_2g: Meters::new(700.0),
            tower_spacing_3g: Meters::new(850.0),
            tower_range: Meters::new(1_200.0),
            plmn: Plmn { mcc: 228, mnc: 1 },
            wifi_place_coverage: 0.93,
            aps_per_place: (3, 6),
            ap_range: Meters::new(75.0),
            background_aps: 180,
            road_spacing: Meters::new(450.0),
            place_separation: Meters::new(160.0),
            place_radius: (35.0, 70.0),
            indoor_probability: 0.75,
            place_mix: PlaceMix::city_default(),
        }
    }

    /// A small, fast profile for unit tests.
    pub fn test_tiny() -> Self {
        let mut p = RegionProfile::urban_india();
        p.name = "test-tiny".to_owned();
        p.extent = Meters::new(2_500.0);
        p.place_mix = PlaceMix::tiny();
        p.background_aps = 10;
        p
    }
}

/// Deterministic world generator.
///
/// # Examples
///
/// ```
/// use pmware_world::builder::{RegionProfile, WorldBuilder};
///
/// let world = WorldBuilder::new(RegionProfile::test_tiny()).seed(1).build();
/// let again = WorldBuilder::new(RegionProfile::test_tiny()).seed(1).build();
/// assert_eq!(world.places().len(), again.places().len());
/// assert_eq!(world.places()[0].position(), again.places()[0].position());
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    profile: RegionProfile,
    seed: u64,
}

impl WorldBuilder {
    /// Starts a builder from a region profile.
    pub fn new(profile: RegionProfile) -> Self {
        WorldBuilder { profile, seed: 0 }
    }

    /// Sets the generation seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the profile's place mix.
    pub fn place_mix(mut self, mix: PlaceMix) -> Self {
        self.profile.place_mix = mix;
        self
    }

    /// Generates the world.
    pub fn build(self) -> World {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = &self.profile;
        let half = p.extent.value() / 2.0;
        let sw = p
            .center
            .destination(180.0, Meters::new(half))
            .destination(270.0, Meters::new(half));
        let ne = p
            .center
            .destination(0.0, Meters::new(half))
            .destination(90.0, Meters::new(half));
        let bounds = BoundingBox::new(sw, ne).expect("square region");

        let towers = build_towers(p, bounds, &mut rng);
        let places = build_places(p, bounds, &mut rng);
        let aps = build_aps(p, bounds, &places, &mut rng);
        let roads = build_roads(p, bounds);

        World::assemble(bounds, towers, aps, places, roads)
    }
}

fn random_point_in<R: Rng + ?Sized>(bounds: BoundingBox, rng: &mut R) -> GeoPoint {
    let sw = bounds.south_west();
    let ne = bounds.north_east();
    let lat = rng.gen_range(sw.latitude()..=ne.latitude());
    let lng = rng.gen_range(sw.longitude()..=ne.longitude());
    GeoPoint::new(lat, lng).expect("inside valid bounds")
}

fn build_towers<R: Rng + ?Sized>(
    p: &RegionProfile,
    bounds: BoundingBox,
    rng: &mut R,
) -> Vec<CellTower> {
    let mut towers = Vec::new();
    let mut next_cell = 1_000u32;
    for (layer, spacing, lac_base) in [
        (NetworkLayer::G2, p.tower_spacing_2g, 100u16),
        (NetworkLayer::G3, p.tower_spacing_3g, 200u16),
    ] {
        let cols = (bounds.width().value() / spacing.value()).ceil() as u32 + 1;
        let rows = (bounds.height().value() / spacing.value()).ceil() as u32 + 1;
        for r in 0..rows {
            for c in 0..cols {
                let base = bounds
                    .south_west()
                    .destination(0.0, Meters::new(r as f64 * spacing.value()))
                    .destination(90.0, Meters::new(c as f64 * spacing.value()));
                // Jitter up to 25% of spacing.
                let jitter_d = rng.gen_range(0.0..spacing.value() * 0.25);
                let jitter_b = rng.gen_range(0.0..360.0);
                let pos = base.destination(jitter_b, Meters::new(jitter_d));
                let id = TowerId(towers.len() as u32);
                // LAC changes every few grid rows, as in real deployments.
                let lac = Lac(lac_base + (r / 3) as u16);
                let cell = CellGlobalId {
                    plmn: p.plmn,
                    lac,
                    cell: CellId(next_cell),
                };
                next_cell += 1;
                let power = 20.0 + rng.gen_range(-3.0..3.0);
                towers.push(CellTower::new(id, cell, layer, pos, p.tower_range, power));
            }
        }
    }
    towers
}

fn build_places<R: Rng + ?Sized>(
    p: &RegionProfile,
    bounds: BoundingBox,
    rng: &mut R,
) -> Vec<WorldPlace> {
    let mut places: Vec<WorldPlace> = Vec::new();
    // Keep places away from the outermost strip so coverage is uniform.
    let inner = shrink(bounds, Meters::new(300.0));
    for &(category, count) in &p.place_mix.counts {
        for i in 0..count {
            let mut position = random_point_in(inner, rng);
            // Rejection sampling for minimum separation; give up after a
            // bounded number of attempts so dense mixes still terminate.
            for _ in 0..200 {
                let ok = places.iter().all(|existing| {
                    existing.position().equirectangular_distance(position) >= p.place_separation
                });
                if ok {
                    break;
                }
                position = random_point_in(inner, rng);
            }
            let id = PlaceId(places.len() as u32);
            let radius = Meters::new(rng.gen_range(p.place_radius.0..=p.place_radius.1));
            let indoor = match category {
                PlaceCategory::Park | PlaceCategory::Transit => false,
                PlaceCategory::Home | PlaceCategory::Workplace => true,
                _ => rng.gen_bool(p.indoor_probability),
            };
            let name = format!("{} {}", category.label(), i + 1);
            places.push(WorldPlace::new(
                id, name, category, position, radius, indoor,
            ));
        }
    }
    places
}

fn build_aps<R: Rng + ?Sized>(
    p: &RegionProfile,
    bounds: BoundingBox,
    places: &[WorldPlace],
    rng: &mut R,
) -> Vec<AccessPoint> {
    let mut aps = Vec::new();
    let mut next_mac: u64 = 0x02_00_00_00_00_00; // locally administered space
    for place in places {
        if !rng.gen_bool(p.wifi_place_coverage) {
            continue;
        }
        let n = rng.gen_range(p.aps_per_place.0..=p.aps_per_place.1);
        for k in 0..n {
            let d = rng.gen_range(0.0..place.radius().value());
            let b = rng.gen_range(0.0..360.0);
            let pos = place.position().destination(b, Meters::new(d));
            let id = ApId(aps.len() as u32);
            let bssid = Bssid(next_mac);
            next_mac += 0x10;
            let range = Meters::new(p.ap_range.value() * rng.gen_range(0.8..1.2));
            let ssid = format!("{}-ap{}", place.name().replace(' ', "-"), k);
            aps.push(AccessPoint::new(id, bssid, ssid, pos, range));
        }
    }
    for k in 0..p.background_aps {
        let pos = random_point_in(bounds, rng);
        let id = ApId(aps.len() as u32);
        let bssid = Bssid(next_mac);
        next_mac += 0x10;
        let range = Meters::new(p.ap_range.value() * rng.gen_range(0.6..1.0));
        aps.push(AccessPoint::new(
            id,
            bssid,
            format!("street-{k}"),
            pos,
            range,
        ));
    }
    aps
}

fn build_roads(p: &RegionProfile, bounds: BoundingBox) -> RoadGraph {
    let mut roads = RoadGraph::new();
    let spacing = p.road_spacing.value();
    let cols = (bounds.width().value() / spacing).ceil() as usize + 1;
    let rows = (bounds.height().value() / spacing).ceil() as usize + 1;
    let mut ids = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let pos = bounds
                .south_west()
                .destination(0.0, Meters::new(r as f64 * spacing))
                .destination(90.0, Meters::new(c as f64 * spacing));
            ids.push(roads.add_node(pos));
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                roads.add_edge(ids[i], ids[i + 1]);
            }
            if r + 1 < rows {
                roads.add_edge(ids[i], ids[i + cols]);
            }
        }
    }
    roads
}

fn shrink(bounds: BoundingBox, margin: Meters) -> BoundingBox {
    let sw = bounds
        .south_west()
        .destination(0.0, margin)
        .destination(90.0, margin);
    let ne = bounds
        .north_east()
        .destination(180.0, margin)
        .destination(270.0, margin);
    BoundingBox::new(sw, ne).unwrap_or(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(5)
            .build();
        let b = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(5)
            .build();
        assert_eq!(a.towers().len(), b.towers().len());
        assert_eq!(a.places().len(), b.places().len());
        assert_eq!(a.access_points().len(), b.access_points().len());
        for (x, y) in a.places().iter().zip(b.places()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(1)
            .build();
        let b = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(2)
            .build();
        let same = a
            .places()
            .iter()
            .zip(b.places())
            .all(|(x, y)| x.position() == y.position());
        assert!(!same);
    }

    #[test]
    fn full_gsm_coverage_inside_bounds() {
        let w = WorldBuilder::new(RegionProfile::urban_india())
            .seed(3)
            .build();
        // Every place must be covered by at least two towers so that
        // oscillation is possible everywhere.
        for place in w.places() {
            let mut covering = 0;
            w.for_each_tower_near(place.position(), Meters::new(3_000.0), |t, d| {
                if d <= t.range() {
                    covering += 1;
                }
            });
            assert!(
                covering >= 2,
                "{} covered by {covering} towers",
                place.name()
            );
        }
    }

    #[test]
    fn place_mix_counts_respected() {
        let w = WorldBuilder::new(RegionProfile::urban_india())
            .seed(4)
            .build();
        let mix = PlaceMix::city_default();
        assert_eq!(w.places().len() as u32, mix.total());
        let homes = w
            .places()
            .iter()
            .filter(|p| p.category() == PlaceCategory::Home)
            .count();
        assert_eq!(homes, 40);
    }

    #[test]
    fn wifi_coverage_tracks_profile() {
        let india = WorldBuilder::new(RegionProfile::urban_india())
            .seed(6)
            .build();
        let europe = WorldBuilder::new(RegionProfile::urban_europe())
            .seed(6)
            .build();
        let covered = |w: &World| {
            let n = w
                .places()
                .iter()
                .filter(|p| {
                    let mut any = false;
                    w.for_each_ap_near(p.position(), p.radius(), |_, _| any = true);
                    any
                })
                .count();
            n as f64 / w.places().len() as f64
        };
        let india_cov = covered(&india);
        let europe_cov = covered(&europe);
        assert!(india_cov > 0.45 && india_cov < 0.8, "india {india_cov}");
        assert!(europe_cov > 0.85, "europe {europe_cov}");
        assert!(europe_cov > india_cov);
    }

    #[test]
    fn places_respect_minimum_separation_mostly() {
        let w = WorldBuilder::new(RegionProfile::urban_india())
            .seed(7)
            .build();
        let mut violations = 0;
        for (i, a) in w.places().iter().enumerate() {
            for b in &w.places()[i + 1..] {
                let d = a.position().equirectangular_distance(b.position());
                if d.value() < 150.0 {
                    violations += 1;
                }
            }
        }
        // Rejection sampling is bounded, so a few near pairs may survive —
        // which the deployment study *wants* (merged-place cases).
        assert!(violations < 8, "too many close pairs: {violations}");
    }

    #[test]
    fn roads_are_connected() {
        let w = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(8)
            .build();
        let roads = w.roads();
        let a = roads.nearest_node(w.bounds().south_west()).unwrap();
        let b = roads.nearest_node(w.bounds().north_east()).unwrap();
        assert!(roads.shortest_path(a, b).is_some());
    }

    #[test]
    fn place_at_finds_containing_place() {
        let w = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(10)
            .build();
        let place = &w.places()[0];
        let inside = place
            .position()
            .destination(45.0, Meters::new(place.radius().value() * 0.5));
        let found = w.place_at(inside).expect("point is inside");
        // Could be an overlapping neighbour, but must contain the point.
        assert!(found.contains(inside));
        // A faraway outdoor point matches nothing.
        let outside = w.bounds().south_west();
        assert!(w.place_at(outside).is_none());
    }
}
