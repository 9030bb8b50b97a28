//! Property-based tests for the radio world's invariants.

use pmware_geo::Meters;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{GsmScratch, RadioConfig, RadioEnvironment, WifiScratch};
use pmware_world::{SimDuration, SimTime, WifiScan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serving_tower_always_covers_the_phone(
        world_seed in 0u64..20,
        rng_seed in 0u64..1_000,
        place_pick in 0usize..12,
    ) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(world_seed)
            .build();
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let place = &world.places()[place_pick % world.places().len()];
        let pos = place.position();
        let mut serving = None;
        for minute in 0..30u64 {
            let t = SimTime::from_seconds(minute * 60);
            let Some((obs, s)) = env.observe_gsm(pos, t, serving, &mut rng) else {
                // Tiny worlds still have full coverage at places.
                return Err(TestCaseError::fail("no coverage at a place"));
            };
            let tower = world.tower_by_cell(obs.cell).expect("cell known");
            prop_assert!(
                tower.covers(pos),
                "serving tower {} does not cover the phone",
                tower.id()
            );
            prop_assert!(obs.rssi_dbm < 0.0 && obs.rssi_dbm > -130.0);
            serving = Some(s);
        }
    }

    #[test]
    fn wifi_scans_only_contain_real_nearby_aps(
        world_seed in 0u64..20,
        rng_seed in 0u64..1_000,
        place_pick in 0usize..12,
    ) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(world_seed)
            .build();
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let place = &world.places()[place_pick % world.places().len()];
        let scan = env.scan_wifi(place.position(), SimTime::EPOCH, &mut rng);
        for reading in &scan.readings {
            let ap = world
                .access_points()
                .iter()
                .find(|a| a.bssid() == reading.bssid)
                .expect("scanned bssid exists in the world");
            let d = ap
                .position()
                .equirectangular_distance(place.position());
            prop_assert!(
                d.value() <= ap.range().value() * 1.2 + 1.0,
                "ap {} detected from {d}",
                ap.ssid()
            );
        }
        // Sorted strongest-first.
        for w in scan.readings.windows(2) {
            prop_assert!(w[0].rssi_dbm >= w[1].rssi_dbm);
        }
    }

    /// The per-position tower cache in a reused GSM scratch is invisible:
    /// against a fresh scratch per call, every GSM observation (and every
    /// WiFi scan drawn between them from the same RNG) is the same and the
    /// RNG is left in the same state. The walk stays put, moves, returns
    /// to earlier spots, and hops between two worlds at the same
    /// coordinates, so a cache keyed on position alone would fail.
    #[test]
    fn reused_scratch_matches_a_fresh_one(
        world_seeds in (0u64..20, 20u64..40),
        rng_seed in 0u64..1_000,
        steps in prop::collection::vec((0u8..4, 0usize..24, 0usize..2), 1..60),
    ) {
        let worlds = [
            WorldBuilder::new(RegionProfile::test_tiny()).seed(world_seeds.0).build(),
            WorldBuilder::new(RegionProfile::test_tiny()).seed(world_seeds.1).build(),
        ];
        let envs = worlds.each_ref().map(|w| RadioEnvironment::new(w, RadioConfig::default()));
        let places = worlds[0].places();
        let mut fresh_rng = StdRng::seed_from_u64(rng_seed);
        let mut reused_rng = StdRng::seed_from_u64(rng_seed);
        let mut gsm = GsmScratch::default();
        let mut wifi = WifiScratch::default();
        let mut scan = WifiScan { time: SimTime::EPOCH, readings: Vec::new() };
        let mut serving = [None; 2];
        let mut visited = vec![places[0].position()];
        for (minute, &(action, pick, w)) in steps.iter().enumerate() {
            let last = *visited.last().expect("non-empty");
            let pos = match action {
                0 => last,
                1 => places[pick % places.len()].position(),
                2 => last.destination(pick as f64 * 15.0, Meters::new(10.0 + 40.0 * pick as f64)),
                _ => visited[pick % visited.len()],
            };
            visited.push(pos);
            let t = SimTime::from_seconds(minute as u64 * 60);
            let env = &envs[w];

            let fresh = env.observe_gsm(pos, t, serving[w], &mut fresh_rng);
            let reused = env.observe_gsm_with(&mut gsm, pos, t, serving[w], &mut reused_rng);
            prop_assert_eq!(fresh, reused);
            serving[w] = fresh.map(|(_, s)| s);

            let fresh_scan = env.scan_wifi(pos, t, &mut fresh_rng);
            env.scan_wifi_with(&mut wifi, &mut scan, pos, t, &mut reused_rng);
            prop_assert_eq!(&fresh_scan, &scan);

            prop_assert_eq!(fresh_rng.gen::<u64>(), reused_rng.gen::<u64>());
        }
    }

    #[test]
    fn gps_error_is_statistically_bounded_outdoors(
        world_seed in 0u64..10,
        rng_seed in 0u64..100,
    ) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(world_seed)
            .build();
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(rng_seed);
        // A corner of the map: outdoors.
        let pos = world.bounds().south_west();
        prop_assume!(world.place_at(pos).is_none());
        let mut worst: f64 = 0.0;
        for minute in 0..50u64 {
            let fix = env
                .fix_gps(pos, SimTime::from_seconds(minute * 60), &mut rng)
                .expect("outdoor fixes always succeed");
            worst = worst.max(fix.position.equirectangular_distance(pos).value());
        }
        // 6 m sigma: 50 samples essentially never exceed 5 sigma.
        prop_assert!(worst < 30.0, "outdoor error {worst}");
    }

    #[test]
    fn time_arithmetic_is_consistent(
        secs in 0u64..10_000_000,
        add in 0u64..1_000_000,
    ) {
        let t = SimTime::from_seconds(secs);
        let d = SimDuration::from_seconds(add);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later.since(t), d);
        prop_assert_eq!(t.since(later), SimDuration::ZERO);
        prop_assert_eq!(later.day() * 86_400 + later.seconds_of_day(), secs + add);
        // Weekday cycles with period 7 days.
        let week_later = t + SimDuration::from_days(7);
        prop_assert_eq!(t.weekday(), week_later.weekday());
    }

    #[test]
    fn worlds_are_reproducible(world_seed in 0u64..50) {
        let a = WorldBuilder::new(RegionProfile::test_tiny()).seed(world_seed).build();
        let b = WorldBuilder::new(RegionProfile::test_tiny()).seed(world_seed).build();
        prop_assert_eq!(a.places().len(), b.places().len());
        prop_assert_eq!(a.towers().len(), b.towers().len());
        for (x, y) in a.towers().iter().zip(b.towers()) {
            prop_assert_eq!(x.cell(), y.cell());
            prop_assert_eq!(x.position(), y.position());
        }
    }

    #[test]
    fn every_place_is_inside_world_bounds(world_seed in 0u64..50) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(world_seed)
            .build();
        let bounds = world.bounds();
        for place in world.places() {
            prop_assert!(bounds.contains(place.position()), "{}", place.name());
        }
        for ap in world.access_points() {
            // Place APs sit near their places; allow the place-radius slack.
            prop_assert!(
                bounds.expanded(Meters::new(150.0)).contains(ap.position()),
                "{}",
                ap.ssid()
            );
        }
    }
}
