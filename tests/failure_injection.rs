//! Failure-injection tests: the middleware must keep sensing and
//! discovering through cloud outages and radio coverage gaps — a phone in
//! the real study did not stop working when the Azure instance or the
//! network was unreachable.

use pmware::prelude::*;

/// A decorator that answers every request with an injected 502 while
/// enabled: the cloud being unreachable.
fn outage_over(cloud: SharedCloud, seed: u64) -> FaultyCloud {
    FaultyCloud::new(
        cloud,
        FaultPlan::with_rate(seed, 1.0).kinds(&[FaultKind::Error]),
    )
}

#[test]
fn cloud_outage_falls_back_to_local_discovery() {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(4000)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 4001));
    let outage = outage_over(cloud, 4004);
    outage.set_enabled(false);
    let population = Population::generate(&world, 1, 4002);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 4);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        outage.clone(),
        PmsConfig::for_participant(40),
        4003,
    )
    .expect("registration happens before the outage");
    let rx = pms.register_app(
        "app",
        AppRequirement::places(Granularity::Building),
        IntentFilter::all(),
    );

    // Day 1 runs normally; then the cloud goes dark for the rest.
    pms.run(SimTime::from_day_time(1, 12, 0, 0)).unwrap();
    outage.set_enabled(true);
    pms.run(SimTime::from_day_time(4, 0, 0, 0)).unwrap();

    let counters = pms.counters();
    assert!(
        counters.gca_local_fallbacks >= 2,
        "offline maintenance must fall back locally: {counters:?}"
    );
    // Discovery continued offline: places exist and events kept flowing.
    assert!(pms.places().len() >= 2);
    assert!(counters.arrivals >= 3, "{counters:?}");
    let events = rx.try_iter().count();
    assert!(events > 0, "apps keep receiving intents during the outage");

    // When the cloud comes back, syncing resumes.
    outage.set_enabled(false);
    let synced_before = counters.profiles_synced;
    pms.run(SimTime::from_day_time(5, 0, 0, 0)).unwrap();
    assert!(
        pms.counters().profiles_synced > synced_before,
        "recovery must resume profile syncs"
    );
}

#[test]
fn registration_during_outage_fails_cleanly() {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(4100)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 4101));
    let outage = outage_over(cloud, 4104);
    let population = Population::generate(&world, 1, 4102);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 1);
    let err = match PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        outage,
        PmsConfig::for_participant(41),
        4103,
    ) {
        Ok(_) => panic!("cannot induct a device while the cloud is down"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("502"), "{msg}");
}

#[test]
fn sparse_coverage_world_does_not_break_the_pipeline() {
    // A rural-ish profile: towers spread so far apart that their coverage
    // leaves real dead zones between places.
    let mut profile = RegionProfile::urban_india();
    profile.name = "rural-sparse".to_owned();
    profile.tower_spacing_2g = Meters::new(2_600.0);
    profile.tower_spacing_3g = Meters::new(3_200.0);
    profile.tower_range = Meters::new(1_300.0);
    profile.place_mix = PlaceMix::tiny();
    let world = WorldBuilder::new(profile).seed(4200).build();

    // Confirm the world actually has dead zones (otherwise the test is
    // vacuous).
    let mut dead = 0;
    let mut total = 0;
    for dx in 0..20 {
        for dy in 0..20 {
            let p = world
                .bounds()
                .south_west()
                .destination(0.0, Meters::new(dy as f64 * 300.0))
                .destination(90.0, Meters::new(dx as f64 * 300.0));
            if !world.bounds().contains(p) {
                continue;
            }
            total += 1;
            let mut covered = false;
            world.for_each_tower_near(p, Meters::new(3_500.0), |t, d| {
                if d <= t.range() {
                    covered = true;
                }
            });
            if !covered {
                dead += 1;
            }
        }
    }
    assert!(
        dead > 0,
        "sparse profile should leave dead zones ({dead}/{total})"
    );

    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 4201));
    let population = Population::generate(&world, 1, 4202);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 3);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(42),
        4203,
    )
    .unwrap();
    let _rx = pms.register_app(
        "app",
        AppRequirement::places(Granularity::Area),
        IntentFilter::all(),
    );
    // Must not panic despite out-of-coverage samples returning None.
    pms.run(SimTime::from_day_time(3, 0, 0, 0)).unwrap();
    assert!(
        !pms.places().is_empty(),
        "places at covered spots are still discovered"
    );

    // The extreme of a coverage gap: a phone that samples GSM once at
    // boot and never again. Every nightly maintenance pass still sends
    // exactly one `/places/discover`, the empty suffix included: the
    // reply is what refreshes the authoritative place set.
    let obs = Obs::new();
    let cloud =
        SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 4204).with_obs(&obs));
    let mut config = PmsConfig::for_participant(43);
    config.sensing.gsm_period = SimDuration::from_days(30);
    let mut pms =
        PmwareMobileService::on_itinerary(&world, &itinerary, cloud, config, 4205).unwrap();
    let discovers = obs.counter("cloud_requests_total", &[("endpoint", "places_discover")]);
    pms.run(SimTime::from_day_time(1, 4, 0, 0)).unwrap();
    assert_eq!(
        discovers.get(),
        1,
        "the first pass offloads the boot sample"
    );
    pms.run(SimTime::from_day_time(2, 4, 0, 0)).unwrap();
    assert_eq!(
        discovers.get(),
        2,
        "a pass with no new sample still offloads once"
    );
    let counters = pms.counters();
    assert_eq!(
        (counters.gca_offloads, counters.gca_local_fallbacks),
        (2, 0)
    );
}
