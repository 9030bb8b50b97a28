//! End-to-end middleware test: one simulated participant runs PMS for
//! several days with connected apps; places are discovered, events are
//! broadcast, profiles are synced, and the battery pays only for what the
//! apps demanded.

use pmware_cloud::{CellDatabase, CloudInstance, Payload, SharedCloud};
use pmware_core::checkpoint::PmsCheckpoint;
use pmware_core::intents::{actions, IntentFilter};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity, RouteAccuracy};
use pmware_device::Interface;
use pmware_mobility::{Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{SimTime, World};

/// A world seeded `seed`, its cloud, and one participant's itinerary.
fn setup(days: u64, seed: u64) -> (World, SharedCloud, Itinerary) {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(&world),
        seed + 1,
    ));
    let pop = Population::generate(&world, 1, seed + 1);
    let itinerary = pop.itinerary(&world, pop.agents()[0].id(), days);
    (world, cloud, itinerary)
}

#[test]
fn pms_discovers_places_and_broadcasts_events() {
    let days = 5;
    let (world, cloud, itinerary) = setup(days, 500);

    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud.clone(),
        PmsConfig::for_participant(0),
        502,
    )
    .expect("registration succeeds");

    // A building-level app listening to everything.
    let rx = pms.register_app(
        "todo",
        AppRequirement::places(Granularity::Building).with_routes(RouteAccuracy::Low),
        IntentFilter::all(),
    );

    pms.run(SimTime::from_day_time(days, 0, 0, 0)).unwrap();

    // Places were discovered and tracked.
    assert!(
        pms.places().len() >= 2,
        "expected home+work at least, got {}",
        pms.places().len()
    );
    let counters = pms.counters();
    assert!(counters.arrivals >= 4, "arrivals: {:?}", counters);
    assert!(counters.departures >= 3, "departures: {:?}", counters);
    assert!(
        counters.gca_offloads >= days - 1,
        "offloads: {:?}",
        counters
    );
    assert_eq!(counters.gca_local_fallbacks, 0, "cloud never fails here");
    assert!(counters.routes >= 2, "routes: {:?}", counters);
    assert!(
        counters.profiles_synced >= days - 2,
        "profiles: {:?}",
        counters
    );

    // The app received intents of several kinds.
    let intents: Vec<_> = rx.try_iter().collect();
    let arrivals = intents
        .iter()
        .filter(|i| i.action == actions::PLACE_ARRIVAL)
        .count();
    let news = intents
        .iter()
        .filter(|i| i.action == actions::PLACE_NEW)
        .count();
    let routes = intents
        .iter()
        .filter(|i| i.action == actions::ROUTE_COMPLETED)
        .count();
    assert!(arrivals >= 4, "app saw {arrivals} arrivals");
    assert!(news >= 2, "app saw {news} new places");
    assert!(routes >= 2, "app saw {routes} routes");

    // Positions in intents come from the cloud geolocation and are
    // building-level coarsened, near the world's actual extent.
    let with_pos = intents
        .iter()
        .find(|i| i.extras["latitude"].is_f64())
        .expect("some intent carries a position");
    let lat = with_pos.extras["latitude"].as_f64().unwrap();
    assert!((lat - world.bounds().center().latitude()).abs() < 0.2);

    // Energy accounting: GSM sampled continuously; GPS only while moving
    // (building-level demand), so GSM sample count must dominate.
    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    let gsm = report
        .energy_by_interface
        .iter()
        .find(|(i, _)| *i == Interface::Gsm)
        .map(|(_, j)| *j)
        .unwrap_or(0.0);
    assert!(gsm > 0.0);
    let wifi = report
        .energy_by_interface
        .iter()
        .find(|(i, _)| *i == Interface::WifiScan)
        .map(|(_, j)| *j)
        .unwrap_or(0.0);
    assert_eq!(wifi, 0.0, "no room-level app: WiFi must stay off");
    assert!(report.intents_delivered as usize >= intents.len());
}

#[test]
fn granularity_cap_coarsens_payloads() {
    let days = 3;
    let (world, cloud, itinerary) = setup(days, 600);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(1),
        602,
    )
    .unwrap();

    // The ads app asks for building-level but the user caps it at area.
    let ads_rx = pms.register_app(
        "ads",
        AppRequirement::places(Granularity::Building),
        IntentFilter::for_actions([actions::PLACE_ARRIVAL]),
    );
    let fine_rx = pms.register_app(
        "logger",
        AppRequirement::places(Granularity::Building),
        IntentFilter::for_actions([actions::PLACE_ARRIVAL]),
    );
    pms.preferences_mut().set_cap("ads", Granularity::Area);

    pms.run(SimTime::from_day_time(days, 0, 0, 0)).unwrap();

    let ads_intents: Vec<_> = ads_rx.try_iter().collect();
    let fine_intents: Vec<_> = fine_rx.try_iter().collect();
    assert!(!ads_intents.is_empty());
    assert_eq!(ads_intents.len(), fine_intents.len());
    for intent in &ads_intents {
        assert_eq!(intent.extras["granularity"], "area");
    }
    for intent in &fine_intents {
        assert_eq!(intent.extras["granularity"], "building");
    }
    // Same events, different positional precision: where both carry a
    // position for the same place/time, they may differ (coarsening), and
    // the ads one snaps to a 1 km grid.
    for (a, f) in ads_intents.iter().zip(&fine_intents) {
        if let (Some(la), Some(lf)) = (a.extras["latitude"].as_f64(), f.extras["latitude"].as_f64())
        {
            // Area-level snapping moves the coordinate by at most ~1km/111km deg.
            assert!((la - lf).abs() <= 0.01, "ads {la} vs fine {lf}");
        }
    }
}

#[test]
fn kill_switch_stops_all_place_intents() {
    let days = 2;
    let (world, cloud, itinerary) = setup(days, 700);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(2),
        702,
    )
    .unwrap();
    let rx = pms.register_app(
        "app",
        AppRequirement::places(Granularity::Area),
        IntentFilter::for_actions([
            actions::PLACE_ARRIVAL,
            actions::PLACE_DEPARTURE,
            actions::PLACE_NEW,
        ]),
    );
    pms.preferences_mut().set_sharing_disabled(true);
    pms.run(SimTime::from_day_time(days, 0, 0, 0)).unwrap();
    assert_eq!(
        rx.try_iter().count(),
        0,
        "kill switch must block every place intent"
    );
}

#[test]
fn room_level_app_triggers_wifi_and_augments_signatures() {
    let days = 3;
    // Europe profile: WiFi nearly everywhere.
    let world = WorldBuilder::new(RegionProfile::urban_europe())
        .seed(800)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 801));
    let pop = Population::generate(&world, 1, 802);
    let itinerary = pop.itinerary(&world, pop.agents()[0].id(), days);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(3),
        803,
    )
    .unwrap();
    let _rx = pms.register_app(
        "activity-tracker",
        AppRequirement::places(Granularity::Room),
        IntentFilter::all(),
    );
    pms.run(SimTime::from_day_time(days, 0, 0, 0)).unwrap();

    // WiFi was sampled (room-level demand).
    let wifi_energy = pms.battery().drained_by(Interface::WifiScan);
    assert!(
        wifi_energy > 0.0,
        "room-level demand must trigger WiFi scans"
    );
    // And at least one discovered place carries WiFi augmentation.
    let augmented = pms
        .places()
        .iter()
        .filter(|p| !p.wifi_aps.is_empty())
        .count();
    assert!(
        augmented >= 1,
        "opportunistic WiFi should augment some place signatures"
    );
    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    assert!(report.energy_joules > 0.0);
}

#[test]
fn activity_summary_reaches_the_cloud() {
    let days = 2;
    let (world, cloud, itinerary) = setup(days, 900);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(9),
        902,
    )
    .unwrap();
    let _rx = pms.register_app(
        "app",
        AppRequirement::places(Granularity::Area),
        IntentFilter::all(),
    );
    let end = SimTime::from_day_time(days, 0, 0, 0);
    pms.run(end).unwrap();

    // Day 0's profile was synced at the day-1 maintenance; it must carry a
    // full day of classified activity (1440 one-minute windows).
    let body = pms
        .cloud_client_mut()
        .get("/api/v1/profiles/0", end)
        .expect("day 0 synced")
        .json();
    let activity = &body["profile"]["activity"];
    let moving = activity["moving_seconds"].as_u64().unwrap();
    let stationary = activity["stationary_seconds"].as_u64().unwrap();
    assert_eq!(moving + stationary, 24 * 3_600, "every window accounted");
    assert!(moving > 0, "a commuter day includes movement");
    assert!(stationary > moving, "most of a day is stationary");

    // The aggregate analytics endpoint answers too.
    let resp = pms
        .cloud_client_mut()
        .call("/api/v1/analytics/activity", Payload::Empty, end)
        .unwrap();
    assert!(resp.json()["mean_daily_moving_minutes"].as_f64().unwrap() > 0.0);
}

/// The checkpoint's place registry no longer carries the run-local
/// `gca_map`. A checkpoint written in the older format, with that key,
/// still parses (the key is ignored) and restores.
#[test]
fn checkpoint_with_the_retired_gca_map_key_still_restores() {
    let days = 2;
    let (world, cloud, itinerary) = setup(days, 700);
    let config = PmsConfig::for_participant(7);
    let mut pms =
        PmwareMobileService::on_itinerary(&world, &itinerary, cloud.clone(), config.clone(), 702)
            .unwrap();
    pms.run(SimTime::from_day_time(1, 12, 0, 0)).unwrap();
    assert!(
        !pms.places().is_empty(),
        "the first maintenance found places"
    );

    let json = pms.checkpoint().to_json();
    assert!(!json.contains("gca_map"), "the new format drops the key");
    let older = json.replacen(
        "\"registry\":{",
        "\"registry\":{\"gca_map\":{\"0\":0,\"1\":1},",
        1,
    );
    assert_ne!(older, json, "the older spelling was spliced in");
    let parsed = PmsCheckpoint::from_json(&older).expect("an older checkpoint parses");
    assert_eq!(
        parsed.to_json(),
        json,
        "nothing but the retired key differs"
    );

    let device = pms.shutdown();
    let mut restored = PmwareMobileService::restore(device, cloud, config, parsed);
    restored.run(SimTime::from_day_time(days, 0, 0, 0)).unwrap();
    assert!(!restored.places().is_empty());
}

/// A fresh service for the `set_obs` precondition tests.
fn fresh_service<'w>(
    world: &'w World,
    itinerary: &'w Itinerary,
    cloud: SharedCloud,
) -> PmwareMobileService<'w, &'w Itinerary> {
    PmwareMobileService::on_itinerary(world, itinerary, cloud, PmsConfig::for_participant(0), 1)
        .unwrap()
}

/// Metrics are bound once: a second `set_obs` would have to carry what
/// the first binding counted, so it is refused.
#[test]
#[should_panic(expected = "set_obs runs once, before the first tick")]
fn set_obs_twice_is_refused() {
    let (world, cloud, itinerary) = setup(1, 1_100);
    let mut pms = fresh_service(&world, &itinerary, cloud);
    pms.set_obs(&Obs::new().for_actor("p0000"));
    pms.set_obs(&Obs::new().for_actor("p0000"));
}

/// Binding after the first tick would leave that tick's counts behind in
/// the private registry, so it is refused.
#[test]
#[should_panic(expected = "set_obs runs once, before the first tick")]
fn set_obs_after_a_tick_is_refused() {
    let (world, cloud, itinerary) = setup(1, 1_200);
    let mut pms = fresh_service(&world, &itinerary, cloud);
    pms.run(SimTime::from_seconds(60)).unwrap();
    pms.set_obs(&Obs::new().for_actor("p0000"));
}
