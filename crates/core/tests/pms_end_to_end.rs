//! End-to-end middleware test: one simulated participant runs PMS for
//! several days with connected apps; places are discovered, events are
//! broadcast, profiles are synced, and the battery pays only for what the
//! apps demanded.

use pmware_cloud::{CellDatabase, CloudInstance, Payload, SharedCloud};
use pmware_core::intents::{actions, IntentFilter};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity, RouteAccuracy};
use pmware_device::{Device, EnergyModel, Interface};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{SimTime, World};

fn setup(days: u64, seed: u64) -> (World, SharedCloud) {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(&world),
        seed + 1,
    ));
    let _ = days;
    (world, cloud)
}

#[test]
fn pms_discovers_places_and_broadcasts_events() {
    let days = 5;
    let (world, cloud) = setup(days, 500);
    let pop = Population::generate(&world, 1, 501);
    let agent = &pop.agents()[0];
    let itinerary = pop.itinerary(&world, agent.id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 502);

    let mut pms = PmwareMobileService::new(
        device,
        cloud.clone(),
        PmsConfig::for_participant(0),
        SimTime::EPOCH,
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
    let (world, cloud) = setup(days, 600);
    let pop = Population::generate(&world, 1, 601);
    let itinerary = pop.itinerary(&world, pop.agents()[0].id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 602);
    let mut pms =
        PmwareMobileService::new(device, cloud, PmsConfig::for_participant(1), SimTime::EPOCH)
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
    let (world, cloud) = setup(days, 700);
    let pop = Population::generate(&world, 1, 701);
    let itinerary = pop.itinerary(&world, pop.agents()[0].id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 702);
    let mut pms =
        PmwareMobileService::new(device, cloud, PmsConfig::for_participant(2), SimTime::EPOCH)
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
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 803);
    let mut pms =
        PmwareMobileService::new(device, cloud, PmsConfig::for_participant(3), SimTime::EPOCH)
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
    let (world, cloud) = setup(days, 900);
    let pop = Population::generate(&world, 1, 901);
    let itinerary = pop.itinerary(&world, pop.agents()[0].id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 902);
    let mut pms =
        PmwareMobileService::new(device, cloud, PmsConfig::for_participant(9), SimTime::EPOCH)
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
