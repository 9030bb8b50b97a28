//! Integration tests for the connected applications running together on
//! one PMS — the paper's "connected application architecture" (§1).

use pmware::core::registry::PmPlaceId;
use pmware::prelude::*;

struct Study<'w> {
    pms: PmwareMobileService<'w, &'w Itinerary>,
    itinerary: &'w Itinerary,
}

fn setup<'w>(world: &'w World, itinerary: &'w Itinerary, seed: u64) -> Study<'w> {
    let cloud = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(world),
        seed + 1,
    ));
    let pms = PmwareMobileService::on_itinerary(
        world,
        itinerary,
        cloud,
        PmsConfig::for_participant(seed as u32),
        seed,
    )
    .expect("register");
    Study { pms, itinerary }
}

#[test]
fn three_apps_share_one_sensing_pipeline() {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2000)
        .build();
    let population = Population::generate(&world, 1, 2001);
    let agent = population.agents()[0].clone();
    let days = 7;
    let itinerary = population.itinerary(&world, agent.id(), days);
    let mut study = setup(&world, &itinerary, 2002);

    // PlaceADs (area), LifeLog (building), ToDo (building, 9–18).
    let ads_rx = study.pms.register_app(
        "placeads",
        PlaceAdsApp::requirement(),
        PlaceAdsApp::filter(),
    );
    let log_rx = study
        .pms
        .register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
    let todo_rx = study
        .pms
        .register_app("todo", TodoApp::requirement(), TodoApp::filter());

    let mut placeads = PlaceAdsApp::new(AdInventory::from_world(&world));
    let mut lifelog = LifeLogApp::new(1.0, 2003);
    let mut todo = TodoApp::new();
    let mut taste = UserTasteModel::from_agent(&agent, 2004);

    for day in 1..=days {
        study.pms.run(SimTime::from_day_time(day, 0, 0, 0)).unwrap();
        for intent in log_rx.try_iter() {
            lifelog.on_intent(&intent);
        }
        for (place, label) in lifelog.take_pending_labels() {
            study.pms.label_place(PmPlaceId(place), label);
        }
        // Configure the todo app once places exist: pick the place with
        // the most 8–11 AM arrivals as "work".
        if todo.workplace().is_none() {
            if let Some(work) = study.pms.places().iter().max_by_key(|p| {
                p.gca_visits
                    .iter()
                    .filter(|v| (7..12).contains(&v.arrival.hour_of_day()))
                    .count()
            }) {
                todo.set_workplace(work.id.0);
            }
        }
        for intent in todo_rx.try_iter() {
            let _ = todo.on_intent(&intent);
        }
        for intent in ads_rx.try_iter().collect::<Vec<_>>() {
            if let Some(card) = placeads.on_intent(&intent) {
                let truth = study.itinerary.position_at(card.served_at);
                let _ = taste.swipe(&card, truth);
            }
        }
    }

    // Every app did its job off the same single sensing pipeline.
    assert!(!placeads.served().is_empty(), "ads were served");
    assert!(lifelog.tagged_count() > 0, "places were tagged");
    assert!(!todo.fired().is_empty(), "reminders fired");
    assert!(taste.likes() + taste.dislikes() > 0, "cards were swiped");
    // Mostly liked: targeting works through the whole stack.
    let frac = taste.like_fraction().unwrap();
    assert!(frac > 0.55, "like fraction {frac:.2}");

    // Labels flowed back into the PMS registry.
    let labelled = study
        .pms
        .places()
        .iter()
        .filter(|p| p.label.is_some())
        .count();
    assert!(labelled > 0, "labels reached the registry");
}

#[test]
fn tracking_window_limits_todo_alerts() {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2100)
        .build();
    let population = Population::generate(&world, 1, 2101);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 5);
    let mut study = setup(&world, &itinerary, 2102);

    // Full-day listener vs 9–18 listener for the same events.
    let windowed = study.pms.register_app(
        "todo-windowed",
        AppRequirement::places(Granularity::Building).with_window(9, 18),
        IntentFilter::for_actions([actions::PLACE_ARRIVAL, actions::PLACE_DEPARTURE]),
    );
    let always = study.pms.register_app(
        "todo-always",
        AppRequirement::places(Granularity::Building),
        IntentFilter::for_actions([actions::PLACE_ARRIVAL, actions::PLACE_DEPARTURE]),
    );
    study.pms.run(SimTime::from_day_time(5, 0, 0, 0)).unwrap();

    let windowed_events: Vec<Intent> = windowed.try_iter().collect();
    let always_events: Vec<Intent> = always.try_iter().collect();
    assert!(
        windowed_events.len() < always_events.len(),
        "window must filter some events ({} vs {})",
        windowed_events.len(),
        always_events.len()
    );
    for intent in &windowed_events {
        let h = intent.time.hour_of_day();
        assert!((9..18).contains(&h), "event outside window at {h}h");
    }
}

#[test]
fn intents_keep_flowing_at_permitted_granularity_through_cloud_faults() {
    // A total transport outage (100% drop) must not silence the intent
    // bus: apps keep receiving place events, coarsened to the granularity
    // the user permitted, while the PMS rides on local discovery.
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2300)
        .build();
    let population = Population::generate(&world, 1, 2301);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 4);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 2303));
    let faulty = FaultyCloud::new(
        cloud,
        FaultPlan::with_rate(2304, 1.0).kinds(&[FaultKind::Drop]),
    );
    faulty.set_enabled(false);
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        faulty.clone(),
        PmsConfig::for_participant(23),
        2302,
    )
    .expect("registration precedes the outage");
    let rx = pms.register_app(
        "ads",
        AppRequirement::places(Granularity::Area),
        IntentFilter::for_actions([
            actions::PLACE_ARRIVAL,
            actions::PLACE_DEPARTURE,
            actions::PLACE_NEW,
        ]),
    );

    // One clean day (places get discovered and positioned), then every
    // request to the cloud is dropped for the remaining three.
    let outage_from = SimTime::from_day_time(1, 12, 0, 0);
    pms.run(outage_from).unwrap();
    faulty.set_enabled(true);
    pms.run(SimTime::from_day_time(4, 0, 0, 0)).unwrap();

    assert!(
        faulty.stats().drops > 0,
        "the outage must actually drop traffic"
    );
    assert!(
        pms.counters().gca_local_fallbacks >= 2,
        "offline maintenance falls back to local discovery: {:?}",
        pms.counters()
    );

    let during_outage: Vec<Intent> = rx.try_iter().filter(|i| i.time >= outage_from).collect();
    assert!(
        during_outage
            .iter()
            .any(|i| i.action == actions::PLACE_ARRIVAL),
        "arrivals must reach the app during the outage"
    );
    for intent in &during_outage {
        assert_eq!(
            intent.extras["granularity"], "area",
            "payloads stay at the permitted granularity: {intent:?}"
        );
    }
}

#[test]
fn lifelog_report_reflects_routine() {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2200)
        .build();
    let population = Population::generate(&world, 1, 2201);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 7);
    let mut study = setup(&world, &itinerary, 2202);
    let rx = study
        .pms
        .register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
    let mut lifelog = LifeLogApp::new(1.0, 2203);
    for day in 1..=7u64 {
        study.pms.run(SimTime::from_day_time(day, 0, 0, 0)).unwrap();
        for intent in rx.try_iter() {
            lifelog.on_intent(&intent);
        }
    }
    // The place with the most visit-days is visited on most study days
    // (home), and the report mentions its tag.
    let max_days = lifelog
        .history()
        .values()
        .map(|h| h.visit_days.len())
        .max()
        .unwrap_or(0);
    assert!(
        max_days >= 5,
        "home should appear on most days, got {max_days}"
    );
    let report = lifelog.report();
    assert!(report.contains("my-place-"), "{report}");
}
