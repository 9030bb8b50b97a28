//! Quickstart: build a world, run one participant's phone through PMWare
//! for a simulated week, and inspect what the middleware learned.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pmware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic city (towers, WiFi, places, roads) and one
    //    participant moving through it on weekday/weekend schedules.
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(1)
        .build();
    let population = Population::generate(&world, 1, 2);
    let agent = &population.agents()[0];
    let days = 7;
    let itinerary = population.itinerary(&world, agent.id(), days);

    // 2. A phone carried along that itinerary, and the shared cloud.
    //    Built layer by layer here to show the pieces; the studies build
    //    this same phone in one call, `PmwareMobileService::on_itinerary`.
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let phone = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 3);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 4));

    // 3. The middleware, with one connected application that wants
    //    building-level place events and low-accuracy routes.
    let mut pms =
        PmwareMobileService::new(phone, cloud, PmsConfig::for_participant(0), SimTime::EPOCH)?;
    let events = pms.register_app(
        "quickstart-app",
        AppRequirement::places(Granularity::Building).with_routes(RouteAccuracy::Low),
        IntentFilter::all(),
    );

    // 4. A simulated week.
    pms.run(SimTime::from_day_time(days, 0, 0, 0))?;

    // 5. What did PMWare learn?
    println!("discovered places: {}", pms.places().len());
    for place in pms.places() {
        println!(
            "  {} — {} cells, {} wifi APs, {} visits{}",
            place.id,
            place.cells.len(),
            place.wifi_aps.len(),
            place.visit_count,
            place
                .position
                .map(|p| format!(", est. position {p}"))
                .unwrap_or_default()
        );
    }
    println!("canonical routes: {}", pms.routes().routes().len());
    for route in pms.routes().routes() {
        println!(
            "  {:?}: {} -> {} used {}x",
            route.id, route.from, route.to, route.usage_count
        );
    }

    let counters = pms.counters();
    println!(
        "\nevents: {} arrivals, {} departures, {} routes, {} GCA offloads",
        counters.arrivals, counters.departures, counters.routes, counters.gca_offloads
    );

    let mut by_action = std::collections::BTreeMap::new();
    for intent in events.try_iter() {
        *by_action.entry(intent.action).or_insert(0u32) += 1;
    }
    println!("intents the app received: {by_action:?}");

    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    println!(
        "\nbattery over the week: {:.1} kJ total",
        report.energy_joules / 1_000.0
    );
    for (interface, joules) in &report.energy_by_interface {
        println!("  {:>14}: {:>8.1} J", interface.label(), joules);
    }
    Ok(())
}
