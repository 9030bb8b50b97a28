//! ROUTE-ACC: the two route-tracking modes of §2.2.2.
//!
//! *"PMWare has two modes of route tracking, low accuracy mode and high
//! accuracy mode. In low accuracy mode, only GSM-based information is used
//! to track the route information where as in high accuracy mode, WiFi is
//! used to detect place departure and subsequently GPS is used to track
//! the route."*
//!
//! The paper gives no figure for this; we quantify the trade-off the modes
//! embody: geometric fidelity of the recorded route against the true road
//! path, versus the energy each mode costs.

use pmware_algorithms::route::RouteGeometry;
use pmware_bench::args::Args;
use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::intents::IntentFilter;
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity, RouteAccuracy};
use pmware_mobility::{Itinerary, Population, Segment};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{SimTime, World};

fn main() {
    Args::for_binary(&[]);
    let days = 7;
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(3001)
        .build();
    let pop = Population::generate(&world, 1, 3002);
    let it = pop.itinerary(&world, pop.agents()[0].id(), days);

    println!("ROUTE-ACC: route tracking modes, one participant x {days} days\n");
    println!(
        "{:<14} {:>7} {:>16} {:>18} {:>12}",
        "mode", "routes", "gps geometries", "mean path error", "energy (kJ)"
    );
    println!("{}", "-".repeat(72));
    for (label, accuracy) in [
        ("low (gsm)", RouteAccuracy::Low),
        ("high (gps)", RouteAccuracy::High),
    ] {
        let (routes, gps_count, mean_error, energy) = run_mode(&world, &it, accuracy, days);
        println!(
            "{label:<14} {routes:>7} {gps_count:>16} {:>18} {:>12.1}",
            mean_error
                .map(|e| format!("{e:.0} m"))
                .unwrap_or_else(|| "n/a (cells)".to_owned()),
            energy / 1_000.0
        );
    }
    println!(
        "\nHigh-accuracy mode records GPS polylines that hug the true road\n\
         path at the cost of GPS fixes while moving; low-accuracy mode\n\
         records cell sequences that are nearly free but only identify\n\
         *which* route was taken, not its geometry."
    );
}

fn run_mode(
    world: &World,
    it: &Itinerary,
    accuracy: RouteAccuracy,
    days: u64,
) -> (usize, usize, Option<f64>, f64) {
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(world), 3003));
    let mut pms =
        PmwareMobileService::on_itinerary(world, it, cloud, PmsConfig::for_participant(30), 3004)
            .expect("register");
    let _rx = pms.register_app(
        "navigator",
        AppRequirement::places(Granularity::Area).with_routes(accuracy),
        IntentFilter::all(),
    );
    pms.run(SimTime::from_day_time(days, 0, 0, 0)).expect("run");

    // Geometric fidelity: for each recorded GPS route, mean distance of
    // its vertices to the closest true travel path of the itinerary.
    let true_paths: Vec<_> = it
        .segments()
        .iter()
        .filter_map(|s| match s {
            Segment::Travel { path, .. } => Some(path.clone()),
            _ => None,
        })
        .collect();
    let mut errors = Vec::new();
    let mut gps_count = 0usize;
    for route in pms.routes().routes() {
        if let RouteGeometry::GpsTrace(line) = &route.geometry {
            gps_count += 1;
            let mean: f64 = line
                .points()
                .iter()
                .map(|p| {
                    true_paths
                        .iter()
                        .map(|tp| tp.distance_to(*p).value())
                        .fold(f64::MAX, f64::min)
                })
                .sum::<f64>()
                / line.points().len() as f64;
            errors.push(mean);
        }
    }
    let mean_error = if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    };
    let n_routes = pms.routes().routes().len();
    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    (n_routes, gps_count, mean_error, report.energy_joules)
}
