//! DET-LAT: arrival/departure detection latency.
//!
//! The §2.4 use case hinges on *timely* place alerts: the To-Do app wants
//! its reminder when the user walks into the office, not twenty minutes
//! later. This experiment measures the lag between ground-truth arrivals/
//! departures and the tracker-confirmed events PMS broadcast, across a
//! cohort of participants.
//!
//! Sources of lag: the one-minute GSM period, the tracker's confirmation
//! debounce (2 samples in / 4 out, absorbing the oscillation effect), and
//! cell coverage extending beyond the physical place boundary (which can
//! make radio-level "arrival" *precede* physical arrival — negative lag).

use pmware_bench::args::Args;
use pmware_bench::parallel::{parallel_map, resolve_threads};
use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::intents::{actions, IntentFilter};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity};
use pmware_device::{Device, EnergyModel};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::SimTime;

fn main() {
    let args = Args::for_binary(&["participants", "days", "threads"]);
    let participants: usize = args.value("participants", 8);
    let days: u64 = args.value("days", 7);
    let threads = resolve_threads(args.value("threads", 1));
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(6014)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 6015));
    let population = Population::generate(&world, participants, 6016);

    // One job per participant; each returns its own (arrival, departure)
    // lag vectors, merged in agent order so the output is the same at any
    // thread count.
    let per_agent = parallel_map(population.agents().to_vec(), threads, |agent| {
        let itinerary = population.itinerary(&world, agent.id(), days);
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let device = Device::new(
            env,
            &itinerary,
            EnergyModel::htc_explorer(),
            6100 + agent.id().0 as u64,
        );
        let mut pms = PmwareMobileService::new(
            device,
            cloud.clone(),
            PmsConfig::for_participant(60 + agent.id().0),
            SimTime::EPOCH,
        )
        .expect("register");
        let rx = pms.register_app(
            "latency-probe",
            AppRequirement::places(Granularity::Building),
            IntentFilter::for_actions([actions::PLACE_ARRIVAL, actions::PLACE_DEPARTURE]),
        );
        pms.run(SimTime::from_day_time(days, 0, 0, 0)).expect("run");

        // Match each broadcast event to the nearest ground-truth
        // boundary of the same kind within a 30-minute window.
        let truth = itinerary.visits();
        let mut arrivals: Vec<f64> = Vec::new();
        let mut departures: Vec<f64> = Vec::new();
        for intent in rx.try_iter() {
            let t = intent.time.as_seconds() as f64;
            let (candidates, lags): (Vec<f64>, &mut Vec<f64>) =
                if intent.action == actions::PLACE_ARRIVAL {
                    (
                        truth
                            .iter()
                            .map(|v| v.arrival.as_seconds() as f64)
                            .collect(),
                        &mut arrivals,
                    )
                } else {
                    (
                        truth
                            .iter()
                            .map(|v| v.departure.as_seconds() as f64)
                            .collect(),
                        &mut departures,
                    )
                };
            if let Some(best) = candidates
                .iter()
                .map(|b| t - b)
                .filter(|lag| lag.abs() <= 1_800.0)
                .min_by(|a, b| a.abs().partial_cmp(&b.abs()).expect("finite"))
            {
                lags.push(best / 60.0);
            }
        }
        (arrivals, departures)
    });
    let mut arrival_lags: Vec<f64> = Vec::new();
    let mut departure_lags: Vec<f64> = Vec::new();
    for (arrivals, departures) in per_agent {
        arrival_lags.extend(arrivals);
        departure_lags.extend(departures);
    }

    println!(
        "DET-LAT: place-event detection latency — {participants} participants x {days} days, {threads} thread(s)\n"
    );
    report("arrival", &mut arrival_lags);
    report("departure", &mut departure_lags);
    println!(
        "\nPositive = event confirmed after the physical boundary; arrivals\n\
         can go negative because tower coverage extends past the door. The\n\
         floor is set by the 1-minute GSM period plus the 2-in/4-out\n\
         debounce that absorbs the oscillation effect."
    );
}

fn report(kind: &str, lags: &mut [f64]) {
    if lags.is_empty() {
        println!("{kind:>10}: no matched events");
        return;
    }
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = lags.len();
    let mean = lags.iter().sum::<f64>() / n as f64;
    let median = lags[n / 2];
    let p90 = lags[(n as f64 * 0.9) as usize];
    println!(
        "{kind:>10}: n={n:<4} mean {mean:>6.1} min   median {median:>6.1} min   p90 {p90:>6.1} min"
    );
}
