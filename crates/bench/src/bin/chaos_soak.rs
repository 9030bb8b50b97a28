//! ROBUST-CHAOS: convergence and request overhead vs transport fault
//! rate.
//!
//! One participant runs the same deployment-study days under a seeded
//! [`FaultyCloud`] at increasing fault rates (all five fault kinds, all
//! endpoints). The link heals at the start of the last night; from then
//! on the cloud-side state (places, profiles, absorbed observations,
//! contacts) is probed hourly against a fault-free reference run of the
//! same seeds. Reported per rate:
//!
//! * **wire requests / retries** — the client's own counters, so the 0%
//!   row is the standing cost of the retry layer itself;
//! * **server requests / faults injected** — what the decorator did;
//! * **convergence hours after heal** — first hourly probe at which the
//!   faulty run's cloud state is byte-identical to the reference run's
//!   state at the same instant (the nightly maintenance pass at 3 AM is
//!   the natural resync point, so ≈3 h is the expected worst case).
//!
//! Usage: `chaos_soak [--days D] [--seed S]`. Writes `BENCH_chaos.json`
//! in the current directory and exits nonzero if any rate ≤ 0.30 fails
//! to converge.

use std::num::NonZeroU64;

use pmware_bench::args::{exit_usage, Args};
use pmware_cloud::{CellDatabase, CloudInstance, FaultPlan, FaultyCloud, SharedCloud, UserId};
use pmware_core::intents::IntentFilter;
use pmware_core::{AppRequirement, Granularity, PmsConfig, PmwareMobileService};
use pmware_device::{Device, EnergyModel};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{SimTime, World};

const RATES: [f64; 4] = [0.0, 0.10, 0.20, 0.30];

struct RateResult {
    rate: f64,
    wire_requests: u64,
    retries: u64,
    server_requests: u64,
    faults_injected: u64,
    converged: bool,
    convergence_hours: i64,
}

/// Cloud-side durable state for one user, canonically serialized.
fn cloud_snapshot(cloud: &SharedCloud, user: UserId) -> String {
    serde_json::to_string(&(
        cloud.places_of(user),
        cloud.profiles_of(user),
        cloud.observation_count(user),
        cloud.contacts_of(user),
    ))
    .expect("snapshot serializes")
}

/// Runs the study at one fault rate, probing the cloud hourly after the
/// link heals. Returns the client/server counters and the probe
/// snapshots (heal instant first, then one per hour to the study end).
fn run_at_rate(
    world: &World,
    itinerary: &pmware_mobility::Itinerary,
    days: u64,
    seed: u64,
    rate: f64,
) -> (RateResult, Vec<String>) {
    let shared = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(world),
        seed + 1,
    ));
    let faulty = FaultyCloud::new(shared.clone(), FaultPlan::with_rate(seed + 2, rate));
    faulty.set_enabled(false);
    let env = RadioEnvironment::new(world, RadioConfig::default());
    let device = Device::new(env, itinerary, EnergyModel::htc_explorer(), seed + 3);
    let mut pms = PmwareMobileService::new(
        device,
        faulty.clone(),
        PmsConfig::for_participant(0),
        SimTime::EPOCH,
    )
    .expect("registration is fault-free");
    let user = pms.cloud_client_mut().user();
    let _rx = pms.register_app(
        "soak",
        AppRequirement::places(Granularity::Building),
        IntentFilter::all(),
    );
    faulty.set_enabled(rate > 0.0);

    let heal = SimTime::from_day_time(days - 1, 0, 0, 0);
    pms.run(heal).expect("faulted segment");
    faulty.set_enabled(false);
    faulty.flush(heal);

    let mut probes = vec![cloud_snapshot(&shared, user)];
    for hour in 1..=24 {
        pms.run(
            SimTime::from_day_time(days - 1, 0, 0, 0) + pmware_world::SimDuration::from_hours(hour),
        )
        .expect("healed segment");
        probes.push(cloud_snapshot(&shared, user));
    }

    let wire_requests = pms.cloud_client_mut().wire_requests();
    let retries = pms.cloud_client_mut().retries();
    let stats = faulty.stats();
    drop(pms.finish(SimTime::from_day_time(days, 0, 0, 0)));
    (
        RateResult {
            rate,
            wire_requests,
            retries,
            server_requests: shared.total_requests(),
            faults_injected: stats.faults,
            converged: false,
            convergence_hours: -1,
        },
        probes,
    )
}

fn main() {
    let args = Args::for_binary(&["days", "seed"]);
    let days = args
        .value("days", NonZeroU64::new(3).expect("positive default"))
        .get();
    if days < 2 {
        exit_usage(&format!(
            "invalid value \"{days}\" for --days (expected at least 2)"
        ));
    }
    let seed: u64 = args.value("seed", 2014);

    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 10);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), days);

    println!("ROBUST-CHAOS: chaos soak — {days} day(s), seed {seed}\n");

    let (clean, reference) = run_at_rate(&world, &itinerary, days, seed, 0.0);
    let mut results = Vec::new();
    for &rate in &RATES {
        let (mut r, probes) = if rate == 0.0 {
            // Reuse the reference run; it converges to itself at hour 0.
            let (r, p) = run_at_rate(&world, &itinerary, days, seed, 0.0);
            (r, p)
        } else {
            run_at_rate(&world, &itinerary, days, seed, rate)
        };
        r.convergence_hours = probes
            .iter()
            .zip(&reference)
            .position(|(a, b)| a == b)
            .map_or(-1, |h| h as i64);
        r.converged = r.convergence_hours >= 0 && probes.last() == reference.last();
        results.push(r);
    }

    println!(
        "{:>6} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
        "rate", "wire req", "retries", "srv req", "faults", "converged", "conv (h)"
    );
    for r in &results {
        println!(
            "{:>6.2} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
            r.rate,
            r.wire_requests,
            r.retries,
            r.server_requests,
            r.faults_injected,
            r.converged,
            r.convergence_hours,
        );
    }

    let mut out = String::from("{\n  \"bench\": \"chaos_soak\",\n");
    out.push_str(&format!("  \"days\": {days},\n  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"clean_wire_requests\": {},\n  \"rates\": [\n",
        clean.wire_requests
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate\": {:.2}, \"wire_requests\": {}, \"retries\": {}, \
             \"server_requests\": {}, \"faults_injected\": {}, \
             \"request_overhead_vs_clean\": {:.4}, \"converged\": {}, \
             \"convergence_hours_after_heal\": {}}}{}\n",
            r.rate,
            r.wire_requests,
            r.retries,
            r.server_requests,
            r.faults_injected,
            r.wire_requests as f64 / clean.wire_requests as f64,
            r.converged,
            r.convergence_hours,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_chaos.json";
    std::fs::write(path, &out).expect("write BENCH_chaos.json");
    println!("\nwrote {path}");

    for r in &results {
        assert!(
            r.converged,
            "rate {:.2} failed to converge after the link healed",
            r.rate
        );
    }
}
