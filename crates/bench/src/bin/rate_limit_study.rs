//! ADMISSION: wire cost of retry-after-guided backoff vs blind
//! exponential backoff under per-user admission control.
//!
//! A small cohort runs the same deployment-study days three times against
//! one shared cloud:
//!
//! * **baseline** — admission control off;
//! * **guided** — a tight per-user token bucket, clients honoring the 429
//!   `retry_after_s` hint (retry exactly at the server's refill instant);
//! * **blind** — the same budget, hints ignored, classic capped
//!   exponential backoff probing the closed bucket.
//!
//! All three scenarios are fully deterministic (seeded admission phase,
//! sim-time retry schedules), so the wire-request delta is attributable
//! to the backoff policy alone. Both throttled scenarios must end with
//! cloud-side durable state identical to the baseline — admission defers
//! work, it never loses it — and the guided run must be measurably
//! cheaper on the wire.
//!
//! Usage: `rate_limit_study [--participants N] [--days D] [--seed S]
//! [--burst B] [--refill-s R]`. Writes `BENCH_admission.json` in the
//! current directory; exits nonzero if a throttled run diverges from the
//! baseline or guided backoff fails to beat blind backoff.

use pmware_bench::args::Args;
use pmware_cloud::{AdmissionConfig, CellDatabase, CloudInstance, RateBudget, SharedCloud, UserId};
use pmware_core::intents::IntentFilter;
use pmware_core::pms::PeerProvider;
use pmware_core::{AppRequirement, Granularity, PmsConfig, PmwareMobileService};
use pmware_device::{Device, EnergyModel};
use pmware_geo::GeoPoint;
use pmware_mobility::{Itinerary, Population};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{SimDuration, SimTime, World};

/// A companion present during the day so social sync has traffic to
/// throttle.
struct ShadowPeer {
    itinerary: Itinerary,
}

impl PeerProvider for ShadowPeer {
    fn peers_at(&self, t: SimTime) -> Vec<(String, GeoPoint)> {
        if (10..16).contains(&t.hour_of_day()) {
            vec![("shadow-peer".to_owned(), self.itinerary.position_at(t))]
        } else {
            Vec::new()
        }
    }
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

struct ScenarioResult {
    label: &'static str,
    wire_requests: u64,
    retries: u64,
    rate_limited: u64,
    denials: u64,
    snapshots: Vec<String>,
}

fn run_scenario(
    label: &'static str,
    world: &World,
    itineraries: &[Itinerary],
    days: u64,
    seed: u64,
    admission: Option<AdmissionConfig>,
    honor_retry_after: bool,
) -> ScenarioResult {
    let mut instance = CloudInstance::new(CellDatabase::from_world(world), seed + 1);
    if let Some(admission) = admission {
        instance = instance.with_admission(admission);
    }
    let cloud = SharedCloud::new(instance);
    let end = SimTime::from_day_time(days, 0, 0, 0);

    let mut wire_requests = 0;
    let mut retries = 0;
    let mut rate_limited = 0;
    let mut snapshots = Vec::new();
    for (i, itinerary) in itineraries.iter().enumerate() {
        let env = RadioEnvironment::new(world, RadioConfig::default());
        let device = Device::new(
            env,
            itinerary,
            EnergyModel::htc_explorer(),
            seed + 10 + i as u64,
        );
        let mut pms = PmwareMobileService::new(
            device,
            cloud.clone(),
            PmsConfig::for_participant(i as u32),
            SimTime::EPOCH,
        )
        .expect("registration is exempt from admission control");
        pms.cloud_client_mut()
            .set_honor_retry_after(honor_retry_after);
        let user = pms.cloud_client_mut().user();
        let _rx = pms.register_app(
            "rate-limit-study",
            AppRequirement::places(Granularity::Building).with_social(),
            IntentFilter::all(),
        );
        pms.set_peer_provider(Box::new(ShadowPeer {
            itinerary: itinerary.clone(),
        }));
        pms.run(end).expect("run");
        wire_requests += pms.cloud_client_mut().wire_requests();
        retries += pms.cloud_client_mut().retries();
        rate_limited += pms.cloud_client_mut().rate_limited();
        drop(pms.finish(end));
        snapshots.push(cloud_snapshot(&cloud, user));
    }
    ScenarioResult {
        label,
        wire_requests,
        retries,
        rate_limited,
        denials: cloud.admission_denials(),
        snapshots,
    }
}

fn main() {
    let args = Args::for_binary(&["participants", "days", "seed", "burst", "refill-s"]);
    let participants: usize = args.value("participants", 4);
    let days: u64 = args.value("days", 3).max(2);
    let seed: u64 = args.value("seed", 2014);
    let burst: u32 = args.value("burst", 2);
    let refill_s: u64 = args.value("refill-s", 30);

    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, participants, seed + 5);
    let itineraries: Vec<Itinerary> = population
        .agents()
        .iter()
        .map(|a| population.itinerary(&world, a.id(), days))
        .collect();

    println!(
        "ADMISSION: rate-limit study — {participants} participants x {days} day(s), \
         seed {seed}, budget {burst} burst / {refill_s}s refill\n"
    );

    let budget = || {
        AdmissionConfig::uniform(
            seed + 7,
            RateBudget::new(burst, SimDuration::from_seconds(refill_s)),
        )
    };
    let baseline = run_scenario("baseline", &world, &itineraries, days, seed, None, true);
    let guided = run_scenario(
        "guided",
        &world,
        &itineraries,
        days,
        seed,
        Some(budget()),
        true,
    );
    let blind = run_scenario(
        "blind",
        &world,
        &itineraries,
        days,
        seed,
        Some(budget()),
        false,
    );

    println!(
        "{:>9} {:>9} {:>8} {:>7} {:>8} {:>10}",
        "scenario", "wire req", "retries", "429s", "denials", "converged"
    );
    let converged = |r: &ScenarioResult| r.snapshots == baseline.snapshots;
    for r in [&baseline, &guided, &blind] {
        println!(
            "{:>9} {:>9} {:>8} {:>7} {:>8} {:>10}",
            r.label,
            r.wire_requests,
            r.retries,
            r.rate_limited,
            r.denials,
            converged(r),
        );
    }
    let saved = blind.wire_requests as f64 / guided.wire_requests as f64;
    println!(
        "\nguided backoff spends {:.1}% of blind's wire requests \
         (blind/guided = {saved:.3})",
        100.0 * guided.wire_requests as f64 / blind.wire_requests as f64
    );

    let mut out = String::from("{\n  \"bench\": \"rate_limit_study\",\n");
    out.push_str(&format!(
        "  \"participants\": {participants},\n  \"days\": {days},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!(
        "  \"budget\": {{\"burst\": {burst}, \"refill_s\": {refill_s}}},\n  \"scenarios\": [\n"
    ));
    let rows = [&baseline, &guided, &blind];
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"wire_requests\": {}, \"retries\": {}, \
             \"rate_limited_responses\": {}, \"admission_denials\": {}, \
             \"wire_overhead_vs_baseline\": {:.4}, \"converged_to_baseline\": {}}}{}\n",
            r.label,
            r.wire_requests,
            r.retries,
            r.rate_limited,
            r.denials,
            r.wire_requests as f64 / baseline.wire_requests as f64,
            converged(r),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"blind_over_guided_wire_ratio\": {saved:.4}\n}}\n"
    ));
    let path = "BENCH_admission.json";
    std::fs::write(path, &out).expect("write BENCH_admission.json");
    println!("wrote {path}");

    assert!(
        guided.denials > 0,
        "the tight budget must actually shed requests"
    );
    assert!(
        converged(&guided),
        "guided run diverged from the fault-free baseline"
    );
    assert!(
        converged(&blind),
        "blind run diverged from the fault-free baseline"
    );
    assert!(
        guided.wire_requests < blind.wire_requests,
        "guided backoff must be cheaper on the wire: guided {} vs blind {}",
        guided.wire_requests,
        blind.wire_requests
    );
}
