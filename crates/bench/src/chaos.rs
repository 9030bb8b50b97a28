//! ROBUST-CHAOS: convergence and request overhead vs transport fault
//! rate.
//!
//! One participant runs the same deployment-study days under a seeded
//! [`FaultyCloud`] at increasing fault rates (all five fault kinds, all
//! endpoints). The link heals at the start of the last night; from then
//! on the cloud-side state (places, profiles, absorbed observations,
//! contacts) is probed hourly against the fault-free run of the same
//! seeds. Reported per rate:
//!
//! * **wire requests / retries** — the client's own counters, so the 0%
//!   row is the standing cost of the retry layer itself;
//! * **server requests / faults injected** — what the decorator did;
//! * **convergence hours after heal** — first hourly probe at which the
//!   faulty run's cloud state is byte-identical to the fault-free run's
//!   state at the same instant (the nightly maintenance pass at 3 AM is
//!   the natural resync point, so ≈3 h is the expected worst case).
//!
//! The `chaos_soak` binary prints [`ChaosSoak::write_table`] and writes
//! [`ChaosSoak::json`] to `BENCH_chaos.json`; `tests/chaos_report.rs`
//! pins that file byte for byte at the defaults.

use std::io::{self, Write};

use pmware_cloud::{CellDatabase, CloudInstance, FaultPlan, FaultyCloud, SharedCloud, UserId};
use pmware_core::intents::IntentFilter;
use pmware_core::{AppRequirement, Granularity, PmsConfig, PmwareMobileService};
use pmware_mobility::{Itinerary, Population};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{SimDuration, SimTime, World};

/// Study days of the committed report (`--days`).
pub const DEFAULT_DAYS: u64 = 3;

/// Seed of the committed report (`--seed`).
pub const DEFAULT_SEED: u64 = 2014;

/// Fault rates, fault-free first: that run is also the convergence
/// reference.
const RATES: [f64; 4] = [0.0, 0.10, 0.20, 0.30];

/// One fault rate's row.
struct RateResult {
    rate: f64,
    /// Requests the client sent, retries included.
    wire_requests: u64,
    retries: u64,
    /// Authenticated requests the cloud handled.
    server_requests: u64,
    faults_injected: u64,
    /// Whether the cloud state matched the fault-free run's at the last
    /// probe, having matched at some probe.
    converged: bool,
    /// First hourly probe after the heal that matched; -1 if none did.
    convergence_hours: i64,
}

/// The soak's report: one row per fault rate, fault-free first.
pub struct ChaosSoak {
    days: u64,
    seed: u64,
    rates: Vec<RateResult>,
}

/// Runs the soak: the fault-free run once, as the 0 % row and the
/// convergence reference, then each faulty rate.
///
/// # Panics
///
/// Panics when `days < 2`: the link heals at the start of the last day,
/// so the faults need a day before it.
pub fn soak(days: u64, seed: u64) -> ChaosSoak {
    assert!(days >= 2, "the chaos soak needs at least 2 days");
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 10);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), days);

    let run = |rate| run_at_rate(&world, &itinerary, days, seed, rate);
    let (clean, reference) = run(RATES[0]);
    let converge = |mut r: RateResult, probes: &[String]| {
        r.convergence_hours = probes
            .iter()
            .zip(&reference)
            .position(|(a, b)| a == b)
            .map_or(-1, |h| h as i64);
        r.converged = r.convergence_hours >= 0 && probes.last() == reference.last();
        r
    };
    let mut rates = vec![converge(clean, &reference)];
    for &rate in &RATES[1..] {
        let (r, probes) = run(rate);
        rates.push(converge(r, &probes));
    }
    ChaosSoak { days, seed, rates }
}

impl ChaosSoak {
    /// The first rate that failed to converge after the heal, if any.
    pub fn first_unconverged(&self) -> Option<f64> {
        self.rates.iter().find(|r| !r.converged).map(|r| r.rate)
    }

    /// Writes the human-readable table the binary prints.
    pub fn write_table(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(
            out,
            "ROBUST-CHAOS: chaos soak — {} day(s), seed {}\n",
            self.days, self.seed
        )?;
        writeln!(
            out,
            "{:>6} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
            "rate", "wire req", "retries", "srv req", "faults", "converged", "conv (h)"
        )?;
        for r in &self.rates {
            writeln!(
                out,
                "{:>6.2} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
                r.rate,
                r.wire_requests,
                r.retries,
                r.server_requests,
                r.faults_injected,
                r.converged,
                r.convergence_hours,
            )?;
        }
        Ok(())
    }

    /// The `BENCH_chaos.json` report, byte for byte.
    pub fn json(&self) -> String {
        let clean = self.rates[0].wire_requests;
        let mut out = String::from("{\n  \"bench\": \"chaos_soak\",\n");
        out.push_str(&format!(
            "  \"days\": {},\n  \"seed\": {},\n",
            self.days, self.seed
        ));
        out.push_str(&format!(
            "  \"clean_wire_requests\": {clean},\n  \"rates\": [\n"
        ));
        for (i, r) in self.rates.iter().enumerate() {
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
                r.wire_requests as f64 / clean as f64,
                r.converged,
                r.convergence_hours,
                if i + 1 < self.rates.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the study at one fault rate, probing the cloud hourly after the
/// link heals. Returns the client/server counters and the probe
/// snapshots (heal instant first, then one per hour to the study end).
fn run_at_rate(
    world: &World,
    itinerary: &Itinerary,
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
    let mut pms = PmwareMobileService::on_itinerary(
        world,
        itinerary,
        faulty.clone(),
        PmsConfig::for_participant(0),
        seed + 3,
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
        pms.run(heal + SimDuration::from_hours(hour))
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

/// One user's durable cloud-side state (places, profiles, absorbed
/// observation count, contacts), canonically serialized: two runs that
/// left a user in the same state give equal strings.
fn cloud_snapshot(cloud: &SharedCloud, user: UserId) -> String {
    serde_json::to_string(&(
        cloud.places_of(user),
        cloud.profiles_of(user),
        cloud.observation_count(user),
        cloud.contacts_of(user),
    ))
    .expect("snapshot serializes")
}
