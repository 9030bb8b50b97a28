//! OBS-LATENCY: sim-time latency soak — request quantiles vs offered
//! load, queue shedding under a flash crowd, and the largest user count
//! one instance sustains at a fixed p99 SLO.
//!
//! Three arms against a single [`CloudInstance`] with the calibrated
//! service-time model and a **shared** FIFO queue:
//!
//! * **load ladder** — user counts doubling up to `--max-users`, every
//!   user firing `--reqs` place queries at the same simulated instant;
//!   each rung reports p50/p99/p999 from the `places_list` endpoint's
//!   `cloud_request_latency_us` histogram;
//! * **SLO search** — the largest rung whose p99 still meets
//!   `--slo-p99-ms` (the ladder *is* the search, so the two always
//!   agree);
//! * **flash crowd** — `--flash-users` clients all syncing contacts at
//!   one instant against a queue that sheds at `--shed-depth`. Shed
//!   clients back off by the server's drain hint and retry; the arm must
//!   actually shed, every sync must eventually land, and the final
//!   per-user cloud state must be identical to an unshedded baseline.
//!
//! Everything is sim-time: same seed, same report, byte for byte.
//!
//! Usage: `latency_soak [--seed S] [--reqs N] [--max-users N]
//! [--slo-p99-ms MS] [--flash-users N] [--shed-depth D]`.
//! Writes `BENCH_latency.json` in the current directory and exits
//! nonzero when a gate fails.

use pmware_bench::args::Args;
use pmware_cloud::{
    CellDatabase, CloudInstance, ContactEntry, LatencyProfile, QueueConfig, QueueMode,
    RegistrationBody, Request, SharedCloud, UserId,
};
use pmware_core::cloud_client::CloudClient;
use pmware_obs::Obs;
use pmware_world::{SimDuration, SimTime};

struct Rung {
    users: u64,
    requests: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    attained: bool,
}

/// The calibrated profile on one shared FIFO that sheds at `shed_depth`
/// (0 never sheds).
fn shared_queue(seed: u64, shed_depth: u64) -> LatencyProfile {
    LatencyProfile::calibrated(seed).with_queue(QueueConfig {
        mode: QueueMode::Shared,
        shed_depth,
    })
}

/// One ladder rung: `users` devices registered up front, then `reqs`
/// place queries per user all arriving at the same simulated second.
/// Registrations carry no token, so they never enter the queue, and the
/// rung reads only the probed endpoint's histogram.
fn run_rung(seed: u64, users: u64, reqs: u64, slo_us: u64) -> Rung {
    let obs = Obs::new();
    let cloud = SharedCloud::new(
        CloudInstance::new(CellDatabase::new(), seed)
            .with_obs(&obs)
            .with_latency(shared_queue(seed, 0)),
    );
    let t0 = SimTime::EPOCH;
    let tokens: Vec<String> = (0..users)
        .map(|i| {
            let request = Request::post(
                "/api/v1/registration",
                RegistrationBody {
                    imei: format!("imei-{i:04}"),
                    email: format!("user{i}@example.com"),
                },
            );
            let response = cloud.handle(&request, t0);
            assert!(response.is_success(), "ladder registration failed");
            response.json()["token"]
                .as_str()
                .expect("registration token")
                .to_owned()
        })
        .collect();
    let burst = t0 + SimDuration::from_seconds(60);
    for _ in 0..reqs {
        for token in &tokens {
            let request = Request::get("/api/v1/places").with_token(token.clone());
            let response = cloud.handle(&request, burst);
            assert!(response.is_success(), "unshedded ladder request failed");
        }
    }
    let report = obs
        .metrics()
        .expect("metrics enabled")
        .snapshot()
        .merged_histogram("cloud_request_latency_us{class=\"query\",endpoint=\"places_list\"}")
        .expect("latency histogram registered")
        .slo_report(slo_us);
    assert_eq!(report.count, users * reqs, "histogram missed observations");
    Rung {
        users,
        requests: report.count,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        p999_us: report.p999_us,
        attained: report.attained,
    }
}

struct FlashArm {
    sheds: u64,
    retries: u64,
    rate_limited: u64,
    state: Vec<(UserId, Vec<ContactEntry>)>,
}

/// The flash crowd: every client syncs one contact batch at the same
/// instant through the real retry loop (shed 429s honor the server's
/// drain hint). `latency: None` is the unshedded baseline arm. Public
/// registrations are never queued or shed.
fn run_flash(seed: u64, users: u64, latency: Option<LatencyProfile>) -> FlashArm {
    let mut instance = CloudInstance::new(CellDatabase::new(), seed);
    if let Some(latency) = latency {
        instance = instance.with_latency(latency);
    }
    let cloud = SharedCloud::new(instance);
    let t0 = SimTime::EPOCH;
    let mut clients: Vec<CloudClient> = (0..users)
        .map(|i| {
            CloudClient::register(
                cloud.clone(),
                &format!("imei-{i:04}"),
                &format!("user{i}@example.com"),
                t0,
            )
            .expect("flash registration")
        })
        .collect();
    let crowd = t0 + SimDuration::from_minutes(5);
    for (i, client) in clients.iter_mut().enumerate() {
        let contact = ContactEntry {
            contact: format!("peer-{i:04}"),
            start: t0,
            end: crowd,
            place: None,
        };
        client
            .sync_contacts(&[contact], 1, crowd)
            .expect("flash sync failed even after retries");
    }
    FlashArm {
        sheds: cloud.queue_shed_count(),
        retries: clients.iter().map(|c| c.retries()).sum(),
        rate_limited: clients.iter().map(|c| c.rate_limited()).sum(),
        state: clients
            .iter()
            .map(|c| (c.user(), cloud.contacts_of(c.user())))
            .collect(),
    }
}

fn main() {
    let args = Args::for_binary(&[
        "seed",
        "reqs",
        "max-users",
        "slo-p99-ms",
        "flash-users",
        "shed-depth",
    ]);
    let seed: u64 = args.value("seed", 7);
    let reqs: u64 = args.value("reqs", 8).max(1);
    let max_users: u64 = args.value("max-users", 64).max(1);
    let slo_p99_ms: u64 = args.value("slo-p99-ms", 100).max(1);
    let flash_users: u64 = args.value("flash-users", 256).max(1);
    let shed_depth: u64 = args.value("shed-depth", 100).max(1);
    let slo_us = slo_p99_ms * 1_000;

    println!(
        "OBS-LATENCY: calibrated profile, shared queue, seed {seed}; \
         ladder ≤{max_users} users × {reqs} req(s), SLO p99 ≤ {slo_p99_ms} ms; \
         flash crowd {flash_users} users, shed depth {shed_depth}\n"
    );

    let mut ladder = Vec::new();
    let mut users = 1u64;
    while users <= max_users {
        ladder.push(run_rung(seed, users, reqs, slo_us));
        users *= 2;
    }
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "users", "requests", "p50_us", "p99_us", "p999_us", "slo"
    );
    for rung in &ladder {
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
            rung.users,
            rung.requests,
            rung.p50_us,
            rung.p99_us,
            rung.p999_us,
            if rung.attained { "ok" } else { "MISS" }
        );
    }
    let max_users_at_slo = ladder
        .iter()
        .filter(|r| r.attained)
        .map(|r| r.users)
        .max()
        .unwrap_or(0);
    println!("\nmax users per instance at p99 ≤ {slo_p99_ms} ms: {max_users_at_slo}");

    let shedded = run_flash(seed, flash_users, Some(shared_queue(seed, shed_depth)));
    let baseline = run_flash(seed, flash_users, None);
    let converged = shedded.state == baseline.state;
    // Offered = first attempts + retries; the shed rate is sheds over that.
    let offered = flash_users + shedded.retries;
    let shed_rate = shedded.sheds as f64 / offered as f64;
    println!(
        "flash crowd: {} shed of {offered} offered (rate {shed_rate:.4}), \
         {} retries ({} rate-limited), converged: {converged}",
        shedded.sheds, shedded.retries, shedded.rate_limited
    );

    let mut out = String::from("{\n  \"bench\": \"latency_soak\",\n");
    out.push_str(&format!(
        "  \"seed\": {seed},\n  \"profile\": \"calibrated\",\n  \"queue_mode\": \"shared\",\n"
    ));
    out.push_str(&format!("  \"slo_p99_ms\": {slo_p99_ms},\n"));
    out.push_str("  \"load_ladder\": [\n");
    for (i, rung) in ladder.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"users\": {}, \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"p999_us\": {}, \"slo_attained\": {}}}{}\n",
            rung.users,
            rung.requests,
            rung.p50_us,
            rung.p99_us,
            rung.p999_us,
            rung.attained,
            if i + 1 < ladder.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"max_users_at_slo\": {max_users_at_slo},\n"));
    out.push_str(&format!(
        "  \"flash_crowd\": {{\"users\": {flash_users}, \"shed_depth\": {shed_depth}, \
         \"sheds\": {}, \"offered\": {offered}, \"shed_rate\": {shed_rate:.4}, \
         \"retries\": {}, \"rate_limited\": {}, \"converged\": {converged}}}\n",
        shedded.sheds, shedded.retries, shedded.rate_limited
    ));
    out.push_str("}\n");
    let path = "BENCH_latency.json";
    std::fs::write(path, &out).expect("write BENCH_latency.json");
    println!("\nwrote {path}");

    let first = ladder.first().expect("ladder is non-empty");
    let last = ladder.last().expect("ladder is non-empty");
    assert!(
        last.p99_us >= first.p99_us,
        "p99 did not grow with offered load ({} -> {})",
        first.p99_us,
        last.p99_us
    );
    assert!(
        shedded.sheds > 0,
        "flash crowd never tripped the shed threshold"
    );
    assert_eq!(baseline.sheds, 0, "unshedded baseline shed requests");
    assert!(
        converged,
        "flash crowd state diverged from the unshedded baseline"
    );
}
