//! ROBUST-FEDERATION: federation soak — capacity and control-plane cost
//! of multi-instance deployment with a mid-study failover.
//!
//! Runs one federated study arm (default: 6 participants × 3 days × 2
//! instances, round-robin placement, the hosting instance of participant
//! 0 killed at noon of day 1) next to the single-instance fault-free
//! baseline, and reports:
//!
//! * **requests routed per instance** — the steady-state load split;
//! * **migration latency in sim-time** — one sim-second per WAL request
//!   replayed into the adopting instance;
//! * **control-plane requests** — pinned to one handshake per
//!   participant plus one topology refresh per displaced client, i.e.
//!   **zero** router involvement at steady state.
//!
//! Usage: `federation_soak [--participants P] [--days D] [--seed S]
//! [--instances N] [--failover-at-day D.H (e.g. 1.12; negative disables)]
//! [--chaos-rate R]`.
//! Writes `BENCH_federation.json` in the current directory and exits
//! nonzero if the arm diverges from the baseline or a control-plane pin
//! breaks.

use pmware_bench::args::Args;
use pmware_bench::federation::{run_federation, FederationConfig};
use pmware_world::SimTime;

fn main() {
    let args = Args::for_binary(&[
        "participants",
        "days",
        "seed",
        "instances",
        "failover-at-day",
        "chaos-rate",
    ]);
    let participants: usize = args.value("participants", 6).max(1);
    let days: u64 = args.value("days", 3).max(2);
    let seed: u64 = args.value("seed", 2014);
    let instances: usize = args.value("instances", 2).max(1);
    // `--failover-at-day 1.12` kills at day 1, hour 12; negative disables.
    let failover_at_day: f64 = args.value("failover-at-day", 1.12);
    let kill_at = (failover_at_day >= 0.0).then(|| {
        let day = failover_at_day.trunc() as u64;
        let hour = ((failover_at_day.fract() * 100.0).round() as u64).min(23);
        SimTime::from_day_time(day, hour, 0, 0)
    });
    let chaos_rate: f64 = args.value("chaos-rate", 0.0);

    println!(
        "ROBUST-FEDERATION: {participants} participant(s) × {days} day(s), \
         {instances} instance(s), seed {seed}\n"
    );

    let baseline = run_federation(&FederationConfig::baseline(participants, days, seed));
    let mut config = FederationConfig::baseline(participants, days, seed);
    config.instances = instances;
    config.kill_at = kill_at;
    config.chaos_rate = chaos_rate;
    config.chaos_seed = seed + 900;
    let arm = run_federation(&config);

    println!("{:>10} {:>12}", "instance", "requests");
    for (id, requests) in &arm.per_instance_requests {
        println!("{:>10} {:>12}", format!("pci-{id:02}"), requests);
    }
    println!(
        "\ncontrol plane: {} handshakes at warmup, {} total \
         ({} displaced, {} WAL requests replayed, {} sim-s migration)",
        arm.control_after_warmup,
        arm.control_final,
        arm.displaced,
        arm.replayed,
        arm.migration_seconds
    );

    let converged = arm.per_user == baseline.per_user;
    let steady_state_router_requests =
        arm.control_final - arm.control_after_warmup - arm.displaced as u64;

    let mut out = String::from("{\n  \"bench\": \"federation_soak\",\n");
    out.push_str(&format!(
        "  \"participants\": {participants},\n  \"days\": {days},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!("  \"instances\": {instances},\n"));
    out.push_str(&format!(
        "  \"failover_at\": {},\n  \"chaos_rate\": {chaos_rate:.2},\n",
        kill_at.map_or("null".to_owned(), |t| t.as_seconds().to_string())
    ));
    out.push_str("  \"requests_per_instance\": {");
    for (i, (id, requests)) in arm.per_instance_requests.iter().enumerate() {
        out.push_str(&format!(
            "{}\"pci-{id:02}\": {requests}",
            if i > 0 { ", " } else { "" }
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"control_requests_warmup\": {},\n  \"control_requests_final\": {},\n",
        arm.control_after_warmup, arm.control_final
    ));
    out.push_str(&format!(
        "  \"steady_state_router_requests\": {steady_state_router_requests},\n"
    ));
    out.push_str(&format!(
        "  \"displaced_users\": {},\n  \"wal_requests_replayed\": {},\n",
        arm.displaced, arm.replayed
    ));
    out.push_str(&format!(
        "  \"migration_sim_seconds\": {},\n  \"faults_injected\": {},\n",
        arm.migration_seconds, arm.faults
    ));
    out.push_str(&format!(
        "  \"population_mean_activity\": {:.6},\n  \"converged\": {converged}\n}}\n",
        arm.population_mean_activity
    ));
    let path = "BENCH_federation.json";
    std::fs::write(path, &out).expect("write BENCH_federation.json");
    println!("\nwrote {path}");

    assert!(
        converged,
        "federated arm diverged from the single-instance baseline"
    );
    assert_eq!(
        steady_state_router_requests, 0,
        "router served requests outside handshake/failover windows"
    );
    if kill_at.is_some() {
        assert!(arm.displaced >= 1, "failover displaced nobody");
    }
}
