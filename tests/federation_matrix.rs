//! The federation failover & migration matrix (EXPERIMENTS §
//! ROBUST-FEDERATION): instance counts × kill instants × transport
//! chaos, under the router's one placement rule (sticky round-robin).
//!
//! Every arm runs the same three-day, three-participant study behind a
//! [`TopologyRouter`] and must converge **bit-identical** to the
//! single-instance fault-free baseline — client place registries, cloud
//! places, day profiles, social contacts, absorbed observation counts,
//! battery energy, and the federated activity analytics answer. The
//! router is pure topology: it may never change a durable byte.
//!
//! The matrix also pins the control plane: after warmup the router serves
//! exactly one handshake per participant, zero requests at steady state,
//! and exactly one topology refresh per displaced client across a
//! failover — even with 30 % transport faults injected, because the
//! chaos statuses (599/502) deliberately do not trigger refreshes.

use pmware::prelude::*;
use pmware_bench::federation::{run_federation, FederationConfig, FederationOutcome};

const PARTICIPANTS: usize = 3;
const DAYS: u64 = 3;
const SEED: u64 = 4242;
const CHAOS_RATE: f64 = 0.30;

fn baseline() -> FederationOutcome {
    run_federation(&FederationConfig::baseline(PARTICIPANTS, DAYS, SEED))
}

fn arm(instances: usize, kill_at: SimTime, chaos: bool) -> FederationConfig {
    let mut config = FederationConfig::baseline(PARTICIPANTS, DAYS, SEED);
    config.instances = instances;
    config.kill_at = Some(kill_at);
    if chaos {
        config.chaos_rate = CHAOS_RATE;
        config.chaos_seed = SEED + 900;
    }
    config
}

/// Mid-study kill during the busiest part of the day.
fn midday_kill() -> SimTime {
    SimTime::from_day_time(1, 12, 30, 0)
}

/// Kill during the nightly maintenance window, shortly after the 3 AM
/// pass begins on the last full day.
fn nightly_kill() -> SimTime {
    SimTime::from_day_time(DAYS - 1, 3, 5, 0)
}

/// Asserts one arm converged to the baseline and kept the control-plane
/// pins: one handshake per participant at warmup, then exactly one
/// topology refresh per displaced client — nothing else ever reaches the
/// router.
fn assert_converges(label: &str, baseline: &FederationOutcome, outcome: &FederationOutcome) {
    assert_eq!(
        outcome.per_user, baseline.per_user,
        "{label}: durable state diverged from the single-instance baseline"
    );
    assert_eq!(
        outcome.control_after_warmup, PARTICIPANTS as u64,
        "{label}: warmup handshake count"
    );
    assert!(outcome.displaced >= 1, "{label}: the kill displaced nobody");
    assert_eq!(
        outcome.control_final,
        outcome.control_after_warmup + outcome.displaced as u64,
        "{label}: control-plane requests beyond one refresh per displaced client"
    );
    assert_eq!(
        outcome.migration_seconds, outcome.replayed as u64,
        "{label}: migration latency model is one sim-second per replayed request"
    );
}

#[test]
fn failover_matrix_converges_to_single_instance_baseline() {
    let base = baseline();
    assert_eq!(base.control_after_warmup, PARTICIPANTS as u64);
    assert_eq!(
        base.control_final, base.control_after_warmup,
        "baseline: steady state must be router-free"
    );

    for &instances in &[2usize, 4] {
        for (when, kill_at) in [("midday", midday_kill()), ("nightly", nightly_kill())] {
            let label = format!("n={instances} kill={when}");
            let outcome = run_federation(&arm(instances, kill_at, false));
            assert_converges(&label, &base, &outcome);
        }
    }
}

#[test]
fn failover_matrix_converges_under_transport_chaos() {
    let base = baseline();
    for &instances in &[2usize, 4] {
        for (when, kill_at) in [("midday", midday_kill()), ("nightly", nightly_kill())] {
            let label = format!("n={instances} kill={when} chaos={CHAOS_RATE}");
            let outcome = run_federation(&arm(instances, kill_at, true));
            assert!(outcome.faults > 0, "{label}: chaos arm injected nothing");
            assert_converges(&label, &base, &outcome);
        }
    }
}

#[test]
fn round_robin_federation_without_faults_is_also_invisible() {
    let base = baseline();
    for &instances in &[2usize, 4] {
        let mut config = FederationConfig::baseline(PARTICIPANTS, DAYS, SEED);
        config.instances = instances;
        let outcome = run_federation(&config);
        assert_eq!(
            outcome.per_user, base.per_user,
            "n={instances} round-robin: durable state diverged"
        );
        assert_eq!(
            outcome.control_final, PARTICIPANTS as u64,
            "n={instances}: no-kill arm must never revisit the router"
        );
        assert_eq!(outcome.displaced, 0);
    }
}

/// The federated analytics fan-out answers from every instance and its
/// population mean matches the baseline bit-for-bit.
#[test]
fn federated_analytics_matches_baseline() {
    let base = baseline();
    let outcome = run_federation(&arm(2, midday_kill(), false));
    assert_eq!(
        outcome.population_mean_activity.to_bits(),
        base.population_mean_activity.to_bits(),
        "population activity mean diverged"
    );
    // Every instance served real traffic in the 2-instance arm.
    assert_eq!(outcome.per_instance_requests.len(), 2);
    assert!(outcome
        .per_instance_requests
        .iter()
        .all(|(_, requests)| *requests > 0));
}
