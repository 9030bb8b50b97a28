//! The federation study harness: N cloud instances behind a
//! [`TopologyRouter`], a cohort of PMS clients placed across them, and a
//! deterministic mid-study instance kill with WAL-driven migration.
//!
//! One harness serves two masters. The failover matrix
//! (`tests/federation_matrix.rs`) runs it across instance counts × kill
//! instants × chaos rates and asserts every
//! arm's per-user final state is **bit-identical** to the
//! single-instance fault-free baseline — the federation layer is pure
//! topology, invisible in every durable byte. The `federation_soak`
//! binary runs one bigger arm and reports capacity numbers (requests per
//! instance, migration latency in sim-time, control-plane request count).
//!
//! Determinism: participants run in lockstep segments (everyone advances
//! to the next stop before any action fires), each participant's
//! device/PMS stack is seeded from the master seed, and all router
//! operations (placement, heartbeat, failover order) are pure functions
//! of state — no wall clock anywhere.

use pmware_algorithms::signature::DiscoveredPlace;
use pmware_cloud::topology::TopologyRouter;
use pmware_cloud::{
    CellDatabase, CloudEndpoint, CloudInstance, ContactEntry, FaultPlan, FaultyCloud,
    MobilityProfile, SharedCloud,
};
use pmware_core::pms::{PeerProvider, PmsConfig, PmwareMobileService};
use pmware_core::registry::PmPlace;
use pmware_core::{AppRequirement, Granularity, IntentFilter};
use pmware_device::{Device, EnergyModel};
use pmware_geo::GeoPoint;
use pmware_mobility::{Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::SimTime;

/// Parameters of one federation run.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Cohort size.
    pub participants: usize,
    /// Study length in days.
    pub days: u64,
    /// Master seed (world, population, devices).
    pub seed: u64,
    /// Cloud instances behind the router (sticky round-robin placement).
    pub instances: usize,
    /// When set, the instance hosting participant 0 is killed at this
    /// instant and the router immediately runs failover.
    pub kill_at: Option<SimTime>,
    /// Per-instance transport fault rate (0 disables chaos entirely).
    pub chaos_rate: f64,
    /// Seed for the per-instance fault plans (instance `i` uses
    /// `chaos_seed + i`).
    pub chaos_seed: u64,
    /// Observability sink. Each instance records under its own actor
    /// label (`pci-00`, `pci-01`, …), so a metrics snapshot breaks wire
    /// traffic down per instance. [`Obs::disabled`] costs nothing.
    pub obs: Obs,
}

impl FederationConfig {
    /// The single-instance fault-free arm every other arm must match.
    pub fn baseline(participants: usize, days: u64, seed: u64) -> FederationConfig {
        FederationConfig {
            participants,
            days,
            seed,
            instances: 1,
            kill_at: None,
            chaos_rate: 0.0,
            chaos_seed: 0,
            obs: Obs::disabled(),
        }
    }
}

/// One participant's durable end-of-study state, compared bit-for-bit
/// across arms (federation must be invisible in every field).
#[derive(Debug, PartialEq)]
pub struct UserFinalState {
    /// The client-side place registry.
    pub client_places: Vec<PmPlace>,
    /// Battery energy drained, as raw bits (exact float equality).
    pub energy_bits: u64,
    /// Places stored on the user's (current) cloud instance.
    pub cloud_places: Vec<DiscoveredPlace>,
    /// Day profiles stored cloud-side.
    pub cloud_profiles: Vec<MobilityProfile>,
    /// Observations absorbed by the cloud-side discovery engine.
    pub cloud_observations: usize,
    /// Social encounters stored cloud-side.
    pub cloud_contacts: Vec<ContactEntry>,
    /// The user's federated activity analytics answer, as raw bits.
    pub activity_bits: u64,
}

/// Everything one federation run leaves behind.
#[derive(Debug)]
pub struct FederationOutcome {
    /// Per-participant durable state, in participant order.
    pub per_user: Vec<UserFinalState>,
    /// Router control-plane requests right after every participant
    /// registered (should equal the cohort size: one handshake each).
    pub control_after_warmup: u64,
    /// Control-plane requests at study end. Equals `control_after_warmup`
    /// when no instance was killed — the zero-hot-path pin — and grows by
    /// exactly the displaced-user count across a failover.
    pub control_final: u64,
    /// Users migrated by the failover (0 without a kill).
    pub displaced: usize,
    /// WAL requests replayed into new instances during the failover.
    pub replayed: usize,
    /// Modeled migration latency in sim-seconds (1 s per replayed
    /// request).
    pub migration_seconds: u64,
    /// Authenticated requests served per instance at study end.
    pub per_instance_requests: Vec<(u32, u64)>,
    /// Federated mean of daily moving minutes across the cohort.
    pub population_mean_activity: f64,
    /// Transport faults injected across all instances.
    pub faults: u64,
}

/// The chaos-matrix shadow peer: a companion who is wherever the
/// participant is during business hours, giving the social pipeline a
/// deterministic encounter stream.
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

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stop {
    /// Kill the instance hosting participant 0, then fail over.
    Kill,
    /// Disable fault injection and flush held traffic (chaos arms only).
    Heal,
    End,
}

/// Runs one federation study arm.
///
/// # Panics
///
/// Panics when the simulation itself fails (registration, run, or a
/// missing session) — harness bugs, not outcomes.
pub fn run_federation(config: &FederationConfig) -> FederationOutcome {
    assert!(config.instances >= 1, "need at least one instance");
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(config.seed)
        .build();
    let population = Population::generate(&world, config.participants, config.seed + 1);
    let itineraries: Vec<Itinerary> = population
        .agents()
        .iter()
        .map(|agent| population.itinerary(&world, agent.id(), config.days))
        .collect();

    let router = TopologyRouter::new();
    let chaos = config.chaos_rate > 0.0;
    let mut faulties: Vec<FaultyCloud> = Vec::new();
    for i in 0..config.instances {
        let shared = SharedCloud::new(
            CloudInstance::new(
                CellDatabase::from_world(&world),
                config.seed + 100 + i as u64,
            )
            .with_obs(&config.obs.for_actor(&format!("pci-{i:02}"))),
        );
        if chaos {
            let faulty = FaultyCloud::new(
                shared.clone(),
                FaultPlan::with_rate(config.chaos_seed + i as u64, config.chaos_rate),
            );
            faulty.set_enabled(false);
            router.add_instance_endpoint(shared, CloudEndpoint::new(faulty.clone()));
            faulties.push(faulty);
        } else {
            router.add_instance(shared);
        }
    }

    // Warmup: every participant registers (fault-free) through its own
    // federated endpoint — exactly one topology handshake each.
    let mut cohort = Vec::with_capacity(config.participants);
    for (p, itinerary) in itineraries.iter().enumerate() {
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let device = Device::new(
            env,
            itinerary,
            EnergyModel::htc_explorer(),
            config.seed + 300 + p as u64,
        );
        let pms_config = PmsConfig::for_participant(p as u32);
        let mut pms = PmwareMobileService::new(
            device,
            CloudEndpoint::new(router.endpoint()),
            pms_config.clone(),
            SimTime::EPOCH,
        )
        .expect("warmup registration is fault-free");
        let rx = pms.register_app(
            "federation-app",
            AppRequirement::places(Granularity::Building).with_social(),
            IntentFilter::all(),
        );
        pms.set_peer_provider(Box::new(ShadowPeer {
            itinerary: itinerary.clone(),
        }));
        cohort.push((pms, rx, pms_config));
    }
    let control_after_warmup = router.control_requests();
    for faulty in &faulties {
        faulty.set_enabled(true);
    }

    let end = SimTime::from_day_time(config.days, 0, 0, 0);
    let mut stops = vec![(end, Stop::End)];
    if chaos {
        // The link heals for the final night so the last maintenance pass
        // converges — same contract as the chaos matrix.
        stops.push((SimTime::from_day_time(config.days - 1, 0, 0, 0), Stop::Heal));
    }
    if let Some(t) = config.kill_at {
        assert!(t < end, "kill instant must be inside the study");
        stops.push((t, Stop::Kill));
    }
    stops.sort();

    let (mut displaced, mut replayed, mut migration_seconds) = (0, 0, 0);
    for (t, stop) in stops {
        // Lockstep: everyone reaches the stop before the action fires.
        for (pms, _rx, _config) in &mut cohort {
            pms.run(t).expect("run never fails after registration");
        }
        match stop {
            Stop::Kill => {
                let anchor = &cohort[0].2;
                let victim = router
                    .instance_of(&anchor.imei, &anchor.email)
                    .expect("participant 0 has a session");
                router.kill_instance(victim);
                let report = router.fail_over(t);
                assert!(report.displaced > 0, "killing a hosting instance displaces");
                displaced = report.displaced;
                replayed = report.replayed;
                migration_seconds = report.migration_seconds;
            }
            Stop::Heal => {
                for faulty in &faulties {
                    faulty.set_enabled(false);
                    faulty.flush(t);
                }
            }
            Stop::End => {}
        }
    }

    let mut reports = Vec::with_capacity(cohort.len());
    let mut configs = Vec::with_capacity(cohort.len());
    for (pms, _rx, pms_config) in cohort {
        reports.push(pms.finish(end));
        configs.push(pms_config);
    }
    for faulty in &faulties {
        faulty.flush(end);
    }

    let fanout = router.federated_activity(end);
    let per_user = reports
        .into_iter()
        .zip(configs.iter())
        .map(|(report, pms_config)| {
            let (cloud, user) = router
                .locate(&pms_config.imei, &pms_config.email)
                .expect("every participant has a live session");
            let key = format!("{}|{}", pms_config.imei, pms_config.email);
            let activity = fanout
                .per_user
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, m)| *m)
                .expect("fan-out covers every session");
            UserFinalState {
                client_places: report.places,
                energy_bits: report.energy_joules.to_bits(),
                cloud_places: cloud.places_of(user),
                cloud_profiles: cloud.profiles_of(user),
                cloud_observations: cloud.observation_count(user),
                cloud_contacts: cloud.contacts_of(user),
                activity_bits: activity.to_bits(),
            }
        })
        .collect();

    FederationOutcome {
        per_user,
        control_after_warmup,
        control_final: router.control_requests(),
        displaced,
        replayed,
        migration_seconds,
        per_instance_requests: router
            .instance_requests()
            .into_iter()
            .map(|(id, n)| (id.0, n))
            .collect(),
        population_mean_activity: fanout.population_mean,
        faults: faulties.iter().map(|f| f.stats().faults).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down arm (2 participants × 2 days × 2 instances with a
    /// midday kill) matching the fault-free single-instance baseline
    /// bit-for-bit; the full matrix lives in `tests/federation_matrix.rs`.
    #[test]
    fn small_failover_arm_matches_baseline() {
        let baseline = run_federation(&FederationConfig::baseline(2, 2, 77));
        assert_eq!(baseline.control_after_warmup, 2);
        assert_eq!(baseline.control_final, 2, "steady state is router-free");
        assert_eq!(baseline.displaced, 0);

        let mut config = FederationConfig::baseline(2, 2, 77);
        config.instances = 2;
        config.kill_at = Some(SimTime::from_day_time(1, 12, 30, 0));
        let arm = run_federation(&config);

        assert_eq!(
            arm.per_user, baseline.per_user,
            "federation must be invisible"
        );
        assert!(arm.displaced >= 1);
        assert_eq!(
            arm.control_final,
            arm.control_after_warmup + arm.displaced as u64,
            "exactly one topology refresh per displaced client"
        );
        assert_eq!(arm.migration_seconds, arm.replayed as u64);
    }
}
