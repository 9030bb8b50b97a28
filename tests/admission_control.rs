//! Admission control end-to-end (EXPERIMENTS § ADMISSION): a client
//! cohort squeezed through tight per-user token buckets must converge to
//! the exact fault-free baseline state — throttling defers work, it never
//! loses it — and honoring the server's `retry_after_s` hint must be
//! measurably cheaper in wire requests than blind exponential backoff.
//!
//! Everything is deterministic: the admission controller is seeded and
//! sim-time driven, the client's retry schedule is a pure function of
//! simulated time, so each scenario is a replayable trajectory.

use pmware::cloud::{AdmissionConfig, ContactEntry, MobilityProfile, RateBudget};
use pmware::core::pms::PeerProvider;
use pmware::core::registry::PmPlace;
use pmware::prelude::*;

const DAYS: u64 = 3;
const PARTICIPANTS: usize = 3;
const SEED: u64 = 20_140;

fn study_end() -> SimTime {
    SimTime::from_day_time(DAYS, 0, 0, 0)
}

/// A companion present during the day, so social sync has real traffic
/// to throttle (same shape as the chaos matrix's shadow peer).
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

/// Durable per-participant state compared bit-for-bit across scenarios.
#[derive(Debug, PartialEq)]
struct FinalState {
    client_places: Vec<PmPlace>,
    cloud_places: Vec<DiscoveredPlace>,
    cloud_profiles: Vec<MobilityProfile>,
    cloud_contacts: Vec<ContactEntry>,
    cloud_observations: usize,
}

struct CohortOutcome {
    states: Vec<FinalState>,
    /// Wire sends summed over the cohort (retries included), measured at
    /// the end of the run proper so every scenario counts the same span.
    wire_requests: u64,
    /// 429s the cohort absorbed.
    rate_limited: u64,
    /// Denials the cloud's admission controller issued.
    denials: u64,
}

/// One tight per-user budget for every rate class: two requests of burst,
/// one token refilled every 30 s. The nightly maintenance pass issues a
/// same-instant burst of ingest syncs well above 2, so throttling is
/// guaranteed to fire.
fn tight_budget() -> AdmissionConfig {
    AdmissionConfig::uniform(SEED + 7, RateBudget::new(2, SimDuration::from_seconds(30)))
}

fn run_cohort(admission: Option<AdmissionConfig>, honor_retry_after: bool) -> CohortOutcome {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(SEED)
        .build();
    let population = Population::generate(&world, PARTICIPANTS, SEED + 1);
    let mut instance = CloudInstance::new(CellDatabase::from_world(&world), SEED + 2);
    if let Some(admission) = admission {
        instance = instance.with_admission(admission);
    }
    let cloud = SharedCloud::new(instance);

    let mut states = Vec::new();
    let mut wire_requests = 0;
    let mut rate_limited = 0;
    for (i, agent) in population.agents().iter().enumerate() {
        let itinerary = population.itinerary(&world, agent.id(), DAYS);
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let device = Device::new(
            env,
            &itinerary,
            EnergyModel::htc_explorer(),
            SEED + 10 + i as u64,
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
            "admission-app",
            AppRequirement::places(Granularity::Building).with_social(),
            IntentFilter::all(),
        );
        pms.set_peer_provider(Box::new(ShadowPeer {
            itinerary: itinerary.clone(),
        }));
        pms.run(study_end()).expect("run");
        wire_requests += pms.cloud_client_mut().wire_requests();
        rate_limited += pms.cloud_client_mut().rate_limited();
        let report = pms.finish(study_end());
        states.push(FinalState {
            client_places: report.places,
            cloud_places: cloud.places_of(user),
            cloud_profiles: cloud.profiles_of(user),
            cloud_contacts: cloud.contacts_of(user),
            cloud_observations: cloud.observation_count(user),
        });
    }
    CohortOutcome {
        states,
        wire_requests,
        rate_limited,
        denials: cloud.admission_denials(),
    }
}

#[test]
fn throttled_cohort_converges_to_the_fault_free_baseline() {
    let baseline = run_cohort(None, true);
    assert_eq!(baseline.denials, 0);
    assert_eq!(baseline.rate_limited, 0);
    for (i, state) in baseline.states.iter().enumerate() {
        assert!(
            !state.cloud_places.is_empty(),
            "participant {i} must discover and sync places"
        );
        assert!(
            !state.cloud_profiles.is_empty(),
            "participant {i} must sync day profiles"
        );
        assert!(
            !state.cloud_contacts.is_empty(),
            "participant {i} must record social encounters"
        );
    }

    let throttled = run_cohort(Some(tight_budget()), true);
    assert!(
        throttled.denials > 0,
        "the tight budget must actually shed requests"
    );
    // Client counters stop at the end of the run proper; the cloud also
    // counts denials issued during the final `finish` syncs, so it sees
    // at least as many.
    assert!(throttled.rate_limited > 0);
    assert!(throttled.denials >= throttled.rate_limited);
    assert_eq!(
        throttled.states, baseline.states,
        "throttling must defer work, never lose it"
    );
}

#[test]
fn same_seed_same_429_trajectory() {
    let first = run_cohort(Some(tight_budget()), true);
    let second = run_cohort(Some(tight_budget()), true);
    assert!(first.denials > 0);
    assert_eq!(first.denials, second.denials);
    assert_eq!(first.rate_limited, second.rate_limited);
    assert_eq!(first.wire_requests, second.wire_requests);
    assert_eq!(first.states, second.states);
}

#[test]
fn retry_after_hints_beat_blind_exponential_backoff() {
    let guided = run_cohort(Some(tight_budget()), true);
    let blind = run_cohort(Some(tight_budget()), false);
    assert!(guided.denials > 0 && blind.denials > 0);
    // The hint retries exactly once, at the refill instant; blind backoff
    // probes the closed door repeatedly before its waits grow past the
    // refill period.
    assert!(
        blind.rate_limited > guided.rate_limited,
        "blind {} vs guided {} 429s",
        blind.rate_limited,
        guided.rate_limited
    );
    assert!(
        blind.wire_requests > guided.wire_requests,
        "blind {} vs guided {} wire requests",
        blind.wire_requests,
        guided.wire_requests
    );
}
