//! The chaos matrix (EXPERIMENTS § ROBUST-CHAOS): deterministic transport
//! faults × cloud endpoints × device reboots.
//!
//! Every cell runs the same three-day study twice — once fault-free and
//! uninterrupted (the baseline), once under a seeded [`FaultPlan`] and/or
//! a checkpoint/restore reboot — and asserts the final durable state is
//! **bit-identical**: the client's place registry, the cloud's stored
//! places, day profiles, social contacts, and absorbed observation count.
//! Equality of the observation and contact collections against the
//! baseline doubles as the exactly-once invariant: a duplicated delivery
//! absorbed twice would show up as extra observations or contacts.
//!
//! The link always recovers for the final night (faults disabled, held
//! traffic flushed) so the last maintenance pass and `finish` can
//! converge — chaos tests assert eventual consistency, not availability
//! under active failure.

use pmware::cloud::{
    ContactEntry, FaultStats, Payload, PlaceOnlyBody, StorageConfig, ALL_FAULT_KINDS,
};
use pmware::core::pms::PeerProvider;
use pmware::core::registry::PmPlace;
use pmware::core::CloudClient;
use pmware::prelude::*;
use pmware::world::tower::NetworkLayer;
use pmware::world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn};
use proptest::prelude::*;

const DAYS: u64 = 3;
const RATE: f64 = 0.30;
const PARTICIPANT: u32 = 7;

/// Endpoint path fragments the matrix aims faults at. Analytics has its
/// own test (`analytics_queries_ride_out_every_fault_kind`): PMS issues
/// no analytics calls during a run, so rate-faulting that path inside the
/// study would be vacuous.
const ENDPOINTS: [&str; 4] = [
    "/places/discover",
    "/profiles/sync",
    "/geolocate",
    "/social/sync",
];

fn study_end() -> SimTime {
    SimTime::from_day_time(DAYS, 0, 0, 0)
}

/// The network heals at the start of the last night, before the final
/// 3 AM maintenance pass.
fn link_recovers_at() -> SimTime {
    SimTime::from_day_time(DAYS - 1, 0, 0, 0)
}

fn midday_reboot() -> SimTime {
    SimTime::from_day_time(1, 12, 30, 0)
}

fn nightly_reboot() -> SimTime {
    SimTime::from_day_time(DAYS - 1, 1, 0, 0)
}

/// A companion who is wherever the participant is during the day — the
/// simplest deterministic source of Bluetooth encounters.
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

struct StudyWorld {
    world: World,
    itinerary: Itinerary,
}

fn study_world(seed: u64) -> StudyWorld {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 1);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), DAYS);
    StudyWorld { world, itinerary }
}

fn app_requirement() -> AppRequirement {
    AppRequirement::places(Granularity::Building).with_social()
}

/// Everything a run leaves behind, compared bit-for-bit across scenarios.
#[derive(Debug, PartialEq)]
struct FinalState {
    client_places: Vec<PmPlace>,
    energy_bits: u64,
    cloud_places: Vec<DiscoveredPlace>,
    cloud_profiles: Vec<pmware::cloud::MobilityProfile>,
    cloud_observations: usize,
    cloud_contacts: Vec<ContactEntry>,
}

struct Outcome {
    state: FinalState,
    stats: FaultStats,
    /// Durable state at `study_end`, serialized — the bit-identical
    /// artifact for reboot-equality assertions (fault-free runs only;
    /// faulty runs differ in retry counters and sync sequence numbers).
    final_checkpoint_json: String,
    cloud: SharedCloud,
}

#[derive(Clone, Copy)]
enum Stop {
    Reboot,
    Recover,
    End,
}

/// One three-day study: clean registration, optional fault injection,
/// optional checkpoint/shutdown/restore reboot, guaranteed fault-free
/// final night, then `finish`.
fn run_study(
    sw: &StudyWorld,
    plan: Option<FaultPlan>,
    reboot: Option<SimTime>,
    cloud_seed: u64,
    device_seed: u64,
) -> Outcome {
    run_study_obs(sw, plan, reboot, cloud_seed, device_seed, &Obs::disabled())
}

/// [`run_study`] with per-day-chunked offloads: `batch_days ≥ 1` splits
/// each maintenance pass's GSM suffix into one discover request per that
/// many days, multiplying the wire traffic the fault plan gets to chew
/// on. Final state must not care.
fn run_study_batched(
    sw: &StudyWorld,
    plan: Option<FaultPlan>,
    reboot: Option<SimTime>,
    cloud_seed: u64,
    device_seed: u64,
    batch_days: u32,
) -> Outcome {
    run_study_full(
        sw,
        plan,
        reboot,
        cloud_seed,
        device_seed,
        &Obs::disabled(),
        batch_days,
    )
}

/// [`run_study`] with an observability sink attached to every layer
/// (cloud instance, fault-injecting transport, PMS). Collecting metrics
/// and traces must never change any outcome the chaos matrix pins.
fn run_study_obs(
    sw: &StudyWorld,
    plan: Option<FaultPlan>,
    reboot: Option<SimTime>,
    cloud_seed: u64,
    device_seed: u64,
    obs: &Obs,
) -> Outcome {
    run_study_full(sw, plan, reboot, cloud_seed, device_seed, obs, 0)
}

#[allow(clippy::too_many_arguments)]
fn run_study_full(
    sw: &StudyWorld,
    plan: Option<FaultPlan>,
    reboot: Option<SimTime>,
    cloud_seed: u64,
    device_seed: u64,
    obs: &Obs,
    offload_batch_days: u32,
) -> Outcome {
    let shared = SharedCloud::new(
        CloudInstance::new(CellDatabase::from_world(&sw.world), cloud_seed).with_obs(obs),
    );
    let inject = plan.is_some();
    let faulty = FaultyCloud::new(
        shared.clone(),
        plan.unwrap_or_else(|| FaultPlan::with_rate(0, 0.0)),
    )
    .with_obs(obs);
    faulty.set_enabled(false);

    let env = RadioEnvironment::new(&sw.world, RadioConfig::default());
    let device = Device::new(env, &sw.itinerary, EnergyModel::htc_explorer(), device_seed);
    let mut config = PmsConfig::for_participant(PARTICIPANT);
    config.offload_batch_days = offload_batch_days;
    let mut pms = PmwareMobileService::new(device, faulty.clone(), config.clone(), SimTime::EPOCH)
        .expect("registration is fault-free");
    pms.set_obs(&obs.for_actor("p0000"));
    let user = pms.cloud_client_mut().user();
    let mut _rx = pms.register_app("chaos-app", app_requirement(), IntentFilter::all());
    pms.set_peer_provider(Box::new(ShadowPeer {
        itinerary: sw.itinerary.clone(),
    }));
    faulty.set_enabled(inject);

    let mut stops = vec![
        (link_recovers_at(), Stop::Recover),
        (study_end(), Stop::End),
    ];
    if let Some(t) = reboot {
        stops.push((t, Stop::Reboot));
    }
    stops.sort_by_key(|(t, _)| t.as_seconds());

    for (t, stop) in stops {
        pms.run(t).expect("run");
        match stop {
            Stop::Reboot => {
                // Round-trip through the on-flash JSON format: only what
                // the serialized checkpoint carries survives the reboot.
                let checkpoint = PmsCheckpoint::from_json(&pms.checkpoint().to_json())
                    .expect("checkpoint parses back");
                let device = pms.shutdown();
                pms = PmwareMobileService::restore(
                    device,
                    faulty.clone(),
                    config.clone(),
                    checkpoint,
                );
                // Apps and peers re-attach on boot, like on a real phone
                // — and so does the observability sink.
                pms.set_obs(&obs.for_actor("p0000"));
                _rx = pms.register_app("chaos-app", app_requirement(), IntentFilter::all());
                pms.set_peer_provider(Box::new(ShadowPeer {
                    itinerary: sw.itinerary.clone(),
                }));
            }
            Stop::Recover => {
                faulty.set_enabled(false);
                faulty.flush(t);
            }
            Stop::End => {}
        }
    }

    let final_checkpoint_json = pms.checkpoint().to_json();
    let report = pms.finish(study_end());
    faulty.flush(study_end());
    Outcome {
        state: FinalState {
            client_places: report.places,
            energy_bits: report.energy_joules.to_bits(),
            cloud_places: shared.places_of(user),
            cloud_profiles: shared.profiles_of(user),
            cloud_observations: shared.observation_count(user),
            cloud_contacts: shared.contacts_of(user),
        },
        stats: faulty.stats(),
        final_checkpoint_json,
        cloud: shared,
    }
}

/// Runs one fault kind across {endpoint} × {no reboot, mid-day reboot,
/// nightly reboot}, asserting bit-identical convergence in every cell.
fn matrix_for(kind: FaultKind, base_seed: u64) {
    let sw = study_world(base_seed);
    let baseline = run_study(&sw, None, None, base_seed + 50, base_seed + 60);
    assert!(
        !baseline.state.cloud_places.is_empty(),
        "baseline must discover and sync places"
    );
    assert!(
        !baseline.state.cloud_profiles.is_empty(),
        "baseline must sync day profiles"
    );
    assert!(
        !baseline.state.cloud_contacts.is_empty(),
        "baseline must record social encounters"
    );
    assert_eq!(baseline.stats.faults, 0);

    let reboots = [
        ("uninterrupted", None),
        ("mid-day reboot", Some(midday_reboot())),
        ("nightly reboot", Some(nightly_reboot())),
    ];
    let mut injected = 0;
    for (pi, path) in ENDPOINTS.iter().enumerate() {
        for (ri, (label, reboot)) in reboots.iter().enumerate() {
            let plan_seed = base_seed + 1_000 + (pi as u64) * 10 + ri as u64;
            let plan = FaultPlan::with_rate(plan_seed, RATE)
                .kinds(&[kind])
                .only_path(*path);
            let out = run_study(&sw, Some(plan), *reboot, base_seed + 50, base_seed + 60);
            injected += out.stats.faults;
            assert_eq!(
                out.state, baseline.state,
                "diverged under {kind:?} on {path} ({label})"
            );
        }
    }
    assert!(
        injected > 0,
        "a {RATE} fault rate must fire at least once across the matrix"
    );
}

#[test]
fn chaos_matrix_drop() {
    matrix_for(FaultKind::Drop, 9_100);
}

#[test]
fn chaos_matrix_delay() {
    matrix_for(FaultKind::Delay, 9_200);
}

#[test]
fn chaos_matrix_duplicate() {
    matrix_for(FaultKind::Duplicate, 9_300);
}

#[test]
fn chaos_matrix_reorder() {
    matrix_for(FaultKind::Reorder, 9_400);
}

#[test]
fn chaos_matrix_error() {
    matrix_for(FaultKind::Error, 9_500);
}

/// The batched offload protocol under chaos. Per-day chunking
/// (`offload_batch_days ≥ 1`) multiplies the discover requests a
/// maintenance pass puts on the wire, and every one of them faces the
/// fault plan; the `start`-keyed watermark must still absorb each
/// observation exactly once. Two pins: fault-free chunked runs equal the
/// coalesced default bit for bit (chunking is pure wire phrasing), and
/// chunked runs under drop/duplicate/reorder converge to that same
/// state.
#[test]
fn chaos_batched_offload_chunking_converges() {
    let sw = study_world(9_900);
    let coalesced = run_study(&sw, None, None, 9_950, 9_960);
    let mut injected = 0;
    for (bi, batch_days) in [1u32, 3].into_iter().enumerate() {
        let baseline = run_study_batched(&sw, None, None, 9_950, 9_960, batch_days);
        assert_eq!(
            baseline.state, coalesced.state,
            "fault-free chunked run (batch_days={batch_days}) diverged from coalesced default"
        );
        for (ki, kind) in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Reorder]
            .into_iter()
            .enumerate()
        {
            let plan_seed = 9_970 + (bi as u64) * 10 + ki as u64;
            let plan = FaultPlan::with_rate(plan_seed, RATE)
                .kinds(&[kind])
                .only_path("/places/discover");
            let out = run_study_batched(&sw, Some(plan), None, 9_950, 9_960, batch_days);
            injected += out.stats.faults;
            assert_eq!(
                out.state, baseline.state,
                "diverged under {kind:?} with batch_days={batch_days}"
            );
        }
    }
    assert!(
        injected > 0,
        "a {RATE} fault rate must fire at least once across the batched arms"
    );
}

/// A reboot alone (no faults) must be invisible: the rebooted run's final
/// *serialized durable state* equals the uninterrupted run's, byte for
/// byte — watermarks, sequence numbers, tracker debounce state, open
/// encounters, counters, everything.
#[test]
fn reboot_resumes_bit_identically() {
    let sw = study_world(9_600);
    let uninterrupted = run_study(&sw, None, None, 9_650, 9_660);
    for (label, at) in [("mid-day", midday_reboot()), ("nightly", nightly_reboot())] {
        let rebooted = run_study(&sw, None, Some(at), 9_650, 9_660);
        assert_eq!(
            rebooted.final_checkpoint_json, uninterrupted.final_checkpoint_json,
            "{label} reboot must leave bit-identical durable state"
        );
        assert_eq!(rebooted.state, uninterrupted.state, "{label} reboot");
    }
    // The on-flash format is a serde fixpoint: parse → re-serialize is id.
    let reparsed = PmsCheckpoint::from_json(&uninterrupted.final_checkpoint_json)
        .expect("parses")
        .to_json();
    assert_eq!(reparsed, uninterrupted.final_checkpoint_json);
}

/// Observability attached to every layer — shared cloud, faulty
/// transport, PMS, device, cloud client — must be a pure reader: the
/// instrumented run's final state, durable checkpoint bytes, and fault
/// statistics all equal the uninstrumented run's, under fault injection
/// *and* a mid-day reboot. Two identically-seeded instrumented runs also
/// export byte-identical metrics and traces.
#[test]
fn observability_is_invisible_to_chaos_runs() {
    let sw = study_world(9_800);
    let plan = || {
        FaultPlan::with_rate(9_855, RATE)
            .kinds(&[FaultKind::Delay, FaultKind::Error])
            .only_path("/api/v1/places/sync")
    };
    let plain = run_study(&sw, Some(plan()), Some(midday_reboot()), 9_850, 9_860);

    let collect = || {
        let obs = Obs::with_trace(65_536);
        let out = run_study_obs(&sw, Some(plan()), Some(midday_reboot()), 9_850, 9_860, &obs);
        (
            out,
            obs.metrics_json().expect("live registry"),
            obs.trace_jsonl().expect("live bus"),
        )
    };
    let (observed, metrics_a, trace_a) = collect();

    assert_eq!(
        observed.state, plain.state,
        "observability changed the outcome"
    );
    assert_eq!(
        observed.final_checkpoint_json, plain.final_checkpoint_json,
        "observability changed the durable checkpoint bytes"
    );
    assert_eq!(
        observed.stats, plain.stats,
        "observability changed fault statistics"
    );
    assert!(
        observed.stats.faults > 0,
        "this scenario must actually inject faults"
    );

    assert!(metrics_a.contains("transport_faults_total"), "{metrics_a}");
    assert!(trace_a.contains("transport.fault"));
    assert!(trace_a.contains("client.retry"));

    // Reproducible artefacts: same seed, same bytes.
    let (_, metrics_b, trace_b) = collect();
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(trace_a, trace_b);
}

/// Analytics queries are read-only, so riding out faults is purely the
/// client's retry loop: every fault kind scheduled onto the first attempt
/// must still produce the exact fault-free answer.
#[test]
fn analytics_queries_ride_out_every_fault_kind() {
    let sw = study_world(9_700);
    let out = run_study(&sw, None, None, 9_750, 9_760);
    // A place that certainly has profile history behind it.
    let place = out
        .state
        .cloud_profiles
        .iter()
        .flat_map(|p| p.places.first())
        .map(|e| e.place)
        .next()
        .expect("profiles hold at least one visit");

    let config = PmsConfig::for_participant(PARTICIPANT);
    let t = study_end() + SimDuration::from_hours(1);
    // Registration is idempotent per IMEI, so this client reads the same
    // user's data the study produced.
    let mut clean =
        CloudClient::register(out.cloud.clone(), &config.imei, &config.email, t).expect("register");
    let want_frequency = clean
        .call("/api/v1/analytics/frequency", PlaceOnlyBody { place }, t)
        .expect("clean frequency")
        .json();
    let want_activity = clean
        .call("/api/v1/analytics/activity", Payload::Empty, t)
        .expect("clean activity")
        .json();
    assert!(
        want_frequency["visit_count"].as_u64().unwrap_or(0) >= 1,
        "chosen place must have history: {want_frequency}"
    );

    let queries: [(&str, Payload, &serde_json::Value); 2] = [
        (
            "/api/v1/analytics/frequency",
            PlaceOnlyBody { place }.into(),
            &want_frequency,
        ),
        ("/api/v1/analytics/activity", Payload::Empty, &want_activity),
    ];
    for kind in ALL_FAULT_KINDS {
        for (path, body, want) in &queries {
            // The first attempt is faulted; for fail-style kinds the retry
            // answers, for pass-style kinds (duplicate) the first attempt
            // already does — either way the answer must be exact.
            let faulty = FaultyCloud::new(
                out.cloud.clone(),
                FaultPlan::with_schedule(1, vec![(0, kind)]).only_path("/analytics"),
            );
            let mut client = CloudClient::register(faulty.clone(), &config.imei, &config.email, t)
                .expect("register");
            let got = client
                .call(path, body.clone(), t)
                .unwrap_or_else(|e| panic!("{path} under {kind:?}: {e}"));
            assert_eq!(&&got.json(), want, "{path} under {kind:?}");
            assert_eq!(
                faulty.stats().faults,
                1,
                "{kind:?} must have fired on {path}"
            );
        }
    }
}

/// A [`run_study`] variant on a *durable* storage engine whose cloud
/// crashes mid-study: the first half runs against a capped durable
/// instance under the fault plan, then the whole instance is dropped —
/// held wire traffic and resident stores and all — and a fresh process
/// recovers from the store directory. The device reboots from its own
/// checkpoint at the same instant (a site-wide power cut) and finishes
/// the study against the recovered cloud. Returns the final state and the
/// total faults injected across both halves.
fn run_durable_crash_study(
    sw: &StudyWorld,
    plan: impl Fn() -> Option<FaultPlan>,
    storage: StorageConfig,
    cloud_seed: u64,
    device_seed: u64,
) -> (FinalState, u64) {
    let cells = || CellDatabase::from_world(&sw.world);
    let shared =
        SharedCloud::new(CloudInstance::new(cells(), cloud_seed).with_storage(storage.clone()));
    let inject = plan().is_some();
    let arm = |cloud: SharedCloud| {
        FaultyCloud::new(
            cloud,
            plan().unwrap_or_else(|| FaultPlan::with_rate(0, 0.0)),
        )
    };
    let faulty = arm(shared.clone());
    faulty.set_enabled(false);

    let env = RadioEnvironment::new(&sw.world, RadioConfig::default());
    let device = Device::new(env, &sw.itinerary, EnergyModel::htc_explorer(), device_seed);
    let config = PmsConfig::for_participant(PARTICIPANT);
    let mut pms = PmwareMobileService::new(device, faulty.clone(), config.clone(), SimTime::EPOCH)
        .expect("registration is fault-free");
    let user = pms.cloud_client_mut().user();
    let mut _rx = pms.register_app("chaos-app", app_requirement(), IntentFilter::all());
    pms.set_peer_provider(Box::new(ShadowPeer {
        itinerary: sw.itinerary.clone(),
    }));
    faulty.set_enabled(inject);

    // First half, then the power cut: the device checkpoints (as in every
    // reboot cell), but the cloud is simply *gone* — anything the fault
    // plan was holding on the wire dies with it.
    let crash_at = midday_reboot();
    pms.run(crash_at).expect("first half");
    let checkpoint =
        PmsCheckpoint::from_json(&pms.checkpoint().to_json()).expect("checkpoint parses back");
    let device = pms.shutdown();
    let faults_before_crash = faulty.stats().faults;
    drop(faulty);
    drop(shared);

    let recovered = SharedCloud::new(CloudInstance::recover(
        cells(),
        cloud_seed,
        storage,
        crash_at,
    ));
    let faulty = arm(recovered.clone());
    faulty.set_enabled(false);
    let mut pms = PmwareMobileService::restore(device, faulty.clone(), config.clone(), checkpoint);
    _rx = pms.register_app("chaos-app", app_requirement(), IntentFilter::all());
    pms.set_peer_provider(Box::new(ShadowPeer {
        itinerary: sw.itinerary.clone(),
    }));
    faulty.set_enabled(inject);

    pms.run(link_recovers_at()).expect("second half");
    faulty.set_enabled(false);
    faulty.flush(link_recovers_at());
    pms.run(study_end()).expect("final night");

    let report = pms.finish(study_end());
    faulty.flush(study_end());
    let state = FinalState {
        client_places: report.places,
        energy_bits: report.energy_joules.to_bits(),
        cloud_places: recovered.places_of(user),
        cloud_profiles: recovered.profiles_of(user),
        cloud_observations: recovered.observation_count(user),
        cloud_contacts: recovered.contacts_of(user),
    };
    (state, faults_before_crash + faulty.stats().faults)
}

/// The durable arm of the matrix (EXPERIMENTS § SCALE-STORAGE): a cap-1
/// durable engine under the usual 30 % fault rate, plus a mid-study cloud
/// crash-recover, must still converge bit-identically to the plain
/// in-memory fault-free baseline. Durability, eviction churn, WAL replay,
/// and token re-adoption are all invisible at the study's end.
#[test]
fn chaos_matrix_durable_crash_recovery_converges() {
    let sw = study_world(9_000);
    let baseline = run_study(&sw, None, None, 9_055, 9_065);
    assert!(!baseline.state.cloud_places.is_empty());
    assert!(!baseline.state.cloud_contacts.is_empty());

    let scratch = |arm: &str| {
        let dir =
            std::env::temp_dir().join(format!("pmware-chaos-durable-{}-{arm}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let storage = |dir: std::path::PathBuf| StorageConfig {
        resident_cap: Some(1),
        store_dir: Some(dir),
        snapshot_every_days: 1,
    };

    // Fault-free first: durability + crash-recovery alone must be
    // invisible before faults are layered on top.
    let dir = scratch("clean");
    let (state, faults) = run_durable_crash_study(&sw, || None, storage(dir.clone()), 9_055, 9_065);
    assert_eq!(faults, 0);
    assert_eq!(
        state, baseline.state,
        "fault-free durable crash-recovery diverged from the in-memory baseline"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Per-endpoint arms. The faulted window here is thin — only the
    // pre-crash maintenance pass sees faults, everything after the heal
    // is clean by design — so these arms use *scheduled* faults (drop the
    // first matching request, duplicate its retry) rather than dice: the
    // injection is guaranteed wherever the window carries traffic.
    let mut injected = 0;
    for (pi, path) in ENDPOINTS.iter().enumerate() {
        let dir = scratch(&format!("sched-{pi}"));
        let plan_seed = 9_070 + pi as u64;
        let (state, faults) = run_durable_crash_study(
            &sw,
            || {
                Some(
                    FaultPlan::with_schedule(
                        plan_seed,
                        vec![(0, FaultKind::Drop), (1, FaultKind::Duplicate)],
                    )
                    .only_path(*path),
                )
            },
            storage(dir.clone()),
            9_055,
            9_065,
        );
        injected += faults;
        assert_eq!(
            state, baseline.state,
            "diverged under durable crash-recovery with faults on {path}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        injected > 0,
        "the scheduled faults must fire at least once across the durable arms"
    );

    // And one rate arm at the matrix's usual 30 %, aimed at the `/sync`
    // fragment (profile, social, and places sync all match) so the thin
    // window still offers the dice enough matching requests.
    let dir = scratch("rate");
    let (state, faults) = run_durable_crash_study(
        &sw,
        || {
            Some(
                FaultPlan::with_rate(9_080, RATE)
                    .kinds(&[FaultKind::Drop, FaultKind::Duplicate])
                    .only_path("/sync"),
            )
        },
        storage(dir.clone()),
        9_055,
        9_065,
    );
    assert!(
        faults > 0,
        "a {RATE} rate over every sync endpoint must fire in the faulted window"
    );
    assert_eq!(
        state, baseline.state,
        "diverged under durable crash-recovery with a {RATE} fault rate on /sync"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the old retry path that re-sent the whole contact
/// buffer: sequence-tagged batches are absorbed exactly once no matter
/// how often the wire (or the client) re-delivers them.
#[test]
fn resent_contact_buffer_never_duplicates_encounters() {
    let entry = |n: u32| ContactEntry {
        contact: format!("peer-{n}"),
        start: SimTime::from_seconds(u64::from(n) * 600),
        end: SimTime::from_seconds(u64::from(n) * 600 + 300),
        place: None,
    };
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 11));
    // Matching /social/sync requests: index 0 clean, index 1 dropped
    // (forcing a client retry at index 2), index 3 duplicated on the wire.
    let faulty = FaultyCloud::new(
        cloud.clone(),
        FaultPlan::with_schedule(12, vec![(1, FaultKind::Drop), (3, FaultKind::Duplicate)])
            .only_path("/social/sync"),
    );
    let mut client =
        CloudClient::register(faulty.clone(), "imei-contacts", "c@x.y", SimTime::EPOCH)
            .expect("register");
    let user = client.user();

    let acked = client
        .sync_contacts(&[entry(0), entry(1)], 0, SimTime::EPOCH)
        .expect("first batch");
    assert_eq!(acked, 2);

    // The drop forces one transparent retry; the server still stores the
    // batch once.
    let acked = client
        .sync_contacts(&[entry(2)], 2, SimTime::from_seconds(3_600))
        .expect("dropped batch is retried");
    assert_eq!(acked, 3);
    assert_eq!(client.retries(), 1);

    // Wire-level duplication of a batch is absorbed once.
    let acked = client
        .sync_contacts(&[entry(3)], 3, SimTime::from_seconds(7_200))
        .expect("duplicated batch");
    assert_eq!(acked, 4);
    assert_eq!(cloud.contact_count(user), 4);

    // The old bug, replayed deliberately: re-sending already-acknowledged
    // entries must be a no-op.
    let acked = client
        .sync_contacts(&[entry(2), entry(3)], 2, SimTime::from_seconds(10_800))
        .expect("stale resend");
    assert_eq!(acked, 4);
    let stored = cloud.contacts_of(user);
    assert_eq!(
        stored
            .iter()
            .map(|c| c.contact.as_str())
            .collect::<Vec<_>>(),
        vec!["peer-0", "peer-1", "peer-2", "peer-3"],
        "every encounter exactly once, in order"
    );
}

fn obs(i: usize) -> GsmObservation {
    GsmObservation {
        time: SimTime::from_seconds(i as u64 * 60),
        cell: CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            // A two-cell oscillation, so GCA has something to absorb.
            cell: CellId(1 + (i % 2) as u32),
        },
        layer: NetworkLayer::G2,
        rssi_dbm: -70.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary rate-based fault plans, a dogged client that keeps its
    /// unacknowledged buffers and retries each pass: once the link heals,
    /// the cloud holds every contact exactly once and every observation
    /// absorbed exactly once — at-least-once delivery composed with
    /// server-side dedup is exactly-once absorption.
    #[test]
    fn random_fault_plans_never_violate_exactly_once(
        seed in any::<u64>(),
        rate in 0.0f64..=0.85,
        passes in 1usize..10,
    ) {
        let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 5));
        let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::with_rate(seed, rate));
        faulty.set_enabled(false);
        let mut client =
            CloudClient::register(faulty.clone(), "imei-prop", "p@x.y", SimTime::EPOCH)
                .expect("register");
        let user = client.user();
        faulty.set_enabled(true);

        let mut all: Vec<ContactEntry> = Vec::new();
        let mut pending: Vec<ContactEntry> = Vec::new();
        let mut base = 0u64;
        let mut log: Vec<GsmObservation> = Vec::new();
        let mut offloaded = 0usize;

        for pass in 0..passes {
            let now = SimTime::from_seconds((1 + pass as u64) * 3_600);
            for k in 0..2 {
                let n = pass * 2 + k;
                let e = ContactEntry {
                    contact: format!("p-{n}"),
                    start: SimTime::from_seconds(n as u64 * 100),
                    end: SimTime::from_seconds(n as u64 * 100 + 60),
                    place: None,
                };
                all.push(e.clone());
                pending.push(e);
            }
            for _ in 0..3 {
                log.push(obs(log.len()));
            }
            if !pending.is_empty() {
                if let Ok(acked) = client.sync_contacts(&pending, base, now) {
                    let drained = (acked.saturating_sub(base) as usize).min(pending.len());
                    pending.drain(..drained);
                    base = acked.max(base);
                }
            }
            if client
                .discover_places(&log[offloaded..], offloaded as u64, now)
                .is_ok()
            {
                offloaded = log.len();
            }
        }

        // The link heals; queued traffic drains; one clean pass converges.
        let heal = SimTime::from_seconds((passes as u64 + 2) * 3_600);
        faulty.set_enabled(false);
        faulty.flush(heal);
        if !pending.is_empty() {
            let acked = client.sync_contacts(&pending, base, heal).expect("clean sync");
            prop_assert_eq!(acked as usize, all.len());
        }
        client
            .discover_places(&log[offloaded..], offloaded as u64, heal)
            .expect("clean offload");

        prop_assert_eq!(cloud.contacts_of(user), all);
        prop_assert_eq!(cloud.observation_count(user), log.len());
    }
}
