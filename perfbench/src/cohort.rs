//! The deployment study's participant loop, rebuilt from public calls, and
//! the cloud transport that watches it.
//!
//! [`run_lockstep`] runs the same per-participant steps as
//! `pmware_bench::deployment::run_study` (registration, day-by-day PMS
//! runs with the PlaceADs and life-logging apps, `finish`, and the
//! correct/merged/divided classification), but in day lockstep: day 1 of
//! every participant, then day 2 of every participant, and so on, so that
//! users interleave on the cloud as they would on a real night. Each
//! participant's outcome is independent of the interleaving, so the
//! [`StudyResults`] equal `run_study`'s; the benchmark checks this.
//!
//! The loop laps a [`RefClock`] after every participant-day, so its time
//! can be scaled to the reference machine speed piece by piece.
//!
//! Every request goes through a [`Probe`], a `CloudTransport` around the
//! shared cloud that times the instance per user-day, counts calls per
//! endpoint, optionally records the exchange log the replay workloads
//! serve, and feeds client spans to the tracer in a traced run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crossbeam::channel::Receiver;
use pmware_algorithms::matching::{classify_places, GroundTruthVisit, MatchOutcome};
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_apps::{AdInventory, LifeLogApp, PlaceAdsApp, UserTasteModel};
use pmware_bench::deployment::{ParticipantResult, StudyResults};
use pmware_cloud::router::{endpoint_index, ENDPOINT_COUNT, ENDPOINT_LABELS};
use pmware_cloud::{
    CellDatabase, CloudInstance, CloudTransport, Payload, PlaceOnlyBody, Request, Response,
    SharedCloud, SocialQueryBody,
};
use pmware_core::registry::PmPlaceId;
use pmware_core::{Intent, PmsConfig, PmwareMobileService};
use pmware_device::{Device, EnergyModel, PositionProvider};
use pmware_geo::GeoPoint;
use pmware_mobility::{Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{MotionState, SimTime, World};

use crate::calibrate::RefClock;
use crate::trace::Tracer;

/// The [`RefClock`] tag of lockstep pieces that are not a user-day:
/// building the study's inputs, and the participants' `finish`.
pub const OTHER: usize = usize::MAX;

/// Cohort size and seed of one study.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Participants.
    pub participants: usize,
    /// Study days.
    pub days: u64,
    /// Master seed.
    pub seed: u64,
}

impl Size {
    /// Participant-days in the study.
    pub fn participant_days(&self) -> u64 {
        self.participants as u64 * self.days
    }

    /// The user-day slot of `participant` on `day` (1-based): slots run
    /// day-major, which is the order the lockstep loop sends in.
    pub fn slot(&self, participant: usize, day: u64) -> usize {
        (day as usize - 1) * self.participants + participant
    }

    /// The `run_study` configuration for this size: one worker thread,
    /// urban India, in-memory cloud, observability off.
    pub fn study_config(&self) -> pmware_bench::deployment::StudyConfig {
        pmware_bench::deployment::StudyConfig {
            participants: self.participants,
            days: self.days,
            seed: self.seed,
            region: RegionProfile::urban_india(),
            threads: 1,
            ..Default::default()
        }
    }
}

/// One request the cloud served, as recorded.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// User-day slot ([`Size::slot`]).
    pub slot: usize,
    /// Simulated send instant.
    pub at: SimTime,
    /// The request as sent.
    pub request: Request,
    /// The instance's answer.
    pub response: Response,
}

/// What a [`Probe`] accumulates.
#[derive(Debug)]
pub struct ProbeState {
    slot: usize,
    key: String,
    app_read: bool,
    record: bool,
    /// Recorded exchanges, in send order (record mode only).
    pub log: Vec<Exchange>,
    /// Instance time per user-day slot, nanoseconds.
    pub slot_ns: Vec<u64>,
    /// Requests sent by the participants' PMS (registrations included).
    pub phone_requests: u64,
    /// Responses outside 2xx.
    pub non_2xx: u64,
    /// Calls per endpoint label index.
    pub calls: [u64; ENDPOINT_COUNT],
    /// Instance time per endpoint label index, nanoseconds.
    pub ns: [u64; ENDPOINT_COUNT],
    /// Span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

/// A `CloudTransport` around the shared cloud that measures and records.
#[derive(Debug, Clone)]
pub struct Probe {
    cloud: SharedCloud,
    state: Arc<Mutex<ProbeState>>,
}

impl Probe {
    fn new(cloud: SharedCloud, slots: usize, record: bool, tracer: Option<Tracer>) -> Probe {
        Probe {
            cloud,
            state: Arc::new(Mutex::new(ProbeState {
                slot: 0,
                key: String::new(),
                app_read: false,
                record,
                log: Vec::new(),
                slot_ns: vec![0; slots],
                phone_requests: 0,
                non_2xx: 0,
                calls: [0; ENDPOINT_COUNT],
                ns: [0; ENDPOINT_COUNT],
                tracer,
            })),
        }
    }

    /// The accumulated state.
    pub fn state(&self) -> MutexGuard<'_, ProbeState> {
        self.state.lock().expect("no probe user panicked")
    }

    /// Attributes the requests that follow to user-day `slot`.
    fn set_slot(&self, slot: usize, key: &str) {
        let mut state = self.state();
        state.slot = slot;
        state.key = key.to_owned();
    }

    fn with_tracer(&self, f: impl FnOnce(&mut Tracer)) {
        if let Some(tracer) = self.state().tracer.as_mut() {
            f(tracer);
        }
    }
}

impl CloudTransport for Probe {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        let started = Instant::now();
        let response = self.cloud.handle(request, now);
        let ns = started.elapsed().as_nanos() as u64;
        let mut state = self.state();
        let slot = state.slot;
        let endpoint = endpoint_index(request.method, &request.path);
        state.slot_ns[slot] += ns;
        state.calls[endpoint] += 1;
        state.ns[endpoint] += ns;
        if !state.app_read {
            state.phone_requests += 1;
        }
        if !response.is_success() {
            state.non_2xx += 1;
        }
        let state = &mut *state;
        if let Some(tracer) = state.tracer.as_mut() {
            let end = tracer.now_ns();
            let name = format!("cloud.client.{}", ENDPOINT_LABELS[endpoint]);
            tracer.child(&name, &state.key, end.saturating_sub(ns), end);
        }
        if state.record {
            state.log.push(Exchange {
                slot,
                at: now,
                request: request.clone(),
                response: response.clone(),
            });
        }
        response
    }
}

/// Position calls counted and timed by [`Positions`].
#[derive(Debug, Default)]
struct PositionStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// The device's view of a participant's itinerary; in a traced run it
/// counts and times every position and motion query.
struct Positions<'a> {
    itinerary: &'a Itinerary,
    stats: Option<Arc<PositionStats>>,
}

impl Positions<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(stats) = &self.stats else {
            return f();
        };
        let started = Instant::now();
        let out = f();
        stats
            .ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl PositionProvider for Positions<'_> {
    fn position_at(&self, t: SimTime) -> GeoPoint {
        self.timed(|| PositionProvider::position_at(self.itinerary, t))
    }

    fn motion_at(&self, t: SimTime) -> MotionState {
        self.timed(|| PositionProvider::motion_at(self.itinerary, t))
    }
}

/// What [`run_lockstep`] produced.
#[derive(Debug)]
pub struct Outcome {
    /// The study's size and seed.
    pub size: Size,
    /// The study's results, comparable with `run_study`'s.
    pub results: StudyResults,
    /// The world the study ran in (the replays build cells from it).
    pub world: World,
    /// Everything the probe accumulated.
    pub probe: ProbeState,
    /// The study's observability registry (traced runs only).
    pub obs: Option<Obs>,
}

/// How [`run_lockstep`] runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Send the app read mix after each user-day, and record the exchange
    /// log with it.
    pub record: bool,
    /// Record spans and the `Obs` counters.
    pub traced: bool,
}

struct Participant<'w> {
    position: usize,
    index: u32,
    pms: PmwareMobileService<'w, Positions<'w>>,
    ads_rx: Receiver<Intent>,
    log_rx: Receiver<Intent>,
    placeads: PlaceAdsApp,
    lifelog: LifeLogApp,
    taste: UserTasteModel,
    itinerary: &'w Itinerary,
    positions: Option<Arc<PositionStats>>,
}

/// Runs the study in day lockstep through a [`Probe`], lapping `clock`
/// once per user-day (tagged with its [`Size::slot`]) and around the rest
/// (tagged [`OTHER`]).
pub fn run_lockstep(size: Size, mode: Mode, clock: &mut RefClock) -> Outcome {
    clock.start();
    let obs = mode.traced.then(Obs::new);
    let mut tracer = mode.traced.then(Tracer::default);
    open(&mut tracer, "bench.run");
    open(&mut tracer, "world.build");
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(size.seed)
        .build();
    close(&mut tracer);

    open(&mut tracer, "mobility.itinerary");
    let population = Population::generate(&world, size.participants, size.seed + 2);
    let itineraries: Vec<Itinerary> = population
        .agents()
        .iter()
        .map(|agent| population.itinerary(&world, agent.id(), size.days))
        .collect();
    close(&mut tracer);

    open(&mut tracer, "apps.setup");
    let tastes: Vec<(f64, UserTasteModel)> = population
        .agents()
        .iter()
        .map(|agent| {
            (
                agent.tag_probability(),
                UserTasteModel::from_agent(agent, size.seed + 100 + agent.id().0 as u64),
            )
        })
        .collect();
    close(&mut tracer);

    open(&mut tracer, "cloud.setup");
    let instance = CloudInstance::new(CellDatabase::from_world(&world), size.seed + 1);
    let cloud = SharedCloud::new(match &obs {
        Some(obs) => instance.with_obs(obs),
        None => instance,
    });
    close(&mut tracer);

    let slots = size.participants * size.days as usize;
    let probe = Probe::new(cloud.clone(), slots, mode.record, tracer);
    let agent_ids: Vec<u32> = population.agents().iter().map(|a| a.id().0).collect();

    let mut participants: Vec<Participant<'_>> = Vec::with_capacity(size.participants);
    clock.lap(OTHER);
    for day in 1..=size.days {
        for p in 0..size.participants {
            let key = format!("p{p:04}/d{day:02}");
            probe.set_slot(size.slot(p, day), &key);
            if day == 1 {
                participants.push(start_participant(
                    &world,
                    &probe,
                    p,
                    agent_ids[p],
                    &itineraries[p],
                    tastes[p].clone(),
                    size.seed,
                    obs.as_ref(),
                    &key,
                ));
            }
            let part = &mut participants[p];
            let before = part.positions.as_ref().map(|s| {
                (
                    s.calls.load(Ordering::Relaxed),
                    s.ns.load(Ordering::Relaxed),
                )
            });
            probe.with_tracer(|t| t.open("core.pms", &key));
            part.pms
                .run(SimTime::from_day_time(day, 0, 0, 0))
                .expect("run never fails after registration");
            if let (Some(stats), Some((calls, ns))) = (&part.positions, before) {
                let calls = stats.calls.load(Ordering::Relaxed) - calls;
                let ns = stats.ns.load(Ordering::Relaxed) - ns;
                probe.with_tracer(|t| t.aggregate("mobility.position", &key, calls, ns));
            }
            probe.with_tracer(Tracer::close);

            probe.with_tracer(|t| t.open("apps.day", &key));
            run_apps(part);
            if mode.record {
                send_read_mix(&probe, part, SimTime::from_day_time(day, 0, 0, 0));
            }
            probe.with_tracer(Tracer::close);
            clock.lap(size.slot(p, day));
        }
    }

    let end = SimTime::from_day_time(size.days, 0, 0, 0);
    let mut results = Vec::with_capacity(participants.len());
    for part in participants {
        // `finish` syncs the last profile; its requests belong to the
        // participant's last user-day.
        let key = format!("p{:04}/d{:02}", part.position, size.days);
        probe.set_slot(size.slot(part.position, size.days), &key);
        results.push(finish_participant(&probe, part, end));
    }
    let results = StudyResults {
        participants: results,
        cloud_requests: cloud.total_requests(),
    };
    probe.with_tracer(Tracer::close);
    drop(cloud);
    let probe = Arc::try_unwrap(probe.state)
        .expect("the cloud endpoints are gone")
        .into_inner()
        .expect("no probe user panicked");
    clock.lap(OTHER);
    Outcome {
        size,
        results,
        world,
        probe,
        obs,
    }
}

#[allow(clippy::too_many_arguments)]
fn start_participant<'w>(
    world: &'w World,
    probe: &Probe,
    position: usize,
    index: u32,
    itinerary: &'w Itinerary,
    (tag_probability, taste): (f64, UserTasteModel),
    seed: u64,
    obs: Option<&Obs>,
    key: &str,
) -> Participant<'w> {
    probe.with_tracer(|t| t.open("device.setup", key));
    let positions = probe.state().tracer.is_some().then(Arc::default);
    let env = RadioEnvironment::new(world, RadioConfig::default());
    let device = Device::new(
        env,
        Positions {
            itinerary,
            stats: positions.clone(),
        },
        EnergyModel::htc_explorer(),
        seed + 200 + index as u64,
    );
    probe.with_tracer(Tracer::close);

    probe.with_tracer(|t| t.open("core.register", key));
    let mut pms = PmwareMobileService::new(
        device,
        pmware_cloud::CloudEndpoint::new(probe.clone()),
        PmsConfig::for_participant(index),
        SimTime::EPOCH,
    )
    .expect("registration succeeds");
    if let Some(obs) = obs {
        pms.set_obs(&obs.for_actor(&format!("p{index:04}")));
    }
    let ads_rx = pms.register_app(
        "placeads",
        PlaceAdsApp::requirement(),
        PlaceAdsApp::filter(),
    );
    let log_rx = pms.register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
    probe.with_tracer(Tracer::close);

    probe.with_tracer(|t| t.open("apps.setup", key));
    let placeads = PlaceAdsApp::new(AdInventory::from_world(world));
    let lifelog = LifeLogApp::new(tag_probability, seed + 300 + index as u64);
    probe.with_tracer(Tracer::close);
    Participant {
        position,
        index,
        pms,
        ads_rx,
        log_rx,
        placeads,
        lifelog,
        taste,
        itinerary,
        positions,
    }
}

/// The evening app work of one user-day: the life log tags places, and
/// the user swipes the day's ad cards.
fn run_apps(part: &mut Participant<'_>) {
    for intent in part.log_rx.try_iter() {
        part.lifelog.on_intent(&intent);
    }
    for (place, label) in part.lifelog.take_pending_labels() {
        part.pms.label_place(PmPlaceId(place), label);
    }
    for intent in part.ads_rx.try_iter().collect::<Vec<_>>() {
        if let Some(card) = part.placeads.on_intent(&intent) {
            let true_position = part.itinerary.position_at(card.served_at);
            let _ = part.taste.swipe(&card, true_position);
        }
    }
}

/// The fixed app read mix of one user-day, sent through the same
/// transport: the place list, a next-place prediction and a social query
/// at the first listed place, and the activity summary. The study itself
/// sends no analytics or social reads, so without this mix those paths
/// would go unmeasured.
fn send_read_mix(probe: &Probe, part: &mut Participant<'_>, now: SimTime) {
    let token = part.pms.cloud_client_mut().state().token;
    probe.state().app_read = true;
    let places = probe.send(
        &Request::get("/api/v1/places").with_token(token.as_str()),
        now,
    );
    let first = match &places.body {
        Payload::Places { places } => places.first().map(|p| p.id),
        _ => None,
    };
    if let Some(place) = first {
        probe.send(
            &Request::post(
                "/api/v1/analytics/next_place",
                Payload::PlaceOnly(PlaceOnlyBody { place }),
            )
            .with_token(token.as_str()),
            now,
        );
    }
    probe.send(
        &Request::post(
            "/api/v1/social/query",
            Payload::SocialQuery(SocialQueryBody { place: first }),
        )
        .with_token(token.as_str()),
        now,
    );
    probe.send(
        &Request::post("/api/v1/analytics/activity", Payload::Empty).with_token(token.as_str()),
        now,
    );
    probe.state().app_read = false;
}

/// `finish` plus the correct/merged/divided classification, exactly as
/// `run_study` scores a participant.
fn finish_participant(probe: &Probe, part: Participant<'_>, end: SimTime) -> ParticipantResult {
    let key = format!("p{:04}/end", part.index);
    probe.with_tracer(|t| t.open("core.finish", &key));
    let report = part.pms.finish(end);
    probe.with_tracer(Tracer::close);

    probe.with_tracer(|t| t.open("algorithms.classify", &key));
    let discovered: Vec<DiscoveredPlace> = report
        .places
        .iter()
        .map(|p| {
            let mut d = DiscoveredPlace::new(
                DiscoveredPlaceId(p.id.0),
                PlaceSignature::Cells(p.cells.clone()),
                p.gca_visits.clone(),
            );
            d.label = p.label.clone();
            d
        })
        .collect();
    let truth: Vec<GroundTruthVisit> = part
        .itinerary
        .visits()
        .iter()
        .map(|v| GroundTruthVisit {
            place: v.place,
            arrival: v.arrival,
            departure: v.departure,
        })
        .collect();
    let matching = classify_places(&discovered, &truth, 0.2);
    let evaluable: std::collections::BTreeSet<u32> =
        part.lifelog.evaluable_places().into_iter().collect();
    let (mut correct, mut merged, mut divided) = (0, 0, 0);
    for m in &matching.matches {
        if !evaluable.contains(&m.discovered.0) {
            continue;
        }
        match m.outcome {
            MatchOutcome::Correct => correct += 1,
            MatchOutcome::Merged => merged += 1,
            MatchOutcome::Divided => divided += 1,
            MatchOutcome::NoMatch => {}
        }
    }
    probe.with_tracer(Tracer::close);
    let tagged = report.places.iter().filter(|p| p.label.is_some()).count();
    ParticipantResult {
        discovered: report.places.len(),
        tagged,
        evaluable: correct + merged + divided,
        correct,
        merged,
        divided,
        likes: part.taste.likes(),
        dislikes: part.taste.dislikes(),
        energy_joules: report.energy_joules,
    }
}

fn open(tracer: &mut Option<Tracer>, name: &str) {
    if let Some(tracer) = tracer.as_mut() {
        tracer.open(name, "");
    }
}

fn close(tracer: &mut Option<Tracer>) {
    if let Some(tracer) = tracer.as_mut() {
        tracer.close();
    }
}
