//! The PMWare Mobile Service orchestrator.
//!
//! *"There is only one instance of PMS running which can be used by
//! multiple connected third party applications, thereby eliminating sensing
//! and processing redundancy."* (§2.2)
//!
//! [`PmwareMobileService::run`] advances simulated time tick by tick:
//! the triggered-sensing scheduler decides what to sample, the sensors pay
//! energy, the inference engine turns observations into place events,
//! events flow to connected apps as intents (coarsened per the user's
//! privacy preferences), routes are extracted between stays, profiles are
//! cut per day, and a nightly maintenance pass offloads GCA to the cloud,
//! reconciles the place registry, and syncs everything (§2.2.2–§2.2.5).

use std::collections::{BTreeMap, HashMap};

use crossbeam::channel::Receiver;
use pmware_algorithms::gca::PlaceEvent;
use pmware_algorithms::route::{cell_route, gps_route, RouteObservation, RouteStore};
use pmware_algorithms::sensloc::WifiPlaceEvent;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_cloud::wire::ObservationBatch;
use pmware_cloud::CloudEndpoint;
use pmware_device::{Device, EnergyModel, MovementDetector, PositionProvider};
use pmware_geo::GeoPoint;
use pmware_mobility::Itinerary;
use pmware_obs::{Counter, FieldValue, Histogram, Obs};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{MotionState, SimDuration, SimTime, World};
use serde::{Deserialize, Serialize};
use serde_json::json;

use crate::apps::ConnectedApps;
use crate::checkpoint::PmsCheckpoint;
use crate::cloud_client::CloudClient;
use crate::error::PmsError;
use crate::inference::{InferenceConfig, InferenceEngine};
use crate::intents::{actions, Intent, IntentFilter};
use crate::preferences::{coarsen_position, UserPreferences};
use crate::profile_builder::ProfileBuilder;
use crate::registry::{PlaceRegistry, PmPlaceId};
use crate::requirements::{AppRequirement, RouteAccuracy};
use crate::sensing::{SensingConfig, SensingScheduler};

/// Supplies the positions of other PMWare users' devices for Bluetooth
/// proximity scans (the simulation's stand-in for radios actually hearing
/// each other). The deployment harness implements this over the whole
/// agent population.
pub trait PeerProvider {
    /// Peers (opaque contact id, true position) present at `t`.
    fn peers_at(&self, t: SimTime) -> Vec<(String, GeoPoint)>;
}

/// Main loop tick: one minute, the GSM period.
const TICK: SimDuration = SimDuration::from_minutes(1);
/// Hour of day at which the nightly maintenance (GCA offload, syncs) runs.
const MAINTENANCE_HOUR: u64 = 3;
/// Signature overlap for registry reconciliation.
const RECONCILE_OVERLAP: f64 = 0.18;
/// Refresh the token when within this margin of expiry.
const TOKEN_REFRESH_MARGIN: SimDuration = SimDuration::from_hours(2);
/// Movement-detector window (samples).
const MOVEMENT_WINDOW: usize = 3;
/// Wire-request cap per maintenance pass: on a bad link the pass stops
/// spending after this many sends (retries included) and the unfinished
/// work is retried at the next pass.
const MAINTENANCE_BUDGET: u32 = 64;

/// PMS configuration.
#[derive(Debug, Clone)]
pub struct PmsConfig {
    /// Device IMEI for registration.
    pub imei: String,
    /// Account email for registration.
    pub email: String,
    /// Scheduler periods.
    pub sensing: SensingConfig,
    /// Inference parameters.
    pub inference: InferenceConfig,
}

impl PmsConfig {
    /// A configuration for one named participant.
    pub fn for_participant(n: u32) -> PmsConfig {
        PmsConfig {
            imei: format!("3504{n:011}"),
            email: format!("participant{n}@pmware.study"),
            sensing: SensingConfig::default(),
            inference: InferenceConfig::default(),
        }
    }
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmsCounters {
    /// Confirmed arrivals broadcast.
    pub arrivals: u64,
    /// Confirmed departures broadcast.
    pub departures: u64,
    /// Route traversals recorded.
    pub routes: u64,
    /// Social encounters recorded.
    pub encounters: u64,
    /// GCA offloads performed.
    pub gca_offloads: u64,
    /// GCA offloads that fell back to local computation.
    pub gca_local_fallbacks: u64,
    /// Day profiles synced to the cloud.
    pub profiles_synced: u64,
    /// Token refreshes performed.
    pub token_refreshes: u64,
}

/// Sensor-trigger labels, in the order the scheduler's decision lists
/// them.
const TRIGGER_LABELS: [&str; 5] = ["accel", "gsm", "wifi", "gps", "bluetooth"];

/// Bucket bounds for the GCA offload batch-size histogram (observations
/// shipped per offload request). At one GSM sample a minute, a single
/// day is ~1.4k observations, so a multi-day batched offload after an
/// outage lands in the tens of thousands — the upper buckets keep week-
/// and month-sized coalesced suffixes distinguishable instead of lumping
/// everything past 4k into the overflow bucket.
const GCA_BATCH_BOUNDS: [u64; 10] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144];

/// Pre-resolved PMS metric handles. The service always carries a private
/// registry (so [`PmwareMobileService::counters`] keeps working with no
/// opt-in); [`PmwareMobileService::set_obs`] binds the handles once to a
/// study-wide registry before the first tick.
#[derive(Debug)]
struct PmsMetrics {
    obs: Obs,
    /// Whether [`PmwareMobileService::set_obs`] has bound these handles.
    bound: bool,
    arrivals: Counter,
    departures: Counter,
    routes: Counter,
    encounters: Counter,
    gca_offloads: Counter,
    gca_local_fallbacks: Counter,
    profiles_synced: Counter,
    token_refreshes: Counter,
    sensing_triggers: [Counter; TRIGGER_LABELS.len()],
    duty_cycle_changes: Counter,
    intent_broadcasts: Counter,
    gca_batch_observations: Histogram,
}

impl PmsMetrics {
    fn resolve(obs: Obs) -> PmsMetrics {
        let user = obs.actor().to_string();
        let labels = [("user", user.as_str())];
        PmsMetrics {
            arrivals: obs.counter("pms_arrivals_total", &labels),
            departures: obs.counter("pms_departures_total", &labels),
            routes: obs.counter("pms_routes_total", &labels),
            encounters: obs.counter("pms_encounters_total", &labels),
            gca_offloads: obs.counter("pms_gca_offloads_total", &labels),
            gca_local_fallbacks: obs.counter("pms_gca_local_fallbacks_total", &labels),
            profiles_synced: obs.counter("pms_profiles_synced_total", &labels),
            token_refreshes: obs.counter("pms_token_refreshes_total", &labels),
            sensing_triggers: std::array::from_fn(|i| {
                obs.counter(
                    "pms_sensing_triggers_total",
                    &[("interface", TRIGGER_LABELS[i]), ("user", user.as_str())],
                )
            }),
            duty_cycle_changes: obs.counter("pms_duty_cycle_changes_total", &labels),
            intent_broadcasts: obs.counter("pms_intent_broadcasts_total", &labels),
            gca_batch_observations: obs.histogram(
                "pms_gca_batch_observations",
                &labels,
                &GCA_BATCH_BOUNDS,
            ),
            obs,
            bound: false,
        }
    }

    /// A snapshot of the durable (checkpointed) counters.
    fn counters(&self) -> PmsCounters {
        PmsCounters {
            arrivals: self.arrivals.get(),
            departures: self.departures.get(),
            routes: self.routes.get(),
            encounters: self.encounters.get(),
            gca_offloads: self.gca_offloads.get(),
            gca_local_fallbacks: self.gca_local_fallbacks.get(),
            profiles_synced: self.profiles_synced.get(),
            token_refreshes: self.token_refreshes.get(),
        }
    }

    /// Seeds the durable counters: checkpoint restore only. `restore`
    /// seeds the private handles from the checkpoint, and `set_obs` seeds
    /// the bound handles with those same values (all zero after `new`).
    fn seed(&self, counters: &PmsCounters) {
        self.arrivals.set(counters.arrivals);
        self.departures.set(counters.departures);
        self.routes.set(counters.routes);
        self.encounters.set(counters.encounters);
        self.gca_offloads.set(counters.gca_offloads);
        self.gca_local_fallbacks.set(counters.gca_local_fallbacks);
        self.profiles_synced.set(counters.profiles_synced);
        self.token_refreshes.set(counters.token_refreshes);
    }
}

/// End-of-run summary.
#[derive(Debug, Clone)]
pub struct PmsReport {
    /// Snapshot of the place registry.
    pub places: Vec<crate::registry::PmPlace>,
    /// Total battery energy drained (joules).
    pub energy_joules: f64,
    /// Energy by interface.
    pub energy_by_interface: Vec<(pmware_device::Interface, f64)>,
    /// Event counters.
    pub counters: PmsCounters,
    /// Intents delivered to connected apps.
    pub intents_delivered: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct OpenEncounter {
    pub(crate) start: SimTime,
    pub(crate) last_seen: SimTime,
    pub(crate) place: Option<PmPlaceId>,
}

/// The mobile service bound to one device.
pub struct PmwareMobileService<'w, P> {
    config: PmsConfig,
    device: Device<'w, P>,
    client: CloudClient,
    apps: ConnectedApps,
    prefs: UserPreferences,
    scheduler: SensingScheduler,
    movement: MovementDetector,
    engine: InferenceEngine,
    registry: PlaceRegistry,
    profiles: ProfileBuilder,
    routes: RouteStore,
    peer_provider: Option<Box<dyn PeerProvider + Send>>,
    /// Keyed in contact order (deterministic drain on finish/checkpoint).
    open_encounters: BTreeMap<String, OpenEncounter>,
    /// Encounters closed but not yet acknowledged by the cloud, in stream
    /// order. `pending_contacts[0]` sits at stream offset
    /// `contacts_seq_base`; a sync acknowledgement drains exactly the
    /// acked prefix, so a partial failure never re-sends what the cloud
    /// already absorbed.
    pending_contacts: Vec<pmware_cloud::ContactEntry>,
    /// Stream offset of the first pending contact (count acknowledged so
    /// far) — the idempotency key sent with every contact sync.
    contacts_seq_base: u64,
    /// Completed day profiles not yet accepted by the cloud (retried at
    /// every maintenance pass — an outage must not lose data).
    pending_profiles: Vec<pmware_cloud::MobilityProfile>,
    current_place: Option<PmPlaceId>,
    last_departure: Option<(PmPlaceId, SimTime)>,
    clock: SimTime,
    last_maintenance_day: Option<u64>,
    /// Number of GSM observations already shipped to the cloud for
    /// discovery; maintenance offloads only the suffix past this point
    /// (the paper's §2.3.1 "one time computation" per batch of new data).
    offloaded_upto: usize,
    metrics: PmsMetrics,
    /// Last motion state fed to the scheduler; a flip means the duty
    /// cycle changed. Not checkpointed (pure diagnostics).
    last_motion: Option<MotionState>,
}

impl<'w> PmwareMobileService<'w, &'w Itinerary> {
    /// The simulated phone every study carries: [`new`](Self::new) on a
    /// device that follows `itinerary` through `world`'s default radio
    /// environment with an HTC Explorer's energy model and device RNG
    /// `device_seed`, registered with `cloud` at [`SimTime::EPOCH`].
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] when registration fails.
    pub fn on_itinerary(
        world: &'w World,
        itinerary: &'w Itinerary,
        cloud: impl Into<CloudEndpoint>,
        config: PmsConfig,
        device_seed: u64,
    ) -> Result<Self, PmsError> {
        let env = RadioEnvironment::new(world, RadioConfig::default());
        let device = Device::new(env, itinerary, EnergyModel::htc_explorer(), device_seed);
        Self::new(device, cloud, config, SimTime::EPOCH)
    }
}

impl<'w, P: PositionProvider> PmwareMobileService<'w, P> {
    /// Creates a PMS: registers the device with the cloud at `now`
    /// (§2.2.1) and starts the clock there.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] when registration fails.
    pub fn new(
        device: Device<'w, P>,
        cloud: impl Into<CloudEndpoint>,
        config: PmsConfig,
        now: SimTime,
    ) -> Result<Self, PmsError> {
        let client = CloudClient::register(cloud, &config.imei, &config.email, now)?;
        let imei = config.imei.clone();
        let scheduler = SensingScheduler::new(config.sensing.clone());
        let movement = MovementDetector::new(MOVEMENT_WINDOW);
        let engine = InferenceEngine::new(config.inference.clone());
        Ok(PmwareMobileService {
            config,
            device,
            client,
            apps: ConnectedApps::new(),
            prefs: UserPreferences::new(),
            scheduler,
            movement,
            engine,
            registry: PlaceRegistry::new(),
            profiles: ProfileBuilder::new(),
            routes: RouteStore::new(0.5),
            peer_provider: None,
            open_encounters: BTreeMap::new(),
            pending_contacts: Vec::new(),
            contacts_seq_base: 0,
            pending_profiles: Vec::new(),
            current_place: None,
            last_departure: None,
            clock: now,
            last_maintenance_day: None,
            offloaded_upto: 0,
            metrics: PmsMetrics::resolve(Obs::new().for_actor(&imei)),
            last_motion: None,
        })
    }

    /// Serializes the durable service state — everything a device reboot
    /// must not lose. The device itself (battery, RNG) and connected apps
    /// are *not* part of the checkpoint: the device is handed back by
    /// [`shutdown`](Self::shutdown), and apps re-register on start like
    /// they do on a real phone.
    pub fn checkpoint(&self) -> PmsCheckpoint {
        PmsCheckpoint {
            client: self.client.state(),
            prefs: self.prefs.clone(),
            scheduler: self.scheduler.clone(),
            movement: self.movement.snapshot(),
            engine: self.engine.snapshot(),
            registry: self.registry.clone(),
            profiles: self.profiles.clone(),
            routes: self.routes.clone(),
            open_encounters: self.open_encounters.clone(),
            pending_contacts: self.pending_contacts.clone(),
            contacts_seq_base: self.contacts_seq_base,
            pending_profiles: self.pending_profiles.clone(),
            current_place: self.current_place,
            last_departure: self.last_departure,
            clock: self.clock,
            last_maintenance_day: self.last_maintenance_day,
            offloaded_upto: self.offloaded_upto as u64,
            counters: self.counters(),
        }
    }

    /// Stops the service and returns the device (simulated power-off).
    /// Pair with [`checkpoint`](Self::checkpoint) before the call and
    /// [`restore`](Self::restore) after to survive the reboot losslessly.
    pub fn shutdown(self) -> Device<'w, P> {
        self.device
    }

    /// Resumes a service from a checkpoint after a simulated reboot: no
    /// re-registration round-trip, the GCA engine is rebuilt by replaying
    /// the checkpointed observation log, and the online tracker resumes
    /// mid-stay. `config` must match the config the checkpoint was taken
    /// under. Connected apps must re-register; privacy preferences
    /// survive.
    pub fn restore(
        device: Device<'w, P>,
        cloud: impl Into<CloudEndpoint>,
        config: PmsConfig,
        checkpoint: PmsCheckpoint,
    ) -> Self {
        let client = CloudClient::from_state(cloud, checkpoint.client);
        // The tracker's cell→place index is rebuilt over the same live
        // place list maintenance last built it from.
        let known: Vec<DiscoveredPlace> = checkpoint
            .registry
            .active_places()
            .map(|p| {
                DiscoveredPlace::new(
                    DiscoveredPlaceId(p.id.0),
                    PlaceSignature::Cells(p.cells.clone()),
                    Vec::new(),
                )
            })
            .collect();
        let engine = InferenceEngine::restore(config.inference.clone(), checkpoint.engine, &known);
        let config_imei = config.imei.clone();
        PmwareMobileService {
            config,
            device,
            client,
            apps: ConnectedApps::new(),
            prefs: checkpoint.prefs,
            scheduler: checkpoint.scheduler,
            movement: MovementDetector::from_snapshot(checkpoint.movement),
            engine,
            registry: checkpoint.registry,
            profiles: checkpoint.profiles,
            routes: checkpoint.routes,
            peer_provider: None,
            open_encounters: checkpoint.open_encounters,
            pending_contacts: checkpoint.pending_contacts,
            contacts_seq_base: checkpoint.contacts_seq_base,
            pending_profiles: checkpoint.pending_profiles,
            current_place: checkpoint.current_place,
            last_departure: checkpoint.last_departure,
            clock: checkpoint.clock,
            last_maintenance_day: checkpoint.last_maintenance_day,
            offloaded_upto: checkpoint.offloaded_upto as usize,
            metrics: {
                let metrics = PmsMetrics::resolve(Obs::new().for_actor(&config_imei));
                metrics.seed(&checkpoint.counters);
                metrics
            },
            last_motion: None,
        }
    }

    /// Binds the service's metrics (and its device's and cloud client's)
    /// to `obs`, typically a study-wide registry. When `obs` has no
    /// registry of its own the private one is kept, so the
    /// [`counters`](Self::counters) view never goes dark.
    ///
    /// Call once, right after [`new`](Self::new) or
    /// [`restore`](Self::restore) and before the first tick: nothing but
    /// the checkpointed counters (which a restore has just seeded) and
    /// the client's registration exchange exists to move, and nothing is
    /// set downward. After a reboot, binding the same registry and actor
    /// again resolves the same cells, so every total continues.
    ///
    /// # Panics
    ///
    /// Panics on a second call, or once the service has ticked.
    pub fn set_obs(&mut self, obs: &Obs) {
        assert!(
            !self.metrics.bound && self.last_motion.is_none(),
            "set_obs runs once, before the first tick"
        );
        let mut bound = PmsMetrics::resolve(obs.clone().metrics_or(&self.metrics.obs));
        bound.seed(&self.metrics.counters());
        bound.bound = true;
        self.metrics = bound;
        self.device.set_obs(&self.metrics.obs);
        self.client.set_obs(&self.metrics.obs);
    }

    /// Registers a connected application (§2.4 steps 1–2).
    pub fn register_app(
        &mut self,
        name: impl Into<String>,
        requirement: AppRequirement,
        filter: IntentFilter,
    ) -> Receiver<Intent> {
        self.apps.register(name, requirement, filter)
    }

    /// User privacy preferences (per-app granularity caps, kill switch).
    pub fn preferences_mut(&mut self) -> &mut UserPreferences {
        &mut self.prefs
    }

    /// Installs the Bluetooth peer oracle for social discovery.
    pub fn set_peer_provider(&mut self, provider: Box<dyn PeerProvider + Send>) {
        self.peer_provider = Some(provider);
    }

    /// The live (non-retired) places PMWare currently knows.
    pub fn places(&self) -> Vec<&crate::registry::PmPlace> {
        self.registry.active_places().collect()
    }

    /// The place currently occupied, if the tracker is confident.
    pub fn current_place(&self) -> Option<PmPlaceId> {
        self.current_place
    }

    /// Labels a place (§2.2.5); synced to the cloud at the next
    /// maintenance pass. Returns whether the id exists.
    pub fn label_place(&mut self, id: PmPlaceId, label: impl Into<String>) -> bool {
        self.registry.set_label(id, label)
    }

    /// The cloud client, for analytics queries by apps or the harness.
    pub fn cloud_client_mut(&mut self) -> &mut CloudClient {
        &mut self.client
    }

    /// Battery state of the underlying device.
    pub fn battery(&self) -> &pmware_device::Battery {
        self.device.battery()
    }

    /// Canonical routes recorded so far.
    pub fn routes(&self) -> &RouteStore {
        &self.routes
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Event counters — a point-in-time view over the metrics registry.
    pub fn counters(&self) -> PmsCounters {
        self.metrics.counters()
    }

    /// Runs the main loop until `until`.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] only for registration-level failures;
    /// transient cloud errors during maintenance fall back to local
    /// computation and keep the loop alive (a phone keeps sensing when the
    /// network drops).
    pub fn run(&mut self, until: SimTime) -> Result<(), PmsError> {
        while self.clock < until {
            let t = self.clock;
            self.tick(t)?;
            self.clock = t + TICK;
        }
        Ok(())
    }

    fn tick(&mut self, t: SimTime) -> Result<(), PmsError> {
        self.device.bill_baseline(t);

        // Token refresh (§2.2.1) — an expired token would break syncs. If
        // the token was lost entirely (it expired while the cloud was
        // unreachable), fall back to re-registration, which is idempotent
        // per device identity.
        match self.client.refresh_if_needed(t, TOKEN_REFRESH_MARGIN) {
            Ok(true) => self.metrics.token_refreshes.inc(),
            Ok(false) => {}
            Err(_) => {
                let (imei, email) = (self.config.imei.clone(), self.config.email.clone());
                if self.client.reregister(&imei, &email, t).is_ok() {
                    self.metrics.token_refreshes.inc();
                }
            }
        }

        let demand = self.apps.demand_at_hour(t.hour_of_day());
        let motion = self.movement.state();
        if self.last_motion.is_some_and(|prev| prev != motion) {
            self.metrics.duty_cycle_changes.inc();
            self.metrics.obs.event(
                t,
                "pms.duty_cycle",
                &[(
                    "motion",
                    FieldValue::from(if motion.is_moving() {
                        "moving"
                    } else {
                        "stationary"
                    }),
                )],
            );
        }
        self.last_motion = Some(motion);
        let decision = self.scheduler.decide(t, demand, motion);
        let triggered = [
            decision.accel,
            decision.gsm,
            decision.wifi,
            decision.gps,
            decision.bluetooth,
        ];
        for (counter, fired) in self.metrics.sensing_triggers.iter().zip(triggered) {
            if fired {
                counter.inc();
            }
        }

        if decision.accel {
            let reading = self.device.read_accelerometer(t);
            let state = self.movement.update(reading);
            // §6 extension: daily activity summary in the mobility profile.
            self.profiles
                .on_motion(t, self.config.sensing.accel_period, state.is_moving());
        }

        if decision.gsm {
            if let Some(obs) = self.device.sample_gsm(t) {
                let events = self.engine.on_gsm(obs);
                for event in events {
                    self.handle_place_event(event, demand.route);
                }
            }
        }

        if decision.wifi {
            let scan = self.device.scan_wifi(t);
            let events = self.engine.on_wifi(scan);
            self.handle_wifi_events(&events);
        }

        if decision.gps {
            if let Some(fix) = self.device.fix_gps(t) {
                self.engine.on_gps(fix);
            }
        }

        if decision.bluetooth {
            self.bluetooth_pass(t);
        }

        // Nightly maintenance.
        let due = match self.last_maintenance_day {
            None => t.hour_of_day() >= MAINTENANCE_HOUR && t.day() > 0,
            Some(d) => t.day() > d && t.hour_of_day() >= MAINTENANCE_HOUR,
        };
        if due {
            self.maintenance(t);
            self.last_maintenance_day = Some(t.day());
        }
        Ok(())
    }

    fn handle_place_event(&mut self, event: PlaceEvent, route_mode: Option<RouteAccuracy>) {
        match event {
            PlaceEvent::Arrival { place, time } => {
                let stable = PmPlaceId(place.0);
                if self.registry.place(stable).is_none() {
                    return;
                }
                if self.current_place == Some(stable) {
                    return; // re-confirmation after a tracker rebuild
                }
                if self.current_place.is_some() {
                    // Missed departure: close it at the new arrival time.
                    self.profiles.on_departure(time);
                }
                // Close route tracking between the previous departure and
                // this arrival.
                if let Some((from, departed)) = self.last_departure.take() {
                    if from != stable || route_mode.is_some() {
                        self.record_route(from, stable, departed, time, route_mode);
                    }
                }
                self.current_place = Some(stable);
                self.registry.record_visit(stable);
                self.profiles.on_arrival(DiscoveredPlaceId(stable.0), time);
                self.metrics.arrivals.inc();
                self.metrics.obs.event(
                    time,
                    "pms.arrival",
                    &[("place", FieldValue::from(u64::from(stable.0)))],
                );
                self.broadcast_place_event(actions::PLACE_ARRIVAL, stable, time);
            }
            PlaceEvent::Departure { place, time } => {
                let stable = PmPlaceId(place.0);
                if self.current_place != Some(stable) {
                    return;
                }
                self.current_place = None;
                self.profiles.on_departure(time);
                self.last_departure = Some((stable, time));
                self.metrics.departures.inc();
                self.metrics.obs.event(
                    time,
                    "pms.departure",
                    &[("place", FieldValue::from(u64::from(stable.0)))],
                );
                self.broadcast_place_event(actions::PLACE_DEPARTURE, stable, time);
            }
        }
    }

    fn record_route(
        &mut self,
        from: PmPlaceId,
        to: PmPlaceId,
        start: SimTime,
        end: SimTime,
        mode: Option<RouteAccuracy>,
    ) {
        // High-accuracy mode prefers the GPS trace when fixes exist
        // (§2.2.2); otherwise the GSM cell sequence.
        let geometry = match mode {
            Some(RouteAccuracy::High) => gps_route(self.engine.gps_log(), start, end)
                .unwrap_or_else(|| cell_route(self.engine.gsm_log(), start, end)),
            _ => cell_route(self.engine.gsm_log(), start, end),
        };
        let observation = RouteObservation {
            from: DiscoveredPlaceId(from.0),
            to: DiscoveredPlaceId(to.0),
            start,
            end,
            geometry,
        };
        if let Some(route_id) = self.routes.record(observation) {
            self.metrics.routes.inc();
            self.profiles.on_route(route_id, start, end);
            let intent = Intent::new(
                actions::ROUTE_COMPLETED,
                end,
                json!({ "route": route_id, "from": from.0, "to": to.0 }),
            );
            self.metrics.intent_broadcasts.inc();
            self.apps.bus_mut().broadcast(&intent);
        }
    }

    fn handle_wifi_events(&mut self, events: &[WifiPlaceEvent]) {
        for event in events {
            if let WifiPlaceEvent::Departure { place, .. } = event {
                // Opportunistic augmentation (§4: "GSM data augmented with
                // opportunistic WiFi sensing"): attach the stay's AP
                // signature to the place the tracker had us at.
                let aps: Vec<_> = self
                    .engine
                    .wifi_places()
                    .iter()
                    .find(|p| p.id == *place)
                    .and_then(|p| match &p.signature {
                        PlaceSignature::WifiAps(aps) => Some(aps.iter().copied().collect()),
                        _ => None,
                    })
                    .unwrap_or_default();
                if let Some(current) = self.current_place {
                    self.registry.augment_with_wifi(current, aps);
                }
            }
        }
    }

    fn bluetooth_pass(&mut self, t: SimTime) {
        let Some(provider) = &self.peer_provider else {
            return;
        };
        let peers = provider.peers_at(t);
        let found = self.device.scan_bluetooth(t, &peers);
        let stale_after =
            SimDuration::from_seconds(self.config.sensing.bluetooth_period.as_seconds() * 2 + 60);
        for contact in found {
            let entry = self
                .open_encounters
                .entry(contact)
                .or_insert(OpenEncounter {
                    start: t,
                    last_seen: t,
                    place: self.current_place,
                });
            entry.last_seen = t;
            if entry.place.is_none() {
                entry.place = self.current_place;
            }
        }
        // Close encounters not seen recently.
        let mut closed: Vec<(String, OpenEncounter)> = Vec::new();
        self.open_encounters.retain(|contact, enc| {
            if t.since(enc.last_seen) > stale_after {
                closed.push((contact.clone(), enc.clone()));
                false
            } else {
                true
            }
        });
        for (contact, enc) in closed {
            self.finish_encounter(&contact, &enc);
        }
    }

    fn finish_encounter(&mut self, contact: &str, enc: &OpenEncounter) {
        self.metrics.encounters.inc();
        self.profiles.on_contact(
            contact,
            enc.start,
            enc.last_seen,
            enc.place.map(|p| DiscoveredPlaceId(p.0)),
        );
        self.pending_contacts.push(pmware_cloud::ContactEntry {
            contact: contact.to_owned(),
            start: enc.start,
            end: enc.last_seen,
            place: enc.place.map(|p| DiscoveredPlaceId(p.0)),
        });
        let intent = Intent::new(
            actions::SOCIAL_CONTACT,
            enc.last_seen,
            json!({
                "contact": contact,
                "place": enc.place.map(|p| p.0),
            }),
        );
        self.metrics.intent_broadcasts.inc();
        self.apps.bus_mut().broadcast(&intent);
    }

    fn broadcast_place_event(&mut self, action: &str, place: PmPlaceId, time: SimTime) {
        self.broadcast_place_event_with_history(action, place, time, &[]);
    }

    fn broadcast_place_event_with_history(
        &mut self,
        action: &str,
        place: PmPlaceId,
        time: SimTime,
        history: &[(u64, u64)],
    ) {
        let Some(info) = self.registry.place(place).cloned() else {
            return;
        };
        let requirements: HashMap<String, AppRequirement> = self
            .apps
            .iter()
            .map(|a| (a.id.0.clone(), a.requirement.clone()))
            .collect();
        let prefs = self.prefs.clone();
        self.metrics.intent_broadcasts.inc();
        self.apps.bus_mut().broadcast_with(action, |app_name| {
            let requirement = requirements.get(app_name)?;
            // Apps only hear place events inside their tracking window
            // (§2.4 step 1: "building-level granularity with a tracking
            // between 9 AM to 6 PM").
            if !requirement.active_at_hour(time.hour_of_day()) {
                return None;
            }
            let granularity = prefs.effective_granularity(app_name, requirement.granularity)?;
            let position = info.position.map(|p| coarsen_position(p, granularity));
            Some(Intent::new(
                action,
                time,
                json!({
                    "place": place.0,
                    "label": info.label,
                    "latitude": position.map(|p| p.latitude()),
                    "longitude": position.map(|p| p.longitude()),
                    "granularity": granularity.label(),
                    "visit_count": info.visit_count,
                    "history": history,
                }),
            ))
        });
    }

    /// Nightly maintenance: GCA offload (falling back to local discovery
    /// when the cloud errors), registry reconciliation, tracker rebuild,
    /// PLACE_NEW broadcasts, geolocation of new places, and profile/route
    /// syncs.
    fn maintenance(&mut self, t: SimTime) {
        self.metrics.gca_offloads.inc();
        let wire_before = self.client.wire_requests();
        // A lossy link must not let retries spin unboundedly: the whole
        // pass shares one wire budget, and work cut off by it is simply
        // retried at the next pass (all syncs are at-least-once).
        self.client.begin_maintenance_pass(MAINTENANCE_BUDGET);
        // Nightly incremental discovery, as the paper describes (§2.3.1):
        // each offload ships only the observations gathered since the last
        // *acknowledged* one, stamped with its stream offset so the cloud
        // absorbs a re-delivered suffix exactly once. The cloud folds the
        // suffix into its persistent per-user engine and replies with the
        // full accumulated place set, so every reply is authoritative —
        // there is no longer a periodic full-log compaction (and no
        // suffix-replacement data loss between compactions).
        let places: Vec<DiscoveredPlace> = match self.offload_suffix(t) {
            Ok(places) => places,
            Err(_) => {
                self.metrics.gca_local_fallbacks.inc();
                self.metrics.obs.event(t, "pms.gca_local_fallback", &[]);
                // The engine's incremental view covers the *entire*
                // local history, so the fallback is just as
                // authoritative as a cloud reply — and it costs only the
                // samples since the last fallback, not the whole log.
                self.engine.local_discover()
            }
        };
        let created = self.registry.reconcile(&places, t, RECONCILE_OVERLAP);
        // The online tracker recognises every *live* place by its
        // accumulated signature, keyed directly by stable id.
        let known: Vec<DiscoveredPlace> = self
            .registry
            .active_places()
            .map(|p| {
                DiscoveredPlace::new(
                    DiscoveredPlaceId(p.id.0),
                    PlaceSignature::Cells(p.cells.clone()),
                    Vec::new(),
                )
            })
            .collect();
        self.engine.rebuild_tracker(&known);

        // Geolocate every live place still missing a position — not just
        // this pass's creations. A place whose geolocation failed (outage,
        // budget cut, unknown signature at the time) would otherwise stay
        // position-less forever; retrying each pass heals it as soon as
        // the link recovers.
        let positionless: Vec<PmPlaceId> = self
            .registry
            .active_places()
            .filter(|p| p.position.is_none())
            .map(|p| p.id)
            .collect();
        for id in positionless {
            let cells: Vec<_> = self
                .registry
                .place(id)
                .map(|p| p.cells.iter().copied().collect())
                .unwrap_or_default();
            if let Ok(Some(position)) = self.client.geolocate_signature(&cells, t) {
                self.registry.set_position(id, position);
            }
        }

        // Announce brand-new places. The PLACE_NEW intent carries the
        // place's detected visit history (what Figure 4c's detail view
        // shows) so that apps like the life logger can render stay times
        // without having witnessed the visits live.
        for id in created {
            let history: Vec<(u64, u64)> = self
                .registry
                .place(id)
                .map(|p| {
                    p.gca_visits
                        .iter()
                        .map(|v| (v.arrival.as_seconds(), v.departure.as_seconds()))
                        .collect()
                })
                .unwrap_or_default();
            self.broadcast_place_event_with_history(actions::PLACE_NEW, id, t, &history);
        }

        // Sync finished day profiles, keeping any the cloud rejects for the
        // next pass (outage resilience: syncing is at-least-once).
        self.pending_profiles
            .extend(self.profiles.take_completed_before(t.day()));
        let mut still_pending = Vec::new();
        for profile in self.pending_profiles.drain(..) {
            if self.client.sync_profile(&profile, t).is_ok() {
                self.metrics.profiles_synced.inc();
            } else {
                still_pending.push(profile);
            }
        }
        self.pending_profiles = still_pending;

        // Sync the authoritative place snapshot (including labels) and the
        // route table.
        let snapshot: Vec<DiscoveredPlace> = self
            .registry
            .active_places()
            .map(|p| {
                let mut d = DiscoveredPlace::new(
                    DiscoveredPlaceId(p.id.0),
                    PlaceSignature::Cells(p.cells.clone()),
                    Vec::new(),
                );
                d.label = p.label.clone();
                d
            })
            .collect();
        let _ = self.client.sync_places(&snapshot, t);
        let _ = self.client.sync_routes(self.routes.routes(), t);
        self.sync_pending_contacts(t);
        self.client.end_maintenance_pass();
        self.metrics.obs.span(
            t,
            t,
            "pms.maintenance",
            &[(
                "wire_requests",
                FieldValue::from(self.client.wire_requests() - wire_before),
            )],
        );
    }

    /// Ships the whole unacknowledged GSM suffix — however many days an
    /// outage let pile up — as one delta-compressed discover request. An
    /// empty suffix still round-trips: the reply is what refreshes the
    /// authoritative place set. The watermark advances only once the
    /// cloud acknowledges, so a pass cut short by an outage or the wire
    /// budget re-sends the same suffix at the next pass.
    fn offload_suffix(&mut self, t: SimTime) -> Result<Vec<DiscoveredPlace>, PmsError> {
        let log = self.engine.gsm_log();
        let suffix = log.suffix(self.offloaded_upto);
        self.metrics
            .gca_batch_observations
            .observe(suffix.len() as u64);
        let batch = ObservationBatch::encode_log(suffix);
        let places = self
            .client
            .discover_places(batch, self.offloaded_upto as u64, t)?;
        self.offloaded_upto = log.len();
        Ok(places)
    }

    /// Ships the unacknowledged contact buffer, tagged with its stream
    /// offset, and drains exactly the prefix the cloud acknowledges. A
    /// failed sync keeps the buffer intact; a duplicated or re-sent buffer
    /// is absorbed once server-side (the offset is the idempotency key),
    /// so partial failures never duplicate social encounters.
    fn sync_pending_contacts(&mut self, t: SimTime) {
        if self.pending_contacts.is_empty() {
            return;
        }
        if let Ok(acked_upto) =
            self.client
                .sync_contacts(&self.pending_contacts, self.contacts_seq_base, t)
        {
            let acked = acked_upto.saturating_sub(self.contacts_seq_base) as usize;
            self.pending_contacts
                .drain(..acked.min(self.pending_contacts.len()));
            self.contacts_seq_base = acked_upto.max(self.contacts_seq_base);
        }
    }

    /// Ends the study at `now`: closes open stays/encounters, syncs the
    /// remaining profiles, and returns the final report.
    pub fn finish(mut self, now: SimTime) -> PmsReport {
        let open = std::mem::take(&mut self.open_encounters);
        for (contact, enc) in open {
            self.finish_encounter(&contact, &enc);
        }
        let remaining: Vec<_> = self
            .pending_profiles
            .drain(..)
            .chain(self.profiles.finish(now))
            .collect();
        for profile in remaining {
            if self.client.sync_profile(&profile, now).is_ok() {
                self.metrics.profiles_synced.inc();
            }
        }
        self.sync_pending_contacts(now);
        let battery = self.device.battery();
        PmsReport {
            places: self.registry.active_places().cloned().collect(),
            energy_joules: battery.drained_joules(),
            energy_by_interface: battery.breakdown().collect(),
            counters: self.counters(),
            intents_delivered: 0, // replaced below
        }
        .with_intents(self.apps.bus_mut().delivered_count())
    }
}

impl PmsReport {
    fn with_intents(mut self, delivered: u64) -> Self {
        self.intents_delivered = delivered;
        self
    }
}
