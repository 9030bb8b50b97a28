//! The cloud instance: one request path over shared state.
//!
//! §2.3 of the paper: the cloud instance *"is responsible for storing and
//! managing long-term human mobility patterns, helping mobile service in
//! place/route discovery process, as well as performing advanced analytics
//! and prediction operations"*. The authors ran it as a Django/Apache
//! service on Windows Azure; here it is an in-process server speaking the
//! same REST/JSON shape.
//!
//! [`CloudInstance`] contains no endpoint logic. It is:
//!
//! * **state** — a [`CloudCore`] (token store, user shards, cell
//!   database, GCA config, admission controller, metrics). The GCA
//!   config and the storage engine are fixed at construction;
//! * **the request path** — [`CloudInstance::handle`] resolves the route
//!   and validates the caller once, runs the gates (outage → request
//!   metrics → latency queue → admission control → auth → relocation →
//!   authenticated-request count) as plain checks over that one
//!   context, and hands the request to the route-table dispatcher
//!   ([`crate::router`]);
//! * **construction and accessors** — builders (`with_obs`,
//!   `with_storage`, `with_admission`, `with_latency`) plus the snapshot
//!   views tests and benches read.
//!
//! Concurrency model: per-user state lives in [`SHARD_COUNT`] lock
//! shards keyed by `UserId`, the token registry is behind a read-write
//! lock (validation — once per request — takes the read side), the cell
//! database is immutable, and the outage flag and token RNG use an atomic
//! and a small mutex. All methods take `&self`; [`SharedCloud`] is the
//! cheap cloneable handle clients hold.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use pmware_algorithms::gca::GcaConfig;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_obs::Obs;
use pmware_world::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::admission::{Admission, AdmissionConfig, AdmissionControl};
use crate::api::{Request, Response};
use crate::auth::{DeviceIdentity, TokenStore, UserId};
use crate::geolocate::CellDatabase;
use crate::latency::{LatencyProfile, QueueOutcome};
use crate::profile::{ContactEntry, MobilityProfile};
use crate::router::{self, RateClass, Resolution, Route, RouteAuth};
use crate::state::{CloudCore, CloudMetrics};
use crate::storage::{StorageConfig, StorageEngine};
use crate::transport::STATUS_MISDIRECTED;

pub use crate::state::SHARD_COUNT;

/// The PMWare cloud instance (PCI).
///
/// All methods take `&self`: the instance synchronizes internally (see the
/// module docs) and can be driven from many threads at once through
/// [`SharedCloud`].
///
/// # Examples
///
/// ```
/// use pmware_cloud::{CellDatabase, CloudInstance, RegistrationBody, Request};
/// use pmware_world::SimTime;
///
/// let cloud = CloudInstance::new(CellDatabase::new(), 1);
/// let req = Request::post(
///     "/api/v1/registration",
///     RegistrationBody {
///         imei: "350123".into(),
///         email: "a@example.com".into(),
///     },
/// );
/// let resp = cloud.handle(&req, SimTime::EPOCH);
/// assert!(resp.is_success());
/// assert!(resp.json()["token"].is_string());
/// ```
#[derive(Debug)]
pub struct CloudInstance {
    core: CloudCore,
}

/// Cloneable, thread-safe handle to a [`CloudInstance`].
///
/// Derefs to the instance, so every `CloudInstance` method is available on
/// the handle directly:
///
/// ```
/// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
///
/// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 7));
/// let for_thread = cloud.clone(); // same instance, cheap to clone
/// assert_eq!(cloud.user_count(), 0);
/// assert_eq!(for_thread.user_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SharedCloud(Arc<CloudInstance>);

impl SharedCloud {
    /// Wraps an instance into a shareable handle.
    pub fn new(instance: CloudInstance) -> Self {
        SharedCloud(Arc::new(instance))
    }
}

impl From<CloudInstance> for SharedCloud {
    fn from(instance: CloudInstance) -> Self {
        SharedCloud::new(instance)
    }
}

impl std::ops::Deref for SharedCloud {
    type Target = CloudInstance;

    fn deref(&self) -> &CloudInstance {
        &self.0
    }
}

impl CloudInstance {
    /// Creates an instance with a 24-hour token TTL.
    pub fn new(cells: CellDatabase, seed: u64) -> Self {
        CloudInstance {
            core: CloudCore {
                tokens: RwLock::new(TokenStore::new(SimDuration::from_hours(24))),
                storage: StorageEngine::new(),
                cells,
                gca_config: GcaConfig::default(),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                outage: AtomicBool::new(false),
                admission: Default::default(),
                latency: Default::default(),
                metrics: CloudMetrics::new(),
                relocated: RwLock::new(HashSet::new()),
            },
        }
    }

    /// Binds the instance's aggregate counters (per-endpoint requests,
    /// replay counts, analytics cache hits, admission denials) to `obs`,
    /// carrying anything already recorded. The authenticated-request count
    /// stays private — see [`crate::state`]. A builder, meant to run
    /// before the instance is wrapped in a [`SharedCloud`]:
    ///
    /// ```
    /// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
    /// use pmware_obs::Obs;
    ///
    /// let obs = Obs::new();
    /// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1).with_obs(&obs));
    /// ```
    pub fn with_obs(mut self, obs: &Obs) -> CloudInstance {
        let core = &mut self.core;
        let private = core.metrics.private.clone();
        let obs = obs.clone().metrics_or(&private);
        let previous = std::mem::replace(&mut core.metrics, CloudMetrics::resolve(private, obs));
        for (new, old) in core
            .metrics
            .endpoint_requests
            .iter()
            .zip(previous.endpoint_requests.iter())
            .chain(
                core.metrics
                    .admission_denied
                    .iter()
                    .zip(previous.admission_denied.iter()),
            )
        {
            let v = old.get();
            if v > 0 {
                new.set(v);
            }
        }
        for (new, old) in [
            (&core.metrics.replay_discover, &previous.replay_discover),
            (
                &core.metrics.replay_places_sync,
                &previous.replay_places_sync,
            ),
            (
                &core.metrics.replay_routes_sync,
                &previous.replay_routes_sync,
            ),
            (
                &core.metrics.replay_profiles_sync,
                &previous.replay_profiles_sync,
            ),
            (
                &core.metrics.replay_social_sync,
                &previous.replay_social_sync,
            ),
            (&core.metrics.cache_hits, &previous.cache_hits),
            (&core.metrics.cache_misses, &previous.cache_misses),
        ] {
            let v = old.get();
            if v > 0 {
                new.set(v);
            }
        }
        self
    }

    /// Enables the deterministic admission controller with `config`, as a
    /// builder. Off by default; see [`CloudInstance::set_admission`].
    pub fn with_admission(self, config: AdmissionConfig) -> CloudInstance {
        self.set_admission(Some(config));
        self
    }

    /// Enables the sim-time latency model with `profile`, as a builder.
    /// Off by default; see [`CloudInstance::set_latency`].
    pub fn with_latency(self, profile: LatencyProfile) -> CloudInstance {
        self.set_latency(Some(profile));
        self
    }

    /// Runs the storage engine with `config` for the instance's whole
    /// lifetime, as a builder on a fresh instance: LRU residency under
    /// `resident_cap`, the durable WAL and on-disk snapshots under
    /// `store_dir`, and the day-cadence snapshot+compaction sweep. Binds
    /// the `cloud_store_resident_users` gauge and the eviction/hydration
    /// counters to the instance's registry — call after
    /// [`CloudInstance::with_obs`] so they land in the shared one.
    /// Without it (the default) the instance keeps every user in the
    /// plain in-RAM store map.
    pub fn with_storage(mut self, config: StorageConfig) -> CloudInstance {
        debug_assert_eq!(
            self.resident_users(),
            0,
            "storage is set before any request"
        );
        self.core.storage = StorageEngine::with_config(config, &self.core.metrics.shared);
        self
    }

    /// Rebuilds an instance from a durable store directory after a crash.
    ///
    /// `config.store_dir` must point at the directory a previous
    /// durable-mode instance wrote. The WAL shard files and parked
    /// snapshots are loaded, every logged registration is replayed (in
    /// identity-key order) to re-mint users and auth state, and the
    /// tokens the dead instance issued are re-adopted so clients' live
    /// sessions keep validating. User *stores* are not rebuilt eagerly:
    /// each hydrates on first touch from its snapshot plus the WAL suffix
    /// — recovery cost is O(users) registrations, not O(history).
    pub fn recover(
        cells: CellDatabase,
        seed: u64,
        config: StorageConfig,
        now: SimTime,
    ) -> CloudInstance {
        let instance = CloudInstance::new(cells, seed).with_storage(config);
        instance.core.storage.load_dir();
        instance.core.storage.set_replaying(true);
        let mut adoptions: Vec<(UserId, String, SimTime)> = Vec::new();
        for key in instance.core.storage.recovery_keys() {
            let records = instance.core.storage.records_of(&key);
            let mut registered: Option<UserId> = None;
            let summary = crate::storage::wal::replay_session(
                &records,
                |request| {
                    let response = instance.handle(request, now);
                    if let crate::payload::Payload::Registered { user, .. } = &response.body {
                        registered = Some(*user);
                    }
                    response
                },
                // Skip every non-registration record: stores hydrate
                // lazily from snapshot + WAL suffix on first touch.
                u64::MAX,
                |_, _| {},
            );
            if let Some(user) = registered {
                instance.core.storage.rebind_recovered(user, &key);
                for (token, expires_at) in summary.grants {
                    adoptions.push((user, token, expires_at));
                }
            }
        }
        instance.core.storage.set_replaying(false);
        // Graft the logged token grants only after *every* key has
        // replayed: replayed registrations re-mint from the original
        // seed, so a mint later in the loop can reproduce the very token
        // string a grant already bound — grants must have the last word.
        {
            let mut tokens = instance.core.tokens.write();
            for (user, token, expires_at) in adoptions {
                tokens.adopt(user, &token, expires_at);
            }
        }
        instance
    }

    /// Stores currently resident in RAM (all touched users on an instance
    /// built without [`CloudInstance::with_storage`]).
    pub fn resident_users(&self) -> usize {
        self.core.storage.resident_users()
    }

    /// Whether `user`'s store is resident in RAM (as opposed to parked in
    /// a snapshot). Always true for a touched user on an instance built
    /// without [`CloudInstance::with_storage`].
    pub fn is_resident(&self, user: UserId) -> bool {
        self.core.storage.is_resident(user)
    }

    /// Users evicted to snapshots so far.
    pub fn eviction_count(&self) -> u64 {
        self.core.storage.eviction_count()
    }

    /// Stores hydrated from snapshots/WAL so far.
    pub fn hydration_count(&self) -> u64 {
        self.core.storage.hydration_count()
    }

    /// Enables (`Some`) or disables (`None`) the sim-time latency model
    /// at runtime. Enabling resets all queues and binds the
    /// `cloud_request_latency_us{endpoint,class}` histograms and the
    /// `cloud_queue_shed_total` counter to the instance's registry — call
    /// after [`CloudInstance::with_obs`] so they land in the shared one.
    /// Disabled (the default) the model adds zero metric keys and zero
    /// cost beyond one atomic load per request.
    pub fn set_latency(&self, profile: Option<LatencyProfile>) {
        match profile {
            Some(profile) => self.core.latency.enable(profile, &self.core.metrics.shared),
            None => self.core.latency.disable(),
        }
    }

    /// The instance's current queue depth (admitted, unfinished requests)
    /// at simulated instant `now`; 0 while the latency model is disabled.
    pub fn queue_depth(&self, now: SimTime) -> u64 {
        self.core.latency.health_stats(now).0
    }

    /// Requests shed by the latency queue so far.
    pub fn queue_shed_count(&self) -> u64 {
        self.core.latency.shed_count()
    }

    /// Enables (`Some`) or disables (`None`) admission control at
    /// runtime. Enabling resets all token buckets; requests over budget
    /// are answered 429 with a `retry_after_s` hint.
    pub fn set_admission(&self, config: Option<AdmissionConfig>) {
        match config {
            Some(config) => self.core.admission.enable(config),
            None => self.core.admission.disable(),
        }
    }

    /// Fault injection for tests and resilience experiments: while an
    /// outage is active every request fails with 503, as if the Azure
    /// instance were unreachable. The phone must keep working (§2.3.1's
    /// offload has a local fallback).
    pub fn set_outage(&self, outage: bool) {
        self.core.outage.store(outage, Ordering::SeqCst);
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.core.tokens.read().user_count()
    }

    /// Authenticated requests handled so far.
    ///
    /// Unauthenticated `/api/v1/registration` requests are **not** counted
    /// here; since they still cost the server work, they are counted in
    /// the metrics registry under
    /// `cloud_requests_total{endpoint="register"}`.
    pub fn total_requests(&self) -> u64 {
        self.core.metrics.authenticated_requests.get()
    }

    /// Admission-control denials so far, summed over rate classes.
    pub fn admission_denials(&self) -> u64 {
        self.core
            .metrics
            .admission_denied
            .iter()
            .map(|c| c.get())
            .sum()
    }

    /// Observations held by `user`'s discovery engine. The chaos suite's
    /// duplicate-absorb invariant: this never exceeds the client's own
    /// GSM log length, no matter how often offloads are retried,
    /// duplicated, or reordered.
    pub fn observation_count(&self, user: UserId) -> usize {
        let store = self.core.store_of(user);
        let store = store.lock();
        store
            .gca
            .as_ref()
            .map_or(0, |engine| engine.observation_count())
    }

    /// Social encounters stored for `user` — the dual invariant for
    /// contacts (each encounter is absorbed exactly once).
    pub fn contact_count(&self, user: UserId) -> usize {
        self.core.store_of(user).lock().contacts.len()
    }

    /// Snapshot of `user`'s stored contacts.
    pub fn contacts_of(&self, user: UserId) -> Vec<ContactEntry> {
        self.core.store_of(user).lock().contacts.clone()
    }

    /// Snapshot of `user`'s stored places.
    pub fn places_of(&self, user: UserId) -> Vec<DiscoveredPlace> {
        self.core.store_of(user).lock().places.clone()
    }

    /// Snapshot of `user`'s stored day profiles, ordered by day.
    pub fn profiles_of(&self, user: UserId) -> Vec<MobilityProfile> {
        let store = self.core.store_of(user);
        let store = store.lock();
        store.history.iter().cloned().collect()
    }

    /// Marks `user`'s state as migrated away: the relocation gate will
    /// answer their authenticated requests with
    /// [`crate::STATUS_MISDIRECTED`] until (if ever) the user is adopted
    /// back. Driven by the federation [`crate::topology::TopologyRouter`]
    /// at failover/drain time.
    pub fn mark_relocated(&self, user: UserId) {
        self.core.relocated.write().insert(user);
    }

    /// Transplants a live client session onto this instance after a
    /// migration replay: looks up the user the replayed WAL registered
    /// under `identity`, grafts the client's current `token` onto it, and
    /// clears any relocation mark (fail-back). Returns the local
    /// [`UserId`] now answering for the session, or `None` if no replay
    /// registered the identity here.
    pub fn adopt_session(
        &self,
        identity: &DeviceIdentity,
        token: &str,
        expires_at: SimTime,
    ) -> Option<UserId> {
        let user = {
            let mut tokens = self.core.tokens.write();
            let user = tokens.user_of(identity)?;
            tokens.adopt(user, token, expires_at);
            user
        };
        self.core.relocated.write().remove(&user);
        Some(user)
    }

    /// Handles one request at simulated instant `now` — the single entry
    /// point, exactly like an HTTP dispatcher. The route and the caller
    /// are worked out once; the gates then answer in a fixed order (see
    /// DESIGN.md §5f):
    ///
    /// 1. outage: 503 before anything is counted;
    /// 2. the endpoint counter, and in bench builds the wall-clock timer
    ///    around everything below;
    /// 3. the latency queue: a shed answers 429 before admission can
    ///    spend a token on a request that was never served;
    /// 4. admission control, for validated callers on bearer routes;
    /// 5. auth: 401 before 404/405, so a probe learns nothing;
    /// 6. relocation: 421 for a caller whose state moved away;
    /// 7. the authenticated-request count, then dispatch.
    pub fn handle(&self, request: &Request, now: SimTime) -> Response {
        let core = &self.core;
        // Storage-engine clock tick (accessor-path LRU stamps) and the
        // day-cadence compaction hook; one atomic store without a durable
        // storage config.
        core.storage.tick(now);
        if core.outage() {
            return Response::error(503, "service unavailable");
        }
        let ctx = RequestContext::new(core, request, now);
        // Counted above admission and auth: shed and rejected requests
        // cost the server work too.
        core.metrics.endpoint_requests[ctx.endpoint].inc();
        #[cfg(feature = "wallclock")]
        let timer = pmware_obs::profiling::WallTimer::start();
        let response = match core.latency.process(ctx.endpoint, ctx.user, now) {
            QueueOutcome::Pass => self.serve(&ctx, request, now),
            QueueOutcome::Timed {
                queue_us,
                service_us,
            } => self
                .serve(&ctx, request, now)
                .with_latency(queue_us, service_us),
            QueueOutcome::Shed { retry_after } => {
                let class = ctx
                    .route()
                    .map_or(RateClass::Query, |route| route.rate_class);
                AdmissionControl::deny_response(class, retry_after)
            }
        };
        #[cfg(feature = "wallclock")]
        timer.record(&core.metrics.endpoint_nanos[ctx.endpoint]);
        response
    }

    /// The gates below the latency queue, then dispatch.
    fn serve(&self, ctx: &RequestContext, request: &Request, now: SimTime) -> Response {
        let core = &self.core;
        let route = ctx.route();
        if route.is_some_and(|route| route.auth == RouteAuth::Public) {
            return router::dispatch(core, ctx.resolution, None, request, now);
        }
        // Admission buckets are keyed by the validated caller, so an
        // invalid or expired token passes through to the 401 below.
        if let (Some(route), Some(user)) = (route, ctx.user) {
            if let Admission::Deny { retry_after } =
                core.admission.admit(user, route.rate_class, now)
            {
                core.metrics.admission_denied(route.rate_class).inc();
                return AdmissionControl::deny_response(route.rate_class, retry_after);
            }
        }
        let Some(user) = ctx.user else {
            return Response::unauthorized(match request.token {
                None => "missing bearer token",
                Some(_) => "invalid or expired token",
            });
        };
        if core.relocated.read().contains(&user) {
            return Response::error(STATUS_MISDIRECTED, "user relocated to another instance");
        }
        core.metrics.authenticated_requests.inc();
        router::dispatch(core, ctx.resolution, Some(user), request, now)
    }
}

/// What the gates need to know about one request, worked out once: the
/// route-table resolution, its endpoint metric index, and the validated
/// caller (on public routes too, so the latency queue can place a
/// registration that carries a live token in its user's lane).
struct RequestContext {
    resolution: Resolution,
    endpoint: usize,
    user: Option<UserId>,
}

impl RequestContext {
    fn new(core: &CloudCore, request: &Request, now: SimTime) -> RequestContext {
        let resolution = router::resolve(request.method, &request.path);
        let user = request
            .token
            .as_deref()
            .and_then(|token| core.tokens.read().validate(token, now));
        RequestContext {
            resolution,
            endpoint: resolution.endpoint(),
            user,
        }
    }

    fn route(&self) -> Option<&'static Route> {
        match self.resolution {
            Resolution::Matched { route, .. } => Some(route),
            _ => None,
        }
    }
}

// The once-empty ProfileHistory fallback of earlier revisions is gone:
// `store_of` creates a (default) store on first touch, so analytics
// endpoints always have a history to read.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CloudInstance>();
    assert_send_sync::<SharedCloud>();
};
