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
//! * **state** — a `CloudCore` (token store, user shards, cell
//!   database, GCA config, metrics). Its
//!   configuration is fixed at construction, like a deployed service's;
//! * **the request path** — [`CloudInstance::handle`] resolves the route
//!   once and, on a route that is not public, validates the caller once,
//!   runs the gates (request metrics → auth → authenticated-request
//!   count) as plain checks, and hands the request
//!   to the route-table dispatcher ([`crate::router`]);
//! * **construction and accessors** — builders (`with_obs` first, then
//!   `with_storage`) plus the snapshot views tests and
//!   benches read.
//!
//! Concurrency model: per-user state lives in [`SHARD_COUNT`] lock
//! shards keyed by `UserId`, the token registry is behind a read-write
//! lock (validation — once per request — takes the read side), the cell
//! database is immutable, and the token RNG sits behind a small mutex.
//! All methods take `&self`; [`SharedCloud`] is the cheap cloneable
//! handle clients hold.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use pmware_algorithms::gca::GcaConfig;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_obs::Obs;
use pmware_world::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{Request, Response};
use crate::auth::{TokenStore, UserId};
use crate::geolocate::CellDatabase;
use crate::profile::{ContactEntry, MobilityProfile};
use crate::router::{self, Resolution, RouteAuth};
use crate::state::{CloudCore, CloudMetrics};
use crate::storage::{StorageConfig, StorageEngine};

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
/// use pmware_cloud::{CellDatabase, CloudInstance, Payload, RegistrationBody, Request};
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
/// assert!(matches!(resp.body, Payload::Registered { .. }));
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
                metrics: CloudMetrics::new(),
            },
        }
    }

    /// Binds the instance's aggregate counters (per-endpoint requests,
    /// replay counts, analytics cache hits) to `obs`.
    /// The authenticated-request count stays private to the cloud's
    /// state module. The first builder, on a fresh instance:
    ///
    /// ```
    /// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
    /// use pmware_obs::Obs;
    ///
    /// let obs = Obs::new();
    /// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1).with_obs(&obs));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics once the instance has served a request or been given a
    /// storage engine: nothing recorded so far is carried over, and the
    /// storage builder binds its own handles to the registry it finds.
    pub fn with_obs(mut self, obs: &Obs) -> CloudInstance {
        let core = &mut self.core;
        assert!(
            core.metrics.endpoint_requests.iter().all(|c| c.get() == 0)
                && !core.storage.is_enabled(),
            "with_obs runs first, on a fresh instance"
        );
        let private = core.metrics.private.clone();
        let obs = obs.clone().metrics_or(&private);
        core.metrics = CloudMetrics::resolve(private, obs);
        self
    }

    /// Runs the storage engine with `config` for the instance's whole
    /// lifetime, as a builder on a fresh instance: LRU residency under
    /// `resident_cap`, the durable WAL and on-disk snapshots under
    /// `store_dir`, and the day-cadence snapshot+compaction sweep. Binds
    /// the `cloud_store_resident_users` gauge and the eviction/hydration
    /// counters to the instance's registry — call after
    /// [`CloudInstance::with_obs`]. Without it (the default) the instance
    /// keeps every user in the plain in-RAM store map.
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
            let grants = crate::storage::wal::replay_session(&records, |request| {
                let response = instance.handle(request, now);
                if let crate::payload::Payload::Registered { user, .. } = response.body {
                    registered = Some(user);
                }
            });
            if let Some(user) = registered {
                instance.core.storage.rebind_recovered(user, &key);
                for (token, expires_at) in grants {
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

    /// Handles one request at simulated instant `now` — the single entry
    /// point, exactly like an HTTP dispatcher. The route is resolved once
    /// and counted; a public route then dispatches at once. Elsewhere the
    /// bearer token is validated once and the gates answer in a fixed
    /// order (see DESIGN.md §5f):
    ///
    /// 1. the endpoint counter;
    /// 2. auth: 401 before 404/405, so a probe learns nothing;
    /// 3. the authenticated-request count, then dispatch.
    pub fn handle(&self, request: &Request, now: SimTime) -> Response {
        let core = &self.core;
        // Storage-engine clock tick (accessor-path LRU stamps) and the
        // day-cadence compaction hook; one atomic store without a durable
        // storage config.
        core.storage.tick(now);
        let resolution = router::resolve(request.method, &request.path);
        // Counted above auth: rejected requests cost the server work too.
        core.metrics.endpoint_requests[resolution.endpoint()].inc();
        if let Resolution::Matched { route, .. } = resolution {
            if route.auth == RouteAuth::Public {
                return router::dispatch(core, resolution, None, request, now);
            }
        }
        let user = request
            .token
            .as_deref()
            .and_then(|token| core.tokens.read().validate(token, now));
        let Some(user) = user else {
            return Response::unauthorized(match request.token {
                None => "missing bearer token",
                Some(_) => "invalid or expired token",
            });
        };
        core.metrics.authenticated_requests.inc();
        router::dispatch(core, resolution, Some(user), request, now)
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
