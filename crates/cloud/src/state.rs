//! Shared server state: per-user stores, lock shards, registry-backed
//! metrics, and the [`CloudCore`] bundle the request path and every
//! handler operate on.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Mutex, RwLock};
use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::RouteStore;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_obs::{Counter, Obs};
use pmware_world::SimTime;
use rand::rngs::StdRng;

use crate::admission::AdmissionControl;
use crate::analytics::ProfileHistory;
use crate::auth::{TokenStore, UserId};
use crate::geolocate::CellDatabase;
use crate::latency::LatencyControl;
use crate::predict::MarkovPredictor;
use crate::profile::ContactEntry;
use crate::router::{ENDPOINT_COUNT, ENDPOINT_LABELS};
use crate::storage::{StorageEngine, StoreGuard};

/// Number of per-user lock shards.
pub const SHARD_COUNT: usize = 16;

/// Per-user server-side state.
#[derive(Debug)]
pub(crate) struct UserStore {
    pub(crate) places: Vec<DiscoveredPlace>,
    pub(crate) routes: RouteStore,
    pub(crate) history: ProfileHistory,
    pub(crate) contacts: Vec<ContactEntry>,
    /// Persistent incremental discovery engine: each offload folds its
    /// suffix in instead of re-clustering (and forgetting) from scratch.
    /// Created lazily on first offload with the instance's GCA config.
    pub(crate) gca: Option<IncrementalGca>,
    /// Memoized Markov model, tagged with the [`ProfileHistory`]
    /// generation it was trained at; a profile upsert bumps the
    /// generation, which invalidates this entry on the next query.
    pub(crate) next_place: Option<(u64, MarkovPredictor)>,
    /// Observations absorbed through the sequenced discover path: a
    /// duplicated or re-sent offload whose `start` falls behind this
    /// watermark has its already-seen prefix skipped instead of being
    /// double-absorbed.
    pub(crate) absorbed_upto: u64,
    /// Contacts absorbed through the sequenced social sync; the dual of
    /// `absorbed_upto` for encounters.
    pub(crate) contacts_absorbed: u64,
    /// Highest sync sequence accepted per profile day: a stale (reordered
    /// or duplicated) upsert is ignored rather than re-applied.
    pub(crate) profile_seq: HashMap<u64, u64>,
    /// Highest sequence accepted for the places full-replacement sync.
    pub(crate) places_seq: u64,
    /// Highest sequence accepted for the routes full-replacement sync.
    pub(crate) routes_seq: u64,
}

impl Default for UserStore {
    fn default() -> Self {
        UserStore {
            places: Vec::new(),
            routes: RouteStore::new(0.5),
            history: ProfileHistory::new(),
            contacts: Vec::new(),
            gca: None,
            next_place: None,
            absorbed_upto: 0,
            contacts_absorbed: 0,
            profile_seq: HashMap::new(),
            places_seq: 0,
            routes_seq: 0,
        }
    }
}

/// Registry-backed cloud counters.
///
/// Two registries are involved on purpose. Per-**endpoint** requests,
/// idempotent-replay counts, admission denials, and the analytics cache
/// hit/miss counters bind to a study-wide shared registry via
/// `CloudInstance::with_obs`. The authenticated-request count behind
/// `CloudInstance::total_requests` stays in the instance's private
/// registry always, so binding an instance to a shared registry adds no
/// key to its exports.
#[derive(Debug)]
pub(crate) struct CloudMetrics {
    /// Private always-on registry backing `total_requests`.
    pub(crate) private: Obs,
    /// The registry aggregate metrics bind to (the shared study registry
    /// after `with_obs`, else the private one). Kept so the builders that
    /// run after `with_obs` — `with_storage` and `with_latency` — bind
    /// their handles to the same registry; an instance built without them
    /// adds none of their metric keys.
    pub(crate) shared: Obs,
    /// Requests that passed auth; requests to the public routes
    /// (registration, health) are never counted.
    pub(crate) authenticated_requests: Counter,
    /// Indexed by [`crate::router::endpoint_index`].
    pub(crate) endpoint_requests: Vec<Counter>,
    pub(crate) replay_discover: Counter,
    pub(crate) replay_places_sync: Counter,
    pub(crate) replay_routes_sync: Counter,
    pub(crate) replay_profiles_sync: Counter,
    pub(crate) replay_social_sync: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    /// Admission-control denials, per rate class (order-independent: each
    /// user's request stream is sequential, so denial counts do not race
    /// across thread schedules).
    pub(crate) admission_denied: Vec<Counter>,
}

impl CloudMetrics {
    pub(crate) fn new() -> CloudMetrics {
        let private = Obs::new().for_actor("cloud");
        Self::resolve(private.clone(), private)
    }

    pub(crate) fn resolve(private: Obs, obs: Obs) -> CloudMetrics {
        let authenticated_requests = private.counter("cloud_authenticated_requests_total", &[]);
        let endpoint_requests: Vec<Counter> = ENDPOINT_LABELS
            .iter()
            .map(|label| obs.counter("cloud_requests_total", &[("endpoint", label)]))
            .collect();
        debug_assert_eq!(endpoint_requests.len(), ENDPOINT_COUNT);
        let admission_denied = crate::router::ALL_RATE_CLASSES
            .iter()
            .map(|class| obs.counter("cloud_admission_denied_total", &[("class", class.label())]))
            .collect();
        CloudMetrics {
            shared: obs.clone(),
            authenticated_requests,
            endpoint_requests,
            replay_discover: obs.counter("cloud_replays_total", &[("endpoint", "places_discover")]),
            replay_places_sync: obs.counter("cloud_replays_total", &[("endpoint", "places_sync")]),
            replay_routes_sync: obs.counter("cloud_replays_total", &[("endpoint", "routes_sync")]),
            replay_profiles_sync: obs
                .counter("cloud_replays_total", &[("endpoint", "profiles_sync")]),
            replay_social_sync: obs.counter("cloud_replays_total", &[("endpoint", "social_sync")]),
            cache_hits: obs.counter("cloud_analytics_cache_total", &[("result", "hit")]),
            cache_misses: obs.counter("cloud_analytics_cache_total", &[("result", "miss")]),
            admission_denied,
            private,
        }
    }

    /// The admission-denial counter for a rate class.
    pub(crate) fn admission_denied(&self, class: crate::router::RateClass) -> &Counter {
        let slot = crate::router::ALL_RATE_CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("known class");
        &self.admission_denied[slot]
    }
}

/// Everything the request path and the handlers operate on, owned by
/// `CloudInstance`.
#[derive(Debug)]
pub(crate) struct CloudCore {
    pub(crate) tokens: RwLock<TokenStore>,
    /// The storage engine every `UserStore` access flows through: the
    /// sharded resident maps plus (when configured) the WAL, snapshots,
    /// and the LRU residency manager. See [`crate::storage`].
    pub(crate) storage: StorageEngine,
    pub(crate) cells: CellDatabase,
    /// The parameters every user's discovery engine runs under.
    pub(crate) gca_config: GcaConfig,
    pub(crate) rng: Mutex<StdRng>,
    pub(crate) outage: AtomicBool,
    /// Per-user token buckets (see [`crate::admission`]); `None` admits
    /// every request.
    pub(crate) admission: Option<AdmissionControl>,
    /// The sim-time latency model: per-endpoint service draws, queueing,
    /// and load shedding (see [`crate::latency`]); `None` times nothing.
    pub(crate) latency: Option<LatencyControl>,
    pub(crate) metrics: CloudMetrics,
    /// Users whose state has been migrated to another instance during a
    /// federation failover. The relocation gate answers their
    /// authenticated requests with 421 so the federated endpoint refreshes
    /// its topology instead of mutating abandoned state. A user re-adopted
    /// by this instance (fail-back) is removed from the set.
    pub(crate) relocated: RwLock<HashSet<UserId>>,
}

impl CloudCore {
    /// Whether an outage is currently injected.
    pub(crate) fn outage(&self) -> bool {
        self.outage.load(Ordering::SeqCst)
    }

    /// The latency model's `(queue depth, p99 µs)` at `now`; `(0, 0)`
    /// without a model.
    pub(crate) fn health_stats(&self, now: SimTime) -> (u64, u64) {
        self.latency
            .as_ref()
            .map_or((0, 0), |latency| latency.health_stats(now))
    }

    /// The per-user store at simulated instant `now`, created (or
    /// hydrated from its parked snapshot) if not resident. The guard pins
    /// the user against eviction while held.
    pub(crate) fn store_at(&self, user: UserId, now: SimTime) -> StoreGuard {
        self.storage.acquire(user, now, &self.gca_config)
    }

    /// [`CloudCore::store_at`] stamped with the engine's last-seen
    /// clock — the accessor-path spelling for callers that carry no
    /// simulated instant of their own.
    pub(crate) fn store_of(&self, user: UserId) -> StoreGuard {
        self.store_at(user, self.storage.clock_now())
    }
}
