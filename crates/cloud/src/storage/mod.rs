//! The cloud storage engine: WAL, compacted snapshots, LRU residency.
//!
//! Every [`UserStore`] access in the cloud flows through this subsystem
//! (enforced by `make lint-storage`). An instance built without a
//! [`StorageConfig`] — the default — gets the plain sharded in-RAM map.
//! One built with a config (`CloudInstance::with_storage`, fixed for the
//! instance's lifetime) adds, in composable pieces:
//!
//! * **Residency cap** (`resident_cap`): at most K stores live in RAM.
//!   Acquiring a non-resident user hydrates it (from snapshot + WAL
//!   suffix); exceeding the cap evicts the deterministic sim-time-LRU
//!   victim (oldest access stamp, user-id tie-break) to a compacted
//!   snapshot. Pins held by in-flight [`StoreGuard`]s shield a store from
//!   eviction, so the cap is soft under extreme concurrent pinning.
//! * **Durability** (`store_dir`): every successful mutating request is
//!   appended to a per-shard WAL file of checksummed binary frames
//!   (`wal-NN.bin`, layout in [`wal`]) before the response is returned to
//!   the transport, snapshots park on disk instead of RAM, and
//!   [`StorageEngine::load_dir`] + registration replay rebuild the exact
//!   instance after a crash ([`crate::instance::CloudInstance::recover`]).
//! * **Compaction** (`snapshot_every_days`): on a sim-day cadence the
//!   engine refreshes every resident user's snapshot, drops WAL records
//!   the snapshots cover (registrations and token grants are exempt — they
//!   rebuild the auth registry, which snapshots do not capture), and
//!   rewrites the shard files.
//!
//! Failed writes are counted, not dropped: `storage_wal_write_errors_total`
//! and `storage_snapshot_write_errors_total`. Recovery reads each shard's
//! frames in order and stops a shard at its first bad frame, counting
//! `storage_recovery_errors_total{reason=…}`: `torn_tail` (the file ends
//! inside a frame), `corrupt` (a length check, checksum or body fails, or
//! the file cannot be read) or `legacy_jsonl` (a JSONL shard of the old
//! format, which is not read).
//!
//! Lock order, engine-wide: residency mutex → shard `RwLock` → store
//! mutex → WAL mutex → snapshot-store mutex. [`StoreGuard::drop`]
//! takes the residency mutex, which is safe because the store mutex a
//! guard hands out is always released before the guard itself drops
//! (later bindings and later temporaries drop first).
//!
//! Determinism: without a config, behavior is byte-identical to the
//! pre-engine cloud. With one, the *final* state is schedule-
//! independent (hydration restores exactly what eviction parked), while
//! eviction/hydration *counter values* are deterministic under
//! single-threaded driving — the same caveat as the shared-queue latency
//! mode.

pub(crate) mod apply;
#[cfg(test)]
mod crash_points;
pub(crate) mod residency;
pub(crate) mod snapshot;
pub(crate) mod wal;

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use pmware_algorithms::gca::GcaConfig;
use pmware_obs::{Counter, FieldValue, Gauge, Obs, SpanSink};
use pmware_world::SimTime;

use crate::api::{Request, Response};
use crate::auth::UserId;
use crate::payload::{Payload, RegistrationBody, RequestBody};
use crate::state::{UserStore, SHARD_COUNT};

use residency::{ResidencyState, Shard};
use snapshot::{Parked, SnapshotStore};
use wal::{FrameError, WalLog, WalOp, WalRecord};

/// FNV-1a (64-bit) over `bytes`: the one hash behind WAL shard indexes,
/// snapshot file names, WAL frame checksums and the federation ring's
/// placement. Deterministic across runs and platforms.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The device identity key user state is logged, snapshotted, and placed
/// under — shared by the storage engine and the federation topology.
pub(crate) fn identity_key(imei: &str, email: &str) -> String {
    format!("{imei}|{email}")
}

/// The identity key of a user the WAL never saw register (tests and
/// benches that talk to stores directly).
fn fallback_key(user: UserId) -> String {
    format!("uid:{:08}", user.0)
}

/// The counter of shards recovery could not read to the end, labelled by
/// `reason`.
const RECOVERY_ERRORS: &str = "storage_recovery_errors_total";

/// Storage engine configuration. All pieces are optional and composable;
/// `StorageConfig::default()` (no cap, no directory) enables the engine
/// bookkeeping without changing retention.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Maximum stores resident in RAM; `None` = unbounded (no eviction).
    pub resident_cap: Option<usize>,
    /// Durability directory for the WAL and parked snapshots; `None`
    /// keeps everything in memory (a crash loses state, as before).
    pub store_dir: Option<PathBuf>,
    /// Sim-day cadence of the snapshot+compaction sweep in durable mode;
    /// `0` disables periodic compaction (eviction still compacts).
    pub snapshot_every_days: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            resident_cap: None,
            store_dir: None,
            snapshot_every_days: 7,
        }
    }
}

/// Residency and failure metrics and the span sink, bound at
/// construction when a config is given (without one, the engine adds
/// zero metric keys).
#[derive(Debug)]
struct StorageMetrics {
    evictions: Counter,
    hydrations: Counter,
    resident: Gauge,
    /// WAL appends and shard rewrites that did not reach the file.
    wal_write_errors: Counter,
    /// Snapshot files that could not be written.
    snapshot_write_errors: Counter,
    /// Shards whose last frame was cut short (`reason="torn_tail"`).
    recovery_torn_tail: Counter,
    /// Shards stopped at a damaged frame, or unreadable
    /// (`reason="corrupt"`).
    recovery_corrupt: Counter,
    /// Old-format JSONL shard files left unread (`reason="legacy_jsonl"`).
    recovery_legacy: Counter,
    spans: Option<Arc<SpanSink>>,
}

impl Default for StorageMetrics {
    fn default() -> StorageMetrics {
        StorageMetrics {
            evictions: Counter::noop(),
            hydrations: Counter::noop(),
            resident: Gauge::noop(),
            wal_write_errors: Counter::noop(),
            snapshot_write_errors: Counter::noop(),
            recovery_torn_tail: Counter::noop(),
            recovery_corrupt: Counter::noop(),
            recovery_legacy: Counter::noop(),
            spans: None,
        }
    }
}

/// The path of WAL shard file `idx`.
fn shard_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("wal-{idx:02}.bin"))
}

/// Cuts a damaged shard file back to its first `good` bytes (its whole
/// frames), first copying the damaged file aside as `<file>.corrupt`
/// when `keep_aside`.
fn cut_back(path: &Path, good: usize, keep_aside: bool) -> io::Result<()> {
    if keep_aside {
        fs::copy(path, path.with_extension("bin.corrupt"))?;
    }
    fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(good as u64)
}

/// The durable half of the WAL: the in-memory log plus lazily opened
/// per-shard frame appenders.
#[derive(Debug)]
struct WalState {
    log: WalLog,
    dir: Option<PathBuf>,
    files: Vec<Option<fs::File>>,
}

impl WalState {
    /// The shard file index a key's records land in. Decoupled from the
    /// user-id shard mapping on purpose: keys are stable identity
    /// strings, user ids are assigned in registration order.
    fn file_index(key: &str) -> usize {
        (fnv1a(key.as_bytes()) % SHARD_COUNT as u64) as usize
    }

    /// Appends one record to its shard file as a single `write_all` of
    /// one frame (durable mode only).
    fn persist(&mut self, record: &WalRecord) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let frame = record.to_frame().map_err(io::Error::other)?;
        let idx = Self::file_index(&record.key);
        let file = match self.files[idx].take() {
            Some(file) => file,
            None => fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(shard_path(dir, idx))?,
        };
        self.files[idx].insert(file).write_all(&frame)
    }

    /// Rewrites every shard file from the (compacted) in-memory log,
    /// atomically per file (write-then-rename). Returns the number of
    /// failures: records that do not frame and shards not replaced.
    fn rewrite_files(&mut self) -> u64 {
        let Some(dir) = self.dir.clone() else {
            return 0;
        };
        let mut failures = 0;
        let mut shards: Vec<Vec<u8>> = vec![Vec::new(); SHARD_COUNT];
        for record in self.log.all_records() {
            match record.to_frame() {
                Ok(frame) => shards[Self::file_index(&record.key)].extend_from_slice(&frame),
                Err(_) => failures += 1,
            }
        }
        for (idx, content) in shards.iter().enumerate() {
            let path = shard_path(&dir, idx);
            let tmp = path.with_extension("bin.tmp");
            // Drop the open appender before replacing the file under it.
            self.files[idx] = None;
            if fs::write(&tmp, content)
                .and_then(|()| fs::rename(&tmp, &path))
                .is_err()
            {
                failures += 1;
            }
        }
        failures
    }
}

/// Everything the engine owns, shared between the core and outstanding
/// [`StoreGuard`] pins.
#[derive(Debug)]
pub(crate) struct EngineInner {
    /// `None`: the plain in-RAM map, with no residency bookkeeping.
    config: Option<StorageConfig>,
    /// Per-user lock shards — the resident population.
    shards: Vec<Shard>,
    wal: Mutex<WalState>,
    snapshots: SnapshotStore,
    residency: Mutex<ResidencyState>,
    /// User → identity key, bound at registration success.
    keys: RwLock<HashMap<UserId, String>>,
    /// Last simulated instant seen by `handle` (seconds): the LRU stamp
    /// for accessor-path acquisitions that carry no clock of their own.
    clock: AtomicU64,
    /// Recovery replay in flight: suppress WAL logging so replayed
    /// requests are not re-logged.
    replaying: AtomicBool,
    /// Sim-day of the last compaction sweep.
    compact_day: AtomicU64,
    /// Monotonic hydration-span sequence (trace-id input).
    hydration_seq: AtomicU64,
    /// Stores in the shards of the plain in-RAM map (no config), kept
    /// alongside them so counting residents takes no shard locks.
    in_ram: AtomicUsize,
    metrics: StorageMetrics,
}

/// A pinned handle to one user's store. While any guard for a user is
/// alive, the residency manager will not evict that user; the pin is
/// released on drop. `lock()` hands out the store mutex exactly like the
/// bare `Arc<Mutex<UserStore>>` the cloud used to pass around.
#[derive(Debug)]
pub(crate) struct StoreGuard {
    store: Arc<Mutex<UserStore>>,
    pin: Option<(Arc<EngineInner>, UserId)>,
}

impl StoreGuard {
    /// Locks the underlying store.
    pub(crate) fn lock(&self) -> MutexGuard<'_, UserStore> {
        self.store.lock()
    }
}

impl Drop for StoreGuard {
    fn drop(&mut self) {
        if let Some((inner, user)) = self.pin.take() {
            inner.residency.lock().unpin(user);
        }
    }
}

/// The storage engine — see the module docs.
#[derive(Debug)]
pub(crate) struct StorageEngine {
    inner: Arc<EngineInner>,
}

impl StorageEngine {
    /// The plain in-RAM map: no residency cap, no WAL, no snapshots.
    pub(crate) fn new() -> StorageEngine {
        StorageEngine::build(None, StorageMetrics::default())
    }

    /// An engine running `config` for its whole lifetime. Binds the
    /// residency metrics to `obs` — pass the instance's shared registry.
    pub(crate) fn with_config(config: StorageConfig, obs: &Obs) -> StorageEngine {
        let metrics = StorageMetrics {
            evictions: obs.counter("cloud_store_evictions_total", &[]),
            hydrations: obs.counter("cloud_store_hydrations_total", &[]),
            resident: obs.gauge("cloud_store_resident_users", &[]),
            wal_write_errors: obs.counter("storage_wal_write_errors_total", &[]),
            snapshot_write_errors: obs.counter("storage_snapshot_write_errors_total", &[]),
            recovery_torn_tail: obs.counter(RECOVERY_ERRORS, &[("reason", "torn_tail")]),
            recovery_corrupt: obs.counter(RECOVERY_ERRORS, &[("reason", "corrupt")]),
            recovery_legacy: obs.counter(RECOVERY_ERRORS, &[("reason", "legacy_jsonl")]),
            spans: obs.spans().cloned(),
        };
        StorageEngine::build(Some(config), metrics)
    }

    fn build(config: Option<StorageConfig>, metrics: StorageMetrics) -> StorageEngine {
        let dir = config.as_ref().and_then(|c| c.store_dir.clone());
        StorageEngine {
            inner: Arc::new(EngineInner {
                shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
                wal: Mutex::new(WalState {
                    log: WalLog::default(),
                    dir: dir.clone(),
                    files: (0..SHARD_COUNT).map(|_| None).collect(),
                }),
                snapshots: SnapshotStore::new(dir.as_deref()),
                residency: Mutex::new(ResidencyState::default()),
                keys: RwLock::new(HashMap::new()),
                clock: AtomicU64::new(0),
                replaying: AtomicBool::new(false),
                compact_day: AtomicU64::new(0),
                hydration_seq: AtomicU64::new(0),
                in_ram: AtomicUsize::new(0),
                metrics,
                config,
            }),
        }
    }

    /// Whether the engine runs a [`StorageConfig`].
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.config.is_some()
    }

    /// The last simulated instant `tick` saw (the accessor-path LRU
    /// stamp).
    pub(crate) fn clock_now(&self) -> SimTime {
        SimTime::from_seconds(self.inner.clock.load(Ordering::SeqCst))
    }

    /// Whether durable mode (a store directory) is active.
    pub(crate) fn is_durable(&self) -> bool {
        self.inner
            .config
            .as_ref()
            .is_some_and(|c| c.store_dir.is_some())
    }

    /// The shard a user's resident store lives in.
    fn shard(&self, user: UserId) -> &Shard {
        &self.inner.shards[user.0 as usize % SHARD_COUNT]
    }

    /// The identity key a user's durable state files under.
    fn key_of(&self, user: UserId) -> String {
        self.inner
            .keys
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_else(|| fallback_key(user))
    }

    /// Binds `user` → `key` (registration success, recovery rebinding).
    fn bind_key(&self, user: UserId, key: &str) {
        self.inner.keys.write().insert(user, key.to_owned());
    }

    /// Clock tick + periodic compaction hook, called once per handled
    /// request. Without a durable config: one atomic store.
    pub(crate) fn tick(&self, now: SimTime) {
        self.inner.clock.store(now.as_seconds(), Ordering::SeqCst);
        if self.is_durable() {
            self.maybe_compact(now);
        }
    }

    /// Day-cadence snapshot + compaction sweep (durable mode).
    fn maybe_compact(&self, now: SimTime) {
        let every = self
            .inner
            .config
            .as_ref()
            .map_or(0, |c| c.snapshot_every_days);
        if every == 0 {
            return;
        }
        let day = now.day();
        let last = self.inner.compact_day.load(Ordering::SeqCst);
        if day < last.saturating_add(every) {
            return;
        }
        if self
            .inner
            .compact_day
            .compare_exchange(last, day, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        // Refresh every resident user's snapshot so the whole log prefix
        // becomes compactable.
        let users = self.inner.residency.lock().users();
        for user in users {
            let key = self.key_of(user);
            let store = self.shard(user).users.read().get(&user).cloned();
            let Some(store) = store else {
                continue;
            };
            let parked = Parked::of(&store.lock());
            let wal_seq = self.inner.wal.lock().log.last_seq(&key);
            // A failed write keeps the snapshot resident and out of the
            // watermarks below, so its WAL records stay on disk.
            self.park(&key, wal_seq, parked);
        }
        let watermarks = self.inner.snapshots.watermarks();
        let mut wal = self.inner.wal.lock();
        for (key, upto) in &watermarks {
            wal.log.compact(key, *upto);
        }
        let failures = wal.rewrite_files();
        self.inner.metrics.wal_write_errors.add(failures);
    }

    /// Parks `key`'s snapshot, counting a failed file write. Returns
    /// whether the snapshot reached its durable home (always, in
    /// cap-only mode).
    fn park(&self, key: &str, wal_seq: u64, parked: Parked) -> bool {
        let written = self.inner.snapshots.put(key, wal_seq, parked).is_ok();
        if !written {
            self.inner.metrics.snapshot_write_errors.inc();
        }
        written
    }

    /// Acquires `user`'s store, hydrating or creating it as needed and
    /// stamping the LRU with `now`. The returned guard pins the user
    /// against eviction until dropped.
    pub(crate) fn acquire(&self, user: UserId, now: SimTime, gca_config: &GcaConfig) -> StoreGuard {
        if !self.is_enabled() {
            return StoreGuard {
                store: self.store_fast(user),
                pin: None,
            };
        }
        let now_s = now.as_seconds();
        // Fast path: already resident.
        {
            let mut res = self.inner.residency.lock();
            if res.contains(user) {
                if let Some(store) = self.shard(user).users.read().get(&user) {
                    res.touch(user, now_s);
                    res.pin(user);
                    return StoreGuard {
                        store: store.clone(),
                        pin: Some((Arc::clone(&self.inner), user)),
                    };
                }
                // Inconsistent bookkeeping (store vanished): fall through
                // and rebuild.
                res.remove(user);
            }
        }
        // Slow path: hydrate or create.
        let key = self.key_of(user);
        let (store, hydrated, replayed) = self.hydrate_build(&key, gca_config);
        let mut res = self.inner.residency.lock();
        if res.contains(user) {
            // Lost the insert race: use the winner's store.
            let store = self
                .shard(user)
                .users
                .read()
                .get(&user)
                .cloned()
                .expect("resident user has a store");
            res.touch(user, now_s);
            res.pin(user);
            return StoreGuard {
                store,
                pin: Some((Arc::clone(&self.inner), user)),
            };
        }
        let store = Arc::new(Mutex::new(store));
        self.shard(user).users.write().insert(user, store.clone());
        res.touch(user, now_s);
        res.pin(user);
        {
            let metrics = &self.inner.metrics;
            metrics.resident.add(1);
            if hydrated {
                metrics.hydrations.inc();
                if let Some(sink) = &metrics.spans {
                    let seq = self.inner.hydration_seq.fetch_add(1, Ordering::SeqCst) + 1;
                    let trace = SpanSink::trace_id(&key, seq);
                    let id = sink.alloc(trace);
                    let at_us = now_s.saturating_mul(1_000_000);
                    sink.record(
                        trace,
                        id,
                        0,
                        "hydrate",
                        at_us,
                        at_us,
                        &[
                            ("key", FieldValue::Str(key.clone())),
                            ("wal_replayed", FieldValue::U64(replayed)),
                        ],
                    );
                }
            }
        }
        self.enforce_cap(&mut res);
        StoreGuard {
            store,
            pin: Some((Arc::clone(&self.inner), user)),
        }
    }

    /// The config-less store lookup: byte-identical to the historical
    /// `store_of` (shard read fast path, write lock on first touch).
    fn store_fast(&self, user: UserId) -> Arc<Mutex<UserStore>> {
        let shard = self.shard(user);
        if let Some(store) = shard.users.read().get(&user) {
            return store.clone();
        }
        shard
            .users
            .write()
            .entry(user)
            .or_insert_with(|| {
                self.inner.in_ram.fetch_add(1, Ordering::Relaxed);
                Arc::new(Mutex::new(UserStore::default()))
            })
            .clone()
    }

    /// Rebuilds a user's store from its parked snapshot plus the WAL
    /// suffix past the snapshot watermark. Returns `(store, hydrated,
    /// wal records replayed)`; `hydrated` is false for a brand-new user.
    fn hydrate_build(&self, key: &str, config: &GcaConfig) -> (UserStore, bool, u64) {
        let parked = self.inner.snapshots.get(key);
        let (mut store, watermark, had_snapshot) =
            match parked.map(|(wal_seq, parked)| (wal_seq, parked.to_store())) {
                Some((wal_seq, Ok(store))) => (store, wal_seq, true),
                _ => (UserStore::default(), 0, false),
            };
        let suffix: Vec<WalRecord> = self.inner.wal.lock().log.suffix(key, watermark);
        let mut replayed = 0;
        for record in &suffix {
            if record.is_registration() {
                continue;
            }
            if let WalOp::Request(request) = &record.op {
                apply::apply_request(&mut store, config, request);
                replayed += 1;
            }
        }
        (store, had_snapshot || replayed > 0, replayed)
    }

    /// Evicts LRU victims until the resident population fits the cap.
    /// Called with the residency lock held. Pinned users are skipped, so
    /// the cap is soft while many guards are outstanding.
    fn enforce_cap(&self, res: &mut ResidencyState) {
        let Some(cap) = self.inner.config.as_ref().and_then(|c| c.resident_cap) else {
            return;
        };
        while res.len() > cap {
            let Some(victim) = res.victim() else {
                break;
            };
            self.evict_locked(res, victim);
        }
    }

    /// Parks one user to a snapshot and drops the resident store. Called
    /// with the residency lock held; `victim` must be unpinned, so no
    /// handler can hold its store mutex (mutex holders hold pins).
    fn evict_locked(&self, res: &mut ResidencyState, victim: UserId) {
        let key = self.key_of(victim);
        let store = self.shard(victim).users.read().get(&victim).cloned();
        if let Some(store) = store {
            let parked = Parked::of(&store.lock());
            let wal_seq = self.inner.wal.lock().log.last_seq(&key);
            // Drop the in-memory records the snapshot now covers — this
            // prune is what keeps capped RSS flat as history accumulates.
            // A snapshot that failed to reach disk stays resident, and the
            // records it covers stay in the log for the on-disk rewrite.
            if self.park(&key, wal_seq, parked) {
                self.inner.wal.lock().log.compact(&key, wal_seq);
            }
            self.shard(victim).users.write().remove(&victim);
        }
        res.remove(victim);
        let metrics = &self.inner.metrics;
        metrics.evictions.inc();
        metrics.resident.add(-1);
    }

    /// WAL hook, called by the dispatcher after every handled request.
    /// Registration successes bind the user's identity key; in durable
    /// mode, registrations, token rotations, and `Ingest`-class successes
    /// are appended to the log.
    pub(crate) fn record_success(
        &self,
        request: &Request,
        response: &Response,
        user: Option<UserId>,
        ingest: bool,
    ) {
        if !self.is_enabled()
            || self.inner.replaying.load(Ordering::SeqCst)
            || !response.is_success()
        {
            return;
        }
        if let Payload::Registered {
            user,
            token,
            expires_at,
        } = &response.body
        {
            // Only the registration handler answers `Registered`, and only
            // to a decoded registration body.
            if let Some(body) = RegistrationBody::from_payload(&request.body) {
                let key = identity_key(&body.imei, &body.email);
                self.bind_key(*user, &key);
                self.append_durable(&key, WalOp::request(request.clone()));
                self.append_durable(
                    &key,
                    WalOp::TokenGrant {
                        token: token.clone(),
                        expires_at: *expires_at,
                    },
                );
            }
            return;
        }
        if let Payload::TokenRefreshed { token, expires_at } = &response.body {
            if let Some(user) = user {
                self.append_durable(
                    &self.key_of(user),
                    WalOp::TokenGrant {
                        token: token.clone(),
                        expires_at: *expires_at,
                    },
                );
            }
            return;
        }
        if ingest {
            if let Some(user) = user {
                self.append_durable(&self.key_of(user), WalOp::request(request.clone()));
            }
        }
    }

    /// Appends one operation to the durable log (no-op without a store
    /// directory — cap-only mode needs no log, eviction snapshots are
    /// complete).
    fn append_durable(&self, key: &str, op: WalOp) {
        let mut wal = self.inner.wal.lock();
        if wal.dir.is_none() {
            return;
        }
        let record = wal.log.append(key, op.compacted());
        if wal.persist(&record).is_err() {
            self.inner.metrics.wal_write_errors.inc();
        }
    }

    // ---- recovery (driven by `CloudInstance::recover`) -------------------

    /// Loads the WAL shard files and parked snapshots from the configured
    /// store directory (crash recovery; call on a fresh, still-empty
    /// engine).
    ///
    /// Each shard's frames load in order up to its first bad frame, which
    /// stops that shard and is counted by reason. A damaged shard is then
    /// cut back to its last whole frame, so appends after recovery start
    /// on a frame boundary; the bytes of a corrupt one are first kept
    /// aside as `wal-NN.bin.corrupt`. An old-format `wal-NN.jsonl` is
    /// counted and left unread.
    pub(crate) fn load_dir(&self) {
        {
            let mut wal = self.inner.wal.lock();
            let Some(dir) = wal.dir.clone() else {
                return;
            };
            let metrics = &self.inner.metrics;
            for idx in 0..SHARD_COUNT {
                if dir.join(format!("wal-{idx:02}.jsonl")).exists() {
                    metrics.recovery_legacy.inc();
                }
                let path = shard_path(&dir, idx);
                let bytes = match fs::read(&path) {
                    Ok(bytes) => bytes,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(_) => {
                        metrics.recovery_corrupt.inc();
                        continue;
                    }
                };
                let (mut good, mut damage) = (0, None);
                while good < bytes.len() {
                    match WalRecord::from_frame(&bytes[good..]) {
                        Ok((record, len)) => {
                            wal.log.insert_loaded(record);
                            good += len;
                        }
                        Err(error) => {
                            damage = Some(error);
                            break;
                        }
                    }
                }
                let repaired = match damage {
                    None => continue,
                    Some(FrameError::Torn) => {
                        metrics.recovery_torn_tail.inc();
                        cut_back(&path, good, false)
                    }
                    Some(FrameError::Corrupt(_)) => {
                        metrics.recovery_corrupt.inc();
                        cut_back(&path, good, true)
                    }
                };
                if repaired.is_err() {
                    metrics.wal_write_errors.inc();
                }
            }
            wal.log.sort();
        }
        self.inner.snapshots.load();
    }

    /// Keys with recoverable state (WAL records or a parked snapshot), in
    /// key order — the deterministic recovery sweep order.
    pub(crate) fn recovery_keys(&self) -> Vec<String> {
        let mut keys = self.inner.wal.lock().log.keys();
        for key in self.inner.snapshots.keys() {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.sort();
        keys
    }

    /// All WAL records of `key`, in sequence order.
    pub(crate) fn records_of(&self, key: &str) -> Vec<WalRecord> {
        self.inner.wal.lock().log.suffix(key, 0)
    }

    /// Marks a recovery replay as in flight (suppresses WAL logging).
    pub(crate) fn set_replaying(&self, replaying: bool) {
        self.inner.replaying.store(replaying, Ordering::SeqCst);
    }

    /// Rebinds a recovered registration: maps `user` ↔ `key` and drops
    /// the empty default store the replayed registration materialized, so
    /// the next touch hydrates lazily from snapshot + WAL under `key`.
    pub(crate) fn rebind_recovered(&self, user: UserId, key: &str) {
        self.bind_key(user, key);
        let removed = self.shard(user).users.write().remove(&user).is_some();
        if removed && !self.is_enabled() {
            self.inner.in_ram.fetch_sub(1, Ordering::Relaxed);
        }
        let mut res = self.inner.residency.lock();
        if res.contains(user) {
            res.remove(user);
            if removed {
                self.inner.metrics.resident.add(-1);
            }
        }
    }

    // ---- views -----------------------------------------------------------

    /// Stores currently resident in RAM.
    pub(crate) fn resident_users(&self) -> usize {
        if self.is_enabled() {
            self.inner.residency.lock().len()
        } else {
            self.inner.in_ram.load(Ordering::Relaxed)
        }
    }

    /// Whether `user`'s store is resident (always true for a touched user
    /// without a config).
    pub(crate) fn is_resident(&self, user: UserId) -> bool {
        if self.is_enabled() {
            self.inner.residency.lock().contains(user)
        } else {
            self.shard(user).users.read().contains_key(&user)
        }
    }

    /// Users evicted so far (0 without a config).
    pub(crate) fn eviction_count(&self) -> u64 {
        self.inner.metrics.evictions.get()
    }

    /// Hydrations performed so far (0 without a config).
    pub(crate) fn hydration_count(&self) -> u64 {
        self.inner.metrics.hydrations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::tests::{assert_same_state, multi_day_store};

    fn capped(cap: usize) -> StorageEngine {
        StorageEngine::with_config(
            StorageConfig {
                resident_cap: Some(cap),
                ..StorageConfig::default()
            },
            &Obs::new(),
        )
    }

    #[test]
    fn disabled_engine_matches_legacy_store_of() {
        let engine = StorageEngine::new();
        let gca = GcaConfig::default();
        let guard = engine.acquire(UserId(3), SimTime::EPOCH, &gca);
        guard.lock().places_seq = 9;
        drop(guard);
        let guard = engine.acquire(UserId(3), SimTime::EPOCH, &gca);
        assert_eq!(guard.lock().places_seq, 9);
        assert_eq!(engine.resident_users(), 1);
        assert!(engine.is_resident(UserId(3)));
        assert_eq!(engine.eviction_count(), 0);
    }

    #[test]
    fn cap_evicts_lru_and_hydrates_back() {
        let engine = capped(2);
        let gca = GcaConfig::default();
        for (i, at) in [(1u32, 10u64), (2, 20), (3, 30)] {
            let guard = engine.acquire(UserId(i), SimTime::from_seconds(at), &gca);
            guard.lock().places_seq = u64::from(i) * 100;
        }
        // User 1 (oldest stamp) was evicted to a snapshot.
        assert_eq!(engine.resident_users(), 2);
        assert!(!engine.is_resident(UserId(1)));
        assert_eq!(engine.eviction_count(), 1);
        // Touching it again hydrates the parked state byte-for-byte.
        let guard = engine.acquire(UserId(1), SimTime::from_seconds(40), &gca);
        assert_eq!(guard.lock().places_seq, 100);
        assert_eq!(engine.hydration_count(), 1);
        // And pushed out user 2, now the LRU.
        assert!(!engine.is_resident(UserId(2)));
    }

    #[test]
    fn pinned_guards_shield_from_eviction() {
        let engine = capped(1);
        let gca = GcaConfig::default();
        let pinned = engine.acquire(UserId(1), SimTime::from_seconds(1), &gca);
        let _other = engine.acquire(UserId(2), SimTime::from_seconds(2), &gca);
        // User 1 is older but pinned; user 2 is pinned too, so the cap is
        // soft until a guard drops.
        assert!(engine.is_resident(UserId(1)));
        drop(pinned);
        let _third = engine.acquire(UserId(3), SimTime::from_seconds(3), &gca);
        assert!(!engine.is_resident(UserId(1)), "unpinned LRU evicted");
    }

    /// A snapshot file that cannot be written must not lose the evicted
    /// user: the parked bytes stay resident and hydration reads them.
    #[test]
    fn failed_snapshot_write_keeps_the_user_hydratable() {
        let dir = std::env::temp_dir().join(format!("pmware-snap-fail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let engine = StorageEngine::with_config(
            StorageConfig {
                resident_cap: Some(1),
                store_dir: Some(dir.clone()),
                snapshot_every_days: 0,
            },
            &Obs::new(),
        );
        let gca = GcaConfig::default();
        // Snapshot writes now fail: `snapshots/` is a plain file.
        let snapshots = dir.join("snapshots");
        fs::remove_dir_all(&snapshots).unwrap();
        fs::write(&snapshots, b"not a directory").unwrap();

        *engine
            .acquire(UserId(1), SimTime::from_seconds(1), &gca)
            .lock() = multi_day_store(3);
        drop(engine.acquire(UserId(2), SimTime::from_seconds(2), &gca));
        assert!(!engine.is_resident(UserId(1)), "user 1 was evicted");
        assert!(
            engine.inner.snapshots.watermarks().is_empty(),
            "an unwritten snapshot is not compactable"
        );
        assert_eq!(engine.inner.metrics.snapshot_write_errors.get(), 1);

        let guard = engine.acquire(UserId(1), SimTime::from_seconds(3), &gca);
        let expected = multi_day_store(3);
        let store = guard.lock();
        assert_same_state(&store, &expected);
        assert_eq!(
            store.gca.as_ref().unwrap().observations(),
            expected.gca.as_ref().unwrap().observations()
        );
        drop(store);
        let _ = fs::remove_file(&snapshots);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A WAL append or shard rewrite that cannot reach its file is
    /// counted under `storage_wal_write_errors_total`, and the reply the
    /// client gets does not change.
    #[test]
    fn failed_wal_writes_are_counted() {
        let dir = std::env::temp_dir().join(format!("pmware-wal-fail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let obs = Obs::new();
        let cloud = crate::CloudInstance::new(crate::CellDatabase::new(), 3)
            .with_obs(&obs)
            .with_storage(StorageConfig {
                resident_cap: None,
                store_dir: Some(dir.clone()),
                snapshot_every_days: 1,
            });
        let errors = || {
            let metrics = obs.metrics().unwrap().snapshot();
            metrics.counter_value("storage_wal_write_errors_total")
        };
        // The user's shard file cannot be opened: a directory sits at its
        // path.
        let key = identity_key("imei-1", "u1@example.com");
        fs::create_dir_all(shard_path(&dir, WalState::file_index(&key))).unwrap();
        let registration = Request::post(
            crate::payload::REGISTRATION_PATH,
            RegistrationBody {
                imei: "imei-1".into(),
                email: "u1@example.com".into(),
            },
        );
        let response = cloud.handle(&registration, SimTime::from_seconds(10));
        assert!(response.is_success(), "{response:?}");
        assert_eq!(errors(), 2, "the registration and its token grant");

        // The day sweep's rewrite cannot rename over the directory either.
        cloud.handle(
            &Request::get("/api/v1/health"),
            SimTime::from_day_time(1, 0, 0, 0),
        );
        assert_eq!(errors(), 3, "one failed shard rewrite");
        let _ = fs::remove_dir_all(&dir);
    }
}
