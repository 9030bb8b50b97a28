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
//!   appended, as its typed op, to a per-shard WAL file of checksummed
//!   frames (`wal-NN.<gen>.bin`, layout in [`wal`]) before the response
//!   is returned to the transport, snapshots park on disk instead of RAM, and
//!   [`StorageEngine::load_dir`] + registration replay rebuild the exact
//!   instance after a crash ([`crate::instance::CloudInstance::recover`]).
//! * **Compaction** (`snapshot_every_days`): on a sim-day cadence the
//!   engine refreshes every resident user's snapshot, drops WAL records
//!   the snapshots cover (registrations and token grants are exempt — they
//!   rebuild the auth registry, which snapshots do not capture), and
//!   rewrites the shard files that no longer match the log: those a
//!   compaction (here or at an eviction) dropped a record from, and those
//!   an append failed to reach, each as its next generation (the rule in
//!   [`snapshot`]'s docs). Every other shard file and its appender are
//!   left alone.
//!
//! Failed writes are counted, not dropped: `storage_wal_write_errors_total`
//! and `storage_snapshot_write_errors_total`. So is a parked snapshot that
//! cannot be read back — a file whose header fails its checksum or
//! format checks at recovery (an older-format JSON snapshot included), or
//! one hydration finds missing or failing its body checksum:
//! `storage_snapshot_read_errors_total` (the user then hydrates from the
//! WAL alone, as a new user would). Recovery reads the newest generation
//! of each shard and stops it at its first bad frame, counting
//! `storage_recovery_errors_total{reason=…}`: `torn_tail` (the file ends
//! inside a frame), `corrupt` (a length check, checksum or body fails, or
//! the file cannot be read) or `legacy` (an older-format shard, not read).
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
//! eviction/hydration *counter values* are deterministic only under
//! single-threaded driving: with several threads, which user the LRU
//! parks depends on how their requests interleave.

pub(crate) mod apply;
pub(crate) mod residency;
pub(crate) mod snapshot;
pub(crate) mod wal;

use std::collections::{BTreeMap, HashMap};
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

/// FNV-1a (64-bit) over `bytes`: the one hash behind WAL shard indexes
/// and snapshot file names (frames and files are checked by
/// [`crate::codec::checksum`]). Deterministic across runs and platforms.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The device identity key user state is logged and snapshotted under.
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
/// zero metric keys: every handle defaults to a no-op).
#[derive(Debug, Default)]
struct StorageMetrics {
    evictions: Counter,
    hydrations: Counter,
    resident: Gauge,
    /// WAL appends and shard rewrites that did not reach the file.
    wal_write_errors: Counter,
    /// Snapshot files that could not be written.
    snapshot_write_errors: Counter,
    /// Parked snapshots that could not be read back.
    snapshot_read_errors: Counter,
    /// Shards whose last frame was cut short (`reason="torn_tail"`).
    recovery_torn_tail: Counter,
    /// Shards stopped at a damaged frame, or unreadable
    /// (`reason="corrupt"`).
    recovery_corrupt: Counter,
    /// Older-format shard files left unread (`reason="legacy"`).
    recovery_legacy: Counter,
    spans: Option<Arc<SpanSink>>,
}

/// `<stem>.<gen>.<ext>`, the name of generation `gen` of a file, or
/// `<stem>.<ext>` for generation 0 (the name before generations, which
/// only older-format files carry).
fn generation_name(stem: &str, gen: u64, ext: &str) -> String {
    match gen {
        0 => format!("{stem}.{ext}"),
        gen => format!("{stem}.{gen}.{ext}"),
    }
}

/// Splits a [`generation_name`] into `(stem, generation)`; `None` for any
/// other spelling (`.0.`, `.05.`, `.+5.` included).
fn parse_generation<'a>(name: &'a str, ext: &str) -> Option<(&'a str, u64)> {
    let rest = name.strip_suffix(ext)?.strip_suffix('.')?;
    let (stem, gen) = match rest.split_once('.') {
        None => (rest, 0),
        Some((stem, gen)) => (stem, gen.parse().ok()?),
    };
    (generation_name(stem, gen, ext) == name).then_some((stem, gen))
}

/// The path of generation `gen` of WAL shard file `idx`.
fn shard_path(dir: &Path, idx: usize, gen: u64) -> PathBuf {
    dir.join(generation_name(&format!("wal-{idx:02}"), gen, "bin"))
}

/// The shard a `wal-NN` file stem names.
fn shard_of(stem: &str) -> Option<usize> {
    let idx = stem.strip_prefix("wal-")?.parse().ok()?;
    (idx < SHARD_COUNT && stem == format!("wal-{idx:02}")).then_some(idx)
}

/// Splits a WAL shard file name into `(shard, generation)`; `None` for
/// any other file, an older-format `wal-NN.bin` included.
fn parse_shard_name(name: &str) -> Option<(usize, u64)> {
    let (stem, gen) = parse_generation(name, "bin").filter(|&(_, gen)| gen > 0)?;
    Some((shard_of(stem)?, gen))
}

/// The generation files in `dir`, at crash recovery: every leftover
/// `.tmp` (a write killed before its rename) is removed, and every file
/// `parse` names is grouped under its key, newest generation first. Every
/// other file name goes to `other`.
fn generations<K: Ord>(
    dir: &Path,
    parse: impl Fn(&str) -> Option<(K, u64)>,
    mut other: impl FnMut(&str),
) -> BTreeMap<K, Vec<u64>> {
    let mut found: BTreeMap<K, Vec<u64>> = BTreeMap::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        } else if let Some((key, gen)) = parse(&name) {
            found.entry(key).or_default().push(gen);
        } else {
            other(&name);
        }
    }
    for gens in found.values_mut() {
        gens.sort_unstable_by(|a, b| b.cmp(a));
    }
    found
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
    /// Per shard: the generation its file is named under (1 until the
    /// first rewrite).
    gens: Vec<u64>,
    /// Per shard: its file no longer matches the log (a compaction
    /// dropped a record, or an append or repair failed), so the next
    /// sweep rewrites it.
    stale: Vec<bool>,
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
        let idx = Self::file_index(&record.key);
        let written = record
            .to_frame()
            .map_err(io::Error::other)
            .and_then(|frame| {
                let file = match self.files[idx].take() {
                    Some(file) => file,
                    None => fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(shard_path(dir, idx, self.gens[idx]))?,
                };
                self.files[idx].insert(file).write_all(&frame)
            });
        if written.is_err() {
            self.stale[idx] = true;
        }
        written
    }

    /// Compacts `key`'s records up to `upto` (see [`WalLog::compact`]),
    /// marking its shard stale when a record goes.
    fn compact(&mut self, key: &str, upto: u64) {
        if self.log.compact(key, upto) {
            self.stale[Self::file_index(key)] = true;
        }
    }

    /// Rewrites every stale shard file from the (compacted) in-memory
    /// log as its next generation (see the module docs); the other files
    /// keep their appenders. Returns the number of failures: records that
    /// do not frame and shards not rewritten (which stay stale and keep
    /// appending to their current generation).
    fn rewrite_files(&mut self) -> u64 {
        let Some(dir) = self.dir.clone() else {
            return 0;
        };
        let mut failures = 0;
        let mut shards: Vec<Vec<u8>> = vec![Vec::new(); SHARD_COUNT];
        for record in self.log.all_records() {
            let idx = Self::file_index(&record.key);
            if !self.stale[idx] {
                continue;
            }
            match record.to_frame() {
                Ok(frame) => shards[idx].extend_from_slice(&frame),
                Err(_) => failures += 1,
            }
        }
        for (idx, content) in shards.iter().enumerate() {
            if !self.stale[idx] {
                continue;
            }
            let (old, gen) = (self.gens[idx], self.gens[idx] + 1);
            let path = shard_path(&dir, idx, gen);
            let tmp = path.with_extension("bin.tmp");
            if fs::write(&tmp, content)
                .and_then(|()| fs::rename(&tmp, &path))
                .is_ok()
            {
                // A failed unlink leaves an older generation, which the
                // next recovery removes.
                let _ = fs::remove_file(shard_path(&dir, idx, old));
                self.files[idx] = None;
                self.gens[idx] = gen;
                self.stale[idx] = false;
            } else {
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
            snapshot_read_errors: obs.counter("storage_snapshot_read_errors_total", &[]),
            recovery_torn_tail: obs.counter(RECOVERY_ERRORS, &[("reason", "torn_tail")]),
            recovery_corrupt: obs.counter(RECOVERY_ERRORS, &[("reason", "corrupt")]),
            recovery_legacy: obs.counter(RECOVERY_ERRORS, &[("reason", "legacy")]),
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
                    gens: vec![1; SHARD_COUNT],
                    stale: vec![false; SHARD_COUNT],
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
            wal.compact(key, *upto);
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
    ///
    /// A snapshot that exists but cannot be read back (its file missing
    /// or malformed, or its store not rebuilding) is counted, and the
    /// store is rebuilt from the whole WAL as for a new user: records the
    /// snapshot covered may already be compacted away.
    fn hydrate_build(&self, key: &str, config: &GcaConfig) -> (UserStore, bool, u64) {
        let (mut store, watermark, had_snapshot) = match self.inner.snapshots.get(key) {
            None => (UserStore::default(), 0, false),
            Some((wal_seq, parked)) => match parked.and_then(|p| p.to_store().ok()) {
                Some(store) => (store, wal_seq, true),
                None => {
                    self.inner.metrics.snapshot_read_errors.inc();
                    (UserStore::default(), 0, false)
                }
            },
        };
        let suffix: Vec<WalRecord> = self.inner.wal.lock().log.suffix(key, watermark);
        let mut replayed = 0;
        for record in suffix.iter().filter(|r| !r.is_compaction_exempt()) {
            apply::apply_op(&mut store, config, &record.op);
            replayed += 1;
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
                self.inner.wal.lock().compact(&key, wal_seq);
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
    /// mode, registrations, token rotations, and successes on the routes
    /// the table marks `logged` are appended to the log.
    pub(crate) fn record_success(
        &self,
        request: &Request,
        response: &Response,
        user: Option<UserId>,
        logged: bool,
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
                self.append_durable(&key, WalOp::Register(Box::new(body.clone())));
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
        // Cap-only mode logs nothing, so it copies no body.
        if !logged || !self.is_durable() {
            return;
        }
        if let (Some(user), Some(op)) = (user, WalOp::of_request(request)) {
            self.append_durable(&self.key_of(user), op);
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
        let record = wal.log.append(key, op);
        if wal.persist(&record).is_err() {
            self.inner.metrics.wal_write_errors.inc();
        }
    }

    // ---- recovery (driven by `CloudInstance::recover`) -------------------

    /// Loads the WAL shard files and parked snapshots from the configured
    /// store directory (crash recovery; call on a fresh, still-empty
    /// engine).
    ///
    /// Per shard, the newest generation is read and older ones are
    /// removed, as is every leftover `.tmp` (a rewrite killed before its
    /// rename). Its frames load in order up to its first bad frame, which
    /// stops that shard and is counted by reason. A damaged shard is then
    /// cut back to its last whole frame, so appends after recovery start
    /// on a frame boundary; the bytes of a corrupt one are first kept
    /// aside as `<file>.corrupt`. An older-format `wal-NN.bin` or
    /// `wal-NN.jsonl` is counted and left unread.
    pub(crate) fn load_dir(&self) {
        {
            let mut wal = self.inner.wal.lock();
            let Some(dir) = wal.dir.clone() else {
                return;
            };
            let metrics = &self.inner.metrics;
            let shards = generations(&dir, parse_shard_name, |name| {
                // A generation-less `wal-NN.bin` or a `wal-NN.jsonl`.
                let stem = name.strip_suffix(".bin").or(name.strip_suffix(".jsonl"));
                if stem.and_then(shard_of).is_some() {
                    metrics.recovery_legacy.inc();
                }
            });
            for (idx, gens) in shards {
                for &old in &gens[1..] {
                    let _ = fs::remove_file(shard_path(&dir, idx, old));
                }
                wal.gens[idx] = gens[0];
                let path = shard_path(&dir, idx, gens[0]);
                let Ok(bytes) = fs::read(&path) else {
                    metrics.recovery_corrupt.inc();
                    continue;
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
                    wal.stale[idx] = true;
                }
            }
            wal.log.sort();
        }
        let unreadable = self.inner.snapshots.load();
        self.inner.metrics.snapshot_read_errors.add(unreadable);
        // Drop what the snapshots cover, which also sequences every later
        // append above its key's snapshot watermark.
        let watermarks = self.inner.snapshots.watermarks();
        let mut wal = self.inner.wal.lock();
        for (key, upto) in &watermarks {
            wal.compact(key, *upto);
        }
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

// Test-only modules stay last, so every lint that exempts a file from
// its first `#[cfg(test)]` down still reads all of the engine.
#[cfg(test)]
mod crash_points;

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
            store.gca.as_ref().unwrap().log().to_vec(),
            expected.gca.as_ref().unwrap().log().to_vec()
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
        // path, and at its next generation's, which a rewrite renames to.
        let key = identity_key("imei-1", "u1@example.com");
        for gen in [1, 2] {
            fs::create_dir_all(shard_path(&dir, WalState::file_index(&key), gen)).unwrap();
        }
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

        // The day sweep's rewrite cannot rename onto the directory either.
        cloud.handle(
            &Request::get("/api/v1/health"),
            SimTime::from_day_time(1, 0, 0, 0),
        );
        assert_eq!(errors(), 3, "one failed shard rewrite");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A parked snapshot that cannot be read back is told apart from no
    /// snapshot at all: the first is counted, the second is a new user.
    #[test]
    fn an_unreadable_snapshot_is_counted() {
        let dir = std::env::temp_dir().join(format!("pmware-snap-read-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let obs = Obs::new();
        let config = StorageConfig {
            resident_cap: Some(1),
            store_dir: Some(dir.clone()),
            snapshot_every_days: 0,
        };
        let engine = StorageEngine::with_config(config.clone(), &obs);
        let errors = || {
            let metrics = obs.metrics().unwrap().snapshot();
            metrics.counter_value("storage_snapshot_read_errors_total")
        };
        let gca = GcaConfig::default();
        *engine
            .acquire(UserId(1), SimTime::from_seconds(1), &gca)
            .lock() = multi_day_store(1);
        drop(engine.acquire(UserId(2), SimTime::from_seconds(2), &gca));
        assert_eq!(errors(), 0, "user 2 is new, not unreadable");

        // Flip a bit of user 1's body in place: the header still checks
        // out, but the body checksum no longer does.
        let path = dir
            .join("snapshots")
            .join(snapshot::file_name_of(&fallback_key(UserId(1)), 1));
        let mut bytes = fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let guard = engine.acquire(UserId(1), SimTime::from_seconds(3), &gca);
        assert_eq!(errors(), 1);
        assert!(guard.lock().places.is_empty(), "hydrated as a new user");
        drop(guard);

        // At recovery, a snapshot whose header fails its checks.
        fs::write(&path, b"{\"key\":\n").unwrap();
        let obs = Obs::new();
        StorageEngine::with_config(config, &obs).load_dir();
        let metrics = obs.metrics().unwrap().snapshot();
        assert_eq!(
            metrics.counter_value("storage_snapshot_read_errors_total"),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sweep rewrites only the shard files that no longer match the
    /// log, each as its next generation, unlinking the one before: a sweep
    /// that compacts nothing leaves every file as it was (same name, inode
    /// and length), while a shard an append failed to reach is still
    /// rewritten.
    #[cfg(unix)]
    #[test]
    fn a_sweep_rewrites_only_stale_shards() {
        use std::os::unix::fs::MetadataExt as _;

        let dir = std::env::temp_dir().join(format!("pmware-wal-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cloud =
            crate::CloudInstance::new(crate::CellDatabase::new(), 3).with_storage(StorageConfig {
                resident_cap: None,
                store_dir: Some(dir.clone()),
                snapshot_every_days: 1,
            });
        let health = |day: u64| {
            cloud.handle(
                &Request::get("/api/v1/health"),
                SimTime::from_day_time(day, 0, 0, 0),
            );
        };
        let register = |n: u32| {
            let response = cloud.handle(
                &Request::post(
                    crate::payload::REGISTRATION_PATH,
                    RegistrationBody {
                        imei: format!("imei-{n}"),
                        email: format!("u{n}@example.com"),
                    },
                ),
                SimTime::from_seconds(10),
            );
            match response.body {
                Payload::Registered { token, .. } => token,
                other => panic!("registration failed: {other:?}"),
            }
        };
        let token = register(1);
        let sync = Request::post(
            "/api/v1/social/sync",
            crate::payload::SyncContactsBody {
                contacts: Vec::new(),
                first_seq: Some(0),
            },
        );
        let response = cloud.handle(&sync.with_token(token.as_str()), SimTime::from_seconds(20));
        assert!(response.is_success(), "{response:?}");
        // Every shard file on disk as `(shard, generation, inode, length)`.
        let files = || -> Vec<(usize, u64, u64, u64)> {
            let mut files: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|entry| {
                    let entry = entry.unwrap();
                    let (idx, gen) = parse_shard_name(&entry.file_name().to_string_lossy())?;
                    let meta = entry.metadata().unwrap();
                    Some((idx, gen, meta.ino(), meta.len()))
                })
                .collect();
            files.sort_unstable();
            files
        };
        let appended = files();
        assert_eq!(appended.len(), 1);
        assert_eq!(appended[0].1, 1, "appends go to generation 1");
        health(1); // compacts the sync: its shard is rewritten
        let swept = files();
        assert_eq!(swept.len(), 1, "the old generation is unlinked");
        assert_eq!(swept[0].1, 2, "the rewrite is generation 2");
        assert!(swept[0].3 < appended[0].3, "the sync record is gone");
        health(2); // compacts nothing
        assert_eq!(files(), swept, "an unchanged shard is not rewritten");

        // A second user in another shard, whose appends fail while a
        // directory sits at its shard's path.
        let n = (2..)
            .find(|&n| {
                let key = identity_key(&format!("imei-{n}"), &format!("u{n}@example.com"));
                WalState::file_index(&key) != swept[0].0
            })
            .unwrap();
        let key = identity_key(&format!("imei-{n}"), &format!("u{n}@example.com"));
        let idx = WalState::file_index(&key);
        let path = shard_path(&dir, idx, 1);
        fs::create_dir_all(&path).unwrap();
        register(n);
        fs::remove_dir_all(&path).unwrap();
        health(3); // compacts nothing, but the shard missed two appends
        let after = files();
        assert!(after.contains(&swept[0]), "the clean shard is left alone");
        assert_eq!(after.len(), 2);
        let bytes = fs::read(shard_path(&dir, idx, 2)).expect("the stale shard is rewritten");
        let (first, len) = WalRecord::from_frame(&bytes).unwrap();
        let (second, _) = WalRecord::from_frame(&bytes[len..]).unwrap();
        assert!(matches!(first.op, WalOp::Register(_)) && first.key == key);
        assert!(matches!(second.op, WalOp::TokenGrant { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    /// After recovery, appends are sequenced above each snapshot's
    /// watermark even when the records it covered are gone from the
    /// shard files: a number at or below it would never be replayed.
    #[test]
    fn recovery_sequences_appends_above_the_snapshot_watermark() {
        let dir = std::env::temp_dir().join(format!("pmware-wal-floor-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = StorageConfig {
            resident_cap: None,
            store_dir: Some(dir.clone()),
            snapshot_every_days: 1,
        };
        let cloud =
            crate::CloudInstance::new(crate::CellDatabase::new(), 3).with_storage(config.clone());
        let response = cloud.handle(
            &Request::post(
                crate::payload::REGISTRATION_PATH,
                RegistrationBody {
                    imei: "imei-1".into(),
                    email: "u1@example.com".into(),
                },
            ),
            SimTime::from_seconds(10),
        );
        let Payload::Registered { token, .. } = response.body else {
            panic!("registration failed: {response:?}");
        };
        let sync = Request::post(
            "/api/v1/social/sync",
            crate::payload::SyncContactsBody {
                contacts: Vec::new(),
                first_seq: Some(0),
            },
        );
        let response = cloud.handle(&sync.with_token(token.as_str()), SimTime::from_seconds(20));
        assert!(response.is_success(), "{response:?}");
        // The day-1 sweep parks the user at watermark 3 and rewrites its
        // shard without the sync: only the registration and grant stay.
        cloud.handle(
            &Request::get("/api/v1/health"),
            SimTime::from_day_time(1, 0, 0, 0),
        );
        drop(cloud);

        let engine = StorageEngine::with_config(config, &Obs::new());
        engine.load_dir();
        let key = identity_key("imei-1", "u1@example.com");
        assert_eq!(engine.records_of(&key).len(), 2);
        assert_eq!(engine.inner.snapshots.get(&key).unwrap().0, 3);
        engine.append_durable(
            &key,
            WalOp::TokenGrant {
                token: "after".into(),
                expires_at: SimTime::from_seconds(1),
            },
        );
        assert_eq!(engine.records_of(&key).last().unwrap().seq, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
