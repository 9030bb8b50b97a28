//! Serving a recorded exchange log again, in recorded order, against a
//! fresh in-memory or durable cloud instance.
//!
//! Recorded order matters: bearer tokens come from one RNG shared by the
//! whole instance, so only the recorded order reproduces the recorded
//! responses, which every replay checks byte for byte (wire equality:
//! status plus typed body).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_cloud::router::{endpoint_index, ENDPOINT_COUNT, ENDPOINT_LABELS};
use pmware_cloud::{
    CellDatabase, CloudInstance, Payload, Request, Response, StorageConfig, UserId,
};
use pmware_world::SimTime;

use crate::calibrate::RefClock;
use crate::cohort::{Exchange, Size};
use crate::stats::quantile;
use crate::trace::Tracer;

/// A recorded study's traffic, ready to serve again.
#[derive(Debug)]
pub struct Log {
    /// The study that sent it.
    pub size: Size,
    /// The cell database of the study's world.
    pub cells: CellDatabase,
    /// Every exchange, in send order.
    pub exchanges: Vec<Exchange>,
    /// Runs of consecutive exchanges of one user-day: `(slot, start, end)`.
    pub groups: Vec<(usize, usize, usize)>,
    /// Which user each bearer token the log mentions belongs to.
    pub token_owner: HashMap<String, UserId>,
    /// Every user with their last token, in registration order.
    pub users: Vec<(UserId, String)>,
    /// The last send instant.
    pub end: SimTime,
}

impl Log {
    /// Indexes a recorded exchange log.
    pub fn new(size: Size, cells: CellDatabase, exchanges: Vec<Exchange>) -> Log {
        let mut groups: Vec<(usize, usize, usize)> = Vec::new();
        for (i, ex) in exchanges.iter().enumerate() {
            match groups.last_mut() {
                Some((slot, _, end)) if *slot == ex.slot => *end = i + 1,
                _ => groups.push((ex.slot, i, i + 1)),
            }
        }
        let mut token_owner = HashMap::new();
        let mut last_token: BTreeMap<UserId, String> = BTreeMap::new();
        let mut order = Vec::new();
        for ex in &exchanges {
            let (user, token) = match &ex.response.body {
                Payload::Registered { user, token, .. } => (*user, token),
                Payload::TokenRefreshed { token, .. } => {
                    let old = ex.request.token.as_deref().unwrap_or_default();
                    (token_owner[old], token)
                }
                _ => continue,
            };
            if !last_token.contains_key(&user) {
                order.push(user);
            }
            token_owner.insert(token.clone(), user);
            last_token.insert(user, token.clone());
        }
        let users = order
            .into_iter()
            .map(|u| (u, last_token[&u].clone()))
            .collect();
        let end = exchanges.last().map_or(SimTime::EPOCH, |ex| ex.at);
        Log {
            size,
            cells,
            exchanges,
            groups,
            token_owner,
            users,
            end,
        }
    }

    /// A fresh instance like the one the log was recorded against.
    pub fn fresh_instance(&self) -> CloudInstance {
        CloudInstance::new(self.cells.clone(), self.size.seed + 1)
    }
}

/// Per-call detail of a traced replay.
#[derive(Debug, Default)]
pub struct CallTrace {
    /// Calls per endpoint label index.
    pub calls: Vec<u64>,
    /// Per-call instance time per endpoint label index, microseconds.
    pub us: Vec<Vec<f64>>,
    /// Calls during which the instance hydrated a parked user.
    pub hydrating_us: Vec<f64>,
    /// Calls during which the instance evicted a user.
    pub evicting_us: Vec<f64>,
    /// The first call of each simulated day (where the daily sweep runs).
    pub day_first_us: Vec<f64>,
    /// Most user stores resident at once.
    pub resident_max: usize,
    /// Spans: one per user-day run, one per call.
    pub tracer: Tracer,
    /// Span name per endpoint label index.
    names: Vec<String>,
}

impl CallTrace {
    /// An empty trace.
    pub fn new() -> CallTrace {
        CallTrace {
            calls: vec![0; ENDPOINT_COUNT],
            us: vec![Vec::new(); ENDPOINT_COUNT],
            names: ENDPOINT_LABELS
                .iter()
                .map(|label| format!("cloud.handle.{label}"))
                .collect(),
            ..CallTrace::default()
        }
    }

    /// Summed instance time of `endpoint`'s calls, seconds.
    pub fn seconds(&self, endpoint: usize) -> f64 {
        self.us[endpoint].iter().sum::<f64>() / 1e6
    }

    /// p99 of `endpoint`'s per-call instance time, microseconds.
    pub fn p99_us(&self, endpoint: usize) -> f64 {
        quantile(&self.us[endpoint], 0.99)
    }
}

/// The [`RefClock`] tag of `CloudInstance::recover`.
pub const RECOVER: usize = usize::MAX - 1;
/// The [`RefClock`] tag of the first read of every user after recovery.
pub const FIRST_TOUCH: usize = usize::MAX - 2;

/// What one replay found.
#[derive(Debug, Default)]
pub struct ReplayRun {
    /// Requests replayed.
    pub requests: u64,
    /// Responses outside 2xx.
    pub non_2xx: u64,
    /// Responses that differ from the recorded ones.
    pub mismatches: u64,
}

/// Serves `log` against `instance` in recorded order, lapping `clock`
/// after each run of one user-day's requests (tagged with its slot).
/// Traced, every call is also timed on its own, with storage attribution
/// from the instance's public counters.
pub fn replay(
    log: &Log,
    instance: &CloudInstance,
    clock: &mut RefClock,
    mut trace: Option<&mut CallTrace>,
) -> ReplayRun {
    let mut run = ReplayRun::default();
    // Responses are compared after the whole replay, so the comparison
    // stays out of both the samples and the traced wall.
    let mut responses: Vec<Response> = Vec::with_capacity(log.exchanges.len());
    let mut day = None;
    if let Some(trace) = trace.as_deref_mut() {
        trace.tracer.open("bench.replay", "");
    }
    clock.start();
    for &(slot, start, end) in &log.groups {
        let exchanges = &log.exchanges[start..end];
        match trace.as_deref_mut() {
            None => {
                for ex in exchanges {
                    responses.push(instance.handle(&ex.request, ex.at));
                }
            }
            Some(trace) => {
                let key = slot_key(log.size, slot);
                trace.tracer.open("bench.user_day", &key);
                for ex in exchanges {
                    responses.push(traced_call(instance, ex, &key, &mut day, trace));
                }
                trace.tracer.close();
            }
        }
        clock.lap(slot);
    }
    if let Some(trace) = trace {
        trace.tracer.close();
    }
    for (ex, response) in log.exchanges.iter().zip(&responses) {
        run.requests += 1;
        run.non_2xx += u64::from(!response.is_success());
        run.mismatches += u64::from(*response != ex.response);
    }
    run
}

fn traced_call(
    instance: &CloudInstance,
    ex: &Exchange,
    key: &str,
    day: &mut Option<u64>,
    trace: &mut CallTrace,
) -> Response {
    let (evictions, hydrations) = (instance.eviction_count(), instance.hydration_count());
    let start_ns = trace.tracer.now_ns();
    let started = Instant::now();
    let response = instance.handle(&ex.request, ex.at);
    let ns = started.elapsed().as_nanos() as u64;
    let endpoint = endpoint_index(ex.request.method, &ex.request.path);
    trace
        .tracer
        .child(&trace.names[endpoint], key, start_ns, start_ns + ns);
    let us = ns as f64 / 1e3;
    trace.calls[endpoint] += 1;
    trace.us[endpoint].push(us);
    if instance.hydration_count() > hydrations {
        trace.hydrating_us.push(us);
    }
    if instance.eviction_count() > evictions {
        trace.evicting_us.push(us);
    }
    if *day != Some(ex.at.day()) {
        *day = Some(ex.at.day());
        trace.day_first_us.push(us);
    }
    trace.resident_max = trace.resident_max.max(instance.resident_users());
    response
}

/// The span key of a user-day slot, `p<participant>/d<day>`.
fn slot_key(size: Size, slot: usize) -> String {
    format!(
        "p{:04}/d{:02}",
        slot % size.participants,
        slot / size.participants + 1
    )
}

/// Storage engine settings of the durable workload.
#[derive(Debug, Clone, Copy)]
pub struct Durability {
    /// Most user stores resident in RAM.
    pub resident_cap: usize,
    /// Sim-day cadence of the snapshot and compaction sweep.
    pub snapshot_every_days: u64,
}

/// What one durable replay measured and found.
#[derive(Debug, Default)]
pub struct DurableRun {
    /// The replay before the crash.
    pub replay: ReplayRun,
    /// Users whose places after recovery differ from before the crash.
    pub lost_places: u64,
    /// Post-recovery reads outside 2xx.
    pub failed_reads: u64,
    /// Users evicted to snapshots during the replay.
    pub evictions: u64,
    /// Stores hydrated from snapshots and the WAL during the replay.
    pub hydrations: u64,
    /// WAL bytes on disk at the crash.
    pub wal_bytes: u64,
    /// Snapshot bytes on disk at the crash.
    pub snapshot_bytes: u64,
}

/// Serves `log` against a durable instance storing under `dir`, crashes
/// it (drop), recovers it from `dir`, and reads every user's places once.
/// `clock` laps per user-day of the replay, then around the recovery
/// ([`RECOVER`]) and the first reads ([`FIRST_TOUCH`]).
pub fn durable_replay(
    log: &Log,
    dir: &Path,
    durability: Durability,
    clock: &mut RefClock,
    mut trace: Option<&mut CallTrace>,
) -> DurableRun {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the store directory");
    let config = StorageConfig {
        resident_cap: Some(durability.resident_cap),
        store_dir: Some(dir.to_path_buf()),
        snapshot_every_days: durability.snapshot_every_days,
    };
    let instance = log.fresh_instance().with_storage(config.clone());
    let replay = replay(log, &instance, clock, trace.as_deref_mut());
    let evictions = instance.eviction_count();
    let hydrations = instance.hydration_count();
    let before: Vec<Vec<DiscoveredPlace>> = log
        .users
        .iter()
        .map(|(user, _)| instance.places_of(*user))
        .collect();
    let (wal_bytes, snapshot_bytes) = store_bytes(dir);
    drop(instance);

    let cells = log.cells.clone();
    if let Some(trace) = trace.as_deref_mut() {
        trace.tracer.open("storage.recover", "");
    }
    clock.start();
    let recovered = CloudInstance::recover(cells, log.size.seed + 1, config, log.end);
    clock.lap(RECOVER);
    if let Some(trace) = trace.as_deref_mut() {
        trace.tracer.close();
        trace.tracer.open("storage.first_touch", "");
    }
    clock.start();
    let after: Vec<Response> = log
        .users
        .iter()
        .map(|(_, token)| {
            recovered.handle(
                &Request::get("/api/v1/places").with_token(token.as_str()),
                log.end,
            )
        })
        .collect();
    clock.lap(FIRST_TOUCH);
    if let Some(trace) = trace {
        trace.tracer.close();
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);

    let mut run = DurableRun {
        replay,
        evictions,
        hydrations,
        wal_bytes,
        snapshot_bytes,
        ..DurableRun::default()
    };
    for (places, response) in before.iter().zip(&after) {
        run.failed_reads += u64::from(!response.is_success());
        let same = matches!(&response.body, Payload::Places { places: p } if p == places);
        run.lost_places += u64::from(!same);
    }
    run
}

/// Bytes of `wal-*` files and of everything else (snapshots) under `dir`.
fn store_bytes(dir: &Path) -> (u64, u64) {
    let (mut wal, mut snapshots) = (0, 0);
    let mut pending = vec![dir.to_path_buf()];
    while let Some(path) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&path) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            if meta.is_dir() {
                pending.push(entry.path());
            } else if entry.file_name().to_string_lossy().starts_with("wal-") {
                wal += meta.len();
            } else {
                snapshots += meta.len();
            }
        }
    }
    (wal, snapshots)
}

/// Decodes every recorded discover batch and absorbs it into a per-user
/// `IncrementalGca` directly, as the discover handler does but without
/// the cloud stack around it. Returns the absorb time in seconds and the
/// observations absorbed.
pub fn gca_absorb(log: &Log) -> (f64, u64) {
    let config = GcaConfig::default();
    let mut engines: HashMap<UserId, (IncrementalGca, u64)> = HashMap::new();
    let mut ns = 0u128;
    let mut absorbed = 0u64;
    for ex in &log.exchanges {
        let Payload::Discover(body) = &ex.request.body else {
            continue;
        };
        let Some(user) = ex.request.token.as_ref().map(|t| log.token_owner[t]) else {
            continue;
        };
        let started = Instant::now();
        let decoded;
        let observations = match &body.batch {
            Some(batch) => {
                decoded = batch.decode().expect("recorded batches decode");
                &decoded[..]
            }
            None => &body.observations[..],
        };
        let start = body.start.unwrap_or(0);
        let (engine, upto) = engines
            .entry(user)
            .or_insert_with(|| (IncrementalGca::new(config.clone()), start));
        let skip = (*upto - start.min(*upto)) as usize;
        if skip < observations.len() {
            engine.absorb(&observations[skip..]);
            *upto = start + observations.len() as u64;
            absorbed += (observations.len() - skip) as u64;
            std::hint::black_box(engine.places());
        }
        ns += started.elapsed().as_nanos();
    }
    (ns as f64 / 1e9, absorbed)
}
