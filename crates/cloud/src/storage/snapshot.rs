//! Compacted per-user snapshots: the serialized form an evicted
//! [`UserStore`] parks in, and the store that holds them.
//!
//! A snapshot captures everything hydration needs to rebuild the exact
//! store: the client-visible state, the idempotency watermarks, and the
//! discovery engine as `(config, observation log)` — the engine itself is
//! rebuilt by a single `absorb` of the full log, which PR 2's
//! split-invariance property pins bit-identical to the incremental
//! original. The memoized next-place model is kept only when it was
//! current at snapshot time, and re-tagged to the *post-deserialize*
//! history generation (deserializing rebuilds the history via upserts, so
//! the generation counter restarts).
//!
//! A parked store is a [`Parked`] pair. The store JSON holds everything
//! but the GCA observation log, which dominates a long-lived user's
//! state; the log goes beside it as the binary column block of
//! [`ObservationBatch::to_bytes`]. A store without a discovery engine has
//! an empty log block. On disk, one file per identity key
//! (`snapshots/<safe key>-<fnv>.snap`) holds three parts back to back:
//!
//! ```text
//! {"key":…,"log_len":…,"store_len":…,"wal_seq":…}\n   one JSON header line
//! <store_len bytes of store JSON>
//! <log_len bytes of the GCA log block>
//! ```
//!
//! Crash recovery ([`SnapshotStore::load`]) reads only the header lines;
//! hydration reads one file whole. Files are written to `<file>.tmp` and
//! renamed into place, so a crash mid-write leaves the previous snapshot.
//!
//! Residency-cap-only mode parks the same pair in memory (bounding the
//! expensive live state — engines, graphs, indexes — not total RSS).
//! With a store directory configured, snapshot bytes go to disk and only
//! the per-key WAL watermark stays resident, which is what keeps capped
//! RSS flat as the population grows. A snapshot whose file could not be
//! written stays resident instead, so hydration still finds it.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, BufRead as _, Write as _};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::RouteStore;
use pmware_algorithms::signature::DiscoveredPlace;
use serde::{Deserialize, Serialize};

use super::fnv1a;
use crate::analytics::ProfileHistory;
use crate::predict::MarkovPredictor;
use crate::profile::ContactEntry;
use crate::state::UserStore;
use crate::wire::ObservationBatch;

/// Serialized form of one [`UserStore`], minus the GCA observation log
/// (the [`Parked`] log block).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UserSnapshot {
    places: Vec<DiscoveredPlace>,
    routes: RouteStore,
    history: ProfileHistory,
    contacts: Vec<ContactEntry>,
    /// The discovery engine's config, present when the store has an
    /// engine; its observation log is the log block.
    gca: Option<GcaConfig>,
    /// Present only when the memo was current at snapshot time.
    next_place: Option<MarkovPredictor>,
    absorbed_upto: u64,
    contacts_absorbed: u64,
    /// Sorted map for byte-stable serialization (the live store uses a
    /// `HashMap`).
    profile_seq: BTreeMap<u64, u64>,
    places_seq: u64,
    routes_seq: u64,
}

/// One parked store: the store JSON and the GCA log block (empty when
/// the store has no discovery engine).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Parked {
    store: String,
    log: Vec<u8>,
}

impl Parked {
    /// Captures a store. The store is not consumed: eviction serializes
    /// under the store mutex, then drops the live entry.
    pub(crate) fn of(store: &UserStore) -> Parked {
        // Persist the memoized predictor only if it is current — a stale
        // memo would be dropped on the next query anyway.
        let next_place = store
            .next_place
            .as_ref()
            .filter(|(generation, _)| *generation == store.history.generation())
            .map(|(_, model)| model.clone());
        let snapshot = UserSnapshot {
            places: store.places.clone(),
            routes: store.routes.clone(),
            history: store.history.clone(),
            contacts: store.contacts.clone(),
            gca: store.gca.as_ref().map(|engine| engine.config().clone()),
            next_place,
            absorbed_upto: store.absorbed_upto,
            contacts_absorbed: store.contacts_absorbed,
            profile_seq: store.profile_seq.iter().map(|(k, v)| (*k, *v)).collect(),
            places_seq: store.places_seq,
            routes_seq: store.routes_seq,
        };
        let log = store.gca.as_ref().map_or_else(Vec::new, |engine| {
            ObservationBatch::encode(engine.observations()).to_bytes()
        });
        Parked {
            store: snapshot.to_json_value().to_string(),
            log,
        }
    }

    /// Rebuilds the live store.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when the store JSON does not
    /// parse, the log block does not decode, or the two disagree on
    /// whether the store has a discovery engine.
    pub(crate) fn to_store(&self) -> Result<UserStore, String> {
        let snapshot: UserSnapshot =
            serde_json::from_str(&self.store).map_err(|e| format!("store JSON: {e}"))?;
        let gca = match (snapshot.gca, self.log.is_empty()) {
            (Some(config), false) => {
                let log = ObservationBatch::from_bytes(&self.log)?.decode()?;
                let mut engine = IncrementalGca::new(config);
                engine.absorb(&log);
                Some(engine)
            }
            (None, true) => None,
            (Some(_), true) => return Err("engine config without a log block".to_owned()),
            (None, false) => return Err("log block without an engine config".to_owned()),
        };
        let history = snapshot.history;
        // Re-tag the memo with the rebuilt history's generation: custom
        // deserialization replays upserts, so the counter restarts at the
        // profile count rather than the original run's value.
        let next_place = snapshot
            .next_place
            .map(|model| (history.generation(), model));
        Ok(UserStore {
            places: snapshot.places,
            routes: snapshot.routes,
            history,
            contacts: snapshot.contacts,
            gca,
            next_place,
            absorbed_upto: snapshot.absorbed_upto,
            contacts_absorbed: snapshot.contacts_absorbed,
            profile_seq: snapshot.profile_seq.into_iter().collect(),
            places_seq: snapshot.places_seq,
            routes_seq: snapshot.routes_seq,
        })
    }
}

/// The header line of a snapshot file. The key inside is authoritative
/// (file names are sanitized); the lengths split the rest of the file.
#[derive(Debug, Serialize, Deserialize)]
struct SnapshotHeader {
    key: String,
    log_len: u64,
    store_len: u64,
    wal_seq: u64,
}

/// One parked snapshot. `resident` is `None` when the bytes live on
/// disk (durable mode): only the watermark stays resident.
#[derive(Debug, Clone)]
struct StoredSnapshot {
    /// Highest WAL sequence folded into the snapshot.
    wal_seq: u64,
    /// The parked pair — always in cap-only mode, and in durable mode
    /// while the latest file write has failed.
    resident: Option<Parked>,
}

#[derive(Debug)]
struct SnapState {
    by_key: BTreeMap<String, StoredSnapshot>,
    dir: Option<PathBuf>,
}

/// The snapshot store: per-key parked stores, in memory or on disk.
#[derive(Debug)]
pub(crate) struct SnapshotStore {
    inner: Mutex<SnapState>,
}

/// The extension of snapshot files.
const SNAPSHOT_EXT: &str = "snap";

/// A filesystem-safe spelling of an identity key: alphanumerics survive,
/// everything else becomes `_`, and an FNV suffix keeps collided
/// sanitizations apart.
fn file_name_of(key: &str) -> String {
    let safe: String = key
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:016x}.{SNAPSHOT_EXT}", fnv1a(key.as_bytes()))
}

/// Writes `key`'s snapshot file: header line, store JSON, log block,
/// into `<file>.tmp`, then renamed over the live file.
fn write_file(dir: &Path, key: &str, wal_seq: u64, parked: &Parked) -> io::Result<()> {
    let header = SnapshotHeader {
        key: key.to_owned(),
        log_len: parked.log.len() as u64,
        store_len: parked.store.len() as u64,
        wal_seq,
    };
    let header = serde_json::to_string(&header).map_err(io::Error::other)?;
    let path = dir.join(file_name_of(key));
    let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(header.as_bytes())?;
    file.write_all(b"\n")?;
    file.write_all(parked.store.as_bytes())?;
    file.write_all(&parked.log)?;
    drop(file);
    fs::rename(&tmp, &path)
}

/// Reads a whole snapshot file back into its parked pair. `None` when
/// the file is missing or its parts do not add up.
fn read_file(path: &Path) -> Option<Parked> {
    let mut bytes = fs::read(path).ok()?;
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header: SnapshotHeader = serde_json::from_slice(&bytes[..newline]).ok()?;
    let store_end = usize::try_from(header.store_len)
        .ok()?
        .checked_add(newline + 1)?;
    let log_len = usize::try_from(header.log_len).ok()?;
    if store_end.checked_add(log_len)? != bytes.len() {
        return None;
    }
    let log = bytes.split_off(store_end);
    bytes.drain(..=newline);
    let store = String::from_utf8(bytes).ok()?;
    Some(Parked { store, log })
}

/// Reads only the header line of a snapshot file.
fn read_header(path: &Path) -> Option<SnapshotHeader> {
    let mut line = String::new();
    io::BufReader::new(fs::File::open(path).ok()?)
        .read_line(&mut line)
        .ok()?;
    serde_json::from_str(line.trim_end_matches('\n')).ok()
}

impl SnapshotStore {
    /// An empty store, parking on disk under `dir/snapshots/` (created
    /// here) when a durability directory is given, in memory otherwise.
    pub(crate) fn new(dir: Option<&Path>) -> SnapshotStore {
        let dir = dir.map(|d| d.join("snapshots"));
        if let Some(dir) = &dir {
            let _ = fs::create_dir_all(dir);
        }
        SnapshotStore {
            inner: Mutex::new(SnapState {
                by_key: BTreeMap::new(),
                dir,
            }),
        }
    }

    /// Parks (or refreshes) `key`'s snapshot.
    ///
    /// # Errors
    ///
    /// In durable mode, the error writing the file. The snapshot is then
    /// kept resident, so hydration still finds it, and left out of
    /// [`SnapshotStore::watermarks`], so compaction keeps the WAL records
    /// the file on disk does not cover.
    pub(crate) fn put(&self, key: &str, wal_seq: u64, parked: Parked) -> io::Result<()> {
        let mut state = self.inner.lock();
        let (resident, written) = match &state.dir {
            Some(dir) => match write_file(dir, key, wal_seq, &parked) {
                Ok(()) => (None, Ok(())),
                Err(e) => (Some(parked), Err(e)),
            },
            None => (Some(parked), Ok(())),
        };
        state
            .by_key
            .insert(key.to_owned(), StoredSnapshot { wal_seq, resident });
        written
    }

    /// The parked snapshot for `key` as `(wal watermark, parked pair)`,
    /// reading disk in durable mode.
    pub(crate) fn get(&self, key: &str) -> Option<(u64, Parked)> {
        let state = self.inner.lock();
        let snapshot = state.by_key.get(key)?;
        if let Some(parked) = &snapshot.resident {
            return Some((snapshot.wal_seq, parked.clone()));
        }
        let dir = state.dir.as_ref()?;
        let parked = read_file(&dir.join(file_name_of(key)))?;
        Some((snapshot.wal_seq, parked))
    }

    /// Whether `key` has a parked snapshot.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.inner.lock().by_key.contains_key(key)
    }

    /// Snapshot keys currently parked, in key order.
    pub(crate) fn keys(&self) -> Vec<String> {
        self.inner.lock().by_key.keys().cloned().collect()
    }

    /// Per-key WAL watermarks of the snapshots whose durable copy is
    /// current — what compaction may drop.
    pub(crate) fn watermarks(&self) -> HashMap<String, u64> {
        self.inner
            .lock()
            .by_key
            .iter()
            .filter(|(_, s)| s.resident.is_none())
            .map(|(k, s)| (k.clone(), s.wal_seq))
            .collect()
    }

    /// Loads every snapshot found in the store's directory (crash
    /// recovery), reading only each file's header line. Bytes stay on
    /// disk; only watermarks come resident. Unparseable files and
    /// leftover `.tmp` files are skipped.
    pub(crate) fn load(&self) {
        let mut state = self.inner.lock();
        let Some(Ok(entries)) = state.dir.as_ref().map(fs::read_dir) else {
            return;
        };
        let mut names: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == SNAPSHOT_EXT))
            .collect();
        names.sort();
        for path in names {
            let Some(header) = read_header(&path) else {
                continue;
            };
            state.by_key.insert(
                header.key,
                StoredSnapshot {
                    wal_seq: header.wal_seq,
                    resident: None,
                },
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::payload::DiscoverBody;
    use crate::storage::apply::apply_discover;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};

    fn sample(minute: u64, cid: u32) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(minute * 60),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(11),
                cell: CellId(cid),
            },
            layer: if cid.is_multiple_of(3) {
                NetworkLayer::G3
            } else {
                NetworkLayer::G2
            },
            rssi_dbm: -60.0 - f64::from(cid % 17) - (minute % 7) as f64 * 0.25,
        }
    }

    /// A store that has offloaded `days` days of one-per-minute samples:
    /// nights bouncing between two home cells, days between two work
    /// cells, an hour of distinct transit cells each way. Each day is its
    /// own sequenced offload, so the log is absorbed incrementally.
    pub(crate) fn multi_day_store(days: u64) -> UserStore {
        let mut store = UserStore::default();
        let config = GcaConfig::default();
        let mut start = 0;
        for day in 0..days {
            let base = day * 1_440;
            let observations: Vec<GsmObservation> = (0..1_440)
                .map(|m| {
                    let cid = match m {
                        0..480 | 1_020.. => 1 + (m / 4 % 2) as u32,
                        480..540 => 100 + (m - 480) as u32 / 6,
                        540..960 => 20 + (m / 3 % 2) as u32,
                        _ => 200 + (m - 960) as u32 / 6,
                    };
                    sample(base + m, cid)
                })
                .collect();
            let body = DiscoverBody {
                observations: Vec::new(),
                batch: Some(ObservationBatch::encode(&observations)),
                start: Some(start),
            };
            apply_discover(&mut store, &config, &body).unwrap();
            start += observations.len() as u64;
        }
        store.contacts_absorbed = 5;
        store.profile_seq = HashMap::from([(0, 3), (1, 4)]);
        store.places_seq = 6;
        store.routes_seq = 7;
        store
    }

    /// Every watermark and the client-visible places of two stores.
    pub(crate) fn assert_same_state(a: &UserStore, b: &UserStore) {
        assert_eq!(a.places, b.places);
        assert_eq!(a.absorbed_upto, b.absorbed_upto);
        assert_eq!(a.contacts_absorbed, b.contacts_absorbed);
        assert_eq!(a.profile_seq, b.profile_seq);
        assert_eq!(a.places_seq, b.places_seq);
        assert_eq!(a.routes_seq, b.routes_seq);
    }

    #[test]
    fn snapshot_round_trips_an_empty_store() {
        let parked = Parked::of(&UserStore::default());
        assert!(parked.log.is_empty(), "no engine, no log block");
        let rebuilt = parked.to_store().unwrap();
        assert!(rebuilt.places.is_empty());
        assert!(rebuilt.gca.is_none());
        assert_eq!(rebuilt.absorbed_upto, 0);
    }

    /// Parking and hydrating a store with a multi-day GCA log rebuilds
    /// the engine over a bit-identical log, with the same places and the
    /// same watermarks; dropping the engine keeps everything else.
    #[test]
    fn parked_multi_day_store_hydrates_with_full_fidelity() {
        let store = multi_day_store(4);
        let engine = store.gca.as_ref().unwrap();
        assert_eq!(engine.observation_count(), 4 * 1_440);
        assert!(!store.places.is_empty(), "the fixture discovers places");

        let parked = Parked::of(&store);
        let rebuilt = parked.to_store().unwrap();
        let back = rebuilt.gca.as_ref().unwrap();
        assert_eq!(back.config(), engine.config());
        let bits = |log: &[GsmObservation]| {
            log.iter()
                .map(|o| (o.time, o.cell, o.layer, o.rssi_dbm.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(back.observations()), bits(engine.observations()));
        assert_eq!(back.places().places, engine.places().places);
        assert_same_state(&rebuilt, &store);
    }

    #[test]
    fn mismatched_log_block_is_an_error() {
        let parked = Parked::of(&multi_day_store(1));
        let headless = Parked {
            store: Parked::of(&UserStore::default()).store,
            log: parked.log.clone(),
        };
        assert!(headless.to_store().is_err());
        let logless = Parked {
            store: parked.store.clone(),
            log: Vec::new(),
        };
        assert!(logless.to_store().is_err());
        let truncated = Parked {
            store: parked.store,
            log: parked.log[..parked.log.len() - 1].to_vec(),
        };
        assert!(truncated.to_store().is_err());
    }

    #[test]
    fn file_names_are_safe_and_distinct() {
        let a = file_name_of("350-1|u1@example.com");
        let b = file_name_of("350-1|u2@example.com");
        assert_ne!(a, b);
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'));
    }

    #[test]
    fn memory_store_put_get() {
        let store = SnapshotStore::new(None);
        let parked = Parked::of(&UserStore::default());
        store.put("k", 7, parked.clone()).unwrap();
        assert!(store.contains("k"));
        assert_eq!(store.get("k").unwrap(), (7, parked));
        assert_eq!(store.watermarks().get("k"), None, "no durable copy");
    }

    /// The file layout: one header line whose lengths split the rest,
    /// read back whole by `get` and header-only by `load`.
    #[test]
    fn disk_store_writes_header_store_and_log() {
        let dir = std::env::temp_dir().join(format!("pmware-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let parked = Parked::of(&multi_day_store(2));
        let store = SnapshotStore::new(Some(&dir));
        store.put("imei|mail", 9, parked.clone()).unwrap();

        let path = dir.join("snapshots").join(file_name_of("imei|mail"));
        let bytes = fs::read(&path).unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header: SnapshotHeader = serde_json::from_slice(&bytes[..newline]).unwrap();
        assert_eq!(header.key, "imei|mail");
        assert_eq!(header.wal_seq, 9);
        assert_eq!(header.store_len as usize, parked.store.len());
        assert_eq!(header.log_len as usize, parked.log.len());
        assert_eq!(
            bytes.len(),
            newline + 1 + parked.store.len() + parked.log.len()
        );
        assert_eq!(store.get("imei|mail").unwrap(), (9, parked.clone()));
        assert_eq!(store.watermarks().get("imei|mail"), Some(&9));

        // A leftover temporary file is not a snapshot.
        fs::write(path.with_extension("snap.tmp"), b"{}\n").unwrap();
        let recovered = SnapshotStore::new(Some(&dir));
        recovered.load();
        assert_eq!(recovered.keys(), vec!["imei|mail".to_owned()]);
        assert_eq!(recovered.get("imei|mail").unwrap(), (9, parked));
        let _ = fs::remove_dir_all(&dir);
    }
}
