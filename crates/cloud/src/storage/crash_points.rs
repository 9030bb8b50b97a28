//! The WAL crash-point matrix: a multi-user durable run, then every shard
//! file damaged at every frame boundary and a few bytes either side of it
//! (a crash mid-append), and separately with one bit flipped inside each
//! frame (a bad disk). Each arm recovers a fresh engine from the damaged
//! directory and must load exactly the records whose frames lie wholly
//! before the damage, count the damage under the right `reason`, and
//! leave the shard so that an append after recovery survives the next
//! recovery. Loading fewer records than the damaged file still holds
//! whole frames of, with every counter at zero, fails the arm whatever
//! the expected prefix says.

use std::fs;
use std::path::{Path, PathBuf};

use pmware_obs::Obs;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};

use super::wal::{WalOp, WalRecord, FRAME_HEADER};
use super::{shard_path, StorageConfig, StorageEngine};
use crate::api::Request;
use crate::geolocate::CellDatabase;
use crate::instance::CloudInstance;
use crate::payload::{DiscoverBody, Payload, RegistrationBody, SyncContactsBody};
use crate::profile::ContactEntry;
use crate::state::SHARD_COUNT;
use crate::wire::ObservationBatch;

const USERS: u32 = 4;
const DAYS: u64 = 3;

/// Bytes each side of a frame boundary the truncation arms cut at.
const NEAR: usize = 3;

/// Indexes of the `(torn_tail, corrupt, legacy_jsonl)` counters.
const TORN: usize = 0;
const CORRUPT: usize = 1;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmware-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable(dir: &Path) -> StorageConfig {
    StorageConfig {
        resident_cap: Some(2),
        store_dir: Some(dir.to_path_buf()),
        snapshot_every_days: 2,
    }
}

/// Three days of four users under a cap of two, with one compaction
/// sweep: daily registrations (grants), batched sequenced discovers and
/// contact syncs. The instance is dropped at the end: the crash.
fn durable_run(dir: &Path) {
    let cloud = CloudInstance::new(CellDatabase::new(), 7).with_storage(durable(dir));
    for day in 0..DAYS {
        for user in 0..USERS {
            let at = SimTime::from_day_time(day, 8, 0, u64::from(user));
            let registered = cloud.handle(
                &Request::post(
                    "/api/v1/registration",
                    RegistrationBody {
                        imei: format!("imei-{user}"),
                        email: format!("u{user}@example.com"),
                    },
                ),
                at,
            );
            let Payload::Registered { token, .. } = &registered.body else {
                panic!("registration failed: {registered:?}");
            };
            let cell = |id: u32| CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(1),
                cell: CellId(id + user * 100),
            };
            let log: Vec<GsmObservation> = (0..30)
                .map(|m| GsmObservation {
                    time: SimTime::from_day_time(day, 1, m, 0),
                    cell: cell(1 + (m % 3 == 1) as u32),
                    layer: NetworkLayer::G2,
                    rssi_dbm: -70.0,
                })
                .collect();
            let requests = [
                Request::post(
                    "/api/v1/places/discover",
                    DiscoverBody {
                        observations: Vec::new(),
                        batch: Some(ObservationBatch::encode(&log)),
                        start: Some(day * 30),
                    },
                ),
                Request::post(
                    "/api/v1/social/sync",
                    SyncContactsBody {
                        contacts: vec![ContactEntry {
                            contact: format!("peer-{user}-{day}"),
                            start: at,
                            end: at,
                            place: None,
                        }],
                        first_seq: Some(day),
                    },
                ),
            ];
            for request in requests {
                let response = cloud.handle(&request.with_token(token.as_str()), at);
                assert!(response.is_success(), "{response:?}");
            }
        }
    }
}

/// One intact shard file: its bytes, and each frame's end offset and
/// record, in file order.
struct Shard {
    idx: usize,
    bytes: Vec<u8>,
    frames: Vec<(usize, WalRecord)>,
}

fn read_shards(dir: &Path) -> Vec<Shard> {
    let mut shards = Vec::new();
    for idx in 0..SHARD_COUNT {
        let Ok(bytes) = fs::read(shard_path(dir, idx)) else {
            continue;
        };
        let mut frames = Vec::new();
        let mut end = 0;
        while end < bytes.len() {
            let (record, len) = WalRecord::from_frame(&bytes[end..]).expect("intact frame");
            end += len;
            frames.push((end, record));
        }
        if !frames.is_empty() {
            shards.push(Shard { idx, bytes, frames });
        }
    }
    shards
}

/// What one recovery found: the loaded records in (key, seq) order and
/// the `(torn_tail, corrupt, legacy_jsonl)` counters.
fn recover(dir: &Path) -> (Vec<WalRecord>, [u64; 3]) {
    let obs = Obs::new();
    let engine = StorageEngine::with_config(durable(dir), &obs);
    engine.load_dir();
    let records = engine.inner.wal.lock().log.all_records().cloned().collect();
    let metrics = obs.metrics().unwrap().snapshot();
    let reason = |r: &str| {
        metrics.counter_value(&format!("storage_recovery_errors_total{{reason=\"{r}\"}}"))
    };
    let counters = [
        reason("torn_tail"),
        reason("corrupt"),
        reason("legacy_jsonl"),
    ];
    (records, counters)
}

/// The records of `frames` wholly inside the first `upto` bytes, in the
/// (key, seq) order the loaded log iterates in.
fn prefix(frames: &[(usize, WalRecord)], upto: usize) -> Vec<WalRecord> {
    let mut records: Vec<WalRecord> = frames
        .iter()
        .filter(|(end, _)| *end <= upto)
        .map(|(_, record)| record.clone())
        .collect();
    records.sort_by(|a, b| (&a.key, a.seq).cmp(&(&b.key, b.seq)));
    records
}

/// Recovers `damaged` as shard `shard.idx` of the fresh directory
/// `arm_dir`, checks the loaded records and that only the `reason`
/// counter moved (none for a clean cut), then appends one grant and
/// checks a second recovery reads the prefix plus the grant, undamaged.
fn run_arm(
    arm_dir: &str,
    label: &str,
    shard: &Shard,
    damaged: &[u8],
    expected: &[WalRecord],
    reason: Option<usize>,
) {
    let dir = scratch(arm_dir);
    let path = shard_path(&dir, shard.idx);
    fs::write(&path, damaged).unwrap();

    let (loaded, counters) = recover(&dir);
    let on_disk = |(end, _): &&(usize, WalRecord)| *end <= damaged.len();
    let written = shard.frames.iter().filter(on_disk).count();
    assert!(
        loaded.len() == written || counters.iter().sum::<u64>() > 0,
        "{label}: silently recovered {} of the {written} records on disk",
        loaded.len()
    );
    assert_eq!(loaded, expected, "{label}: recovered records");
    let mut want = [0; 3];
    if let Some(reason) = reason {
        want[reason] = 1;
    }
    assert_eq!(
        counters, want,
        "{label}: (torn_tail, corrupt, legacy) counters"
    );
    if reason == Some(CORRUPT) {
        let aside = fs::read(path.with_extension("bin.corrupt")).unwrap();
        assert_eq!(aside, damaged, "{label}: the corrupt shard is kept aside");
    }

    // Recovery cut the shard back to whole frames: a later append lands
    // on a frame boundary and the next recovery reads it.
    let engine = StorageEngine::with_config(durable(&dir), &Obs::new());
    engine.load_dir();
    let key = &shard.frames[0].1.key;
    let grant = WalOp::TokenGrant {
        token: format!("after-{label}"),
        expires_at: SimTime::from_seconds(1),
    };
    engine.append_durable(key, grant.clone());
    drop(engine);
    let (reloaded, counters) = recover(&dir);
    assert_eq!(
        counters, [0; 3],
        "{label}: damage left behind after recovery"
    );
    assert_eq!(reloaded.len(), expected.len() + 1, "{label}: append lost");
    assert!(
        reloaded.iter().any(|r| &r.key == key && r.op == grant),
        "{label}: the append after recovery is missing"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_recovers_the_whole_frames_before_the_cut() {
    let dir = scratch("truncate");
    durable_run(&dir);
    let shards = read_shards(&dir);
    assert!(
        shards.len() >= 2,
        "the run spreads keys over several shards"
    );
    let mut arms = 0;
    for shard in &shards {
        let boundaries = std::iter::once(0).chain(shard.frames.iter().map(|(end, _)| *end));
        let mut cuts: Vec<usize> = boundaries
            .flat_map(|b| b.saturating_sub(NEAR)..=b + NEAR)
            .filter(|&cut| cut <= shard.bytes.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let clean = cut == 0 || shard.frames.iter().any(|(end, _)| *end == cut);
            let label = format!("shard {} cut at {cut}", shard.idx);
            run_arm(
                "truncate-arm",
                &label,
                shard,
                &shard.bytes[..cut],
                &prefix(&shard.frames, cut),
                (!clean).then_some(TORN),
            );
            arms += 1;
        }
    }
    assert!(arms > 100, "only {arms} truncation arms");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_bit_flip_in_any_frame_stops_its_shard_there() {
    let dir = scratch("flip");
    durable_run(&dir);
    let shards = read_shards(&dir);
    let mut arms = 0;
    for shard in &shards {
        let mut start = 0;
        for (i, (end, _)) in shard.frames.iter().enumerate() {
            // One flip in each part: the length, its check, the checksum
            // and the middle of the body.
            for at in [
                start,
                start + 5,
                start + 9,
                (start + FRAME_HEADER + end) / 2,
            ] {
                let mut damaged = shard.bytes.clone();
                damaged[at] ^= 1 << (i % 8);
                let label = format!("shard {} frame {i} byte {at}", shard.idx);
                let expected = prefix(&shard.frames, start);
                run_arm(
                    "flip-arm",
                    &label,
                    shard,
                    &damaged,
                    &expected,
                    Some(CORRUPT),
                );
                arms += 1;
            }
            start = *end;
        }
    }
    assert!(arms > 100, "only {arms} bit-flip arms");
    let _ = fs::remove_dir_all(&dir);
}

/// A store directory of the old JSONL format is refused loudly: counted,
/// and not read.
#[test]
fn a_legacy_jsonl_shard_is_counted_and_not_read() {
    let dir = scratch("legacy");
    let line =
        r#"{"key":"imei-0|u0@example.com","kind":"token","seq":1,"token":"t","expires_at_s":9}"#;
    fs::write(dir.join("wal-03.jsonl"), format!("{line}\n")).unwrap();
    let (loaded, counters) = recover(&dir);
    assert!(loaded.is_empty());
    assert_eq!(counters, [0, 0, 1]);
    let _ = fs::remove_dir_all(&dir);
}

/// A shard that cannot be read at all is not skipped silently.
#[test]
fn an_unreadable_shard_is_counted_corrupt() {
    let dir = scratch("unreadable");
    fs::create_dir_all(shard_path(&dir, 5)).unwrap();
    let (loaded, counters) = recover(&dir);
    assert!(loaded.is_empty());
    assert_eq!(counters, [0, 1, 0]);
    let _ = fs::remove_dir_all(&dir);
}
