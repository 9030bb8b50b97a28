//! The WAL crash-point matrix: a multi-user durable run, then every shard
//! file (its generation on disk) damaged at every frame boundary and a few
//! bytes either side of it (a crash mid-append), and separately with one
//! bit flipped inside each typed frame (a bad disk). Each arm recovers a fresh engine from the damaged
//! directory and must load exactly the records whose frames lie wholly
//! before the damage, count the damage under the right `reason`, and
//! leave the shard so that an append after recovery survives the next
//! recovery. Loading fewer records than the damaged file still holds
//! whole frames of, with every counter at zero, fails the arm whatever
//! the expected prefix says.
//!
//! The shard rewrite's crash windows follow, and then the snapshot's, on
//! the same rule: a process killed mid-write (a `.tmp` beside generation
//! N) and killed between the rename and the unlink (generations N and
//! N + 1). A shard of the older, generation-less format is counted and
//! never read. Each recovers and must answer every
//! read with the bytes the dead instance gave, under the tokens its
//! clients still hold. Then damaged snapshot files: one of the older
//! JSON format, and a parked user's file with a bit flipped in each
//! region or cut at each region boundary. Each is counted, refused, and
//! never hydrated: the user hydrates exactly what the WAL alone rebuilds.

use std::fs;
use std::path::{Path, PathBuf};

use pmware_algorithms::gca::GcaConfig;
use pmware_obs::Obs;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};

use super::snapshot::Parked;
use super::wal::{WalOp, WalRecord, FRAME_HEADER};
use super::{parse_shard_name, shard_path, StorageConfig, StorageEngine};
use crate::api::Request;
use crate::geolocate::CellDatabase;
use crate::instance::CloudInstance;
use crate::payload::{DiscoverBody, Payload, RegistrationBody, SyncContactsBody};
use crate::profile::ContactEntry;
use crate::state::{UserStore, SHARD_COUNT};
use crate::wire::ObservationBatch;

const USERS: u32 = 4;
const DAYS: u64 = 3;

/// Bytes each side of a frame boundary the truncation arms cut at.
const NEAR: usize = 3;

/// Indexes of the `(torn_tail, corrupt, legacy)` counters.
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
        traffic_day(&cloud, day);
    }
}

/// One day of `durable_run`'s traffic; returns each user's new token.
fn traffic_day(cloud: &CloudInstance, day: u64) -> Vec<String> {
    (0..USERS)
        .map(|user| {
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
            token.clone()
        })
        .collect()
}

/// One intact shard file: its generation, its bytes, and each frame's
/// end offset and record, in file order.
struct Shard {
    idx: usize,
    gen: u64,
    bytes: Vec<u8>,
    frames: Vec<(usize, WalRecord)>,
}

/// The generations of shard `idx` on disk in `dir`, oldest first.
fn shard_generations(dir: &Path, idx: usize) -> Vec<u64> {
    let mut gens: Vec<u64> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| parse_shard_name(&entry.unwrap().file_name().to_string_lossy()))
        .filter(|&(shard, _)| shard == idx)
        .map(|(_, gen)| gen)
        .collect();
    gens.sort_unstable();
    gens
}

fn read_shards(dir: &Path) -> Vec<Shard> {
    let mut shards = Vec::new();
    for idx in 0..SHARD_COUNT {
        let gens = shard_generations(dir, idx);
        let Some(&gen) = gens.last() else {
            continue;
        };
        assert_eq!(gens.len(), 1, "one generation of shard {idx} on disk");
        let bytes = fs::read(shard_path(dir, idx, gen)).unwrap();
        let mut frames = Vec::new();
        let mut end = 0;
        while end < bytes.len() {
            let (record, len) = WalRecord::from_frame(&bytes[end..]).expect("intact frame");
            end += len;
            frames.push((end, record));
        }
        if !frames.is_empty() {
            shards.push(Shard {
                idx,
                gen,
                bytes,
                frames,
            });
        }
    }
    shards
}

/// What one recovery found: the loaded records in (key, seq) order and
/// the `(torn_tail, corrupt, legacy)` counters.
fn recover(dir: &Path) -> (Vec<WalRecord>, [u64; 3]) {
    let obs = Obs::new();
    let engine = StorageEngine::with_config(durable(dir), &obs);
    engine.load_dir();
    let records = engine.inner.wal.lock().log.all_records().cloned().collect();
    let metrics = obs.metrics().unwrap().snapshot();
    let reason = |r: &str| {
        metrics.counter_value(&format!("storage_recovery_errors_total{{reason=\"{r}\"}}"))
    };
    let counters = [reason("torn_tail"), reason("corrupt"), reason("legacy")];
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
    let path = shard_path(&dir, shard.idx, shard.gen);
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

/// Shards of the older formats are refused loudly: counted, never read
/// and left on disk. A JSONL shard, and a generation-less `wal-NN.bin` of
/// frames checked by byte-wise FNV-1a, whose kind-1 bodies were JSON.
#[test]
fn older_format_shards_are_counted_and_not_read() {
    let dir = scratch("legacy");
    let line =
        r#"{"key":"imei-0|u0@example.com","kind":"token","seq":1,"token":"t","expires_at_s":9}"#;
    fs::write(dir.join("wal-03.jsonl"), format!("{line}\n")).unwrap();
    // A token grant in the older binary frame.
    let mut body = 1u64.to_le_bytes().to_vec();
    crate::codec::put_str(&mut body, "imei-0|u0@example.com");
    body.push(0);
    crate::codec::put_str(&mut body, "t");
    body.extend_from_slice(&9u64.to_le_bytes());
    let len = body.len() as u32;
    let mut frame = [len.to_le_bytes(), (!len).to_le_bytes()].concat();
    frame.extend_from_slice(&super::fnv1a(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    fs::write(dir.join("wal-04.bin"), &frame).unwrap();

    let (loaded, counters) = recover(&dir);
    assert!(loaded.is_empty());
    assert_eq!(counters, [0, 0, 2]);
    assert_eq!(
        fs::read(dir.join("wal-04.bin")).unwrap(),
        frame,
        "left as it was"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A shard that cannot be read at all is not skipped silently.
#[test]
fn an_unreadable_shard_is_counted_corrupt() {
    let dir = scratch("unreadable");
    fs::create_dir_all(shard_path(&dir, 5, 1)).unwrap();
    let (loaded, counters) = recover(&dir);
    assert!(loaded.is_empty());
    assert_eq!(counters, [0, 1, 0]);
    let _ = fs::remove_dir_all(&dir);
}

// ---- snapshot crash windows ------------------------------------------

/// The instant of the crash, of recovery and of every read around them.
fn end() -> SimTime {
    SimTime::from_day_time(DAYS - 1, 20, 0, 0)
}

fn identity(user: u32) -> String {
    super::identity_key(&format!("imei-{user}"), &format!("u{user}@example.com"))
}

/// Everything a client can read of its places and contacts, as raw
/// response bytes.
fn reads(cloud: &CloudInstance, token: &str) -> Vec<Vec<u8>> {
    [
        Request::get("/api/v1/places"),
        Request::post(
            "/api/v1/social/query",
            crate::payload::SocialQueryBody { place: None },
        ),
    ]
    .into_iter()
    .map(|read| {
        let response = cloud.handle(&read.with_token(token), end());
        assert!(response.is_success(), "{response:?}");
        response.to_bytes().to_vec()
    })
    .collect()
}

/// `durable_run`'s three days, with the snapshot directory copied to
/// `aside` after day 1. Then users 1–3 read, and user 0 writes once more
/// and reads: at the crash user 0 is resident, with its last parked
/// generation on disk and one WAL record past it, while users 1 and 2
/// are parked. Returns the clients' tokens and what each user read.
fn crash_scene(dir: &Path, aside: &Path) -> (Vec<String>, Vec<Vec<Vec<u8>>>) {
    let cloud = CloudInstance::new(CellDatabase::new(), 7).with_storage(durable(dir));
    let mut tokens = Vec::new();
    for day in 0..DAYS {
        tokens = traffic_day(&cloud, day);
        if day == 1 {
            fs::create_dir_all(aside).unwrap();
            for entry in fs::read_dir(dir.join("snapshots")).unwrap() {
                let path = entry.unwrap().path();
                fs::copy(&path, aside.join(path.file_name().unwrap())).unwrap();
            }
        }
    }
    let mut before = vec![Vec::new(); USERS as usize];
    for user in 1..USERS as usize {
        before[user] = reads(&cloud, &tokens[user]);
    }
    let write = Request::post(
        "/api/v1/social/sync",
        SyncContactsBody {
            contacts: vec![ContactEntry {
                contact: "last-word".into(),
                start: end(),
                end: end(),
                place: None,
            }],
            first_seq: Some(DAYS),
        },
    );
    let response = cloud.handle(&write.with_token(tokens[0].as_str()), end());
    assert!(response.is_success(), "{response:?}");
    before[0] = reads(&cloud, &tokens[0]);
    let parked: Vec<u32> = (0..USERS)
        .filter(|&n| !cloud.is_resident(crate::auth::UserId(n)))
        .collect();
    assert_eq!(parked, [1, 2], "users parked at the crash");
    (tokens, before)
}

/// The generations of `user`'s snapshot in `dir`, oldest first.
fn generations(dir: &Path, user: u32) -> Vec<u64> {
    let stem = super::snapshot::stem_of(&identity(user));
    let mut gens: Vec<u64> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            super::parse_generation(&name, super::snapshot::SNAPSHOT_EXT)
                .filter(|(s, _)| *s == stem)
                .map(|(_, gen)| gen)
        })
        .collect();
    gens.sort_unstable();
    gens
}

/// The path of `user`'s snapshot generation `gen` under `snapshots`.
fn generation_path(snapshots: &Path, user: u32, gen: u64) -> PathBuf {
    snapshots.join(super::snapshot::file_name_of(&identity(user), gen))
}

/// Recovers `dir` and checks every user reads back what it read before
/// the crash, under the token it still holds.
fn recover_and_compare(dir: &Path, tokens: &[String], before: &[Vec<Vec<u8>>]) -> CloudInstance {
    let recovered = CloudInstance::recover(CellDatabase::new(), 7, durable(dir), end());
    for (user, token) in tokens.iter().enumerate() {
        assert_eq!(
            reads(&recovered, token),
            before[user],
            "user {user}: recovered reads must be byte-identical"
        );
    }
    recovered
}

/// A shard rewrite killed mid-write: a `.tmp` of generation N + 1 lies
/// beside each shard's generation N. Recovery loads N, exactly as it
/// loads the undamaged directory, and removes the `.tmp`.
#[test]
fn a_leftover_shard_tmp_beside_generation_n_recovers_from_n() {
    let dir = scratch("wal-window-tmp");
    let (tokens, before) = crash_scene(&dir, &dir.join("aside"));
    let (intact, _) = recover(&dir);
    let shards = read_shards(&dir);
    for shard in &shards {
        let tmp = shard_path(&dir, shard.idx, shard.gen + 1).with_extension("bin.tmp");
        fs::write(&tmp, &shard.bytes[..shard.bytes.len() / 2]).unwrap();
    }

    let (loaded, counters) = recover(&dir);
    assert_eq!(counters, [0; 3]);
    assert_eq!(loaded, intact, "generation N is read");
    for shard in &shards {
        assert_eq!(shard_generations(&dir, shard.idx), [shard.gen]);
        let tmp = shard_path(&dir, shard.idx, shard.gen + 1).with_extension("bin.tmp");
        assert!(!tmp.exists(), "recovery removes the .tmp");
    }
    recover_and_compare(&dir, &tokens, &before);
    let _ = fs::remove_dir_all(&dir);
}

/// A shard rewrite killed between the rename and the unlink: each shard's
/// generations N and N + 1 are both on disk, N still holding a record the
/// rewrite dropped. N + 1 wins, N is removed, and the dropped record is
/// not read.
#[test]
fn shard_generations_n_and_n_plus_1_recover_from_the_newest() {
    let dir = scratch("wal-window-both");
    let (tokens, before) = crash_scene(&dir, &dir.join("aside"));
    let (intact, _) = recover(&dir);
    let shards = read_shards(&dir);
    for shard in &shards {
        let (old, new) = (
            shard_path(&dir, shard.idx, shard.gen),
            shard_path(&dir, shard.idx, shard.gen + 1),
        );
        fs::rename(&old, &new).unwrap();
        let dropped = WalRecord {
            seq: 1_000_000,
            key: shard.frames[0].1.key.clone(),
            op: WalOp::TokenGrant {
                token: "dropped".into(),
                expires_at: end(),
            },
        };
        fs::write(
            &old,
            [shard.bytes.clone(), dropped.to_frame().unwrap()].concat(),
        )
        .unwrap();
    }

    let (loaded, counters) = recover(&dir);
    assert_eq!(counters, [0; 3]);
    assert_eq!(loaded, intact, "generation N + 1 is read");
    for shard in &shards {
        assert_eq!(
            shard_generations(&dir, shard.idx),
            [shard.gen + 1],
            "generation N removed"
        );
    }
    recover_and_compare(&dir, &tokens, &before);
    let _ = fs::remove_dir_all(&dir);
}

/// Killed mid-write: a `.tmp` of generation N + 1 lies beside generation
/// N. Recovery uses N plus the WAL suffix past it, and removes the
/// `.tmp`.
#[test]
fn a_leftover_tmp_beside_generation_n_recovers_from_n_and_the_wal() {
    let dir = scratch("window-tmp");
    let (tokens, before) = crash_scene(&dir, &dir.join("aside"));
    let snapshots = dir.join("snapshots");
    let gens = generations(&snapshots, 0);
    let &[n] = gens.as_slice() else {
        panic!("one generation of user 0 on disk: {gens:?}");
    };
    let live = fs::read(generation_path(&snapshots, 0, n)).unwrap();
    let tmp = generation_path(&snapshots, 0, n + 1).with_extension("snap.tmp");
    fs::write(&tmp, &live[..live.len() / 2]).unwrap();

    let engine = StorageEngine::with_config(durable(&dir), &Obs::new());
    engine.load_dir();
    let key = identity(0);
    let (watermark, parked) = engine.inner.snapshots.get(&key).unwrap();
    assert!(parked.is_some(), "generation {n} is read");
    assert_eq!(
        engine.records_of(&key).last().unwrap().seq,
        watermark + 1,
        "one WAL record past generation {n}"
    );
    assert!(!tmp.exists(), "recovery removes the .tmp");
    drop(engine);

    recover_and_compare(&dir, &tokens, &before);
    let _ = fs::remove_dir_all(&dir);
}

/// Killed between the rename and the unlink: generations N and N + 1 are
/// both on disk, N holding an older snapshot whose WAL records are
/// compacted away. N + 1 wins and N is removed.
#[test]
fn generations_n_and_n_plus_1_recover_from_the_newest() {
    let dir = scratch("window-both");
    let aside = dir.join("aside");
    let (tokens, before) = crash_scene(&dir, &aside);
    let snapshots = dir.join("snapshots");
    let gens = generations(&snapshots, 1);
    let &[newest] = gens.as_slice() else {
        panic!("one generation of user 1 on disk: {gens:?}");
    };
    let old = *generations(&aside, 1).last().unwrap();
    assert!(old < newest, "user 1 parked again after day 1");
    let older = generation_path(&snapshots, 1, newest - 1);
    fs::copy(generation_path(&aside, 1, old), &older).unwrap();

    let engine = StorageEngine::with_config(durable(&dir), &Obs::new());
    engine.load_dir();
    let key = identity(1);
    let (watermark, _) = engine.inner.snapshots.get(&key).unwrap();
    assert_eq!(
        watermark,
        engine.inner.wal.lock().log.last_seq(&key),
        "the newest generation covers the whole log"
    );
    assert_eq!(generations(&snapshots, 1), [newest], "generation N removed");
    drop(engine);

    recover_and_compare(&dir, &tokens, &before);
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot of the older format — a JSON header line, then store JSON
/// — is counted and refused: user 1's under its generation's own name,
/// user 2's under the generation-less name from before generations. Both
/// users hydrate from the WAL alone, the refused files stay on disk, and
/// user 1's next park is numbered above its refused file, which the
/// following recovery then removes as older.
#[test]
fn an_old_format_snapshot_is_counted_and_refused() {
    let dir = scratch("window-legacy");
    let (tokens, before) = crash_scene(&dir, &dir.join("aside"));
    let snapshots = dir.join("snapshots");
    let mut refused = Vec::new();
    for (user, generation_less) in [(1, false), (2, true)] {
        let gens = generations(&snapshots, user);
        let &[gen] = gens.as_slice() else {
            panic!("one generation of user {user} on disk: {gens:?}");
        };
        fs::remove_file(generation_path(&snapshots, user, gen)).unwrap();
        let old = if generation_less { 0 } else { gen };
        let header = format!(
            "{{\"key\":\"{}\",\"log_len\":0,\"store_len\":2,\"wal_seq\":1}}",
            identity(user)
        );
        fs::write(
            generation_path(&snapshots, user, old),
            format!("{header}\n{{}}"),
        )
        .unwrap();
        refused.push(old);
    }
    let (engine, at_load) = load(&dir);
    assert_eq!(at_load, 2, "both old-format files counted at load");
    for user in [1, 2] {
        assert!(engine.inner.snapshots.get(&identity(user)).is_none());
    }
    drop(engine);

    // Users 0 and 3 read what they read before; users 1 and 2 read what
    // their WAL records alone rebuild. Reading every user in order parks
    // users 0 and 1 again under the cap of two.
    let recovered = CloudInstance::recover(CellDatabase::new(), 7, durable(&dir), end());
    for (user, token) in tokens.iter().enumerate() {
        let read = reads(&recovered, token);
        if user == 0 || user == 3 {
            assert_eq!(read, before[user], "user {user}: recovered reads");
        }
    }
    assert!(!recovered.is_resident(crate::auth::UserId(1)));
    drop(recovered);
    let parked = generations(&snapshots, 1);
    assert_eq!(
        parked,
        [refused[0], refused[0] + 1],
        "user 1 parked above its refused file, which stays"
    );
    assert_eq!(generations(&snapshots, 2), [0], "user 2 not parked since");

    let (engine, at_load) = load(&dir);
    assert_eq!(at_load, 1, "only user 2's file is still refused");
    assert_eq!(generations(&snapshots, 1), [refused[0] + 1]);
    let (_, parked) = engine.inner.snapshots.get(&identity(1)).unwrap();
    assert!(parked.is_some(), "user 1's new generation is read");
    let _ = fs::remove_dir_all(&dir);
}

/// A version-1 snapshot — the format whose store bytes held only the
/// engine's config, so hydration re-absorbed the whole log — is counted
/// at load and refused, even under a header checksum that holds: user 1
/// hydrates from the WAL alone.
#[test]
fn a_version_1_snapshot_is_counted_and_refused() {
    let dir = scratch("window-v1");
    crash_scene(&dir, &dir.join("aside"));
    let snapshots = dir.join("snapshots");
    let user = 1;
    let gens = generations(&snapshots, user);
    let &[gen] = gens.as_slice() else {
        panic!("one generation of user {user} on disk: {gens:?}");
    };
    let path = generation_path(&snapshots, user, gen);
    let mut bytes = fs::read(&path).unwrap();
    // The header (layout in `snapshot`): the version at 4, the lengths
    // at 16 and 24, the header checksum last before the store bytes.
    let len_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let check_at = bytes.len() - len_at(16) - len_at(24) - 8;
    assert_eq!(bytes[4..8], 2u32.to_le_bytes(), "written as version 2");
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let check = crate::codec::checksum(0, &bytes[..check_at]);
    bytes[check_at..check_at + 8].copy_from_slice(&check.to_le_bytes());
    fs::write(&path, &bytes).unwrap();

    let (hydrated, wal_alone, at_load, errors) = hydrate(&dir, user);
    assert_eq!((at_load, errors), (1, 1), "counted once, at load");
    assert!(hydrated == wal_alone, "hydrated from the WAL alone");
    let _ = fs::remove_dir_all(&dir);
}

// ---- damaged snapshot bytes ------------------------------------------

/// A fresh engine over `dir` after `load_dir`, and the snapshot read
/// errors that load counted.
fn load(dir: &Path) -> (StorageEngine, u64) {
    let obs = Obs::new();
    let engine = StorageEngine::with_config(durable(dir), &obs);
    engine.load_dir();
    let errors = read_errors(&obs);
    (engine, errors)
}

fn read_errors(obs: &Obs) -> u64 {
    let metrics = obs.metrics().unwrap().snapshot();
    metrics.counter_value("storage_snapshot_read_errors_total")
}

/// What one recovery of `dir` hydrates `user` to, as parked bytes (a
/// bit-exact spelling of the whole store); what the WAL records the
/// recovered engine holds for `user` rebuild alone; and the snapshot
/// read errors counted at load and after the hydration.
fn hydrate(dir: &Path, user: u32) -> (Parked, Parked, u64, u64) {
    let obs = Obs::new();
    let engine = StorageEngine::with_config(durable(dir), &obs);
    engine.load_dir();
    let at_load = read_errors(&obs);
    let key = identity(user);
    let config = GcaConfig::default();
    let mut wal_alone = UserStore::default();
    for record in engine.records_of(&key) {
        super::apply::apply_op(&mut wal_alone, &config, &record.op);
    }
    let (store, _, _) = engine.hydrate_build(&key, &config);
    (
        Parked::of(&store),
        Parked::of(&wal_alone),
        at_load,
        read_errors(&obs),
    )
}

/// Copies the WAL shards and snapshot files of `from` into a fresh
/// directory `to`.
fn copy_store(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to.join("snapshots")).unwrap();
    for sub in ["", "snapshots"] {
        for entry in fs::read_dir(from.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                fs::copy(&path, to.join(sub).join(path.file_name().unwrap())).unwrap();
            }
        }
    }
}

/// A parked multi-day user's snapshot file damaged one way at a time: a
/// bit flipped in the header, the store bytes and the log block, and the
/// file cut at each region boundary and a byte either side. Every case
/// is counted exactly once — header damage and every cut at load, the
/// body at hydration — and hydrates exactly what the WAL alone rebuilds:
/// no damaged byte reaches the store.
#[test]
fn damaged_snapshot_bytes_are_counted_and_never_hydrated() {
    let dir = scratch("damage");
    crash_scene(&dir, &dir.join("aside"));
    let snapshots = dir.join("snapshots");
    let user = 1;
    let gens = generations(&snapshots, user);
    let &[gen] = gens.as_slice() else {
        panic!("one generation of user {user} on disk: {gens:?}");
    };
    let name = super::snapshot::file_name_of(&identity(user), gen);
    let intact = fs::read(snapshots.join(&name)).unwrap();

    let (whole, wal_alone, at_load, errors) = hydrate(&dir, user);
    assert_eq!((at_load, errors), (0, 0), "the intact file reads back");
    assert_ne!(
        whole, wal_alone,
        "the snapshot holds what the WAL no longer does"
    );
    assert!(
        whole.to_store().unwrap().gca.unwrap().observation_count() >= 60,
        "a multi-day log"
    );

    // The header's lengths (layout in `snapshot`) split the regions.
    let len_at = |at: usize| u64::from_le_bytes(intact[at..at + 8].try_into().unwrap()) as usize;
    let (store_len, log_len) = (len_at(16), len_at(24));
    let store_at = intact.len() - store_len - log_len;
    let log_at = store_at + store_len;
    assert!(store_len > 0 && log_len > 0 && store_at > 8);

    let mut cases: Vec<(String, Vec<u8>, bool)> = Vec::new();
    let regions = [
        ("header", 0, store_at, true),
        ("store", store_at, log_at, false),
        ("log", log_at, intact.len(), false),
    ];
    for (region, start, end, at_load) in regions {
        for at in [start, (start + end) / 2, end - 1] {
            let mut damaged = intact.clone();
            damaged[at] ^= 1 << (at % 8);
            cases.push((format!("{region} bit flip at {at}"), damaged, at_load));
        }
    }
    for boundary in [0, store_at, log_at, intact.len()] {
        for cut in boundary.saturating_sub(1)..=boundary + 1 {
            if cut < intact.len() {
                cases.push((format!("cut at {cut}"), intact[..cut].to_vec(), true));
            }
        }
    }
    assert_eq!(cases.len(), 9 + 9);
    let arm = dir.join("arm");
    for (label, damaged, caught_at_load) in cases {
        copy_store(&dir, &arm);
        fs::write(arm.join("snapshots").join(&name), &damaged).unwrap();
        let (hydrated, wal_alone, at_load, errors) = hydrate(&arm, user);
        assert_eq!(errors, 1, "{label}: counted once");
        assert_eq!(
            at_load,
            u64::from(caught_at_load),
            "{label}: counted at load"
        );
        assert!(
            hydrated == wal_alone,
            "{label}: hydrated from the WAL alone"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
