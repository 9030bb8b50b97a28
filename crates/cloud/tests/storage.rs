//! Storage-engine integration tests: golden durable replay after a crash
//! (evicted users included), capped-vs-uncapped state equivalence under
//! arbitrary interleavings, and deterministic LRU eviction.
//!
//! Everything drives the full middleware stack through
//! `CloudInstance::handle`, exactly as a client sees the service, so the
//! engine's promises are checked at the wire: *wire-identical* responses
//! (`Response` equality compares statuses and the bodies' JSON spelling),
//! not merely equivalent in-memory structures.

use std::path::PathBuf;

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_cloud::{
    CellDatabase, CloudInstance, ContactEntry, DiscoverBody, MobilityProfile, PlaceEntry,
    PlaceOnlyBody, RegistrationBody, Request, Response, SocialQueryBody, StorageConfig,
    SyncContactsBody, SyncProfileBody, UserId,
};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use proptest::prelude::*;

/// A fresh per-test scratch directory under the OS temp dir. Process id
/// keeps parallel `cargo test` invocations apart; the name keeps tests in
/// this binary apart.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmware-storage-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn register(cloud: &CloudInstance, n: u32, now: SimTime) -> String {
    let resp = cloud.handle(
        &Request::post(
            "/api/v1/registration",
            RegistrationBody {
                imei: format!("imei-{n}"),
                email: format!("u{n}@x.com"),
            },
        ),
        now,
    );
    assert!(resp.is_success(), "{resp:?}");
    resp.json()["token"].as_str().unwrap().to_owned()
}

/// An oscillating GSM stream (the GCA test shape), offset per user and
/// per day so every offload produces distinct place state.
fn day_stream(user: u32, day: u64) -> Vec<GsmObservation> {
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id + user * 100),
    };
    (0..40)
        .map(|m| GsmObservation {
            time: SimTime::from_day_time(day, 1, 0, 0) + pmware_world::SimDuration::from_minutes(m),
            cell: if m % 3 == 1 {
                cell(2 + day as u32 * 10)
            } else {
                cell(1 + day as u32 * 10)
            },
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        })
        .collect()
}

/// A sequenced offload of `day_stream(user, day)`.
fn discover(user: u32, day: u64) -> Request {
    let body = DiscoverBody {
        observations: day_stream(user, day),
        batch: None,
        start: Some(day * 40),
    };
    Request::post("/api/v1/places/discover", body)
}

/// A profile upsert (no sync sequence).
fn profile_sync(profile: MobilityProfile) -> Request {
    Request::post(
        "/api/v1/profiles/sync",
        SyncProfileBody { profile, seq: None },
    )
}

/// A sequenced contact sync of one entry.
fn contact_sync(contact: ContactEntry, first_seq: u64) -> Request {
    let body = SyncContactsBody {
        contacts: vec![contact],
        first_seq: Some(first_seq),
    };
    Request::post("/api/v1/social/sync", body)
}

/// One sim-day of mutations for one user: a sequenced GCA offload, a
/// mobility-profile upsert, and a sequenced contact sync.
fn mutate_day(cloud: &CloudInstance, token: &str, user: u32, day: u64) {
    let at = SimTime::from_day_time(day, 12, 0, u64::from(user));
    let resp = cloud.handle(&discover(user, day).with_token(token), at);
    assert!(resp.is_success(), "discover u{user} d{day}: {resp:?}");

    let mut profile = MobilityProfile::new(day);
    profile.places.push(PlaceEntry {
        place: DiscoveredPlaceId(user),
        arrival: SimTime::from_day_time(day, 9, 0, 0),
        departure: SimTime::from_day_time(day, 17, 0, 0),
    });
    let resp = cloud.handle(&profile_sync(profile).with_token(token), at);
    assert!(resp.is_success(), "profile u{user} d{day}: {resp:?}");

    let contact = ContactEntry {
        contact: format!("peer-{user}-{day}"),
        start: SimTime::from_day_time(day, 13, 0, 0),
        end: SimTime::from_day_time(day, 13, 30, 0),
        place: None,
    };
    let resp = cloud.handle(&contact_sync(contact, day).with_token(token), at);
    assert!(resp.is_success(), "contacts u{user} d{day}: {resp:?}");
}

/// Every read a client can make of one user's state — the wire-identity
/// yardstick.
fn read_state(cloud: &CloudInstance, token: &str, days: u64, now: SimTime) -> Vec<Response> {
    let mut out = Vec::new();
    let reads = [
        Request::get("/api/v1/places"),
        Request::post("/api/v1/social/query", SocialQueryBody { place: None }),
        Request::post(
            "/api/v1/analytics/frequency",
            PlaceOnlyBody {
                place: DiscoveredPlaceId(0),
            },
        ),
    ];
    for read in reads {
        let resp = cloud.handle(&read.with_token(token), now);
        assert!(resp.is_success(), "{resp:?}");
        out.push(resp);
    }
    for day in 0..days {
        let resp = cloud.handle(
            &Request::get(format!("/api/v1/profiles/{day}")).with_token(token),
            now,
        );
        out.push(resp);
    }
    out
}

/// The tentpole's durability contract: a capped durable instance survives
/// a crash byte-for-byte. A fresh process recovering from the store
/// directory answers every read with the exact bytes the dead instance
/// would have — under the *tokens the clients still hold* — and keeps
/// accepting writes.
#[test]
fn durable_replay_after_crash_is_byte_identical() {
    const USERS: u32 = 5;
    const DAYS: u64 = 3;
    let dir = scratch_dir("golden");
    let config = StorageConfig {
        resident_cap: Some(2),
        store_dir: Some(dir.clone()),
        snapshot_every_days: 1,
    };
    let cloud = CloudInstance::new(CellDatabase::new(), 42).with_storage(config.clone());

    // Three sim-days of traffic from five users under a cap of two:
    // daily re-registration (tokens expire in 24 h), then mutations.
    // The cap forces constant evict/hydrate churn, and the day cadence
    // exercises the snapshot+compaction sweep.
    let mut tokens: Vec<String> = Vec::new();
    for day in 0..DAYS {
        tokens = (0..USERS)
            .map(|n| register(&cloud, n, SimTime::from_day_time(day, 0, 0, u64::from(n))))
            .collect();
        for user in 0..USERS {
            mutate_day(&cloud, &tokens[user as usize], user, day);
        }
    }
    assert!(
        cloud.eviction_count() > 0,
        "cap 2 with 5 users must have evicted"
    );

    let end = SimTime::from_day_time(DAYS - 1, 20, 0, 0);
    let before: Vec<Vec<Response>> = tokens
        .iter()
        .map(|token| read_state(&cloud, token, DAYS, end))
        .collect();
    // The reads leave the last two users resident: the first three are
    // parked in snapshots at the crash, so their recovery below rebuilds
    // an evicted user's state from its snapshot and WAL.
    let parked: Vec<u32> = (0..USERS)
        .filter(|&n| !cloud.is_resident(UserId(n)))
        .collect();
    assert_eq!(parked, [0, 1, 2], "users parked at the crash");
    drop(cloud); // the crash: nothing flushed beyond what the WAL holds

    let recovered = CloudInstance::recover(CellDatabase::new(), 42, config, end);
    assert_eq!(recovered.user_count(), USERS as usize);
    for (user, token) in tokens.iter().enumerate() {
        let after = read_state(&recovered, token, DAYS, end);
        assert_eq!(
            before[user], after,
            "user {user}: recovered reads must be wire-identical"
        );
    }

    // The recovered instance is live, not a read-only museum: the same
    // session keeps writing where it left off.
    let contact = ContactEntry {
        contact: "post-crash".into(),
        start: end,
        end,
        place: None,
    };
    let resp = recovered.handle(&contact_sync(contact, DAYS).with_token(&tokens[0]), end);
    assert!(resp.is_success(), "{resp:?}");
    assert_eq!(resp.json()["acked_upto"], DAYS + 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU eviction is deterministic: oldest sim-time access stamp first,
/// user-id tie-break — so two identical single-threaded drives evict the
/// same users in the same order.
#[test]
fn lru_eviction_is_deterministic_with_user_id_tie_break() {
    let drive = || {
        let cloud = CloudInstance::new(CellDatabase::new(), 7).with_storage(StorageConfig {
            resident_cap: Some(2),
            ..StorageConfig::default()
        });
        // Users 0 and 1 register at the same simulated second (the tie);
        // user 2 arrives later and pushes one of them out.
        register(&cloud, 0, SimTime::from_seconds(10));
        register(&cloud, 1, SimTime::from_seconds(10));
        register(&cloud, 2, SimTime::from_seconds(20));
        cloud
    };
    let a = drive();
    assert_eq!(a.eviction_count(), 1);
    assert!(
        !a.is_resident(UserId(0)),
        "tie at t=10 breaks toward the smaller user id"
    );
    assert!(a.is_resident(UserId(1)));
    assert!(a.is_resident(UserId(2)));
    let b = drive();
    assert_eq!(a.eviction_count(), b.eviction_count());
    assert_eq!(a.hydration_count(), b.hydration_count());
    for user in 0..3 {
        assert_eq!(a.is_resident(UserId(user)), b.is_resident(UserId(user)));
    }
}

/// The resident-store population stays under the cap, and the accessor
/// and the `cloud_store_resident_users` gauge report the same count.
#[test]
fn resident_users_gauge_reports_the_capped_population() {
    let obs = pmware_obs::Obs::new();
    let cloud = CloudInstance::new(CellDatabase::new(), 1)
        .with_obs(&obs)
        .with_storage(StorageConfig {
            resident_cap: Some(2),
            ..StorageConfig::default()
        });
    for n in 0..4 {
        register(&cloud, n, SimTime::from_seconds(u64::from(n)));
    }
    assert_eq!(cloud.resident_users(), 2);
    assert_eq!(
        obs.metrics()
            .unwrap()
            .snapshot()
            .get("cloud_store_resident_users"),
        Some(&pmware_obs::SnapshotValue::Gauge(2))
    );
    assert_eq!(cloud.eviction_count(), 2);
}

/// One client-visible mutation, for the capped-vs-uncapped equivalence
/// drive below.
#[derive(Debug, Clone)]
enum StoreOp {
    Discover { day: u64 },
    Profile { day: u64, place: u32 },
    Contact { n: u64 },
}

fn arb_op() -> impl Strategy<Value = (u8, StoreOp)> {
    (0u8..3, 0u8..3, 0u64..4, 0u32..8).prop_map(|(user, kind, day, place)| {
        let op = match kind {
            0 => StoreOp::Discover { day },
            1 => StoreOp::Profile { day, place },
            _ => StoreOp::Contact {
                n: u64::from(place),
            },
        };
        (user, op)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The residency cap is invisible to clients: any interleaving of
    /// mutations from three users produces byte-identical read-back on a
    /// cap-1 engine (maximum churn) and on the plain uncapped instance.
    #[test]
    fn capped_run_matches_uncapped_run(
        ops in prop::collection::vec(arb_op(), 1..30)
    ) {
        let capped = CloudInstance::new(CellDatabase::new(), 9).with_storage(StorageConfig {
            resident_cap: Some(1),
            ..StorageConfig::default()
        });
        let plain = CloudInstance::new(CellDatabase::new(), 9);
        let now = SimTime::EPOCH;
        let tokens: Vec<String> = (0..3).map(|n| {
            let t = register(&capped, n, now);
            let t2 = register(&plain, n, now);
            prop_assert_eq!(&t, &t2, "same seed, same token");
            Ok(t)
        }).collect::<Result<_, TestCaseError>>()?;

        let mut contact_seq = [0u64; 3];
        for (i, (user, op)) in ops.iter().enumerate() {
            let user = *user as usize;
            let token = &tokens[user];
            // Advance sim time per op so LRU stamps differ.
            let at = SimTime::from_seconds(60 + i as u64);
            let request = match op {
                StoreOp::Discover { day } => discover(user as u32, *day),
                StoreOp::Profile { day, place } => {
                    let mut profile = MobilityProfile::new(*day);
                    profile.places.push(PlaceEntry {
                        place: DiscoveredPlaceId(*place),
                        arrival: SimTime::from_day_time(*day, 9, 0, 0),
                        departure: SimTime::from_day_time(*day, 10, 0, 0),
                    });
                    profile_sync(profile)
                }
                StoreOp::Contact { n } => {
                    let entry = ContactEntry {
                        contact: format!("peer-{user}-{n}"),
                        start: at,
                        end: at,
                        place: None,
                    };
                    let seq = contact_seq[user];
                    contact_seq[user] += 1;
                    contact_sync(entry, seq)
                }
            };
            let request = request.with_token(token);
            let a = capped.handle(&request, at);
            let b = plain.handle(&request, at);
            prop_assert_eq!(a, b, "mutation response {} diverged", i);
        }

        let end = SimTime::from_seconds(1_000);
        for (user, token) in tokens.iter().enumerate() {
            let a = read_state(&capped, token, 4, end);
            let b = read_state(&plain, token, 4, end);
            prop_assert_eq!(a, b, "user {} read-back diverged", user);
        }
    }
}
