//! Storage-engine integration tests: golden durable replay after a crash,
//! capped-vs-uncapped state equivalence under arbitrary interleavings,
//! deterministic LRU eviction, and failover of an evicted user.
//!
//! Everything drives the full middleware stack through
//! `CloudInstance::handle`, exactly as a client sees the service, so the
//! engine's promises are checked at the wire: *byte-identical* response
//! bodies, not merely equivalent in-memory structures.

use std::path::PathBuf;

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_cloud::{
    CellDatabase, CloudEndpoint, CloudInstance, ContactEntry, MobilityProfile, PlaceEntry, Request,
    StorageConfig, TopologyRouter, UserId,
};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use proptest::prelude::*;
use serde_json::json;

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
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": format!("imei-{n}"), "email": format!("u{n}@x.com")}),
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

/// One sim-day of mutations for one user: a sequenced GCA offload, a
/// mobility-profile upsert, and a sequenced contact sync.
fn mutate_day(cloud: &CloudInstance, token: &str, user: u32, day: u64) {
    let at = SimTime::from_day_time(day, 12, 0, u64::from(user));
    let stream = day_stream(user, day);
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/places/discover",
            json!({"observations": stream, "start": day * 40}),
        )
        .with_token(token),
        at,
    );
    assert!(resp.is_success(), "discover u{user} d{day}: {resp:?}");

    let mut profile = MobilityProfile::new(day);
    profile.places.push(PlaceEntry {
        place: DiscoveredPlaceId(user),
        arrival: SimTime::from_day_time(day, 9, 0, 0),
        departure: SimTime::from_day_time(day, 17, 0, 0),
    });
    let resp = cloud.handle(
        &Request::post_json("/api/v1/profiles/sync", json!({"profile": profile})).with_token(token),
        at,
    );
    assert!(resp.is_success(), "profile u{user} d{day}: {resp:?}");

    let contact = ContactEntry {
        contact: format!("peer-{user}-{day}"),
        start: SimTime::from_day_time(day, 13, 0, 0),
        end: SimTime::from_day_time(day, 13, 30, 0),
        place: None,
    };
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/social/sync",
            json!({"contacts": [contact], "first_seq": day}),
        )
        .with_token(token),
        at,
    );
    assert!(resp.is_success(), "contacts u{user} d{day}: {resp:?}");
}

/// Every read a client can make of one user's state, as raw response
/// bytes — the byte-identity yardstick.
fn read_state(cloud: &CloudInstance, token: &str, days: u64, now: SimTime) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let reads = [
        Request::get("/api/v1/places"),
        Request::post_json("/api/v1/social/query", json!({"place": null})),
        Request::post_json("/api/v1/analytics/frequency", json!({"place": 0})),
    ];
    for read in reads {
        let resp = cloud.handle(&read.with_token(token), now);
        assert!(resp.is_success(), "{resp:?}");
        out.push(resp.to_bytes().to_vec());
    }
    for day in 0..days {
        let resp = cloud.handle(
            &Request::get(format!("/api/v1/profiles/{day}")).with_token(token),
            now,
        );
        out.push(resp.to_bytes().to_vec());
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
    let before: Vec<Vec<Vec<u8>>> = tokens
        .iter()
        .map(|token| read_state(&cloud, token, DAYS, end))
        .collect();
    drop(cloud); // the crash: nothing flushed beyond what the WAL holds

    let recovered = CloudInstance::recover(CellDatabase::new(), 42, config, end);
    assert_eq!(recovered.user_count(), USERS as usize);
    for (user, token) in tokens.iter().enumerate() {
        let after = read_state(&recovered, token, DAYS, end);
        assert_eq!(
            before[user], after,
            "user {user}: recovered reads must be byte-identical"
        );
    }

    // The recovered instance is live, not a read-only museum: the same
    // session keeps writing where it left off.
    let resp = recovered.handle(
        &Request::post_json(
            "/api/v1/social/sync",
            json!({"contacts": [ContactEntry {
                contact: "post-crash".into(),
                start: end,
                end,
                place: None,
            }], "first_seq": DAYS}),
        )
        .with_token(&tokens[0]),
        end,
    );
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

/// The health probe reports the resident-store population.
#[test]
fn health_reports_resident_users() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_storage(StorageConfig {
        resident_cap: Some(2),
        ..StorageConfig::default()
    });
    for n in 0..4 {
        register(&cloud, n, SimTime::from_seconds(u64::from(n)));
    }
    let resp = cloud.handle(&Request::get("/api/v1/health"), SimTime::from_seconds(10));
    assert!(resp.is_success());
    assert_eq!(resp.json()["resident_users"], 2, "{resp:?}");
    assert_eq!(cloud.eviction_count(), 2);
}

/// Regression for the unified WAL path: failing over a user whose store
/// the *source* instance had already evicted must still rebuild the full
/// state on the target — replay does not depend on residency.
#[test]
fn failover_of_an_evicted_user_hydrates_then_migrates() {
    let router = TopologyRouter::new();
    let clouds: Vec<pmware_cloud::SharedCloud> = (0..2)
        .map(|i| {
            pmware_cloud::SharedCloud::new(
                CloudInstance::new(CellDatabase::new(), 1000 + i as u64).with_storage(
                    StorageConfig {
                        resident_cap: Some(1),
                        ..StorageConfig::default()
                    },
                ),
            )
        })
        .collect();
    let now = SimTime::from_seconds(100);

    // Both users onto instance 0, the only instance while they register:
    // user 0 registers and syncs a contact, then user 1's arrival evicts
    // user 0's store (cap 1).
    router.add_instance(clouds[0].clone());
    let endpoint = CloudEndpoint::new(router.endpoint());
    let resp = endpoint.send(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": "imei-0", "email": "u0@x.com"}),
        ),
        now,
    );
    let token = resp.json()["token"].as_str().unwrap().to_owned();
    let resp = endpoint.send(
        &Request::post_json(
            "/api/v1/social/sync",
            json!({"contacts": [ContactEntry {
                contact: "peer-evicted".into(),
                start: now,
                end: now,
                place: None,
            }]}),
        )
        .with_token(&token),
        now,
    );
    assert!(resp.is_success(), "{resp:?}");
    let user0 = UserId(0);
    assert!(clouds[0].is_resident(user0));

    let endpoint1 = CloudEndpoint::new(router.endpoint());
    let resp = endpoint1.send(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": "imei-1", "email": "u1@x.com"}),
        ),
        SimTime::from_seconds(200),
    );
    assert!(resp.is_success(), "{resp:?}");
    assert!(
        !clouds[0].is_resident(user0),
        "user 1's arrival must evict user 0 under cap 1"
    );
    // The failover target joins only now.
    router.add_instance(clouds[1].clone());

    // Kill the home instance while user 0 is parked in a snapshot.
    router.kill_instance(pmware_cloud::InstanceId(0));
    let later = SimTime::from_seconds(300);
    let report = router.fail_over(later);
    assert_eq!(report.displaced, 2);

    // The target rebuilt user 0's state from the migration WAL and the
    // client's token still works through the refreshed endpoint.
    let (cloud, migrated) = router.locate("imei-0", "u0@x.com").unwrap();
    let contacts = cloud.contacts_of(migrated);
    assert_eq!(contacts.len(), 1);
    assert_eq!(contacts[0].contact, "peer-evicted");
    let resp = endpoint.send(
        &Request::post_json("/api/v1/social/query", json!({"place": null})).with_token(&token),
        later,
    );
    assert!(resp.is_success(), "{resp:?}");
    assert_eq!(resp.json()["contacts"].as_array().unwrap().len(), 1);
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
                StoreOp::Discover { day } => Request::post_json(
                    "/api/v1/places/discover",
                    json!({"observations": day_stream(user as u32, *day), "start": day * 40}),
                ),
                StoreOp::Profile { day, place } => {
                    let mut profile = MobilityProfile::new(*day);
                    profile.places.push(PlaceEntry {
                        place: DiscoveredPlaceId(*place),
                        arrival: SimTime::from_day_time(*day, 9, 0, 0),
                        departure: SimTime::from_day_time(*day, 10, 0, 0),
                    });
                    Request::post_json("/api/v1/profiles/sync", json!({"profile": profile}))
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
                    Request::post_json(
                        "/api/v1/social/sync",
                        json!({"contacts": [entry], "first_seq": seq}),
                    )
                }
            };
            let request = request.with_token(token);
            let a = capped.handle(&request, at);
            let b = plain.handle(&request, at);
            prop_assert_eq!(a.to_bytes(), b.to_bytes(), "mutation response {} diverged", i);
        }

        let end = SimTime::from_seconds(1_000);
        for (user, token) in tokens.iter().enumerate() {
            let a = read_state(&capped, token, 4, end);
            let b = read_state(&plain, token, 4, end);
            prop_assert_eq!(a, b, "user {} read-back diverged", user);
        }
    }
}
