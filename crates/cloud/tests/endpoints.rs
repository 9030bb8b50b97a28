//! End-to-end endpoint tests through the full request path.
//!
//! These exercise every route family via `CloudInstance::handle` — i.e.
//! the metrics and auth gates plus the route-table
//! dispatcher — exactly as a client sees the service.

use pmware_algorithms::gca::GcaConfig;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_cloud::profile::{ContactEntry, MobilityProfile, PlaceEntry};
use pmware_cloud::{
    ArrivalBody, CellDatabase, CloudInstance, DiscoverBody, GeolocateBody, LabelBody,
    NextVisitBody, Payload, PlaceOnlyBody, RegistrationBody, Request, SharedCloud, SocialQueryBody,
    StorageConfig, SyncContactsBody, SyncPlacesBody, SyncProfileBody, UserId,
};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimDuration, SimTime};
use serde_json::{json, Value};

fn cloud() -> CloudInstance {
    CloudInstance::new(CellDatabase::new(), 42)
}

fn register(cloud: &CloudInstance, n: u32, now: SimTime) -> String {
    let resp = cloud.handle(&registration(n), now);
    assert!(resp.is_success(), "{resp:?}");
    resp.json()["token"].as_str().unwrap().to_owned()
}

fn discover(observations: &[GsmObservation], start: Option<u64>) -> Request {
    let body = DiscoverBody {
        observations: observations.to_vec(),
        batch: None,
        start,
    };
    Request::post("/api/v1/places/discover", body)
}

fn places_sync(places: Vec<DiscoveredPlace>, seq: Option<u64>) -> Request {
    Request::post("/api/v1/places/sync", SyncPlacesBody { places, seq })
}

fn profile_sync(profile: MobilityProfile, seq: Option<u64>) -> Request {
    Request::post("/api/v1/profiles/sync", SyncProfileBody { profile, seq })
}

/// A query on an analytics route that takes only a place.
fn place_query(path: &str, place: u32) -> Request {
    let body = PlaceOnlyBody {
        place: DiscoveredPlaceId(place),
    };
    Request::post(path, body)
}

fn label(place: u32, label: &str) -> Request {
    let body = LabelBody {
        place: DiscoveredPlaceId(place),
        label: label.into(),
    };
    Request::post("/api/v1/places/label", body)
}

fn social_query(place: Option<u32>) -> Request {
    let body = SocialQueryBody {
        place: place.map(DiscoveredPlaceId),
    };
    Request::post("/api/v1/social/query", body)
}

#[test]
fn registration_and_auth_flow() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    assert_eq!(c.user_count(), 1);

    // Authenticated GET works.
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), now);
    assert!(resp.is_success());

    // Missing token → 401.
    let resp = c.handle(&Request::get("/api/v1/places"), now);
    assert_eq!(resp.status, 401);

    // Bogus token → 401.
    let resp = c.handle(&Request::get("/api/v1/places").with_token("tok-x"), now);
    assert_eq!(resp.status, 401);

    // Expired token → 401.
    let later = now + SimDuration::from_hours(25);
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), later);
    assert_eq!(resp.status, 401);
}

#[test]
fn registration_requires_identity() {
    let c = cloud();
    let empty = RegistrationBody {
        imei: String::new(),
        email: String::new(),
    };
    let resp = c.handle(
        &Request::post("/api/v1/registration", empty),
        SimTime::EPOCH,
    );
    assert_eq!(resp.status, 400);
    let resp = c.handle(
        &Request::post("/api/v1/registration", Payload::Empty),
        SimTime::EPOCH,
    );
    assert_eq!(resp.status, 400);
}

#[test]
fn token_refresh_rotates() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let resp = c.handle(
        &Request::post("/api/v1/token/refresh", Payload::Empty).with_token(&token),
        now + SimDuration::from_hours(20),
    );
    assert!(resp.is_success());
    let new_token = resp.json()["token"].as_str().unwrap().to_owned();
    assert_ne!(new_token, token);
    // The old token no longer validates.
    let resp = c.handle(
        &Request::get("/api/v1/places").with_token(&token),
        now + SimDuration::from_hours(21),
    );
    assert_eq!(resp.status, 401);
}

#[test]
fn expired_token_refresh_cannot_resurrect() {
    // Refresh through the full chain with an expired token: the auth
    // layer answers 401 before the refresh handler runs, so the client's
    // only way back is re-registration — which, being the public route,
    // always remains open.
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let late = now + SimDuration::from_hours(30);
    let resp = c.handle(
        &Request::post("/api/v1/token/refresh", Payload::Empty).with_token(&token),
        late,
    );
    assert_eq!(resp.status, 401, "expired token must not refresh: {resp:?}");
    // Re-registration with the same identity recovers the same user.
    let token2 = register(&c, 0, late);
    assert_ne!(token2, token);
    assert_eq!(c.user_count(), 1, "same identity, same user");
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token2), late);
    assert!(resp.is_success());
}

#[test]
fn gca_offload_discovers_and_stores() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    // Synthetic oscillating stream (same shape as the GCA unit tests).
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let observations: Vec<GsmObservation> = (0..40)
        .map(|m| GsmObservation {
            time: SimTime::from_seconds(m * 60),
            cell: if m % 3 == 1 { cell(2) } else { cell(1) },
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        })
        .collect();
    let resp = c.handle(&discover(&observations, None).with_token(&token), now);
    assert!(resp.is_success(), "{resp:?}");
    let body = resp.json();
    let places = body["places"].as_array().unwrap();
    assert_eq!(places.len(), 1);
    // And the places are now listed.
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), now);
    assert_eq!(resp.json()["places"].as_array().unwrap().len(), 1);
}

#[test]
fn discover_absorbs_suffixes_without_forgetting_places() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let obs = |minute: u64, id: u32| GsmObservation {
        time: SimTime::from_seconds(minute * 60),
        cell: cell(id),
        layer: NetworkLayer::G2,
        rssi_dbm: -70.0,
    };
    // Night 1: a 40-minute stay at place {1,2}.
    let night1: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let resp = c.handle(&discover(&night1, None).with_token(&token), now);
    assert!(resp.is_success(), "{resp:?}");
    assert_eq!(resp.json()["places"].as_array().unwrap().len(), 1);
    // Night 2 offloads ONLY the new suffix: a stay somewhere else.
    // Before the persistent per-user engine this *replaced* the stored
    // places, silently forgetting place {1,2}.
    let night2: Vec<GsmObservation> = (100..140)
        .map(|m| obs(m, if m % 3 == 1 { 6 } else { 5 }))
        .collect();
    let resp = c.handle(&discover(&night2, None).with_token(&token), now);
    assert!(resp.is_success(), "{resp:?}");
    let body = resp.json();
    let places = body["places"].as_array().unwrap();
    assert_eq!(places.len(), 2, "suffix offload must keep night-1 places");
    // And the reply matches one batch clustering of the whole stream.
    let full: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .chain((100..140).map(|m| obs(m, if m % 3 == 1 { 6 } else { 5 })))
        .collect();
    let batch = pmware_algorithms::gca::discover_places(&full, &GcaConfig::default());
    assert_eq!(places.len(), batch.places.len());
}

#[test]
fn discover_rewind_restarts_from_the_new_batch() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let stream: Vec<GsmObservation> = (0..40)
        .map(|m| GsmObservation {
            time: SimTime::from_seconds(m * 60),
            cell: if m % 3 == 1 { cell(2) } else { cell(1) },
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        })
        .collect();
    let req = discover(&stream, None).with_token(&token);
    // Re-sending the same from-zero batch (a client that restarted and
    // re-clusters its full log) must not double-count: the engine
    // restarts from the rewound batch.
    let first = c.handle(&req, now);
    let second = c.handle(&req, now);
    assert!(second.is_success());
    assert_eq!(first.body, second.body);
    assert_eq!(second.json()["places"].as_array().unwrap().len(), 1);
}

#[test]
fn next_place_cache_invalidates_on_profile_upsert() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let sync = |day: u64, route: &[u32]| {
        let mut profile = MobilityProfile::new(day);
        for (i, &p) in route.iter().enumerate() {
            profile.places.push(PlaceEntry {
                place: DiscoveredPlaceId(p),
                arrival: SimTime::from_day_time(day, 8 + 2 * i as u64, 0, 0),
                departure: SimTime::from_day_time(day, 9 + 2 * i as u64, 0, 0),
            });
        }
        let resp = c.handle(&profile_sync(profile, None).with_token(&token), now);
        assert!(resp.is_success());
    };
    let next = || {
        let resp = c.handle(
            &place_query("/api/v1/analytics/next_place", 0).with_token(&token),
            now,
        );
        assert!(resp.is_success());
        resp.json()["predictions"].as_array().unwrap()[0][0]
            .as_u64()
            .unwrap()
    };
    // Two days of 0 → 1: the model (and its cache) says 1.
    sync(0, &[0, 1]);
    sync(1, &[0, 1]);
    assert_eq!(next(), 1);
    assert_eq!(next(), 1, "repeat query served from the memoized model");
    // Three days of 0 → 2 flip the majority: the upsert bumps the
    // history generation, so the cached model must be retrained.
    sync(2, &[0, 2]);
    sync(3, &[0, 2]);
    sync(4, &[0, 2]);
    assert_eq!(next(), 2, "stale cached model would still answer 1");
}

#[test]
fn place_labelling() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let place = DiscoveredPlace::new(
        DiscoveredPlaceId(0),
        PlaceSignature::WifiAps(Default::default()),
        vec![],
    );
    let resp = c.handle(&places_sync(vec![place], None).with_token(&token), now);
    assert!(resp.is_success());
    let resp = c.handle(&label(0, "Home").with_token(&token), now);
    assert!(resp.is_success(), "{resp:?}");
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), now);
    assert_eq!(resp.json()["places"][0]["label"], "Home");
    // Unknown place → 404.
    let resp = c.handle(&label(9, "X").with_token(&token), now);
    assert_eq!(resp.status, 404);
}

#[test]
fn profile_sync_and_fetch() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let mut profile = MobilityProfile::new(2);
    profile.places.push(PlaceEntry {
        place: DiscoveredPlaceId(0),
        arrival: SimTime::from_day_time(2, 9, 0, 0),
        departure: SimTime::from_day_time(2, 17, 0, 0),
    });
    let resp = c.handle(&profile_sync(profile, None).with_token(&token), now);
    assert!(resp.is_success());
    let resp = c.handle(&Request::get("/api/v1/profiles/2").with_token(&token), now);
    assert!(resp.is_success());
    assert_eq!(resp.json()["profile"]["day"], 2);
    // Missing day → 404; malformed day → 400.
    assert_eq!(
        c.handle(&Request::get("/api/v1/profiles/9").with_token(&token), now)
            .status,
        404
    );
    assert_eq!(
        c.handle(
            &Request::get("/api/v1/profiles/xyz").with_token(&token),
            now
        )
        .status,
        400
    );
}

#[test]
fn analytics_endpoints_answer_the_papers_queries() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    // Two weeks of evening home arrivals at 18h.
    for day in 0..14 {
        let mut profile = MobilityProfile::new(day);
        profile.places.push(PlaceEntry {
            place: DiscoveredPlaceId(1),
            arrival: SimTime::from_day_time(day, 9, 0, 0),
            departure: SimTime::from_day_time(day, 17, 0, 0),
        });
        profile.places.push(PlaceEntry {
            place: DiscoveredPlaceId(0),
            arrival: SimTime::from_day_time(day, 18, 0, 0),
            departure: SimTime::from_day_time(day, 23, 0, 0),
        });
        let resp = c.handle(&profile_sync(profile, None).with_token(&token), now);
        assert!(resp.is_success());
    }
    // Query 1: evening home arrival.
    let resp = c.handle(
        &Request::post(
            "/api/v1/analytics/arrival",
            ArrivalBody {
                place: DiscoveredPlaceId(0),
                window: Some((15, 24)),
            },
        )
        .with_token(&token),
        now,
    );
    assert!(resp.is_success());
    assert_eq!(resp.json()["second_of_day"].as_u64().unwrap() / 3_600, 18);
    // Query 2: next visit to place 1.
    let resp = c.handle(
        &Request::post(
            "/api/v1/analytics/next_visit",
            NextVisitBody {
                place: DiscoveredPlaceId(1),
                now: SimTime::from_day_time(14, 0, 0, 0),
            },
        )
        .with_token(&token),
        now,
    );
    assert!(resp.is_success(), "{resp:?}");
    // Query 3: frequency.
    let resp = c.handle(
        &place_query("/api/v1/analytics/frequency", 0).with_token(&token),
        now,
    );
    assert!(resp.is_success());
    assert!((resp.json()["visits_per_week"].as_f64().unwrap() - 7.0).abs() < 1e-9);
    // Markov next place from work is home.
    let resp = c.handle(
        &place_query("/api/v1/analytics/next_place", 1).with_token(&token),
        now,
    );
    assert!(resp.is_success());
    let body = resp.json();
    let preds = body["predictions"].as_array().unwrap();
    assert_eq!(preds[0][0], 0);
}

#[test]
fn geolocation_endpoint_uses_cell_database() {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(3)
        .build();
    let tower = &world.towers()[0];
    let c = CloudInstance::new(CellDatabase::from_world(&world), 1);
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let cell = tower.cell();
    let resp = c.handle(
        &Request::post(
            "/api/v1/misc/geolocate",
            GeolocateBody {
                mcc: cell.plmn.mcc,
                mnc: cell.plmn.mnc,
                lac: cell.lac.0,
                cid: cell.cell.0,
            },
        )
        .with_token(&token),
        now,
    );
    assert!(resp.is_success());
    let lat = resp.json()["latitude"].as_f64().unwrap();
    assert!((lat - tower.position().latitude()).abs() < 1e-9);
    // Unknown cell → 404.
    let resp = c.handle(
        &Request::post(
            "/api/v1/misc/geolocate",
            GeolocateBody {
                mcc: 1,
                mnc: 1,
                lac: 1,
                cid: 1,
            },
        )
        .with_token(&token),
        now,
    );
    assert_eq!(resp.status, 404);
}

#[test]
fn social_sync_and_query_by_place() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let contacts = vec![
        ContactEntry {
            contact: "peer-1".into(),
            start: SimTime::from_seconds(0),
            end: SimTime::from_seconds(600),
            place: Some(DiscoveredPlaceId(0)),
        },
        ContactEntry {
            contact: "peer-2".into(),
            start: SimTime::from_seconds(0),
            end: SimTime::from_seconds(600),
            place: Some(DiscoveredPlaceId(1)),
        },
    ];
    let resp = c.handle(
        &Request::post(
            "/api/v1/social/sync",
            SyncContactsBody {
                contacts,
                first_seq: None,
            },
        )
        .with_token(&token),
        now,
    );
    assert!(resp.is_success());
    // Targeted query: only workplace contacts (§2.2.2 targeted sensing).
    let resp = c.handle(&social_query(Some(0)).with_token(&token), now);
    let body = resp.json();
    let got = body["contacts"].as_array().unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0]["contact"], "peer-1");
    // Unfiltered query returns everything.
    let resp = c.handle(&social_query(None).with_token(&token), now);
    assert_eq!(resp.json()["contacts"].as_array().unwrap().len(), 2);
}

#[test]
fn sequenced_discover_skips_absorbed_prefixes() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let obs = |minute: u64, id: u32| GsmObservation {
        time: SimTime::from_seconds(minute * 60),
        cell: cell(id),
        layer: NetworkLayer::G2,
        rssi_dbm: -70.0,
    };
    let stream: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let discover = |observations: &[GsmObservation], start: u64| {
        c.handle(&discover(observations, Some(start)).with_token(&token), now)
    };
    // First offload absorbs everything.
    let first = discover(&stream, 0);
    assert!(first.is_success(), "{first:?}");
    assert_eq!(first.json()["absorbed_upto"], 40);
    let user = UserId(0);
    assert_eq!(c.observation_count(user), 40);
    // A duplicated delivery of the same batch absorbs nothing new.
    let dup = discover(&stream, 0);
    assert_eq!(dup.body, first.body);
    assert_eq!(
        c.observation_count(user),
        40,
        "duplicate must not double-absorb"
    );
    // A retried send overlapping the watermark absorbs only the tail.
    let tail: Vec<GsmObservation> = (30..50)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let resp = discover(&tail, 30);
    assert!(resp.is_success());
    assert_eq!(resp.json()["absorbed_upto"], 50);
    assert_eq!(c.observation_count(user), 50);
}

#[test]
fn sequenced_contacts_deduplicate_resent_buffers() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let user = UserId(0);
    let entry = |n: u64| ContactEntry {
        contact: format!("peer-{n}"),
        start: SimTime::from_seconds(n * 100),
        end: SimTime::from_seconds(n * 100 + 60),
        place: None,
    };
    let sync = |contacts: &[ContactEntry], first_seq: u64| {
        let body = SyncContactsBody {
            contacts: contacts.to_vec(),
            first_seq: Some(first_seq),
        };
        c.handle(
            &Request::post("/api/v1/social/sync", body).with_token(&token),
            now,
        )
    };
    // The regression the pending_contacts fix needs: a client whose sync
    // "failed" (response lost) re-sends the WHOLE buffer plus a new
    // entry. Before sequencing this doubled peer-0 and peer-1.
    let batch: Vec<ContactEntry> = (0..2).map(entry).collect();
    let resp = sync(&batch, 0);
    assert!(resp.is_success());
    assert_eq!(resp.json()["acked_upto"], 2);
    let resent: Vec<ContactEntry> = (0..3).map(entry).collect();
    let resp = sync(&resent, 0);
    assert!(resp.is_success());
    assert_eq!(resp.json()["acked_upto"], 3);
    assert_eq!(c.contact_count(user), 3, "re-sent prefix must be skipped");
    let stored = c.contacts_of(user);
    let names: Vec<&str> = stored.iter().map(|e| e.contact.as_str()).collect();
    assert_eq!(names, ["peer-0", "peer-1", "peer-2"]);
    // A pure duplicate delivery is a no-op.
    let resp = sync(&resent, 0);
    assert_eq!(resp.json()["acked_upto"], 3);
    assert_eq!(c.contact_count(user), 3);
}

#[test]
fn stale_profile_and_snapshot_syncs_are_ignored() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let profile = |day: u64, visits: u32| {
        let mut p = MobilityProfile::new(day);
        for i in 0..visits {
            p.places.push(PlaceEntry {
                place: DiscoveredPlaceId(i),
                arrival: SimTime::from_day_time(day, 8 + u64::from(i), 0, 0),
                departure: SimTime::from_day_time(day, 9 + u64::from(i), 0, 0),
            });
        }
        p
    };
    let sync = |p: &MobilityProfile, seq: u64| {
        c.handle(&profile_sync(p.clone(), Some(seq)).with_token(&token), now)
    };
    // Newer version of day 0 lands first (reorder), stale one follows.
    assert_eq!(sync(&profile(0, 2), 5).json()["stale"], false);
    let resp = sync(&profile(0, 1), 3);
    assert!(resp.is_success());
    assert_eq!(resp.json()["stale"], true);
    let fetched = c.handle(&Request::get("/api/v1/profiles/0").with_token(&token), now);
    assert_eq!(
        fetched.json()["profile"]["places"]
            .as_array()
            .unwrap()
            .len(),
        2,
        "stale sync must not clobber the newer profile"
    );
    // Same for the places full replacement.
    let place = DiscoveredPlace::new(
        DiscoveredPlaceId(0),
        PlaceSignature::WifiAps(Default::default()),
        vec![],
    );
    let resp = c.handle(&places_sync(vec![place], Some(7)).with_token(&token), now);
    assert_eq!(resp.json()["stale"], false);
    let resp = c.handle(&places_sync(vec![], Some(6)).with_token(&token), now);
    assert_eq!(resp.json()["stale"], true);
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), now);
    assert_eq!(resp.json()["places"].as_array().unwrap().len(), 1);
}

#[test]
fn users_are_isolated() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let t0 = register(&c, 0, now);
    let t1 = register(&c, 1, now);
    let place = DiscoveredPlace::new(
        DiscoveredPlaceId(0),
        PlaceSignature::WifiAps(Default::default()),
        vec![],
    );
    c.handle(&places_sync(vec![place], None).with_token(&t0), now);
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&t1), now);
    assert_eq!(resp.json()["places"].as_array().unwrap().len(), 0);
}

#[test]
fn unknown_route_is_404() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let resp = c.handle(&Request::get("/api/v1/nope").with_token(&token), now);
    assert_eq!(resp.status, 404);
    assert_eq!(resp.json()["error"], "no route for /api/v1/nope");
    assert!(
        resp.json().get("allow").is_none(),
        "404 carries no allow list"
    );
}

#[test]
fn wrong_method_on_known_path_is_405_with_allow() {
    // Regression for the old catch-all: a known path hit with the wrong
    // method fell into `no route for {path}` 404. The router must answer
    // 405 and say which methods the path accepts.
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let resp = c.handle(&Request::get("/api/v1/places/sync").with_token(&token), now);
    assert_eq!(resp.status, 405, "{resp:?}");
    assert_eq!(resp.json()["allow"], json!(["POST"]));
    let resp = c.handle(
        &Request::post("/api/v1/places", Payload::Empty).with_token(&token),
        now,
    );
    assert_eq!(resp.status, 405, "{resp:?}");
    assert_eq!(resp.json()["allow"], json!(["GET"]));
    // Auth still precedes method dispatch: without a token the wrong
    // method is indistinguishable from any other unauthenticated request.
    let resp = c.handle(&Request::get("/api/v1/places/sync"), now);
    assert_eq!(resp.status, 401);
}

#[test]
fn malformed_body_is_400() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    // A body of another route's type names the type it should have been.
    let resp = c.handle(
        &Request::post("/api/v1/places/sync", social_query(None).body).with_token(&token),
        now,
    );
    assert_eq!(resp.status, 400);
    let message = resp.error_message().unwrap();
    assert!(
        message.starts_with("invalid body: expected") && message.ends_with("SyncPlacesBody"),
        "{message}"
    );
}

#[test]
fn total_requests_counts_authenticated_requests() {
    let c = cloud();
    let now = SimTime::EPOCH;
    let t0 = register(&c, 0, now);
    let t1 = register(&c, 1, now);
    assert_eq!(c.total_requests(), 0, "registration is unauthenticated");
    for _ in 0..3 {
        c.handle(&Request::get("/api/v1/places").with_token(&t0), now);
    }
    c.handle(&Request::get("/api/v1/places").with_token(&t1), now);
    assert_eq!(c.total_requests(), 4);
}

#[test]
fn registrations_count_under_the_register_endpoint_label() {
    let obs = Obs::new();
    let c = cloud().with_obs(&obs);
    let now = SimTime::EPOCH;
    let t0 = register(&c, 0, now);
    let _t1 = register(&c, 1, now);
    c.handle(&Request::get("/api/v1/places").with_token(&t0), now);
    // Legacy views keep their authenticated-only promise...
    assert_eq!(c.total_requests(), 1);
    // ...while the registry sees the registrations too.
    let snap = obs.metrics().unwrap().snapshot();
    assert_eq!(
        snap.counter_value("cloud_requests_total{endpoint=\"register\"}"),
        2
    );
    assert_eq!(
        snap.counter_value("cloud_requests_total{endpoint=\"places_list\"}"),
        1
    );
    // Shard attribution stays out of the shared registry (its labels
    // depend on registration order, which is racy under threads), and so
    // does the private count behind `total_requests`.
    assert_eq!(
        snap.counter_sum_with_prefix("cloud_shard_requests_total"),
        0
    );
    assert_eq!(
        snap.counter_sum_with_prefix("cloud_authenticated_requests_total"),
        0
    );
}

#[test]
fn replay_and_cache_metrics_fire() {
    let obs = Obs::new();
    let c = cloud().with_obs(&obs);
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    // Stale places sync (same seq twice) → one replay.
    let sync = places_sync(vec![], Some(1)).with_token(&token);
    assert!(c.handle(&sync, now).is_success());
    assert!(c.handle(&sync, now).is_success());
    // next_place: first query trains (miss), second hits the memo.
    let query = place_query("/api/v1/analytics/next_place", 0).with_token(&token);
    assert!(c.handle(&query, now).is_success());
    assert!(c.handle(&query, now).is_success());
    let snap = obs.metrics().unwrap().snapshot();
    assert_eq!(
        snap.counter_value("cloud_replays_total{endpoint=\"places_sync\"}"),
        1
    );
    assert_eq!(
        snap.counter_value("cloud_analytics_cache_total{result=\"miss\"}"),
        1
    );
    assert_eq!(
        snap.counter_value("cloud_analytics_cache_total{result=\"hit\"}"),
        1
    );
}

#[test]
fn shared_cloud_serves_threads_concurrently() {
    let shared = SharedCloud::new(cloud());
    let now = SimTime::EPOCH;
    let tokens: Vec<String> = (0..4).map(|n| register(&shared, n, now)).collect();
    std::thread::scope(|s| {
        for (n, token) in tokens.iter().enumerate() {
            let shared = shared.clone();
            s.spawn(move || {
                let place = DiscoveredPlace::new(
                    DiscoveredPlaceId(n as u32),
                    PlaceSignature::WifiAps(Default::default()),
                    vec![],
                );
                let resp = shared.handle(&places_sync(vec![place], None).with_token(token), now);
                assert!(resp.is_success());
            });
        }
    });
    // Every user sees exactly their own single place.
    for (n, token) in tokens.iter().enumerate() {
        let resp = shared.handle(&Request::get("/api/v1/places").with_token(token), now);
        let body = resp.json();
        let places = body["places"].as_array().unwrap();
        assert_eq!(places.len(), 1, "user {n}");
        assert_eq!(places[0]["id"], n as u64);
    }
}

/// Malformed batched offloads (ISSUE 8 regression set): every decode
/// failure in [`pmware_cloud::wire::ObservationBatch`] must surface as a
/// structured 400 at the endpoint — a hostile or confused client can
/// never panic the server — while empty and single-sample batches are
/// legitimate and absorb cleanly.
#[test]
fn batched_discover_edge_cases_yield_400_not_panics() {
    use pmware_cloud::wire::ObservationBatch;

    let c = cloud();
    let now = SimTime::EPOCH;
    let token = register(&c, 0, now);
    let obs = |second: u64, id: u32| GsmObservation {
        time: SimTime::from_seconds(second),
        cell: CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        },
        layer: NetworkLayer::G2,
        rssi_dbm: -70.0,
    };
    let discover = |batch: &ObservationBatch| {
        let body = DiscoverBody {
            observations: Vec::new(),
            batch: Some(batch.clone()),
            start: Some(0),
        };
        c.handle(
            &Request::post("/api/v1/places/discover", body).with_token(&token),
            now,
        )
    };

    // Empty batch: legitimate (an idle day), absorbs nothing, 200.
    let resp = discover(&ObservationBatch::encode(&[]));
    assert!(resp.is_success(), "{resp:?}");

    // Single-sample batch: the smallest real offload, 200.
    let resp = discover(&ObservationBatch::encode(&[obs(60, 1)]));
    assert!(resp.is_success(), "{resp:?}");

    // Dictionary symbol out of range → 400 with the decode error.
    let mut bad = ObservationBatch::encode(&[obs(60, 1)]);
    bad.cell[0] = 7;
    let resp = discover(&bad);
    assert_eq!(resp.status, 400);
    assert!(
        resp.error_message().unwrap().contains("outside dictionary"),
        "{resp:?}"
    );

    // Ragged parallel columns → 400.
    let mut ragged = ObservationBatch::encode(&[obs(60, 1), obs(120, 2)]);
    ragged.rssi_dbm.pop();
    let resp = discover(&ragged);
    assert_eq!(resp.status, 400);
    assert!(resp.error_message().unwrap().contains("ragged"), "{resp:?}");

    // Wrapping-boundary deltas: decode is defined (wrapping), so the
    // endpoint must absorb rather than 500 — and the server state stays
    // usable afterwards.
    let mut wrapping = ObservationBatch::encode(&[obs(0, 1), obs(1, 1)]);
    wrapping.t0 = u64::MAX;
    wrapping.dt = vec![i64::MAX, i64::MIN];
    let resp = discover(&wrapping);
    assert!(
        resp.status == 200 || resp.status == 400,
        "wrapping batch must not 5xx: {resp:?}"
    );
    let resp = c.handle(&Request::get("/api/v1/places").with_token(&token), now);
    assert!(resp.is_success(), "server survived: {resp:?}");
}

// ---------------------------------------------------------------------
// Gate precedence: which check answers a request first.
//
// Every case builds a fresh instance bound to its own registry,
// registers one user, puts it in the state under test, and sends one
// probe. The probe's status and error text say which gate answered; the
// counter deltas say which gates it passed on the way (the endpoint
// counter and the authenticated-request count).
// ---------------------------------------------------------------------

/// A fresh instance with one registered user (`imei-0`).
struct Scene {
    cloud: CloudInstance,
    obs: Obs,
    token: String,
}

fn scene() -> Scene {
    let obs = Obs::new();
    let cloud = cloud().with_obs(&obs);
    let resp = cloud.handle(&registration(0), SimTime::EPOCH);
    assert!(resp.is_success(), "{resp:?}");
    Scene {
        token: resp.json()["token"].as_str().unwrap().to_owned(),
        cloud,
        obs,
    }
}

fn registration(n: u32) -> Request {
    let body = RegistrationBody {
        imei: format!("imei-{n}"),
        email: format!("u{n}@x.com"),
    };
    Request::post("/api/v1/registration", body)
}

fn list_places(token: &str) -> Request {
    Request::get("/api/v1/places").with_token(token)
}

fn at(seconds: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_seconds(seconds)
}

/// What a probe produced and which counters it moved.
#[derive(Debug, PartialEq)]
struct GateOutcome {
    status: u16,
    error: Option<String>,
    allow: Option<Value>,
    /// `cloud_requests_total{endpoint}` delta for the probe's label.
    endpoint_requests: u64,
    /// `total_requests()` delta.
    authenticated: u64,
}

/// The expected outcome, counter deltas in the order
/// `[endpoint_requests, authenticated]`.
fn gate(status: u16, error: Option<&str>, deltas: [u64; 2]) -> GateOutcome {
    GateOutcome {
        status,
        error: error.map(str::to_owned),
        allow: None,
        endpoint_requests: deltas[0],
        authenticated: deltas[1],
    }
}

struct GateCase {
    name: &'static str,
    /// Puts the scene in the state under test; returns the probe and the
    /// instant it is sent at.
    arrange: fn(&Scene) -> (Request, SimTime),
    /// The `cloud_requests_total` label the probe counts under.
    endpoint: &'static str,
    expect: GateOutcome,
}

fn probe(case: &GateCase) -> GateOutcome {
    let s = scene();
    let (request, now) = (case.arrange)(&s);
    let key = format!("cloud_requests_total{{endpoint=\"{}\"}}", case.endpoint);
    let counted = |s: &Scene| s.obs.metrics().unwrap().snapshot().counter_value(&key);
    let before = (counted(&s), s.cloud.total_requests());
    let resp = s.cloud.handle(&request, now);
    let body = resp.json();
    GateOutcome {
        status: resp.status,
        error: resp.error_message().map(str::to_owned),
        allow: body.get("allow").cloned(),
        endpoint_requests: counted(&s) - before.0,
        authenticated: s.cloud.total_requests() - before.1,
    }
}

#[test]
fn gates_answer_in_a_fixed_order() {
    const EXPIRED: u64 = 25 * 3600;
    let unauthorized = Some("invalid or expired token");
    let cases = vec![
        GateCase {
            name: "missing token on an unrouted path",
            arrange: |_| (Request::get("/api/v1/nope"), at(0)),
            endpoint: "other",
            expect: gate(401, Some("missing bearer token"), [1, 0]),
        },
        GateCase {
            name: "expired token on an unrouted path",
            arrange: |s| {
                (
                    Request::get("/api/v1/nope").with_token(&s.token),
                    at(EXPIRED),
                )
            },
            endpoint: "other",
            expect: gate(401, unauthorized, [1, 0]),
        },
        GateCase {
            name: "valid token on an unrouted path",
            arrange: |s| (Request::get("/api/v1/nope").with_token(&s.token), at(0)),
            endpoint: "other",
            expect: gate(404, Some("no route for /api/v1/nope"), [1, 1]),
        },
        GateCase {
            name: "wrong method with a valid token",
            arrange: |s| {
                (
                    Request::get("/api/v1/places/sync").with_token(&s.token),
                    at(0),
                )
            },
            endpoint: "other",
            expect: GateOutcome {
                allow: Some(json!(["POST"])),
                ..gate(405, Some("method not allowed"), [1, 1])
            },
        },
        GateCase {
            name: "expired token on a routed path",
            arrange: |s| (list_places(&s.token), at(EXPIRED)),
            endpoint: "places_list",
            expect: gate(401, unauthorized, [1, 0]),
        },
        GateCase {
            // The public registration route ignores a token the caller
            // attaches.
            name: "registration with a valid token attached",
            arrange: |s| (registration(0).with_token(&s.token), at(0)),
            endpoint: "register",
            expect: gate(200, None, [1, 0]),
        },
    ];
    for case in &cases {
        assert_eq!(probe(case), case.expect, "{}", case.name);
    }
}

/// The health body is liveness only.
#[test]
fn health_body_is_liveness_only() {
    let obs = Obs::new();
    let c = cloud().with_obs(&obs);
    let health = c.handle(&Request::get("/api/v1/health"), SimTime::EPOCH);
    assert!(health.is_success(), "{health:?}");
    assert_eq!(health.json().to_string(), r#"{"status":"ok"}"#);
    let json = obs.metrics_json().unwrap();
    assert!(json.contains("cloud_requests_total"), "{json}");
}

/// The storage engine binds its gauge and counters to the registry it
/// finds, so binding a registry after it is refused rather than
/// silently split.
#[test]
#[should_panic(expected = "with_obs runs first")]
fn with_obs_after_with_storage_is_refused() {
    let _ = cloud()
        .with_storage(StorageConfig {
            resident_cap: Some(1),
            ..StorageConfig::default()
        })
        .with_obs(&Obs::new());
}
