//! Property-based tests for the cloud instance: auth lifecycle, profile
//! analytics invariants, and API robustness against arbitrary requests.

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_cloud::analytics::ProfileHistory;
use pmware_cloud::router::ROUTES;
use pmware_cloud::{
    CellDatabase, CloudInstance, MobilityProfile, PlaceEntry, RegistrationBody, Request,
};
use pmware_world::{SimDuration, SimTime};
use proptest::prelude::*;

fn registration(imei: &str, email: &str) -> Request {
    let body = RegistrationBody {
        imei: imei.into(),
        email: email.into(),
    };
    Request::post("/api/v1/registration", body)
}

fn history_from(entries: &[(u32, u64, u64, u64)]) -> ProfileHistory {
    // (place, day, start_hour, len_hours)
    let mut h = ProfileHistory::new();
    for &(place, day, hour, len) in entries {
        let day = day % 28;
        let hour = hour % 20;
        let len = 1 + len % (23 - hour);
        let mut p = h
            .day(day)
            .cloned()
            .unwrap_or_else(|| MobilityProfile::new(day));
        p.places.push(PlaceEntry {
            place: DiscoveredPlaceId(place % 8),
            arrival: SimTime::from_day_time(day, hour, 0, 0),
            departure: SimTime::from_day_time(day, hour + len, 0, 0),
        });
        h.upsert(p);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn visit_counts_are_consistent(entries in prop::collection::vec(
        (0u32..8, 0u64..28, 0u64..20, 0u64..8), 0..60)) {
        let h = history_from(&entries);
        let total_entries: usize = h.iter().map(|p| p.places.len()).sum();
        let by_place: usize = (0..8).map(|p| h.visit_count(DiscoveredPlaceId(p))).sum();
        prop_assert_eq!(total_entries, by_place);
        for p in 0..8 {
            let id = DiscoveredPlaceId(p);
            let hist = h.weekday_histogram(id);
            prop_assert_eq!(hist.iter().sum::<u32>() as usize, h.visit_count(id));
            prop_assert!(h.visits_per_week(id) >= 0.0);
        }
    }

    #[test]
    fn typical_arrival_is_within_window(entries in prop::collection::vec(
        (0u32..8, 0u64..28, 0u64..20, 0u64..8), 1..60),
        lo in 0u64..22,
    ) {
        let h = history_from(&entries);
        let hi = lo + 2;
        for p in 0..8 {
            if let Some(s) =
                h.typical_arrival_second_of_day(DiscoveredPlaceId(p), Some((lo, hi)))
            {
                prop_assert!(s >= lo * 3_600 && s < hi * 3_600);
            }
        }
    }

    #[test]
    fn markov_distributions_are_probabilities(entries in prop::collection::vec(
        (0u32..8, 0u64..28, 0u64..20, 0u64..8), 0..60)) {
        let h = history_from(&entries);
        let model = pmware_cloud::predict::MarkovPredictor::train(&h);
        for p in 0..8 {
            let dist = model.predict_next(DiscoveredPlaceId(p));
            if dist.is_empty() {
                continue;
            }
            let total: f64 = dist.iter().map(|(_, pr)| pr).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            for w in dist.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn predicted_next_visit_is_in_the_future(entries in prop::collection::vec(
        (0u32..8, 0u64..28, 0u64..20, 0u64..8), 1..60),
        now_secs in 0u64..(40 * 86_400),
    ) {
        let h = history_from(&entries);
        let now = SimTime::from_seconds(now_secs);
        for p in 0..8 {
            if let Some(t) = pmware_cloud::predict::predict_next_visit(
                &h,
                DiscoveredPlaceId(p),
                now,
            ) {
                prop_assert!(t > now);
                prop_assert!(t <= now + SimDuration::from_days(15));
            }
        }
    }

    #[test]
    fn arbitrary_paths_never_panic_and_need_auth(
        path_tail in "[a-z/0-9]{0,24}",
        with_token in any::<bool>(),
        body_row in 0..ROUTES.len(),
    ) {
        let cloud = CloudInstance::new(CellDatabase::new(), 1);
        let resp = cloud.handle(&registration("i", "e"), SimTime::EPOCH);
        let token = resp.json()["token"].as_str().unwrap().to_owned();
        // Any route's typed body, sent to a hostile path.
        let body = sample_request_payload(ROUTES[body_row].label);
        let mut req = Request::post(format!("/api/v1/{path_tail}"), body);
        if with_token {
            req = req.with_token(&token);
        }
        let resp = cloud.handle(&req, SimTime::EPOCH);
        // Never a success for garbage paths; always a structured error.
        if path_tail != "registration" {
            // 405 when the tail happens to name a GET-only route.
            prop_assert!(
                resp.status == 400 || resp.status == 401 || resp.status == 404
                    || resp.status == 405,
                "unexpected status {} for {}", resp.status, req.path);
        }
        if !with_token && path_tail != "registration" {
            prop_assert_eq!(resp.status, 401);
        }
    }

    /// Sharding invariant: an arbitrary interleaving of requests from two
    /// users never leaks state across them — each user always reads back
    /// exactly what they wrote, as if they had the server to themselves.
    #[test]
    fn interleaved_users_never_cross_talk(
        ops in prop::collection::vec((any::<bool>(), 0u8..3, 0u32..40), 1..50)
    ) {
        use pmware_algorithms::signature::{DiscoveredPlace, PlaceSignature};
        use pmware_cloud::{
            ContactEntry, SocialQueryBody, SyncContactsBody, SyncPlacesBody, SyncProfileBody,
        };

        let cloud = CloudInstance::new(CellDatabase::new(), 9);
        let now = SimTime::EPOCH;
        let mut tokens = Vec::new();
        for n in 0..2 {
            let resp = cloud.handle(
                &registration(&format!("imei-{n}"), &format!("u{n}@x.com")),
                now,
            );
            tokens.push(resp.json()["token"].as_str().unwrap().to_owned());
        }

        // Local models of what each user wrote. Place ids are disjoint by
        // parity so an id leaking across users is unambiguous.
        let mut expected_places: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut expected_days: [std::collections::BTreeMap<u64, u32>; 2] =
            [Default::default(), Default::default()];
        let mut expected_contacts: [Vec<String>; 2] = [Vec::new(), Vec::new()];

        for (second, kind, val) in ops {
            let u = second as usize;
            let token = &tokens[u];
            match kind {
                0 => {
                    // Replace the user's place list (sync is authoritative).
                    let id = val * 2 + u as u32;
                    if !expected_places[u].contains(&id) {
                        expected_places[u].push(id);
                    }
                    let places: Vec<DiscoveredPlace> = expected_places[u]
                        .iter()
                        .map(|&id| DiscoveredPlace::new(
                            DiscoveredPlaceId(id),
                            PlaceSignature::WifiAps(Default::default()),
                            vec![],
                        ))
                        .collect();
                    let resp = cloud.handle(
                        &Request::post("/api/v1/places/sync", SyncPlacesBody { places, seq: None })
                            .with_token(token),
                        now,
                    );
                    prop_assert!(resp.is_success());
                }
                1 => {
                    // Upsert one profile day holding a user-tagged place id.
                    let day = u64::from(val % 14);
                    let place = val * 2 + u as u32;
                    let mut profile = MobilityProfile::new(day);
                    profile.places.push(PlaceEntry {
                        place: DiscoveredPlaceId(place),
                        arrival: SimTime::from_day_time(day, 9, 0, 0),
                        departure: SimTime::from_day_time(day, 10, 0, 0),
                    });
                    expected_days[u].insert(day, place);
                    let resp = cloud.handle(
                        &Request::post("/api/v1/profiles/sync", SyncProfileBody { profile, seq: None })
                            .with_token(token),
                        now,
                    );
                    prop_assert!(resp.is_success());
                }
                _ => {
                    let name = format!("peer-{u}-{val}");
                    expected_contacts[u].push(name.clone());
                    let contact = ContactEntry {
                        contact: name,
                        start: SimTime::EPOCH,
                        end: SimTime::EPOCH,
                        place: None,
                    };
                    let body = SyncContactsBody { contacts: vec![contact], first_seq: None };
                    let resp = cloud.handle(
                        &Request::post("/api/v1/social/sync", body).with_token(token),
                        now,
                    );
                    prop_assert!(resp.is_success());
                }
            }
        }

        for u in 0..2 {
            let token = &tokens[u];
            // Place list is exactly what this user last synced.
            let resp = cloud.handle(&Request::get("/api/v1/places").with_token(token), now);
            let got: Vec<u32> = resp.json()["places"]
                .as_array()
                .unwrap()
                .iter()
                .map(|p| p["id"].as_u64().unwrap() as u32)
                .collect();
            prop_assert_eq!(&got, &expected_places[u], "user {} places", u);
            // Every synced day reads back with this user's place id.
            for (&day, &place) in &expected_days[u] {
                let resp = cloud.handle(
                    &Request::get(format!("/api/v1/profiles/{day}")).with_token(token),
                    now,
                );
                prop_assert!(resp.is_success());
                let got = resp.json()["profile"]["places"][0]["place"].as_u64().unwrap();
                prop_assert_eq!(got as u32, place, "user {} day {}", u, day);
            }
            // Contacts accumulate only this user's peers.
            let resp = cloud.handle(
                &Request::post("/api/v1/social/query", SocialQueryBody { place: None })
                    .with_token(token),
                now,
            );
            let got: Vec<String> = resp.json()["contacts"]
                .as_array()
                .unwrap()
                .iter()
                .map(|c| c["contact"].as_str().unwrap().to_owned())
                .collect();
            prop_assert_eq!(&got, &expected_contacts[u], "user {} contacts", u);
        }
    }
}

/// A canonical sample request payload for every route label. The match is
/// exhaustive over the live table: adding a [`pmware_cloud::ROUTES`] row
/// without extending this function makes
/// `route_table_and_payload_layer_are_exhaustively_tied` panic, which is
/// the point — a route must never exist without a typed payload story.
fn sample_request_payload(label: &str) -> pmware_cloud::Payload {
    use pmware_algorithms::signature::{DiscoveredPlace, PlaceSignature};
    use pmware_cloud::{
        ArrivalBody, DiscoverBody, GeolocateBody, GeolocateSignatureBody, LabelBody, NextVisitBody,
        Payload, PlaceOnlyBody, RegistrationBody, RouteQueryBody, SocialQueryBody,
        SyncContactsBody, SyncPlacesBody, SyncProfileBody, SyncRoutesBody,
    };
    match label {
        "register" => RegistrationBody {
            imei: "350000000000000".into(),
            email: "a@x.com".into(),
        }
        .into(),
        // Body-less routes: the typed story is `Payload::Empty` (wire
        // spelling `null`).
        "token_refresh" | "places_list" | "routes_list" | "profiles_get" | "analytics_activity"
        | "health" => Payload::Empty,
        "places_discover" => DiscoverBody {
            observations: vec![],
            batch: None,
            start: Some(0),
        }
        .into(),
        "places_sync" => SyncPlacesBody {
            places: vec![DiscoveredPlace::new(
                DiscoveredPlaceId(1),
                PlaceSignature::WifiAps(Default::default()),
                vec![],
            )],
            seq: Some(1),
        }
        .into(),
        "places_label" => LabelBody {
            place: DiscoveredPlaceId(1),
            label: "Home".into(),
        }
        .into(),
        "routes_sync" => SyncRoutesBody {
            routes: vec![],
            seq: Some(1),
        }
        .into(),
        "routes_query" => RouteQueryBody {
            from: DiscoveredPlaceId(0),
            to: DiscoveredPlaceId(1),
        }
        .into(),
        // Day 3 (the day `sample_path` fetches): home at 0, then work
        // at 1, which the analytics queries below read back.
        "profiles_sync" => {
            let mut profile = MobilityProfile::new(3);
            for (place, hour) in [(0, 18), (1, 21)] {
                profile.places.push(PlaceEntry {
                    place: DiscoveredPlaceId(place),
                    arrival: SimTime::from_day_time(3, hour, 0, 0),
                    departure: SimTime::from_day_time(3, hour + 1, 0, 0),
                });
            }
            SyncProfileBody {
                profile,
                seq: Some(1),
            }
            .into()
        }
        "social_sync" => SyncContactsBody {
            contacts: vec![],
            first_seq: Some(0),
        }
        .into(),
        "social_query" => SocialQueryBody {
            place: Some(DiscoveredPlaceId(2)),
        }
        .into(),
        "geolocate" => GeolocateBody {
            mcc: 404,
            mnc: 10,
            lac: 1,
            cid: 2,
        }
        .into(),
        "geolocate_signature" => GeolocateSignatureBody {
            cells: vec![sample_cell()],
        }
        .into(),
        "analytics_arrival" => ArrivalBody {
            place: DiscoveredPlaceId(0),
            window: Some((15, 24)),
        }
        .into(),
        "analytics_next_visit" => NextVisitBody {
            place: DiscoveredPlaceId(0),
            now: SimTime::from_seconds(60),
        }
        .into(),
        "analytics_frequency" | "analytics_next_place" => PlaceOnlyBody {
            place: DiscoveredPlaceId(0),
        }
        .into(),
        other => panic!("route {other:?} has no sample body — extend sample_request_payload"),
    }
}

/// The one cell the tie test's cell database knows: the `geolocate`
/// sample's.
fn sample_cell() -> pmware_world::CellGlobalId {
    use pmware_world::{CellGlobalId, CellId, Lac, Plmn};
    CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 10 },
        lac: Lac(1),
        cell: CellId(2),
    }
}

/// A path `route` serves (a prefix route gets a day suffix).
fn sample_path(route: &pmware_cloud::Route) -> String {
    use pmware_cloud::router::PathSpec;
    match route.path {
        PathSpec::Exact(p) => p.to_owned(),
        PathSpec::Prefix(p) => format!("{p}3"),
    }
}

/// A sample success reply for every route label, exhaustive over the
/// live table like [`sample_request_payload`]: the reply variant each
/// row answers with.
fn sample_reply_payload(label: &str) -> pmware_cloud::Payload {
    use pmware_cloud::{ContactEntry, Payload, UserId};
    let (n, x) = (1, 0.5);
    match label {
        "register" => Payload::Registered {
            user: UserId(n as u32),
            token: format!("tok-{n}"),
            expires_at: SimTime::from_seconds(n),
        },
        "token_refresh" => Payload::TokenRefreshed {
            token: format!("tok-{n}"),
            expires_at: SimTime::from_seconds(n),
        },
        "places_discover" => Payload::Discovered {
            places: vec![],
            absorbed_upto: n,
        },
        "places_list" => Payload::Places { places: vec![] },
        "places_sync" | "routes_sync" => Payload::SyncAck {
            stored: n as usize,
            stale: n.is_multiple_of(2),
        },
        "places_label" => Payload::Labelled {
            labelled: DiscoveredPlaceId(n as u32),
        },
        "routes_list" | "routes_query" => Payload::Routes { routes: vec![] },
        "profiles_sync" => Payload::ProfileSynced {
            synced_day: n,
            stale: !n.is_multiple_of(2),
        },
        "profiles_get" => Payload::ProfileDay {
            profile: MobilityProfile::new(n),
        },
        "social_sync" => Payload::ContactsAck {
            stored: n as usize,
            acked_upto: n,
        },
        "social_query" => Payload::Contacts {
            contacts: vec![ContactEntry {
                contact: format!("peer-{n}"),
                start: SimTime::from_seconds(n),
                end: SimTime::from_seconds(n + 60),
                place: Some(DiscoveredPlaceId(1)),
            }],
        },
        "geolocate" | "geolocate_signature" => Payload::Position {
            latitude: x,
            longitude: -x,
        },
        "analytics_arrival" => Payload::ArrivalAt { second_of_day: n },
        "analytics_next_visit" => Payload::VisitAt {
            time: SimTime::from_seconds(n),
        },
        "analytics_frequency" => Payload::Frequency {
            visits_per_week: x,
            visit_count: n as usize,
        },
        "analytics_activity" => Payload::Activity {
            mean_daily_moving_minutes: x,
        },
        "analytics_next_place" => Payload::Predictions {
            predictions: vec![(DiscoveredPlaceId(n as u32), x)],
        },
        "health" => Payload::Health,
        other => panic!("route {other:?} has no sample reply — extend sample_reply_payload"),
    }
}

/// Exhaustiveness tie between the route table and the payload layer:
/// every route resolves back to its own row and carries a unique,
/// non-empty metric label. Sent in row order to one live instance, each
/// row's typed sample request is taken by its handler and answered with
/// the row's reply shape, and on every POST route that takes a body a
/// body of another type answers `400 invalid body`. New rows fail here
/// until both sides exist.
#[test]
fn route_table_and_payload_layer_are_exhaustively_tied() {
    use pmware_cloud::router::{resolve, Resolution};
    use pmware_cloud::{Method, Payload};
    use std::mem::discriminant;

    let mut cells = CellDatabase::new();
    cells.insert(
        sample_cell(),
        pmware_geo::GeoPoint::new(28.5, 77.2).unwrap(),
    );
    let cloud = CloudInstance::new(cells, 3);
    let reg = cloud.handle(&registration("i", "e"), SimTime::EPOCH);
    let mut token = reg.json()["token"].as_str().unwrap().to_owned();
    let mut labels = std::collections::BTreeSet::new();
    for (index, route) in ROUTES.iter().enumerate() {
        let path = sample_path(route);
        match resolve(route.method, &path) {
            Resolution::Matched { index: hit, .. } => {
                assert_eq!(
                    hit, index,
                    "route {} shadowed by an earlier row",
                    route.label
                );
            }
            other => panic!("route {} does not resolve: {other:?}", route.label),
        }
        assert!(!route.label.is_empty());
        assert!(
            labels.insert(route.label),
            "duplicate metric label {:?}",
            route.label
        );

        let payload = sample_request_payload(route.label);
        let request = match route.method {
            Method::Get => {
                assert_eq!(payload, Payload::Empty, "route {}", route.label);
                Request::get(&path)
            }
            Method::Post => Request::post(&path, payload.clone()),
        };
        let response = cloud.handle(&request.with_token(&token), SimTime::EPOCH);
        assert!(
            response.is_success(),
            "route {}: its sample request is refused: {response:?}",
            route.label
        );
        let reply = sample_reply_payload(route.label);
        assert_eq!(
            discriminant(&response.body),
            discriminant(&reply),
            "route {}: reply shape",
            route.label
        );
        if let Payload::TokenRefreshed { token: rotated, .. } = &response.body {
            token = rotated.clone();
        }

        if route.method == Method::Post && payload != Payload::Empty {
            let other = if route.label == "register" {
                "places_label"
            } else {
                "register"
            };
            let wrong = Request::post(&path, sample_request_payload(other)).with_token(&token);
            let response = cloud.handle(&wrong, SimTime::EPOCH);
            assert_eq!(response.status, 400, "route {}: {response:?}", route.label);
            let message = response.error_message().unwrap();
            assert!(
                message.starts_with("invalid body: expected"),
                "route {}: {message}",
                route.label
            );
        }
    }
    assert_eq!(labels.len(), ROUTES.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzzed unrouted traffic pins its error **bytes**, not just the
    /// status: a 404 body is exactly `{"error":"no route for <path>"}` and
    /// a 405 body exactly `{"allow":[...],"error":"method not allowed"}`
    /// — the spellings clients key on.
    #[test]
    fn unrouted_requests_pin_their_error_bytes(
        tail in "[a-z0-9/._-]{0,24}",
        is_get in any::<bool>(),
        body_row in 0..ROUTES.len(),
    ) {
        use pmware_cloud::router::{resolve, Resolution};
        use pmware_cloud::Method;

        let cloud = CloudInstance::new(CellDatabase::new(), 5);
        let reg = cloud.handle(&registration("i", "e"), SimTime::EPOCH);
        let token = reg.json()["token"].as_str().unwrap().to_owned();

        let path = format!("/api/v1/{tail}");
        let method = if is_get { Method::Get } else { Method::Post };
        let request = if is_get {
            Request::get(&path)
        } else {
            Request::post(&path, sample_request_payload(ROUTES[body_row].label))
        }
        .with_token(&token);
        let response = cloud.handle(&request, SimTime::EPOCH);
        let body = response.json().to_string();

        match resolve(method, &path) {
            Resolution::NotFound => {
                prop_assert_eq!(response.status, 404);
                let expected = format!(r#"{{"error":"no route for {path}"}}"#);
                prop_assert_eq!(body, expected);
            }
            Resolution::MethodNotAllowed { allow } => {
                prop_assert_eq!(response.status, 405);
                let allowed = allow
                    .iter()
                    .map(|m| format!("\"{}\"", m.as_str()))
                    .collect::<Vec<_>>()
                    .join(",");
                let expected =
                    format!(r#"{{"allow":[{allowed}],"error":"method not allowed"}}"#);
                prop_assert_eq!(body, expected);
            }
            // The fuzzer occasionally lands on a real route; those are
            // owned by the endpoint tests, not this pin.
            Resolution::Matched { .. } => {}
        }
    }
}
