//! Property-based tests for the cloud instance: auth lifecycle, profile
//! analytics invariants, and API robustness against arbitrary requests.

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_cloud::analytics::ProfileHistory;
use pmware_cloud::{CellDatabase, CloudInstance, MobilityProfile, PlaceEntry, Request};
use pmware_world::{SimDuration, SimTime};
use proptest::prelude::*;
use serde_json::json;

/// Arbitrary JSON values: null / bool / integer / string leaves plus a
/// nested object-with-array shape. No floats — JSON has no NaN, so a
/// float that fails to round-trip would indict the generator, not the
/// wire format.
fn arb_json() -> impl Strategy<Value = serde_json::Value> {
    (
        0u8..5,
        any::<i64>(),
        "[a-zA-Z0-9 _./:-]{0,24}",
        prop::collection::vec(("[a-z_]{1,8}", any::<i64>()), 0..5),
        prop::collection::vec("[a-zA-Z0-9 ]{0,12}", 0..5),
    )
        .prop_map(|(kind, n, s, pairs, items)| match kind {
            0 => serde_json::Value::Null,
            1 => serde_json::json!(n % 2 == 0),
            2 => serde_json::json!(n),
            3 => serde_json::json!(s),
            _ => {
                let object: std::collections::BTreeMap<String, serde_json::Value> = pairs
                    .into_iter()
                    .map(|(key, value)| (key, serde_json::json!(value)))
                    .collect();
                serde_json::json!({
                    "meta": object,
                    "items": items,
                    "n": n,
                    "s": s,
                })
            }
        })
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
        body_num in any::<i64>(),
    ) {
        let cloud = CloudInstance::new(CellDatabase::new(), 1);
        let resp = cloud.handle(
            &Request::post_json(
                "/api/v1/registration",
                json!({"imei": "i", "email": "e"}),
            ),
            SimTime::EPOCH,
        );
        let token = resp.json()["token"].as_str().unwrap().to_owned();
        let mut req = Request::post_json(format!("/api/v1/{path_tail}"), json!({"x": body_num}));
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

    #[test]
    fn wire_round_trip_any_request(
        is_get in any::<bool>(),
        path in "/[a-zA-Z0-9/._-]{0,40}",
        token in prop::option::of("[A-Za-z0-9-]{1,40}"),
        body in arb_json(),
    ) {
        let mut req = if is_get {
            Request::get(path)
        } else {
            Request::post_json(path, body)
        };
        if let Some(t) = token {
            req = req.with_token(t);
        }
        let bytes = req.to_bytes();
        let back = Request::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Every reply the server can send survives the wire: each route's
    /// success shape and the 400/404/405 error shapes, spelled as
    /// bytes and decoded back by the route and the status, come back as
    /// the same variant with the same bytes.
    #[test]
    fn wire_round_trip_every_route_reply(
        n in 0u64..1_000_000,
        x in -90.0..90.0f64,
    ) {
        use pmware_cloud::router::ROUTES;
        use pmware_cloud::{Method, Response};

        for route in ROUTES.iter() {
            let path = sample_path(route);
            let replies = [
                Response::ok(sample_reply_payload(route.label, n, x)),
                Response::bad_request(format!("invalid body: {n}")),
                Response::not_found(format!("no route for {path}")),
                Response::method_not_allowed(&[Method::Get, Method::Post]),
            ];
            for reply in replies {
                let bytes = reply.to_bytes();
                let back = Response::from_bytes(route.method, &path, &bytes).unwrap();
                prop_assert_eq!(
                    std::mem::discriminant(&back.body),
                    std::mem::discriminant(&reply.body),
                    "{} {}: decoded {:?}", route.label, reply.status, back.body
                );
                prop_assert_eq!(&back, &reply);
                prop_assert_eq!(back.to_bytes(), bytes);
            }
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

        let cloud = CloudInstance::new(CellDatabase::new(), 9);
        let now = SimTime::EPOCH;
        let mut tokens = Vec::new();
        for n in 0..2 {
            let resp = cloud.handle(
                &Request::post_json(
                    "/api/v1/registration",
                    json!({"imei": format!("imei-{n}"), "email": format!("u{n}@x.com")}),
                ),
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
                        &Request::post_json("/api/v1/places/sync", json!({"places": places}))
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
                        &Request::post_json("/api/v1/profiles/sync", json!({"profile": profile}))
                            .with_token(token),
                        now,
                    );
                    prop_assert!(resp.is_success());
                }
                _ => {
                    let name = format!("peer-{u}-{val}");
                    expected_contacts[u].push(name.clone());
                    let resp = cloud.handle(
                        &Request::post_json("/api/v1/social/sync", json!({"contacts": [{
                            "contact": name,
                            "start": SimTime::EPOCH,
                            "end": SimTime::EPOCH,
                            "place": null,
                        }]}))
                        .with_token(token),
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
                &Request::post_json("/api/v1/social/query", json!({"place": null}))
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

/// One operation against the cloud, generated so the stream covers every
/// interesting dispatch outcome: typed-route hits, unknown paths (404),
/// wrong methods (405 with `allow`), and malformed bodies (400).
#[derive(Debug, Clone)]
enum WireOp {
    Register {
        imei: String,
        email: String,
    },
    SyncPlaces {
        ids: Vec<u32>,
        seq: u64,
    },
    Label {
        place: u32,
        label: String,
    },
    Geolocate {
        mcc: u16,
        mnc: u16,
        lac: u32,
        cid: u32,
    },
    SocialQuery {
        place: Option<u32>,
    },
    UnknownPath {
        tail: String,
    },
    WrongMethod {
        get_on_post: bool,
    },
    Malformed,
}

fn arb_wire_op() -> impl Strategy<Value = WireOp> {
    (
        0u8..8,
        ("[a-z0-9]{1,12}", "[a-zA-Z ]{0,12}", "[a-z0-9/]{1,20}"),
        (
            prop::collection::vec(0u32..16, 0..6),
            0u64..40,
            prop::option::of(0u32..16),
        ),
        (0u16..999, 0u16..999, 0u32..99, 0u32..99),
        any::<bool>(),
    )
        .prop_map(
            |(kind, (imei, label, tail), (ids, seq, place), (mcc, mnc, lac, cid), flag)| match kind
            {
                0 => WireOp::Register {
                    email: format!("{imei}@x.com"),
                    imei,
                },
                1 => WireOp::SyncPlaces { ids, seq },
                2 => WireOp::Label {
                    place: (seq % 16) as u32,
                    label,
                },
                3 => WireOp::Geolocate { mcc, mnc, lac, cid },
                4 => WireOp::SocialQuery { place },
                5 => WireOp::UnknownPath { tail },
                6 => WireOp::WrongMethod { get_on_post: flag },
                _ => WireOp::Malformed,
            },
        )
}

fn op_request(op: &WireOp, token: &str) -> Request {
    use pmware_algorithms::signature::{DiscoveredPlace, PlaceSignature};
    match op {
        WireOp::Register { imei, email } => Request::post_json(
            "/api/v1/registration",
            json!({"imei": imei, "email": email}),
        ),
        WireOp::SyncPlaces { ids, seq } => {
            let places: Vec<DiscoveredPlace> = ids
                .iter()
                .map(|&id| {
                    DiscoveredPlace::new(
                        DiscoveredPlaceId(id),
                        PlaceSignature::WifiAps(Default::default()),
                        vec![],
                    )
                })
                .collect();
            Request::post_json("/api/v1/places/sync", json!({"places": places, "seq": seq}))
                .with_token(token)
        }
        WireOp::Label { place, label } => Request::post_json(
            "/api/v1/places/label",
            json!({"place": place, "label": label}),
        )
        .with_token(token),
        WireOp::Geolocate { mcc, mnc, lac, cid } => Request::post_json(
            "/api/v1/misc/geolocate",
            json!({"mcc": mcc, "mnc": mnc, "lac": lac, "cid": cid}),
        )
        .with_token(token),
        WireOp::SocialQuery { place } => {
            Request::post_json("/api/v1/social/query", json!({"place": place})).with_token(token)
        }
        WireOp::UnknownPath { tail } => Request::get(format!("/api/v1/{tail}")).with_token(token),
        WireOp::WrongMethod { get_on_post } => {
            if *get_on_post {
                // places/sync only accepts POST → 405 with allow: ["POST"].
                Request::get("/api/v1/places/sync").with_token(token)
            } else {
                // places only accepts GET → 405 with allow: ["GET"].
                Request::post_json("/api/v1/places", serde_json::Value::Null).with_token(token)
            }
        }
        WireOp::Malformed => {
            Request::post_json("/api/v1/places/sync", json!({"wrong": true})).with_token(token)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's byte-identity contract: the in-process typed path
    /// and the marshalled wire path (request and response each serialized
    /// to JSON bytes and re-parsed, as the fault decorator does) must
    /// produce the same status and byte-identical response bodies for the
    /// same operation stream — including 404s and 405-with-`allow`.
    #[test]
    fn typed_and_marshalled_paths_are_byte_identical(
        ops in prop::collection::vec(arb_wire_op(), 1..25)
    ) {
        let typed = CloudInstance::new(CellDatabase::new(), 77);
        let wired = CloudInstance::new(CellDatabase::new(), 77);
        let now = SimTime::EPOCH;
        let reg = Request::post_json(
            "/api/v1/registration",
            json!({"imei": "imei-0", "email": "u0@x.com"}),
        );
        let token = typed.handle(&reg, now).json()["token"]
            .as_str()
            .unwrap()
            .to_owned();
        let wired_token = wired.handle(&reg, now).json()["token"]
            .as_str()
            .unwrap()
            .to_owned();
        prop_assert_eq!(&token, &wired_token, "seeded registration must agree");

        for op in &ops {
            let request = op_request(op, &token);
            // Typed path: the request travels as built, no serde anywhere.
            let typed_resp = typed.handle(&request, now);
            // Marshalled path: both directions cross JSON bytes, exactly
            // what FaultyCloud's wire boundary does.
            let wire_request = Request::from_bytes(&request.to_bytes()).unwrap();
            let wired_resp = pmware_cloud::Response::from_bytes(
                wire_request.method,
                &wire_request.path,
                &wired.handle(&wire_request, now).to_bytes(),
            )
            .unwrap();
            prop_assert_eq!(typed_resp.status, wired_resp.status, "status for {:?}", op);
            prop_assert_eq!(
                std::mem::discriminant(&typed_resp.body),
                std::mem::discriminant(&wired_resp.body),
                "reply variant for {:?}: {:?}",
                op,
                wired_resp.body
            );
            prop_assert_eq!(
                typed_resp.to_bytes(),
                wired_resp.to_bytes(),
                "body bytes for {:?}",
                op
            );
        }
    }

    /// Typed request payloads survive their own wire spelling: rendering
    /// to JSON and re-resolving against the route table reconstructs the
    /// same typed variant (never `Invalid`), so the server-side
    /// decode step is lossless for everything the client builds.
    #[test]
    fn typed_payloads_round_trip_through_their_wire_spelling(
        imei in "[a-z0-9]{1,12}",
        email in "[a-z0-9]{1,8}",
        place in 0u32..1000,
        label in "[a-zA-Z ]{0,16}",
        mcc in 0u16..999,
        mnc in 0u16..999,
        lac in 0u16..9999,
        cid in 0u32..9999,
        social_place in prop::option::of(0u32..1000),
    ) {
        use pmware_cloud::{GeolocateBody, LabelBody, Method, Payload, RegistrationBody,
            SocialQueryBody};
        let cases: Vec<(Method, &str, Payload)> = vec![
            (
                Method::Post,
                "/api/v1/registration",
                RegistrationBody { imei, email }.into(),
            ),
            (
                Method::Post,
                "/api/v1/places/label",
                LabelBody { place: DiscoveredPlaceId(place), label }.into(),
            ),
            (
                Method::Post,
                "/api/v1/misc/geolocate",
                GeolocateBody { mcc, mnc, lac, cid }.into(),
            ),
            (
                Method::Post,
                "/api/v1/social/query",
                SocialQueryBody {
                    place: social_place.map(DiscoveredPlaceId),
                }
                .into(),
            ),
        ];
        for (method, path, payload) in cases {
            let spelled = payload.to_json();
            let back = Payload::from_json(method, path, &spelled);
            prop_assert!(
                !matches!(back, Payload::Invalid { .. }),
                "{} must re-resolve typed, got {:?}",
                path,
                back
            );
            prop_assert_eq!(&back, &payload, "{} round-trip", path);
            prop_assert_eq!(back.to_json(), spelled, "{} spelling stable", path);
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
        "profiles_sync" => SyncProfileBody {
            profile: MobilityProfile::new(0),
            seq: Some(1),
        }
        .into(),
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
        "geolocate_signature" => GeolocateSignatureBody { cells: vec![] }.into(),
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

/// A path `route` serves (a prefix route gets a day suffix).
fn sample_path(route: &pmware_cloud::Route) -> String {
    use pmware_cloud::router::PathSpec;
    match route.path {
        PathSpec::Exact(p) => p.to_owned(),
        PathSpec::Prefix(p) => format!("{p}3"),
    }
}

/// A sample success reply for every route label, exhaustive over the
/// live table like [`sample_request_payload`]; `n` and `x` vary the
/// scalars.
fn sample_reply_payload(label: &str, n: u64, x: f64) -> pmware_cloud::Payload {
    use pmware_cloud::{ContactEntry, Payload, UserId};
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
/// every route resolves back to its own row, has a typed request payload
/// whose wire spelling decodes to the same variant (never `Invalid`), and carries a non-empty metric label. New rows fail here
/// until both sides exist.
#[test]
fn route_table_and_payload_layer_are_exhaustively_tied() {
    use pmware_cloud::router::{resolve, Resolution, ROUTES};
    use pmware_cloud::Payload;

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
        let spelled = payload.to_json();
        let back = Payload::from_json(route.method, &path, &spelled);
        assert!(
            !matches!(back, Payload::Invalid { .. }),
            "route {}: canonical body does not decode",
            route.label
        );
        assert_eq!(back, payload, "route {}: lossy decode", route.label);
        assert_eq!(
            back.to_json(),
            spelled,
            "route {}: unstable wire spelling",
            route.label
        );
    }
    assert_eq!(labels.len(), ROUTES.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzzed unrouted traffic pins its error **bytes**, not just the
    /// status: a 404 is exactly `{"error":"no route for <path>"}` and a
    /// 405 exactly `{"allow":[...],"error":"method not allowed"}` in the
    /// canonical envelope — the spellings clients key on.
    #[test]
    fn unrouted_requests_pin_their_error_bytes(
        tail in "[a-z0-9/._-]{0,24}",
        is_get in any::<bool>(),
        body in arb_json(),
    ) {
        use pmware_cloud::router::{resolve, Resolution};
        use pmware_cloud::Method;

        let cloud = CloudInstance::new(CellDatabase::new(), 5);
        let reg = cloud.handle(
            &Request::post_json("/api/v1/registration", json!({"imei": "i", "email": "e"})),
            SimTime::EPOCH,
        );
        let token = reg.json()["token"].as_str().unwrap().to_owned();

        let path = format!("/api/v1/{tail}");
        let method = if is_get { Method::Get } else { Method::Post };
        let request = if is_get {
            Request::get(&path)
        } else {
            Request::post_json(&path, body)
        }
        .with_token(&token);
        let response = cloud.handle(&request, SimTime::EPOCH);
        let wire = String::from_utf8(response.to_bytes().to_vec()).unwrap();

        match resolve(method, &path) {
            Resolution::NotFound => {
                prop_assert_eq!(response.status, 404);
                let expected =
                    format!(r#"{{"body":{{"error":"no route for {path}"}},"status":404}}"#);
                prop_assert_eq!(wire, expected);
            }
            Resolution::MethodNotAllowed { allow } => {
                prop_assert_eq!(response.status, 405);
                let allowed = allow
                    .iter()
                    .map(|m| format!("\"{}\"", m.as_str()))
                    .collect::<Vec<_>>()
                    .join(",");
                let expected = format!(
                    r#"{{"body":{{"allow":[{allowed}],"error":"method not allowed"}},"status":405}}"#
                );
                prop_assert_eq!(wire, expected);
            }
            // The fuzzer occasionally lands on a real route; those are
            // owned by the endpoint tests, not this pin.
            Resolution::Matched { .. } => {}
        }
    }
}
