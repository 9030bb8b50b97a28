//! Typed wire payloads: the one in-memory form of every body carried by
//! [`Request`](crate::Request) and [`Response`](crate::Response).
//!
//! [`Payload`] has one enum variant per route-table request shape and one
//! per handler reply shape, so the in-process path moves typed Rust
//! values end to end with **zero serde work**, and every consumer matches
//! exactly one representation.
//!
//! JSON exists only at the wire boundary (`FaultyCloud`, exports and
//! goldens; the durable WAL frames typed bodies in binary), and it
//! becomes a `Payload` in one place per direction, decoded **once, by
//! route**:
//!
//! * **requests** — [`Payload::from_json`] resolves `(method, path)`
//!   against the route table and decodes the body as that route's request
//!   type (extra keys are ignored, `null` reads as `None`; a route without
//!   a request body reads any body as [`Payload::Empty`]);
//! * **replies** — [`Payload::reply_from_json`] decodes a 2xx body as the
//!   route's reply shape, and any other body as
//!   [`Payload::MethodNotAllowed`] (405) or [`Payload::Error`].
//!
//! Both decodes are total: a body that does not decode for its route
//! becomes [`Payload::Invalid`], which keeps the JSON it arrived as (so
//! [`Payload::to_json`] spells it back unchanged) and the decode error
//! (which a handler answers as `400 invalid body: …`).
//!
//! [`Payload::to_json`] produces the exact `Value` the historical `json!`
//! spellings produced (object keys are `BTreeMap`-sorted, so build order is
//! irrelevant), which keeps wire bytes and golden exports unchanged. The
//! plain reply shapes are listed once, in the `wire_spelling!` table,
//! which generates both their encoding and their decoders.

use std::collections::BTreeMap;

use pmware_algorithms::route::CanonicalRoute;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId};
use pmware_world::{CellGlobalId, GsmObservation, SimTime};
use serde::de::DeserializeOwned;
use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;

use crate::api::Method;
use crate::auth::UserId;
use crate::profile::{ContactEntry, MobilityProfile};
use crate::router::{resolve, Resolution};
use crate::wire::ObservationBatch;

/// `POST /api/v1/registration` body.
#[derive(Debug, Clone, Deserialize)]
pub struct RegistrationBody {
    /// Device IMEI (identity key, with `email`).
    pub imei: String,
    /// Account email (identity key, with `imei`).
    pub email: String,
}

/// Path of the registration route, which crash recovery replays each
/// logged registration on.
pub(crate) const REGISTRATION_PATH: &str = "/api/v1/registration";

/// `POST /api/v1/places/discover` body.
#[derive(Debug, Clone, Deserialize)]
pub struct DiscoverBody {
    /// Plain observation array (legacy and low-volume clients).
    #[serde(default)]
    pub observations: Vec<GsmObservation>,
    /// Delta-compressed, dictionary-coded alternative to `observations`
    /// (the batched offload protocol). When present it wins — both here
    /// and on the wire, where a batched body never spells the plain
    /// array.
    #[serde(default)]
    pub batch: Option<ObservationBatch>,
    /// Stream offset of the first observation in the client's full GSM
    /// log. When present the endpoint is idempotent: already-absorbed
    /// prefixes are skipped. Absent for legacy (unsequenced) clients.
    #[serde(default)]
    pub start: Option<u64>,
}

/// `POST /api/v1/places/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncPlacesBody {
    /// Full replacement place list.
    pub places: Vec<DiscoveredPlace>,
    /// Monotonic client sync sequence; a stale full replacement
    /// (reordered behind a newer one) is ignored.
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/places/label` body.
#[derive(Debug, Clone, Deserialize)]
pub struct LabelBody {
    /// The place to label.
    pub place: DiscoveredPlaceId,
    /// The user's label.
    pub label: String,
}

/// `POST /api/v1/routes/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncRoutesBody {
    /// Full replacement canonical route list.
    pub routes: Vec<CanonicalRoute>,
    /// Monotonic client sync sequence (stale full replacements are
    /// ignored, mirroring the places sync).
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/routes/query` body.
#[derive(Debug, Clone, Deserialize)]
pub struct RouteQueryBody {
    /// Origin place.
    pub from: DiscoveredPlaceId,
    /// Destination place.
    pub to: DiscoveredPlaceId,
}

/// `POST /api/v1/profiles/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncProfileBody {
    /// The day profile to upsert.
    pub profile: MobilityProfile,
    /// Monotonic client sync sequence; an older version of the same day
    /// arriving late (reorder) or twice (duplicate) is ignored.
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/social/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncContactsBody {
    /// Encounter entries to append.
    pub contacts: Vec<ContactEntry>,
    /// Stream offset of `contacts[0]` in the client's encounter stream.
    /// When present the endpoint deduplicates re-sent prefixes and the
    /// response carries `acked_upto` so the client can drain its buffer.
    #[serde(default)]
    pub first_seq: Option<u64>,
}

/// `POST /api/v1/social/query` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SocialQueryBody {
    /// Restrict to encounters at this place; `None` returns everything.
    /// The key is always spelled on the wire (`"place": null`), matching
    /// the historical senders.
    pub place: Option<DiscoveredPlaceId>,
}

/// `POST /api/v1/misc/geolocate` body.
#[derive(Debug, Clone, Deserialize)]
pub struct GeolocateBody {
    /// Mobile country code.
    pub mcc: u16,
    /// Mobile network code.
    pub mnc: u16,
    /// Location area code.
    pub lac: u16,
    /// Cell id.
    pub cid: u32,
}

/// `POST /api/v1/misc/geolocate_signature` body.
#[derive(Debug, Clone, Deserialize)]
pub struct GeolocateSignatureBody {
    /// The place signature's cell set.
    pub cells: Vec<CellGlobalId>,
}

/// `POST /api/v1/analytics/arrival` body.
#[derive(Debug, Clone, Deserialize)]
pub struct ArrivalBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Hour window `(from, to)`; defaults to the whole day.
    pub window: Option<(u64, u64)>,
}

/// `POST /api/v1/analytics/next_visit` body.
#[derive(Debug, Clone, Deserialize)]
pub struct NextVisitBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Predictions are strictly after this instant.
    pub now: SimTime,
}

/// Body of the analytics queries that take only a place
/// (`frequency`, `next_place`).
#[derive(Debug, Clone, Deserialize)]
pub struct PlaceOnlyBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
}

/// A typed request or response body.
///
/// One variant per route-table request shape, one per handler response
/// shape, plus the infrastructure variants ([`Payload::Empty`],
/// [`Payload::Invalid`], [`Payload::Error`], [`Payload::MethodNotAllowed`]).
/// See the module docs for how JSON becomes a
/// payload and how every variant spells itself back.
#[derive(Debug, Clone)]
pub enum Payload {
    // ---- infrastructure --------------------------------------------------
    /// No body (`null` on the wire): GET requests, the token refresh.
    Empty,
    /// A wire body that does not decode for its route. Handlers answer it
    /// `400 invalid body: {error}`; [`Payload::to_json`] spells `body`
    /// back unchanged.
    Invalid {
        /// The JSON the body arrived as.
        body: Value,
        /// Why it does not decode for its route.
        error: String,
    },
    /// An error body: `{"error": message}`.
    Error {
        /// Human-readable error message.
        message: String,
    },
    /// The 405 body: `{"allow": [...], "error": "method not allowed"}`.
    MethodNotAllowed {
        /// Methods the path does accept (the HTTP `Allow` header,
        /// carried in the body here).
        allow: Vec<Method>,
    },

    // ---- request bodies (one per POST route) -----------------------------
    /// `POST /api/v1/registration`.
    Register(RegistrationBody),
    /// `POST /api/v1/places/discover`.
    Discover(DiscoverBody),
    /// `POST /api/v1/places/sync`.
    SyncPlaces(SyncPlacesBody),
    /// `POST /api/v1/places/label`.
    LabelPlace(LabelBody),
    /// `POST /api/v1/routes/sync`.
    SyncRoutes(SyncRoutesBody),
    /// `POST /api/v1/routes/query`.
    RouteQuery(RouteQueryBody),
    /// `POST /api/v1/profiles/sync`.
    SyncProfile(SyncProfileBody),
    /// `POST /api/v1/social/sync`.
    SyncContacts(SyncContactsBody),
    /// `POST /api/v1/social/query`.
    SocialQuery(SocialQueryBody),
    /// `POST /api/v1/misc/geolocate`.
    Geolocate(GeolocateBody),
    /// `POST /api/v1/misc/geolocate_signature`.
    GeolocateSignature(GeolocateSignatureBody),
    /// `POST /api/v1/analytics/arrival`.
    Arrival(ArrivalBody),
    /// `POST /api/v1/analytics/next_visit`.
    NextVisit(NextVisitBody),
    /// `POST /api/v1/analytics/{frequency,next_place}`.
    PlaceOnly(PlaceOnlyBody),

    // ---- response bodies (one per handler success shape) -----------------
    /// Registration reply.
    Registered {
        /// The registered (or re-registered) user.
        user: UserId,
        /// Fresh bearer token.
        token: String,
        /// Token expiry instant.
        expires_at: SimTime,
    },
    /// Token refresh reply.
    TokenRefreshed {
        /// Rotated bearer token.
        token: String,
        /// New expiry instant.
        expires_at: SimTime,
    },
    /// Discover-offload reply.
    Discovered {
        /// The caller's places after absorbing the offload.
        places: Vec<DiscoveredPlace>,
        /// Server-side observation-stream watermark.
        absorbed_upto: u64,
    },
    /// Place-list reply.
    Places {
        /// The caller's stored places.
        places: Vec<DiscoveredPlace>,
    },
    /// Sync acknowledgement (places and routes).
    SyncAck {
        /// Entries stored after the sync.
        stored: usize,
        /// Whether the delivery was stale (duplicate/reordered) and
        /// therefore not applied.
        stale: bool,
    },
    /// Label reply.
    Labelled {
        /// The place that was labelled.
        labelled: DiscoveredPlaceId,
    },
    /// Route-list / route-query reply.
    Routes {
        /// Canonical routes.
        routes: Vec<CanonicalRoute>,
    },
    /// Profile-sync acknowledgement.
    ProfileSynced {
        /// The day that was upserted.
        synced_day: u64,
        /// Whether the delivery was stale and therefore not applied.
        stale: bool,
    },
    /// By-day profile fetch reply.
    ProfileDay {
        /// The stored profile.
        profile: MobilityProfile,
    },
    /// Contacts-sync acknowledgement.
    ContactsAck {
        /// Encounters stored after the sync.
        stored: usize,
        /// Acknowledged encounter-stream watermark.
        acked_upto: u64,
    },
    /// Social-query reply.
    Contacts {
        /// Matching encounters.
        contacts: Vec<ContactEntry>,
    },
    /// Geolocation reply.
    Position {
        /// Latitude in degrees.
        latitude: f64,
        /// Longitude in degrees.
        longitude: f64,
    },
    /// Arrival-analytics reply.
    ArrivalAt {
        /// Typical arrival second-of-day.
        second_of_day: u64,
    },
    /// Next-visit prediction reply.
    VisitAt {
        /// Predicted visit instant.
        time: SimTime,
    },
    /// Frequency-analytics reply.
    Frequency {
        /// Mean visits per week.
        visits_per_week: f64,
        /// Total visit count.
        visit_count: usize,
    },
    /// Activity-analytics reply.
    Activity {
        /// Mean daily minutes in motion.
        mean_daily_moving_minutes: f64,
    },
    /// Next-place prediction reply.
    Predictions {
        /// `(place, probability)` pairs, most likely first.
        predictions: Vec<(DiscoveredPlaceId, f64)>,
    },
    /// Health-probe reply (`GET /api/v1/health`): liveness only,
    /// `{"status": "ok"}`.
    Health,
}

/// Sorted-key JSON object builder (the `json!` spelling, minus the
/// macro): `BTreeMap` keeps keys sorted, so insertion order is free.
struct Obj(BTreeMap<String, Value>);

impl Obj {
    fn new() -> Obj {
        Obj(BTreeMap::new())
    }

    fn put(mut self, key: &str, value: &impl Serialize) -> Obj {
        self.0.insert(key.to_owned(), value.to_json_value());
        self
    }

    /// Inserts only when `Some` — the historical spelling omits optional
    /// idempotency keys rather than writing `null`.
    fn put_opt(mut self, key: &str, value: &Option<impl Serialize>) -> Obj {
        if let Some(value) = value {
            self.0.insert(key.to_owned(), value.to_json_value());
        }
        self
    }

    fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Reads field `name` of a `ty` object (absent reads as `null`, so
/// `Option` fields may be omitted), inferring its type from the value it
/// fills.
pub(crate) fn field<T: DeserializeOwned>(
    object: &Value,
    ty: &str,
    name: &str,
) -> Result<T, DeError> {
    if !object.is_object() {
        return Err(DeError::custom(format!(
            "expected an object for `{ty}`, got {object}"
        )));
    }
    T::from_json_value(object.get(name).unwrap_or(&Value::Null))
        .map_err(|e| e.context_field(ty, name))
}

/// The one list of wire spellings, generating [`Payload::to_json`]:
/// hand-written arms for the infrastructure bodies, the health reply's
/// constant key and the discover body's either-or; one line per request
/// body type, which also generates its [`RequestBody`] impl (the keys in
/// braces spell it, those after `;` are omitted when `None`); and one line
/// per plain reply shape — each field spelled under its own name — which
/// also generates that reply's decoder, the function the route table
/// names.
macro_rules! wire_spelling {
    (
        hand_written { $($arms:tt)* }
        requests {
            $($body:ident => $request:ident $({ $($key:ident),* $(; $($opt:ident),+)? })?,)*
        }
        plain_replies { $($decoder:ident => $reply:ident { $($field:ident),+ },)* }
    ) => {
        impl Payload {
            /// Renders the payload to its JSON wire spelling — identical
            /// to the `json!` trees the pre-typed code built (see module
            /// docs).
            pub fn to_json(&self) -> Value {
                match self {
                    $($arms)*
                    $($(Payload::$request(b) => Obj::new()
                        $(.put(stringify!($key), &b.$key))*
                        $($(.put_opt(stringify!($opt), &b.$opt))+)?
                        .build(),)?)*
                    $(Payload::$reply { $($field),+ } => Obj::new()
                        $(.put(stringify!($field), $field))+
                        .build(),)*
                }
            }
        }

        $(
            impl From<$body> for Payload {
                fn from(body: $body) -> Payload {
                    Payload::$request(body)
                }
            }

            impl RequestBody for $body {
                fn from_payload(payload: &Payload) -> Option<&$body> {
                    match payload {
                        Payload::$request(body) => Some(body),
                        _ => None,
                    }
                }
            }
        )*

        $(
            #[doc = concat!("Decodes a `", stringify!($reply), "` reply.")]
            pub(crate) fn $decoder(body: &Value) -> Result<Payload, DeError> {
                Ok(Payload::$reply { $($field: field(body, "reply", stringify!($field))?),+ })
            }
        )*
    };
}

wire_spelling! {
    hand_written {
        Payload::Empty => Value::Null,
        Payload::Invalid { body, .. } => body.clone(),
        Payload::Error { message } => Obj::new().put("error", message).build(),
        Payload::MethodNotAllowed { allow } => Obj::new()
            .put("allow", &allow.iter().map(|m| m.as_str()).collect::<Vec<_>>())
            .put("error", &"method not allowed")
            .build(),
        Payload::Health => Obj::new().put("status", &"ok").build(),
        Payload::Discover(b) => {
            // A batched offload never also spells the plain array —
            // the batch is the observation sequence.
            let obj = match &b.batch {
                Some(batch) => Obj::new().put("batch", batch),
                None => Obj::new().put("observations", &b.observations),
            };
            obj.put_opt("start", &b.start).build()
        }
    }
    requests {
        RegistrationBody => Register { email, imei },
        DiscoverBody => Discover,
        SyncPlacesBody => SyncPlaces { places; seq },
        LabelBody => LabelPlace { label, place },
        SyncRoutesBody => SyncRoutes { routes; seq },
        RouteQueryBody => RouteQuery { from, to },
        SyncProfileBody => SyncProfile { profile; seq },
        SyncContactsBody => SyncContacts { contacts; first_seq },
        SocialQueryBody => SocialQuery { place },
        GeolocateBody => Geolocate { cid, lac, mcc, mnc },
        GeolocateSignatureBody => GeolocateSignature { cells },
        ArrivalBody => Arrival { place; window },
        NextVisitBody => NextVisit { now, place },
        PlaceOnlyBody => PlaceOnly { place },
    }
    plain_replies {
        reply_registered => Registered { expires_at, token, user },
        reply_token_refreshed => TokenRefreshed { expires_at, token },
        reply_discovered => Discovered { absorbed_upto, places },
        reply_places => Places { places },
        reply_sync_ack => SyncAck { stale, stored },
        reply_labelled => Labelled { labelled },
        reply_routes => Routes { routes },
        reply_profile_synced => ProfileSynced { stale, synced_day },
        reply_profile_day => ProfileDay { profile },
        reply_contacts_ack => ContactsAck { acked_upto, stored },
        reply_contacts => Contacts { contacts },
        reply_position => Position { latitude, longitude },
        reply_arrival_at => ArrivalAt { second_of_day },
        reply_visit_at => VisitAt { time },
        reply_frequency => Frequency { visit_count, visits_per_week },
        reply_activity => Activity { mean_daily_moving_minutes },
        reply_predictions => Predictions { predictions },
    }
}

/// Decodes a health-probe reply (its constant `"status": "ok"` key is
/// not a field).
pub(crate) fn reply_health(_body: &Value) -> Result<Payload, DeError> {
    Ok(Payload::Health)
}

/// Decodes the 405 body (`allow` carries upper-case method names).
fn reply_method_not_allowed(body: &Value) -> Result<Payload, DeError> {
    let allow = field::<Vec<String>>(body, "reply", "allow")?
        .iter()
        .map(|name| match name.as_str() {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            other => Err(DeError::custom(format!("unknown method {other:?}"))),
        })
        .collect::<Result<_, _>>()?;
    Ok(Payload::MethodNotAllowed { allow })
}

impl Payload {
    /// Decodes a request body arriving at the wire boundary as the
    /// request type of the route `(method, path)` resolves to. Total: a
    /// body that does not decode for its route, or arrives on no route at
    /// all, becomes [`Payload::Invalid`].
    pub fn from_json(method: Method, path: &str, body: &Value) -> Payload {
        let decoded = match decoders(method, path) {
            Some((decode, _)) => decode(body),
            None if body.is_null() => Ok(Payload::Empty),
            None => Err(DeError::custom(format!("no route for {path}"))),
        };
        Payload::or_invalid(decoded, body)
    }

    /// Decodes the body of a `status` reply to a request for `(method,
    /// path)`: a 2xx body as the route's reply shape, a 405 as
    /// [`Payload::MethodNotAllowed`], anything else as [`Payload::Error`].
    /// Total, like [`Payload::from_json`].
    pub fn reply_from_json(method: Method, path: &str, status: u16, body: &Value) -> Payload {
        let decoded = match (status, decoders(method, path)) {
            (405, _) => reply_method_not_allowed(body),
            (200..=299, Some((_, reply))) => reply(body),
            (200..=299, None) => Err(DeError::custom(format!("no route for {path}"))),
            _ => field(body, "reply", "error").map(|message| Payload::Error { message }),
        };
        Payload::or_invalid(decoded, body)
    }

    fn or_invalid(decoded: Result<Payload, DeError>, body: &Value) -> Payload {
        decoded.unwrap_or_else(|error| Payload::Invalid {
            body: body.clone(),
            error: error.to_string(),
        })
    }

    /// The error message of an error-shaped body, if any.
    pub fn error_message(&self) -> Option<&str> {
        match self {
            Payload::Error { message } => Some(message),
            Payload::MethodNotAllowed { .. } => Some("method not allowed"),
            _ => None,
        }
    }
}

/// Payload equality is **wire equality**: two payloads are equal when
/// they serialize to the same bytes. Object keys are sorted, so the
/// comparison is canonical.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::Empty, Payload::Empty) => true,
            (a, b) => a.to_json() == b.to_json(),
        }
    }
}

/// A typed request body, borrowable from the payload the router hands a
/// handler.
pub(crate) trait RequestBody: DeserializeOwned + Into<Payload> {
    /// Borrows the body when the payload carries this type.
    fn from_payload(payload: &Payload) -> Option<&Self>;
}

/// A body decoder: a route's request decoder, or its 2xx reply decoder
/// (one of the `reply_*` functions). Stored in the route table so the
/// wire boundary decodes by route.
pub(crate) type Decoder = fn(&Value) -> Result<Payload, DeError>;

/// The request and 2xx reply decoders of the route `(method, path)`
/// resolves to.
fn decoders(method: Method, path: &str) -> Option<(Decoder, Decoder)> {
    match resolve(method, path) {
        Resolution::Matched { route, .. } => Some(route.decoders),
        _ => None,
    }
}

/// Decodes `value` as `B`, the route's request body.
pub(crate) fn decode<B: RequestBody>(value: &Value) -> Result<Payload, DeError> {
    B::from_json_value(value).map(Into::into)
}

/// Decoder for routes without a request body (GETs, the token refresh,
/// the activity query): any body reads as [`Payload::Empty`], just as a
/// typed body ignores keys it does not name.
pub(crate) fn decode_none(_value: &Value) -> Result<Payload, DeError> {
    Ok(Payload::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn option_keys_are_omitted_not_null() {
        let with = Payload::SyncPlaces(SyncPlacesBody {
            places: vec![],
            seq: Some(7),
        });
        assert_eq!(with.to_json(), json!({ "places": [], "seq": 7 }));
        let without = Payload::SyncPlaces(SyncPlacesBody {
            places: vec![],
            seq: None,
        });
        assert_eq!(without.to_json(), json!({ "places": [] }));
    }

    #[test]
    fn social_query_place_key_is_always_present() {
        let none = Payload::SocialQuery(SocialQueryBody { place: None });
        assert_eq!(none.to_json(), json!({ "place": null }));
    }

    #[test]
    fn from_json_decodes_by_route_ignoring_extra_keys() {
        let body = json!({ "places": [], "seq": 3, "junk": true });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        assert!(
            matches!(&payload, Payload::SyncPlaces(b) if b.seq == Some(3)),
            "{payload:?}"
        );
        assert_eq!(payload.to_json(), json!({ "places": [], "seq": 3 }));
        // `null` reads as `None`, which the spelling omits.
        let body = json!({ "places": [], "seq": null });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        assert_eq!(payload.to_json(), json!({ "places": [] }));
        // The liveness probe's reply, too, decodes by its route.
        let health = json!({ "status": "ok" });
        assert_eq!(Payload::Health.to_json(), health);
        let reply = Payload::reply_from_json(Method::Get, "/api/v1/health", 200, &health);
        assert!(matches!(reply, Payload::Health), "{reply:?}");
    }

    #[test]
    fn undecodable_bodies_are_invalid_and_spell_back() {
        let body = json!({ "wrong": true });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        match &payload {
            Payload::Invalid { error, .. } => assert!(error.contains("places"), "{error}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(payload.to_json(), body);
        let payload = Payload::from_json(Method::Post, "/api/v1/nope", &body);
        assert!(matches!(payload, Payload::Invalid { .. }), "{payload:?}");
        // A route without a request body ignores whatever it is sent.
        let payload = Payload::from_json(Method::Post, "/api/v1/analytics/activity", &body);
        assert!(matches!(payload, Payload::Empty), "{payload:?}");
        // A reply decodes by its request's route: a sync ack is no
        // registration reply.
        let ack = json!({ "stale": false, "stored": 3 });
        let reply = Payload::reply_from_json(Method::Post, REGISTRATION_PATH, 200, &ack);
        assert!(matches!(reply, Payload::Invalid { .. }), "{reply:?}");
        assert_eq!(reply.to_json(), ack);
    }

    #[test]
    fn error_shapes_match_the_historical_spelling() {
        let e = Payload::Error {
            message: "token expired".to_owned(),
        };
        assert_eq!(e.to_json(), json!({ "error": "token expired" }));
        assert_eq!(e.error_message(), Some("token expired"));

        let m = Payload::MethodNotAllowed {
            allow: vec![Method::Get, Method::Post],
        };
        assert_eq!(
            m.to_json(),
            json!({ "error": "method not allowed", "allow": ["GET", "POST"] })
        );
    }
}
