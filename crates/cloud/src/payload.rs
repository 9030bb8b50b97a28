//! Typed payloads: the one form of every body carried by
//! [`Request`](crate::Request) and [`Response`](crate::Response).
//!
//! [`Payload`] has one enum variant per route-table request shape and one
//! per handler reply shape, so a request moves as typed Rust values from
//! the client through the transport and the handlers to the durable WAL
//! (which frames typed bodies in binary), with **zero serde work**, and
//! every consumer matches exactly one representation.
//!
//! JSON is a rendering only: [`Payload::to_json`] spells a body for
//! exports, goldens, error text and [`Payload`]'s wire equality, producing
//! the exact `Value` the historical `json!` spellings produced (object
//! keys are `BTreeMap`-sorted, so build order is irrelevant). Nothing
//! parses JSON back into a payload. The plain reply shapes are listed
//! once, in the `wire_spelling!` table, which generates their spelling.

use std::collections::BTreeMap;

use pmware_algorithms::route::CanonicalRoute;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId};
use pmware_world::{CellGlobalId, GsmObservation, SimTime};
use serde::Serialize;
use serde_json::Value;

use crate::api::Method;
use crate::auth::UserId;
use crate::profile::{ContactEntry, MobilityProfile};
use crate::wire::ObservationBatch;

/// `POST /api/v1/registration` body.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct DiscoverBody {
    /// Plain observation array (legacy and low-volume clients).
    pub observations: Vec<GsmObservation>,
    /// Delta-compressed, dictionary-coded alternative to `observations`
    /// (the batched offload protocol). When present it wins — both here
    /// and in the JSON spelling, where a batched body never spells the
    /// plain array.
    pub batch: Option<ObservationBatch>,
    /// Stream offset of the first observation in the client's full GSM
    /// log. When present the endpoint is idempotent: already-absorbed
    /// prefixes are skipped. Absent for legacy (unsequenced) clients.
    pub start: Option<u64>,
}

/// `POST /api/v1/places/sync` body.
#[derive(Debug, Clone)]
pub struct SyncPlacesBody {
    /// Full replacement place list.
    pub places: Vec<DiscoveredPlace>,
    /// Monotonic client sync sequence; a stale full replacement
    /// (reordered behind a newer one) is ignored.
    pub seq: Option<u64>,
}

/// `POST /api/v1/places/label` body.
#[derive(Debug, Clone)]
pub struct LabelBody {
    /// The place to label.
    pub place: DiscoveredPlaceId,
    /// The user's label.
    pub label: String,
}

/// `POST /api/v1/routes/sync` body.
#[derive(Debug, Clone)]
pub struct SyncRoutesBody {
    /// Full replacement canonical route list.
    pub routes: Vec<CanonicalRoute>,
    /// Monotonic client sync sequence (stale full replacements are
    /// ignored, mirroring the places sync).
    pub seq: Option<u64>,
}

/// `POST /api/v1/routes/query` body.
#[derive(Debug, Clone)]
pub struct RouteQueryBody {
    /// Origin place.
    pub from: DiscoveredPlaceId,
    /// Destination place.
    pub to: DiscoveredPlaceId,
}

/// `POST /api/v1/profiles/sync` body.
#[derive(Debug, Clone)]
pub struct SyncProfileBody {
    /// The day profile to upsert.
    pub profile: MobilityProfile,
    /// Monotonic client sync sequence; an older version of the same day
    /// arriving late (reorder) or twice (duplicate) is ignored.
    pub seq: Option<u64>,
}

/// `POST /api/v1/social/sync` body.
#[derive(Debug, Clone)]
pub struct SyncContactsBody {
    /// Encounter entries to append.
    pub contacts: Vec<ContactEntry>,
    /// Stream offset of `contacts[0]` in the client's encounter stream.
    /// When present the endpoint deduplicates re-sent prefixes and the
    /// response carries `acked_upto` so the client can drain its buffer.
    pub first_seq: Option<u64>,
}

/// `POST /api/v1/social/query` body.
#[derive(Debug, Clone)]
pub struct SocialQueryBody {
    /// Restrict to encounters at this place; `None` returns everything.
    /// The key is always spelled on the wire (`"place": null`), matching
    /// the historical senders.
    pub place: Option<DiscoveredPlaceId>,
}

/// `POST /api/v1/misc/geolocate` body.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct GeolocateSignatureBody {
    /// The place signature's cell set.
    pub cells: Vec<CellGlobalId>,
}

/// `POST /api/v1/analytics/arrival` body.
#[derive(Debug, Clone)]
pub struct ArrivalBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Hour window `(from, to)`; defaults to the whole day.
    pub window: Option<(u64, u64)>,
}

/// `POST /api/v1/analytics/next_visit` body.
#[derive(Debug, Clone)]
pub struct NextVisitBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Predictions are strictly after this instant.
    pub now: SimTime,
}

/// Body of the analytics queries that take only a place
/// (`frequency`, `next_place`).
#[derive(Debug, Clone)]
pub struct PlaceOnlyBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
}

/// A typed request or response body.
///
/// One variant per route-table request shape, one per handler response
/// shape, plus the infrastructure variants ([`Payload::Empty`],
/// [`Payload::Error`], [`Payload::MethodNotAllowed`]). See the module
/// docs for how every variant spells itself as JSON.
#[derive(Debug, Clone)]
pub enum Payload {
    // ---- infrastructure --------------------------------------------------
    /// No body (`null` on the wire): GET requests, the token refresh.
    Empty,
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

/// The one list of wire spellings, generating [`Payload::to_json`]:
/// hand-written arms for the infrastructure bodies, the health reply's
/// constant key and the discover body's either-or; one line per request
/// body type, which also generates its [`RequestBody`] impl (the keys in
/// braces spell it, those after `;` are omitted when `None`); and one line
/// per plain reply shape, each field spelled under its own name.
macro_rules! wire_spelling {
    (
        hand_written { $($arms:tt)* }
        requests {
            $($body:ident => $request:ident $({ $($key:ident),* $(; $($opt:ident),+)? })?,)*
        }
        plain_replies { $($reply:ident { $($field:ident),+ },)* }
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
    };
}

wire_spelling! {
    hand_written {
        Payload::Empty => Value::Null,
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
        Registered { expires_at, token, user },
        TokenRefreshed { expires_at, token },
        Discovered { absorbed_upto, places },
        Places { places },
        SyncAck { stale, stored },
        Labelled { labelled },
        Routes { routes },
        ProfileSynced { stale, synced_day },
        ProfileDay { profile },
        ContactsAck { acked_upto, stored },
        Contacts { contacts },
        Position { latitude, longitude },
        ArrivalAt { second_of_day },
        VisitAt { time },
        Frequency { visit_count, visits_per_week },
        Activity { mean_daily_moving_minutes },
        Predictions { predictions },
    }
}

impl Payload {
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
pub(crate) trait RequestBody: Into<Payload> {
    /// Borrows the body when the payload carries this type.
    fn from_payload(payload: &Payload) -> Option<&Self>;
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
        assert_eq!(Payload::Health.to_json(), json!({ "status": "ok" }));
    }
}
