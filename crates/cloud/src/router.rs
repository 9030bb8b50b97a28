//! The declarative route table — the single source of truth for dispatch.
//!
//! Every endpoint of the cloud instance is one [`Route`] row: method, path
//! shape, auth requirement, admission-control [`RateClass`], the stable
//! metric label, the handler function, and the request and reply body
//! decoders the wire boundary uses. Dispatch, the per-endpoint
//! metric dimension ([`ENDPOINT_LABELS`]), 404-vs-405 semantics, and the
//! admission controller's class lookup are all derived from this one
//! table, so adding an endpoint is a single row — there is no second,
//! hand-maintained match to drift out of sync (the `endpoint_index`
//! hazard of earlier revisions).

use crate::api::{Method, Request, Response};
use crate::auth::UserId;
use crate::handlers::{self, Ctx, Handler};
use crate::payload::{
    self, ArrivalBody, Decoder, DiscoverBody, GeolocateBody, GeolocateSignatureBody, LabelBody,
    NextVisitBody, PlaceOnlyBody, RegistrationBody, RouteQueryBody, SocialQueryBody,
    SyncContactsBody, SyncPlacesBody, SyncProfileBody, SyncRoutesBody,
};

/// Admission-control class of a route: which token bucket a request draws
/// from when the deterministic admission controller is enabled. Classes
/// mirror the cost and urgency of the work behind the endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RateClass {
    /// Registration and token refresh — cheap, availability-critical.
    Auth,
    /// Bulk ingest: offloads and syncs that move client state up.
    Ingest,
    /// Interactive reads: lists, fetches, geolocation.
    Query,
    /// Analytics and prediction queries — the expensive tier.
    Analytics,
}

/// All rate classes, in a stable order (metric label order).
pub const ALL_RATE_CLASSES: [RateClass; 4] = [
    RateClass::Auth,
    RateClass::Ingest,
    RateClass::Query,
    RateClass::Analytics,
];

impl RateClass {
    /// Stable lower-case name, used as the `class` metric label.
    pub fn label(self) -> &'static str {
        match self {
            RateClass::Auth => "auth",
            RateClass::Ingest => "ingest",
            RateClass::Query => "query",
            RateClass::Analytics => "analytics",
        }
    }
}

/// Authentication requirement of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAuth {
    /// No token required (registration only).
    Public,
    /// A valid, unexpired bearer token is required.
    Bearer,
}

/// Path shape of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSpec {
    /// The path must equal this string exactly.
    Exact(&'static str),
    /// The path must start with this prefix; the remainder is a handler
    /// argument (e.g. `/api/v1/profiles/{day}`).
    Prefix(&'static str),
}

impl PathSpec {
    fn matches(self, path: &str) -> bool {
        match self {
            PathSpec::Exact(p) => p == path,
            PathSpec::Prefix(p) => path.starts_with(p),
        }
    }
}

/// One row of the route table.
#[derive(Clone, Copy)]
pub struct Route {
    /// HTTP-style method.
    pub method: Method,
    /// Path shape.
    pub path: PathSpec,
    /// Whether a bearer token is required.
    pub auth: RouteAuth,
    /// Admission-control class.
    pub rate_class: RateClass,
    /// Stable endpoint label (the `endpoint` metric dimension).
    pub label: &'static str,
    /// Handler function (see [`crate::handlers`]).
    pub(crate) handler: Handler,
    /// The wire boundary's request-body and 2xx reply-body decoders (see
    /// [`crate::payload::Payload::from_json`] and
    /// [`crate::payload::Payload::reply_from_json`]).
    pub(crate) decoders: (Decoder, Decoder),
}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Route")
            .field("method", &self.method)
            .field("path", &self.path)
            .field("auth", &self.auth)
            .field("rate_class", &self.rate_class)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Shorthand row constructor, so the table below stays tabular; the last
/// argument pairs the request and 2xx reply decoders.
const fn route(
    method: Method,
    path: PathSpec,
    auth: RouteAuth,
    rate_class: RateClass,
    label: &'static str,
    handler: Handler,
    decoders: (Decoder, Decoder),
) -> Route {
    Route {
        method,
        path,
        auth,
        rate_class,
        label,
        handler,
        decoders,
    }
}

use Method::{Get, Post};
use PathSpec::{Exact, Prefix};
use RateClass::{Analytics, Auth, Ingest, Query};
use RouteAuth::{Bearer, Public};

/// The route table. Ordering is load-bearing twice over: resolution takes
/// the first match (so exact paths shadow the profiles prefix row), and
/// the row index **is** the endpoint's metric-label index — append new
/// rows rather than reordering, or historical metric dumps stop lining
/// up.
pub const ROUTES: [Route; 21] = [
    route(
        Post,
        Exact("/api/v1/registration"),
        Public,
        Auth,
        "register",
        handlers::registration::register,
        (
            payload::decode::<RegistrationBody>,
            payload::reply_registered,
        ),
    ),
    route(
        Post,
        Exact("/api/v1/token/refresh"),
        Bearer,
        Auth,
        "token_refresh",
        handlers::registration::token_refresh,
        (payload::decode_none, payload::reply_token_refreshed),
    ),
    route(
        Post,
        Exact("/api/v1/places/discover"),
        Bearer,
        Ingest,
        "places_discover",
        handlers::places::discover,
        (payload::decode::<DiscoverBody>, payload::reply_discovered),
    ),
    route(
        Post,
        Exact("/api/v1/places/sync"),
        Bearer,
        Ingest,
        "places_sync",
        handlers::places::sync,
        (payload::decode::<SyncPlacesBody>, payload::reply_sync_ack),
    ),
    route(
        Get,
        Exact("/api/v1/places"),
        Bearer,
        Query,
        "places_list",
        handlers::places::list,
        (payload::decode_none, payload::reply_places),
    ),
    route(
        Post,
        Exact("/api/v1/places/label"),
        Bearer,
        Ingest,
        "places_label",
        handlers::places::label,
        (payload::decode::<LabelBody>, payload::reply_labelled),
    ),
    route(
        Post,
        Exact("/api/v1/routes/sync"),
        Bearer,
        Ingest,
        "routes_sync",
        handlers::routes::sync,
        (payload::decode::<SyncRoutesBody>, payload::reply_sync_ack),
    ),
    route(
        Get,
        Exact("/api/v1/routes"),
        Bearer,
        Query,
        "routes_list",
        handlers::routes::list,
        (payload::decode_none, payload::reply_routes),
    ),
    route(
        Post,
        Exact("/api/v1/routes/query"),
        Bearer,
        Query,
        "routes_query",
        handlers::routes::query,
        (payload::decode::<RouteQueryBody>, payload::reply_routes),
    ),
    route(
        Post,
        Exact("/api/v1/profiles/sync"),
        Bearer,
        Ingest,
        "profiles_sync",
        handlers::profiles::sync,
        (
            payload::decode::<SyncProfileBody>,
            payload::reply_profile_synced,
        ),
    ),
    route(
        Get,
        Prefix(handlers::profiles::DAY_PREFIX),
        Bearer,
        Query,
        "profiles_get",
        handlers::profiles::get_day,
        (payload::decode_none, payload::reply_profile_day),
    ),
    route(
        Post,
        Exact("/api/v1/social/sync"),
        Bearer,
        Ingest,
        "social_sync",
        handlers::social::sync,
        (
            payload::decode::<SyncContactsBody>,
            payload::reply_contacts_ack,
        ),
    ),
    route(
        Post,
        Exact("/api/v1/social/query"),
        Bearer,
        Query,
        "social_query",
        handlers::social::query,
        (payload::decode::<SocialQueryBody>, payload::reply_contacts),
    ),
    route(
        Post,
        Exact("/api/v1/misc/geolocate"),
        Bearer,
        Query,
        "geolocate",
        handlers::geolocate::by_cell,
        (payload::decode::<GeolocateBody>, payload::reply_position),
    ),
    route(
        Post,
        Exact("/api/v1/misc/geolocate_signature"),
        Bearer,
        Query,
        "geolocate_signature",
        handlers::geolocate::by_signature,
        (
            payload::decode::<GeolocateSignatureBody>,
            payload::reply_position,
        ),
    ),
    route(
        Post,
        Exact("/api/v1/analytics/arrival"),
        Bearer,
        Analytics,
        "analytics_arrival",
        handlers::analytics::arrival,
        (payload::decode::<ArrivalBody>, payload::reply_arrival_at),
    ),
    route(
        Post,
        Exact("/api/v1/analytics/next_visit"),
        Bearer,
        Analytics,
        "analytics_next_visit",
        handlers::analytics::next_visit,
        (payload::decode::<NextVisitBody>, payload::reply_visit_at),
    ),
    route(
        Post,
        Exact("/api/v1/analytics/frequency"),
        Bearer,
        Analytics,
        "analytics_frequency",
        handlers::analytics::frequency,
        (payload::decode::<PlaceOnlyBody>, payload::reply_frequency),
    ),
    route(
        Post,
        Exact("/api/v1/analytics/activity"),
        Bearer,
        Analytics,
        "analytics_activity",
        handlers::analytics::activity,
        (payload::decode_none, payload::reply_activity),
    ),
    route(
        Post,
        Exact("/api/v1/analytics/next_place"),
        Bearer,
        Analytics,
        "analytics_next_place",
        handlers::analytics::next_place,
        (payload::decode::<PlaceOnlyBody>, payload::reply_predictions),
    ),
    // The federation heartbeat: public so the topology router can probe
    // an instance without holding any user's token, and it takes the
    // full request path so an injected outage answers 503 — which is
    // exactly how a dead instance is detected.
    route(
        Get,
        Exact("/api/v1/health"),
        Public,
        Query,
        "health",
        handlers::health::status,
        (payload::decode_none, payload::reply_health),
    ),
];

/// Number of endpoint metric labels: one per route plus `other` (unrouted
/// paths).
pub const ENDPOINT_COUNT: usize = ROUTES.len() + 1;

/// Index of the `other` label — requests that match no route exactly.
pub const OTHER_ENDPOINT: usize = ROUTES.len();

/// Stable endpoint labels, the `endpoint` metric dimension — **derived**
/// from the route table at compile time (row order), closing the silent
/// drift hazard of the old hand-maintained duplicate match.
pub const ENDPOINT_LABELS: [&str; ENDPOINT_COUNT] = {
    let mut labels = ["other"; ENDPOINT_COUNT];
    let mut i = 0;
    while i < ROUTES.len() {
        labels[i] = ROUTES[i].label;
        i += 1;
    }
    labels
};

/// Outcome of resolving `(method, path)` against the table.
#[derive(Debug, Clone, Copy)]
pub enum Resolution {
    /// A route matched; `index` is its row (= metric label index).
    Matched {
        /// Row index in [`ROUTES`].
        index: usize,
        /// The matched route.
        route: &'static Route,
    },
    /// The path is known but not under this method; `allow` lists the
    /// methods that would match (the 405 `allow` response field).
    MethodNotAllowed {
        /// Methods the path does accept.
        allow: &'static [Method],
    },
    /// No route knows this path.
    NotFound,
}

/// Resolves a request against the route table: first row whose method and
/// path both match wins; a path-only match yields 405 with the allowed
/// methods; otherwise 404.
pub fn resolve(method: Method, path: &str) -> Resolution {
    let mut allow_get = false;
    let mut allow_post = false;
    for (index, route) in ROUTES.iter().enumerate() {
        if !route.path.matches(path) {
            continue;
        }
        if route.method == method {
            return Resolution::Matched { index, route };
        }
        match route.method {
            Method::Get => allow_get = true,
            Method::Post => allow_post = true,
        }
    }
    match (allow_get, allow_post) {
        (false, false) => Resolution::NotFound,
        (true, false) => Resolution::MethodNotAllowed {
            allow: &[Method::Get],
        },
        (false, true) => Resolution::MethodNotAllowed {
            allow: &[Method::Post],
        },
        (true, true) => Resolution::MethodNotAllowed {
            allow: &[Method::Get, Method::Post],
        },
    }
}

impl Resolution {
    /// Metric-label index of the resolved request: the matched route's
    /// row, or [`OTHER_ENDPOINT`] for 404/405 paths (bounded cardinality
    /// by construction; a wrong-method request keeps the historical
    /// `other` label).
    pub fn endpoint(self) -> usize {
        match self {
            Resolution::Matched { index, .. } => index,
            _ => OTHER_ENDPOINT,
        }
    }
}

/// Metric-label index for a request (see [`Resolution::endpoint`]).
pub fn endpoint_index(method: Method, path: &str) -> usize {
    resolve(method, path).endpoint()
}

/// Runs the handler of an already-resolved request. The caller has
/// passed every gate: `user` is the validated caller on a bearer route
/// and `None` on the public ones.
pub(crate) fn dispatch(
    core: &crate::state::CloudCore,
    resolution: Resolution,
    user: Option<UserId>,
    request: &Request,
    now: pmware_world::SimTime,
) -> Response {
    match resolution {
        Resolution::Matched { route, .. } => {
            let ctx = Ctx {
                core,
                user,
                token: request.token.as_deref(),
                now,
            };
            let response = (route.handler)(&ctx, request);
            // Storage-engine WAL hook: successful mutating requests are
            // logged *after* the handler, so a logged record is always a
            // request that actually shaped state. One atomic load while
            // the engine is disabled.
            core.storage.record_success(
                request,
                &response,
                user,
                route.rate_class == RateClass::Ingest,
            );
            response
        }
        Resolution::MethodNotAllowed { allow } => Response::method_not_allowed(allow),
        Resolution::NotFound => Response::not_found(format!("no route for {}", request.path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_derive_from_the_table_in_row_order() {
        // The historical label set, exactly — metric keys must not drift.
        let expected = [
            "register",
            "token_refresh",
            "places_discover",
            "places_sync",
            "places_list",
            "places_label",
            "routes_sync",
            "routes_list",
            "routes_query",
            "profiles_sync",
            "profiles_get",
            "social_sync",
            "social_query",
            "geolocate",
            "geolocate_signature",
            "analytics_arrival",
            "analytics_next_visit",
            "analytics_frequency",
            "analytics_activity",
            "analytics_next_place",
            "health",
            "other",
        ];
        assert_eq!(ENDPOINT_LABELS.as_slice(), expected.as_slice());
        assert_eq!(ENDPOINT_LABELS[OTHER_ENDPOINT], "other");
    }

    #[test]
    fn labels_are_unique() {
        for (i, a) in ENDPOINT_LABELS.iter().enumerate() {
            for b in ENDPOINT_LABELS.iter().skip(i + 1) {
                assert_ne!(a, b, "duplicate endpoint label");
            }
        }
    }

    #[test]
    fn exact_routes_shadow_the_profiles_prefix() {
        // POST /profiles/sync is its own row, not the GET prefix route.
        assert_eq!(endpoint_index(Method::Post, "/api/v1/profiles/sync"), 9);
        assert_eq!(endpoint_index(Method::Get, "/api/v1/profiles/3"), 10);
    }

    #[test]
    fn resolution_distinguishes_404_from_405() {
        assert!(matches!(
            resolve(Method::Get, "/api/v1/nope"),
            Resolution::NotFound
        ));
        match resolve(Method::Get, "/api/v1/places/sync") {
            Resolution::MethodNotAllowed { allow } => assert_eq!(allow, &[Method::Post]),
            other => panic!("expected 405, got {other:?}"),
        }
        match resolve(Method::Post, "/api/v1/places") {
            Resolution::MethodNotAllowed { allow } => assert_eq!(allow, &[Method::Get]),
            other => panic!("expected 405, got {other:?}"),
        }
        // Wrong-method paths keep the bounded `other` metric label.
        assert_eq!(
            endpoint_index(Method::Get, "/api/v1/places/sync"),
            OTHER_ENDPOINT
        );
    }

    #[test]
    fn wrong_method_on_the_profiles_prefix_is_405() {
        // POST /api/v1/profiles/3 hits the prefix row path-wise but only
        // GET is served there.
        match resolve(Method::Post, "/api/v1/profiles/3") {
            Resolution::MethodNotAllowed { allow } => assert_eq!(allow, &[Method::Get]),
            other => panic!("expected 405, got {other:?}"),
        }
    }
}
