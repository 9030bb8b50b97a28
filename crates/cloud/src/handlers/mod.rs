//! Endpoint handlers: one small function per route, over a typed [`Ctx`].
//!
//! Each submodule owns one endpoint family of §2.3.3 (plus the analytics
//! queries of §2.3.2). Handlers contain *only* endpoint logic — auth and
//! accounting both happened in
//! `CloudInstance::handle` before dispatch — and are wired to paths
//! exclusively through the route table in [`crate::router`].

pub(crate) mod analytics;
pub(crate) mod geolocate;
pub(crate) mod health;
pub(crate) mod places;
pub(crate) mod profiles;
pub(crate) mod registration;
pub(crate) mod routes;
pub(crate) mod social;

use pmware_world::SimTime;

use crate::api::{Request, Response};
use crate::auth::UserId;
use crate::payload::{Payload, RequestBody};
use crate::state::CloudCore;
use crate::storage::StoreGuard;

/// Everything a handler may touch: the shared core, the validated caller
/// (absent only on public routes), the raw bearer token (the refresh
/// endpoint rotates it), and the simulated instant.
pub(crate) struct Ctx<'a> {
    pub(crate) core: &'a CloudCore,
    pub(crate) user: Option<UserId>,
    pub(crate) token: Option<&'a str>,
    pub(crate) now: SimTime,
}

impl Ctx<'_> {
    /// The validated caller. Only callable from handlers behind
    /// `RouteAuth::Bearer` — the dispatcher guarantees the field is set.
    pub(crate) fn user(&self) -> UserId {
        self.user.expect("bearer route always has a validated user")
    }

    /// The caller's per-user store (created — or hydrated from its parked
    /// snapshot — on first touch). The guard pins the store against
    /// eviction for as long as the handler holds it.
    pub(crate) fn store(&self) -> StoreGuard {
        self.core.store_at(self.user(), self.now)
    }
}

/// A route handler: pure function from context + request to response.
pub(crate) type Handler = fn(&Ctx<'_>, &Request) -> Response;

/// Hands `f` the request body as a `&B`, lent straight out of the
/// [`crate::Payload`] — no serde, no clone. A body that did not decode for
/// its route at the wire boundary is answered `400 invalid body: …` with
/// the decode error; an in-process body of another shape names the type
/// it should have been.
pub(crate) fn with_body<B: RequestBody>(
    request: &Request,
    f: impl FnOnce(&B) -> Response,
) -> Response {
    let Some(body) = B::from_payload(&request.body) else {
        return Response::bad_request(match &request.body {
            Payload::Invalid { error, .. } => format!("invalid body: {error}"),
            _ => format!("invalid body: expected {}", std::any::type_name::<B>()),
        });
    };
    f(body)
}
