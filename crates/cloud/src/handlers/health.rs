//! The liveness probe behind `GET /api/v1/health`.
//!
//! Reaching the handler at all *is* the liveness signal: the route is
//! public, so a liveness probe needs no user's token, and the request
//! still takes the request path (counted) like client traffic. The body
//! is liveness only: the load facts live in the metrics registry
//! (`cloud_requests_total`, `cloud_store_resident_users`), not in a
//! second view here.

use crate::api::{Request, Response};
use crate::payload::Payload;

use super::Ctx;

/// `GET /api/v1/health` — answers `{"status": "ok"}`.
pub(crate) fn status(_ctx: &Ctx<'_>, _request: &Request) -> Response {
    Response::ok(Payload::Health)
}
