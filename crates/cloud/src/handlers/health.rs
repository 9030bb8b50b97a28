//! The liveness probe behind `GET /api/v1/health`.
//!
//! Reaching the handler at all *is* the liveness signal: the route is
//! public (the topology router probes without a token) and the request
//! still takes the full request path, so an injected outage
//! short-circuits to 503 before this handler runs — a dead instance
//! fails its heartbeat exactly the way it fails client traffic. The body
//! is liveness only: the load facts live in the metrics registry
//! (`cloud_request_latency_us` histograms, `cloud_queue_shed_total`,
//! `cloud_store_resident_users`), not in a second view here.

use crate::api::{Request, Response};
use crate::payload::Payload;

use super::Ctx;

/// `GET /api/v1/health` — answers `{"status": "ok"}`.
pub(crate) fn status(_ctx: &Ctx<'_>, _request: &Request) -> Response {
    Response::ok(Payload::Health)
}
