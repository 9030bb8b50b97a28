//! The liveness probe behind `GET /api/v1/health`.
//!
//! Reaching the handler at all *is* the liveness signal: the route is
//! public (the topology router probes without a token) and the request
//! still takes the full request path, so an injected outage
//! short-circuits to 503 before this handler runs — a dead instance
//! fails its heartbeat exactly the way it fails client traffic. The body
//! additionally carries the instance's load view (queue depth and p99
//! latency from the latency model — both 0 on an instance without one)
//! and the storage engine's resident-store count for capacity
//! monitoring.

use crate::api::{Request, Response};
use crate::payload::Payload;

use super::Ctx;

/// `GET /api/v1/health` — answers `{"p99_us": .., "queue_depth": ..,
/// "resident_users": .., "status": "ok"}`.
pub(crate) fn status(ctx: &Ctx<'_>, _request: &Request) -> Response {
    let (queue_depth, p99_us) = ctx.core.health_stats(ctx.now);
    Response::ok(Payload::Health {
        queue_depth,
        p99_us,
        resident_users: ctx.core.storage.resident_users() as u64,
    })
}
