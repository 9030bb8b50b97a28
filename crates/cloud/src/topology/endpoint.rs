//! The per-client federated transport.
//!
//! A [`FederatedEndpoint`] is what a federated deployment hands each
//! client instead of a bare instance handle. It performs exactly one
//! control-plane exchange — the topology handshake, triggered by the
//! client's own registration request — caches the assigned instance's
//! endpoint, and from then on forwards every request *directly*: the
//! router never sees steady-state traffic.
//!
//! Two response statuses re-open the control plane, both of which only
//! occur around a failover or drain: 421 ([`STATUS_MISDIRECTED`], the
//! relocation gate's "your state moved") and 503 (the instance died).
//! The endpoint re-handshakes once and, if the assignment actually
//! changed, re-sends the request to the new instance — invisible to the
//! client's retry loop in the common case. The chaos fault statuses (599,
//! 502) are deliberately *not* in that set: injected faults must keep
//! flowing to the client's own retry loop, and must not inflate the
//! pinned control-request count.
//!
//! On the way back, successful responses are observed: registration and
//! token-refresh replies keep the router's session records current (the
//! raw material for migration-time session adoption), and successful
//! mutating requests are appended to the user's migration WAL.

use parking_lot::Mutex;
use pmware_obs::FieldValue;
use pmware_world::SimTime;

use crate::api::{Request, Response, SpanCtx};
use crate::auth::DeviceIdentity;
use crate::payload::{
    HandshakeBody, Payload, RegistrationBody, RequestBody, REGISTRATION_PATH,
    TOPOLOGY_HANDSHAKE_PATH,
};
use crate::transport::{CloudEndpoint, CloudTransport, STATUS_MISDIRECTED};

use super::{InstanceId, TopologyRouter};

#[derive(Debug, Default)]
struct ClientSlot {
    identity: Option<DeviceIdentity>,
    target: Option<(InstanceId, CloudEndpoint)>,
}

/// Client-side federation seam: one per client, created by
/// [`TopologyRouter::endpoint`]. Implements [`CloudTransport`], so it
/// slots into a [`CloudEndpoint`] exactly like a bare instance or a
/// chaos decorator would.
#[derive(Debug)]
pub struct FederatedEndpoint {
    router: TopologyRouter,
    slot: Mutex<ClientSlot>,
}

impl FederatedEndpoint {
    pub(super) fn new(router: TopologyRouter) -> FederatedEndpoint {
        FederatedEndpoint {
            router,
            slot: Mutex::new(ClientSlot::default()),
        }
    }

    /// One control-plane round trip: handshake as `identity`, resolve the
    /// assigned instance's client endpoint. When the triggering request
    /// carries a span context and the router has a span sink bound, the
    /// exchange is recorded as a child span named `name` (`handshake` on
    /// first contact, `rehandshake` on a 421/503-triggered refresh).
    fn handshake(
        &self,
        identity: &DeviceIdentity,
        now: SimTime,
        ctx: SpanCtx,
        name: &'static str,
    ) -> Result<(InstanceId, CloudEndpoint), Box<Response>> {
        let request = Request::post(
            TOPOLOGY_HANDSHAKE_PATH,
            Payload::Handshake(HandshakeBody {
                imei: identity.imei.clone(),
                email: identity.email.clone(),
            }),
        );
        let response = self.router.control(&request, now);
        if ctx.is_active() {
            if let Some(sink) = self.router.span_sink() {
                let at_us = now.as_seconds().saturating_mul(1_000_000);
                let id = sink.alloc(ctx.trace);
                sink.record(
                    ctx.trace,
                    id,
                    ctx.parent,
                    name,
                    at_us,
                    at_us,
                    &[("status", FieldValue::from(u64::from(response.status)))],
                );
            }
        }
        if let Payload::Topology { assigned, .. } = response.body {
            let id = InstanceId(assigned);
            match self.router.endpoint_of(id) {
                Some(endpoint) => Ok((id, endpoint)),
                None => Err(Box::new(Response::error(
                    503,
                    "assigned instance not registered",
                ))),
            }
        } else {
            Err(Box::new(response))
        }
    }

    /// Feeds a successful exchange back into the router's session records
    /// and the migration WAL.
    fn observe(
        &self,
        identity: &DeviceIdentity,
        instance: InstanceId,
        request: &Request,
        response: &Response,
    ) {
        if !response.is_success() {
            return;
        }
        match &response.body {
            Payload::Registered {
                user,
                token,
                expires_at,
            } => self
                .router
                .record_session(identity, instance, *user, token, *expires_at),
            Payload::TokenRefreshed { token, expires_at } => {
                self.router.update_token(identity, token, *expires_at);
            }
            _ => {}
        }
        self.router.log_if_mutating(identity, request);
    }
}

/// Extracts the device identity from a registration request body.
fn identity_of(request: &Request) -> Option<DeviceIdentity> {
    if request.path != REGISTRATION_PATH {
        return None;
    }
    let body = RegistrationBody::from_payload(&request.body)?;
    Some(DeviceIdentity {
        imei: body.imei.clone(),
        email: body.email.clone(),
    })
}

impl From<FederatedEndpoint> for CloudEndpoint {
    fn from(endpoint: FederatedEndpoint) -> CloudEndpoint {
        CloudEndpoint::new(endpoint)
    }
}

impl CloudTransport for FederatedEndpoint {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        let mut slot = self.slot.lock();
        if let Some(identity) = identity_of(request) {
            slot.identity = Some(identity);
        }
        if slot.target.is_none() {
            let Some(identity) = slot.identity.clone() else {
                return Response::error(
                    STATUS_MISDIRECTED,
                    "no topology handshake performed; register first",
                );
            };
            match self.handshake(&identity, now, request.ctx, "handshake") {
                Ok(target) => slot.target = Some(target),
                Err(response) => return *response,
            }
        }
        let (instance, endpoint) = slot.target.clone().expect("target ensured above");
        let response = endpoint.send(request, now);
        if response.status == STATUS_MISDIRECTED || response.status == 503 {
            // The instance died or migrated us away: refresh the topology
            // once. Re-send only when the assignment actually changed —
            // otherwise the failure is real and the client's own retry
            // loop owns it.
            let Some(identity) = slot.identity.clone() else {
                return response;
            };
            let Ok((new_instance, new_endpoint)) =
                self.handshake(&identity, now, request.ctx, "rehandshake")
            else {
                return response;
            };
            slot.target = Some((new_instance, new_endpoint.clone()));
            if new_instance == instance {
                return response;
            }
            let retried = new_endpoint.send(request, now);
            self.observe(&identity, new_instance, request, &retried);
            return retried;
        }
        if let Some(identity) = slot.identity.clone() {
            self.observe(&identity, instance, request, &response);
        }
        response
    }
}
