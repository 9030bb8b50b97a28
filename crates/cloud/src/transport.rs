//! The transport seam between clients and the cloud, with deterministic
//! fault injection.
//!
//! The paper's deployment ran over real GPRS links to an Azure instance
//! that was routinely unreachable; the seed reproduction modelled only a
//! binary outage flag. This module inserts a proper transport boundary —
//! [`CloudTransport`] — between `CloudClient` and [`SharedCloud`], so a
//! [`FaultyCloud`] decorator can inject seeded, reproducible per-request
//! faults: drop, delay-by-N-sim-minutes, duplicate delivery, reorder, and
//! error responses, driven by a [`FaultPlan`].
//!
//! Fault semantics (all deterministic given the plan's seed):
//!
//! * **Drop** — the request is lost before the server sees it; the caller
//!   receives a synthetic [`STATUS_TIMEOUT`] response.
//! * **Error** — the server is not invoked; the caller receives a
//!   [`STATUS_INJECTED_ERROR`] response (a flaky proxy/gateway).
//! * **Delay** — the request is *held* and delivered to the server once
//!   its due time has passed (piggybacking on later traffic or an explicit
//!   [`FaultyCloud::flush`]); the caller times out ([`STATUS_TIMEOUT`]).
//!   The server-side effect still happens — late — which is exactly the
//!   hazard idempotent endpoints must absorb.
//! * **Reorder** — the request is held and delivered right *after* the
//!   next request that passes through, so the server observes the two in
//!   swapped order; the caller of the held request times out.
//! * **Duplicate** — the request is delivered to the server twice
//!   back-to-back; the caller sees the second response.
//!
//! The decorator is also where the wire exists: every request crosses it
//! as JSON bytes decoded back by route, and every reply as bytes decoded
//! by the request's route and status ([`Response::from_bytes`]), so a
//! chaos-wrapped client receives the same typed replies as an in-process
//! one.
//!
//! A dropped or timed-out request makes the retrying client re-send, so
//! at-least-once delivery plus server-side deduplication (sequence
//! watermarks) yields exactly-once *absorption* — the invariant the chaos
//! test-suite pins.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use pmware_obs::{Counter, FieldValue, Obs};
use pmware_world::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::{Request, Response};
use crate::instance::SharedCloud;

/// Synthetic status for a request (or its response) lost in transit: the
/// client waited out its timeout without hearing back. Retryable.
pub const STATUS_TIMEOUT: u16 = 599;

/// Synthetic status for an injected transport-level error (a flaky
/// gateway answering 502 without consulting the service). Retryable.
pub const STATUS_INJECTED_ERROR: u16 = 502;

/// Synthetic client-side status: the per-maintenance-pass request budget
/// is exhausted, so the request was never sent. Not retryable within the
/// pass — the next pass gets a fresh budget.
pub const STATUS_BUDGET_EXHAUSTED: u16 = 597;

/// The request reached an instance that no longer owns the caller's
/// state (the user was migrated away during a federation failover or
/// drain). The client should refresh its topology snapshot and re-send
/// to its new instance; the federated endpoint does exactly that before
/// the client's retry loop ever sees the status.
pub const STATUS_MISDIRECTED: u16 = 421;

/// Anything a cloud client can talk to: the real [`SharedCloud`] or a
/// fault-injecting decorator around it.
pub trait CloudTransport: Send + Sync + fmt::Debug {
    /// Delivers one request at simulated instant `now`.
    fn send(&self, request: &Request, now: SimTime) -> Response;
}

impl CloudTransport for SharedCloud {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        self.handle(request, now)
    }
}

/// Cheap, cloneable handle to some [`CloudTransport`] — what clients hold.
///
/// ```
/// use pmware_cloud::{
///     CellDatabase, CloudEndpoint, CloudInstance, RegistrationBody, Request, SharedCloud,
/// };
/// use pmware_world::SimTime;
///
/// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1));
/// let endpoint: CloudEndpoint = cloud.into();
/// let body = RegistrationBody {
///     imei: "1".into(),
///     email: "a@x".into(),
/// };
/// let resp = endpoint.send(&Request::post("/api/v1/registration", body), SimTime::EPOCH);
/// assert!(resp.is_success());
/// ```
#[derive(Debug, Clone)]
pub struct CloudEndpoint(Arc<dyn CloudTransport>);

impl CloudEndpoint {
    /// Wraps any transport.
    pub fn new(transport: impl CloudTransport + 'static) -> Self {
        CloudEndpoint(Arc::new(transport))
    }

    /// Delivers one request at simulated instant `now`.
    pub fn send(&self, request: &Request, now: SimTime) -> Response {
        self.0.send(request, now)
    }
}

impl From<SharedCloud> for CloudEndpoint {
    fn from(cloud: SharedCloud) -> Self {
        CloudEndpoint::new(cloud)
    }
}

impl From<FaultyCloud> for CloudEndpoint {
    fn from(faulty: FaultyCloud) -> Self {
        CloudEndpoint::new(faulty)
    }
}

/// One kind of injected transport fault. Declared in [`ALL_FAULT_KINDS`]
/// order: the discriminant indexes the per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Request lost before the server sees it.
    Drop,
    /// Request held and delivered late; the caller times out.
    Delay,
    /// Request delivered to the server twice.
    Duplicate,
    /// Request held and delivered after the next one, swapping their order.
    Reorder,
    /// Transport-level error response without touching the server.
    Error,
}

impl FaultKind {
    /// Stable lower-case name, used as the `kind` metric label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Error => "error",
        }
    }
}

/// All five fault kinds.
pub const ALL_FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Drop,
    FaultKind::Delay,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Error,
];

/// A reproducible plan for which requests get which faults.
///
/// Either **rate-based** (each matching request faults with probability
/// `rate`, kind chosen uniformly from `kinds`, both drawn from a
/// xoshiro-seeded stream so runs replay exactly) or **schedule-based**
/// (an explicit list of `(matching-request-index, kind)` pairs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    kinds: Vec<FaultKind>,
    delay: SimDuration,
    path_filter: Option<String>,
    schedule: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A rate-based plan over all five fault kinds.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            kinds: ALL_FAULT_KINDS.to_vec(),
            delay: SimDuration::from_minutes(10),
            path_filter: None,
            schedule: Vec::new(),
        }
    }

    /// A schedule-based plan: the `i`-th matching request gets `kind`.
    pub fn with_schedule(seed: u64, schedule: Vec<(u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 0.0,
            kinds: ALL_FAULT_KINDS.to_vec(),
            delay: SimDuration::from_minutes(10),
            path_filter: None,
            schedule,
        }
    }

    /// Restricts the injected kinds (rate-based plans).
    pub fn kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        assert!(!kinds.is_empty(), "a fault plan needs at least one kind");
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets the delay magnitude for [`FaultKind::Delay`].
    pub fn delay(mut self, delay: SimDuration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Only faults requests whose path contains `fragment`; other requests
    /// pass through untouched and do not advance the request index.
    pub fn only_path(mut self, fragment: impl Into<String>) -> FaultPlan {
        self.path_filter = Some(fragment.into());
        self
    }
}

/// Counters of what the decorator did, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests that entered the decorator.
    pub requests: u64,
    /// Faults injected in total.
    pub faults: u64,
    /// Requests lost outright.
    pub drops: u64,
    /// Requests held for late delivery.
    pub delays: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Requests held to swap order with their successor.
    pub reorders: u64,
    /// Injected error responses.
    pub errors: u64,
    /// Held requests that were eventually delivered to the server.
    pub late_deliveries: u64,
}

#[derive(Debug)]
struct HeldRequest {
    request: Request,
    /// Earliest instant at which the request may reach the server.
    due: SimTime,
    /// Reordered requests are delivered right after the next pass-through
    /// request regardless of `due`.
    after_next: bool,
}

/// Registry-backed fault counters. The decorator always carries a live
/// registry (a private one by default), so [`FaultyCloud::stats`] stays a
/// correct snapshot view whether or not a study attached shared
/// observability via [`FaultyCloud::with_obs`].
#[derive(Debug)]
struct FaultMetrics {
    obs: Obs,
    requests: Counter,
    /// Indexed by `FaultKind as usize` ([`ALL_FAULT_KINDS`] order).
    by_kind: [Counter; ALL_FAULT_KINDS.len()],
    late_deliveries: Counter,
}

impl FaultMetrics {
    fn resolve(obs: Obs) -> FaultMetrics {
        let requests = obs.counter("transport_requests_total", &[]);
        let by_kind = std::array::from_fn(|i| {
            obs.counter(
                "transport_faults_total",
                &[("kind", ALL_FAULT_KINDS[i].label())],
            )
        });
        let late_deliveries = obs.counter("transport_late_deliveries_total", &[]);
        FaultMetrics {
            obs,
            requests,
            by_kind,
            late_deliveries,
        }
    }

    fn kind(&self, kind: FaultKind) -> &Counter {
        &self.by_kind[kind as usize]
    }

    fn snapshot(&self) -> FaultStats {
        let count = |kind| self.kind(kind).get();
        FaultStats {
            requests: self.requests.get(),
            faults: self.by_kind.iter().map(Counter::get).sum(),
            drops: count(FaultKind::Drop),
            delays: count(FaultKind::Delay),
            duplicates: count(FaultKind::Duplicate),
            reorders: count(FaultKind::Reorder),
            errors: count(FaultKind::Error),
            late_deliveries: self.late_deliveries.get(),
        }
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    enabled: bool,
    /// Matching requests seen so far (the schedule index).
    seen: u64,
    held: VecDeque<HeldRequest>,
    metrics: FaultMetrics,
}

impl FaultState {
    /// Decides the fault for one request, advancing the deterministic
    /// stream. `None` means the request passes through.
    fn decide(&mut self, request: &Request) -> Option<FaultKind> {
        if !self.enabled {
            return None;
        }
        if let Some(fragment) = &self.plan.path_filter {
            if !request.path.contains(fragment.as_str()) {
                return None;
            }
        }
        let index = self.seen;
        self.seen += 1;
        if !self.plan.schedule.is_empty() {
            return self
                .plan
                .schedule
                .iter()
                .find(|(i, _)| *i == index)
                .map(|(_, kind)| *kind);
        }
        if self.plan.rate <= 0.0 || !self.rng.gen_bool(self.plan.rate.min(1.0)) {
            return None;
        }
        let kind = self.plan.kinds[self.rng.gen_range(0..self.plan.kinds.len())];
        Some(kind)
    }
}

/// A fault-injecting decorator around a [`SharedCloud`].
///
/// Clones share one fault stream, so the decorator can be handed to a
/// client while the test keeps a handle for [`FaultyCloud::flush`],
/// [`FaultyCloud::set_enabled`] and [`FaultyCloud::stats`].
#[derive(Debug, Clone)]
pub struct FaultyCloud {
    inner: SharedCloud,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyCloud {
    /// Decorates `inner` with `plan`. Injection starts enabled.
    pub fn new(inner: SharedCloud, plan: FaultPlan) -> FaultyCloud {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultyCloud {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                rng,
                enabled: true,
                seen: 0,
                held: VecDeque::new(),
                metrics: FaultMetrics::resolve(Obs::new().for_actor("transport")),
            })),
        }
    }

    /// Binds the decorator's counters (and fault spans) to `obs`, as a
    /// builder on a fresh decorator. With a metrics-less handle the
    /// private registry is kept so [`FaultyCloud::stats`] stays correct.
    ///
    /// # Panics
    ///
    /// Panics once the decorator has carried a request: nothing recorded
    /// so far is carried over.
    pub fn with_obs(self, obs: &Obs) -> FaultyCloud {
        {
            let mut state = self.state.lock();
            assert_eq!(
                state.metrics.requests.get(),
                0,
                "with_obs runs first, on a fresh decorator"
            );
            let obs = obs.clone().metrics_or(&state.metrics.obs);
            state.metrics = FaultMetrics::resolve(obs);
        }
        self
    }

    /// Turns injection on or off (held requests are kept either way).
    /// Disabling models the network recovering — the standard epilogue of
    /// a chaos run before asserting convergence.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.lock().enabled = enabled;
    }

    /// What the decorator has done so far (a snapshot view over the
    /// metrics registry).
    pub fn stats(&self) -> FaultStats {
        self.state.lock().metrics.snapshot()
    }

    /// Delivers every held request (delayed or reordered) to the server at
    /// `now`, regardless of due time. Models queued traffic draining once
    /// the link recovers.
    pub fn flush(&self, now: SimTime) {
        self.deliver_held(&mut self.state.lock(), now, |_| true);
    }

    /// Delivers, in hold order, the held requests `ready` picks; the rest
    /// stay held.
    fn deliver_held(
        &self,
        state: &mut FaultState,
        now: SimTime,
        ready: impl Fn(&HeldRequest) -> bool,
    ) {
        let mut keep = VecDeque::new();
        while let Some(held) = state.held.pop_front() {
            if ready(&held) {
                state.metrics.late_deliveries.inc();
                let _ = self.inner.handle(&held.request, now);
            } else {
                keep.push_back(held);
            }
        }
        state.held = keep;
    }

    fn timeout_response() -> Response {
        Response::error(STATUS_TIMEOUT, "request timed out")
    }

    /// Decides and applies the fault for one (already marshalled)
    /// request, delivering whatever reaches the server to the wrapped
    /// cloud.
    fn deliver(&self, request: &Request, now: SimTime) -> Response {
        let mut state = self.state.lock();
        state.metrics.requests.inc();
        // Held traffic whose due time has passed lands first.
        self.deliver_held(&mut state, now, |held| !held.after_next && held.due <= now);
        let decision = state.decide(request);
        if let Some(kind) = decision {
            state.metrics.kind(kind).inc();
            // Annotate the caller's causal trace with the injection. The
            // id is allocated here, on the caller's own thread, so span
            // ids within a trace stay schedule-independent (held requests
            // delivered later from other threads deliberately do NOT
            // record spans — that allocation would race the owner's).
            if request.ctx.is_active() {
                if let Some(sink) = state.metrics.obs.spans() {
                    let at_us = now.as_seconds().saturating_mul(1_000_000);
                    let id = sink.alloc(request.ctx.trace);
                    sink.record(
                        request.ctx.trace,
                        id,
                        request.ctx.parent,
                        &format!("fault:{}", kind.label()),
                        at_us,
                        at_us,
                        &[("path", FieldValue::from(request.path.as_str()))],
                    );
                }
            }
        }
        match decision {
            None => {
                let response = self.inner.handle(request, now);
                // A reordered predecessor is delivered right behind us.
                self.deliver_held(&mut state, now, |held| held.after_next);
                response
            }
            Some(FaultKind::Drop) => Self::timeout_response(),
            Some(FaultKind::Error) => {
                Response::error(STATUS_INJECTED_ERROR, "bad gateway (injected)")
            }
            Some(FaultKind::Delay) => {
                let due = now + state.plan.delay;
                state.held.push_back(HeldRequest {
                    request: request.clone(),
                    due,
                    after_next: false,
                });
                Self::timeout_response()
            }
            Some(FaultKind::Reorder) => {
                state.held.push_back(HeldRequest {
                    request: request.clone(),
                    due: now,
                    after_next: true,
                });
                Self::timeout_response()
            }
            Some(FaultKind::Duplicate) => {
                let _first = self.inner.handle(request, now);
                self.inner.handle(request, now)
            }
        }
    }
}

impl CloudTransport for FaultyCloud {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        // The fault boundary is where the wire exists: spell the request
        // as JSON bytes (rendered once and cached on the request, so a
        // retry schedule re-sends the same encoding), decode them back by
        // route, apply the fault decision over the wrapped cloud, and
        // round-trip the response the same way, its body decoded by the
        // request's route and the status — the full marshalling path the
        // Django service saw, handing the client the same typed replies
        // an undecorated [`SharedCloud`] endpoint returns directly.
        // The span context and latency annotation are diagnostics, not
        // wire state: both are copied across the marshalling boundary by
        // hand, exactly like a tracing header rides outside the body.
        let parsed = Request::from_bytes(request.wire_bytes())
            .expect("request round-trips")
            .with_ctx(request.ctx);
        let response = self.deliver(&parsed, now);
        let latency = response.latency_us();
        let wire = Response::from_bytes(parsed.method, &parsed.path, &response.to_bytes())
            .expect("response round-trips");
        match latency {
            Some((queue_us, service_us)) => wire.with_latency(queue_us, service_us),
            None => wire,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geolocate::CellDatabase;
    use crate::instance::CloudInstance;
    use serde_json::json;

    fn cloud() -> SharedCloud {
        SharedCloud::new(CloudInstance::new(CellDatabase::new(), 9))
    }

    fn register(endpoint: &CloudEndpoint) -> String {
        let resp = endpoint.send(
            &Request::post_json(
                "/api/v1/registration",
                json!({"imei": "i-1", "email": "a@x.com"}),
            ),
            SimTime::EPOCH,
        );
        assert!(resp.is_success(), "{resp:?}");
        resp.json()["token"].as_str().unwrap().to_owned()
    }

    #[test]
    fn fault_kinds_are_declared_in_all_fault_kinds_order() {
        for (index, kind) in ALL_FAULT_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, index, "{kind:?}");
        }
    }

    #[test]
    fn passthrough_when_disabled_or_zero_rate() {
        let faulty = FaultyCloud::new(cloud(), FaultPlan::with_rate(1, 0.0));
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        let resp = endpoint.send(
            &Request::get("/api/v1/places").with_token(&token),
            SimTime::EPOCH,
        );
        assert!(resp.is_success());
        assert_eq!(faulty.stats().faults, 0);
        assert_eq!(faulty.stats().requests, 2);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let record = |seed: u64| -> Vec<u16> {
            let faulty = FaultyCloud::new(
                cloud(),
                FaultPlan::with_rate(seed, 0.5).kinds(&[FaultKind::Drop, FaultKind::Error]),
            );
            let endpoint: CloudEndpoint = faulty.clone().into();
            faulty.set_enabled(false);
            let token = register(&endpoint);
            faulty.set_enabled(true);
            (0..20)
                .map(|i| {
                    endpoint
                        .send(
                            &Request::get("/api/v1/places").with_token(&token),
                            SimTime::from_seconds(i * 60),
                        )
                        .status
                })
                .collect()
        };
        let a = record(7);
        let b = record(7);
        let c = record(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.iter().any(|s| *s != 200), "rate 0.5 must fault something");
    }

    #[test]
    fn drop_times_out_without_reaching_the_server() {
        let faulty = FaultyCloud::new(
            cloud(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Drop)]).only_path("/places/sync"),
        );
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        let sync =
            Request::post_json("/api/v1/places/sync", json!({"places": []})).with_token(&token);
        let resp = endpoint.send(&sync, SimTime::EPOCH);
        assert_eq!(resp.status, STATUS_TIMEOUT);
        // The second attempt (index 1, unscheduled) goes through.
        let resp = endpoint.send(&sync, SimTime::EPOCH);
        assert!(resp.is_success());
        assert_eq!(faulty.stats().drops, 1);
    }

    #[test]
    fn delay_delivers_late_on_flush() {
        let shared = cloud();
        let faulty = FaultyCloud::new(
            shared.clone(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Delay)])
                .only_path("/places/sync")
                .delay(SimDuration::from_minutes(5)),
        );
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        let place = pmware_algorithms::signature::DiscoveredPlace::new(
            pmware_algorithms::signature::DiscoveredPlaceId(3),
            pmware_algorithms::signature::PlaceSignature::WifiAps(Default::default()),
            vec![],
        );
        let sync = Request::post_json("/api/v1/places/sync", json!({"places": [place]}))
            .with_token(&token);
        let resp = endpoint.send(&sync, SimTime::EPOCH);
        assert_eq!(resp.status, STATUS_TIMEOUT, "caller times out");
        // Not delivered yet: the server still has no places.
        let list = Request::get("/api/v1/places").with_token(&token);
        let resp = shared.handle(&list, SimTime::EPOCH);
        assert_eq!(resp.json()["places"].as_array().unwrap().len(), 0);
        // Later traffic past the due time carries it in.
        let resp = endpoint.send(&list, SimTime::EPOCH + SimDuration::from_minutes(6));
        assert!(resp.is_success());
        assert_eq!(
            resp.json()["places"].as_array().unwrap().len(),
            1,
            "held request must land before the later one"
        );
        assert_eq!(faulty.stats().late_deliveries, 1);
    }

    #[test]
    fn reorder_swaps_with_the_next_request() {
        let shared = cloud();
        let faulty = FaultyCloud::new(
            shared.clone(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Reorder)]).only_path("/profiles/sync"),
        );
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        let profile = |day: u64| crate::profile::MobilityProfile::new(day);
        // Day-0 profile is held; day-1 goes through first, then day-0 lands.
        let first = Request::post_json("/api/v1/profiles/sync", json!({"profile": profile(0)}))
            .with_token(&token);
        let second = Request::post_json("/api/v1/profiles/sync", json!({"profile": profile(1)}))
            .with_token(&token);
        assert_eq!(endpoint.send(&first, SimTime::EPOCH).status, STATUS_TIMEOUT);
        assert!(endpoint.send(&second, SimTime::EPOCH).is_success());
        // Both eventually present.
        for day in 0..2 {
            let resp = shared.handle(
                &Request::get(format!("/api/v1/profiles/{day}")).with_token(&token),
                SimTime::EPOCH,
            );
            assert!(resp.is_success(), "day {day}: {resp:?}");
        }
        assert_eq!(faulty.stats().reorders, 1);
        assert_eq!(faulty.stats().late_deliveries, 1);
    }

    #[test]
    fn duplicate_hits_the_server_twice() {
        let shared = cloud();
        let faulty = FaultyCloud::new(
            shared.clone(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Duplicate)]).only_path("/social/sync"),
        );
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        let contact = json!({
            "contact": "peer-1",
            "start": 0,
            "end": 600,
            "place": null,
        });
        // Legacy body (no first_seq): the server extends blindly, so a
        // duplicated delivery is visible as a doubled store — which is the
        // hazard the sequenced path exists to remove.
        let resp = endpoint.send(
            &Request::post_json("/api/v1/social/sync", json!({"contacts": [contact]}))
                .with_token(&token),
            SimTime::EPOCH,
        );
        assert!(resp.is_success());
        assert_eq!(
            resp.json()["stored"],
            2,
            "blind extend absorbed the duplicate"
        );
        assert_eq!(faulty.stats().duplicates, 1);
    }

    #[test]
    fn schedule_only_faults_matching_paths() {
        let faulty = FaultyCloud::new(
            cloud(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Drop), (1, FaultKind::Drop)])
                .only_path("/places/sync"),
        );
        let endpoint: CloudEndpoint = faulty.clone().into();
        let token = register(&endpoint);
        // Non-matching requests pass and do not consume schedule slots.
        for _ in 0..3 {
            let resp = endpoint.send(
                &Request::get("/api/v1/places").with_token(&token),
                SimTime::EPOCH,
            );
            assert!(resp.is_success());
        }
        let sync =
            Request::post_json("/api/v1/places/sync", json!({"places": []})).with_token(&token);
        assert_eq!(endpoint.send(&sync, SimTime::EPOCH).status, STATUS_TIMEOUT);
        assert_eq!(endpoint.send(&sync, SimTime::EPOCH).status, STATUS_TIMEOUT);
        assert!(endpoint.send(&sync, SimTime::EPOCH).is_success());
    }
}
