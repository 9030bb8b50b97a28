//! Multi-instance federation: the topology router and its control plane.
//!
//! N cloud instances behind a router that stays **off the hot path**. The
//! [`TopologyRouter`] owns an instance registry and a placement map; a
//! client performs exactly one control-plane exchange — the topology
//! handshake, a typed [`Payload::Handshake`] / [`Payload::Topology`] round
//! trip on the ordinary wire path — and then talks to its assigned
//! instance *directly* through the existing [`CloudTransport`] seam.
//! Steady-state requests never traverse the router;
//! [`TopologyRouter::control_requests`] counts the handshakes and
//! refreshes, and the federation test matrix pins it to zero outside
//! handshake/failover windows.
//!
//! Placement is sticky round-robin: a user keeps their instance while it
//! is healthy, and a new or displaced user goes to the next healthy
//! instance in id order.
//!
//! Failover is deterministic and WAL-driven: the router heartbeats every
//! instance through its full request path ([`TopologyRouter::heartbeat`]),
//! marks dead instances unhealthy, places the displaced users afresh, and
//! replays each user's migration log into the new instance. Server-side
//! sequence watermarks make the replay idempotent, and session adoption
//! transplants the client's *live* bearer token onto the new instance —
//! the client never learns it moved beyond one 421-triggered topology
//! refresh. The old instance marks each moved user relocated, so if it
//! comes back a stale client's direct hit gets 421 instead of a
//! split-brain write.
//!
//! [`CloudTransport`]: crate::transport::CloudTransport

mod endpoint;

pub use endpoint::FederatedEndpoint;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmware_obs::{FieldValue, Obs, SpanSink};
use pmware_world::SimTime;

use crate::api::{Method, Request, Response};
use crate::auth::{DeviceIdentity, UserId};
use crate::handlers::with_body;
use crate::instance::SharedCloud;
use crate::payload::{HandshakeBody, Payload, TOPOLOGY_HANDSHAKE_PATH};
use crate::router::{resolve, RateClass, Resolution};
use crate::storage::wal::{WalLog, WalOp};
use crate::transport::CloudEndpoint;

/// Identifier of one cloud instance inside a federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pci-{:02}", self.0)
    }
}

/// Outcome of one [`TopologyRouter::fail_over`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverReport {
    /// Users whose placement pointed at a dead instance.
    pub displaced: usize,
    /// WAL requests successfully replayed into new instances.
    pub replayed: usize,
    /// Modeled migration latency: one sim-second per replayed request.
    pub migration_seconds: u64,
    /// Topology version after the pass.
    pub version: u64,
}

/// Result of a federated analytics fan-out
/// ([`TopologyRouter::federated_activity`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityFanout {
    /// Mean of the per-user daily moving minutes (0 with no sessions).
    pub population_mean: f64,
    /// `(identity key, mean daily moving minutes)` per live session, in
    /// identity-key order.
    pub per_user: Vec<(String, f64)>,
    /// Sessions currently placed per instance, in instance-id order.
    pub per_instance: Vec<(InstanceId, usize)>,
}

/// A live client session the router knows about (captured from the
/// registration reply by the [`FederatedEndpoint`]).
#[derive(Debug, Clone)]
struct SessionRecord {
    identity: DeviceIdentity,
    token: String,
    expires_at: SimTime,
    user: UserId,
    instance: InstanceId,
}

#[derive(Debug)]
struct InstanceEntry {
    id: InstanceId,
    /// Raw handle: heartbeats, WAL replay, adoption, and test snapshots.
    cloud: SharedCloud,
    /// What clients are handed at handshake — possibly a chaos-wrapped
    /// decorator over `cloud`.
    endpoint: CloudEndpoint,
    healthy: bool,
}

#[derive(Debug, Default)]
struct RouterState {
    instances: Vec<InstanceEntry>,
    /// Current placement per identity key (sticky while its instance is
    /// healthy).
    placements: BTreeMap<String, InstanceId>,
    sessions: BTreeMap<String, SessionRecord>,
    /// Round-robin cursor: placements computed so far.
    rr_next: usize,
    version: u64,
}

impl RouterState {
    fn healthy_ids(&self) -> Vec<InstanceId> {
        self.instances
            .iter()
            .filter(|e| e.healthy)
            .map(|e| e.id)
            .collect()
    }

    fn entry(&self, id: InstanceId) -> Option<&InstanceEntry> {
        self.instances.iter().find(|e| e.id == id)
    }

    fn is_healthy(&self, id: InstanceId) -> bool {
        self.entry(id).is_some_and(|e| e.healthy)
    }

    /// Places `key` on the next healthy instance in id order and records
    /// it. Does **not** consult the sticky placement map — callers decide
    /// stickiness.
    fn compute_placement(&mut self, key: &str) -> Option<InstanceId> {
        let candidates = self.healthy_ids();
        if candidates.is_empty() {
            return None;
        }
        let chosen = candidates[self.rr_next % candidates.len()];
        self.rr_next += 1;
        self.placements.insert(key.to_owned(), chosen);
        Some(chosen)
    }

    /// Placement for `key`: the existing placement while its instance is
    /// healthy, else a fresh round-robin one.
    fn place(&mut self, key: &str) -> Option<InstanceId> {
        if let Some(&current) = self.placements.get(key) {
            if self.is_healthy(current) {
                return Some(current);
            }
        }
        self.compute_placement(key)
    }

    fn topology_payload(&self, assigned: InstanceId) -> Payload {
        Payload::Topology {
            version: self.version,
            assigned: assigned.0,
            instances: self.instances.iter().map(|e| (e.id.0, e.healthy)).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct RouterInner {
    state: Mutex<RouterState>,
    /// The per-user migration write-ahead log, keyed by identity key:
    /// every successful mutating request (registration plus the
    /// `Ingest`-class offloads and syncs) in order. A failover replays it
    /// into the user's new instance through the same idempotent
    /// [`crate::storage::wal::replay_session`] path crash recovery uses;
    /// the server-side sequence watermarks make the rebuilt state
    /// byte-identical to what the dead instance held. Queries and token
    /// refreshes are never logged — the live token is transplanted
    /// separately at adoption time.
    wal: Mutex<WalLog>,
    /// Requests the router itself has answered — handshakes and
    /// 421/503-triggered refreshes only. The federation matrix pins this
    /// to zero growth at steady state: the router is off the hot path.
    control_requests: AtomicU64,
    /// Observability handle, disabled by default and fixed by
    /// [`TopologyRouter::with_obs`]. Its span sink (when present) is where
    /// federated endpoints record handshake spans and the migration engine
    /// records WAL-replay spans.
    obs: Obs,
}

/// The federation control plane: instance registry, placement, health,
/// failover, and analytics fan-out. Cheap to clone (an `Arc` handle),
/// like [`SharedCloud`].
///
/// # Examples
///
/// ```
/// use pmware_cloud::topology::TopologyRouter;
/// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
///
/// let router = TopologyRouter::new();
/// let a = router.add_instance(SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1)));
/// let b = router.add_instance(SharedCloud::new(CloudInstance::new(CellDatabase::new(), 2)));
/// assert_ne!(a, b);
/// assert_eq!(router.topology().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyRouter {
    shared: Arc<RouterInner>,
}

// The device identity key placement is computed over — shared with the
// durable storage engine, which keys its WAL and snapshots the same way.
pub(crate) use crate::storage::identity_key;

impl TopologyRouter {
    /// An empty federation.
    pub fn new() -> TopologyRouter {
        TopologyRouter::default()
    }

    /// Registers an instance whose clients talk straight to the shared
    /// handle. Returns its id; instances start healthy.
    pub fn add_instance(&self, cloud: SharedCloud) -> InstanceId {
        let endpoint = CloudEndpoint::from(cloud.clone());
        self.add_instance_endpoint(cloud, endpoint)
    }

    /// Registers an instance with a distinct client-facing endpoint —
    /// typically a chaos-wrapped [`crate::FaultyCloud`] over `cloud`.
    /// Heartbeats, replay, and adoption use the raw `cloud` handle; only
    /// steady-state client traffic goes through `endpoint`.
    pub fn add_instance_endpoint(&self, cloud: SharedCloud, endpoint: CloudEndpoint) -> InstanceId {
        let mut state = self.shared.state.lock();
        let id = InstanceId(state.instances.len() as u32);
        state.instances.push(InstanceEntry {
            id,
            cloud,
            endpoint,
            healthy: true,
        });
        state.version += 1;
        id
    }

    /// A fresh per-client transport: handshakes on first registration,
    /// then routes every request directly to the assigned instance. Wrap
    /// it in a [`CloudEndpoint`] for the client.
    pub fn endpoint(&self) -> FederatedEndpoint {
        FederatedEndpoint::new(self.clone())
    }

    /// This router with an observability handle bound, as a builder on a
    /// fresh router. When the handle carries a span sink (see
    /// [`Obs::with_spans`]), federated endpoints record their
    /// handshake/re-handshake exchanges and [`TopologyRouter::fail_over`]
    /// records WAL-replay work as children of the originating request's
    /// trace. Disabled by default — binding nothing costs nothing.
    ///
    /// # Panics
    ///
    /// Panics once the router has been cloned or handed out (an endpoint
    /// holds a clone): the handle is fixed at construction.
    pub fn with_obs(mut self, obs: &Obs) -> TopologyRouter {
        Arc::get_mut(&mut self.shared)
            .expect("with_obs runs first, on a router not yet shared")
            .obs = obs.clone();
        self
    }

    /// The bound span sink, if any.
    pub(crate) fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.shared.obs.spans()
    }

    /// Control-plane requests answered so far (handshakes + refreshes).
    pub fn control_requests(&self) -> u64 {
        self.shared.control_requests.load(Ordering::SeqCst)
    }

    /// Current topology version.
    pub fn version(&self) -> u64 {
        self.shared.state.lock().version
    }

    /// `(instance, healthy)` snapshot in id order.
    pub fn topology(&self) -> Vec<(InstanceId, bool)> {
        self.shared
            .state
            .lock()
            .instances
            .iter()
            .map(|e| (e.id, e.healthy))
            .collect()
    }

    /// Authenticated requests served per instance, in id order — the
    /// per-instance traffic breakdown the federation bench reports.
    pub fn instance_requests(&self) -> Vec<(InstanceId, u64)> {
        self.shared
            .state
            .lock()
            .instances
            .iter()
            .map(|e| (e.id, e.cloud.total_requests()))
            .collect()
    }

    /// The instance currently answering for a device's session, with the
    /// user id its state lives under there — how the federation tests
    /// read back a migrated user's cloud-side snapshot.
    pub fn locate(&self, imei: &str, email: &str) -> Option<(SharedCloud, UserId)> {
        let state = self.shared.state.lock();
        let session = state.sessions.get(&identity_key(imei, email))?;
        let entry = state.entry(session.instance)?;
        Some((entry.cloud.clone(), session.user))
    }

    /// The instance a device's session currently lives on — how harnesses
    /// pick a kill target that is guaranteed to displace someone.
    pub fn instance_of(&self, imei: &str, email: &str) -> Option<InstanceId> {
        self.shared
            .state
            .lock()
            .sessions
            .get(&identity_key(imei, email))
            .map(|session| session.instance)
    }

    /// Injects an outage on `id` — the federation matrix's kill switch.
    /// The next [`TopologyRouter::heartbeat`] marks it unhealthy; once the
    /// outage is lifted on the raw handle ([`SharedCloud::set_outage`]),
    /// a later heartbeat readmits it.
    pub fn kill_instance(&self, id: InstanceId) {
        if let Some(entry) = self.shared.state.lock().entry(id) {
            entry.cloud.set_outage(true);
        }
    }

    /// The control plane's single wire entry point. Only the topology
    /// handshake lives here; everything else is answered 404 because
    /// steady-state traffic must not reach the router at all.
    pub fn control(&self, request: &Request, _now: SimTime) -> Response {
        self.shared.control_requests.fetch_add(1, Ordering::SeqCst);
        if request.method != Method::Post || request.path != TOPOLOGY_HANDSHAKE_PATH {
            return Response::not_found(format!(
                "the topology router only serves {TOPOLOGY_HANDSHAKE_PATH}"
            ));
        }
        with_body::<HandshakeBody>(request, |body| {
            if body.imei.is_empty() || body.email.is_empty() {
                return Response::bad_request("imei and email are required");
            }
            let mut state = self.shared.state.lock();
            let key = identity_key(&body.imei, &body.email);
            match state.place(&key) {
                Some(assigned) => {
                    let payload = state.topology_payload(assigned);
                    Response::ok(payload)
                }
                None => Response::error(503, "no healthy instance available"),
            }
        })
    }

    /// Probes every instance with `GET /api/v1/health` through its full
    /// request path (an injected outage answers 503 exactly like real
    /// client traffic would fail). A success marks the instance healthy,
    /// anything else unhealthy, and the version is bumped when a flag
    /// flipped either way. Returns the post-probe `(instance, healthy)`
    /// snapshot.
    pub fn heartbeat(&self, now: SimTime) -> Vec<(InstanceId, bool)> {
        let probe = Request::get("/api/v1/health");
        let mut state = self.shared.state.lock();
        let mut changed = false;
        for entry in &mut state.instances {
            let healthy = entry.cloud.handle(&probe, now).is_success();
            if healthy != entry.healthy {
                entry.healthy = healthy;
                changed = true;
            }
        }
        if changed {
            state.version += 1;
        }
        state.instances.iter().map(|e| (e.id, e.healthy)).collect()
    }

    /// Heartbeats, then migrates every user placed on a now-unhealthy
    /// instance: place them afresh, replay each user's WAL into the new
    /// instance, transplant the live session token, and mark the user
    /// relocated on the old instance. Deterministic — displaced users are
    /// processed in identity-key order.
    pub fn fail_over(&self, now: SimTime) -> FailoverReport {
        struct Job {
            key: String,
            old: SharedCloud,
            target_id: InstanceId,
            target: SharedCloud,
            session: Option<SessionRecord>,
        }

        self.heartbeat(now);

        // Pass 1 (locked): pick targets and record placements. BTreeMap
        // iteration makes the displaced order deterministic.
        let mut jobs: Vec<Job> = Vec::new();
        let displaced_total: usize;
        {
            let mut state = self.shared.state.lock();
            let displaced: Vec<(String, InstanceId)> = state
                .placements
                .iter()
                .filter(|(_, id)| !state.is_healthy(**id))
                .map(|(k, id)| (k.clone(), *id))
                .collect();
            displaced_total = displaced.len();
            for (key, old_id) in displaced {
                // Nowhere to go leaves the placement pointing at the old
                // instance, so a later pass can retry.
                let Some(target_id) = state.compute_placement(&key) else {
                    continue;
                };
                let old = state.entry(old_id).expect("placed instance exists");
                let target = state.entry(target_id).expect("computed target exists");
                jobs.push(Job {
                    key: key.clone(),
                    old: old.cloud.clone(),
                    target_id,
                    target: target.cloud.clone(),
                    session: state.sessions.get(&key).cloned(),
                });
            }
            if displaced_total > 0 {
                state.version += 1;
            }
        }

        // Pass 2 (unlocked): replay each user's WAL into its target. The
        // first successful replayed registration yields the replay token;
        // later re-registrations in the log rotate it, mirroring what the
        // client's own retries did against the old instance.
        let mut replayed_total = 0usize;
        let mut adopted: Vec<(String, InstanceId, UserId)> = Vec::new();
        let sink = self.span_sink();
        for job in &jobs {
            let records = self.shared.wal.lock().suffix(&job.key, 0);
            // The shared idempotent replay path (also the crash-recovery
            // engine). WAL entries keep the span context of the request
            // that first sent them, so replay work shows up as a child of
            // that original operation's trace. Failover runs from the
            // single driving thread, which keeps the extra span ids
            // deterministic.
            let summary = crate::storage::wal::replay_session(
                &records,
                |request| job.target.handle(request, now),
                0,
                |request, response| {
                    if request.ctx.is_active() {
                        if let Some(sink) = &sink {
                            let at_us = now.as_seconds().saturating_mul(1_000_000);
                            let id = sink.alloc(request.ctx.trace);
                            sink.record(
                                request.ctx.trace,
                                id,
                                request.ctx.parent,
                                "replay",
                                at_us,
                                at_us,
                                &[
                                    ("path", FieldValue::from(request.path.as_str())),
                                    ("status", FieldValue::from(u64::from(response.status))),
                                    ("target", FieldValue::from(u64::from(job.target_id.0))),
                                ],
                            );
                        }
                    }
                },
            );
            replayed_total += summary.replayed;
            if let Some(session) = &job.session {
                if let Some(user) =
                    job.target
                        .adopt_session(&session.identity, &session.token, session.expires_at)
                {
                    job.old.mark_relocated(session.user);
                    adopted.push((job.key.clone(), job.target_id, user));
                }
            }
        }

        // Pass 3 (locked): record adopted sessions.
        let version = {
            let mut state = self.shared.state.lock();
            for (key, instance, user) in adopted {
                if let Some(session) = state.sessions.get_mut(&key) {
                    session.instance = instance;
                    session.user = user;
                }
            }
            state.version
        };

        FailoverReport {
            displaced: displaced_total,
            replayed: replayed_total,
            migration_seconds: replayed_total as u64,
            version,
        }
    }

    /// Federated analytics fan-out: queries every live session's instance
    /// for its activity summary and aggregates across the federation —
    /// the one query class that *does* span instances. Uses the raw
    /// instance handles (not client endpoints), so chaos wrappers and the
    /// control-request pin are untouched.
    pub fn federated_activity(&self, now: SimTime) -> ActivityFanout {
        let sessions: Vec<(String, SessionRecord, SharedCloud)> = {
            let state = self.shared.state.lock();
            state
                .sessions
                .iter()
                .filter_map(|(key, session)| {
                    let entry = state.entry(session.instance)?;
                    Some((key.clone(), session.clone(), entry.cloud.clone()))
                })
                .collect()
        };
        let mut per_user = Vec::with_capacity(sessions.len());
        let mut loads: BTreeMap<InstanceId, usize> = BTreeMap::new();
        for (key, session, cloud) in sessions {
            *loads.entry(session.instance).or_default() += 1;
            let request = Request::post("/api/v1/analytics/activity", Payload::Empty)
                .with_token(session.token.clone());
            let response = cloud.handle(&request, now);
            if let Payload::Activity {
                mean_daily_moving_minutes,
            } = response.body
            {
                per_user.push((key, mean_daily_moving_minutes));
            }
        }
        let population_mean = if per_user.is_empty() {
            0.0
        } else {
            per_user.iter().map(|(_, m)| m).sum::<f64>() / per_user.len() as f64
        };
        ActivityFanout {
            population_mean,
            per_user,
            per_instance: loads.into_iter().collect(),
        }
    }

    // ---- hooks for the federated endpoint --------------------------------

    /// The client-facing endpoint of `id`, if registered.
    pub(crate) fn endpoint_of(&self, id: InstanceId) -> Option<CloudEndpoint> {
        self.shared
            .state
            .lock()
            .entry(id)
            .map(|e| e.endpoint.clone())
    }

    /// Records (or refreshes) a live session captured from a successful
    /// registration reply on `instance`.
    pub(crate) fn record_session(
        &self,
        identity: &DeviceIdentity,
        instance: InstanceId,
        user: UserId,
        token: &str,
        expires_at: SimTime,
    ) {
        let key = identity_key(&identity.imei, &identity.email);
        self.shared.state.lock().sessions.insert(
            key,
            SessionRecord {
                identity: identity.clone(),
                token: token.to_owned(),
                expires_at,
                user,
                instance,
            },
        );
    }

    /// Tracks a token rotation observed on the session's own instance.
    pub(crate) fn update_token(&self, identity: &DeviceIdentity, token: &str, expires_at: SimTime) {
        let key = identity_key(&identity.imei, &identity.email);
        if let Some(session) = self.shared.state.lock().sessions.get_mut(&key) {
            session.token = token.to_owned();
            session.expires_at = expires_at;
        }
    }

    /// Appends a replayable request to the device's migration log when it
    /// is a successful mutating call (registration or `Ingest` class).
    pub(crate) fn log_if_mutating(&self, identity: &DeviceIdentity, request: &Request) {
        let mutating = request.method == Method::Post
            && (request.path == crate::payload::REGISTRATION_PATH
                || matches!(
                    resolve(request.method, &request.path),
                    Resolution::Matched { route, .. } if route.rate_class == RateClass::Ingest
                ));
        if mutating {
            let key = identity_key(&identity.imei, &identity.email);
            self.shared
                .wal
                .lock()
                .append(&key, WalOp::request(request.clone()).compacted());
        }
    }
}

#[cfg(test)]
mod tests {
    use serde_json::json;

    use super::*;
    use crate::geolocate::CellDatabase;
    use crate::instance::CloudInstance;
    use crate::profile::ContactEntry;
    use crate::transport::STATUS_MISDIRECTED;

    fn router_with(n: usize) -> TopologyRouter {
        let router = TopologyRouter::new();
        for i in 0..n {
            router.add_instance(SharedCloud::new(CloudInstance::new(
                CellDatabase::new(),
                1000 + i as u64,
            )));
        }
        router
    }

    fn identity(n: u32) -> (String, String) {
        (format!("imei-{n}"), format!("u{n}@x.com"))
    }

    /// Registers device `n` through its own federated endpoint; returns
    /// the endpoint and the issued token.
    fn register(router: &TopologyRouter, n: u32, now: SimTime) -> (CloudEndpoint, String) {
        let endpoint = CloudEndpoint::new(router.endpoint());
        let (imei, email) = identity(n);
        let response = endpoint.send(
            &Request::post_json(
                crate::payload::REGISTRATION_PATH,
                json!({"imei": imei, "email": email}),
            ),
            now,
        );
        assert!(response.is_success(), "{response:?}");
        let token = response.json()["token"].as_str().unwrap().to_owned();
        (endpoint, token)
    }

    #[test]
    fn round_robin_cycles_instances() {
        let router = router_with(3);
        let now = SimTime::EPOCH;
        for n in 0..6 {
            register(&router, n, now);
        }
        let hosts: Vec<u32> = (0..6)
            .map(|n| {
                let (imei, email) = identity(n);
                router.instance_of(&imei, &email).unwrap().0
            })
            .collect();
        assert_eq!(hosts, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn steady_state_requests_never_touch_the_router() {
        let router = router_with(2);
        let now = SimTime::EPOCH;
        let (endpoint, token) = register(&router, 0, now);
        assert_eq!(router.control_requests(), 1, "one handshake per client");
        for _ in 0..5 {
            let response = endpoint.send(&Request::get("/api/v1/places").with_token(&token), now);
            assert!(response.is_success());
        }
        assert_eq!(router.control_requests(), 1, "steady state is router-free");
    }

    #[test]
    fn failover_replays_the_wal_and_reroutes_the_client() {
        let router = router_with(2);
        let now = SimTime::EPOCH;
        let (endpoint, token) = register(&router, 0, now);
        register(&router, 1, now);
        let (imei, email) = identity(0);
        let home = router.instance_of(&imei, &email).unwrap();

        let contacts = vec![ContactEntry {
            contact: "peer-1".into(),
            start: SimTime::from_seconds(0),
            end: SimTime::from_seconds(600),
            place: None,
        }];
        let response = endpoint.send(
            &Request::post_json("/api/v1/social/sync", json!({ "contacts": contacts }))
                .with_token(&token),
            now,
        );
        assert!(response.is_success(), "{response:?}");

        router.kill_instance(home);
        let later = now + pmware_world::SimDuration::from_hours(1);
        let report = router.fail_over(later);
        assert_eq!(report.displaced, 1, "only the killed instance's user moves");
        assert_eq!(report.replayed, 2);

        let new_home = router.instance_of(&imei, &email).unwrap();
        assert_ne!(new_home, home);
        let (cloud, user) = router.locate(&imei, &email).unwrap();
        let stored = cloud.contacts_of(user);
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].contact, "peer-1");

        // The client's cached target is stale; the endpoint refreshes the
        // topology transparently and the same token keeps working.
        let before = router.control_requests();
        let response = endpoint.send(&Request::get("/api/v1/places").with_token(&token), later);
        assert!(response.is_success(), "{response:?}");
        assert_eq!(router.control_requests(), before + 1);
        // …and only once: the refreshed target is cached again.
        let response = endpoint.send(&Request::get("/api/v1/places").with_token(&token), later);
        assert!(response.is_success());
        assert_eq!(router.control_requests(), before + 1);
    }

    #[test]
    fn failed_over_instance_that_comes_back_answers_misdirected() {
        let router = router_with(2);
        let now = SimTime::EPOCH;
        let (endpoint, token) = register(&router, 0, now);
        let (imei, email) = identity(0);
        let home = router.instance_of(&imei, &email).unwrap();
        let (old_cloud, _) = router.locate(&imei, &email).unwrap();

        router.kill_instance(home);
        let report = router.fail_over(now);
        assert_eq!(report.displaced, 1);
        // The old instance comes back and is readmitted; the user stays
        // where the failover put them.
        old_cloud.set_outage(false);
        assert!(router.heartbeat(now).contains(&(home, true)));
        // A stale direct hit on the old instance gets the relocation
        // gate's 421…
        let old = router.endpoint_of(home).unwrap();
        let stale = old.send(&Request::get("/api/v1/places").with_token(&token), now);
        assert_eq!(stale.status, STATUS_MISDIRECTED);
        // …which the federated endpoint absorbs by re-handshaking.
        let response = endpoint.send(&Request::get("/api/v1/places").with_token(&token), now);
        assert!(response.is_success(), "{response:?}");
        assert_ne!(router.instance_of(&imei, &email).unwrap(), home);
    }

    #[test]
    fn handshake_rejects_blank_identity_and_unroutable_state() {
        let router = router_with(1);
        let now = SimTime::EPOCH;
        let bad = router.control(
            &Request::post_json(
                crate::payload::TOPOLOGY_HANDSHAKE_PATH,
                json!({"imei": "", "email": ""}),
            ),
            now,
        );
        assert_eq!(bad.status, 400);

        router.kill_instance(InstanceId(0));
        router.heartbeat(now);
        let down = router.control(
            &Request::post_json(
                crate::payload::TOPOLOGY_HANDSHAKE_PATH,
                json!({"imei": "350", "email": "a@x"}),
            ),
            now,
        );
        assert_eq!(down.status, 503);
    }

    #[test]
    fn revived_instance_is_readmitted() {
        let router = router_with(1);
        let revived = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1001));
        assert_eq!(router.add_instance(revived.clone()), InstanceId(1));
        let now = SimTime::EPOCH;
        router.kill_instance(InstanceId(1));
        let health = router.heartbeat(now);
        assert_eq!(health, vec![(InstanceId(0), true), (InstanceId(1), false)]);
        let v1 = router.version();

        revived.set_outage(false);
        let health = router.heartbeat(now);
        assert_eq!(health, vec![(InstanceId(0), true), (InstanceId(1), true)]);
        assert!(
            router.version() > v1,
            "readmission bumps the topology version"
        );
    }
}
