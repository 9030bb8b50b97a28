//! REST client for the cloud instance (§2.2.5).
//!
//! *"Communication module handles two different kind of communication i.e.
//! REST API based communication with the cloud instance and inter
//! application communication between PMS and connected applications."*
//!
//! Every call builds a typed [`Payload`] directly — no JSON tree on the
//! hot path. Against an in-process [`SharedCloud`] the payload travels
//! typed end-to-end with zero serde work; only the fault-injecting
//! decorator (the wire boundary) spells it as JSON bytes, and those bytes
//! are rendered **once** per request and reused across the whole retry
//! schedule. The client owns the *retry policy*: every request class has
//! a bounded number of attempts with capped exponential backoff and
//! deterministic SimTime-derived jitter, so a lossy link is survived
//! without ever consulting a wall clock (fault runs replay bit-identically
//! from a seed).
//!
//! Mutating endpoints carry idempotency keys (sequence numbers and stream
//! offsets) so that the retries, duplicates and reorderings a faulty
//! transport produces are absorbed exactly once server-side.

use pmware_algorithms::route::CanonicalRoute;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId};
use pmware_cloud::wire::ObservationBatch;
use pmware_cloud::{
    CloudEndpoint, DiscoverBody, GeolocateSignatureBody, LabelBody, MobilityProfile, Payload,
    RegistrationBody, Request, Response, SpanCtx, SyncContactsBody, SyncPlacesBody,
    SyncProfileBody, SyncRoutesBody, UserId, STATUS_BUDGET_EXHAUSTED, STATUS_MISDIRECTED,
    STATUS_RATE_LIMITED, STATUS_TIMEOUT,
};
use pmware_geo::GeoPoint;
use pmware_obs::{Counter, FieldValue, Histogram, Obs, SpanSink};
use pmware_world::{CellGlobalId, GsmObservation, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::PmsError;

/// How persistently a request is retried. Classes mirror how much a lost
/// request costs: an offload or sync must eventually land (the maintenance
/// pass depends on it), while an interactive query can fail fast and let
/// the app ask again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestClass {
    /// Registration and token refresh.
    Auth,
    /// The nightly GCA offload.
    Offload,
    /// Profile/place/route/contact syncs.
    Sync,
    /// Interactive queries (geolocation, analytics).
    Query,
}

impl RequestClass {
    /// Attempts before giving up (the per-class "timeout": one simulated
    /// send plus `max_attempts - 1` retries).
    fn max_attempts(self) -> u32 {
        match self {
            RequestClass::Auth => 3,
            RequestClass::Offload | RequestClass::Sync => 4,
            RequestClass::Query => 2,
        }
    }

    /// First backoff; doubles per retry up to [`RequestClass::max_backoff`].
    fn base_backoff(self) -> SimDuration {
        match self {
            RequestClass::Auth | RequestClass::Query => SimDuration::from_seconds(5),
            RequestClass::Sync => SimDuration::from_seconds(15),
            RequestClass::Offload => SimDuration::from_seconds(30),
        }
    }

    fn max_backoff(self) -> SimDuration {
        SimDuration::from_minutes(5)
    }
}

/// Transport-level failures worth retrying: 5xx (outage, injected errors,
/// synthetic timeouts) plus 429 (admission control shed the request — it
/// will be admitted once the token bucket refills) plus 421 (a federated
/// deployment moved this user's state to another instance; the federated
/// endpoint refreshes its topology before the retry is sent, so the retry
/// lands on the right instance). Other 4xx are the server telling us the
/// request itself is wrong — retrying cannot help.
fn retryable(status: u16) -> bool {
    status == STATUS_RATE_LIMITED || status == STATUS_MISDIRECTED || (500..=599).contains(&status)
}

/// Deterministic jitter in `[0, cap]` seconds, derived purely from the
/// request path, the attempt index, and the simulated send instant — no
/// wall clock, no shared RNG state, so concurrent clients stay replayable.
fn backoff_jitter(path: &str, attempt: u32, at: SimTime, cap: u64) -> SimDuration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in path.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= at.as_seconds().wrapping_mul(0x2545_f491_4f6c_dd1d);
    h ^= h >> 33;
    SimDuration::from_seconds(h % (cap + 1))
}

/// The decode error for a 2xx reply that is not the shape its route
/// answers with.
fn unexpected_reply(path: &str, body: &Payload) -> PmsError {
    PmsError::Decode(format!("{path}: unexpected reply {}", body.to_json()))
}

/// The durable part of a [`CloudClient`], serialized into a PMS
/// checkpoint so a rebooted device resumes with its auth and idempotency
/// state intact (losing the sequence counters would desynchronize the
/// server-side dedup watermarks).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ClientState {
    /// Registered user id.
    pub user: UserId,
    /// Current bearer token.
    pub token: String,
    /// When the token expires.
    pub token_expires: SimTime,
    /// Monotonic sync sequence (idempotency key for upserts/replacements).
    pub sync_seq: u64,
    /// Logical operations issued so far: a rebooted client numbers its
    /// next operation after them, so its trace ids never repeat one from
    /// before the reboot.
    pub op_seq: u64,
}

/// Bucket bounds (whole seconds) for the retry backoff histogram.
const BACKOFF_BOUNDS: [u64; 9] = [1, 2, 5, 10, 30, 60, 120, 300, 600];

/// Pre-resolved client metric handles; all no-ops until
/// [`CloudClient::set_obs`] binds a live registry, so the default client
/// costs nothing extra.
#[derive(Debug, Clone, Default)]
struct ClientMetrics {
    obs: Obs,
    wire_requests: Counter,
    retries: Counter,
    budget_denied: Counter,
    timeouts: Counter,
    rate_limited: Counter,
    backoff_seconds: Histogram,
}

impl ClientMetrics {
    fn resolve(obs: &Obs) -> ClientMetrics {
        let labels = [("user", obs.actor())];
        ClientMetrics {
            wire_requests: obs.counter("client_wire_requests_total", &labels),
            retries: obs.counter("client_retries_total", &labels),
            budget_denied: obs.counter("client_budget_denied_total", &labels),
            timeouts: obs.counter("client_timeouts_total", &labels),
            rate_limited: obs.counter("client_rate_limited_total", &labels),
            backoff_seconds: obs.histogram("client_backoff_seconds", &labels, &BACKOFF_BOUNDS),
            obs: obs.clone(),
        }
    }
}

/// A client bound to one registered device.
#[derive(Debug, Clone)]
pub struct CloudClient {
    endpoint: CloudEndpoint,
    user: UserId,
    token: String,
    token_expires: SimTime,
    /// Monotonic sequence stamped on profile/place/route syncs so the
    /// server can drop stale (reordered or duplicated) deliveries.
    sync_seq: u64,
    /// Remaining wire sends in the current maintenance pass, when capped.
    budget: Option<u32>,
    /// Requests actually put on the wire (including retries).
    wire_requests: u64,
    /// Retry attempts beyond each first send.
    retries: u64,
    /// 429 responses received from admission control.
    rate_limited: u64,
    /// When true (the default), a 429's `retry_after_s` hint schedules the
    /// retry to exactly when the server says the token bucket refills —
    /// no jitter needed, buckets are per-user so there is no cross-client
    /// contention to spread. When false, 429s fall back to the same blind
    /// exponential backoff as 5xx (the baseline for the rate-limit study).
    honor_retry_after: bool,
    /// Monotonic logical-operation counter: trace ids are
    /// `SpanSink::trace_id(actor, op_seq)`, a pure function of the
    /// workload. Incremented before use, so sequence 0 stays the actor's
    /// timeline trace (`Obs::event`). Checkpointed in [`ClientState`], so
    /// a restored client continues the count.
    op_seq: u64,
    metrics: ClientMetrics,
}

impl CloudClient {
    /// Registers a device with the cloud and returns a ready client
    /// (§2.2.1: one-time registration request retrieving an auth token).
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] when registration fails after retries.
    pub fn register(
        endpoint: impl Into<CloudEndpoint>,
        imei: &str,
        email: &str,
        now: SimTime,
    ) -> Result<CloudClient, PmsError> {
        let endpoint = endpoint.into();
        let mut client = CloudClient {
            endpoint,
            user: UserId(0),
            token: String::new(),
            token_expires: now,
            sync_seq: 0,
            budget: None,
            wire_requests: 0,
            retries: 0,
            rate_limited: 0,
            honor_retry_after: true,
            op_seq: 0,
            metrics: ClientMetrics::default(),
        };
        let request = Request::post(
            "/api/v1/registration",
            RegistrationBody {
                imei: imei.to_owned(),
                email: email.to_owned(),
            },
        );
        let response = client.send_with_retry(&request, now, RequestClass::Auth);
        let response = Self::check(&request, response)?;
        let Payload::Registered {
            user,
            token,
            expires_at,
        } = response.body
        else {
            return Err(unexpected_reply(&request.path, &response.body));
        };
        client.user = user;
        client.token = token;
        client.token_expires = expires_at;
        Ok(client)
    }

    /// Reconstructs a client from checkpointed state (device reboot): no
    /// registration round-trip, and the sequence counters continue where
    /// they left off.
    pub fn from_state(endpoint: impl Into<CloudEndpoint>, state: ClientState) -> CloudClient {
        CloudClient {
            endpoint: endpoint.into(),
            user: state.user,
            token: state.token,
            token_expires: state.token_expires,
            sync_seq: state.sync_seq,
            budget: None,
            wire_requests: 0,
            retries: 0,
            rate_limited: 0,
            honor_retry_after: true,
            op_seq: state.op_seq,
            metrics: ClientMetrics::default(),
        }
    }

    /// Binds retry/backoff/budget/timeout accounting (and request spans)
    /// to `obs`, carrying the totals recorded so far. The default client
    /// records nothing, so instrumentation is free until a study opts in.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = ClientMetrics::resolve(obs);
        self.metrics.wire_requests.set(self.wire_requests);
        self.metrics.retries.set(self.retries);
        self.metrics.rate_limited.set(self.rate_limited);
    }

    /// The durable state to checkpoint.
    pub fn state(&self) -> ClientState {
        ClientState {
            user: self.user,
            token: self.token.clone(),
            token_expires: self.token_expires,
            sync_seq: self.sync_seq,
            op_seq: self.op_seq,
        }
    }

    /// The registered user id.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Requests actually sent on the wire so far, retries included.
    pub fn wire_requests(&self) -> u64 {
        self.wire_requests
    }

    /// Retry attempts performed beyond first sends.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// 429 responses received from the cloud's admission controller.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Whether 429 `retry_after_s` hints steer the retry schedule
    /// (default: they do). Disable to fall back to blind exponential
    /// backoff — useful as the baseline in rate-limit experiments.
    pub fn set_honor_retry_after(&mut self, honor: bool) {
        self.honor_retry_after = honor;
    }

    /// Caps the number of wire sends until [`CloudClient::end_maintenance_pass`]:
    /// a maintenance pass on a bad link must not spin through unbounded
    /// retries. Once exhausted, calls fail immediately with a synthetic
    /// [`STATUS_BUDGET_EXHAUSTED`] cloud error and the work is retried at
    /// the next pass.
    pub fn begin_maintenance_pass(&mut self, budget: u32) {
        self.budget = Some(budget);
    }

    /// Lifts the maintenance request cap.
    pub fn end_maintenance_pass(&mut self) {
        self.budget = None;
    }

    /// Re-registers the device after its token was irrecoverably lost
    /// (e.g. it expired while the cloud was unreachable). Registration is
    /// idempotent per device identity, so the same user id comes back.
    /// The sync sequence continues — it identifies the client's stream,
    /// not the token.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] while the cloud stays unreachable.
    pub fn reregister(&mut self, imei: &str, email: &str, now: SimTime) -> Result<(), PmsError> {
        let fresh = CloudClient::register(self.endpoint.clone(), imei, email, now)?;
        self.op_seq += fresh.op_seq;
        self.wire_requests += fresh.wire_requests;
        self.retries += fresh.retries;
        self.rate_limited += fresh.rate_limited;
        self.metrics.wire_requests.add(fresh.wire_requests);
        self.metrics.retries.add(fresh.retries);
        self.metrics.rate_limited.add(fresh.rate_limited);
        self.user = fresh.user;
        self.token = fresh.token;
        self.token_expires = fresh.token_expires;
        Ok(())
    }

    /// When the current token expires.
    pub fn token_expires(&self) -> SimTime {
        self.token_expires
    }

    /// Refreshes the token when it is within `margin` of expiry
    /// ("refreshed periodically based on its expiry time", §2.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] when the refresh is rejected.
    pub fn refresh_if_needed(
        &mut self,
        now: SimTime,
        margin: SimDuration,
    ) -> Result<bool, PmsError> {
        if now + margin < self.token_expires {
            return Ok(false);
        }
        let request =
            Request::post("/api/v1/token/refresh", Payload::Empty).with_token(&self.token);
        let response = self.send_with_retry(&request, now, RequestClass::Auth);
        let response = Self::check(&request, response)?;
        let Payload::TokenRefreshed { token, expires_at } = response.body else {
            return Err(unexpected_reply(&request.path, &response.body));
        };
        self.token = token;
        self.token_expires = expires_at;
        Ok(true)
    }

    /// Offloads GCA place discovery to the cloud (§2.3.1) and returns the
    /// discovered places. The suffix ships as one delta-compressed,
    /// dictionary-coded [`ObservationBatch`]. `start` is the offset of
    /// `observations[0]` in the device's full GSM log — the idempotency
    /// key that lets the server skip already-absorbed prefixes when a
    /// retried or duplicated offload re-delivers them.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] / [`PmsError::Decode`] on failure.
    pub fn discover_places(
        &mut self,
        observations: &[GsmObservation],
        start: u64,
        now: SimTime,
    ) -> Result<Vec<DiscoveredPlace>, PmsError> {
        let body = DiscoverBody {
            observations: Vec::new(),
            batch: Some(ObservationBatch::encode(observations)),
            start: Some(start),
        };
        let request = Request::post("/api/v1/places/discover", body).with_token(&self.token);
        let response = self.send_with_retry(&request, now, RequestClass::Offload);
        let response = Self::check(&request, response)?;
        match response.body {
            Payload::Discovered { places, .. } => Ok(places),
            body => Err(unexpected_reply(&request.path, &body)),
        }
    }

    /// Pushes the authoritative place list to the cloud. Stamped with the
    /// client's sync sequence so a reordered older snapshot can never
    /// clobber a newer one.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] on failure.
    pub fn sync_places(
        &mut self,
        places: &[DiscoveredPlace],
        now: SimTime,
    ) -> Result<(), PmsError> {
        let seq = self.next_seq();
        self.call_class(
            "/api/v1/places/sync",
            SyncPlacesBody {
                places: places.to_vec(),
                seq: Some(seq),
            },
            now,
            RequestClass::Sync,
        )?;
        Ok(())
    }

    /// Labels a place (§2.2.5 semantic labelling).
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] when the place is unknown server-side.
    pub fn label_place(
        &mut self,
        place: DiscoveredPlaceId,
        label: &str,
        now: SimTime,
    ) -> Result<(), PmsError> {
        self.call_class(
            "/api/v1/places/label",
            LabelBody {
                place,
                label: label.to_owned(),
            },
            now,
            RequestClass::Sync,
        )?;
        Ok(())
    }

    /// Syncs a day's mobility profile (§2.2.3). The sync sequence makes
    /// the upsert idempotent: duplicates and stale reorderings of the
    /// same day are acknowledged but not re-applied.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] on failure.
    pub fn sync_profile(
        &mut self,
        profile: &MobilityProfile,
        now: SimTime,
    ) -> Result<(), PmsError> {
        let seq = self.next_seq();
        self.call_class(
            "/api/v1/profiles/sync",
            SyncProfileBody {
                profile: profile.clone(),
                seq: Some(seq),
            },
            now,
            RequestClass::Sync,
        )?;
        Ok(())
    }

    /// Syncs the canonical route table.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] on failure.
    pub fn sync_routes(&mut self, routes: &[CanonicalRoute], now: SimTime) -> Result<(), PmsError> {
        let seq = self.next_seq();
        self.call_class(
            "/api/v1/routes/sync",
            SyncRoutesBody {
                routes: routes.to_vec(),
                seq: Some(seq),
            },
            now,
            RequestClass::Sync,
        )?;
        Ok(())
    }

    /// Syncs social contacts. `first_seq` is the stream offset of
    /// `contacts[0]` in the device's encounter stream; the server skips
    /// entries it already absorbed and the returned watermark tells the
    /// caller how far its buffer is acknowledged (and can be drained).
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] on failure.
    pub fn sync_contacts(
        &mut self,
        contacts: &[pmware_cloud::ContactEntry],
        first_seq: u64,
        now: SimTime,
    ) -> Result<u64, PmsError> {
        let path = "/api/v1/social/sync";
        let response = self.call_class(
            path,
            SyncContactsBody {
                contacts: contacts.to_vec(),
                first_seq: Some(first_seq),
            },
            now,
            RequestClass::Sync,
        )?;
        match response.body {
            Payload::ContactsAck { acked_upto, .. } => Ok(acked_upto),
            body => Err(unexpected_reply(path, &body)),
        }
    }

    /// Resolves a cell-set signature to approximate coordinates via the
    /// cloud's geolocation endpoint. Returns `None` when unknown.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] on transport-level failures (404 is
    /// mapped to `Ok(None)`).
    pub fn geolocate_signature(
        &mut self,
        cells: &[CellGlobalId],
        now: SimTime,
    ) -> Result<Option<GeoPoint>, PmsError> {
        let request = Request::post(
            "/api/v1/misc/geolocate_signature",
            GeolocateSignatureBody {
                cells: cells.to_vec(),
            },
        )
        .with_token(&self.token);
        let response = self.send_with_retry(&request, now, RequestClass::Query);
        if response.status == 404 {
            return Ok(None);
        }
        let response = Self::check(&request, response)?;
        let Payload::Position {
            latitude,
            longitude,
        } = response.body
        else {
            return Err(unexpected_reply(&request.path, &response.body));
        };
        GeoPoint::new(latitude, longitude)
            .map(Some)
            .map_err(|e| PmsError::Decode(e.to_string()))
    }

    /// Sends an arbitrary authenticated POST — the path apps use for
    /// analytics queries (§2.3.2). The body is a typed request body
    /// ([`Payload::Empty`] for the body-less activity query);
    /// [`Response::json`] renders any reply to its JSON spelling.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] for non-2xx responses.
    pub fn call(
        &mut self,
        path: &str,
        body: impl Into<Payload>,
        now: SimTime,
    ) -> Result<Response, PmsError> {
        self.call_class(path, body, now, RequestClass::Query)
    }

    /// Sends an authenticated GET.
    ///
    /// # Errors
    ///
    /// Returns [`PmsError::Cloud`] for non-2xx responses.
    pub fn get(&mut self, path: &str, now: SimTime) -> Result<Response, PmsError> {
        let request = Request::get(path).with_token(&self.token);
        let response = self.send_with_retry(&request, now, RequestClass::Query);
        Self::check(&request, response)
    }

    fn call_class(
        &mut self,
        path: &str,
        body: impl Into<Payload>,
        now: SimTime,
        class: RequestClass,
    ) -> Result<Response, PmsError> {
        let request = Request::post(path, body).with_token(&self.token);
        let response = self.send_with_retry(&request, now, class);
        Self::check(&request, response)
    }

    fn next_seq(&mut self) -> u64 {
        self.sync_seq += 1;
        self.sync_seq
    }

    /// One send consumes one unit of maintenance budget when a pass is
    /// active.
    fn take_budget(&mut self) -> bool {
        match &mut self.budget {
            None => true,
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }

    /// The retrying send loop. The request travels to the endpoint as a
    /// typed value; a wire-boundary endpoint (the fault decorator) renders
    /// its JSON bytes lazily via [`Request::wire_bytes`], and because that
    /// cache lives on the request, every retry reuses the first encoding —
    /// a retried request is byte-for-byte identical to its first send, and
    /// the idempotency keys inside the body are what make retries safe.
    /// Retry waits advance a *virtual* send clock (`now` plus the
    /// accumulated backoff), so the whole schedule is a pure function of
    /// simulated time.
    ///
    /// When the bound [`Obs`] carries a span sink, every call here opens
    /// one root span (`op:<path>`) whose children are the individual
    /// attempts and backoff waits; each attempt's [`SpanCtx`] rides on
    /// the request, so server-side participants (fault injections,
    /// federation re-handshakes, failover replay) attach their own spans
    /// under it. All ids of one trace are allocated from this thread, in
    /// call order — the tree is schedule-independent.
    fn send_with_retry(
        &mut self,
        request: &Request,
        now: SimTime,
        class: RequestClass,
    ) -> Response {
        self.op_seq += 1;
        let span = self.metrics.obs.spans().cloned().map(|sink| {
            let trace = SpanSink::trace_id(self.metrics.obs.actor(), self.op_seq);
            let root = sink.alloc(trace);
            (sink, trace, root)
        });
        let op_name = format!("op:{}", request.path);
        let start_us = now.as_seconds().saturating_mul(1_000_000);
        let mut at = now;
        let mut backoff = class.base_backoff();
        let mut attempt = 0;
        loop {
            let at_us = at.as_seconds().saturating_mul(1_000_000);
            if !self.take_budget() {
                self.metrics.budget_denied.inc();
                if let Some((sink, trace, root)) = &span {
                    sink.record(
                        *trace,
                        *root,
                        0,
                        &op_name,
                        start_us,
                        at_us,
                        &[
                            ("attempts", FieldValue::from(u64::from(attempt))),
                            (
                                "status",
                                FieldValue::from(u64::from(STATUS_BUDGET_EXHAUSTED)),
                            ),
                        ],
                    );
                }
                return Response::error(
                    STATUS_BUDGET_EXHAUSTED,
                    "maintenance request budget exhausted",
                );
            }
            self.wire_requests += 1;
            self.metrics.wire_requests.inc();
            let (response, end_us) = match &span {
                Some((sink, trace, root)) => {
                    let attempt_id = sink.alloc(*trace);
                    let tagged = request.clone().with_ctx(SpanCtx {
                        trace: *trace,
                        parent: attempt_id,
                    });
                    let response = self.endpoint.send(&tagged, at);
                    // The latency model's sub-second cost (queue + service
                    // µs) shows up only here; the client's sim-seconds
                    // retry clock never advances from it.
                    let end_us = at_us
                        + response
                            .latency_us()
                            .map_or(0, |(queue, service)| queue + service);
                    sink.record(
                        *trace,
                        attempt_id,
                        *root,
                        "attempt",
                        at_us,
                        end_us,
                        &[
                            ("attempt", FieldValue::from(u64::from(attempt))),
                            ("status", FieldValue::from(u64::from(response.status))),
                        ],
                    );
                    (response, end_us)
                }
                None => (self.endpoint.send(request, at), at_us),
            };
            if response.status == STATUS_TIMEOUT {
                self.metrics.timeouts.inc();
            }
            if response.status == STATUS_RATE_LIMITED {
                self.rate_limited += 1;
                self.metrics.rate_limited.inc();
            }
            if !retryable(response.status) || attempt + 1 >= class.max_attempts() {
                if let Some((sink, trace, root)) = &span {
                    sink.record(
                        *trace,
                        *root,
                        0,
                        &op_name,
                        start_us,
                        end_us,
                        &[
                            ("attempts", FieldValue::from(u64::from(attempt + 1))),
                            ("status", FieldValue::from(u64::from(response.status))),
                        ],
                    );
                }
                return response;
            }
            self.retries += 1;
            self.metrics.retries.inc();
            // A 429 carries the server's own refill horizon: waiting exactly
            // that long retries at the first admissible instant, with no
            // jitter (buckets are per-user, so there is no thundering herd
            // to spread). A guided wait does not advance the exponential
            // schedule either — the hint, not the attempt count, paces us.
            let hinted = if self.honor_retry_after {
                response.retry_after_s()
            } else {
                None
            };
            let wait = match hinted {
                Some(seconds) => SimDuration::from_seconds(seconds.max(1)),
                None => {
                    let jitter =
                        backoff_jitter(&request.path, attempt, at, backoff.as_seconds() / 2);
                    let wait = backoff + jitter;
                    backoff = SimDuration::from_seconds(
                        (backoff.as_seconds() * 2).min(class.max_backoff().as_seconds()),
                    );
                    wait
                }
            };
            self.metrics.backoff_seconds.observe(wait.as_seconds());
            if let Some((sink, trace, root)) = &span {
                let wake_us = (at + wait).as_seconds().saturating_mul(1_000_000);
                let backoff_id = sink.alloc(*trace);
                sink.record(
                    *trace,
                    backoff_id,
                    *root,
                    "backoff",
                    end_us,
                    wake_us,
                    &[("wait_s", FieldValue::from(wait.as_seconds()))],
                );
            }
            at += wait;
            attempt += 1;
        }
    }

    fn check(request: &Request, response: Response) -> Result<Response, PmsError> {
        if response.is_success() {
            Ok(response)
        } else {
            Err(PmsError::Cloud {
                path: request.path.clone(),
                status: response.status,
                message: response
                    .error_message()
                    .unwrap_or("unknown error")
                    .to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_cloud::{
        AdmissionConfig, CellDatabase, CloudInstance, FaultKind, FaultPlan, FaultyCloud,
        RateBudget, SharedCloud,
    };

    fn cloud() -> SharedCloud {
        SharedCloud::new(CloudInstance::new(CellDatabase::new(), 5))
    }

    /// A cloud running admission control: `burst` tokens per class, one
    /// back every `refill`.
    fn throttled(seed: u64, burst: u32, refill: SimDuration) -> SharedCloud {
        SharedCloud::new(CloudInstance::new(CellDatabase::new(), 5).with_admission(
            AdmissionConfig::uniform(seed, RateBudget::new(burst, refill)),
        ))
    }

    #[test]
    fn register_and_basic_flow() {
        let cloud = cloud();
        let mut client =
            CloudClient::register(cloud.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        assert_eq!(cloud.user_count(), 1);
        // Sync an empty place list.
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        // Fetch them back through the raw GET.
        let resp = client.get("/api/v1/places", SimTime::EPOCH).unwrap();
        assert_eq!(resp.json()["places"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn refresh_only_when_near_expiry() {
        let cloud = cloud();
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        // Far from expiry: no refresh.
        let refreshed = client
            .refresh_if_needed(SimTime::EPOCH, SimDuration::from_hours(2))
            .unwrap();
        assert!(!refreshed);
        // Near expiry: refresh happens and extends the horizon.
        let near = SimTime::EPOCH + SimDuration::from_hours(23);
        let old_expiry = client.token_expires();
        let refreshed = client
            .refresh_if_needed(near, SimDuration::from_hours(2))
            .unwrap();
        assert!(refreshed);
        assert!(client.token_expires() > old_expiry);
    }

    #[test]
    fn expired_token_surfaces_cloud_error() {
        let cloud = cloud();
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        let long_after = SimTime::EPOCH + SimDuration::from_days(3);
        let err = client.sync_places(&[], long_after).unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => assert_eq!(status, 401),
            other => panic!("expected cloud error, got {other}"),
        }
    }

    #[test]
    fn label_unknown_place_is_cloud_404() {
        let cloud = cloud();
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        let err = client
            .label_place(DiscoveredPlaceId(9), "Home", SimTime::EPOCH)
            .unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => assert_eq!(status, 404),
            other => panic!("expected cloud error, got {other}"),
        }
    }

    #[test]
    fn geolocate_unknown_signature_is_none() {
        let cloud = cloud();
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        let got = client.geolocate_signature(&[], SimTime::EPOCH).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn retries_ride_out_transient_drops() {
        // Drop the first two sync deliveries: attempts 1 and 2 time out,
        // attempt 3 lands. The caller never notices.
        let faulty = FaultyCloud::new(
            cloud(),
            FaultPlan::with_schedule(1, vec![(0, FaultKind::Drop), (1, FaultKind::Drop)])
                .only_path("/places/sync"),
        );
        let mut client =
            CloudClient::register(faulty.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        assert_eq!(client.retries(), 2);
        assert_eq!(faulty.stats().drops, 2);
    }

    #[test]
    fn persistent_failure_surfaces_after_max_attempts() {
        let faulty = FaultyCloud::new(
            cloud(),
            FaultPlan::with_rate(1, 1.0)
                .kinds(&[FaultKind::Error])
                .only_path("/places/sync"),
        );
        let mut client =
            CloudClient::register(faulty.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        let err = client.sync_places(&[], SimTime::EPOCH).unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => {
                assert_eq!(status, pmware_cloud::STATUS_INJECTED_ERROR);
            }
            other => panic!("expected cloud error, got {other}"),
        }
        // Sync class: 4 attempts were made, no more.
        assert_eq!(faulty.stats().errors, 4);
    }

    #[test]
    fn maintenance_budget_stops_the_spend() {
        let faulty = FaultyCloud::new(
            cloud(),
            FaultPlan::with_rate(1, 1.0)
                .kinds(&[FaultKind::Drop])
                .only_path("/places/sync"),
        );
        let mut client =
            CloudClient::register(faulty.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        client.begin_maintenance_pass(2);
        let err = client.sync_places(&[], SimTime::EPOCH).unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => assert_eq!(status, STATUS_BUDGET_EXHAUSTED),
            other => panic!("expected budget exhaustion, got {other}"),
        }
        assert_eq!(
            faulty.stats().drops,
            2,
            "only the budgeted sends hit the wire"
        );
        // Further calls fail immediately without touching the wire.
        let before = client.wire_requests();
        assert!(client.sync_places(&[], SimTime::EPOCH).is_err());
        assert_eq!(client.wire_requests(), before);
        // The next pass gets a fresh budget.
        client.end_maintenance_pass();
        faulty.set_enabled(false);
        client.sync_places(&[], SimTime::EPOCH).unwrap();
    }

    #[test]
    fn client_state_round_trips_through_serde() {
        let cloud = cloud();
        let mut client =
            CloudClient::register(cloud.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        let state = client.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: ClientState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        // The restored client keeps talking with the same token and
        // continues the sequence stream.
        let mut restored = CloudClient::from_state(cloud, back);
        restored.sync_places(&[], SimTime::EPOCH).unwrap();
        assert_eq!(restored.state().sync_seq, state.sync_seq + 1);
    }

    #[test]
    fn expired_token_401_then_reregister_recovers() {
        let cloud = cloud();
        let mut client =
            CloudClient::register(cloud.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        let user = client.user();
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        // Long after expiry every authenticated call 401s — including the
        // refresh, which cannot resurrect a dead token.
        let late = SimTime::EPOCH + SimDuration::from_days(3);
        let err = client
            .refresh_if_needed(late, SimDuration::from_hours(2))
            .unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => assert_eq!(status, 401),
            other => panic!("expected 401, got {other}"),
        }
        // Re-registration is idempotent per device identity: the same
        // user comes back and the sequence stream continues.
        client.reregister("imei-1", "a@x.com", late).unwrap();
        assert_eq!(client.user(), user);
        client.sync_places(&[], late).unwrap();
        assert_eq!(client.state().sync_seq, 2);
    }

    #[test]
    fn refresh_under_admission_pressure_converges() {
        // One Auth token per 30 s; registration is public so the initial
        // register does not spend it.
        let cloud = throttled(11, 1, SimDuration::from_seconds(30));
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        // An enormous margin forces a refresh on every call. The first
        // takes the only Auth token; the second is denied and converges
        // via the retry-after hint.
        let margin = SimDuration::from_days(30);
        assert!(client.refresh_if_needed(SimTime::EPOCH, margin).unwrap());
        let expires_before = client.token_expires();
        assert!(client.refresh_if_needed(SimTime::EPOCH, margin).unwrap());
        assert!(client.token_expires() >= expires_before);
        assert!(
            client.rate_limited() >= 1,
            "second refresh was throttled first"
        );
    }

    /// Run twice: in process, and across the byte boundary of a
    /// fault-free `FaultyCloud`, whose reply decode must keep the 429's
    /// `retry_after_s` hint.
    #[test]
    fn rate_limit_hint_guides_the_retry_to_the_refill_instant() {
        // One token, refilling every 10 minutes: far beyond what blind
        // exponential backoff could ride out within the Sync attempt
        // budget, but trivial when the hint is honored.
        let throttled = || throttled(7, 1, SimDuration::from_minutes(10));
        let endpoints: [CloudEndpoint; 2] = [
            throttled().into(),
            FaultyCloud::new(throttled(), FaultPlan::with_rate(0, 0.0)).into(),
        ];
        for endpoint in endpoints {
            let mut client =
                CloudClient::register(endpoint, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
            client.sync_places(&[], SimTime::EPOCH).unwrap();
            let before = client.wire_requests();
            client.sync_places(&[], SimTime::EPOCH).unwrap();
            // Exactly one 429 and one guided retry — no probing in between.
            assert_eq!(client.wire_requests() - before, 2);
            assert_eq!(client.rate_limited(), 1);
        }
    }

    #[test]
    fn blind_backoff_exhausts_attempts_against_a_long_refill() {
        let cloud = throttled(7, 1, SimDuration::from_minutes(10));
        let mut client = CloudClient::register(cloud, "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        client.set_honor_retry_after(false);
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        let err = client.sync_places(&[], SimTime::EPOCH).unwrap_err();
        match err {
            PmsError::Cloud { status, .. } => {
                assert_eq!(status, pmware_cloud::STATUS_RATE_LIMITED);
            }
            other => panic!("expected rate-limit error, got {other}"),
        }
        // All four Sync attempts burned against a bucket that never
        // refilled within the backoff horizon.
        assert_eq!(client.rate_limited(), 4);
    }

    /// One logical operation through two injected drops produces a full
    /// causal tree — root op span, three attempts, two backoff waits, and
    /// the server-side fault spans — and the export is byte-identical
    /// across runs of the same seed. A maintenance pass that runs out of
    /// budget leaves a root span with the synthetic status. The spans
    /// carry every fault, retry and budget denial the counters saw.
    #[test]
    fn spans_cover_retries_faults_and_are_deterministic() {
        let run = || {
            let obs = Obs::new().with_spans();
            let faulty = FaultyCloud::new(
                cloud(),
                FaultPlan::with_schedule(1, vec![(0, FaultKind::Drop), (1, FaultKind::Drop)])
                    .only_path("/places/sync"),
            )
            .with_obs(&obs.for_actor("cloud"));
            let mut client =
                CloudClient::register(faulty.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
            client.set_obs(&obs.for_actor("p0001"));
            client.sync_places(&[], SimTime::EPOCH).unwrap();
            client.begin_maintenance_pass(1);
            client.sync_places(&[], SimTime::EPOCH).unwrap();
            assert!(client.sync_places(&[], SimTime::EPOCH).is_err());
            client.end_maintenance_pass();
            let denials = obs
                .counter("client_budget_denied_total", &[("user", "p0001")])
                .get();
            let counts = (faulty.stats().faults, client.retries(), denials);
            (obs.spans_jsonl().unwrap(), counts)
        };
        let (jsonl, (faults, retries, denials)) = run();
        let named = |name: &str| {
            jsonl
                .lines()
                .filter(|line| line.contains(&format!("\"name\":\"{name}\"")))
                .count() as u64
        };
        assert_eq!(named("op:/api/v1/places/sync"), 3, "{jsonl}");
        assert_eq!(named("attempt"), 4, "{jsonl}");
        assert_eq!((faults, retries, denials), (2, 2, 1));
        assert_eq!(named("fault:drop"), faults, "one fault span per fault");
        assert_eq!(named("backoff"), retries, "one backoff span per retry");
        let denied_roots = jsonl
            .lines()
            .filter(|line| {
                line.contains("\"parent\":0,")
                    && line.contains(&format!("\"status\":{STATUS_BUDGET_EXHAUSTED}"))
            })
            .count() as u64;
        assert_eq!(denied_roots, denials, "one 597 root per budget denial");
        assert_eq!(
            jsonl.lines().count(),
            11,
            "first op: 1 root + 3 attempts + 2 backoffs + 2 faults; \
             second: 1 root + 1 attempt; denied: 1 root:\n{jsonl}"
        );
        assert_eq!(run().0, jsonl, "same seed, same bytes");
    }

    /// A rebooted client continues the operation count from its
    /// checkpoint, so its operations never reuse a trace id from before
    /// the reboot: every trace holds at most one `op:` root.
    #[test]
    fn a_restored_client_never_reuses_a_trace_id() {
        let obs = Obs::new().with_spans();
        let cloud = cloud();
        let mut client =
            CloudClient::register(cloud.clone(), "imei-1", "a@x.com", SimTime::EPOCH).unwrap();
        client.set_obs(&obs.for_actor("p0001"));
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        let mut restored = CloudClient::from_state(cloud, client.state());
        restored.set_obs(&obs.for_actor("p0001"));
        restored.sync_places(&[], SimTime::EPOCH).unwrap();
        restored.sync_places(&[], SimTime::EPOCH).unwrap();
        let jsonl = obs.spans_jsonl().unwrap();
        let mut roots = std::collections::BTreeMap::<u64, u32>::new();
        for line in jsonl.lines() {
            let span: serde_json::Value = serde_json::from_str(line).unwrap();
            if span["name"].as_str().is_some_and(|n| n.starts_with("op:")) {
                *roots.entry(span["trace"].as_u64().unwrap()).or_default() += 1;
            }
        }
        assert_eq!(roots.len(), 3, "three synced operations:\n{jsonl}");
        assert!(roots.values().all(|&n| n == 1), "{jsonl}");
    }

    /// Federation control-plane work joins the trace: a failover-displaced
    /// client's next call records a `rehandshake` child, and the WAL
    /// replay driven by the failover records `replay` children under the
    /// operation that originally sent each replayed request.
    #[test]
    fn federated_rehandshake_and_wal_replay_record_spans() {
        use pmware_cloud::topology::{BalancePolicy, TopologyRouter};
        let obs = Obs::disabled().with_spans();
        let router = TopologyRouter::new(BalancePolicy::RoundRobin).with_obs(&obs);
        for i in 0..2 {
            router.add_instance(SharedCloud::new(CloudInstance::new(
                CellDatabase::new(),
                40 + i,
            )));
        }
        let mut client =
            CloudClient::register(router.endpoint(), "imei-9", "f@x.com", SimTime::EPOCH).unwrap();
        client.set_obs(&obs.for_actor("p0009"));
        client.sync_places(&[], SimTime::EPOCH).unwrap();
        let home = router.instance_of("imei-9", "f@x.com").unwrap();
        router.kill_instance(home);
        let later = SimTime::EPOCH + SimDuration::from_hours(1);
        let report = router.fail_over(later);
        assert!(report.replayed >= 1, "{report:?}");
        // The displaced client's next call re-handshakes transparently.
        client.sync_places(&[], later).unwrap();
        let jsonl = obs.spans_jsonl().unwrap();
        assert!(jsonl.contains("\"name\":\"replay\""), "{jsonl}");
        assert!(jsonl.contains("\"name\":\"rehandshake\""), "{jsonl}");
        assert_eq!(client.retries(), 0, "the federation seam hid the move");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_capped() {
        let a = backoff_jitter("/api/v1/places/sync", 1, SimTime::from_seconds(60), 15);
        let b = backoff_jitter("/api/v1/places/sync", 1, SimTime::from_seconds(60), 15);
        assert_eq!(a, b);
        for attempt in 0..8 {
            for t in [0u64, 60, 3600] {
                let j = backoff_jitter("/p", attempt, SimTime::from_seconds(t), 15);
                assert!(j.as_seconds() <= 15);
            }
        }
    }
}
