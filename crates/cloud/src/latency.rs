//! Sim-time request latency: per-endpoint service-time draws plus
//! deterministic queueing and load shedding.
//!
//! The paper's Azure deployment measured request latency with a
//! stopwatch; a simulated deployment has no wall clock, so latency must
//! be *modeled*. Each endpoint gets a deterministic service-time
//! distribution (`base + seeded jitter`, integer microseconds), and every
//! instance runs a queue in front of its handlers: a request's completion
//! is `arrival + queue wait + service draw`. The numbers land in
//! `cloud_request_latency_us{endpoint,class}` histograms, in the health
//! probe (`queue_depth`, `p99_us`), and — when shedding is configured —
//! in 429 answers whose `retry_after_s` is the queue's actual drain time.
//!
//! # Determinism
//!
//! Everything here is a pure function of `(seed, endpoint, arrival
//! second)` and each user's own sequential request stream:
//!
//! * The **service draw** has no user or token component — tokens and
//!   user-id assignment race across thread schedules, so nothing
//!   metric-visible may derive from them.
//! * The default queue mode, [`QueueMode::PerUser`], gives every
//!   validated user an independent lane. A lane is only ever touched by
//!   its own user's (sequential) request stream, so waits, sheds, and
//!   histogram observations are schedule-independent, and the aggregates
//!   are commutative — byte-identical exports at any thread count.
//! * [`QueueMode::Shared`] is a single per-instance FIFO — the honest
//!   model for capacity planning (cross-user contention is the whole
//!   point) — and is therefore only meaningful under a single-threaded
//!   driver, where arrival order is the program order.
//!
//! Requests without a validated user (public registration, invalid
//! tokens) are never queued: their cost is the bare service draw. Queuing
//! them would couple users through a shared lane keyed on nothing.
//!
//! Disabled (the default), the model is one relaxed atomic load per
//! request and adds **zero** metric keys, so existing golden exports are
//! byte-unmodified.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use pmware_obs::{Counter, Histogram, Obs};
use pmware_world::{SimDuration, SimTime};

use crate::auth::UserId;
use crate::router::{RateClass, ENDPOINT_COUNT, ROUTES};

/// Histogram bucket upper bounds for request latency, in microseconds:
/// 100µs to 5s, roughly ×2.5 per step. Everything slower lands in the
/// overflow bucket.
pub const LATENCY_BOUNDS_US: [u64; 15] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// Service-time distribution of one endpoint: `base_us` plus a seeded
/// draw in `[0, jitter_us]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointCost {
    /// Minimum service time, microseconds.
    pub base_us: u64,
    /// Jitter span: the draw adds `0..=jitter_us` microseconds.
    pub jitter_us: u64,
}

impl EndpointCost {
    /// A cost of `base_us` plus up to `jitter_us` of seeded jitter.
    pub const fn new(base_us: u64, jitter_us: u64) -> EndpointCost {
        EndpointCost { base_us, jitter_us }
    }
}

/// Queueing discipline of an instance (see the module docs for the
/// determinism trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// One independent FIFO lane per validated user (the default):
    /// schedule-independent, byte-identical at any thread count.
    PerUser,
    /// One FIFO for the whole instance: models cross-user contention,
    /// meaningful only under a single-threaded driver.
    Shared,
}

/// Queue configuration: discipline plus the shed threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Queueing discipline.
    pub mode: QueueMode,
    /// Shed requests arriving at a queue already holding this many
    /// unfinished requests; `0` never sheds.
    pub shed_depth: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            mode: QueueMode::PerUser,
            shed_depth: 0,
        }
    }
}

/// The latency model of one instance: a seed, a service-time cost per
/// endpoint (indexed by [`crate::router::endpoint_index`]), and the queue
/// discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Seed folded into every service-time draw.
    pub seed: u64,
    /// Per-endpoint cost, indexed like [`crate::router::ENDPOINT_LABELS`]
    /// (the last slot covers unrouted `other` requests).
    pub costs: [EndpointCost; ENDPOINT_COUNT],
    /// Queueing discipline and shed threshold.
    pub queue: QueueConfig,
}

impl LatencyProfile {
    /// The same cost for every endpoint.
    pub fn uniform(seed: u64, base_us: u64, jitter_us: u64) -> LatencyProfile {
        LatencyProfile {
            seed,
            costs: [EndpointCost::new(base_us, jitter_us); ENDPOINT_COUNT],
            queue: QueueConfig::default(),
        }
    }

    /// Endpoint costs shaped like the paper's Azure tiers: auth and
    /// discovery are the expensive writes, syncs sit in the middle,
    /// queries are cheap, analytics pay for model work, and the health
    /// probe is near-free.
    pub fn calibrated(seed: u64) -> LatencyProfile {
        let mut profile = LatencyProfile::uniform(seed, 800, 400);
        for (index, route) in ROUTES.iter().enumerate() {
            profile.costs[index] = match route.label {
                "register" | "token_refresh" => EndpointCost::new(2_500, 1_000),
                "places_discover" => EndpointCost::new(5_000, 2_500),
                "health" => EndpointCost::new(50, 25),
                _ => match route.rate_class {
                    RateClass::Ingest => EndpointCost::new(1_500, 750),
                    RateClass::Analytics => EndpointCost::new(2_000, 1_000),
                    RateClass::Auth | RateClass::Query => EndpointCost::new(800, 400),
                },
            };
        }
        profile
    }

    /// Overrides the queue configuration.
    pub fn with_queue(mut self, queue: QueueConfig) -> LatencyProfile {
        self.queue = queue;
        self
    }
}

/// The latency verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOutcome {
    /// Model disabled: the request costs nothing.
    Pass,
    /// The request waited `queue_us` then took `service_us` to serve.
    Timed {
        /// Microseconds spent queued before service began.
        queue_us: u64,
        /// Microseconds of service time.
        service_us: u64,
    },
    /// The queue was over its shed threshold; retry when it drains.
    Shed {
        /// Simulated delay until the queue has drained.
        retry_after: SimDuration,
    },
}

/// One FIFO lane: the completion instants (absolute µs) of its admitted,
/// not-yet-finished requests. Arrivals drain finished entries first, so
/// `len()` after a drain *is* the queue depth.
#[derive(Debug, Default)]
struct Lane {
    completions: VecDeque<u64>,
}

impl Lane {
    /// Drops completions at or before `now_us`; returns the depth left.
    fn drain(&mut self, now_us: u64) -> u64 {
        while self.completions.front().is_some_and(|&c| c <= now_us) {
            self.completions.pop_front();
        }
        self.completions.len() as u64
    }

    /// Admits a request arriving at `arrival_us` needing `service_us`,
    /// unless the post-drain depth has reached `shed_depth` (0 = never
    /// shed). Returns the queue wait, or the drain hint on shed.
    fn admit(&mut self, arrival_us: u64, service_us: u64, shed_depth: u64) -> Result<u64, u64> {
        let depth = self.drain(arrival_us);
        let busy_until = self.completions.back().copied().unwrap_or(arrival_us);
        if shed_depth > 0 && depth >= shed_depth {
            return Err(busy_until.saturating_sub(arrival_us));
        }
        let start = busy_until.max(arrival_us);
        self.completions.push_back(start + service_us);
        Ok(start - arrival_us)
    }
}

#[derive(Debug)]
struct LatencyState {
    profile: LatencyProfile,
    /// Per-user lanes ([`QueueMode::PerUser`]).
    lanes: HashMap<UserId, Lane>,
    /// The single instance lane ([`QueueMode::Shared`]).
    shared: Lane,
    /// Local cumulative histogram over [`LATENCY_BOUNDS_US`] (plus an
    /// overflow slot), all endpoints merged — the health probe's p99 is
    /// read from here, never from the (possibly shared) registry.
    buckets: [u64; LATENCY_BOUNDS_US.len() + 1],
    observed: u64,
    /// Registry histograms per endpoint, resolved at enable time — a
    /// disabled model must add zero metric keys.
    histograms: Vec<Histogram>,
    shed_total: Counter,
    /// Local shed count — the accessor must work even when the registry
    /// counter is a no-op (metrics disabled).
    sheds: u64,
}

/// The per-instance latency controller. Disabled by default (one relaxed
/// atomic load per request); [`LatencyControl::enable`] installs a
/// [`LatencyProfile`] and resolves the latency histograms against the
/// instance's metrics registry.
#[derive(Debug)]
pub struct LatencyControl {
    enabled: AtomicBool,
    state: Mutex<LatencyState>,
}

impl Default for LatencyControl {
    fn default() -> Self {
        LatencyControl {
            enabled: AtomicBool::new(false),
            state: Mutex::new(LatencyState {
                profile: LatencyProfile::uniform(0, 0, 0),
                lanes: HashMap::new(),
                shared: Lane::default(),
                buckets: [0; LATENCY_BOUNDS_US.len() + 1],
                observed: 0,
                histograms: Vec::new(),
                shed_total: Counter::noop(),
                sheds: 0,
            }),
        }
    }
}

/// FNV-flavored service-time jitter: deterministic in
/// `(seed, endpoint, arrival second)` — deliberately **not** in the user
/// (see the module docs).
fn jitter(seed: u64, endpoint: usize, second: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    h = (h ^ endpoint as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h = (h ^ second).wrapping_mul(0x0000_0100_0000_01b3);
    h ^= h >> 33;
    h
}

impl LatencyControl {
    /// Installs `profile`, resolves the latency surfaces against `obs`
    /// (`cloud_request_latency_us{endpoint,class}` histograms and the
    /// `cloud_queue_shed_total` counter), and enables the model. All
    /// queues start empty.
    pub fn enable(&self, profile: LatencyProfile, obs: &Obs) {
        let mut state = self.state.lock();
        state.histograms = ROUTES
            .iter()
            .map(|route| (route.label, route.rate_class))
            .chain(std::iter::once(("other", RateClass::Query)))
            .map(|(label, class)| {
                obs.histogram(
                    "cloud_request_latency_us",
                    &[("class", class.label()), ("endpoint", label)],
                    &LATENCY_BOUNDS_US,
                )
            })
            .collect();
        state.shed_total = obs.counter("cloud_queue_shed_total", &[]);
        state.lanes.clear();
        state.shared = Lane::default();
        state.buckets = [0; LATENCY_BOUNDS_US.len() + 1];
        state.observed = 0;
        state.sheds = 0;
        state.profile = profile;
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Disables the model (queues are dropped; already-recorded metric
    /// keys keep their values, like every other registry counter).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        let mut state = self.state.lock();
        state.lanes.clear();
        state.shared = Lane::default();
    }

    /// Whether the model is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Times one request hitting `endpoint` at simulated instant `now`.
    /// `user` is the *validated* caller — `None` (public or bad-token
    /// requests) skips queueing and pays only the service draw.
    pub fn process(&self, endpoint: usize, user: Option<UserId>, now: SimTime) -> QueueOutcome {
        if !self.is_enabled() {
            return QueueOutcome::Pass;
        }
        let mut state = self.state.lock();
        let second = now.as_seconds();
        let arrival_us = second.saturating_mul(1_000_000);
        let cost = state.profile.costs[endpoint.min(ENDPOINT_COUNT - 1)];
        let service_us =
            cost.base_us + jitter(state.profile.seed, endpoint, second) % (cost.jitter_us + 1);
        let shed_depth = state.profile.queue.shed_depth;
        let admitted = match (state.profile.queue.mode, user) {
            (_, None) => Ok(0),
            (QueueMode::PerUser, Some(user)) => state
                .lanes
                .entry(user)
                .or_default()
                .admit(arrival_us, service_us, shed_depth),
            (QueueMode::Shared, Some(_)) => state.shared.admit(arrival_us, service_us, shed_depth),
        };
        match admitted {
            Ok(queue_us) => {
                let total = queue_us + service_us;
                let slot = LATENCY_BOUNDS_US.partition_point(|&b| b < total);
                state.buckets[slot] += 1;
                state.observed += 1;
                if let Some(histogram) = state.histograms.get(endpoint) {
                    histogram.observe(total);
                }
                QueueOutcome::Timed {
                    queue_us,
                    service_us,
                }
            }
            Err(drain_us) => {
                state.shed_total.inc();
                state.sheds += 1;
                QueueOutcome::Shed {
                    retry_after: SimDuration::from_seconds(drain_us.div_ceil(1_000_000).max(1)),
                }
            }
        }
    }

    /// The health probe's view: `(queue depth, p99 latency µs)` at `now`.
    /// Depth is the count of admitted, unfinished requests (summed over
    /// lanes in [`QueueMode::PerUser`]); p99 comes from the local
    /// cumulative histogram (0 before any observation, the largest bound
    /// is reported for overflow). `(0, 0)` while disabled.
    pub fn health_stats(&self, now: SimTime) -> (u64, u64) {
        if !self.is_enabled() {
            return (0, 0);
        }
        let mut state = self.state.lock();
        let now_us = now.as_seconds().saturating_mul(1_000_000);
        let depth = match state.profile.queue.mode {
            QueueMode::Shared => state.shared.drain(now_us),
            QueueMode::PerUser => {
                let mut depth = 0;
                for lane in state.lanes.values_mut() {
                    depth += lane.drain(now_us);
                }
                depth
            }
        };
        (depth, Self::p99(&state))
    }

    /// Total requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.state.lock().sheds
    }

    fn p99(state: &LatencyState) -> u64 {
        if state.observed == 0 {
            return 0;
        }
        // ceil(0.99 · observed) without floats.
        let rank = state.observed.saturating_mul(99).div_ceil(100).max(1);
        let mut seen = 0;
        for (slot, count) in state.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LATENCY_BOUNDS_US
                    .get(slot)
                    .copied()
                    .unwrap_or(LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1]);
            }
        }
        LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_seconds(s)
    }

    fn enabled(profile: LatencyProfile) -> LatencyControl {
        let control = LatencyControl::default();
        control.enable(profile, &Obs::disabled());
        control
    }

    #[test]
    fn disabled_passes_everything() {
        let control = LatencyControl::default();
        assert_eq!(
            control.process(0, Some(UserId(1)), t(5)),
            QueueOutcome::Pass
        );
        assert_eq!(control.health_stats(t(5)), (0, 0));
    }

    #[test]
    fn service_draw_is_deterministic_and_bounded() {
        let control = enabled(LatencyProfile::uniform(7, 1_000, 500));
        let QueueOutcome::Timed {
            queue_us,
            service_us,
        } = control.process(2, None, t(100))
        else {
            panic!("expected a timed outcome");
        };
        assert_eq!(queue_us, 0, "unvalidated requests never queue");
        assert!((1_000..=1_500).contains(&service_us), "{service_us}");
        // Same (seed, endpoint, second) ⇒ same draw.
        let again = enabled(LatencyProfile::uniform(7, 1_000, 500));
        assert_eq!(
            again.process(2, None, t(100)),
            control.process(2, None, t(100))
        );
        // A different seed moves the jitter.
        let other = enabled(LatencyProfile::uniform(8, 1_000, 0));
        let QueueOutcome::Timed { service_us, .. } = other.process(2, None, t(100)) else {
            panic!("expected a timed outcome");
        };
        assert_eq!(service_us, 1_000, "zero jitter is exactly base");
    }

    #[test]
    fn per_user_lanes_queue_independently() {
        let control = enabled(LatencyProfile::uniform(1, 600_000, 0));
        // Two back-to-back requests from one user in the same second: the
        // second waits for the first.
        let QueueOutcome::Timed { queue_us, .. } = control.process(3, Some(UserId(1)), t(10))
        else {
            panic!()
        };
        assert_eq!(queue_us, 0);
        let QueueOutcome::Timed { queue_us, .. } = control.process(3, Some(UserId(1)), t(10))
        else {
            panic!()
        };
        assert_eq!(queue_us, 600_000);
        // A different user's lane is empty.
        let QueueOutcome::Timed { queue_us, .. } = control.process(3, Some(UserId(2)), t(10))
        else {
            panic!()
        };
        assert_eq!(queue_us, 0);
    }

    #[test]
    fn shared_mode_couples_users_and_sheds() {
        let profile = LatencyProfile::uniform(1, 2_000_000, 0).with_queue(QueueConfig {
            mode: QueueMode::Shared,
            shed_depth: 2,
        });
        let control = enabled(profile);
        assert!(matches!(
            control.process(3, Some(UserId(1)), t(0)),
            QueueOutcome::Timed { queue_us: 0, .. }
        ));
        // Second request (other user!) waits behind the first.
        assert!(matches!(
            control.process(3, Some(UserId(2)), t(0)),
            QueueOutcome::Timed {
                queue_us: 2_000_000,
                ..
            }
        ));
        // Third arrival sees depth 2 == shed_depth: shed, with the drain
        // time (4 s of backlog) as the hint.
        let QueueOutcome::Shed { retry_after } = control.process(3, Some(UserId(1)), t(0)) else {
            panic!("expected a shed");
        };
        assert_eq!(retry_after.as_seconds(), 4);
        assert_eq!(control.shed_count(), 1);
        // After the backlog drains, the queue admits again.
        assert!(matches!(
            control.process(3, Some(UserId(1)), t(4)),
            QueueOutcome::Timed { queue_us: 0, .. }
        ));
    }

    #[test]
    fn health_stats_report_depth_and_p99() {
        let control = enabled(LatencyProfile::uniform(1, 400, 0));
        for _ in 0..3 {
            control.process(3, Some(UserId(1)), t(0));
        }
        let (depth, p99) = control.health_stats(t(0));
        assert_eq!(depth, 3, "three unfinished requests in the lane");
        // Latencies are 400, 800, 1200 µs → p99 is the 1200 µs one,
        // reported as its bucket bound.
        assert_eq!(p99, 2_500);
        // After everything drains the depth drops to zero; p99 persists.
        let (depth, p99) = control.health_stats(t(10));
        assert_eq!(depth, 0);
        assert_eq!(p99, 2_500);
    }

    #[test]
    fn enable_resolves_registry_histograms() {
        let obs = Obs::new();
        let control = LatencyControl::default();
        control.enable(LatencyProfile::uniform(1, 300, 0), &obs);
        control.process(4, Some(UserId(1)), t(0));
        let json = obs.metrics_json().unwrap();
        assert!(
            json.contains(
                "cloud_request_latency_us{class=\\\"query\\\",endpoint=\\\"places_list\\\"}"
            ) || json.contains("cloud_request_latency_us"),
            "{json}"
        );
    }

    #[test]
    fn same_schedule_same_outcomes() {
        let run = || {
            let control = enabled(LatencyProfile::uniform(9, 700, 300));
            (0..50u64)
                .map(|i| control.process((i % 21) as usize, Some(UserId((i % 3) as u32)), t(i / 2)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
