//! Deterministic per-user token-bucket admission control.
//!
//! The paper's Azure deployment served every request it received and
//! simply fell over under load; a production-scale service for millions
//! of users must be able to *shed* load instead. This module is the
//! server-side half of that: each (user, [`RateClass`]) pair owns a token
//! bucket, all under one budget, refilled in **simulated time** — so an
//! admission decision is a pure function of the request stream and the
//! seed, and a run replays bit-identically (the same guarantee the fault
//! injector and the retry backoff already give).
//!
//! A denied request costs the server almost nothing: admission runs
//! before the auth and relocation checks in `CloudInstance::handle`, so a
//! 429 is computed from the one token validation the request path makes
//! anyway and one bucket update — no token refresh work and no user store
//! locks. Buckets are keyed by the *validated* caller: a request with a
//! missing, invalid, or expired token has no bucket and is answered 401
//! by auth, and the public routes (registration, health) are never
//! throttled, so a client can always get back in the door.
//! The 429 body carries `retry_after_s`, the exact simulated delay until
//! the bucket next holds a token, which the client uses to schedule its
//! retry instead of guessing with blind exponential backoff.
//!
//! Buckets are integer-arithmetic only (a token every `refill` interval,
//! capacity `burst`), and each bucket's refill phase is staggered by a
//! seeded hash of the user and class so whole cohorts do not refill — and
//! then stampede — in lockstep. Admission control is fixed when the
//! instance is built (`CloudInstance::with_admission`); an instance built
//! without it has no controller and admits every request.

use std::collections::HashMap;

use parking_lot::Mutex;
use pmware_world::{SimDuration, SimTime};

use crate::api::Response;
use crate::auth::UserId;
use crate::router::RateClass;

/// Synthetic status for an admission-control denial. Retryable — the
/// response body's `retry_after_s` says exactly when.
pub const STATUS_RATE_LIMITED: u16 = 429;

/// Budget of one rate class: a bucket holds at most `burst` tokens and
/// gains one every `refill`.
///
/// The fields are private, so [`RateBudget::new`]'s checks cannot be
/// bypassed — a zero refill would panic the first admitted request:
///
/// ```compile_fail
/// use pmware_cloud::RateBudget;
/// use pmware_world::SimDuration;
///
/// let _ = RateBudget { burst: 1, refill: SimDuration::from_seconds(0) };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateBudget {
    /// Maximum tokens a bucket can hold (burst capacity); at least 1.
    burst: u32,
    /// Interval per regained token; at least one second.
    refill: SimDuration,
}

impl RateBudget {
    /// A budget of `burst` tokens refilling one per `refill`.
    pub fn new(burst: u32, refill: SimDuration) -> RateBudget {
        assert!(burst > 0, "a rate budget needs at least one token of burst");
        assert!(
            refill.as_seconds() > 0,
            "a rate budget needs a non-zero refill interval"
        );
        RateBudget { burst, refill }
    }
}

/// Admission-control configuration: a seed (for refill-phase
/// staggering) plus the one [`RateBudget`] every [`RateClass`] runs
/// under. Each (user, class) pair still owns its own bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Seed for the deterministic per-bucket refill phase stagger.
    pub seed: u64,
    /// The budget of every (user, class) bucket.
    pub budget: RateBudget,
}

impl AdmissionConfig {
    /// The same budget for every class.
    pub fn uniform(seed: u64, budget: RateBudget) -> AdmissionConfig {
        AdmissionConfig { seed, budget }
    }
}

/// One token bucket. `level` tokens are available now; when not full, the
/// next token lands at `refill_at`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    level: u32,
    /// Instant the next token is added (meaningful only when
    /// `level < burst`).
    refill_at: SimTime,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Request may proceed.
    Admit,
    /// Request is shed; a token becomes available in `retry_after`.
    Deny {
        /// Simulated delay until the bucket next holds a token.
        retry_after: SimDuration,
    },
}

/// Deterministic admission controller: an [`AdmissionConfig`] plus the
/// token buckets, all of which start full.
#[derive(Debug)]
pub(crate) struct AdmissionControl {
    config: AdmissionConfig,
    buckets: Mutex<HashMap<(UserId, RateClass), Bucket>>,
}

/// FNV-flavored stagger hash: the initial refill phase of a bucket,
/// deterministic in (seed, user, class).
fn phase(seed: u64, user: UserId, class: RateClass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    h = (h ^ u64::from(user.0)).wrapping_mul(0x0000_0100_0000_01b3);
    h = (h ^ class.label().len() as u64 ^ u64::from(class.label().as_bytes()[0]))
        .wrapping_mul(0x0000_0100_0000_01b3);
    h ^= h >> 33;
    h
}

impl AdmissionControl {
    /// A controller running `config`. All buckets start full (a
    /// client's first burst is never shed).
    pub(crate) fn new(config: AdmissionConfig) -> AdmissionControl {
        AdmissionControl {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Decides one request for `user` in `class` at simulated instant
    /// `now`, consuming a token when admitted.
    pub(crate) fn admit(&self, user: UserId, class: RateClass, now: SimTime) -> Admission {
        let AdmissionConfig { seed, budget } = self.config;
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry((user, class)).or_insert_with(|| {
            // Full bucket; the first refill after the burst drains is
            // staggered by the seeded phase so cohorts don't sync up.
            let stagger = phase(seed, user, class) % budget.refill.as_seconds();
            Bucket {
                level: budget.burst,
                refill_at: now + SimDuration::from_seconds(stagger),
            }
        });
        // Credit refills that have matured. Client retry clocks can run
        // ahead of the next tick's wall of simulated time, so `now` is
        // not guaranteed monotonic per bucket — earlier instants simply
        // earn no credit.
        if bucket.level < budget.burst && now >= bucket.refill_at {
            let elapsed = now.since(bucket.refill_at).as_seconds();
            let earned = 1 + elapsed / budget.refill.as_seconds();
            let earned = earned.min(u64::from(budget.burst - bucket.level)) as u32;
            bucket.level += earned;
            bucket.refill_at +=
                SimDuration::from_seconds(u64::from(earned) * budget.refill.as_seconds());
        }
        if bucket.level > 0 {
            if bucket.level == budget.burst {
                // Taking the first token from a full bucket starts the
                // refill clock fresh (plus the seeded stagger kept from
                // creation is only used for the very first drain).
                bucket.refill_at = now + budget.refill;
            }
            bucket.level -= 1;
            Admission::Admit
        } else {
            let retry_after = if bucket.refill_at > now {
                bucket.refill_at.since(now)
            } else {
                // Matured but capped by burst arithmetic above — a token
                // is due immediately; tell the client to come right back.
                SimDuration::from_seconds(1)
            };
            Admission::Deny { retry_after }
        }
    }

    /// The 429 response for a denial.
    pub(crate) fn deny_response(class: RateClass, retry_after: SimDuration) -> Response {
        Response::with_status(
            STATUS_RATE_LIMITED,
            crate::payload::Payload::RateLimited {
                class,
                retry_after_s: retry_after.as_seconds(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(burst: u32, refill_s: u64) -> RateBudget {
        RateBudget::new(burst, SimDuration::from_seconds(refill_s))
    }

    #[test]
    fn burst_then_deny_then_refill() {
        let ac = AdmissionControl::new(AdmissionConfig::uniform(7, budget(2, 60)));
        let t0 = SimTime::from_seconds(0);
        assert_eq!(ac.admit(UserId(0), RateClass::Ingest, t0), Admission::Admit);
        assert_eq!(ac.admit(UserId(0), RateClass::Ingest, t0), Admission::Admit);
        let denied = ac.admit(UserId(0), RateClass::Ingest, t0);
        let Admission::Deny { retry_after } = denied else {
            panic!("burst exhausted must deny, got {denied:?}");
        };
        assert_eq!(
            retry_after.as_seconds(),
            60,
            "token due one refill after first take"
        );
        // Exactly at the hinted instant, the request is admitted.
        let t1 = t0 + retry_after;
        assert_eq!(ac.admit(UserId(0), RateClass::Ingest, t1), Admission::Admit);
        // ...and the bucket is empty again right after.
        assert!(matches!(
            ac.admit(UserId(0), RateClass::Ingest, t1),
            Admission::Deny { .. }
        ));
    }

    #[test]
    fn users_and_classes_have_independent_buckets() {
        let ac = AdmissionControl::new(AdmissionConfig::uniform(3, budget(1, 60)));
        let t = SimTime::EPOCH;
        assert_eq!(ac.admit(UserId(0), RateClass::Ingest, t), Admission::Admit);
        assert!(matches!(
            ac.admit(UserId(0), RateClass::Ingest, t),
            Admission::Deny { .. }
        ));
        // Another user and another class are untouched.
        assert_eq!(ac.admit(UserId(1), RateClass::Ingest, t), Admission::Admit);
        assert_eq!(ac.admit(UserId(0), RateClass::Query, t), Admission::Admit);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| -> Vec<bool> {
            let ac = AdmissionControl::new(AdmissionConfig::uniform(seed, budget(2, 45)));
            (0..60)
                .map(|i| {
                    let t = SimTime::from_seconds(i * 10);
                    ac.admit(UserId(i as u32 % 3), RateClass::Ingest, t) == Admission::Admit
                })
                .collect()
        };
        assert_eq!(run(5), run(5), "same seed must replay identically");
    }

    #[test]
    fn non_monotonic_time_earns_no_credit() {
        let ac = AdmissionControl::new(AdmissionConfig::uniform(2, budget(1, 60)));
        let t = SimTime::from_seconds(1_000);
        assert_eq!(ac.admit(UserId(0), RateClass::Ingest, t), Admission::Admit);
        // An earlier instant (a stale retry clock) must not mint tokens
        // or panic on negative elapsed time.
        let earlier = SimTime::from_seconds(10);
        assert!(matches!(
            ac.admit(UserId(0), RateClass::Ingest, earlier),
            Admission::Deny { .. }
        ));
    }

    /// Sweeps a jittery, partially reordered request schedule over two
    /// users and asserts no denial ever hints `retry_after_s == 0` — a
    /// zero hint would tell the client to retry at the same instant and
    /// busy-spin, so the boundary must always resolve to admit-now or a
    /// hint of at least one second.
    #[test]
    fn hints_are_never_zero_under_any_schedule() {
        let ac = AdmissionControl::new(AdmissionConfig::uniform(11, budget(3, 17)));
        let mut denies = 0;
        for i in 0..500u64 {
            // Every fifth step replays a stale clock 40 steps behind.
            let step = if i % 5 == 3 { i.saturating_sub(40) } else { i };
            let t = SimTime::from_seconds(step * 3);
            if let Admission::Deny { retry_after } =
                ac.admit(UserId((i % 2) as u32), RateClass::Query, t)
            {
                denies += 1;
                assert!(retry_after.as_seconds() >= 1, "zero hint at step {i}");
            }
        }
        assert!(denies > 0, "schedule never outpaced the budget");
    }
}
