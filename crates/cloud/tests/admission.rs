//! Admission-control behavior through the full middleware stack: seeded
//! determinism, 429 shape, budget isolation between users and classes,
//! and the disabled-by-default invariant.

use pmware_cloud::{
    AdmissionConfig, CellDatabase, CloudInstance, RateBudget, Request, STATUS_RATE_LIMITED,
};
use pmware_world::{SimDuration, SimTime};
use serde_json::json;

fn register(cloud: &CloudInstance, n: u32) -> String {
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": format!("imei-{n}"), "email": format!("u{n}@x.com")}),
        ),
        SimTime::EPOCH,
    );
    assert!(resp.is_success());
    resp.json()["token"].as_str().unwrap().to_owned()
}

/// Replays a fixed query schedule against a fresh instance and returns
/// the full status sequence.
fn status_trace(seed: u64) -> Vec<u16> {
    let cloud = CloudInstance::new(CellDatabase::new(), 42).with_admission(
        AdmissionConfig::uniform(seed, RateBudget::new(2, SimDuration::from_seconds(60))),
    );
    let token = register(&cloud, 0);
    (0..40)
        .map(|i| {
            let now = SimTime::EPOCH + SimDuration::from_seconds(i * 7);
            cloud
                .handle(&Request::get("/api/v1/places").with_token(&token), now)
                .status
        })
        .collect()
}

#[test]
fn same_seed_produces_identical_429_sequence() {
    let first = status_trace(9);
    let second = status_trace(9);
    assert_eq!(first, second);
    // The schedule outpaces the budget, so both outcomes occur: the trace
    // is a real interleaving, not all-pass or all-deny.
    assert!(first.contains(&STATUS_RATE_LIMITED));
    assert!(first.contains(&200));
}

#[test]
fn deny_carries_an_exact_retry_after_hint() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(3, RateBudget::new(1, SimDuration::from_seconds(45))),
    );
    let token = register(&cloud, 0);
    let list = Request::get("/api/v1/places").with_token(&token);
    assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    let denied = cloud.handle(&list, SimTime::EPOCH);
    assert_eq!(denied.status, STATUS_RATE_LIMITED);
    let hint = denied.json()["retry_after_s"].as_u64().unwrap();
    assert!(hint > 0 && hint <= 45, "hint {hint} out of range");
    // Waiting exactly the hint is sufficient: the very next request at
    // that instant is admitted.
    let retry_at = SimTime::EPOCH + SimDuration::from_seconds(hint);
    assert!(cloud.handle(&list, retry_at).is_success());
    assert_eq!(cloud.admission_denials(), 1);
}

#[test]
fn budgets_are_per_user_and_per_class() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(3, RateBudget::new(1, SimDuration::from_minutes(10))),
    );
    let alice = register(&cloud, 0);
    let bob = register(&cloud, 1);
    let list = |token: &str| Request::get("/api/v1/places").with_token(token);
    // Alice exhausts her Query budget.
    assert!(cloud.handle(&list(&alice), SimTime::EPOCH).is_success());
    assert_eq!(
        cloud.handle(&list(&alice), SimTime::EPOCH).status,
        STATUS_RATE_LIMITED
    );
    // Bob's bucket is untouched by Alice's spend.
    assert!(cloud.handle(&list(&bob), SimTime::EPOCH).is_success());
    // Alice's Ingest class has its own bucket: a sync still goes through.
    let sync = Request::post_json("/api/v1/places/sync", json!({"places": [], "seq": 1}))
        .with_token(&alice);
    assert!(cloud.handle(&sync, SimTime::EPOCH).is_success());
}

#[test]
fn registration_is_never_throttled() {
    // A user over budget must always be able to re-register: the only
    // public route is exempt from admission control.
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(3, RateBudget::new(1, SimDuration::from_minutes(10))),
    );
    for _ in 0..10 {
        let resp = cloud.handle(
            &Request::post_json(
                "/api/v1/registration",
                json!({"imei": "imei-0", "email": "u0@x.com"}),
            ),
            SimTime::EPOCH,
        );
        assert!(resp.is_success());
    }
}

/// The boundary case the hint arithmetic must get right: one second
/// before the bucket refills the hint is exactly 1 — never 0, which
/// would tell the client to retry at the same instant and busy-spin —
/// and at the refill instant itself the request is admitted outright,
/// so a 0-second hint is never needed.
#[test]
fn hint_is_one_just_before_the_refill_boundary_and_admit_at_it() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(5, RateBudget::new(1, SimDuration::from_seconds(45))),
    );
    let token = register(&cloud, 0);
    let list = Request::get("/api/v1/places").with_token(&token);
    // Drain the single-token bucket; the refill lands at EPOCH + 45.
    assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    let just_before = SimTime::EPOCH + SimDuration::from_seconds(44);
    let denied = cloud.handle(&list, just_before);
    assert_eq!(denied.status, STATUS_RATE_LIMITED);
    assert_eq!(denied.json()["retry_after_s"].as_u64(), Some(1));
    // The boundary instant belongs to the client.
    let boundary = SimTime::EPOCH + SimDuration::from_seconds(45);
    assert!(cloud.handle(&list, boundary).is_success());
}

/// Denials count down to the refill instant second by second: every
/// hint equals the exact remaining delay (denying never moves the
/// refill clock), no hint is ever 0, and waiting precisely the hinted
/// delay is always sufficient.
#[test]
fn deny_hints_count_down_exactly_to_the_refill_instant() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(8, RateBudget::new(1, SimDuration::from_seconds(30))),
    );
    let token = register(&cloud, 0);
    let list = Request::get("/api/v1/places").with_token(&token);
    assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    for s in 0..30 {
        let now = SimTime::EPOCH + SimDuration::from_seconds(s);
        let denied = cloud.handle(&list, now);
        assert_eq!(denied.status, STATUS_RATE_LIMITED, "at +{s}s");
        assert_eq!(
            denied.json()["retry_after_s"].as_u64(),
            Some(30 - s),
            "hint at +{s}s"
        );
    }
    // Thirty denials later the refill instant is unchanged.
    let boundary = SimTime::EPOCH + SimDuration::from_seconds(30);
    assert!(cloud.handle(&list, boundary).is_success());
    assert_eq!(cloud.admission_denials(), 30);
}

/// A client whose retry clock runs behind the server's stream of
/// simulated instants (reordered delivery across the lockstep wall)
/// earns no credit from the past: the stale probe is denied with a
/// hint measured against the real refill instant, mints no tokens,
/// and the arithmetic never panics on the negative elapsed time.
#[test]
fn reordered_sim_time_earns_no_credit_through_the_stack() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1).with_admission(
        AdmissionConfig::uniform(13, RateBudget::new(1, SimDuration::from_seconds(60))),
    );
    let token = register(&cloud, 0);
    let list = Request::get("/api/v1/places").with_token(&token);
    let t0 = SimTime::from_seconds(1_000);
    // Drain at t=1000; the refill lands at t=1060.
    assert!(cloud.handle(&list, t0).is_success());
    // A stale instant far in the past: denied, hint spans the whole gap
    // up to the true refill instant.
    let stale = SimTime::from_seconds(100);
    let denied = cloud.handle(&list, stale);
    assert_eq!(denied.status, STATUS_RATE_LIMITED);
    assert_eq!(denied.json()["retry_after_s"].as_u64(), Some(960));
    // The stale probe minted nothing: one second before the refill the
    // bucket is still empty, and at the refill instant it admits.
    let just_before = SimTime::from_seconds(1_059);
    let denied = cloud.handle(&list, just_before);
    assert_eq!(denied.status, STATUS_RATE_LIMITED);
    assert_eq!(denied.json()["retry_after_s"].as_u64(), Some(1));
    assert!(cloud
        .handle(&list, SimTime::from_seconds(1_060))
        .is_success());
}

#[test]
fn disabled_admission_never_denies() {
    let cloud = CloudInstance::new(CellDatabase::new(), 1);
    let token = register(&cloud, 0);
    let list = Request::get("/api/v1/places").with_token(&token);
    for _ in 0..100 {
        assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    }
    assert_eq!(cloud.admission_denials(), 0);
    // Toggling it on and back off restores the open door.
    cloud.set_admission(Some(AdmissionConfig::uniform(
        3,
        RateBudget::new(1, SimDuration::from_minutes(10)),
    )));
    assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    assert_eq!(
        cloud.handle(&list, SimTime::EPOCH).status,
        STATUS_RATE_LIMITED
    );
    cloud.set_admission(None);
    for _ in 0..10 {
        assert!(cloud.handle(&list, SimTime::EPOCH).is_success());
    }
}
