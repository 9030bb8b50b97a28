//! Criterion micro-benchmarks for the cloud instance (CRIT): auth
//! validation and routing — per-request server-side costs. The typed
//! per-endpoint handler costs are perfbench's traced `cloud_replay` rows
//! (`cloud.handle_s.*`, `cloud.handle_us_p99.*`).

use criterion::{criterion_group, criterion_main, Criterion};
use pmware_cloud::{CellDatabase, CloudInstance, RegistrationBody, Request};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::SimTime;
use std::hint::black_box;

fn registered_cloud() -> (CloudInstance, String) {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(30)
        .build();
    let cloud = CloudInstance::new(CellDatabase::from_world(&world), 31);
    let body = RegistrationBody {
        imei: "350400".into(),
        email: "bench@pmware.study".into(),
    };
    let resp = cloud.handle(&Request::post("/api/v1/registration", body), SimTime::EPOCH);
    let token = resp.json()["token"].as_str().unwrap().to_owned();
    (cloud, token)
}

fn bench_auth_and_routing(c: &mut Criterion) {
    let (cloud, token) = registered_cloud();
    let mut group = c.benchmark_group("cloud");
    let get_places = Request::get("/api/v1/places").with_token(&token);
    group.bench_function("authed-get-places", |b| {
        b.iter(|| cloud.handle(black_box(&get_places), SimTime::EPOCH));
    });
    let bad = Request::get("/api/v1/places").with_token("tok-bogus");
    group.bench_function("rejected-token", |b| {
        b.iter(|| cloud.handle(black_box(&bad), SimTime::EPOCH));
    });
    group.finish();
}

/// Keep the full suite's wall-clock reasonable: per-benchmark sampling is
/// trimmed (the workloads here are deterministic simulations, not noisy
/// syscalls, so 20 samples resolve them fine).
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_auth_and_routing
}
criterion_main!(benches);
