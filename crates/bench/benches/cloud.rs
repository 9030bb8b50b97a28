//! Criterion micro-benchmarks for the cloud instance (CRIT): request
//! routing, auth validation, profile sync, analytics queries, and the
//! GCA discovery offload — per-request server-side costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_cloud::{CellDatabase, CloudInstance, MobilityProfile, Request};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use serde_json::json;
use std::hint::black_box;

fn registered_cloud() -> (CloudInstance, String) {
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(30)
        .build();
    let cloud = CloudInstance::new(CellDatabase::from_world(&world), 31);
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": "350400", "email": "bench@pmware.study"}),
        ),
        SimTime::EPOCH,
    );
    let token = resp.json()["token"].as_str().unwrap().to_owned();
    (cloud, token)
}

fn profile_for_day(day: u64) -> MobilityProfile {
    let mut p = MobilityProfile::new(day);
    for (i, hour) in [(0u32, 0u64), (1, 9), (0, 18)].iter().enumerate() {
        let _ = i;
        p.places.push(pmware_cloud::PlaceEntry {
            place: DiscoveredPlaceId(hour.0),
            arrival: SimTime::from_day_time(day, hour.1, 0, 0),
            departure: SimTime::from_day_time(day, (hour.1 + 5).min(23), 0, 0),
        });
    }
    p
}

fn bench_auth_and_routing(c: &mut Criterion) {
    let (cloud, token) = registered_cloud();
    let mut group = c.benchmark_group("cloud");
    group.bench_function("registration", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cloud.handle(
                &Request::post_json(
                    "/api/v1/registration",
                    json!({"imei": format!("imei-{i}"), "email": format!("u{i}@x.com")}),
                ),
                SimTime::EPOCH,
            )
        });
    });
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

fn bench_profile_sync_and_analytics(c: &mut Criterion) {
    let (cloud, token) = registered_cloud();
    // Preload a month of history.
    for day in 0..28 {
        let req = Request::post_json(
            "/api/v1/profiles/sync",
            json!({"profile": profile_for_day(day)}),
        )
        .with_token(&token);
        assert!(cloud.handle(&req, SimTime::EPOCH).is_success());
    }
    let mut group = c.benchmark_group("cloud-data");
    let sync = Request::post_json(
        "/api/v1/profiles/sync",
        json!({"profile": profile_for_day(29)}),
    )
    .with_token(&token);
    group.bench_function("profile-sync", |b| {
        b.iter(|| cloud.handle(black_box(&sync), SimTime::EPOCH));
    });
    let arrival = Request::post_json(
        "/api/v1/analytics/arrival",
        json!({"place": 0, "window": [15, 24]}),
    )
    .with_token(&token);
    group.bench_function("analytics-arrival", |b| {
        b.iter(|| cloud.handle(black_box(&arrival), SimTime::EPOCH));
    });
    let next =
        Request::post_json("/api/v1/analytics/next_place", json!({"place": 1})).with_token(&token);
    group.bench_function("analytics-markov", |b| {
        b.iter(|| cloud.handle(black_box(&next), SimTime::EPOCH));
    });
    group.finish();
}

fn bench_discovery_offload(c: &mut Criterion) {
    let (cloud, token) = registered_cloud();
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let mut group = c.benchmark_group("cloud-offload");
    group.sample_size(20);
    for minutes in [1_440u64, 10_080] {
        let observations: Vec<GsmObservation> = (0..minutes)
            .map(|m| GsmObservation {
                time: SimTime::from_seconds(m * 60),
                cell: cell(((m / 480) * 2 + m % 2) as u32),
                layer: NetworkLayer::G2,
                rssi_dbm: -70.0,
            })
            .collect();
        let req = Request::post_json(
            "/api/v1/places/discover",
            json!({"observations": observations}),
        )
        .with_token(&token);
        group.bench_with_input(BenchmarkId::new("gca-discover", minutes), &req, |b, req| {
            b.iter(|| cloud.handle(black_box(req), SimTime::EPOCH));
        });
    }
    group.finish();
}

fn bench_geolocate(c: &mut Criterion) {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(33)
        .build();
    let cloud = CloudInstance::new(CellDatabase::from_world(&world), 34);
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": "350401", "email": "geo@pmware.study"}),
        ),
        SimTime::EPOCH,
    );
    let token = resp.json()["token"].as_str().unwrap().to_owned();
    let tower = world.towers()[0].cell();
    let req = Request::post_json(
        "/api/v1/misc/geolocate",
        json!({
            "mcc": tower.plmn.mcc,
            "mnc": tower.plmn.mnc,
            "lac": tower.lac.0,
            "cid": tower.cell.0,
        }),
    )
    .with_token(&token);
    let mut group = c.benchmark_group("cloud-misc");
    group.bench_function("geolocate", |b| {
        b.iter(|| cloud.handle(black_box(&req), SimTime::EPOCH));
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
    targets = bench_auth_and_routing,
    bench_profile_sync_and_analytics,
    bench_discovery_offload,
    bench_geolocate

}
criterion_main!(benches);
