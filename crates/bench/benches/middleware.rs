//! Criterion micro-benchmarks for the middleware layer (CRIT): scheduler
//! decisions, intent-bus broadcasts, privacy coarsening, and a full PMS
//! simulated day — the overhead PMWare itself adds on the phone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::apps::Demand;
use pmware_core::intents::{actions, Intent, IntentBus, IntentFilter};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::preferences::coarsen_position;
use pmware_core::requirements::{AppRequirement, Granularity};
use pmware_core::sensing::{SensingConfig, SensingScheduler};
use pmware_geo::GeoPoint;
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{MotionState, SimTime};
use serde_json::json;
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    let demand = Demand {
        granularity: Some(Granularity::Room),
        route: None,
        social: true,
    };
    group.bench_function("decide", |b| {
        let mut s = SensingScheduler::new(SensingConfig::default());
        let mut minute = 0u64;
        b.iter(|| {
            minute += 1;
            let motion = if minute % 90 < 10 {
                MotionState::Moving
            } else {
                MotionState::Stationary
            };
            s.decide(
                SimTime::from_seconds(black_box(minute * 60)),
                demand,
                motion,
            )
        });
    });
    group.finish();
}

fn bench_intent_bus(c: &mut Criterion) {
    let mut group = c.benchmark_group("intent-bus");
    for receivers in [1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("broadcast", receivers),
            &receivers,
            |b, &n| {
                let mut bus = IntentBus::new();
                let rxs: Vec<_> = (0..n)
                    .map(|i| bus.register(format!("app-{i}"), IntentFilter::all()))
                    .collect();
                let intent = Intent::new(
                    actions::PLACE_ARRIVAL,
                    SimTime::EPOCH,
                    json!({"place": 1, "latitude": 12.9, "longitude": 77.5}),
                );
                b.iter(|| {
                    bus.broadcast(black_box(&intent));
                    // Drain so queues stay bounded.
                    for rx in &rxs {
                        while rx.try_recv().is_ok() {}
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_coarsening(c: &mut Criterion) {
    let pos = GeoPoint::new(12.971234, 77.594567).unwrap();
    let mut group = c.benchmark_group("privacy");
    for g in [Granularity::Room, Granularity::Building, Granularity::Area] {
        group.bench_with_input(BenchmarkId::new("coarsen", g.label()), &g, |b, &g| {
            b.iter(|| coarsen_position(black_box(pos), g));
        });
    }
    group.finish();
}

fn bench_full_pms_day(c: &mut Criterion) {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(20)
        .build();
    let pop = Population::generate(&world, 1, 21);
    let it = pop.itinerary(&world, pop.agents()[0].id(), 14);

    let mut group = c.benchmark_group("pms");
    group.sample_size(10);
    group.bench_function("one-simulated-day", |b| {
        b.iter(|| {
            let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 22));
            let mut pms = PmwareMobileService::on_itinerary(
                &world,
                &it,
                cloud,
                PmsConfig::for_participant(99),
                23,
            )
            .expect("register");
            let _rx = pms.register_app(
                "bench-app",
                AppRequirement::places(Granularity::Building),
                IntentFilter::all(),
            );
            pms.run(SimTime::from_day_time(1, 0, 0, 0)).expect("run");
            pms.counters().arrivals
        });
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
    targets = bench_scheduler,
    bench_intent_bus,
    bench_coarsening,
    bench_full_pms_day

}
criterion_main!(benches);
