//! Criterion micro-benchmarks for the discovery algorithms (CRIT):
//! GCA, SensLoc, Kang clustering, route similarity, and the matching
//! metric, on realistic simulated observation streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmware_algorithms::gca::{self, CellPlaceTracker, GcaConfig, MovementGraph};
use pmware_algorithms::gps_cluster::{self, KangConfig};
use pmware_algorithms::matching::{classify_places, GroundTruthVisit};
use pmware_algorithms::route::{route_similarity, RouteGeometry};
use pmware_algorithms::sensloc::{self, SensLocConfig};
use pmware_core::{diary, DIARY_MIN_SHARE};
use pmware_device::{Device, EnergyModel};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{GpsFix, GsmObservation, SimTime, WifiScan};
use std::hint::black_box;

struct Streams {
    gsm: Vec<GsmObservation>,
    wifi: Vec<WifiScan>,
    gps: Vec<GpsFix>,
    truth: Vec<GroundTruthVisit>,
}

/// One simulated week of a participant's sensor data, computed once per
/// process (five benchmark functions share it).
fn week() -> &'static Streams {
    static WEEK: std::sync::OnceLock<Streams> = std::sync::OnceLock::new();
    WEEK.get_or_init(|| simulate_week(7))
}

fn simulate_week(days: u64) -> Streams {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(77)
        .build();
    let pop = Population::generate(&world, 1, 78);
    let it = pop.itinerary(&world, pop.agents()[0].id(), days);
    let truth = diary(&it);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let mut phone = Device::new(env, &it, EnergyModel::htc_explorer(), 79);
    let mut gsm = Vec::new();
    let mut wifi = Vec::new();
    let mut gps = Vec::new();
    for minute in 0..days * 24 * 60 {
        let t = SimTime::from_seconds(minute * 60);
        if let Some(obs) = phone.sample_gsm(t) {
            gsm.push(obs);
        }
        if minute % 5 == 0 {
            wifi.push(phone.scan_wifi(t).clone());
        }
        if minute % 2 == 0 {
            if let Some(fix) = phone.fix_gps(t) {
                gps.push(fix);
            }
        }
    }
    Streams {
        gsm,
        wifi,
        gps,
        truth,
    }
}

fn bench_gca(c: &mut Criterion) {
    let week = week();
    let config = GcaConfig::default();
    let mut group = c.benchmark_group("gca");
    for days in [1u64, 3, 7] {
        let n = (days * 24 * 60) as usize;
        let slice = &week.gsm[..n.min(week.gsm.len())];
        group.bench_with_input(BenchmarkId::new("discover", days), &slice, |b, s| {
            b.iter(|| gca::discover_places(black_box(s), &config));
        });
        group.bench_with_input(BenchmarkId::new("graph-build", days), &slice, |b, s| {
            b.iter(|| MovementGraph::build(black_box(s), &config));
        });
    }
    // Online tracking over one day, places known.
    let out = gca::discover_places(&week.gsm, &config);
    group.bench_function("tracker-update-day", |b| {
        b.iter(|| {
            let mut tracker = CellPlaceTracker::new(&out.places, 2, 4);
            let mut events = 0;
            for obs in &week.gsm[..1440.min(week.gsm.len())] {
                events += tracker.update(black_box(obs)).len();
            }
            events
        });
    });
    group.finish();
}

fn bench_sensloc(c: &mut Criterion) {
    let week = week();
    let config = SensLocConfig::default();
    let mut group = c.benchmark_group("sensloc");
    for scans in [288usize, 1_000, 2_016] {
        let slice = &week.wifi[..scans.min(week.wifi.len())];
        group.bench_with_input(BenchmarkId::new("discover", slice.len()), &slice, |b, s| {
            b.iter(|| sensloc::discover_places(black_box(s), &config));
        });
    }
    group.finish();
}

fn bench_kang(c: &mut Criterion) {
    let week = week();
    let config = KangConfig::default();
    let mut group = c.benchmark_group("kang");
    group.bench_function("discover-week", |b| {
        b.iter(|| gps_cluster::discover_places(black_box(&week.gps), &config));
    });
    group.finish();
}

fn bench_routes(c: &mut Criterion) {
    use pmware_world::{CellGlobalId, CellId, Lac, Plmn};
    let cell = |id: u32| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    };
    let a = RouteGeometry::CellSequence((0..30).map(cell).collect());
    let b = RouteGeometry::CellSequence((0..30).map(|i| cell(i + i % 3)).collect());
    let mut group = c.benchmark_group("routes");
    group.bench_function("cell-similarity-30", |bch| {
        bch.iter(|| route_similarity(black_box(&a), black_box(&b)));
    });
    let week = week();
    let line1 = pmware_algorithms::route::gps_route(
        &week.gps,
        SimTime::from_seconds(8 * 3_600),
        SimTime::from_seconds(10 * 3_600),
    );
    let line2 = pmware_algorithms::route::gps_route(
        &week.gps,
        SimTime::from_seconds(32 * 3_600),
        SimTime::from_seconds(34 * 3_600),
    );
    if let (Some(l1), Some(l2)) = (line1, line2) {
        group.bench_function("gps-similarity", |bch| {
            bch.iter(|| route_similarity(black_box(&l1), black_box(&l2)));
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let week = week();
    let out = gca::discover_places(&week.gsm, &GcaConfig::default());
    let mut group = c.benchmark_group("matching");
    group.bench_function("classify-week", |b| {
        b.iter(|| {
            classify_places(
                black_box(&out.places),
                black_box(&week.truth),
                DIARY_MIN_SHARE,
            )
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
    targets = bench_gca,
    bench_sensloc,
    bench_kang,
    bench_routes,
    bench_matching

}
criterion_main!(benches);
