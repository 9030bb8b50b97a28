//! PERF-WIRE: per-request cost of the typed in-process cloud path vs the
//! marshalled JSON wire path, endpoint by endpoint.
//!
//! Two arms handle the *same* request against the same warm
//! [`CloudInstance`]:
//!
//! * **typed** — the request object travels as built: a typed [`Payload`]
//!   body the handler borrows directly. No JSON tree, no bytes, no serde
//!   anywhere on the path. This is what every in-process study
//!   (`SharedCloud` endpoint) pays per request since the typed wire-path
//!   change.
//! * **marshalled** — the request is rendered to JSON bytes and re-parsed,
//!   the response is rendered to JSON bytes and re-parsed: exactly what
//!   the fault-injecting wire boundary (`FaultyCloud`) does per send, and
//!   a faithful stand-in for what *every* request used to pay when bodies
//!   were `serde_json::Value` end-to-end.
//!
//! The gap between the arms is the per-request JSON tax the typed path
//! removed. Handler work is inside both measurements (it is identical),
//! so endpoints with heavy handlers (e.g. `places_discover`, which
//! re-clusters the offloaded batch) legitimately show smaller ratios —
//! the table reports what a caller actually experiences, not a synthetic
//! serialization-only number.
//!
//! Usage: `wire_micro [--iters N] [--repeats R]` — after an untimed
//! warm-up, each (endpoint, arm) runs R times at N requests per run and
//! the **median** ns/request is reported (same statistic as the cohort
//! bench, robust to one-off scheduler hiccups). Results are printed as a
//! table and written to `BENCH_wire.json`.

use std::time::Instant;

use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_bench::args::Args;
use pmware_cloud::profile::{ContactEntry, MobilityProfile, PlaceEntry};
use pmware_cloud::{
    CellDatabase, CloudInstance, DiscoverBody, Request, Response, SocialQueryBody,
    SyncContactsBody, SyncPlacesBody, SyncProfileBody,
};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use serde_json::json;

/// Median of a sample set (mean of the middle pair for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock is finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Meaty request bodies: a nightly offload is hundreds of observations,
/// a place list tens of places — the sizes where a JSON tree per request
/// actually hurts.
fn observations(n: u64) -> Vec<GsmObservation> {
    (0..n)
        .map(|m| GsmObservation {
            time: SimTime::from_seconds(m * 60),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(1),
                cell: CellId(if m % 3 == 1 { 2 } else { 1 }),
            },
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        })
        .collect()
}

fn places(n: u32) -> Vec<DiscoveredPlace> {
    (0..n)
        .map(|id| {
            DiscoveredPlace::new(
                DiscoveredPlaceId(id),
                PlaceSignature::WifiAps(Default::default()),
                vec![],
            )
        })
        .collect()
}

fn profile() -> MobilityProfile {
    let mut p = MobilityProfile::new(0);
    for i in 0..10u64 {
        p.places.push(PlaceEntry {
            place: DiscoveredPlaceId((i % 5) as u32),
            arrival: SimTime::from_day_time(0, 2 * i, 0, 0),
            departure: SimTime::from_day_time(0, 2 * i + 1, 0, 0),
        });
    }
    p
}

fn contacts(n: u64) -> Vec<ContactEntry> {
    (0..n)
        .map(|i| ContactEntry {
            contact: format!("peer-{i}"),
            start: SimTime::from_seconds(i * 100),
            end: SimTime::from_seconds(i * 100 + 60),
            place: Some(DiscoveredPlaceId((i % 5) as u32)),
        })
        .collect()
}

struct Endpoint {
    label: &'static str,
    request: Request,
}

struct Row {
    label: &'static str,
    typed_ns: f64,
    marshalled_ns: f64,
}

fn measure(iters: usize, repeats: usize, mut one: impl FnMut() -> Response) -> f64 {
    // Warm-up: fault the path in, settle caches and one-time state
    // transitions (first sync applies, repeats replay as stale).
    for _ in 0..iters.min(100) {
        std::hint::black_box(one());
    }
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(one());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut samples)
}

fn main() {
    let args = Args::for_binary(&["iters", "repeats"]);
    let iters: usize = args.value("iters", 2_000).max(1);
    let repeats: usize = args.value("repeats", 5).max(1);

    let cloud = CloudInstance::new(CellDatabase::new(), 7);
    let now = SimTime::EPOCH;
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": "wire-0", "email": "wire@pmware.study"}),
        ),
        now,
    );
    let token = resp.json()["token"].as_str().unwrap().to_owned();

    let endpoints = vec![
        Endpoint {
            label: "places_sync",
            request: Request::post(
                "/api/v1/places/sync",
                SyncPlacesBody {
                    places: places(50),
                    seq: Some(1),
                },
            )
            .with_token(&token),
        },
        Endpoint {
            label: "places_discover",
            request: Request::post(
                "/api/v1/places/discover",
                DiscoverBody {
                    observations: observations(200),
                    batch: None,
                    start: Some(0),
                },
            )
            .with_token(&token),
        },
        Endpoint {
            label: "profiles_sync",
            request: Request::post(
                "/api/v1/profiles/sync",
                SyncProfileBody {
                    profile: profile(),
                    seq: Some(1),
                },
            )
            .with_token(&token),
        },
        Endpoint {
            label: "social_sync",
            request: Request::post(
                "/api/v1/social/sync",
                SyncContactsBody {
                    contacts: contacts(200),
                    first_seq: Some(0),
                },
            )
            .with_token(&token),
        },
        Endpoint {
            label: "social_query",
            request: Request::post("/api/v1/social/query", SocialQueryBody { place: None })
                .with_token(&token),
        },
        Endpoint {
            label: "places_list",
            request: Request::get("/api/v1/places").with_token(&token),
        },
    ];

    println!(
        "PERF-WIRE: typed in-process path vs marshalled JSON wire path, \
         median of {repeats} x {iters} requests\n"
    );
    println!(
        "{:<16} {:>14} {:>18} {:>9}",
        "endpoint", "typed ns/req", "marshalled ns/req", "ratio"
    );

    let mut rows = Vec::new();
    for endpoint in &endpoints {
        let typed_ns = measure(iters, repeats, || {
            cloud.handle(std::hint::black_box(&endpoint.request), now)
        });
        let marshalled_ns = measure(iters, repeats, || {
            // Both directions cross JSON bytes, as on the faulty wire.
            // The request is re-encoded from its typed body every time —
            // `wire_bytes` would amortize that across sends, which is the
            // retry-path optimization, not the thing measured here.
            let bytes = serde_json::to_vec(&endpoint.request).expect("request serializes");
            let parsed = Request::from_bytes(&bytes).expect("request round-trips");
            let response = cloud.handle(&parsed, now);
            Response::from_bytes(parsed.method, &parsed.path, &response.to_bytes())
                .expect("response round-trips")
        });
        println!(
            "{:<16} {:>14.0} {:>18.0} {:>8.1}x",
            endpoint.label,
            typed_ns,
            marshalled_ns,
            marshalled_ns / typed_ns
        );
        rows.push(Row {
            label: endpoint.label,
            typed_ns,
            marshalled_ns,
        });
    }

    let mut json = String::from("{\n  \"bench\": \"wire_micro\",\n");
    json.push_str(&format!(
        "  \"iters\": {iters},\n  \"repeats\": {repeats},\n  \"statistic\": \"median\",\n"
    ));
    json.push_str("  \"endpoints\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"endpoint\": \"{}\", \"typed_ns_per_request\": {:.0}, \
             \"marshalled_ns_per_request\": {:.0}, \"speedup\": {:.2}}}{}\n",
            row.label,
            row.typed_ns,
            row.marshalled_ns,
            row.marshalled_ns / row.typed_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_wire.json", json).expect("write BENCH_wire.json");
    println!("\nmachine-readable output in BENCH_wire.json");

    let fast = rows
        .iter()
        .filter(|r| r.marshalled_ns / r.typed_ns >= 5.0)
        .count();
    println!(
        "{fast}/{} endpoints show >= 5x lower per-request cost on the typed path",
        rows.len()
    );
}
