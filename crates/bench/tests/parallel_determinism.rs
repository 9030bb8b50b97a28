//! The core guarantee of the parallel cohort engine: fanning participants
//! out over worker threads changes wall-clock time and *nothing else*.
//!
//! Every per-participant quantity is derived from per-participant seeds
//! before the fan-out, and the shared cloud isolates users from each other
//! (order-dependent server-side artefacts — token strings, user-id
//! assignment — never feed back into a participant's results). This test
//! pins that down: a 4-thread run must equal a sequential run field by
//! field, including the floating-point energy totals.

use pmware_bench::deployment::{run_study, StudyConfig};
use pmware_cloud::{CellDatabase, CloudInstance, DiscoverBody, Payload, Request, SharedCloud};
use pmware_core::CloudClient;
use pmware_world::builder::RegionProfile;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};

fn config(threads: usize) -> StudyConfig {
    StudyConfig {
        participants: 6,
        days: 3,
        seed: 7001,
        region: RegionProfile::urban_india(),
        threads,
        obs: pmware_obs::Obs::disabled(),
        ..Default::default()
    }
}

#[test]
fn parallel_study_is_bit_identical_to_sequential() {
    let sequential = run_study(&config(1));
    let parallel = run_study(&config(4));

    assert_eq!(sequential.participants.len(), parallel.participants.len());
    for (i, (s, p)) in sequential
        .participants
        .iter()
        .zip(&parallel.participants)
        .enumerate()
    {
        // Exact comparison on purpose: energy_joules is an f64 and must
        // match to the last bit, not approximately.
        assert_eq!(s, p, "participant {i} diverged between 1 and 4 threads");
        assert_eq!(
            s.energy_joules.to_bits(),
            p.energy_joules.to_bits(),
            "participant {i} energy not bit-identical"
        );
    }
    assert_eq!(sequential, parallel);
}

#[test]
fn oversubscribed_pool_is_still_identical() {
    // More workers than participants: some threads exit without ever
    // pulling a job; order reassembly must still hold.
    let sequential = run_study(&config(1));
    let oversubscribed = run_study(&config(16));
    assert_eq!(sequential, oversubscribed);
}

/// The thread-count guarantee survives live instrumentation: with a
/// metrics registry and span sink attached, a parallel run still equals
/// the sequential *uninstrumented* run field by field (the byte-level
/// equality of the exported artefacts themselves is pinned in
/// `obs_golden.rs`).
#[test]
fn parallel_run_is_identical_with_observability_attached() {
    let plain = run_study(&config(1));
    let obs = pmware_obs::Obs::new().with_spans();
    let observed = run_study(&StudyConfig { obs, ..config(4) });
    assert_eq!(plain, observed);
}

/// The wire-traffic claim behind the batched protocol, measured directly
/// at the client: a six-day offload backlog costs six requests when sent
/// per-day but exactly one when coalesced into a delta-compressed batch —
/// a 6× reduction, comfortably under the ≤1/3 target — and the cloud ends
/// up with byte-identical places either way (and identical to the plain
/// unbatched array protocol).
#[test]
fn batched_offload_coalesces_backlog_into_one_request() {
    // Six days of a two-cell oscillation, one observation a minute for an
    // hour each morning — enough dwell for GCA to mint a place.
    let log: Vec<GsmObservation> = (0..6u64)
        .flat_map(|day| {
            (0..60u64).map(move |minute| GsmObservation {
                time: SimTime::from_seconds(day * 86_400 + 8 * 3_600 + minute * 60),
                cell: CellGlobalId {
                    plmn: Plmn { mcc: 404, mnc: 45 },
                    lac: Lac(1),
                    cell: CellId(1 + (minute % 2) as u32),
                },
                layer: NetworkLayer::G2,
                rssi_dbm: -70.0,
            })
        })
        .collect();
    let day_len = log.len() / 6;
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 5));
    let now = SimTime::from_seconds(6 * 86_400);

    // Per-day baseline: the unacknowledged suffix goes out as one request
    // per day of backlog.
    let mut per_day =
        CloudClient::register(cloud.clone(), "imei-day", "day@x.y", now).expect("register");
    let before = per_day.wire_requests();
    for day in 0..6 {
        let chunk = &log[day * day_len..(day + 1) * day_len];
        per_day
            .discover_places(chunk, (day * day_len) as u64, now)
            .expect("per-day offload");
    }
    let per_day_requests = per_day.wire_requests() - before;
    assert_eq!(per_day_requests, 6);

    // Coalesced: the whole backlog in one batched request.
    let mut coalesced =
        CloudClient::register(cloud.clone(), "imei-all", "all@x.y", now).expect("register");
    let before = coalesced.wire_requests();
    let places = coalesced
        .discover_places(&log, 0, now)
        .expect("coalesced offload");
    let coalesced_requests = coalesced.wire_requests() - before;
    assert_eq!(coalesced_requests, 1);
    assert!(
        coalesced_requests * 3 <= per_day_requests,
        "coalesced offload must cut wire requests to at most 1/3 of per-day \
         ({coalesced_requests} vs {per_day_requests})"
    );

    // Control: the plain-array body the server still accepts from outside
    // callers. All three spellings must leave the cloud with byte-identical
    // places.
    let plain = CloudClient::register(cloud.clone(), "imei-old", "old@x.y", now).expect("register");
    let body = DiscoverBody {
        observations: log.clone(),
        batch: None,
        start: Some(0),
    };
    let request = Request::post("/api/v1/places/discover", body).with_token(plain.state().token);
    let Payload::Discovered {
        places: control, ..
    } = cloud.handle(&request, now).body
    else {
        panic!("plain offload");
    };
    assert!(!places.is_empty(), "six days of dwell must mint a place");
    assert_eq!(places, control);
    assert_eq!(
        cloud.places_of(per_day.user()),
        cloud.places_of(coalesced.user())
    );
    assert_eq!(
        cloud.places_of(coalesced.user()),
        cloud.places_of(plain.user())
    );
}
