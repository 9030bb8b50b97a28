//! The observability determinism golden tests.
//!
//! Observability must be a pure *reader* of the simulation: collecting
//! metrics and spans may never change an outcome, and the collected
//! artefacts themselves must be reproducible — same seed, same bytes,
//! regardless of how many worker threads the study fanned out over.
//!
//! Both properties are pinned here byte-for-byte:
//!
//! * two identically-seeded runs export identical metrics snapshots and
//!   identical span JSONL;
//! * a sequential run and an 8-thread run export identical bytes (each
//!   participant's events land in its own timeline trace and its requests
//!   in traces keyed by its actor, every trace is written by the one
//!   thread driving that participant, the export sorts by trace and span
//!   id, and only order-independent aggregates live in the shared
//!   registry);
//! * every participant's timeline carries its place arrivals and
//!   departures and its nightly maintenance passes;
//! * an instrumented run produces exactly the same [`StudyResults`] —
//!   including the bit-pattern of every energy f64 and the cloud's
//!   authenticated request count — as an uninstrumented one.

use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_obs::{Obs, SpanSink};
use pmware_world::builder::RegionProfile;

fn config(threads: usize, obs: Obs) -> StudyConfig {
    StudyConfig {
        participants: 5,
        days: 3,
        seed: 4242,
        region: RegionProfile::urban_india(),
        threads,
        obs,
        ..Default::default()
    }
}

/// Runs one instrumented study and returns (results, metrics JSON, span
/// JSONL).
fn instrumented(threads: usize) -> (StudyResults, String, String) {
    let obs = Obs::new().with_spans();
    let results = run_study(&config(threads, obs.clone()));
    let metrics = obs.metrics_json().expect("registry is live");
    let spans = obs.spans_jsonl().expect("sink is live");
    (results, metrics, spans)
}

#[test]
fn same_seed_exports_identical_bytes() {
    let (results_a, metrics_a, spans_a) = instrumented(1);
    let (results_b, metrics_b, spans_b) = instrumented(1);
    assert_eq!(results_a, results_b);
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshots diverged across identical runs"
    );
    assert_eq!(
        spans_a, spans_b,
        "span exports diverged across identical runs"
    );
    assert!(
        !spans_a.is_empty(),
        "instrumented run recorded no spans at all"
    );
    assert!(metrics_a.contains("pms_arrivals_total"), "{metrics_a}");
    assert!(metrics_a.contains("device_energy_microjoules_total"));
    assert!(metrics_a.contains("cloud_requests_total"));
}

#[test]
fn thread_count_does_not_change_a_single_byte() {
    let (results_seq, metrics_seq, spans_seq) = instrumented(1);
    let (results_par, metrics_par, spans_par) = instrumented(8);
    assert_eq!(results_seq, results_par);
    assert_eq!(
        metrics_seq, metrics_par,
        "metrics snapshot depends on worker thread count"
    );
    assert_eq!(
        spans_seq, spans_par,
        "span export depends on worker thread count"
    );
}

/// The PMS events are root spans of each participant's timeline trace
/// (`SpanSink::trace_id(actor, 0)`): every participant arrives at and
/// leaves places and runs a nightly maintenance pass in three days.
#[test]
fn each_participant_timeline_carries_its_place_events() {
    let (results, _, spans) = instrumented(1);
    let spans: Vec<serde_json::Value> = spans
        .lines()
        .map(|line| serde_json::from_str(line).expect("span line is JSON"))
        .collect();
    for index in 0..results.participants.len() {
        let timeline = SpanSink::trace_id(&format!("p{index:04}"), 0);
        let mine: Vec<&serde_json::Value> = spans
            .iter()
            .filter(|span| span["trace"].as_u64() == Some(timeline))
            .collect();
        assert!(
            mine.iter().all(|span| span["parent"].as_u64() == Some(0)),
            "participant {index}: timeline spans are roots"
        );
        for name in ["pms.arrival", "pms.departure", "pms.maintenance"] {
            assert!(
                mine.iter().any(|span| span["name"].as_str() == Some(name)),
                "participant {index} timeline lacks {name}"
            );
        }
    }
}

#[test]
fn observability_never_perturbs_the_study() {
    let plain = run_study(&config(1, Obs::disabled()));
    let (observed, _, _) = instrumented(1);
    assert_eq!(plain.participants.len(), observed.participants.len());
    for (i, (p, o)) in plain
        .participants
        .iter()
        .zip(&observed.participants)
        .enumerate()
    {
        assert_eq!(p, o, "participant {i} diverged when instrumented");
        assert_eq!(
            p.energy_joules.to_bits(),
            o.energy_joules.to_bits(),
            "participant {i} energy not bit-identical"
        );
    }
    assert_eq!(
        plain.cloud_requests, observed.cloud_requests,
        "instrumentation changed the number of requests on the wire"
    );
}
