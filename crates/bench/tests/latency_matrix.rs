//! The latency-model determinism golden tests.
//!
//! The service-time model is an *annotation* layer: with no shedding
//! threshold it may never change a study outcome — discovery, tagging,
//! energy, and the cloud's request count must be bit-identical to a run
//! without the model. And the artefacts it adds on top — latency
//! histograms and span JSONL — must be byte-reproducible: same seed, same bytes, at any worker thread count.
//!
//! Span determinism leans on one structural fact: every span id of a
//! trace is allocated by the single thread driving that client (root →
//! attempt → server-side children during the synchronous send → backoff),
//! so the tree never depends on cross-participant scheduling.

use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_cloud::{AdmissionConfig, LatencyProfile, RateBudget};
use pmware_obs::Obs;
use pmware_world::builder::RegionProfile;
use pmware_world::SimDuration;

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

/// Runs one latency-enabled, span-collecting study, under `admission`
/// budgets when given, and returns (results, metrics JSON, span JSONL).
fn modeled(threads: usize, admission: Option<AdmissionConfig>) -> (StudyResults, String, String) {
    let obs = Obs::new().with_spans();
    let results = run_study(&StudyConfig {
        admission,
        latency: Some(LatencyProfile::calibrated(7)),
        ..config(threads, obs.clone())
    });
    (
        results,
        obs.metrics_json().expect("metrics enabled"),
        obs.spans_jsonl().expect("spans enabled"),
    )
}

#[test]
fn latency_model_never_perturbs_study_outcomes() {
    let plain = run_study(&config(1, Obs::disabled()));
    let (timed, metrics, spans) = modeled(1, None);
    assert_eq!(
        plain, timed,
        "an unshedded latency profile changed study outcomes"
    );
    assert!(
        metrics.contains("cloud_request_latency_us"),
        "latency histograms missing from the metrics export"
    );
    assert!(
        spans.contains("\"name\":\"op:/api/v1/places/sync\""),
        "no sync operation spans were recorded:\n{}",
        spans.lines().take(5).collect::<Vec<_>>().join("\n")
    );
    assert!(
        spans.contains("\"name\":\"attempt\""),
        "operation spans have no attempt children"
    );
}

#[test]
fn latency_artifacts_are_thread_and_run_deterministic() {
    let (sequential, metrics_1, spans_1) = modeled(1, None);
    let (fanned, metrics_8, spans_8) = modeled(8, None);
    assert_eq!(sequential, fanned, "thread count changed study outcomes");
    assert_eq!(
        metrics_1, metrics_8,
        "metrics JSON differs across thread counts"
    );
    assert_eq!(spans_1, spans_8, "span JSONL differs across thread counts");
    assert!(!spans_1.is_empty(), "span export is empty");

    let (rerun, metrics_again, spans_again) = modeled(8, None);
    assert_eq!(fanned, rerun, "same-seed rerun changed study outcomes");
    assert_eq!(metrics_8, metrics_again, "same-seed metrics bytes differ");
    assert_eq!(spans_8, spans_again, "same-seed span bytes differ");
}

/// Admission control rides through `run_study` as a config field: a tight
/// per-user budget on top of the calibrated model must deny requests (the
/// clients retry them), count the denials in the metrics export, and
/// still leave results and metrics byte-identical at 1 and 8 threads.
#[test]
fn admission_through_run_study_is_counted_and_thread_deterministic() {
    let tight = AdmissionConfig::uniform(4242, RateBudget::new(3, SimDuration::from_seconds(60)));
    let (sequential, metrics_1, _) = modeled(1, Some(tight.clone()));
    let (fanned, metrics_8, _) = modeled(8, Some(tight));
    let export: serde_json::Value = serde_json::from_str(&metrics_1).expect("metrics JSON");
    let denied: u64 = export
        .as_object()
        .expect("metrics export is an object")
        .iter()
        .filter(|(key, _)| key.starts_with("cloud_admission_denied_total"))
        .map(|(_, metric)| metric["value"].as_u64().unwrap_or(0))
        .sum();
    assert!(denied > 0, "a tight budget denied nothing:\n{metrics_1}");
    assert_eq!(sequential, fanned, "thread count changed study outcomes");
    assert_eq!(
        metrics_1, metrics_8,
        "metrics JSON differs across thread counts"
    );
}
