//! The observability determinism golden tests.
//!
//! Observability must be a pure *reader* of the simulation: collecting
//! metrics and traces may never change an outcome, and the collected
//! artefacts themselves must be reproducible — same seed, same bytes,
//! regardless of how many worker threads the study fanned out over.
//!
//! Both properties are pinned here byte-for-byte:
//!
//! * two identically-seeded runs export identical metrics snapshots and
//!   identical trace JSONL;
//! * a sequential run and an 8-thread run export identical bytes (per-
//!   participant records are attributed to per-participant actors, the
//!   export walks actors in sorted order, and only order-independent
//!   aggregates live in the shared registry);
//! * an instrumented run produces exactly the same [`StudyResults`] —
//!   including the bit-pattern of every energy f64 and the cloud's
//!   authenticated request count — as an uninstrumented one.

use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_obs::Obs;
use pmware_world::builder::RegionProfile;

fn config(threads: usize, obs: Obs) -> StudyConfig {
    StudyConfig {
        participants: 5,
        days: 3,
        seed: 4242,
        region: RegionProfile::urban_india(),
        threads,
        obs,
        offload_batch_days: 0,
        ..Default::default()
    }
}

/// Runs one instrumented study and returns (results, metrics JSON, trace
/// JSONL).
fn instrumented(threads: usize) -> (StudyResults, String, String) {
    let obs = Obs::with_trace(65_536);
    let results = run_study(&config(threads, obs.clone()));
    let metrics = obs.metrics_json().expect("registry is live");
    let trace = obs.trace_jsonl().expect("bus is live");
    (results, metrics, trace)
}

#[test]
fn same_seed_exports_identical_bytes() {
    let (results_a, metrics_a, trace_a) = instrumented(1);
    let (results_b, metrics_b, trace_b) = instrumented(1);
    assert_eq!(results_a, results_b);
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshots diverged across identical runs"
    );
    assert_eq!(
        trace_a, trace_b,
        "trace exports diverged across identical runs"
    );
    assert!(
        !trace_a.is_empty(),
        "instrumented run recorded no trace at all"
    );
    assert!(metrics_a.contains("pms_arrivals_total"), "{metrics_a}");
    assert!(metrics_a.contains("device_energy_microjoules_total"));
    assert!(metrics_a.contains("cloud_requests_total"));
}

#[test]
fn thread_count_does_not_change_a_single_byte() {
    let (results_seq, metrics_seq, trace_seq) = instrumented(1);
    let (results_par, metrics_par, trace_par) = instrumented(8);
    assert_eq!(results_seq, results_par);
    assert_eq!(
        metrics_seq, metrics_par,
        "metrics snapshot depends on worker thread count"
    );
    assert_eq!(
        trace_seq, trace_par,
        "trace export depends on worker thread count"
    );
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
