//! An absolute pin on the simulation's random stream.
//!
//! The other golden suites compare one run against another (threads 1 vs
//! N, observability on vs off), so a change that shifts the RNG stream on
//! both sides at once — a reordered draw, an extra draw, a different
//! candidate order in the radio model — passes them all. This test hashes
//! a small study's results and its metrics export and compares them with
//! digests recorded before the radio model's per-position cache existed.
//!
//! A deliberate stream change (new goldens on purpose) must update both
//! constants and say so in the change log.

use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_obs::Obs;
use pmware_world::builder::RegionProfile;

/// FNV-1a of the canonical study-results rendering below.
const RESULTS_DIGEST: u64 = 0xa6c2_9a0d_0bba_5081;
/// FNV-1a of the metrics JSON export. Re-recorded once, when the
/// `cloud_admission_denied_total` and `client_rate_limited_total` keys
/// left the export with admission control; every other key and value is
/// unchanged.
const METRICS_DIGEST: u64 = 0xff22_785a_223b_da8d;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per participant with every field, energy as raw bits, then
/// the cloud's request count.
fn render(results: &StudyResults) -> String {
    let mut out = String::new();
    for p in &results.participants {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {:016x}\n",
            p.discovered,
            p.tagged,
            p.evaluable,
            p.correct,
            p.merged,
            p.divided,
            p.likes,
            p.dislikes,
            p.energy_joules.to_bits()
        ));
    }
    out.push_str(&format!("requests {}\n", results.cloud_requests));
    out
}

#[test]
fn small_study_matches_the_recorded_stream() {
    let obs = Obs::new();
    let results = run_study(&StudyConfig {
        participants: 4,
        days: 3,
        seed: 1,
        region: RegionProfile::urban_india(),
        threads: 1,
        obs: obs.clone(),
        ..Default::default()
    });
    let metrics = obs.metrics_json().expect("registry is live");
    let rendered = render(&results);
    assert_eq!(
        (fnv64(rendered.as_bytes()), fnv64(metrics.as_bytes())),
        (RESULTS_DIGEST, METRICS_DIGEST),
        "the study's random stream moved; results were:\n{rendered}"
    );
}
