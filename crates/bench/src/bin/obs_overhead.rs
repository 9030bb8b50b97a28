//! OBS-OVERHEAD: the cost of observability, and the proof it is pure.
//!
//! Runs the same scaled-down deployment study twice per repetition —
//! once with observability fully disabled (every handle a no-op), once
//! with a live metrics registry *and* span sink — interleaved, taking the
//! best wall time of each arm so scheduler noise on small machines does
//! not masquerade as instrumentation cost.
//!
//! Two claims are checked, one hard and one soft:
//!
//! * **Zero perturbation (hard):** every run, instrumented or not, must
//!   produce an identical [`StudyResults`] — same places, same energy to
//!   the last bit of the f64, same authenticated cloud request count
//!   (`cloud_requests`, so instrumentation provably added no wire
//!   traffic). Any divergence aborts the bench with a nonzero exit.
//! * **Cheap (soft):** the best-of-N overhead fraction is reported in
//!   `BENCH_obs.json`; the expectation is < 2 %. It is reported, not
//!   asserted — wall-clock ratios on a loaded 1-core CI box are not a
//!   correctness property, determinism is.
//!
//! Usage: `obs_overhead [--participants N] [--days D] [--reps R]`.

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use pmware_bench::args::Args;
use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_obs::Obs;
use pmware_world::builder::RegionProfile;

fn config(obs: Obs, participants: usize, days: u64) -> StudyConfig {
    StudyConfig {
        participants,
        days,
        seed: 2014,
        region: RegionProfile::urban_india(),
        threads: 1,
        obs,
        ..Default::default()
    }
}

fn main() {
    let args = Args::for_binary(&["participants", "days", "reps"]);
    let participants = args
        .value(
            "participants",
            NonZeroUsize::new(6).expect("positive default"),
        )
        .get();
    let days = args
        .value("days", NonZeroU64::new(5).expect("positive default"))
        .get();
    let reps: usize = args.value("reps", 5).max(1);

    println!(
        "OBS-OVERHEAD: {participants} participants x {days} days, \
         best of {reps} interleaved repetition(s)\n"
    );

    // Warm-up pass (page cache, allocator) — discarded.
    let baseline = run_study(&config(Obs::disabled(), participants, days));

    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut divergences = 0u32;
    for rep in 0..reps {
        let start = Instant::now();
        let off = run_study(&config(Obs::disabled(), participants, days));
        let off_s = start.elapsed().as_secs_f64();
        best_off = best_off.min(off_s);

        let obs = Obs::new().with_spans();
        let start = Instant::now();
        let on = run_study(&config(obs, participants, days));
        let on_s = start.elapsed().as_secs_f64();
        best_on = best_on.min(on_s);

        let identical = off == baseline && on == baseline;
        if !identical {
            divergences += 1;
        }
        println!(
            "  rep {rep}: disabled {off_s:.3}s  enabled {on_s:.3}s  results identical: {identical}"
        );
    }

    let overhead = (best_on - best_off) / best_off;
    println!("\nbest disabled : {best_off:.3}s");
    println!("best enabled  : {best_on:.3}s");
    println!("overhead      : {:.2}% (expected < 2%)", overhead * 100.0);
    println!(
        "cloud requests: {} in every arm (instrumentation added no wire traffic)",
        baseline.cloud_requests
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"participants\": {participants},\n  \
         \"days\": {days},\n  \"reps\": {reps},\n  \
         \"best_disabled_seconds\": {best_off:.4},\n  \
         \"best_enabled_seconds\": {best_on:.4},\n  \
         \"overhead_fraction\": {overhead:.4},\n  \
         \"cloud_requests\": {},\n  \"results_identical\": {}\n}}\n",
        baseline.cloud_requests,
        divergences == 0,
    );
    std::fs::write("BENCH_obs.json", json).expect("write BENCH_obs.json");
    println!("\nmachine-readable output in BENCH_obs.json");

    if divergences > 0 {
        eprintln!("error: observability perturbed study results in {divergences} repetition(s)");
        std::process::exit(1);
    }
    let _ = baseline_energy_sanity(&baseline);
}

/// Keeps the compiler honest about actually using the baseline results.
fn baseline_energy_sanity(results: &StudyResults) -> f64 {
    results.participants.iter().map(|p| p.energy_joules).sum()
}
