//! DEP-B over many seeds, held to a written tolerance.
//!
//! `paper_tables.rs` pins one seed's bytes, so it catches any change but
//! cannot tell a shifted random stream from a broken discovery pipeline.
//! This check runs the §4 deployment study (16 participants × 14 days,
//! urban India) for the 16 consecutive seeds 2014–2029 that `paper dep
//! --seeds 16` runs, and asserts that the mean per-seed DEP-B correct
//! share lies inside a band.
//!
//! How the band was derived: `paper dep --seeds 64` (seeds 2014–2077) gave
//! a per-seed mean of 80.05 % (sd 6.24 points) under the Box–Muller
//! shadow-fading stream and 80.00 % (sd 5.08) under the ziggurat stream
//! that replaced it. The band is centred on 80 % and is 6 points wide
//! each way: four standard errors of a 16-seed mean at the larger sd
//! (6.24 / √16 = 1.56). The paper's 79.03 % lies inside it. The 16-seed
//! means this test computes were 79.19 % (Box–Muller) and 78.75 %
//! (ziggurat).

use pmware_bench::deployment::{run_study, StudyConfig};

const SEEDS: u64 = 16;
const CORRECT_BAND_PCT: (f64, f64) = (74.0, 86.0);

#[test]
fn mean_dep_b_correct_over_16_seeds_lies_in_the_written_band() {
    let per_seed: Vec<f64> = (0..SEEDS)
        .map(|offset| {
            let results = run_study(&StudyConfig {
                seed: 2014 + offset,
                threads: 0,
                ..StudyConfig::default()
            });
            results.correct_fraction() * 100.0
        })
        .collect();
    let mean = per_seed.iter().sum::<f64>() / per_seed.len() as f64;
    let (low, high) = CORRECT_BAND_PCT;
    assert!(
        (low..=high).contains(&mean),
        "mean DEP-B correct {mean:.2} % over seeds 2014..{} lies outside \
         [{low}, {high}] %; per seed: {per_seed:.1?}",
        2014 + SEEDS - 1
    );
}
