//! DEP-A/B/C: the §4 deployment study — 16 participants, two weeks,
//! PMWare + PlaceADs, diary ground truth.
//!
//! Paper numbers: 123 places discovered; 85 tagged (~70 %); 62 evaluable;
//! 79.03 % correct / 14.52 % merged / 6.45 % divided; ad like:dislike 17:3.
//!
//! Usage: `deployment_study [--seeds N] [--participants N] [--days D]
//! [--threads T] [--metrics-out F]` — with `--seeds N > 1`
//! the study is repeated over
//! consecutive seeds and the mean is reported alongside the per-seed
//! numbers (the merged/divided split carries real seed-to-seed variance at
//! this cohort size). `--threads` fans participants out over worker
//! threads (0 = one per core); results are identical at any thread count.

use std::num::{NonZeroU64, NonZeroUsize};

use pmware_bench::args::Args;
use pmware_bench::deployment::{run_study, StudyConfig, StudyResults};
use pmware_obs::Obs;

fn main() {
    let args = Args::for_binary(&["seeds", "participants", "days", "threads", "metrics-out"]);
    let seeds: u64 = args.value("seeds", 1);
    let metrics_out = args.flag("metrics-out");
    let obs = match &metrics_out {
        None => Obs::disabled(),
        Some(_) => Obs::new(),
    };
    let defaults = StudyConfig::default();
    let base = StudyConfig {
        participants: args
            .value(
                "participants",
                NonZeroUsize::new(defaults.participants).expect("positive default"),
            )
            .get(),
        days: args
            .value(
                "days",
                NonZeroU64::new(defaults.days).expect("positive default"),
            )
            .get(),
        threads: args.value("threads", defaults.threads),
        obs: obs.clone(),
        ..defaults
    };

    let mut all: Vec<(u64, StudyResults)> = Vec::new();
    for offset in 0..seeds {
        let config = StudyConfig {
            seed: 2014 + offset,
            ..base.clone()
        };
        if offset == 0 {
            println!(
                "DEP: deployment study — {} participants x {} days ({}), seeds {}..{}, {} thread(s)\n",
                config.participants,
                config.days,
                config.region.name,
                config.seed,
                config.seed + seeds - 1,
                pmware_bench::parallel::resolve_threads(config.threads),
            );
        }
        let results = run_study(&config);
        all.push((config.seed, results));
    }

    if seeds == 1 {
        print_participants(&all[0].1);
    }

    println!("\nper seed:");
    println!(
        "{:>6} {:>10} {:>7} {:>9} {:>9} {:>8} {:>9} {:>7}",
        "seed", "discovered", "tagged", "evaluable", "correct", "merged", "divided", "likes"
    );
    for (seed, r) in &all {
        println!(
            "{:>6} {:>10} {:>7} {:>9} {:>8.1}% {:>7.1}% {:>8.1}% {:>6.1}%",
            seed,
            r.total_discovered(),
            r.total_tagged(),
            r.total_evaluable(),
            r.correct_fraction() * 100.0,
            r.merged_fraction() * 100.0,
            r.divided_fraction() * 100.0,
            r.like_fraction() * 100.0
        );
    }

    let n = all.len() as f64;
    let mean = |f: &dyn Fn(&StudyResults) -> f64| all.iter().map(|(_, r)| f(r)).sum::<f64>() / n;
    let discovered = mean(&|r| r.total_discovered() as f64);
    let tagged_frac = mean(&|r| r.tagged_fraction());
    let evaluable = mean(&|r| r.total_evaluable() as f64);
    let correct = mean(&|r| r.correct_fraction());
    let merged = mean(&|r| r.merged_fraction());
    let divided = mean(&|r| r.divided_fraction());
    let likes = mean(&|r| r.like_fraction());

    println!(
        "\nDEP-A: discovery and tagging (mean of {} seed(s))",
        all.len()
    );
    println!("  places discovered : {discovered:>6.1}  (paper: 123)");
    println!(
        "  tagged fraction   : {:>6.1}%  (paper: ~70%)",
        tagged_frac * 100.0
    );
    println!("  evaluable places  : {evaluable:>6.1}  (paper: 62)");
    println!("\nDEP-B: discovery quality over evaluable places (GSM only)");
    println!("  correct : {:>6.2}%  (paper: 79.03%)", correct * 100.0);
    println!("  merged  : {:>6.2}%  (paper: 14.52%)", merged * 100.0);
    println!("  divided : {:>6.2}%  (paper:  6.45%)", divided * 100.0);
    println!("\nDEP-C: PlaceADs feedback");
    println!(
        "  like fraction = {:.1}%  (paper: 17:3 = 85%)",
        likes * 100.0
    );

    // With --seeds > 1 the snapshot accumulates across all runs (one
    // registry serves the whole process).
    if let (Some(path), Some(json)) = (&metrics_out, obs.metrics_json()) {
        std::fs::write(path, json).expect("write metrics snapshot");
        println!("\nmetrics snapshot written to {path}");
    }
}

fn print_participants(results: &StudyResults) {
    println!("per participant:");
    println!(
        "{:>4} {:>10} {:>7} {:>9} {:>8} {:>7} {:>8} {:>6} {:>8} {:>10}",
        "id",
        "discovered",
        "tagged",
        "evaluable",
        "correct",
        "merged",
        "divided",
        "likes",
        "dislikes",
        "energy(kJ)"
    );
    for (i, p) in results.participants.iter().enumerate() {
        println!(
            "{:>4} {:>10} {:>7} {:>9} {:>8} {:>7} {:>8} {:>6} {:>8} {:>10.1}",
            i,
            p.discovered,
            p.tagged,
            p.evaluable,
            p.correct,
            p.merged,
            p.divided,
            p.likes,
            p.dislikes,
            p.energy_joules / 1_000.0
        );
    }
}
