//! PERF: cohort engine throughput — participants·days per second of the
//! deployment study at increasing worker-thread counts.
//!
//! This is the headline number for the parallel cohort engine: the same
//! bit-identical study (see `tests/parallel_determinism.rs`) executed at
//! each rung of a thread ladder from 1 up to one thread per core, with
//! wall-clock measured around `run_study` only (world/cloud construction
//! is inside the study and charged to every configuration equally).
//!
//! Usage: `cohort_throughput [--participants N] [--days D] [--repeats R]`
//! — after an untimed warm-up pass (binary faulted in, allocator arenas
//! grown, page cache hot), each configuration runs R times and the
//! **median** wall-clock is reported. The median is robust against a
//! one-off scheduler hiccup in either direction, where the minimum
//! systematically flatters a noisy machine and the mean is hostage to a
//! single outlier. Results are printed as a table and written to
//! `BENCH_cohort.json` in the current directory.

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use pmware_bench::args::Args;
use pmware_bench::deployment::{run_study, StudyConfig};
use pmware_bench::parallel::resolve_threads;
use pmware_world::builder::RegionProfile;

struct Run {
    threads: usize,
    seconds: f64,
    throughput: f64,
}

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

/// Thread ladder: powers of two from 1 up to (and always including) one
/// thread per core. An oversubscribed rung (more workers than cores)
/// measures scheduler churn, not the engine, so the ladder is clamped.
fn thread_ladder(max_threads: usize) -> Vec<usize> {
    let mut ladder = Vec::new();
    let mut t = 1;
    while t < max_threads {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max_threads);
    ladder
}

fn main() {
    let args = Args::for_binary(&["participants", "days", "repeats"]);
    let participants = args
        .value(
            "participants",
            NonZeroUsize::new(8).expect("positive default"),
        )
        .get();
    let days = args
        .value("days", NonZeroU64::new(7).expect("positive default"))
        .get();
    let repeats: usize = args.value("repeats", 3).max(1);

    let config = |threads| StudyConfig {
        participants,
        days,
        seed: 2014,
        region: RegionProfile::urban_india(),
        threads,
        obs: pmware_obs::Obs::disabled(),
        ..Default::default()
    };

    let max_threads = resolve_threads(0);
    let ladder = thread_ladder(max_threads);

    println!(
        "PERF: cohort throughput — {participants} participants x {days} days, \
         median of {repeats} run(s), {max_threads} core(s) available\n"
    );

    // Warm-up: fault in the binary, allocator arenas, and page cache once
    // so the first timed configuration isn't penalised. The warm-up run
    // doubles as the determinism reference every timed run must match.
    let reference = run_study(&config(1));

    let work = (participants as u64 * days) as f64;
    let mut runs: Vec<Run> = Vec::new();
    for &threads in &ladder {
        let mut samples = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let started = Instant::now();
            let results = run_study(&config(threads));
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(
                results, reference,
                "study at {threads} thread(s) diverged from sequential"
            );
            samples.push(elapsed);
        }
        let seconds = median(&mut samples);
        runs.push(Run {
            threads,
            seconds,
            throughput: work / seconds,
        });
    }

    println!(
        "{:>8} {:>10} {:>22} {:>9}",
        "threads", "wall (s)", "participant-days/sec", "speedup"
    );
    let baseline = runs[0].seconds;
    for r in &runs {
        println!(
            "{:>8} {:>10.2} {:>22.2} {:>8.2}x",
            r.threads,
            r.seconds,
            r.throughput,
            baseline / r.seconds
        );
    }

    let json = render_json(participants, days, repeats, max_threads, &runs, baseline);
    let path = "BENCH_cohort.json";
    std::fs::write(path, json).expect("write BENCH_cohort.json");
    println!("\nwrote {path}");
}

fn render_json(
    participants: usize,
    days: u64,
    repeats: usize,
    cores: usize,
    runs: &[Run],
    baseline: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cohort_throughput\",\n");
    out.push_str(&format!("  \"participants\": {participants},\n"));
    out.push_str(&format!("  \"days\": {days},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str("  \"statistic\": \"median\",\n");
    out.push_str(&format!("  \"cores_available\": {cores},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_seconds\": {:.4}, \
             \"participant_days_per_second\": {:.4}, \"speedup_vs_1_thread\": {:.4}}}{}\n",
            r.threads,
            r.seconds,
            r.throughput,
            baseline / r.seconds,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
