//! PERF: incremental vs. batch discovery cost as history grows, plus
//! cold vs. memoized analytics throughput.
//!
//! Part 1 simulates a multi-day deployment: each "night" appends one day
//! of GSM observations and runs discovery twice — once as the old batch
//! pipeline (`gca::discover_places` over the full log) and once as the
//! incremental engine (`IncrementalGca::absorb` of the suffix + a
//! `places()` read). Outputs are asserted identical every night, so the
//! timings compare two implementations of the *same* answer. Per-night
//! batch cost grows with total history; incremental cost tracks the
//! suffix.
//!
//! Part 2 stores a profile history and answers the `next_place` Markov
//! query repeatedly: cold retrains the model per query (the old endpoint
//! behaviour), memoized trains once per history generation (the new
//! endpoint behaviour, reproduced here at the library level).
//!
//! Usage: `gca_scaling [--days D] [--repeats R] [--queries Q]
//! [--history-days H]` — writes `BENCH_gca.json` in the current
//! directory.

use std::time::Instant;

use pmware_algorithms::gca::{self, GcaConfig, IncrementalGca};
use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_bench::args::Args;
use pmware_cloud::analytics::ProfileHistory;
use pmware_cloud::predict::MarkovPredictor;
use pmware_cloud::profile::{MobilityProfile, PlaceEntry};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};

struct Night {
    day: u64,
    history_len: usize,
    suffix_len: usize,
    batch_seconds: f64,
    incremental_seconds: f64,
}

fn cell(id: u32) -> CellGlobalId {
    CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    }
}

/// One day of minute-spaced observations: home overnight, work during the
/// day, an evening errand — every stay an oscillation between two cells so
/// GCA has bounce edges to cluster.
fn day_observations(day: u64) -> Vec<GsmObservation> {
    (0..1_440u64)
        .map(|m| {
            let (a, b) = match m {
                0..=479 => (1, 2),                             // home
                480..=539 => (10 + (m / 12 % 3) as u32, 20),   // commute drift
                540..=1019 => (3, 4),                          // work
                1020..=1079 => (30, 31 + (m / 15 % 2) as u32), // commute back
                1080..=1199 => (5, 6),                         // errand
                _ => (1, 2),                                   // home again
            };
            GsmObservation {
                time: SimTime::from_seconds((day * 1_440 + m) * 60),
                cell: cell(if m % 3 == 1 { b } else { a }),
                layer: NetworkLayer::G2,
                rssi_dbm: -70.0,
            }
        })
        .collect()
}

fn bench_discovery(days: u64, repeats: usize, config: &GcaConfig) -> Vec<Night> {
    let mut nights = Vec::new();
    let mut log: Vec<GsmObservation> = Vec::new();
    let mut engine = IncrementalGca::new(config.clone());
    for day in 0..days {
        let suffix = day_observations(day);
        log.extend_from_slice(&suffix);

        // Batch: what the pre-incremental pipeline paid every night.
        let mut batch_best = f64::INFINITY;
        let mut batch_out = None;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = gca::discover_places(&log, config);
            batch_best = batch_best.min(started.elapsed().as_secs_f64());
            batch_out = Some(out);
        }

        // Incremental: the absorb mutates state so it can only run once —
        // it is timed once and charged in full; only the pure `places()`
        // read takes the best of the repeats.
        let started = Instant::now();
        engine.absorb(&suffix);
        let absorb_seconds = started.elapsed().as_secs_f64();
        let mut read_best = f64::INFINITY;
        let mut incr_out = None;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = engine.places();
            read_best = read_best.min(started.elapsed().as_secs_f64());
            incr_out = Some(out);
        }
        let incr_best = absorb_seconds + read_best;

        assert_eq!(
            incr_out, batch_out,
            "incremental diverged from batch on night {day}"
        );
        nights.push(Night {
            day,
            history_len: log.len(),
            suffix_len: suffix.len(),
            batch_seconds: batch_best,
            incremental_seconds: incr_best,
        });
    }
    nights
}

/// (cold queries/sec, memoized queries/sec) for the Markov next-place
/// query over `days` stored profiles.
fn bench_analytics(days: u64, queries: usize) -> (f64, f64) {
    let mut history = ProfileHistory::new();
    for day in 0..days {
        let mut profile = MobilityProfile::new(day);
        for (i, place) in [0u32, 1, 2, 0].into_iter().enumerate() {
            profile.places.push(PlaceEntry {
                place: DiscoveredPlaceId(place),
                arrival: SimTime::from_day_time(day, 4 * i as u64, 0, 0),
                departure: SimTime::from_day_time(day, 4 * i as u64 + 3, 0, 0),
            });
        }
        history.upsert(profile);
    }
    let place = DiscoveredPlaceId(0);

    // Cold: retrain per query, as the endpoint did before memoization.
    let started = Instant::now();
    for _ in 0..queries {
        let model = MarkovPredictor::train(&history);
        std::hint::black_box(model.predict_next(place));
    }
    let cold = queries as f64 / started.elapsed().as_secs_f64();

    // Memoized: retrain only when the history generation moves.
    let mut cache: Option<(u64, MarkovPredictor)> = None;
    let started = Instant::now();
    for _ in 0..queries {
        let generation = history.generation();
        if cache.as_ref().map(|(g, _)| *g) != Some(generation) {
            cache = Some((generation, MarkovPredictor::train(&history)));
        }
        let (_, model) = cache.as_ref().expect("cache filled");
        std::hint::black_box(model.predict_next(place));
    }
    let memoized = queries as f64 / started.elapsed().as_secs_f64();
    (cold, memoized)
}

fn main() {
    let args = Args::for_binary(&["days", "repeats", "queries", "history-days"]);
    let days: u64 = args.value("days", 14);
    let repeats: usize = args.value("repeats", 3).max(1);
    let queries: usize = args.value("queries", 10_000);
    // The long-term profile history spans months (§2.3.2); the analytics
    // part uses its own, longer horizon so the cold-retrain cost is
    // representative.
    let history_days: u64 = args.value("history-days", 90);
    let config = GcaConfig::default();

    println!("PERF: GCA nightly discovery — {days} day(s), best of {repeats} repeat(s)\n");
    let nights = bench_discovery(days, repeats, &config);

    println!(
        "{:>5} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "night", "history", "suffix", "batch (ms)", "incr (ms)", "speedup"
    );
    for n in &nights {
        println!(
            "{:>5} {:>9} {:>8} {:>12.3} {:>12.3} {:>8.1}x",
            n.day,
            n.history_len,
            n.suffix_len,
            n.batch_seconds * 1e3,
            n.incremental_seconds * 1e3,
            n.batch_seconds / n.incremental_seconds
        );
    }

    let (cold, memoized) = bench_analytics(history_days, queries);
    println!(
        "\nPERF: next_place analytics over {history_days} day(s), {queries} queries — \
         cold {cold:.0} q/s, memoized {memoized:.0} q/s ({:.0}x)",
        memoized / cold
    );

    let mut json = String::from("{\n  \"bench\": \"gca_scaling\",\n");
    json.push_str(&format!("  \"days\": {days},\n  \"repeats\": {repeats},\n"));
    json.push_str("  \"nightly_discovery\": [\n");
    for (i, n) in nights.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"night\": {}, \"history_observations\": {}, \"suffix_observations\": {}, \
             \"batch_seconds\": {:.6}, \"incremental_seconds\": {:.6}, \
             \"speedup\": {:.2}}}{}\n",
            n.day,
            n.history_len,
            n.suffix_len,
            n.batch_seconds,
            n.incremental_seconds,
            n.batch_seconds / n.incremental_seconds,
            if i + 1 < nights.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"analytics_next_place\": {{\"history_days\": {history_days}, \"queries\": {queries}, \
         \"cold_queries_per_second\": {cold:.1}, \
         \"memoized_queries_per_second\": {memoized:.1}, \
         \"memoized_speedup\": {:.1}}}\n",
        memoized / cold
    ));
    json.push_str("}\n");
    let path = "BENCH_gca.json";
    std::fs::write(path, json).expect("write BENCH_gca.json");
    println!("\nwrote {path}");
}
