//! The repository's benchmark: three workloads over the PMWare
//! reproduction, end-to-end metrics from untraced runs, and per-layer
//! metrics from a separate traced run. See `perfbench/README.md` for why
//! each workload exists and what each metric should move.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload study|cloud_replay|cloud_durable --seed N
//!           --seconds S --trace 0|1 [--participants P --days D]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The command exits 1 when a correctness check fails and 2 on bad usage.
//! Durable stores and span exports go under `.bench_out/` in the working
//! directory.

mod calibrate;
mod cohort;
mod replay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pmware_bench::deployment::{run_study, StudyResults};
use pmware_cloud::router::ENDPOINT_LABELS;
use pmware_cloud::CellDatabase;
use pmware_obs::Obs;

use calibrate::{Piece, RefClock};
use cohort::{run_lockstep, Mode, Outcome, Size};
use replay::{
    durable_replay, gca_absorb, replay, CallTrace, Durability, Log, FIRST_TOUCH, RECOVER,
};
use stats::{median, peak_rss_mb, quantile, reset_peak_rss};
use trace::Tracer;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// The layer self times of a traced run must cover at least this share
/// of the traced wall time; the rest is the benchmark's own glue, mostly
/// the per-call bookkeeping of a traced replay (about 1 µs a call).
const LAYER_SUM_MIN_PCT: f64 = 90.0;
/// DEP-B tolerance: EXPERIMENTS.md measures 64.6 %–87.2 % correct per
/// seed at 16 × 14 (paper: 79.03 %); correct must stay the dominant
/// outcome and at least half of the evaluable places.
const DEP_B_MIN_CORRECT: f64 = 0.5;
/// DEP-B is only judged with at least this many evaluable places.
const DEP_B_MIN_EVALUABLE: usize = 10;

/// Endpoints the workloads send: the study's own traffic plus the app
/// read mix of the replays.
const ENDPOINTS: [&str; 11] = [
    "register",
    "token_refresh",
    "places_discover",
    "places_sync",
    "routes_sync",
    "profiles_sync",
    "geolocate_signature",
    "places_list",
    "analytics_next_place",
    "social_query",
    "analytics_activity",
];

/// Layers, named after the crates; `bench` is the benchmark's own glue.
const LAYERS: [&str; 9] = [
    "world",
    "mobility",
    "device",
    "core",
    "algorithms",
    "cloud",
    "storage",
    "apps",
    "bench",
];

/// Sensing interfaces the PMS scheduler triggers.
const INTERFACES: [&str; 5] = ["accel", "gsm", "wifi", "gps", "bluetooth"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Study,
    CloudReplay,
    CloudDurable,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "study" => Some(Workload::Study),
            "cloud_replay" => Some(Workload::CloudReplay),
            "cloud_durable" => Some(Workload::CloudDurable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::CloudReplay => "cloud_replay",
            Workload::CloudDurable => "cloud_durable",
        }
    }

    /// Fewest whole cycles over the cohorts in a timed phase, however
    /// short `--seconds` is. Three cycles of `study` give 1 344 user-day
    /// samples, so its p99 has more than ten beyond it; one cycle of
    /// `cloud_durable` takes about 14 s at the reference speed.
    fn min_cycles(self) -> usize {
        match self {
            Workload::Study | Workload::CloudReplay => 3,
            Workload::CloudDurable => 1,
        }
    }
}

/// Shape: cohorts × participants × days; `--participants` and `--days`
/// override the last two for a tiny run. Each cohort is an
/// independent study in its own world. Many small cohorts pool many
/// users: the slowest user-days, and the share of places found correctly,
/// differ from user to user, and with 16 × 4 users instead of 4 × 8 the
/// seed-to-seed spread of `sync_p99_us` on `cloud_replay` fell from 0.23
/// to 0.06 at the same participant-days.
const SHAPE: (usize, usize, u64) = (16, 4, 7);

/// Storage settings of `cloud_durable`: a resident cap below the
/// population and the daily snapshot sweep.
fn durability(participants: usize) -> Durability {
    Durability {
        resident_cap: (participants / 4).max(1),
        snapshot_every_days: 1,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    participants: usize,
    days: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// The run's cohorts; cohort `k` of seed `s` has seed `1000 s + k`.
    fn cohorts(&self) -> Vec<Size> {
        (0..SHAPE.0 as u64)
            .map(|k| Size {
                participants: self.participants,
                days: self.days,
                seed: self.seed.wrapping_mul(1000).wrapping_add(k),
            })
            .collect()
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let name = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        values.insert(name, value);
        i += 2;
    }
    fn get<T: std::str::FromStr>(values: &BTreeMap<&str, &str>, name: &str) -> Result<T, String> {
        let raw = values.get(name).ok_or(format!("--{name} is required"))?;
        raw.parse()
            .map_err(|_| format!("--{name}: bad value {raw:?}"))
    }
    let workload_name: String = get(&values, "workload")?;
    let workload =
        Workload::parse(&workload_name).ok_or(format!("unknown workload {workload_name:?}"))?;
    let (_, participants, days) = SHAPE;
    let participants = match values.get("participants") {
        Some(_) => get(&values, "participants")?,
        None => participants,
    };
    let days = match values.get("days") {
        Some(_) => get(&values, "days")?,
        None => days,
    };
    if participants == 0 || days == 0 {
        return Err("--participants and --days must be positive".into());
    }
    let trace: u8 = get(&values, "trace")?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    Ok(Args {
        workload,
        seed: get(&values, "seed")?,
        participants,
        days,
        seconds: get(&values, "seconds")?,
        trace: trace == 1,
    })
}

/// Operations attempted and failed, and the checks that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations of which `bad` failed.
    fn ops(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{what}: {bad} of {n} failed"));
        }
    }

    /// Counts one checked condition.
    fn check(&mut self, what: &str, ok: bool) {
        self.ops(what, 1, u64::from(!ok));
    }
}

/// Metric name → (value, unit), in insertion order of names.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &out_dir, &work_dir, &mut checks)
    } else {
        untraced(&args, &work_dir, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = checks.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Reference seconds of `pieces`.
fn ref_s(pieces: &[Piece]) -> f64 {
    pieces.iter().map(Piece::ref_ns).sum::<f64>() / 1e9
}

/// Reference seconds of the pieces tagged `tag`.
fn tagged_s(pieces: &[Piece], tag: usize) -> f64 {
    pieces
        .iter()
        .filter(|p| p.tag == tag)
        .map(Piece::ref_ns)
        .sum::<f64>()
        / 1e9
}

/// The replay time of each of `slots` user-days at the reference speed,
/// microseconds: the summed pieces tagged with the slot.
fn slot_us(pieces: &[Piece], slots: usize) -> Vec<f64> {
    let mut us = vec![0.0; slots];
    for piece in pieces.iter().filter(|p| p.tag < slots) {
        us[piece.tag] += piece.ref_ns() / 1e3;
    }
    us
}

/// The instance time of each user-day of a lockstep study, scaled by the
/// factor of the user-day's piece, microseconds.
fn scaled_slot_us(slot_ns: &[u64], pieces: &[Piece]) -> Vec<f64> {
    let mut factor = vec![1.0; slot_ns.len()];
    for piece in pieces.iter().filter(|p| p.tag < slot_ns.len()) {
        factor[piece.tag] = piece.factor;
    }
    slot_ns
        .iter()
        .zip(factor)
        .map(|(&ns, f)| ns as f64 * f / 1e3)
        .collect()
}

/// Set-up of `study`: `run_study` of every cohort, [`SETUP_PASSES`]
/// times; every pass must equal the first, which is returned as the
/// reference with each pass's reference seconds.
fn set_up_study(
    sizes: &[Size],
    clock: &mut RefClock,
    checks: &mut Checks,
) -> (Vec<StudyResults>, Vec<f64>) {
    let configs: Vec<_> = sizes.iter().map(Size::study_config).collect();
    let mut first: Vec<StudyResults> = Vec::new();
    let mut seconds = Vec::new();
    for pass in 0..SETUP_PASSES {
        clock.start();
        let mut results = Vec::with_capacity(configs.len());
        for (k, config) in configs.iter().enumerate() {
            results.push(run_study(config));
            clock.lap(k);
        }
        seconds.push(ref_s(&clock.take()));
        if pass == 0 {
            first = results;
        } else {
            for (r, f) in results.iter().zip(&first) {
                checks.check("set-up passes give equal study results", r == f);
            }
        }
    }
    (first, seconds)
}

/// Set-up of the replays: the lockstep study of every cohort, recording
/// its traffic and the app read mix, [`SETUP_PASSES`] times; every pass
/// must agree with the first, which is returned with each pass's
/// reference seconds. Later passes are compared cohort by cohort, between
/// clock pieces, and dropped.
fn set_up_replay(
    sizes: &[Size],
    clock: &mut RefClock,
    checks: &mut Checks,
) -> (Vec<Outcome>, Vec<f64>) {
    let mode = Mode {
        record: true,
        traced: false,
    };
    let mut first: Vec<Outcome> = Vec::new();
    let mut seconds = Vec::new();
    for pass in 0..SETUP_PASSES {
        for (k, &size) in sizes.iter().enumerate() {
            let outcome = run_lockstep(size, mode, clock);
            checks.ops(
                "set-up requests answered 2xx",
                outcome.probe.calls.iter().sum(),
                outcome.probe.non_2xx,
            );
            if pass == 0 {
                first.push(outcome);
            } else {
                checks.check(
                    "set-up passes give equal study results",
                    outcome.results == first[k].results,
                );
                checks.check(
                    "set-up passes record equal logs",
                    same_log(&outcome.probe.log, &first[k].probe.log),
                );
            }
        }
        seconds.push(ref_s(&clock.take()));
    }
    (first, seconds)
}

fn same_log(a: &[cohort::Exchange], b: &[cohort::Exchange]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.slot == y.slot && x.at == y.at && x.request == y.request && x.response == y.response
        })
}

/// All cohorts' participants as one study.
fn pooled<'a>(results: impl IntoIterator<Item = &'a StudyResults>) -> StudyResults {
    let mut all = StudyResults {
        participants: Vec::new(),
        cloud_requests: 0,
    };
    for r in results {
        all.participants.extend(r.participants.iter().cloned());
        all.cloud_requests += r.cloud_requests;
    }
    all
}

/// DEP-B: correct is the dominant outcome and at least
/// [`DEP_B_MIN_CORRECT`] of the evaluable places.
fn check_dep_b(results: &StudyResults, checks: &mut Checks) {
    if results.total_evaluable() < DEP_B_MIN_EVALUABLE {
        eprintln!(
            "perfbench: DEP-B not judged: {} evaluable places",
            results.total_evaluable()
        );
        return;
    }
    let correct = results.correct_fraction();
    checks.check(
        "DEP-B correct share within tolerance",
        correct >= DEP_B_MIN_CORRECT
            && correct >= results.merged_fraction()
            && correct >= results.divided_fraction(),
    );
}

/// Calls `rep` on cohort 0, 1, …, K − 1, 0, … until `seconds` have
/// passed and at least `min_cycles` whole cycles over the `cohorts` ran;
/// returns the number of calls.
fn repeat(seconds: f64, cohorts: usize, min_cycles: usize, mut rep: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_cycles * cohorts
        || reps % cohorts != 0
        || started.elapsed().as_secs_f64() < seconds
    {
        rep(reps % cohorts);
        reps += 1;
    }
    reps
}

fn logs(outcomes: Vec<Outcome>) -> Vec<Log> {
    outcomes
        .into_iter()
        .map(|o| {
            let cells = CellDatabase::from_world(&o.world);
            Log::new(o.size, cells, o.probe.log)
        })
        .collect()
}

/// The end-to-end run: set-up, then the workload's timed unit on one
/// cohort at a time in turn, for `--seconds`. Every time is taken with a
/// [`RefClock`] and so reads at the reference machine speed; throughput
/// is the median over whole cycles of the cohorts. The timed unit of
/// `study` is `run_study` of the cohort, followed by the untimed lockstep
/// rebuild that yields the live sync samples; that of the replays is the
/// cohort's log served again. `VmHWM` restarts after set-up, so
/// `peak_rss_mb` is the timed phase's peak.
fn untraced(args: &Args, work_dir: &Path, checks: &mut Checks) -> Metrics {
    let sizes = args.cohorts();
    let slots = args.participants * args.days as usize;
    let pd: f64 = sizes.iter().map(|s| s.participant_days() as f64).sum();
    let mut clock = RefClock::new();
    // Reference seconds of each timed unit, in run order.
    let mut units: Vec<f64> = Vec::new();
    let mut samples_us: Vec<f64> = Vec::new();
    let (results, setup_s, phone_requests) = match args.workload {
        Workload::Study => {
            let (references, setup_s) = set_up_study(&sizes, &mut clock, checks);
            reset_peak_rss();
            let configs: Vec<_> = sizes.iter().map(Size::study_config).collect();
            let mut phone_requests = vec![0; sizes.len()];
            repeat(args.seconds, sizes.len(), args.workload.min_cycles(), |k| {
                clock.start();
                let results = run_study(&configs[k]);
                clock.lap(k);
                units.push(ref_s(&clock.take()));
                checks.check("run_study repeats its results", results == references[k]);
                // The live sync samples need the instance timed per
                // user-day, which only the lockstep rebuild can do.
                let outcome = run_lockstep(sizes[k], Mode::default(), &mut clock);
                let pieces = clock.take();
                samples_us.extend(scaled_slot_us(&outcome.probe.slot_ns, &pieces));
                checks.check(
                    "lockstep study equals run_study",
                    outcome.results == references[k],
                );
                checks.ops(
                    "study requests answered 2xx",
                    outcome.probe.phone_requests,
                    outcome.probe.non_2xx,
                );
                phone_requests[k] = outcome.probe.phone_requests;
            });
            (pooled(&references), setup_s, phone_requests.iter().sum())
        }
        Workload::CloudReplay | Workload::CloudDurable => {
            let (outcomes, setup_s) = set_up_replay(&sizes, &mut clock, checks);
            let results = pooled(outcomes.iter().map(|o| &o.results));
            let phone_requests: u64 = outcomes.iter().map(|o| o.probe.phone_requests).sum();
            let logs = logs(outcomes);
            reset_peak_rss();
            let durable = args.workload == Workload::CloudDurable;
            let durability = durability(args.participants);
            let mut rep = 0;
            repeat(args.seconds, logs.len(), args.workload.min_cycles(), |k| {
                let log = &logs[k];
                let run = if durable {
                    let store = work_dir.join(format!("store-{rep}"));
                    rep += 1;
                    let run = durable_replay(log, &store, durability, &mut clock, None);
                    let users = log.users.len() as u64;
                    checks.ops("post-recovery reads answered 2xx", users, run.failed_reads);
                    checks.ops("places survive the crash", users, run.lost_places);
                    run.replay
                } else {
                    let instance = log.fresh_instance();
                    replay(log, &instance, &mut clock, None)
                };
                let pieces = clock.take();
                units.push(ref_s(&pieces));
                samples_us.extend(slot_us(&pieces, slots));
                checks.ops("replayed requests answered 2xx", run.requests, run.non_2xx);
                checks.ops(
                    "replayed responses equal recorded",
                    run.requests,
                    run.mismatches,
                );
            });
            (results, setup_s, phone_requests)
        }
    };
    check_dep_b(&results, checks);

    let cycle_rates: Vec<f64> = units
        .chunks(sizes.len())
        .map(|cycle| pd / cycle.iter().sum::<f64>())
        .collect();
    let energy: f64 = results.participants.iter().map(|p| p.energy_joules).sum();
    let kernel_ms: Vec<f64> = clock.kernel_ns().iter().map(|ns| ns / 1e6).collect();
    eprintln!(
        "perfbench: {} seed {} ({} cohorts of {}x{}): {} timed cohort runs, {} user-day samples; \
         cycle throughputs (pd/s at reference speed): {}",
        args.workload.name(),
        args.seed,
        SHAPE.0,
        args.participants,
        args.days,
        units.len(),
        samples_us.len(),
        cycle_rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "perfbench: speed kernel: {} timings, p10 {:.3}, quartiles {:.3} / {:.3} / {:.3} ms \
         (reference {:.3} ms)",
        kernel_ms.len(),
        quantile(&kernel_ms, 0.1),
        quantile(&kernel_ms, 0.25),
        quantile(&kernel_ms, 0.5),
        quantile(&kernel_ms, 0.75),
        calibrate::REFERENCE_NS / 1e6
    );
    vec![
        ("setup_s".into(), median(&setup_s), "s"),
        (
            "participant_days_per_s".into(),
            median(&cycle_rates),
            "pd/s",
        ),
        ("sync_p50_us".into(), quantile(&samples_us, 0.5), "us"),
        ("sync_p99_us".into(), quantile(&samples_us, 0.99), "us"),
        ("energy_j_per_pd".into(), energy / pd, "J"),
        (
            "wire_requests_per_pd".into(),
            phone_requests as f64 / pd,
            "count",
        ),
        (
            "places_correct_pct".into(),
            100.0 * results.correct_fraction(),
            "%",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        (
            "ok_ops_pct".into(),
            100.0 * (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
            "%",
        ),
    ]
}

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("world.build_s", "s"),
        ("mobility.itinerary_s", "s"),
        ("mobility.position_calls", "count"),
        ("mobility.position_s", "s"),
        ("device.setup_s", "s"),
        ("device.samples", "count"),
        ("core.register_s", "s"),
        ("core.pms_self_s", "s"),
        ("core.finish_s", "s"),
        ("apps.s", "s"),
        ("algorithms.classify_s", "s"),
        ("algorithms.gca_absorb_s", "s"),
        ("algorithms.gca_absorb_observations", "count"),
        ("cloud.setup_s", "s"),
        ("cloud.discover_overhead_s", "s"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for ep in ENDPOINTS {
        names.push((format!("cloud.client_calls.{ep}"), "count"));
        names.push((format!("cloud.client_s.{ep}"), "s"));
    }
    for ep in ENDPOINTS {
        names.push((format!("cloud.handle_calls.{ep}"), "count"));
        names.push((format!("cloud.handle_s.{ep}"), "s"));
        names.push((format!("cloud.handle_us_p99.{ep}"), "us"));
    }
    for iface in INTERFACES {
        names.push((format!("obs.sensing_triggers.{iface}"), "count"));
    }
    for (n, u) in [
        ("obs.gca_offloads", "count"),
        ("obs.gca_batch_observations", "count"),
        ("obs.client_retries", "count"),
        ("storage.evictions", "count"),
        ("storage.hydrations", "count"),
        ("storage.resident_users_max", "count"),
        ("storage.hydrating_call_us_p99", "us"),
        ("storage.evicting_call_us_p99", "us"),
        ("storage.day_first_call_us", "us"),
        ("storage.wal_bytes", "bytes"),
        ("storage.snapshot_bytes", "bytes"),
        ("storage.recover_call_s", "s"),
        ("storage.first_touch_s", "s"),
    ] {
        names.push((n.to_string(), u));
    }
    for layer in LAYERS {
        names.push((format!("self_s.{layer}"), "s"));
    }
    for (n, u) in [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.layer_sum_pct", "%"),
        ("trace.spans", "count"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

fn label_index(label: &str) -> usize {
    ENDPOINT_LABELS
        .iter()
        .position(|l| *l == label)
        .expect("a routed endpoint")
}

/// Per-layer values of one traced unit's spans, added into `m`.
fn span_metrics(tracer: &Tracer, m: &mut BTreeMap<String, f64>) {
    for (layer, s) in tracer.layer_self_s() {
        *m.entry(format!("self_s.{layer}")).or_insert(0.0) += s;
    }
    *m.entry("trace.wall_s".into()).or_insert(0.0) += tracer.wall_s();
    *m.entry("trace.spans".into()).or_insert(0.0) += tracer.spans().len() as f64;
}

/// Per-layer values of one cohort's traced study, added into `m`.
fn study_metrics(outcome: &Outcome, m: &mut BTreeMap<String, f64>) {
    let tracer = outcome.probe.tracer.as_ref().expect("a traced run");
    let by_name = tracer.self_by_name();
    let self_of = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let (position_s, position_calls) = tracer.total("mobility.position");
    let mut add = |name: String, value: f64| *m.entry(name).or_insert(0.0) += value;
    for (name, value) in [
        ("world.build_s", self_of("world.build")),
        ("mobility.itinerary_s", self_of("mobility.itinerary")),
        ("mobility.position_calls", position_calls as f64),
        ("mobility.position_s", position_s),
        ("device.setup_s", self_of("device.setup")),
        ("core.register_s", self_of("core.register")),
        ("core.pms_self_s", self_of("core.pms")),
        ("core.finish_s", self_of("core.finish")),
        ("apps.s", self_of("apps.setup") + self_of("apps.day")),
        ("algorithms.classify_s", self_of("algorithms.classify")),
        ("cloud.setup_s", self_of("cloud.setup")),
    ] {
        add(name.into(), value);
    }
    for ep in ENDPOINTS {
        let i = label_index(ep);
        add(
            format!("cloud.client_calls.{ep}"),
            outcome.probe.calls[i] as f64,
        );
        add(
            format!("cloud.client_s.{ep}"),
            outcome.probe.ns[i] as f64 / 1e9,
        );
    }
    let snapshot = outcome
        .obs
        .as_ref()
        .and_then(Obs::metrics)
        .expect("a traced run has a registry")
        .snapshot();
    for iface in INTERFACES {
        add(
            format!("obs.sensing_triggers.{iface}"),
            snapshot.counter_sum_with_prefix(&format!(
                "pms_sensing_triggers_total{{interface=\"{iface}\""
            )) as f64,
        );
    }
    let batch_observations: u64 = snapshot
        .iter()
        .filter(|(key, _)| key.starts_with("pms_gca_batch_observations"))
        .map(|(_, value)| match value {
            pmware_obs::metrics::SnapshotValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum();
    for (name, value) in [
        (
            "device.samples",
            snapshot.counter_sum_with_prefix("device_samples_total"),
        ),
        (
            "obs.gca_offloads",
            snapshot.counter_sum_with_prefix("pms_gca_offloads_total"),
        ),
        ("obs.gca_batch_observations", batch_observations),
        (
            "obs.client_retries",
            snapshot.counter_sum_with_prefix("client_retries_total"),
        ),
    ] {
        add(name.into(), value as f64);
    }
    span_metrics(tracer, m);
}

/// Per-layer values of one traced replay unit over every cohort's log.
fn replay_metrics(logs: &[Log], trace: &CallTrace, m: &mut BTreeMap<String, f64>) {
    for ep in ENDPOINTS {
        let i = label_index(ep);
        m.insert(format!("cloud.handle_calls.{ep}"), trace.calls[i] as f64);
        m.insert(format!("cloud.handle_s.{ep}"), trace.seconds(i));
        m.insert(format!("cloud.handle_us_p99.{ep}"), trace.p99_us(i));
    }
    let (absorb_s, observations) = logs
        .iter()
        .map(gca_absorb)
        .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.insert("algorithms.gca_absorb_s".into(), absorb_s);
    m.insert(
        "algorithms.gca_absorb_observations".into(),
        observations as f64,
    );
    m.insert(
        "cloud.discover_overhead_s".into(),
        trace.seconds(label_index("places_discover")) - absorb_s,
    );
    span_metrics(&trace.tracer, m);
}

/// The traced run: an untraced and a traced unit of the workload over
/// every cohort, paired and repeated until `--seconds` have passed.
/// Per-layer values are the mean over traced units; the spans of the
/// first are written out.
fn traced(args: &Args, out_dir: &Path, work_dir: &Path, checks: &mut Checks) -> Metrics {
    let sizes = args.cohorts();
    let mut units: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut spans: Option<String> = None;
    let started = Instant::now();
    match args.workload {
        Workload::Study => {
            let references: Vec<StudyResults> =
                sizes.iter().map(|s| run_study(&s.study_config())).collect();
            let mut raw = RefClock::raw();
            let traced_mode = Mode {
                traced: true,
                ..Mode::default()
            };
            while units.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
                let mut m = BTreeMap::new();
                let t = Instant::now();
                for (&size, reference) in sizes.iter().zip(&references) {
                    let plain = run_lockstep(size, Mode::default(), &mut raw);
                    checks.check(
                        "lockstep study equals run_study",
                        plain.results == *reference,
                    );
                }
                untraced_walls.push(t.elapsed().as_secs_f64());
                for (&size, reference) in sizes.iter().zip(&references) {
                    let outcome = run_lockstep(size, traced_mode, &mut raw);
                    checks.check(
                        "traced study equals run_study",
                        outcome.results == *reference,
                    );
                    checks.ops(
                        "study requests answered 2xx",
                        outcome.probe.phone_requests,
                        outcome.probe.non_2xx,
                    );
                    study_metrics(&outcome, &mut m);
                    let tracer = outcome.probe.tracer.as_ref().expect("traced");
                    spans.get_or_insert_with(|| tracer.to_jsonl());
                }
                raw.take();
                units.push(m);
            }
        }
        Workload::CloudReplay | Workload::CloudDurable => {
            let mode = Mode {
                record: true,
                traced: false,
            };
            let mut raw = RefClock::raw();
            let logs = logs(
                sizes
                    .iter()
                    .map(|&s| run_lockstep(s, mode, &mut raw))
                    .collect(),
            );
            raw.take();
            let durable = args.workload == Workload::CloudDurable;
            let durability = durability(args.participants);
            let mut rep = 0;
            while units.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
                let mut m = BTreeMap::new();
                let mut trace = CallTrace::new();
                let mut untraced_wall = 0.0;
                for log in &logs {
                    rep += 1;
                    if durable {
                        durable_replay(
                            log,
                            &work_dir.join(format!("plain-{rep}")),
                            durability,
                            &mut raw,
                            None,
                        );
                        untraced_wall += ref_s(&raw.take());
                        let run = durable_replay(
                            log,
                            &work_dir.join(format!("traced-{rep}")),
                            durability,
                            &mut raw,
                            Some(&mut trace),
                        );
                        let pieces = raw.take();
                        checks.ops(
                            "durable responses equal in-memory ones",
                            run.replay.requests,
                            run.replay.mismatches + run.replay.non_2xx,
                        );
                        checks.ops(
                            "places survive the crash",
                            log.users.len() as u64,
                            run.lost_places + run.failed_reads,
                        );
                        for (name, value) in [
                            ("storage.evictions", run.evictions as f64),
                            ("storage.hydrations", run.hydrations as f64),
                            ("storage.wal_bytes", run.wal_bytes as f64),
                            ("storage.snapshot_bytes", run.snapshot_bytes as f64),
                            ("storage.recover_call_s", tagged_s(&pieces, RECOVER)),
                            ("storage.first_touch_s", tagged_s(&pieces, FIRST_TOUCH)),
                        ] {
                            *m.entry(name.to_owned()).or_insert(0.0) += value;
                        }
                    } else {
                        let instance = log.fresh_instance();
                        replay(log, &instance, &mut raw, None);
                        untraced_wall += ref_s(&raw.take());
                        drop(instance);
                        let instance = log.fresh_instance();
                        let run = replay(log, &instance, &mut raw, Some(&mut trace));
                        raw.take();
                        checks.ops(
                            "replayed responses equal recorded",
                            run.requests,
                            run.mismatches + run.non_2xx,
                        );
                    }
                }
                untraced_walls.push(untraced_wall);
                if durable {
                    for (name, value) in [
                        ("storage.resident_users_max", trace.resident_max as f64),
                        (
                            "storage.hydrating_call_us_p99",
                            quantile(&trace.hydrating_us, 0.99),
                        ),
                        (
                            "storage.evicting_call_us_p99",
                            quantile(&trace.evicting_us, 0.99),
                        ),
                        ("storage.day_first_call_us", median(&trace.day_first_us)),
                    ] {
                        m.insert(name.into(), value);
                    }
                }
                replay_metrics(&logs, &trace, &mut m);
                spans.get_or_insert_with(|| trace.tracer.to_jsonl());
                units.push(m);
            }
        }
    }

    let mut mean: BTreeMap<String, f64> = BTreeMap::new();
    for unit in &units {
        for (name, value) in unit {
            *mean.entry(name.clone()).or_insert(0.0) += value / units.len() as f64;
        }
    }
    let untraced_wall = median(&untraced_walls);
    let traced_wall = mean.get("trace.wall_s").copied().unwrap_or(0.0);
    let glue = mean.get("self_s.bench").copied().unwrap_or(0.0);
    let layer_sum_pct = 100.0 * (traced_wall - glue) / traced_wall;
    mean.insert("trace.untraced_wall_s".into(), untraced_wall);
    mean.insert("trace.overhead_s".into(), traced_wall - untraced_wall);
    mean.insert("trace.layer_sum_pct".into(), layer_sum_pct);
    checks.check(
        "layer self times cover the traced wall",
        layer_sum_pct >= LAYER_SUM_MIN_PCT,
    );
    if let Some(spans) = spans {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, spans));
        checks.check("spans written out", written.is_ok());
    }
    eprintln!(
        "perfbench: traced {} seed {}: {} traced units, layer self times cover {layer_sum_pct:.2} % \
         of the traced wall (tolerance: at least {LAYER_SUM_MIN_PCT} %)",
        args.workload.name(),
        args.seed,
        units.len()
    );
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = mean.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}
