//! `pmware` — command-line front end for the PMWare reproduction.
//!
//! ```text
//! pmware world    [--region india|europe] [--seed N]
//! pmware simulate [--region ...] [--seed N] [--days N] [--granularity area|building|room]
//!                 [--metrics-out F] [--spans-out F]
//! pmware study    [--participants N] [--days N] [--seed N] [--region ...]
//!                 [--threads N] [--quiet]
//!                 [--store-dir DIR] [--resident-cap N] [--snapshot-every-days N]
//!                 [--metrics-out F] [--spans-out F]
//! pmware query    [--region ...] [--seed N] [--days N]
//! pmware help
//! ```
//!
//! Each command refuses any flag it does not accept, before doing any
//! work, so a typo never runs a default-sized study in silence.

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;

use pmware_algorithms::signature::{DiscoveredPlaceId, DiscoveredVisit};
use pmware_apps::PlaceAdsApp;
use pmware_bench::args::Args;
use pmware_bench::deployment::{run_study, StudyConfig};
use pmware_cloud::{
    ArrivalBody, CellDatabase, CloudInstance, NextVisitBody, Payload, PlaceOnlyBody, Response,
    SharedCloud, StorageConfig,
};
use pmware_core::intents::IntentFilter;
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity};
use pmware_core::PmsError;
use pmware_mobility::Population;
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{SimTime, World};

const HELP: &str = "\
pmware — PMWare middleware reproduction (ACM Middleware 2014)

USAGE:
    pmware <command> [flags]

COMMANDS:
    world       Build a synthetic city and describe it
    simulate    Run one participant's phone through PMWare
    study       Run the §4 deployment study
    query       Run the §2.3.2 analytics queries on a simulated history
    help        Show this message

COMMON FLAGS:
    --region india|europe   World profile        (default india)
    --seed N                Master seed          (default 2014)
    --days N                Simulated days       (default 7; study: 14)
    --participants N        Study cohort size    (default 16)
    --granularity g         area|building|room   (default building)
    --threads N             Study worker threads (default 1); results
                            are identical at any count
    --quiet                 Study: skip the configuration banner

STORAGE ENGINE (study):
    --resident-cap N        Max user stores resident in RAM; cold users
                            park in compacted snapshots and hydrate on
                            demand (default: unlimited)
    --store-dir DIR         Durable mode: per-shard WAL + snapshots under
                            DIR; a crashed instance recovers bit-identical
                            state from it
    --snapshot-every-days N Compaction cadence in sim-days (default 7;
                            needs --store-dir)
The engine never changes study outcomes — eviction is deterministic
sim-time LRU, and replay rebuilds byte-identical stores.

OBSERVABILITY (simulate, study):
    --metrics-out FILE      Write the final metrics snapshot as JSON
    --spans-out FILE        Write spans as JSONL: one causal tree per cloud
                            request, plus each participant's timeline
                            (pms.arrival, pms.departure, pms.maintenance, ...)
Collecting either never changes simulation results: metrics and spans
are keyed by simulated time, and the same seed produces byte-identical
output at any thread count.

Every command refuses flags it does not accept, and any flag but --quiet
given without a value.
";

/// The flags `pmware world` accepts.
const WORLD_FLAGS: &[&str] = &["region", "seed"];
/// The flags `pmware simulate` accepts.
const SIMULATE_FLAGS: &[&str] = &[
    "region",
    "seed",
    "days",
    "granularity",
    "metrics-out",
    "spans-out",
];
/// The flags `pmware study` accepts.
const STUDY_FLAGS: &[&str] = &[
    "region",
    "seed",
    "days",
    "participants",
    "threads",
    "store-dir",
    "resident-cap",
    "snapshot-every-days",
    "metrics-out",
    "spans-out",
    "quiet",
];
/// The flags `pmware query` accepts.
const QUERY_FLAGS: &[&str] = &["region", "seed", "days"];
/// The one flag that takes no value; every other flag requires one.
const SWITCHES: &[&str] = &["quiet"];

/// The observability output paths requested on the command line.
struct ObsOutputs {
    metrics_out: Option<String>,
    spans_out: Option<String>,
}

/// Builds the observability sink the `--metrics-out` / `--spans-out`
/// flags ask for ([`Obs::disabled`] when none is given), plus the output
/// paths.
fn obs_from_args(args: &Args) -> (Obs, ObsOutputs) {
    let outputs = ObsOutputs {
        metrics_out: args.flag("metrics-out").map(str::to_owned),
        spans_out: args.flag("spans-out").map(str::to_owned),
    };
    let mut obs = if outputs.metrics_out.is_some() {
        Obs::new()
    } else {
        Obs::disabled()
    };
    if outputs.spans_out.is_some() {
        obs = obs.with_spans();
    }
    (obs, outputs)
}

impl ObsOutputs {
    /// Creates each requested file, so an unwritable path fails the
    /// command before any work runs rather than after it.
    fn create(&self) -> Result<(), String> {
        for path in [&self.metrics_out, &self.spans_out].into_iter().flatten() {
            std::fs::File::create(path).map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Writes the collected snapshot/spans to the requested files.
fn write_obs_outputs(obs: &Obs, outputs: &ObsOutputs) -> Result<(), String> {
    if let (Some(path), Some(json)) = (outputs.metrics_out.as_deref(), obs.metrics_json()) {
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics snapshot written to {path}");
    }
    if let (Some(path), Some(jsonl)) = (outputs.spans_out.as_deref(), obs.spans_jsonl()) {
        std::fs::write(path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let command = args.positional(0).unwrap_or("help");
    match run(command, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `command` once its flags check out against the ones it accepts
/// and every flag but a switch carries a value.
fn run(command: &str, args: &Args) -> Result<(), String> {
    type Command = fn(&Args) -> Result<(), String>;
    let (accepted, cmd): (&[&str], Command) = match command {
        "world" => (WORLD_FLAGS, cmd_world),
        "simulate" => (SIMULATE_FLAGS, cmd_simulate),
        "study" => (STUDY_FLAGS, cmd_study),
        "query" => (QUERY_FLAGS, cmd_query),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}; try `pmware help`")),
    };
    if let Some(flag) = args.unknown_flag(accepted) {
        return Err(format!(
            "unknown flag --{flag} for `pmware {command}`; try `pmware help`"
        ));
    }
    args.check_values(SWITCHES)?;
    cmd(args)
}

fn region(args: &Args) -> Result<RegionProfile, String> {
    match args.flag("region").unwrap_or("india") {
        "india" => Ok(RegionProfile::urban_india()),
        "europe" => Ok(RegionProfile::urban_europe()),
        other => Err(format!("unknown region {other:?} (india|europe)")),
    }
}

fn granularity(args: &Args) -> Result<Granularity, String> {
    match args.flag("granularity").unwrap_or("building") {
        "area" => Ok(Granularity::Area),
        "building" => Ok(Granularity::Building),
        "room" => Ok(Granularity::Room),
        other => Err(format!(
            "unknown granularity {other:?} (area|building|room)"
        )),
    }
}

/// Parses the `--store-dir` / `--resident-cap` / `--snapshot-every-days`
/// trio into a [`StorageConfig`]. All absent (the default) leaves the
/// storage engine off — the plain all-resident in-memory cloud.
fn storage(args: &Args) -> Result<Option<StorageConfig>, String> {
    let cap = args
        .get("resident-cap", 0usize)
        .map_err(|e| e.to_string())?;
    if args.has("resident-cap") && cap == 0 {
        return Err("--resident-cap must be positive".into());
    }
    let store_dir = args.flag("store-dir").map(std::path::PathBuf::from);
    if store_dir.is_none() {
        if args.has("snapshot-every-days") {
            return Err("--snapshot-every-days needs --store-dir".into());
        }
        if cap == 0 {
            return Ok(None);
        }
    }
    let every = args
        .get("snapshot-every-days", 7u64)
        .map_err(|e| e.to_string())?;
    if every == 0 {
        return Err("--snapshot-every-days must be positive".into());
    }
    Ok(Some(StorageConfig {
        resident_cap: (cap > 0).then_some(cap),
        store_dir,
        snapshot_every_days: every,
    }))
}

/// The `--days` value: a positive whole number of days, `default` when
/// absent. Zero is refused like any other malformed value.
fn days(args: &Args, default: u64) -> Result<u64, String> {
    let default = NonZeroU64::new(default).expect("a positive default");
    args.get("days", default)
        .map(NonZeroU64::get)
        .map_err(|e| e.to_string())
}

fn build_world(args: &Args) -> Result<(World, u64), String> {
    let seed = args.get("seed", 2014u64).map_err(|e| e.to_string())?;
    let world = WorldBuilder::new(region(args)?).seed(seed).build();
    Ok((world, seed))
}

fn cmd_world(args: &Args) -> Result<(), String> {
    let (world, seed) = build_world(args)?;
    println!("world seed {seed}");
    println!(
        "  extent       : {:.1} x {:.1} km",
        world.bounds().width().to_kilometers().value(),
        world.bounds().height().to_kilometers().value()
    );
    println!("  cell towers  : {}", world.towers().len());
    println!("  access points: {}", world.access_points().len());
    println!("  places       : {}", world.places().len());
    println!("  road nodes   : {}", world.roads().node_count());

    // Per-category place counts.
    let mut counts = std::collections::BTreeMap::new();
    for place in world.places() {
        *counts.entry(place.category().label()).or_insert(0u32) += 1;
    }
    println!("  by category  :");
    for (label, n) in counts {
        println!("    {label:<14} {n}");
    }

    // WiFi coverage of places.
    let covered = world
        .places()
        .iter()
        .filter(|p| {
            let mut any = false;
            world.for_each_ap_near(p.position(), p.radius(), |_, _| any = true);
            any
        })
        .count();
    println!(
        "  wifi at places: {covered}/{} ({:.0}%)",
        world.places().len(),
        covered as f64 / world.places().len() as f64 * 100.0
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let days = days(args, 7)?;
    let (world, seed) = build_world(args)?;
    let granularity = granularity(args)?;
    let (obs, outputs) = obs_from_args(args);
    outputs.create()?;
    let population = Population::generate(&world, 1, seed + 1);
    let agent = &population.agents()[0];
    let itinerary = population.itinerary(&world, agent.id(), days);
    let cloud = SharedCloud::new(
        CloudInstance::new(CellDatabase::from_world(&world), seed + 3).with_obs(&obs),
    );
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(0),
        seed + 2,
    )
    .map_err(|e| e.to_string())?;
    pms.set_obs(&obs.for_actor("p0000"));
    let _rx = pms.register_app(
        "cli",
        AppRequirement::places(granularity),
        IntentFilter::all(),
    );
    pms.run(SimTime::from_day_time(days, 0, 0, 0))
        .map_err(|e| e.to_string())?;

    println!(
        "simulated {days} days at {} granularity",
        granularity.label()
    );
    println!("places discovered: {}", pms.places().len());
    for place in pms.places() {
        println!(
            "  {:<14} {:>2} cells {:>2} APs {:>3} visits{}{}",
            place.id.to_string(),
            place.cells.len(),
            place.wifi_aps.len(),
            place.visit_count,
            place
                .position
                .map(|p| format!("  est {p}"))
                .unwrap_or_default(),
            place
                .label
                .as_deref()
                .map(|l| format!("  [{l}]"))
                .unwrap_or_default(),
        );
    }
    println!("routes: {}", pms.routes().routes().len());
    let c = pms.counters();
    println!(
        "events: {} arrivals / {} departures / {} routes / {} offloads",
        c.arrivals, c.departures, c.routes, c.gca_offloads
    );
    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    println!("energy: {:.1} kJ", report.energy_joules / 1_000.0);
    for (interface, joules) in &report.energy_by_interface {
        println!("  {:>14}: {joules:>9.1} J", interface.label());
    }
    write_obs_outputs(&obs, &outputs)?;
    Ok(())
}

fn cmd_study(args: &Args) -> Result<(), String> {
    let seed = args.get("seed", 2014u64).map_err(|e| e.to_string())?;
    let (obs, outputs) = obs_from_args(args);
    let config = StudyConfig {
        participants: args
            .get(
                "participants",
                NonZeroUsize::new(16).expect("a positive default"),
            )
            .map_err(|e| e.to_string())?
            .get(),
        days: days(args, 14)?,
        seed,
        region: region(args)?,
        threads: args.get("threads", 1usize).map_err(|e| e.to_string())?,
        obs: obs.clone(),
        storage: storage(args)?,
    };
    outputs.create()?;
    if !args.has("quiet") {
        println!(
            "running {} participants x {} days (seed {})...",
            config.participants, config.days, config.seed
        );
        if let Some(storage) = &config.storage {
            println!(
                "storage engine: on (resident cap {}, {})",
                storage
                    .resident_cap
                    .map_or_else(|| "unlimited".to_owned(), |cap| cap.to_string()),
                match &storage.store_dir {
                    Some(dir) => format!("durable in {}", dir.display()),
                    None => "in-memory snapshots".to_owned(),
                }
            );
        }
    }
    let results = run_study(&config);
    println!(
        "places discovered : {:>4}  (paper: 123)",
        results.total_discovered()
    );
    println!(
        "places tagged     : {:>4}  (paper: 85)",
        results.total_tagged()
    );
    println!(
        "tagged fraction   : {:>4.1}% (paper: ~70%)",
        results.tagged_fraction() * 100.0
    );
    println!(
        "correct / merged / divided: {:.1}% / {:.1}% / {:.1}%  (paper: 79.0 / 14.5 / 6.5)",
        results.correct_fraction() * 100.0,
        results.merged_fraction() * 100.0,
        results.divided_fraction() * 100.0
    );
    println!(
        "ad likes : dislikes = {} : {} ({:.1}%; paper 17:3 = 85%)",
        results.likes(),
        results.dislikes(),
        results.like_fraction() * 100.0
    );
    write_obs_outputs(&obs, &outputs)?;
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let days = days(args, 14)?;
    let (world, seed) = build_world(args)?;
    let population = Population::generate(&world, 1, seed + 1);
    let agent = &population.agents()[0];
    let itinerary = population.itinerary(&world, agent.id(), days);
    let cloud = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(&world),
        seed + 3,
    ));
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(0),
        seed + 2,
    )
    .map_err(|e| e.to_string())?;
    // PlaceADs doubles as a demand source so the history is rich.
    let _rx = pms.register_app(
        "placeads",
        PlaceAdsApp::requirement(),
        PlaceAdsApp::filter(),
    );
    pms.run(SimTime::from_day_time(days, 0, 0, 0))
        .map_err(|e| e.to_string())?;
    let end = SimTime::from_day_time(days, 0, 0, 0);

    // Home is where the nights are spent: the place whose visits cover
    // the most time between midnight and 06:00.
    let home = pms
        .places()
        .iter()
        .max_by_key(|p| p.gca_visits.iter().map(night_seconds).sum::<u64>())
        .ok_or("no places discovered")?
        .id;
    println!("analytics over {days} simulated days (home = {home}):");
    let place = DiscoveredPlaceId(home.0);

    // A 404 here is an empty answer, not a failure: the cloud's history
    // holds no arrival in the window (or no visit pattern) yet.
    let arrival = pms.cloud_client_mut().call(
        "/api/v1/analytics/arrival",
        ArrivalBody {
            place,
            window: Some((15, 24)),
        },
        end,
    );
    match unless_empty(arrival)?.map(|resp| resp.body) {
        Some(Payload::ArrivalAt { second_of_day: s }) => println!(
            "  evening home arrival : {:02}:{:02}",
            s / 3600,
            (s % 3600) / 60
        ),
        Some(other) => return Err(format!("arrival: unexpected reply {}", other.to_json())),
        None => println!("  evening home arrival : none in the 15-24 h window yet"),
    }

    let next_visit = pms.cloud_client_mut().call(
        "/api/v1/analytics/next_visit",
        NextVisitBody { place, now: end },
        end,
    );
    match unless_empty(next_visit)?.map(|resp| resp.body) {
        Some(Payload::VisitAt { time }) => println!("  next home visit      : {time}"),
        Some(other) => return Err(format!("next_visit: unexpected reply {}", other.to_json())),
        None => println!("  next home visit      : no visit pattern yet"),
    }

    let resp = pms
        .cloud_client_mut()
        .call("/api/v1/analytics/frequency", PlaceOnlyBody { place }, end)
        .map_err(|e| e.to_string())?;
    let visits_per_week = match resp.body {
        Payload::Frequency {
            visits_per_week, ..
        } => visits_per_week,
        _ => 0.0,
    };
    println!("  home visit frequency : {visits_per_week:.1}/week");

    let resp = pms
        .cloud_client_mut()
        .call("/api/v1/analytics/activity", Payload::Empty, end)
        .map_err(|e| e.to_string())?;
    let moving = match resp.body {
        Payload::Activity {
            mean_daily_moving_minutes,
        } => mean_daily_moving_minutes,
        _ => 0.0,
    };
    println!("  daily movement       : {moving:.0} min/day");
    Ok(())
}

/// Seconds of `visit` that fall between midnight and 06:00, summed over
/// every night it spans.
fn night_seconds(visit: &DiscoveredVisit) -> u64 {
    (visit.arrival.day()..=visit.departure.day())
        .map(|day| {
            let midnight = SimTime::from_day_time(day, 0, 0, 0);
            let dawn = SimTime::from_day_time(day, 6, 0, 0);
            let stay = visit.departure.min(dawn).since(visit.arrival.max(midnight));
            stay.as_seconds()
        })
        .sum()
}

/// An analytics reply, or `None` when the cloud answered 404: the query
/// is well formed but its window holds nothing yet.
fn unless_empty(reply: Result<Response, PmsError>) -> Result<Option<Response>, String> {
    match reply {
        Ok(response) => Ok(Some(response)),
        Err(PmsError::Cloud { status: 404, .. }) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_flag_mapping() {
        // Absent: the engine stays off.
        assert!(storage(&Args::parse(Vec::<String>::new()))
            .unwrap()
            .is_none());
        // A cap alone: in-memory snapshots, bounded residency.
        let config = storage(&Args::parse(["--resident-cap", "8"]))
            .unwrap()
            .unwrap();
        assert_eq!(config.resident_cap, Some(8));
        assert!(config.store_dir.is_none());
        // A store dir alone: durable, unlimited residency, default cadence.
        let config = storage(&Args::parse(["--store-dir", "/tmp/pmware-store"]))
            .unwrap()
            .unwrap();
        assert!(config.resident_cap.is_none());
        assert_eq!(
            config.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pmware-store"))
        );
        assert_eq!(config.snapshot_every_days, 7);
        // Explicit zeros and a cadence with nowhere to snapshot are user
        // errors, not silent no-ops.
        assert!(storage(&Args::parse(["--resident-cap", "0"])).is_err());
        assert!(storage(&Args::parse(["--snapshot-every-days", "3"])).is_err());
        assert!(storage(&Args::parse([
            "--store-dir",
            "/tmp/pmware-store",
            "--snapshot-every-days",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn spans_flag_enables_span_collection() {
        let (obs, outputs) = obs_from_args(&Args::parse(["--spans-out", "/tmp/s.jsonl"]));
        assert!(obs.spans().is_some());
        assert_eq!(outputs.spans_out.as_deref(), Some("/tmp/s.jsonl"));
        // Without the flag obs stays off.
        let (obs, _) = obs_from_args(&Args::parse(Vec::<String>::new()));
        assert!(!obs.is_enabled());
    }

    /// A typo'd or retired flag, or a value flag given without a value, is
    /// refused by name before any work runs (each call below would
    /// otherwise build a world or run a study, and the last would only
    /// fail once the study was done).
    #[test]
    fn unknown_flags_are_refused_before_any_work() {
        let cases: [(&str, &[&str], &str); 9] = [
            (
                "world",
                &["--seed", "5", "--seeed", "6"],
                "unknown flag --seeed ",
            ),
            (
                "simulate",
                &["--days", "1", "--span-out", "/nonexistent/s.jsonl"],
                "unknown flag --span-out ",
            ),
            (
                "study",
                &["--participants", "1", "--days", "1", "--partcipants", "4"],
                "unknown flag --partcipants ",
            ),
            (
                "query",
                &["--days", "1", "--granularity", "room"],
                "unknown flag --granularity ",
            ),
            (
                "study",
                &["--days", "1", "--quiet", "--spans-out"],
                "--spans-out requires a value",
            ),
            ("study", &["--days", "0"], "invalid value \"0\" for --days"),
            (
                "simulate",
                &["--days", "0"],
                "invalid value \"0\" for --days",
            ),
            ("query", &["--days", "0"], "invalid value \"0\" for --days"),
            (
                "study",
                &["--participants", "0", "--days", "1"],
                "invalid value \"0\" for --participants",
            ),
        ];
        for (command, flags, expected) in cases {
            let args = Args::parse(std::iter::once(command).chain(flags.iter().copied()));
            let err = run(command, &args).expect_err(command);
            assert!(err.contains(expected), "{err}");
        }
        // Accepted flags pass the check (the run itself then fails on the
        // bad region value, before any work).
        let args = Args::parse(["study", "--quiet", "--region", "mars"]);
        assert!(run("study", &args).unwrap_err().contains("unknown region"));
    }

    #[test]
    fn region_mapping() {
        assert_eq!(
            region(&Args::parse(["--region", "india"])).unwrap().name,
            "urban-india"
        );
        assert_eq!(
            region(&Args::parse(["--region", "europe"])).unwrap().name,
            "urban-europe"
        );
        assert_eq!(
            region(&Args::parse(Vec::<String>::new())).unwrap().name,
            "urban-india"
        );
        assert!(region(&Args::parse(["--region", "mars"])).is_err());
    }

    #[test]
    fn granularity_mapping() {
        assert_eq!(
            granularity(&Args::parse(["--granularity", "room"])).unwrap(),
            Granularity::Room
        );
        assert_eq!(
            granularity(&Args::parse(Vec::<String>::new())).unwrap(),
            Granularity::Building
        );
        assert!(granularity(&Args::parse(["--granularity", "galaxy"])).is_err());
    }

    #[test]
    fn world_builds_from_flags() {
        let (world, seed) = build_world(&Args::parse(["--seed", "5"])).unwrap();
        assert_eq!(seed, 5);
        assert!(!world.places().is_empty());
    }
}
