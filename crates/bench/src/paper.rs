//! The paper's tables: Figure 1 and its empirical cross-check, Figure 2,
//! the §1 WiFi numbers, the §4 deployment study, the ablations of the
//! paper's claims, the route modes and the detection latency.
//!
//! Each table is one function that writes it to `out`. The `paper` binary
//! prints one by name (`paper dep --seeds 5`) or, given no name, every
//! table in [`TABLES`] order, and `tests/paper_tables.rs` pins every table
//! at its defaults byte for byte. Everything here runs on simulated time
//! under fixed seeds, so a table's bytes depend on nothing but the code.

use std::fs::File;
use std::io::{self, Write};
use std::num::{NonZeroU64, NonZeroUsize};

use pmware_algorithms::gca::{self, GcaConfig};
use pmware_algorithms::matching::{classify_places, GroundTruthVisit};
use pmware_algorithms::route::RouteGeometry;
use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::intents::{actions, IntentFilter};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{app_characterization, AppRequirement, Granularity, RouteAccuracy};
use pmware_core::sensing::SensingConfig;
use pmware_core::{diary, score_against_diary, DIARY_MIN_SHARE};
use pmware_device::energy::{figure1_dataset, EnergyModel, Interface};
use pmware_device::Device;
use pmware_geo::Meters;
use pmware_mobility::{Itinerary, Population, Segment, TrueVisit};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{GsmObservation, SimDuration, SimTime, World};

use crate::args::Args;
use crate::deployment::{run_study, StudyConfig, StudyResults};
use crate::parallel::{parallel_map, resolve_threads};

/// Writes one table to `out`, reading the table's flags from the `Args`.
pub type Render = fn(&Args, &mut dyn Write) -> io::Result<()>;

/// Every table in EXPERIMENTS.md order: its name, the flags it accepts
/// and its renderer. A table without flags renders at fixed sizes.
pub const TABLES: [(&str, &[&str], Render); 10] = [
    ("fig1", &[], |_, out| fig1(out)),
    ("fig2", &[], |_, out| fig2(out)),
    ("intro-wifi", &[], |_, out| intro_wifi(out)),
    (
        "dep",
        &["seeds", "participants", "days", "threads", "metrics-out"],
        dep,
    ),
    ("abl-trig", &[], |_, out| abl_trig(out)),
    ("abl-red", &[], |_, out| abl_red(out)),
    ("abl-gca", &[], |_, out| abl_gca(out)),
    ("route-acc", &[], |_, out| route_acc(out)),
    ("fig1-emp", &[], |_, out| fig1_emp(out)),
    ("det-lat", &["participants", "days", "threads"], det_lat),
];

/// Writes every table at its defaults, one blank line between tables.
pub fn all(out: &mut dyn Write) -> io::Result<()> {
    for (i, (_, _, render)) in TABLES.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        render(&Args::default(), out)?;
    }
    Ok(())
}

/// FIG1: Figure 1, "Power consumption analysis of different location
/// interfaces, performed on a HTC A310E Explorer Phone with 1230 mAh
/// battery".
///
/// Battery duration (hours) per interface across sampling periods, plus
/// the headline GSM-vs-GPS ratio at a one-minute period ("battery
/// duration is almost 11x if GSM location is sensed at every minute
/// compared to GPS coordinates").
pub fn fig1(out: &mut dyn Write) -> io::Result<()> {
    let model = EnergyModel::htc_explorer();
    let periods = [
        SimDuration::from_seconds(10),
        SimDuration::from_seconds(30),
        SimDuration::from_minutes(1),
        SimDuration::from_minutes(2),
        SimDuration::from_minutes(5),
        SimDuration::from_minutes(10),
    ];

    writeln!(
        out,
        "FIG1: battery duration (hours) under continuous sensing"
    )?;
    writeln!(
        out,
        "battery: 1230 mAh @ 3.7 V = {:.0} J\n",
        model.battery().energy_joules()
    )?;

    write!(out, "{:>10}", "period")?;
    for i in Interface::ALL {
        write!(out, "{:>15}", i.label())?;
    }
    writeln!(out)?;
    for row in &figure1_dataset(&model, &periods) {
        write!(out, "{:>10}", row.period.to_string())?;
        for (_, hours) in &row.hours {
            write!(out, "{hours:>15.1}")?;
        }
        writeln!(out)?;
    }

    let minute = SimDuration::from_minutes(1);
    let gps = model.battery_duration_hours(Interface::Gps, minute);
    let gsm = model.battery_duration_hours(Interface::Gsm, minute);
    writeln!(
        out,
        "\nGSM@1min / GPS@1min battery ratio: {:.1}x (paper: ~11x)",
        gsm / gps
    )?;

    writeln!(out, "\naverage power draw at 1-minute sampling (mW):")?;
    for i in Interface::ALL {
        writeln!(
            out,
            "  {:>14}: {:7.1}",
            i.label(),
            model.average_power_w(i, minute) * 1_000.0
        )?;
    }
    Ok(())
}

/// FIG1-EMP: empirical cross-check of the Figure 1 energy model.
///
/// [`fig1`] prints the *closed-form* battery durations. This runs an
/// actual sampling loop on a simulated phone (paying per-sample energy
/// plus baseline) and projects the battery lifetime from the measured
/// drain. Closed-form and simulated columns should match to within a
/// fraction of a percent; anything else means the device's billing
/// diverged from the model.
pub fn fig1_emp(out: &mut dyn Write) -> io::Result<()> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(55)
        .build();
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let spot = world.places()[0].position();
    let model = EnergyModel::htc_explorer();
    let capacity = model.battery().energy_joules();

    let periods = [
        SimDuration::from_seconds(30),
        SimDuration::from_minutes(1),
        SimDuration::from_minutes(5),
    ];

    writeln!(
        out,
        "FIG1-EMP: closed-form vs simulated battery duration (hours)"
    )?;
    writeln!(
        out,
        "(one simulated day of sampling per cell, stationary device)\n"
    )?;
    writeln!(
        out,
        "{:>14} {:>8} {:>12} {:>12} {:>8}",
        "interface", "period", "closed-form", "simulated", "delta"
    )?;
    writeln!(out, "{}", "-".repeat(60))?;

    for interface in [Interface::Gps, Interface::WifiScan, Interface::Gsm] {
        for period in periods {
            let closed = model.battery_duration_hours(interface, period);

            // Simulate one day of sampling at this period.
            let mut phone = Device::new(env.clone(), spot, EnergyModel::htc_explorer(), 56);
            let day = 24 * 3_600;
            let mut t = 0u64;
            while t < day {
                let now = SimTime::from_seconds(t);
                phone.bill_baseline(now);
                match interface {
                    Interface::Gps => {
                        let _ = phone.fix_gps(now);
                    }
                    Interface::WifiScan => {
                        let _ = phone.scan_wifi(now);
                    }
                    Interface::Gsm => {
                        let _ = phone.sample_gsm(now);
                    }
                    _ => unreachable!("not swept"),
                }
                t += period.as_seconds();
            }
            phone.bill_baseline(SimTime::from_seconds(day));
            let drained = phone.battery().drained_joules();
            let simulated = capacity / drained * 24.0;
            let delta = (simulated - closed) / closed * 100.0;
            writeln!(
                out,
                "{:>14} {:>8} {:>12.1} {:>12.1} {:>7.2}%",
                interface.label(),
                period.to_string(),
                closed,
                simulated,
                delta
            )?;
        }
    }
    writeln!(
        out,
        "\nDeltas stay within ±1% (the simulated loop quantises the last\n\
         partial period of the day)."
    )
}

/// FIG2: Figure 2, "Characterization of place-aware applications": which
/// application classes need which place granularity, and what PMWare
/// therefore samples for them.
pub fn fig2(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "FIG2: characterization of place-aware applications\n")?;
    writeln!(
        out,
        "{:<42} {:<12} {:<24} examples",
        "application class", "granularity", "triggered interfaces"
    )?;
    writeln!(out, "{}", "-".repeat(110))?;
    for row in app_characterization() {
        let interfaces: Vec<&str> = row
            .granularity
            .triggered_interfaces()
            .iter()
            .map(|i| i.label())
            .collect();
        let interfaces = if interfaces.is_empty() {
            "gsm only".to_owned()
        } else {
            format!("gsm + {}", interfaces.join(" + "))
        };
        writeln!(
            out,
            "{:<42} {:<12} {:<24} {}",
            row.application,
            row.granularity.label(),
            interfaces,
            row.examples
        )?;
    }

    writeln!(out, "\ngranularity classes (coarse to fine):")?;
    for g in Granularity::ALL {
        writeln!(
            out,
            "  {:<9} ~{:>5.0} m payload precision",
            g.label(),
            g.coarseness_m()
        )?;
    }
    Ok(())
}

/// INTRO-WIFI: fraction of a day spent under WiFi coverage by region
/// (§1 item 4: *"we found that a mobile user is under WiFi coverage for
/// nearly 60 % time during a day in India opposed to more than 90 % in a
/// developed country such as Switzerland."*).
pub fn intro_wifi(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "INTRO-WIFI: WiFi-covered fraction of a day by region profile\n\
         (10 agents x 7 days per region, positions sampled every 2 min)\n"
    )?;
    for (profile, paper) in [
        (RegionProfile::urban_india(), "~60%"),
        (RegionProfile::urban_europe(), ">90%"),
    ] {
        let region = profile.name.clone();
        let world = WorldBuilder::new(profile).seed(42).build();
        let covered = coverage_fraction(&world, 10, 7, 43);
        writeln!(
            out,
            "  {region:<14} {:>5.1}%  (paper: {paper})",
            covered * 100.0
        )?;
    }
    Ok(())
}

/// Fraction of `days` the agents of `world` spend under WiFi coverage:
/// each agent's true position is sampled every two minutes and counts as
/// covered when any access point is detectable from it.
fn coverage_fraction(world: &World, agents: usize, days: u64, seed: u64) -> f64 {
    let population = Population::generate(world, agents, seed);
    let mut covered = 0u64;
    let mut total = 0u64;
    for agent in population.agents() {
        let itinerary = population.itinerary(world, agent.id(), days);
        for minute in (0..days * 24 * 60).step_by(2) {
            let t = SimTime::from_seconds(minute * 60);
            let pos = itinerary.position_at(t);
            let mut any = false;
            world.for_each_ap_near(pos, Meters::new(150.0), |ap, d| {
                // "Under WiFi coverage" = some network is detectable at all
                // from here, matching how the paper's phones logged it.
                if ap.detection_probability(d) > 0.0 {
                    any = true;
                }
            });
            covered += any as u64;
            total += 1;
        }
    }
    covered as f64 / total as f64
}

/// DEP-A/B/C: the §4 deployment study, 16 participants over two weeks
/// with PMWare and PlaceADs, scored against the diary.
///
/// Paper numbers: 123 places discovered; 85 tagged (~70 %); 62 evaluable;
/// 79.03 % correct / 14.52 % merged / 6.45 % divided; ad like:dislike 17:3.
///
/// Flags: `--seeds N` repeats the study over consecutive seeds from 2014
/// and reports the mean beside the per-seed numbers (the merged/divided
/// split carries real seed-to-seed variance at this cohort size);
/// `--participants`, `--days`; `--threads` fans participants out over
/// worker threads (0 = one per core) with identical results at any
/// count; `--metrics-out F` writes the study's metrics snapshot to `F`.
/// A malformed value, `--seeds 0` included, exits the process with
/// status 2 before any work.
///
/// # Errors
///
/// Fails when `out` refuses a write or the metrics snapshot cannot be
/// written to `F`; the error then names `F`. `F` is created before the
/// first study, so an unwritable path fails before any work.
pub fn dep(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let seeds = args.value("seeds", NonZeroU64::MIN).get();
    let metrics_out = args.flag("metrics-out");
    let snapshot_error = |path: &str, e: io::Error| {
        io::Error::new(
            e.kind(),
            format!("writing the metrics snapshot to {path}: {e}"),
        )
    };
    let metrics_file = match metrics_out {
        None => None,
        Some(path) => Some((
            path,
            File::create(path).map_err(|e| snapshot_error(path, e))?,
        )),
    };
    let obs = match &metrics_file {
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
            writeln!(
                out,
                "DEP: deployment study — {} participants x {} days ({}), seeds {}..{}, {} thread(s)\n",
                config.participants,
                config.days,
                config.region.name,
                config.seed,
                config.seed + seeds - 1,
                resolve_threads(config.threads),
            )?;
        }
        let results = run_study(&config);
        all.push((config.seed, results));
    }

    if seeds == 1 {
        dep_participants(out, &all[0].1)?;
    }

    writeln!(out, "\nper seed:")?;
    writeln!(
        out,
        "{:>6} {:>10} {:>7} {:>9} {:>9} {:>8} {:>9} {:>7}",
        "seed", "discovered", "tagged", "evaluable", "correct", "merged", "divided", "likes"
    )?;
    for (seed, r) in &all {
        writeln!(
            out,
            "{:>6} {:>10} {:>7} {:>9} {:>8.1}% {:>7.1}% {:>8.1}% {:>6.1}%",
            seed,
            r.total_discovered(),
            r.total_tagged(),
            r.total_evaluable(),
            r.correct_fraction() * 100.0,
            r.merged_fraction() * 100.0,
            r.divided_fraction() * 100.0,
            r.like_fraction() * 100.0
        )?;
    }

    let n = all.len() as f64;
    let mean = |f: &dyn Fn(&StudyResults) -> f64| all.iter().map(|(_, r)| f(r)).sum::<f64>() / n;
    writeln!(
        out,
        "\nDEP-A: discovery and tagging (mean of {} seed(s))\n  \
         places discovered : {:>6.1}  (paper: 123)\n  \
         tagged fraction   : {:>6.1}%  (paper: ~70%)\n  \
         evaluable places  : {:>6.1}  (paper: 62)\n\n\
         DEP-B: discovery quality over evaluable places (GSM only)\n  \
         correct : {:>6.2}%  (paper: 79.03%)\n  \
         merged  : {:>6.2}%  (paper: 14.52%)\n  \
         divided : {:>6.2}%  (paper:  6.45%)\n\n\
         DEP-C: PlaceADs feedback\n  \
         like fraction = {:.1}%  (paper: 17:3 = 85%)",
        all.len(),
        mean(&|r| r.total_discovered() as f64),
        mean(&|r| r.tagged_fraction()) * 100.0,
        mean(&|r| r.total_evaluable() as f64),
        mean(&|r| r.correct_fraction()) * 100.0,
        mean(&|r| r.merged_fraction()) * 100.0,
        mean(&|r| r.divided_fraction()) * 100.0,
        mean(&|r| r.like_fraction()) * 100.0,
    )?;

    // With --seeds > 1 the snapshot accumulates across all runs (one
    // registry serves the whole process).
    if let (Some((path, mut file)), Some(json)) = (metrics_file, obs.metrics_json()) {
        file.write_all(json.as_bytes())
            .map_err(|e| snapshot_error(path, e))?;
        writeln!(out, "\nmetrics snapshot written to {path}")?;
    }
    Ok(())
}

fn dep_participants(out: &mut dyn Write, results: &StudyResults) -> io::Result<()> {
    writeln!(out, "per participant:")?;
    writeln!(
        out,
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
    )?;
    for (i, p) in results.participants.iter().enumerate() {
        writeln!(
            out,
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
        )?;
    }
    Ok(())
}

/// ABL-TRIG: triggered sensing vs alternative sensing strategies
/// (§2.2.2: "it strikes right energy-accuracy tradeoff by providing them
/// adequate level of accuracy with minimum possible energy").
pub fn abl_trig(out: &mut dyn Write) -> io::Result<()> {
    let days = 7;
    writeln!(
        out,
        "ABL-TRIG: sensing-strategy ablation over one participant x {days} days\n"
    )?;
    writeln!(
        out,
        "{:<18} {:>12} {:>15} {:>11} {:>9}",
        "strategy", "energy (kJ)", "battery (h)", "discovered", "correct"
    )?;
    writeln!(out, "{}", "-".repeat(70))?;
    for r in &run_triggered_ablation(days, 2014) {
        writeln!(
            out,
            "{:<18} {:>12.1} {:>15.1} {:>11} {:>8.0}%",
            r.label,
            r.energy_joules / 1_000.0,
            r.battery_hours,
            r.discovered,
            r.correct_fraction * 100.0
        )?;
    }
    writeln!(
        out,
        "\nPMWare's triggered mode sits near gsm-only energy, a fraction of\n\
         the continuous strategies'; here its correct share is below\n\
         gsm-only's and continuous GPS's."
    )
}

/// The ABL-TRIG sensing strategies: label, the place demand of the one
/// app, and the scheduler periods.
fn strategies() -> [(&'static str, Granularity, SensingConfig); 4] {
    let minute = SimDuration::from_minutes(1);
    [
        // GSM every minute only: the cheapest possible plan.
        ("gsm-only", Granularity::Area, SensingConfig::default()),
        // PMWare's triggered sensing (room-level demand: WiFi on triggers).
        (
            "pmware-triggered",
            Granularity::Room,
            SensingConfig::default(),
        ),
        // WiFi scanned every minute (SensLoc without triggers).
        (
            "continuous-wifi",
            Granularity::Room,
            SensingConfig {
                wifi_stationary_period: minute,
                wifi_moving_period: minute,
                ..SensingConfig::default()
            },
        ),
        // GPS fixed every minute (the naive accurate plan).
        (
            "continuous-gps",
            Granularity::Building,
            SensingConfig {
                gps_moving_period: minute,
                gps_continuous: true,
                ..SensingConfig::default()
            },
        ),
    ]
}

/// Outcome of one strategy run.
struct StrategyResult {
    label: &'static str,
    /// Total energy drained (joules).
    energy_joules: f64,
    /// Projected battery life in hours at this average drain.
    battery_hours: f64,
    /// Places discovered.
    discovered: usize,
    /// Correct fraction against ground truth (all places, share 0.2).
    correct_fraction: f64,
}

/// Runs every strategy of [`strategies`] over one participant's trace.
fn run_triggered_ablation(days: u64, seed: u64) -> Vec<StrategyResult> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 1);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), days);
    let end = SimTime::from_day_time(days, 0, 0, 0);

    strategies()
        .into_iter()
        .map(|(label, granularity, sensing)| {
            let cloud = SharedCloud::new(CloudInstance::new(
                CellDatabase::from_world(&world),
                seed + 2,
            ));
            let config = PmsConfig {
                sensing,
                ..PmsConfig::for_participant(90)
            };
            let mut pms =
                PmwareMobileService::on_itinerary(&world, &itinerary, cloud, config, seed + 3)
                    .expect("register");
            let _rx = pms.register_app(
                "workload",
                AppRequirement::places(granularity),
                IntentFilter::all(),
            );
            pms.run(end).expect("run");

            // Quality: classify the discovered places (with their final GCA
            // visit histories) against diary ground truth.
            let report = pms.finish(end);
            let matching = score_against_diary(&report.places, &itinerary);
            let elapsed_h = days as f64 * 24.0;
            let capacity = EnergyModel::htc_explorer().battery().energy_joules();
            StrategyResult {
                label,
                energy_joules: report.energy_joules,
                battery_hours: capacity / (report.energy_joules / (elapsed_h * 3_600.0)) / 3_600.0,
                discovered: report.places.len(),
                correct_fraction: matching.correct_fraction(),
            }
        })
        .collect()
}

/// ABL-RED: redundant sensing of isolated applications vs one shared PMS
/// (§1 item 3: "lack of coordination between applications \[causes\]
/// redundant and repetitive invocation of location interfaces").
pub fn abl_red(out: &mut dyn Write) -> io::Result<()> {
    let days = 3;
    writeln!(
        out,
        "ABL-RED: N place-aware apps, shared PMS vs N isolated pipelines\n\
         (one participant x {days} days per configuration)\n"
    )?;
    writeln!(
        out,
        "{:>5} {:>15} {:>17} {:>12}",
        "apps", "shared (kJ)", "isolated (kJ)", "redundancy"
    )?;
    writeln!(out, "{}", "-".repeat(55))?;
    for r in &run_redundancy_ablation(&[1, 2, 3, 5, 8], days, 2014) {
        writeln!(
            out,
            "{:>5} {:>15.1} {:>17.1} {:>11.2}x",
            r.apps,
            r.shared_joules / 1_000.0,
            r.isolated_joules / 1_000.0,
            r.isolated_joules / r.shared_joules
        )?;
    }
    writeln!(
        out,
        "\nShared-PMS energy is flat in N; isolated energy grows ~linearly —\n\
         the coordination saving PMWare's connected architecture provides."
    )
}

/// ABL-RED result for one configuration.
#[derive(Debug, Clone)]
struct RedundancyResult {
    /// Number of place-aware applications.
    apps: usize,
    /// Total sensing energy with one shared PMS (joules).
    shared_joules: f64,
    /// Total sensing energy with isolated per-app pipelines (joules).
    isolated_joules: f64,
}

/// Runs the redundancy ablation: `n_apps` place-aware apps over `days`
/// days, shared vs isolated.
fn run_redundancy_ablation(app_counts: &[usize], days: u64, seed: u64) -> Vec<RedundancyResult> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 1);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), days);
    let end = SimTime::from_day_time(days, 0, 0, 0);

    // One PMS (its cloud seeded `cloud_seed`) with one connected app per
    // name: however many apps register, sensing happens once.
    let pipeline_energy =
        |cloud_seed: u64, participant: u32, device_seed: u64, apps: Vec<String>| {
            let cloud = SharedCloud::new(CloudInstance::new(
                CellDatabase::from_world(&world),
                cloud_seed,
            ));
            let mut pms = PmwareMobileService::on_itinerary(
                &world,
                &itinerary,
                cloud,
                PmsConfig::for_participant(participant),
                device_seed,
            )
            .expect("register");
            let _receivers: Vec<_> = apps
                .into_iter()
                .map(|name| {
                    pms.register_app(
                        name,
                        AppRequirement::places(Granularity::Room),
                        IntentFilter::all(),
                    )
                })
                .collect();
            pms.run(end).expect("run");
            pms.finish(end).energy_joules
        };

    app_counts
        .iter()
        .map(|&n| {
            // Shared: one PMS, n apps registered.
            let apps = (0..n).map(|i| format!("app-{i}")).collect();
            let shared = pipeline_energy(seed + 40, 92, seed + 41, apps);
            // Isolated: n independent pipelines, each sensing on its own.
            let isolated: f64 = (0..n as u64)
                .map(|i| pipeline_energy(seed + 50 + i, 91, seed + 60 + i, vec!["app".to_owned()]))
                .sum();
            RedundancyResult {
                apps: n,
                shared_joules: shared,
                isolated_joules: isolated,
            }
        })
        .collect()
}

/// ABL-GCA: sensitivity of GCA to its design parameters.
///
/// Two choices in the GCA implementation carry the load: the *bounce
/// weight threshold* that separates oscillation from travel in the
/// movement graph, and the *minimum stay* that qualifies a cluster as a
/// place (prior work uses 10 minutes, \[19\] in the paper). This sweeps
/// both over a fixed simulated fortnight and reports discovery quality,
/// showing where the defaults sit.
pub fn abl_gca(out: &mut dyn Write) -> io::Result<()> {
    let days = 14;
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2014)
        .build();
    let pop = Population::generate(&world, 1, 2015);
    let agent = &pop.agents()[0];
    let it = pop.itinerary(&world, agent.id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let mut phone = Device::new(env, &it, EnergyModel::htc_explorer(), 2016);

    let stream: Vec<GsmObservation> = (0..days * 24 * 60)
        .filter_map(|minute| phone.sample_gsm(SimTime::from_seconds(minute * 60)))
        .collect();
    let truth = diary(&it);
    let true_places = it.visited_places().len();

    writeln!(
        out,
        "ABL-GCA: GCA parameter sweep, one participant x {days} days \
         ({} observations, {true_places} true places)\n",
        stream.len()
    )?;

    writeln!(out, "— bounce-weight threshold (min_stay = 10 min) —")?;
    writeln!(
        out,
        "{:>10} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "threshold", "discovered", "correct", "merged", "divided", "no-match"
    )?;
    for threshold in [1u32, 2, 3, 5, 8] {
        let config = GcaConfig {
            min_bounce_weight: threshold,
            ..GcaConfig::default()
        };
        abl_gca_row(out, &format!("{threshold}"), &stream, &truth, &config)?;
    }

    writeln!(out, "\n— minimum stay (threshold = 2) —")?;
    writeln!(
        out,
        "{:>10} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "min stay", "discovered", "correct", "merged", "divided", "no-match"
    )?;
    for minutes in [5u64, 10, 20, 30, 60] {
        let config = GcaConfig {
            min_stay: SimDuration::from_minutes(minutes),
            ..GcaConfig::default()
        };
        abl_gca_row(out, &format!("{minutes} min"), &stream, &truth, &config)?;
    }

    writeln!(
        out,
        "\nHere the default threshold 2 has the highest correct share: 1\n\
         merges places and higher thresholds divide more of them; the\n\
         default 10 min ties 20 and 30 min for the best, shorter stays\n\
         divide places and longer ones merge them."
    )
}

fn abl_gca_row(
    out: &mut dyn Write,
    label: &str,
    stream: &[GsmObservation],
    truth: &[GroundTruthVisit],
    config: &GcaConfig,
) -> io::Result<()> {
    let discovered = gca::discover_places(stream, config);
    let report = classify_places(&discovered.places, truth, DIARY_MIN_SHARE);
    writeln!(
        out,
        "{label:>10} {:>11} {:>8.0}% {:>7.0}% {:>7.0}% {:>9}",
        discovered.places.len(),
        report.correct_fraction() * 100.0,
        report.merged_fraction() * 100.0,
        report.divided_fraction() * 100.0,
        report.no_match,
    )
}

/// ROUTE-ACC: the two route-tracking modes of §2.2.2.
///
/// *"PMWare has two modes of route tracking, low accuracy mode and high
/// accuracy mode. In low accuracy mode, only GSM-based information is used
/// to track the route information where as in high accuracy mode, WiFi is
/// used to detect place departure and subsequently GPS is used to track
/// the route."*
///
/// The paper gives no figure for this; the table quantifies the trade-off
/// the modes embody: geometric fidelity of the recorded route against the
/// true road path, versus the energy each mode costs.
pub fn route_acc(out: &mut dyn Write) -> io::Result<()> {
    let days = 7;
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(3001)
        .build();
    let pop = Population::generate(&world, 1, 3002);
    let it = pop.itinerary(&world, pop.agents()[0].id(), days);

    writeln!(
        out,
        "ROUTE-ACC: route tracking modes, one participant x {days} days\n"
    )?;
    writeln!(
        out,
        "{:<14} {:>7} {:>16} {:>18} {:>12}",
        "mode", "routes", "gps geometries", "mean path error", "energy (kJ)"
    )?;
    writeln!(out, "{}", "-".repeat(72))?;
    for (label, accuracy) in [
        ("low (gsm)", RouteAccuracy::Low),
        ("high (gps)", RouteAccuracy::High),
    ] {
        let (routes, gps_count, mean_error, energy) = route_mode(&world, &it, accuracy, days);
        writeln!(
            out,
            "{label:<14} {routes:>7} {gps_count:>16} {:>18} {:>12.1}",
            mean_error
                .map(|e| format!("{e:.0} m"))
                .unwrap_or_else(|| "n/a (cells)".to_owned()),
            energy / 1_000.0
        )?;
    }
    writeln!(
        out,
        "\nHigh-accuracy mode records GPS polylines that hug the true road\n\
         path at the cost of GPS fixes while moving; low-accuracy mode\n\
         records cell sequences that are nearly free but only identify\n\
         *which* route was taken, not its geometry."
    )
}

/// One route mode over `it`: (routes, GPS geometries, mean path error in
/// metres if any geometry was recorded, energy in joules).
fn route_mode(
    world: &World,
    it: &Itinerary,
    accuracy: RouteAccuracy,
    days: u64,
) -> (usize, usize, Option<f64>, f64) {
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(world), 3003));
    let mut pms =
        PmwareMobileService::on_itinerary(world, it, cloud, PmsConfig::for_participant(30), 3004)
            .expect("register");
    let _rx = pms.register_app(
        "navigator",
        AppRequirement::places(Granularity::Area).with_routes(accuracy),
        IntentFilter::all(),
    );
    pms.run(SimTime::from_day_time(days, 0, 0, 0)).expect("run");

    // Geometric fidelity: for each recorded GPS route, mean distance of
    // its vertices to the closest true travel path of the itinerary.
    let true_paths: Vec<_> = it
        .segments()
        .iter()
        .filter_map(|s| match s {
            Segment::Travel { path, .. } => Some(path.clone()),
            _ => None,
        })
        .collect();
    let mut errors = Vec::new();
    let mut gps_count = 0usize;
    for route in pms.routes().routes() {
        if let RouteGeometry::GpsTrace(line) = &route.geometry {
            gps_count += 1;
            let mean: f64 = line
                .points()
                .iter()
                .map(|p| {
                    true_paths
                        .iter()
                        .map(|tp| tp.distance_to(*p).value())
                        .fold(f64::MAX, f64::min)
                })
                .sum::<f64>()
                / line.points().len() as f64;
            errors.push(mean);
        }
    }
    let mean_error = if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    };
    let n_routes = pms.routes().routes().len();
    let report = pms.finish(SimTime::from_day_time(days, 0, 0, 0));
    (n_routes, gps_count, mean_error, report.energy_joules)
}

/// DET-LAT: arrival/departure detection latency.
///
/// The §2.4 use case hinges on *timely* place alerts: the To-Do app wants
/// its reminder when the user walks into the office, not twenty minutes
/// later. This measures the lag between ground-truth arrivals/departures
/// and the tracker-confirmed events PMS broadcast, across a cohort.
///
/// Sources of lag: the one-minute GSM period, the tracker's confirmation
/// debounce (2 samples in / 4 out, absorbing the oscillation effect), and
/// cell coverage extending beyond the physical place boundary (which can
/// make radio-level "arrival" *precede* physical arrival: negative lag).
///
/// Flags: `--participants` (8), `--days` (7), `--threads` (1; 0 = one per
/// core, identical results at any count). A malformed value exits the
/// process with status 2 before any work.
pub fn det_lat(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let participants = args
        .value(
            "participants",
            NonZeroUsize::new(8).expect("positive default"),
        )
        .get();
    let days = args
        .value("days", NonZeroU64::new(7).expect("positive default"))
        .get();
    let threads = resolve_threads(args.value("threads", 1));
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(6014)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 6015));
    let population = Population::generate(&world, participants, 6016);

    // One job per participant; each returns its own (arrival, departure)
    // lag vectors, merged in agent order so the output is the same at any
    // thread count.
    let per_agent = parallel_map(population.agents().to_vec(), threads, |agent| {
        let itinerary = population.itinerary(&world, agent.id(), days);
        let mut pms = PmwareMobileService::on_itinerary(
            &world,
            &itinerary,
            cloud.clone(),
            PmsConfig::for_participant(60 + agent.id().0),
            6100 + agent.id().0 as u64,
        )
        .expect("register");
        let rx = pms.register_app(
            "latency-probe",
            AppRequirement::places(Granularity::Building),
            IntentFilter::for_actions([actions::PLACE_ARRIVAL, actions::PLACE_DEPARTURE]),
        );
        pms.run(SimTime::from_day_time(days, 0, 0, 0)).expect("run");

        // Match each broadcast event to the nearest ground-truth
        // boundary of the same kind within a 30-minute window.
        let truth = itinerary.visits();
        let mut arrivals: Vec<f64> = Vec::new();
        let mut departures: Vec<f64> = Vec::new();
        for intent in rx.try_iter() {
            let t = intent.time.as_seconds() as f64;
            let (boundary, lags): (fn(&TrueVisit) -> SimTime, _) =
                if intent.action == actions::PLACE_ARRIVAL {
                    (|v| v.arrival, &mut arrivals)
                } else {
                    (|v| v.departure, &mut departures)
                };
            if let Some(best) = truth
                .iter()
                .map(|v| t - boundary(v).as_seconds() as f64)
                .filter(|lag| lag.abs() <= 1_800.0)
                .min_by(|a, b| a.abs().partial_cmp(&b.abs()).expect("finite"))
            {
                lags.push(best / 60.0);
            }
        }
        (arrivals, departures)
    });
    let (arrivals, departures): (Vec<Vec<f64>>, Vec<Vec<f64>>) = per_agent.into_iter().unzip();

    writeln!(
        out,
        "DET-LAT: place-event detection latency — {participants} participants x {days} days, {threads} thread(s)\n"
    )?;
    det_lat_row(out, "arrival", &mut arrivals.concat())?;
    det_lat_row(out, "departure", &mut departures.concat())?;
    writeln!(
        out,
        "\nPositive = event confirmed after the physical boundary; arrivals\n\
         can go negative because tower coverage extends past the door. The\n\
         floor is set by the 1-minute GSM period plus the 2-in/4-out\n\
         debounce that absorbs the oscillation effect."
    )
}

fn det_lat_row(out: &mut dyn Write, kind: &str, lags: &mut [f64]) -> io::Result<()> {
    if lags.is_empty() {
        return writeln!(out, "{kind:>10}: no matched events");
    }
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = lags.len();
    let mean = lags.iter().sum::<f64>() / n as f64;
    let median = lags[n / 2];
    let p90 = lags[(n as f64 * 0.9) as usize];
    writeln!(
        out,
        "{kind:>10}: n={n:<4} mean {mean:>6.1} min   median {median:>6.1} min   p90 {p90:>6.1} min"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggered_sensing_saves_energy_and_keeps_accuracy() {
        let results = run_triggered_ablation(3, 77);
        let [gsm, triggered, wifi, gps] = &results[..] else {
            panic!("four strategies");
        };

        // Energy ordering: gsm-only <= triggered < continuous-wifi and
        // continuous-gps.
        assert!(gsm.energy_joules <= triggered.energy_joules);
        assert!(
            triggered.energy_joules < wifi.energy_joules,
            "triggered {} vs continuous wifi {}",
            triggered.energy_joules,
            wifi.energy_joules
        );
        assert!(triggered.energy_joules < gps.energy_joules);
        // All strategies discover places; triggered keeps quality.
        assert!(triggered.discovered >= 2);
        assert!(
            triggered.correct_fraction >= 0.5,
            "{}",
            triggered.correct_fraction
        );
    }

    #[test]
    fn shared_pms_removes_redundant_sensing() {
        let results = run_redundancy_ablation(&[1, 3], 2, 88);
        assert_eq!(results.len(), 2);
        let one = &results[0];
        // With one app, shared and isolated are the same pipeline.
        let ratio = one.isolated_joules / one.shared_joules;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
        let three = &results[1];
        // With three apps, the isolated total is roughly 3x the shared.
        let ratio = three.isolated_joules / three.shared_joules;
        assert!(ratio > 2.0, "expected ~3x redundancy, got {ratio:.2}x");
    }

    #[test]
    fn india_around_60_percent_europe_far_higher() {
        // Coverage is dominated by whether each agent's home/work happens
        // to carry WiFi (a binary draw per agent), so average over a large
        // cohort and accept a wide band — the `intro-wifi` table runs the
        // full-size version.
        let covered =
            |profile| coverage_fraction(&WorldBuilder::new(profile).seed(11).build(), 16, 3, 12);
        let india = covered(RegionProfile::urban_india());
        let europe = covered(RegionProfile::urban_europe());
        assert!(india > 0.30 && india < 0.85, "india {india:.2}");
        assert!(europe > 0.75, "europe {europe:.2}");
        assert!(europe > india + 0.15);
    }
}
