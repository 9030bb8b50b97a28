//! ABL-TRIG / ABL-RED: the triggered-sensing and redundancy ablations.
//!
//! * **ABL-TRIG** (§2.2.2 claim): PMWare's triggered sensing should cost
//!   far less energy than continuously sampling the accurate interfaces,
//!   while discovering (nearly) the same places. We run the same
//!   participant's trace under four sensing strategies and measure energy
//!   plus place-discovery quality.
//! * **ABL-RED** (§1 item 3 claim): N applications sharing one PMS sense
//!   once; N isolated applications each run their own pipeline. Total
//!   energy scales with N only in the isolated case.

use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::intents::IntentFilter;
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity};
use pmware_core::score_against_diary;
use pmware_core::sensing::SensingConfig;
use pmware_device::EnergyModel;
use pmware_mobility::{Itinerary, Population};
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::{SimDuration, SimTime, World};

/// A sensing strategy under ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// GSM every minute only — the cheapest possible plan.
    GsmOnly,
    /// PMWare's triggered sensing (room-level demand: WiFi on triggers).
    Triggered,
    /// WiFi scanned continuously every minute (SensLoc without triggers).
    ContinuousWifi,
    /// GPS fixed continuously every minute (the naive accurate plan).
    ContinuousGps,
}

impl Strategy {
    /// All strategies in presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::GsmOnly,
        Strategy::Triggered,
        Strategy::ContinuousWifi,
        Strategy::ContinuousGps,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::GsmOnly => "gsm-only",
            Strategy::Triggered => "pmware-triggered",
            Strategy::ContinuousWifi => "continuous-wifi",
            Strategy::ContinuousGps => "continuous-gps",
        }
    }
}

/// Outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Which strategy.
    pub strategy: Strategy,
    /// Total energy drained (joules).
    pub energy_joules: f64,
    /// Projected battery life in hours at this average drain.
    pub battery_hours: f64,
    /// Places discovered.
    pub discovered: usize,
    /// Correct fraction against ground truth (all places, share 0.2).
    pub correct_fraction: f64,
}

/// Runs the triggered-sensing ablation over one participant trace.
pub fn run_triggered_ablation(days: u64, seed: u64) -> Vec<StrategyResult> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(seed)
        .build();
    let population = Population::generate(&world, 1, seed + 1);
    let agent = &population.agents()[0];
    let itinerary = population.itinerary(&world, agent.id(), days);

    Strategy::ALL
        .iter()
        .map(|&strategy| run_strategy(&world, &itinerary, strategy, days, seed))
        .collect()
}

fn run_strategy(
    world: &World,
    itinerary: &Itinerary,
    strategy: Strategy,
    days: u64,
    seed: u64,
) -> StrategyResult {
    let cloud = SharedCloud::new(CloudInstance::new(
        CellDatabase::from_world(world),
        seed + 2,
    ));

    let mut config = PmsConfig::for_participant(90);
    let (granularity, sensing) = match strategy {
        Strategy::GsmOnly => (Granularity::Area, SensingConfig::default()),
        Strategy::Triggered => (Granularity::Room, SensingConfig::default()),
        Strategy::ContinuousWifi => (
            Granularity::Room,
            SensingConfig {
                wifi_stationary_period: SimDuration::from_minutes(1),
                wifi_moving_period: SimDuration::from_minutes(1),
                ..SensingConfig::default()
            },
        ),
        Strategy::ContinuousGps => (
            Granularity::Building,
            SensingConfig {
                gps_moving_period: SimDuration::from_minutes(1),
                gps_continuous: true,
                ..SensingConfig::default()
            },
        ),
    };
    config.sensing = sensing;

    let mut pms = PmwareMobileService::on_itinerary(world, itinerary, cloud, config, seed + 3)
        .expect("register");
    let _rx = pms.register_app(
        "workload",
        AppRequirement::places(granularity),
        IntentFilter::all(),
    );
    let end = SimTime::from_day_time(days, 0, 0, 0);
    pms.run(end).expect("run");

    // Quality: classify the discovered places (with their final GCA visit
    // histories) against diary ground truth.
    let report = pms.finish(end);
    let matching = score_against_diary(&report.places, itinerary);
    let elapsed_h = days as f64 * 24.0;
    let capacity = EnergyModel::htc_explorer().battery().energy_joules();
    let battery_hours = capacity / (report.energy_joules / (elapsed_h * 3_600.0)) / 3_600.0;

    StrategyResult {
        strategy,
        energy_joules: report.energy_joules,
        battery_hours,
        discovered: report.places.len(),
        correct_fraction: matching.correct_fraction(),
    }
}

/// ABL-RED result for one configuration.
#[derive(Debug, Clone)]
pub struct RedundancyResult {
    /// Number of place-aware applications.
    pub apps: usize,
    /// Total sensing energy with one shared PMS (joules).
    pub shared_joules: f64,
    /// Total sensing energy with isolated per-app pipelines (joules).
    pub isolated_joules: f64,
}

/// Runs the redundancy ablation: `n_apps` place-aware apps over `days`
/// days, shared vs isolated.
pub fn run_redundancy_ablation(
    app_counts: &[usize],
    days: u64,
    seed: u64,
) -> Vec<RedundancyResult> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggered_sensing_saves_energy_and_keeps_accuracy() {
        let results = run_triggered_ablation(3, 77);
        let by = |s: Strategy| {
            results
                .iter()
                .find(|r| r.strategy == s)
                .expect("strategy present")
        };
        let gsm = by(Strategy::GsmOnly);
        let triggered = by(Strategy::Triggered);
        let wifi = by(Strategy::ContinuousWifi);
        let gps = by(Strategy::ContinuousGps);

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
}
