//! ABL-GCA: sensitivity of GCA to its design parameters.
//!
//! DESIGN.md calls out two load-bearing choices in the GCA implementation:
//! the *bounce weight threshold* that separates oscillation from travel in
//! the movement graph, and the *minimum stay* that qualifies a cluster as
//! a place (prior work uses 10 minutes — \[19\] in the paper). This
//! ablation sweeps both over a fixed simulated fortnight and reports
//! discovery quality, showing where the defaults sit.

use pmware_algorithms::gca::{self, GcaConfig};
use pmware_algorithms::matching::{classify_places, GroundTruthVisit};
use pmware_bench::args::Args;
use pmware_core::{diary, DIARY_MIN_SHARE};
use pmware_device::{Device, EnergyModel};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{GsmObservation, SimDuration, SimTime};

fn main() {
    Args::for_binary(&[]);
    let days = 14;
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2014)
        .build();
    let pop = Population::generate(&world, 1, 2015);
    let agent = &pop.agents()[0];
    let it = pop.itinerary(&world, agent.id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let mut phone = Device::new(env, &it, EnergyModel::htc_explorer(), 2016);

    let mut stream: Vec<GsmObservation> = Vec::new();
    for minute in 0..days * 24 * 60 {
        if let Some(obs) = phone.sample_gsm(SimTime::from_seconds(minute * 60)) {
            stream.push(obs);
        }
    }
    let truth = diary(&it);
    let true_places = it.visited_places().len();

    println!(
        "ABL-GCA: GCA parameter sweep, one participant x {days} days \
         ({} observations, {true_places} true places)\n",
        stream.len()
    );

    println!("— bounce-weight threshold (min_stay = 10 min) —");
    println!(
        "{:>10} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "threshold", "discovered", "correct", "merged", "divided", "no-match"
    );
    for threshold in [1u32, 2, 3, 5, 8] {
        let config = GcaConfig {
            min_bounce_weight: threshold,
            ..GcaConfig::default()
        };
        report_row(&format!("{threshold}"), &stream, &truth, &config);
    }

    println!("\n— minimum stay (threshold = 2) —");
    println!(
        "{:>10} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "min stay", "discovered", "correct", "merged", "divided", "no-match"
    );
    for minutes in [5u64, 10, 20, 30, 60] {
        let config = GcaConfig {
            min_stay: SimDuration::from_minutes(minutes),
            ..GcaConfig::default()
        };
        report_row(&format!("{minutes} min"), &stream, &truth, &config);
    }

    println!(
        "\nThe defaults (threshold 2, 10 min) sit at the knee: lower\n\
         thresholds admit travel cells, higher ones miss short stays."
    );
}

fn report_row(
    label: &str,
    stream: &[GsmObservation],
    truth: &[GroundTruthVisit],
    config: &GcaConfig,
) {
    let out = gca::discover_places(stream, config);
    let report = classify_places(&out.places, truth, DIARY_MIN_SHARE);
    println!(
        "{label:>10} {:>11} {:>8.0}% {:>7.0}% {:>7.0}% {:>9}",
        out.places.len(),
        report.correct_fraction() * 100.0,
        report.merged_fraction() * 100.0,
        report.divided_fraction() * 100.0,
        report.no_match,
    );
}
