//! The energy–accuracy trade-off (§1 limitation 1, §2.2.2): what each
//! sensing strategy costs on the Figure 1 battery, and what PMWare's
//! triggered sensing buys.
//!
//! ```sh
//! cargo run --release --example energy_tradeoff
//! ```

use pmware::device::energy::figure1_dataset;
use pmware::prelude::*;

fn main() {
    // Part 1 — the raw interface costs (Figure 1).
    let model = EnergyModel::htc_explorer();
    let periods = [
        SimDuration::from_seconds(30),
        SimDuration::from_minutes(1),
        SimDuration::from_minutes(5),
    ];
    println!("battery duration (hours) under continuous sensing:");
    print!("{:>10}", "period");
    for i in Interface::ALL {
        print!("{:>15}", i.label());
    }
    println!();
    for row in figure1_dataset(&model, &periods) {
        print!("{:>10}", row.period.to_string());
        for (_, h) in &row.hours {
            print!("{h:>15.1}");
        }
        println!();
    }
    let minute = SimDuration::from_minutes(1);
    println!(
        "\nGSM@1min lasts {:.1}x longer than GPS@1min (paper: ~11x)",
        model.battery_duration_hours(Interface::Gsm, minute)
            / model.battery_duration_hours(Interface::Gps, minute)
    );

    // Part 2 — what a *plan* costs: PMWare's triggered mix vs naive mixes.
    println!("\ncombined sensing plans (idealised, stationary user):");
    let plans: [(&str, Vec<(Interface, SimDuration)>); 4] = [
        ("gsm-only", vec![(Interface::Gsm, minute)]),
        (
            "pmware triggered (gsm + wifi/10min)",
            vec![
                (Interface::Gsm, minute),
                (Interface::WifiScan, SimDuration::from_minutes(10)),
                (Interface::Accelerometer, minute),
            ],
        ),
        (
            "continuous wifi (gsm + wifi/1min)",
            vec![(Interface::Gsm, minute), (Interface::WifiScan, minute)],
        ),
        (
            "continuous gps (gsm + gps/1min)",
            vec![(Interface::Gsm, minute), (Interface::Gps, minute)],
        ),
    ];
    for (name, plan) in &plans {
        println!(
            "  {:<38} {:>7.1} h",
            name,
            model.combined_duration_hours(plan)
        );
    }
    // Part 3 — the same accounting, live. One simulated day on a real
    // itinerary with the metrics registry attached: per-interface energy
    // is read back from the registry snapshot (what `--metrics-out`
    // exports), not from the battery object — the registry mirrors the
    // battery to the microjoule.
    let world = WorldBuilder::new(RegionProfile::test_tiny())
        .seed(11)
        .build();
    let population = Population::generate(&world, 1, 11);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), 1);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 11));
    let obs = Obs::new();
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(0),
        11,
    )
    .expect("registration succeeds");
    pms.set_obs(&obs.for_actor("p0000"));
    let _rx = pms.register_app(
        "example",
        AppRequirement::places(Granularity::Building),
        IntentFilter::all(),
    );
    pms.run(SimTime::from_day_time(1, 0, 0, 0))
        .expect("run succeeds");
    let battery_joules = pms.battery().drained_joules();

    let snapshot = obs.metrics().expect("live registry").snapshot();
    println!("\none simulated day, read back from the metrics registry:");
    for interface in Interface::ALL {
        let energy_key = format!(
            "device_energy_microjoules_total{{interface=\"{}\",user=\"p0000\"}}",
            interface.label()
        );
        let samples_key = format!(
            "device_samples_total{{interface=\"{}\",user=\"p0000\"}}",
            interface.label()
        );
        println!(
            "  {:>14}: {:>8.1} J over {} samples",
            interface.label(),
            snapshot.counter_value(&energy_key) as f64 / 1e6,
            snapshot.counter_value(&samples_key),
        );
    }
    let total_uj = snapshot.counter_sum_with_prefix("device_energy_microjoules_total");
    println!(
        "  registry total {:.1} J (battery object agrees: {:.1} J)",
        total_uj as f64 / 1e6,
        battery_joules,
    );

    println!(
        "\nThe full closed-loop version of this comparison (real movement,\n\
         real discovery quality) is `cargo run --release -p pmware-bench --bin paper -- abl-trig`."
    );
}
