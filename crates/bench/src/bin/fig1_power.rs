//! FIG1: regenerates Figure 1 — "Power consumption analysis of different
//! location interfaces, performed on a HTC A310E Explorer Phone with
//! 1230 mAh battery".
//!
//! Prints battery duration (hours) per interface across sampling periods,
//! plus the headline GSM-vs-GPS ratio at a one-minute period ("battery
//! duration is almost 11x if GSM location is sensed at every minute
//! compared to GPS coordinates").

use pmware_bench::args::Args;
use pmware_device::energy::{figure1_dataset, EnergyModel, Interface};
use pmware_world::SimDuration;

fn main() {
    Args::for_binary(&[]);
    let model = EnergyModel::htc_explorer();
    let periods = [
        SimDuration::from_seconds(10),
        SimDuration::from_seconds(30),
        SimDuration::from_minutes(1),
        SimDuration::from_minutes(2),
        SimDuration::from_minutes(5),
        SimDuration::from_minutes(10),
    ];

    println!("FIG1: battery duration (hours) under continuous sensing");
    println!(
        "battery: 1230 mAh @ 3.7 V = {:.0} J\n",
        model.battery().energy_joules()
    );

    print!("{:>10}", "period");
    for i in Interface::ALL {
        print!("{:>15}", i.label());
    }
    println!();
    let rows = figure1_dataset(&model, &periods);
    for row in &rows {
        print!("{:>10}", row.period.to_string());
        for (_, hours) in &row.hours {
            print!("{hours:>15.1}");
        }
        println!();
    }

    let minute = SimDuration::from_minutes(1);
    let gps = model.battery_duration_hours(Interface::Gps, minute);
    let gsm = model.battery_duration_hours(Interface::Gsm, minute);
    println!(
        "\nGSM@1min / GPS@1min battery ratio: {:.1}x (paper: ~11x)",
        gsm / gps
    );

    println!("\naverage power draw at 1-minute sampling (mW):");
    for i in Interface::ALL {
        println!(
            "  {:>14}: {:7.1}",
            i.label(),
            model.average_power_w(i, minute) * 1_000.0
        );
    }
}
