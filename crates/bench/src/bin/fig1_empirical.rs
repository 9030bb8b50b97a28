//! FIG1-EMP: empirical cross-check of the Figure 1 energy model.
//!
//! `fig1_power` prints the *closed-form* battery durations. This binary
//! validates that the simulated device agrees: it runs an actual sampling
//! loop on a simulated phone (paying per-sample energy plus baseline) and
//! projects the battery lifetime from the measured drain. Closed-form and
//! simulated columns should match to within a fraction of a percent —
//! anything else means the device's billing diverged from the model.

use pmware_bench::args::Args;
use pmware_device::energy::{EnergyModel, Interface};
use pmware_device::Device;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{SimDuration, SimTime};

fn main() {
    Args::for_binary(&[]);
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

    println!("FIG1-EMP: closed-form vs simulated battery duration (hours)");
    println!("(one simulated day of sampling per cell, stationary device)\n");
    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>8}",
        "interface", "period", "closed-form", "simulated", "delta"
    );
    println!("{}", "-".repeat(60));

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
            println!(
                "{:>14} {:>8} {:>12.1} {:>12.1} {:>7.2}%",
                interface.label(),
                period.to_string(),
                closed,
                simulated,
                delta
            );
        }
    }
    println!(
        "\nDeltas stay within ±1% (the simulated loop quantises the last\n\
         partial period of the day)."
    );
}
