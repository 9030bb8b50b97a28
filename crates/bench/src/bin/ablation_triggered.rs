//! ABL-TRIG: triggered sensing vs alternative sensing strategies
//! (§2.2.2: "it strikes right energy-accuracy tradeoff by providing them
//! adequate level of accuracy with minimum possible energy").

use pmware_bench::args::Args;
use pmware_bench::sensing_modes::run_triggered_ablation;

fn main() {
    Args::for_binary(&[]);
    let days = 7;
    println!("ABL-TRIG: sensing-strategy ablation over one participant x {days} days\n");
    let results = run_triggered_ablation(days, 2014);
    println!(
        "{:<18} {:>12} {:>15} {:>11} {:>9}",
        "strategy", "energy (kJ)", "battery (h)", "discovered", "correct"
    );
    println!("{}", "-".repeat(70));
    for r in &results {
        println!(
            "{:<18} {:>12.1} {:>15.1} {:>11} {:>8.0}%",
            r.strategy.label(),
            r.energy_joules / 1_000.0,
            r.battery_hours,
            r.discovered,
            r.correct_fraction * 100.0
        );
    }
    println!(
        "\nPMWare's triggered mode should sit near gsm-only energy while\n\
         keeping the discovery quality of the continuous strategies."
    );
}
