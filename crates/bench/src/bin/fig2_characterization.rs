//! FIG2: regenerates Figure 2 — "Characterization of place-aware
//! applications": which application classes need which place granularity,
//! and what PMWare therefore samples for them.

use pmware_bench::args::Args;
use pmware_core::requirements::{app_characterization, Granularity};

fn main() {
    Args::for_binary(&[]);
    println!("FIG2: characterization of place-aware applications\n");
    println!(
        "{:<42} {:<12} {:<24} examples",
        "application class", "granularity", "triggered interfaces"
    );
    println!("{}", "-".repeat(110));
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
        println!(
            "{:<42} {:<12} {:<24} {}",
            row.application,
            row.granularity.label(),
            interfaces,
            row.examples
        );
    }

    println!("\ngranularity classes (coarse to fine):");
    for g in Granularity::ALL {
        println!(
            "  {:<9} ~{:>5.0} m payload precision",
            g.label(),
            g.coarseness_m()
        );
    }
}
