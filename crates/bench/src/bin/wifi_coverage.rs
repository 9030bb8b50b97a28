//! INTRO-WIFI: fraction of a day spent under WiFi coverage by region
//! (§1 item 4: ~60 % in urban India vs >90 % in Switzerland).

use pmware_bench::args::Args;
use pmware_bench::wifi_coverage::run;

fn main() {
    Args::for_binary(&[]);
    println!("INTRO-WIFI: WiFi-covered fraction of a day by region profile");
    println!("(10 agents x 7 days per region, positions sampled every 2 min)\n");
    let results = run(10, 7, 42);
    for r in &results {
        let paper = match r.region.as_str() {
            "urban-india" => "~60%",
            "urban-europe" => ">90%",
            _ => "-",
        };
        println!(
            "  {:<14} {:>5.1}%  (paper: {})",
            r.region,
            r.covered_fraction * 100.0,
            paper
        );
    }
}
