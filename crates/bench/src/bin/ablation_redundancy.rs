//! ABL-RED: redundant sensing of isolated applications vs one shared PMS
//! (§1 item 3: "lack of coordination between applications \[causes\]
//! redundant and repetitive invocation of location interfaces").

use pmware_bench::args::Args;
use pmware_bench::sensing_modes::run_redundancy_ablation;

fn main() {
    Args::for_binary(&[]);
    let days = 3;
    let counts = [1usize, 2, 3, 5, 8];
    println!(
        "ABL-RED: N place-aware apps, shared PMS vs N isolated pipelines\n\
         (one participant x {days} days per configuration)\n"
    );
    let results = run_redundancy_ablation(&counts, days, 2014);
    println!(
        "{:>5} {:>15} {:>17} {:>12}",
        "apps", "shared (kJ)", "isolated (kJ)", "redundancy"
    );
    println!("{}", "-".repeat(55));
    for r in &results {
        println!(
            "{:>5} {:>15.1} {:>17.1} {:>11.2}x",
            r.apps,
            r.shared_joules / 1_000.0,
            r.isolated_joules / 1_000.0,
            r.isolated_joules / r.shared_joules
        );
    }
    println!(
        "\nShared-PMS energy is flat in N; isolated energy grows ~linearly —\n\
         the coordination saving PMWare's connected architecture provides."
    );
}
