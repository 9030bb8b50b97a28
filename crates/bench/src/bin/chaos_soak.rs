//! ROBUST-CHAOS: convergence and request overhead vs transport fault
//! rate (see `pmware_bench::chaos`).
//!
//! Usage: `chaos_soak [--days D] [--seed S]`. Prints the table, writes
//! `BENCH_chaos.json` in the current directory and exits 1 if any rate
//! (all are ≤ 0.30) fails to converge.

use std::io::Write;
use std::num::NonZeroU64;

use pmware_bench::args::{exit_usage, Args};
use pmware_bench::chaos::{self, DEFAULT_DAYS, DEFAULT_SEED};

fn main() {
    let args = Args::for_binary(&["days", "seed"]);
    let days = args
        .value(
            "days",
            NonZeroU64::new(DEFAULT_DAYS).expect("positive default"),
        )
        .get();
    if days < 2 {
        exit_usage(&format!(
            "invalid value \"{days}\" for --days (expected at least 2)"
        ));
    }
    let seed: u64 = args.value("seed", DEFAULT_SEED);

    let report = chaos::soak(days, seed);
    let mut out = std::io::stdout().lock();
    report
        .write_table(&mut out)
        .and_then(|()| out.flush())
        .expect("write the table to stdout");
    let path = "BENCH_chaos.json";
    std::fs::write(path, report.json()).expect("write BENCH_chaos.json");
    println!("\nwrote {path}");

    if let Some(rate) = report.first_unconverged() {
        eprintln!("error: rate {rate:.2} failed to converge after the link healed");
        std::process::exit(1);
    }
}
