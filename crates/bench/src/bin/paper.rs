//! `paper [TABLE] [flags]`: prints one of the paper's tables, or every
//! table at its defaults when no table is named (`pmware_bench::paper`
//! lists them and the flags each accepts; EXPERIMENTS.md gives the
//! measured values). An unknown table, a flag the table does not accept,
//! a malformed value or a stray argument exits 2 before any work; a
//! failed write (stdout, or `dep --metrics-out F`) exits 1 naming it.

use std::io::Write;

use pmware_bench::args::{exit_usage, Args};
use pmware_bench::paper::{self, Render, TABLES};

fn main() {
    let args = Args::from_env();
    let (name, flags, render): (&str, &[&str], Render) = match args.positional(0) {
        None => ("paper", &[], |_, out| paper::all(out)),
        Some(table) => *TABLES
            .iter()
            .find(|(name, ..)| *name == table)
            .unwrap_or_else(|| {
                let names: Vec<&str> = TABLES.iter().map(|(name, ..)| *name).collect();
                exit_usage(&format!(
                    "unknown table {table:?} (tables: {})",
                    names.join(" ")
                ))
            }),
    };
    if let Err(message) = args.check(flags, usize::from(args.positional(0).is_some())) {
        exit_usage(&format!("{name}: {message}"));
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = render(&args, &mut out).and_then(|()| out.flush()) {
        eprintln!("error: {name}: {e}");
        std::process::exit(1);
    }
}
