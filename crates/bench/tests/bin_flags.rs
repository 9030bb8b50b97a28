//! The bench binaries refuse what they do not accept: a typo'd flag or a
//! malformed value (`--days 0`, `--participants 0`, a zero count such as
//! `--repeats 0`, `paper dep --seeds 0`, `chaos_soak --days 1`), and
//! for `paper` an unknown
//! table, a flag only another table accepts or a stray argument, exits 2
//! naming it, before any study runs or any file is written.

use std::process::Command;

#[test]
fn a_bad_flag_exits_2_before_any_work() {
    let cases: [(&str, &[&str], &str); 24] = [
        (
            env!("CARGO_BIN_EXE_paper"),
            &[
                "dep",
                "--participants",
                "1",
                "--days",
                "1",
                "--metrcs-out",
                "m.json",
            ],
            "unknown flag --metrcs-out",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["dep", "--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_cohort_throughput"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["det-lat", "--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_fig5_map"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["dep", "--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_cohort_throughput"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["det-lat", "--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_obs_overhead"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_fig5_map"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_obs_overhead"),
            &["--participants", "1", "--days", "0"],
            "invalid value \"0\" for --days (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_soak"),
            &["--days", "0"],
            "invalid value \"0\" for --days (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_chaos_soak"),
            &["--days", "1"],
            "invalid value \"1\" for --days (expected at least 2)",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["dep", "--seeds", "0"],
            "invalid value \"0\" for --seeds (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_cohort_throughput"),
            &["--repeats", "0"],
            "invalid value \"0\" for --repeats (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_gca_scaling"),
            &["--repeats", "0"],
            "invalid value \"0\" for --repeats (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_obs_overhead"),
            &["--reps", "0"],
            "invalid value \"0\" for --reps (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_storage_soak"),
            &["--cap", "0"],
            "invalid value \"0\" for --cap (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_storage_soak"),
            &["--rounds", "0"],
            "invalid value \"0\" for --rounds (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_wire_micro"),
            &["--iters", "0"],
            "invalid value \"0\" for --iters (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_wire_micro"),
            &["--repeats", "0"],
            "invalid value \"0\" for --repeats (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["fig9"],
            "unknown table \"fig9\"",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["fig1", "--days", "3"],
            "fig1: unknown flag --days (takes no flags)",
        ),
        (
            env!("CARGO_BIN_EXE_paper"),
            &["dep", "fig1"],
            "dep: unexpected argument \"fig1\"",
        ),
    ];
    for (exe, args, expected) in cases {
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(expected), "{exe} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{exe} {args:?}: the run must not start"
        );
    }
}

#[test]
fn a_flagless_binary_refuses_any_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["fig2", "--seed", "1"])
        .output()
        .expect("spawn paper");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("fig2: unknown flag --seed (takes no flags)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// A metrics snapshot that cannot be written fails the run with the
/// error exit and a message naming the path, not a panic.
#[test]
fn an_unwritable_metrics_path_exits_1_naming_it() {
    let path = "/nonexistent-dir/m.json";
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args([
            "dep",
            "--participants",
            "1",
            "--days",
            "1",
            "--metrics-out",
            path,
        ])
        .output()
        .expect("spawn paper");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("writing the metrics snapshot to {path}")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
