//! The bench binaries refuse what they do not accept: a typo'd flag or a
//! malformed value (`--days 0`, `--participants 0`, a zero count such as
//! `--repeats 0`, `chaos_soak --days 1`) exits 2 naming it, before any
//! study runs or any file is written.

use std::process::Command;

#[test]
fn a_bad_flag_exits_2_before_any_work() {
    let cases: [(&str, &[&str], &str); 28] = [
        (
            env!("CARGO_BIN_EXE_deployment_study"),
            &[
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
            env!("CARGO_BIN_EXE_deployment_study"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_cohort_throughput"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_detection_latency"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_fig5_map"),
            &["--days", "0"],
            "invalid value \"0\" for --days",
        ),
        (
            env!("CARGO_BIN_EXE_deployment_study"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_cohort_throughput"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_detection_latency"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_obs_overhead"),
            &["--participants", "0", "--days", "1"],
            "invalid value \"0\" for --participants",
        ),
        (
            env!("CARGO_BIN_EXE_rate_limit_study"),
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
            env!("CARGO_BIN_EXE_rate_limit_study"),
            &["--participants", "1", "--days", "0"],
            "invalid value \"0\" for --days (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_rate_limit_study"),
            &["--participants", "1", "--days", "1"],
            "invalid value \"1\" for --days (expected at least 2)",
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
            env!("CARGO_BIN_EXE_latency_soak"),
            &["--reqs", "0"],
            "invalid value \"0\" for --reqs (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_latency_soak"),
            &["--max-users", "0"],
            "invalid value \"0\" for --max-users (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_latency_soak"),
            &["--slo-p99-ms", "0"],
            "invalid value \"0\" for --slo-p99-ms (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_latency_soak"),
            &["--flash-users", "0"],
            "invalid value \"0\" for --flash-users (expected a positive whole number)",
        ),
        (
            env!("CARGO_BIN_EXE_latency_soak"),
            &["--shed-depth", "0"],
            "invalid value \"0\" for --shed-depth (expected a positive whole number)",
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
    let out = Command::new(env!("CARGO_BIN_EXE_fig2_characterization"))
        .args(["--seed", "1"])
        .output()
        .expect("spawn fig2_characterization");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("this binary takes no flags"), "{stderr}");
    assert!(out.stdout.is_empty());
}
