//! Tiny-config smoke of all three workloads, traced and untraced: every
//! metric `BENCHMARK.json` declares prints with its unit, and every
//! correctness check passes. Each workload runs in its own child process.

use std::process::Command;

use serde_json::Value;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("a name").to_owned(),
                m["unit"].as_str().expect("a unit").to_owned(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .args(["--participants", "2", "--days", "2"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: u8, section: &str) {
    let result = run(workload, trace);
    assert_eq!(result["correct"].as_bool(), Some(true), "{result:?}");
    assert_eq!(result["failed"].as_f64(), Some(0.0));
    assert!(result["attempted"].as_f64().unwrap_or(0.0) >= 1.0);
    let metrics = result["metrics"].as_object().expect("a metrics object");
    let expected = declared(section);
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = &metrics[&name];
        assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{name}");
        let value = metric["value"].as_f64().expect("a numeric value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
        if trace == 0 {
            assert!(value > 0.0, "{workload} {name} must never read 0");
        }
    }
}

#[test]
fn study_smoke() {
    check("study", 0, "end_to_end");
    check("study", 1, "per_layer");
}

#[test]
fn cloud_replay_smoke() {
    check("cloud_replay", 0, "end_to_end");
    check("cloud_replay", 1, "per_layer");
}

#[test]
fn cloud_durable_smoke() {
    check("cloud_durable", 0, "end_to_end");
    check("cloud_durable", 1, "per_layer");
}

#[test]
fn bad_usage_exits_2() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .status()
        .expect("the benchmark starts");
    assert_eq!(status.code(), Some(2));
}
