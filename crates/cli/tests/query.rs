//! `pmware query` end to end: an analytics window that holds nothing yet
//! is an empty answer, not a failure.

use std::process::Command;

/// Two simulated days leave the cloud's history without a place visit:
/// no place is known before the first nightly discovery, and the first
/// day with places ships only once its overnight home stay has closed.
/// The arrival and next-visit queries answer 404; the command reports
/// both as empty and exits 0. Home is already the place that holds the
/// nights (`pm-place:0`), not one with five short evening visits.
#[test]
fn an_empty_arrival_window_is_reported_and_exits_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_pmware"))
        .args(["query", "--days", "2"])
        .output()
        .expect("pmware runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("analytics over 2 simulated days (home = pm-place:0)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("evening home arrival : none in the 15-24 h window yet"),
        "{stdout}"
    );
    assert!(
        stdout.contains("next home visit      : no visit pattern yet"),
        "{stdout}"
    );
    assert!(
        stdout.contains("home visit frequency : 0.0/week"),
        "{stdout}"
    );
}

/// Four days are enough for an evening home arrival to reach the cloud.
#[test]
fn a_filled_arrival_window_reports_its_time() {
    let output = Command::new(env!("CARGO_BIN_EXE_pmware"))
        .args(["query", "--days", "4"])
        .output()
        .expect("pmware runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("evening home arrival : 19:05"), "{stdout}");
}
