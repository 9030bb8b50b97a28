//! The bench binaries refuse what they do not accept: a typo'd flag exits
//! 2 naming it, before any study runs or any file is written.

use std::process::Command;

#[test]
fn a_typoed_flag_exits_2_before_any_work() {
    let out = Command::new(env!("CARGO_BIN_EXE_deployment_study"))
        .args([
            "--participants",
            "1",
            "--days",
            "1",
            "--metrcs-out",
            "m.json",
        ])
        .output()
        .expect("spawn deployment_study");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --metrcs-out"), "{stderr}");
    assert!(out.stdout.is_empty(), "the study must not start");
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
