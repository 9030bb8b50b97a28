//! SCALE-STORAGE: storage-engine soak — capped RSS vs population growth,
//! hydration latency vs history length, and crash-recovery time.
//!
//! Three experiments against a durable cap-K [`StorageEngine`]:
//!
//! * **RSS ladder** — drive populations of K, 2K, 4K, 8K users through a
//!   cap-K durable instance (round-robin traffic, so every touch beyond
//!   the cap is an evict + hydrate). Each arm runs in its own child
//!   process (`--arm`) and reports its peak RSS from `/proc/self/status`
//!   — same-process arms would share an allocator and hide growth behind
//!   freed-but-retained pages. An uncapped in-memory arm at 8K users is
//!   the honest contrast: the capped arm's peak must stay below it.
//! * **hydration ladder** — a cap-1 instance with two users ping-ponging
//!   so every read hydrates from snapshot + WAL suffix, at increasing
//!   per-user history lengths.
//! * **recovery** — crash an 8K-user durable instance and time
//!   [`CloudInstance::recover`]; the recovered population must be intact.
//!
//! Usage: `storage_soak [--cap N] [--rounds N] [--seed S]`. Writes
//! `BENCH_storage.json` in the current directory and exits nonzero if the
//! cap leaks (resident count above cap) or the capped arm's peak RSS
//! reaches the uncapped arm's.
//!
//! Wallclock use is deliberate and confined to this bench binary (the
//! simulation itself is sim-time only); RSS comes from
//! `/proc/self/status`, so the ladder is Linux-specific and reports zeros
//! elsewhere.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use pmware_bench::args::Args;
use pmware_cloud::{CellDatabase, CloudInstance, Request, StorageConfig};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use serde_json::json;

/// Peak RSS (`VmHWM`) in kB from `/proc/self/status`; zero off-Linux.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmware-soak-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn register(cloud: &CloudInstance, n: u32, now: SimTime) -> String {
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/registration",
            json!({"imei": format!("imei-{n}"), "email": format!("u{n}@soak")}),
        ),
        now,
    );
    assert!(resp.is_success(), "registration failed: {resp:?}");
    resp.json()["token"].as_str().expect("token").to_owned()
}

/// A 40-observation two-cell oscillation, distinct per (user, round).
fn stream(user: u32, round: u64) -> Vec<GsmObservation> {
    (0..40)
        .map(|m| GsmObservation {
            time: SimTime::from_seconds(round * 4_000 + u64::from(m) * 60),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(1),
                cell: CellId(1 + user * 10 + (m % 2)),
            },
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        })
        .collect()
}

/// One traffic round for one user: a sequenced offload. All sim-times in
/// the soak stay inside the token's 24 h validity window.
fn touch(cloud: &CloudInstance, token: &str, user: u32, round: u64) {
    let at = SimTime::from_seconds(1_000 + round * 4_000 + u64::from(user));
    let resp = cloud.handle(
        &Request::post_json(
            "/api/v1/places/discover",
            json!({"observations": stream(user, round), "start": round * 40}),
        )
        .with_token(token),
        at,
    );
    assert!(resp.is_success(), "discover failed: {resp:?}");
}

/// Registers `users` users and drives them round-robin for `rounds`.
fn drive(cloud: &CloudInstance, users: u32, rounds: u64) {
    let tokens: Vec<String> = (0..users)
        .map(|n| register(cloud, n, SimTime::from_seconds(u64::from(n))))
        .collect();
    for round in 0..rounds {
        for user in 0..users {
            touch(cloud, &tokens[user as usize], user, round);
        }
    }
}

/// Child-process mode: run one RSS arm and print its result as a single
/// `ARM_RESULT {...}` line for the orchestrator to parse.
fn run_child_arm(args: &Args, kind: &str) {
    let users: u32 = args.value("users", 64);
    let cap: usize = args.value("cap", 64);
    let rounds: u64 = args.value("rounds", 3);
    let seed: u64 = args.value("seed", 2014);
    let cloud = match kind {
        "capped" => {
            let dir = PathBuf::from(args.flag("dir").expect("--arm capped needs --dir"));
            CloudInstance::new(CellDatabase::new(), seed).with_storage(StorageConfig {
                resident_cap: Some(cap),
                store_dir: Some(dir),
                snapshot_every_days: 1,
            })
        }
        "uncapped" => CloudInstance::new(CellDatabase::new(), seed),
        other => panic!("unknown arm kind {other:?}"),
    };
    let started = Instant::now();
    drive(&cloud, users, rounds);
    let drive_ms = started.elapsed().as_millis();
    println!(
        "ARM_RESULT {{\"users\": {users}, \"capped\": {}, \"peak_rss_kb\": {}, \
         \"resident_users\": {}, \"evictions\": {}, \"hydrations\": {}, \"drive_ms\": {drive_ms}}}",
        kind == "capped",
        peak_rss_kb(),
        cloud.resident_users(),
        cloud.eviction_count(),
        cloud.hydration_count(),
    );
}

/// Spawns this binary as `--arm <kind>` and parses the child's result.
fn spawn_arm(
    kind: &str,
    users: u32,
    cap: usize,
    rounds: u64,
    seed: u64,
    dir: Option<&PathBuf>,
) -> serde_json::Value {
    let exe = std::env::current_exe().expect("current exe");
    let mut command = Command::new(exe);
    command.args(["--arm", kind]);
    command.args(["--users", &users.to_string()]);
    command.args(["--cap", &cap.to_string()]);
    command.args(["--rounds", &rounds.to_string()]);
    command.args(["--seed", &seed.to_string()]);
    if let Some(dir) = dir {
        command.args(["--dir", dir.to_str().expect("utf-8 scratch path")]);
    }
    let output = command.output().expect("spawn arm child");
    assert!(
        output.status.success(),
        "arm child failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("ARM_RESULT "))
        .expect("child printed ARM_RESULT");
    serde_json::from_str(line).expect("ARM_RESULT parses")
}

fn main() {
    // `--arm`, `--users` and `--dir` are the child-process flags
    // `spawn_arm` passes.
    let args = Args::for_binary(&["arm", "users", "cap", "rounds", "seed", "dir"]);
    if let Some(kind) = args.flag("arm") {
        run_child_arm(&args, kind);
        return;
    }

    let cap: usize = args.value("cap", 64).max(1);
    let rounds: u64 = args.value("rounds", 3).max(1);
    let seed: u64 = args.value("seed", 2014);

    println!("SCALE-STORAGE: cap {cap}, {rounds} round(s) per arm, seed {seed}\n");

    // RSS ladder: capped durable arms at 1×..8× the cap, then the
    // uncapped in-memory contrast at 8×, each in a fresh process.
    let mut arms: Vec<serde_json::Value> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for mult in [1u32, 2, 4, 8] {
        let dir = scratch_dir(&format!("rss-{mult}x"));
        let users = cap as u32 * mult;
        let arm = spawn_arm("capped", users, cap, rounds, seed, Some(&dir));
        println!(
            "capped   {users:>6} users: {:>7} kB peak RSS, {:>4} resident, \
             {:>6} evictions, {:>6} hydrations, {:>6} ms",
            arm["peak_rss_kb"],
            arm["resident_users"],
            arm["evictions"],
            arm["hydrations"],
            arm["drive_ms"]
        );
        assert!(
            arm["resident_users"].as_u64().unwrap_or(u64::MAX) <= cap as u64,
            "cap leaked: {} resident > cap {cap}",
            arm["resident_users"]
        );
        arms.push(arm);
        dirs.push(dir);
    }
    let uncapped = spawn_arm("uncapped", cap as u32 * 8, cap, rounds, seed, None);
    println!(
        "uncapped {:>6} users: {:>7} kB peak RSS, {:>4} resident, {:>6} ms",
        uncapped["users"],
        uncapped["peak_rss_kb"],
        uncapped["resident_users"],
        uncapped["drive_ms"]
    );

    // Hydration ladder: cap 1, two users ping-ponging, so every read
    // hydrates a parked store whose history grows with the round count.
    let mut hydration_ladder: Vec<(u64, u128)> = Vec::new();
    for history_rounds in [1u64, 4, 16] {
        let dir = scratch_dir(&format!("hist-{history_rounds}"));
        let cloud = CloudInstance::new(CellDatabase::new(), seed).with_storage(StorageConfig {
            resident_cap: Some(1),
            store_dir: Some(dir.clone()),
            snapshot_every_days: 1,
        });
        let tokens: Vec<String> = (0..2)
            .map(|n| register(&cloud, n, SimTime::from_seconds(u64::from(n))))
            .collect();
        for round in 0..history_rounds {
            for user in 0..2u32 {
                touch(&cloud, &tokens[user as usize], user, round);
            }
        }
        let hydrations_before = cloud.hydration_count();
        let started = Instant::now();
        let reads = 50u64;
        for i in 0..reads {
            let user = (i % 2) as usize;
            let resp = cloud.handle(
                &Request::get("/api/v1/places").with_token(&tokens[user]),
                SimTime::from_seconds(70_000 + i),
            );
            assert!(resp.is_success(), "ladder read failed: {resp:?}");
        }
        let hydrated = cloud.hydration_count() - hydrations_before;
        assert!(hydrated >= reads - 1, "ping-pong reads must hydrate");
        let per_hydration_us = started.elapsed().as_micros() / u128::from(hydrated.max(1));
        println!(
            "hydrate  {history_rounds:>2} rounds of history: {per_hydration_us:>6} µs/hydration \
             ({hydrated} hydrations)"
        );
        hydration_ladder.push((history_rounds, per_hydration_us));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Recovery: crash the largest capped arm and rebuild from its dir.
    let recover_dir = dirs.last().expect("ladder ran").clone();
    let recover_config = StorageConfig {
        resident_cap: Some(cap),
        store_dir: Some(recover_dir.clone()),
        snapshot_every_days: 1,
    };
    let started = Instant::now();
    let recovered = CloudInstance::recover(
        CellDatabase::new(),
        seed,
        recover_config,
        SimTime::from_seconds(80_000),
    );
    let recovery_ms = started.elapsed().as_millis();
    let recovered_users = recovered.user_count();
    println!(
        "\nrecovery: {recovered_users} users rebuilt from WAL + snapshots in {recovery_ms} ms"
    );
    assert_eq!(
        recovered_users,
        cap * 8,
        "recovery lost users ({recovered_users} of {})",
        cap * 8
    );

    let capped_8x_kb = arms.last().expect("ladder ran")["peak_rss_kb"]
        .as_u64()
        .unwrap_or(u64::MAX);
    let uncapped_8x_kb = uncapped["peak_rss_kb"].as_u64().unwrap_or(0);

    let mut out = String::from("{\n  \"bench\": \"storage_soak\",\n");
    out.push_str(&format!(
        "  \"cap\": {cap},\n  \"rounds\": {rounds},\n  \"seed\": {seed},\n"
    ));
    out.push_str("  \"arms\": [\n");
    for (i, arm) in arms.iter().chain(std::iter::once(&uncapped)).enumerate() {
        out.push_str(&format!("    {}{arm}\n", if i > 0 { ", " } else { "" }));
    }
    out.push_str("  ],\n");
    out.push_str("  \"hydration_us_by_history_rounds\": {");
    for (i, (rounds, us)) in hydration_ladder.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{rounds}\": {us}",
            if i > 0 { ", " } else { "" }
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"recovery\": {{\"users\": {recovered_users}, \"wallclock_ms\": {recovery_ms}}},\n"
    ));
    out.push_str(&format!(
        "  \"capped_8x_peak_rss_kb\": {capped_8x_kb},\n  \"uncapped_8x_peak_rss_kb\": {uncapped_8x_kb}\n}}\n"
    ));
    let path = "BENCH_storage.json";
    std::fs::write(path, &out).expect("write BENCH_storage.json");
    println!("wrote {path}");

    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The honest claim, enforced: growing the population 8× beyond the
    // cap must cost less peak RSS than keeping it all resident. (Some
    // per-user residue is expected — registrations, tokens, and WAL
    // watermarks stay in RAM by design.)
    assert!(
        capped_8x_kb < uncapped_8x_kb,
        "capped peak RSS ({capped_8x_kb} kB) reached the uncapped arm's ({uncapped_8x_kb} kB)"
    );
}
