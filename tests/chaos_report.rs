//! The chaos soak's report, pinned byte for byte: `pmware_bench::chaos`
//! at its defaults must render exactly the checked-in `BENCH_chaos.json`,
//! which is what `chaos_soak` (no arguments) writes. A change that moves
//! a row fails here; when the move is intended, rerun `chaos_soak` in the
//! repo root and review the diff.

use pmware_bench::chaos::{soak, DEFAULT_DAYS, DEFAULT_SEED};

#[test]
fn chaos_soak_report_matches_bench_chaos_json() {
    let report = soak(DEFAULT_DAYS, DEFAULT_SEED);
    assert_eq!(
        report.json(),
        include_str!("../BENCH_chaos.json"),
        "the chaos soak drifted from BENCH_chaos.json"
    );
    assert_eq!(report.first_unconverged(), None);
}
