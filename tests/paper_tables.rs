//! The paper's tables, pinned byte for byte: every table of
//! `pmware_bench::paper` at its defaults must render exactly the checked-in
//! `tests/golden/paper_tables.txt`, which is what `paper` (no arguments)
//! prints and what EXPERIMENTS.md quotes. A change that moves a number
//! fails here; when the move is intended, `make paper-golden` rewrites
//! the file and the diff shows every figure that changed.

#[test]
fn every_paper_table_matches_the_golden_file() {
    let mut rendered = Vec::new();
    pmware_bench::paper::all(&mut rendered).expect("a Vec never refuses a write");
    let rendered = String::from_utf8(rendered).expect("tables are UTF-8");
    let golden = include_str!("golden/paper_tables.txt");
    let first_diff = rendered
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want)
        .map_or("past the shorter text's end".to_owned(), |i| {
            format!("line {}", i + 1)
        });
    assert!(
        rendered == golden,
        "paper tables drifted from tests/golden/paper_tables.txt at {first_diff}; \
         `make paper-golden` rewrites the file when the change is intended"
    );
}
