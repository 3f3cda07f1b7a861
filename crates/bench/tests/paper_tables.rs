//! The paper tables are pinned byte for byte.
//!
//! `tests/snapshots/table{1,3,4}.txt` are the exact stdout of
//! `repro table1`, `repro table3` and `repro table4` at the default
//! scale (5 samples, seed 20250205, the full 24-problem suite). Any
//! change to the solver, the cache, the campaign engine or the
//! synthetic models that moves a single digit of a paper table fails
//! here. Regenerate deliberately with
//! `cargo run --release --bin repro -- table3 > crates/bench/tests/snapshots/table3.txt`
//! (and likewise for the others) — and say why in the change log.

use picbench_bench::{table1, table3, table4, ReproScale};

fn snapshot(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `repro` prints each artifact followed by a blank line.
fn printed(artifact: String) -> String {
    artifact + "\n\n"
}

#[test]
fn table1_matches_snapshot() {
    assert_eq!(printed(table1()), snapshot("table1.txt"));
}

#[test]
fn table3_matches_snapshot() {
    let table = table3(&ReproScale::default()).unwrap();
    assert_eq!(printed(table), snapshot("table3.txt"));
}

#[test]
fn table4_matches_snapshot() {
    let table = table4(&ReproScale::default()).unwrap();
    assert_eq!(printed(table), snapshot("table4.txt"));
}
