//! Replays the checked-in regression corpus (`tests/corpus/*.json`)
//! through every differential axis and every physics oracle on every
//! `cargo test`.
//!
//! A corpus case is a circuit that the conformance harness once found
//! interesting — generator-seeded representatives of each structural
//! family plus hand-seeded edge topologies. Each must keep agreeing
//! across all configuration axes (planned solver vs dense oracle,
//! constant fold, cache, canonicalization, SIMD tier) and
//! keep satisfying the physics oracles on both solver paths forever; a solver or cache regression that breaks one
//! fails this test with the offending file named.
//!
//! Reproduce a failure by hand with:
//! `cargo run -p picbench-bench --bin conformance -- --replay tests/corpus/<case>.json`

use picbench::conformance::{check_circuit, load_corpus_dir, DiffRunner, OracleConfig, SolverPath};
use picbench::sim::ModelRegistry;
use std::path::Path;

const MIN_CORPUS_SIZE: usize = 10;

#[test]
fn corpus_replays_clean_through_all_axes_and_oracles() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = load_corpus_dir(&dir).expect("corpus directory must load");
    assert!(
        cases.len() >= MIN_CORPUS_SIZE,
        "regression corpus shrank below {MIN_CORPUS_SIZE} cases ({} found) — \
         corpus files must not be deleted without a replacement",
        cases.len()
    );

    let registry = ModelRegistry::with_builtins();
    let oracle = OracleConfig::default();
    let mut failures = Vec::new();
    for (path, case) in &cases {
        let runner = DiffRunner::new(case.grid);
        if let Err(disagreement) = runner.check(&case.netlist) {
            failures.push(format!("{}: {disagreement}", path.display()));
        }
        for solver in SolverPath::ALL {
            for violation in check_circuit(&case.gen_circuit(), &registry, solver, &oracle) {
                failures.push(format!("{}: {solver}: {violation}", path.display()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_cases_round_trip_and_stay_structurally_valid() {
    use picbench::conformance::CorpusCase;
    use picbench::sim::Circuit;

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let registry = ModelRegistry::with_builtins();
    for (path, case) in load_corpus_dir(&dir).expect("corpus directory must load") {
        // The stored document round-trips exactly through the corpus
        // serializer, so failures can be re-saved without churn.
        let reparsed = CorpusCase::from_json_str(&case.to_json_string())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(reparsed, case, "{}", path.display());
        // And the embedded netlist still elaborates.
        Circuit::elaborate(&case.netlist, &registry, None)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
