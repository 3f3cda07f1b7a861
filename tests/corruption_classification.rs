//! End-to-end error-classification coverage: every corruption operator,
//! staged on every benchmark problem it applies to, must be caught by the
//! evaluation pipeline *and* classified into its intended Table II
//! category.
//!
//! This is the integration contract between `picbench-synthllm` (which
//! manufactures realistic mistakes) and `picbench-core` (which must
//! recognize them): if either side drifts, the feedback loop would start
//! sending wrong categories to the models.

use picbench::core::Evaluator;
use picbench::netlist::{FailureType, Netlist};
use picbench::synthllm::{
    corrupt::{sample_functional_corruption, sample_syntax_corruption},
    Corruption,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn render(netlist: &Netlist, corruption: &Corruption) -> String {
    let mut belief = netlist.clone();
    corruption.apply(&mut belief);
    let mut json = belief.to_json_string();
    json = corruption.apply_text(&json);
    format!("<analysis>\ntest\n</analysis>\n<result>\n{json}\n</result>")
}

#[test]
fn every_syntax_corruption_is_caught_and_classified() {
    let problems = picbench::problems::suite();
    let mut evaluator = Evaluator::default();
    let mut staged = 0usize;
    let mut skipped = 0usize;

    for problem in &problems {
        let golden = evaluator.golden(problem).expect("golden simulates");
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ problem.id.len() as u64);
        for category in FailureType::ALL {
            let Some(corruption) = sample_syntax_corruption(&problem.golden, category, &mut rng)
            else {
                // Not stageable on this design (e.g. no swappable models
                // entry) — legitimate.
                skipped += 1;
                continue;
            };
            staged += 1;
            let response = render(&problem.golden, &corruption);
            let report = evaluator.evaluate_response(problem, &golden, &response);
            assert!(
                !report.syntax_pass(),
                "{}: {category:?} corruption went undetected",
                problem.id
            );
            let classified: Vec<FailureType> = report.issues().iter().map(|i| i.failure).collect();
            assert!(
                classified.contains(&category),
                "{}: {category:?} corruption misclassified as {classified:?}",
                problem.id
            );
        }
    }
    // The suite must exercise the overwhelming majority of combinations.
    assert!(
        staged >= 220,
        "too few staged corruptions: {staged} (skipped {skipped})"
    );
}

#[test]
fn every_functional_corruption_fails_functionality_but_not_syntax() {
    let problems = picbench::problems::suite();
    let mut evaluator = Evaluator::default();

    for problem in &problems {
        let golden = evaluator.golden(problem).expect("golden simulates");
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ problem.id.len() as u64);
        let mut detected = 0usize;
        for _attempt in 0..8 {
            let Some(corruption) = sample_functional_corruption(&problem.golden, &mut rng) else {
                panic!("{}: no functional corruption available", problem.id);
            };
            assert!(corruption.is_functional());
            let response = render(&problem.golden, &corruption);
            let report = evaluator.evaluate_response(problem, &golden, &response);
            assert!(
                report.syntax_pass(),
                "{}: functional corruption {corruption:?} broke syntax: {:?}",
                problem.id,
                report.issues()
            );
            match report.functional {
                Some(false) => detected += 1,
                Some(true) => {
                    // A tweak can be genuinely unobservable — e.g. flipping
                    // a switch cell that carries no light. The
                    // simulation-based check rightly accepts such designs,
                    // but only if the responses are *identical*.
                    let cmp = report.comparison.expect("compared");
                    assert!(
                        cmp.max_power_diff <= picbench::core::DEFAULT_FUNCTIONAL_TOLERANCE,
                        "{}: accepted corruption {corruption:?} with diff {cmp:?}",
                        problem.id
                    );
                }
                None => unreachable!("syntax passed"),
            }
        }
        // Fabrics with many dark elements (e.g. Spanke trees under
        // identity routing) shrug off most local tweaks; every problem
        // must still expose *some* observable functional corruption.
        assert!(
            detected >= 2,
            "{}: only {detected}/8 functional corruptions were observable",
            problem.id
        );
    }
}

#[test]
fn clean_golden_renders_pass_everywhere() {
    let problems = picbench::problems::suite();
    let mut evaluator = Evaluator::default();
    for problem in &problems {
        let golden = evaluator.golden(problem).expect("golden simulates");
        let response = format!(
            "<analysis>\nreference\n</analysis>\n<result>\n{}\n</result>",
            problem.golden.to_json_string()
        );
        let report = evaluator.evaluate_response(problem, &golden, &response);
        assert!(
            report.functional_pass(),
            "{}: golden failed ({:?})",
            problem.id,
            report.issues()
        );
    }
}
