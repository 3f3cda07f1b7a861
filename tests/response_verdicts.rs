//! A pin on every verdict the response front end hands out.
//!
//! The syntax check (extract the `<result>` JSON, parse, check the
//! schema, validate against the Table II rules, elaborate) produces the
//! classified messages the synthetic models repair from. One drifted
//! byte in a message, or one issue reported in a different order, moves
//! the paper tables; this test folds every verdict into one digest so
//! such drift fails here first.

use picbench::core::{EvalReport, Evaluator, Golden};
use picbench::netlist::{FailureType, Fnv64, Netlist, ValidationIssue};
use picbench::problems::Problem;
use picbench::prompt::{
    functional_feedback, render_system_prompt, syntax_feedback, Conversation, Role,
    SystemPromptConfig,
};
use picbench::synthllm::corrupt::{sample_functional_corruption, sample_syntax_corruption};
use picbench::synthllm::{Corruption, LanguageModel, ModelProfile, SyntheticLlm, PAPER_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Folds one report's syntax pass, issue labels and messages (in order)
/// and functional verdict into `digest`.
fn fold(digest: &mut Fnv64, report: &EvalReport) {
    digest.write_u64(u64::from(report.syntax_pass()));
    digest.write_u64(report.issues().len() as u64);
    for issue in report.issues() {
        digest.write_str(issue.failure.label());
        digest.write_str(&issue.message);
    }
    digest.write_u64(match report.functional {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

fn system_prompt(restricted: bool) -> String {
    let models = picbench::sparams::builtin_models();
    render_system_prompt(
        models.iter().map(|m| m.info()),
        SystemPromptConfig {
            include_restrictions: restricted,
        },
    )
}

/// The 1440 synthetic responses pinned byte for byte by the synthllm
/// response test: five paper profiles, restrictions off and on, two
/// samples per problem, three turns each.
fn fold_synthetic_responses(
    digest: &mut Fnv64,
    evaluator: &mut Evaluator,
    suite: &[Problem],
    goldens: &[Golden],
) -> u64 {
    let mut responses = 0u64;
    for restricted in [false, true] {
        let system = system_prompt(restricted);
        for profile in ModelProfile::all_paper_models() {
            let mut llm = SyntheticLlm::new(profile, PAPER_SEED);
            for (problem, golden) in suite.iter().zip(goldens) {
                for sample in 0..2 {
                    let mut conversation = Conversation::with_system(system.clone());
                    conversation.push(Role::User, problem.description.clone());
                    llm.begin_sample(problem, sample);
                    for turn in 0..3 {
                        let response = llm.respond(&conversation);
                        fold(
                            digest,
                            &evaluator.evaluate_response(problem, golden, &response),
                        );
                        responses += 1;
                        conversation.push(Role::Assistant, response);
                        let feedback = if turn == 0 {
                            let issues: Vec<ValidationIssue> = llm
                                .active_corruptions()
                                .iter()
                                .filter_map(|c| c.category())
                                .map(|f| ValidationIssue::new(f, "details"))
                                .collect();
                            syntax_feedback(&problem.id, &issues)
                        } else {
                            functional_feedback()
                        };
                        conversation.push(Role::User, feedback);
                    }
                }
            }
        }
    }
    responses
}

/// Renders a corrupted golden as `tests/corruption_classification.rs`
/// stages it.
fn render(netlist: &Netlist, corruption: &Corruption) -> String {
    let mut belief = netlist.clone();
    corruption.apply(&mut belief);
    let json = corruption.apply_text(&belief.to_json_string());
    format!("<analysis>\ntest\n</analysis>\n<result>\n{json}\n</result>")
}

/// Every syntax corruption operator on every problem it applies to, and
/// eight functional corruptions per problem, with the seeds of
/// `tests/corruption_classification.rs`.
fn fold_staged_corruptions(
    digest: &mut Fnv64,
    evaluator: &mut Evaluator,
    suite: &[Problem],
    goldens: &[Golden],
) -> u64 {
    let mut staged = 0u64;
    for (problem, golden) in suite.iter().zip(goldens) {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ problem.id.len() as u64);
        for category in FailureType::ALL {
            if let Some(corruption) = sample_syntax_corruption(&problem.golden, category, &mut rng)
            {
                let response = render(&problem.golden, &corruption);
                fold(
                    digest,
                    &evaluator.evaluate_response(problem, golden, &response),
                );
                staged += 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ problem.id.len() as u64);
        for _ in 0..8 {
            let corruption =
                sample_functional_corruption(&problem.golden, &mut rng).expect("functional");
            let response = render(&problem.golden, &corruption);
            fold(
                digest,
                &evaluator.evaluate_response(problem, golden, &response),
            );
            staged += 1;
        }
    }
    staged
}

#[test]
fn response_verdicts_are_pinned() {
    let suite = picbench::problems::suite();
    let mut evaluator = Evaluator::default();
    let goldens: Vec<Golden> = suite
        .iter()
        .map(|p| evaluator.golden(p).expect("golden simulates"))
        .collect();
    let mut digest = Fnv64::new();
    let responses = fold_synthetic_responses(&mut digest, &mut evaluator, &suite, &goldens);
    assert_eq!(responses, 1440);
    let staged = fold_staged_corruptions(&mut digest, &mut evaluator, &suite, &goldens);
    assert!(staged >= 220 + 8 * suite.len() as u64, "staged {staged}");
    assert_eq!(
        digest.finish(),
        16_816_957_965_819_281_825,
        "a response verdict moved: syntax pass, issue label, message or order, \
         or functional verdict"
    );
}
