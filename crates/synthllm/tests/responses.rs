//! Byte-level pins of what the synthetic models write.
//!
//! Campaign tallies only show that responses are *classified* the same;
//! the disk tier of the evaluation cache keys verdicts by a hash of the
//! response text, so a single drifted byte would silently miss there.
//! These tests pin the bytes themselves.

use picbench_netlist::{json, FailureType, Fnv64, Netlist, ValidationIssue};
use picbench_prompt::{
    functional_feedback, render_system_prompt, syntax_feedback, Conversation, Role,
    SystemPromptConfig,
};
use picbench_synthllm::corrupt::{sample_functional_corruption, sample_syntax_corruption};
use picbench_synthllm::{LanguageModel, ModelProfile, SyntheticLlm, PAPER_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn system_prompt(restricted: bool) -> String {
    let models = picbench_sparams::builtin_models();
    render_system_prompt(
        models.iter().map(|m| m.info()),
        SystemPromptConfig {
            include_restrictions: restricted,
        },
    )
}

/// Every response of the five paper profiles over the whole suite — two
/// samples per problem, restrictions off and on, each sample answering
/// the initial query, a syntax correction request naming its active
/// mistakes, and a functional hint — folded into one FNV-1a digest.
#[test]
fn synthetic_response_bytes_are_pinned() {
    let suite = picbench_problems::suite();
    let mut digest = Fnv64::new();
    let mut responses = 0u64;
    for restricted in [false, true] {
        let system = system_prompt(restricted);
        for profile in ModelProfile::all_paper_models() {
            let mut llm = SyntheticLlm::new(profile, PAPER_SEED);
            for problem in &suite {
                for sample in 0..2 {
                    let mut conversation = Conversation::with_system(system.clone());
                    conversation.push(Role::User, problem.description.clone());
                    llm.begin_sample(problem, sample);
                    for turn in 0..3 {
                        let response = llm.respond(&conversation);
                        digest.write_str(&response);
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
    assert_eq!(responses, 2 * 5 * suite.len() as u64 * 2 * 3);
    assert_eq!(
        digest.finish(),
        12_974_383_939_356_757_723,
        "synthetic response bytes changed; every cached verdict keyed by them is lost"
    );
}

fn assert_writer_identity(netlist: &Netlist, what: &str) {
    assert_eq!(
        netlist.to_json_string(),
        json::to_string_pretty(&netlist.to_value()),
        "direct writer and Value path disagree on {what}"
    );
}

/// The direct netlist writer against the `Value` path on every golden
/// design and on corruptions sampled from every mistake category.
#[test]
fn direct_writer_matches_value_path_on_goldens_and_corruptions() {
    let mut rng = StdRng::seed_from_u64(PAPER_SEED);
    for problem in picbench_problems::suite() {
        let golden = &problem.golden;
        assert_writer_identity(golden, &problem.id);
        for _ in 0..4 {
            let mut sampled: Vec<_> = FailureType::ALL
                .into_iter()
                .filter_map(|category| sample_syntax_corruption(golden, category, &mut rng))
                .collect();
            sampled.extend(sample_functional_corruption(golden, &mut rng));
            for corruption in sampled {
                let mut belief = golden.clone();
                corruption.apply(&mut belief);
                assert_writer_identity(&belief, &format!("{} + {corruption:?}", problem.id));
            }
        }
    }
}
