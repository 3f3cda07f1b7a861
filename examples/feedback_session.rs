//! Watch the error-feedback loop heal a faulty design (the Fig. 4 story,
//! live): a synthetic model answers the `MZI ps` brief, the evaluator
//! classifies its mistakes, and the correction feedback converges to a
//! passing netlist.
//!
//! ```sh
//! cargo run --example feedback_session
//! ```

use picbench::core::{run_sample, Evaluator, LoopConfig};
use picbench::prompt::Role;
use picbench::synthllm::{ModelProfile, SyntheticLlm};

fn main() {
    let problem = picbench::problems::find("mzi-ps").expect("problem exists");
    let mut evaluator = Evaluator::default();
    let golden = evaluator.golden(&problem).expect("golden simulates");
    let mut llm = SyntheticLlm::new(ModelProfile::gpt_o1_mini(), 4242);

    // Search for a sample that starts broken and ends fixed — the
    // archetypal feedback story.
    for sample in 0..500 {
        let result = run_sample(
            &mut llm,
            &problem,
            &golden,
            &mut evaluator,
            LoopConfig {
                max_feedback_iters: 3,
                restrictions: false,
            },
            sample,
        );
        if result.feedback_rounds_used() == 0 || !result.functional_pass() {
            continue;
        }

        println!(
            "=== {} solving '{}' (sample {}) ===\n",
            result.model, problem.name, sample
        );
        for attempt in &result.attempts {
            println!("--- Iteration {} ---", attempt.iteration);
            match &attempt.report.syntax {
                Err(issues) => {
                    println!("Evaluation: SYNTAX ERROR");
                    for issue in issues {
                        println!("  {issue}");
                    }
                }
                Ok(()) => match attempt.report.functional {
                    Some(true) => println!("Evaluation: PASS"),
                    _ => println!("Evaluation: functional error (response deviates from golden)"),
                },
            }
            println!();
        }

        println!("--- Conversation transcript (roles only) ---");
        for turn in result.conversation.turns() {
            let preview: String = turn.content.chars().take(72).collect();
            let preview = preview.replace('\n', " ");
            println!("[{}] {preview}…", turn.role);
        }

        let feedback_turns = result
            .conversation
            .turns()
            .iter()
            .filter(|t| t.role == Role::User)
            .count()
            - 1;
        println!(
            "\nHealed after {} feedback round(s). Final verdict: syntax {}, functionality {}.",
            feedback_turns,
            if result.syntax_pass() { "PASS" } else { "FAIL" },
            if result.functional_pass() {
                "PASS"
            } else {
                "FAIL"
            },
        );
        return;
    }
    println!("No healing trajectory found in 500 samples (unexpected).");
}
