//! The error-feedback loop (§III-E, Fig. 1 and Fig. 4).
//!
//! One *sample* is a complete conversation: system prompt, problem
//! description, the model's first netlist, and up to `max_feedback_iters`
//! correction rounds. Syntax errors feed back the classified categories
//! with detailed reports; functional errors feed back the paper's fixed
//! hint. The sample's verdict is the outcome of its final attempt.

use crate::evaluate::{EvalReport, Evaluator, Golden};
use picbench_problems::Problem;
use picbench_prompt::{functional_feedback, syntax_feedback, Conversation, Role};
use picbench_synthllm::LanguageModel;

/// Configuration of one feedback-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopConfig {
    /// Maximum number of feedback iterations after the initial query
    /// (the paper evaluates 0, 1 and 3).
    pub max_feedback_iters: usize,
    /// Whether the Table II restrictions are included in the system
    /// prompt.
    pub restrictions: bool,
}

/// One generation + evaluation round inside a sample.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 0 = initial query, 1.. = feedback iterations.
    pub iteration: usize,
    /// The model's raw response.
    pub response: String,
    /// The evaluator's verdict.
    pub report: EvalReport,
}

/// The complete outcome of one sample.
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// Problem identifier.
    pub problem_id: String,
    /// Model display name.
    pub model: String,
    /// Which of the n Pass@k samples this is.
    pub sample_index: u64,
    /// Every attempt in order.
    pub attempts: Vec<AttemptRecord>,
    /// The full conversation transcript.
    pub conversation: Conversation,
}

impl SampleResult {
    /// The final attempt.
    pub fn final_attempt(&self) -> &AttemptRecord {
        self.attempts.last().expect("at least one attempt")
    }

    /// Whether the sample ended with valid syntax.
    pub fn syntax_pass(&self) -> bool {
        self.final_attempt().report.syntax_pass()
    }

    /// Whether the sample ended functionally correct.
    pub fn functional_pass(&self) -> bool {
        self.final_attempt().report.functional_pass()
    }

    /// Number of feedback rounds actually used.
    pub fn feedback_rounds_used(&self) -> usize {
        self.attempts.len() - 1
    }
}

/// Runs one sample through the Fig. 1 flow against `problem`'s `golden`.
pub fn run_sample(
    llm: &mut dyn LanguageModel,
    problem: &Problem,
    golden: &Golden,
    evaluator: &mut Evaluator,
    config: LoopConfig,
    sample_index: u64,
) -> SampleResult {
    let system = evaluator.system_prompt(config.restrictions);
    let mut conversation = Conversation::with_system((*system).clone());
    conversation.push(Role::User, problem.description.clone());

    llm.begin_sample(problem, sample_index);

    let mut attempts = Vec::with_capacity(config.max_feedback_iters + 1);
    for iteration in 0..=config.max_feedback_iters {
        let response = llm.respond(&conversation);
        conversation.push(Role::Assistant, response.clone());
        let report = evaluator.evaluate_response(problem, golden, &response);
        let done = report.functional_pass();
        attempts.push(AttemptRecord {
            iteration,
            response,
            report,
        });
        if done || iteration == config.max_feedback_iters {
            break;
        }
        // Prepare the next round's feedback.
        let last = attempts.last().expect("just pushed");
        let feedback = if last.report.syntax_pass() {
            functional_feedback()
        } else {
            syntax_feedback(&problem.id, last.report.issues())
        };
        conversation.push(Role::User, feedback);
    }

    SampleResult {
        problem_id: problem.id.to_string(),
        model: llm.name().to_string(),
        sample_index,
        attempts,
        conversation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_synthllm::{ModelProfile, PerfectLlm, SyntheticLlm};

    fn mzi_ps() -> Problem {
        picbench_problems::find("mzi-ps").unwrap()
    }

    #[test]
    fn oracle_passes_in_one_attempt() {
        let problem = mzi_ps();
        let mut llm = PerfectLlm::new();
        let mut ev = Evaluator::default();
        let result = run_sample(
            &mut llm,
            &problem,
            &ev.golden(&problem).unwrap(),
            &mut ev,
            LoopConfig {
                max_feedback_iters: 3,
                restrictions: false,
            },
            0,
        );
        assert!(result.syntax_pass());
        assert!(result.functional_pass());
        assert_eq!(result.attempts.len(), 1);
        assert_eq!(result.feedback_rounds_used(), 0);
    }

    #[test]
    fn oracle_passes_every_problem() {
        let mut llm = PerfectLlm::new();
        let mut ev = Evaluator::default();
        for problem in picbench_problems::suite() {
            let golden = ev.golden(&problem).unwrap();
            let config = LoopConfig::default();
            let result = run_sample(&mut llm, &problem, &golden, &mut ev, config, 0);
            assert!(
                result.functional_pass(),
                "oracle failed {}: {:?}",
                problem.id,
                result.final_attempt().report.issues()
            );
        }
    }

    #[test]
    fn feedback_improves_synthetic_outcomes() {
        // With many samples, allowing 3 feedback rounds must produce at
        // least as many (and in practice more) syntax passes as 0 rounds.
        let problem = picbench_problems::find("clements-4x4").unwrap();
        let mut ev = Evaluator::default();
        let golden = ev.golden(&problem).unwrap();
        let samples = 30;
        let mut passes = [0usize; 2];
        for (slot, iters) in [(0usize, 0usize), (1, 3)] {
            let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 11);
            for s in 0..samples {
                let result = run_sample(
                    &mut llm,
                    &problem,
                    &golden,
                    &mut ev,
                    LoopConfig {
                        max_feedback_iters: iters,
                        restrictions: false,
                    },
                    s,
                );
                if result.syntax_pass() {
                    passes[slot] += 1;
                }
            }
        }
        assert!(
            passes[1] > passes[0],
            "feedback should help: {} vs {}",
            passes[1],
            passes[0]
        );
    }

    #[test]
    fn loop_stops_early_on_success() {
        let problem = mzi_ps();
        let mut llm = PerfectLlm::new();
        let mut ev = Evaluator::default();
        let result = run_sample(
            &mut llm,
            &problem,
            &ev.golden(&problem).unwrap(),
            &mut ev,
            LoopConfig {
                max_feedback_iters: 3,
                restrictions: false,
            },
            0,
        );
        // Perfect model needs no feedback: exactly one assistant turn.
        assert_eq!(result.conversation.turns().len(), 3); // system, user, assistant
    }

    #[test]
    fn transcript_records_feedback_turns() {
        // Force errors with a high-lambda profile; the transcript should
        // contain user feedback turns when iterations are allowed.
        let problem = picbench_problems::find("spanke-8x8").unwrap();
        let mut llm = SyntheticLlm::new(ModelProfile::gpt_o1_mini(), 5);
        let mut ev = Evaluator::default();
        let result = run_sample(
            &mut llm,
            &problem,
            &ev.golden(&problem).unwrap(),
            &mut ev,
            LoopConfig {
                max_feedback_iters: 2,
                restrictions: false,
            },
            0,
        );
        // spanke-8x8 at difficulty ~5.3 virtually never passes initially.
        assert!(result.attempts.len() >= 2);
        let user_turns = result
            .conversation
            .turns()
            .iter()
            .filter(|t| t.role == Role::User)
            .count();
        assert_eq!(user_turns, 1 + result.feedback_rounds_used());
    }
}
