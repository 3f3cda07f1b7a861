//! Extension experiments beyond the paper's tables:
//!
//! * [`collect_error_histogram`] — which Table II failure categories each
//!   model actually commits (the measurement that motivated the paper's
//!   error-classification loop in the first place);
//! * [`restriction_ablation`] — leave-one-out: how much syntax Pass@1
//!   drops when a single restriction is removed from the system prompt,
//!   i.e. which restriction carries the most weight.

use crate::evaluate::{Evaluator, Golden};
use crate::passk::ProblemTally;
use picbench_netlist::FailureType;
use picbench_problems::Problem;
use picbench_prompt::{render_system_prompt_with_restrictions, Conversation, Role};
use picbench_synthllm::{LanguageModel, ModelProfile, SyntheticLlm};
use std::collections::HashMap;

/// Counts of classified first-attempt failures, per category.
#[derive(Debug, Clone, Default)]
pub struct ErrorHistogram {
    /// Model display name.
    pub model: String,
    /// Number of first attempts examined.
    pub attempts: usize,
    /// Number of attempts with at least one syntax issue.
    pub failing_attempts: usize,
    /// Issue counts by category.
    pub counts: HashMap<FailureType, usize>,
}

impl ErrorHistogram {
    /// Categories sorted by descending count.
    pub fn ranked(&self) -> Vec<(FailureType, usize)> {
        let mut entries: Vec<(FailureType, usize)> =
            self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
    }
}

fn problem_conversation(system: &str, problem: &Problem) -> Conversation {
    let mut c = Conversation::with_system(system.to_string());
    c.push(Role::User, problem.description.clone());
    c
}

/// Runs `samples` first attempts of one profile on every problem and
/// tallies the classified issues — no feedback rounds, because the
/// histogram characterizes the model's raw failure modes (§III-D).
pub fn collect_error_histogram(
    profile: &ModelProfile,
    problems: &[Problem],
    evaluator: &mut Evaluator,
    samples: u64,
    restrictions: bool,
    seed: u64,
) -> ErrorHistogram {
    let system = evaluator.system_prompt(restrictions);
    let mut llm = SyntheticLlm::new(profile.clone(), seed);
    let mut histogram = ErrorHistogram {
        model: profile.name.to_string(),
        ..ErrorHistogram::default()
    };
    for problem in problems {
        let golden = evaluator.expect_golden(problem, problem.golden.content_hash());
        let conversation = problem_conversation(&system, problem);
        for sample in 0..samples {
            llm.begin_sample(problem, sample);
            let response = llm.respond(&conversation);
            let report = evaluator.evaluate_response(problem, &golden, &response);
            histogram.attempts += 1;
            if !report.syntax_pass() {
                histogram.failing_attempts += 1;
                for issue in report.issues() {
                    *histogram.counts.entry(issue.failure).or_insert(0) += 1;
                }
            }
        }
    }
    histogram
}

/// One row of the leave-one-out restriction ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The restriction removed (`None` = full restriction set).
    pub removed: Option<FailureType>,
    /// Mean syntax Pass@1 (percent) across problems.
    pub syntax_pass1: f64,
    /// Mean functional Pass@1 (percent).
    pub functional_pass1: f64,
}

/// Measures syntax/functional Pass@1 with the full Table II restriction
/// set, then with each restriction removed in turn.
///
/// The drop relative to the full set ranks the restrictions by how much
/// protection each one buys — an ablation the paper motivates but does
/// not report.
pub fn restriction_ablation(
    profile: &ModelProfile,
    problems: &[Problem],
    evaluator: &mut Evaluator,
    samples: u64,
    seed: u64,
) -> Vec<AblationRow> {
    let infos: Vec<_> = evaluator
        .registry()
        .iter()
        .map(|m| m.info().clone())
        .collect();

    let removable: Vec<Option<FailureType>> = std::iter::once(None)
        .chain(
            FailureType::ALL
                .into_iter()
                .filter(|f| !f.restriction().is_empty())
                .map(Some),
        )
        .collect();

    let goldens: Vec<Golden> = problems
        .iter()
        .map(|p| evaluator.expect_golden(p, p.golden.content_hash()))
        .collect();
    let mut rows = Vec::with_capacity(removable.len());
    for removed in removable {
        let subset: Vec<FailureType> = FailureType::ALL
            .into_iter()
            .filter(|f| Some(*f) != removed)
            .collect();
        let system = render_system_prompt_with_restrictions(infos.iter(), &subset);
        let mut llm = SyntheticLlm::new(profile.clone(), seed);
        let mut tallies = Vec::with_capacity(problems.len());
        for (problem, golden) in problems.iter().zip(&goldens) {
            let conversation = problem_conversation(&system, problem);
            let mut tally = ProblemTally {
                n: samples as usize,
                syntax_passes: 0,
                functional_passes: 0,
            };
            for sample in 0..samples {
                llm.begin_sample(problem, sample);
                let response = llm.respond(&conversation);
                let report = evaluator.evaluate_response(problem, golden, &response);
                if report.syntax_pass() {
                    tally.syntax_passes += 1;
                }
                if report.functional_pass() {
                    tally.functional_passes += 1;
                }
            }
            tallies.push(tally);
        }
        let (syntax, functional) = crate::passk::aggregate_pass_at_k(&tallies, 1);
        rows.push(AblationRow {
            removed,
            syntax_pass1: syntax,
            functional_pass1: functional,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problems() -> Vec<Problem> {
        ["mzi-ps", "mzm", "umatrix", "os-2x2"]
            .iter()
            .map(|id| picbench_problems::find(id).unwrap())
            .collect()
    }

    #[test]
    fn histogram_counts_failures() {
        let mut evaluator = Evaluator::default();
        let problems = small_problems();
        let histogram = collect_error_histogram(
            &ModelProfile::gpt_o1_mini(),
            &problems,
            &mut evaluator,
            10,
            false,
            3,
        );
        assert_eq!(histogram.attempts, 40);
        assert!(histogram.failing_attempts > 0);
        let total: usize = histogram.counts.values().sum();
        assert!(total >= histogram.failing_attempts);
        // Ranked output is sorted descending.
        let ranked = histogram.ranked();
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn restrictions_shrink_the_histogram() {
        let mut evaluator = Evaluator::default();
        let problems = small_problems();
        let plain = collect_error_histogram(
            &ModelProfile::gemini15_pro(),
            &problems,
            &mut evaluator,
            12,
            false,
            9,
        );
        let restricted = collect_error_histogram(
            &ModelProfile::gemini15_pro(),
            &problems,
            &mut evaluator,
            12,
            true,
            9,
        );
        assert!(
            restricted.failing_attempts < plain.failing_attempts,
            "restrictions should reduce failures: {} vs {}",
            restricted.failing_attempts,
            plain.failing_attempts
        );
    }

    #[test]
    fn ablation_produces_one_row_per_restriction_plus_baseline() {
        let mut evaluator = Evaluator::default();
        let problems = small_problems();
        let rows = restriction_ablation(&ModelProfile::gpt4o(), &problems, &mut evaluator, 6, 5);
        // 1 baseline + 9 restrictions (OtherSyntax has no text).
        assert_eq!(rows.len(), 10);
        assert!(rows[0].removed.is_none());
        for row in &rows {
            assert!((0.0..=100.0).contains(&row.syntax_pass1));
            assert!(row.functional_pass1 <= row.syntax_pass1 + 1e-9);
        }
    }
}
