//! Human-readable export of sample traces.
//!
//! Benchmark users audit *why* a model failed; this module renders a
//! [`SampleResult`] — conversation, per-attempt verdicts, classified
//! issues — as a self-contained markdown document.

use crate::feedback_loop::SampleResult;
use picbench_prompt::Role;
use std::fmt::Write as _;

/// Renders a complete sample trace as markdown.
///
/// The document contains the sample's metadata, a verdict summary table
/// of every attempt, and the full conversation transcript (system prompt
/// elided to its first line — it is identical across samples).
pub fn render_trace_markdown(result: &SampleResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Trace: {} on `{}`", result.model, result.problem_id);
    let _ = writeln!(
        out,
        "\nsample {} · {} attempt(s) · final verdict: syntax **{}**, functionality **{}**\n",
        result.sample_index,
        result.attempts.len(),
        if result.syntax_pass() { "PASS" } else { "FAIL" },
        if result.functional_pass() {
            "PASS"
        } else {
            "FAIL"
        },
    );

    let _ = writeln!(out, "## Attempts\n");
    let _ = writeln!(out, "| iter | syntax | functional | issues |");
    let _ = writeln!(out, "|---|---|---|---|");
    for attempt in &result.attempts {
        let (syntax, functional, issues) = match (&attempt.report.syntax, attempt.report.functional)
        {
            (Ok(()), Some(true)) => ("pass".to_string(), "pass".to_string(), String::new()),
            (Ok(()), _) => (
                "pass".to_string(),
                "fail".to_string(),
                "response deviates from golden".to_string(),
            ),
            (Err(issues), _) => (
                "fail".to_string(),
                "—".to_string(),
                issues
                    .iter()
                    .map(|i| i.failure.label())
                    .collect::<Vec<_>>()
                    .join("; "),
            ),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            attempt.iteration, syntax, functional, issues
        );
    }

    let _ = writeln!(out, "\n## Conversation\n");
    for turn in result.conversation.turns() {
        match turn.role {
            Role::System => {
                let first_line = turn.content.lines().next().unwrap_or_default();
                let _ = writeln!(out, "**system** (elided): {first_line}…\n");
            }
            role => {
                let _ = writeln!(out, "**{role}**:\n\n```text\n{}\n```\n", turn.content);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluator;
    use crate::feedback_loop::{run_sample, LoopConfig};
    use picbench_synthllm::{ModelProfile, PerfectLlm, SyntheticLlm};

    #[test]
    fn oracle_trace_renders() {
        let problem = picbench_problems::find("mzi-ps").unwrap();
        let mut evaluator = Evaluator::default();
        let mut oracle = PerfectLlm::new();
        let result = run_sample(
            &mut oracle,
            &problem,
            &evaluator.golden(&problem).unwrap(),
            &mut evaluator,
            LoopConfig::default(),
            0,
        );
        let md = render_trace_markdown(&result);
        assert!(md.contains("# Trace: Oracle on `mzi-ps`"));
        assert!(md.contains("syntax **PASS**"));
        assert!(md.contains("| 0 | pass | pass |"));
        assert!(md.contains("**system** (elided)"));
        assert!(md.contains("**assistant**"));
    }

    #[test]
    fn failing_trace_lists_issue_categories() {
        let problem = picbench_problems::find("spanke-8x8").unwrap();
        let mut evaluator = Evaluator::default();
        let mut llm = SyntheticLlm::new(ModelProfile::gpt_o1_mini(), 1);
        let result = run_sample(
            &mut llm,
            &problem,
            &evaluator.golden(&problem).unwrap(),
            &mut evaluator,
            LoopConfig {
                max_feedback_iters: 1,
                restrictions: false,
            },
            0,
        );
        let md = render_trace_markdown(&result);
        // spanke-8x8 with the weakest profile essentially never passes on
        // the first try; the table must show classified categories.
        assert!(md.contains("| 0 | fail |"));
        assert!(md.contains("## Conversation"));
    }
}
