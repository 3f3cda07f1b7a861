//! # picbench-bench
//!
//! Reproduction harness: every table and figure of the paper can be
//! regenerated as text via the functions in this crate (wired to the
//! `repro` binary), and the Criterion benches measure the simulator and
//! evaluation pipeline.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (benchmark description) | [`table1`] |
//! | Table II (failure types & restrictions) | [`table2`] |
//! | Table III (Pass@k without restrictions) | [`table3`] |
//! | Table IV (Pass@k with restrictions) | [`table4`] |
//! | Fig. 1 (framework flow) | [`fig1`] |
//! | Fig. 2 (problem description) | [`fig2`] |
//! | Fig. 3 (system prompt template) | [`fig3`] |
//! | Fig. 4 (feedback session example) | [`fig4`] |

#![warn(missing_docs)]

use picbench_core::{
    collect_error_histogram, render_table, restriction_ablation, run_sample, Campaign,
    CampaignConfig, CampaignEvent, CampaignReport, EvalStore, Evaluator, LoopConfig,
};
use picbench_netlist::{FailureType, PortRef};
use picbench_prompt::{render_system_prompt, syntax_feedback, SystemPromptConfig};
use picbench_sim::WavelengthGrid;
use picbench_synthllm::{ModelProfile, SyntheticLlm};
use std::fmt::Write as _;

/// Campaign scale knobs for the table reproductions.
#[derive(Debug, Clone)]
pub struct ReproScale {
    /// Samples per problem (paper: 5).
    pub samples: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign worker threads (0 = one per available core). The report
    /// is bit-identical for every thread count.
    pub threads: usize,
    /// Restrict Monte-Carlo artifacts to these built-in problem ids
    /// (`None` = the full built-in suite, as in the paper).
    pub problems: Option<Vec<String>>,
    /// Directory of a persistent [`EvalStore`]: campaigns journal
    /// completed cells through it and use it as the disk tier under the
    /// evaluation cache (`None` = fully in-memory).
    pub store_dir: Option<std::path::PathBuf>,
    /// Resume from the journal in `store_dir`: cells completed by a
    /// previous identically-configured run are replayed instead of
    /// re-evaluated. No effect without `store_dir`.
    pub resume: bool,
    /// Above 1, the Monte-Carlo campaigns run sharded: the cell matrix
    /// is partitioned over this many supervised in-process workers,
    /// each journalling through its own lease-fenced directory, and the
    /// tables are merged deterministically — bit-identical for every
    /// shard count. Journals land under `store_dir/shards` when a store
    /// directory is set, else in a temporary directory.
    pub shards: u32,
    /// Emit every [`CampaignEvent`] to stderr as a canonical NDJSON
    /// wire line (the exact bytes `picbench-server` streams over
    /// `GET /v1/campaigns/{id}/events`), one line per event. Stdout
    /// stays reserved for the artifact text.
    pub events_ndjson: bool,
}

impl Default for ReproScale {
    fn default() -> Self {
        ReproScale {
            samples: 5,
            seed: 20_250_205,
            threads: 0,
            problems: None,
            store_dir: None,
            resume: false,
            shards: 0,
            events_ndjson: false,
        }
    }
}

/// An observer that prints each event's canonical NDJSON wire line to
/// stderr (`eprintln!` holds the stderr lock per line, so lines stay
/// whole even from parallel campaign workers).
pub fn ndjson_stderr_observer() -> std::sync::Arc<dyn picbench_core::CampaignObserver> {
    std::sync::Arc::new(|event: &CampaignEvent| {
        eprintln!("{}", picbench_server::wire::encode_event(event));
    })
}

/// Resolves the scale's problem selection against the built-in suite.
///
/// # Errors
///
/// Returns the first unknown or repeated id, so the CLI can fail with a
/// usable message instead of silently shrinking (or double-weighting)
/// the matrix.
pub fn resolve_problems(scale: &ReproScale) -> Result<Vec<picbench_problems::Problem>, String> {
    match &scale.problems {
        None => Ok(picbench_problems::suite()),
        Some(ids) => {
            let mut seen = std::collections::HashSet::new();
            ids.iter()
                .map(|id| {
                    if !seen.insert(id.as_str()) {
                        return Err(format!(
                            "problem id {id:?} listed more than once in --problems"
                        ));
                    }
                    picbench_problems::find(id)
                        .ok_or_else(|| format!("unknown problem id {id:?} (see --list-problems)"))
                })
                .collect()
        }
    }
}

/// Renders the built-in problem inventory — id, display name, category
/// and golden size — for `repro --list-problems`.
pub fn list_problems() -> String {
    let problems = picbench_problems::suite();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:<22} {:>9}",
        "Id", "Name", "Category", "Instances"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for p in &problems {
        let _ = writeln!(
            out,
            "{:<18} {:<22} {:<22} {:>9}",
            p.id,
            p.name,
            p.category.to_string(),
            p.golden_instance_count()
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(74));
    let _ = writeln!(out, "Total: {} problems", problems.len());
    out
}

/// The `generated_by` value of a bench report, as a JSON string: the
/// `cargo run` command of `bin` with the arguments this process was
/// started with, so a report names the flags that wrote it.
pub fn generated_by(bin: &str) -> String {
    let mut command = format!("cargo run --release -p picbench-bench --bin {bin}");
    let mut args = std::env::args_os().skip(1).peekable();
    if args.peek().is_some() {
        command.push_str(" --");
        for arg in args {
            command.push(' ');
            command.push_str(&arg.to_string_lossy());
        }
    }
    picbench_netlist::json::to_string(&picbench_netlist::json::Value::String(command))
}

/// Regenerates Table I: the 24-problem inventory with categories, golden
/// design sizes and port counts. Every golden design is elaborated and
/// simulated at one wavelength before printing, so the table doubles as a
/// health check.
pub fn table1() -> String {
    let problems = picbench_problems::suite();
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(out, "TABLE I: Benchmark Description (24 problems)");
    let _ = writeln!(
        out,
        "{:<22} {:<22} {:>9} {:>7} {:>8}",
        "Design", "Category", "Instances", "Inputs", "Outputs"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    let mut current_category = None;
    for p in &problems {
        // Simulating the golden guarantees the row describes a live design.
        let _ = evaluator.golden_response_arc(p);
        if current_category != Some(p.category) {
            let _ = writeln!(out, "--- {} ---", p.category);
            current_category = Some(p.category);
        }
        let _ = writeln!(
            out,
            "{:<22} {:<22} {:>9} {:>7} {:>8}",
            p.name,
            p.category.to_string(),
            p.golden_instance_count(),
            p.spec.inputs,
            p.spec.outputs
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(out, "Total: {} problems", problems.len());
    out
}

/// Regenerates Table II: the failure taxonomy with restriction texts.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE II: Restrictions for the PIC design task (failure types and constraints)"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for failure in FailureType::ALL {
        let _ = writeln!(out, "Failure type: {}", failure.label());
        let restriction = failure.restriction();
        if restriction.is_empty() {
            let _ = writeln!(out, "Restriction : (none)");
        } else {
            let _ = writeln!(out, "Restriction : {restriction}");
        }
        let _ = writeln!(out, "{}", "-".repeat(78));
    }
    out
}

fn campaign(restrictions: bool, scale: &ReproScale) -> Result<CampaignReport, String> {
    let profiles = ModelProfile::all_paper_models();
    let problems = resolve_problems(scale)?;
    let config = CampaignConfig {
        samples_per_problem: scale.samples,
        k_values: vec![1, scale.samples],
        feedback_iters: vec![0, 1, 3],
        restrictions,
        seed: scale.seed,
        grid: WavelengthGrid::paper_fast(),
        threads: scale.threads,
        ..CampaignConfig::default()
    };
    let mut builder = Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config);
    if scale.events_ndjson {
        builder = builder.observer(ndjson_stderr_observer());
    }
    if let Some(dir) = &scale.store_dir {
        let store = EvalStore::open(dir)
            .map_err(|e| format!("cannot open eval store at {}: {e}", dir.display()))?;
        let store = std::sync::Arc::new(store);
        builder = if scale.resume {
            builder.resume_from(store)
        } else {
            builder.store(store)
        };
    }
    // Sharded execution supersedes the in-process engine (and its store
    // journalling): each worker journals through its own lease-fenced
    // shard directory instead, and an interrupted run resumes from those
    // journals when pointed at the same directory again.
    let mut ephemeral_shard_dir = None;
    if scale.shards > 1 {
        let dir = match &scale.store_dir {
            Some(store_dir) => store_dir.join("shards"),
            None => {
                static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "picbench-repro-shards-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                ));
                ephemeral_shard_dir = Some(dir.clone());
                dir
            }
        };
        builder = builder.shards(scale.shards).shard_dir(dir);
    }
    let session = builder.build().map_err(|e| e.to_string())?;
    let report = session.run();
    if let Some(dir) = ephemeral_shard_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Regenerates Table III: Pass@1/Pass@n syntax and functionality for the
/// five model profiles at 0/1/3 feedback iterations, restrictions OFF.
///
/// # Errors
///
/// Returns a message naming the first unknown id in `scale.problems`.
pub fn table3(scale: &ReproScale) -> Result<String, String> {
    Ok(render_table(
        &campaign(false, scale)?,
        "TABLE III: Syntax and Functionality evaluation (without restrictions)",
    ))
}

/// Regenerates Table IV: the same matrix with the Table II restrictions
/// in the system prompt.
///
/// # Errors
///
/// Returns a message naming the first unknown id in `scale.problems`.
pub fn table4(scale: &ReproScale) -> Result<String, String> {
    Ok(render_table(
        &campaign(true, scale)?,
        "TABLE IV: Syntax and Functionality evaluation (with restrictions)",
    ))
}

/// Regenerates Fig. 1 as an annotated end-to-end trace of the framework
/// flow: generation → syntax check → classification → feedback →
/// re-generation → functionality check.
pub fn fig1() -> String {
    let problem = picbench_problems::find("clements-4x4").expect("problem exists");
    let mut evaluator = Evaluator::default();
    let golden = evaluator.golden(&problem).expect("golden simulates");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 1: PICBench framework flow (live trace)");
    let _ = writeln!(out, "Problem: {} ({})", problem.name, problem.id);

    // Find a sample whose trajectory exercises the feedback loop and ends
    // in a pass — the canonical Fig. 1 story.
    let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 7);
    for sample in 0..200 {
        let result = run_sample(
            &mut llm,
            &problem,
            &golden,
            &mut evaluator,
            LoopConfig {
                max_feedback_iters: 3,
                restrictions: true,
            },
            sample,
        );
        if result.feedback_rounds_used() >= 1 && result.functional_pass() {
            for attempt in &result.attempts {
                let _ = writeln!(out, "\n--- Iter {} ---", attempt.iteration);
                match (&attempt.report.syntax, attempt.report.functional) {
                    (Err(issues), _) => {
                        let _ = writeln!(out, "Syntax valid? NO");
                        for issue in issues {
                            let _ = writeln!(out, "  classified: {issue}");
                        }
                        let _ = writeln!(out, "  -> error feedback loop engaged");
                    }
                    (Ok(()), Some(false)) => {
                        let _ = writeln!(out, "Syntax valid? YES");
                        let _ = writeln!(out, "Consistent with golden? NO");
                        let _ = writeln!(out, "  -> functional feedback sent");
                    }
                    (Ok(()), _) => {
                        let _ = writeln!(out, "Syntax valid? YES");
                        let _ = writeln!(out, "Consistent with golden? YES  => PASS");
                    }
                }
            }
            let _ = writeln!(
                out,
                "\nSample {} of model {} passed after {} feedback round(s).",
                sample,
                result.model,
                result.feedback_rounds_used()
            );
            return out;
        }
    }
    let _ = writeln!(out, "(no multi-round passing trace found — unexpected)");
    out
}

/// Regenerates Fig. 2: the example problem description (`MZI ps`).
pub fn fig2() -> String {
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");
    format!(
        "FIG. 2: Example of problem description\n\nProblem Description ({}):\n{}\n",
        problem.name, problem.description
    )
}

/// Regenerates Fig. 3: the system prompt template (with restrictions).
pub fn fig3() -> String {
    let models = picbench_sparams::builtin_models();
    let infos: Vec<_> = models.iter().map(|m| m.info().clone()).collect();
    let prompt = render_system_prompt(
        infos.iter(),
        SystemPromptConfig {
            include_restrictions: true,
        },
    );
    format!("FIG. 3: System prompt template for code generation\n\n{prompt}\n")
}

/// Regenerates Fig. 4: the `MZI ps` feedback session — the initial
/// response wires `phaseShifter,O1` to the non-existent `mmi2,I2`, the
/// evaluator classifies the Wrong-ports error with the exact message from
/// the figure, and the corrected netlist passes.
pub fn fig4() -> String {
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");
    let mut evaluator = Evaluator::default();
    let golden = evaluator.golden(&problem).expect("golden simulates");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 4: Solving MZI ps with correction feedback\n");

    // Iter 0: the figure's faulty netlist (connects to mmi2,I2).
    let mut faulty = problem.golden.clone();
    faulty.connections[1].b = PortRef::new("mmi2", "I2");
    let faulty_text = format!("<result>\n{}\n</result>", faulty.to_json_string());
    let report = evaluator.evaluate_response(&problem, &golden, &faulty_text);
    let _ = writeln!(out, "Iter 0: LLM initial response and evaluation");
    let _ = writeln!(out, "{}\n", faulty.to_json_string());
    let _ = writeln!(out, "Evaluation: Syntax Error");
    let _ = writeln!(out, "Evaluation information:");
    let _ = writeln!(out, "{}", syntax_feedback(&problem.id, report.issues()));

    // Iter 1: the corrected response (the golden design).
    let fixed_text = format!("<result>\n{}\n</result>", problem.golden.to_json_string());
    let report = evaluator.evaluate_response(&problem, &golden, &fixed_text);
    let _ = writeln!(out, "\nIter 1: Correction feedback applied");
    let _ = writeln!(out, "{}\n", problem.golden.to_json_string());
    let _ = writeln!(
        out,
        "Evaluation: {}",
        if report.functional_pass() {
            "PASS"
        } else {
            "FAIL (unexpected)"
        }
    );
    out
}

/// Extension experiment: the failure-category histogram per model — the
/// measurement behind the paper's error-classification loop (§III-D).
/// Shows which Table II categories each model actually commits, with and
/// without restrictions.
pub fn error_histograms(scale: &ReproScale) -> Result<String, String> {
    let problems = resolve_problems(scale)?;
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXT-1: Classified failure-category incidence per model \
         (first attempts, {} samples/problem)",
        scale.samples
    );
    for restrictions in [false, true] {
        let _ = writeln!(
            out,
            "\n=== restrictions {} ===",
            if restrictions { "ON" } else { "OFF" }
        );
        for profile in ModelProfile::all_paper_models() {
            let histogram = collect_error_histogram(
                &profile,
                &problems,
                &mut evaluator,
                scale.samples as u64,
                restrictions,
                scale.seed,
            );
            let _ = writeln!(
                out,
                "\n{} — {}/{} first attempts failed syntax:",
                histogram.model, histogram.failing_attempts, histogram.attempts
            );
            for (category, count) in histogram.ranked() {
                let _ = writeln!(out, "  {:>4}  {}", count, category.label());
            }
        }
    }
    Ok(out)
}

/// Extension experiment: leave-one-out restriction ablation — how much
/// syntax Pass@1 drops when each single Table II restriction is removed
/// from the system prompt.
pub fn restriction_ablation_table(scale: &ReproScale) -> Result<String, String> {
    let problems = resolve_problems(scale)?;
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXT-2: Leave-one-out restriction ablation ({} samples/problem)",
        scale.samples
    );
    for profile in [ModelProfile::gemini15_pro(), ModelProfile::gpt4o()] {
        let rows = restriction_ablation(
            &profile,
            &problems,
            &mut evaluator,
            scale.samples as u64,
            scale.seed,
        );
        let baseline = rows[0].syntax_pass1;
        let _ = writeln!(
            out,
            "\nModel: {} (full set: {:.2}% syntax Pass@1)",
            profile.name, baseline
        );
        let _ = writeln!(
            out,
            "{:<45} {:>8} {:>8}",
            "removed restriction", "Pass@1", "delta"
        );
        for row in rows.iter().skip(1) {
            let label = row.removed.map(|f| f.label()).unwrap_or("(none)");
            let _ = writeln!(
                out,
                "{:<45} {:>7.2}% {:>+7.2}",
                label,
                row.syntax_pass1,
                row.syntax_pass1 - baseline
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_by_is_a_json_cargo_command() {
        let rendered = generated_by("sweep_bench");
        let command = picbench_netlist::json::parse(&rendered).unwrap();
        assert!(command
            .as_str()
            .unwrap()
            .starts_with("cargo run --release -p picbench-bench --bin sweep_bench"));
    }

    #[test]
    fn list_problems_covers_the_registry() {
        let listing = list_problems();
        assert!(listing.contains("mzi-ps"));
        assert!(listing.contains("spankebenes-8x8"));
        assert!(listing.contains("Total: "));
    }

    #[test]
    fn resolve_problems_filters_and_rejects_unknown_ids() {
        let all = resolve_problems(&ReproScale::default()).unwrap();
        assert_eq!(all.len(), 24);
        let filtered = resolve_problems(&ReproScale {
            problems: Some(vec!["mzm".to_string(), "mzi-ps".to_string()]),
            ..ReproScale::default()
        })
        .unwrap();
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered[0].id, "mzm");
        assert_eq!(filtered[1].id, "mzi-ps");
        let err = resolve_problems(&ReproScale {
            problems: Some(vec!["warp-core".to_string()]),
            ..ReproScale::default()
        })
        .unwrap_err();
        assert!(err.contains("warp-core"));
        // Repeated ids would double-weight Pass@k and silently collapse
        // in the id-keyed tallies — rejected up front instead.
        let err = resolve_problems(&ReproScale {
            problems: Some(vec!["mzm".to_string(), "mzm".to_string()]),
            ..ReproScale::default()
        })
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn filtered_table3_runs_on_the_selected_problems_only() {
        let scale = ReproScale {
            samples: 1,
            problems: Some(vec!["mzi-ps".to_string()]),
            ..ReproScale::default()
        };
        let table = table3(&scale).unwrap();
        assert!(table.contains("TABLE III"));
        assert!(table.contains("GPT-4"));
        let err = table3(&ReproScale {
            problems: Some(vec!["warp-core".to_string()]),
            ..scale
        })
        .unwrap_err();
        assert!(err.contains("warp-core"));
    }

    #[test]
    fn sharded_table3_is_bit_identical_to_single_process() {
        let scale = ReproScale {
            samples: 1,
            problems: Some(vec!["mzi-ps".to_string()]),
            ..ReproScale::default()
        };
        let single = table3(&scale).unwrap();
        let sharded = table3(&ReproScale { shards: 3, ..scale }).unwrap();
        assert_eq!(single, sharded);
    }

    #[test]
    fn table1_lists_all_24() {
        let t = table1();
        assert!(t.contains("Total: 24 problems"));
        assert!(t.contains("Clements 4x4"));
        assert!(t.contains("Spanke-Benes 8x8"));
        assert!(t.contains("MZI ps"));
    }

    #[test]
    fn table2_lists_all_categories() {
        let t = table2();
        for f in FailureType::ALL {
            assert!(t.contains(f.label()), "missing {}", f.label());
        }
    }

    #[test]
    fn fig2_is_the_mzi_ps_brief() {
        let f = fig2();
        assert!(f.contains("Mach-Zehnder interferometer"));
        assert!(f.contains("Parameters:"));
    }

    #[test]
    fn fig3_contains_prompt_sections() {
        let f = fig3();
        assert!(f.contains("<<<JSON format>>>"));
        assert!(f.contains("<<<API document>>>"));
        assert!(f.contains("Restrictions"));
    }

    #[test]
    fn fig4_reproduces_the_wrong_ports_error() {
        let f = fig4();
        assert!(f.contains("Wrong ports error"));
        assert!(f.contains("Instance mmi2 does not contain port I2"));
        assert!(f.contains("Evaluation: PASS"));
    }
}
