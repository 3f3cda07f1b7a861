//! Cross-crate integration: golden designs on both solver paths (the
//! planned production solver and the dense oracle), the perfect model
//! through the full framework, and campaign determinism.

use picbench::conformance::SolverPath;
use picbench::core::{
    pass_at_k, run_sample, Campaign, CampaignConfig, CampaignReport, Evaluator, LoopConfig,
};
use picbench::problems::Problem;
use picbench::sim::{Circuit, ModelRegistry, WavelengthGrid};
use picbench::synthllm::{ModelProfile, PerfectLlm};

fn run_matrix(
    profiles: &[ModelProfile],
    problems: &[Problem],
    config: &CampaignConfig,
) -> CampaignReport {
    Campaign::builder()
        .problems(problems.to_vec())
        .profiles(profiles)
        .config(config.clone())
        .build()
        .unwrap()
        .run()
}

#[test]
fn every_golden_design_agrees_on_both_solver_paths() {
    let registry = ModelRegistry::with_builtins();
    for problem in picbench::problems::suite() {
        let circuit = Circuit::elaborate(&problem.golden, &registry, Some(&problem.spec))
            .unwrap_or_else(|e| panic!("{} failed to elaborate: {e}", problem.id));
        for wl in [1.51, 1.54, 1.55, 1.57, 1.59] {
            let a = SolverPath::Planned
                .evaluate(&circuit, wl)
                .unwrap_or_else(|e| panic!("{}: planned solve failed: {e}", problem.id));
            let b = SolverPath::Oracle
                .evaluate(&circuit, wl)
                .unwrap_or_else(|e| panic!("{}: dense oracle failed: {e}", problem.id));
            let diff = a.max_abs_diff(&b);
            assert!(
                diff < 1e-8,
                "{} at {wl} um: solver paths disagree by {diff:.2e}",
                problem.id
            );
        }
    }
}

#[test]
fn golden_designs_are_passive_and_finite() {
    let registry = ModelRegistry::with_builtins();
    for problem in picbench::problems::suite() {
        let circuit = Circuit::elaborate(&problem.golden, &registry, None).unwrap();
        for wl in [1.52, 1.55, 1.58] {
            let s = SolverPath::Planned.evaluate(&circuit, wl).unwrap();
            assert!(
                s.is_passive(1e-6),
                "{} has gain at {wl} um — unphysical",
                problem.id
            );
        }
    }
}

#[test]
fn oracle_achieves_perfect_pass_at_k() {
    let mut oracle = PerfectLlm::new();
    let mut evaluator = Evaluator::default();
    let mut syntax = 0usize;
    let mut func = 0usize;
    let problems = picbench::problems::suite();
    for problem in &problems {
        let golden = evaluator.golden(problem).expect("golden simulates");
        let result = run_sample(
            &mut oracle,
            problem,
            &golden,
            &mut evaluator,
            LoopConfig::default(),
            0,
        );
        syntax += usize::from(result.syntax_pass());
        func += usize::from(result.functional_pass());
    }
    assert_eq!(syntax, problems.len());
    assert_eq!(func, problems.len());
    assert_eq!(pass_at_k(problems.len(), func, 1), 1.0);
}

#[test]
fn campaigns_are_reproducible_across_thread_counts() {
    let profiles = vec![ModelProfile::gpt4o()];
    let problems: Vec<_> = picbench::problems::suite()
        .into_iter()
        .filter(|p| {
            matches!(
                p.id.as_str(),
                "mzi-ps" | "umatrix" | "benes-4x4" | "wdm-mux"
            )
        })
        .collect();
    let base = CampaignConfig {
        samples_per_problem: 4,
        k_values: vec![1, 4],
        feedback_iters: vec![0, 1],
        restrictions: true,
        seed: 321,
        grid: WavelengthGrid::paper_fast(),
        threads: 1,
        ..CampaignConfig::default()
    };
    let single = run_matrix(&profiles, &problems, &base);
    let multi = run_matrix(
        &profiles,
        &problems,
        &CampaignConfig {
            threads: 4,
            ..base.clone()
        },
    );
    for cell in &single.cells {
        let other = multi
            .cell(&cell.model, cell.feedback_iters, cell.k)
            .expect("cell exists");
        assert_eq!(cell.syntax, other.syntax, "thread count changed results");
        assert_eq!(cell.functional, other.functional);
    }
}

#[test]
fn restrictions_improve_restricted_models() {
    // Gemini-profile is the restriction-sensitive one in the paper; its
    // syntax Pass@1 must improve markedly when restrictions are added.
    let profiles = vec![ModelProfile::gemini15_pro()];
    let problems: Vec<_> = picbench::problems::suite()
        .into_iter()
        .filter(|p| {
            matches!(
                p.id.as_str(),
                "mzi-ps" | "mzm" | "os-2x2" | "umatrix" | "direct-modulator" | "wdm-demux"
            )
        })
        .collect();
    let mut scores = [0.0f64; 2];
    for (slot, restrictions) in [(0usize, false), (1, true)] {
        let config = CampaignConfig {
            samples_per_problem: 10,
            k_values: vec![1],
            feedback_iters: vec![0],
            restrictions,
            seed: 11,
            grid: WavelengthGrid::paper_fast(),
            threads: 0,
            ..CampaignConfig::default()
        };
        let report = run_matrix(&profiles, &problems, &config);
        scores[slot] = report.cell("Gemini 1.5 pro", 0, 1).unwrap().syntax;
    }
    assert!(
        scores[1] > scores[0] + 15.0,
        "restrictions should lift Gemini-profile sharply: {:.1} -> {:.1}",
        scores[0],
        scores[1]
    );
}
