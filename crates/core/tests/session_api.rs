//! Integration tests of the session-oriented campaign API: provider
//! fan-out vs the profile path, streaming events, cooperative
//! cancellation, and resilience providers.

use picbench_core::{Campaign, CampaignBuildError, CampaignConfig, CampaignEvent, CancelToken};
use picbench_problems::Problem;
use picbench_synthllm::{FlakyProvider, ModelProfile, ModelProvider, ReplayLlm};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

fn problems() -> Vec<Problem> {
    ["mzi-ps", "mzm", "umatrix", "direct-modulator"]
        .iter()
        .map(|id| picbench_problems::find(id).unwrap())
        .collect()
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        samples_per_problem: 3,
        k_values: vec![1, 3],
        feedback_iters: vec![0, 1],
        seed: 77,
        threads,
        ..CampaignConfig::default()
    }
}

#[test]
fn provider_campaign_is_bit_identical_to_profile_path_across_threads() {
    let profiles = vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()];
    let reference = Campaign::builder()
        .problems(problems())
        .profiles(&profiles)
        .config(config(1))
        .build()
        .unwrap()
        .run();
    for threads in [1, 2, 5] {
        let session = Campaign::builder()
            .problems(problems())
            .providers(
                profiles
                    .iter()
                    .map(|p| Arc::new(p.clone()) as Arc<dyn ModelProvider>),
            )
            .config(config(threads))
            .build()
            .unwrap()
            .run();
        assert!(
            reference.same_results(&session),
            "dyn ModelProvider path diverged from the profile path at {threads} threads"
        );
        // Bit-identical, not approximately equal: the score rows match
        // exactly, f64 bits included.
        for (a, b) in reference.cells.iter().zip(&session.cells) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn observer_sees_one_cell_finished_per_cell_and_a_well_formed_stream() {
    let (tx, rx) = mpsc::channel();
    let problems = problems();
    let campaign = Campaign::builder()
        .problems(problems.clone())
        .profiles(&[ModelProfile::gpt4o()])
        .config(config(3))
        .observer(Arc::new(move |event: &CampaignEvent| {
            let _ = tx.send(event.clone());
        }))
        .build()
        .unwrap();
    let report = campaign.run();
    let events: Vec<CampaignEvent> = rx.try_iter().collect();

    // 4 problems × 1 model × 2 feedback settings.
    let expected_cells = 8;
    assert_eq!(report.conditions.len(), 2);
    assert!(matches!(
        events.first(),
        Some(CampaignEvent::CampaignStarted {
            problems: 4,
            providers: 1,
            cells: 8,
        })
    ));
    let started = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::CellStarted { .. }))
        .count();
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::CellFinished {
                problem_id,
                model,
                feedback_iters,
                tally,
                ..
            } => Some((problem_id.clone(), model.clone(), *feedback_iters, *tally)),
            _ => None,
        })
        .collect();
    assert_eq!(started, expected_cells);
    assert_eq!(finished.len(), expected_cells, "one CellFinished per cell");
    // Every (problem × model × feedback) combination appears exactly once,
    // and its streamed tally matches the aggregated report.
    for problem in &problems {
        for &ef in &[0usize, 1] {
            let matches: Vec<_> = finished
                .iter()
                .filter(|(pid, model, f, _)| pid == &problem.id && model == "GPT-4o" && *f == ef)
                .collect();
            assert_eq!(matches.len(), 1, "{} ef={ef}", problem.id);
            let condition = report
                .conditions
                .iter()
                .find(|c| c.feedback_iters == ef)
                .unwrap();
            assert_eq!(condition.tallies[&problem.id], matches[0].3);
        }
    }
    assert!(events
        .iter()
        .any(|e| matches!(e, CampaignEvent::CacheStats(_))));
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignFinished {
            cells_completed: 8,
            cells_total: 8,
            cancelled: false,
        })
    ));
}

#[test]
fn cancel_token_leaves_a_well_formed_partial_event_stream() {
    let token = CancelToken::new();
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let cancel_after = 3usize;
    let trigger = token.clone();
    let campaign = Campaign::builder()
        .problems(problems())
        .profiles(&[ModelProfile::gpt4(), ModelProfile::gemini15_pro()])
        .config(CampaignConfig {
            threads: 1, // deterministic cell order, so the cut is exact
            ..config(1)
        })
        .observer(Arc::new(move |event: &CampaignEvent| {
            let mut events = sink.lock().unwrap();
            events.push(event.clone());
            let finished = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::CellFinished { .. }))
                .count();
            if finished >= cancel_after {
                trigger.cancel();
            }
        }))
        .cancel_token(token.clone())
        .build()
        .unwrap();

    let outcome = campaign.execute();
    assert!(outcome.cancelled);
    assert!(outcome.report.is_none());
    assert_eq!(outcome.cells_total, 16);
    assert_eq!(outcome.cells_completed, cancel_after);

    let events = events.lock().unwrap();
    // Well-formed partial stream: CampaignStarted first, every started
    // cell also finished (cancellation only cuts at cell boundaries), and
    // a cancelled CampaignFinished closes the stream.
    assert!(matches!(
        events.first(),
        Some(CampaignEvent::CampaignStarted { .. })
    ));
    let started = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::CellStarted { .. }))
        .count();
    let finished = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::CellFinished { .. }))
        .count();
    assert_eq!(started, cancel_after);
    assert_eq!(finished, cancel_after);
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignFinished {
            cells_completed,
            cells_total: 16,
            cancelled: true,
        }) if *cells_completed == cancel_after
    ));
}

#[test]
fn pre_cancelled_campaign_completes_no_cells() {
    let token = CancelToken::new();
    token.cancel();
    let outcome = Campaign::builder()
        .problems(problems())
        .profiles(&[ModelProfile::gpt4()])
        .config(config(2))
        .cancel_token(token)
        .build()
        .unwrap()
        .execute();
    assert!(outcome.cancelled);
    assert_eq!(outcome.cells_completed, 0);
    assert!(outcome.report.is_none());
}

#[test]
fn builder_validates_degenerate_matrices() {
    assert_eq!(
        Campaign::builder()
            .profiles(&[ModelProfile::gpt4()])
            .build()
            .unwrap_err(),
        CampaignBuildError::NoProblems
    );
    assert_eq!(
        Campaign::builder()
            .problems(problems())
            .build()
            .unwrap_err(),
        CampaignBuildError::NoProviders
    );
    assert_eq!(
        Campaign::builder()
            .problems(problems())
            .profiles(&[ModelProfile::gpt4()])
            .k_values([])
            .build()
            .unwrap_err(),
        CampaignBuildError::NoKValues
    );
    assert_eq!(
        Campaign::builder()
            .problems(problems())
            .profiles(&[ModelProfile::gpt4()])
            .feedback_iters([])
            .build()
            .unwrap_err(),
        CampaignBuildError::NoFeedbackSettings
    );
    // Cells are keyed by their feedback setting, so a repeat would make
    // two cells share one journal key.
    assert_eq!(
        Campaign::builder()
            .problems(problems())
            .profiles(&[ModelProfile::gpt4()])
            .feedback_iters([0, 1, 0])
            .build()
            .unwrap_err(),
        CampaignBuildError::DuplicateFeedbackSetting(0)
    );
    assert_eq!(
        Campaign::builder()
            .problems(problems())
            .profiles(&[ModelProfile::gpt4()])
            .samples_per_problem(0)
            .build()
            .unwrap_err(),
        CampaignBuildError::ZeroSamples
    );
    // Pass@k needs 1 <= k <= n; a bad k is refused before any cell runs.
    for (k_values, k) in [(vec![0, 1], 0), (vec![1, 5], 5)] {
        assert_eq!(
            Campaign::builder()
                .problems(problems())
                .profiles(&[ModelProfile::gpt4()])
                .samples_per_problem(2)
                .k_values(k_values)
                .build()
                .unwrap_err(),
            CampaignBuildError::KOutOfRange { k, samples: 2 }
        );
    }
    let duplicated = [problems(), problems()].concat();
    assert!(matches!(
        Campaign::builder()
            .problems(duplicated)
            .profiles(&[ModelProfile::gpt4()])
            .build()
            .unwrap_err(),
        CampaignBuildError::DuplicateProblemId(_)
    ));
    assert!(matches!(
        Campaign::builder()
            .problems(problems())
            .profiles(&[ModelProfile::gpt4(), ModelProfile::gpt4()])
            .build()
            .unwrap_err(),
        CampaignBuildError::DuplicateProviderName(_)
    ));
}

#[test]
fn replay_provider_drives_a_deterministic_campaign() {
    let problem = picbench_problems::find("mzi-ps").unwrap();
    let golden_response = format!(
        "<analysis>recorded run</analysis>\n<result>\n{}\n</result>",
        problem.golden.to_json_string()
    );
    let mut replay = ReplayLlm::new("Recorded API model");
    for sample in 0..2 {
        replay = replay.with_response(problem.id.clone(), sample, golden_response.clone());
    }
    let campaign = Campaign::builder()
        .problem(problem)
        .provider(Arc::new(replay))
        .samples_per_problem(2)
        .k_values([1])
        .feedback_iters([0])
        .build()
        .unwrap();
    let a = campaign.run();
    let b = campaign.run();
    assert!(a.same_results(&b));
    let cell = a.cell("Recorded API model", 0, 1).unwrap();
    assert_eq!(cell.syntax, 100.0);
    assert_eq!(cell.functional, 100.0);
}

#[test]
fn flaky_provider_degrades_scores_but_keeps_the_campaign_deterministic() {
    let problems = problems();
    let steady: Arc<dyn ModelProvider> = Arc::new(ModelProfile::claude35_sonnet());
    // Fail every second response: first attempts alternate between real
    // generations and rate-limit noise, so syntax scores must drop.
    let flaky: Arc<dyn ModelProvider> = Arc::new(FlakyProvider::new(Arc::clone(&steady), 2));
    let run = |provider: &Arc<dyn ModelProvider>, threads: usize| {
        Campaign::builder()
            .problems(problems.clone())
            .provider(Arc::clone(provider))
            .config(config(threads))
            .build()
            .unwrap()
            .run()
    };
    let steady_report = run(&steady, 2);
    let flaky_report = run(&flaky, 2);
    assert!(flaky_report.same_results(&run(&flaky, 1)));
    let steady_cell = steady_report.cell("Claude 3.5 Sonnet", 0, 1).unwrap();
    let flaky_cell = flaky_report
        .cell("Claude 3.5 Sonnet [flaky]", 0, 1)
        .unwrap();
    assert!(
        flaky_cell.syntax < steady_cell.syntax,
        "injected rate-limit responses must cost syntax passes: {} vs {}",
        flaky_cell.syntax,
        steady_cell.syntax
    );
}
