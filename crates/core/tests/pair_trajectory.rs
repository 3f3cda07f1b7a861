//! One feedback trajectory per `(problem, model)` pair: every feedback
//! setting of a pair reads its verdict off one loop run at the
//! campaign's largest budget.
//!
//! * the settings `[0, 1, 3]` cost exactly the model calls of `[3]`
//!   alone, and each setting scores exactly like a campaign of that one
//!   setting, in any listed order;
//! * a journalled campaign cut after any cell — also between two cells
//!   of one pair — resumes to the uninterrupted report, for a stateful
//!   (periodically failing) provider too, at 1 and 2 threads.

use picbench_core::{
    Campaign, CampaignConfig, CampaignEvent, CampaignObserver, CampaignReport, CancelToken,
    EvalStore, SharedEvalStore,
};
use picbench_problems::Problem;
use picbench_prompt::Conversation;
use picbench_synthllm::{
    FailureKind, FlakyProvider, FlakySchedule, LanguageModel, ModelProfile, ModelProvider,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn problems() -> Vec<Problem> {
    ["mzi-ps", "mzm", "umatrix", "clements-4x4"]
        .iter()
        .map(|id| picbench_problems::find(id).unwrap())
        .collect()
}

fn config(feedback_iters: &[usize]) -> CampaignConfig {
    CampaignConfig {
        samples_per_problem: 3,
        k_values: vec![1, 3],
        feedback_iters: feedback_iters.to_vec(),
        seed: 41,
        threads: 2,
        ..CampaignConfig::default()
    }
}

/// A provider that counts every `respond` call of the models it spawns.
struct Counting {
    inner: ModelProfile,
    calls: Arc<AtomicUsize>,
}

struct CountingLlm {
    inner: Box<dyn LanguageModel>,
    calls: Arc<AtomicUsize>,
}

impl LanguageModel for CountingLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.inner.begin_sample(problem, sample_index);
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.respond(conversation)
    }
}

impl ModelProvider for Counting {
    fn name(&self) -> &str {
        ModelProvider::name(&self.inner)
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        self.spawn_seeded(picbench_synthllm::PAPER_SEED)
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        Box::new(CountingLlm {
            inner: self.inner.spawn_seeded(seed),
            calls: Arc::clone(&self.calls),
        })
    }
}

/// Runs a GPT-4 campaign over `feedback_iters`; returns the report and
/// the number of model calls it made.
fn counted_run(feedback_iters: &[usize]) -> (CampaignReport, usize) {
    let calls = Arc::new(AtomicUsize::new(0));
    let report = Campaign::builder()
        .problems(problems())
        .provider(Arc::new(Counting {
            inner: ModelProfile::gpt4(),
            calls: Arc::clone(&calls),
        }))
        .config(config(feedback_iters))
        .build()
        .unwrap()
        .run();
    (report, calls.load(Ordering::Relaxed))
}

#[test]
fn feedback_settings_share_one_trajectory() {
    let (shared, shared_calls) = counted_run(&[0, 1, 3]);
    let (_, longest_calls) = counted_run(&[3]);
    assert_eq!(shared_calls, longest_calls);
    assert!(
        shared_calls > problems().len() * 3,
        "feedback must take some extra turns: {shared_calls} calls"
    );

    let (reordered, _) = counted_run(&[3, 0, 1]);
    for iters in [0, 1, 3] {
        let (alone, _) = counted_run(&[iters]);
        let tallies = |report: &CampaignReport| {
            let condition = report
                .conditions
                .iter()
                .find(|c| c.feedback_iters == iters)
                .expect("one condition per setting");
            condition.tallies.clone()
        };
        assert_eq!(tallies(&shared), tallies(&alone), "setting {iters}");
        assert_eq!(tallies(&reordered), tallies(&alone), "setting {iters}");
        for k in [1, 3] {
            assert_eq!(
                shared.cell("GPT-4", iters, k),
                alone.cell("GPT-4", iters, k),
                "setting {iters}, Pass@{k}"
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-pairs-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cancel token and an observer that cancels it on the
/// `after_cells`-th `CellFinished`, which follows that cell's journal
/// fsync.
fn stop_after(after_cells: usize) -> (CancelToken, Arc<dyn CampaignObserver>) {
    let token = CancelToken::new();
    let cancel = token.clone();
    let finished = AtomicUsize::new(0);
    let observer = Arc::new(move |event: &CampaignEvent| {
        if matches!(event, CampaignEvent::CellFinished { .. })
            && finished.fetch_add(1, Ordering::Relaxed) + 1 == after_cells
        {
            cancel.cancel();
        }
    });
    (token, observer)
}

/// Cuts a journalled campaign over `feedback_iters` after every cell
/// `k` in `1..cells`, resumes it, and checks the resumed report against
/// an uninterrupted 1-thread run. At 1 thread the cut is exact: `k`
/// cells are journalled and `k` restored.
fn cut_everywhere_then_resume(
    providers: &[Arc<dyn ModelProvider>],
    feedback_iters: &[usize],
    threads: usize,
) {
    let problems = &problems()[..2];
    let builder = || {
        Campaign::builder()
            .problems(problems.to_vec())
            .providers(providers.to_vec())
            .config(config(feedback_iters))
            .threads(threads)
    };
    let control = builder().threads(1).build().unwrap().run();
    let cells = problems.len() * providers.len() * feedback_iters.len();
    for k in 1..cells {
        let dir = temp_dir(&format!("cut-{threads}-{k}"));
        {
            let store: SharedEvalStore = Arc::new(EvalStore::open(&dir).unwrap());
            let (token, observer) = stop_after(k);
            let outcome = builder()
                .store(Arc::clone(&store))
                .cancel_token(token)
                .observer(observer)
                .build()
                .unwrap()
                .execute();
            if threads == 1 {
                assert!(outcome.cancelled, "cut {k}");
                assert_eq!(outcome.cells_completed, k, "cut {k}");
            }
            store.sync();
        }
        let outcome = builder()
            .resume_from(Arc::new(EvalStore::open(&dir).unwrap()))
            .build()
            .unwrap()
            .execute();
        if threads == 1 {
            assert_eq!(outcome.cells_restored, k, "cut {k}");
        } else {
            assert!(outcome.cells_restored >= k, "cut {k}");
        }
        let resumed = outcome.report.expect("the resumed run completes");
        assert!(
            resumed.same_results(&control),
            "{feedback_iters:?} at {threads} thread(s), cut {k}: resumed report differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn profiles() -> Vec<ModelProfile> {
    vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()]
}

#[test]
fn cuts_inside_a_pair_resume_to_the_uninterrupted_report() {
    let providers: Vec<Arc<dyn ModelProvider>> = profiles()
        .into_iter()
        .map(|profile| Arc::new(profile) as Arc<dyn ModelProvider>)
        .collect();
    cut_everywhere_then_resume(&providers, &[0, 1, 3], 1);
}

#[test]
fn a_stateful_provider_gets_one_report_on_every_schedule() {
    // Every 4th response of a model instance fails, without a retry
    // layer: the failure lands on a different turn depending on every
    // earlier call, so the model's answers depend on its call history.
    let providers: Vec<Arc<dyn ModelProvider>> = profiles()
        .into_iter()
        .map(|profile| {
            let name = ModelProvider::name(&profile).to_string();
            let schedule = FlakySchedule::Periodic {
                period: 4,
                kinds: vec![FailureKind::RateLimit, FailureKind::Garbled],
            };
            Arc::new(FlakyProvider::with_schedule(Arc::new(profile), schedule).with_name(name))
                as Arc<dyn ModelProvider>
        })
        .collect();
    // With the largest setting first, a cut can leave a pair whose
    // pending cells all have smaller budgets.
    for feedback_iters in [[0, 1, 3], [3, 0, 1]] {
        for threads in [1, 2] {
            cut_everywhere_then_resume(&providers, &feedback_iters, threads);
        }
    }
}
