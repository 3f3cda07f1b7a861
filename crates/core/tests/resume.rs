//! Crash/resume determinism and provider-resilience contracts of the
//! campaign engine:
//!
//! * a campaign killed at **any** cell boundary and resumed from its
//!   journal produces a report bit-identical to an uninterrupted run;
//! * a reopened store serves evaluation results from the disk tier
//!   (warm start) without changing any result;
//! * transient transport failures absorbed by the retry layer leave the
//!   report bit-identical to a failure-free run — zero spurious failure
//!   verdicts;
//! * a fatal failure schedule degrades into classified failures and
//!   never panics the campaign.

use picbench_core::{
    Campaign, CampaignConfig, CampaignEvent, CampaignObserver, CampaignReport, CancelToken,
    EvalStore, RetryPolicy, SharedEvalStore, TransportErrorKind,
};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_synthllm::{FailureKind, FlakyProvider, FlakySchedule, ModelProfile, ModelProvider};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-resume-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn problems() -> Vec<Problem> {
    ["mzi-ps", "mzm"]
        .iter()
        .map(|id| picbench_problems::find(id).unwrap())
        .collect()
}

fn profiles() -> Vec<ModelProfile> {
    vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()]
}

fn config() -> CampaignConfig {
    CampaignConfig {
        samples_per_problem: 2,
        k_values: vec![1, 2],
        feedback_iters: vec![0, 1],
        restrictions: false,
        seed: 77,
        grid: WavelengthGrid::paper_fast(),
        threads: 2,
        ..CampaignConfig::default()
    }
}

fn builder() -> picbench_core::CampaignBuilder {
    Campaign::builder()
        .problems(problems())
        .profiles(&profiles())
        .config(config())
}

fn control_report() -> CampaignReport {
    builder().build().unwrap().run()
}

fn open_store(dir: &PathBuf) -> SharedEvalStore {
    Arc::new(EvalStore::open(dir).expect("open eval store"))
}

/// A cancel token and an observer that cancels it on the
/// `after_cells`-th `CellFinished` (0 = cancelled before the run
/// starts). `CellFinished` follows the cell's journal fsync, so the
/// halted run leaves at least `after_cells` cells journalled.
fn stop_after(after_cells: usize) -> (CancelToken, Arc<dyn CampaignObserver>) {
    let token = CancelToken::new();
    if after_cells == 0 {
        token.cancel();
    }
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

#[test]
fn killed_at_every_cell_boundary_then_resumed_is_bit_identical() {
    let control = control_report();
    let cells = problems().len() * profiles().len() * config().feedback_iters.len();

    for boundary in 0..=cells {
        let dir = temp_dir(&format!("boundary-{boundary}"));

        // Phase 1: run until the stop at this boundary. The store
        // handle is dropped before reopening, as a crashed process's
        // would be.
        {
            let store = open_store(&dir);
            let (token, observer) = stop_after(boundary);
            let outcome = builder()
                .store(Arc::clone(&store))
                .cancel_token(token)
                .observer(observer)
                .build()
                .unwrap()
                .execute();
            // The stop guarantees at least `boundary` fresh cells were
            // journalled before the halt — racing workers may add more,
            // and near the end of the matrix they can finish the whole
            // run before the stop lands.
            assert!(
                outcome.cells_completed >= boundary,
                "boundary {boundary}: only {} cells completed",
                outcome.cells_completed
            );
            if outcome.cancelled {
                assert!(
                    boundary < cells,
                    "a stop after the last cell cannot cut the run short"
                );
                assert!(outcome.report.is_none());
            } else {
                assert!(outcome.report.expect("complete").same_results(&control));
            }
            store.sync();
        }

        // Phase 2: resume from the journal.
        let store = open_store(&dir);
        assert!(
            !store.recovery().damaged(),
            "boundary {boundary}: clean shutdown must recover clean: {:?}",
            store.recovery()
        );
        let outcome = builder().resume_from(store).build().unwrap().execute();
        assert!(!outcome.cancelled);
        assert!(
            outcome.cells_restored >= boundary.min(cells),
            "boundary {boundary}: restored only {} cells",
            outcome.cells_restored
        );
        let resumed = outcome.report.expect("resumed run completes");
        assert!(
            resumed.same_results(&control),
            "boundary {boundary}: resumed report differs from uninterrupted control"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resumed_runs_emit_cell_restored_events_with_sane_counters() {
    let dir = temp_dir("events");
    let cells = problems().len() * profiles().len() * config().feedback_iters.len();
    {
        let (token, observer) = stop_after(2);
        let outcome = builder()
            .store(open_store(&dir))
            .cancel_token(token)
            .observer(observer)
            .build()
            .unwrap()
            .execute();
        assert!(outcome.cancelled);
    }
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let outcome = builder()
        .resume_from(open_store(&dir))
        .observer(Arc::new(move |event: &CampaignEvent| {
            recorder.lock().unwrap().push(event.clone());
        }))
        .build()
        .unwrap()
        .execute();
    let events = events.lock().unwrap();
    let restored: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::CellRestored {
                completed, total, ..
            } => Some((*completed, *total)),
            _ => None,
        })
        .collect();
    assert_eq!(restored.len(), outcome.cells_restored);
    assert!(restored.len() >= 2, "at least the journalled cells replay");
    for (i, (completed, total)) in restored.iter().enumerate() {
        assert_eq!(*completed, i + 1, "restored counter is monotone");
        assert_eq!(*total, cells);
    }
    // Restored cells replay before any worker starts a fresh cell.
    let first_started = events
        .iter()
        .position(|e| matches!(e, CampaignEvent::CellStarted { .. }));
    let last_restored = events
        .iter()
        .rposition(|e| matches!(e, CampaignEvent::CellRestored { .. }));
    if let (Some(started), Some(restored)) = (first_started, last_restored) {
        assert!(restored < started, "CellRestored precedes CellStarted");
    }
    // The final CellFinished counter accounts for restored cells too.
    let final_completed = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::CellFinished { completed, .. } => Some(*completed),
            _ => None,
        })
        .max();
    assert_eq!(final_completed, Some(cells));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_serves_from_the_disk_tier_without_changing_results() {
    let dir = temp_dir("warm");
    let cold = {
        let store = open_store(&dir);
        let report = builder().store(Arc::clone(&store)).build().unwrap().run();
        store.sync();
        report
    };
    // Same campaign, fresh store handle, no resume: every cell
    // re-evaluates, but verdicts come back from the disk tier.
    let warm_report = builder().store(open_store(&dir)).build().unwrap().run();
    assert!(warm_report.same_results(&cold));
    let stats = warm_report.cache_stats.expect("cache on by default");
    assert!(
        stats.disk_hits > 0,
        "warm start must hit the disk tier: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "a warm start runs no sweep: {stats:?}");

    // With resume, the journal replays every cell outright.
    let cells = problems().len() * profiles().len() * config().feedback_iters.len();
    let outcome = builder()
        .resume_from(open_store(&dir))
        .build()
        .unwrap()
        .execute();
    assert_eq!(outcome.cells_restored, cells);
    assert!(outcome.report.expect("complete").same_results(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_disk_hits_count_each_distinct_key_once_on_any_thread_count() {
    let dir = temp_dir("warm-count");
    let cells = problems().len() * profiles().len() * config().feedback_iters.len();
    let verdicts = {
        let store = open_store(&dir);
        builder().store(Arc::clone(&store)).build().unwrap().run();
        store.sync();
        // One journal record per cell; every other write is a verdict,
        // written once per distinct response key.
        store.stats().writes - cells as u64
    };
    assert!(verdicts > 0);
    // Racing workers that miss memory on the same key both read it from
    // disk, but only the one whose insert lands counts a disk hit.
    for threads in [1, 2, 2, 2] {
        let report = builder()
            .threads(threads)
            .store(open_store(&dir))
            .build()
            .unwrap()
            .run();
        let stats = report.cache_stats.expect("cache on by default");
        assert_eq!(stats.disk_hits, verdicts, "threads {threads}: {stats:?}");
        assert_eq!(stats.misses, 0, "threads {threads}: {stats:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_complete_journal_restores_every_cell_and_writes_nothing() {
    let dir = temp_dir("complete");
    let cold = {
        let store = open_store(&dir);
        let report = builder().store(Arc::clone(&store)).build().unwrap().run();
        store.sync();
        report
    };
    // Nothing is left to evaluate, so no golden is primed, no verdict
    // is looked up or written, and no cell is journalled again.
    let store = open_store(&dir);
    let cells = problems().len() * profiles().len() * config().feedback_iters.len();
    let outcome = builder()
        .resume_from(Arc::clone(&store))
        .build()
        .unwrap()
        .execute();
    assert_eq!(outcome.cells_restored, cells);
    assert_eq!(outcome.cells_completed, cells);
    assert!(outcome.report.expect("complete").same_results(&cold));
    assert_eq!(store.stats().writes, 0, "{:?}", store.stats());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wraps every profile in a [`FlakyProvider`] with the given schedule,
/// keeping the clean display names so reports stay comparable.
fn flaky_providers(kinds: Vec<FailureKind>, period: usize) -> Vec<Arc<dyn ModelProvider>> {
    profiles()
        .into_iter()
        .map(|profile| {
            let name = ModelProvider::name(&profile).to_string();
            Arc::new(
                FlakyProvider::with_schedule(
                    Arc::new(profile),
                    FlakySchedule::Periodic {
                        period,
                        kinds: kinds.clone(),
                    },
                )
                .with_name(name),
            ) as Arc<dyn ModelProvider>
        })
        .collect()
}

#[test]
fn transient_failures_under_retry_leave_the_report_bit_identical() {
    let control = control_report();
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let report = Campaign::builder()
        .problems(problems())
        .providers(flaky_providers(
            vec![
                FailureKind::RateLimit,
                FailureKind::TransientIo,
                FailureKind::Timeout,
            ],
            3,
        ))
        .config(config())
        .retry_policy(RetryPolicy::default())
        .observer(Arc::new(move |event: &CampaignEvent| {
            if matches!(
                event,
                CampaignEvent::SampleRetried { .. } | CampaignEvent::SampleDegraded { .. }
            ) {
                recorder.lock().unwrap().push(event.clone());
            }
        }))
        .build()
        .unwrap()
        .run();

    // Zero spurious failure verdicts: the flaky run scores exactly like
    // the failure-free one.
    assert!(
        report.same_results(&control),
        "transient failures leaked into the report"
    );
    let events = events.lock().unwrap();
    let retried = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::SampleRetried { .. }))
        .count();
    let degraded = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::SampleDegraded { .. }))
        .count();
    assert!(retried > 0, "the schedule must actually inject failures");
    assert_eq!(degraded, 0, "isolated transient failures never degrade");
}

#[test]
fn fatal_failures_degrade_into_classified_failures_without_panicking() {
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let outcome = Campaign::builder()
        .problems(problems())
        .providers(flaky_providers(vec![FailureKind::Fatal], 4))
        .config(config())
        .retry_policy(RetryPolicy::default())
        .observer(Arc::new(move |event: &CampaignEvent| {
            if matches!(event, CampaignEvent::SampleDegraded { .. }) {
                recorder.lock().unwrap().push(event.clone());
            }
        }))
        .build()
        .unwrap()
        .execute();

    // The campaign completes: fatal transport failures become failure
    // responses the classifier handles, never panics or hangs.
    let report = outcome.report.expect("campaign completes");
    for cell in &report.cells {
        assert!((0.0..=100.0).contains(&cell.syntax));
        assert!((0.0..=100.0).contains(&cell.functional));
    }
    let events = events.lock().unwrap();
    assert!(!events.is_empty(), "fatal schedule must degrade samples");
    for event in events.iter() {
        if let CampaignEvent::SampleDegraded { kind, attempts, .. } = event {
            assert_eq!(*kind, TransportErrorKind::Fatal);
            assert_eq!(*attempts, 1, "fatal failures degrade without retrying");
        }
    }
}
