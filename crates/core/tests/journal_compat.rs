//! Journals written by earlier builds stay resumable.
//!
//! `tests/fixtures/journal-v1/` is the store `repro table3 --samples 1
//! --problems mzi-ps --store-dir <dir>` wrote before the solver backend
//! was dropped from the evaluation-cache keys. It holds 15 journalled
//! cells plus disk-tier verdict/report/sweep records keyed under the old
//! encoding. The contract:
//!
//! * the campaign fingerprint of that campaign is pinned, so its journal
//!   records keep matching;
//! * resuming from the old journal restores every cell and evaluates
//!   nothing;
//! * old-encoding disk-tier records are plain misses — recomputed, never
//!   served and never classified as store damage.

use picbench_core::{
    Campaign, CampaignBuilder, CampaignConfig, CampaignEvent, CampaignObserver, EvalStore,
};
use picbench_synthllm::ModelProfile;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// `Campaign::fingerprint` of [`fixture_campaign`], as computed when the
/// fixture journal was written.
const PINNED_FINGERPRINT: u64 = 0x29e4_84b4_8a30_93e2;

/// Cells of [`fixture_campaign`]: 1 problem × 5 models × 3 feedback
/// settings.
const FIXTURE_CELLS: usize = 15;

/// The campaign `repro table3 --samples 1 --problems mzi-ps` runs.
fn fixture_campaign() -> CampaignBuilder {
    Campaign::builder()
        .problem(picbench_problems::find("mzi-ps").unwrap())
        .profiles(&ModelProfile::all_paper_models())
        .config(CampaignConfig {
            samples_per_problem: 1,
            k_values: vec![1, 1],
            feedback_iters: vec![0, 1, 3],
            restrictions: false,
            ..CampaignConfig::default()
        })
}

/// A private copy of the fixture store (opening a store may append).
fn fixture_copy(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-journal-compat-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal-v1");
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

#[derive(Default)]
struct CellCounter {
    restored: AtomicUsize,
    started: AtomicUsize,
}

impl CellCounter {
    fn observer(self: &Arc<Self>) -> Arc<dyn CampaignObserver> {
        let counter = Arc::clone(self);
        Arc::new(move |event: &CampaignEvent| {
            match event {
                CampaignEvent::CellRestored { .. } => &counter.restored,
                CampaignEvent::CellStarted { .. } => &counter.started,
                _ => return,
            }
            .fetch_add(1, Ordering::Relaxed);
        })
    }
}

#[test]
fn campaign_fingerprint_is_pinned() {
    let campaign = fixture_campaign().build().unwrap();
    assert_eq!(
        campaign.fingerprint(),
        PINNED_FINGERPRINT,
        "the fingerprint moved: every existing journal of this campaign would stop resuming"
    );
}

#[test]
fn a_journal_from_an_earlier_build_restores_every_cell() {
    let dir = fixture_copy("resume");
    let store = Arc::new(EvalStore::open(&dir).unwrap());
    assert!(!store.recovery().damaged(), "{:?}", store.recovery());
    assert_eq!(
        store.completed_cells(PINNED_FINGERPRINT).len(),
        FIXTURE_CELLS
    );

    let counter = Arc::new(CellCounter::default());
    let resumed = fixture_campaign()
        .resume_from(store)
        .observer(counter.observer())
        .build()
        .unwrap()
        .run();
    assert_eq!(counter.restored.load(Ordering::Relaxed), FIXTURE_CELLS);
    assert_eq!(counter.started.load(Ordering::Relaxed), 0);
    let fresh = fixture_campaign().build().unwrap().run();
    assert!(resumed.same_results(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_disk_tier_records_miss_without_damage() {
    let dir = fixture_copy("disk-tier");
    let store = Arc::new(EvalStore::open(&dir).unwrap());
    assert!(!store.recovery().damaged(), "{:?}", store.recovery());
    // One worker: with several, a worker can read another's fresh
    // write-through record from disk before it reaches memory.
    let report = fixture_campaign()
        .threads(1)
        .store(Arc::clone(&store))
        .build()
        .unwrap()
        .run();
    let stats = report.cache_stats.expect("the cache is on by default");
    assert_eq!(stats.disk_hits, 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    assert!(!store.degraded());
    assert!(report.same_results(&fixture_campaign().build().unwrap().run()));

    // Reopening after the run still finds nothing to quarantine.
    drop(store);
    let reopened = EvalStore::open(&dir).unwrap();
    assert!(!reopened.recovery().damaged(), "{:?}", reopened.recovery());
    let _ = std::fs::remove_dir_all(&dir);
}
