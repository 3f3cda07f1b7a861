//! Journal durability under a power cut that drops every unsynced byte.
//!
//! A 2-thread campaign journals through an [`EvalStore`] whose two logs
//! sit on [`PageCacheIo`] disks. At a seeded cell count the observer
//! cuts the power: every segment loses the bytes no fsync covered, and
//! every later IO of the dying process fails. A restarted process then
//! reopens the store and resumes. The contract:
//!
//! * `cells_restored` equals the number of journal barriers that
//!   completed, i.e. of `record_cell` calls that returned `true`: each of
//!   those cells is restored, and no other;
//! * every cell announced before the crash is among them;
//! * the logs reopen without damage, and the resumed report is
//!   bit-identical to an uninterrupted run.

use picbench_core::{Campaign, CampaignBuilder, CampaignConfig, CampaignEvent, EvalStore};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_store::{xorshift64, PageCacheIo};
use picbench_synthllm::ModelProfile;
use std::sync::{Arc, Mutex};

/// A cell by identity: problem id, model name, feedback setting.
type CellId = (String, String, usize);

fn problems() -> Vec<Problem> {
    ["mzi-ps", "mzm"]
        .iter()
        .map(|id| picbench_problems::find(id).unwrap())
        .collect()
}

fn builder() -> CampaignBuilder {
    Campaign::builder()
        .problems(problems())
        .profiles(&[ModelProfile::gpt4(), ModelProfile::claude35_sonnet()])
        .config(CampaignConfig {
            samples_per_problem: 2,
            k_values: vec![1, 2],
            feedback_iters: vec![0, 1, 3],
            restrictions: false,
            seed: 31,
            grid: WavelengthGrid::paper_fast(),
            threads: 2,
            ..CampaignConfig::default()
        })
}

/// The cell a `CellFinished` or `CellRestored` event names.
fn cell_of(event: &CampaignEvent) -> Option<CellId> {
    match event {
        CampaignEvent::CellFinished {
            problem_id,
            model,
            feedback_iters,
            ..
        }
        | CampaignEvent::CellRestored {
            problem_id,
            model,
            feedback_iters,
            ..
        } => Some((problem_id.clone(), model.clone(), *feedback_iters)),
        _ => None,
    }
}

/// What the crashing run's observer saw before it cut the power.
#[derive(Default)]
struct BeforeCrash {
    finished: Vec<CellId>,
    degraded: bool,
    crashed: bool,
}

#[test]
fn every_durable_cell_survives_a_crash_that_drops_unsynced_bytes() {
    let control = builder().build().unwrap().run();
    let fingerprint = builder().build().unwrap().fingerprint();
    let cells: u64 = 2 * 2 * 3;

    for seed in 1..=6u64 {
        // At most `cells - 2`: with two workers, at most one other cell
        // can finish its journal barrier before the crash, so at least
        // one still writes into the dead disk and sees it fail.
        let crash_at = (xorshift64(seed * 1_000_003) % (cells - 2)) as usize + 1;
        let journal_io = PageCacheIo::new();
        let cache_io = PageCacheIo::new();
        let store = Arc::new(
            EvalStore::open_with_io(Box::new(journal_io.clone()), Box::new(cache_io.clone()))
                .unwrap(),
        );
        let seen = Arc::new(Mutex::new(BeforeCrash::default()));
        let observer = {
            let seen = Arc::clone(&seen);
            let (journal_io, cache_io) = (journal_io.clone(), cache_io.clone());
            Arc::new(move |event: &CampaignEvent| {
                let mut seen = seen.lock().unwrap();
                if seen.crashed {
                    return;
                }
                if matches!(event, CampaignEvent::StoreDegraded { .. }) {
                    seen.degraded = true;
                }
                if let (CampaignEvent::CellFinished { .. }, Some(cell)) = (event, cell_of(event)) {
                    seen.finished.push(cell);
                    if seen.finished.len() == crash_at {
                        journal_io.crash();
                        cache_io.crash();
                        seen.crashed = true;
                    }
                }
            })
        };
        builder()
            .store(Arc::clone(&store))
            .observer(observer)
            .build()
            .unwrap()
            .execute();
        let stats = store.stats();
        // Dropping the store tries to flush and fsync on the dead disk.
        drop(store);
        let before = std::mem::take(&mut *seen.lock().unwrap());
        assert!(before.crashed, "seed {seed}: the crash never fired");
        assert!(
            !before.degraded,
            "seed {seed}: the store degraded before the crash"
        );
        assert!(
            stats.degraded && stats.write_errors > 0,
            "seed {seed}: IO after the crash must fail: {stats:?}"
        );

        let store = Arc::new(
            EvalStore::open_with_io(Box::new(journal_io.restart()), Box::new(cache_io.restart()))
                .unwrap(),
        );
        assert!(
            !store.recovery().damaged(),
            "seed {seed}: {:?}",
            store.recovery()
        );
        let journaled = store.completed_cells(fingerprint).len();
        let restored = Arc::new(Mutex::new(Vec::new()));
        let observer = {
            let restored = Arc::clone(&restored);
            Arc::new(move |event: &CampaignEvent| {
                if let (CampaignEvent::CellRestored { .. }, Some(cell)) = (event, cell_of(event)) {
                    restored.lock().unwrap().push(cell);
                }
            })
        };
        let outcome = builder()
            .resume_from(store)
            .observer(observer)
            .build()
            .unwrap()
            .execute();

        assert_eq!(
            outcome.cells_restored as u64, stats.syncs,
            "seed {seed} (crash after cell {crash_at}): restored cells must be exactly \
             those whose record_cell returned true"
        );
        assert_eq!(outcome.cells_restored, journaled, "seed {seed}");
        let restored = restored.lock().unwrap();
        for cell in &before.finished {
            assert!(
                restored.contains(cell),
                "seed {seed}: {cell:?} was announced before the crash but not restored"
            );
        }
        assert!(
            outcome
                .report
                .expect("resumed run completes")
                .same_results(&control),
            "seed {seed}: resumed report differs from the uninterrupted run"
        );
    }
}
