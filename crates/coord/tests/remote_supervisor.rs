//! End-to-end contracts of the remote journal seam, driven through the
//! *unchanged* PR-7 supervisor:
//!
//! * a campaign whose shard workers journal through a coordinator
//!   (loopback transport, no shared filesystem access by the workers)
//!   merges **bit-identical** to the single-process engine;
//! * under a deterministic network-fault plan — dropped deliveries on
//!   one shard (exhausting the client's retry budget), a partition
//!   window during another shard's lease claim (absorbed by retry), and
//!   duplicated deliveries on a third (deduped by the coordinator) —
//!   the campaign still completes bit-identically, with the dropped
//!   shard reassigned and the duplicate deliveries counted;
//! * a coordinator restart mid-campaign loses nothing: journalled
//!   batches replayed against the fresh instance answer `duplicate`,
//!   and new appends continue the same journal.

use picbench_coord::{
    AppendOutcome, AppendRequest, CoordClient, Coordinator, FaultyTransport, LoopbackTransport,
    NetFaultPlan, RecordMsg, RemoteJournal,
};
use picbench_core::{
    run_shard_worker_with, Campaign, CampaignConfig, CampaignEvent, CampaignReport, LeaseAdvance,
    LeaseRecord, ProblemTally, ShardLauncher, ShardLossReason, ShardWorkerConfig,
    ShardWorkerHandle, ShardWorkload, WorkerRequest, WorkerState,
};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_store::xorshift64;
use picbench_synthllm::{ModelProfile, RetryPolicy};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-coord-remote-{tag}-{}-{}",
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

/// A retry policy that actually sleeps (short, bounded backoffs) — the
/// loopback drills schedule real partition windows to wait out.
fn drill_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 30,
        max_backoff_ms: 100,
        budget_ms: 5_000,
        seed,
        sleep: true,
    }
}

/// A [`ShardLauncher`] whose workers are threads journalling through a
/// [`RemoteJournal`] → [`CoordClient`] → (optionally faulty) loopback
/// transport into one shared [`Coordinator`] — the full remote stack
/// minus the TCP socket, fully deterministic.
struct LoopbackRemoteLauncher {
    coordinator: Arc<Coordinator>,
    plans: Mutex<HashMap<(u32, u32), NetFaultPlan>>,
    next_worker: AtomicU64,
}

impl LoopbackRemoteLauncher {
    fn new(coordinator: Arc<Coordinator>) -> Self {
        LoopbackRemoteLauncher {
            coordinator,
            plans: Mutex::new(HashMap::new()),
            next_worker: AtomicU64::new(0),
        }
    }

    /// Arms a network-fault plan for the worker of `(shard, generation)`.
    fn inject(&self, shard: u32, generation: u32, plan: NetFaultPlan) {
        self.plans
            .lock()
            .expect("plans poisoned")
            .insert((shard, generation), plan);
    }
}

struct RemoteHandle {
    finished: Arc<AtomicBool>,
    clean: Arc<AtomicBool>,
}

impl ShardWorkerHandle for RemoteHandle {
    fn poll(&mut self) -> WorkerState {
        if self.finished.load(Ordering::Acquire) {
            WorkerState::Exited {
                clean: self.clean.load(Ordering::Acquire),
            }
        } else {
            WorkerState::Running
        }
    }

    fn kill(&mut self) {
        // These drills end workers through injected network faults, not
        // kills; the supervisor never needs this path here.
    }
}

impl ShardLauncher for LoopbackRemoteLauncher {
    fn launch(
        &self,
        workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>> {
        let plan = self
            .plans
            .lock()
            .expect("plans poisoned")
            .get(&(request.shard, request.generation))
            .cloned()
            .unwrap_or_default();
        let transport = Arc::new(FaultyTransport::new(
            Arc::new(LoopbackTransport::new(Arc::clone(&self.coordinator))),
            plan,
        ));
        let seed = 0x6e7_1000 ^ u64::from(request.shard) << 8 ^ u64::from(request.generation);
        let client = Arc::new(CoordClient::with_policy(transport, drill_policy(seed)));
        let journal = RemoteJournal::new(client, request.shard, request.generation);
        let config = ShardWorkerConfig {
            shard: request.shard,
            generation: request.generation,
            shards: request.shards,
            root: request.root.clone(),
            worker_id: xorshift64(
                self.next_worker.fetch_add(1, Ordering::Relaxed) ^ 0x1357_9bdf_2468_ace0,
            ),
            stall: request.stall,
        };
        let workload = Arc::clone(workload);
        let finished = Arc::new(AtomicBool::new(false));
        let clean = Arc::new(AtomicBool::new(false));
        let handle = RemoteHandle {
            finished: Arc::clone(&finished),
            clean: Arc::clone(&clean),
        };
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_shard_worker_with(&workload, &config, &journal)
            }));
            if let Ok(Ok(report)) = outcome {
                clean.store(report.completed, Ordering::Release);
            }
            finished.store(true, Ordering::Release);
        });
        Ok(Box::new(handle))
    }
}

#[test]
fn remote_journalled_campaign_is_bit_identical() {
    let control = control_report();
    for shards in [2u32, 4] {
        let dir = temp_dir(&format!("clean-{shards}"));
        let coordinator = Arc::new(Coordinator::new(&dir));
        let launcher = Arc::new(LoopbackRemoteLauncher::new(Arc::clone(&coordinator)));
        let outcome = builder()
            .shards(shards)
            .shard_dir(&dir)
            .shard_launcher(launcher)
            .build()
            .unwrap()
            .execute();
        assert!(!outcome.cancelled);
        let report = outcome.report.expect("remote campaign completes");
        assert!(
            report.same_results(&control),
            "shards {shards}: remote-journalled report diverged"
        );
        let counters = coordinator.counters();
        assert!(
            counters.claims >= u64::from(shards),
            "every shard claims through the coordinator: {counters:?}"
        );
        assert!(counters.appends > 0 && counters.records > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One campaign, three simultaneous network pathologies:
/// shard 1's deliveries are dropped until its retry budget exhausts
/// (the shard degrades and is reassigned), shard 2's lease claim lands
/// inside a partition window (absorbed by retry — no reassignment
/// required), and every other delivery of shard 0 is duplicated (the
/// coordinator dedups each one). The merged report must not move.
#[test]
fn faulty_transport_campaign_reassigns_dedupes_and_stays_bit_identical() {
    let control = control_report();
    let shards = 4u32;
    let drop_victim = 1u32;
    let partition_victim = 2u32;
    let duplicate_victim = 0u32;
    let dir = temp_dir("faulty");
    let coordinator = Arc::new(Coordinator::new(&dir));
    let launcher = Arc::new(LoopbackRemoteLauncher::new(Arc::clone(&coordinator)));
    // Ten consecutive dropped deliveries out-last the 8-attempt retry
    // budget no matter which protocol step call 5 lands on.
    launcher.inject(
        drop_victim,
        0,
        NetFaultPlan {
            drops: (5..15).collect(),
            ..NetFaultPlan::default()
        },
    );
    // Partition open exactly at the claim (call 0), 80 ms — two or
    // three 30 ms backoffs ride it out.
    launcher.inject(
        partition_victim,
        0,
        NetFaultPlan {
            partitions: vec![(0, 80)],
            ..NetFaultPlan::default()
        },
    );
    launcher.inject(
        duplicate_victim,
        0,
        NetFaultPlan {
            duplicate_period: Some(2),
            ..NetFaultPlan::default()
        },
    );

    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let outcome = builder()
        .shards(shards)
        .shard_dir(&dir)
        .shard_launcher(launcher)
        .observer(Arc::new(move |event: &CampaignEvent| {
            recorder.lock().unwrap().push(event.clone());
        }))
        .build()
        .unwrap()
        .execute();
    assert!(!outcome.cancelled);
    let report = outcome.report.expect("faulty campaign completes");
    assert!(
        report.same_results(&control),
        "network faults changed the merged report"
    );

    let events = events.lock().unwrap();
    assert!(
        events.iter().any(|e| matches!(
            e,
            CampaignEvent::ShardLost { shard, .. } if *shard == drop_victim
        )),
        "the drop victim never lost its shard"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            CampaignEvent::ShardReassigned { shard, .. } if *shard == drop_victim
        )),
        "the drop victim was never reassigned"
    );
    assert!(
        !events.iter().any(|e| matches!(
            e,
            CampaignEvent::ShardLost {
                shard,
                reason: ShardLossReason::WorkerExited { .. },
                ..
            } if *shard == partition_victim
        )),
        "the partitioned claim should have been absorbed by retry"
    );
    let counters = coordinator.counters();
    assert!(
        counters.duplicates >= 1,
        "duplicated deliveries must hit the dedup path: {counters:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const FP: u64 = 0xabad_1dea_0000_0042;

fn tally(n: usize) -> ProblemTally {
    ProblemTally {
        n,
        syntax_passes: n / 2,
        functional_passes: n / 3,
    }
}

fn cell_batch(seq: u64, cell: u64) -> AppendRequest {
    AppendRequest {
        fingerprint: FP,
        shard: 0,
        generation: 0,
        seq,
        sync: true,
        records: vec![RecordMsg::Cell {
            cell,
            tally: tally(cell as usize),
        }],
    }
}

/// A coordinator restart mid-campaign: journalled batches survive, the
/// dedup set is rebuilt from the journal, and the campaign continues
/// against the fresh instance through the same client stack.
#[test]
fn coordinator_restart_resumes_without_losing_journalled_cells() {
    let dir = temp_dir("restart");
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        budget_ms: 100,
        seed: 3,
        sleep: false,
    };
    {
        let coordinator = Arc::new(Coordinator::new(&dir));
        let client =
            CoordClient::with_policy(Arc::new(LoopbackTransport::new(coordinator)), policy);
        let lease = LeaseRecord {
            generation: 0,
            worker: 11,
            seq: 0,
            stamp_ms: 1,
        };
        assert_eq!(client.advance_lease(FP, 0, &lease), LeaseAdvance::Claimed);
        assert_eq!(client.append(&cell_batch(0, 3)), AppendOutcome::Applied);
        assert_eq!(client.append(&cell_batch(1, 4)), AppendOutcome::Applied);
    } // Coordinator dropped — the "crash" (stores sync on drop).

    let coordinator = Arc::new(Coordinator::new(&dir));
    let client = CoordClient::with_policy(
        Arc::new(LoopbackTransport::new(Arc::clone(&coordinator))),
        policy,
    );
    // A retry of batch 1, replayed across the restart: still a
    // duplicate — the applied markers were journalled.
    assert_eq!(client.append(&cell_batch(1, 4)), AppendOutcome::Duplicate);
    // The campaign continues: new batches land, the worker's lease
    // renews (its in-memory seq outruns whatever the journal holds).
    assert_eq!(client.append(&cell_batch(2, 5)), AppendOutcome::Applied);
    let renewed = LeaseRecord {
        generation: 0,
        worker: 11,
        seq: 7,
        stamp_ms: 2,
    };
    assert_eq!(client.advance_lease(FP, 0, &renewed), LeaseAdvance::Renewed);
    let mut cells = client.fetch_cells(FP, 0, 0).expect("cells readable");
    cells.sort_unstable_by_key(|(key, _)| *key);
    assert_eq!(cells, vec![(3, tally(3)), (4, tally(4)), (5, tally(5))]);
    let state = client.fetch_state(FP).expect("state readable");
    assert_eq!(state.cells.len(), 3);
    assert_eq!(state.counters.duplicates, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
