//! Fault-tolerant sharded campaign execution: worker launch seam, the
//! shard worker body, and the supervisor loop.
//!
//! The supervisor never talks to its workers directly — all
//! coordination flows through the persistent store. Each worker claims
//! a [`LeaseRecord`] in its own `(shard, generation)` journal directory
//! and bumps the lease `seq` at every cell boundary; the supervisor
//! polls those journals read-only ([`EvalSnapshot`]) and records *its
//! own* clock whenever it observes a seq advance. A lease whose
//! observed advance is older than the configured TTL, or a worker whose
//! process exits with an incomplete journal, loses its shard: the
//! supervisor bumps the generation and launches a replacement, which
//! inherits the journalled cells of every prior generation and
//! evaluates only the remainder.
//!
//! The generation bump *is* the fence. A stalled worker that revives
//! after its shard was reassigned keeps appending to its own
//! generation's directory — single-writer per directory is preserved —
//! but the merge reads only each shard's final generation, so those
//! stale writes are quarantined, never merged. No signals, no shared
//! locks, no cross-process coordination beyond the filesystem.
//!
//! Workers are launched through the [`ShardLauncher`] seam:
//! [`InProcessLauncher`] (the default) runs workers as threads of this
//! process and is the fault-injection point for deterministic tests;
//! [`ProcessLauncher`] spawns real worker processes for chaos drills
//! and production fan-out.

use crate::campaign::{stopped, Campaign, CampaignConfig, CampaignOutcome, CellMatrix, CellRunner};
use crate::evaluate::EvalCache;
use crate::events::{CampaignEvent, CancelToken, ShardLossReason};
use crate::journal::{CellJournal, LocalShardJournal, ShardJournal};
use crate::lease::{lease_expired, Clock, SystemClock};
use crate::persist::{EvalSnapshot, LeaseAdvance, LeaseRecord, ShardGenStats};
use crate::shard::{latest_generation, merge_shard_journals, shard_journal_dir, ShardPlan};
use picbench_problems::Problem;
use picbench_store::xorshift64;
use picbench_synthllm::ModelProvider;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Launch seam
// ---------------------------------------------------------------------

/// Everything a shard worker needs to reproduce the campaign's cells:
/// the same problems, providers and config the supervisor holds.
pub struct ShardWorkload {
    /// Problems of the campaign matrix, in input order.
    pub problems: Vec<Problem>,
    /// Model providers of the campaign matrix, in input order.
    pub providers: Vec<Arc<dyn ModelProvider>>,
    /// The campaign configuration (scheduling knobs included; the
    /// worker derives the same fingerprint the supervisor does).
    pub config: CampaignConfig,
}

/// A deliberate worker stall for chaos drills: after `after_cells`
/// journalled cells the worker holds for `hold_ms` without
/// heartbeating — long enough for its lease to expire — then resumes,
/// exercising the revived-worker fencing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Fresh cells to evaluate before stalling.
    pub after_cells: usize,
    /// How long to hold, in (real) milliseconds.
    pub hold_ms: u64,
}

/// One worker launch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRequest {
    /// Shard index in `0..shards`.
    pub shard: u32,
    /// Lease generation of this launch (0 first, bumped per takeover).
    pub generation: u32,
    /// Total shard count of the plan (workers re-derive the partition).
    pub shards: u32,
    /// Root directory of the per-shard journals.
    pub root: PathBuf,
    /// Chaos-drill stall to inject, if any.
    pub stall: Option<WorkerStall>,
}

/// What the supervisor can observe about a launched worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Still running (or unobservable — treated as running until the
    /// lease says otherwise).
    Running,
    /// The worker is gone.
    Exited {
        /// Whether it claims success. A clean exit with an incomplete
        /// journal is still a shard loss.
        clean: bool,
    },
}

/// A handle to one launched worker.
pub trait ShardWorkerHandle: Send {
    /// Non-blocking liveness check.
    fn poll(&mut self) -> WorkerState;
    /// Hard-kills the worker (SIGKILL for processes; a cooperative
    /// cell-boundary stop for in-process workers). Idempotent.
    fn kill(&mut self);
}

/// How shard workers come to life — the injectable process seam.
///
/// The supervisor is launcher-agnostic: it launches, polls and kills
/// through this trait and otherwise coordinates purely via the store.
pub trait ShardLauncher: Send + Sync {
    /// Launches one worker for `request`.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures; the supervisor treats a failed launch
    /// like a lost worker and retries under the next generation.
    fn launch(
        &self,
        workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>>;
}

// ---------------------------------------------------------------------
// In-process launcher (tests, default)
// ---------------------------------------------------------------------

/// A deterministic worker fault injected by tests through
/// [`InProcessLauncher::inject`].
#[derive(Debug, Clone)]
pub enum WorkerFault {
    /// Die (unclean, mid-shard) after journalling this many fresh cells.
    DieAfterCells(usize),
    /// Stall after journalling this many fresh cells, holding — without
    /// heartbeats — until the release flag flips, then *resume*: the
    /// revived worker keeps journalling into its fenced generation,
    /// which is exactly the double-claim race the generation fence
    /// exists to neutralise.
    StallAfterCells {
        /// Fresh cells to evaluate before stalling.
        cells: usize,
        /// Flip to `true` to let the stalled worker resume.
        release: Arc<AtomicBool>,
    },
}

/// Launches shard workers as threads of the current process.
///
/// The default launcher, and the deterministic fault-injection point:
/// tests [`inject`](InProcessLauncher::inject) crashes and stalls keyed
/// by `(shard, generation)`, so exactly the intended launch misbehaves
/// and every reassigned generation runs clean.
#[derive(Default)]
pub struct InProcessLauncher {
    faults: Mutex<HashMap<(u32, u32), WorkerFault>>,
    next_worker: AtomicU64,
}

impl InProcessLauncher {
    /// A launcher with no faults injected.
    pub fn new() -> Self {
        InProcessLauncher::default()
    }

    /// Arms a fault for the worker of `(shard, generation)`.
    pub fn inject(&self, shard: u32, generation: u32, fault: WorkerFault) {
        self.faults
            .lock()
            .expect("faults poisoned")
            .insert((shard, generation), fault);
    }
}

struct InProcessHandle {
    kill: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
    clean: Arc<AtomicBool>,
}

impl ShardWorkerHandle for InProcessHandle {
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
        self.kill.store(true, Ordering::Release);
    }
}

impl ShardLauncher for InProcessLauncher {
    fn launch(
        &self,
        workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>> {
        let fault = self
            .faults
            .lock()
            .expect("faults poisoned")
            .get(&(request.shard, request.generation))
            .cloned();
        let kill = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let clean = Arc::new(AtomicBool::new(false));
        let handle = InProcessHandle {
            kill: Arc::clone(&kill),
            finished: Arc::clone(&finished),
            clean: Arc::clone(&clean),
        };
        let workload = Arc::clone(workload);
        let config = ShardWorkerConfig {
            shard: request.shard,
            generation: request.generation,
            shards: request.shards,
            root: request.root.clone(),
            worker_id: xorshift64(
                self.next_worker.fetch_add(1, Ordering::Relaxed) ^ 0x5bd1_e995_9d1b_54a5,
            ),
            stall: request.stall,
        };
        std::thread::spawn(move || {
            let hooks = WorkerHooks { kill, fault };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let journal =
                    LocalShardJournal::open(&config.root, config.shard, config.generation)?;
                shard_worker_body(&workload, &config, &journal, &hooks)
            }));
            if let Ok(Ok(report)) = outcome {
                clean.store(report.completed, Ordering::Release);
            }
            finished.store(true, Ordering::Release);
        });
        Ok(Box::new(handle))
    }
}

// ---------------------------------------------------------------------
// Process launcher (drills, production fan-out)
// ---------------------------------------------------------------------

/// Launches shard workers as real child processes.
///
/// The child is `program base_args… --worker-shard N --worker-generation
/// G --shards S --shard-root DIR` (plus `--stall-after-cells` /
/// `--stall-ms` when a chaos stall is armed); it is expected to call
/// [`run_shard_worker`] and exit non-zero on an incomplete shard.
/// `kill` delivers SIGKILL — the chaos drill's crash injection.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The worker executable (typically `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments carrying the campaign definition, prepended before the
    /// shard/generation arguments.
    pub base_args: Vec<String>,
}

struct ProcessHandle {
    child: Child,
}

impl ShardWorkerHandle for ProcessHandle {
    fn poll(&mut self) -> WorkerState {
        match self.child.try_wait() {
            Ok(Some(status)) => WorkerState::Exited {
                clean: status.success(),
            },
            Ok(None) => WorkerState::Running,
            Err(_) => WorkerState::Exited { clean: false },
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.try_wait();
    }
}

impl ShardLauncher for ProcessLauncher {
    fn launch(
        &self,
        _workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.base_args)
            .arg("--worker-shard")
            .arg(request.shard.to_string())
            .arg("--worker-generation")
            .arg(request.generation.to_string())
            .arg("--shards")
            .arg(request.shards.to_string())
            .arg("--shard-root")
            .arg(&request.root)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(stall) = request.stall {
            cmd.arg("--stall-after-cells")
                .arg(stall.after_cells.to_string())
                .arg("--stall-ms")
                .arg(stall.hold_ms.to_string());
        }
        let child = cmd.spawn()?;
        Ok(Box::new(ProcessHandle { child }))
    }
}

// ---------------------------------------------------------------------
// Chaos plans
// ---------------------------------------------------------------------

/// Kill one generation-0 worker once its journal shows enough cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Shard whose first worker dies.
    pub shard: u32,
    /// Journalled cells to wait for before the kill (0 = as soon as the
    /// supervisor first polls the shard).
    pub after_cells: usize,
}

/// Fault-injection schedule for chaos drills: the supervisor delivers
/// kills itself (SIGKILL through the worker handle) once a victim's
/// journal shows the configured progress, and stalls are handed to
/// generation-0 workers at launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Workers to kill.
    pub kills: Vec<ChaosKill>,
    /// Workers to stall ([`WorkerStall`] is keyed by shard here).
    pub stalls: Vec<(u32, WorkerStall)>,
}

impl ChaosPlan {
    /// A deterministic plan: `kills` distinct shards die and `stalls`
    /// further distinct shards stall for `stall_ms`, victims and kill
    /// points drawn from `seed` via xorshift64. The same seed always
    /// builds the same schedule.
    pub fn seeded(seed: u64, shards: u32, kills: usize, stalls: usize, stall_ms: u64) -> ChaosPlan {
        let shards = shards.max(1);
        // Injective map to a nonzero state (xorshift fixes 0 forever).
        let mut rng = (seed << 1) | 1;
        let mut draw = move |bound: u64| {
            rng = xorshift64(rng);
            rng % bound.max(1)
        };
        let mut victims: Vec<u32> = Vec::new();
        let wanted = (kills + stalls).min(shards as usize);
        while victims.len() < wanted {
            let shard = draw(u64::from(shards)) as u32;
            if !victims.contains(&shard) {
                victims.push(shard);
            }
        }
        let mut plan = ChaosPlan::default();
        for (i, &shard) in victims.iter().enumerate() {
            let after_cells = draw(4) as usize;
            if i < kills.min(victims.len()) {
                plan.kills.push(ChaosKill { shard, after_cells });
            } else {
                plan.stalls.push((
                    shard,
                    WorkerStall {
                        after_cells,
                        hold_ms: stall_ms,
                    },
                ));
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------
// The worker body
// ---------------------------------------------------------------------

/// Identity and placement of one shard worker run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardWorkerConfig {
    /// Shard index in `0..shards`.
    pub shard: u32,
    /// Lease generation this worker was launched under.
    pub generation: u32,
    /// Total shard count of the plan.
    pub shards: u32,
    /// Root directory of the per-shard journals.
    pub root: PathBuf,
    /// Lease identity of this worker (any unique-ish value; process id
    /// for process workers).
    pub worker_id: u64,
    /// Chaos-drill stall: hold (without heartbeats) for `hold_ms` after
    /// `after_cells` fresh cells, then resume.
    pub stall: Option<WorkerStall>,
}

/// What one worker run accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWorkerReport {
    /// Cells inherited (re-journalled) from prior generations.
    pub restored: usize,
    /// Cells evaluated fresh this run.
    pub evaluated: usize,
    /// Whether the shard's journal now covers its whole range. `false`
    /// means the worker was fenced, killed or died mid-shard — the exit
    /// is unclean and the supervisor will reassign.
    pub completed: bool,
}

/// Test-only misbehaviour switches threaded through the in-process
/// launcher; real worker processes run with none.
struct WorkerHooks {
    kill: Arc<AtomicBool>,
    fault: Option<WorkerFault>,
}

impl WorkerHooks {
    fn none() -> Self {
        WorkerHooks {
            kill: Arc::new(AtomicBool::new(false)),
            fault: None,
        }
    }
}

/// Runs one shard worker to completion in the calling thread: claim the
/// generation's lease, inherit journalled cells from prior generations,
/// evaluate the remainder (heartbeating at every cell boundary), and
/// journal the generation's statistics.
///
/// This is the body worker *processes* call after parsing the
/// `--worker-shard` arguments a [`ProcessLauncher`] passes; in-process
/// workers run the same body on a thread. Exit non-zero when the
/// returned report's `completed` is false.
///
/// # Errors
///
/// Propagates journal-store open failures. Store *write* failures do
/// not error: the store degrades, the lease stops advancing, and the
/// supervisor reassigns the shard — degraded workers are indistinguishable
/// from stalled ones by design.
pub fn run_shard_worker(
    workload: &ShardWorkload,
    config: &ShardWorkerConfig,
) -> io::Result<ShardWorkerReport> {
    let journal = LocalShardJournal::open(&config.root, config.shard, config.generation)?;
    shard_worker_body(workload, config, &journal, &WorkerHooks::none())
}

/// Runs one shard worker over an explicit [`ShardJournal`] — the entry
/// point for remote workers, whose journal is a coordinator client
/// rather than a locally opened store. Identical body to
/// [`run_shard_worker`]; only where the records land differs.
///
/// # Errors
///
/// Propagates failures reading prior generations through the journal
/// seam. Journal *write* failures do not error: the journal degrades,
/// the lease stops advancing, and the supervisor reassigns the shard.
pub fn run_shard_worker_with(
    workload: &ShardWorkload,
    config: &ShardWorkerConfig,
    journal: &dyn ShardJournal,
) -> io::Result<ShardWorkerReport> {
    shard_worker_body(workload, config, journal, &WorkerHooks::none())
}

fn shard_worker_body(
    workload: &ShardWorkload,
    config: &ShardWorkerConfig,
    journal: &dyn ShardJournal,
    hooks: &WorkerHooks,
) -> io::Result<ShardWorkerReport> {
    let clock = SystemClock;
    let matrix = CellMatrix::new(&workload.problems, &workload.providers, &workload.config);
    let (cell_keys, fingerprint) = (&matrix.keys, matrix.fingerprint);
    let plan = ShardPlan::partition(cell_keys.len(), config.shards);
    let mut report = ShardWorkerReport {
        restored: 0,
        evaluated: 0,
        completed: false,
    };
    if config.shard >= plan.shards() {
        // More shards requested than cells exist: this worker has no
        // range. Vacuously complete.
        report.completed = true;
        return Ok(report);
    }
    let range = plan.cells(config.shard);

    let mut lease = LeaseRecord {
        generation: config.generation,
        worker: config.worker_id,
        seq: 0,
        stamp_ms: clock.now_ms(),
    };
    match journal.advance_lease(fingerprint, config.shard, &lease) {
        LeaseAdvance::Claimed | LeaseAdvance::Renewed => {}
        LeaseAdvance::Fenced | LeaseAdvance::Degraded => return Ok(report),
    }
    let mut heartbeat = |journal: &dyn ShardJournal| {
        lease.seq += 1;
        lease.stamp_ms = clock.now_ms();
        matches!(
            journal.advance_lease(fingerprint, config.shard, &lease),
            LeaseAdvance::Claimed | LeaseAdvance::Renewed
        )
    };

    // Inherit everything prior generations of this shard journalled:
    // re-journal it here (inherit-marked) so this generation's journal
    // is self-contained and the merge never reads fenced directories
    // for tallies.
    let mut have: HashSet<u64> = HashSet::new();
    for generation in 0..config.generation {
        for (key, tally) in journal.prior_generation_cells(fingerprint, generation)? {
            if have.insert(key) {
                journal.record_inherited_cell(fingerprint, key, &tally);
            }
        }
    }
    report.restored = range
        .clone()
        .filter(|&index| have.contains(&cell_keys[index]))
        .count();
    journal.sync();
    if !heartbeat(journal) {
        return Ok(report);
    }

    let pending: Vec<usize> = range
        .clone()
        .filter(|&index| !have.contains(&cell_keys[index]))
        .collect();

    // The engine's cell runner over an in-memory cache (no disk tier —
    // worker journals hold cells and leases only, keeping supervisor
    // polls cheap), priming the goldens of pending problems only, on
    // this thread: shard workers already run side by side. A golden
    // that fails to simulate leaves the shard incomplete.
    let runner = CellRunner::new(
        &matrix,
        &workload.providers,
        None,
        Arc::new(EvalCache::new()),
        None,
    );
    let pending_problems = pending.iter().map(|&index| matrix.cells[index].problem);
    let Ok(goldens) = runner.prime(pending_problems, 1, || false) else {
        return Ok(report);
    };
    if !heartbeat(journal) {
        return Ok(report);
    }

    // Pending cells come in matrix order, so a pair's trajectory runs
    // once and its pending cells are recorded one by one.
    let mut evaluator = runner.evaluator();
    let mut trajectory = None;
    let mut stalled = false;
    for index in pending {
        if hooks.kill.load(Ordering::Acquire) {
            return Ok(report);
        }
        match &hooks.fault {
            Some(WorkerFault::DieAfterCells(cells)) if report.evaluated >= *cells => {
                return Ok(report);
            }
            Some(WorkerFault::StallAfterCells { cells, release })
                if report.evaluated >= *cells && !stalled =>
            {
                stalled = true;
                // Hold without heartbeats until released (or killed) —
                // real milliseconds, deliberately outside any injected
                // clock, so a TestClock-driven supervisor stays in
                // control of virtual time.
                while !release.load(Ordering::Acquire) && !hooks.kill.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                if hooks.kill.load(Ordering::Acquire) {
                    return Ok(report);
                }
            }
            _ => {}
        }
        if let Some(stall) = config.stall {
            if report.evaluated == stall.after_cells && !stalled {
                stalled = true;
                clock.sleep_ms(stall.hold_ms);
            }
        }
        runner.run_cell(
            index,
            &mut trajectory,
            &goldens,
            &mut evaluator,
            Some(journal as &dyn CellJournal),
        );
        report.evaluated += 1;
        if !heartbeat(journal) {
            return Ok(report);
        }
    }
    journal.record_shard_stats(
        fingerprint,
        config.shard,
        &ShardGenStats {
            restored: report.restored as u64,
            evaluated: report.evaluated as u64,
        },
    );
    report.completed = !journal.degraded();
    Ok(report)
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

struct ShardState {
    generation: u32,
    handle: Option<Box<dyn ShardWorkerHandle>>,
    /// Supervisor-clock time of the launch or last observed seq advance.
    last_seen_ms: u64,
    last_seq: Option<u64>,
    cells_done: usize,
    expected: usize,
    done: bool,
}

/// Runs a `shards > 1` campaign: plan, launch, supervise, merge.
pub(crate) fn run_sharded(campaign: &Campaign) -> CampaignOutcome {
    let emit = |event: CampaignEvent| {
        if let Some(observer) = &campaign.observer {
            observer.on_event(&event);
        }
    };
    let halted = || {
        campaign
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    };
    let matrix = CellMatrix::new(&campaign.problems, &campaign.providers, &campaign.config);
    let (cell_keys, fingerprint) = (&matrix.keys, matrix.fingerprint);
    let cells_total = cell_keys.len();
    let plan = ShardPlan::partition(cells_total, campaign.shards);
    let root = campaign
        .shard_dir
        .clone()
        .expect("builder validated shard_dir");
    let launcher = campaign
        .launcher
        .as_ref()
        .expect("builder installed a launcher");
    let clock = &campaign.clock;
    let lease_cfg = campaign.lease;
    let chaos = campaign.chaos.clone().unwrap_or_default();
    let mut kills = chaos.kills;
    let workload = Arc::new(ShardWorkload {
        problems: campaign.problems.clone(),
        providers: campaign.providers.clone(),
        config: campaign.config.clone(),
    });

    emit(CampaignEvent::CampaignStarted {
        problems: campaign.problems.len(),
        providers: campaign.providers.len(),
        cells: cells_total,
    });

    // Every golden is simulated here, on this thread, before any worker
    // launches, through the engine's priming: a golden that fails ends
    // the campaign with the engine's typed error instead of failing
    // every worker.
    let runner = CellRunner::new(
        &matrix,
        &campaign.providers,
        None,
        Arc::new(EvalCache::new()),
        None,
    );
    if let Err(failure) = runner.prime(0..campaign.problems.len(), 1, halted) {
        return stopped(emit, 0, cells_total, 0, Some(*failure));
    }
    // The supervisor scores no cell: its goldens are not held while the
    // workers run.
    drop(runner);

    let launch = |shard: u32, generation: u32| -> Option<Box<dyn ShardWorkerHandle>> {
        let stall = (generation == 0)
            .then(|| {
                chaos
                    .stalls
                    .iter()
                    .find(|(s, _)| *s == shard)
                    .map(|(_, stall)| *stall)
            })
            .flatten();
        let request = WorkerRequest {
            shard,
            generation,
            shards: plan.shards(),
            root: root.clone(),
            stall,
        };
        emit(CampaignEvent::ShardStarted {
            shard,
            generation,
            cells: plan.cells(shard).len(),
        });
        launcher.launch(&workload, &request).ok()
    };

    // A restarted supervisor resumes over whatever generations a
    // predecessor left behind: the next generation fences any worker
    // the predecessor may have left running.
    let mut states: Vec<ShardState> = Vec::with_capacity(plan.shards() as usize);
    let mut orphans: Vec<Box<dyn ShardWorkerHandle>> = Vec::new();
    for shard in 0..plan.shards() {
        let generation = match latest_generation(&root, shard) {
            Ok(Some(last)) => last + 1,
            _ => 0,
        };
        let handle = launch(shard, generation);
        states.push(ShardState {
            generation,
            handle,
            last_seen_ms: clock.now_ms(),
            last_seq: None,
            cells_done: 0,
            expected: plan.cells(shard).len(),
            done: false,
        });
    }

    let mut takeovers = 0u32;
    let mut gave_up = false;
    loop {
        if halted() || gave_up {
            for state in &mut states {
                if let Some(handle) = &mut state.handle {
                    handle.kill();
                }
            }
            for orphan in &mut orphans {
                orphan.kill();
            }
            let cells_completed = states.iter().map(|s| s.cells_done.min(s.expected)).sum();
            return stopped(emit, cells_completed, cells_total, 0, None);
        }

        let mut all_done = true;
        for shard in 0..plan.shards() {
            let state = &mut states[shard as usize];
            if state.done {
                continue;
            }
            all_done = false;

            // Observe the worker's journal read-only; a poll that fails
            // (directory racing into existence) just retries next tick.
            let dir = shard_journal_dir(&root, shard, state.generation);
            let shard_range: HashSet<u64> =
                plan.cells(shard).map(|index| cell_keys[index]).collect();
            if let Ok(snap) = EvalSnapshot::load(&dir) {
                state.cells_done = snap
                    .completed_cells(fingerprint)
                    .iter()
                    .filter(|(key, _)| shard_range.contains(key))
                    .count();
                if let Some(lease) = snap.lease(fingerprint, shard) {
                    if lease.generation == state.generation
                        && state.last_seq.is_none_or(|seen| lease.seq > seen)
                    {
                        state.last_seq = Some(lease.seq);
                        state.last_seen_ms = clock.now_ms();
                        emit(CampaignEvent::ShardHeartbeat {
                            shard,
                            generation: state.generation,
                            seq: lease.seq,
                            cells_done: state.cells_done,
                        });
                    }
                }
            }

            // Chaos kills target generation 0 only — the drill's crash,
            // delivered once the victim journalled enough cells.
            if state.generation == 0 {
                if let Some(pos) = kills
                    .iter()
                    .position(|k| k.shard == shard && state.cells_done >= k.after_cells)
                {
                    kills.remove(pos);
                    if let Some(handle) = &mut state.handle {
                        handle.kill();
                    }
                }
            }

            if state.cells_done >= state.expected {
                state.done = true;
                continue;
            }

            let loss = match state.handle.as_mut().map(|h| h.poll()) {
                Some(WorkerState::Exited { clean }) => {
                    Some(ShardLossReason::WorkerExited { clean })
                }
                _ if lease_expired(clock.now_ms(), state.last_seen_ms, lease_cfg.ttl_ms) => {
                    // Expired ≠ killed: the worker may be stalled, not
                    // dead, and a revived worker must stay harmless.
                    // Fencing — not force — keeps it out of the merge.
                    Some(ShardLossReason::LeaseExpired)
                }
                _ => None,
            };
            if let Some(reason) = loss {
                emit(CampaignEvent::ShardLost {
                    shard,
                    generation: state.generation,
                    reason,
                    cells_done: state.cells_done,
                });
                takeovers += 1;
                if takeovers > lease_cfg.max_takeovers {
                    gave_up = true;
                    continue;
                }
                let next = state.generation + 1;
                emit(CampaignEvent::ShardReassigned {
                    shard,
                    from_generation: state.generation,
                    to_generation: next,
                });
                if let Some(old) = state.handle.take() {
                    orphans.push(old);
                }
                state.generation = next;
                state.handle = launch(shard, next);
                state.last_seq = None;
                state.last_seen_ms = clock.now_ms();
            }
        }
        if all_done {
            break;
        }
        clock.sleep_ms(lease_cfg.poll_ms);
    }

    // Give completed workers a bounded grace period to exit (they only
    // have their stats record left to write), then reap what remains.
    let deadline = clock.now_ms().saturating_add(lease_cfg.ttl_ms);
    for state in &mut states {
        if let Some(handle) = &mut state.handle {
            while handle.poll() == WorkerState::Running && clock.now_ms() < deadline {
                clock.sleep_ms(lease_cfg.poll_ms);
            }
            if handle.poll() == WorkerState::Running {
                handle.kill();
            }
        }
    }
    for orphan in &mut orphans {
        if orphan.poll() == WorkerState::Running {
            orphan.kill();
        }
    }

    let merged = merge_shard_journals(&matrix, &root)
        .expect("supervisor verified journal coverage before merging");
    for info in &merged.shards {
        emit(CampaignEvent::ShardMerged {
            shard: info.shard,
            generation: info.generation,
            cells: info.cells,
            quarantined: info.quarantined,
        });
    }
    emit(CampaignEvent::CampaignFinished {
        cells_completed: cells_total,
        cells_total,
        cancelled: false,
    });
    CampaignOutcome {
        report: Some(merged.report),
        cancelled: false,
        cells_completed: cells_total,
        cells_total,
        cells_restored: merged.restored as usize,
        golden_failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_chaos_plans_are_deterministic_and_disjoint() {
        let a = ChaosPlan::seeded(42, 4, 2, 1, 500);
        let b = ChaosPlan::seeded(42, 4, 2, 1, 500);
        assert_eq!(a, b);
        assert_eq!(a.kills.len(), 2);
        assert_eq!(a.stalls.len(), 1);
        let mut victims: Vec<u32> = a.kills.iter().map(|k| k.shard).collect();
        victims.extend(a.stalls.iter().map(|(s, _)| *s));
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 3, "victims must be distinct shards");
        assert!(victims.iter().all(|&s| s < 4));
        assert_ne!(a, ChaosPlan::seeded(43, 4, 2, 1, 500));
    }

    #[test]
    fn seeded_chaos_clamps_to_available_shards() {
        let plan = ChaosPlan::seeded(7, 2, 3, 3, 100);
        assert_eq!(plan.kills.len() + plan.stalls.len(), 2);
    }

    #[test]
    fn in_process_handle_reports_exit() {
        let finished = Arc::new(AtomicBool::new(false));
        let mut handle = InProcessHandle {
            kill: Arc::new(AtomicBool::new(false)),
            finished: Arc::clone(&finished),
            clean: Arc::new(AtomicBool::new(true)),
        };
        assert_eq!(handle.poll(), WorkerState::Running);
        finished.store(true, Ordering::Release);
        assert_eq!(handle.poll(), WorkerState::Exited { clean: true });
        handle.kill();
        assert!(handle.kill.load(Ordering::Acquire));
    }
}
