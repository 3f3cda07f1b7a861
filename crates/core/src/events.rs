//! Campaign observability: typed progress events and cooperative
//! cancellation.
//!
//! A campaign is a long-running batch job; a server or TUI driving one
//! needs to stream progress and abort cleanly. [`CampaignObserver`] is
//! the callback seam — workers feed it typed [`CampaignEvent`]s as cells
//! start and finish — and [`CancelToken`] is the cooperative abort
//! switch, checked at cell boundaries so every started cell runs to
//! completion and the event stream stays well-formed:
//!
//! ```text
//! CampaignStarted
//!   (CellRestored)*                 — resumed runs: journalled cells, replayed up front
//!   [StoreDegraded]                 — at most once, if the store stops accepting writes
//!   (CellStarted → CellFinished)*   — one pair per freshly evaluated cell
//!     …SampleRetried / SampleDegraded interleave inside cells when a
//!     retry policy is active…
//! [CacheStats]                      — on completion, when caching is on
//! CampaignFinished { cancelled }
//! ```
//!
//! A golden design that fails to simulate ends the stream early: no cell
//! starts, and `CampaignFinished { cancelled: false }` follows the
//! restored cells.
//!
//! Sharded campaigns (`Campaign::builder().shards(n)`) emit a shard
//! lifecycle instead of per-cell pairs — the supervisor observes worker
//! journals from outside, so cell-level events stay inside the worker
//! processes:
//!
//! ```text
//! CampaignStarted
//!   (ShardStarted)*                 — one per shard, generation 0
//!   (ShardHeartbeat)*               — whenever a worker's lease seq advances
//!   (ShardLost → ShardReassigned → ShardStarted)*
//!                                   — per takeover: dead/stalled worker
//!                                     detected, next generation launched
//!   (ShardMerged)*                  — per shard, once its journal merges
//! CampaignFinished { cancelled }
//! ```
//!
//! Observer callbacks run on the campaign's workers (the calling thread
//! is worker 0), inline with evaluation — keep them cheap (push to a
//! channel, update atomics) and never block.

use crate::evaluate::EvalCacheStats;
use crate::passk::ProblemTally;
use picbench_synthllm::TransportErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation switch shared between a campaign and its
/// driver.
///
/// Cancellation is checked at `(problem × model × feedback)` cell
/// boundaries: cells already running finish normally (and emit their
/// [`CampaignEvent::CellFinished`]), no new cells start afterwards.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One typed progress event of a running campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The campaign accepted its inputs and is about to start workers.
    CampaignStarted {
        /// Number of problems in the matrix.
        problems: usize,
        /// Number of model providers in the matrix.
        providers: usize,
        /// Total `(problem × model × feedback)` cells to evaluate.
        cells: usize,
    },
    /// A worker claimed a cell and is about to evaluate it.
    CellStarted {
        /// Problem id of the cell.
        problem_id: String,
        /// Provider display name of the cell.
        model: String,
        /// Feedback-iteration setting of the cell.
        feedback_iters: usize,
    },
    /// A cell's samples all finished.
    CellFinished {
        /// Problem id of the cell.
        problem_id: String,
        /// Provider display name of the cell.
        model: String,
        /// Feedback-iteration setting of the cell.
        feedback_iters: usize,
        /// The cell's aggregated tally.
        tally: ProblemTally,
        /// Cells finished so far (this one included).
        completed: usize,
        /// Total cells in the campaign.
        total: usize,
    },
    /// A cell journalled by a previous run of the same campaign was
    /// restored from the persistent store without re-evaluating
    /// (resumed campaigns only; emitted before any worker starts).
    CellRestored {
        /// Problem id of the cell.
        problem_id: String,
        /// Provider display name of the cell.
        model: String,
        /// Feedback-iteration setting of the cell.
        feedback_iters: usize,
        /// The tally recorded by the previous run.
        tally: ProblemTally,
        /// Cells accounted for so far (restored ones included).
        completed: usize,
        /// Total cells in the campaign.
        total: usize,
    },
    /// The retry layer absorbed a transient transport failure and will
    /// re-attempt the sample's response (campaigns with a retry policy
    /// only).
    SampleRetried {
        /// Provider display name.
        model: String,
        /// Problem id of the affected sample.
        problem_id: String,
        /// Sample index within the cell.
        sample: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// How the failure was classified.
        kind: TransportErrorKind,
        /// Backoff consumed before the retry.
        backoff_ms: u64,
    },
    /// The retry layer gave up — fatal failure, attempts exhausted, or
    /// backoff budget spent — and the failure response degrades into
    /// the evaluation pipeline as a classified failure.
    SampleDegraded {
        /// Provider display name.
        model: String,
        /// Problem id of the affected sample.
        problem_id: String,
        /// Sample index within the cell.
        sample: u64,
        /// Attempts made, including the degrading one.
        attempts: u32,
        /// How the final failure was classified.
        kind: TransportErrorKind,
    },
    /// The persistent store hit a write error and disabled itself for
    /// the rest of the run; evaluation continues unjournalled. Emitted
    /// at most once per campaign.
    StoreDegraded {
        /// Write errors the store had observed when it degraded.
        write_errors: u64,
    },
    /// A shard worker was launched (sharded campaigns only).
    ShardStarted {
        /// Shard index in `0..shards`.
        shard: u32,
        /// Lease generation of the launched worker (0 on first launch,
        /// bumped by every reassignment).
        generation: u32,
        /// Cells assigned to this shard.
        cells: usize,
    },
    /// The supervisor observed a shard worker's lease advance (sharded
    /// campaigns only; emitted once per observed heartbeat, not per
    /// poll).
    ShardHeartbeat {
        /// Shard index.
        shard: u32,
        /// Lease generation of the worker that heartbeat.
        generation: u32,
        /// The lease sequence number observed.
        seq: u64,
        /// Cells visible in the shard's journal at observation time.
        cells_done: usize,
    },
    /// A shard worker was declared gone — its process exited without
    /// finishing, or its lease expired (sharded campaigns only).
    ShardLost {
        /// Shard index.
        shard: u32,
        /// Lease generation of the lost worker.
        generation: u32,
        /// Why the supervisor gave up on it.
        reason: ShardLossReason,
        /// Cells its journal held when it was declared lost — work the
        /// next generation inherits instead of redoing.
        cells_done: usize,
    },
    /// An orphaned shard was handed to a fresh worker under a new lease
    /// generation; journal writes from older generations are fenced out
    /// of the merge (sharded campaigns only).
    ShardReassigned {
        /// Shard index.
        shard: u32,
        /// The generation that was lost.
        from_generation: u32,
        /// The replacement generation about to start.
        to_generation: u32,
    },
    /// A shard's final-generation journal was folded into the campaign
    /// report (sharded campaigns only).
    ShardMerged {
        /// Shard index.
        shard: u32,
        /// The generation whose journal was merged.
        generation: u32,
        /// Cells the merged journal contributed.
        cells: usize,
        /// Journal records quarantined from stale (fenced) generations —
        /// writes that landed after a takeover.
        quarantined: usize,
    },
    /// Final counters of the shared evaluation cache (completion only).
    CacheStats(EvalCacheStats),
    /// The campaign stopped — normally or via cancellation.
    CampaignFinished {
        /// Cells that completed.
        cells_completed: usize,
        /// Total cells in the campaign.
        cells_total: usize,
        /// Whether the campaign was cut short by cancellation (a cancel
        /// request arriving after the last cell completed still counts
        /// as a normal finish).
        cancelled: bool,
    },
}

/// Why a shard worker was declared lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLossReason {
    /// The worker's lease stopped advancing for longer than the
    /// configured TTL — it may be dead *or merely stalled*; either way
    /// its generation is fenced and a replacement takes over.
    LeaseExpired,
    /// The worker process exited before covering its shard.
    WorkerExited {
        /// Whether the exit reported success (a clean exit with an
        /// incomplete journal is still a loss).
        clean: bool,
    },
}

/// A sink for [`CampaignEvent`]s.
///
/// Implemented for any `Fn(&CampaignEvent) + Send + Sync` closure, so a
/// channel sender or progress bar hooks in with one line:
///
/// ```
/// use picbench_core::{CampaignEvent, CampaignObserver};
/// use std::sync::mpsc;
///
/// let (tx, rx) = mpsc::channel();
/// let observer = move |event: &CampaignEvent| {
///     let _ = tx.send(event.clone());
/// };
/// observer.on_event(&CampaignEvent::CampaignStarted {
///     problems: 1,
///     providers: 1,
///     cells: 1,
/// });
/// assert_eq!(rx.try_iter().count(), 1);
/// ```
pub trait CampaignObserver: Send + Sync {
    /// Receives one event; called from the campaign's workers (the
    /// calling thread is worker 0), so it must not block.
    fn on_event(&self, event: &CampaignEvent);
}

impl<F: Fn(&CampaignEvent) + Send + Sync> CampaignObserver for F {
    fn on_event(&self, event: &CampaignEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn closures_are_observers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let observer = |_: &CampaignEvent| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        observer.on_event(&CampaignEvent::CacheStats(EvalCacheStats::default()));
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
