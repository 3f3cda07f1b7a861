//! # picbench-core
//!
//! The PICBench evaluation framework — the paper's primary contribution,
//! reproduced end to end:
//!
//! * [`Evaluator`] — syntax checking (extract → parse → validate →
//!   simulate) and functionality checking (frequency-response comparison
//!   against the golden design), §III-C;
//! * [`classify`] — the error-classification loop mapping raw failures
//!   onto the Table II taxonomy, §III-D;
//! * [`run_sample`] — the error-feedback loop (Fig. 1/Fig. 4), §III-E;
//! * [`pass_at_k`] / [`aggregate_pass_at_k`] — the unbiased Pass@k
//!   estimator (Eq. 1);
//! * [`Campaign::builder`] — the session API behind Tables III and IV:
//!   problems × pluggable [`ModelProvider`]s × feedback settings, with
//!   typed progress events ([`CampaignObserver`]) and cooperative
//!   cancellation ([`CancelToken`]);
//! * [`render_table`] / [`render_csv`] — paper-layout reporting.
//!
//! The evaluator's cached, canonical pipeline is continuously verified
//! by the `picbench-conformance` crate (re-exported as
//! `picbench::conformance`): generated circuits are swept through
//! cached-vs-uncached and raw-vs-canonical evaluation — among other
//! differential axes — and must agree bit for bit. It depends on this
//! crate, which is why the re-export lives one level up in the umbrella
//! crate.
//!
//! ## Example: a streaming campaign session
//!
//! ```
//! use picbench_core::{Campaign, CampaignEvent};
//! use picbench_synthllm::ModelProfile;
//! use std::sync::mpsc;
//!
//! let (events, progress) = mpsc::channel();
//! let campaign = Campaign::builder()
//!     .problem(picbench_problems::find("mzi-ps").unwrap())
//!     .profiles(&[ModelProfile::claude35_sonnet()])
//!     .samples_per_problem(2)
//!     .k_values([1])
//!     .feedback_iters([0, 1])
//!     .observer(std::sync::Arc::new(move |event: &CampaignEvent| {
//!         let _ = events.send(event.clone());
//!     }))
//!     .build()?;
//! let report = campaign.run();
//! assert_eq!(report.cells.len(), 2); // 1 model × 2 feedback settings × 1 k
//! let finished = progress
//!     .try_iter()
//!     .filter(|e| matches!(e, CampaignEvent::CellFinished { .. }))
//!     .count();
//! assert_eq!(finished, 2); // one per (problem × model × feedback) cell
//! # Ok::<(), picbench_core::CampaignBuildError>(())
//! ```
//!
//! [`ModelProvider`]: picbench_synthllm::ModelProvider

#![warn(missing_docs)]

mod campaign;
pub mod classify;
mod evaluate;
mod events;
mod feedback_loop;
pub mod journal;
mod lease;
mod passk;
pub mod persist;
mod report;
mod shard;
mod stats;
pub mod supervisor;

pub use campaign::{
    Campaign, CampaignBuildError, CampaignBuilder, CampaignConfig, CampaignOutcome, CampaignReport,
    CellScore, ConditionTallies, GoldenFailure,
};
pub use evaluate::{
    CacheScope, EvalCache, EvalCacheStats, EvalReport, Evaluator, Golden,
    DEFAULT_FUNCTIONAL_TOLERANCE,
};
pub use events::{CampaignEvent, CampaignObserver, CancelToken, ShardLossReason};
pub use feedback_loop::{run_sample, AttemptRecord, LoopConfig, SampleResult};
pub use journal::{CellJournal, LocalShardJournal, ShardJournal};
pub use lease::{lease_expired, Clock, LeaseConfig, SystemClock, TestClock};
pub use passk::{aggregate_pass_at_k, pass_at_k, ProblemTally};
pub use persist::{
    EvalSnapshot, EvalStore, EvalStoreStats, LeaseAdvance, LeaseRecord, ShardGenStats,
    SharedEvalStore,
};
pub use shard::{
    collect_shard_cells, shard_journal_dir, ShardCells, ShardMergeError, ShardMergeInfo,
    ShardMergeOutcome, ShardPlan,
};
pub use supervisor::{
    run_shard_worker, run_shard_worker_with, ChaosKill, ChaosPlan, InProcessLauncher,
    ProcessLauncher, ShardLauncher, ShardWorkerConfig, ShardWorkerHandle, ShardWorkerReport,
    ShardWorkload, WorkerFault, WorkerRequest, WorkerStall, WorkerState,
};
// Retry-layer types surface in `CampaignConfig` and `CampaignEvent`;
// re-exported so campaign drivers need only this crate.
pub use picbench_synthllm::{RetryEvent, RetryPolicy, RetryProvider, TransportErrorKind};
pub use report::{render_csv, render_table};
pub use stats::{collect_error_histogram, restriction_ablation, AblationRow, ErrorHistogram};
