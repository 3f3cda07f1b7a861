//! Network coordination for multi-machine PICBench campaigns.
//!
//! PR 7's sharded campaigns assumed every worker shared a filesystem
//! with the supervisor. This crate removes that assumption: shard
//! workers can run on machines that share only TCP reachability to a
//! *coordinator*, which is the single owner of the campaign's journal
//! directories.
//!
//! The pieces, worker-side to coordinator-side:
//!
//! - [`RemoteJournal`] — a [`ShardJournal`](picbench_core::ShardJournal)
//!   implementation that ships lease advances and record batches over a
//!   transport instead of writing a local store. The worker body is
//!   byte-for-byte the PR 7 one.
//! - [`CoordClient`] — typed RPCs with deadlines and bounded,
//!   deterministically-jittered retry under the workspace's one retry
//!   schedule, [`RetryPolicy`](picbench_synthllm::RetryPolicy).
//! - [`CoordTransport`] — the delivery seam: [`HttpTransport`] for real
//!   sockets, [`LoopbackTransport`] for in-process tests, and
//!   [`FaultyTransport`] executing a deterministic [`NetFaultPlan`]
//!   (drops, delays, duplicated deliveries, partitions) against either.
//!   [`write_request`] and [`read_response`] are the one HTTP/1.1 client
//!   exchange, shared with the service's `ApiClient`.
//! - [`Coordinator`] — applies lease/append/cells/state operations to
//!   the same per-`(shard, generation)` `EvalStore` directories a local
//!   worker would write, with exactly-once append dedup that survives
//!   coordinator restarts. The supervisor polls those directories
//!   unchanged.
//! - [`RemoteLauncher`] — a
//!   [`ShardLauncher`](picbench_core::ShardLauncher) arming worker
//!   processes with `--transport http --coord-addr`, so the PR 7
//!   supervisor drives remote workers without modification.

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod proto;
pub mod remote;
pub mod transport;

pub use client::{ClientCounters, CoordClient};
pub use coordinator::{CoordReply, Coordinator};
pub use proto::{
    AppendOutcome, AppendRequest, CellsRequest, CoordCounters, CoordState, LeaseRequest,
    ProtoError, RecordMsg, ShardStateMsg, StateRequest,
};
pub use remote::{RemoteJournal, RemoteLauncher};
pub use transport::{
    read_response, read_response_head, write_request, CoordTransport, FaultyTransport,
    HttpTransport, InjectedFaults, LoopbackTransport, NetFaultPlan, WireReply,
    MAX_RESPONSE_BODY_BYTES,
};
