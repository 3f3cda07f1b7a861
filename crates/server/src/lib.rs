//! Benchmark-as-a-service: the PICBench campaign engine behind a
//! dependency-free HTTP/1.1 API.
//!
//! The crate turns the in-process session seams — typed
//! [`Campaign`](picbench_core::Campaign) construction, the
//! [`CampaignObserver`](picbench_core::CampaignObserver) event stream,
//! cooperative [`CancelToken`](picbench_core::CancelToken)
//! cancellation, and the shared
//! [`EvalCache`](picbench_core::EvalCache) — into a long-running
//! multi-tenant service:
//!
//! - [`server`] — the [`PicbenchServer`] itself: bounded worker pool
//!   over `std::net::TcpListener`, typed routes, graceful shutdown.
//! - [`wire`] — the canonical NDJSON encoding of
//!   [`CampaignEvent`](picbench_core::CampaignEvent)s. Deterministic,
//!   exactly invertible: server streams are byte-identical to the
//!   in-process observer sequence.
//! - [`session`] — the multi-tenant session table: append-only
//!   replayable event logs, structural tenant isolation, stream and
//!   capacity gauges.
//! - [`http`] — the minimal HTTP layer (sized request bodies,
//!   close-delimited streaming responses).
//! - [`client`] — a small blocking client; the load generator and the
//!   integration tests drive the server through it.
//! - [`pace`] — a response-pacing provider decorator, for holding many
//!   sessions open without perturbing results.
//!
//! Everything is `std`-only: no async runtime, no HTTP framework, no
//! new dependencies.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod pace;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{ApiClient, ApiResponse, EventStream};
pub use pace::PacedProvider;
pub use server::{PicbenchServer, ServerConfig, ServerHandle};
pub use session::{SessionState, SessionStats};
pub use wire::{decode_event, encode_event, WireError};
