//! The worker-side coord client: typed RPC wrappers over any
//! [`CoordTransport`], with deadlines inherited from the transport and
//! bounded, deterministically-jittered retry decided by the provider
//! layer's [`RetryPolicy::retry_after`], the workspace's one retry
//! schedule.
//!
//! Failure semantics mirror the provider stack: transient failures
//! (connection refused/reset, timeouts, 5xx replies, garbled bodies)
//! are retried with seeded exponential backoff until attempts or the
//! backoff budget run out; fatal failures (4xx — the request itself is
//! wrong) fail immediately. Lease and append wrappers degrade
//! gracefully on exhaustion ([`LeaseAdvance::Degraded`] /
//! [`AppendOutcome::Degraded`]) so a partitioned worker winds down the
//! same way a worker with a failing local disk does.

use crate::proto::{
    AppendOutcome, AppendRequest, CellsRequest, CoordState, LeaseRequest, StateRequest,
};
use crate::transport::CoordTransport;
use crate::{proto, WireReply};
use picbench_core::{LeaseAdvance, LeaseRecord, ProblemTally};
use picbench_synthllm::{Jitter, RetryPolicy, TransportErrorKind};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters of retry-layer decisions a [`CoordClient`] made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// RPCs that succeeded (after zero or more retries).
    pub calls: u64,
    /// Individual retry attempts made after transient failures.
    pub retries: u64,
    /// RPCs that exhausted attempts/budget or hit a fatal failure.
    pub failures: u64,
}

/// A coord RPC client over any transport, with deterministic bounded
/// retry.
pub struct CoordClient {
    transport: Arc<dyn CoordTransport>,
    policy: RetryPolicy,
    /// Jitter stream, shared across calls (per-client determinism;
    /// cross-thread interleaving only reorders draws from one stream).
    jitter: Jitter,
    calls: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
}

impl CoordClient {
    /// A client retrying under `policy` (chaos drills stretch
    /// attempts/budget to ride out scheduled partitions).
    pub fn with_policy(transport: Arc<dyn CoordTransport>, policy: RetryPolicy) -> Self {
        CoordClient {
            transport,
            policy,
            jitter: Jitter::new(policy.seed),
            calls: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Retry-layer counters so far.
    pub fn counters(&self) -> ClientCounters {
        ClientCounters {
            calls: self.calls.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// One RPC with bounded retry. Returns the parsed 200-reply JSON,
    /// or the last error once attempts/budget are exhausted or a fatal
    /// (4xx) reply arrives.
    fn rpc(&self, op: &str, body: &str) -> io::Result<picbench_netlist::json::Value> {
        let mut attempt = 1u32;
        let mut budget_left = self.policy.budget_ms;
        loop {
            let (kind, err) = match self.transport.call(op, body) {
                Ok(reply) => match classify_reply(op, &reply) {
                    Ok(value) => {
                        self.calls.fetch_add(1, Ordering::Relaxed);
                        return Ok(value);
                    }
                    Err((kind, err)) => (kind, err),
                },
                Err(err) => (TransportErrorKind::from_io(&err), err),
            };
            let retry = self
                .policy
                .retry_after(attempt, kind, &mut budget_left, &self.jitter);
            if retry.is_none() {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    /// Claims/renews a shard lease on the coordinator. RPC failure
    /// (partition outlasting the retry budget) degrades — the worker
    /// winds down and the supervisor reassigns after lease expiry.
    pub fn advance_lease(&self, fingerprint: u64, shard: u32, lease: &LeaseRecord) -> LeaseAdvance {
        let body = LeaseRequest {
            fingerprint,
            shard,
            lease: *lease,
        }
        .encode();
        match self.rpc("lease", &body) {
            Ok(value) => proto::decode_lease_reply(&value).unwrap_or(LeaseAdvance::Degraded),
            Err(_) => LeaseAdvance::Degraded,
        }
    }

    /// Ships a record batch. Delivery failure after retries degrades;
    /// the batch stays pending on the worker side.
    pub fn append(&self, req: &AppendRequest) -> AppendOutcome {
        match self.rpc("append", &req.encode()) {
            Ok(value) => proto::decode_append_reply(&value).unwrap_or(AppendOutcome::Degraded),
            Err(_) => AppendOutcome::Degraded,
        }
    }

    /// Fetches the completed cells of `(shard, generation)` — the
    /// remote analogue of reading the prior generation's journal for
    /// inheritance.
    ///
    /// # Errors
    ///
    /// The last transport error once retries are exhausted, or a decode
    /// failure on a malformed reply.
    pub fn fetch_cells(
        &self,
        fingerprint: u64,
        shard: u32,
        generation: u32,
    ) -> io::Result<Vec<(u64, ProblemTally)>> {
        let body = CellsRequest {
            fingerprint,
            shard,
            generation,
        }
        .encode();
        let value = self.rpc("cells", &body)?;
        proto::decode_cells_reply(&value)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.0))
    }

    /// Fetches the coordinator's merged view of the campaign.
    ///
    /// # Errors
    ///
    /// The last transport error once retries are exhausted, or a decode
    /// failure on a malformed reply.
    pub fn fetch_state(&self, fingerprint: u64) -> io::Result<CoordState> {
        let value = self.rpc("state", &StateRequest { fingerprint }.encode())?;
        proto::decode_state_reply(&value)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.0))
    }
}

/// Classifies a delivered reply: 200 parses to JSON (parse failure is a
/// garbled body — transient, the coordinator is healthy enough to
/// answer), 4xx is fatal (the request is wrong; retrying resends the
/// same bytes), everything else transient.
fn classify_reply(
    op: &str,
    reply: &WireReply,
) -> Result<picbench_netlist::json::Value, (TransportErrorKind, io::Error)> {
    if reply.status == 200 {
        return match picbench_netlist::json::parse(&reply.body) {
            Ok(value) => Ok(value),
            Err(_) => Err((
                TransportErrorKind::Garbled,
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("garbled coord `{op}` reply body"),
                ),
            )),
        };
    }
    let kind = if (400..500).contains(&reply.status) {
        TransportErrorKind::Fatal
    } else {
        TransportErrorKind::TransientIo
    };
    Err((
        kind,
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("coord `{op}` returned {}: {}", reply.status, reply.body),
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Scripted transport: pops the next response per call.
    struct ScriptedTransport {
        script: Mutex<Vec<io::Result<WireReply>>>,
    }

    impl ScriptedTransport {
        fn new(mut script: Vec<io::Result<WireReply>>) -> Self {
            script.reverse();
            ScriptedTransport {
                script: Mutex::new(script),
            }
        }
    }

    impl CoordTransport for ScriptedTransport {
        fn call(&self, _op: &str, _body: &str) -> io::Result<WireReply> {
            self.script
                .lock()
                .unwrap()
                .pop()
                .unwrap_or_else(|| Err(io::Error::other("script exhausted")))
        }
    }

    fn ok(body: &str) -> io::Result<WireReply> {
        Ok(WireReply {
            status: 200,
            body: body.to_string(),
        })
    }

    fn refused() -> io::Result<WireReply> {
        Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            budget_ms: 1_000,
            sleep: false,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let transport = Arc::new(ScriptedTransport::new(vec![
            refused(),
            Ok(WireReply {
                status: 503,
                body: "{\"error\":\"store unavailable\"}".to_string(),
            }),
            ok("{\"outcome\":\"applied\"}"),
        ]));
        let client = CoordClient::with_policy(transport, fast_policy());
        let req = AppendRequest {
            fingerprint: 7,
            shard: 0,
            generation: 0,
            seq: 0,
            sync: false,
            records: Vec::new(),
        };
        assert_eq!(client.append(&req), AppendOutcome::Applied);
        let counters = client.counters();
        assert_eq!(counters.calls, 1);
        assert_eq!(counters.retries, 2);
        assert_eq!(counters.failures, 0);
    }

    #[test]
    fn fatal_replies_fail_without_retry() {
        let transport = Arc::new(ScriptedTransport::new(vec![
            Ok(WireReply {
                status: 400,
                body: "{\"error\":\"bad body\"}".to_string(),
            }),
            ok("{\"outcome\":\"applied\"}"),
        ]));
        let client = CoordClient::with_policy(transport, fast_policy());
        assert!(client.fetch_state(7).is_err(), "400 must not be retried");
        assert_eq!(client.counters().failures, 1);
        assert_eq!(client.counters().retries, 0);
    }

    #[test]
    fn exhausted_attempts_degrade_lease_to_degraded() {
        let transport = Arc::new(ScriptedTransport::new(vec![
            refused(),
            refused(),
            refused(),
            refused(),
            refused(),
        ]));
        let client = CoordClient::with_policy(transport, fast_policy());
        let lease = LeaseRecord {
            generation: 0,
            worker: 1,
            seq: 1,
            stamp_ms: 0,
        };
        assert_eq!(client.advance_lease(7, 0, &lease), LeaseAdvance::Degraded);
        let counters = client.counters();
        assert_eq!(counters.failures, 1);
        assert_eq!(counters.retries, 3, "4 attempts = 3 retries");
    }

    #[test]
    fn garbled_bodies_are_transient() {
        let transport = Arc::new(ScriptedTransport::new(vec![
            ok("{not json"),
            ok("{\"outcome\":\"duplicate\"}"),
        ]));
        let client = CoordClient::with_policy(transport, fast_policy());
        let req = AppendRequest {
            fingerprint: 7,
            shard: 0,
            generation: 0,
            seq: 0,
            sync: false,
            records: Vec::new(),
        };
        assert_eq!(client.append(&req), AppendOutcome::Duplicate);
        assert_eq!(client.counters().retries, 1);
    }

    #[test]
    fn backoff_is_seeded_and_bounded() {
        let transport = Arc::new(ScriptedTransport::new(Vec::new()));
        let client = CoordClient::with_policy(
            transport,
            RetryPolicy {
                max_attempts: 7,
                base_backoff_ms: 100,
                max_backoff_ms: 400,
                seed: 9,
                ..fast_policy()
            },
        );
        // Pinned: the retry decisions `rpc` takes, each within ±25 % of
        // 100·2ⁿ ≤ 400 ms.
        let (kind, mut budget) = (TransportErrorKind::TransientIo, u64::MAX);
        for (attempt, pinned) in (1..).zip([104, 153, 414, 308, 492, 418]) {
            let retry = client
                .policy
                .retry_after(attempt, kind, &mut budget, &client.jitter);
            assert_eq!(retry, Some(pinned), "attempt {attempt}");
        }
    }
}
