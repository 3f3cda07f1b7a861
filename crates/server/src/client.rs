//! A small blocking HTTP client for the benchmark service.
//!
//! Deliberately *not* general: it speaks exactly the dialect the server
//! serves (one request per connection, sized JSON responses,
//! close-delimited NDJSON streams). The load generator and the
//! integration tests both drive the server through it, so what CI
//! measures is the same path a real client takes. Requests go through
//! the coord crate's HTTP/1.1 exchange ([`write_request`],
//! [`read_response`]) and retry under the provider layer's
//! [`RetryPolicy`] schedule, like `CoordClient` and `RetryProvider`.

use picbench_coord::{read_response, read_response_head, write_request};
use picbench_synthllm::{Jitter, RetryPolicy, TransportErrorKind, PAPER_SEED};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A buffered (non-streaming) HTTP response: the reply type of the
/// shared exchange.
pub use picbench_coord::WireReply as ApiResponse;

/// A live NDJSON event stream (`GET /v1/campaigns/{id}/events`).
#[derive(Debug)]
pub struct EventStream {
    /// HTTP status of the stream response (200 for an actual stream).
    pub status: u16,
    reader: BufReader<TcpStream>,
}

impl EventStream {
    /// Blocks for the next event line. `None` means the server closed
    /// the stream — the campaign finished (or was cancelled and drained).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Drains the stream to completion, collecting every line.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn collect_lines(mut self) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        while let Some(line) = self.next_line()? {
            lines.push(line);
        }
        Ok(lines)
    }
}

/// The retry policy of idempotent requests (`GET`s, stream opens), so a
/// refused connection during a server restart or bring-up does not fail
/// a load run. `POST`s and `DELETE`s are never retried — a campaign
/// submission that timed out may still have been admitted.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    base_backoff_ms: 25,
    max_backoff_ms: 400,
    budget_ms: 1_000,
    seed: PAPER_SEED,
    sleep: true,
};

/// A blocking client bound to one server address and one tenant.
#[derive(Debug, Clone)]
pub struct ApiClient {
    addr: SocketAddr,
    tenant: Option<String>,
    jitter: Arc<Jitter>,
    retries: Arc<AtomicU64>,
}

impl ApiClient {
    /// A client for the server at `addr` (default tenant).
    pub fn new(addr: SocketAddr) -> Self {
        ApiClient {
            addr,
            tenant: None,
            jitter: Arc::new(Jitter::new(RETRY.seed)),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Scopes every request to `tenant` (the `x-picbench-tenant`
    /// header).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Transient-failure retries performed so far, across this client
    /// and its clones.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Runs an idempotent operation under [`RETRY`]. An HTTP status is
    /// an answer, not a failed delivery, so only IO errors retry.
    fn with_retries<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 1u32;
        let mut budget_left = RETRY.budget_ms;
        loop {
            let err = match op() {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let kind = TransportErrorKind::from_io(&err);
            RETRY
                .retry_after(attempt, kind, &mut budget_left, &self.jitter)
                .ok_or(err)?;
            self.retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    /// Connects and writes one request, returning the reader of its
    /// response. No read deadline: event streams legitimately idle
    /// between paced events.
    fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<BufReader<TcpStream>> {
        let mut stream = TcpStream::connect(self.addr)?;
        let tenant = self.tenant.as_deref().map(|t| ("x-picbench-tenant", t));
        write_request(
            &mut stream,
            method,
            path,
            "picbench",
            tenant.as_slice(),
            body,
        )?;
        Ok(BufReader::new(stream))
    }

    /// Sends one request and buffers the whole response. `GET`s retry
    /// failed deliveries with bounded seeded backoff; other methods get
    /// exactly one attempt (a lost response does not prove the request
    /// was not applied).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (after retries, for `GET`s),
    /// including a truncated response or a body over
    /// [`MAX_RESPONSE_BODY_BYTES`](picbench_coord::MAX_RESPONSE_BODY_BYTES).
    pub fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<ApiResponse> {
        let exchange = || read_response(&mut self.send(method, path, body)?);
        if method == "GET" {
            self.with_retries(exchange)
        } else {
            exchange()
        }
    }

    /// Opens an event stream; the caller reads lines until `None`.
    /// Opening is idempotent (the stream replays from the start), so
    /// failed deliveries are retried like `GET`s.
    ///
    /// # Errors
    ///
    /// Propagates transport failures after retries.
    pub fn open_stream(&self, path: &str) -> io::Result<EventStream> {
        self.with_retries(|| {
            let mut reader = self.send("GET", path, None)?;
            let (status, _) = read_response_head(&mut reader)?;
            Ok(EventStream { status, reader })
        })
    }
}
