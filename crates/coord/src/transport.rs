//! How coord requests travel: a transport seam with a loopback
//! implementation (tests, in-process drills), a real HTTP client with
//! per-attempt deadlines, and a deterministic fault injector that makes
//! every network failure — drop, delay, duplicate, partition —
//! reproducible in-process, scheduled like a
//! [`ChaosPlan`](picbench_core::ChaosPlan).
//!
//! The HTTP/1.1 client exchange — [`write_request`], then
//! [`read_response`] (or [`read_response_head`] for a stream) — is the
//! one the service's `ApiClient` speaks too.

use crate::coordinator::{CoordReply, Coordinator};
use picbench_store::xorshift64;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What came back from one coord call: status code plus JSON body (the
/// transport-level mirror of [`CoordReply`]).
pub type WireReply = CoordReply;

/// Carries one coord operation to the coordinator and returns its
/// reply. An `Err` is a *delivery* failure (connection refused, reset,
/// timed out) — the caller cannot know whether the coordinator applied
/// the request, which is exactly why the append protocol dedupes.
pub trait CoordTransport: Send + Sync {
    /// Delivers `op` (one of `lease` / `append` / `cells` / `state`)
    /// with a JSON `body`.
    ///
    /// # Errors
    ///
    /// IO errors for failed or interrupted deliveries.
    fn call(&self, op: &str, body: &str) -> io::Result<WireReply>;
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// Calls a [`Coordinator`] in-process — no sockets, no serialization of
/// failure modes. The substrate the fault injector wraps in tests.
pub struct LoopbackTransport {
    coordinator: Arc<Coordinator>,
}

impl LoopbackTransport {
    /// A transport delivering straight into `coordinator`.
    pub fn new(coordinator: Arc<Coordinator>) -> Self {
        LoopbackTransport { coordinator }
    }
}

impl CoordTransport for LoopbackTransport {
    fn call(&self, op: &str, body: &str) -> io::Result<WireReply> {
        Ok(self.coordinator.handle(op, body))
    }
}

// ---------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------

/// The real thing: one short-lived HTTP/1.1 `POST /v1/coord/{op}` per
/// call, with connect/read/write deadlines so a dead coordinator costs
/// a bounded wait, never a hang.
#[derive(Debug, Clone)]
pub struct HttpTransport {
    addr: SocketAddr,
    deadline: Duration,
}

impl HttpTransport {
    /// A transport to the coordinator at `addr`; every phase of a call
    /// (connect, write, read) gets `deadline` before it fails with
    /// [`io::ErrorKind::TimedOut`]-class errors.
    pub fn new(addr: SocketAddr, deadline: Duration) -> Self {
        HttpTransport { addr, deadline }
    }
}

impl CoordTransport for HttpTransport {
    fn call(&self, op: &str, body: &str) -> io::Result<WireReply> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.deadline)?;
        stream.set_read_timeout(Some(self.deadline))?;
        stream.set_write_timeout(Some(self.deadline))?;
        write_request(
            &mut stream,
            "POST",
            &format!("/v1/coord/{op}"),
            &self.addr.to_string(),
            &[],
            Some(body),
        )?;
        read_response(&mut BufReader::new(stream))
    }
}

/// Largest response body [`read_response`] buffers; a peer declaring
/// or sending more gets [`io::ErrorKind::InvalidData`].
pub const MAX_RESPONSE_BODY_BYTES: u64 = 64 << 20;

/// Largest response head (status line plus headers) the reader accepts.
const MAX_RESPONSE_HEAD_BYTES: u64 = 64 << 10;

/// Writes one HTTP/1.1 request asking the peer to close the connection
/// after its response. `headers` are extra `(name, value)` lines; a
/// `body` is sent as sized JSON. The request goes out in one write, so
/// a short body never waits on a delayed ACK.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> io::Result<()> {
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n");
    for (name, value) in headers {
        let _ = write!(request, "{name}: {value}\r\n");
    }
    if let Some(body) = body {
        let len = body.len();
        let _ = write!(
            request,
            "Content-Type: application/json\r\nContent-Length: {len}\r\n"
        );
    }
    request.push_str("\r\n");
    request.push_str(body.unwrap_or(""));
    stream.write_all(request.as_bytes())?;
    stream.flush()
}

/// Reads a response's status line and headers, returning the status
/// code and the declared `Content-Length`, if any. The reader is left
/// at the first body byte.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the peer closes before the
/// blank line that ends the head; [`io::ErrorKind::InvalidData`] for a
/// malformed status line or `Content-Length`, or a head over 64 KiB.
pub fn read_response_head(reader: &mut impl BufRead) -> io::Result<(u16, Option<u64>)> {
    let mut head = reader.take(MAX_RESPONSE_HEAD_BYTES);
    let status_line = read_head_line(&mut head)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid_data(format!("malformed status line: {status_line:?}")))?;
    let mut content_length = None;
    loop {
        let line = read_head_line(&mut head)?;
        if line.is_empty() {
            return Ok((status, content_length));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let len = value.trim().parse().map_err(|_| {
                    invalid_data(format!("malformed Content-Length: {:?}", value.trim()))
                })?;
                content_length = Some(len);
            }
        }
    }
}

/// Reads one whole response: the head, then a body sized by
/// `Content-Length` or, without one, delimited by the peer closing.
///
/// # Errors
///
/// The errors of [`read_response_head`]; [`io::ErrorKind::InvalidData`]
/// for a body over [`MAX_RESPONSE_BODY_BYTES`] or not UTF-8;
/// [`io::ErrorKind::UnexpectedEof`] when a sized body is cut short.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<WireReply> {
    let (status, content_length) = read_response_head(reader)?;
    let cap = MAX_RESPONSE_BODY_BYTES;
    let mut body = Vec::new();
    // A close-delimited body is read one byte past the cap to detect an
    // overrun; a declared length over the cap is not read at all.
    if content_length.is_none_or(|len| len <= cap) {
        reader
            .take(content_length.unwrap_or(cap + 1))
            .read_to_end(&mut body)?;
    }
    let read = body.len() as u64;
    if content_length.unwrap_or(read) > cap {
        return Err(invalid_data(format!("response body exceeds {cap} bytes")));
    }
    if content_length.is_some_and(|len| read < len) {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    let body = String::from_utf8(body).map_err(|_| invalid_data("non-UTF-8 body".into()))?;
    Ok(WireReply { status, body })
}

/// One CRLF-terminated head line, terminator stripped.
fn read_head_line(head: &mut Take<impl BufRead>) -> io::Result<String> {
    let mut line = String::new();
    head.read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Err(if head.limit() == 0 {
            invalid_data(format!(
                "response head exceeds {MAX_RESPONSE_HEAD_BYTES} bytes"
            ))
        } else {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-head")
        });
    }
    line.truncate(line.trim_end().len());
    Ok(line)
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// The deterministic network-fault schedule a [`FaultyTransport`]
/// executes, keyed by *call index* (the Nth `call` on the transport) —
/// the analogue of a [`ChaosPlan`](picbench_core::ChaosPlan) for the
/// wire. The schedule is data, so the same plan always injects the same
/// faults at the same protocol points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// `(call index, hold_ms)`: when the index-th call starts, the
    /// coordinator becomes unreachable for `hold_ms` of wall clock —
    /// that call and every call inside the window fail without
    /// delivery. A hold longer than the lease TTL forces a
    /// reassignment.
    pub partitions: Vec<(u64, u64)>,
    /// Call indexes whose delivery is dropped (error, nothing sent).
    pub drops: Vec<u64>,
    /// `(call index, delay_ms)`: deliveries held this long first.
    pub delays: Vec<(u64, u64)>,
    /// Deliver every `period`-th call *twice* — the duplicate arrives
    /// right after the original, and the coordinator must dedupe it.
    pub duplicate_period: Option<u64>,
}

impl NetFaultPlan {
    /// The empty schedule (a transparent [`FaultyTransport`]).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// A deterministic schedule drawn from `seed`: `partitions`
    /// partition windows of `hold_ms` and `drops` dropped deliveries at
    /// distinct call indexes in `[first_op, first_op + span)`, plus an
    /// optional duplicate period. The same seed always builds the same
    /// schedule.
    pub fn seeded(
        seed: u64,
        first_op: u64,
        span: u64,
        partitions: usize,
        hold_ms: u64,
        drops: usize,
        duplicate_period: Option<u64>,
    ) -> Self {
        let mut rng = (seed << 1) | 1;
        let mut draw = move |bound: u64| {
            rng = xorshift64(rng);
            rng % bound.max(1)
        };
        let span = span.max(1);
        let mut ops: Vec<u64> = Vec::new();
        let wanted = (partitions + drops).min(span as usize);
        while ops.len() < wanted {
            let op = first_op + draw(span);
            if !ops.contains(&op) {
                ops.push(op);
            }
        }
        let mut plan = NetFaultPlan {
            duplicate_period: duplicate_period.filter(|p| *p > 0),
            ..NetFaultPlan::default()
        };
        for (i, &op) in ops.iter().enumerate() {
            if i < partitions.min(ops.len()) {
                plan.partitions.push((op, hold_ms));
            } else {
                plan.drops.push(op);
            }
        }
        plan
    }
}

/// Counters of the faults a [`FaultyTransport`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Partition windows opened.
    pub partitions: u64,
    /// Calls failed inside a partition window (including the opener).
    pub partitioned_calls: u64,
    /// Deliveries dropped.
    pub drops: u64,
    /// Deliveries delayed.
    pub delays: u64,
    /// Duplicate deliveries sent.
    pub duplicates: u64,
}

/// Wraps any transport and executes a [`NetFaultPlan`] against it — the
/// in-process seam that makes partitions, duplicated deliveries, drops
/// and delays reproducible without touching a real network stack.
pub struct FaultyTransport {
    inner: Arc<dyn CoordTransport>,
    plan: NetFaultPlan,
    calls: AtomicU64,
    partition_until: Mutex<Option<Instant>>,
    partitions: AtomicU64,
    partitioned_calls: AtomicU64,
    drops: AtomicU64,
    delays: AtomicU64,
    duplicates: AtomicU64,
}

impl FaultyTransport {
    /// A fault-injecting wrapper over `inner` executing `plan`.
    pub fn new(inner: Arc<dyn CoordTransport>, plan: NetFaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            calls: AtomicU64::new(0),
            partition_until: Mutex::new(None),
            partitions: AtomicU64::new(0),
            partitioned_calls: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            partitions: self.partitions.load(Ordering::Relaxed),
            partitioned_calls: self.partitioned_calls.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
        }
    }

    /// Total calls attempted through this transport (retries included).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl CoordTransport for FaultyTransport {
    fn call(&self, op: &str, body: &str) -> io::Result<WireReply> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        {
            let mut until = self.partition_until.lock().expect("partition poisoned");
            if let Some(&(_, hold_ms)) = self.plan.partitions.iter().find(|(o, _)| *o == index) {
                *until = Some(Instant::now() + Duration::from_millis(hold_ms));
                self.partitions.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(deadline) = *until {
                if Instant::now() < deadline {
                    self.partitioned_calls.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "injected network partition",
                    ));
                }
                *until = None;
            }
        }
        if self.plan.drops.contains(&index) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected delivery drop",
            ));
        }
        if let Some(&(_, delay_ms)) = self.plan.delays.iter().find(|(o, _)| *o == index) {
            self.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        let reply = self.inner.call(op, body)?;
        if self
            .plan
            .duplicate_period
            .is_some_and(|p| p > 0 && index % p == p - 1)
        {
            // Second delivery of the same request: the coordinator sees
            // it as a replay and must answer `duplicate`, not reapply.
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            let _ = self.inner.call(op, body);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingTransport {
        calls: AtomicU64,
    }

    impl CoordTransport for CountingTransport {
        fn call(&self, _op: &str, _body: &str) -> io::Result<WireReply> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(WireReply {
                status: 200,
                body: "{}".to_string(),
            })
        }
    }

    fn read(response: impl Read) -> io::Result<WireReply> {
        read_response(&mut BufReader::new(response))
    }

    #[test]
    fn responses_parse_sized_and_close_delimited_bodies() {
        let sized = read(&b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}tail"[..]).unwrap();
        assert_eq!((sized.status, sized.body.as_str()), (200, "{}"));
        let closed = read(&b"HTTP/1.1 503 Unavailable\r\nX: y\r\n\r\n{}"[..]).unwrap();
        assert_eq!((closed.status, closed.body.as_str()), (503, "{}"));
    }

    #[test]
    fn malformed_truncated_or_endless_responses_are_typed_errors() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        let ok = "HTTP/1.1 200 OK\r\n";
        let cases = [
            ("", UnexpectedEof),
            (ok, UnexpectedEof),
            (
                "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
                UnexpectedEof,
            ),
            ("garbage\r\n\r\n", InvalidData),
            ("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", InvalidData),
        ];
        for (response, kind) in cases {
            assert_eq!(
                read(response.as_bytes()).unwrap_err().kind(),
                kind,
                "{response:?}"
            );
        }
        let non_utf8 = io::Cursor::new(format!("{ok}\r\n")).chain(&[0xffu8][..]);
        // Endless peers stop at the head and body caps.
        let endless_head = io::Cursor::new(format!("{ok}X-Pad: ")).chain(io::repeat(b'x'));
        let endless_body = io::Cursor::new(format!("{ok}\r\n")).chain(io::repeat(b'x'));
        assert_eq!(read(non_utf8).unwrap_err().kind(), InvalidData);
        assert_eq!(read(endless_head).unwrap_err().kind(), InvalidData);
        assert_eq!(read(endless_body).unwrap_err().kind(), InvalidData);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = NetFaultPlan::seeded(9, 2, 10, 2, 500, 1, Some(5));
        let b = NetFaultPlan::seeded(9, 2, 10, 2, 500, 1, Some(5));
        assert_eq!(a, b);
        assert_eq!(a.partitions.len(), 2);
        assert_eq!(a.drops.len(), 1);
        assert_eq!(a.duplicate_period, Some(5));
        let mut ops: Vec<u64> = a.partitions.iter().map(|(o, _)| *o).collect();
        ops.extend(&a.drops);
        assert!(ops.iter().all(|&o| (2..12).contains(&o)));
        ops.sort_unstable();
        ops.dedup();
        assert_eq!(ops.len(), 3, "fault ops must be distinct");
        assert_ne!(a, NetFaultPlan::seeded(10, 2, 10, 2, 500, 1, Some(5)));
    }

    #[test]
    fn faulty_transport_drops_duplicates_and_partitions() {
        let inner = Arc::new(CountingTransport {
            calls: AtomicU64::new(0),
        });
        let plan = NetFaultPlan {
            partitions: vec![(1, 30)],
            drops: vec![4],
            delays: vec![(5, 1)],
            duplicate_period: Some(3),
        };
        let faulty = FaultyTransport::new(Arc::clone(&inner) as Arc<dyn CoordTransport>, plan);
        // Call 0: delivered.
        assert!(faulty.call("lease", "{}").is_ok());
        // Call 1: partition opens, fails without delivery; call 2 is
        // inside the window.
        assert!(faulty.call("append", "{}").is_err());
        assert!(faulty.call("append", "{}").is_err());
        std::thread::sleep(Duration::from_millis(40));
        // Call 3: window expired, delivered (3 % 3 == 0, no duplicate).
        assert!(faulty.call("append", "{}").is_ok());
        // Call 4: dropped.
        assert!(faulty.call("append", "{}").is_err());
        // Call 5: delayed but delivered; 5 % 3 == 2 → duplicated.
        assert!(faulty.call("append", "{}").is_ok());
        let injected = faulty.injected();
        assert_eq!(injected.partitions, 1);
        assert_eq!(injected.partitioned_calls, 2);
        assert_eq!(injected.drops, 1);
        assert_eq!(injected.delays, 1);
        assert_eq!(injected.duplicates, 1);
        // Delivered: calls 0, 3, 5 (+dup of 5) = 4 inner deliveries.
        assert_eq!(inner.calls.load(Ordering::Relaxed), 4);
        assert_eq!(faulty.calls(), 6);
    }
}
