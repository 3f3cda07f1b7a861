//! Contracts of the server's coordination surface and its transport
//! robustness seams:
//!
//! * `POST /v1/coord/{op}` serves the full lease/append/cells/state
//!   protocol over real sockets, with append dedup intact;
//! * a client that stalls mid-request gets a 408 and — crucially — its
//!   worker thread is freed for the next request;
//! * [`ApiClient`] retries transient connect failures on idempotent
//!   requests only, with a bounded, seeded backoff schedule;
//! * both HTTP clients answer a response cut off mid-head, or one
//!   declaring an impossible body, with a typed error;
//! * a whole sharded campaign whose workers journal over HTTP merges
//!   bit-identical to the single-process engine;
//! * a coordinator (server) restart mid-campaign loses no journalled
//!   state: replays dedup, new appends continue.

use picbench_coord::{
    AppendOutcome, AppendRequest, CoordClient, CoordTransport, HttpTransport, RecordMsg,
    RemoteJournal,
};
use picbench_core::{
    run_shard_worker_with, Campaign, CampaignConfig, CampaignReport, LeaseAdvance, LeaseRecord,
    ProblemTally, ShardLauncher, ShardWorkerConfig, ShardWorkerHandle, ShardWorkload,
    WorkerRequest, WorkerState,
};
use picbench_problems::Problem;
use picbench_server::{ApiClient, PicbenchServer, ServerConfig, ServerHandle};
use picbench_sim::WavelengthGrid;
use picbench_store::xorshift64;
use picbench_synthllm::{ModelProfile, RetryPolicy};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-server-coord-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn coord_server(root: &Path) -> ServerHandle {
    PicbenchServer::start(ServerConfig {
        coord_root: Some(root.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// A worker-grade client policy: enough retries to ride out transient
/// socket weather, short sleeps so tests stay fast.
fn wire_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff_ms: 10,
        max_backoff_ms: 60,
        budget_ms: 4_000,
        seed,
        sleep: true,
    }
}

fn coord_client(addr: SocketAddr, seed: u64) -> CoordClient {
    CoordClient::with_policy(
        Arc::new(HttpTransport::new(addr, Duration::from_secs(2))),
        wire_policy(seed),
    )
}

const FP: u64 = 0x5eed_c0de_0000_0077;

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

#[test]
fn coord_routes_serve_the_protocol_with_dedup_over_real_sockets() {
    let dir = temp_dir("routes");
    let server = coord_server(&dir);
    let client = coord_client(server.addr(), 1);

    let lease = LeaseRecord {
        generation: 0,
        worker: 21,
        seq: 0,
        stamp_ms: 1,
    };
    assert_eq!(client.advance_lease(FP, 0, &lease), LeaseAdvance::Claimed);
    assert_eq!(client.append(&cell_batch(0, 9)), AppendOutcome::Applied);
    // A duplicated delivery of the same batch — the wire answer is
    // `duplicate`, and the journal does not double-count.
    assert_eq!(client.append(&cell_batch(0, 9)), AppendOutcome::Duplicate);
    assert_eq!(client.append(&cell_batch(1, 10)), AppendOutcome::Applied);
    let mut cells = client.fetch_cells(FP, 0, 0).expect("cells over http");
    cells.sort_unstable_by_key(|(key, _)| *key);
    assert_eq!(cells, vec![(9, tally(9)), (10, tally(10))]);
    let state = client.fetch_state(FP).expect("state over http");
    assert_eq!(state.cells.len(), 2);
    assert_eq!(state.counters.duplicates, 1);

    // Unknown ops 404 without taking the connection down.
    let api = ApiClient::new(server.addr());
    let reply = api
        .request("POST", "/v1/coord/bogus", Some("{}"))
        .expect("reply");
    assert_eq!(reply.status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coord_routes_404_when_coordination_is_not_enabled() {
    let server = PicbenchServer::start(ServerConfig::default()).expect("server starts");
    let api = ApiClient::new(server.addr());
    let reply = api
        .request("POST", "/v1/coord/lease", Some("{}"))
        .expect("reply");
    assert_eq!(reply.status, 404);
    assert!(reply.body.contains("not enabled"), "body: {}", reply.body);
    server.shutdown();
}

/// A stalled request must not pin a worker forever: with a single
/// worker thread and a 200 ms read deadline, a client that connects and
/// then goes silent gets a 408 — and the *next* request (which had to
/// wait for that same worker) still succeeds.
#[test]
fn stalled_request_gets_408_and_frees_the_worker() {
    let server = PicbenchServer::start(ServerConfig {
        workers: 1,
        read_timeout_ms: 200,
        ..ServerConfig::default()
    })
    .expect("server starts");

    // Stall 1: connect and send nothing at all.
    let mut silent = TcpStream::connect(server.addr()).expect("connect");
    // Stall 2: a request head that declares a body which never comes.
    let mut bodyless = TcpStream::connect(server.addr()).expect("connect");
    bodyless
        .write_all(b"POST /v1/coord/lease HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n")
        .expect("head sent");
    bodyless.flush().expect("flush");

    let read_all = |stream: &mut TcpStream| {
        let mut buf = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("deadline");
        let _ = stream.read_to_string(&mut buf);
        buf
    };
    let silent_reply = read_all(&mut silent);
    assert!(
        silent_reply.starts_with("HTTP/1.1 408"),
        "stalled head should 408, got: {silent_reply:?}"
    );
    let bodyless_reply = read_all(&mut bodyless);
    assert!(
        bodyless_reply.starts_with("HTTP/1.1 408"),
        "stalled body should 408, got: {bodyless_reply:?}"
    );

    // The lone worker survived both stalls and serves real traffic.
    let api = ApiClient::new(server.addr());
    let reply = api.request("GET", "/v1/stats", None).expect("stats");
    assert_eq!(reply.status, 200);

    server.shutdown();
}

#[test]
fn idempotent_requests_retry_transient_failures_and_mutations_do_not() {
    // A port with nothing behind it: bind, learn the address, drop.
    let vacant = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = vacant.local_addr().expect("addr");
    drop(vacant);

    let client = ApiClient::new(addr);
    let err = client
        .request("GET", "/v1/stats", None)
        .expect_err("nothing is listening");
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    assert_eq!(
        client.retries(),
        2,
        "a GET burns the full retry budget before surfacing"
    );

    let err = client
        .request("POST", "/v1/campaigns", Some("{}"))
        .expect_err("nothing is listening");
    assert!(err.kind() == io::ErrorKind::ConnectionRefused);
    assert_eq!(
        client.retries(),
        2,
        "a POST is not idempotent and must not retry"
    );

    let err = client
        .open_stream("/v1/campaigns/c-1/events")
        .expect_err("nothing is listening");
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    assert_eq!(client.retries(), 4, "stream opens retry like GETs");

    // Against a live server the same client needs no retries at all.
    let server = PicbenchServer::start(ServerConfig::default()).expect("server starts");
    let live = ApiClient::new(server.addr());
    assert_eq!(
        live.request("GET", "/v1/stats", None)
            .expect("stats")
            .status,
        200
    );
    assert_eq!(live.retries(), 0);
    server.shutdown();
}

/// A fake peer answering one connection with the raw `reply` bytes.
/// It then drains the request until the client hangs up, so its close
/// is orderly rather than a reset.
fn one_shot_peer(reply: &'static [u8]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(reply).expect("reply");
        stream.shutdown(std::net::Shutdown::Write).expect("close");
        io::copy(&mut stream, &mut io::sink()).expect("drain");
    });
    (addr, peer)
}

#[test]
fn truncated_or_impossible_responses_are_typed_errors_in_both_clients() {
    let cases: [(&[u8], io::ErrorKind); 2] = [
        (
            b"HTTP/1.1 200 OK\r\nContent-Le",
            io::ErrorKind::UnexpectedEof,
        ),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n",
            io::ErrorKind::InvalidData,
        ),
    ];
    for (reply, kind) in cases {
        let (addr, peer) = one_shot_peer(reply);
        let api = ApiClient::new(addr).request("POST", "/v1/campaigns", Some("{}"));
        peer.join().expect("peer");
        let (addr, peer) = one_shot_peer(reply);
        let coord = HttpTransport::new(addr, Duration::from_secs(5)).call("state", "{}");
        peer.join().expect("peer");
        let kinds = [
            api.expect_err("ApiClient").kind(),
            coord.expect_err("HttpTransport").kind(),
        ];
        assert_eq!(kinds, [kind; 2], "{:?}", String::from_utf8_lossy(reply));
    }
}

// ---- full remote campaign over real HTTP --------------------------------

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

/// A [`ShardLauncher`] whose workers are threads journalling over
/// *real* TCP into the server's `/v1/coord/*` routes — the production
/// remote stack with the process boundary swapped for a thread.
struct HttpRemoteLauncher {
    coord_addr: SocketAddr,
    next_worker: AtomicU64,
}

struct ThreadHandle {
    finished: Arc<AtomicBool>,
    clean: Arc<AtomicBool>,
}

impl ShardWorkerHandle for ThreadHandle {
    fn poll(&mut self) -> WorkerState {
        if self.finished.load(Ordering::Acquire) {
            WorkerState::Exited {
                clean: self.clean.load(Ordering::Acquire),
            }
        } else {
            WorkerState::Running
        }
    }

    fn kill(&mut self) {}
}

impl ShardLauncher for HttpRemoteLauncher {
    fn launch(
        &self,
        workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>> {
        let seed = 0xface_0000 ^ (u64::from(request.shard) << 8) ^ u64::from(request.generation);
        let client = Arc::new(coord_client(self.coord_addr, seed));
        let journal = RemoteJournal::new(client, request.shard, request.generation);
        let config = ShardWorkerConfig {
            shard: request.shard,
            generation: request.generation,
            shards: request.shards,
            root: request.root.clone(),
            worker_id: xorshift64(
                self.next_worker.fetch_add(1, Ordering::Relaxed) ^ 0x0fed_cba9_8765_4321,
            ),
            stall: request.stall,
        };
        let workload = Arc::clone(workload);
        let finished = Arc::new(AtomicBool::new(false));
        let clean = Arc::new(AtomicBool::new(false));
        let handle = ThreadHandle {
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
fn remote_campaign_over_real_http_is_bit_identical() {
    let control = control_report();
    let dir = temp_dir("campaign");
    let server = coord_server(&dir);
    let launcher = Arc::new(HttpRemoteLauncher {
        coord_addr: server.addr(),
        next_worker: AtomicU64::new(0),
    });
    let outcome = builder()
        .shards(2)
        .shard_dir(&dir)
        .shard_launcher(launcher)
        .build()
        .unwrap()
        .execute();
    assert!(!outcome.cancelled);
    let report = outcome.report.expect("remote campaign completes");
    assert!(
        report.same_results(&control),
        "HTTP-journalled report diverged from the single-process control"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator-server restart mid-campaign: the replacement process
/// (same journal root, new port) rebuilds the dedup set from the
/// journal, answers replays with `duplicate`, and carries the campaign
/// forward.
#[test]
fn coordinator_server_restart_resumes_without_losing_journalled_cells() {
    let dir = temp_dir("restart");
    {
        let server = coord_server(&dir);
        let client = coord_client(server.addr(), 5);
        let lease = LeaseRecord {
            generation: 0,
            worker: 31,
            seq: 0,
            stamp_ms: 1,
        };
        assert_eq!(client.advance_lease(FP, 0, &lease), LeaseAdvance::Claimed);
        assert_eq!(client.append(&cell_batch(0, 3)), AppendOutcome::Applied);
        assert_eq!(client.append(&cell_batch(1, 4)), AppendOutcome::Applied);
        server.shutdown();
    }

    let server = coord_server(&dir);
    let client = coord_client(server.addr(), 6);
    // An in-flight retry of batch 1 lands on the fresh process: still a
    // duplicate, because the applied markers were journalled durably.
    assert_eq!(client.append(&cell_batch(1, 4)), AppendOutcome::Duplicate);
    assert_eq!(client.append(&cell_batch(2, 5)), AppendOutcome::Applied);
    let renewed = LeaseRecord {
        generation: 0,
        worker: 31,
        seq: 7,
        stamp_ms: 2,
    };
    assert_eq!(client.advance_lease(FP, 0, &renewed), LeaseAdvance::Renewed);
    let mut cells = client.fetch_cells(FP, 0, 0).expect("cells readable");
    cells.sort_unstable_by_key(|(key, _)| *key);
    assert_eq!(cells, vec![(3, tally(3)), (4, tally(4)), (5, tally(5))]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
