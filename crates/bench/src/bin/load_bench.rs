//! `load_bench` — load generator for the benchmark service, written to
//! `BENCH_server.json`.
//!
//! Boots an in-process [`PicbenchServer`] on an ephemeral port and
//! drives it through the real HTTP client in two phases:
//!
//! 1. **ceiling** — N clients submit *paced* campaigns, open their
//!    event streams, rendezvous on a barrier once every stream is open,
//!    and drain to completion. Because the campaigns are still running
//!    at the rendezvous, all N streams are provably concurrent and the
//!    server's `peak_streams` gauge records the ceiling.
//! 2. **throughput** — bursts in which the same clients run several
//!    rounds of unpaced submit → stream → complete sessions, spread
//!    across tenants against the one shared evaluation cache. Bursts
//!    repeat on the same server for at least 2 s and at least 5 bursts;
//!    each burst's sessions over its wall clock is one sessions/sec
//!    sample, and the JSON reports them as `{min, median, p90}`.
//!    Wall-clock per session over all bursts gives the latency summary
//!    (`latency_ms`, whose median is the p50) and `latency_p99_ms`.
//!    Identical submissions mean later sessions are served almost
//!    entirely from cache warmed by *other* tenants — the cross-tenant
//!    hit rate lands in the JSON.
//!
//! Usage: `cargo run --release -p picbench-bench --bin load_bench --
//! [--clients N] [--rounds N] [--tenants N] [--pace-ms MS]
//! [--min-concurrent N] [--min-throughput X] [--out PATH]`
//!
//! `--min-concurrent N` exits non-zero unless the measured concurrent
//! streaming ceiling reaches N; `--min-throughput X` exits non-zero
//! when the median burst falls below X sessions/sec. CI runs both as
//! tripwires.

use picbench_bench::{
    fields, nearest_rank, parse_flags, report, rounded, write_report, Flags, Summary, UsageError,
};
use picbench_server::client::ApiClient;
use picbench_server::server::{PicbenchServer, ServerConfig};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The throughput phase repeats bursts until both bounds are met: a
/// single burst of the CI workload lasts well under 0.1 s, too short to
/// time reliably on its own.
const THROUGHPUT_SECONDS: f64 = 2.0;
const MIN_BURSTS: usize = 5;

struct Args {
    clients: usize,
    rounds: usize,
    tenants: usize,
    pace_ms: u64,
    min_concurrent: Option<usize>,
    min_throughput: Option<f64>,
    out: String,
}

const USAGE: &str = "usage: load_bench [--clients N] [--rounds N] [--tenants N] [--pace-ms MS] \
                     [--min-concurrent N] [--min-throughput X] [--out PATH]";

fn read_args(f: &mut Flags) -> Result<Args, UsageError> {
    Ok(Args {
        clients: f.value("--clients")?.unwrap_or(8).max(1),
        rounds: f.value("--rounds")?.unwrap_or(4).max(1),
        tenants: f.value("--tenants")?.unwrap_or(4).max(1),
        pace_ms: f.value("--pace-ms")?.unwrap_or(100),
        min_concurrent: f.value("--min-concurrent")?,
        min_throughput: f.value("--min-throughput")?,
        out: f.value("--out")?.unwrap_or("BENCH_server.json".into()),
    })
}

fn campaign_body(pace_ms: u64) -> String {
    format!(
        r#"{{"problems": ["mzi-ps", "mzm"], "models": ["GPT-4"], "samples_per_problem": 4,
            "k_values": [1], "feedback_iters": [0, 1], "seed": 99, "restrictions": false,
            "pace_ms": {pace_ms}}}"#
    )
}

fn run_session(client: &ApiClient, body: &str) -> f64 {
    let t = Instant::now();
    let response = client
        .request("POST", "/v1/campaigns", Some(body))
        .expect("submit campaign");
    assert_eq!(response.status, 201, "submit failed: {}", response.body);
    let id = response
        .json()
        .expect("submit response is JSON")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("campaign id");
    let stream = client
        .open_stream(&format!("/v1/campaigns/{id}/events"))
        .expect("open event stream");
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("drain event stream");
    assert!(!lines.is_empty(), "stream carried no events");
    t.elapsed().as_secs_f64() * 1e3
}

/// One throughput burst: every client runs `rounds` sessions. Returns
/// the session latencies (ms) and the clients' transport retries.
fn run_burst(addr: SocketAddr, args: &Args) -> (Vec<f64>, u64) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client_idx| {
                let body = campaign_body(0);
                let tenant = format!("tenant-{}", client_idx % args.tenants);
                scope.spawn(move || {
                    let client = ApiClient::new(addr).with_tenant(tenant);
                    let latencies: Vec<f64> = (0..args.rounds)
                        .map(|_| run_session(&client, &body))
                        .collect();
                    (latencies, client.retries())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((Vec::new(), 0u64), |(mut all, retries), (latencies, r)| {
                all.extend(latencies);
                (all, retries + r)
            })
    })
}

fn main() {
    let args = parse_flags(USAGE, &[], read_args);
    let server = PicbenchServer::start(ServerConfig {
        workers: args.clients * 2 + 8,
        max_sessions: args.clients * 2 + 8,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    println!(
        "load_bench: {} clients x {} rounds over {} tenants against {addr}",
        args.clients, args.rounds, args.tenants
    );

    // Phase 1: the concurrent-streaming ceiling. Paced campaigns stay
    // alive while every client opens its stream; the barrier after the
    // open proves all streams were concurrently active.
    let barrier = Arc::new(Barrier::new(args.clients));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for client_idx in 0..args.clients {
            let barrier = Arc::clone(&barrier);
            let body = campaign_body(args.pace_ms);
            let tenant = format!("tenant-{}", client_idx % args.tenants);
            scope.spawn(move || {
                let client = ApiClient::new(addr).with_tenant(tenant);
                let response = client
                    .request("POST", "/v1/campaigns", Some(&body))
                    .expect("submit paced campaign");
                assert_eq!(response.status, 201, "submit failed: {}", response.body);
                let id = response
                    .json()
                    .unwrap()
                    .get("id")
                    .and_then(|v| v.as_str().map(String::from))
                    .unwrap();
                let stream = client
                    .open_stream(&format!("/v1/campaigns/{id}/events"))
                    .expect("open event stream");
                assert_eq!(stream.status, 200);
                barrier.wait();
                stream.collect_lines().expect("drain paced stream");
            });
        }
    });
    let ceiling_ms = t.elapsed().as_secs_f64() * 1e3;

    // Phase 2: throughput. Unpaced sessions, identical submissions, so
    // the shared cache (warmed across tenants in phase 1) serves most
    // of the work.
    let t = Instant::now();
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut transport_retries = 0u64;
    while rates.len() < MIN_BURSTS || t.elapsed().as_secs_f64() < THROUGHPUT_SECONDS {
        let burst = Instant::now();
        let (burst_latencies, retries) = run_burst(addr, &args);
        rates.push(burst_latencies.len() as f64 / burst.elapsed().as_secs_f64());
        latencies.extend(burst_latencies);
        transport_retries += retries;
    }
    let wall_s = t.elapsed().as_secs_f64();
    let sessions = latencies.len();
    let bursts = rates.len();
    let rate = Summary::of(&rates);
    let sessions_per_sec = rate.median;
    let latency = Summary::of(&latencies);
    let p99 = nearest_rank(&latencies, 0.99);

    let stats = ApiClient::new(addr)
        .request("GET", "/v1/stats", None)
        .expect("stats")
        .json()
        .expect("stats JSON");
    let counter = |path: &[&str]| -> f64 {
        let mut v = stats.clone();
        for key in path {
            v = v
                .get(key)
                .cloned()
                .unwrap_or_else(|| panic!("missing {key}"));
        }
        v.as_f64().unwrap_or(0.0)
    };
    let peak_streams = counter(&["sessions", "peak_streams"]) as usize;
    let finished = counter(&["sessions", "finished"]) as usize;
    let hits = counter(&["cache", "response_hits"])
        + counter(&["cache", "sim_hits"])
        + counter(&["cache", "disk_hits"]);
    let misses = counter(&["cache", "misses"]);
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    server.shutdown();

    println!(
        "ceiling: {} concurrent streaming sessions (drained in {ceiling_ms:.0} ms)",
        peak_streams
    );
    println!(
        "throughput: {sessions} sessions in {bursts} bursts over {wall_s:.2} s, median \
         {sessions_per_sec:.1} sessions/s (min {:.1}, p90 {:.1}), p50 {:.1} ms, \
         p99 {p99:.1} ms, {transport_retries} transient-failure retries absorbed by clients",
        rate.min, rate.p90, latency.median
    );
    println!(
        "shared cache across {} tenants: {:.1}% of lookups served without a sweep \
         ({} sessions finished)",
        args.tenants,
        100.0 * hit_rate,
        finished,
    );

    let fields = fields! {
        "benchmark": "picbench-server streaming sessions",
        "workload": fields! {
            "clients": args.clients,
            "rounds": args.rounds,
            "tenants": args.tenants,
            "pace_ms": args.pace_ms,
            "submission": "2 problems x 1 model x 2 feedback settings x 4 samples",
        },
        "results": fields! {
            "concurrent_streaming_ceiling": peak_streams,
            "sessions": sessions,
            "bursts": bursts,
            "sessions_per_sec": rate,
            "latency_ms": latency,
            "latency_p99_ms": rounded(p99, 3),
            "transport_retries": transport_retries,
            "cross_tenant_cache_hit_rate": rounded(hit_rate, 4),
        },
    };
    write_report(&args.out, &report("load_bench", fields));

    let mut failed = false;
    if let Some(min) = args.min_concurrent {
        if peak_streams < min {
            eprintln!("FAIL: concurrent streaming ceiling {peak_streams} below required {min}");
            failed = true;
        } else {
            println!("concurrency gate passed: {peak_streams} >= {min}");
        }
    }
    if let Some(min) = args.min_throughput {
        if sessions_per_sec < min {
            eprintln!(
                "FAIL: median throughput {sessions_per_sec:.2} sessions/s below required {min:.2}"
            );
            failed = true;
        } else {
            println!("throughput gate passed: median {sessions_per_sec:.2} >= {min:.2} sessions/s");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
