//! `shard_campaign` — the sharded-campaign chaos drill behind the CI
//! fault-tolerance gate, and the bench writing the `"shards"` section of
//! `BENCH_campaign.json`.
//!
//! The parent process runs one campaign two ways:
//!
//! 1. **control** — uninterrupted, single-process, in-memory;
//! 2. **sharded** — partitioned over `--shards` real worker processes
//!    (this binary re-executed with `--worker-shard`), with a seeded
//!    [`ChaosPlan`]: `--kill-random` workers are SIGKILLed mid-shard once
//!    their journals show progress, and `--stall-random` workers hold
//!    without heartbeats past the lease TTL — forcing one lease-expiry
//!    reassignment — then revive into their fenced generation.
//!
//! The drill passes only if every injected fault produced a shard loss
//! and reassignment, and the merged report is **bit-identical** to the
//! control run (`CampaignReport::same_results`). The `"shards"` section
//! (fault counts, reassignments, redundant-cell ratio, wall clocks) is
//! spliced into an existing `BENCH_campaign.json` or written standalone.
//!
//! With `--transport http` the drill becomes a *network* chaos drill:
//! the parent embeds a coordinator ([`PicbenchServer`] with
//! `/v1/coord/*` routes over the shard-journal root) and workers
//! journal over real TCP through a fault-injecting transport —
//! `--net-partitions` workers get a partition window long enough to
//! exhaust their retry budgets (the first one during its lease claim),
//! every `--net-duplicate-period`-th delivery is duplicated (the
//! coordinator must dedup each one exactly), and `--coord-restart`
//! bounces the coordinator process-equivalent mid-campaign (same
//! journal root, same port). The pass condition is unchanged: every
//! injected fault costs a reassignment and the merged report stays
//! bit-identical.
//!
//! Usage: `cargo run --release -p picbench-bench --bin shard_campaign --
//! [--shards N] [--kill-random N] [--stall-random N] [--stall-ms MS]
//! [--lease-ttl-ms MS] [--problems N] [--samples N] [--threads N]
//! [--seed S] [--chaos-seed S] [--models a,b] [--shard-root PATH]
//! [--transport process|http] [--net-partitions N] [--net-partition-ms MS]
//! [--net-duplicate-period N] [--net-seed S] [--net-timeout-ms MS]
//! [--coord-restart] [--out PATH]`
//!
//! `--shard-root` pins the per-shard journals to a known directory so CI
//! can upload them as artifacts when the drill fails (default: a
//! temporary directory, removed on success).

use picbench_coord::{
    CoordClient, FaultyTransport, HttpTransport, NetFaultPlan, RemoteJournal, RemoteLauncher,
};
use picbench_core::{
    run_shard_worker, run_shard_worker_with, Campaign, CampaignConfig, CampaignEvent,
    CampaignReport, ChaosPlan, LeaseConfig, ProcessLauncher, ShardLauncher, ShardLossReason,
    ShardWorkerConfig, ShardWorkload, WorkerStall,
};
use picbench_problems::Problem;
use picbench_prompt::Conversation;
use picbench_server::{PicbenchServer, ServerConfig, ServerHandle};
use picbench_sim::WavelengthGrid;
use picbench_store::xorshift64;
use picbench_synthllm::{LanguageModel, ModelProfile, ModelProvider, RetryPolicy};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    shards: u32,
    kill_random: usize,
    stall_random: usize,
    stall_ms: Option<u64>,
    lease_ttl_ms: u64,
    problems: usize,
    samples: usize,
    threads: usize,
    seed: u64,
    chaos_seed: u64,
    models: Vec<String>,
    cell_delay_ms: u64,
    shard_root: Option<PathBuf>,
    out: String,
    /// `process` (shared-filesystem journals) or `http` (workers
    /// journal through the embedded network coordinator).
    transport: String,
    /// Network-chaos knobs (http transport only).
    net_partitions: usize,
    net_partition_ms: Option<u64>,
    net_duplicate_period: u64,
    net_seed: u64,
    net_timeout_ms: u64,
    coord_restart: bool,
    /// Internal: set (with generation/root) when this process is a
    /// shard worker spawned by the supervisor's [`ProcessLauncher`].
    worker_shard: Option<u32>,
    worker_generation: u32,
    stall_after_cells: Option<usize>,
    /// Internal (http workers): coordinator address and the partition
    /// schedule `shard:op:hold_ms[,...]` the parent armed.
    coord_addr: Option<SocketAddr>,
    net_partition_spec: String,
}

fn parse_args() -> Args {
    let usage = "usage: shard_campaign [--shards N] [--kill-random N] [--stall-random N] \
                 [--stall-ms MS] [--lease-ttl-ms MS] [--problems N] [--samples N] \
                 [--threads N] [--seed S] [--chaos-seed S] [--models a,b] \
                 [--cell-delay-ms MS] [--shard-root PATH] [--transport process|http] \
                 [--net-partitions N] [--net-partition-ms MS] [--net-duplicate-period N] \
                 [--net-seed S] [--net-timeout-ms MS] [--coord-restart] [--out PATH]";
    let mut args = Args {
        shards: 4,
        kill_random: 2,
        stall_random: 1,
        stall_ms: None,
        lease_ttl_ms: 5_000,
        problems: 6,
        samples: 2,
        threads: 2,
        seed: 20_250_205,
        chaos_seed: 7,
        models: vec!["GPT-4".to_string(), "Claude 3.5 Sonnet".to_string()],
        cell_delay_ms: 150,
        shard_root: None,
        out: "BENCH_campaign.json".to_string(),
        transport: "process".to_string(),
        net_partitions: 2,
        net_partition_ms: None,
        net_duplicate_period: 7,
        net_seed: 11,
        net_timeout_ms: 2_000,
        coord_restart: false,
        worker_shard: None,
        worker_generation: 0,
        stall_after_cells: None,
        coord_addr: None,
        net_partition_spec: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let numeric = |flag: &str, value: Option<&String>| -> u64 {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a non-negative integer; {usage}");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--shards" => {
                i += 1;
                args.shards = numeric("--shards", argv.get(i)).max(1) as u32;
            }
            "--kill-random" => {
                i += 1;
                args.kill_random = numeric("--kill-random", argv.get(i)) as usize;
            }
            "--stall-random" => {
                i += 1;
                args.stall_random = numeric("--stall-random", argv.get(i)) as usize;
            }
            "--stall-ms" => {
                i += 1;
                args.stall_ms = Some(numeric("--stall-ms", argv.get(i)));
            }
            "--lease-ttl-ms" => {
                i += 1;
                args.lease_ttl_ms = numeric("--lease-ttl-ms", argv.get(i)).max(1);
            }
            "--problems" => {
                i += 1;
                args.problems = numeric("--problems", argv.get(i)).max(1) as usize;
            }
            "--samples" => {
                i += 1;
                args.samples = numeric("--samples", argv.get(i)).max(1) as usize;
            }
            "--threads" => {
                i += 1;
                args.threads = numeric("--threads", argv.get(i)) as usize;
            }
            "--seed" => {
                i += 1;
                args.seed = numeric("--seed", argv.get(i));
            }
            "--chaos-seed" => {
                i += 1;
                args.chaos_seed = numeric("--chaos-seed", argv.get(i));
            }
            "--models" => {
                i += 1;
                let names: Vec<String> = argv
                    .get(i)
                    .map(|v| {
                        v.split(',')
                            .map(str::trim)
                            .filter(|n| !n.is_empty())
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                if names.is_empty() {
                    eprintln!("--models needs a comma-separated list of profile names; {usage}");
                    std::process::exit(2);
                }
                args.models = names;
            }
            "--cell-delay-ms" => {
                i += 1;
                args.cell_delay_ms = numeric("--cell-delay-ms", argv.get(i));
            }
            "--shard-root" => {
                i += 1;
                args.shard_root = Some(argv.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--shard-root needs a path; {usage}");
                    std::process::exit(2);
                }));
            }
            "--out" => {
                i += 1;
                args.out = argv.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path; {usage}");
                    std::process::exit(2);
                });
            }
            "--transport" => {
                i += 1;
                args.transport = argv.get(i).cloned().unwrap_or_default();
                if args.transport != "process" && args.transport != "http" {
                    eprintln!("--transport must be `process` or `http`; {usage}");
                    std::process::exit(2);
                }
            }
            "--net-partitions" => {
                i += 1;
                args.net_partitions = numeric("--net-partitions", argv.get(i)) as usize;
            }
            "--net-partition-ms" => {
                i += 1;
                args.net_partition_ms = Some(numeric("--net-partition-ms", argv.get(i)));
            }
            "--net-duplicate-period" => {
                i += 1;
                args.net_duplicate_period = numeric("--net-duplicate-period", argv.get(i));
            }
            "--net-seed" => {
                i += 1;
                args.net_seed = numeric("--net-seed", argv.get(i));
            }
            "--net-timeout-ms" => {
                i += 1;
                args.net_timeout_ms = numeric("--net-timeout-ms", argv.get(i)).max(1);
            }
            "--coord-restart" => {
                args.coord_restart = true;
            }
            "--coord-addr" => {
                i += 1;
                args.coord_addr =
                    Some(argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--coord-addr needs host:port; {usage}");
                        std::process::exit(2);
                    }));
            }
            "--net-partition-spec" => {
                i += 1;
                args.net_partition_spec = argv.get(i).cloned().unwrap_or_default();
            }
            "--worker-shard" => {
                i += 1;
                args.worker_shard = Some(numeric("--worker-shard", argv.get(i)) as u32);
            }
            "--worker-generation" => {
                i += 1;
                args.worker_generation = numeric("--worker-generation", argv.get(i)) as u32;
            }
            "--stall-after-cells" => {
                i += 1;
                args.stall_after_cells = Some(numeric("--stall-after-cells", argv.get(i)) as usize);
            }
            other => {
                eprintln!("unknown argument {other}; {usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// The campaign definition shared — bit for bit — by the control run,
/// the supervisor, and every worker process: the worker re-derives the
/// same fingerprint and cell keys from the same flags.
fn workload(args: &Args) -> (Vec<Problem>, Vec<ModelProfile>, CampaignConfig) {
    let mut problems = picbench_problems::suite();
    problems.truncate(args.problems);
    let profiles: Vec<ModelProfile> = args
        .models
        .iter()
        .map(|name| {
            ModelProfile::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown model profile {name:?} (see ModelProfile::all_paper_models)");
                std::process::exit(2);
            })
        })
        .collect();
    let config = CampaignConfig {
        samples_per_problem: args.samples,
        k_values: vec![1, args.samples],
        feedback_iters: vec![0, 1],
        restrictions: false,
        seed: args.seed,
        grid: WavelengthGrid::paper_fast(),
        threads: args.threads,
        ..CampaignConfig::default()
    };
    (problems, profiles, config)
}

/// Worker-only pacing: the same provider, plus a fixed sleep before
/// every model response. Chaos kills are delivered by the supervisor
/// once a victim's journal shows progress, so a worker must stay
/// killable for several 50 ms poll ticks per cell — purely additive
/// latency keeps the window open without touching names, seeding or
/// responses, so the merged report stays bit-identical to the un-paced
/// control run.
struct PacedProvider {
    inner: Arc<dyn ModelProvider>,
    delay: Duration,
}

struct PacedLlm {
    inner: Box<dyn LanguageModel>,
    delay: Duration,
}

impl ModelProvider for PacedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        Box::new(PacedLlm {
            inner: self.inner.spawn(),
            delay: self.delay,
        })
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        Box::new(PacedLlm {
            inner: self.inner.spawn_seeded(seed),
            delay: self.delay,
        })
    }
}

impl LanguageModel for PacedLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.inner.begin_sample(problem, sample_index);
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        std::thread::sleep(self.delay);
        self.inner.respond(conversation)
    }
}

/// How long an http worker keeps retrying a dead wire before it
/// degrades and exits unclean. Injected partition windows default to
/// out-lasting this, so a partitioned worker reliably costs its shard a
/// generation (the reassignment the drill asserts on).
const WORKER_NET_BUDGET_MS: u64 = 2_500;

/// The http worker's retry stance: enough attempts to absorb transient
/// weather (a coordinator restart, a refused connect during rebind)
/// inside the budget, deterministic backoff jitter from `seed`.
fn worker_net_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff_ms: 50,
        max_backoff_ms: 400,
        budget_ms: WORKER_NET_BUDGET_MS,
        seed,
        sleep: true,
    }
}

/// Parses the parent's partition schedule `shard:op:hold_ms[,...]`.
fn parse_partition_spec(spec: &str) -> Vec<(u32, u64, u64)> {
    spec.split(',')
        .filter(|entry| !entry.is_empty())
        .filter_map(|entry| {
            let mut parts = entry.split(':');
            let shard = parts.next()?.parse().ok()?;
            let op = parts.next()?.parse().ok()?;
            let hold = parts.next()?.parse().ok()?;
            Some((shard, op, hold))
        })
        .collect()
}

/// A worker process: run one shard generation to completion and exit
/// non-zero when the shard's journal is left incomplete (fenced, killed
/// or degraded) — the supervisor reads that as an unclean loss.
fn run_worker(args: &Args, shard: u32, root: PathBuf) -> ! {
    let (problems, profiles, config) = workload(args);
    let delay = Duration::from_millis(args.cell_delay_ms);
    let load = ShardWorkload {
        problems,
        providers: profiles
            .iter()
            .map(|p| {
                let inner = Arc::new(p.clone()) as Arc<dyn ModelProvider>;
                if delay.is_zero() {
                    inner
                } else {
                    Arc::new(PacedProvider { inner, delay }) as Arc<dyn ModelProvider>
                }
            })
            .collect(),
        config,
    };
    let stall = args.stall_after_cells.map(|after_cells| WorkerStall {
        after_cells,
        hold_ms: args.stall_ms.unwrap_or(0),
    });
    let config = ShardWorkerConfig {
        shard,
        generation: args.worker_generation,
        shards: args.shards,
        root,
        worker_id: u64::from(std::process::id()),
        stall,
    };
    let report = if args.transport == "http" {
        let addr = args.coord_addr.unwrap_or_else(|| {
            eprintln!("worker shard {shard}: --transport http needs --coord-addr");
            std::process::exit(2);
        });
        // The fault plan this worker was armed with: partitions only hit
        // generation 0 (the takeover must be able to finish the shard),
        // duplicated deliveries hit every generation (dedup is cheap and
        // the coordinator must absorb them anywhere).
        let partitions: Vec<(u64, u64)> = parse_partition_spec(&args.net_partition_spec)
            .into_iter()
            .filter(|(victim, _, _)| *victim == shard && args.worker_generation == 0)
            .map(|(_, op, hold)| (op, hold))
            .collect();
        let plan = NetFaultPlan {
            partitions,
            duplicate_period: (args.net_duplicate_period > 0).then_some(args.net_duplicate_period),
            ..NetFaultPlan::default()
        };
        let transport = Arc::new(FaultyTransport::new(
            Arc::new(HttpTransport::new(
                addr,
                Duration::from_millis(args.net_timeout_ms),
            )),
            plan,
        ));
        let seed = args.net_seed ^ (u64::from(shard) << 8) ^ u64::from(args.worker_generation);
        let client = Arc::new(CoordClient::with_policy(transport, worker_net_policy(seed)));
        let journal = RemoteJournal::new(client, shard, args.worker_generation);
        run_shard_worker_with(&load, &config, &journal)
    } else {
        run_shard_worker(&load, &config)
    }
    .unwrap_or_else(|e| {
        eprintln!("worker shard {shard}: {e}");
        std::process::exit(3);
    });
    std::process::exit(i32::from(!report.completed));
}

fn control_run(args: &Args) -> CampaignReport {
    let (problems, profiles, config) = workload(args);
    Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config)
        .build()
        .expect("valid campaign definition")
        .run()
}

/// Splices the `"shards"` section into an existing `BENCH_campaign.json`
/// (immediately before its trailing `"generated_by"` key) or writes a
/// standalone report when the file is absent or foreign.
fn write_report(out: &str, section: &str) {
    let spliced = std::fs::read_to_string(out).ok().and_then(|text| {
        let marker = "  \"generated_by\"";
        let at = text.rfind(marker)?;
        let mut spliced = String::with_capacity(text.len() + section.len());
        spliced.push_str(&text[..at]);
        spliced.push_str(section);
        spliced.push_str(&text[at..]);
        Some(spliced)
    });
    let json = spliced.unwrap_or_else(|| {
        format!(
            "{{\n  \"benchmark\": \"fault-tolerant sharded campaign execution\",\n{section}  \
             \"generated_by\": {}\n}}\n",
            picbench_bench::generated_by("shard_campaign"),
        )
    });
    std::fs::write(out, json).expect("write benchmark report");
    println!("wrote {out}");
}

/// Claims a fresh ephemeral directory under the system temp dir.
///
/// The name mixes the wall clock, the PID and a process-local counter,
/// and creation is fail-closed (`create_dir`, not `create_dir_all`): a
/// nonce collision — pid reuse against a leftover dir, a coarse or
/// backwards clock, two claims inside one process — surfaces as a retry
/// with a bumped counter instead of two runs silently sharing journals.
fn claim_ephemeral_dir(prefix: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let pid = std::process::id();
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    for _ in 0..64 {
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{pid}-{stamp}-{seq}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return dir,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => panic!("create ephemeral dir {}: {e}", dir.display()),
        }
    }
    panic!(
        "could not claim an ephemeral directory under {} after 64 attempts",
        std::env::temp_dir().display()
    );
}

/// Takes the live coordinator down and rebinds a fresh instance on the
/// *same* address over the *same* journal root — the process-restart
/// drill. Workers see refused connections for the gap and ride it out
/// on retries; the replacement rebuilds its dedup set from the journal.
fn restart_coordinator(slot: &Arc<Mutex<Option<ServerHandle>>>, root: &Path) {
    let Some(handle) = slot.lock().expect("coordinator slot poisoned").take() else {
        return;
    };
    let addr = handle.addr();
    eprintln!("  coordinator: restarting (same addr {addr}, same journal root)...");
    handle.shutdown();
    for _ in 0..100 {
        match PicbenchServer::start(ServerConfig {
            addr,
            coord_root: Some(root.to_path_buf()),
            ..ServerConfig::default()
        }) {
            Ok(fresh) => {
                *slot.lock().expect("coordinator slot poisoned") = Some(fresh);
                eprintln!("  coordinator: back up on {addr}");
                return;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("coordinator could not rebind {addr} after restart");
}

fn main() {
    let args = parse_args();
    let shard_root = args
        .shard_root
        .clone()
        .unwrap_or_else(|| claim_ephemeral_dir("picbench-shard-campaign"));
    if let Some(shard) = args.worker_shard {
        run_worker(&args, shard, shard_root);
    }
    let ephemeral = args.shard_root.is_none();
    let stall_ms = args.stall_ms.unwrap_or(args.lease_ttl_ms + 3_000);
    let http = args.transport == "http";

    let (problems, profiles, config) = workload(&args);
    let cells = problems.len() * profiles.len() * config.feedback_iters.len();
    let chaos = ChaosPlan::seeded(
        args.chaos_seed,
        args.shards,
        args.kill_random,
        args.stall_random,
        stall_ms,
    );
    let kills_injected = chaos.kills.len();
    let stalls_injected = chaos.stalls.len();

    // Network-chaos schedule (http transport): partition victims are
    // shards the process-chaos plan left alone, so every partition buys
    // its own reassignment on top of the kill/stall ones. The first
    // victim is partitioned during its lease claim (op 0); the rest at
    // seed-drawn points mid-journal. Windows default to out-lasting the
    // worker retry budget — the partitioned worker must degrade, exit
    // unclean, and hand the shard to a fresh generation.
    let partition_ms = args
        .net_partition_ms
        .unwrap_or(WORKER_NET_BUDGET_MS + 1_500);
    let mut partition_plan: Vec<(u32, u64, u64)> = Vec::new();
    if http {
        let chaos_victims: HashSet<u32> = chaos
            .kills
            .iter()
            .map(|k| k.shard)
            .chain(chaos.stalls.iter().map(|(shard, _)| *shard))
            .collect();
        let mut rng = (args.net_seed << 1) | 1;
        for shard in 0..args.shards {
            if partition_plan.len() >= args.net_partitions {
                break;
            }
            if chaos_victims.contains(&shard) {
                continue;
            }
            let op = if partition_plan.is_empty() {
                0 // partition during claim
            } else {
                rng = xorshift64(rng);
                3 + rng % 6
            };
            partition_plan.push((shard, op, partition_ms));
        }
        if partition_plan.len() < args.net_partitions {
            eprintln!(
                "note: only {} of {} requested partitions scheduled — not enough shards \
                 free of process chaos (use more --shards)",
                partition_plan.len(),
                args.net_partitions
            );
        }
    }
    let partitions_injected = partition_plan.len();

    println!(
        "workload: {} problems x {} models x {} feedback settings = {cells} cells \
         over {} shards; chaos: {kills_injected} SIGKILL(s), {stalls_injected} stall(s) \
         of {stall_ms} ms against a {} ms lease TTL",
        problems.len(),
        profiles.len(),
        config.feedback_iters.len(),
        args.shards,
        args.lease_ttl_ms,
    );
    if http {
        println!(
            "network chaos: transport http, {partitions_injected} partition(s) of \
             {partition_ms} ms {:?} (first during claim), duplicate period {}, \
             coordinator restart: {}",
            partition_plan
                .iter()
                .map(|(shard, _, _)| *shard)
                .collect::<Vec<_>>(),
            args.net_duplicate_period,
            args.coord_restart,
        );
    }

    println!("control: uninterrupted single-process run...");
    let t = Instant::now();
    let control = control_run(&args);
    let single_process_ms = t.elapsed().as_secs_f64() * 1e3;

    println!("sharded: spawning worker processes under chaos...");
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut base_args = vec![
        "--problems".to_string(),
        args.problems.to_string(),
        "--samples".to_string(),
        args.samples.to_string(),
        "--threads".to_string(),
        args.threads.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--models".to_string(),
        args.models.join(","),
        "--cell-delay-ms".to_string(),
        args.cell_delay_ms.to_string(),
    ];
    let program = std::env::current_exe().expect("current_exe");

    // In http mode the parent doubles as the coordinator: an embedded
    // server owning `/v1/coord/*` over the shard-journal root. The
    // supervisor keeps polling the same directory for heartbeats and
    // merging from it — only the *workers* lose filesystem access.
    let coord_server: Arc<Mutex<Option<ServerHandle>>> = Arc::new(Mutex::new(None));
    let launcher: Arc<dyn ShardLauncher> = if http {
        let handle = PicbenchServer::start(ServerConfig {
            coord_root: Some(shard_root.clone()),
            ..ServerConfig::default()
        })
        .expect("start embedded coordinator server");
        let coord_addr = handle.addr();
        println!("coordinator: embedded server on {coord_addr}");
        *coord_server.lock().expect("coordinator slot poisoned") = Some(handle);
        let spec = partition_plan
            .iter()
            .map(|(shard, op, hold)| format!("{shard}:{op}:{hold}"))
            .collect::<Vec<_>>()
            .join(",");
        base_args.extend([
            "--net-partition-spec".to_string(),
            spec,
            "--net-duplicate-period".to_string(),
            args.net_duplicate_period.to_string(),
            "--net-seed".to_string(),
            args.net_seed.to_string(),
            "--net-timeout-ms".to_string(),
            args.net_timeout_ms.to_string(),
        ]);
        Arc::new(RemoteLauncher::new(program, base_args, coord_addr))
    } else {
        Arc::new(ProcessLauncher { program, base_args })
    };

    // The coordinator-restart drill: once any shard journals real
    // progress, bounce the coordinator on its own thread while workers
    // are mid-flight. Their retries ride out the gap (or cost a
    // reassignment — also acceptable); the journal makes the
    // replacement's dedup set exact.
    let restart_armed = Arc::new(AtomicBool::new(args.coord_restart && http));
    let restart_slot = Arc::clone(&coord_server);
    let restart_root = shard_root.clone();

    let t = Instant::now();
    let campaign = Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config)
        .shards(args.shards)
        .shard_dir(&shard_root)
        .shard_launcher(launcher)
        .lease_config(LeaseConfig {
            ttl_ms: args.lease_ttl_ms,
            poll_ms: 50,
            max_takeovers: 16,
        })
        .chaos(chaos)
        .observer(Arc::new(move |event: &CampaignEvent| {
            if let CampaignEvent::ShardHeartbeat { cells_done, .. } = event {
                if *cells_done >= 1 && restart_armed.swap(false, Ordering::SeqCst) {
                    let slot = Arc::clone(&restart_slot);
                    let root = restart_root.clone();
                    std::thread::spawn(move || restart_coordinator(&slot, &root));
                }
            }
            match event {
                CampaignEvent::ShardStarted {
                    shard,
                    generation,
                    cells,
                } => eprintln!("  shard {shard} gen {generation}: started ({cells} cells)"),
                CampaignEvent::ShardLost {
                    shard,
                    generation,
                    reason,
                    cells_done,
                } => eprintln!(
                    "  shard {shard} gen {generation}: LOST ({reason:?}) after {cells_done} cells"
                ),
                CampaignEvent::ShardReassigned {
                    shard,
                    from_generation,
                    to_generation,
                } => eprintln!(
                    "  shard {shard}: reassigned gen {from_generation} -> {to_generation}"
                ),
                CampaignEvent::ShardMerged {
                    shard,
                    generation,
                    cells,
                    quarantined,
                } => eprintln!(
                    "  shard {shard} gen {generation}: merged {cells} cells \
                     ({quarantined} stale quarantined)"
                ),
                _ => {}
            }
            sink.lock()
                .expect("event sink poisoned")
                .push(event.clone());
        }))
        .build()
        .expect("valid sharded campaign definition");
    let fingerprint = campaign.fingerprint();
    let outcome = campaign.execute();
    let sharded_ms = t.elapsed().as_secs_f64() * 1e3;
    let sharded = outcome.report.expect("sharded campaign completes");

    // Read the coordinator's own accounting (through the same public
    // wire the workers used), then retire it. Counters are in-memory,
    // so after a `--coord-restart` they cover the post-restart window —
    // which still must contain deduped duplicates when duplication is
    // on, because every worker duplicates deliveries for the whole
    // campaign.
    let duplicates_deduped = if http {
        let handle = coord_server
            .lock()
            .expect("coordinator slot poisoned")
            .take()
            .expect("coordinator alive at end of campaign");
        let client = CoordClient::with_policy(
            Arc::new(HttpTransport::new(handle.addr(), Duration::from_secs(2))),
            worker_net_policy(args.net_seed),
        );
        let state = client
            .fetch_state(fingerprint)
            .expect("coordinator state readable after campaign");
        handle.shutdown();
        Some(state.counters.duplicates)
    } else {
        None
    };

    // Tally the drill from the event stream.
    let events = events.lock().expect("event sink poisoned");
    let mut expected: HashMap<u32, usize> = HashMap::new();
    let mut unclean_exits = 0usize;
    let mut lease_expiries = 0usize;
    let mut reassignments = 0usize;
    let mut cells_reassigned = 0usize;
    let mut quarantined = 0usize;
    for event in events.iter() {
        match event {
            CampaignEvent::ShardStarted { shard, cells, .. } => {
                expected.entry(*shard).or_insert(*cells);
            }
            CampaignEvent::ShardLost {
                shard,
                reason,
                cells_done,
                ..
            } => {
                match reason {
                    ShardLossReason::LeaseExpired => lease_expiries += 1,
                    ShardLossReason::WorkerExited { clean: false } => unclean_exits += 1,
                    ShardLossReason::WorkerExited { clean: true } => {}
                }
                cells_reassigned += expected
                    .get(shard)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(*cells_done);
            }
            CampaignEvent::ShardReassigned { .. } => reassignments += 1,
            CampaignEvent::ShardMerged {
                quarantined: stale, ..
            } => quarantined += stale,
            _ => {}
        }
    }
    drop(events);

    assert!(
        sharded.same_results(&control),
        "sharded report differs from the single-process control run"
    );
    assert!(
        unclean_exits >= kills_injected,
        "injected {kills_injected} SIGKILLs but observed only {unclean_exits} unclean exits"
    );
    if stalls_injected > 0 && stall_ms > args.lease_ttl_ms {
        assert!(
            lease_expiries >= stalls_injected,
            "injected {stalls_injected} over-TTL stalls but observed only \
             {lease_expiries} lease expiries"
        );
    }
    let faults_injected = kills_injected + stalls_injected + partitions_injected;
    assert!(
        reassignments >= faults_injected,
        "every injected fault must cost its shard a generation: \
         {reassignments} reassignments for {faults_injected} faults"
    );
    if let Some(duplicates) = duplicates_deduped {
        if args.net_duplicate_period > 0 {
            assert!(
                duplicates >= 1,
                "duplicated deliveries were scheduled but the coordinator deduped none"
            );
        }
        println!(
            "network: {partitions_injected} partition(s) injected, {duplicates} duplicated \
             deliveries deduped, coordinator restarts: {}",
            u64::from(args.coord_restart),
        );
    }

    let redundant_ratio = quarantined as f64 / cells as f64;
    println!(
        "sharded report bit-identical to single-process control: true \
         ({} unclean exits, {lease_expiries} lease expiries, {reassignments} reassignments)",
        unclean_exits,
    );
    println!(
        "cells: {cells} total, {} inherited across takeovers, {cells_reassigned} reassigned, \
         {quarantined} stale writes quarantined (redundancy ratio {redundant_ratio:.3})",
        outcome.cells_restored,
    );
    println!(
        "wall clock: single-process {single_process_ms:.0} ms, \
         sharded-under-chaos {sharded_ms:.0} ms"
    );

    let section = format!(
        "  \"shards\": {{\n    \"shards\": {},\n    \"transport\": \"{}\",\n    \
         \"kills_injected\": {kills_injected},\n    \
         \"stalls_injected\": {stalls_injected},\n    \
         \"partitions_injected\": {partitions_injected},\n    \
         \"duplicates_deduped\": {},\n    \"coord_restarts\": {},\n    \
         \"lease_ttl_ms\": {},\n    \
         \"unclean_exits\": {unclean_exits},\n    \"lease_expiries\": {lease_expiries},\n    \
         \"reassignments\": {reassignments},\n    \"cells_total\": {cells},\n    \
         \"cells_reassigned\": {cells_reassigned},\n    \"cells_inherited\": {},\n    \
         \"cells_quarantined\": {quarantined},\n    \
         \"redundant_cell_ratio\": {redundant_ratio:.4},\n    \
         \"single_process_ms\": {single_process_ms:.1},\n    \
         \"sharded_chaos_ms\": {sharded_ms:.1},\n    \
         \"report_identical_to_single_process\": true\n  }},\n",
        args.shards,
        args.transport,
        duplicates_deduped.unwrap_or(0),
        u64::from(args.coord_restart && http),
        args.lease_ttl_ms,
        outcome.cells_restored,
    );
    write_report(&args.out, &section);

    if ephemeral {
        let _ = std::fs::remove_dir_all(&shard_root);
    } else {
        println!("shard journals kept at {}", shard_root.display());
    }
}
