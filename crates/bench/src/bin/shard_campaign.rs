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
//! inserted into the JSON object already at `--out`, before its `host`
//! and `generated_by` keys, or written as a standalone report.
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

use picbench_bench::{
    claim_scratch_dir, fields, parse_flags, report, rounded, run_campaign, write_report, Flags,
    UsageError,
};
use picbench_coord::{
    CoordClient, FaultyTransport, HttpTransport, NetFaultPlan, RemoteJournal, RemoteLauncher,
};
use picbench_core::{
    run_shard_worker, run_shard_worker_with, Campaign, CampaignConfig, CampaignEvent, ChaosPlan,
    LeaseConfig, ProcessLauncher, ShardLauncher, ShardLossReason, ShardWorkerConfig, ShardWorkload,
    WorkerStall,
};
use picbench_netlist::json::{self, Value};
use picbench_problems::Problem;
use picbench_server::{PacedProvider, PicbenchServer, ServerConfig, ServerHandle};
use picbench_sim::WavelengthGrid;
use picbench_store::xorshift64;
use picbench_synthllm::{ModelProfile, ModelProvider, RetryPolicy};
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

const USAGE: &str = "usage: shard_campaign [--shards N] [--kill-random N] [--stall-random N] \
                     [--stall-ms MS] [--lease-ttl-ms MS] [--problems N] [--samples N] \
                     [--threads N] [--seed S] [--chaos-seed S] [--models a,b] \
                     [--cell-delay-ms MS] [--shard-root PATH] [--transport process|http] \
                     [--net-partitions N] [--net-partition-ms MS] [--net-duplicate-period N] \
                     [--net-seed S] [--net-timeout-ms MS] [--coord-restart] [--out PATH]";

fn read_args(f: &mut Flags) -> Result<Args, UsageError> {
    Ok(Args {
        shards: f.value("--shards")?.unwrap_or(4).max(1),
        kill_random: f.value("--kill-random")?.unwrap_or(2),
        stall_random: f.value("--stall-random")?.unwrap_or(1),
        stall_ms: f.value("--stall-ms")?,
        lease_ttl_ms: f.value("--lease-ttl-ms")?.unwrap_or(5_000).max(1),
        problems: f.value("--problems")?.unwrap_or(6).max(1),
        samples: f.value("--samples")?.unwrap_or(2).max(1),
        threads: f.value("--threads")?.unwrap_or(2),
        seed: f.value("--seed")?.unwrap_or(20_250_205),
        chaos_seed: f.value("--chaos-seed")?.unwrap_or(7),
        models: f
            .list("--models")?
            .unwrap_or_else(|| vec!["GPT-4".to_string(), "Claude 3.5 Sonnet".to_string()]),
        cell_delay_ms: f.value("--cell-delay-ms")?.unwrap_or(150),
        shard_root: f.value("--shard-root")?,
        out: f.value("--out")?.unwrap_or("BENCH_campaign.json".into()),
        transport: f
            .value_where("--transport", "`process` or `http`", |t: &String| {
                t == "process" || t == "http"
            })?
            .unwrap_or_else(|| "process".to_string()),
        net_partitions: f.value("--net-partitions")?.unwrap_or(2),
        net_partition_ms: f.value("--net-partition-ms")?,
        net_duplicate_period: f.value("--net-duplicate-period")?.unwrap_or(7),
        net_seed: f.value("--net-seed")?.unwrap_or(11),
        net_timeout_ms: f.value("--net-timeout-ms")?.unwrap_or(2_000).max(1),
        coord_restart: f.switch("--coord-restart"),
        worker_shard: f.value("--worker-shard")?,
        worker_generation: f.value("--worker-generation")?.unwrap_or(0),
        stall_after_cells: f.value("--stall-after-cells")?,
        coord_addr: f.value("--coord-addr")?,
        net_partition_spec: f.value("--net-partition-spec")?.unwrap_or_default(),
    })
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
                    Arc::new(PacedProvider::new(inner, delay)) as Arc<dyn ModelProvider>
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

/// Inserts the `"shards"` section into the report already at `out`
/// (before its `host` and `generated_by` keys, replacing an earlier
/// section), or writes a standalone report when the file is absent or
/// not a JSON object.
fn write_shards_section(out: &str, section: Vec<(String, Value)>) {
    let existing = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let report = match existing {
        Some(Value::Object(mut entries)) => {
            entries.retain(|(key, _)| key != "shards");
            let at = entries
                .iter()
                .position(|(key, _)| key == "host" || key == "generated_by")
                .unwrap_or(entries.len());
            entries.insert(at, ("shards".into(), Value::Object(section)));
            Value::Object(entries)
        }
        _ => report(
            "shard_campaign",
            fields! {
                "benchmark": "fault-tolerant sharded campaign execution",
                "shards": section,
            },
        ),
    };
    write_report(out, &report);
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
    let args = parse_flags(USAGE, &["--coord-restart"], read_args);
    let shard_root = args
        .shard_root
        .clone()
        .unwrap_or_else(|| claim_scratch_dir("picbench-shard-campaign"));
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
    let control = run_campaign(&problems, &profiles, &config);
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

    let section = fields! {
        "shards": f64::from(args.shards),
        "transport": args.transport.as_str(),
        "kills_injected": kills_injected,
        "stalls_injected": stalls_injected,
        "partitions_injected": partitions_injected,
        "duplicates_deduped": duplicates_deduped.unwrap_or(0),
        "coord_restarts": usize::from(args.coord_restart && http),
        "lease_ttl_ms": args.lease_ttl_ms,
        "unclean_exits": unclean_exits,
        "lease_expiries": lease_expiries,
        "reassignments": reassignments,
        "cells_total": cells,
        "cells_reassigned": cells_reassigned,
        "cells_inherited": outcome.cells_restored,
        "cells_quarantined": quarantined,
        "redundant_cell_ratio": rounded(redundant_ratio, 4),
        "single_process_ms": rounded(single_process_ms, 1),
        "sharded_chaos_ms": rounded(sharded_ms, 1),
        "report_identical_to_single_process": true,
    };
    write_shards_section(&args.out, section);

    if ephemeral {
        let _ = std::fs::remove_dir_all(&shard_root);
    } else {
        println!("shard journals kept at {}", shard_root.display());
    }
}
