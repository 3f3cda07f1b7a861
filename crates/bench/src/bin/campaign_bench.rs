//! `campaign_bench` — end-to-end campaign throughput, written to
//! `BENCH_campaign.json`.
//!
//! The production engine — `(problem × model × feedback)` cells claimed
//! from an atomic queue, serial planned block-sparse sweeps per worker —
//! runs the identical synthetic campaign
//! (`problems × models × feedback settings × samples`) twice per
//! repetition:
//!
//! * **cached** — the default: a shared sharded
//!   [`EvalCache`](picbench_core::EvalCache) seeded with the golden
//!   responses;
//! * **uncached** — the same engine with the cache switched off
//!   ([`CampaignBuilder::cache`](picbench_core::CampaignBuilder::cache)),
//!   so every candidate is simulated.
//!
//! Both must produce **bit-identical** [`CampaignReport`]s — the bench
//! asserts it, and additionally re-runs the cached engine at several
//! thread counts to assert scheduling independence. The median wall
//! clock over `--reps` repetitions is reported along with cell/sample
//! throughput and the cache hit rate.
//!
//! Usage: `cargo run --release -p picbench-bench --bin campaign_bench --
//! [--problems N] [--samples N] [--points N] [--reps N] [--threads N]
//! [--min-speedup X] [--out PATH] [--store-dir PATH] [--resume]
//! [--events ndjson]`
//!
//! `--events ndjson` mirrors the cold store campaign's events to stderr
//! in the canonical `picbench-server` wire format; the cumulative
//! [`EvalStoreStats`](picbench_core::EvalStoreStats) counters of the
//! warm store handle are printed and land in the JSON either way.
//!
//! `--min-speedup X` exits non-zero when the cached run is not at least
//! `X`× faster than the uncached one — CI runs a small workload with
//! `--min-speedup 1.0` as a tripwire against silently disabling the
//! cache.
//!
//! The bench also measures the **warm-start** path of the persistent
//! store: a cold campaign populates a store (journal + disk cache
//! tier), a second campaign over a freshly reopened store handle then
//! reads it back; the disk-tier hit rate and both wall clocks land in
//! the JSON. `--store-dir` pins the store location (default: a
//! temporary directory, removed afterwards); `--resume` makes the warm
//! run replay journalled cells outright instead of re-evaluating
//! through the disk tier.

use picbench_core::{Campaign, CampaignConfig, CampaignReport, EvalStore, SharedEvalStore};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_synthllm::ModelProfile;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run_matrix(
    profiles: &[ModelProfile],
    problems: &[Problem],
    config: &CampaignConfig,
) -> CampaignReport {
    Campaign::builder()
        .problems(problems.iter().cloned())
        .profiles(profiles)
        .config(config.clone())
        .build()
        .expect("valid campaign definition")
        .run()
}

/// Builds the cached campaign with a persistent store attached —
/// journalling (and resuming, when asked) through it.
fn store_campaign(
    problems: &[Problem],
    profiles: &[ModelProfile],
    config: &CampaignConfig,
    store: SharedEvalStore,
    resume: bool,
    events_ndjson: bool,
) -> Campaign {
    let mut builder = Campaign::builder()
        .problems(problems.iter().cloned())
        .profiles(profiles)
        .config(config.clone());
    if events_ndjson {
        builder = builder.observer(picbench_bench::ndjson_stderr_observer());
    }
    let builder = if resume {
        builder.resume_from(store)
    } else {
        builder.store(store)
    };
    builder.build().expect("valid campaign definition")
}

struct Args {
    problems: usize,
    samples: usize,
    points: usize,
    reps: usize,
    threads: usize,
    min_speedup: Option<f64>,
    out: String,
    store_dir: Option<PathBuf>,
    resume: bool,
    events_ndjson: bool,
}

fn parse_args() -> Args {
    let usage = "usage: campaign_bench [--problems N] [--samples N] [--points N] [--reps N] \
                 [--threads N] [--min-speedup X] [--out PATH] [--store-dir PATH] [--resume] \
                 [--events ndjson]";
    let mut args = Args {
        problems: usize::MAX,
        samples: 5,
        points: WavelengthGrid::paper_fast().points,
        reps: 3,
        threads: 0,
        min_speedup: None,
        out: "BENCH_campaign.json".to_string(),
        store_dir: None,
        resume: false,
        events_ndjson: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let numeric = |flag: &str, value: Option<&String>| -> usize {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a non-negative integer; {usage}");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--problems" => {
                i += 1;
                args.problems = numeric("--problems", argv.get(i)).max(1);
            }
            "--samples" => {
                i += 1;
                args.samples = numeric("--samples", argv.get(i)).max(1);
            }
            "--points" => {
                i += 1;
                args.points = numeric("--points", argv.get(i)).max(1);
            }
            "--reps" => {
                i += 1;
                args.reps = numeric("--reps", argv.get(i)).max(1);
            }
            "--threads" => {
                i += 1;
                args.threads = numeric("--threads", argv.get(i));
            }
            "--min-speedup" => {
                i += 1;
                args.min_speedup =
                    Some(argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-speedup needs a number; {usage}");
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
            "--store-dir" => {
                i += 1;
                args.store_dir = Some(argv.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--store-dir needs a path; {usage}");
                    std::process::exit(2);
                }));
            }
            "--resume" => {
                args.resume = true;
            }
            "--events" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("ndjson") => args.events_ndjson = true,
                    _ => {
                        eprintln!("--events supports exactly one format: ndjson; {usage}");
                        std::process::exit(2);
                    }
                }
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

fn main() {
    let args = parse_args();
    let profiles = ModelProfile::all_paper_models();
    let mut problems = picbench_problems::suite();
    problems.truncate(args.problems);
    let grid = WavelengthGrid::new(1.51, 1.59, args.points);

    let base_config = CampaignConfig {
        samples_per_problem: args.samples,
        k_values: vec![1, args.samples],
        feedback_iters: vec![0, 1, 3],
        restrictions: false,
        seed: 20_250_205,
        grid,
        threads: args.threads,
        ..CampaignConfig::default()
    };
    let uncached_config = CampaignConfig {
        cache: false,
        ..base_config.clone()
    };
    let cached_config = base_config.clone();

    let cells = problems.len() * profiles.len() * base_config.feedback_iters.len();
    let samples_total = cells * args.samples;
    let worker_cap = if args.threads > 0 {
        args.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    println!(
        "workload: {} problems x {} models x {} feedback settings x {} samples \
         ({cells} cells, {samples_total} samples), {}-point grid, {} reps, {} worker(s)",
        problems.len(),
        profiles.len(),
        base_config.feedback_iters.len(),
        args.samples,
        args.points,
        args.reps,
        worker_cap.min(cells),
    );

    let mut uncached_ms = Vec::with_capacity(args.reps);
    let mut cached_ms = Vec::with_capacity(args.reps);
    let mut uncached_report: Option<CampaignReport> = None;
    let mut cached_report: Option<CampaignReport> = None;
    for rep in 0..args.reps {
        let t = Instant::now();
        let report = run_matrix(&profiles, &problems, &uncached_config);
        uncached_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(reference) = &uncached_report {
            assert!(
                reference.same_results(&report),
                "uncached run not reproducible"
            );
        }
        uncached_report = Some(report);

        let t = Instant::now();
        let report = run_matrix(&profiles, &problems, &cached_config);
        cached_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(reference) = &cached_report {
            assert!(
                reference.same_results(&report),
                "cached run not reproducible"
            );
        }
        cached_report = Some(report);
        eprintln!(
            "rep {}/{}: uncached {:.0} ms, cached {:.0} ms",
            rep + 1,
            args.reps,
            uncached_ms[rep],
            cached_ms[rep],
        );
    }
    let uncached_report = uncached_report.expect("at least one rep");
    let cached_report = cached_report.expect("at least one rep");

    // Determinism: the cached run must reproduce the uncached one bit for
    // bit, at every thread count.
    assert!(
        uncached_report.same_results(&cached_report),
        "the cache changed campaign results"
    );
    let mut identical_across_threads = true;
    for threads in [1usize, 2, 4] {
        let report = run_matrix(
            &profiles,
            &problems,
            &CampaignConfig {
                threads,
                ..cached_config.clone()
            },
        );
        identical_across_threads &= report.same_results(&cached_report);
    }
    assert!(identical_across_threads, "thread count changed results");
    println!("report bit-identical to the uncached run and across thread counts: true");

    // Warm-start through the persistent store: a cold campaign populates
    // the journal and the disk cache tier, then a second campaign over a
    // freshly reopened store handle reads it back. With --resume the
    // warm run replays journalled cells outright; otherwise it
    // re-evaluates through the disk tier and the disk hit rate shows how
    // much work the store absorbed.
    let store_path = args.store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "picbench-campaign-bench-store-{}",
            std::process::id()
        ))
    });
    let ephemeral_store = args.store_dir.is_none();
    let t = Instant::now();
    let cold_store = Arc::new(EvalStore::open(&store_path).expect("open eval store"));
    let cold_report = store_campaign(
        &problems,
        &profiles,
        &cached_config,
        Arc::clone(&cold_store),
        false,
        args.events_ndjson,
    )
    .run();
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    cold_store.sync();
    drop(cold_store);
    assert!(
        cold_report.same_results(&cached_report),
        "attaching a store changed campaign results"
    );

    let t = Instant::now();
    let warm_store = Arc::new(EvalStore::open(&store_path).expect("reopen eval store"));
    let warm_outcome = store_campaign(
        &problems,
        &profiles,
        &cached_config,
        Arc::clone(&warm_store),
        args.resume,
        false,
    )
    .execute();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_report = warm_outcome.report.expect("uninterrupted warm run");
    assert!(
        warm_report.same_results(&cached_report),
        "warm start changed campaign results"
    );
    let warm_stats = warm_report.cache_stats.expect("cached run has stats");
    let warm_lookups = warm_stats.lookups();
    let warm_disk_hits = warm_stats.disk_hits;
    let warm_start_hit_rate = if warm_lookups > 0 {
        warm_disk_hits as f64 / warm_lookups as f64
    } else {
        0.0
    };
    let cells_restored = warm_outcome.cells_restored;
    let store_stats = warm_store.stats();
    drop(warm_store);
    if ephemeral_store {
        let _ = std::fs::remove_dir_all(&store_path);
    }
    println!(
        "store warm start: cold {cold_ms:.0} ms -> warm {warm_ms:.0} ms; \
         {warm_disk_hits} of {warm_lookups} warm lookups served from disk ({:.1}%), \
         {cells_restored} cells restored from journal",
        100.0 * warm_start_hit_rate,
    );
    println!(
        "store counters (warm handle): {} reads ({} hits), {} writes, {} syncs, \
         {} write errors, degraded: {}",
        store_stats.reads,
        store_stats.read_hits,
        store_stats.writes,
        store_stats.syncs,
        store_stats.write_errors,
        store_stats.degraded,
    );

    let uncached = median_ms(uncached_ms);
    let cached = median_ms(cached_ms);
    let speedup = uncached / cached;
    let stats = cached_report.cache_stats.expect("cached run has stats");
    let hit_rate = stats.hit_rate();
    println!(
        "uncached: {uncached:.0} ms ({:.2} cells/s)",
        cells as f64 / (uncached / 1e3)
    );
    println!(
        "cached (content-addressed): {cached:.0} ms ({:.2} cells/s)",
        cells as f64 / (cached / 1e3)
    );
    println!(
        "speedup: {speedup:.2}x; cache: {} lookups, {:.1}% served without a sweep \
         ({} response hits, {} sim hits, {} misses)",
        stats.lookups(),
        100.0 * hit_rate,
        stats.response_hits,
        stats.sim_hits,
        stats.misses,
    );

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"benchmark\": \"content-addressed campaign engine\",\n  \
         \"workload\": {{\n    \"problems\": {},\n    \"models\": {},\n    \
         \"feedback_settings\": {},\n    \"samples_per_problem\": {},\n    \
         \"cells\": {cells},\n    \"samples\": {samples_total},\n    \
         \"grid_points\": {}\n  }},\n  \"repetitions\": {},\n  \
         \"metric\": \"median wall-clock per full campaign, milliseconds\",\n  \
         \"host_cpus\": {cpus},\n  \"threads_used\": {},\n  \
         \"engine\": \"per-cell work queue, serial planned block-sparse sweeps; \
         cached vs the same engine with the evaluation cache off\",\n  \"results\": {{\n    \
         \"uncached_ms\": {uncached:.1},\n    \
         \"cached_ms\": {cached:.1},\n    \"speedup\": {speedup:.2},\n    \
         \"uncached_cells_per_sec\": {:.2},\n    \"cached_cells_per_sec\": {:.2}\n  }},\n  \
         \"cache\": {{\n    \"lookups\": {},\n    \"response_hits\": {},\n    \
         \"sim_hits\": {},\n    \"misses\": {},\n    \
         \"hit_rate\": {hit_rate:.4}\n  }},\n  \
         \"store\": {{\n    \"cold_ms\": {cold_ms:.1},\n    \"warm_ms\": {warm_ms:.1},\n    \
         \"warm_lookups\": {warm_lookups},\n    \"warm_disk_hits\": {warm_disk_hits},\n    \
         \"warm_start_hit_rate\": {warm_start_hit_rate:.4},\n    \
         \"cells_restored\": {cells_restored},\n    \"resume\": {},\n    \
         \"reads\": {},\n    \"read_hits\": {},\n    \"writes\": {},\n    \"syncs\": {},\n    \
         \"write_errors\": {},\n    \
         \"warm_report_identical\": true\n  }},\n  \
         \"report_identical_to_uncached_and_across_threads\": true,\n  \
         \"generated_by\": {}\n}}\n",
        problems.len(),
        profiles.len(),
        base_config.feedback_iters.len(),
        args.samples,
        args.points,
        args.reps,
        worker_cap.min(cells),
        cells as f64 / (uncached / 1e3),
        cells as f64 / (cached / 1e3),
        stats.lookups(),
        stats.response_hits,
        stats.sim_hits,
        stats.misses,
        args.resume,
        store_stats.reads,
        store_stats.read_hits,
        store_stats.writes,
        store_stats.syncs,
        store_stats.write_errors,
        picbench_bench::generated_by("campaign_bench"),
    );
    std::fs::write(&args.out, json).expect("write benchmark report");
    println!("wrote {}", args.out);

    if let Some(min) = args.min_speedup {
        if speedup < min {
            eprintln!("FAIL: speedup {speedup:.2}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("speedup gate passed: {speedup:.2}x >= {min:.2}x");
    }
}
