//! `campaign_bench` — end-to-end campaign throughput, written to
//! `BENCH_campaign.json`.
//!
//! The production engine — `(problem × model)` pairs claimed from an
//! atomic queue, one feedback trajectory per pair that scores each of
//! its `(problem × model × feedback)` cells, serial planned
//! block-sparse sweeps per worker,
//! one shared sharded [`EvalCache`](picbench_core::EvalCache) seeded
//! with the golden responses — runs the synthetic campaign
//! (`problems × models × feedback settings × samples`) once per
//! repetition.
//!
//! Every repetition must reproduce the first bit for bit (compared with
//! [`CampaignReport::same_results`](picbench_core::CampaignReport::same_results)),
//! and the bench re-runs the engine at several thread counts to assert
//! scheduling independence. That the cache never changes a result is
//! pinned by the core campaign tests, which recompute every cell
//! without a cache. The wall clock over `--reps` repetitions is
//! reported as `{min, median, p90}` along with the cell throughput of
//! the median and the cache counters. The cache counters are exact at
//! `--threads 1` and move by a few lookups between runs with more
//! workers (see
//! [`EvalCacheStats::lookups`](picbench_core::EvalCacheStats::lookups)).
//! The report ends with the shared `host` and `generated_by` fields.
//! The run exits 1 after writing the report when the cache served no
//! lookup without a sweep (`hit_rate` 0): the campaign lost its cache.
//!
//! Usage: `cargo run --release -p picbench-bench --bin campaign_bench --
//! [--problems N] [--samples N] [--points N] [--reps N] [--threads N]
//! [--out PATH] [--store-dir PATH] [--resume] [--events ndjson]`
//!
//! `--events ndjson` mirrors the cold store campaign's events to stderr
//! in the canonical `picbench-server` wire format; the cumulative
//! [`EvalStoreStats`](picbench_core::EvalStoreStats) counters of the
//! warm store handle are printed and land in the JSON either way.
//!
//! The bench also measures the **warm-start** path of the persistent
//! store: a cold campaign populates a store (journal + disk cache
//! tier), a second campaign over a freshly reopened store handle then
//! reads it back; the disk-tier hit rate and both wall clocks land in
//! the JSON. `--store-dir` pins the store location (default: a
//! fresh scratch directory, removed afterwards); `--resume` makes the warm
//! run replay journalled cells outright instead of re-evaluating
//! through the disk tier.

use picbench_bench::{
    claim_scratch_dir, fields, parse_flags, report, rounded, run_campaign, write_report, Flags,
    Summary, UsageError,
};
use picbench_core::{Campaign, CampaignConfig, CampaignReport, EvalStore, SharedEvalStore};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_synthllm::ModelProfile;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Builds the campaign with a persistent store attached —
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
    out: String,
    store_dir: Option<PathBuf>,
    resume: bool,
    events_ndjson: bool,
}

const USAGE: &str = "usage: campaign_bench [--problems N] [--samples N] [--points N] [--reps N] \
                     [--threads N] [--out PATH] [--store-dir PATH] [--resume] [--events ndjson]";

fn read_args(f: &mut Flags) -> Result<Args, UsageError> {
    Ok(Args {
        problems: f.value("--problems")?.unwrap_or(usize::MAX).max(1),
        samples: f.value("--samples")?.unwrap_or(5).max(1),
        points: f
            .value("--points")?
            .unwrap_or(WavelengthGrid::paper_fast().points)
            .max(1),
        reps: f.value("--reps")?.unwrap_or(3).max(1),
        threads: f.value("--threads")?.unwrap_or(0),
        out: f.value("--out")?.unwrap_or("BENCH_campaign.json".into()),
        store_dir: f.value("--store-dir")?,
        resume: f.switch("--resume"),
        events_ndjson: f
            .value_where("--events", "ndjson", |v: &String| v == "ndjson")?
            .is_some(),
    })
}

fn main() {
    let args = parse_flags(USAGE, &["--resume"], read_args);
    let profiles = ModelProfile::all_paper_models();
    let mut problems = picbench_problems::suite();
    problems.truncate(args.problems);
    let grid = WavelengthGrid::new(1.51, 1.59, args.points);

    let config = CampaignConfig {
        samples_per_problem: args.samples,
        k_values: vec![1, args.samples],
        feedback_iters: vec![0, 1, 3],
        restrictions: false,
        seed: 20_250_205,
        grid,
        threads: args.threads,
        ..CampaignConfig::default()
    };

    let pairs = problems.len() * profiles.len();
    let cells = pairs * config.feedback_iters.len();
    let samples_total = cells * args.samples;
    // The engine runs one worker at most per (problem, model) pair.
    let workers = if args.threads > 0 {
        args.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
    .min(pairs);
    println!(
        "workload: {} problems x {} models x {} feedback settings x {} samples \
         ({cells} cells, {samples_total} samples), {}-point grid, {} reps, {} worker(s)",
        problems.len(),
        profiles.len(),
        config.feedback_iters.len(),
        args.samples,
        args.points,
        args.reps,
        workers,
    );

    let mut campaign_ms = Vec::with_capacity(args.reps);
    let mut first_report: Option<CampaignReport> = None;
    for rep in 0..args.reps {
        let t = Instant::now();
        let report = run_campaign(&problems, &profiles, &config);
        campaign_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match &first_report {
            Some(reference) => assert!(reference.same_results(&report), "run not reproducible"),
            None => first_report = Some(report),
        }
        eprintln!("rep {}/{}: {:.0} ms", rep + 1, args.reps, campaign_ms[rep]);
    }
    let cached_report = first_report.expect("at least one rep");

    // Determinism: every thread count reproduces the report bit for bit.
    for threads in [1usize, 2, 4] {
        let report = run_campaign(
            &problems,
            &profiles,
            &CampaignConfig {
                threads,
                ..config.clone()
            },
        );
        assert!(
            report.same_results(&cached_report),
            "thread count {threads} changed results"
        );
    }
    println!("report bit-identical across thread counts: true");

    // Warm-start through the persistent store: a cold campaign populates
    // the journal and the disk cache tier, then a second campaign over a
    // freshly reopened store handle reads it back. With --resume the
    // warm run replays journalled cells outright; otherwise it
    // re-evaluates through the disk tier and the disk hit rate shows how
    // much work the store absorbed.
    let store_path = args
        .store_dir
        .clone()
        .unwrap_or_else(|| claim_scratch_dir("picbench-campaign-bench-store"));
    let ephemeral_store = args.store_dir.is_none();
    let t = Instant::now();
    let cold_store = Arc::new(EvalStore::open(&store_path).expect("open eval store"));
    let cold_report = store_campaign(
        &problems,
        &profiles,
        &config,
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
        &config,
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

    let cached_ms = Summary::of(&campaign_ms);
    let cached = cached_ms.median;
    let stats = cached_report.cache_stats.expect("cached run has stats");
    let hit_rate = stats.hit_rate();
    println!(
        "campaign: {cached:.0} ms ({:.2} cells/s)",
        cells as f64 / (cached / 1e3)
    );
    println!(
        "cache: {} lookups, {:.1}% served without a sweep \
         ({} response hits, {} sim hits, {} misses)",
        stats.lookups(),
        100.0 * hit_rate,
        stats.response_hits,
        stats.sim_hits,
        stats.misses,
    );

    let fields = fields! {
        "benchmark": "content-addressed campaign engine",
        "workload": fields! {
            "problems": problems.len(),
            "models": profiles.len(),
            "feedback_settings": config.feedback_iters.len(),
            "samples_per_problem": args.samples,
            "cells": cells,
            "samples": samples_total,
            "grid_points": args.points,
        },
        "repetitions": args.reps,
        "metric": "wall-clock per full campaign over --reps repetitions, milliseconds, \
                   as {min, median, p90}; cells/s uses the median",
        "threads_used": workers,
        "engine": "(problem, model) pair work queue, one feedback trajectory per pair \
                   scored at every setting, serial planned block-sparse sweeps, \
                   one shared content-addressed evaluation cache",
        "results": fields! {
            "cached_ms": cached_ms,
            "cached_cells_per_sec": rounded(cells as f64 / (cached / 1e3), 2),
        },
        "cache": fields! {
            "lookups": stats.lookups(),
            "response_hits": stats.response_hits,
            "sim_hits": stats.sim_hits,
            "misses": stats.misses,
            "hit_rate": rounded(hit_rate, 4),
        },
        "store": fields! {
            "cold_ms": rounded(cold_ms, 1),
            "warm_ms": rounded(warm_ms, 1),
            "warm_lookups": warm_lookups,
            "warm_disk_hits": warm_disk_hits,
            "warm_start_hit_rate": rounded(warm_start_hit_rate, 4),
            "cells_restored": cells_restored,
            "resume": args.resume,
            "reads": store_stats.reads,
            "read_hits": store_stats.read_hits,
            "writes": store_stats.writes,
            "syncs": store_stats.syncs,
            "write_errors": store_stats.write_errors,
            "warm_report_identical": true,
        },
    };
    write_report(&args.out, &report("campaign_bench", fields));

    if hit_rate == 0.0 {
        eprintln!("FAIL: the cache served no lookup without a sweep");
        std::process::exit(1);
    }
}
