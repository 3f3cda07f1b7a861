//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro table1|table2|table3|table4|fig1|fig2|fig3|fig4|all \
//!     [--samples N] [--seed S] [--threads N] [--problems id,id,...] \
//!     [--store-dir PATH] [--resume] [--shards N] [--events ndjson]
//! repro --list-problems
//! ```
//!
//! The Monte-Carlo tables (III/IV) honour `--samples` (default 5, as in
//! the paper), `--seed` and `--threads` (campaign workers; the tables are
//! bit-identical for every worker count); everything else is
//! deterministic. Build with `--release` — the campaign tables simulate
//! thousands of circuits.
//!
//! `--store-dir` journals campaign progress through a crash-safe
//! persistent store (doubling as the evaluation cache's disk tier);
//! `--resume` additionally replays cells completed by a previous,
//! identically-configured run, so an interrupted table regeneration
//! picks up where it left off and still prints bit-identical numbers.
//! `--shards` runs the Monte-Carlo campaigns partitioned over N
//! supervised worker shards with lease-fenced journals; the tables stay
//! bit-identical for every shard count. `--events ndjson` mirrors every
//! campaign event to stderr in the canonical wire format that
//! `picbench-server` streams, one JSON object per line.

use picbench_bench::{
    error_histograms, fig1, fig2, fig3, fig4, list_problems, parse_flags,
    restriction_ablation_table, table1, table2, table3, table4, ReproScale, UsageError,
};

/// Unwraps a Monte-Carlo artifact or exits with its error message.
fn ok_or_exit(result: Result<String, String>) -> String {
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

const USAGE: &str = "\
usage: repro <artifact> [--samples N] [--seed S] [--threads N] [--problems id,id,...]
              [--store-dir PATH] [--resume] [--shards N] [--events ndjson]
artifacts: table1 table2 table3 table4 fig1 fig2 fig3 fig4 all
extensions: errors (failure-category histogram), ablation (leave-one-out restrictions)
--list-problems prints the registry inventory and exits
--problems restricts the Monte-Carlo artifacts (table3/table4/errors/ablation)
--threads 0 (default) uses one worker per core; tables are bit-identical either way
--store-dir journals campaign cells through a crash-safe persistent store
--resume replays cells journalled by a previous identical run from --store-dir
--shards N (>1) partitions campaigns over N supervised worker shards with
         lease-fenced journals; tables are bit-identical for every shard count
--events ndjson mirrors every campaign event to stderr in the picbench-server
         wire format (one JSON object per line)";

fn main() {
    let switches = ["--resume", "--list-problems", "--help", "-h"];
    let (mut artifacts, scale, list, help) = parse_flags(USAGE, &switches, |f| {
        let defaults = ReproScale::default();
        let scale = ReproScale {
            samples: f.value("--samples")?.unwrap_or(defaults.samples),
            seed: f.value("--seed")?.unwrap_or(defaults.seed),
            threads: f.value("--threads")?.unwrap_or(defaults.threads),
            problems: f.list("--problems")?,
            store_dir: f.value("--store-dir")?,
            resume: f.switch("--resume"),
            shards: f.value("--shards")?.unwrap_or(defaults.shards),
            events_ndjson: f
                .value_where("--events", "ndjson", |v: &String| v == "ndjson")?
                .is_some(),
        };
        if scale.resume && scale.store_dir.is_none() {
            return Err(UsageError("--resume needs --store-dir".into()));
        }
        let help = f.switch("--help") | f.switch("-h");
        Ok((f.positionals(), scale, f.switch("--list-problems"), help))
    });
    if list {
        print!("{}", list_problems());
        return;
    }
    if help || artifacts.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(if help { 0 } else { 2 });
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = [
            "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    for artifact in &artifacts {
        let started = std::time::Instant::now();
        let text = match artifact.as_str() {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => ok_or_exit(table3(&scale)),
            "table4" => ok_or_exit(table4(&scale)),
            "fig1" => fig1(),
            "fig2" => fig2(),
            "fig3" => fig3(),
            "fig4" => fig4(),
            "errors" => ok_or_exit(error_histograms(&scale)),
            "ablation" => ok_or_exit(restriction_ablation_table(&scale)),
            other => {
                eprintln!("unknown artifact: {other}\n{USAGE}");
                std::process::exit(2);
            }
        };
        println!("{text}");
        eprintln!("[{artifact} generated in {:.1?}]", started.elapsed());
        println!();
    }
}
