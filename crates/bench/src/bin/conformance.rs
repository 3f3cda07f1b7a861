//! `conformance` — the generative conformance gate.
//!
//! Generates `--cases` seeded circuits across the structural families,
//! sweeps each through every configured differential axis (planned solver
//! vs dense oracle, constant fold, cache, canonicalization, default vs
//! scalar SIMD tier) and the physics oracles (reciprocity,
//! passivity, unitarity for lossless mixes, wavelength continuity) on
//! each selected solver path, shrinks any failure to a minimal
//! counterexample and writes it as a replayable corpus case.
//!
//! Exit status is non-zero on any disagreement or oracle violation, so
//! the binary doubles as the CI tripwire for every future solver or
//! cache change.
//!
//! Usage:
//!
//! ```text
//! conformance [--cases N] [--seed S] [--axes a,b,..] [--families f,g,..]
//!             [--grid-points P] [--solver-paths all|planned|oracle]
//!             [--no-shrink] [--failures-dir DIR] [--replay FILE]
//!             [--emit-corpus DIR] [--out PATH]
//! ```
//!
//! `--replay FILE` re-checks one corpus case (or a directory of them)
//! instead of generating new circuits — the hand tool for reproducing a
//! shrunk failure from a checked-in JSON document. `--axes` and
//! `--solver-paths` narrow the replay the same way they narrow a
//! sweep (both default to everything).
//!
//! `--emit-corpus DIR` writes `--cases` verified-conformant cases *per
//! enabled family* into `DIR` — how the checked-in seed corpus under
//! `tests/corpus/` was produced.

use picbench_bench::{
    fields, parse_flags, report as bench_report, rounded, write_report, Flags, UsageError,
};
use picbench_conformance::{
    check_circuit, load_corpus_dir, run_conformance, ConformanceConfig, CorpusCase, DiffAxis,
    DiffRunner, GeneratorConfig, SolverPath,
};
use picbench_netlist::json::Value;
use picbench_sim::{ModelRegistry, WavelengthGrid};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: conformance [--cases N] [--seed S] [--axes a,b,..] \
                     [--families f,g,..] [--grid-points P] \
                     [--solver-paths all|planned|oracle] [--no-shrink] \
                     [--failures-dir DIR] [--replay FILE] [--emit-corpus DIR] [--out PATH]";

struct Args {
    config: ConformanceConfig,
    out_path: Option<String>,
    failures_dir: Option<PathBuf>,
    replay: Option<PathBuf>,
    emit_corpus: Option<PathBuf>,
}

fn read_args(f: &mut Flags) -> Result<Args, UsageError> {
    let defaults = ConformanceConfig::default();
    let oracle_paths = match f.value::<String>("--solver-paths")?.as_deref() {
        None | Some("all") => defaults.oracle_paths,
        Some(token) => vec![token
            .parse()
            .map_err(|e| UsageError(format!("--solver-paths: {e} (or use `all`)")))?],
    };
    let points = f.value_where("--grid-points", "an integer >= 2", |&n: &usize| n >= 2)?;
    let config = ConformanceConfig {
        cases: f
            .value_where("--cases", "a positive integer", |&n: &usize| n >= 1)?
            .unwrap_or(defaults.cases),
        seed: f.value("--seed")?.unwrap_or(defaults.seed),
        axes: f.list("--axes")?.unwrap_or(defaults.axes),
        generator: GeneratorConfig {
            families: f.list("--families")?.unwrap_or(defaults.generator.families),
            ..defaults.generator
        },
        grid: points.map_or(defaults.grid, |n| WavelengthGrid::new(1.51, 1.59, n)),
        oracle_paths,
        shrink: !f.switch("--no-shrink"),
        ..defaults
    };
    Ok(Args {
        config,
        out_path: f.value("--out")?,
        failures_dir: f.value("--failures-dir")?,
        replay: f.value("--replay")?,
        emit_corpus: f.value("--emit-corpus")?,
    })
}

fn main() {
    let args = parse_flags(USAGE, &["--no-shrink"], read_args);
    let config = &args.config;
    if let Some(path) = &args.replay {
        std::process::exit(replay_cases(path, config));
    }
    if let Some(dir) = &args.emit_corpus {
        std::process::exit(emit_corpus_cases(dir, config));
    }

    let start = Instant::now();
    let report = run_conformance(config);
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "conformance: {} cases, seed {}, grid {} pts, axes [{}]",
        report.cases,
        config.seed,
        config.grid.points,
        report
            .axes
            .iter()
            .map(DiffAxis::token)
            .collect::<Vec<_>>()
            .join(", "),
    );
    for (family, count) in &report.family_counts {
        if *count > 0 {
            println!("  {:<20} {count}", family.token());
        }
    }
    println!(
        "  result: {} failure(s) in {elapsed:.1}s",
        report.failures.len()
    );

    for failure in &report.failures {
        eprintln!(
            "FAIL case {} ({}): {}",
            failure.case_index, failure.family, failure.kind
        );
        let case = failure.to_corpus_case(config.seed, config.grid);
        if let Some(dir) = &args.failures_dir {
            std::fs::create_dir_all(dir).expect("create failures dir");
            let path = dir.join(format!("{}.json", case.name));
            std::fs::write(&path, case.to_json_string()).expect("write failure case");
            eprintln!("  shrunk counterexample written to {}", path.display());
        } else {
            eprintln!("  shrunk counterexample:\n{}", case.to_json_string());
        }
    }

    if let Some(path) = &args.out_path {
        let axes = report.axes.iter().map(|a| Value::String(a.token().into()));
        let fields = fields! {
            "cases": report.cases,
            "seed": config.seed,
            "grid_points": config.grid.points,
            "failures": report.failures.len(),
            "axes": axes.collect::<Vec<_>>(),
            "elapsed_s": rounded(elapsed, 3),
        };
        write_report(path, &bench_report("conformance", fields));
    }

    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Replays one corpus file, or every `*.json` case in a directory.
fn replay_cases(path: &Path, config: &ConformanceConfig) -> i32 {
    let cases: Vec<(PathBuf, CorpusCase)> = if path.is_dir() {
        load_corpus_dir(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    } else {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        let case = CorpusCase::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        vec![(path.to_path_buf(), case)]
    };

    let registry = ModelRegistry::with_builtins();
    let mut failed = 0;
    for (file, case) in &cases {
        let runner = DiffRunner::new(case.grid).with_axes(config.axes.iter().copied());
        let diff = runner.check(&case.netlist).err();
        let violations: Vec<String> = config
            .oracle_paths
            .iter()
            .flat_map(|&path| {
                check_circuit(&case.gen_circuit(), &registry, path, &config.oracle)
                    .into_iter()
                    .map(move |v| format!("{path}: {v}"))
            })
            .collect();
        if diff.is_none() && violations.is_empty() {
            println!("ok   {} ({})", case.name, file.display());
        } else {
            failed += 1;
            eprintln!("FAIL {} ({})", case.name, file.display());
            if let Some(d) = diff {
                eprintln!("  {d}");
            }
            for v in violations {
                eprintln!("  {v}");
            }
        }
    }
    println!("replayed {} case(s), {failed} failing", cases.len());
    i32::from(failed > 0)
}

/// Emits `config.cases` verified-conformant seed cases per enabled
/// family into `dir`. Every case is checked through all axes and both
/// solver paths' oracles before it is written, so the corpus starts green.
fn emit_corpus_cases(dir: &Path, config: &ConformanceConfig) -> i32 {
    use picbench_conformance::CircuitStrategy;

    std::fs::create_dir_all(dir).expect("create corpus dir");
    let registry = ModelRegistry::with_builtins();
    let runner = DiffRunner::new(config.grid);
    let mut written = 0;
    for &family in &config.generator.families {
        // Smaller caps than the fuzzing sweep: corpus files should stay
        // reviewable by hand.
        let strategy = CircuitStrategy::new(GeneratorConfig {
            families: vec![family],
            max_stages: 2,
            max_modes: 4,
            ..GeneratorConfig::default()
        });
        for (k, gen) in strategy
            .sample(config.seed, config.cases)
            .into_iter()
            .enumerate()
        {
            if runner.check(&gen.netlist).is_err() {
                eprintln!("refusing to emit a disagreeing case ({family} #{k})");
                return 1;
            }
            for path in SolverPath::ALL {
                let violations = check_circuit(&gen, &registry, path, &config.oracle);
                if !violations.is_empty() {
                    eprintln!("refusing to emit an oracle-violating case ({family} #{k})");
                    return 1;
                }
            }
            let case = CorpusCase {
                name: format!("{family}-{k:02}"),
                seed: config.seed,
                family: Some(family),
                lossless: gen.lossless,
                grid: config.grid,
                note: format!(
                    "seed corpus: generated from seed {} (case {k} of family {family}), \
                     verified conformant on all axes and both solver paths at emit time",
                    config.seed
                ),
                netlist: gen.netlist,
            };
            let path = dir.join(format!("{}.json", case.name));
            std::fs::write(&path, case.to_json_string()).expect("write corpus case");
            println!("wrote {}", path.display());
            written += 1;
        }
    }
    println!("emitted {written} corpus case(s)");
    0
}
