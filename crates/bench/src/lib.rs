//! # picbench-bench
//!
//! Reproduction harness: every table and figure of the paper can be
//! regenerated as text via the functions in this crate (wired to the
//! `repro` binary), and the Criterion benches measure the simulator and
//! evaluation pipeline.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (benchmark description) | [`table1`] |
//! | Table II (failure types & restrictions) | [`table2`] |
//! | Table III (Pass@k without restrictions) | [`table3`] |
//! | Table IV (Pass@k with restrictions) | [`table4`] |
//! | Fig. 1 (framework flow) | [`fig1`] |
//! | Fig. 2 (problem description) | [`fig2`] |
//! | Fig. 3 (system prompt template) | [`fig3`] |
//! | Fig. 4 (feedback session example) | [`fig4`] |

#![warn(missing_docs)]

use picbench_core::{
    collect_error_histogram, render_table, restriction_ablation, run_sample, Campaign,
    CampaignConfig, CampaignEvent, CampaignReport, EvalStore, Evaluator, LoopConfig,
};
use picbench_netlist::json::Value;
use picbench_netlist::{FailureType, PortRef};
use picbench_prompt::{render_system_prompt, syntax_feedback, SystemPromptConfig};
use picbench_sim::WavelengthGrid;
use picbench_synthllm::{ModelProfile, SyntheticLlm};
use std::fmt::Write as _;
use std::str::FromStr;

/// Campaign scale knobs for the table reproductions.
#[derive(Debug, Clone)]
pub struct ReproScale {
    /// Samples per problem (paper: 5).
    pub samples: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign worker threads (0 = one per available core). The report
    /// is bit-identical for every thread count.
    pub threads: usize,
    /// Restrict Monte-Carlo artifacts to these built-in problem ids
    /// (`None` = the full built-in suite, as in the paper).
    pub problems: Option<Vec<String>>,
    /// Directory of a persistent [`EvalStore`]: campaigns journal
    /// completed cells through it and use it as the disk tier under the
    /// evaluation cache (`None` = fully in-memory).
    pub store_dir: Option<std::path::PathBuf>,
    /// Resume from the journal in `store_dir`: cells completed by a
    /// previous identically-configured run are replayed instead of
    /// re-evaluated. No effect without `store_dir`.
    pub resume: bool,
    /// Above 1, the Monte-Carlo campaigns run sharded: the cell matrix
    /// is partitioned over this many supervised in-process workers,
    /// each journalling through its own lease-fenced directory, and the
    /// tables are merged deterministically — bit-identical for every
    /// shard count. Journals land under `store_dir/shards` when a store
    /// directory is set, else in a temporary directory.
    pub shards: u32,
    /// Emit every [`CampaignEvent`] to stderr as a canonical NDJSON
    /// wire line (the exact bytes `picbench-server` streams over
    /// `GET /v1/campaigns/{id}/events`), one line per event. Stdout
    /// stays reserved for the artifact text.
    pub events_ndjson: bool,
}

impl Default for ReproScale {
    fn default() -> Self {
        ReproScale {
            samples: 5,
            seed: 20_250_205,
            threads: 0,
            problems: None,
            store_dir: None,
            resume: false,
            shards: 0,
            events_ndjson: false,
        }
    }
}

/// An observer that prints each event's canonical NDJSON wire line to
/// stderr (`eprintln!` holds the stderr lock per line, so lines stay
/// whole even from parallel campaign workers).
pub fn ndjson_stderr_observer() -> std::sync::Arc<dyn picbench_core::CampaignObserver> {
    std::sync::Arc::new(|event: &CampaignEvent| {
        eprintln!("{}", picbench_server::wire::encode_event(event));
    })
}

/// Resolves the scale's problem selection against the built-in suite.
///
/// # Errors
///
/// Returns the first unknown or repeated id, so the CLI can fail with a
/// usable message instead of silently shrinking (or double-weighting)
/// the matrix.
pub fn resolve_problems(scale: &ReproScale) -> Result<Vec<picbench_problems::Problem>, String> {
    match &scale.problems {
        None => Ok(picbench_problems::suite()),
        Some(ids) => {
            let mut seen = std::collections::HashSet::new();
            ids.iter()
                .map(|id| {
                    if !seen.insert(id.as_str()) {
                        return Err(format!(
                            "problem id {id:?} listed more than once in --problems"
                        ));
                    }
                    picbench_problems::find(id)
                        .ok_or_else(|| format!("unknown problem id {id:?} (see --list-problems)"))
                })
                .collect()
        }
    }
}

/// Renders the built-in problem inventory — id, display name, category
/// and golden size — for `repro --list-problems`.
pub fn list_problems() -> String {
    let problems = picbench_problems::suite();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:<22} {:>9}",
        "Id", "Name", "Category", "Instances"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for p in &problems {
        let _ = writeln!(
            out,
            "{:<18} {:<22} {:<22} {:>9}",
            p.id,
            p.name,
            p.category.to_string(),
            p.golden_instance_count()
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(74));
    let _ = writeln!(out, "Total: {} problems", problems.len());
    out
}

/// A command-line mistake: an unknown flag, a flag without its value,
/// or a value the flag does not accept. [`parse_flags`] prints it with
/// the binary's usage line and exits with status 2.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

/// The flag reader of the bench binaries, built from an explicit argv
/// (without the program name).
///
/// A token is a flag when it starts with `--` or is one of the
/// `switches` given to [`Flags::new`]. A flag that is not a switch takes
/// the next token as its value, whatever it is; any other token is a
/// positional argument. Each getter marks the flag it reads, and
/// [`Flags::read`] rejects every flag no getter asked for. When a flag
/// is repeated, every value must parse and the last one wins.
#[derive(Debug)]
pub struct Flags {
    /// `(flag, value, read)` in argv order.
    flags: Vec<(String, Option<String>, bool)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Splits `argv` into flags and positional arguments.
    pub fn new(argv: impl IntoIterator<Item = String>, switches: &[&str]) -> Flags {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(token) = argv.next() {
            if switches.contains(&token.as_str()) {
                flags.push((token, None, false));
            } else if token.starts_with("--") {
                flags.push((token, argv.next(), false));
            } else {
                positionals.push(token);
            }
        }
        Flags { flags, positionals }
    }

    /// Marks `flag` read and parses each of its values with `parse`,
    /// keeping the last.
    fn each<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, UsageError> {
        let mut last = None;
        for (_, value, read) in self.flags.iter_mut().filter(|(name, ..)| name == flag) {
            *read = true;
            let value = value
                .as_deref()
                .ok_or_else(|| format!("{flag} needs a value"));
            last = Some(value.and_then(&parse).map_err(UsageError)?);
        }
        Ok(last)
    }

    /// The value of `flag` parsed as `T`, or `None` when it is absent.
    ///
    /// # Errors
    ///
    /// A missing value, or one `T` does not parse; the message names the
    /// flag.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, UsageError>
    where
        T::Err: std::fmt::Display,
    {
        self.each(flag, |v| {
            v.parse().map_err(|e| format!("{flag}: {e} (got {v:?})"))
        })
    }

    /// [`Flags::value`], refusing a value `keep` rejects with
    /// "`flag` needs `what`".
    ///
    /// # Errors
    ///
    /// A missing value, or one that does not parse or `keep` rejects.
    pub fn value_where<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        keep: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, UsageError> {
        self.each(flag, |v| {
            v.parse()
                .ok()
                .filter(|x| keep(x))
                .ok_or_else(|| format!("{flag} needs {what} (got {v:?})"))
        })
    }

    /// The comma-separated value of `flag` (items trimmed, empty items
    /// dropped), each parsed as `T`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// A missing or empty list, or an item `T` does not parse.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Option<Vec<T>>, UsageError>
    where
        T::Err: std::fmt::Display,
    {
        self.each(flag, |v| {
            let items = v
                .split(',')
                .map(str::trim)
                .filter(|item| !item.is_empty())
                .map(|item| {
                    item.parse()
                        .map_err(|e| format!("{flag}: {e} (got {item:?})"))
                })
                .collect::<Result<Vec<T>, _>>()?;
            let empty = || format!("{flag} needs a comma-separated list");
            (!items.is_empty()).then_some(items).ok_or_else(empty)
        })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut seen = false;
        for (.., read) in self.flags.iter_mut().filter(|(name, ..)| name == flag) {
            (*read, seen) = (true, true);
        }
        seen
    }

    /// The positional arguments, in order.
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positionals)
    }

    /// Runs `read` over these flags, then checks that it read every flag
    /// and positional argument.
    ///
    /// # Errors
    ///
    /// The first error of `read`; else the first flag no getter asked
    /// for, or the first positional argument [`Flags::positionals`] did
    /// not take.
    pub fn read<T>(
        mut self,
        read: impl FnOnce(&mut Flags) -> Result<T, UsageError>,
    ) -> Result<T, UsageError> {
        let value = read(&mut self)?;
        if let Some((name, ..)) = self.flags.iter().find(|(.., read)| !read) {
            return Err(UsageError(format!("unknown flag {name}")));
        }
        match self.positionals.first() {
            Some(extra) => Err(UsageError(format!("unexpected argument {extra:?}"))),
            None => Ok(value),
        }
    }
}

/// Reads this process's arguments through [`Flags::read`]. On a
/// [`UsageError`] it prints the error and `usage` to stderr and exits
/// with status 2, before the binary does any work.
pub fn parse_flags<T>(
    usage: &str,
    switches: &[&str],
    read: impl FnOnce(&mut Flags) -> Result<T, UsageError>,
) -> T {
    Flags::new(std::env::args().skip(1), switches)
        .read(read)
        .unwrap_or_else(|e| {
            eprintln!("{}\n{usage}", e.0);
            std::process::exit(2);
        })
}

/// Min, median and 90th percentile of repeated measurements, each a
/// nearest-rank value (an actual sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The smallest sample.
    pub min: f64,
    /// The nearest-rank median: the lower middle sample of an even count.
    pub median: f64,
    /// The nearest-rank 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// On an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            min: nearest_rank(samples, 0.0),
            median: nearest_rank(samples, 0.5),
            p90: nearest_rank(samples, 0.9),
        }
    }
}

/// The nearest-rank `p`-quantile of `samples` (`0 <= p <= 1`): the
/// smallest sample with at least `p·n` samples at or below it; `p = 0`
/// gives the minimum.
///
/// # Panics
///
/// On an empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A value a report field can hold; see [`fields!`].
pub trait ToJson {
    /// This value as JSON.
    fn to_json(self) -> Value;
}

/// Report fields from `"key": value` pairs, each value converted by
/// [`ToJson`]; a nested `fields!` becomes a JSON object.
#[macro_export]
macro_rules! fields {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), $crate::ToJson::to_json($value))),*]
    };
}

macro_rules! impl_to_json {
    ($($ty:ty => |$v:ident| $json:expr;)*) => {
        $(impl ToJson for $ty {
            fn to_json(self) -> Value {
                let $v = self;
                $json
            }
        })*
    };
}

impl_to_json! {
    Value => |v| v;
    bool => |b| Value::Bool(b);
    f64 => |x| Value::Number(x);
    usize => |n| Value::Number(n as f64);
    u64 => |n| Value::Uint(n);
    &str => |s| Value::String(s.to_string());
    String => |s| Value::String(s);
    Vec<Value> => |items| Value::Array(items);
    Vec<(String, Value)> => |fields| Value::Object(fields);
    Summary => |s| Value::Object(fields! {
        "min": rounded(s.min, 3),
        "median": rounded(s.median, 3),
        "p90": rounded(s.p90, 3),
    });
}

/// A JSON number rounded to `decimals` places.
pub fn rounded(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Number((x * scale).round() / scale)
}

/// The `cargo run` command of `bin` with the arguments this process was
/// started with, so a report names the flags that wrote it.
pub fn generated_by(bin: &str) -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dashes = if args.is_empty() { "" } else { " -- " };
    format!(
        "cargo run --release -p picbench-bench --bin {bin}{dashes}{}",
        args.join(" ")
    )
}

/// A bench report: `fields` in order, then `host` (`{cpus,
/// simd_level}`) and, last, `generated_by` ([`generated_by`]).
pub fn report(bin: &str, mut fields: Vec<(String, Value)>) -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd_level = picbench_math::simd::available_level().token();
    fields.extend(fields! {
        "host": fields! { "cpus": cpus, "simd_level": simd_level },
        "generated_by": generated_by(bin),
    });
    Value::Object(fields)
}

/// Writes `report` to `path` as pretty-printed JSON.
///
/// # Panics
///
/// When the file cannot be written.
pub fn write_report(path: &str, report: &Value) {
    let text = picbench_netlist::json::to_string_pretty(report) + "\n";
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write benchmark report {path}: {e}"));
    println!("wrote {path}");
}

/// Claims a fresh, empty scratch directory `<temp>/<prefix>-<pid>-<n>`.
///
/// Creation is fail-closed (`create_dir`, not `create_dir_all`): a name
/// that already exists, such as one a crashed run with the same pid
/// left behind or one another thread just claimed, is skipped for the
/// next `n`, so two runs never share a store or journal.
///
/// # Panics
///
/// When the directory cannot be created, or 1024 names are taken.
pub fn claim_scratch_dir(prefix: &str) -> std::path::PathBuf {
    let pid = std::process::id();
    for n in 0..1024 {
        let dir = std::env::temp_dir().join(format!("{prefix}-{pid}-{n}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return dir,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => panic!("create scratch dir {}: {e}", dir.display()),
        }
    }
    panic!(
        "could not claim a scratch directory {prefix}-{pid}-* under {}",
        std::env::temp_dir().display()
    );
}

/// Regenerates Table I: the 24-problem inventory with categories, golden
/// design sizes and port counts. Every golden design is elaborated and
/// simulated at one wavelength before printing, so the table doubles as a
/// health check.
pub fn table1() -> String {
    let problems = picbench_problems::suite();
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(out, "TABLE I: Benchmark Description (24 problems)");
    let _ = writeln!(
        out,
        "{:<22} {:<22} {:>9} {:>7} {:>8}",
        "Design", "Category", "Instances", "Inputs", "Outputs"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    let mut current_category = None;
    for p in &problems {
        // Simulating the golden guarantees the row describes a live design.
        let _ = evaluator.golden_response_arc(p);
        if current_category != Some(p.category) {
            let _ = writeln!(out, "--- {} ---", p.category);
            current_category = Some(p.category);
        }
        let _ = writeln!(
            out,
            "{:<22} {:<22} {:>9} {:>7} {:>8}",
            p.name,
            p.category.to_string(),
            p.golden_instance_count(),
            p.spec.inputs,
            p.spec.outputs
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(out, "Total: {} problems", problems.len());
    out
}

/// Regenerates Table II: the failure taxonomy with restriction texts.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE II: Restrictions for the PIC design task (failure types and constraints)"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for failure in FailureType::ALL {
        let _ = writeln!(out, "Failure type: {}", failure.label());
        let restriction = failure.restriction();
        if restriction.is_empty() {
            let _ = writeln!(out, "Restriction : (none)");
        } else {
            let _ = writeln!(out, "Restriction : {restriction}");
        }
        let _ = writeln!(out, "{}", "-".repeat(78));
    }
    out
}

/// Runs `problems × profiles` under `config` in memory: no store, no
/// shards, no observer.
pub fn run_campaign(
    problems: &[picbench_problems::Problem],
    profiles: &[ModelProfile],
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

fn campaign(restrictions: bool, scale: &ReproScale) -> Result<CampaignReport, String> {
    let profiles = ModelProfile::all_paper_models();
    let problems = resolve_problems(scale)?;
    let config = CampaignConfig {
        samples_per_problem: scale.samples,
        k_values: vec![1, scale.samples],
        feedback_iters: vec![0, 1, 3],
        restrictions,
        seed: scale.seed,
        grid: WavelengthGrid::paper_fast(),
        threads: scale.threads,
        ..CampaignConfig::default()
    };
    let mut builder = Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config);
    if scale.events_ndjson {
        builder = builder.observer(ndjson_stderr_observer());
    }
    if let Some(dir) = &scale.store_dir {
        let store = EvalStore::open(dir)
            .map_err(|e| format!("cannot open eval store at {}: {e}", dir.display()))?;
        let store = std::sync::Arc::new(store);
        builder = if scale.resume {
            builder.resume_from(store)
        } else {
            builder.store(store)
        };
    }
    // Sharded execution supersedes the in-process engine (and its store
    // journalling): each worker journals through its own lease-fenced
    // shard directory instead, and an interrupted run resumes from those
    // journals when pointed at the same directory again.
    let mut ephemeral_shard_dir = None;
    if scale.shards > 1 {
        let dir = match &scale.store_dir {
            Some(store_dir) => store_dir.join("shards"),
            None => {
                let dir = claim_scratch_dir("picbench-repro-shards");
                ephemeral_shard_dir = Some(dir.clone());
                dir
            }
        };
        builder = builder.shards(scale.shards).shard_dir(dir);
    }
    let session = builder.build().map_err(|e| e.to_string())?;
    let report = session.run();
    if let Some(dir) = ephemeral_shard_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Regenerates Table III: Pass@1/Pass@n syntax and functionality for the
/// five model profiles at 0/1/3 feedback iterations, restrictions OFF.
///
/// # Errors
///
/// Returns a message naming the first unknown id in `scale.problems`.
pub fn table3(scale: &ReproScale) -> Result<String, String> {
    Ok(render_table(
        &campaign(false, scale)?,
        "TABLE III: Syntax and Functionality evaluation (without restrictions)",
    ))
}

/// Regenerates Table IV: the same matrix with the Table II restrictions
/// in the system prompt.
///
/// # Errors
///
/// Returns a message naming the first unknown id in `scale.problems`.
pub fn table4(scale: &ReproScale) -> Result<String, String> {
    Ok(render_table(
        &campaign(true, scale)?,
        "TABLE IV: Syntax and Functionality evaluation (with restrictions)",
    ))
}

/// Regenerates Fig. 1 as an annotated end-to-end trace of the framework
/// flow: generation → syntax check → classification → feedback →
/// re-generation → functionality check.
pub fn fig1() -> String {
    let problem = picbench_problems::find("clements-4x4").expect("problem exists");
    let mut evaluator = Evaluator::default();
    let golden = evaluator.golden(&problem).expect("golden simulates");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 1: PICBench framework flow (live trace)");
    let _ = writeln!(out, "Problem: {} ({})", problem.name, problem.id);

    // Find a sample whose trajectory exercises the feedback loop and ends
    // in a pass — the canonical Fig. 1 story.
    let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 7);
    for sample in 0..200 {
        let result = run_sample(
            &mut llm,
            &problem,
            &golden,
            &mut evaluator,
            LoopConfig {
                max_feedback_iters: 3,
                restrictions: true,
            },
            sample,
        );
        if result.feedback_rounds_used() >= 1 && result.functional_pass() {
            for attempt in &result.attempts {
                let _ = writeln!(out, "\n--- Iter {} ---", attempt.iteration);
                match (&attempt.report.syntax, attempt.report.functional) {
                    (Err(issues), _) => {
                        let _ = writeln!(out, "Syntax valid? NO");
                        for issue in issues {
                            let _ = writeln!(out, "  classified: {issue}");
                        }
                        let _ = writeln!(out, "  -> error feedback loop engaged");
                    }
                    (Ok(()), Some(false)) => {
                        let _ = writeln!(out, "Syntax valid? YES");
                        let _ = writeln!(out, "Consistent with golden? NO");
                        let _ = writeln!(out, "  -> functional feedback sent");
                    }
                    (Ok(()), _) => {
                        let _ = writeln!(out, "Syntax valid? YES");
                        let _ = writeln!(out, "Consistent with golden? YES  => PASS");
                    }
                }
            }
            let _ = writeln!(
                out,
                "\nSample {} of model {} passed after {} feedback round(s).",
                sample,
                result.model,
                result.feedback_rounds_used()
            );
            return out;
        }
    }
    let _ = writeln!(out, "(no multi-round passing trace found — unexpected)");
    out
}

/// Regenerates Fig. 2: the example problem description (`MZI ps`).
pub fn fig2() -> String {
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");
    format!(
        "FIG. 2: Example of problem description\n\nProblem Description ({}):\n{}\n",
        problem.name, problem.description
    )
}

/// Regenerates Fig. 3: the system prompt template (with restrictions).
pub fn fig3() -> String {
    let models = picbench_sparams::builtin_models();
    let infos: Vec<_> = models.iter().map(|m| m.info().clone()).collect();
    let prompt = render_system_prompt(
        infos.iter(),
        SystemPromptConfig {
            include_restrictions: true,
        },
    );
    format!("FIG. 3: System prompt template for code generation\n\n{prompt}\n")
}

/// Regenerates Fig. 4: the `MZI ps` feedback session — the initial
/// response wires `phaseShifter,O1` to the non-existent `mmi2,I2`, the
/// evaluator classifies the Wrong-ports error with the exact message from
/// the figure, and the corrected netlist passes.
pub fn fig4() -> String {
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");
    let mut evaluator = Evaluator::default();
    let golden = evaluator.golden(&problem).expect("golden simulates");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 4: Solving MZI ps with correction feedback\n");

    // Iter 0: the figure's faulty netlist (connects to mmi2,I2).
    let mut faulty = problem.golden.clone();
    faulty.connections[1].b = PortRef::new("mmi2", "I2");
    let faulty_text = format!("<result>\n{}\n</result>", faulty.to_json_string());
    let report = evaluator.evaluate_response(&problem, &golden, &faulty_text);
    let _ = writeln!(out, "Iter 0: LLM initial response and evaluation");
    let _ = writeln!(out, "{}\n", faulty.to_json_string());
    let _ = writeln!(out, "Evaluation: Syntax Error");
    let _ = writeln!(out, "Evaluation information:");
    let _ = writeln!(out, "{}", syntax_feedback(&problem.id, report.issues()));

    // Iter 1: the corrected response (the golden design).
    let fixed_text = format!("<result>\n{}\n</result>", problem.golden.to_json_string());
    let report = evaluator.evaluate_response(&problem, &golden, &fixed_text);
    let _ = writeln!(out, "\nIter 1: Correction feedback applied");
    let _ = writeln!(out, "{}\n", problem.golden.to_json_string());
    let _ = writeln!(
        out,
        "Evaluation: {}",
        if report.functional_pass() {
            "PASS"
        } else {
            "FAIL (unexpected)"
        }
    );
    out
}

/// Extension experiment: the failure-category histogram per model — the
/// measurement behind the paper's error-classification loop (§III-D).
/// Shows which Table II categories each model actually commits, with and
/// without restrictions.
pub fn error_histograms(scale: &ReproScale) -> Result<String, String> {
    let problems = resolve_problems(scale)?;
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXT-1: Classified failure-category incidence per model \
         (first attempts, {} samples/problem)",
        scale.samples
    );
    for restrictions in [false, true] {
        let _ = writeln!(
            out,
            "\n=== restrictions {} ===",
            if restrictions { "ON" } else { "OFF" }
        );
        for profile in ModelProfile::all_paper_models() {
            let histogram = collect_error_histogram(
                &profile,
                &problems,
                &mut evaluator,
                scale.samples as u64,
                restrictions,
                scale.seed,
            );
            let _ = writeln!(
                out,
                "\n{} — {}/{} first attempts failed syntax:",
                histogram.model, histogram.failing_attempts, histogram.attempts
            );
            for (category, count) in histogram.ranked() {
                let _ = writeln!(out, "  {:>4}  {}", count, category.label());
            }
        }
    }
    Ok(out)
}

/// Extension experiment: leave-one-out restriction ablation — how much
/// syntax Pass@1 drops when each single Table II restriction is removed
/// from the system prompt.
pub fn restriction_ablation_table(scale: &ReproScale) -> Result<String, String> {
    let problems = resolve_problems(scale)?;
    let mut evaluator = Evaluator::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXT-2: Leave-one-out restriction ablation ({} samples/problem)",
        scale.samples
    );
    for profile in [ModelProfile::gemini15_pro(), ModelProfile::gpt4o()] {
        let rows = restriction_ablation(
            &profile,
            &problems,
            &mut evaluator,
            scale.samples as u64,
            scale.seed,
        );
        let baseline = rows[0].syntax_pass1;
        let _ = writeln!(
            out,
            "\nModel: {} (full set: {:.2}% syntax Pass@1)",
            profile.name, baseline
        );
        let _ = writeln!(
            out,
            "{:<45} {:>8} {:>8}",
            "removed restriction", "Pass@1", "delta"
        );
        for row in rows.iter().skip(1) {
            let label = row.removed.map(|f| f.label()).unwrap_or("(none)");
            let _ = writeln!(
                out,
                "{:<45} {:>7.2}% {:>+7.2}",
                label,
                row.syntax_pass1,
                row.syntax_pass1 - baseline
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::json;

    #[test]
    fn generated_by_is_a_json_cargo_command() {
        let command = generated_by("sweep_bench");
        assert!(command.starts_with("cargo run --release -p picbench-bench --bin sweep_bench"));
        let rendered = json::to_string(&report("sweep_bench", Vec::new()));
        let parsed = json::parse(&rendered).unwrap();
        assert_eq!(
            parsed.get("generated_by").and_then(|v| v.as_str()),
            Some(command.as_str())
        );
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_read_values_lists_switches_and_positionals() {
        let args = argv(&[
            "table3",
            "--samples",
            "3",
            "--resume",
            "--problems",
            "mzm, mzi-ps,",
            "table4",
            "--samples",
            "7",
        ]);
        let read = Flags::new(args, &["--resume"]).read(|f| {
            // A repeated flag: the last value wins.
            assert_eq!(f.value::<usize>("--samples"), Ok(Some(7)));
            assert_eq!(f.value::<u64>("--seed"), Ok(None));
            assert_eq!(
                f.list::<String>("--problems"),
                Ok(Some(vec!["mzm".to_string(), "mzi-ps".to_string()]))
            );
            assert!(f.switch("--resume"));
            assert!(!f.switch("--list-problems"));
            Ok(f.positionals())
        });
        assert_eq!(read, Ok(argv(&["table3", "table4"])));
    }

    #[test]
    fn flags_reject_unknown_flags_missing_and_bad_values() {
        let unknown = Flags::new(argv(&["--reps", "2", "--no-such-flag"]), &[])
            .read(|f| f.value::<usize>("--reps"));
        assert_eq!(
            unknown,
            Err(UsageError("unknown flag --no-such-flag".into()))
        );

        let missing = Flags::new(argv(&["--reps"]), &[]).read(|f| f.value::<usize>("--reps"));
        assert_eq!(missing, Err(UsageError("--reps needs a value".into())));

        // A switch never swallows the next token, a value flag always does.
        let mut f = Flags::new(argv(&["--resume", "--out", "--resume"]), &["--resume"]);
        assert_eq!(f.value::<String>("--out"), Ok(Some("--resume".to_string())));

        let bad = Flags::new(argv(&["--reps", "x"]), &[]).read(|f| f.value::<usize>("--reps"));
        assert!(bad.unwrap_err().0.starts_with("--reps: "));

        let refused = Flags::new(argv(&["--reps", "0"]), &[])
            .read(|f| f.value_where("--reps", "a positive integer", |&n: &usize| n >= 1));
        assert_eq!(
            refused,
            Err(UsageError(
                "--reps needs a positive integer (got \"0\")".into()
            ))
        );

        // Every repeat must parse, not only the last.
        let early = Flags::new(argv(&["--reps", "x", "--reps", "2"]), &[])
            .read(|f| f.value::<usize>("--reps"));
        assert!(early.is_err());

        let empty =
            Flags::new(argv(&["--models", " , "]), &[]).read(|f| f.list::<String>("--models"));
        assert!(empty.is_err());

        let stray = Flags::new(argv(&["table3"]), &[]).read(|_| Ok(()));
        assert_eq!(
            stray,
            Err(UsageError("unexpected argument \"table3\"".into()))
        );
    }

    #[test]
    fn summary_takes_nearest_rank_values() {
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            even,
            Summary {
                min: 1.0,
                median: 2.0,
                p90: 4.0
            }
        );
        let odd = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.min, odd.median, odd.p90), (1.0, 3.0, 5.0));
        let one = Summary::of(&[7.5]);
        assert_eq!((one.min, one.median, one.p90), (7.5, 7.5, 7.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), 99.0);
        assert_eq!(Summary::of(&hundred).p90, 90.0);
    }

    #[test]
    fn report_parses_with_host_and_ends_with_generated_by() {
        let fields = vec![
            ("benchmark".into(), Value::String("test".into())),
            ("timing_ms".into(), Summary::of(&[2.0, 1.0]).to_json()),
        ];
        let text = json::to_string_pretty(&report("sweep_bench", fields));
        let parsed = json::parse(&text).unwrap();
        let host = parsed.get("host").unwrap();
        assert!(host.get("cpus").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(
            host.get("simd_level").and_then(Value::as_str),
            Some(picbench_math::simd::available_level().token())
        );
        let timing = parsed.get("timing_ms").unwrap();
        assert_eq!(timing.get("median").and_then(Value::as_f64), Some(1.0));
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["benchmark", "timing_ms", "host", "generated_by"]);
    }

    #[test]
    fn committed_reports_come_from_the_report_writer() {
        let summary = |v: &Value| ["min", "median", "p90"].map(|k| v.get(k).is_some());
        let reports = [
            (include_str!("../../../BENCH_pipeline.json"), "workloads"),
            (include_str!("../../../BENCH_campaign.json"), "results"),
            (include_str!("../../../BENCH_server.json"), "results"),
        ];
        for (text, section) in reports {
            let report = json::parse(text).unwrap();
            let host = report.get("host").unwrap();
            assert!(host.get("cpus").is_some() && host.get("simd_level").is_some());
            let (last, _) = report.as_object().unwrap().last().unwrap();
            assert_eq!(last, "generated_by");
            let section = report.get(section).unwrap();
            let timings: Vec<&Value> = match section.as_array() {
                Some(workloads) => workloads.iter().flat_map(|w| w.get("plan_ms")).collect(),
                None => ["cached_ms", "sessions_per_sec", "latency_ms"]
                    .iter()
                    .flat_map(|k| section.get(k))
                    .collect(),
            };
            assert!(!timings.is_empty());
            for timing in timings {
                assert_eq!(summary(timing), [true; 3], "{timing:?}");
            }
        }
    }

    #[test]
    fn scratch_dirs_are_distinct_fresh_and_skip_taken_names() {
        let prefix = "picbench-bench-claim-test";
        let taken = std::env::temp_dir().join(format!("{prefix}-{}-0", std::process::id()));
        std::fs::create_dir_all(taken.join("leftover")).unwrap();
        let first = claim_scratch_dir(prefix);
        let second = claim_scratch_dir(prefix);
        for dir in [&first, &second] {
            assert_ne!(dir, &taken);
            assert!(dir.is_dir());
            assert_eq!(std::fs::read_dir(dir).unwrap().count(), 0);
        }
        assert_ne!(first, second);
        for dir in [taken, first, second] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn list_problems_covers_the_registry() {
        let listing = list_problems();
        assert!(listing.contains("mzi-ps"));
        assert!(listing.contains("spankebenes-8x8"));
        assert!(listing.contains("Total: "));
    }

    #[test]
    fn resolve_problems_filters_and_rejects_unknown_ids() {
        let all = resolve_problems(&ReproScale::default()).unwrap();
        assert_eq!(all.len(), 24);
        let filtered = resolve_problems(&ReproScale {
            problems: Some(vec!["mzm".to_string(), "mzi-ps".to_string()]),
            ..ReproScale::default()
        })
        .unwrap();
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered[0].id, "mzm");
        assert_eq!(filtered[1].id, "mzi-ps");
        let err = resolve_problems(&ReproScale {
            problems: Some(vec!["warp-core".to_string()]),
            ..ReproScale::default()
        })
        .unwrap_err();
        assert!(err.contains("warp-core"));
        // Repeated ids would double-weight Pass@k and silently collapse
        // in the id-keyed tallies — rejected up front instead.
        let err = resolve_problems(&ReproScale {
            problems: Some(vec!["mzm".to_string(), "mzm".to_string()]),
            ..ReproScale::default()
        })
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn filtered_table3_runs_on_the_selected_problems_only() {
        let scale = ReproScale {
            samples: 1,
            problems: Some(vec!["mzi-ps".to_string()]),
            ..ReproScale::default()
        };
        let table = table3(&scale).unwrap();
        assert!(table.contains("TABLE III"));
        assert!(table.contains("GPT-4"));
        let err = table3(&ReproScale {
            problems: Some(vec!["warp-core".to_string()]),
            ..scale
        })
        .unwrap_err();
        assert!(err.contains("warp-core"));
    }

    #[test]
    fn sharded_table3_is_bit_identical_to_single_process() {
        let scale = ReproScale {
            samples: 1,
            problems: Some(vec!["mzi-ps".to_string()]),
            ..ReproScale::default()
        };
        let single = table3(&scale).unwrap();
        let sharded = table3(&ReproScale { shards: 3, ..scale }).unwrap();
        assert_eq!(single, sharded);
    }

    #[test]
    fn table1_lists_all_24() {
        let t = table1();
        assert!(t.contains("Total: 24 problems"));
        assert!(t.contains("Clements 4x4"));
        assert!(t.contains("Spanke-Benes 8x8"));
        assert!(t.contains("MZI ps"));
    }

    #[test]
    fn table2_lists_all_categories() {
        let t = table2();
        for f in FailureType::ALL {
            assert!(t.contains(f.label()), "missing {}", f.label());
        }
    }

    #[test]
    fn fig2_is_the_mzi_ps_brief() {
        let f = fig2();
        assert!(f.contains("Mach-Zehnder interferometer"));
        assert!(f.contains("Parameters:"));
    }

    #[test]
    fn fig3_contains_prompt_sections() {
        let f = fig3();
        assert!(f.contains("<<<JSON format>>>"));
        assert!(f.contains("<<<API document>>>"));
        assert!(f.contains("Restrictions"));
    }

    #[test]
    fn fig4_reproduces_the_wrong_ports_error() {
        let f = fig4();
        assert!(f.contains("Wrong ports error"));
        assert!(f.contains("Instance mmi2 does not contain port I2"));
        assert!(f.contains("Evaluation: PASS"));
    }
}
