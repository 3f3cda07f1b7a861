//! `crash_recovery` — the kill/resume drill behind the CI crash-safety
//! gate.
//!
//! The parent process runs one campaign three ways:
//!
//! 1. **control** — uninterrupted, fully in-memory;
//! 2. **crash** — re-executes itself as a child whose campaign observer
//!    hard-aborts (`std::process::abort`, no destructors) on the N-th
//!    `CellFinished` event: the child journals cells through a
//!    persistent store, and `CellFinished` is emitted only after the
//!    cell's journal record is fsync'd, so the abort lands right after
//!    the N-th fsync. With `--kill-after 0` it aborts on the first
//!    `CellStarted`, before any cell is journalled;
//! 3. **resume** — reopens the store the dead child left behind and
//!    resumes the campaign from its journal.
//!
//! The drill passes only if the child really died abnormally, the resume
//! restored at least the N journalled cells, and the merged report is
//! **bit-identical** to the control run (`CampaignReport::same_results`).
//!
//! A wall-clock watchdog (`--timeout-secs`, default 300) bounds the
//! child: an abort that never trips would otherwise hang CI with no
//! diagnostic. The child's stderr is captured and folded into every
//! failure message, so a child that panics — instead of aborting at the
//! boundary — names its actual error in the drill output.
//!
//! Usage: `cargo run --release -p picbench-bench --bin crash_recovery --
//! [--kill-after N] [--problems N] [--samples N] [--threads N]
//! [--store-dir PATH] [--timeout-secs N]`

use picbench_bench::{claim_scratch_dir, parse_flags, run_campaign, Flags, UsageError};
use picbench_core::{Campaign, CampaignConfig, CampaignEvent, EvalStore};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_synthllm::ModelProfile;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    kill_after: usize,
    problems: usize,
    samples: usize,
    threads: usize,
    store_dir: Option<PathBuf>,
    timeout_secs: u64,
    /// Internal: set when this process is the crash child.
    child: bool,
}

const USAGE: &str = "usage: crash_recovery [--kill-after N] [--problems N] [--samples N] \
                     [--threads N] [--store-dir PATH] [--timeout-secs N]";

fn read_args(f: &mut Flags) -> Result<Args, UsageError> {
    Ok(Args {
        kill_after: f.value("--kill-after")?.unwrap_or(3),
        problems: f.value("--problems")?.unwrap_or(6).max(1),
        samples: f.value("--samples")?.unwrap_or(2).max(1),
        threads: f.value("--threads")?.unwrap_or(2),
        store_dir: f.value("--store-dir")?,
        timeout_secs: f.value("--timeout-secs")?.unwrap_or(300).max(1),
        child: f.switch("--child"),
    })
}

fn workload(args: &Args) -> (Vec<Problem>, Vec<ModelProfile>, CampaignConfig) {
    let mut problems = picbench_problems::suite();
    problems.truncate(args.problems);
    let profiles = vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()];
    let config = CampaignConfig {
        samples_per_problem: args.samples,
        k_values: vec![1, args.samples],
        feedback_iters: vec![0, 1],
        restrictions: false,
        seed: 20_250_205,
        grid: WavelengthGrid::paper_fast(),
        threads: args.threads,
        ..CampaignConfig::default()
    };
    (problems, profiles, config)
}

/// The crash child: journal through the store and hard-abort at the
/// configured cell boundary. Reaching the end of `execute` means the
/// abort never tripped — exit 0 and let the parent flag it.
fn run_child(args: &Args, store_dir: &PathBuf) -> ! {
    let (problems, profiles, config) = workload(args);
    let store = Arc::new(EvalStore::open(store_dir).expect("child: open eval store"));
    let kill_after = args.kill_after;
    let finished = AtomicUsize::new(0);
    let campaign = Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config)
        .store(store)
        .observer(Arc::new(move |event: &CampaignEvent| match event {
            CampaignEvent::CellStarted { .. } if kill_after == 0 => std::process::abort(),
            CampaignEvent::CellFinished { .. }
                if finished.fetch_add(1, Ordering::Relaxed) + 1 == kill_after =>
            {
                std::process::abort()
            }
            _ => {}
        }))
        .build()
        .expect("valid campaign definition");
    let _ = campaign.execute();
    std::process::exit(0);
}

/// Runs the crash child under a wall-clock watchdog, draining its
/// stderr on a reader thread. On timeout the child is killed and the
/// drill panics with whatever the child managed to say — an abort
/// that never trips must not hang CI silently.
fn supervise_child(cmd: &mut std::process::Command, timeout: Duration) -> (ExitStatus, String) {
    let mut child = cmd
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crash child");
    let mut pipe = child.stderr.take().expect("child stderr is piped");
    let reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = pipe.read_to_string(&mut buf);
        buf
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("poll crash child") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let stderr = reader.join().unwrap_or_default();
                panic!(
                    "crash child exceeded the {}s watchdog and was killed — \
                     the abort likely never tripped{}",
                    timeout.as_secs(),
                    render_stderr(&stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    (status, reader.join().unwrap_or_default())
}

/// Indents captured child stderr for inclusion in drill messages;
/// empty when the child said nothing.
fn render_stderr(stderr: &str) -> String {
    if stderr.trim().is_empty() {
        return String::new();
    }
    let indented: String = stderr
        .trim_end()
        .lines()
        .map(|line| format!("\n  | {line}"))
        .collect();
    format!("\n  child stderr:{indented}")
}

fn main() {
    let args = parse_flags(USAGE, &["--child"], read_args);
    let store_dir = args
        .store_dir
        .clone()
        .unwrap_or_else(|| claim_scratch_dir("picbench-crash-recovery"));
    if args.child {
        run_child(&args, &store_dir);
    }
    let ephemeral = args.store_dir.is_none();

    let (problems, profiles, config) = workload(&args);
    let cells = problems.len() * profiles.len() * config.feedback_iters.len();
    let kill_after = args.kill_after.min(cells.saturating_sub(1));
    println!(
        "workload: {} problems x {} models x {} feedback settings = {cells} cells; \
         child aborts after cell {kill_after}",
        problems.len(),
        profiles.len(),
        config.feedback_iters.len(),
    );

    println!("control: uninterrupted in-memory run...");
    let control = run_campaign(&problems, &profiles, &config);

    println!("crash: spawning the aborting child...");
    let exe = std::env::current_exe().expect("current_exe");
    let (status, child_stderr) = supervise_child(
        std::process::Command::new(exe)
            .args([
                "--child",
                "--kill-after",
                &kill_after.to_string(),
                "--problems",
                &args.problems.to_string(),
                "--samples",
                &args.samples.to_string(),
                "--threads",
                &args.threads.to_string(),
                "--store-dir",
            ])
            .arg(&store_dir),
        Duration::from_secs(args.timeout_secs),
    );
    assert!(
        !status.success(),
        "child was expected to abort mid-campaign but exited cleanly ({status}); \
         is --kill-after within the cell count?{}",
        render_stderr(&child_stderr)
    );
    println!(
        "crash: child died as expected ({status}){}",
        render_stderr(&child_stderr)
    );

    println!("resume: reopening the journal the dead child left behind...");
    let store = Arc::new(EvalStore::open(&store_dir).expect("reopen eval store"));
    assert!(
        !store.recovery().damaged(),
        "store recovery reported damage after a boundary abort: {:?}",
        store.recovery()
    );
    let outcome = Campaign::builder()
        .problems(problems)
        .profiles(&profiles)
        .config(config)
        .resume_from(store)
        .build()
        .expect("valid campaign definition")
        .execute();
    let resumed = outcome.report.expect("resumed run completes");

    assert!(
        outcome.cells_restored >= kill_after,
        "resume restored {} cells but the child journalled at least {kill_after}",
        outcome.cells_restored
    );
    assert!(
        outcome.cells_restored < cells || kill_after == cells,
        "resume restored every cell — the child cannot have aborted mid-campaign"
    );
    assert!(
        resumed.same_results(&control),
        "resumed report differs from the uninterrupted control run"
    );
    if ephemeral {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    println!(
        "resume: restored {} of {cells} cells from the journal, re-ran the rest; \
         merged report bit-identical to control: true",
        outcome.cells_restored
    );
}
