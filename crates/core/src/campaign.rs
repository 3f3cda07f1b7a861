//! Campaign sessions: the full evaluation matrix of Tables III and IV.
//!
//! A campaign runs `models × feedback settings × problems × samples`
//! through the feedback loop and aggregates Pass@k. Sessions are built
//! with [`Campaign::builder`] over any set of
//! [`ModelProvider`]s — calibrated synthetic profiles, recorded-transcript
//! replays, failure-injecting decorators, or real API clients — and can
//! stream typed [`CampaignEvent`]s to a [`CampaignObserver`] and abort
//! cooperatively through a [`CancelToken`]. The engine is built for
//! throughput and determinism:
//!
//! * every problem's **golden** is hashed and simulated once up front,
//!   on the campaign's own workers, and shared immutably across them;
//! * every `(problem × model)` **pair** runs one feedback trajectory
//!   per sample, at the campaign's largest feedback budget, and each of
//!   the pair's `(problem × model × feedback)` **cells** reads its
//!   verdict off that one loop — no setting replays the responses a
//!   smaller one already produced and scored;
//! * work is distributed at the granularity of pairs claimed from an
//!   atomic queue — a straggler problem never idles the rest of the
//!   machine, and the worker count is not capped by the problem count;
//! * all workers share one sharded, content-addressed [`EvalCache`], so
//!   structurally identical candidates (retries converging to the
//!   golden, clean samples from different models) are simulated once;
//! * each worker owns its evaluator (schedule cache + solve workspace)
//!   and sweeps serially with the planned block-sparse solver — the
//!   campaign parallelizes *across* goldens and pairs; a sweep is never
//!   split.
//!
//! Each pair spawns one fresh model instance from its provider
//! ([`ModelProvider::spawn_seeded`] with the campaign seed). The loop
//! stops at the first functional pass, so a run with budget `f` is the
//! first `f + 1` attempts of the longer run, and setting `f` scores
//! attempt `min(f, attempts - 1)`: for the synthetic models, which
//! reseed per `(model, problem, sample)`, that is exactly the verdict of
//! a separate run at budget `f`. The budget never depends on which
//! cells are pending, and cached replay is bit-identical to cold
//! evaluation, so the resulting [`CampaignReport`] is **bit-identical**
//! for any thread count, shard count and resume point, and (for the
//! synthetic models) to an uncached evaluation of every cell.
//! Aggregation iterates cells in a fixed problem-major order, never in
//! hash-map order.
//!
//! Campaigns are also **crash-safe**: attach a persistent
//! [`EvalStore`](crate::persist::EvalStore) with
//! [`CampaignBuilder::store`] and every completed cell is journalled
//! (fsync'd before the cell counts as complete); reopen the store after
//! a crash and [`CampaignBuilder::resume_from`] replays the journalled
//! cells and re-runs only the remainder — the merged report stays
//! bit-identical to an uninterrupted run. Recovery drills stop or crash
//! a run from an observer on [`CampaignEvent::CellFinished`], which is
//! emitted only after the cell's journal record is fsync'd, and a
//! [`RetryPolicy`] wrapped around the providers absorbs transient
//! transport failures deterministically.

use crate::evaluate::{CacheScope, EvalCache, EvalCacheStats, Evaluator, Golden};
use crate::events::{CampaignEvent, CampaignObserver, CancelToken};
use crate::feedback_loop::{run_sample, LoopConfig};
use crate::journal::CellJournal;
use crate::lease::{Clock, LeaseConfig, SystemClock};
use crate::passk::{aggregate_pass_at_k, ProblemTally};
use crate::persist::SharedEvalStore;
use crate::supervisor::{run_sharded, ChaosPlan, InProcessLauncher, ShardLauncher};
use picbench_problems::Problem;
use picbench_sim::{SimulateError, WavelengthGrid};
use picbench_store::fnv1a64;
use picbench_synthllm::{ModelProfile, ModelProvider, RetryEvent, RetryPolicy, RetryProvider};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Campaign-wide configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Samples per problem (the paper's default n = 5).
    pub samples_per_problem: usize,
    /// Pass@k values to report (the paper uses 1 and 5).
    pub k_values: Vec<usize>,
    /// Feedback-iteration settings (the paper uses 0, 1 and 3), each
    /// listed once. Every `(problem, model)` pair runs one trajectory per
    /// sample at the largest setting, and each setting scores the
    /// attempt its own budget would have ended on.
    pub feedback_iters: Vec<usize>,
    /// Whether the system prompt carries the Table II restrictions.
    pub restrictions: bool,
    /// Campaign seed (same seed ⇒ identical tables).
    pub seed: u64,
    /// Wavelength grid for simulation/comparison.
    pub grid: WavelengthGrid,
    /// Campaign workers, which prime the goldens and then run pairs
    /// (0 = one per available core, capped by the `(problem, model)`
    /// pair count). The calling thread is worker 0,
    /// so `n` workers spawn `n - 1` threads and a 1-worker campaign
    /// spawns none.
    pub threads: usize,
    /// Retry policy wrapped around every provider at execute time
    /// (`None` = no retry layer). The wrapped providers keep their
    /// display names, so report rows are unchanged; retry decisions
    /// surface as [`CampaignEvent::SampleRetried`] /
    /// [`CampaignEvent::SampleDegraded`].
    pub retry: Option<RetryPolicy>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            samples_per_problem: 5,
            k_values: vec![1, 5],
            feedback_iters: vec![0, 1, 3],
            restrictions: false,
            seed: 20_250_205, // the paper's arXiv date
            grid: WavelengthGrid::paper_fast(),
            threads: 0,
            retry: None,
        }
    }
}

/// Aggregated scores of one `(model, feedback, k)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// Model display name.
    pub model: String,
    /// Feedback iterations.
    pub feedback_iters: usize,
    /// k of Pass@k.
    pub k: usize,
    /// Syntax Pass@k (percent).
    pub syntax: f64,
    /// Functional Pass@k (percent).
    pub functional: f64,
}

/// Per-problem tallies of one `(model, feedback)` condition.
#[derive(Debug, Clone)]
pub struct ConditionTallies {
    /// Model display name.
    pub model: String,
    /// Feedback iterations.
    pub feedback_iters: usize,
    /// Tallies keyed by problem id.
    pub tallies: HashMap<String, ProblemTally>,
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Whether restrictions were active.
    pub restrictions: bool,
    /// Sample count per problem.
    pub samples_per_problem: usize,
    /// Aggregated scores for every cell.
    pub cells: Vec<CellScore>,
    /// Raw per-problem tallies for every condition.
    pub conditions: Vec<ConditionTallies>,
    /// Hit/miss counters of the shared evaluation cache (`None` for a
    /// sharded run, whose merge reads journals only).
    pub cache_stats: Option<EvalCacheStats>,
}

impl CampaignReport {
    /// Looks up one cell.
    pub fn cell(&self, model: &str, feedback_iters: usize, k: usize) -> Option<&CellScore> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.feedback_iters == feedback_iters && c.k == k)
    }

    /// Whether two reports carry identical scores and tallies (the
    /// determinism criterion — cache counters are excluded, as they
    /// legitimately vary with scheduling).
    pub fn same_results(&self, other: &CampaignReport) -> bool {
        self.restrictions == other.restrictions
            && self.samples_per_problem == other.samples_per_problem
            && self.cells == other.cells
            && self.conditions.len() == other.conditions.len()
            && self.conditions.iter().zip(&other.conditions).all(|(a, b)| {
                a.model == b.model && a.feedback_iters == b.feedback_iters && a.tallies == b.tallies
            })
    }
}

/// Why [`CampaignBuilder::build`] rejected a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignBuildError {
    /// No problems were added.
    NoProblems,
    /// No model providers were added.
    NoProviders,
    /// `k_values` is empty.
    NoKValues,
    /// `feedback_iters` is empty.
    NoFeedbackSettings,
    /// A feedback setting is listed twice (cells, journal keys and
    /// [`CampaignReport::cell`] lookups are keyed by it).
    DuplicateFeedbackSetting(usize),
    /// `samples_per_problem` is zero.
    ZeroSamples,
    /// A Pass@k `k` outside `1..=samples_per_problem`.
    KOutOfRange {
        /// The offending k.
        k: usize,
        /// The campaign's samples per problem.
        samples: usize,
    },
    /// Two problems share an id (tallies are keyed by id).
    DuplicateProblemId(String),
    /// Two providers share a display name (report rows, events and
    /// [`CampaignReport::cell`] lookups are keyed by it).
    DuplicateProviderName(String),
    /// `shards(n)` above 1 without a `shard_dir` — worker journals need
    /// a home.
    ShardsWithoutDir,
}

impl fmt::Display for CampaignBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignBuildError::NoProblems => write!(f, "campaign needs problems"),
            CampaignBuildError::NoProviders => write!(f, "campaign needs model providers"),
            CampaignBuildError::NoKValues => write!(f, "campaign needs k values"),
            CampaignBuildError::NoFeedbackSettings => {
                write!(f, "campaign needs feedback-iteration settings")
            }
            CampaignBuildError::DuplicateFeedbackSetting(iters) => {
                write!(f, "duplicate feedback setting {iters} in campaign")
            }
            CampaignBuildError::ZeroSamples => {
                write!(f, "campaign needs at least one sample per problem")
            }
            CampaignBuildError::KOutOfRange { k, samples } => {
                write!(f, "Pass@k needs k in 1..={samples} (the samples), got {k}")
            }
            CampaignBuildError::DuplicateProblemId(id) => {
                write!(f, "duplicate problem id {id:?} in campaign")
            }
            CampaignBuildError::DuplicateProviderName(name) => {
                write!(f, "duplicate provider name {name:?} in campaign")
            }
            CampaignBuildError::ShardsWithoutDir => {
                write!(f, "sharded campaign needs a shard_dir for worker journals")
            }
        }
    }
}

impl std::error::Error for CampaignBuildError {}

/// A validated, ready-to-run campaign session.
///
/// Built with [`Campaign::builder`]; holds problems, providers, the
/// evaluation matrix configuration, and the optional observer/cancel
/// plumbing. [`Campaign::run`] executes to a [`CampaignReport`];
/// [`Campaign::execute`] additionally supports cooperative cancellation
/// via a [`CancelToken`] and returns a [`CampaignOutcome`].
pub struct Campaign {
    pub(crate) problems: Vec<Problem>,
    pub(crate) providers: Vec<Arc<dyn ModelProvider>>,
    pub(crate) config: CampaignConfig,
    pub(crate) observer: Option<Arc<dyn CampaignObserver>>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) store: Option<SharedEvalStore>,
    pub(crate) shared_cache: Option<Arc<EvalCache>>,
    pub(crate) scope: Option<Arc<CacheScope>>,
    pub(crate) resume: bool,
    pub(crate) shards: u32,
    pub(crate) shard_dir: Option<PathBuf>,
    pub(crate) launcher: Option<Arc<dyn ShardLauncher>>,
    pub(crate) lease: LeaseConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) chaos: Option<ChaosPlan>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("problems", &self.problems.len())
            .field(
                "providers",
                &self
                    .providers
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("cancellable", &self.cancel.is_some())
            .field("store", &self.store.is_some())
            .field("shared_cache", &self.shared_cache.is_some())
            .field("scoped", &self.scope.is_some())
            .field("resume", &self.resume)
            .field("shards", &self.shards)
            .field("shard_dir", &self.shard_dir)
            .finish()
    }
}

/// The result of a cancellable [`Campaign::execute`] run.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The aggregated report — `None` when the run was cancelled before
    /// every cell completed.
    pub report: Option<CampaignReport>,
    /// Whether the run was actually cut short by its [`CancelToken`]. A
    /// cancel request that lands after the last cell completed still
    /// yields the full report and `cancelled: false`.
    pub cancelled: bool,
    /// Cells accounted for — freshly evaluated plus restored.
    pub cells_completed: usize,
    /// Total cells in the matrix.
    pub cells_total: usize,
    /// Cells replayed from the journal of a previous run instead of
    /// being re-evaluated (always 0 without `resume_from`).
    pub cells_restored: usize,
    /// The golden design that failed to simulate, if one did: the run
    /// stopped before any cell ran and `report` is `None`.
    pub golden_failure: Option<GoldenFailure>,
}

/// A problem whose golden design cannot be simulated — no candidate can
/// be scored against it, so the campaign stops before any cell runs.
#[derive(Debug)]
pub struct GoldenFailure {
    /// The problem's id.
    pub problem_id: String,
    /// Why its golden failed to simulate.
    pub error: SimulateError,
}

impl fmt::Display for GoldenFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "golden design {} failed: {}",
            self.problem_id, self.error
        )
    }
}

impl Campaign {
    /// Starts a new campaign definition.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::new()
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign to completion.
    ///
    /// # Panics
    ///
    /// Panics if an attached [`CancelToken`] fires mid-run (use
    /// [`Campaign::execute`] for cancellable sessions) or if a golden
    /// design fails to simulate (check one with [`Evaluator::golden`]).
    pub fn run(&self) -> CampaignReport {
        let outcome = self.execute();
        if let Some(failure) = outcome.golden_failure {
            panic!("{failure}");
        }
        outcome
            .report
            .expect("campaign was cancelled; use Campaign::execute for cancellable runs")
    }

    /// Runs the campaign, honouring the attached [`CancelToken`].
    ///
    /// Cancellation is checked at cell boundaries: in-flight cells finish
    /// (emitting their [`CampaignEvent::CellFinished`]), no new cells
    /// start, and the outcome carries `report: None`. A golden design
    /// that fails to simulate stops the run before any cell starts; the
    /// outcome then carries `report: None` and the [`GoldenFailure`].
    ///
    /// With [`CampaignBuilder::shards`] above 1 the run is routed
    /// through the shard supervisor instead of the in-process engine:
    /// workers journal into per-shard directories under the configured
    /// shard root, the supervisor tracks their leases and reassigns
    /// lost shards, and the per-shard journals merge into a report
    /// bit-identical to a single-process run.
    pub fn execute(&self) -> CampaignOutcome {
        if self.shards > 1 {
            return run_sharded(self);
        }
        execute_campaign(self)
    }

    /// The fingerprint identifying this campaign's result-relevant
    /// inputs: problems (ids and golden content hashes), provider
    /// names, samples, feedback settings, restrictions, seed, grid and
    /// retry policy. Journal records are keyed by it, so a store can
    /// hold journals of many campaigns and a resumed run only replays
    /// cells whose inputs provably match. The thread count and `k_values`
    /// are excluded — they cannot change tallies.
    pub fn fingerprint(&self) -> u64 {
        CellMatrix::new(&self.problems, &self.providers, &self.config).fingerprint
    }
}

/// Typed, validating constructor of [`Campaign`] sessions.
///
/// ```
/// use picbench_core::Campaign;
/// use picbench_synthllm::ModelProfile;
///
/// let campaign = Campaign::builder()
///     .problem(picbench_problems::find("mzi-ps").unwrap())
///     .profiles(&[ModelProfile::gpt4()])
///     .samples_per_problem(2)
///     .k_values([1])
///     .feedback_iters([0])
///     .build()
///     .unwrap();
/// let report = campaign.run();
/// assert_eq!(report.cells.len(), 1);
/// ```
#[derive(Default)]
pub struct CampaignBuilder {
    problems: Vec<Problem>,
    providers: Vec<Arc<dyn ModelProvider>>,
    config: Option<CampaignConfig>,
    observer: Option<Arc<dyn CampaignObserver>>,
    cancel: Option<CancelToken>,
    store: Option<SharedEvalStore>,
    shared_cache: Option<Arc<EvalCache>>,
    scope: Option<Arc<CacheScope>>,
    resume: bool,
    shards: u32,
    shard_dir: Option<PathBuf>,
    launcher: Option<Arc<dyn ShardLauncher>>,
    lease: Option<LeaseConfig>,
    clock: Option<Arc<dyn Clock>>,
    chaos: Option<ChaosPlan>,
}

impl CampaignBuilder {
    /// An empty builder with the default [`CampaignConfig`].
    pub fn new() -> Self {
        CampaignBuilder::default()
    }

    fn config_mut(&mut self) -> &mut CampaignConfig {
        self.config.get_or_insert_with(CampaignConfig::default)
    }

    /// Adds one problem to the matrix.
    pub fn problem(mut self, problem: Problem) -> Self {
        self.problems.push(problem);
        self
    }

    /// Adds problems to the matrix (evaluation order is insertion order).
    pub fn problems(mut self, problems: impl IntoIterator<Item = Problem>) -> Self {
        self.problems.extend(problems);
        self
    }

    /// Adds one model provider.
    pub fn provider(mut self, provider: Arc<dyn ModelProvider>) -> Self {
        self.providers.push(provider);
        self
    }

    /// Adds model providers.
    pub fn providers(
        mut self,
        providers: impl IntoIterator<Item = Arc<dyn ModelProvider>>,
    ) -> Self {
        self.providers.extend(providers);
        self
    }

    /// Adds synthetic-model providers from calibrated profiles.
    pub fn profiles(mut self, profiles: &[ModelProfile]) -> Self {
        for profile in profiles {
            self.providers.push(Arc::new(profile.clone()));
        }
        self
    }

    /// Replaces the whole configuration at once (the escape hatch for
    /// callers that already hold a [`CampaignConfig`]).
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Samples per problem (the paper's default n = 5).
    pub fn samples_per_problem(mut self, samples: usize) -> Self {
        self.config_mut().samples_per_problem = samples;
        self
    }

    /// Pass@k values to report.
    pub fn k_values(mut self, k_values: impl IntoIterator<Item = usize>) -> Self {
        self.config_mut().k_values = k_values.into_iter().collect();
        self
    }

    /// Feedback-iteration settings (the paper uses 0, 1 and 3).
    pub fn feedback_iters(mut self, iters: impl IntoIterator<Item = usize>) -> Self {
        self.config_mut().feedback_iters = iters.into_iter().collect();
        self
    }

    /// Whether the system prompt carries the Table II restrictions.
    pub fn restrictions(mut self, restrictions: bool) -> Self {
        self.config_mut().restrictions = restrictions;
        self
    }

    /// Campaign seed (same seed ⇒ identical tables).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config_mut().seed = seed;
        self
    }

    /// Wavelength grid for simulation/comparison.
    pub fn grid(mut self, grid: WavelengthGrid) -> Self {
        self.config_mut().grid = grid;
        self
    }

    /// Campaign workers (0 = one per available core); see
    /// [`CampaignConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config_mut().threads = threads;
        self
    }

    /// Wraps every provider in a retrying decorator at execute time.
    ///
    /// Transient transport failures (rate limits, connection resets,
    /// timeouts, garbled responses) are retried with deterministic
    /// seeded backoff instead of degrading into failure verdicts;
    /// fatal failures and exhausted budgets still degrade, surfaced as
    /// [`CampaignEvent::SampleDegraded`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.config_mut().retry = Some(policy);
        self
    }

    /// Attaches a persistent [`EvalStore`](crate::persist::EvalStore):
    /// the campaign journals every completed cell through it (fsync'd at
    /// cell boundaries) and uses it as the disk tier under the shared
    /// evaluation cache. Without [`CampaignBuilder::resume_from`]
    /// semantics — journal entries of previous runs are ignored.
    pub fn store(mut self, store: SharedEvalStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a store *and* resumes from it: cells journalled by a
    /// previous run of the same campaign (matching
    /// [`Campaign::fingerprint`]) are replayed as
    /// [`CampaignEvent::CellRestored`] without re-evaluating; only the
    /// remainder runs. The merged report is bit-identical to an
    /// uninterrupted run.
    pub fn resume_from(mut self, store: SharedEvalStore) -> Self {
        self.store = Some(store);
        self.resume = true;
        self
    }

    /// Fans the campaign out over `n` shard worker processes (values of
    /// 0 and 1 keep the in-process engine). Requires
    /// [`CampaignBuilder::shard_dir`]: workers journal into per-shard
    /// directories under it, the supervisor tracks worker leases there,
    /// and the merged report is bit-identical to a single-process run —
    /// the shard count is excluded from [`Campaign::fingerprint`], so
    /// journals recombine across shard counts.
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = n;
        self
    }

    /// The root directory holding per-shard journals
    /// (`<root>/shard-NNN/gen-GGG/`). Required when
    /// [`CampaignBuilder::shards`] is above 1.
    pub fn shard_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.shard_dir = Some(dir.into());
        self
    }

    /// Overrides how shard workers are launched. The default is
    /// [`InProcessLauncher`] (worker threads in this process); drills
    /// and production fan-out use
    /// [`ProcessLauncher`](crate::supervisor::ProcessLauncher) to spawn
    /// real worker processes.
    pub fn shard_launcher(mut self, launcher: Arc<dyn ShardLauncher>) -> Self {
        self.launcher = Some(launcher);
        self
    }

    /// Overrides the supervisor's liveness policy (lease TTL, poll
    /// interval, takeover bound).
    pub fn lease_config(mut self, lease: LeaseConfig) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Overrides the supervisor's time source — tests inject a
    /// [`TestClock`](crate::lease::TestClock) to drive lease expiry
    /// deterministically.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Installs a fault-injection plan for chaos drills: the supervisor
    /// kills listed workers once their journals show enough cells, and
    /// stalls are handed to workers at launch.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shares a pre-existing process-wide [`EvalCache`] instead of
    /// creating a fresh one per run.
    ///
    /// This is the multi-tenancy seam: a server hosting many concurrent
    /// campaigns hands each of them the same cache, so identical
    /// submissions across tenants replay each other's content-addressed
    /// results. The cache's own disk tier (if it was built
    /// [`EvalCache::with_disk`]) is used as-is — an attached
    /// [`CampaignBuilder::store`] still journals cells but is *not*
    /// re-wrapped under a shared cache. Ignored when the campaign is
    /// sharded across processes ([`CampaignBuilder::shards`] above 1 —
    /// worker processes cannot share memory).
    pub fn shared_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Attaches a per-tenant [`CacheScope`]: every cache hit/miss this
    /// campaign causes is counted into the scope in addition to the
    /// cache's global counters, and the report's / event stream's
    /// cache stats show the scope's counters instead of the global
    /// ones (so one tenant's stats never reflect another's traffic).
    pub fn cache_scope(mut self, scope: Arc<CacheScope>) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Attaches a progress observer fed typed [`CampaignEvent`]s.
    pub fn observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates the definition into a runnable [`Campaign`].
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignBuildError`] when the matrix is degenerate:
    /// no problems, no providers, empty `k_values`/`feedback_iters`, a
    /// repeated feedback setting, zero samples, a `k` outside
    /// `1..=samples_per_problem`, duplicate problem ids, or duplicate
    /// provider names.
    pub fn build(self) -> Result<Campaign, CampaignBuildError> {
        let config = self.config.unwrap_or_default();
        if self.problems.is_empty() {
            return Err(CampaignBuildError::NoProblems);
        }
        if self.providers.is_empty() {
            return Err(CampaignBuildError::NoProviders);
        }
        if config.k_values.is_empty() {
            return Err(CampaignBuildError::NoKValues);
        }
        if config.feedback_iters.is_empty() {
            return Err(CampaignBuildError::NoFeedbackSettings);
        }
        let mut seen_settings = HashSet::new();
        if let Some(&iters) = config
            .feedback_iters
            .iter()
            .find(|&&iters| !seen_settings.insert(iters))
        {
            return Err(CampaignBuildError::DuplicateFeedbackSetting(iters));
        }
        if config.samples_per_problem == 0 {
            return Err(CampaignBuildError::ZeroSamples);
        }
        let samples = config.samples_per_problem;
        if let Some(&k) = config.k_values.iter().find(|&&k| k == 0 || k > samples) {
            return Err(CampaignBuildError::KOutOfRange { k, samples });
        }
        let mut seen = HashSet::new();
        for problem in &self.problems {
            if !seen.insert(problem.id.clone()) {
                return Err(CampaignBuildError::DuplicateProblemId(problem.id.clone()));
            }
        }
        let mut seen_names = HashSet::new();
        for provider in &self.providers {
            if !seen_names.insert(provider.name().to_string()) {
                return Err(CampaignBuildError::DuplicateProviderName(
                    provider.name().to_string(),
                ));
            }
        }
        if self.shards > 1 && self.shard_dir.is_none() {
            return Err(CampaignBuildError::ShardsWithoutDir);
        }
        Ok(Campaign {
            problems: self.problems,
            providers: self.providers,
            config,
            observer: self.observer,
            cancel: self.cancel,
            store: self.store,
            shared_cache: self.shared_cache,
            scope: self.scope,
            resume: self.resume,
            shards: self.shards,
            shard_dir: self.shard_dir,
            launcher: Some(
                self.launcher
                    .unwrap_or_else(|| Arc::new(InProcessLauncher::new())),
            ),
            lease: self.lease.unwrap_or_default(),
            clock: self.clock.unwrap_or_else(|| Arc::new(SystemClock)),
            chaos: self.chaos,
        })
    }
}

/// One `(problem × model × feedback)` evaluation cell.
#[derive(Clone, Copy)]
pub(crate) struct Cell {
    pub(crate) problem: usize,
    pub(crate) profile: usize,
    pub(crate) ef_idx: usize,
}

/// The campaign's cell matrix, built once per run from its problems,
/// providers and config. Every execution path — the in-process engine,
/// the shard supervisor, each shard worker and the merge — reads the
/// cell order, the journal keys and the fingerprint from here, so they
/// cannot disagree.
pub(crate) struct CellMatrix<'c> {
    pub(crate) problems: &'c [Problem],
    pub(crate) config: &'c CampaignConfig,
    /// Provider display names, in input order.
    pub(crate) provider_names: Vec<String>,
    /// Cells in canonical problem-major order, feedback innermost: the
    /// cells of one `(problem, model)` pair are contiguous.
    pub(crate) cells: Vec<Cell>,
    /// Each cell's journal key, in the same order — derived from
    /// identities (problem id, provider name, feedback setting), not
    /// matrix indices, so reordering the problem or provider lists does
    /// not orphan journal records.
    pub(crate) keys: Vec<u64>,
    /// Each problem's golden netlist `content_hash`, in problem order.
    pub(crate) golden_hashes: Vec<u64>,
    /// Journal records are keyed by it; see [`Campaign::fingerprint`].
    pub(crate) fingerprint: u64,
}

impl<'c> CellMatrix<'c> {
    pub(crate) fn new(
        problems: &'c [Problem],
        providers: &[Arc<dyn ModelProvider>],
        config: &'c CampaignConfig,
    ) -> Self {
        let provider_names: Vec<String> = providers.iter().map(|p| p.name().to_string()).collect();
        let settings = config.feedback_iters.len();
        let mut cells = Vec::with_capacity(problems.len() * providers.len() * settings);
        for problem in 0..problems.len() {
            for profile in 0..providers.len() {
                for ef_idx in 0..settings {
                    cells.push(Cell {
                        problem,
                        profile,
                        ef_idx,
                    });
                }
            }
        }
        let mut buf = Vec::new();
        let keys = cells
            .iter()
            .map(|cell| {
                buf.clear();
                push_str(&mut buf, &problems[cell.problem].id);
                push_str(&mut buf, &provider_names[cell.profile]);
                let feedback_iters = config.feedback_iters[cell.ef_idx] as u64;
                buf.extend_from_slice(&feedback_iters.to_le_bytes());
                fnv1a64(&buf)
            })
            .collect();
        let golden_hashes: Vec<u64> = problems.iter().map(|p| p.golden.content_hash()).collect();
        let fingerprint = campaign_fingerprint(problems, &golden_hashes, &provider_names, config);
        CellMatrix {
            problems,
            config,
            provider_names,
            cells,
            keys,
            golden_hashes,
            fingerprint,
        }
    }

    /// The number of `(problem, model)` pairs.
    pub(crate) fn pairs(&self) -> usize {
        self.cells.len() / self.config.feedback_iters.len()
    }

    /// The cell indices of `pair`, one per feedback setting.
    pub(crate) fn pair_cells(&self, pair: usize) -> Range<usize> {
        let settings = self.config.feedback_iters.len();
        pair * settings..(pair + 1) * settings
    }

    /// Folds per-cell tallies into a [`CampaignReport`], iterating
    /// problems in input order — deterministic and independent of
    /// scheduling. The in-process engine and the multi-shard merge both
    /// fold here, which is what makes the merged report bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when a cell is missing — callers verify coverage first.
    pub(crate) fn report(
        &self,
        by_cell: &[Option<ProblemTally>],
        cache_stats: Option<EvalCacheStats>,
    ) -> CampaignReport {
        let config = self.config;
        let cell_index = |problem: usize, profile: usize, ef_idx: usize| {
            (problem * self.provider_names.len() + profile) * config.feedback_iters.len() + ef_idx
        };
        let mut conditions: Vec<ConditionTallies> = Vec::new();
        let mut scores = Vec::new();
        for (profile_idx, model_name) in self.provider_names.iter().enumerate() {
            for (ef_idx, &ef) in config.feedback_iters.iter().enumerate() {
                let ordered: Vec<(usize, ProblemTally)> = (0..self.problems.len())
                    .map(|p| {
                        let tally = by_cell[cell_index(p, profile_idx, ef_idx)]
                            .expect("every cell was computed");
                        (p, tally)
                    })
                    .collect();
                for &k in &config.k_values {
                    let tally_vec: Vec<ProblemTally> = ordered.iter().map(|(_, t)| *t).collect();
                    let (syntax, functional) = aggregate_pass_at_k(&tally_vec, k);
                    scores.push(CellScore {
                        model: model_name.clone(),
                        feedback_iters: ef,
                        k,
                        syntax,
                        functional,
                    });
                }
                conditions.push(ConditionTallies {
                    model: model_name.clone(),
                    feedback_iters: ef,
                    tallies: ordered
                        .into_iter()
                        .map(|(p, tally)| (self.problems[p].id.clone(), tally))
                        .collect(),
                });
            }
        }
        CampaignReport {
            restrictions: config.restrictions,
            samples_per_problem: config.samples_per_problem,
            cells: scores,
            conditions,
            cache_stats,
        }
    }
}

/// Appends a length-prefixed string to a hash input.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// FNV-1a over the campaign's result-relevant inputs, given the
/// problems' golden hashes; see [`Campaign::fingerprint`].
fn campaign_fingerprint(
    problems: &[Problem],
    golden_hashes: &[u64],
    provider_names: &[String],
    config: &CampaignConfig,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(b"picbench-campaign-v1");
    buf.extend_from_slice(&(problems.len() as u64).to_le_bytes());
    for (problem, hash) in problems.iter().zip(golden_hashes) {
        push_str(&mut buf, &problem.id);
        buf.extend_from_slice(&hash.to_le_bytes());
    }
    buf.extend_from_slice(&(provider_names.len() as u64).to_le_bytes());
    for name in provider_names {
        push_str(&mut buf, name);
    }
    buf.extend_from_slice(&(config.samples_per_problem as u64).to_le_bytes());
    buf.extend_from_slice(&(config.feedback_iters.len() as u64).to_le_bytes());
    for &ef in &config.feedback_iters {
        buf.extend_from_slice(&(ef as u64).to_le_bytes());
    }
    buf.push(u8::from(config.restrictions));
    buf.extend_from_slice(&config.seed.to_le_bytes());
    buf.extend_from_slice(&config.grid.start_um.to_bits().to_le_bytes());
    buf.extend_from_slice(&config.grid.stop_um.to_bits().to_le_bytes());
    buf.extend_from_slice(&(config.grid.points as u64).to_le_bytes());
    match config.retry {
        Some(policy) => {
            buf.push(1);
            buf.extend_from_slice(&policy.digest().to_le_bytes());
        }
        None => buf.push(0),
    }
    fnv1a64(&buf)
}

/// Bridges retry-layer decisions into the campaign event stream.
fn bridge_retry_event(event: &RetryEvent) -> CampaignEvent {
    match event {
        RetryEvent::Retried {
            provider,
            problem,
            sample,
            attempt,
            kind,
            backoff_ms,
        } => CampaignEvent::SampleRetried {
            model: provider.clone(),
            problem_id: problem.clone(),
            sample: *sample,
            attempt: *attempt,
            kind: *kind,
            backoff_ms: *backoff_ms,
        },
        RetryEvent::Degraded {
            provider,
            problem,
            sample,
            attempts,
            kind,
        } => CampaignEvent::SampleDegraded {
            model: provider.clone(),
            problem_id: problem.clone(),
            sample: *sample,
            attempts: *attempts,
            kind: *kind,
        },
    }
}

/// How every worker evaluates cells — the engine's threads and shard
/// workers alike, so a cell evaluates the same bytes wherever it runs:
/// retry-wrapped providers, goldens primed by problem position on the
/// caller's workers, one evaluator per worker over a shared cache, one
/// feedback trajectory per `(problem, model)` pair that all of the
/// pair's cells score off, and each cell journalled through a
/// [`CellJournal`] before it counts.
pub(crate) struct CellRunner<'m> {
    matrix: &'m CellMatrix<'m>,
    providers: Vec<Arc<dyn ModelProvider>>,
    cache: Arc<EvalCache>,
    scope: Option<Arc<CacheScope>>,
}

impl<'m> CellRunner<'m> {
    /// A runner over `matrix` evaluating through `cache` (and counting
    /// into `scope`, if any). The providers are wrapped in the retry
    /// decorator when the config asks for one, keeping their display
    /// names; retry decisions bridge into `observer`.
    pub(crate) fn new(
        matrix: &'m CellMatrix<'m>,
        providers: &[Arc<dyn ModelProvider>],
        observer: Option<&Arc<dyn CampaignObserver>>,
        cache: Arc<EvalCache>,
        scope: Option<Arc<CacheScope>>,
    ) -> Self {
        let providers = match matrix.config.retry {
            Some(policy) => providers
                .iter()
                .map(|provider| {
                    let mut retrying = RetryProvider::new(Arc::clone(provider), policy);
                    if let Some(observer) = observer {
                        let observer = Arc::clone(observer);
                        retrying = retrying.with_sink(Arc::new(move |event: &RetryEvent| {
                            observer.on_event(&bridge_retry_event(event));
                        }));
                    }
                    Arc::new(retrying) as Arc<dyn ModelProvider>
                })
                .collect(),
            None => providers.to_vec(),
        };
        CellRunner {
            matrix,
            providers,
            cache,
            scope,
        }
    }

    /// Simulates the goldens of the `problems` at these positions
    /// (repeats are simulated once) on `workers` workers and seeds the
    /// cache with them, so golden-identical candidates are instant hits.
    /// Indexed by problem position.
    ///
    /// The calling thread is worker 0 and `workers - 1` scoped threads
    /// run beside it (none with one worker). Each worker sweeps serially
    /// on its own evaluator over the shared cache and claims positions,
    /// in the given order, from an atomic counter. A worker checks
    /// `halted` before each claim; once it holds, this returns the
    /// goldens primed so far. Each evaluator's workspace grows to the
    /// largest golden it swept; all are dropped before this returns, so
    /// that memory is not held while cells run.
    ///
    /// # Errors
    ///
    /// The earliest golden that fails to simulate (boxed: it carries the
    /// whole simulator error): no candidate can be scored against it.
    /// Once a golden fails no worker claims another position. Positions
    /// are claimed in order, so every one before a failed position was
    /// claimed and finishes, and the error names the same problem at
    /// any worker count.
    pub(crate) fn prime(
        &self,
        problems: impl IntoIterator<Item = usize>,
        workers: usize,
        halted: impl Fn() -> bool + Sync,
    ) -> Result<Vec<Option<Golden>>, Box<GoldenFailure>> {
        let matrix = self.matrix;
        let mut queued = vec![false; matrix.problems.len()];
        let queue: Vec<usize> = problems
            .into_iter()
            .filter(|&p| !std::mem::replace(&mut queued[p], true))
            .collect();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let swept = Mutex::new(Vec::with_capacity(queue.len()));
        let worker = || {
            let mut evaluator = Evaluator::new(matrix.config.grid, Default::default())
                .with_cache(Arc::clone(&self.cache));
            while !failed.load(Ordering::Relaxed) && !halted() {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&p) = queue.get(slot) else {
                    break;
                };
                let golden =
                    evaluator.golden_with_hash(&matrix.problems[p], matrix.golden_hashes[p]);
                if golden.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                swept.lock().expect("goldens poisoned").push((slot, golden));
            }
        };
        std::thread::scope(|threads| {
            for _ in 1..workers.min(queue.len()) {
                threads.spawn(worker);
            }
            worker();
        });

        let mut swept = swept.into_inner().expect("goldens poisoned");
        swept.sort_unstable_by_key(|&(slot, _)| slot);
        let mut goldens = vec![None; matrix.problems.len()];
        for (slot, golden) in swept {
            let p = queue[slot];
            let golden = golden.map_err(|error| {
                Box::new(GoldenFailure {
                    problem_id: matrix.problems[p].id.clone(),
                    error,
                })
            })?;
            goldens[p] = Some(golden);
        }
        Ok(goldens)
    }

    /// A worker's evaluator over the shared cache, counting into the
    /// tenant scope if there is one.
    pub(crate) fn evaluator(&self) -> Evaluator {
        let evaluator = Evaluator::new(self.matrix.config.grid, Default::default())
            .with_cache(Arc::clone(&self.cache));
        match &self.scope {
            Some(scope) => evaluator.with_cache_scope(Arc::clone(scope)),
            None => evaluator,
        }
    }

    /// Runs the feedback trajectory of the `(problem, profile)` pair and
    /// returns one tally per feedback setting, in config order.
    ///
    /// One fresh model instance seeded with the campaign seed runs
    /// `samples_per_problem` samples through the feedback loop at the
    /// campaign's largest feedback budget, against the problem's primed
    /// golden. The loop stops at the first functional pass, so a run with
    /// budget `f` is the first `f + 1` attempts of this one: setting `f`
    /// scores attempt `min(f, attempts - 1)`. The budget is always the
    /// campaign maximum, never that of the pending cells, so a tally does
    /// not depend on which cells are restored or in another shard's range
    /// — also for a stateful provider whose answers depend on its earlier
    /// calls.
    pub(crate) fn run_pair(
        &self,
        problem: usize,
        profile: usize,
        goldens: &[Option<Golden>],
        evaluator: &mut Evaluator,
    ) -> Vec<ProblemTally> {
        let config = self.matrix.config;
        let golden = goldens[problem]
            .as_ref()
            .expect("the pair's golden was primed");
        let problem = &self.matrix.problems[problem];
        let mut llm = self.providers[profile].spawn_seeded(config.seed);
        let loop_config = LoopConfig {
            max_feedback_iters: config.feedback_iters.iter().copied().max().unwrap_or(0),
            restrictions: config.restrictions,
        };
        let empty = ProblemTally {
            n: config.samples_per_problem,
            syntax_passes: 0,
            functional_passes: 0,
        };
        let mut tallies = vec![empty; config.feedback_iters.len()];
        for sample in 0..config.samples_per_problem as u64 {
            let result = run_sample(&mut *llm, problem, golden, evaluator, loop_config, sample);
            let last = result.attempts.len() - 1;
            for (tally, &iters) in tallies.iter_mut().zip(&config.feedback_iters) {
                let report = &result.attempts[iters.min(last)].report;
                tally.syntax_passes += usize::from(report.syntax_pass());
                tally.functional_passes += usize::from(report.functional_pass());
            }
        }
        tallies
    }

    /// Evaluates the cell at `index` and records its tally in `journal` —
    /// the durability barrier a cell passes before the caller counts it
    /// complete. The tally comes from `trajectory`, the worker's last
    /// pair trajectory (its pair index and tallies), which is computed
    /// with [`CellRunner::run_pair`] when `index` belongs to another
    /// pair: a worker that walks a pair's cells in order runs its loop
    /// once. Returns the tally and whether its record is durable (`true`
    /// without a journal).
    pub(crate) fn run_cell(
        &self,
        index: usize,
        trajectory: &mut Option<(usize, Vec<ProblemTally>)>,
        goldens: &[Option<Golden>],
        evaluator: &mut Evaluator,
        journal: Option<&dyn CellJournal>,
    ) -> (ProblemTally, bool) {
        let matrix = self.matrix;
        let cell = matrix.cells[index];
        let pair = index / matrix.config.feedback_iters.len();
        let (_, tallies) = match trajectory {
            Some(last) if last.0 == pair => last,
            _ => trajectory.insert((
                pair,
                self.run_pair(cell.problem, cell.profile, goldens, evaluator),
            )),
        };
        let tally = tallies[cell.ef_idx];
        let durable = journal.is_none_or(|journal| {
            journal.record_cell(matrix.fingerprint, matrix.keys[index], &tally)
        });
        (tally, durable)
    }
}

/// Ends a run without a report — on a cancel, or on a golden that
/// failed to simulate (`golden_failure` is `Some`; not a cancel).
pub(crate) fn stopped(
    emit: impl Fn(CampaignEvent),
    cells_completed: usize,
    cells_total: usize,
    cells_restored: usize,
    golden_failure: Option<GoldenFailure>,
) -> CampaignOutcome {
    let cancelled = golden_failure.is_none();
    emit(CampaignEvent::CampaignFinished {
        cells_completed,
        cells_total,
        cancelled,
    });
    CampaignOutcome {
        report: None,
        cancelled,
        cells_completed,
        cells_total,
        cells_restored,
        golden_failure,
    }
}

/// The campaign engine: fans `(problem × model)` pairs out over
/// workers, spawning one model instance per pair from the pair's
/// provider, journals and announces each of the pair's
/// `(problem × model × feedback)` cells, and aggregates
/// deterministically.
///
/// The calling thread is worker 0: it runs the same worker body as the
/// `worker_count - 1` scoped threads beside it, and the same workers
/// prime the goldens first, so a 1-worker campaign spawns no thread and
/// delivers every event on the caller's thread.
fn execute_campaign(campaign: &Campaign) -> CampaignOutcome {
    let config = &campaign.config;
    let emit = |event: CampaignEvent| {
        if let Some(observer) = &campaign.observer {
            observer.on_event(&event);
        }
    };
    let halted = || {
        campaign
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    };

    // Cells in problem-major order, claimed a pair at a time by workers.
    let matrix = CellMatrix::new(&campaign.problems, &campaign.providers, config);
    let cells = &matrix.cells;

    emit(CampaignEvent::CampaignStarted {
        problems: campaign.problems.len(),
        providers: campaign.providers.len(),
        cells: cells.len(),
    });

    // Resume: replay cells journalled by a previous run of the same
    // campaign before any worker starts. Restored tallies were computed
    // by the same deterministic engine, so the merged report is
    // bit-identical to an uninterrupted run.
    let store = campaign.store.as_ref();
    let mut restored: Vec<Option<ProblemTally>> = vec![None; cells.len()];
    let mut cells_restored = 0usize;
    if let Some(store) = store.filter(|_| campaign.resume) {
        let journalled: HashMap<u64, ProblemTally> = store
            .completed_cells(matrix.fingerprint)
            .into_iter()
            .collect();
        for (index, key) in matrix.keys.iter().enumerate() {
            if let Some(tally) = journalled.get(key) {
                restored[index] = Some(*tally);
                cells_restored += 1;
                let cell = cells[index];
                emit(CampaignEvent::CellRestored {
                    problem_id: campaign.problems[cell.problem].id.clone(),
                    model: matrix.provider_names[cell.profile].clone(),
                    feedback_iters: config.feedback_iters[cell.ef_idx],
                    tally: *tally,
                    completed: cells_restored,
                    total: cells.len(),
                });
            }
        }
    }

    let worker_count = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
    .min(matrix.pairs())
    .max(1);

    // Goldens, indexed by problem: simulated once on the campaign's
    // workers, borrowed by every worker, and seeded into the evaluation
    // cache. Priming honours the cancel token per problem, so an early
    // abort responds promptly instead of sweeping every golden first; a
    // resume that restored every cell has nothing to compare and primes
    // none. When a store is attached it doubles as the disk tier under
    // the campaign's own cache; an injected process-wide cache is used
    // verbatim (including whatever disk tier it was built with).
    let cache = match &campaign.shared_cache {
        Some(shared) => Arc::clone(shared),
        None => {
            let mut cache = EvalCache::new();
            if let Some(store) = store {
                cache = cache.with_disk(Arc::clone(store));
            }
            Arc::new(cache)
        }
    };
    let runner = CellRunner::new(
        &matrix,
        &campaign.providers,
        campaign.observer.as_ref(),
        Arc::clone(&cache),
        campaign.scope.clone(),
    );
    let to_prime = if cells_restored == cells.len() {
        0
    } else {
        campaign.problems.len()
    };
    let goldens = match runner.prime(0..to_prime, worker_count, halted) {
        Ok(goldens) => goldens,
        Err(failure) => {
            return stopped(
                emit,
                cells_restored,
                cells.len(),
                cells_restored,
                Some(*failure),
            )
        }
    };
    if halted() && cells_restored < cells.len() {
        return stopped(emit, cells_restored, cells.len(), cells_restored, None);
    }

    let journal = store.map(|store| store as &dyn CellJournal);
    let next_pair = AtomicUsize::new(0);
    let completed = AtomicUsize::new(cells_restored);
    let store_degraded_reported = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, ProblemTally)>> = Mutex::new(Vec::with_capacity(cells.len()));

    // One worker body, run by `worker_count - 1` scoped threads and by
    // the calling thread as worker 0: a 1-thread campaign spawns nothing.
    let worker = || {
        let mut evaluator = runner.evaluator();
        let mut trajectory = None;
        let mut local: Vec<(usize, ProblemTally)> = Vec::new();
        'pairs: loop {
            let pair = next_pair.fetch_add(1, Ordering::Relaxed);
            if pair >= matrix.pairs() {
                break;
            }
            // Restored cells were replayed up front; a pair whose cells
            // were all restored runs no trajectory.
            for cell_index in matrix.pair_cells(pair) {
                if restored[cell_index].is_some() {
                    continue;
                }
                // Cooperative abort at cell boundaries, also inside a
                // pair: a started cell always finishes (and emits
                // CellFinished), so the event stream stays well-formed.
                if halted() {
                    break 'pairs;
                }
                let cell = cells[cell_index];
                let problem_id = &campaign.problems[cell.problem].id;
                let model = &matrix.provider_names[cell.profile];
                let feedback_iters = config.feedback_iters[cell.ef_idx];
                emit(CampaignEvent::CellStarted {
                    problem_id: problem_id.clone(),
                    model: model.clone(),
                    feedback_iters,
                });
                // The pair's first pending cell runs its trajectory. The
                // runner journals the cell (fsync'd) before it counts as
                // complete, so any crash after this point leaves a
                // resumable journal.
                let (tally, durable) = runner.run_cell(
                    cell_index,
                    &mut trajectory,
                    &goldens,
                    &mut evaluator,
                    journal,
                );
                if !durable && !store_degraded_reported.swap(true, Ordering::AcqRel) {
                    emit(CampaignEvent::StoreDegraded {
                        write_errors: store.map_or(0, |store| store.write_errors()),
                    });
                }
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                emit(CampaignEvent::CellFinished {
                    problem_id: problem_id.clone(),
                    model: model.clone(),
                    feedback_iters,
                    tally,
                    completed: done,
                    total: cells.len(),
                });
                local.push((cell_index, tally));
            }
        }
        results.lock().expect("results poisoned").extend(local);
    };
    std::thread::scope(|threads| {
        for _ in 1..worker_count {
            threads.spawn(worker);
        }
        worker();
    });

    let cells_completed = completed.load(Ordering::Relaxed);
    if halted() && cells_completed < cells.len() {
        return stopped(emit, cells_completed, cells.len(), cells_restored, None);
    }

    let mut by_cell = restored;
    for (index, tally) in results.into_inner().expect("results poisoned") {
        by_cell[index] = Some(tally);
    }

    // With a per-tenant scope attached, reported cache stats are the
    // scope's counters — a session sharing a process-wide cache must not
    // see (or leak) other tenants' traffic in its own stream/report.
    let cache_stats = campaign
        .scope
        .as_ref()
        .map_or_else(|| cache.stats(), |scope| scope.stats());
    // Aggregation iterates problems in input order — deterministic and
    // independent of scheduling, hashing and thread count.
    let report = matrix.report(&by_cell, Some(cache_stats));

    emit(CampaignEvent::CacheStats(cache_stats));
    emit(CampaignEvent::CampaignFinished {
        cells_completed,
        cells_total: cells.len(),
        cancelled: false,
    });

    CampaignOutcome {
        report: Some(report),
        cancelled: false,
        cells_completed,
        cells_total: cells.len(),
        cells_restored,
        golden_failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problems() -> Vec<Problem> {
        ["mzi-ps", "mzm", "umatrix", "direct-modulator"]
            .iter()
            .map(|id| picbench_problems::find(id).unwrap())
            .collect()
    }

    fn run_matrix(
        profiles: &[ModelProfile],
        problems: &[Problem],
        config: &CampaignConfig,
    ) -> CampaignReport {
        Campaign::builder()
            .problems(problems.to_vec())
            .profiles(profiles)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            samples_per_problem: 4,
            k_values: vec![1, 4],
            feedback_iters: vec![0, 1],
            restrictions: false,
            seed: 99,
            grid: WavelengthGrid::paper_fast(),
            threads: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_produces_all_cells() {
        let profiles = vec![ModelProfile::gpt4(), ModelProfile::gemini15_pro()];
        let report = run_matrix(&profiles, &small_problems(), &small_config());
        // 2 models × 2 EF settings × 2 k values.
        assert_eq!(report.cells.len(), 8);
        assert!(report.cell("GPT-4", 0, 1).is_some());
        assert!(report.cell("Gemini 1.5 pro", 1, 4).is_some());
        assert!(report.cell("GPT-4", 2, 1).is_none());
    }

    #[test]
    fn one_worker_campaign_delivers_every_event_on_the_calling_thread() {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&threads);
        Campaign::builder()
            .problems(small_problems())
            .profiles(&[ModelProfile::gpt4()])
            .config(small_config())
            .threads(1)
            .observer(Arc::new(move |_: &CampaignEvent| {
                seen.lock().unwrap().push(std::thread::current().id());
            }))
            .build()
            .unwrap()
            .run();
        let threads = threads.lock().unwrap();
        // Started, 8 × (cell started, cell finished), cache stats, finished.
        assert_eq!(threads.len(), 19);
        assert!(threads.iter().all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn two_worker_campaign_runs_on_the_caller_and_one_more_thread() {
        use std::sync::Condvar;
        use std::thread::ThreadId;
        // Each worker's first `CellStarted` waits (bounded) until a second
        // thread has started a cell, so both workers must take part.
        let workers = Arc::new((Mutex::new(HashSet::<ThreadId>::new()), Condvar::new()));
        let emitters = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
        let (rendezvous, seen) = (Arc::clone(&workers), Arc::clone(&emitters));
        let report = Campaign::builder()
            .problems(small_problems())
            .profiles(&[ModelProfile::gpt4()])
            .config(small_config())
            .threads(2)
            .observer(Arc::new(move |event: &CampaignEvent| {
                seen.lock().unwrap().insert(std::thread::current().id());
                if let CampaignEvent::CellStarted { .. } = event {
                    let (ids, arrived) = &*rendezvous;
                    let mut ids = ids.lock().unwrap();
                    ids.insert(std::thread::current().id());
                    arrived.notify_all();
                    let wait = std::time::Duration::from_secs(30);
                    drop(arrived.wait_timeout_while(ids, wait, |ids| ids.len() < 2));
                }
            }))
            .build()
            .unwrap()
            .run();
        let workers = workers.0.lock().unwrap().clone();
        assert_eq!(workers.len(), 2, "{workers:?}");
        assert!(workers.contains(&std::thread::current().id()));
        assert_eq!(*emitters.lock().unwrap(), workers);
        let single = run_matrix(
            &[ModelProfile::gpt4()],
            &small_problems(),
            &CampaignConfig {
                threads: 1,
                ..small_config()
            },
        );
        assert!(report.same_results(&single));
    }

    /// `mzi-ps` with a negative splitter loss: the golden validates, but
    /// its sweep fails at plan construction.
    fn unsimulable_mzi_ps() -> Problem {
        let mut problem = picbench_problems::find("mzi-ps").unwrap();
        problem
            .golden
            .instances
            .get_mut("mmi1")
            .unwrap()
            .settings
            .insert("loss".to_string(), -1.0);
        problem
    }

    #[test]
    fn an_unsimulable_golden_ends_the_campaign_with_a_typed_error() {
        // In process, and sharded: the supervisor primes the goldens
        // before it launches any worker.
        let shard_dir = std::env::temp_dir().join(format!(
            "picbench-unsimulable-golden-{}",
            std::process::id()
        ));
        for shards in [1, 2] {
            let events = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&events);
            let outcome = Campaign::builder()
                .problem(unsimulable_mzi_ps())
                .profiles(&[ModelProfile::gpt4(), ModelProfile::gpt4o()])
                .samples_per_problem(1)
                .k_values([1])
                .feedback_iters([0])
                .shards(shards)
                .shard_dir(&shard_dir)
                .observer(Arc::new(move |event: &CampaignEvent| {
                    seen.lock().unwrap().push(event.clone());
                }))
                .build()
                .unwrap()
                .execute();
            assert!(outcome.report.is_none(), "{shards} shard(s)");
            assert!(!outcome.cancelled, "{shards} shard(s)");
            assert_eq!(outcome.cells_completed, 0);
            let failure = outcome
                .golden_failure
                .expect("the golden failure is reported");
            assert_eq!(failure.problem_id, "mzi-ps");
            assert!(matches!(failure.error, SimulateError::Sim(_)), "{failure}");
            let events = events.lock().unwrap();
            assert!(matches!(events[0], CampaignEvent::CampaignStarted { .. }));
            assert!(
                matches!(
                    events[1..],
                    [CampaignEvent::CampaignFinished {
                        cells_completed: 0,
                        cancelled: false,
                        ..
                    }]
                ),
                "{shards} shard(s): {events:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&shard_dir);
    }

    #[test]
    fn the_first_unsimulable_golden_is_reported_at_every_worker_count() {
        use picbench_math::decomp::MeshScheme;
        use picbench_netlist::PortSpec;
        // Goldens at positions 1 and 3 fail. Position 1, a 16×16 mesh
        // with an unknown setting, fails only after its schedule is
        // built; position 3 fails at once. So with several workers the
        // later failure usually lands first, and the earlier position
        // must still be the one reported.
        let mut mesh = picbench_problems::find("clements-8x8").unwrap();
        mesh.id = "broken-at-1".to_string();
        mesh.spec = PortSpec::new(16, 16);
        mesh.golden = picbench_problems::meshes::mesh_golden(16, MeshScheme::Clements);
        mesh.golden
            .instances
            .get_mut("ophase16")
            .unwrap()
            .settings
            .insert("bogus".to_string(), 1.0);
        let mut mzi = unsimulable_mzi_ps();
        mzi.id = "broken-at-3".to_string();
        let mut problems = small_problems();
        problems[1] = mesh;
        problems[3] = mzi;
        for threads in [1, 2, 4] {
            let events = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&events);
            let outcome = Campaign::builder()
                .problems(problems.clone())
                .profiles(&[ModelProfile::gpt4(), ModelProfile::gpt4o()])
                .config(small_config())
                .threads(threads)
                .observer(Arc::new(move |event: &CampaignEvent| {
                    seen.lock().unwrap().push(event.clone());
                }))
                .build()
                .unwrap()
                .execute();
            assert_eq!(outcome.cells_completed, 0, "{threads} threads");
            let failure = outcome
                .golden_failure
                .expect("the golden failure is reported");
            assert_eq!(failure.problem_id, "broken-at-1", "{threads} threads");
            let events = events.lock().unwrap();
            assert!(
                matches!(
                    events[..],
                    [
                        CampaignEvent::CampaignStarted { .. },
                        CampaignEvent::CampaignFinished {
                            cells_completed: 0,
                            cancelled: false,
                            ..
                        }
                    ]
                ),
                "{threads} threads: {events:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "golden design mzi-ps failed")]
    fn run_panics_on_an_unsimulable_golden() {
        Campaign::builder()
            .problem(unsimulable_mzi_ps())
            .profiles(&[ModelProfile::gpt4()])
            .build()
            .unwrap()
            .run();
    }

    #[test]
    fn campaign_is_deterministic() {
        let profiles = vec![ModelProfile::claude35_sonnet()];
        let a = run_matrix(&profiles, &small_problems(), &small_config());
        let b = run_matrix(&profiles, &small_problems(), &small_config());
        assert!(a.same_results(&b));
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let profiles = vec![ModelProfile::gpt4o()];
        let reference = run_matrix(
            &profiles,
            &small_problems(),
            &CampaignConfig {
                threads: 1,
                ..small_config()
            },
        );
        for threads in [2, 3, 8] {
            let parallel = run_matrix(
                &profiles,
                &small_problems(),
                &CampaignConfig {
                    threads,
                    ..small_config()
                },
            );
            assert!(
                reference.same_results(&parallel),
                "thread count {threads} changed the report"
            );
        }
    }

    #[test]
    fn cached_campaign_matches_an_uncached_recomputation_of_every_cell() {
        let profiles = vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()];
        let problems = small_problems();
        let config = small_config();
        let report = run_matrix(&profiles, &problems, &config);
        assert!(report.cache_stats.expect("campaigns run cached").lookups() > 0);

        let mut evaluator = Evaluator::new(config.grid, Default::default());
        let goldens: Vec<Golden> = problems
            .iter()
            .map(|problem| evaluator.golden(problem).unwrap())
            .collect();
        let mut conditions = report.conditions.iter();
        for profile in &profiles {
            for &feedback_iters in &config.feedback_iters {
                let condition = conditions.next().expect("one condition per cell column");
                assert_eq!(condition.model, profile.name());
                assert_eq!(condition.feedback_iters, feedback_iters);
                assert_eq!(condition.tallies.len(), problems.len());
                let loop_config = LoopConfig {
                    max_feedback_iters: feedback_iters,
                    restrictions: config.restrictions,
                };
                for (problem, golden) in problems.iter().zip(&goldens) {
                    let mut llm = profile.spawn_seeded(config.seed);
                    let mut tally = ProblemTally {
                        n: config.samples_per_problem,
                        syntax_passes: 0,
                        functional_passes: 0,
                    };
                    for sample in 0..config.samples_per_problem as u64 {
                        let result = run_sample(
                            &mut *llm,
                            problem,
                            golden,
                            &mut evaluator,
                            loop_config,
                            sample,
                        );
                        tally.syntax_passes += usize::from(result.syntax_pass());
                        tally.functional_passes += usize::from(result.functional_pass());
                    }
                    assert_eq!(
                        condition.tallies[&problem.id], tally,
                        "{} with {feedback_iters} feedback iterations on {}",
                        condition.model, problem.id
                    );
                }
            }
        }
        assert!(conditions.next().is_none());
    }

    #[test]
    fn cache_absorbs_repeated_structures() {
        let profiles = vec![ModelProfile::gpt4()];
        let report = run_matrix(&profiles, &small_problems(), &small_config());
        let stats = report.cache_stats.expect("cache on by default");
        assert!(stats.lookups() > 0);
        assert!(
            stats.hit_rate() > 0.2,
            "repeated responses and golden-identical candidates must hit: {stats:?}"
        );
    }

    #[test]
    fn feedback_never_hurts() {
        let profiles = vec![ModelProfile::gpt4o()];
        let report = run_matrix(&profiles, &small_problems(), &small_config());
        let no_ef = report.cell("GPT-4o", 0, 1).unwrap();
        let one_ef = report.cell("GPT-4o", 1, 1).unwrap();
        assert!(one_ef.syntax >= no_ef.syntax);
        assert!(one_ef.functional >= no_ef.functional);
    }

    #[test]
    fn pass_at_5_bounds_pass_at_1() {
        let profiles = vec![ModelProfile::gpt4()];
        let report = run_matrix(&profiles, &small_problems(), &small_config());
        let p1 = report.cell("GPT-4", 0, 1).unwrap();
        let p4 = report.cell("GPT-4", 0, 4).unwrap();
        assert!(p4.syntax >= p1.syntax);
        assert!(p4.functional >= p1.functional);
    }

    #[test]
    fn scores_are_percentages() {
        let profiles = vec![ModelProfile::gpt_o1_mini()];
        let report = run_matrix(&profiles, &small_problems(), &small_config());
        for cell in &report.cells {
            assert!((0.0..=100.0).contains(&cell.syntax));
            assert!((0.0..=100.0).contains(&cell.functional));
            assert!(cell.functional <= cell.syntax + 1e-9);
        }
    }

    #[test]
    fn shared_cache_multi_tenant_accounting() {
        let shared = Arc::new(EvalCache::new());
        let build = |scope: &Arc<CacheScope>| {
            Campaign::builder()
                .problems(small_problems())
                .profiles(&[ModelProfile::gpt4()])
                .config(small_config())
                .shared_cache(Arc::clone(&shared))
                .cache_scope(Arc::clone(scope))
                .build()
                .unwrap()
        };

        // Two tenants submit identical campaigns *concurrently* through
        // one shared cache.
        let scope_a = Arc::new(CacheScope::new());
        let scope_b = Arc::new(CacheScope::new());
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| build(&scope_a).run());
            let tb = s.spawn(|| build(&scope_b).run());
            (ta.join().unwrap(), tb.join().unwrap())
        });

        // Bit-identical reports, regardless of who populated the cache.
        assert!(a.same_results(&b));

        // Each tenant's report carries *its own* scope counters, not the
        // cache-wide ones (no cross-tenant traffic leakage) …
        let (sa, sb) = (scope_a.stats(), scope_b.stats());
        assert_eq!(a.cache_stats, Some(sa));
        assert_eq!(b.cache_stats, Some(sb));
        assert!(sa.lookups() > 0 && sb.lookups() > 0, "{sa:?} {sb:?}");

        // … and the scopes partition the global counters exactly: both
        // sides count every hit/miss event once, races included.
        let global = shared.stats();
        assert_eq!(global.misses, sa.misses + sb.misses, "{global:?}");
        assert_eq!(
            global.response_hits,
            sa.response_hits + sb.response_hits,
            "{global:?}"
        );
        assert_eq!(global.report_hits, 0, "retired level: {global:?}");
        assert_eq!(global.sim_hits, sa.sim_hits + sb.sim_hits, "{global:?}");
        assert_eq!(global.disk_hits, sa.disk_hits + sb.disk_hits, "{global:?}");

        // An isolated run (its own fresh cache) agrees bit for bit with
        // the shared-cache tenants.
        let isolated = Campaign::builder()
            .problems(small_problems())
            .profiles(&[ModelProfile::gpt4()])
            .config(small_config())
            .build()
            .unwrap()
            .run();
        assert!(a.same_results(&isolated));

        // A third identical tenant arriving after the fact is served
        // entirely from the shared cache: zero misses, all hits.
        let scope_late = Arc::new(CacheScope::new());
        let late = build(&scope_late).run();
        assert!(a.same_results(&late));
        let sl = scope_late.stats();
        assert_eq!(sl.misses, 0, "{sl:?}");
        assert!(sl.response_hits > 0, "{sl:?}");
    }
}
