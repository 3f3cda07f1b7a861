//! Syntax and functionality evaluation (§III-C), with content-addressed
//! caching.
//!
//! A raw chat response is judged in two stages, as in the paper:
//!
//! 1. **Syntax**: extract the JSON payload, parse it, interpret it as a
//!    netlist, validate it structurally and simulate it. If a frequency
//!    response comes out, syntax passes.
//! 2. **Functionality**: compare the generated design's frequency
//!    response against the golden design's over the full sweep.
//!
//! Campaigns evaluate enormous numbers of *structurally identical*
//! candidates: feedback retries converge toward the golden design, a
//! model often answers the same text twice within one sample, and
//! distinct model profiles emit identical clean designs.
//! The evaluator therefore works **content-addressed**:
//!
//! * every structurally valid candidate is [canonicalized]
//!   (`Netlist::canonicalize`) before simulation, so all members of a
//!   [`Netlist::content_hash`] class produce the *same frequency response
//!   bit for bit* — which is what makes cached replay indistinguishable
//!   from cold evaluation;
//! * an optional shared [`EvalCache`] memoizes at two levels: the
//!   sweep outcome per `(netlist hash, grid, SIMD tier, port spec)`
//!   (level 1), after which only the cheap golden comparison reruns,
//!   and — because a verdict is a pure function of the response text
//!   given those settings and the problem — whole verdicts per
//!   response-text digest (level 0), which skips even extraction and
//!   JSON parsing on replays;
//! * a [`ScheduleCache`] reuses the topology-level [`SweepSchedule`]s
//!   across candidates, and one [`SolveWorkspace`] serves every serial
//!   sweep, so even cache *misses* skip re-planning and re-allocation
//!   when only settings changed;
//! * the caller sweeps a problem's golden once ([`Evaluator::golden`])
//!   and passes it to every verdict.
//!
//! Structurally *invalid* candidates are deliberately left uncached: they
//! never reach a sweep (the expensive part), and their classified issue
//! lists are reported exactly as validation of the as-written document
//! produces them.
//!
//! [canonicalized]: picbench_netlist::Netlist::canonicalize
//! [`SweepSchedule`]: picbench_sim::SweepSchedule

use crate::classify;
use picbench_math::SimdLevel;
use picbench_netlist::extract::extract_payload;
use picbench_netlist::{json, validate, Fnv64, Netlist, ValidationIssue};
use picbench_problems::Problem;
use picbench_sim::{
    sweep_with_plan, Circuit, FrequencyResponse, ModelRegistry, ResponseComparison, ScheduleCache,
    SimError, SimulateError, SolveWorkspace, SweepPlan, WavelengthGrid,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Default tolerance on the maximum per-pair |ΔS|² for functional
/// equivalence.
pub const DEFAULT_FUNCTIONAL_TOLERANCE: f64 = 1e-5;

/// The verdict on one response.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// `Ok(())` when the design simulated; otherwise every classified
    /// issue found.
    pub syntax: Result<(), Vec<ValidationIssue>>,
    /// Functional verdict (`None` when syntax failed).
    pub functional: Option<bool>,
    /// Response-comparison details when functionality was checked.
    pub comparison: Option<ResponseComparison>,
}

impl EvalReport {
    /// Whether the design passed the syntax check.
    pub fn syntax_pass(&self) -> bool {
        self.syntax.is_ok()
    }

    /// Whether the design passed both checks.
    pub fn functional_pass(&self) -> bool {
        self.syntax_pass() && self.functional == Some(true)
    }

    /// The classified issues (empty when syntax passed).
    pub fn issues(&self) -> &[ValidationIssue] {
        match &self.syntax {
            Ok(()) => &[],
            Err(issues) => issues,
        }
    }

    fn syntax_fail(issues: Vec<ValidationIssue>) -> Self {
        EvalReport {
            syntax: Err(issues),
            functional: None,
            comparison: None,
        }
    }
}

/// Identifies one simulation: canonical netlist digest, wavelength grid
/// (bit pattern), the solver's SIMD tier (tiers agree only to the last
/// bits, and cached replay must be bit-identical to cold evaluation), and
/// the problem's external port-count spec (which participates in
/// validation).
pub(crate) type SimKey = (u64, (u64, u64, usize), SimdLevel, (usize, usize));

/// Identifies one raw-response evaluation: response-text digest, grid,
/// SIMD tier, golden-netlist digest, port-count spec, tolerance. A
/// verdict is a pure function of these (given the fixed built-in
/// registry), so whole reports can be replayed from it. (Digests rather
/// than owned `String`s keep cache lookups allocation-free.)
pub(crate) type ResponseKey = (u64, (u64, u64, usize), SimdLevel, u64, (usize, usize), u64);

/// The memoized outcome of simulating one structurally valid netlist.
#[derive(Debug, Clone)]
enum SimOutcome {
    /// The sweep succeeded.
    Response(Arc<FrequencyResponse>),
    /// The sweep failed (e.g. a singular system or a model rejecting its
    /// settings at some wavelength).
    Failed(SimError),
}

const SHARD_COUNT: usize = 16;

/// One cache level: 16 mutexed hash maps, striped by a key digest.
/// Entries are only ever inserted and the first insert wins (every writer
/// computes the identical value for a key, a consequence of canonical
/// simulation), so contention is limited to short lock windows.
#[derive(Debug)]
struct Shards<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V> Shards<K, V> {
    fn new() -> Self {
        Shards {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
        }
    }

    /// The stripe holding keys with this digest, locked.
    fn lock(&self, digest: u64) -> MutexGuard<'_, HashMap<K, V>> {
        self.shards[(digest as usize) & (SHARD_COUNT - 1)]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Inserts `value` unless `key` already has one; whether it did.
    fn insert(&self, digest: u64, key: K, value: V) -> bool {
        match self.lock(digest).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }
}

/// Counter snapshot of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Whole verdicts replayed straight from the response text.
    pub response_hits: u64,
    /// Always 0. The finished-report level it counted was retired; the
    /// field stays so the counter set keeps its shape on the wire.
    pub report_hits: u64,
    /// Verdicts re-derived from a memoized sweep.
    pub sim_hits: u64,
    /// Verdicts served from the persistent disk tier: one per distinct
    /// key read from disk, however workers race (counted separately from
    /// the memory-tier hits above; a disk hit also warms memory, so
    /// repeats of the same text surface as `response_hits`).
    pub disk_hits: u64,
    /// Evaluations that had to run the full simulation.
    pub misses: u64,
}

impl EvalCacheStats {
    /// Cache hits plus executed simulations. (Structurally invalid
    /// first-sight responses run no sweep and are counted on neither
    /// side; their repeats surface as `response_hits`.)
    ///
    /// The split is exact for a single worker and varies by a few
    /// lookups between runs with two or more, because workers that meet
    /// the same text or design at once each count their own outcome:
    /// every worker that misses a sim key before the first `put_sim`
    /// lands counts a miss (where one worker would count one miss, then
    /// hits), and an invalid text both workers see first counts nothing
    /// twice where one worker would count one `response_hits`.
    pub fn lookups(&self) -> u64 {
        self.response_hits + self.report_hits + self.sim_hits + self.disk_hits + self.misses
    }

    /// Fraction of [`EvalCacheStats::lookups`] served without running a
    /// simulation.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            1.0 - self.misses as f64 / lookups as f64
        }
    }
}

/// Hit/miss counters over an [`EvalCache`]: the cache's own global set,
/// or one tenant's share of a shared cache.
///
/// A process-wide cache serving several tenants (the `picbench-server`
/// session table) still needs to answer "who benefited?": an
/// [`Evaluator`] with a scope attached bumps it *in addition to* the
/// cache's global counters, on exactly the same events. Scopes are plain
/// data — they hold no keys and no reports, so handing a tenant its
/// scope stats can never leak another tenant's results. Summing every
/// scope's counters reproduces the global counters for the same window
/// (both sides count each lookup exactly once).
#[derive(Debug, Default)]
pub struct CacheScope {
    response_hits: AtomicU64,
    sim_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheScope {
    /// A fresh scope with zeroed counters.
    pub fn new() -> Self {
        CacheScope::default()
    }

    /// Snapshot of this scope's counters (same shape as the cache-wide
    /// [`EvalCache::stats`], same cheap atomic loads).
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            response_hits: self.response_hits.load(Ordering::Relaxed),
            report_hits: 0,
            sim_hits: self.sim_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A sharded, thread-safe, content-addressed evaluation cache with two
/// levels.
///
/// Level 0 memoizes whole [`EvalReport`]s by response text (and the
/// settings a verdict depends on); level 1 memoizes sweep outcomes by
/// simulation key (canonical netlist digest, grid, SIMD tier, port
/// spec). A level-1 hit re-runs only the cheap golden comparison.
///
/// An optional disk tier backs level 0 only: verdicts persist, sweeps
/// stay in memory.
#[derive(Debug)]
pub struct EvalCache {
    responses: Shards<ResponseKey, EvalReport>,
    sims: Shards<SimKey, SimOutcome>,
    /// Optional persistent verdict tier: level-0 misses fall through to
    /// it, and fresh verdicts write through so they warm-start future
    /// runs.
    disk: Option<Arc<crate::persist::EvalStore>>,
    counters: CacheScope,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache {
            responses: Shards::new(),
            sims: Shards::new(),
            disk: None,
            counters: CacheScope::new(),
        }
    }

    /// Attaches a persistent disk tier for verdicts: a response-text
    /// lookup that misses memory falls through to the store (counted as
    /// [`EvalCacheStats::disk_hits`] and warming memory), and fresh
    /// verdicts write through so later runs warm-start. Sweeps are never
    /// persisted. Store write failures degrade the store silently — the
    /// cache never fails an evaluation over its disk tier.
    pub fn with_disk(mut self, store: Arc<crate::persist::EvalStore>) -> Self {
        self.disk = Some(store);
        self
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&Arc<crate::persist::EvalStore>> {
        self.disk.as_ref()
    }

    /// Bumps one counter globally and in the caller's scope, if any.
    fn count(&self, scope: Option<&CacheScope>, field: fn(&CacheScope) -> &AtomicU64) {
        field(&self.counters).fetch_add(1, Ordering::Relaxed);
        if let Some(scope) = scope {
            field(scope).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every `get_*` counts its own hit (memory tier, then for verdicts
    /// the disk tier, whose hit warms memory) both globally and in the
    /// caller's [`CacheScope`], if any; `None` means the caller computes
    /// — and counts the miss only when it actually runs a sweep.
    fn get_response(&self, key: &ResponseKey, scope: Option<&CacheScope>) -> Option<EvalReport> {
        let hit = self.responses.lock(key.0).get(key).cloned();
        if hit.is_some() {
            self.count(scope, |c| &c.response_hits);
            return hit;
        }
        let report = self.disk.as_ref()?.get_verdict(key)?;
        // Two workers can miss memory on the same key at once; only the
        // one whose insert lands counts the disk hit, so `disk_hits` is
        // the number of distinct keys served from disk on any schedule.
        if self.responses.insert(key.0, *key, report.clone()) {
            self.count(scope, |c| &c.disk_hits);
        } else {
            self.count(scope, |c| &c.response_hits);
        }
        Some(report)
    }

    /// Memory first, and disk only for the insert that lands: each
    /// verdict is written to disk once, and a racing reader that finds
    /// it there loses its memory insert and counts a response hit.
    fn put_response(&self, key: ResponseKey, report: &EvalReport) {
        if self.responses.insert(key.0, key, report.clone()) {
            if let Some(disk) = &self.disk {
                disk.put_verdict(&key, report);
            }
        }
    }

    fn get_sim(&self, key: &SimKey, scope: Option<&CacheScope>) -> Option<SimOutcome> {
        let hit = self.sims.lock(key.0).get(key).cloned();
        if hit.is_some() {
            self.count(scope, |c| &c.sim_hits);
        }
        hit
    }

    fn put_sim(&self, key: SimKey, outcome: SimOutcome) {
        self.sims.insert(key.0, key, outcome);
    }

    /// The sweep outcome under `key`, without counting a hit.
    fn peek_sim(&self, key: &SimKey) -> Option<SimOutcome> {
        self.sims.lock(key.0).get(key).cloned()
    }

    /// Number of memoized sweep outcomes.
    pub fn simulation_count(&self) -> usize {
        self.sims.len()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> EvalCacheStats {
        self.counters.stats()
    }
}

/// A problem's golden design as verdicts read it, from
/// [`Evaluator::golden`]. Its fields are private so the hash, which
/// keys cached verdicts, always belongs to the response.
#[derive(Debug, Clone)]
pub struct Golden {
    hash: u64,
    response: Arc<FrequencyResponse>,
}

impl Golden {
    /// The golden netlist's [`Netlist::content_hash`].
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The golden design's swept response.
    pub fn response(&self) -> &Arc<FrequencyResponse> {
        &self.response
    }
}

/// The evaluation engine: sweep settings + caches over the built-in
/// registry.
#[derive(Debug)]
pub struct Evaluator {
    grid: WavelengthGrid,
    /// SIMD tier of every sweep's kernels.
    simd: SimdLevel,
    /// Shared evaluation cache (optional; campaigns share one).
    cache: Option<Arc<EvalCache>>,
    /// Per-tenant accounting scope: every cache hit/miss this evaluator
    /// causes is double-counted here (optional; servers attach one per
    /// tenant).
    scope: Option<Arc<CacheScope>>,
    /// Topology-level sweep schedules, reused across candidates.
    schedules: ScheduleCache,
    /// The calling thread's sweep workspace, reused across candidates.
    workspace: SolveWorkspace,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new(WavelengthGrid::paper_fast(), SimdLevel::default())
    }
}

impl Evaluator {
    /// Creates an evaluator with the built-in model registry, sweeping
    /// with the planned block-sparse solver on the `simd` kernel tier
    /// (`SimdLevel::default()` is the widest the process may use).
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `simd`
    /// ([`picbench_math::simd::is_supported`]).
    pub fn new(grid: WavelengthGrid, simd: SimdLevel) -> Self {
        assert!(
            picbench_math::simd::is_supported(simd),
            "SIMD level {simd} is not supported on this CPU"
        );
        Evaluator {
            grid,
            simd,
            cache: None,
            scope: None,
            schedules: ScheduleCache::new(),
            workspace: SolveWorkspace::new(),
        }
    }

    /// Attaches a shared evaluation cache.
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a per-tenant accounting scope: cache hits and misses
    /// this evaluator causes are counted into the scope *in addition
    /// to* the cache's global counters. No effect without a cache.
    pub fn with_cache_scope(mut self, scope: Arc<CacheScope>) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Returns `self` unchanged: sweeps are always serial. Kept only
    /// because the `perfbench` replay still calls it; the next benchmark
    /// change moves that call to [`Evaluator::new`] and deletes this.
    #[doc(hidden)]
    pub fn with_sweep_threads(self, _threads: usize) -> Self {
        self
    }

    /// The model registry in use: the process-wide built-in one.
    pub fn registry(&self) -> &'static ModelRegistry {
        ModelRegistry::builtin()
    }

    /// The wavelength grid in use.
    pub fn grid(&self) -> &WavelengthGrid {
        &self.grid
    }

    /// The attached cache's counters, if a cache is attached.
    pub fn cache_stats(&self) -> Option<EvalCacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    fn grid_key(&self) -> (u64, u64, usize) {
        (
            self.grid.start_um.to_bits(),
            self.grid.stop_um.to_bits(),
            self.grid.points,
        )
    }

    pub(crate) fn sim_key(&self, problem: &Problem, hash: u64) -> SimKey {
        (
            hash,
            self.grid_key(),
            self.simd,
            (problem.spec.inputs, problem.spec.outputs),
        )
    }

    /// Simulates the canonical form of a structurally valid netlist
    /// through the schedule-cached plan pipeline.
    fn simulate_canonical(
        &mut self,
        canonical: &Netlist,
        problem: &Problem,
    ) -> Result<FrequencyResponse, SimulateError> {
        let circuit = Circuit::elaborate(canonical, ModelRegistry::builtin(), Some(&problem.spec))?;
        let schedule = self.schedules.get_or_build(&circuit);
        let plan = SweepPlan::with_schedule(&circuit, schedule)
            .map_err(SimulateError::Sim)?
            .with_simd_level(self.simd);
        sweep_with_plan(&plan, &self.grid, &mut self.workspace).map_err(SimulateError::Sim)
    }

    /// Sweeps a problem's golden design through the candidates' canonical
    /// pipeline and seeds the attached cache with it (one shared
    /// allocation) under the golden's content hash, so candidates that
    /// reproduce it verbatim are hits. A sweep already in the cache is
    /// reused; that lookup counts no hit.
    ///
    /// # Errors
    ///
    /// The validation or sweep failure of a golden that cannot be simulated.
    pub fn golden(&mut self, problem: &Problem) -> Result<Golden, SimulateError> {
        self.golden_with_hash(problem, problem.golden.content_hash())
    }

    /// [`Evaluator::golden`] given the golden netlist's content hash.
    pub(crate) fn golden_with_hash(
        &mut self,
        problem: &Problem,
        hash: u64,
    ) -> Result<Golden, SimulateError> {
        let key = self.sim_key(problem, hash);
        let cached = self.cache.as_ref().and_then(|c| c.peek_sim(&key));
        if let Some(SimOutcome::Response(response)) = cached {
            return Ok(Golden { hash, response });
        }
        let response = Arc::new(self.simulate_canonical(&problem.golden.canonicalize(), problem)?);
        if let Some(cache) = &self.cache {
            cache.put_sim(key, SimOutcome::Response(Arc::clone(&response)));
        }
        Ok(Golden { hash, response })
    }

    /// The system prompt over the built-in registry, rendered once per
    /// process for each restrictions flag (rendering walks the whole API
    /// document — far too much work to redo for every sample).
    pub fn system_prompt(&self, restrictions: bool) -> Arc<String> {
        static PROMPTS: [OnceLock<Arc<String>>; 2] = [OnceLock::new(), OnceLock::new()];
        let prompt = PROMPTS[usize::from(restrictions)].get_or_init(|| {
            let infos: Vec<_> = ModelRegistry::builtin()
                .iter()
                .map(|m| m.info().clone())
                .collect();
            Arc::new(picbench_prompt::render_system_prompt(
                infos.iter(),
                picbench_prompt::SystemPromptConfig {
                    include_restrictions: restrictions,
                },
            ))
        });
        Arc::clone(prompt)
    }

    /// The response of [`Evaluator::golden`], not memoized.
    ///
    /// # Panics
    ///
    /// Panics if the golden design fails to simulate (for a built-in
    /// golden, a bug).
    pub fn golden_response_arc(&mut self, problem: &Problem) -> Arc<FrequencyResponse> {
        self.expect_golden(problem, problem.golden.content_hash())
            .response
    }

    /// [`Evaluator::golden`] given the content hash, panicking on failure.
    pub(crate) fn expect_golden(&mut self, problem: &Problem, hash: u64) -> Golden {
        self.golden_with_hash(problem, hash)
            .unwrap_or_else(|e| panic!("golden design {} failed: {e}", problem.id))
    }

    /// Parses a raw response into a netlist, collecting every classified
    /// issue along the way.
    pub fn parse_response(&self, response_text: &str) -> (Option<Netlist>, Vec<ValidationIssue>) {
        let mut issues = Vec::new();
        let payload = match extract_payload(response_text) {
            Ok(p) => p,
            Err(e) => {
                issues.push(classify::classify_extract_error(&e));
                return (None, issues);
            }
        };
        if let Some(issue) = classify::classify_extra_content(&payload) {
            issues.push(issue);
        }
        let value = match json::parse(&payload.json) {
            Ok(v) => v,
            Err(e) => {
                issues.push(classify::classify_json_error(&e));
                return (None, issues);
            }
        };
        match Netlist::from_value(&value) {
            Ok(netlist) => (Some(netlist), issues),
            Err(e) => {
                issues.push(classify::classify_schema_error(&e));
                (None, issues)
            }
        }
    }

    /// Looks up or computes the memoized sweep outcome of a netlist (the
    /// sim level shared by [`Evaluator::evaluate_netlist`] and
    /// [`Evaluator::candidate_response`]).
    ///
    /// Only valid netlists get a cache entry, so a hit implies the whole
    /// hash class validates; validation failures are classified from the
    /// document exactly as written and returned as `Err`.
    fn sim_outcome(
        &mut self,
        problem: &Problem,
        netlist: &Netlist,
        hash: u64,
    ) -> Result<SimOutcome, Vec<ValidationIssue>> {
        let key = self.sim_key(problem, hash);
        let scope = self.scope.as_deref();
        if let Some(outcome) = self.cache.as_ref().and_then(|c| c.get_sim(&key, scope)) {
            return Ok(outcome);
        }
        // Validate the document as written, so classified issues describe
        // exactly what the model produced. Only the canonical form is
        // elaborated, below.
        let issues = validate(netlist, ModelRegistry::builtin(), Some(&problem.spec));
        if !issues.is_empty() {
            return Err(issues);
        }
        if let Some(cache) = &self.cache {
            cache.count(self.scope.as_deref(), |c| &c.misses);
        }
        let canonical = netlist.canonicalize();
        let outcome = match self.simulate_canonical(&canonical, problem) {
            Ok(response) => SimOutcome::Response(Arc::new(response)),
            // Canonicalization preserves structural validity; reaching
            // this arm would be a canonicalizer bug, but report it
            // faithfully rather than panic.
            Err(SimulateError::Elaborate(e)) => return Err(e.issues),
            Err(SimulateError::Sim(e)) => SimOutcome::Failed(e),
        };
        if let Some(cache) = &self.cache {
            cache.put_sim(key, outcome.clone());
        }
        Ok(outcome)
    }

    /// Evaluates an already-parsed netlist against a problem and its
    /// [`Golden`] (from [`Evaluator::golden`]).
    ///
    /// This is the content-addressed core of [`Evaluator::evaluate_response`]:
    /// structurally valid netlists are canonicalized, simulated through
    /// the cached plan pipeline and memoized; invalid ones are classified
    /// from the document exactly as written.
    pub fn evaluate_netlist(
        &mut self,
        problem: &Problem,
        golden: &Golden,
        netlist: &Netlist,
    ) -> EvalReport {
        match self.sim_outcome(problem, netlist, netlist.content_hash()) {
            Ok(SimOutcome::Response(response)) => {
                let comparison = response.compare(&golden.response);
                EvalReport {
                    syntax: Ok(()),
                    functional: Some(comparison.is_equivalent(DEFAULT_FUNCTIONAL_TOLERANCE)),
                    comparison: Some(comparison),
                }
            }
            Ok(SimOutcome::Failed(e)) => {
                EvalReport::syntax_fail(vec![classify::classify_sim_error(&e)])
            }
            Err(issues) => EvalReport::syntax_fail(issues),
        }
    }

    /// Evaluates one raw response against a problem and its [`Golden`]
    /// (from [`Evaluator::golden`]).
    ///
    /// With a cache attached, whole verdicts are replayed from the
    /// response text itself (level 0) before any extraction or parsing
    /// happens — a verdict is a pure function of
    /// `(text, golden, port spec, grid, SIMD tier, tolerance)`, so replay
    /// is indistinguishable from recomputation.
    pub fn evaluate_response(
        &mut self,
        problem: &Problem,
        golden: &Golden,
        response_text: &str,
    ) -> EvalReport {
        let key: Option<ResponseKey> = self.cache.as_ref().map(|_| {
            (
                Fnv64::hash_str(response_text),
                self.grid_key(),
                self.simd,
                golden.hash,
                (problem.spec.inputs, problem.spec.outputs),
                DEFAULT_FUNCTIONAL_TOLERANCE.to_bits(),
            )
        });
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(report) = cache.get_response(key, self.scope.as_deref()) {
                return report;
            }
        }
        let (netlist, issues) = self.parse_response(response_text);
        let report = match netlist {
            Some(n) if issues.is_empty() => self.evaluate_netlist(problem, golden, &n),
            _ => EvalReport::syntax_fail(issues),
        };
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.put_response(key, &report);
        }
        report
    }

    /// The frequency response of a structurally valid candidate netlist,
    /// through the same canonical, cached pipeline the verdicts use.
    ///
    /// # Errors
    ///
    /// Returns the classified issues when the netlist fails validation or
    /// simulation.
    pub fn candidate_response(
        &mut self,
        problem: &Problem,
        netlist: &Netlist,
    ) -> Result<Arc<FrequencyResponse>, Vec<ValidationIssue>> {
        match self.sim_outcome(problem, netlist, netlist.content_hash())? {
            SimOutcome::Response(r) => Ok(r),
            SimOutcome::Failed(e) => Err(vec![classify::classify_sim_error(&e)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::FailureType;

    fn mzi_ps() -> Problem {
        picbench_problems::find("mzi-ps").unwrap()
    }

    /// The golden of `problem`, swept without a cache so no counter of
    /// the cache under test moves.
    fn golden(problem: &Problem) -> Golden {
        Evaluator::default().golden(problem).unwrap()
    }

    fn wrap(json: &str) -> String {
        format!("<analysis>reasoning</analysis>\n<result>\n{json}\n</result>")
    }

    #[test]
    fn golden_passes_both_checks() {
        let problem = mzi_ps();
        let mut ev = Evaluator::default();
        let golden = ev.golden(&problem).unwrap();
        let text = wrap(&problem.golden.to_json_string());
        let report = ev.evaluate_response(&problem, &golden, &text);
        assert!(report.syntax_pass(), "{:?}", report.issues());
        assert!(report.functional_pass());
        let cmp = report.comparison.unwrap();
        assert!(cmp.max_power_diff < 1e-12);
    }

    #[test]
    fn fig4_wrong_port_fails_syntax_with_paper_message() {
        let problem = mzi_ps();
        let mut broken = problem.golden.clone();
        broken.connections[1].b = picbench_netlist::PortRef::new("mmi2", "I2");
        let mut ev = Evaluator::default();
        let report =
            ev.evaluate_response(&problem, &golden(&problem), &wrap(&broken.to_json_string()));
        assert!(!report.syntax_pass());
        assert_eq!(report.functional, None);
        let issue = &report.issues()[0];
        assert_eq!(issue.failure, FailureType::WrongPort);
        assert!(issue
            .message
            .starts_with("Instance mmi2 does not contain port I2. Available ports:"));
    }

    #[test]
    fn functional_corruption_fails_functionality_only() {
        let problem = mzi_ps();
        let mut tweaked = problem.golden.clone();
        tweaked
            .instances
            .get_mut("waveBottom")
            .unwrap()
            .settings
            .insert("length".to_string(), 35.0);
        let mut ev = Evaluator::default();
        let report = ev.evaluate_response(
            &problem,
            &golden(&problem),
            &wrap(&tweaked.to_json_string()),
        );
        assert!(report.syntax_pass());
        assert_eq!(report.functional, Some(false));
        assert!(!report.functional_pass());
    }

    #[test]
    fn fenced_response_is_extra_content() {
        let problem = mzi_ps();
        let text = format!(
            "<result>\n```json\n{}\n```\n</result>",
            problem.golden.to_json_string()
        );
        let mut ev = Evaluator::default();
        let report = ev.evaluate_response(&problem, &golden(&problem), &text);
        assert!(!report.syntax_pass());
        assert_eq!(report.issues()[0].failure, FailureType::ExtraJsonContent);
    }

    #[test]
    fn prose_only_response_is_other_syntax() {
        let problem = mzi_ps();
        let mut ev = Evaluator::default();
        let text = "I'm sorry, I cannot design PICs.";
        let report = ev.evaluate_response(&problem, &golden(&problem), text);
        assert!(!report.syntax_pass());
        assert_eq!(report.issues()[0].failure, FailureType::OtherSyntax);
    }

    #[test]
    fn evaluators_share_one_registry_and_one_prompt_per_flag() {
        let a = Evaluator::default();
        let b = Evaluator::new(WavelengthGrid::paper_fast(), SimdLevel::Scalar);
        assert!(std::ptr::eq(a.registry(), b.registry()));
        let infos: Vec<_> = a.registry().iter().map(|m| m.info().clone()).collect();
        for restrictions in [false, true] {
            let prompt = a.system_prompt(restrictions);
            assert!(Arc::ptr_eq(&prompt, &b.system_prompt(restrictions)));
            let rendered = picbench_prompt::render_system_prompt(
                infos.iter(),
                picbench_prompt::SystemPromptConfig {
                    include_restrictions: restrictions,
                },
            );
            assert_eq!(*prompt, rendered);
        }
        assert_ne!(a.system_prompt(false), a.system_prompt(true));
    }

    #[test]
    fn all_24_goldens_pass_their_own_evaluation() {
        let mut ev = Evaluator::default();
        for problem in picbench_problems::suite() {
            let golden = ev.golden(&problem).unwrap();
            let text = wrap(&problem.golden.to_json_string());
            let report = ev.evaluate_response(&problem, &golden, &text);
            assert!(
                report.functional_pass(),
                "golden of {} failed: {:?}",
                problem.id,
                report.issues()
            );
        }
    }

    #[test]
    fn cached_evaluation_matches_cold_evaluation() {
        let problem = mzi_ps();
        let cache = Arc::new(EvalCache::new());
        let mut cached = Evaluator::default().with_cache(Arc::clone(&cache));
        let mut cold = Evaluator::default();

        // A permuted-but-identical document must hit the cache and yield
        // the same verdict and comparison bits as the cold path.
        // The golden comes from the cold evaluator, so it seeds nothing.
        let golden = cold.golden(&problem).unwrap();
        let golden_text = wrap(&problem.golden.to_json_string());
        let permuted_text = wrap(&problem.golden.canonicalize().to_json_string());
        let first = cached.evaluate_response(&problem, &golden, &golden_text);
        let second = cached.evaluate_response(&problem, &golden, &permuted_text);
        let reference = cold.evaluate_response(&problem, &golden, &golden_text);
        for report in [&first, &second, &reference] {
            assert!(report.functional_pass());
        }
        assert_eq!(first.comparison, second.comparison);
        assert_eq!(first.comparison, reference.comparison);

        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.sim_hits, 1, "{stats:?}");
        assert_eq!(stats.report_hits, 0, "{stats:?}");
        assert_eq!(cache.simulation_count(), 1);
    }

    #[test]
    fn disk_tier_warm_starts_across_cache_instances() {
        use crate::persist::EvalStore;
        let dir = std::env::temp_dir().join(format!("picbench-disk-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let problem = mzi_ps();
        let golden = golden(&problem);
        let text = wrap(&problem.golden.to_json_string());

        let cold = {
            let store = Arc::new(EvalStore::open(&dir).unwrap());
            let cache = Arc::new(EvalCache::new().with_disk(store));
            let mut ev = Evaluator::default().with_cache(Arc::clone(&cache));
            let cold = ev.evaluate_response(&problem, &golden, &text);
            assert!(cold.functional_pass());
            let stats = cache.stats();
            assert_eq!(stats.misses, 1, "{stats:?}");
            assert_eq!(stats.disk_hits, 0, "{stats:?}");
            assert!(cache.disk().unwrap().sync());
            cold
        };

        // A fresh process (fresh memory tiers) replays from disk alone.
        let store = Arc::new(EvalStore::open(&dir).unwrap());
        let cache = Arc::new(EvalCache::new().with_disk(store));
        let mut ev = Evaluator::default().with_cache(Arc::clone(&cache));
        let warm = ev.evaluate_response(&problem, &golden, &text);
        assert!(warm.functional_pass());
        let stats = cache.stats();
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(stats.disk_hits, 1, "{stats:?}");
        assert_eq!(
            stats.response_hits + stats.sim_hits,
            0,
            "disk hits must not masquerade as memory hits: {stats:?}"
        );
        // Bit-identical comparison details across the disk roundtrip.
        assert_eq!(cold.comparison, warm.comparison);

        // The disk hit warmed memory: repeats are memory hits.
        let again = ev.evaluate_response(&problem, &golden, &text);
        assert!(again.functional_pass());
        assert_eq!(cache.stats().response_hits, 1);
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_reuses_the_shared_cache_without_counting() {
        let problem = mzi_ps();
        let cache = Arc::new(EvalCache::new());
        let mut first = Evaluator::default().with_cache(Arc::clone(&cache));
        let primed = first.golden(&problem).unwrap();
        let stats = cache.stats();
        let simulations = cache.simulation_count();
        assert_eq!(simulations, 1);
        assert_eq!(primed.hash(), problem.golden.content_hash());

        // A second evaluator on the same cache takes the seeded sweep as
        // is: same allocation, no counter moves, no new entry.
        let mut second = Evaluator::default().with_cache(Arc::clone(&cache));
        let reused = second.golden(&problem).unwrap();
        assert!(Arc::ptr_eq(primed.response(), reused.response()));
        assert_eq!(cache.stats(), stats);
        assert_eq!(cache.simulation_count(), simulations);
        assert_eq!(reused.response(), golden(&problem).response());
    }

    #[test]
    fn unsimulable_golden_is_an_error() {
        let mut problem = mzi_ps();
        problem
            .golden
            .instances
            .get_mut("mmi1")
            .unwrap()
            .settings
            .insert("loss".to_string(), -1.0);
        let cache = Arc::new(EvalCache::new());
        let mut ev = Evaluator::default().with_cache(Arc::clone(&cache));
        let error = ev.golden(&problem).unwrap_err();
        assert!(matches!(error, SimulateError::Sim(_)), "{error}");
        assert_eq!(cache.simulation_count(), 0);
    }

    #[test]
    fn problems_sharing_an_id_get_their_own_verdicts() {
        // The same candidate text against two goldens under one id: the
        // built-in mzi-ps, then a copy whose lower arm is longer.
        let builtin = mzi_ps();
        let mut longer = mzi_ps();
        longer
            .golden
            .instances
            .get_mut("waveBottom")
            .unwrap()
            .settings
            .insert("length".to_string(), 35.0);
        let text = wrap(&builtin.golden.to_json_string());
        let cache = Arc::new(EvalCache::new());
        for (problem, functional) in [(&builtin, true), (&longer, false)] {
            let mut cached = Evaluator::default().with_cache(Arc::clone(&cache));
            let golden = cached.golden(problem).unwrap();
            let report = cached.evaluate_response(problem, &golden, &text);
            let mut fresh = Evaluator::default();
            let golden = fresh.golden(problem).unwrap();
            let reference = fresh.evaluate_response(problem, &golden, &text);
            assert_eq!(reference.functional, Some(functional));
            assert_eq!(report.functional, reference.functional);
            assert_eq!(report.comparison, reference.comparison);
        }
    }

    #[test]
    fn candidate_response_reports_invalid_netlists() {
        let problem = mzi_ps();
        let mut broken = problem.golden.clone();
        broken.connections[1].b = picbench_netlist::PortRef::new("mmi2", "I2");
        let mut ev = Evaluator::default().with_cache(Arc::new(EvalCache::new()));
        let issues = ev.candidate_response(&problem, &broken).unwrap_err();
        assert_eq!(issues[0].failure, FailureType::WrongPort);
        let ok = ev.candidate_response(&problem, &problem.golden).unwrap();
        assert_eq!(ok.wavelengths().len(), ev.grid().points);
    }

    #[test]
    fn oversized_response_is_rejected_before_elaboration() {
        let problem = mzi_ps();
        let instances: Vec<String> = (0..100_000)
            .map(|i| format!("\"wg{i}\": \"waveguide\""))
            .collect();
        let text = wrap(&format!(
            "{{\"netlist\": {{\"instances\": {{{}}}, \"connections\": {{}}, \
             \"ports\": {{}}}}, \"models\": {{\"waveguide\": \"waveguide\"}}}}",
            instances.join(", ")
        ));
        let mut ev = Evaluator::default().with_cache(Arc::new(EvalCache::new()));
        // No netlist comes out of parsing, so nothing is validated,
        // elaborated or simulated.
        let (netlist, issues) = ev.parse_response(&text);
        assert!(netlist.is_none());
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].failure, FailureType::OtherSyntax);
        assert_eq!(
            issues[0].message,
            "Schema error: 'netlist.instances' holds 100000 entries, more than the limit of 1024"
        );
        let report = ev.evaluate_response(&problem, &golden(&problem), &text);
        assert_eq!(report.issues(), issues.as_slice());
        let stats = ev.cache_stats().unwrap();
        assert_eq!((stats.sim_hits, stats.misses), (0, 0));
        assert_eq!(ev.cache.as_ref().unwrap().simulation_count(), 0);
    }
}
