//! Pluggable model providers — the campaign-facing factory seam.
//!
//! A campaign fans work out across threads, and every worker needs its
//! own [`LanguageModel`] instance (models are stateful: per-sample RNG,
//! repair state, transcript cursors). [`ModelProvider`] is the
//! object-safe factory behind that fan-out: anything `Send + Sync` that
//! can `spawn()` fresh model instances can drive a campaign — the
//! calibrated synthetic profiles, recorded-transcript replays, failure
//! injecting decorators, or a real API client.
//!
//! Three implementations ship here:
//!
//! * [`ModelProfile`] — spawns [`SyntheticLlm`]s; the paper's five
//!   calibrated models;
//! * [`ReplayLlm`] — serves recorded transcripts verbatim, giving
//!   deterministic regression fixtures for runs against real APIs;
//! * [`FlakyProvider`] — decorates any provider with deterministic
//!   rate-limit/outage responses for resilience testing.

use crate::synthetic::SyntheticLlm;
use crate::{LanguageModel, ModelProfile};
use picbench_problems::Problem;
use picbench_prompt::Conversation;
use std::collections::HashMap;
use std::sync::Arc;

/// The default campaign seed (the paper's arXiv date) used when a
/// profile is spawned without an explicit seed.
pub const PAPER_SEED: u64 = 20_250_205;

/// An object-safe factory of per-worker [`LanguageModel`] instances.
///
/// Campaigns hold `Arc<dyn ModelProvider>`s and spawn one model per
/// `(problem, model)` pair, whose feedback trajectory every feedback
/// setting of the pair is scored off; implementations must therefore be
/// `Send + Sync`, while the spawned models only need `Send`.
pub trait ModelProvider: Send + Sync {
    /// Display name used in reports (one column per provider).
    fn name(&self) -> &str;

    /// Creates a fresh model instance with default seeding.
    fn spawn(&self) -> Box<dyn LanguageModel>;

    /// Creates a fresh model instance for a specific campaign seed.
    ///
    /// Stochastic providers should honour the seed so campaigns stay
    /// bit-identical for a given configuration; deterministic providers
    /// (replays, API clients) can ignore it — the default forwards to
    /// [`ModelProvider::spawn`].
    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        let _ = seed;
        self.spawn()
    }
}

impl ModelProvider for ModelProfile {
    fn name(&self) -> &str {
        self.name
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        self.spawn_seeded(PAPER_SEED)
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        Box::new(SyntheticLlm::new(self.clone(), seed))
    }
}

/// Response served when a replay has no transcript for the requested
/// (problem, sample) pair — deliberately unparseable, so the gap shows
/// up as a classified syntax failure instead of a silent pass.
pub const MISSING_TRANSCRIPT: &str =
    "[replay error: no recorded transcript for this problem/sample pair]";

/// Response served when [`ReplayLlm::respond`] is called before any
/// [`LanguageModel::begin_sample`] — a driver bug, reported as a clean
/// unparseable error (and therefore a classified syntax failure) rather
/// than a panic that would take down a whole campaign worker.
pub const NO_ACTIVE_SAMPLE: &str =
    "[replay error: respond called before begin_sample selected a transcript]";

#[derive(Debug, Default)]
struct ReplayBook {
    /// Problem id → sample index → responses in conversation order.
    /// (Nested rather than tuple-keyed so the per-respond lookup borrows
    /// the cursor's id instead of cloning it.)
    transcripts: HashMap<String, HashMap<u64, Vec<String>>>,
}

/// A language model (and provider) that replays recorded transcripts.
///
/// Record the raw responses of a real-API run once, then re-evaluate them
/// deterministically forever — the regression-fixture path for runs the
/// synthetic profiles cannot cover. Within a sample, responses are served
/// in recording order; if the evaluation asks for more turns than were
/// recorded, the last response is repeated (models that converged stay
/// converged), and samples with no transcript at all answer with an
/// unparseable error marker.
#[derive(Debug)]
pub struct ReplayLlm {
    name: String,
    book: Arc<ReplayBook>,
    /// Active `(problem id, sample index, next response index)`.
    cursor: Option<(String, u64, usize)>,
}

impl ReplayLlm {
    /// Creates an empty replay under the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        ReplayLlm {
            name: name.into(),
            book: Arc::new(ReplayBook::default()),
            cursor: None,
        }
    }

    /// Appends one recorded response to a `(problem, sample)` transcript.
    ///
    /// Only possible before the replay is shared (spawned from); builder
    /// style, so fixtures read as data.
    pub fn with_response(
        mut self,
        problem_id: impl Into<String>,
        sample_index: u64,
        response: impl Into<String>,
    ) -> Self {
        let book = Arc::get_mut(&mut self.book)
            .expect("with_response must be called before the replay is spawned");
        book.transcripts
            .entry(problem_id.into())
            .or_default()
            .entry(sample_index)
            .or_default()
            .push(response.into());
        self
    }
}

impl LanguageModel for ReplayLlm {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.cursor = Some((problem.id.clone(), sample_index, 0));
    }

    fn respond(&mut self, _conversation: &Conversation) -> String {
        let Some((problem_id, sample, next)) = self.cursor.as_mut() else {
            return NO_ACTIVE_SAMPLE.to_string();
        };
        match self
            .book
            .transcripts
            .get(problem_id.as_str())
            .and_then(|samples| samples.get(sample))
            .filter(|responses| !responses.is_empty())
        {
            Some(responses) => {
                let index = (*next).min(responses.len() - 1);
                *next += 1;
                responses[index].clone()
            }
            None => MISSING_TRANSCRIPT.to_string(),
        }
    }
}

impl ModelProvider for ReplayLlm {
    fn name(&self) -> &str {
        &self.name
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        Box::new(ReplayLlm {
            name: self.name.clone(),
            book: Arc::clone(&self.book),
            cursor: None,
        })
    }
}

/// Response injected by [`FlakyProvider`] in place of a real one — shaped
/// like a transport-layer failure, and unparseable by design.
pub const RATE_LIMIT_RESPONSE: &str =
    "HTTP 429 Too Many Requests: rate limit exceeded, retry after 30s";

/// Injected transient network failure (connection-level, retryable).
pub const TRANSIENT_IO_RESPONSE: &str =
    "connection reset by peer: transient network error while reading response";

/// Injected per-request timeout (retryable).
pub const TIMEOUT_RESPONSE: &str =
    "request timed out after 600 seconds waiting for completion tokens";

/// Injected fatal transport failure — retrying cannot help.
pub const FATAL_AUTH_RESPONSE: &str = "HTTP 401 Unauthorized: invalid API key";

/// Suffix appended to a garbled (truncated mid-stream) response.
pub const GARBLED_SUFFIX: &str = "[connection closed mid-stream]";

/// The kinds of transport failure [`FlakyProvider`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// An HTTP 429 — the response is replaced wholesale (retryable).
    RateLimit,
    /// A connection-level IO error (retryable).
    TransientIo,
    /// A per-request timeout (retryable).
    Timeout,
    /// The real response truncated mid-stream with [`GARBLED_SUFFIX`]
    /// appended (retryable — but the underlying turn *was* consumed).
    Garbled,
    /// An authentication failure — retrying cannot help.
    Fatal,
}

/// When (and how) a [`FlakyProvider`] injects failures. Both schedules
/// are fully deterministic, so campaigns over flaky providers still
/// produce bit-identical reports for every thread count.
#[derive(Debug, Clone)]
pub enum FlakySchedule {
    /// Every `period`-th response of each spawned instance fails
    /// (1-based; `0` disables injection), cycling through `kinds`. A
    /// campaign spawns one instance per `(problem, model)` pair and runs
    /// it at the largest feedback budget, so the count runs over all
    /// samples of the pair's one trajectory, whatever the other
    /// feedback settings are.
    Periodic {
        /// The failure period (`0` = never fail).
        period: usize,
        /// Failure kinds, applied round-robin over successive failures.
        kinds: Vec<FailureKind>,
    },
    /// Each response independently fails with probability
    /// `rate_percent`/100, drawn from a seeded xorshift stream (combined
    /// with the spawn seed, so distinct campaign seeds see distinct but
    /// reproducible schedules).
    Seeded {
        /// Stream seed.
        seed: u64,
        /// Failure probability in percent (clamped to 100).
        rate_percent: u8,
        /// Failure kinds, selected deterministically per failure.
        kinds: Vec<FailureKind>,
    },
}

impl FlakySchedule {
    fn kinds(&self) -> &[FailureKind] {
        match self {
            FlakySchedule::Periodic { kinds, .. } | FlakySchedule::Seeded { kinds, .. } => kinds,
        }
    }
}

/// One xorshift64 step: the jitter stream of failure schedules and
/// retry backoff.
pub(crate) fn xorshift64(mut x: u64) -> u64 {
    x = x.max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A decorating provider that deterministically injects transport
/// failures — the resilience-testing harness for campaign plumbing.
///
/// The [`FlakySchedule`] decides when a response is replaced (or, for
/// [`FailureKind::Garbled`], truncated) and with what; all other calls
/// pass through to the wrapped provider's model. Schedules are
/// counter- or seed-based and therefore fully deterministic: a campaign
/// over a flaky provider still produces bit-identical reports for every
/// thread count, while exercising exactly the failure paths a real API
/// outage would.
pub struct FlakyProvider {
    inner: Arc<dyn ModelProvider>,
    name: String,
    schedule: FlakySchedule,
}

impl FlakyProvider {
    /// Wraps a provider, failing every `failure_period`-th response of
    /// each spawned instance with a rate-limit error (`0` disables
    /// injection entirely).
    pub fn new(inner: Arc<dyn ModelProvider>, failure_period: usize) -> Self {
        FlakyProvider::with_schedule(
            inner,
            FlakySchedule::Periodic {
                period: failure_period,
                kinds: vec![FailureKind::RateLimit],
            },
        )
    }

    /// Wraps a provider with an explicit failure schedule.
    pub fn with_schedule(inner: Arc<dyn ModelProvider>, schedule: FlakySchedule) -> Self {
        let name = format!("{} [flaky]", inner.name());
        FlakyProvider {
            inner,
            name,
            schedule,
        }
    }

    /// Overrides the display name (defaults to `"<inner> [flaky]"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn spawn_with(&self, inner: Box<dyn LanguageModel>, seed: u64) -> Box<dyn LanguageModel> {
        let rng = match &self.schedule {
            FlakySchedule::Periodic { .. } => 0,
            FlakySchedule::Seeded { seed: s, .. } => xorshift64(s ^ seed.rotate_left(32)),
        };
        Box::new(FlakyLlm {
            name: self.name.clone(),
            inner,
            schedule: self.schedule.clone(),
            responses: 0,
            failures: 0,
            rng,
        })
    }
}

struct FlakyLlm {
    name: String,
    inner: Box<dyn LanguageModel>,
    schedule: FlakySchedule,
    responses: usize,
    failures: usize,
    rng: u64,
}

impl FlakyLlm {
    /// The failure to inject for this response, if any.
    fn next_failure(&mut self) -> Option<FailureKind> {
        self.responses += 1;
        let kinds = self.schedule.kinds();
        if kinds.is_empty() {
            return None;
        }
        let fire = match &self.schedule {
            FlakySchedule::Periodic { period, .. } => {
                *period > 0 && self.responses.is_multiple_of(*period)
            }
            FlakySchedule::Seeded { rate_percent, .. } => {
                self.rng = xorshift64(self.rng);
                self.rng % 100 < u64::from((*rate_percent).min(100))
            }
        };
        if !fire {
            return None;
        }
        let kind = kinds[self.failures % kinds.len()];
        self.failures += 1;
        Some(kind)
    }
}

impl LanguageModel for FlakyLlm {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.inner.begin_sample(problem, sample_index);
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        match self.next_failure() {
            None => self.inner.respond(conversation),
            Some(FailureKind::RateLimit) => RATE_LIMIT_RESPONSE.to_string(),
            Some(FailureKind::TransientIo) => TRANSIENT_IO_RESPONSE.to_string(),
            Some(FailureKind::Timeout) => TIMEOUT_RESPONSE.to_string(),
            Some(FailureKind::Fatal) => FATAL_AUTH_RESPONSE.to_string(),
            Some(FailureKind::Garbled) => {
                // Unlike the whole-response replacements above, a garbled
                // failure *consumes* the underlying turn: the real
                // response streamed halfway and died, exactly like a
                // dropped connection.
                let full = self.inner.respond(conversation);
                let cut = full
                    .char_indices()
                    .map(|(i, _)| i)
                    .take_while(|&i| i <= full.len() / 2)
                    .last()
                    .unwrap_or(0);
                format!("{}{}", &full[..cut], GARBLED_SUFFIX)
            }
        }
    }
}

impl ModelProvider for FlakyProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        self.spawn_with(self.inner.spawn(), PAPER_SEED)
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        self.spawn_with(self.inner.spawn_seeded(seed), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_prompt::Role;

    fn mzi_ps() -> Problem {
        picbench_problems::find("mzi-ps").unwrap()
    }

    fn conversation(problem: &Problem) -> Conversation {
        let mut c = Conversation::with_system("You are a PIC designer.");
        c.push(Role::User, problem.description.clone());
        c
    }

    #[test]
    fn profile_provider_spawns_seed_faithful_synthetics() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let provider: Arc<dyn ModelProvider> = Arc::new(ModelProfile::gpt4());
        assert_eq!(provider.name(), "GPT-4");
        let mut spawned = provider.spawn_seeded(7);
        let mut direct = SyntheticLlm::new(ModelProfile::gpt4(), 7);
        spawned.begin_sample(&problem, 0);
        direct.begin_sample(&problem, 0);
        assert_eq!(spawned.respond(&conv), direct.respond(&conv));
    }

    #[test]
    fn replay_serves_transcripts_in_order_then_repeats() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let replay = ReplayLlm::new("Recorded GPT-4")
            .with_response(problem.id.clone(), 0, "first")
            .with_response(problem.id.clone(), 0, "second");
        let mut llm = replay.spawn();
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), "first");
        assert_eq!(llm.respond(&conv), "second");
        assert_eq!(llm.respond(&conv), "second", "last response repeats");
        // A different sample has no transcript: unparseable marker.
        llm.begin_sample(&problem, 1);
        assert!(llm.respond(&conv).contains("no recorded transcript"));
    }

    #[test]
    fn replay_spawns_share_the_book_but_not_cursors() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let replay = ReplayLlm::new("replay").with_response(problem.id.clone(), 0, "only");
        let mut a = replay.spawn();
        let mut b = replay.spawn();
        a.begin_sample(&problem, 0);
        b.begin_sample(&problem, 0);
        assert_eq!(a.respond(&conv), "only");
        assert_eq!(b.respond(&conv), "only");
    }

    #[test]
    fn flaky_provider_fails_on_schedule_and_recovers() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let inner = Arc::new(ReplayLlm::new("steady").with_response(problem.id.clone(), 0, "ok"));
        let flaky = FlakyProvider::new(inner, 2);
        assert_eq!(flaky.name(), "steady [flaky]");
        let mut llm = flaky.spawn();
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), RATE_LIMIT_RESPONSE);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), RATE_LIMIT_RESPONSE);
    }

    #[test]
    fn flaky_schedule_cycles_failure_kinds() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let inner = Arc::new(ReplayLlm::new("steady").with_response(problem.id.clone(), 0, "ok"));
        let flaky = FlakyProvider::with_schedule(
            inner,
            FlakySchedule::Periodic {
                period: 2,
                kinds: vec![
                    FailureKind::TransientIo,
                    FailureKind::Timeout,
                    FailureKind::Fatal,
                ],
            },
        );
        let mut llm = flaky.spawn();
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), TRANSIENT_IO_RESPONSE);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), TIMEOUT_RESPONSE);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), FATAL_AUTH_RESPONSE);
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), TRANSIENT_IO_RESPONSE, "kinds cycle");
    }

    #[test]
    fn garbled_failure_truncates_the_real_response() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let inner = Arc::new(ReplayLlm::new("steady").with_response(
            problem.id.clone(),
            0,
            "a-long-real-response",
        ));
        let flaky = FlakyProvider::with_schedule(
            inner,
            FlakySchedule::Periodic {
                period: 1,
                kinds: vec![FailureKind::Garbled],
            },
        );
        let mut llm = flaky.spawn();
        llm.begin_sample(&problem, 0);
        let garbled = llm.respond(&conv);
        assert!(garbled.ends_with(GARBLED_SUFFIX), "{garbled}");
        assert!(garbled.starts_with("a-long-rea"), "{garbled}");
        assert!(!garbled.contains("a-long-real-response"));
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_rate_bounded() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let schedule = FlakySchedule::Seeded {
            seed: 99,
            rate_percent: 30,
            kinds: vec![FailureKind::RateLimit, FailureKind::Timeout],
        };
        let inner = Arc::new(ReplayLlm::new("steady").with_response(problem.id.clone(), 0, "ok"));
        let flaky = FlakyProvider::with_schedule(inner, schedule);
        let run = |seed: u64| {
            let mut llm = flaky.spawn_seeded(seed);
            llm.begin_sample(&problem, 0);
            (0..50).map(|_| llm.respond(&conv)).collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same spawn seed, same schedule");
        let c = run(8);
        assert_ne!(a, c, "different spawn seeds see different schedules");
        let failures = a.iter().filter(|r| r.as_str() != "ok").count();
        assert!(failures > 0, "30% over 50 responses should fire");
        assert!(
            failures < 30,
            "and stay roughly rate-bounded, got {failures}"
        );
    }

    #[test]
    fn flaky_period_zero_never_fails() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let inner = Arc::new(ReplayLlm::new("steady").with_response(problem.id.clone(), 0, "ok"));
        let flaky = FlakyProvider::new(inner, 0).with_name("renamed");
        assert_eq!(ModelProvider::name(&flaky), "renamed");
        let mut llm = flaky.spawn();
        llm.begin_sample(&problem, 0);
        for _ in 0..5 {
            assert_eq!(llm.respond(&conv), "ok");
        }
    }
}
