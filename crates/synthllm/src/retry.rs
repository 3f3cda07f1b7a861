//! Provider resilience: retries with deterministic backoff.
//!
//! Real model APIs fail at the transport layer — rate limits, dropped
//! connections, timeouts. [`RetryProvider`] decorates any
//! [`ModelProvider`] with a [`RetryPolicy`]: responses classified as
//! *transient* failures ([`classify_transport`]) are retried up to a
//! budgeted number of attempts with seeded exponential backoff, *fatal*
//! failures (and exhausted budgets) degrade gracefully — the failure
//! response passes through unmodified, where the evaluation pipeline
//! classifies it as an ordinary syntax failure instead of crashing the
//! campaign.
//!
//! Everything is deterministic: backoff durations come from a seeded
//! xorshift jitter stream (per sample, so schedules are independent of
//! thread interleaving), and by default backoff only *consumes the
//! simulated per-sample budget* rather than sleeping — campaigns stay
//! bit-identical and fast. Set [`RetryPolicy::sleep`] for wall-clock
//! behaviour against real APIs.
//!
//! This is the workspace's one retry schedule: the coord client and
//! the service's HTTP client also decide each retry with
//! [`RetryPolicy::retry_after`] over a [`Jitter`] stream, and classify
//! failed deliveries with [`TransportErrorKind::from_io`].

use crate::provider::{
    xorshift64, FATAL_AUTH_RESPONSE, GARBLED_SUFFIX, RATE_LIMIT_RESPONSE, TIMEOUT_RESPONSE,
    TRANSIENT_IO_RESPONSE,
};
use crate::{LanguageModel, ModelProvider};
use picbench_netlist::Fnv64;
use picbench_problems::Problem;
use picbench_prompt::Conversation;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a failure response was classified at the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// HTTP 429 — retry after backoff.
    RateLimit,
    /// Connection-level IO failure — retry.
    TransientIo,
    /// Per-request timeout — retry.
    Timeout,
    /// Response truncated mid-stream — retry (the turn was consumed).
    Garbled,
    /// Authentication/authorization failure — retrying cannot help.
    Fatal,
}

impl TransportErrorKind {
    /// Whether a retry can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(self, TransportErrorKind::Fatal)
    }

    /// Classifies a failed network delivery. Every delivery failure is
    /// transient — the peer may well answer the next attempt — and an
    /// expired deadline is labelled [`TransportErrorKind::Timeout`].
    pub fn from_io(err: &io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => TransportErrorKind::Timeout,
            _ => TransportErrorKind::TransientIo,
        }
    }
}

/// Classifies a raw response as a transport failure, or `None` for an
/// ordinary model response.
///
/// Matching is against the exact transport-failure shapes the injection
/// harness produces (and real HTTP clients surface): status-line
/// prefixes and the mid-stream truncation suffix — not free-text
/// keywords, so genuine model responses that merely *mention* timeouts
/// are never misclassified.
pub fn classify_transport(response: &str) -> Option<TransportErrorKind> {
    if response.starts_with("HTTP 429") || response == RATE_LIMIT_RESPONSE {
        return Some(TransportErrorKind::RateLimit);
    }
    if response.starts_with("HTTP 401") || response == FATAL_AUTH_RESPONSE {
        return Some(TransportErrorKind::Fatal);
    }
    if response == TRANSIENT_IO_RESPONSE {
        return Some(TransportErrorKind::TransientIo);
    }
    if response == TIMEOUT_RESPONSE {
        return Some(TransportErrorKind::Timeout);
    }
    if response.ends_with(GARBLED_SUFFIX) {
        return Some(TransportErrorKind::Garbled);
    }
    None
}

/// Retry behaviour of a [`RetryProvider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per response, including the first (≥ 1).
    pub max_attempts: u32,
    /// First backoff duration; doubles per retry.
    pub base_backoff_ms: u64,
    /// Ceiling on a single backoff.
    pub max_backoff_ms: u64,
    /// Per-sample budget of cumulative backoff; once spent, further
    /// failures degrade instead of retrying.
    pub budget_ms: u64,
    /// Seed of the jitter stream (deterministic per sample).
    pub seed: u64,
    /// Whether backoff actually sleeps. Off by default: simulated
    /// backoff only consumes `budget_ms`, keeping campaigns fast and
    /// bit-identical. Enable against real APIs.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 100,
            max_backoff_ms: 2_000,
            budget_ms: 10_000,
            seed: crate::provider::PAPER_SEED,
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// FNV-1a digest of every field — campaign fingerprints fold this in
    /// so a resumed run cannot silently continue under a different
    /// retry regime.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv64::new();
        hash.write_u64(u64::from(self.max_attempts));
        hash.write_u64(self.base_backoff_ms);
        hash.write_u64(self.max_backoff_ms);
        hash.write_u64(self.budget_ms);
        hash.write_u64(self.seed);
        hash.write_u64(u64::from(self.sleep));
        hash.finish()
    }

    /// Backoff after the `attempt`-th (1-based) failure. Jitter is drawn
    /// only when the backoff is at least 4 ms, so that there is room.
    fn backoff_ms(&self, attempt: u32, jitter: &Jitter) -> u64 {
        let base = self
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.max_backoff_ms);
        let quarter = base / 4;
        if quarter == 0 {
            return base;
        }
        // base - 25% .. base + 25%, uniform over the jitter stream.
        base - quarter + jitter.draw() % (2 * quarter + 1)
    }

    /// The retry decision after the `attempt`-th (1-based) failure, of
    /// kind `kind`. `None` means give up: the failure is fatal, the
    /// attempts are spent, or the backoff would overdraw
    /// `budget_left_ms`. Otherwise the backoff — `base_backoff_ms`
    /// doubling per attempt, capped at `max_backoff_ms`, with ±25 %
    /// jitter drawn from `jitter` — is deducted from
    /// `budget_left_ms`, slept through when [`RetryPolicy::sleep`] is
    /// set, and returned.
    pub fn retry_after(
        &self,
        attempt: u32,
        kind: TransportErrorKind,
        budget_left_ms: &mut u64,
        jitter: &Jitter,
    ) -> Option<u64> {
        if !kind.is_transient() || attempt >= self.max_attempts.max(1) {
            return None;
        }
        let backoff = self.backoff_ms(attempt, jitter);
        // Degrade rather than stall once the budget is spent.
        *budget_left_ms = budget_left_ms.checked_sub(backoff)?;
        if self.sleep {
            std::thread::sleep(std::time::Duration::from_millis(backoff));
        }
        Some(backoff)
    }
}

/// A seeded xorshift stream of backoff jitter. Threads may share one:
/// interleaving only reorders their draws.
#[derive(Debug)]
pub struct Jitter(AtomicU64);

impl Jitter {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Jitter(AtomicU64::new(xorshift64(seed)))
    }

    fn draw(&self) -> u64 {
        // One coherent stream under concurrent callers; it publishes no
        // other data.
        let prev = self
            .0
            .update(Ordering::Relaxed, Ordering::Relaxed, xorshift64);
        xorshift64(prev)
    }
}

/// One observable retry-layer decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryEvent {
    /// A transient failure was absorbed; the attempt will be retried
    /// after `backoff_ms`.
    Retried {
        /// Provider display name.
        provider: String,
        /// Problem id of the affected sample.
        problem: String,
        /// Sample index within the cell.
        sample: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// How the failure was classified.
        kind: TransportErrorKind,
        /// Backoff consumed before the retry.
        backoff_ms: u64,
    },
    /// Retries were exhausted (or the failure was fatal); the failure
    /// response degrades into the evaluation pipeline as a classified
    /// failure.
    Degraded {
        /// Provider display name.
        provider: String,
        /// Problem id of the affected sample.
        problem: String,
        /// Sample index within the cell.
        sample: u64,
        /// Attempts made, including the degrading one.
        attempts: u32,
        /// How the final failure was classified.
        kind: TransportErrorKind,
    },
}

/// Observer of [`RetryEvent`]s (campaigns bridge this into
/// `CampaignEvent`s).
pub type RetrySink = Arc<dyn Fn(&RetryEvent) + Send + Sync>;

/// A decorating provider that retries transient transport failures per a
/// [`RetryPolicy`].
///
/// The decorated provider keeps its display name, so report columns are
/// unchanged — resilience is a property of the transport, not a
/// different model.
pub struct RetryProvider {
    inner: Arc<dyn ModelProvider>,
    policy: RetryPolicy,
    sink: Option<RetrySink>,
}

impl RetryProvider {
    /// Wraps a provider with a retry policy.
    pub fn new(inner: Arc<dyn ModelProvider>, policy: RetryPolicy) -> Self {
        RetryProvider {
            inner,
            policy,
            sink: None,
        }
    }

    /// Attaches an observer for retry/degrade decisions.
    pub fn with_sink(mut self, sink: RetrySink) -> Self {
        self.sink = Some(sink);
        self
    }
}

impl ModelProvider for RetryProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        self.spawn_seeded(crate::provider::PAPER_SEED)
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        Box::new(RetryLlm {
            inner: self.inner.spawn_seeded(seed),
            policy: self.policy,
            sink: self.sink.clone(),
            spawn_seed: seed,
            problem: String::new(),
            sample: 0,
            budget_left_ms: self.policy.budget_ms,
            jitter: Jitter::new(0),
        })
    }
}

struct RetryLlm {
    inner: Box<dyn LanguageModel>,
    policy: RetryPolicy,
    sink: Option<RetrySink>,
    spawn_seed: u64,
    problem: String,
    sample: u64,
    budget_left_ms: u64,
    jitter: Jitter,
}

impl RetryLlm {
    fn emit(&self, event: RetryEvent) {
        if let Some(sink) = &self.sink {
            sink(&event);
        }
    }
}

impl LanguageModel for RetryLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.problem = problem.id.clone();
        self.sample = sample_index;
        self.budget_left_ms = self.policy.budget_ms;
        // Jitter seeded per (policy, spawn, problem, sample): independent
        // of thread interleaving, stable across resumes.
        let mut seed = Fnv64::new();
        seed.write_u64(self.policy.seed);
        seed.write_u64(self.spawn_seed);
        seed.write_u64(Fnv64::hash_str(&self.problem));
        seed.write_u64(sample_index);
        self.jitter = Jitter::new(seed.finish());
        self.inner.begin_sample(problem, sample_index);
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        let mut attempt = 1u32;
        loop {
            let response = self.inner.respond(conversation);
            let Some(kind) = classify_transport(&response) else {
                return response;
            };
            let budget = &mut self.budget_left_ms;
            let Some(backoff) = self.policy.retry_after(attempt, kind, budget, &self.jitter) else {
                self.emit(RetryEvent::Degraded {
                    provider: self.inner.name().to_string(),
                    problem: self.problem.clone(),
                    sample: self.sample,
                    attempts: attempt,
                    kind,
                });
                return response;
            };
            self.emit(RetryEvent::Retried {
                provider: self.inner.name().to_string(),
                problem: self.problem.clone(),
                sample: self.sample,
                attempt,
                kind,
                backoff_ms: backoff,
            });
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{FailureKind, FlakyProvider, FlakySchedule, ReplayLlm};
    use picbench_prompt::Role;
    use std::sync::Mutex;

    fn mzi_ps() -> Problem {
        picbench_problems::find("mzi-ps").unwrap()
    }

    fn conversation(problem: &Problem) -> Conversation {
        let mut c = Conversation::with_system("You are a PIC designer.");
        c.push(Role::User, problem.description.clone());
        c
    }

    fn flaky(kinds: Vec<FailureKind>, period: usize) -> Arc<dyn ModelProvider> {
        let problem = mzi_ps();
        let inner = Arc::new(ReplayLlm::new("steady").with_response(problem.id.clone(), 0, "ok"));
        Arc::new(FlakyProvider::with_schedule(
            inner,
            FlakySchedule::Periodic { period, kinds },
        ))
    }

    fn collect_events() -> (RetrySink, Arc<Mutex<Vec<RetryEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink_events = Arc::clone(&events);
        let sink: RetrySink = Arc::new(move |event: &RetryEvent| {
            sink_events.lock().unwrap().push(event.clone());
        });
        (sink, events)
    }

    #[test]
    fn classification_covers_every_injected_shape() {
        assert_eq!(
            classify_transport(RATE_LIMIT_RESPONSE),
            Some(TransportErrorKind::RateLimit)
        );
        assert_eq!(
            classify_transport(TRANSIENT_IO_RESPONSE),
            Some(TransportErrorKind::TransientIo)
        );
        assert_eq!(
            classify_transport(TIMEOUT_RESPONSE),
            Some(TransportErrorKind::Timeout)
        );
        assert_eq!(
            classify_transport(FATAL_AUTH_RESPONSE),
            Some(TransportErrorKind::Fatal)
        );
        assert_eq!(
            classify_transport(&format!("{{\"partial\": {GARBLED_SUFFIX}")),
            Some(TransportErrorKind::Garbled)
        );
        assert_eq!(classify_transport("<result>{}</result>"), None);
        assert_eq!(
            classify_transport("the request timed out last time, so here is a design"),
            None,
            "free-text mentions must not classify"
        );
    }

    #[test]
    fn transient_failures_are_retried_through_to_the_real_response() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        // Period 1 with only the *first* attempt of each respond failing
        // is impossible periodic; use period 2 so attempt 1 fails, the
        // retry (attempt 2 = response 2... actually response counter is
        // per instance) — simpler: every odd response fails.
        let provider = RetryProvider::new(
            flaky(vec![FailureKind::TransientIo], 2),
            RetryPolicy::default(),
        );
        let mut llm = provider.spawn_seeded(7);
        llm.begin_sample(&problem, 0);
        // Response 1 passes through, response 2 fails then response 3
        // succeeds inside the retry loop.
        assert_eq!(llm.respond(&conv), "ok");
        assert_eq!(llm.respond(&conv), "ok", "transient failure was absorbed");
    }

    #[test]
    fn retry_events_report_attempts_and_backoff() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let (sink, events) = collect_events();
        let provider = RetryProvider::new(
            flaky(vec![FailureKind::RateLimit], 2),
            RetryPolicy::default(),
        )
        .with_sink(sink);
        let mut llm = provider.spawn_seeded(7);
        llm.begin_sample(&problem, 0);
        llm.respond(&conv);
        llm.respond(&conv);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 1);
        match &events[0] {
            RetryEvent::Retried {
                provider,
                problem: p,
                attempt,
                kind,
                backoff_ms,
                ..
            } => {
                assert_eq!(provider, "steady [flaky]");
                assert_eq!(p, &problem.id);
                assert_eq!(*attempt, 1);
                assert_eq!(*kind, TransportErrorKind::RateLimit);
                assert!(*backoff_ms >= 75 && *backoff_ms <= 125, "{backoff_ms}");
            }
            other => panic!("expected Retried, got {other:?}"),
        }
    }

    #[test]
    fn fatal_failures_degrade_immediately() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let (sink, events) = collect_events();
        let provider =
            RetryProvider::new(flaky(vec![FailureKind::Fatal], 1), RetryPolicy::default())
                .with_sink(sink);
        let mut llm = provider.spawn_seeded(7);
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), FATAL_AUTH_RESPONSE);
        let events = events.lock().unwrap();
        assert!(matches!(
            events[0],
            RetryEvent::Degraded {
                attempts: 1,
                kind: TransportErrorKind::Fatal,
                ..
            }
        ));
    }

    #[test]
    fn persistent_transient_failures_degrade_after_max_attempts() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let (sink, events) = collect_events();
        let provider = RetryProvider::new(
            flaky(vec![FailureKind::Timeout], 1),
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        )
        .with_sink(sink);
        let mut llm = provider.spawn_seeded(7);
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), TIMEOUT_RESPONSE, "degrades gracefully");
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(matches!(events[0], RetryEvent::Retried { attempt: 1, .. }));
        assert!(matches!(events[1], RetryEvent::Retried { attempt: 2, .. }));
        assert!(matches!(
            events[2],
            RetryEvent::Degraded {
                attempts: 3,
                kind: TransportErrorKind::Timeout,
                ..
            }
        ));
    }

    #[test]
    fn exhausted_budget_degrades_without_sleeping() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let (sink, events) = collect_events();
        let provider = RetryProvider::new(
            flaky(vec![FailureKind::RateLimit], 1),
            RetryPolicy {
                max_attempts: 100,
                budget_ms: 150,
                ..RetryPolicy::default()
            },
        )
        .with_sink(sink);
        let mut llm = provider.spawn_seeded(7);
        llm.begin_sample(&problem, 0);
        assert_eq!(llm.respond(&conv), RATE_LIMIT_RESPONSE);
        let events = events.lock().unwrap();
        assert!(
            events.len() < 5,
            "a 150ms budget at ~100ms/backoff allows 1-2 retries, got {events:?}"
        );
        assert!(matches!(events.last(), Some(RetryEvent::Degraded { .. })));
        // And the budget resets per sample.
        drop(events);
        llm.begin_sample(&problem, 1);
        assert_eq!(llm.respond(&conv), RATE_LIMIT_RESPONSE);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_sample() {
        let problem = mzi_ps();
        let conv = conversation(&problem);
        let run = || {
            let (sink, events) = collect_events();
            let provider = RetryProvider::new(
                flaky(vec![FailureKind::Timeout], 1),
                RetryPolicy {
                    max_attempts: 4,
                    ..RetryPolicy::default()
                },
            )
            .with_sink(sink);
            let mut llm = provider.spawn_seeded(7);
            llm.begin_sample(&problem, 0);
            llm.respond(&conv);
            let events = events.lock().unwrap().clone();
            events
        };
        let events = run();
        assert_eq!(events, run());
        // Pinned schedule (0 marks the final `Degraded`): the seeded
        // jitter stream feeds journalled `SampleRetried` events.
        let backoffs: Vec<u64> = events
            .iter()
            .map(|event| match event {
                RetryEvent::Retried { backoff_ms, .. } => *backoff_ms,
                RetryEvent::Degraded { .. } => 0,
            })
            .collect();
        assert_eq!(backoffs, [125, 213, 340, 0]);
    }

    #[test]
    fn policy_digest_distinguishes_policies() {
        let a = RetryPolicy::default();
        let b = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        assert_eq!(a.digest(), RetryPolicy::default().digest());
        assert_ne!(a.digest(), b.digest());
        // Campaign fingerprints fold the digest in: it must not drift.
        assert_eq!(a.digest(), 0xa194_8654_3884_9b12);
    }

    #[test]
    fn io_failures_are_transient_and_deadlines_are_timeouts() {
        use io::ErrorKind::*;
        let classify = |kind| TransportErrorKind::from_io(&io::Error::from(kind));
        assert_eq!(
            [TimedOut, WouldBlock].map(classify),
            [TransportErrorKind::Timeout; 2]
        );
        let others = [ConnectionRefused, UnexpectedEof, InvalidData].map(classify);
        assert_eq!(others, [TransportErrorKind::TransientIo; 3]);
    }
}
