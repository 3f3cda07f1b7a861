//! The multi-tenant session table: one entry per campaign run over the
//! wire.
//!
//! A [`Session`] bridges the in-process observer seam to any number of
//! HTTP stream readers: the campaign's [`CampaignObserver`] pushes each
//! event — already encoded to its canonical wire line — into an
//! append-only [`EventLog`]; readers replay the log from byte 0 and
//! block on a condvar for more, so a reader that connects late (or
//! reconnects) sees exactly the same byte sequence as one that was
//! there from the start. Each push appends one whole line under the
//! log's lock, so no reader — however unluckily scheduled against the
//! writer — can observe a torn NDJSON line. The log closes when the
//! session's campaign finishes, which is what ends the streams.
//!
//! Campaigns run on the table's runner threads (`SessionTable::run`),
//! and so do the golden sweeps a handler waits for
//! (`SessionTable::run_and_wait`): a runner that finishes a job parks
//! until the next one, so a job spawns a thread only when every runner
//! is busy.
//!
//! [`CampaignObserver`]: picbench_core::CampaignObserver

use picbench_core::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The campaign is still evaluating.
    Running,
    /// The campaign ran to completion.
    Finished,
    /// The campaign was cut short by cooperative cancellation.
    Cancelled,
    /// The campaign panicked (a bug, surfaced rather than hung).
    Failed,
}

impl SessionState {
    /// The wire token served in status responses.
    pub fn token(self) -> &'static str {
        match self {
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed => "failed",
        }
    }
}

#[derive(Default)]
struct LogInner {
    /// Raw NDJSON bytes: one `\n`-terminated line per event. Only ever
    /// appended to, a whole line at a time, so it always ends at a
    /// newline.
    buf: Vec<u8>,
    closed: bool,
}

/// An append-only, multi-reader byte log of encoded event lines.
///
/// Readers address the log by *byte* offset. The log grows a whole line
/// at a time ([`EventLog::push`]), so every prefix a reader sees ends at
/// a newline.
#[derive(Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    grew: Condvar,
}

impl EventLog {
    /// Appends one encoded line (no trailing newline), commits it and
    /// wakes readers.
    pub fn push(&self, line: String) {
        debug_assert!(
            !line.contains('\n'),
            "wire lines are single-line by contract"
        );
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.buf.extend_from_slice(line.as_bytes());
        inner.buf.push(b'\n');
        self.grew.notify_all();
    }

    /// Closes the log: readers drain what it holds and stop.
    pub fn close(&self) {
        self.inner.lock().expect("event log poisoned").closed = true;
        self.grew.notify_all();
    }

    /// Returns the bytes from offset `from` on, blocking until some are
    /// available or the log closes. `None` means closed-and-drained —
    /// the reader's stream is complete. The returned chunk always ends
    /// at a newline boundary.
    pub fn wait_from(&self, from: usize) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().expect("event log poisoned");
        loop {
            if inner.buf.len() > from {
                return Some(inner.buf[from..].to_vec());
            }
            if inner.closed {
                return None;
            }
            inner = self.grew.wait(inner).expect("event log poisoned");
        }
    }
}

/// One campaign run over the wire.
pub struct Session {
    /// Server-assigned session id (`c-N`).
    pub id: String,
    /// The tenant that owns it; other tenants cannot see it at all.
    pub tenant: String,
    /// The cooperative cancellation switch `DELETE` flips.
    pub cancel: CancelToken,
    /// The encoded event stream, replayable from the start.
    pub log: EventLog,
    state: Mutex<SessionState>,
    cells_total: AtomicUsize,
    cells_completed: AtomicUsize,
}

impl Session {
    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        *self.state.lock().expect("session state poisoned")
    }

    /// Records the matrix size once it is known.
    pub fn set_cells_total(&self, total: usize) {
        self.cells_total.store(total, Ordering::Relaxed);
    }

    /// Bumps the completed-cell gauge (observer-side).
    pub fn note_cell_completed(&self, completed: usize) {
        self.cells_completed.store(completed, Ordering::Relaxed);
    }

    /// `(completed, total)` cell progress.
    pub fn progress(&self) -> (usize, usize) {
        (
            self.cells_completed.load(Ordering::Relaxed),
            self.cells_total.load(Ordering::Relaxed),
        )
    }

    fn transition(&self, to: SessionState) {
        *self.state.lock().expect("session state poisoned") = to;
    }
}

/// Counter snapshot of a [`SessionTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions whose campaign is still running.
    pub active: usize,
    /// High-water mark of `active`.
    pub peak_active: usize,
    /// Event streams currently being served.
    pub active_streams: usize,
    /// High-water mark of `active_streams` — the measured
    /// concurrent-streaming-session ceiling.
    pub peak_streams: usize,
    /// Sessions ever admitted.
    pub started: u64,
    /// Sessions that ran to completion.
    pub finished: u64,
    /// Sessions cut short by cancellation.
    pub cancelled: u64,
}

/// Work for a runner thread. It returns the step announcing its end (a
/// session finishing, a result handed back), run once the runner is
/// parked, so whatever the announcement prompts next finds a runner.
type Job = Box<dyn FnOnce() -> Box<dyn FnOnce() + Send> + Send>;

/// The runner threads of a [`SessionTable`].
#[derive(Default)]
struct Runners {
    /// Parked runners that no queued job is promised to: the runners
    /// parked or about to park, less `queue.len()`.
    idle: usize,
    /// Jobs handed to parked runners and not yet picked up.
    queue: VecDeque<Job>,
    /// Set by [`SessionTable::drain`]: parked runners exit.
    closed: bool,
    threads: Vec<JoinHandle<()>>,
}

/// The process-wide registry of sessions, plus its gauges and the
/// runner threads their campaigns run on.
#[derive(Default)]
pub struct SessionTable {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    runners: Mutex<Runners>,
    /// Signalled when a job is queued or the runners are released.
    job_queued: Condvar,
    /// Signalled when the last active session finishes.
    all_finished: Condvar,
    next_id: AtomicU64,
    active: AtomicUsize,
    peak_active: AtomicUsize,
    active_streams: AtomicUsize,
    peak_streams: AtomicUsize,
    started: AtomicU64,
    finished: AtomicU64,
    cancelled: AtomicU64,
}

fn bump_peak(gauge: &AtomicUsize, peak: &AtomicUsize) {
    let now = gauge.fetch_add(1, Ordering::AcqRel) + 1;
    peak.fetch_max(now, Ordering::AcqRel);
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Admits a new session for `tenant`, unless `max_active` running
    /// sessions already exist (`None` = at capacity; the server answers
    /// 429).
    pub fn admit(&self, tenant: &str, max_active: usize) -> Option<Arc<Session>> {
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        if self.active.load(Ordering::Acquire) >= max_active {
            return None;
        }
        let id = format!("c-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let session = Arc::new(Session {
            id: id.clone(),
            tenant: tenant.to_string(),
            cancel: CancelToken::new(),
            log: EventLog::default(),
            state: Mutex::new(SessionState::Running),
            cells_total: AtomicUsize::new(0),
            cells_completed: AtomicUsize::new(0),
        });
        sessions.insert(id, Arc::clone(&session));
        bump_peak(&self.active, &self.peak_active);
        self.started.fetch_add(1, Ordering::Relaxed);
        Some(session)
    }

    /// Runs `campaign` for `session` on a parked runner thread, or on
    /// a new one when none is parked, so it never waits behind another
    /// campaign. The runner count thus never exceeds the peak number of
    /// sessions active at once. The session ends in the state the
    /// campaign returns, or [`SessionState::Failed`] if it panics; the
    /// runner lives on either way.
    pub(crate) fn run(
        self: &Arc<Self>,
        session: Arc<Session>,
        campaign: impl FnOnce() -> SessionState + Send + 'static,
    ) {
        let table = Arc::clone(self);
        self.submit(Box::new(move || {
            let state = std::panic::catch_unwind(AssertUnwindSafe(campaign))
                .unwrap_or(SessionState::Failed);
            Box::new(move || table.finish(&session, state))
        }));
    }

    /// Runs `task` on a runner thread, as campaigns run, and returns its
    /// result (`None` if it panicked).
    pub(crate) fn run_and_wait<T: Send + 'static>(
        self: &Arc<Self>,
        task: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let (send, result) = mpsc::channel();
        self.submit(Box::new(move || {
            let value = std::panic::catch_unwind(AssertUnwindSafe(task)).ok();
            Box::new(move || drop(send.send(value)))
        }));
        result.recv().ok().flatten()
    }

    fn submit(self: &Arc<Self>, job: Job) {
        let mut runners = self.runners.lock().expect("session runners poisoned");
        if runners.idle > 0 && !runners.closed {
            runners.idle -= 1;
            runners.queue.push_back(job);
            self.job_queued.notify_one();
        } else {
            let table = Arc::clone(self);
            runners
                .threads
                .push(std::thread::spawn(move || table.runner(job)));
        }
    }

    /// A runner thread's life: run a job, park, repeat until drained.
    fn runner(&self, mut job: Job) {
        loop {
            let announce = job();
            // Park before announcing: a client that sees its stream close
            // (or gets its answer) and submits again then finds this
            // runner.
            self.runners.lock().expect("session runners poisoned").idle += 1;
            announce();
            let mut runners = self.runners.lock().expect("session runners poisoned");
            job = loop {
                if let Some(next) = runners.queue.pop_front() {
                    break next;
                }
                if runners.closed {
                    return;
                }
                runners = self
                    .job_queued
                    .wait(runners)
                    .expect("session runners poisoned");
            };
        }
    }

    /// Looks a session up *within* a tenant: sessions of other tenants
    /// are indistinguishable from absent ones by construction.
    pub fn get(&self, tenant: &str, id: &str) -> Option<Arc<Session>> {
        let sessions = self.sessions.lock().expect("session table poisoned");
        sessions.get(id).filter(|s| s.tenant == tenant).cloned()
    }

    /// Marks a session's campaign finished and closes its log (called
    /// by its runner, or at once for a campaign that never started).
    pub fn finish(&self, session: &Session, state: SessionState) {
        session.transition(state);
        let was_active = self.active.fetch_sub(1, Ordering::AcqRel);
        match state {
            SessionState::Cancelled => self.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => self.finished.fetch_add(1, Ordering::Relaxed),
        };
        session.log.close();
        if was_active == 1 {
            // Under the lock `drain` checks `active` with, so its wait
            // cannot miss this wake-up.
            let _runners = self.runners.lock().expect("session runners poisoned");
            self.all_finished.notify_all();
        }
    }

    /// Accounts an event stream for the session's lifetime; hold the
    /// guard while serving.
    pub fn stream_guard(&self) -> StreamGuard<'_> {
        bump_peak(&self.active_streams, &self.peak_streams);
        StreamGuard { table: self }
    }

    /// Counter snapshot (atomic loads, no lock-the-world).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            active: self.active.load(Ordering::Relaxed),
            peak_active: self.peak_active.load(Ordering::Relaxed),
            active_streams: self.active_streams.load(Ordering::Relaxed),
            peak_streams: self.peak_streams.load(Ordering::Relaxed),
            started: self.started.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Graceful-shutdown drain: waits until no session is active (their
    /// campaigns run to completion and their logs close, which ends
    /// their streams), then releases the parked runners and joins them.
    pub fn drain(&self) {
        let threads = {
            let mut runners = self.runners.lock().expect("session runners poisoned");
            while self.active.load(Ordering::Acquire) > 0 {
                runners = self
                    .all_finished
                    .wait(runners)
                    .expect("session runners poisoned");
            }
            runners.closed = true;
            std::mem::take(&mut runners.threads)
        };
        self.job_queued.notify_all();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// RAII guard accounting one live event stream.
pub struct StreamGuard<'a> {
    table: &'a SessionTable,
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.table.active_streams.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn log_replays_identically_for_late_readers() {
        let log = EventLog::default();
        log.push("a".into());
        log.push("b".into());
        let early = log.wait_from(0).unwrap();
        log.push("c".into());
        log.close();
        let late = log.wait_from(0).unwrap();
        assert_eq!(early, b"a\nb\n");
        assert_eq!(late, b"a\nb\nc\n");
        assert_eq!(log.wait_from(late.len()), None, "closed and drained");
    }

    #[test]
    fn wait_from_blocks_until_growth() {
        let log = Arc::new(EventLog::default());
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                log.push("x".into());
                log.close();
            })
        };
        assert_eq!(log.wait_from(0).unwrap(), b"x\n");
        assert!(log.wait_from(2).is_none());
        writer.join().unwrap();
    }

    #[test]
    fn racing_reader_never_observes_a_torn_line() {
        // A writer pushes many lines while a reader tails the log
        // concurrently. Every chunk the reader is handed must end on a
        // newline boundary, and the total replay must be exactly the
        // byte sequence a from-the-start reader would see.
        let log = Arc::new(EventLog::default());
        let lines: Vec<String> = (0..500)
            .map(|i| format!("{{\"event\":\"tick\",\"seq\":{i}}}"))
            .collect();
        let expected: Vec<u8> = lines
            .iter()
            .flat_map(|l| format!("{l}\n").into_bytes())
            .collect();

        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(chunk) = log.wait_from(seen.len()) {
                    assert_eq!(
                        chunk.last(),
                        Some(&b'\n'),
                        "reader handed a chunk not ending at a newline"
                    );
                    seen.extend_from_slice(&chunk);
                }
                seen
            })
        };
        for line in lines {
            log.push(line);
        }
        log.close();

        let seen = reader.join().expect("reader panicked");
        assert_eq!(seen, expected, "late replay must be byte-identical");
    }

    #[test]
    fn tenancy_is_structural() {
        let table = SessionTable::new();
        let session = table.admit("alice", 8).unwrap();
        assert!(table.get("alice", &session.id).is_some());
        assert!(table.get("bob", &session.id).is_none());
        assert!(table.get("alice", "c-999").is_none());
    }

    #[test]
    fn capacity_is_enforced_and_released() {
        let table = SessionTable::new();
        let a = table.admit("t", 2).unwrap();
        let _b = table.admit("t", 2).unwrap();
        assert!(table.admit("t", 2).is_none(), "at capacity");
        table.finish(&a, SessionState::Finished);
        assert!(table.admit("t", 2).is_some(), "capacity released");
        let stats = table.stats();
        assert_eq!(stats.peak_active, 2);
        assert_eq!(stats.started, 3);
    }

    /// Runs one job on `table` that records its thread and blocks until
    /// `gate` yields; returns the session and where the thread id lands.
    fn gated_job(
        table: &Arc<SessionTable>,
        gate: mpsc::Receiver<()>,
    ) -> (Arc<Session>, mpsc::Receiver<std::thread::ThreadId>) {
        let session = table.admit("t", 8).unwrap();
        let (ran_on, thread) = mpsc::channel();
        table.run(Arc::clone(&session), move || {
            ran_on.send(std::thread::current().id()).unwrap();
            let _ = gate.recv();
            SessionState::Finished
        });
        (session, thread)
    }

    /// Blocks until the session ends: its log, which these jobs never
    /// write, closes.
    fn wait_ended(session: &Session) {
        assert!(session.log.wait_from(0).is_none());
    }

    #[test]
    fn sequential_sessions_reuse_one_runner() {
        let table = Arc::new(SessionTable::new());
        let mut threads = Vec::new();
        for _ in 0..3 {
            let (release, gate) = mpsc::channel();
            let (session, thread) = gated_job(&table, gate);
            threads.push(thread.recv().unwrap());
            release.send(()).unwrap();
            wait_ended(&session);
            assert_eq!(session.state(), SessionState::Finished);
        }
        assert!(threads.iter().all(|t| *t == threads[0]), "{threads:?}");
        assert_eq!(table.runners.lock().unwrap().threads.len(), 1);
        table.drain();
        assert!(table.runners.lock().unwrap().threads.is_empty());
    }

    #[test]
    fn concurrent_sessions_get_their_own_runners() {
        let table = Arc::new(SessionTable::new());
        let (release_a, gate_a) = mpsc::channel();
        let (release_b, gate_b) = mpsc::channel();
        let (a, thread_a) = gated_job(&table, gate_a);
        let (b, thread_b) = gated_job(&table, gate_b);
        // Both jobs report in while the other still blocks: neither
        // waited behind the other.
        let (thread_a, thread_b) = (thread_a.recv().unwrap(), thread_b.recv().unwrap());
        assert_ne!(thread_a, thread_b);
        release_a.send(()).unwrap();
        release_b.send(()).unwrap();
        wait_ended(&a);
        wait_ended(&b);
        // Two parked runners now; a third sequential session reuses one.
        let (release_c, gate_c) = mpsc::channel();
        let (c, thread_c) = gated_job(&table, gate_c);
        let thread_c = thread_c.recv().unwrap();
        assert!(thread_c == thread_a || thread_c == thread_b);
        release_c.send(()).unwrap();
        wait_ended(&c);
        assert_eq!(table.runners.lock().unwrap().threads.len(), 2);
        assert_eq!(table.stats().peak_active, 2);
        table.drain();
    }

    #[test]
    fn a_panicking_campaign_fails_its_session_and_its_runner_lives_on() {
        let table = Arc::new(SessionTable::new());
        let failing = table.admit("t", 8).unwrap();
        let (ran_on, thread) = mpsc::channel();
        table.run(Arc::clone(&failing), move || {
            ran_on.send(std::thread::current().id()).unwrap();
            panic!("campaign bug");
        });
        let panicked_on = thread.recv().unwrap();
        wait_ended(&failing);
        assert_eq!(failing.state(), SessionState::Failed);

        let (release, gate) = mpsc::channel();
        let (next, thread) = gated_job(&table, gate);
        assert_eq!(thread.recv().unwrap(), panicked_on, "same runner");
        release.send(()).unwrap();
        wait_ended(&next);
        assert_eq!(next.state(), SessionState::Finished);
        assert_eq!(table.stats().active, 0);
        table.drain();
    }

    #[test]
    fn a_waited_task_runs_on_a_runner_that_sessions_reuse() {
        let table = Arc::new(SessionTable::new());
        let task_thread = table.run_and_wait(|| std::thread::current().id());
        // The task's runner parked before its answer came back, so the
        // next session finds it.
        let (release, gate) = mpsc::channel();
        let (session, thread) = gated_job(&table, gate);
        assert_eq!(Some(thread.recv().unwrap()), task_thread);
        release.send(()).unwrap();
        wait_ended(&session);
        // A panicking task answers `None`, and its runner lives on.
        assert_eq!(table.run_and_wait(|| -> u8 { panic!("task bug") }), None);
        assert_eq!(table.run_and_wait(|| 7), Some(7));
        assert_eq!(table.runners.lock().unwrap().threads.len(), 1);
        table.drain();
    }

    #[test]
    fn stream_gauge_tracks_peak() {
        let table = SessionTable::new();
        {
            let _a = table.stream_guard();
            let _b = table.stream_guard();
            assert_eq!(table.stats().active_streams, 2);
        }
        let stats = table.stats();
        assert_eq!(stats.active_streams, 0);
        assert_eq!(stats.peak_streams, 2);
    }
}
