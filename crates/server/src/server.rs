//! The benchmark-as-a-service HTTP server.
//!
//! A [`PicbenchServer`] owns one process-wide [`EvalCache`] (optionally
//! backed by an [`EvalStore`] disk tier) and a multi-tenant
//! [`SessionTable`]. Campaigns submitted over HTTP run on supervised
//! worker threads against the *shared* cache, each under its tenant's
//! [`CacheScope`], so identical submissions from different tenants hit
//! each other's cached evaluations while their reported counters stay
//! fully partitioned.
//!
//! ## Routes
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /v1/problem-sets` | Validate, sweep and hold a custom problem set (JSON) |
//! | `POST /v1/campaigns` | Validate and bound knobs, start a campaign session |
//! | `GET /v1/campaigns/{id}` | Session status and cell progress |
//! | `GET /v1/campaigns/{id}/events` | Long-lived NDJSON event stream |
//! | `DELETE /v1/campaigns/{id}` | Cooperative cancellation |
//! | `GET /v1/stats` | Cache / session / store counters |
//! | `POST /v1/coord/{op}` | Campaign coordination RPC (lease / append / cells / state) |
//!
//! The coordination routes are enabled by [`ServerConfig::coord_root`]
//! and delegate to a [`Coordinator`] owning the shard-journal tree on
//! the coordinator host; remote shard workers speak to them through
//! `picbench_coord::HttpTransport`. They are idempotent by design
//! (generation-fenced leases, `(fingerprint, seq)`-deduped appends), so
//! worker-side retries over a flaky network are safe.
//!
//! Tenancy rides on the `x-picbench-tenant` header; a session is only
//! visible to the tenant that created it (foreign lookups are
//! structurally 404). Every worker blocks in `accept()` on the shared
//! listener and serves the connection it gets, so connections waiting
//! for a worker sit in the kernel's listen backlog. Campaigns run on the
//! session table's runner threads, which park between campaigns.
//! Shutdown is graceful: [`ServerHandle::shutdown`] sets the flag and
//! wakes each worker with a loopback connection, so it stops; new work
//! is refused with 503, in-flight campaigns run to completion and their
//! streams drain before it returns.
//!
//! [`EvalStore`]: picbench_core::EvalStore

use crate::http::{self, Request, RequestError};
use crate::pace::PacedProvider;
use crate::session::{Session, SessionState, SessionTable};
use crate::wire;
use picbench_coord::Coordinator;
use picbench_core::{
    CacheScope, Campaign, CampaignConfig, CampaignEvent, EvalCache, EvalStore, Evaluator,
    SharedEvalStore,
};
use picbench_netlist::json::{self, Value};
use picbench_problems::Problem;
use picbench_sim::SimulateError;
use picbench_synthllm::{ModelProfile, ModelProvider};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`PicbenchServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 (the default) picks an ephemeral port —
    /// read the real one from [`ServerHandle::addr`].
    pub addr: SocketAddr,
    /// Worker threads accepting and serving connections. Each
    /// long-lived event stream occupies a worker for the life of its
    /// campaign, so this bounds concurrent streams; connections that
    /// find every worker busy wait in the listen backlog.
    pub workers: usize,
    /// Running campaigns admitted before `POST /v1/campaigns` answers
    /// 429.
    pub max_sessions: usize,
    /// When set, the shared cache gains a persistent [`EvalStore`]
    /// tier rooted here and `GET /v1/stats` reports its counters.
    ///
    /// [`EvalStore`]: picbench_core::EvalStore
    pub store_dir: Option<PathBuf>,
    /// Evaluation threads per campaign unless the request says
    /// otherwise. Defaults to 1: with a single evaluation thread the
    /// event *order* is deterministic, which is what makes streams
    /// byte-for-byte reproducible.
    pub default_threads: usize,
    /// When set, the server exposes `POST /v1/coord/{op}` backed by a
    /// [`Coordinator`] rooted at this shard-journal directory, turning
    /// the process into a campaign coordinator for remote shard
    /// workers. The supervising campaign on this host must merge from
    /// the same directory.
    pub coord_root: Option<PathBuf>,
    /// Socket read deadline per connection, in milliseconds. A client
    /// that stalls mid-request past this deadline gets a 408 and its
    /// worker thread is freed. `0` disables the deadline.
    pub read_timeout_ms: u64,
    /// Socket write deadline per connection, in milliseconds. Bounds
    /// how long a response (or one event-stream chunk) may sit blocked
    /// on a client that stopped reading. `0` disables the deadline.
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback addr parses"),
            workers: 64,
            max_sessions: 256,
            store_dir: None,
            default_threads: 1,
            coord_root: None,
            read_timeout_ms: 10_000,
            write_timeout_ms: 30_000,
        }
    }
}

/// Everything the worker threads share.
struct ServerState {
    config: ServerConfig,
    cache: Arc<EvalCache>,
    store: Option<SharedEvalStore>,
    sessions: Arc<SessionTable>,
    scopes: Mutex<HashMap<String, Arc<CacheScope>>>,
    problem_sets: Mutex<HashMap<String, Vec<Problem>>>,
    next_set: AtomicU64,
    shutdown: AtomicBool,
    coord: Option<Arc<Coordinator>>,
}

impl ServerState {
    /// The per-tenant cache scope, created on the tenant's first
    /// campaign.
    fn scope_for(&self, tenant: &str) -> Arc<CacheScope> {
        let mut scopes = self.scopes.lock().expect("scope table poisoned");
        Arc::clone(
            scopes
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(CacheScope::new())),
        )
    }
}

/// The benchmark service. Construct with [`PicbenchServer::start`].
pub struct PicbenchServer;

/// A running server: its bound address plus the shutdown lever.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl PicbenchServer {
    /// Binds, spawns the worker pool, and returns the handle. The
    /// server is ready to serve when this returns.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the store directory
    /// cannot be opened.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(EvalStore::open(dir)?)),
            None => None,
        };
        let mut cache = EvalCache::new();
        if let Some(store) = &store {
            cache = cache.with_disk(Arc::clone(store));
        }
        let coord = config
            .coord_root
            .as_ref()
            .map(|root| Arc::new(Coordinator::new(root)));
        let state = Arc::new(ServerState {
            cache: Arc::new(cache),
            store,
            sessions: Arc::new(SessionTable::new()),
            scopes: Mutex::new(HashMap::new()),
            problem_sets: Mutex::new(HashMap::new()),
            next_set: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            coord,
            config,
        });

        let listener = Arc::new(listener);
        let workers = (0..state.config.workers.max(1))
            .map(|_| {
                let listener = Arc::clone(&listener);
                let state = Arc::clone(&state);
                std::thread::spawn(move || accept_loop(&listener, &state))
            })
            .collect();

        Ok(ServerHandle {
            addr,
            state,
            workers,
        })
    }
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight campaigns run
    /// to completion, drain their streams, join every thread.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        wake_workers(self.addr, &self.workers);
        // Streaming workers return once their campaigns close the logs.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // No worker is left to admit a session, so the drain is final.
        self.state.sessions.drain();
    }
}

/// A worker's life: block in `accept()`, serve the connection, repeat
/// until shutdown. Linux wakes one blocked worker per connection, and
/// `wake_workers` connects once per worker, so the flag is checked
/// after each return as well as before each call.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    while !state.shutdown.load(Ordering::Acquire) {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((mut stream, _)) => serve_connection(state, &mut stream),
            // Real accept errors (e.g. out of descriptors) back off
            // briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Unblocks the workers parked in `accept()` by connecting to the
/// listener once per worker: each worker takes at most one connection
/// before it sees the flag, so every blocked one gets its own. A server
/// bound to an unspecified IP (`0.0.0.0`, `::`) is reached on the
/// loopback address of the same family. A failed connect (say, this
/// process is out of descriptors) is retried until every worker has
/// exited; a worker failing the same way sees the flag after its own
/// accept error.
fn wake_workers(addr: SocketAddr, workers: &[JoinHandle<()>]) {
    let mut target = addr;
    if addr.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let mut wakes = workers.len();
    while wakes > 0 && !workers.iter().all(JoinHandle::is_finished) {
        if TcpStream::connect(target).is_ok() {
            wakes -= 1;
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn serve_connection(state: &Arc<ServerState>, stream: &mut TcpStream) {
    // Deadlines keep a stalled or dead peer from pinning a worker
    // thread: reads give up with a 408, writes (including event-stream
    // chunks to a client that stopped reading) abort the connection.
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let _ = stream.set_read_timeout(timeout(state.config.read_timeout_ms));
    let _ = stream.set_write_timeout(timeout(state.config.write_timeout_ms));
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(RequestError::ConnectionClosed) => return,
        Err(RequestError::BodyTooLarge) => {
            let _ = http::write_error(stream, 413, "request body too large");
            return;
        }
        Err(RequestError::Malformed(why)) => {
            let _ = http::write_error(stream, 400, why);
            return;
        }
        Err(RequestError::TimedOut) => {
            let _ = http::write_error(stream, 408, "request timed out");
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    // Responses to a departed client are not errors worth surfacing.
    let _ = route(state, &request, stream);
}

fn tenant_of(request: &Request) -> String {
    request
        .header("x-picbench-tenant")
        .filter(|t| !t.is_empty())
        .unwrap_or("default")
        .to_string()
}

fn route(state: &Arc<ServerState>, request: &Request, stream: &mut TcpStream) -> io::Result<()> {
    let path = request.path.as_str();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "problem-sets"]) => post_problem_set(state, request, stream),
        ("POST", ["v1", "campaigns"]) => post_campaign(state, request, stream),
        ("GET", ["v1", "campaigns", id]) => get_campaign(state, request, id, stream),
        ("GET", ["v1", "campaigns", id, "events"]) => get_events(state, request, id, stream),
        ("DELETE", ["v1", "campaigns", id]) => delete_campaign(state, request, id, stream),
        ("GET", ["v1", "stats"]) => get_stats(state, stream),
        ("POST", ["v1", "coord", op]) => post_coord(state, request, op, stream),
        ("POST" | "GET" | "DELETE", _) => http::write_error(stream, 404, "no such route"),
        _ => http::write_error(stream, 405, "method not allowed"),
    }
}

/// Campaign coordination RPC: delegates to the [`Coordinator`], which
/// owns all protocol decisions (lease fencing, append dedup) and maps
/// them onto HTTP statuses. Deliberately *not* gated on the shutdown
/// flag: workers retry idempotently, and a coordinator restarting
/// mid-campaign should answer in-flight appends for as long as the
/// socket is alive.
fn post_coord(
    state: &Arc<ServerState>,
    request: &Request,
    op: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let Some(coordinator) = &state.coord else {
        return http::write_error(stream, 404, "coordination is not enabled on this server");
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return http::write_error(stream, 400, "body is not UTF-8"),
    };
    let reply = coordinator.handle(op, body);
    http::write_json(stream, reply.status, &reply.body)
}

fn post_problem_set(
    state: &Arc<ServerState>,
    request: &Request,
    stream: &mut TcpStream,
) -> io::Result<()> {
    if state.shutdown.load(Ordering::Acquire) {
        return http::write_error(stream, 503, "server is shutting down");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return http::write_error(stream, 400, "body is not UTF-8"),
    };
    let problems = match picbench_problems::problems_from_json(body) {
        Ok(problems) => problems,
        Err(e) => return http::write_error(stream, 400, &format!("invalid problem set: {e}")),
    };
    if problems.is_empty() {
        return http::write_error(stream, 400, "problem set is empty");
    }
    // Sweep each golden as served campaigns do, on a runner thread, into
    // the shared cache their priming reads (on the HTTP workers, every
    // worker's malloc arena would keep a sweep-sized heap). A golden that
    // fails validation or its sweep cannot score anything.
    let cache = Arc::clone(&state.cache);
    let checked = state.sessions.run_and_wait(move || {
        let grid = CampaignConfig::default().grid;
        let mut evaluator = Evaluator::new(grid, Default::default()).with_cache(cache);
        let rejected = problems
            .iter()
            .find_map(|p| Some((p.id.clone(), evaluator.golden(p).err()?)));
        (problems, rejected)
    });
    let Some((problems, rejected)) = checked else {
        return http::write_error(stream, 500, "golden check failed");
    };
    if let Some((id, e)) = rejected {
        let why = match e {
            SimulateError::Elaborate(e) if !e.issues.is_empty() => e.issues[0].to_string(),
            e => e.to_string(),
        };
        let message = format!("problem {id:?}: invalid golden design: {why}");
        return http::write_error(stream, 400, &message);
    }
    let id = format!("ps-{}", state.next_set.fetch_add(1, Ordering::Relaxed) + 1);
    let ids: Vec<Value> = problems
        .iter()
        .map(|p| Value::String(p.id.to_string()))
        .collect();
    state
        .problem_sets
        .lock()
        .expect("problem-set table poisoned")
        .insert(id.clone(), problems);
    let body = json::to_string(&Value::Object(vec![
        ("id".into(), Value::String(id)),
        ("problems".into(), Value::Array(ids)),
    ]));
    http::write_json(stream, 201, &body)
}

/// The validated content of a `POST /v1/campaigns` body.
struct CampaignRequest {
    problems: Vec<Problem>,
    providers: Vec<Arc<dyn ModelProvider>>,
    samples_per_problem: usize,
    k_values: Vec<usize>,
    feedback_iters: Vec<usize>,
    seed: u64,
    threads: usize,
    restrictions: bool,
}

/// Most samples per problem a campaign body may ask for; also the
/// largest `k` (a `k` above the sample count is invalid anyway).
const MAX_SAMPLES: u64 = 100;
/// Largest feedback-iteration setting.
const MAX_FEEDBACK_ITERS: u64 = 10;
/// Most entries in `k_values` or `feedback_iters`.
const MAX_LIST_LEN: usize = 16;
/// Most evaluation threads one campaign may ask for.
const MAX_THREADS: u64 = 64;
/// Longest per-response provider delay, in milliseconds.
const MAX_PACE_MS: u64 = 60_000;
/// Largest seed: below 9e15, every integer is exact as a JSON number.
const MAX_SEED: u64 = 8_999_999_999_999_999;

/// Reads the integer `v` of field `key`, which must lie in `[0, max]`.
fn bounded_int(v: &Value, key: &str, max: u64) -> Result<u64, String> {
    v.as_u64()
        .filter(|&n| n <= max)
        .ok_or_else(|| format!("field '{key}' takes integers in [0, {max}]"))
}

/// Reads optional integer field `key` in `[0, max]`, or `default`.
fn get_bounded(body: &Value, key: &str, default: u64, max: u64) -> Result<u64, String> {
    body.get(key)
        .map_or(Ok(default), |v| bounded_int(v, key, max))
}

/// Reads optional field `key`: at most [`MAX_LIST_LEN`] integers, each
/// in `[0, max]`, or `default`.
fn get_bounded_list(
    body: &Value,
    key: &str,
    default: usize,
    max: u64,
) -> Result<Vec<usize>, String> {
    match body.get(key) {
        None => Ok(vec![default]),
        Some(Value::Array(items)) if items.len() <= MAX_LIST_LEN => items
            .iter()
            .map(|v| bounded_int(v, key, max).map(|n| n as usize))
            .collect(),
        Some(_) => Err(format!(
            "field '{key}' must be an array of at most {MAX_LIST_LEN} integers"
        )),
    }
}

fn parse_campaign_request(state: &ServerState, body: &Value) -> Result<CampaignRequest, String> {
    let models = body
        .get("models")
        .and_then(Value::as_array)
        .ok_or("field 'models' (array of model names) is required")?;
    if models.is_empty() {
        return Err("field 'models' is empty".to_string());
    }
    let mut providers: Vec<Arc<dyn ModelProvider>> = Vec::new();
    let pace_ms = get_bounded(body, "pace_ms", 0, MAX_PACE_MS)?;
    for model in models {
        let name = model.as_str().ok_or("model names must be strings")?;
        let profile =
            ModelProfile::by_name(name).ok_or_else(|| format!("unknown model '{name}'"))?;
        let provider: Arc<dyn ModelProvider> = if pace_ms > 0 {
            Arc::new(PacedProvider::new(
                Arc::new(profile),
                Duration::from_millis(pace_ms),
            ))
        } else {
            Arc::new(profile)
        };
        providers.push(provider);
    }

    let mut problems: Vec<Problem> = Vec::new();
    if let Some(set_id) = body.get("problem_set") {
        let set_id = set_id
            .as_str()
            .ok_or("field 'problem_set' must be a string")?;
        let sets = state
            .problem_sets
            .lock()
            .expect("problem-set table poisoned");
        let set = sets
            .get(set_id)
            .ok_or_else(|| format!("unknown problem set '{set_id}'"))?;
        problems.extend(set.iter().cloned());
    }
    if let Some(ids) = body.get("problems") {
        let ids = ids.as_array().ok_or("field 'problems' must be an array")?;
        for id in ids {
            let id = id.as_str().ok_or("problem ids must be strings")?;
            let problem = picbench_problems::find(id)
                .ok_or_else(|| format!("unknown builtin problem '{id}'"))?;
            problems.push(problem);
        }
    }
    if problems.is_empty() {
        return Err("no problems: give 'problems' (builtin ids), 'problem_set', or both".into());
    }

    let samples_per_problem = get_bounded(body, "samples_per_problem", 2, MAX_SAMPLES)? as usize;
    let k_values = get_bounded_list(body, "k_values", 1, MAX_SAMPLES)?;
    let feedback_iters = get_bounded_list(body, "feedback_iters", 0, MAX_FEEDBACK_ITERS)?;
    let seed = get_bounded(body, "seed", picbench_synthllm::PAPER_SEED, MAX_SEED)?;
    let default_threads = state.config.default_threads as u64;
    let threads = get_bounded(body, "threads", default_threads, MAX_THREADS)? as usize;
    let restrictions = match body.get("restrictions") {
        None => true,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("field 'restrictions' must be a boolean".to_string()),
    };
    Ok(CampaignRequest {
        problems,
        providers,
        samples_per_problem,
        k_values,
        feedback_iters,
        seed,
        threads,
        restrictions,
    })
}

fn post_campaign(
    state: &Arc<ServerState>,
    request: &Request,
    stream: &mut TcpStream,
) -> io::Result<()> {
    if state.shutdown.load(Ordering::Acquire) {
        return http::write_error(stream, 503, "server is shutting down");
    }
    let tenant = tenant_of(request);
    let body = match std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(body) => body,
        Err(e) => return http::write_error(stream, 400, &format!("invalid JSON body: {e}")),
    };
    let spec = match parse_campaign_request(state, &body) {
        Ok(parsed) => parsed,
        Err(e) => return http::write_error(stream, 400, &e),
    };

    let Some(session) = state.sessions.admit(&tenant, state.config.max_sessions) else {
        return http::write_error(stream, 429, "session capacity reached");
    };

    let campaign = {
        let observer_session = Arc::clone(&session);
        let built = Campaign::builder()
            .problems(spec.problems)
            .providers(spec.providers)
            .samples_per_problem(spec.samples_per_problem)
            .k_values(spec.k_values)
            .feedback_iters(spec.feedback_iters)
            .seed(spec.seed)
            .threads(spec.threads)
            .restrictions(spec.restrictions)
            .shared_cache(Arc::clone(&state.cache))
            .cache_scope(state.scope_for(&tenant))
            .cancel_token(session.cancel.clone())
            .observer(Arc::new(move |event: &CampaignEvent| {
                match event {
                    CampaignEvent::CampaignStarted { cells, .. } => {
                        observer_session.set_cells_total(*cells);
                    }
                    CampaignEvent::CellFinished { completed, .. }
                    | CampaignEvent::CellRestored { completed, .. } => {
                        observer_session.note_cell_completed(*completed);
                    }
                    _ => {}
                }
                observer_session.log.push(wire::encode_event(event));
            }))
            .build();
        match built {
            Ok(campaign) => campaign,
            Err(e) => {
                state.sessions.finish(&session, SessionState::Failed);
                return http::write_error(stream, 400, &format!("invalid campaign: {e:?}"));
            }
        }
    };

    state.sessions.run(Arc::clone(&session), move || {
        let outcome = campaign.execute();
        if outcome.golden_failure.is_some() {
            SessionState::Failed
        } else if outcome.cancelled {
            SessionState::Cancelled
        } else {
            SessionState::Finished
        }
    });

    let body = json::to_string(&Value::Object(vec![
        ("id".into(), Value::String(session.id.clone())),
        ("state".into(), Value::String("running".into())),
    ]));
    http::write_json(stream, 201, &body)
}

fn session_status(session: &Session) -> Value {
    let (completed, total) = session.progress();
    Value::Object(vec![
        ("id".into(), Value::String(session.id.clone())),
        (
            "state".into(),
            Value::String(session.state().token().into()),
        ),
        ("cells_completed".into(), wire::num(completed as u64)),
        ("cells_total".into(), wire::num(total as u64)),
    ])
}

fn get_campaign(
    state: &Arc<ServerState>,
    request: &Request,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let tenant = tenant_of(request);
    match state.sessions.get(&tenant, id) {
        Some(session) => http::write_json(stream, 200, &json::to_string(&session_status(&session))),
        None => http::write_error(stream, 404, "no such campaign"),
    }
}

fn get_events(
    state: &Arc<ServerState>,
    request: &Request,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let tenant = tenant_of(request);
    let Some(session) = state.sessions.get(&tenant, id) else {
        return http::write_error(stream, 404, "no such campaign");
    };
    let _guard = state.sessions.stream_guard();
    http::write_stream_head(stream)?;
    let mut cursor = 0usize;
    // Chunks arrive newline-terminated (the log grows a whole line at a
    // time), so they stream straight through. A
    // departed client ends the stream, nothing more.
    while let Some(chunk) = session.log.wait_from(cursor) {
        cursor += chunk.len();
        use std::io::Write;
        stream.write_all(&chunk)?;
        stream.flush()?;
    }
    Ok(())
}

fn delete_campaign(
    state: &Arc<ServerState>,
    request: &Request,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let tenant = tenant_of(request);
    let Some(session) = state.sessions.get(&tenant, id) else {
        return http::write_error(stream, 404, "no such campaign");
    };
    session.cancel.cancel();
    let body = json::to_string(&Value::Object(vec![
        ("id".into(), Value::String(session.id.clone())),
        ("state".into(), Value::String("cancelling".into())),
    ]));
    http::write_json(stream, 202, &body)
}

fn get_stats(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    let sessions = state.sessions.stats();
    let session_obj = Value::Object(vec![
        ("active".into(), wire::num(sessions.active as u64)),
        ("peak_active".into(), wire::num(sessions.peak_active as u64)),
        (
            "active_streams".into(),
            wire::num(sessions.active_streams as u64),
        ),
        (
            "peak_streams".into(),
            wire::num(sessions.peak_streams as u64),
        ),
        ("started".into(), wire::num(sessions.started)),
        ("finished".into(), wire::num(sessions.finished)),
        ("cancelled".into(), wire::num(sessions.cancelled)),
    ]);
    let tenants = {
        let scopes = state.scopes.lock().expect("scope table poisoned");
        let mut entries: Vec<(String, Value)> = scopes
            .iter()
            .map(|(tenant, scope)| (tenant.clone(), wire::stats_value(&scope.stats())))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    };
    let store = match &state.store {
        None => Value::Null,
        Some(store) => {
            let stats = store.stats();
            Value::Object(vec![
                ("reads".into(), wire::num(stats.reads)),
                ("read_hits".into(), wire::num(stats.read_hits)),
                ("writes".into(), wire::num(stats.writes)),
                ("syncs".into(), wire::num(stats.syncs)),
                ("write_errors".into(), wire::num(stats.write_errors)),
                ("degraded".into(), Value::Bool(stats.degraded)),
            ])
        }
    };
    let body = json::to_string(&Value::Object(vec![
        ("sessions".into(), session_obj),
        ("cache".into(), wire::stats_value(&state.cache.stats())),
        ("tenants".into(), tenants),
        ("store".into(), store),
    ]));
    http::write_json(stream, 200, &body)
}
