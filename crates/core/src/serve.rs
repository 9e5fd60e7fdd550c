//! Serve mode: a long-lived daemon answering `analyze`/`eval`/`inject`
//! queries from warmed per-spec caches, over a bounded connection pool.
//!
//! The one-shot CLI re-parses and re-analyzes a spec on every
//! invocation. [`Server`] instead holds each loaded spec in a
//! [`Session`]: the parsed [`AtProtocol`], the pre-rendered analysis
//! report, the fault-free execution as a [`System`], the Section 7
//! good-run vector, and an [`EvalCache`] prewarmed over an
//! `Arc<FrozenInterner>` snapshot — so repeat queries are cache
//! lookups, not reconstructions. Fault-plan executions go through one
//! **server-global** [`ExecutionCache`] keyed by `(protocol+options
//! digest, plan fingerprint)`, so identical plans dedupe across
//! sessions — and across spec files that differ only in comments, since
//! the key hashes the enacted protocol, not the spec bytes.
//!
//! # Connection pool and backpressure
//!
//! The accept loop never spawns per-connection threads. A fixed set of
//! connection workers (`--conn-workers`, mirroring the hand-rolled
//! `atl-model::parallel` pool: plain `Mutex` + `Condvar`, poison
//! tolerated) drains a bounded accept queue (`--queue-depth`). When the
//! queue is full the daemon answers a fast one-line `ERR busy` and
//! closes, rather than piling up unbounded threads; when the shutdown
//! flag is up, accepted-but-unserved connections (including any still
//! queued) get a framed `ERR shutting down` instead of a silently
//! dropped socket. Time spent queued does not count against
//! `--idle-timeout` — the idle clock starts when a worker picks the
//! connection up — and `SHUTDOWN` still waits, bounded by `--drain`,
//! for in-flight requests to finish writing.
//!
//! # Wire protocol
//!
//! Line-delimited over loopback TCP. Each request is one line (at most
//! [`MAX_REQUEST_BYTES`] bytes); each response is either
//!
//! ```text
//! OK <n>          followed by exactly n payload lines
//! ERR <message>   one line, always parseable
//! ```
//!
//! Requests:
//!
//! ```text
//! LOAD <spec-path>                 parse + warm a session (idempotent by
//!                                  canonicalized content: comments and
//!                                  surrounding whitespace don't count)
//! RELOAD <id> <spec-path>          re-point a live session at an edited
//!                                  spec, reusing every stage and cache
//!                                  the edit leaves untouched (see
//!                                  "Incremental reload" below)
//! ANALYZE <id>                     the annotation report, bytes of `atl analyze`
//! EVAL <id> <run:time|time> <phi>  semantic evaluation at a point
//! INJECT <id> <fault-flags>        single-plan belief-survival report,
//!                                  bytes of `atl inject`; the flags go
//!                                  through `atl inject`'s parser
//!                                  (`crate::request`), errors included
//! SWEEP <id> [context=<c>] policy=<p> options=<o> plans=<plan>;<plan>;…
//!                                  execute a shard of fault plans, one
//!                                  wire-rendered outcome per plan (the
//!                                  `atl_model::wire` shard codec)
//! HUNT <id> [seed=N] [budget=N] [batch=N]
//!                                  coverage-guided attack search over the
//!                                  session's fault-plan space, bytes of
//!                                  `atl hunt` (see `crate::hunt`)
//! MONITOR <phi>[;<phi>...]         open a streaming monitor watching the
//!                                  formulas (see `crate::monitor`)
//! EVENT <monitor-id> <trace line>  feed one trace line to a monitor; its
//!                                  verdict lines, bytes of `atl monitor`
//! STATS                            session/cache counters (fixed 11-line text)
//! METRICS                          Prometheus-style text exposition
//!                                  (crate::metrics): per-verb latency
//!                                  histograms, queue/worker gauges,
//!                                  backpressure and cache counters
//! SHUTDOWN                         stop accepting and wind down
//! ```
//!
//! `SWEEP` is the worker half of the distributed fabric
//! (`crate::fabric`): the request and the response are the
//! [`atl_model::wire`] shard codec the coordinator also speaks
//! ([`parse_sweep_request`], [`render_sweep_response`]). The request's
//! `context` is the coordinator's [`execution_context_digest`]; when
//! the session's protocol, enacted under the shard's policy and options,
//! digests differently, the shard is refused with `ERR context
//! mismatch …` instead of executing another protocol's runs. Plans
//! execute against the global [`ExecutionCache`], and the response
//! carries each outcome keyed by its fingerprint digest — `outcome <i>
//! fp=<16 hex> lines=<n>` followed by `n` lines of
//! [`atl_model::wire::render_outcome`]. Every digest here, and the
//! canonical-spec digest `LOAD` dedupes by, is
//! [`atl_model::wire::fnv64`].
//!
//! `MONITOR`/`EVENT` sessions live beside the spec sessions. With
//! [`ServeConfig::monitor_store`] set, each `EVENT` checkpoints its
//! monitor as one [`atl_model::store`] frame (`monitor-<id>`) while the
//! monitor's lock is still held, so the file always holds the last
//! acknowledged state, and [`Server::start`] resumes every checkpoint it
//! finds there.
//!
//! # Incremental reload
//!
//! `RELOAD <id> <path>` diffs the newly parsed spec against the
//! session's current one ([`crate::spec::SpecDiff`]) and rebuilds only
//! what the edit invalidates: the annotation closure resumes from its
//! previous fixpoint when assumptions were only added or reordered
//! (delta saturation), the enacted protocol — and with it the executed
//! [`System`], the frozen-interner snapshot, and the warmed
//! [`EvalCache`] — is kept whenever the edit is goal/belief-only, the
//! Section 7 construction resumes from the first invalidated stage via
//! its [`ConstructionCheckpoint`], and an edited system rewarms its
//! cache pointwise ([`EvalCache` delta prewarm]) instead of from
//! scratch. The reloaded session keeps its id, records its parent's
//! digest as lineage, and answers every query **byte-identically** to a
//! cold `LOAD` of the edited spec — the reuse conditions are all
//! equality-gated on the inputs that determine each answer. `STATS`
//! line 3 and the `atl_serve_reload_*` metrics count how often the
//! delta path (something reused) versus the full path (nothing
//! reusable) ran.
//!
//! Sessions are evicted least-recently-used beyond `--max-sessions`;
//! re-`LOAD`ing an evicted spec rebuilds it (new id) and every query
//! answer is byte-identical to the pre-eviction bytes, because session
//! ids never appear in query payloads. Malformed requests and
//! mid-request disconnects produce per-connection `ERR`s (or a dropped
//! connection) without touching other sessions; an oversized request
//! line is drained through its terminating newline (bounded by
//! [`MAX_DRAIN_BYTES`]) before the `ERR` goes out, so a pipelined
//! follow-up request on the same connection still parses from a line
//! boundary. A connection idle past the configured timeout is reaped
//! (counted in `STATS`) rather than pinning its worker forever, and
//! `SHUTDOWN` waits — up to a bounded drain deadline — for in-flight
//! requests to finish writing before the accept loop exits. The
//! conformance harnesses live in `tests/e17_serve.rs` (protocol) and
//! `tests/e19_pool.rs` (pool widths, backpressure, metrics).

use crate::annotate::{analyze_at_resumable, AnalysisResume, AtProtocol};
use crate::budget::Budget;
use crate::enact::{enact, enact_with, EnactOptions};
use crate::goodruns::{construct_in, ConstructionCheckpoint};
use crate::hunt::{default_space, hunt_report, HuntSettings};
use crate::inject::{inject_report, InjectRequest};
use crate::metrics::{ExtraMetric, MetricKind, ServeMetrics, Verb};
use crate::monitor::{Monitor, MonitorStats};
use crate::parallel::Pool;
use crate::request::PlanFlags;
use crate::semantics::{verdict_line, EvalCache, GoodRuns, RewarmStats, Semantics};
use crate::spec::{canonicalize_spec, parse_spec, SpecDiff};
use crate::sweep::belief_assumptions;
use atl_lang::parser::{parse_formula, Symbols};
use atl_model::store::FrameStore;
use atl_model::wire::{
    checkpoint_body, fnv64, parse_checkpoint_body, parse_sweep_request, render_sweep_response,
    CHECKPOINT_HEADER,
};
use atl_model::{
    execute_with_faults, execution_context_digest, sweep_plans_in, ExecOptions, ExecutionCache,
    FaultPlan, Point, Protocol, System,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request line the daemon accepts, in bytes. A longer line is
/// answered with one `ERR` after its remainder is drained through the
/// terminating newline, so the connection stays usable for pipelined
/// follow-ups.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How much of an oversized line the daemon will discard looking for
/// the terminating newline before giving up and closing the connection
/// (a client streaming an unbounded junk line must not pin a worker).
pub const MAX_DRAIN_BYTES: usize = 16 * MAX_REQUEST_BYTES;

/// The default serve port (`--port` overrides; `0` asks the OS for an
/// ephemeral port, which tests use).
pub const DEFAULT_PORT: u16 = 7641;

/// How `SWEEP` begins its refusal of a shard keyed to another execution
/// context than the session's. No retry changes the protocol a worker
/// serves, so the fabric treats this refusal as permanent.
pub(crate) const CONTEXT_MISMATCH: &str = "context mismatch";

/// Configuration for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1 (0 = OS-assigned ephemeral).
    pub port: u16,
    /// How many warmed sessions to keep before LRU eviction (min 1).
    pub max_sessions: usize,
    /// Worker pool queries dispatch across (prewarming, good-run
    /// construction, the inject analysis pair).
    pub pool: Pool,
    /// How long a connection may sit idle between requests before it is
    /// reaped (`None` disables reaping). A half-open client can
    /// therefore no longer pin a connection worker forever.
    pub idle_timeout: Option<Duration>,
    /// How long `SHUTDOWN` waits for in-flight requests to finish
    /// writing before the accept loop exits anyway.
    pub drain_deadline: Duration,
    /// Connection workers: the fixed number of threads serving
    /// connections (min 1). Concurrency never exceeds this.
    pub conn_workers: usize,
    /// Accept-queue depth: how many accepted connections may wait for a
    /// worker (min 1). Overflow is answered `ERR busy` and closed.
    pub queue_depth: usize,
    /// Capacity of the global [`ExecutionCache`] (`None` = unbounded).
    /// Eviction is oldest-inserted-first and never invalidates outcomes
    /// already handed to in-flight requests.
    pub exec_cache_capacity: Option<usize>,
    /// Directory where monitor sessions checkpoint after every event
    /// (`None` disables persistence). On start the daemon replays every
    /// checkpoint found there, so monitors survive a restart.
    pub monitor_store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: DEFAULT_PORT,
            max_sessions: 8,
            pool: Pool::auto(),
            idle_timeout: Some(Duration::from_secs(300)),
            drain_deadline: Duration::from_secs(10),
            conn_workers: 8,
            queue_depth: 64,
            exec_cache_capacity: None,
            monitor_store: None,
        }
    }
}

/// Session/cache counters, surfaced by the `STATS` request and by
/// [`Server::stats`] for in-process tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// `LOAD` requests served.
    pub loads: u64,
    /// `LOAD`s that parsed and warmed a new session.
    pub parsed: u64,
    /// `LOAD`s answered by an existing session (same spec bytes).
    pub load_hits: u64,
    /// Sessions evicted by the LRU policy.
    pub evictions: u64,
    /// `RELOAD` requests served (successfully re-pointed a session).
    pub reloads: u64,
    /// `RELOAD`s that reused at least one stage/cache from the prior
    /// session (including the unchanged-content no-op).
    pub reload_delta: u64,
    /// `RELOAD`s that could reuse nothing and rebuilt everything.
    pub reload_full: u64,
    /// `ANALYZE` requests served (always from the pre-rendered report).
    pub analyze_served: u64,
    /// `EVAL` requests served.
    pub eval_served: u64,
    /// `EVAL`s answered from the per-session memo without re-evaluating.
    pub eval_warm: u64,
    /// `INJECT` requests served.
    pub inject_served: u64,
    /// `INJECT`s answered from the per-session memo without executing.
    pub inject_warm: u64,
    /// `INJECT`s whose execution was answered by the [`ExecutionCache`].
    pub inject_exec_hits: u64,
    /// `SWEEP` shards served.
    pub sweep_served: u64,
    /// Fault plans received across all `SWEEP` shards.
    pub sweep_plans: u64,
    /// `SWEEP` plans whose execution was answered by the shared
    /// [`ExecutionCache`] (cross-shard and cross-session dedupe).
    pub sweep_exec_hits: u64,
    /// `HUNT` requests served.
    pub hunts_served: u64,
    /// Fault-plan executions spent across all `HUNT` requests
    /// (mutation rounds plus shrinking probes).
    pub hunt_plans: u64,
    /// Distinct degradation classes reported across all `HUNT`
    /// requests.
    pub hunt_classes: u64,
    /// Connections closed for sitting idle past the timeout.
    pub reaped: u64,
    /// Monitor sessions opened (`MONITOR` requests plus checkpoints
    /// replayed at startup).
    pub monitors: u64,
    /// Trace events ingested across all monitor sessions.
    pub monitor_events: u64,
    /// Memoized point sets monitor extensions carried over instead of
    /// recomputing.
    pub monitor_points_reused: u64,
    /// Monitor events served by the incremental path (one delta
    /// saturation + one cache append).
    pub monitor_delta: u64,
    /// Monitor events that required a full prefix build and prewarm
    /// (the first buildable prefix of each session).
    pub monitor_full: u64,
}

/// One response on the wire: `OK` with payload lines, or a one-line
/// `ERR`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// True for `OK`, false for `ERR`.
    pub ok: bool,
    /// Payload lines (`OK`) or the single error message (`ERR`).
    pub lines: Vec<String>,
}

impl Response {
    /// An `OK` response carrying `text` split into lines.
    pub fn from_text(text: &str) -> Response {
        Response {
            ok: true,
            lines: text.lines().map(str::to_string).collect(),
        }
    }

    /// An `ERR` response (newlines flattened so it stays one line).
    pub fn err(message: impl Into<String>) -> Response {
        let msg: String = message
            .into()
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        Response {
            ok: false,
            lines: vec![msg],
        }
    }

    /// The payload as the exact text a one-shot CLI command prints: the
    /// lines joined with trailing newlines (empty payload → empty
    /// string).
    pub fn payload(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The error message, if this is an `ERR` response.
    pub fn err_message(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.lines.first().map(String::as_str)
        }
    }

    /// The session id of a `LOAD` response (`session <id>: …`).
    pub fn session_id(&self) -> Option<u64> {
        let first = self.lines.first()?;
        let id = first.strip_prefix("session ")?.split(':').next()?;
        id.parse().ok()
    }

    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = String::new();
        if self.ok {
            out.push_str(&format!("OK {}\n", self.lines.len()));
            for l in &self.lines {
                out.push_str(l);
                out.push('\n');
            }
        } else {
            out.push_str("ERR ");
            out.push_str(self.lines.first().map(String::as_str).unwrap_or(""));
            out.push('\n');
        }
        w.write_all(out.as_bytes())
    }
}

/// A warmed spec: everything `LOAD` builds once so later queries only
/// read caches.
struct Session {
    id: u64,
    digest: u64,
    /// The canonical digest of the spec this session was `RELOAD`ed
    /// from, when it was (lineage; `None` for a fresh `LOAD`).
    parent: Option<u64>,
    at: AtProtocol,
    syms: Symbols,
    /// The annotation run packaged for in-place resumption. A `RELOAD`
    /// *takes* it (the session is retiring anyway) and advances the
    /// provers directly — no per-level clone, no re-indexing. `None`
    /// only after a concurrent reload already claimed it, in which case
    /// the loser re-analyzes cold.
    resume: Mutex<Option<AnalysisResume>>,
    /// Pre-rendered `atl analyze` report (and whether every goal held).
    analysis_text: String,
    /// The enacted default protocol — the executor-visible surface. Two
    /// specs with equal `proto` execute identically, which is what lets
    /// `RELOAD` keep the system for goal/belief-only edits.
    proto: Protocol,
    /// The fault-free execution, if the spec runs to completion.
    system: Option<System>,
    /// Why there is no system, when there is none.
    no_system: String,
    /// Good-run vector over `system` (Section 7 construction, falling
    /// back to the all-runs vector exactly as the sweep bridge does).
    goods: GoodRuns,
    /// Per-stage record of the construction, for `RELOAD` resume
    /// (`None` when the construction fell back or there is no system).
    checkpoint: Option<ConstructionCheckpoint>,
    /// Prewarmed evaluation cache holding the frozen-interner snapshot.
    warmed: EvalCache,
    eval_memo: Mutex<HashMap<String, Response>>,
    inject_memo: Mutex<HashMap<String, Response>>,
}

impl Session {
    /// The `LOAD` response payload for this session.
    fn load_line(&self) -> String {
        format!(
            "session {}: protocol {} ({} assumption(s), {} step(s), {} goal(s))",
            self.id,
            self.at.name,
            self.at.assumptions.len(),
            self.at.steps.len(),
            self.at.goals.len()
        )
    }
}

#[derive(Default)]
struct Store {
    sessions: HashMap<u64, Arc<Session>>,
    by_digest: HashMap<u64, u64>,
    /// Session ids from least- to most-recently used.
    recency: Vec<u64>,
    next_id: u64,
    stats: ServeStats,
}

impl Store {
    fn touch(&mut self, id: u64) {
        self.recency.retain(|&x| x != id);
        self.recency.push(id);
    }

    /// What `STATS` and `METRICS` report about the resident sessions,
    /// in one walk under the store lock.
    fn census(&self) -> Census {
        let mut census = Census {
            live: self.sessions.len(),
            ..Census::default()
        };
        for session in self.sessions.values() {
            census.hidden += session.warmed.hidden_entries();
            census.frozen += session
                .warmed
                .frozen_base()
                .map_or(0, |b| b.message_count());
            census.lineage += usize::from(session.parent.is_some());
        }
        census
    }
}

/// Session totals: live sessions, hidden-state entries and frozen
/// interner messages across their warmed caches, and sessions
/// re-pointed by `RELOAD` (lineage).
#[derive(Default)]
struct Census {
    live: usize,
    hidden: usize,
    frozen: usize,
    lineage: usize,
}

/// The bounded accept queue between the accept loop and the connection
/// workers: plain `Mutex` + `Condvar`, mirroring
/// `atl_model::parallel::Pool`'s hand-rolled discipline (no channels,
/// poison tolerated).
///
/// Every push, pop and close records the new depth in the queue-depth
/// gauge while still holding the lock, so the gauge is always the
/// length of the queue as of its latest change: at most `capacity`,
/// never negative, and zero at rest.
struct AcceptQueue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueInner {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl AcceptQueue {
    fn new(capacity: usize) -> AcceptQueue {
        AcceptQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues an accepted connection, or hands it back when the queue
    /// is full (backpressure) or already closed (shutdown).
    fn push(&self, stream: TcpStream, metrics: &ServeMetrics) -> Result<(), TcpStream> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(stream);
        }
        inner.items.push_back(stream);
        metrics.record_queue_depth(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next queued connection; `None` once the queue is
    /// closed and drained, which is each worker's exit signal.
    fn pop(&self, metrics: &ServeMetrics) -> Option<TcpStream> {
        let mut inner = self.lock();
        loop {
            if let Some(stream) = inner.items.pop_front() {
                metrics.record_queue_depth(inner.items.len());
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue, wakes every worker, and returns whatever was
    /// still waiting so the caller can refuse it with a framed error.
    fn close(&self, metrics: &ServeMetrics) -> Vec<TcpStream> {
        let mut inner = self.lock();
        inner.closed = true;
        let leftover: Vec<TcpStream> = inner.items.drain(..).collect();
        metrics.record_queue_depth(0);
        drop(inner);
        self.ready.notify_all();
        leftover
    }
}

struct ServerState {
    addr: SocketAddr,
    max_sessions: usize,
    pool: Pool,
    idle_timeout: Option<Duration>,
    drain_deadline: Duration,
    conn_workers: usize,
    shutdown: AtomicBool,
    /// Requests currently being handled or written; `SHUTDOWN` drains
    /// this to zero (bounded by `drain_deadline`) before the accept
    /// loop exits.
    active: AtomicUsize,
    /// Accepted connections waiting for a worker.
    queue: AcceptQueue,
    /// The server-global fault-plan execution cache: keyed by
    /// `(protocol+options digest, plan fingerprint)`, so `INJECT` and
    /// `SWEEP` dedupe identical executions across sessions.
    exec_cache: ExecutionCache,
    metrics: ServeMetrics,
    store: Mutex<Store>,
    /// Live monitor sessions, by id. Independent of the spec-session
    /// store: `RELOAD` never touches them.
    monitors: Mutex<Monitors>,
    /// Where monitor checkpoints persist (`None` = in-memory only).
    monitor_store: Option<FrameStore>,
}

#[derive(Default)]
struct Monitors {
    sessions: BTreeMap<u64, Arc<Mutex<Monitor>>>,
    next_id: u64,
}

impl ServerState {
    fn store(&self) -> MutexGuard<'_, Store> {
        // A poisoned store only means a handler panicked mid-update;
        // the maps themselves stay consistent (updates are atomic).
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn monitors(&self) -> MutexGuard<'_, Monitors> {
        self.monitors.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn session(&self, id_text: &str) -> Result<Arc<Session>, Response> {
        let id: u64 = id_text
            .parse()
            .map_err(|_| Response::err(format!("bad session id {id_text:?}")))?;
        let mut store = self.store();
        match store.sessions.get(&id).cloned() {
            Some(s) => {
                store.touch(id);
                Ok(s)
            }
            None => Err(Response::err(format!(
                "unknown session {id} (never loaded, or evicted)"
            ))),
        }
    }
}

/// A running serve-mode daemon. Dropping the handle does **not** stop
/// it; send `SHUTDOWN` (e.g. via [`Client::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds 127.0.0.1 on `config.port` and starts the accept loop in a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding or thread spawning.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let conn_workers = config.conn_workers.max(1);
        let state = Arc::new(ServerState {
            addr,
            max_sessions: config.max_sessions.max(1),
            pool: config.pool,
            idle_timeout: config.idle_timeout,
            drain_deadline: config.drain_deadline,
            conn_workers,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            queue: AcceptQueue::new(config.queue_depth),
            exec_cache: match config.exec_cache_capacity {
                Some(cap) => ExecutionCache::bounded(cap),
                None => ExecutionCache::new(),
            },
            metrics: ServeMetrics::new(),
            store: Mutex::new(Store::default()),
            monitors: Mutex::new(Monitors::default()),
            monitor_store: config.monitor_store.map(FrameStore::open).transpose()?,
        });
        if let Some(store) = &state.monitor_store {
            resume_monitors(&state, store);
        }
        // The fixed connection workers. Handles are dropped: workers
        // exit on their own once the queue closes, and a worker blocked
        // reading a still-connected idle client must not hang
        // `Server::join` (which only joins the accept loop).
        for i in 0..conn_workers {
            let worker_state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("atl-serve-conn-{i}"))
                .spawn(move || worker_loop(&worker_state))?;
        }
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("atl-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Server {
            addr,
            accept: Some(accept),
            state,
        })
    }

    /// The bound address (with the OS-assigned port when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// A snapshot of the counters `STATS` reports.
    pub fn stats(&self) -> ServeStats {
        self.state.store().stats
    }

    /// Waits for the accept loop to exit (after a `SHUTDOWN` request).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Answers an accepted-but-unserved connection with a framed error
/// instead of silently dropping the socket.
fn refuse_shutting_down(state: &ServerState, mut stream: TcpStream) {
    state.metrics.shutdown_refused();
    let _ = Response::err("shutting down").write_to(&mut stream);
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    // The shutdown flag is only checked after `accept` returns — every
    // wake source (a real client, `cmd_shutdown`'s throwaway connect)
    // delivers a connection or an error, and checking only then
    // guarantees a connection racing the flag is refused with a framed
    // error rather than left in a backlog the dropped listener resets.
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    // Accepted between the shutdown check and the
                    // enqueue: refuse with a framed error, never a
                    // silently dropped socket.
                    refuse_shutting_down(state, stream);
                    break;
                }
                if let Err(mut stream) = state.queue.push(stream, &state.metrics) {
                    // Backpressure: the queue is full, answer fast
                    // rather than piling up unbounded work.
                    state.metrics.rejected();
                    let _ = Response::err("busy").write_to(&mut stream);
                }
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // Close the queue: workers exit once it drains, and connections
    // still queued get the same framed refusal as the race above.
    for stream in state.queue.close(&state.metrics) {
        refuse_shutting_down(state, stream);
    }
    // Drain: in-flight requests (including the SHUTDOWN response
    // itself) finish dispatching and writing before the loop — and with
    // it `Server::join` — returns, bounded by the drain deadline so a
    // wedged handler cannot hold shutdown hostage.
    let deadline = Instant::now() + state.drain_deadline;
    while state.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One connection worker: drains the accept queue until it closes. The
/// busy/idle bracket makes `busy_workers_peak` the observable proof
/// that concurrency never exceeds the configured pool width.
fn worker_loop(state: &Arc<ServerState>) {
    while let Some(stream) = state.queue.pop(&state.metrics) {
        state.metrics.worker_busy();
        handle_connection(state, stream);
        state.metrics.worker_idle();
    }
}

enum ReadOutcome {
    Line(String),
    /// The line exceeded [`MAX_REQUEST_BYTES`]. `resynced` is true when
    /// the terminating newline was found (possibly after draining), so
    /// the connection sits on a line boundary and may keep serving
    /// pipelined follow-ups; false means the drain gave up (EOF or
    /// [`MAX_DRAIN_BYTES`]) and the connection must close.
    TooLong {
        resynced: bool,
    },
    Eof,
}

/// Reads one request line, capped at [`MAX_REQUEST_BYTES`]. Invalid
/// UTF-8 is replaced rather than rejected (the parser then reports an
/// unknown command), and a trailing `\r` is stripped. An oversized line
/// is drained through its terminating newline so a pipelined follow-up
/// request is not parsed mid-payload.
fn read_request(r: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Line(decode(buf))
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            return Ok(if buf.len() > MAX_REQUEST_BYTES {
                ReadOutcome::TooLong { resynced: true }
            } else {
                ReadOutcome::Line(decode(buf))
            });
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        r.consume(n);
        if buf.len() > MAX_REQUEST_BYTES {
            let resynced = drain_oversized_line(r)?;
            return Ok(ReadOutcome::TooLong { resynced });
        }
    }
}

/// Discards the remainder of an oversized line through its terminating
/// newline. Returns whether the newline was found within
/// [`MAX_DRAIN_BYTES`] (true = the stream is back on a line boundary).
fn drain_oversized_line(r: &mut impl BufRead) -> io::Result<bool> {
    let mut drained = 0usize;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(false);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            r.consume(pos + 1);
            return Ok(true);
        }
        drained += chunk.len();
        let n = chunk.len();
        r.consume(n);
        if drained > MAX_DRAIN_BYTES {
            return Ok(false);
        }
    }
}

fn decode(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // The timeout is set on the shared socket, so it governs the read
    // half cloned below: a client idle between requests for longer than
    // this trips `WouldBlock`/`TimedOut` and the connection is reaped.
    let _ = stream.set_read_timeout(state.idle_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    state.store().stats.reaped += 1;
                    let _ =
                        Response::err("connection idle past timeout; reaped").write_to(&mut writer);
                }
                break;
            }
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::TooLong { resynced }) => {
                let resp = Response::err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
                let wrote = resp.write_to(&mut writer);
                // Resynced on a line boundary: pipelined follow-ups on
                // this connection still parse. Otherwise close.
                if wrote.is_err() || !resynced {
                    break;
                }
            }
            Ok(ReadOutcome::Line(line)) => {
                // A panic inside a handler must stay a per-connection
                // error: report it and keep every session intact. The
                // active count brackets dispatch *and* the response
                // write, so a draining shutdown never truncates a reply.
                let verb = Verb::of_command(line.split_whitespace().next().unwrap_or(""));
                let started = Instant::now();
                state.active.fetch_add(1, Ordering::SeqCst);
                let resp = catch_unwind(AssertUnwindSafe(|| dispatch(state, verb, &line)))
                    .unwrap_or_else(|_| Response::err("internal: request handler panicked"));
                // Observe before the write: once a client has read its
                // response, its request is guaranteed to be counted, so
                // a METRICS scrape sequenced after the reply never
                // under-reports. (The histogram spans dispatch to
                // response assembly, not the socket write.)
                state.metrics.observe(verb, started.elapsed());
                let wrote = resp.write_to(&mut writer);
                state.active.fetch_sub(1, Ordering::SeqCst);
                if wrote.is_err() || state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Answers one request line whose first word `handle_connection`
/// already classified as `verb`.
fn dispatch(state: &Arc<ServerState>, verb: Verb, line: &str) -> Response {
    let line = line.trim();
    if line.is_empty() {
        return Response::err("empty request");
    }
    let (cmd, rest) = first_word(line);
    match verb {
        Verb::Load => cmd_load(state, rest),
        Verb::Reload => cmd_reload(state, rest),
        Verb::Analyze => cmd_analyze(state, rest),
        Verb::Eval => cmd_eval(state, rest),
        Verb::Inject => cmd_inject(state, rest),
        Verb::Sweep => cmd_sweep(state, rest),
        Verb::Hunt => cmd_hunt(state, rest),
        Verb::Monitor => cmd_monitor(state, rest),
        Verb::Event => cmd_event(state, rest),
        Verb::Stats | Verb::Metrics | Verb::Shutdown if !rest.is_empty() => {
            Response::err(format!("{cmd} takes no arguments"))
        }
        Verb::Stats => cmd_stats(state),
        Verb::Metrics => cmd_metrics(state),
        Verb::Shutdown => cmd_shutdown(state),
        Verb::Other => Response::err(format!(
            "unknown command {cmd:?} (expected LOAD, RELOAD, ANALYZE, EVAL, INJECT, SWEEP, \
             HUNT, MONITOR, EVENT, STATS, METRICS or SHUTDOWN)"
        )),
    }
}

/// Splits the first word off `text` (already trimmed): the word, and the
/// rest with its surrounding whitespace trimmed.
fn first_word(text: &str) -> (&str, &str) {
    match text.split_once(char::is_whitespace) {
        Some((word, rest)) => (word, rest.trim()),
        None => (text, ""),
    }
}

/// The [`fnv64`] digest of the *canonicalized* spec text: comments and
/// insignificant whitespace are erased first, so comment-only twins
/// share a digest and hit the `LOAD` dedupe path instead of building a
/// second session.
fn content_digest(content: &str) -> u64 {
    fnv64(canonicalize_spec(content).as_bytes())
}

fn cmd_load(state: &Arc<ServerState>, path: &str) -> Response {
    if path.is_empty() {
        return Response::err("LOAD takes a spec path");
    }
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return Response::err(format!("cannot read {path}: {e}")),
    };
    let digest = content_digest(&content);
    {
        let mut store = state.store();
        store.stats.loads += 1;
        if let Some(&id) = store.by_digest.get(&digest) {
            if let Some(session) = store.sessions.get(&id).cloned() {
                store.stats.load_hits += 1;
                store.touch(id);
                return Response::from_text(&session.load_line());
            }
        }
    }

    // Parse and warm outside any lock; concurrent LOADs of the same new
    // spec may both build, in which case the first insert wins below.
    let (at, syms) = match parse_spec(&content) {
        Ok(ok) => ok,
        Err(e) => return Response::err(e.diagnostic(path)),
    };
    let (mut session, _) = build_session(&state.pool, digest, at, syms, None);

    let mut store = state.store();
    // Re-check: another connection may have inserted this digest while
    // we were building.
    if let Some(&id) = store.by_digest.get(&digest) {
        if let Some(session) = store.sessions.get(&id).cloned() {
            store.stats.load_hits += 1;
            store.touch(id);
            return Response::from_text(&session.load_line());
        }
    }
    store.stats.parsed += 1;
    store.next_id += 1;
    let id = store.next_id;
    session.id = id;
    let session = Arc::new(session);
    store.by_digest.insert(digest, id);
    store.sessions.insert(id, Arc::clone(&session));
    store.touch(id);
    while store.sessions.len() > state.max_sessions {
        let victim = store.recency.remove(0);
        if let Some(gone) = store.sessions.remove(&victim) {
            // Lineage-aware: a reloaded session's old digests no longer
            // map to it, so only drop the mapping this victim still owns.
            if store.by_digest.get(&gone.digest) == Some(&victim) {
                store.by_digest.remove(&gone.digest);
            }
            store.stats.evictions += 1;
        }
    }
    Response::from_text(&session.load_line())
}

/// What a session build took over from the session it replaces.
#[derive(Default)]
struct Reuse {
    analysis: bool,
    system: bool,
    stages: usize,
    rewarm: RewarmStats,
}

/// Builds the session for a parsed spec, outside any lock. With no
/// `prior`, every stage is computed, as `LOAD` does. With the session a
/// `RELOAD` replaces and the diff against it, every stage whose inputs
/// the edit left untouched is reused: the analysis closure (advanced in
/// place via [`AnalysisResume`] when assumptions were only added), the
/// executed system (kept when the enacted protocol is equal), the
/// Section 7 construction (stage checkpoint resume), and the evaluation
/// cache (pointwise rewarm). The session takes the prior's id (`LOAD`
/// assigns one after the build) and records its digest as the parent.
fn build_session(
    pool: &Pool,
    digest: u64,
    at: AtProtocol,
    syms: Symbols,
    prior: Option<(&Session, &SpecDiff)>,
) -> (Session, Reuse) {
    let old = prior.map(|(old, _)| old);
    let mut reuse = Reuse::default();

    // Analysis: take the retiring session's resume and advance it in
    // place — identical protocol ⇒ as-is; assumptions only added (or a
    // goal-only edit) ⇒ one delta saturation per level; otherwise, or
    // when a concurrent reload already claimed the resume, analyze
    // cold. `AnalysisResume::advance` requires unchanged steps, which
    // `analysis_resumable` guarantees.
    let taken = old.and_then(|old| {
        old.resume
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    });
    let resume = match (prior, taken) {
        (Some((old, _)), Some(r)) if at == old.at => {
            reuse.analysis = true;
            r
        }
        (Some((_, diff)), Some(mut r)) => match diff.analysis_resumable() {
            Some(added) => {
                r.advance(&at, added);
                reuse.analysis = true;
                r
            }
            None => analyze_at_resumable(&at),
        },
        _ => analyze_at_resumable(&at),
    };
    let analysis_text = resume.render(&at);

    // Execution: `enact` ignores goals and belief assumptions, so any
    // edit that leaves the enacted protocol equal keeps the system (and
    // the executor-visible digest for the global execution cache).
    let proto = enact(&at);
    let kept = old.filter(|old| old.proto == proto);
    reuse.system = kept.is_some();
    let (system, no_system) = match kept {
        Some(old) => (old.system.clone(), old.no_system.clone()),
        None => match execute_with_faults(&proto, &ExecOptions::default(), &FaultPlan::new(0)) {
            Ok((run, _)) => (Some(System::new([run])), String::new()),
            Err(e) => (None, e.to_string()),
        },
    };

    // Evaluation cache: reuse wholesale with the system, rewarm
    // pointwise against the old snapshot when the system changed, or
    // prewarm cold when there is nothing to diff against.
    let (warmed, rewarm) = match (&system, kept, old) {
        (None, _, _) => (EvalCache::default(), RewarmStats::default()),
        (Some(_), Some(old), _) => {
            let total = old.warmed.entry_count();
            (
                old.warmed.clone(),
                RewarmStats {
                    reused: total,
                    total,
                },
            )
        }
        (
            Some(sys),
            None,
            Some(Session {
                system: Some(old_sys),
                warmed: old_warmed,
                ..
            }),
        ) => EvalCache::prewarm_delta_on(sys, old_sys, old_warmed, pool),
        (Some(sys), None, _) => {
            let warmed = EvalCache::prewarm_on(sys, pool);
            let total = warmed.entry_count();
            (warmed, RewarmStats { reused: 0, total })
        }
    };
    reuse.rewarm = rewarm;

    // Good-run construction: clone when nothing it depends on moved,
    // resume from the stage checkpoint when only the belief assumptions
    // moved, build otherwise (always over the freshly warmed cache).
    let beliefs = belief_assumptions(&at);
    let (goods, checkpoint) = match (&system, kept) {
        (None, _) => (
            GoodRuns::all_runs(&System::new(Vec::<atl_model::Run>::new())),
            None,
        ),
        (Some(_), Some(old)) if beliefs == belief_assumptions(&old.at) => {
            reuse.stages = old
                .checkpoint
                .as_ref()
                .map_or(0, ConstructionCheckpoint::stages);
            (old.goods.clone(), old.checkpoint.clone())
        }
        (Some(sys), _) => {
            // A cold build resumes from the empty checkpoint. The loop
            // fills the cache it is given at one job, so it gets a copy:
            // the session keeps exactly the warmed cache.
            let cold = ConstructionCheckpoint::default();
            let prior = kept
                .and_then(|old| old.checkpoint.as_ref())
                .unwrap_or(&cold);
            let cache = &mut warmed.clone();
            match construct_in(sys, &beliefs, Budget::unlimited(), prior, pool, cache) {
                Ok(c) => {
                    reuse.stages = c.reused;
                    (c.goods, Some(c.checkpoint))
                }
                Err(_) => (GoodRuns::all_runs(sys), None),
            }
        }
    };

    // Response memos answer over (system, goods, symbols) for EVAL and
    // over the full protocol text for INJECT — carry each across only
    // when its inputs are bytewise stable.
    let memo = |m: &Mutex<HashMap<String, Response>>| {
        m.lock().unwrap_or_else(PoisonError::into_inner).clone()
    };
    let eval_memo = match kept {
        Some(old) if syms == old.syms && goods == old.goods => memo(&old.eval_memo),
        _ => HashMap::new(),
    };
    let inject_memo = match old {
        Some(old) if at == old.at => memo(&old.inject_memo),
        _ => HashMap::new(),
    };

    let session = Session {
        id: old.map_or(0, |old| old.id),
        digest,
        parent: old.map(|old| old.digest),
        at,
        syms,
        resume: Mutex::new(Some(resume)),
        analysis_text,
        proto,
        system,
        no_system,
        goods,
        checkpoint,
        warmed,
        eval_memo: Mutex::new(eval_memo),
        inject_memo: Mutex::new(inject_memo),
    };
    (session, reuse)
}

/// `RELOAD <session-id> <spec-path>`: re-point a live session at an
/// edited spec, structurally diffing the new parse against the old one
/// and rebuilding it with [`build_session`], which reuses every artifact
/// whose inputs are untouched. The rebuilt session keeps its id and
/// records the old digest as its parent.
fn cmd_reload(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, path) = first_word(rest);
    if path.is_empty() {
        return Response::err("RELOAD takes <session-id> <spec-path>");
    }
    let old = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return Response::err(format!("cannot read {path}: {e}")),
    };
    let digest = content_digest(&content);
    if digest == old.digest {
        // Canonically unchanged content: the live session already *is*
        // the cold load of this spec.
        let mut store = state.store();
        store.stats.reloads += 1;
        store.stats.reload_delta += 1;
        store.touch(old.id);
        return Response::from_text(&format!(
            "{}\nreload unchanged: session kept as-is",
            old.load_line()
        ));
    }

    // Build outside the store lock, exactly like LOAD.
    let (at, syms) = match parse_spec(&content) {
        Ok(ok) => ok,
        Err(e) => return Response::err(e.diagnostic(path)),
    };
    let diff = SpecDiff::classify(&old.at, &old.syms, &at, &syms);
    let (session, reuse) = build_session(&state.pool, digest, at, syms, Some((&old, &diff)));
    let session = Arc::new(session);
    let summary = format!(
        "reload {}: analysis {}, system {}, stages reused {}, cache points reused {}/{}",
        diff.kind(),
        if reuse.analysis {
            "reused"
        } else {
            "recomputed"
        },
        if reuse.system {
            "reused"
        } else {
            "re-executed"
        },
        reuse.stages,
        reuse.rewarm.reused,
        reuse.rewarm.total,
    );

    let mut store = state.store();
    store.stats.reloads += 1;
    if reuse.analysis || reuse.system || reuse.stages > 0 || reuse.rewarm.reused > 0 {
        store.stats.reload_delta += 1;
    } else {
        store.stats.reload_full += 1;
    }
    // Re-point the session in place: same id, new digest. The old
    // digest's dedupe mapping dies with the edit (unless some other
    // session owns it); the new digest maps here unless a session
    // already owns it — dedupe never steals.
    if store.by_digest.get(&old.digest) == Some(&old.id) {
        store.by_digest.remove(&old.digest);
    }
    store.by_digest.entry(digest).or_insert(old.id);
    store.sessions.insert(old.id, Arc::clone(&session));
    store.touch(old.id);
    Response::from_text(&format!("{}\n{}", session.load_line(), summary))
}

fn cmd_analyze(state: &Arc<ServerState>, rest: &str) -> Response {
    if rest.is_empty() || rest.split_whitespace().count() != 1 {
        return Response::err("ANALYZE takes exactly one session id");
    }
    let session = match state.session(rest) {
        Ok(s) => s,
        Err(e) => return e,
    };
    state.store().stats.analyze_served += 1;
    Response::from_text(&session.analysis_text)
}

fn cmd_eval(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, rest) = first_word(rest);
    let (point_text, formula_text) = first_word(rest);
    if formula_text.is_empty() {
        return Response::err("EVAL takes <session-id> <run:time|time> <formula>");
    }
    let session = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let memo_key = format!("{point_text} {formula_text}");
    if let Some(hit) = session
        .eval_memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&memo_key)
        .cloned()
    {
        let mut store = state.store();
        store.stats.eval_served += 1;
        store.stats.eval_warm += 1;
        return hit;
    }

    let resp = eval_response(&session, point_text, formula_text);
    session
        .eval_memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(memo_key, resp.clone());
    state.store().stats.eval_served += 1;
    resp
}

/// Evaluates one formula at one point of the session's system, using a
/// thread-local [`Semantics`] over a clone of the prewarmed cache (the
/// clone shares every memoized set by `Arc`, so this is the warm path).
fn eval_response(session: &Session, point_text: &str, formula_text: &str) -> Response {
    let Some(system) = &session.system else {
        return Response::err(format!(
            "session {} has no executable run: {}",
            session.id, session.no_system
        ));
    };
    let (run_text, time_text) = match point_text.split_once(':') {
        Some((r, k)) => (r, k),
        None => ("0", point_text),
    };
    let ri: usize = match run_text.parse() {
        Ok(r) => r,
        Err(e) => return Response::err(format!("bad run index {run_text:?}: {e}")),
    };
    let k: i64 = match time_text.parse() {
        Ok(k) => k,
        Err(e) => return Response::err(format!("bad time {time_text:?}: {e}")),
    };
    let phi = match parse_formula(formula_text, &session.syms) {
        Ok(f) => f,
        Err(e) => return Response::err(e.diagnostic("<formula>")),
    };
    let sem = Semantics::new_shared(
        system,
        session.goods.clone(),
        Rc::new(RefCell::new(session.warmed.clone())),
    );
    match sem.eval(Point::new(ri, k), &phi) {
        Ok(verdict) => Response::from_text(&verdict_line(Point::new(ri, k), &phi, verdict)),
        Err(e) => Response::err(e.to_string()),
    }
}

fn cmd_inject(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, flags_text) = first_word(rest);
    if id_text.is_empty() {
        return Response::err("INJECT takes <session-id> [fault-flags]");
    }
    let session = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    if let Some(hit) = session
        .inject_memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(flags_text)
        .cloned()
    {
        let mut store = state.store();
        store.stats.inject_served += 1;
        store.stats.inject_warm += 1;
        return hit;
    }

    let (resp, exec_hit) = match inject_request(flags_text) {
        Err(msg) => (Response::err(msg), false),
        Ok(req) => match inject_report(&session.at, &req, &state.pool, &state.exec_cache) {
            Ok(outcome) => (Response::from_text(&outcome.report), outcome.cache_hit),
            Err(e) => (Response::err(e.to_string()), false),
        },
    };
    session
        .inject_memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(flags_text.to_string(), resp.clone());
    let mut store = state.store();
    store.stats.inject_served += 1;
    if exec_hit {
        store.stats.inject_exec_hits += 1;
    }
    resp
}

/// Reads `INJECT`'s flags: the fault flags of `atl inject`, through the
/// same parser, so both answer a bad flag with the same text. INJECT
/// takes nothing else.
fn inject_request(flags: &str) -> Result<InjectRequest, String> {
    PlanFlags::parse(flags.split_whitespace(), |flag, _| {
        Err(format!(
            "unknown inject flag {flag:?} (serve-mode inject takes single-plan fault flags)"
        ))
    })
    .and_then(|flags| flags.request())
}

/// `SWEEP <id> [context=<c>] policy=<p> options=<o> plans=<plan>;<plan>;…`
/// — the worker half of the distributed fabric. A shard naming an
/// execution context other than the session's (a worker serving another
/// spec than the coordinator's) is refused with `ERR context mismatch`.
/// The shard executes through the same [`sweep_plans_in`] path as a
/// local sweep, against the server-global [`ExecutionCache`], so
/// repeated fingerprints across shards, sweeps, and sessions cost
/// nothing; the response returns one wire-rendered outcome per plan, in
/// request order, keyed by fingerprint digest.
fn cmd_sweep(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, rest) = first_word(rest);
    if id_text.is_empty() {
        return Response::err("SWEEP takes <session-id> policy=<p> options=<o> plans=<plans>");
    }
    let session = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let (asked, policy, options, plans) = match parse_sweep_request(rest) {
        Ok(request) => request,
        Err(msg) => return Response::err(msg),
    };
    let proto = enact_with(
        &session.at,
        EnactOptions {
            expect_policy: policy,
        },
    );
    let context = execution_context_digest(&proto, &options);
    if let Some(asked) = asked.filter(|&asked| asked != context) {
        return Response::err(format!(
            "{CONTEXT_MISMATCH}: the shard names context {asked:016x}, session {} executes {context:016x}",
            session.id
        ));
    }
    let outcome = sweep_plans_in(
        context,
        &proto,
        &options,
        &plans,
        &state.pool,
        &state.exec_cache,
    );
    let lines = render_sweep_response(&outcome.results);
    let mut store = state.store();
    store.stats.sweep_served += 1;
    store.stats.sweep_plans += plans.len() as u64;
    store.stats.sweep_exec_hits += outcome.stats.cache_hits as u64;
    Response { ok: true, lines }
}

/// `HUNT <id> [seed=N] [budget=N] [batch=N]` — run the coverage-guided
/// attack search (`crate::hunt`) against a warmed session. The fuzzer's
/// mutation space is derived from the session's protocol keys
/// ([`default_space`]), executions ride the server-global
/// [`ExecutionCache`] (so a repeated `HUNT`, or one overlapping a
/// `SWEEP`, re-executes nothing it has already seen), and the response
/// is the deterministic report `atl hunt` would print for the same
/// seed and budget.
fn cmd_hunt(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, rest) = first_word(rest);
    if id_text.is_empty() {
        return Response::err("HUNT takes <session-id> [seed=N] [budget=N] [batch=N]");
    }
    let session = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    // `atl hunt`'s `--seed`/`--budget`/`--batch`, from the same defaults.
    let mut settings = HuntSettings::default();
    settings.config.space = default_space(&session.at);
    for token in rest.split_whitespace() {
        let Some((field, value)) = token.split_once('=') else {
            return Response::err(format!("bad HUNT field {token:?}"));
        };
        let config = &mut settings.config;
        let parsed = match field {
            "seed" => value
                .parse()
                .map(|v| config.seed = v)
                .map_err(|e| e.to_string()),
            "budget" => value
                .parse()
                .map(|v| config.budget = v)
                .map_err(|e| e.to_string()),
            "batch" => value
                .parse()
                .map(|v: usize| config.batch = v.max(1))
                .map_err(|e| e.to_string()),
            other => Err(format!("unknown HUNT field {other:?}")),
        };
        if let Err(msg) = parsed {
            return Response::err(format!("bad HUNT {field}: {msg}"));
        }
    }
    let report = hunt_report(&session.at, &settings, &state.pool, &state.exec_cache, None);
    let (executed, classes) = (
        report.outcome.stats.executed as u64,
        report.outcome.classes.len() as u64,
    );
    let response = Response::from_text(&report.to_string());
    let mut store = state.store();
    store.stats.hunts_served += 1;
    store.stats.hunt_plans += executed;
    store.stats.hunt_classes += classes;
    response
}

/// `MONITOR <formula>[;<formula>...]` — open a streaming monitor
/// session watching the given formulas. Replies `monitor <id>: watching
/// <n> formula(s)`; subsequent `EVENT <id> <line>` requests feed the
/// run one trace line at a time.
fn cmd_monitor(state: &Arc<ServerState>, rest: &str) -> Response {
    let texts: Vec<String> = rest
        .split(';')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect();
    if texts.is_empty() {
        return Response::err("MONITOR takes <formula>[;<formula>...]");
    }
    let id = {
        let mut monitors = state.monitors();
        let id = monitors.next_id.max(1);
        monitors.next_id = id + 1;
        id
    };
    let monitor = match Monitor::new(format!("monitor-{id}"), texts) {
        Ok(m) => m,
        Err(e) => return Response::err(e.diagnostic("monitor")),
    };
    let count = monitor.formula_count();
    // Checkpointed before any EVENT can reach it, so no later
    // checkpoint of this monitor is ever overwritten by this one.
    persist_monitor(state, id, &monitor);
    state
        .monitors()
        .sessions
        .insert(id, Arc::new(Mutex::new(monitor)));
    state.store().stats.monitors += 1;
    Response::from_text(&format!("monitor {id}: watching {count} formula(s)"))
}

/// `EVENT <id> <trace line>` — extend monitor `<id>` by one trace line.
/// Replies with the monitor's output for that line: verdict lines in
/// the exact `atl eval` format for events, a pre-epoch marker before
/// time 0, and nothing for directives.
fn cmd_event(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, line) = match rest.split_once(char::is_whitespace) {
        Some((id, line)) => (id, line),
        None => (rest, ""),
    };
    if id_text.is_empty() {
        return Response::err("EVENT takes <monitor-id> <trace line>");
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::err(format!("bad monitor id {id_text:?}"));
    };
    let Some(monitor) = state.monitors().sessions.get(&id).map(Arc::clone) else {
        return Response::err(format!("no monitor {id}"));
    };
    let mut guard = monitor.lock().unwrap_or_else(PoisonError::into_inner);
    let before = guard.stats();
    let outcome = guard.feed_line(line, &state.pool);
    let after = guard.stats();
    // Checkpointed under the monitor's lock, so checkpoints land in the
    // order events were acknowledged and the file always holds the
    // latest one.
    if outcome.is_ok() {
        persist_monitor(state, id, &guard);
    }
    drop(guard);
    record_monitor_delta(state, before, after);
    match outcome {
        Ok(lines) => Response { ok: true, lines },
        Err(e) => Response::err(e.diagnostic("event")),
    }
}

/// Fold the stats delta from one `feed_line` call into [`ServeStats`],
/// so `STATS` and `METRICS` aggregate across all monitor sessions.
fn record_monitor_delta(state: &Arc<ServerState>, before: MonitorStats, after: MonitorStats) {
    let mut store = state.store();
    store.stats.monitor_events += (after.events - before.events) as u64;
    store.stats.monitor_points_reused += (after.points_reused - before.points_reused) as u64;
    store.stats.monitor_delta += (after.delta_saturations - before.delta_saturations) as u64;
    store.stats.monitor_full += (after.full_saturations - before.full_saturations) as u64;
}

/// Checkpoint one monitor as the store frame `monitor-<id>`, keyed by
/// its id. A persistence failure never fails the request: the monitor
/// stays correct in memory and the next event retries the write.
fn persist_monitor(state: &ServerState, id: u64, monitor: &Monitor) {
    if let Some(store) = &state.monitor_store {
        let body = checkpoint_body(&monitor.checkpoint(id));
        let _ = store.write(
            &format!("monitor-{id}"),
            CHECKPOINT_HEADER,
            &id.to_string(),
            &body,
        );
    }
}

/// Replay every checkpoint in the store at startup, so monitor sessions
/// survive a daemon restart. An invalid checkpoint is deleted by the
/// store's read, and one whose trace no longer replays is skipped: a bad
/// file must not stop the server from coming up.
fn resume_monitors(state: &Arc<ServerState>, store: &FrameStore) {
    for name in store.list("monitor-", "") {
        let Some(id) = name
            .strip_prefix("monitor-")
            .and_then(|id| id.parse::<u64>().ok())
        else {
            continue;
        };
        let Some(cp) = store.read(&name, CHECKPOINT_HEADER, &id.to_string(), |body| {
            parse_checkpoint_body(id, body).ok()
        }) else {
            continue;
        };
        let Ok(monitor) = Monitor::resume(&cp, &state.pool) else {
            continue;
        };
        state.store().stats.monitors += 1;
        record_monitor_delta(state, MonitorStats::default(), monitor.stats());
        let mut monitors = state.monitors();
        monitors.sessions.insert(id, Arc::new(Mutex::new(monitor)));
        monitors.next_id = monitors.next_id.max(id + 1);
    }
}

fn cmd_stats(state: &Arc<ServerState>) -> Response {
    let store = state.store();
    let s = store.stats;
    let census = store.census();
    let execs = state.exec_cache.len();
    let text = format!(
        "sessions: {} live, capacity {}\n\
         loads: {} total, {} parsed, {} cache hit(s), {} eviction(s)\n\
         reloads: {} total, {} delta, {} full\n\
         analyze: {} served\n\
         eval: {} served, {} warm\n\
         inject: {} served, {} warm, {} exec-cache hit(s)\n\
         sweep: {} shard(s) served, {} plan(s)\n\
         hunt: {} hunt(s) served, {} plan(s), {} class(es)\n\
         monitor: {} session(s), {} event(s), {} point(s) reused, {} delta, {} full\n\
         connections: {} reaped\n\
         warmed: {} hidden state(s), {} frozen message(s), {} cached execution(s)",
        census.live,
        state.max_sessions,
        s.loads,
        s.parsed,
        s.load_hits,
        s.evictions,
        s.reloads,
        s.reload_delta,
        s.reload_full,
        s.analyze_served,
        s.eval_served,
        s.eval_warm,
        s.inject_served,
        s.inject_warm,
        s.inject_exec_hits,
        s.sweep_served,
        s.sweep_plans,
        s.hunts_served,
        s.hunt_plans,
        s.hunt_classes,
        state.monitors().sessions.len(),
        s.monitor_events,
        s.monitor_points_reused,
        s.monitor_delta,
        s.monitor_full,
        s.reaped,
        census.hidden,
        census.frozen,
        execs
    );
    Response::from_text(&text)
}

/// `METRICS` — Prometheus-style text exposition from `crate::metrics`:
/// per-verb request counters and latency histograms, queue/worker
/// gauges with peaks, backpressure counters, and the session/cache
/// counters `STATS` reports in fixed text, re-exposed as scrapeable
/// series. Counter totals and `STATS` never disagree: both read the
/// same [`ServeStats`] under the store lock.
fn cmd_metrics(state: &Arc<ServerState>) -> Response {
    let (stats, census) = {
        let store = state.store();
        (store.stats, store.census())
    };
    let extras = [
        ExtraMetric {
            name: "atl_serve_sessions_live",
            help: "Warmed sessions currently resident.",
            kind: MetricKind::Gauge,
            value: census.live as u64,
        },
        ExtraMetric {
            name: "atl_serve_session_capacity",
            help: "Session capacity before LRU eviction.",
            kind: MetricKind::Gauge,
            value: state.max_sessions as u64,
        },
        ExtraMetric {
            name: "atl_serve_connection_workers",
            help: "Fixed connection worker threads (the concurrency bound).",
            kind: MetricKind::Gauge,
            value: state.conn_workers as u64,
        },
        ExtraMetric {
            name: "atl_serve_queue_capacity",
            help: "Accept-queue depth before overflow is answered ERR busy.",
            kind: MetricKind::Gauge,
            value: state.queue.capacity as u64,
        },
        ExtraMetric {
            name: "atl_serve_inflight_requests",
            help: "Requests currently dispatching or writing.",
            kind: MetricKind::Gauge,
            value: state.active.load(Ordering::SeqCst) as u64,
        },
        ExtraMetric {
            name: "atl_serve_sessions_evicted_total",
            help: "Sessions evicted by the LRU policy.",
            kind: MetricKind::Counter,
            value: stats.evictions,
        },
        ExtraMetric {
            name: "atl_serve_load_cache_hits_total",
            help: "LOADs answered by an existing session.",
            kind: MetricKind::Counter,
            value: stats.load_hits,
        },
        ExtraMetric {
            name: "atl_serve_eval_warm_total",
            help: "EVALs answered from the per-session memo.",
            kind: MetricKind::Counter,
            value: stats.eval_warm,
        },
        ExtraMetric {
            name: "atl_serve_inject_warm_total",
            help: "INJECTs answered from the per-session memo.",
            kind: MetricKind::Counter,
            value: stats.inject_warm,
        },
        ExtraMetric {
            name: "atl_serve_exec_cache_entries",
            help: "Entries resident in the global execution cache.",
            kind: MetricKind::Gauge,
            value: state.exec_cache.len() as u64,
        },
        ExtraMetric {
            name: "atl_serve_exec_cache_evictions_total",
            help: "Entries evicted from the bounded global execution cache.",
            kind: MetricKind::Counter,
            value: state.exec_cache.evictions(),
        },
        ExtraMetric {
            name: "atl_serve_exec_cache_hits_total",
            help: "INJECT and SWEEP executions answered by the global execution cache.",
            kind: MetricKind::Counter,
            value: stats.inject_exec_hits + stats.sweep_exec_hits,
        },
        ExtraMetric {
            name: "atl_serve_sweep_plans_total",
            help: "Fault plans received across all SWEEP shards.",
            kind: MetricKind::Counter,
            value: stats.sweep_plans,
        },
        ExtraMetric {
            name: "atl_serve_hunts_total",
            help: "HUNT requests served.",
            kind: MetricKind::Counter,
            value: stats.hunts_served,
        },
        ExtraMetric {
            name: "atl_serve_hunt_plans_total",
            help: "Fault-plan executions spent across all HUNT requests.",
            kind: MetricKind::Counter,
            value: stats.hunt_plans,
        },
        ExtraMetric {
            name: "atl_serve_hunt_classes_total",
            help: "Distinct degradation classes reported across all HUNT requests.",
            kind: MetricKind::Counter,
            value: stats.hunt_classes,
        },
        ExtraMetric {
            name: "atl_serve_reaped_total",
            help: "Connections closed for sitting idle past the timeout.",
            kind: MetricKind::Counter,
            value: stats.reaped,
        },
        ExtraMetric {
            name: "atl_serve_reloads_total",
            help: "RELOAD requests that re-pointed a session.",
            kind: MetricKind::Counter,
            value: stats.reloads,
        },
        ExtraMetric {
            name: "atl_serve_reload_delta_total",
            help: "RELOADs that reused at least one stage or cache from the prior session.",
            kind: MetricKind::Counter,
            value: stats.reload_delta,
        },
        ExtraMetric {
            name: "atl_serve_reload_full_total",
            help: "RELOADs that could reuse nothing and rebuilt everything.",
            kind: MetricKind::Counter,
            value: stats.reload_full,
        },
        ExtraMetric {
            name: "atl_serve_sessions_with_lineage",
            help: "Live sessions currently re-pointed from a parent spec digest.",
            kind: MetricKind::Gauge,
            value: census.lineage as u64,
        },
        ExtraMetric {
            name: "atl_serve_warmed_hidden_states",
            help: "Hidden-state entries across all warmed eval caches.",
            kind: MetricKind::Gauge,
            value: census.hidden as u64,
        },
        ExtraMetric {
            name: "atl_serve_warmed_frozen_messages",
            help: "Frozen interner messages across all warmed eval caches.",
            kind: MetricKind::Gauge,
            value: census.frozen as u64,
        },
        ExtraMetric {
            name: "atl_serve_monitors_live",
            help: "Monitor sessions currently resident.",
            kind: MetricKind::Gauge,
            value: state.monitors().sessions.len() as u64,
        },
        ExtraMetric {
            name: "atl_serve_monitors_total",
            help: "Monitor sessions opened (MONITOR requests plus resumed checkpoints).",
            kind: MetricKind::Counter,
            value: stats.monitors,
        },
        ExtraMetric {
            name: "atl_serve_monitor_events_total",
            help: "Trace events ingested across all monitor sessions.",
            kind: MetricKind::Counter,
            value: stats.monitor_events,
        },
        ExtraMetric {
            name: "atl_serve_monitor_points_reused_total",
            help: "Memoized point sets carried over by incremental monitor extensions.",
            kind: MetricKind::Counter,
            value: stats.monitor_points_reused,
        },
        ExtraMetric {
            name: "atl_serve_monitor_delta_saturations_total",
            help: "Monitor events served by the incremental delta path.",
            kind: MetricKind::Counter,
            value: stats.monitor_delta,
        },
        ExtraMetric {
            name: "atl_serve_monitor_full_saturations_total",
            help: "Monitor events that required a full prefix build and prewarm.",
            kind: MetricKind::Counter,
            value: stats.monitor_full,
        },
    ];
    Response::from_text(&state.metrics.render(&extras))
}

fn cmd_shutdown(state: &Arc<ServerState>) -> Response {
    state.shutdown.store(true, Ordering::SeqCst);
    // Wake the accept loop with a throwaway connection so it observes
    // the flag and exits.
    let _ = TcpStream::connect(state.addr);
    Response::from_text("bye")
}

/// A minimal blocking client for the wire protocol — the `testutil`
/// side of the conformance harness, and what `atl client` wraps.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Connects with a bounded connect timeout — the fabric coordinator
    /// uses this so a dead worker address fails fast instead of hanging
    /// in the OS connect queue.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect, including `TimedOut`.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Bounds how long any single read on this connection may block
    /// (`None` restores blocking reads). With a timeout set, a hung
    /// daemon surfaces as a `WouldBlock`/`TimedOut` request error the
    /// coordinator can treat as a shard failure.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the socket option.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line and reads the response.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on transport failure or an unparseable response
    /// header (`InvalidData`).
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        let mut msg = line.to_string();
        msg.push('\n');
        self.reader.get_mut().write_all(msg.as_bytes())?;
        let mut header = String::new();
        if self.reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let header = header.trim_end_matches(['\n', '\r']);
        if let Some(msg) = header.strip_prefix("ERR ") {
            return Ok(Response::err(msg));
        }
        let Some(count) = header
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response header {header:?}"),
            ));
        };
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed mid-payload",
                ));
            }
            while l.ends_with('\n') || l.ends_with('\r') {
                l.pop();
            }
            lines.push(l);
        }
        Ok(Response { ok: true, lines })
    }

    /// `LOAD`s a spec and returns the session id.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the daemon said `ERR` or
    /// the payload carried no session id.
    pub fn load(&mut self, path: &str) -> io::Result<u64> {
        let resp = self.request(&format!("LOAD {path}"))?;
        resp.session_id().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                resp.err_message().unwrap_or("no session id").to_string(),
            )
        })
    }

    /// `RELOAD`s a session from an edited spec and returns the full
    /// response (load line plus the reuse summary line).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the daemon said `ERR`.
    pub fn reload(&mut self, id: u64, path: &str) -> io::Result<Response> {
        let resp = self.request(&format!("RELOAD {id} {path}"))?;
        if let Some(msg) = resp.err_message() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()));
        }
        Ok(resp)
    }

    /// Sends `SHUTDOWN`.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request("SHUTDOWN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Key;
    use atl_model::wire::{render_exec_options, render_policy};
    use atl_model::{ExpectPolicy, PlanFingerprint};

    fn start_test_server(max_sessions: usize) -> Server {
        Server::start(ServeConfig {
            port: 0,
            max_sessions,
            pool: Pool::new(1),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port")
    }

    fn spec_file(name: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("atl-serve-unit-{}-{name}.atl", std::process::id()));
        std::fs::write(&path, content).expect("write temp spec");
        path
    }

    const TOY: &str = "protocol toy\n\
        principals A B\n\
        keys Kab\n\
        assume A believes (A <-Kab-> B)\n\
        assume A has Kab\n\
        assume B has Kab\n\
        step A -> B : {Na}Kab@A\n\
        goal B sees {Na}Kab@A\n";

    #[test]
    fn response_framing_round_trips() {
        let ok = Response::from_text("a\nb\n");
        assert_eq!(ok.lines, vec!["a", "b"]);
        assert_eq!(ok.payload(), "a\nb\n");
        let err = Response::err("multi\nline\rmessage");
        assert_eq!(err.err_message(), Some("multi line message"));
        let mut buf = Vec::new();
        ok.write_to(&mut buf).expect("write");
        assert_eq!(buf, b"OK 2\na\nb\n");
        buf.clear();
        err.write_to(&mut buf).expect("write");
        assert_eq!(buf, b"ERR multi line message\n");
    }

    #[test]
    fn session_id_parses_from_load_line() {
        let resp = Response::from_text("session 12: protocol toy (1 assumption(s), …)");
        assert_eq!(resp.session_id(), Some(12));
        assert_eq!(Response::err("nope").session_id(), None);
    }

    #[test]
    fn plan_flags_parse_like_the_cli() {
        let req = inject_request("--seed 9 --drop 0.5 --delay 0.25:3 --compromise Kab@2")
            .expect("valid flags");
        assert_eq!(req.plan.seed, 9);
        assert_eq!(req.plan.compromises, vec![(Key::new("Kab"), 2)]);
        assert!(inject_request("--sweep").is_err());
        assert!(inject_request("--drop").is_err());
        assert!(inject_request("--drop nan-ish").is_err());
    }

    #[test]
    fn inject_flag_errors_name_the_flag() {
        for (flags, message) in [
            ("--seed x", "--seed: invalid digit found in string"),
            ("--drop x", "--drop: invalid float literal"),
            (
                "--drop 0.5,0.6",
                "--drop lists multiple steps; use --sweep to grid them",
            ),
            (
                "--delay 0.5:x",
                "--delay rounds: invalid digit found in string",
            ),
            (
                "--compromise Kab",
                "--compromise takes KEY@TIME, e.g. Kab@2",
            ),
            (
                "--compromise Kab@x",
                "--compromise time: invalid digit found in string",
            ),
            ("--patience -1", "--patience: invalid digit found in string"),
            ("--retries", "--retries needs a value"),
            (
                "--seed 1 --emit-trace x",
                "unknown inject flag \"--emit-trace\" (serve-mode inject takes single-plan fault flags)",
            ),
        ] {
            assert_eq!(inject_request(flags).map(|_| ()), Err(message.into()));
        }
    }

    #[test]
    fn unknown_commands_and_bad_ids_yield_err() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        for req in [
            "FROBNICATE",
            "",
            "ANALYZE",
            "ANALYZE 999",
            "ANALYZE not-a-number",
            "EVAL 1",
            "INJECT",
            "STATS please",
            "LOAD",
        ] {
            let resp = c.request(req).expect("parseable response");
            assert!(!resp.ok, "request {req:?} must fail, got {resp:?}");
        }
        c.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn lru_eviction_recycles_oldest_session() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let specs: Vec<std::path::PathBuf> = (0..3)
            .map(|i| {
                // Distinct *canonical* content per variant — a comment
                // suffix would now dedupe to one session.
                let variant = TOY.replace("protocol toy", &format!("protocol toy{i}"));
                spec_file(&format!("lru{i}"), &variant)
            })
            .collect();
        let a = c
            .load(specs[0].to_str().expect("utf8 path"))
            .expect("load a");
        let b = c
            .load(specs[1].to_str().expect("utf8 path"))
            .expect("load b");
        // Touch a so b is the LRU victim.
        assert!(c.request(&format!("ANALYZE {a}")).expect("analyze").ok);
        let _c3 = c
            .load(specs[2].to_str().expect("utf8 path"))
            .expect("load c");
        let stats = server.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.parsed, 3);
        let gone = c.request(&format!("ANALYZE {b}")).expect("response");
        assert!(!gone.ok, "evicted session must be unknown");
        assert!(c.request(&format!("ANALYZE {a}")).expect("analyze").ok);
        c.shutdown().expect("shutdown");
        server.join();
        for p in specs {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn sweep_shard_returns_wire_outcomes_matching_local_execution() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let spec = spec_file("sweep", TOY);
        let id = c.load(spec.to_str().expect("utf8 path")).expect("load");
        let plans = [FaultPlan::new(0), FaultPlan::new(1).drop(1.0)];
        let (content, _) = parse_spec(TOY).expect("spec parses");
        let proto = enact_with(
            &content,
            EnactOptions {
                expect_policy: ExpectPolicy::skip_after(3),
            },
        );
        let context = execution_context_digest(&proto, &ExecOptions::default());
        let request = |context: u64| {
            format!(
                "SWEEP {id} context={context:016x} policy={} options={} plans={};{}",
                render_policy(&ExpectPolicy::skip_after(3)),
                render_exec_options(&ExecOptions::default()),
                atl_model::wire::render_plan(&plans[0]),
                atl_model::wire::render_plan(&plans[1]),
            )
        };
        // A shard keyed to another protocol's context is refused, not
        // executed against this session's protocol.
        let other = request(context ^ 1);
        let refused = c.request(&other).expect("refusal");
        assert_eq!(
            refused.err_message(),
            Some(
                format!(
                    "context mismatch: the shard names context {:016x}, session {id} executes {context:016x}",
                    context ^ 1
                )
                .as_str()
            )
        );
        let resp = c.request(&request(context)).expect("sweep");
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.lines[0], "plans 2");
        // Decode both outcomes and check them against direct local
        // execution under the same policy and options.
        let mut cursor = 1;
        for plan in &plans {
            let header = &resp.lines[cursor];
            let n: usize = header
                .rsplit_once("lines=")
                .and_then(|(_, n)| n.parse().ok())
                .expect("outcome header");
            let fp = PlanFingerprint::of(plan);
            assert!(
                header.contains(&format!("fp={:016x}", fp.digest())),
                "{header}"
            );
            let body = resp.lines[cursor + 1..cursor + 1 + n].join("\n") + "\n";
            let outcome = atl_model::wire::parse_outcome(&body).expect("outcome parses");
            let direct = execute_with_faults(&proto, &ExecOptions::default(), plan);
            assert_eq!(outcome, direct);
            cursor += 1 + n;
        }
        assert_eq!(cursor, resp.lines.len());
        // Bad shards fail cleanly.
        for bad in [
            format!("SWEEP {id}"),
            format!("SWEEP {id} policy=3:skip options=0:0:- plans="),
            format!("SWEEP {id} policy=3:skip plans=seed=0"),
            format!("SWEEP {id} policy=3:skip options=0:0:- plans=garbage"),
        ] {
            assert!(!c.request(&bad).expect("response").ok, "{bad:?}");
        }
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(spec);
    }

    #[test]
    fn idle_connections_are_reaped_and_counted() {
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 2,
            pool: Pool::new(1),
            idle_timeout: Some(Duration::from_millis(80)),
            ..ServeConfig::default()
        })
        .expect("bind");
        // A half-open client: connects, never sends.
        let idle = TcpStream::connect(server.addr()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().reaped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().reaped, 1, "idle connection was not reaped");
        // The daemon stays healthy and STATS surfaces the count.
        let mut c = Client::connect(server.addr()).expect("connect");
        let stats = c.request("STATS").expect("stats");
        assert!(stats.lines.iter().any(|l| l == "connections: 1 reaped"));
        drop(idle);
        c.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn shutdown_drains_inflight_requests_before_join_returns() {
        let server = start_test_server(2);
        // Simulate an in-flight request: the accept loop must wait for
        // it even after SHUTDOWN, because `active` brackets dispatch and
        // response write.
        server.state.active.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&server.state);
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            state.active.fetch_sub(1, Ordering::SeqCst);
        });
        let mut c = Client::connect(server.addr()).expect("connect");
        c.shutdown().expect("shutdown");
        let started = Instant::now();
        server.join();
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "join returned before the in-flight request finished"
        );
        release.join().expect("release thread");
    }

    #[test]
    fn drain_deadline_bounds_shutdown_wait() {
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 2,
            pool: Pool::new(1),
            drain_deadline: Duration::from_millis(120),
            ..ServeConfig::default()
        })
        .expect("bind");
        // A request that never finishes must not hold shutdown hostage.
        server.state.active.fetch_add(1, Ordering::SeqCst);
        let mut c = Client::connect(server.addr()).expect("connect");
        c.shutdown().expect("shutdown");
        let started = Instant::now();
        server.join();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "drain deadline did not bound the shutdown wait"
        );
    }

    #[test]
    fn oversized_request_line_is_drained_and_connection_stays_usable() {
        let server = start_test_server(2);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Pipelined in one write: an oversized junk line followed by a
        // valid STATS. The daemon must drain the junk through its
        // newline so STATS parses from a line boundary, not mid-payload.
        let mut payload = vec![b'x'; MAX_REQUEST_BYTES + 10];
        payload.extend_from_slice(b"\nSTATS\n");
        stream.write_all(&payload).expect("write oversized + STATS");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.starts_with("ERR "), "got {reply:?}");
        reply.clear();
        reader.read_line(&mut reply).expect("read follow-up header");
        assert!(
            reply.starts_with("OK "),
            "pipelined follow-up must parse, got {reply:?}"
        );
        // A junk line with no newline at all must close once the drain
        // budget runs out rather than pinning a worker forever. The
        // payload overshoots the worst-case legal consumption (request
        // cap + drain budget + buffered chunks) so the server must give
        // up mid-stream; the reply may then be the framed ERR or a
        // reset from the close racing our writes — the bug being tested
        // for is the read timing out because the worker stayed pinned.
        drop(reader);
        drop(stream);
        let unbounded = TcpStream::connect(server.addr()).expect("connect");
        unbounded
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let endless = vec![b'y'; MAX_DRAIN_BYTES + 4 * MAX_REQUEST_BYTES];
        let mut w = unbounded.try_clone().expect("clone");
        let _ = w.write_all(&endless);
        let mut reply = String::new();
        match BufReader::new(&unbounded).read_line(&mut reply) {
            Ok(0) => {}
            Ok(_) => assert!(reply.starts_with("ERR "), "got {reply:?}"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "worker stayed pinned on an unbounded junk line: {e}"
            ),
        }
        // The daemon is still healthy for new connections.
        let mut c = Client::connect(server.addr()).expect("connect again");
        assert!(c.request("STATS").expect("stats").ok);
        c.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn connection_accepted_during_shutdown_gets_framed_error() {
        let server = start_test_server(2);
        // Force the race deterministically: raise the shutdown flag
        // before the accept loop sees the connection, so the
        // accepted-after-shutdown branch must answer with a framed ERR
        // rather than silently dropping the socket.
        server.state.shutdown.store(true, Ordering::SeqCst);
        // The refusal is written on accept, before any request arrives —
        // so the client only reads (writing first could race the
        // server-side close into an RST that clobbers the reply).
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("read reply");
        assert_eq!(reply.trim_end(), "ERR shutting down", "got {reply:?}");
        assert_eq!(server.state.metrics.shutdown_refused_total(), 1);
        server.join();
    }

    #[test]
    fn racing_clients_against_shutdown_never_see_silent_drop() {
        // Fire connection attempts while SHUTDOWN lands. Every client
        // that gets a connection and writes a request must either read a
        // framed response line or hit a transport error — never a clean
        // EOF with zero response bytes (the old silently-dropped-socket
        // bug).
        let server = start_test_server(2);
        let addr = server.addr();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || -> Option<bool> {
                    let mut stream = TcpStream::connect(addr).ok()?;
                    stream.write_all(b"STATS\n").ok()?;
                    let mut reply = String::new();
                    match BufReader::new(&stream).read_line(&mut reply) {
                        Ok(0) => Some(false), // clean EOF, no bytes: the bug
                        Ok(_) => Some(reply.starts_with("OK ") || reply.starts_with("ERR ")),
                        Err(_) => None, // RST mid-handshake: acceptable
                    }
                })
            })
            .collect();
        let mut c = Client::connect(addr).expect("connect");
        c.shutdown().expect("shutdown");
        server.join();
        for client in clients {
            if let Some(framed) = client.join().expect("client thread") {
                assert!(framed, "a racing client saw a silent drop");
            }
        }
    }

    #[test]
    fn accept_queue_gauge_holds_its_invariants_under_contention() {
        // Many pushers and poppers race on a small queue while a sampler
        // scrapes the gauge. Invariants: depth never exceeds capacity
        // (a wrapped gauge would read ~1.8e19), the peak stays within
        // capacity, and the gauge is zero once the queue is at rest.
        const CAPACITY: usize = 3;
        const PUSHERS: usize = 6;
        const PUSHES: usize = 300;
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let seed = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let queue = AcceptQueue::new(CAPACITY);
        let metrics = ServeMetrics::new();
        let done = AtomicBool::new(false);
        let (queue, metrics, done, seed) = (&queue, &metrics, &done, &seed);
        let (popped, refused) = std::thread::scope(|s| {
            let poppers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut n = 0usize;
                        while queue.pop(metrics).is_some() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            let sampler = s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let depth = metrics.queue_depth();
                    assert!(depth <= CAPACITY as u64, "gauge read {depth}");
                }
            });
            let pushers: Vec<_> = (0..PUSHERS)
                .map(|_| {
                    s.spawn(move || {
                        let mut refused = 0usize;
                        for _ in 0..PUSHES {
                            let stream = seed.try_clone().expect("clone stream");
                            if queue.push(stream, metrics).is_err() {
                                refused += 1;
                            }
                        }
                        refused
                    })
                })
                .collect();
            let refused: usize = pushers.into_iter().map(|h| h.join().expect("pusher")).sum();
            let leftover = queue.close(metrics).len();
            let popped: usize = poppers.into_iter().map(|h| h.join().expect("popper")).sum();
            done.store(true, Ordering::SeqCst);
            sampler.join().expect("sampler");
            (popped + leftover, refused)
        });
        assert_eq!(
            popped + refused,
            PUSHERS * PUSHES,
            "every push accounted for"
        );
        assert_eq!(metrics.queue_depth(), 0, "zero at rest");
        assert!(metrics.queue_depth_peak() <= CAPACITY as u64);
        assert!(metrics.queue_depth_peak() >= 1);
    }

    #[test]
    fn full_accept_queue_answers_busy() {
        // One worker, queue depth 1. Occupy the worker with a held-open
        // connection mid-request cadence, fill the queue, then overflow.
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 2,
            pool: Pool::new(1),
            conn_workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut occupant = Client::connect(server.addr()).expect("occupy worker");
        assert!(occupant.request("STATS").expect("stats").ok);
        // The occupant keeps its connection open, so the single worker
        // stays parked in read_request for this connection.
        let queued = TcpStream::connect(server.addr()).expect("fills queue");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_busy = false;
        while Instant::now() < deadline && !saw_busy {
            let overflow = TcpStream::connect(server.addr()).expect("overflow connect");
            let mut reply = String::new();
            // A rejected connection gets one line and a close; a queued
            // one would block, so bound the read.
            overflow
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            match BufReader::new(&overflow).read_line(&mut reply) {
                Ok(n) if n > 0 && reply.trim_end() == "ERR busy" => saw_busy = true,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        assert!(saw_busy, "overflow connection was never answered ERR busy");
        assert!(
            server.state.metrics.rejected_total() >= 1,
            "rejection must be counted"
        );
        drop(queued);
        occupant.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn resent_sweep_shard_counts_per_execution_and_hits_global_cache() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let spec = spec_file("resent", TOY);
        let id = c.load(spec.to_str().expect("utf8 path")).expect("load");
        let request = format!(
            "SWEEP {id} policy={} options={} plans={};{}",
            render_policy(&ExpectPolicy::skip_after(3)),
            render_exec_options(&ExecOptions::default()),
            atl_model::wire::render_plan(&FaultPlan::new(0)),
            atl_model::wire::render_plan(&FaultPlan::new(1).drop(1.0)),
        );
        let first = c.request(&request).expect("first shard");
        // The coordinator resending a timed-out shard must not inflate
        // plan totals beyond what was actually received, and the replay
        // must be answered by the global cache with identical bytes.
        let second = c.request(&request).expect("resent shard");
        assert_eq!(first, second, "resent shard must be byte-identical");
        let stats = server.stats();
        assert_eq!(stats.sweep_served, 2);
        assert_eq!(stats.sweep_plans, 4);
        assert_eq!(
            stats.sweep_exec_hits, 2,
            "the resent shard must be served from the global ExecutionCache"
        );
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(spec);
    }

    #[test]
    fn metrics_exposition_parses_and_counts_match_stats() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let spec = spec_file("metrics", TOY);
        let id = c.load(spec.to_str().expect("utf8 path")).expect("load");
        assert!(c.request(&format!("ANALYZE {id}")).expect("analyze").ok);
        assert!(
            c.request("METRICS then some").expect("bad").err_message()
                == Some("METRICS takes no arguments")
        );
        let resp = c.request("METRICS").expect("metrics");
        assert!(resp.ok, "{resp:?}");
        let text = resp.payload();
        let samples = crate::metrics::check_exposition(&text).expect("valid exposition");
        assert!(samples > 20, "suspiciously few samples: {samples}");
        for needle in [
            "atl_serve_requests_total{verb=\"load\"} 1",
            "atl_serve_requests_total{verb=\"analyze\"} 1",
            "atl_serve_rejected_total 0",
            "atl_serve_connection_workers 8",
            "atl_serve_sessions_live 1",
        ] {
            assert!(
                text.lines().any(|l| l == needle),
                "missing {needle:?} in:\n{text}"
            );
        }
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(spec);
    }

    /// TOY with one belief assumption appended (analysis resumes, the
    /// enacted protocol — and so the system — is untouched).
    const TOY_ADDED: &str = "protocol toy\n\
        principals A B\n\
        keys Kab\n\
        assume A believes (A <-Kab-> B)\n\
        assume A has Kab\n\
        assume B has Kab\n\
        assume B believes (A <-Kab-> B)\n\
        step A -> B : {Na}Kab@A\n\
        goal B sees {Na}Kab@A\n";

    /// TOY with a different goal (nothing the executor or the annotation
    /// closure sees changes).
    const TOY_GOAL: &str = "protocol toy\n\
        principals A B\n\
        keys Kab\n\
        assume A believes (A <-Kab-> B)\n\
        assume A has Kab\n\
        assume B has Kab\n\
        step A -> B : {Na}Kab@A\n\
        goal A believes (A <-Kab-> B)\n";

    /// TOY with the step message changed (the executor-visible surface
    /// moves: new system, pointwise cache rewarm).
    const TOY_MSG: &str = "protocol toy\n\
        principals A B\n\
        keys Kab\n\
        assume A believes (A <-Kab-> B)\n\
        assume A has Kab\n\
        assume B has Kab\n\
        step A -> B : {Nb}Kab@A\n\
        goal B sees {Nb}Kab@A\n";

    #[test]
    fn comment_only_twin_load_is_a_dedupe_hit() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let plain = spec_file("twin-plain", TOY);
        let twin_text: String = format!(
            "# twin header\n\n{}\n   # trailing note\n",
            TOY.lines()
                .map(|l| format!("   {l}   # inline note\n"))
                .collect::<String>()
        );
        let twin = spec_file("twin-commented", &twin_text);
        let a = c.load(plain.to_str().expect("utf8 path")).expect("load");
        let b = c.load(twin.to_str().expect("utf8 path")).expect("twin");
        assert_eq!(a, b, "comment-only twin must dedupe to the same session");
        let stats = server.stats();
        assert_eq!(
            (stats.loads, stats.parsed, stats.load_hits),
            (2, 1, 1),
            "the twin must be a cache hit, not a second build"
        );
        c.shutdown().expect("shutdown");
        server.join();
        for p in [plain, twin] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn reload_of_unchanged_content_is_a_counted_noop() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let spec = spec_file("reload-noop", TOY);
        let path = spec.to_str().expect("utf8 path");
        let id = c.load(path).expect("load");
        let analyze = c.request(&format!("ANALYZE {id}")).expect("analyze");
        let resp = c.reload(id, path).expect("reload");
        assert_eq!(resp.lines.len(), 2, "{resp:?}");
        assert_eq!(resp.lines[1], "reload unchanged: session kept as-is");
        assert_eq!(resp.session_id(), Some(id));
        assert_eq!(
            c.request(&format!("ANALYZE {id}")).expect("analyze"),
            analyze,
            "a no-op reload must not perturb the session"
        );
        let stats = server.stats();
        assert_eq!(
            (stats.reloads, stats.reload_delta, stats.reload_full),
            (1, 1, 0)
        );
        assert_eq!(stats.parsed, 1, "unchanged content must not re-parse");
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(spec);
    }

    #[test]
    fn reload_rejects_bad_arguments_and_unknown_sessions() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let spec = spec_file("reload-args", TOY);
        let path = spec.to_str().expect("utf8 path");
        for bad in [
            "RELOAD".to_string(),
            "RELOAD 1".to_string(),
            format!("RELOAD 999 {path}"),
            format!("RELOAD not-a-number {path}"),
            "RELOAD 1 /no/such/spec.atl".to_string(),
        ] {
            let resp = c.request(&bad).expect("response");
            assert!(!resp.ok, "request {bad:?} must fail, got {resp:?}");
        }
        assert_eq!(server.stats().reloads, 0);
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(spec);
    }

    /// The proof obligation, per edit class: a delta-reloaded session
    /// answers `ANALYZE`/`EVAL`/`INJECT` byte-identically to a cold
    /// daemon that loaded the edited spec from scratch.
    #[test]
    fn reload_answers_byte_identical_to_cold_load_per_edit_class() {
        for (name, edited, goal) in [
            ("assumption-added", TOY_ADDED, "B sees {Na}Kab@A"),
            ("goal-changed", TOY_GOAL, "A believes (A <-Kab-> B)"),
            ("message-changed", TOY_MSG, "B sees {Nb}Kab@A"),
        ] {
            let base = spec_file(&format!("reload-{name}-base"), TOY);
            let edited_path = spec_file(&format!("reload-{name}-edited"), edited);
            let epath = edited_path.to_str().expect("utf8 path");

            let warm_srv = start_test_server(2);
            let mut warm = Client::connect(warm_srv.addr()).expect("connect");
            let id = warm
                .load(base.to_str().expect("utf8 path"))
                .expect("load base");
            let resp = warm.reload(id, epath).expect("reload");
            assert_eq!(resp.session_id(), Some(id), "{name}: id must be kept");

            let cold_srv = start_test_server(2);
            let mut cold = Client::connect(cold_srv.addr()).expect("connect");
            let cold_id = cold.load(epath).expect("cold load");

            let queries = [
                "ANALYZE {id}".to_string(),
                format!("EVAL {{id}} 0:0 {goal}"),
                format!("EVAL {{id}} 0:2 {goal}"),
                "INJECT {id} --seed 7 --drop 0.5".to_string(),
            ];
            for q in &queries {
                let warm_resp = warm
                    .request(&q.replace("{id}", &id.to_string()))
                    .expect("warm query");
                let cold_resp = cold
                    .request(&q.replace("{id}", &cold_id.to_string()))
                    .expect("cold query");
                assert_eq!(
                    warm_resp, cold_resp,
                    "{name}: {q} differs between delta reload and cold load"
                );
            }

            let stats = warm_srv.stats();
            assert_eq!(stats.reloads, 1, "{name}");
            assert_eq!(
                stats.reload_delta + stats.reload_full,
                1,
                "{name}: every reload is classified exactly once"
            );
            if name != "message-changed" {
                assert_eq!(
                    stats.reload_delta, 1,
                    "{name}: an executor-invisible edit must be a delta reload"
                );
            }

            warm.shutdown().expect("shutdown");
            warm_srv.join();
            cold.shutdown().expect("shutdown");
            cold_srv.join();
            for p in [base, edited_path] {
                let _ = std::fs::remove_file(p);
            }
        }
    }

    #[test]
    fn reload_repoints_digest_mapping_and_tracks_lineage() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");
        let base = spec_file("lineage-base", TOY);
        let edited = spec_file("lineage-edited", TOY_GOAL);
        let id = c.load(base.to_str().expect("utf8 path")).expect("load");
        c.reload(id, edited.to_str().expect("utf8 path"))
            .expect("reload");
        // The edited digest now dedupes onto the reloaded session...
        assert_eq!(
            c.load(edited.to_str().expect("utf8 path")).expect("load"),
            id,
            "LOAD of the edited spec must hit the reloaded session"
        );
        // ...while the old digest no longer points anywhere, so loading
        // the original builds a fresh session instead of resurrecting a
        // stale mapping.
        let fresh = c.load(base.to_str().expect("utf8 path")).expect("load");
        assert_ne!(fresh, id, "the pre-edit digest must not alias the reload");
        let stats = server.stats();
        assert_eq!((stats.parsed, stats.load_hits), (2, 1));
        let metrics = c.request("METRICS").expect("metrics");
        assert!(
            metrics
                .lines
                .iter()
                .any(|l| l == "atl_serve_sessions_with_lineage 1"),
            "lineage gauge missing in:\n{}",
            metrics.payload()
        );
        // Evicting the fresh session must not disturb the reloaded
        // session's digest mapping (capacity 2: touch the reloaded
        // session so the fresh one is the LRU victim of a third load).
        let third = spec_file("lineage-third", TOY_MSG);
        assert!(c.request(&format!("ANALYZE {id}")).expect("touch").ok);
        c.load(third.to_str().expect("utf8 path")).expect("load");
        assert_eq!(server.stats().evictions, 1);
        assert_eq!(
            c.load(edited.to_str().expect("utf8 path")).expect("load"),
            id,
            "eviction of an unrelated session must keep the reloaded mapping"
        );
        c.shutdown().expect("shutdown");
        server.join();
        for p in [base, edited, third] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn worker_concurrency_never_exceeds_pool_width() {
        let width = 2;
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 2,
            pool: Pool::new(1),
            conn_workers: width,
            queue_depth: 64,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let clients: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let mut c = Client::connect(addr).expect("connect");
                        assert!(c.request("STATS").expect("stats").ok);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        let peak = server.state.metrics.busy_workers_peak();
        assert!(
            (1..=width as u64).contains(&peak),
            "busy-worker peak {peak} escaped the configured width {width}"
        );
        let mut c = Client::connect(addr).expect("connect");
        c.shutdown().expect("shutdown");
        server.join();
    }

    /// The trace the monitor tests stream, one line per EVENT. Same
    /// shape as the `crate::monitor` unit fixture: a pre-epoch header,
    /// then three events that bring the run to horizon 2.
    const MONITOR_TRACE: &[&str] = &[
        "run start -1",
        "principal A keys Kab",
        "principal B keys Kab",
        "newkey A Spare",
        "send A -> B : {X}Kab@A",
        "recv B : {X}Kab@A",
    ];

    #[test]
    fn monitor_wire_verbs_match_the_in_process_engine() {
        let server = start_test_server(2);
        let mut c = Client::connect(server.addr()).expect("connect");

        // Argument validation before any session exists.
        for req in ["MONITOR", "MONITOR   ;  ;", "EVENT", "EVENT 7 run start 0"] {
            let resp = c.request(req).expect("response");
            assert!(!resp.ok, "request {req:?} must fail, got {resp:?}");
        }

        let opened = c.request("MONITOR B sees X; Env has Kab").expect("monitor");
        assert_eq!(opened.lines, vec!["monitor 1: watching 2 formula(s)"]);

        // Reference: the same engine driven in-process.
        let pool = Pool::new(1);
        let mut reference = Monitor::new(
            "monitor-1",
            ["B sees X".to_string(), "Env has Kab".to_string()],
        )
        .expect("reference monitor");
        for line in MONITOR_TRACE {
            let resp = c.request(&format!("EVENT 1 {line}")).expect("event");
            assert!(resp.ok, "{resp:?}");
            let expected = reference.feed_line(line, &pool).expect("reference feed");
            assert_eq!(resp.lines, expected, "wire and engine diverge on {line:?}");
        }
        // Verdict lines carry the exact `atl eval` format.
        let last = c
            .request("EVENT 1 newkey Env __pad")
            .expect("idle event")
            .lines;
        assert_eq!(
            last,
            vec![
                "at (run 0, time 3): B sees X = true",
                "at (run 0, time 3): Env has Kab = false",
            ]
        );
        reference
            .feed_line("newkey Env __pad", &pool)
            .expect("reference idle");

        // A bad line is rejected with a positioned diagnostic and does
        // not corrupt the session: the next event still verdicts.
        let bad = c.request("EVENT 1 recv B :").expect("bad event");
        let msg = bad.err_message().expect("ERR reply");
        assert!(msg.starts_with("event:8:"), "unexpected diagnostic {msg:?}");
        let again = c.request("EVENT 1 newkey Env __pad").expect("event");
        assert_eq!(
            again.lines,
            reference
                .feed_line("newkey Env __pad", &pool)
                .expect("feed")
        );

        let unknown = c.request("EVENT 99 run start 0").expect("response");
        assert_eq!(unknown.err_message(), Some("no monitor 99"));

        // STATS grows a monitor line; the batch lines CI greps survive.
        let stats = c.request("STATS").expect("stats").payload();
        assert!(
            stats
                .lines()
                .any(|l| l
                    == "monitor: 1 session(s), 5 event(s), 49 point(s) reused, 4 delta, 1 full"),
            "missing monitor line in:\n{stats}"
        );
        assert!(stats.lines().any(|l| l.starts_with("reloads: ")));
        assert!(stats.lines().any(|l| l.starts_with("connections: ")));

        // METRICS stays a valid exposition and carries the new series.
        let metrics = c.request("METRICS").expect("metrics").payload();
        crate::metrics::check_exposition(&metrics).expect("valid exposition");
        for needle in [
            "atl_serve_monitors_live 1",
            "atl_serve_monitors_total 1",
            "atl_serve_monitor_events_total 5",
            "atl_serve_monitor_delta_saturations_total 4",
            "atl_serve_monitor_full_saturations_total 1",
            "atl_serve_requests_total{verb=\"monitor\"} 3",
            "atl_serve_requests_total{verb=\"event\"} 12",
        ] {
            assert!(
                metrics.lines().any(|l| l == needle),
                "missing {needle:?} in:\n{metrics}"
            );
        }
        c.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn monitor_checkpoints_survive_a_daemon_restart() {
        let dir = std::env::temp_dir().join(format!(
            "atl-serve-unit-{}-monitor-store",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            port: 0,
            max_sessions: 2,
            pool: Pool::new(1),
            monitor_store: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        assert!(c.request("MONITOR B sees X").expect("monitor").ok);
        let split = 5;
        for line in &MONITOR_TRACE[..split] {
            assert!(c.request(&format!("EVENT 1 {line}")).expect("event").ok);
        }
        c.shutdown().expect("shutdown");
        server.join();

        // Restart over the same store: the session resumes with its id
        // and history, and fresh MONITORs allocate past it.
        let server = Server::start(config).expect("rebind");
        let mut c = Client::connect(server.addr()).expect("reconnect");
        let pool = Pool::new(1);
        let mut reference = Monitor::new("monitor-1", ["B sees X".to_string()]).expect("reference");
        for line in &MONITOR_TRACE[..split] {
            reference.feed_line(line, &pool).expect("reference feed");
        }
        for line in &MONITOR_TRACE[split..] {
            let resp = c.request(&format!("EVENT 1 {line}")).expect("event");
            assert!(resp.ok, "{resp:?}");
            assert_eq!(
                resp.lines,
                reference.feed_line(line, &pool).expect("reference feed"),
                "post-restart divergence on {line:?}"
            );
        }
        let opened = c.request("MONITOR A has Kab").expect("second monitor");
        assert_eq!(opened.lines, vec!["monitor 2: watching 1 formula(s)"]);
        let stats = c.request("STATS").expect("stats").payload();
        assert!(
            stats
                .lines()
                .any(|l| l.starts_with("monitor: 2 session(s), 3 event(s),")),
            "missing resumed monitor counters in:\n{stats}"
        );
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Eight clients race `EVENT`s into one monitor backed by a store
    /// while a reader polls its checkpoint file. Every read must parse,
    /// the final checkpoint must hold every acknowledged line, and a
    /// restarted daemon must resume all of them.
    #[test]
    fn concurrent_events_checkpoint_every_acknowledged_line() {
        use atl_model::wire::parse_checkpoint;

        const CLIENTS: usize = 8;
        const EVENTS: usize = 60;
        const PAD: &str = "newkey Env __pad";
        let prefix = &MONITOR_TRACE[..3];
        let dir = std::env::temp_dir().join(format!(
            "atl-serve-unit-{}-monitor-race",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            port: 0,
            pool: Pool::new(1),
            conn_workers: CLIENTS + 2,
            monitor_store: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        assert!(c.request("MONITOR Env has Kab").expect("monitor").ok);
        for line in prefix {
            assert!(c.request(&format!("EVENT 1 {line}")).expect("event").ok);
        }

        let path = dir.join("monitor-1");
        let done = AtomicBool::new(false);
        let (reads, failures) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut reads, mut failures) = (0usize, Vec::new());
                while !done.load(Ordering::SeqCst) {
                    reads += 1;
                    let read = std::fs::read_to_string(&path).map_err(|e| e.to_string());
                    if let Err(e) = read.and_then(|t| parse_checkpoint(&t).map_err(|e| e.0)) {
                        failures.push(e);
                    }
                }
                (reads, failures)
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = Client::connect(server.addr()).expect("connect");
                        for _ in 0..EVENTS {
                            let resp = c.request(&format!("EVENT 1 {PAD}")).expect("event");
                            assert!(resp.ok, "{resp:?}");
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            done.store(true, Ordering::SeqCst);
            reader.join().expect("reader thread")
        });
        assert!(
            failures.is_empty(),
            "{} of {reads} checkpoint reads failed, first: {:?}",
            failures.len(),
            failures.first()
        );
        let acknowledged = prefix.len() + CLIENTS * EVENTS;
        let cp = parse_checkpoint(&std::fs::read_to_string(&path).expect("read checkpoint"))
            .expect("final checkpoint parses");
        assert_eq!(cp.lines.len(), acknowledged, "checkpoint lags the replies");
        c.shutdown().expect("shutdown");
        server.join();

        let server = Server::start(config).expect("rebind");
        let mut c = Client::connect(server.addr()).expect("reconnect");
        let stats = c.request("STATS").expect("stats").payload();
        let resumed = format!("monitor: 1 session(s), {} event(s),", CLIENTS * EVENTS);
        assert!(
            stats.lines().any(|l| l.starts_with(&resumed)),
            "missing {resumed:?} in:\n{stats}"
        );
        let pool = Pool::new(1);
        let mut reference = Monitor::new("monitor-1", ["Env has Kab".to_string()]).expect("ref");
        for line in prefix.iter().copied().chain([PAD; CLIENTS * EVENTS]) {
            reference.feed_line(line, &pool).expect("reference feed");
        }
        let next = c.request(&format!("EVENT 1 {PAD}")).expect("event");
        assert_eq!(next.lines, reference.feed_line(PAD, &pool).expect("feed"));
        c.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
