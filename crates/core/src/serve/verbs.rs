use super::sessions::{cmd_load, cmd_reload, Session};
use super::{Response, ServerState, CONTEXT_MISMATCH};
use crate::enact::{enact_with, EnactOptions};
use crate::hunt::{default_space, hunt_report, HuntSettings};
use crate::inject::{inject_report, InjectRequest};
use crate::metrics::{ExtraMetric, MetricKind, Verb};
use crate::monitor::{Monitor, MonitorStats};
use crate::request::PlanFlags;
use crate::semantics::{verdict_line, Semantics};
use atl_lang::parser::parse_formula;
use atl_model::store::FrameStore;
use atl_model::wire::{
    checkpoint_body, parse_checkpoint_body, parse_sweep_request, render_sweep_response,
    CHECKPOINT_HEADER,
};
use atl_model::{execution_context_digest, sweep_plans_in, Point};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::TcpStream;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Answers one request line whose first word `handle_connection`
/// already classified as `verb`.
pub(super) fn dispatch(state: &Arc<ServerState>, verb: Verb, line: &str) -> Response {
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
pub(super) fn first_word(text: &str) -> (&str, &str) {
    match text.split_once(char::is_whitespace) {
        Some((word, rest)) => (word, rest.trim()),
        None => (text, ""),
    }
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
    let (resp, warm) = memoized(&session.eval_memo, &memo_key, || {
        eval_response(&session, point_text, formula_text)
    });
    let mut store = state.store();
    store.stats.eval_served += 1;
    store.stats.eval_warm += u64::from(warm);
    resp
}

/// The one memo path of `EVAL` and `INJECT`: the response memoized under
/// `key`, or else `answer`'s, computed outside the memo's lock and
/// memoized. The flag is true for a memo hit.
fn memoized(
    memo: &Mutex<HashMap<String, Response>>,
    key: &str,
    answer: impl FnOnce() -> Response,
) -> (Response, bool) {
    let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = lock().get(key).cloned() {
        return (hit, true);
    }
    let resp = answer();
    lock().insert(key.to_string(), resp.clone());
    (resp, false)
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
    let mut exec_hit = false;
    let (resp, warm) = memoized(&session.inject_memo, flags_text, || {
        match inject_request(flags_text) {
            Err(msg) => Response::err(msg),
            Ok(req) => match inject_report(&session.at, &req, &state.pool, &state.exec_cache) {
                Ok(outcome) => {
                    exec_hit = outcome.cache_hit;
                    Response::from_text(&outcome.report)
                }
                Err(e) => Response::err(e.to_string()),
            },
        }
    });
    let mut store = state.store();
    store.stats.inject_served += 1;
    store.stats.inject_warm += u64::from(warm);
    store.stats.inject_exec_hits += u64::from(exec_hit);
    resp
}

/// Reads `INJECT`'s flags: the fault flags of `atl inject`, through the
/// same parser, so both answer a bad flag with the same text. INJECT
/// takes nothing else.
pub(super) fn inject_request(flags: &str) -> Result<InjectRequest, String> {
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
///
/// [`ExecutionCache`]: atl_model::ExecutionCache
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
///
/// [`ExecutionCache`]: atl_model::ExecutionCache
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
    let (before, recorded) = (guard.stats(), guard.line_count());
    let outcome = guard.feed_line(line, &state.pool);
    let after = guard.stats();
    // Checkpointed under the monitor's lock whenever the monitor recorded
    // the line — also when its verdicts failed — so checkpoints land in
    // the order lines were fed and the file always holds the latest one.
    if guard.line_count() > recorded {
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
///
/// [`ServeStats`]: super::ServeStats
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
/// survive a daemon restart — also those whose verdicts failed to
/// evaluate ([`Monitor::resume`] replays past such lines). An invalid
/// checkpoint is deleted by the store's read, and one whose trace no
/// longer parses is skipped: a bad file must not stop the server from
/// coming up.
pub(super) fn resume_monitors(state: &Arc<ServerState>, store: &FrameStore) {
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
///
/// [`ServeStats`]: super::ServeStats
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
