//! `serve_mix`: one closed-loop client against an in-process daemon.
//!
//! Every round sends one block of requests per committed spec (block
//! order shuffled by the seed). A block is three request classes:
//!
//! - *builds*: `LOAD` of a never-seen variant, then two `RELOAD` edits
//!   (add an assumption; change a message);
//! - *queries*: `ANALYZE` after each build, `EVAL` at fresh and repeated
//!   (point, formula) pairs, `INJECT` with fresh single-plan flags;
//! - *stream*: `MONITOR`, then one `EVENT` per line of the variant's
//!   send/recv trace.
//!
//! The block's shape is fixed, so every seed sends the same number of
//! requests of each class to each spec, and whether an op hits a memo is
//! fixed by the op list. The daemon is restarted (untimed) every
//! `EPOCH_ROUNDS` rounds so its memory stays bounded however many rounds
//! a run completes.
//!
//! The daemon runs without a monitor checkpoint directory: each
//! checkpoint write renames over the previous file, which on ext4 starts
//! writeback of the new file, so `EVENT` latency followed the shared
//! disk rather than the program (identical runs differed threefold in
//! their median latency).

use crate::common::{
    next_is_traced, recorders, write_spans, Layer, Outcome, Recorder, Rng, Settings, Setups, Share,
    TracedReport, WorkDir,
};
use crate::specs::{self, BaseSpec, SPECS};
use crate::tracer::Tracer;
use atl_core::annotate::{analyze_at, analyze_at_resumable, render_analysis, AtProtocol};
use atl_core::enact::enact;
use atl_core::goodruns::{construct_checkpointed_on, construct_on, resume_construct_on};
use atl_core::inject::{inject_report, InjectRequest};
use atl_core::monitor::Monitor;
use atl_core::parallel::Pool;
use atl_core::semantics::{GoodRuns, Semantics};
use atl_core::serve::{Client, Response, ServeConfig, ServeStats, Server};
use atl_core::spec::{parse_spec, SpecDiff};
use atl_lang::parser::{parse_formula, Symbols};
use atl_model::{
    execute_with_faults, parse_trace, render_trace, ExecOptions, ExecutionCache, ExpectPolicy,
    FaultPlan, Point, Protocol, System,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Rounds served by one daemon instance before it is replaced.
const EPOCH_ROUNDS: u64 = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed rounds in each set-up.
const SETUP_ROUNDS: u64 = 4;
/// Fresh `EVAL` pairs right after a `LOAD` (each then asked again).
const EVAL_FRESH: usize = 4;
/// `INJECT`s per block, each with never-seen flags.
const INJECTS: usize = 1;
/// Monitors opened per block.
const MONITORS: usize = 5;
/// Probabilities fresh `INJECT` flags draw from (strictly inside (0, 1),
/// so the fault seed always matters).
const PROBS: [f64; 5] = [0.2, 0.35, 0.5, 0.65, 0.8];

#[derive(Clone)]
struct SpecInfo {
    base: &'static BaseSpec,
    /// Horizon of the fault-free run (the same for every variant).
    horizon: i64,
    succeeds: bool,
}

struct EvalReq {
    k: i64,
    formula: String,
}

impl EvalReq {
    fn key(&self) -> String {
        format!("{} {}", self.k, self.formula)
    }
}

struct InjectFlags {
    seed: u64,
    drop: f64,
    replay: f64,
}

impl InjectFlags {
    fn text(&self) -> String {
        format!(
            "--seed {} --drop {} --replay {}",
            self.seed, self.drop, self.replay
        )
    }

    fn request(&self) -> InjectRequest {
        InjectRequest {
            plan: FaultPlan::new(self.seed)
                .drop(self.drop)
                .replay(self.replay),
            policy: ExpectPolicy::resend_after(6, 2),
            options: ExecOptions::default(),
        }
    }
}

struct MonitorPlan {
    formulas: Vec<String>,
    lines: Vec<String>,
}

/// The generated inputs of one block (one spec, one round).
struct BlockPlan {
    spec: usize,
    texts: [String; 3],
    paths: [PathBuf; 3],
    evals: [Vec<EvalReq>; 3],
    injects: Vec<InjectFlags>,
    monitors: Vec<MonitorPlan>,
}

/// The daemon's answers to one block, in the block's op order.
#[derive(Default)]
struct BlockResult {
    builds: Vec<Response>,
    analyses: Vec<Response>,
    evals: [Vec<Response>; 3],
    injects: Vec<Response>,
    monitors: Vec<(Response, Vec<Response>)>,
}

struct Daemon {
    server: Server,
    client: Client,
    rounds: u64,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 8,
            pool: Pool::new(1),
            idle_timeout: None,
            drain_deadline: Duration::from_secs(5),
            conn_workers: 1,
            queue_depth: 4,
            exec_cache_capacity: Some(4096),
            monitor_store: None,
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Daemon {
            server,
            client,
            rounds: 0,
        })
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        drop(self.client);
        self.server.join();
    }
}

fn fault_free_run(proto: &Protocol) -> atl_model::Run {
    execute_with_faults(proto, &ExecOptions::default(), &FaultPlan::new(0))
        .expect("committed specs execute fault-free")
        .0
}

/// Generates one block's inputs and writes its spec files.
fn plan_block(info: &SpecInfo, spec: usize, rng: &mut Rng, dir: &Path, n: u64) -> BlockPlan {
    let base = info.base;
    let tag = format!("r{n}{}", rng.tag());
    let t0 = specs::variant(base, rng, &tag);
    let nonces = specs::variant_nonces(base, &t0);
    let t1 = specs::add_assumption(&t0, rng);
    let t2 = specs::change_message(&t1, &nonces, rng);
    let paths = [0, 1, 2].map(|i| dir.join(format!("{}-{n}-{i}.atl", base.name)));

    let formulas = specs::stated_formulas(&t0);
    let mut pairs: Vec<EvalReq> = (0..=info.horizon)
        .flat_map(|k| {
            formulas.iter().map(move |f| EvalReq {
                k,
                formula: f.clone(),
            })
        })
        .collect();
    rng.shuffle(&mut pairs);
    let mut pairs = pairs.into_iter();
    let fresh0: Vec<EvalReq> = pairs.by_ref().take(EVAL_FRESH).collect();
    let mut evals0: Vec<EvalReq> = Vec::new();
    for e in &fresh0 {
        evals0.push(EvalReq {
            k: e.k,
            formula: e.formula.clone(),
        });
    }
    let mut order: Vec<usize> = (0..EVAL_FRESH).collect();
    rng.shuffle(&mut order);
    for &i in &order {
        evals0.push(EvalReq {
            k: fresh0[i].k,
            formula: fresh0[i].formula.clone(),
        });
    }
    let mut evals1: Vec<EvalReq> = order[..EVAL_FRESH / 2]
        .iter()
        .map(|&i| EvalReq {
            k: fresh0[i].k,
            formula: fresh0[i].formula.clone(),
        })
        .collect();
    evals1.extend(pairs.by_ref().take(EVAL_FRESH / 2));
    let evals2: Vec<EvalReq> = pairs.take(EVAL_FRESH).collect();

    let injects = (0..INJECTS)
        .map(|_| InjectFlags {
            seed: rng.next_u64() >> 16,
            drop: *rng.pick(&PROBS),
            replay: *rng.pick(&PROBS),
        })
        .collect();

    let trace = render_trace(&fault_free_run(&enact(&specs::parse(&t0))));
    let lines: Vec<String> = trace
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    let monitors = (0..MONITORS)
        .map(|_| {
            let a = rng.below(formulas.len());
            let b = (a + 1 + rng.below(formulas.len() - 1)) % formulas.len();
            MonitorPlan {
                formulas: vec![formulas[a].clone(), formulas[b].clone()],
                lines: lines.clone(),
            }
        })
        .collect();

    let texts = [t0, t1, t2];
    for (p, t) in paths.iter().zip(&texts) {
        std::fs::write(p, t).expect("work directory is writable");
    }
    BlockPlan {
        spec,
        texts,
        paths,
        evals: [evals0, evals1, evals2],
        injects,
        monitors,
    }
}

/// Sends one block's requests, timing each as one op.
fn send_block(d: &mut Daemon, plan: &BlockPlan, rec: &mut Recorder) -> Result<BlockResult, String> {
    let spec = SPECS[plan.spec].name;
    let client = &mut d.client;
    let mut res = BlockResult::default();
    let mut send =
        |rec: &mut Recorder, class: &'static str, line: String| -> Result<Response, String> {
            rec.op(class, spec, || client.request(&line))
                .map_err(|e| format!("{spec}: transport error on {class}: {e}"))
        };
    let load = send(rec, "build", format!("LOAD {}", plan.paths[0].display()))?;
    let Some(id) = load.session_id() else {
        return Err(format!("{spec}: LOAD answered {:?}", load.lines));
    };
    res.builds.push(load);
    for state in 0..3 {
        if state > 0 {
            let line = format!("RELOAD {id} {}", plan.paths[state].display());
            res.builds.push(send(rec, "build", line)?);
        }
        res.analyses
            .push(send(rec, "query", format!("ANALYZE {id}"))?);
        for e in &plan.evals[state] {
            let line = format!("EVAL {id} {} {}", e.k, e.formula);
            res.evals[state].push(send(rec, "query", line)?);
        }
        if state == 0 {
            for f in &plan.injects {
                res.injects
                    .push(send(rec, "query", format!("INJECT {id} {}", f.text()))?);
            }
        }
    }
    for m in &plan.monitors {
        let opened = send(rec, "stream", format!("MONITOR {}", m.formulas.join(";")))?;
        let mid = opened
            .lines
            .first()
            .and_then(|l| l.strip_prefix("monitor "))
            .and_then(|l| l.split(':').next())
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| format!("{spec}: MONITOR answered {:?}", opened.lines))?;
        let mut events = Vec::with_capacity(m.lines.len());
        for l in &m.lines {
            events.push(send(rec, "stream", format!("EVENT {mid} {l}"))?);
        }
        res.monitors.push((opened, events));
    }
    Ok(res)
}

/// The reference a block's answers are checked against: parsed specs,
/// fault-free systems and good runs built without the daemon.
struct Reference {
    at: AtProtocol,
    syms: Symbols,
    system: System,
    goods: GoodRuns,
}

fn reference(text: &str, pool: &Pool) -> Reference {
    let (at, syms) = parse_spec(text).expect("generated spec parses");
    let system = System::new([fault_free_run(&enact(&at))]);
    let goods = match construct_on(&system, &specs::belief_assumptions(&at), pool) {
        Ok((g, _)) => g,
        Err(_) => GoodRuns::all_runs(&system),
    };
    Reference {
        at,
        syms,
        system,
        goods,
    }
}

/// Compares every answer of a block with a reference that does not go
/// through the daemon; returns one message per mismatch.
fn check_block(plan: &BlockPlan, res: &BlockResult, info: &SpecInfo, pool: &Pool) -> Vec<String> {
    let spec = info.base.name;
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{spec}: {what}"));
        }
    };
    for (i, b) in res.builds.iter().enumerate() {
        expect(b.ok, format!("build {i} answered {:?}", b.lines));
        if i > 0 {
            let summary = b.lines.get(1).map_or("", String::as_str);
            expect(
                summary.starts_with("reload "),
                format!("reload {i} summary {summary:?}"),
            );
        }
    }
    for state in 0..3 {
        let r = reference(&plan.texts[state], pool);
        let analysis = analyze_at(&r.at);
        if state == 0 {
            expect(
                analysis.succeeded() == info.succeeds,
                "variant analysis changed the base spec's success flag".into(),
            );
        }
        let want = render_analysis(&r.at, &analysis);
        expect(
            res.analyses[state].payload() == want,
            format!("ANALYZE after build {state} differs from render_analysis"),
        );
        let sem = Semantics::without_belief_cache(&r.system, r.goods.clone());
        for (e, got) in plan.evals[state].iter().zip(&res.evals[state]) {
            let want = parse_formula(&e.formula, &r.syms)
                .map_err(|err| err.to_string())
                .and_then(|phi| {
                    sem.eval(Point::new(0, e.k), &phi)
                        .map(|v| format!("at (run 0, time {}): {phi} = {v}\n", e.k))
                        .map_err(|err| err.to_string())
                });
            expect(
                want.as_deref() == Ok(got.payload().as_str()) && got.ok,
                format!(
                    "EVAL {} answered {:?}, reference {want:?}",
                    e.key(),
                    got.lines
                ),
            );
        }
        if state == 0 {
            for (f, got) in plan.injects.iter().zip(&res.injects) {
                let want = inject_report(&r.at, &f.request(), pool, &ExecutionCache::new())
                    .map(|o| o.report)
                    .map_err(|e| e.to_string());
                expect(
                    got.ok && want.as_deref() == Ok(got.payload().as_str()),
                    format!("INJECT {} differs from the one-shot report", f.text()),
                );
            }
        }
    }
    for (m, (opened, events)) in plan.monitors.iter().zip(&res.monitors) {
        expect(
            opened.ok
                && opened.lines.first().is_some_and(|l| {
                    l.ends_with(&format!("watching {} formula(s)", m.formulas.len()))
                }),
            format!("MONITOR answered {:?}", opened.lines),
        );
        for (i, got) in events.iter().enumerate() {
            expect(got.ok, format!("EVENT {i} answered {:?}", got.lines));
            if got.lines.is_empty() {
                let l = &m.lines[i];
                expect(
                    l.starts_with("run ") || l.starts_with("principal ") || l.starts_with("env "),
                    format!("EVENT {i} ({l:?}) gave no verdicts"),
                );
                continue;
            }
            let prefix = m.lines[..=i].join("\n");
            let want: Result<Vec<String>, String> = parse_trace(&prefix)
                .map_err(|e| e.to_string())
                .and_then(|(run, syms)| {
                    let k = run.horizon();
                    let sys = System::new([run]);
                    let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
                    m.formulas
                        .iter()
                        .map(|f| {
                            let phi = parse_formula(f, &syms).map_err(|e| e.to_string())?;
                            let v = sem
                                .eval(Point::new(0, k), &phi)
                                .map_err(|e| e.to_string())?;
                            Ok(format!("at (run 0, time {k}): {phi} = {v}"))
                        })
                        .collect()
                });
            expect(
                want.as_ref() == Ok(&got.lines),
                format!("EVENT {i} answered {:?}, batch eval {want:?}", got.lines),
            );
        }
    }
    bad
}

/// Per-verb service-time sums (µs) and counts scraped from `METRICS`.
fn scrape_service(client: &mut Client) -> BTreeMap<String, (f64, f64)> {
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let Ok(resp) = client.request("METRICS") else {
        return out;
    };
    for line in &resp.lines {
        let parse = |prefix: &str| -> Option<(String, f64)> {
            let rest = line.strip_prefix(prefix)?;
            let (verb, value) = rest.split_once("\"} ")?;
            Some((verb.to_string(), value.trim().parse().ok()?))
        };
        if let Some((verb, v)) = parse("atl_serve_request_duration_seconds_sum{verb=\"") {
            out.entry(verb).or_default().0 = v * 1e6;
        } else if let Some((verb, v)) = parse("atl_serve_request_duration_seconds_count{verb=\"") {
            out.entry(verb).or_default().1 = v;
        }
    }
    out
}

/// Counter deltas the property shares are computed from.
#[derive(Default)]
struct StatDelta {
    eval_served: u64,
    eval_warm: u64,
    reloads: u64,
    reload_delta: u64,
    monitor_events: u64,
    monitor_points_reused: u64,
}

impl StatDelta {
    fn add(&mut self, before: ServeStats, after: ServeStats) {
        self.eval_served += after.eval_served - before.eval_served;
        self.eval_warm += after.eval_warm - before.eval_warm;
        self.reloads += after.reloads - before.reloads;
        self.reload_delta += after.reload_delta - before.reload_delta;
        self.monitor_events += after.monitor_events - before.monitor_events;
        self.monitor_points_reused += after.monitor_points_reused - before.monitor_points_reused;
    }
}

struct Run<'a> {
    infos: Vec<SpecInfo>,
    rng: Rng,
    work: &'a WorkDir,
    pool: Pool,
    blocks: u64,
    daemons: u64,
}

impl Run<'_> {
    fn daemon(&mut self) -> Result<Daemon, String> {
        self.daemons += 1;
        Daemon::start()
    }

    /// Generates (untimed) and sends (timed) one round; returns the plans
    /// and answers for checking.
    fn round(
        &mut self,
        d: &mut Daemon,
        rec: &mut Recorder,
    ) -> Result<Vec<(BlockPlan, BlockResult)>, String> {
        let dir = self.work.path().to_path_buf();
        let mut order: Vec<usize> = (0..SPECS.len()).collect();
        self.rng.shuffle(&mut order);
        let plans: Vec<BlockPlan> = order
            .iter()
            .map(|&s| {
                self.blocks += 1;
                plan_block(&self.infos[s], s, &mut self.rng, &dir, self.blocks)
            })
            .collect();
        rec.start_round();
        let mut results = Vec::with_capacity(plans.len());
        for p in &plans {
            results.push(send_block(d, p, rec));
        }
        rec.end_round();
        d.rounds += 1;
        let mut out = Vec::with_capacity(plans.len());
        for (p, r) in plans.into_iter().zip(results) {
            out.push((p, r?));
        }
        Ok(out)
    }

    /// One set-up: a fresh daemon, its generated spec and trace files, and
    /// `SETUP_ROUNDS` untimed rounds over every request class.
    fn setup(&mut self) -> Result<Daemon, String> {
        let mut d = self.daemon()?;
        let mut scratch = Recorder::new(f64::INFINITY, 1);
        for _ in 0..SETUP_ROUNDS {
            let done = self.round(&mut d, &mut scratch)?;
            for (plan, res) in &done {
                let errs = res.builds.iter().chain(&res.analyses).chain(&res.injects);
                if let Some(e) = errs.filter_map(Response::err_message).next() {
                    return Err(format!("set-up request failed: {e}"));
                }
                for p in &plan.paths {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
        Ok(d)
    }

    /// A later set-up, on a daemon of its own with inputs from a generator
    /// of its own.
    fn extra_setup(&self, settings: &Settings, setups: &mut Setups) -> Result<(), String> {
        let k = setups.next_index();
        let mut extra = Run {
            infos: self.infos.clone(),
            rng: Rng::new(settings.seed ^ (k << 56)),
            work: self.work,
            pool: Pool::new(1),
            blocks: k << 40,
            daemons: 0,
        };
        setups.time(|| extra.setup().map(Daemon::stop))
    }

    /// Restarts the daemon (untimed) once it has served an epoch.
    fn maybe_restart(&mut self, d: Daemon) -> Result<Daemon, String> {
        if d.rounds < EPOCH_ROUNDS {
            return Ok(d);
        }
        d.stop();
        self.daemon()
    }
}

/// Checks a round's answers, counting each failed block in `rec`, and
/// removes its spec files.
fn check_round(run: &Run<'_>, done: &[(BlockPlan, BlockResult)], rec: &mut Recorder) {
    for (plan, res) in done {
        for why in check_block(plan, res, &run.infos[plan.spec], &run.pool) {
            rec.fail(why);
        }
        for p in &plan.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

pub fn run(settings: &Settings, work: &WorkDir) -> Result<Outcome, String> {
    let started = std::time::Instant::now();
    let pool = Pool::new(1);
    let infos: Vec<SpecInfo> = SPECS
        .iter()
        .map(|base| {
            let at = specs::parse(base.text);
            SpecInfo {
                base,
                horizon: fault_free_run(&enact(&at)).horizon(),
                succeeds: specs::base_succeeds(base),
            }
        })
        .collect();
    let mut run = Run {
        infos,
        rng: Rng::new(settings.seed),
        work,
        pool,
        blocks: 0,
        daemons: 0,
    };

    // Set-up: a daemon, its generated spec and trace files, and untimed
    // rounds over every request class. `SETUPS` set-ups are timed and the
    // median reported; this first one also serves the timed phase.
    let mut d = run.setup()?;
    let mut setups = Setups::new(SETUPS, settings, started.elapsed().as_secs_f64());

    // The timed phase. A traced run interleaves untraced rounds with
    // traced ones, which also scrape METRICS (between rounds, untimed)
    // and are kept for the replay. Every round sends the same requests;
    // rounds differ only in where they fall in a daemon's lifetime, which
    // repeats every `EPOCH_ROUNDS` rounds, the recorders' period.
    let mut shares = StatDelta::default();
    let (mut rec, mut trec) = recorders(settings, EPOCH_ROUNDS as usize);
    let mut service: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut blocks = Vec::new();
    while let Some(traced_round) = next_is_traced(settings, &rec, &trec) {
        let r = if traced_round { &mut trec } else { &mut rec };
        let m0 = if traced_round {
            scrape_service(&mut d.client)
        } else {
            BTreeMap::new()
        };
        let before = d.server.stats();
        let done = run.round(&mut d, r)?;
        shares.add(before, d.server.stats());
        check_round(&run, &done, r);
        if traced_round {
            for (verb, (s1, c1)) in scrape_service(&mut d.client) {
                let (s0, c0) = m0.get(&verb).copied().unwrap_or_default();
                let e = service.entry(verb).or_default();
                e.0 += s1 - s0;
                e.1 += c1 - c0;
            }
            blocks.extend(done);
        }
        d = run.maybe_restart(d)?;
        if setups.due(Some(rec.wall_s + trec.wall_s)) {
            run.extra_setup(settings, &mut setups)?;
        }
    }
    while setups.due(None) {
        run.extra_setup(settings, &mut setups)?;
    }

    let mut traced = None;
    if settings.trace {
        // Replay every traced op in-process through the public layer
        // functions, checking that each replay answers what the daemon did.
        let mut tracer = trec.tracer.take().expect("traced recorder");
        let mut op = 0u64;
        for (plan, res) in &blocks {
            for why in replay_block(plan, res, &mut tracer, &mut op, &run.pool) {
                trec.fail(why);
            }
        }
        let mut report = traced_report(&rec, &trec, &tracer, &service, op);
        report.spans_file = write_spans(settings, &tracer);
        traced = Some(report);
        rec.absorb_failures(trec);
    }
    d.stop();

    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    Ok(Outcome {
        host_cpus: 0,
        pinned: None,
        setups_s: setups.times_s,
        tail_pct: 99.5,
        shares: vec![
            Share {
                name: "serve.eval_memo_hit_share",
                value: share(shares.eval_warm, shares.eval_served),
                base: format!("{} of {} EVALs answered from the session memo", shares.eval_warm, shares.eval_served),
            },
            Share {
                name: "serve.reload_delta_share",
                value: share(shares.reload_delta, shares.reloads),
                base: format!("{} of {} RELOADs took the delta path", shares.reload_delta, shares.reloads),
            },
            Share {
                name: "monitor.points_reused_per_event",
                value: share(shares.monitor_points_reused, shares.monitor_events),
                base: format!(
                    "{} memoized point sets reused over {} events",
                    shares.monitor_points_reused, shares.monitor_events
                ),
            },
        ],
        notes: vec![format!(
            "daemon: in-process, 1 connection worker, pool width 1, restarted every {EPOCH_ROUNDS} rounds \
             (untimed); {} daemon instance(s)",
            run.daemons
        )],
        rec,
        traced,
    })
}

/// Replays one block through the public layer functions with spans, in
/// the block's op order, and returns one message per replay whose output
/// differs from the daemon's answer.
fn replay_block(
    plan: &BlockPlan,
    res: &BlockResult,
    t: &mut Tracer,
    op: &mut u64,
    pool: &Pool,
) -> Vec<String> {
    let spec = SPECS[plan.spec].name;
    let mut bad = Vec::new();
    let mut next = |t: &mut Tracer| {
        *op += 1;
        t.set_op(*op);
    };

    // LOAD: parse, annotate, render, enact, execute, construct.
    next(t);
    let (mut at, mut syms) = t
        .time("spec.parse", || parse_spec(&plan.texts[0]))
        .expect("generated spec parses");
    let mut resume = t.time("annotate.analyze", || analyze_at_resumable(&at));
    let mut analysis = t.time("render.report", || resume.render(&at));
    let mut proto = t.time("enact", || enact(&at));
    let mut system = System::new([t.time("executor.execute", || fault_free_run(&proto))]);
    let (mut goods, _, mut checkpoint) = t
        .time("goodruns.construct", || {
            construct_checkpointed_on(&system, &specs::belief_assumptions(&at), pool)
        })
        .expect("committed specs construct");
    let mut memo: HashMap<String, String> = HashMap::new();

    for state in 0..3 {
        if state > 0 {
            // RELOAD: the same reuse decisions the daemon makes.
            next(t);
            let (new_at, new_syms) = t
                .time("spec.parse", || parse_spec(&plan.texts[state]))
                .expect("generated spec parses");
            let diff = SpecDiff::classify(&at, &syms, &new_at, &new_syms);
            match diff.analysis_resumable() {
                Some(added) => {
                    let added = added.to_vec();
                    t.time("annotate.advance", || resume.advance(&new_at, &added));
                }
                None => resume = t.time("annotate.analyze", || analyze_at_resumable(&new_at)),
            }
            analysis = t.time("render.report", || resume.render(&new_at));
            let new_proto = t.time("enact", || enact(&new_at));
            let system_reused = new_proto == proto;
            if !system_reused {
                system = System::new([t.time("executor.execute", || fault_free_run(&new_proto))]);
            }
            let beliefs = specs::belief_assumptions(&new_at);
            let old_goods = goods.clone();
            if !system_reused {
                let (g, _, c) = t
                    .time("goodruns.construct", || {
                        construct_checkpointed_on(&system, &beliefs, pool)
                    })
                    .expect("committed specs construct");
                (goods, checkpoint) = (g, c);
            } else if beliefs != specs::belief_assumptions(&at) {
                let (g, _, c, _) = t
                    .time("goodruns.construct", || {
                        resume_construct_on(&system, &beliefs, &checkpoint, pool)
                    })
                    .expect("committed specs construct");
                (goods, checkpoint) = (g, c);
            }
            if !(system_reused && new_syms == syms && goods == old_goods) {
                memo.clear();
            }
            (at, syms, proto) = (new_at, new_syms, new_proto);
        }
        // ANALYZE is answered from the pre-rendered report.
        next(t);
        if res.analyses[state].payload() != analysis {
            bad.push(format!(
                "{spec}: replayed analysis {state} differs from ANALYZE"
            ));
        }
        let sem = Semantics::new(&system, goods.clone());
        for (e, got) in plan.evals[state].iter().zip(&res.evals[state]) {
            next(t);
            let key = e.key();
            let line = match memo.get(&key) {
                Some(hit) => hit.clone(),
                None => {
                    let phi = t
                        .time("spec.parse", || parse_formula(&e.formula, &syms))
                        .expect("stated formulas parse");
                    let v = t
                        .time("semantics.eval", || sem.eval(Point::new(0, e.k), &phi))
                        .expect("points are in range");
                    let line = format!("at (run 0, time {}): {phi} = {v}\n", e.k);
                    memo.insert(key, line.clone());
                    line
                }
            };
            if got.payload() != line {
                bad.push(format!("{spec}: replayed EVAL {} differs", e.key()));
            }
        }
        if state == 0 {
            for (f, got) in plan.injects.iter().zip(&res.injects) {
                next(t);
                let report = t
                    .time("inject.report", || {
                        inject_report(&at, &f.request(), pool, &ExecutionCache::new())
                    })
                    .map(|o| o.report);
                if report.as_deref() != Ok(got.payload().as_str()) {
                    bad.push(format!("{spec}: replayed INJECT {} differs", f.text()));
                }
            }
        }
    }
    for (m, (_, events)) in plan.monitors.iter().zip(&res.monitors) {
        next(t);
        let mut monitor = t
            .time("monitor.new", || Monitor::new("replay", m.formulas.clone()))
            .expect("stated formulas parse");
        for (l, got) in m.lines.iter().zip(events) {
            next(t);
            let lines = t.time("monitor.feed", || monitor.feed_line(l, pool));
            if lines.as_ref() != Ok(&got.lines) {
                bad.push(format!("{spec}: replayed EVENT {l:?} differs"));
            }
        }
    }
    bad
}

fn traced_report(
    untraced: &Recorder,
    traced: &Recorder,
    tracer: &Tracer,
    service: &BTreeMap<String, (f64, f64)>,
    replayed: u64,
) -> TracedReport {
    let n = traced.latencies_ms.len() as f64;
    let total_ms: f64 = traced.latencies_ms.iter().sum();
    let selfs = tracer.self_times();
    let per_op_ms = |name: &str| selfs.get(name).map_or(0.0, |s| s.ns as f64 / 1e6 / n);
    let calls = |name: &str| selfs.get(name).map_or(0, |s| s.calls);
    let verbs = [
        "load", "reload", "analyze", "eval", "inject", "monitor", "event",
    ];
    let (service_us, requests) = verbs.iter().fold((0.0, 0.0), |(s, c), v| {
        let (vs, vc) = service.get(*v).copied().unwrap_or_default();
        (s + vs, c + vc)
    });
    let wire_us = (total_ms * 1e3 - service_us) / n;
    let mut layers = vec![Layer {
        name: "serve.wire_overhead_us",
        value: wire_us,
        unit: "us",
        calls: requests as u64,
        source: "Client::request minus METRICS service time",
    }];
    for (name, verb) in [
        ("serve.service_us.load", "load"),
        ("serve.service_us.reload", "reload"),
        ("serve.service_us.eval", "eval"),
        ("serve.service_us.analyze", "analyze"),
        ("serve.service_us.inject", "inject"),
        ("serve.service_us.event", "event"),
    ] {
        let (s, c) = service.get(verb).copied().unwrap_or_default();
        layers.push(Layer {
            name,
            value: s / c.max(1.0),
            unit: "us",
            calls: c as u64,
            source: "METRICS request_duration _sum/_count",
        });
    }
    let spans: [(&'static str, &'static str, f64, &'static str, &'static str); 11] = [
        (
            "spec.parse_ms",
            "spec.parse",
            1.0,
            "ms",
            "parse_spec, parse_formula",
        ),
        (
            "annotate.analyze_ms",
            "annotate.analyze",
            1.0,
            "ms",
            "analyze_at_resumable",
        ),
        (
            "annotate.advance_ms",
            "annotate.advance",
            1.0,
            "ms",
            "AnalysisResume::advance",
        ),
        (
            "render.report_ms",
            "render.report",
            1.0,
            "ms",
            "AnalysisResume::render",
        ),
        ("enact_ms", "enact", 1.0, "ms", "enact"),
        (
            "executor.execute_ms",
            "executor.execute",
            1.0,
            "ms",
            "execute_with_faults",
        ),
        (
            "goodruns.construct_ms",
            "goodruns.construct",
            1.0,
            "ms",
            "construct_checkpointed_on / resume_construct_on (include the EvalCache prewarm)",
        ),
        (
            "semantics.eval_us",
            "semantics.eval",
            1e3,
            "us",
            "Semantics::eval (fills the lazy cache the daemon prewarms)",
        ),
        (
            "inject.report_ms",
            "inject.report",
            1.0,
            "ms",
            "inject_report",
        ),
        ("monitor.new_us", "monitor.new", 1e3, "us", "Monitor::new"),
        (
            "monitor.feed_us",
            "monitor.feed",
            1e3,
            "us",
            "Monitor::feed_line",
        ),
    ];
    let mut explained = wire_us / 1e3;
    for (name, span, scale, unit, source) in spans {
        let ms = per_op_ms(span);
        explained += ms;
        layers.push(Layer {
            name,
            value: ms * scale,
            unit,
            calls: calls(span),
            source,
        });
    }
    TracedReport {
        untraced_ops_per_s: untraced.summary(50.0).ops_per_s,
        traced_ops_per_s: traced.summary(50.0).ops_per_s,
        mean_latency_ms: total_ms / n,
        explained_ms: explained,
        layers,
        replayed,
        spans_file: String::new(),
    }
}
