//! The `atl` command-line tool.
//!
//! ```text
//! atl analyze <spec.atl>        run the annotation procedure on a protocol spec
//! atl trace <spec.atl> <goal>   show the derivation of a goal
//! atl suite                     print the built-in protocol suite table
//! atl proof message-meaning     print the checked reconstruction of a BAN rule
//! atl proof nonce-verification
//! atl check-run <trace.run>     audit a run against restrictions 1-5
//! atl eval <trace.run> <formula> [time]   evaluate a formula on the run
//! atl inject <spec.atl> [--seed N] [--drop P] [--dup P] [--delay P[:R]]
//!            [--reorder P] [--replay P] [--compromise K@T] [--patience N]
//!            [--retries N] [--public] [--emit-trace FILE]
//!     execute the protocol under a fault plan, audit the faulted run
//!     against restrictions 1-5, and report which annotation-procedure
//!     beliefs survive the degradation
//! atl inject <spec.atl> --sweep [--seeds N] [grid flags]
//!     sweep a fault-plan grid instead: probability flags take
//!     comma-separated step lists (`--drop 0,0.5,1`), `--seeds N` widens
//!     the seed range, and `--compromise` grid points are tried both with
//!     and without the compromise. Equivalent plans are deduplicated by
//!     fingerprint and executed once over the worker pool; the report
//!     shows per-plan verdicts, a belief-survival histogram, and the
//!     semantic validity of each goal over the degraded system.
//! atl inject <spec.atl> --sweep --workers host:port,... [--store DIR]
//!            [--shard N] [--deadline-ms N] [--shard-retries N]
//!            [--worker-failures N] [--backoff-ms N]
//!     run the sweep over the distributed fabric instead: shards of the
//!     deduplicated grid are dealt to serve-mode daemons (the SWEEP
//!     verb), outcomes are merged back by fingerprint, and `--store`
//!     persists every outcome in a crash-safe content-addressed store so
//!     a killed coordinator resumes instead of re-executing. Dead or
//!     hung workers are retried with backoff, their shards requeued, and
//!     the sweep degrades to in-process execution if every worker is
//!     lost — stdout is byte-identical to the single-process sweep in
//!     all cases (fabric accounting goes to stderr). `--store` without
//!     `--workers` gives a purely local but resumable sweep.
//! atl hunt <spec.atl> [--seed N] [--budget N] [--batch N] [--steps P,P,...]
//!          [--compromise K@T] [--store DIR] [--from-monitor FILE]
//!          [--patience N] [--retries N] [--public]
//!     search the fault-plan space for attacks instead of enumerating a
//!     grid: a feedback-directed fuzzer mutates plans from a seeded
//!     deterministic RNG, executes only never-before-seen fingerprints
//!     through the sweep engine, and keeps one class per distinct
//!     belief-survival signature, each shrunk to a minimal reproducer.
//!     Compromise candidates default to every key the spec mentions;
//!     `--compromise` adds more. `--store DIR` persists the corpus with
//!     checksummed entries, so a killed hunt resumes without duplicate
//!     signatures (resumed plans are re-classified against the spec
//!     given); `--from-monitor FILE` seeds the corpus from a
//!     persisted monitor checkpoint (compromises and replays
//!     reconstructed from the live prefix). Output is byte-identical at
//!     every `--jobs` count.
//! atl serve [--port N] [--max-sessions N] [--idle-timeout SECS]
//!           [--drain SECS] [--conn-workers N] [--queue-depth N]
//!           [--exec-cache-cap N] [--store DIR]
//!     run the serve-mode daemon: a long-lived loopback TCP server that
//!     parses each spec once into a warmed session (frozen interner,
//!     good-run vector, eval caches) and answers
//!     LOAD/RELOAD/ANALYZE/EVAL/INJECT/SWEEP/HUNT/MONITOR/EVENT/STATS/
//!     METRICS/SHUTDOWN requests from it. LOAD digests are canonical
//!     (comments and insignificant whitespace erased), so comment-only
//!     twins dedupe to one session; `RELOAD <id> <spec>` re-points a live session at
//!     an edited spec, diffing the new parse against the old one and
//!     reusing every stage and cache whose inputs are untouched —
//!     answers stay byte-identical to a cold load of the edited spec.
//!     Fault-plan executions (INJECT and SWEEP) share one
//!     global execution cache keyed by protocol+options digest and plan
//!     fingerprint, so identical plans dedupe across sessions;
//!     `--exec-cache-cap` bounds it (oldest-first eviction, default
//!     unbounded). Connections are served by a fixed pool of
//!     `--conn-workers` threads (default 8) draining a bounded accept
//!     queue of `--queue-depth` connections (default 64); overflow is
//!     answered with a fast `ERR busy`, and connections accepted while
//!     shutting down get `ERR shutting down` instead of a dropped
//!     socket. METRICS returns a Prometheus-style text exposition
//!     (per-verb latency histograms, queue/worker gauges, backpressure
//!     and cache counters). Connections idle past `--idle-timeout`
//!     (default 300, 0 disables) are reaped; SHUTDOWN waits up to
//!     `--drain` seconds (default 10) for in-flight requests to finish
//!     writing. `--store DIR` checkpoints every MONITOR session after
//!     each EVENT and resumes the checkpoints it finds there on start.
//! atl client [--port N] REQUEST...
//!     send one request line to a running daemon and print the payload
//!     (the conformance smoke test's transport).
//! ```
//!
//! Every subcommand additionally accepts `--jobs N` anywhere on the
//! command line: independent analyses (the suite entries, the
//! baseline/degraded pair under `inject`) are sharded over a
//! work-stealing pool of `N` workers. The default is the machine's
//! available parallelism; `--jobs 1` forces the sequential reference
//! path. Outputs are identical whatever `N` is.
//!
//! Exit codes: 0 success, 1 goal/verdict failure, 2 usage or runtime
//! error, 3 parse error (reported as a one-line `file:position: message`
//! diagnostic — the same string a serve-mode daemon returns in its `ERR`
//! line for the same input).

use atl::core::annotate::{analyze_at, render_analysis};
use atl::core::parallel::Pool;
use atl::core::spec::parse_spec;
use atl::core::theorems;
use atl::lang::parser::parse_formula;
use atl::lang::{Formula, Key, KeyTerm, Message, Nonce, Principal};
use atl::protocols::suite;
use std::process::ExitCode;

/// A parse failure rendered as its one-line `file:position: message`
/// diagnostic; `main` maps it to exit code 3 so scripted callers (and
/// the serve conformance harness) can tell "bad input" from "bad
/// invocation".
#[derive(Debug)]
struct ParseDiag(String);

impl std::fmt::Display for ParseDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseDiag {}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let pool = match take_jobs(&mut args) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(args.get(1)),
        Some("trace") => cmd_trace(args.get(1), args.get(2)),
        Some("suite") => cmd_suite(&pool),
        Some("proof") => cmd_proof(args.get(1)),
        Some("check-run") => cmd_check_run(args.get(1)),
        Some("eval") => cmd_eval(args.get(1), args.get(2), args.get(3)),
        Some("monitor") => cmd_monitor(&args[1..], &pool),
        Some("inject") => cmd_inject(&args[1..], &pool),
        Some("hunt") => cmd_hunt(&args[1..], &pool),
        Some("serve") => cmd_serve(&args[1..], pool),
        Some("client") => cmd_client(&args[1..]),
        _ => {
            eprintln!(
                "usage: atl [--jobs N] <analyze SPEC | trace SPEC GOAL | suite | proof NAME | check-run TRACE | eval TRACE FORMULA [TIME] | monitor <TRACE | --stdin> FORMULA... | inject SPEC [FAULT-FLAGS] | hunt SPEC [--seed N] [--budget N] [--batch N] [--steps P,...] [--compromise K@T] [--store DIR] [--from-monitor FILE] | serve [--port N] [--max-sessions N] [--idle-timeout SECS] [--drain SECS] [--conn-workers N] [--queue-depth N] [--exec-cache-cap N] [--store DIR] | client [--port N] REQUEST...>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.downcast_ref::<ParseDiag>().is_some() {
                ExitCode::from(3)
            } else {
                ExitCode::from(2)
            }
        }
    }
}

/// Strips a global `--jobs N` flag (if present) and builds the pool;
/// without the flag the pool sizes itself to the machine.
fn take_jobs(args: &mut Vec<String>) -> Result<Pool, Box<dyn std::error::Error>> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(Pool::auto());
    };
    let n: usize = args
        .get(i + 1)
        .ok_or("--jobs needs a value")?
        .parse()
        .map_err(|e| format!("--jobs: {e}"))?;
    if n == 0 {
        return Err("--jobs must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Pool::new(n))
}

fn load(path: Option<&String>) -> Result<(String, String), Box<dyn std::error::Error>> {
    let path = path.ok_or("missing spec path")?;
    Ok((path.clone(), std::fs::read_to_string(path)?))
}

/// Parses a spec, mapping failures to the exit-code-3 diagnostic.
fn parse_spec_diag(
    path: Option<&String>,
) -> Result<(atl::core::annotate::AtProtocol, atl::lang::parser::Symbols), Box<dyn std::error::Error>>
{
    let (path, content) = load(path)?;
    parse_spec(&content).map_err(|e| ParseDiag(e.diagnostic(&path)).into())
}

fn cmd_analyze(path: Option<&String>) -> Result<bool, Box<dyn std::error::Error>> {
    let (proto, _) = parse_spec_diag(path)?;
    let analysis = analyze_at(&proto);
    print!("{}", render_analysis(&proto, &analysis));
    Ok(analysis.succeeded())
}

fn cmd_trace(
    path: Option<&String>,
    goal: Option<&String>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let (proto, syms) = parse_spec_diag(path)?;
    let goal_text = goal.ok_or("missing goal formula")?;
    let goal = parse_formula(goal_text, &syms).map_err(|e| ParseDiag(e.diagnostic("<formula>")))?;
    let analysis = analyze_at(&proto);
    if !analysis.prover.holds(&goal) {
        println!("goal not derivable: {goal}");
        return Ok(false);
    }
    println!("derivation of {goal}:");
    let mut frontier = vec![goal];
    let mut printed = 0;
    while let Some(f) = frontier.pop() {
        if let Some(step) = analysis.prover.derivation_of(&f) {
            println!("  {} [{}]", step.conclusion, step.rule);
            frontier.extend(step.premises.iter().cloned());
            printed += 1;
            if printed > 200 {
                println!("  … (truncated)");
                break;
            }
        }
    }
    Ok(true)
}

fn cmd_suite(pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    let entries = suite::run_suite_on(pool);
    print!("{}", suite::summary_table(&entries));
    Ok(entries.iter().all(suite::SuiteEntry::matches_expectation))
}

fn cmd_check_run(path: Option<&String>) -> Result<bool, Box<dyn std::error::Error>> {
    let (path, content) = load(path)?;
    let (run, _) = atl::model::parse_trace(&content).map_err(|e| ParseDiag(e.diagnostic(&path)))?;
    println!(
        "run: times {}..={}, {} events, {} sends",
        run.start_time(),
        run.horizon(),
        run.events().count(),
        run.send_records().len()
    );
    let violations = atl::model::validate_run(&run);
    if violations.is_empty() {
        println!("restrictions 1-5: all satisfied");
        Ok(true)
    } else {
        for v in &violations {
            println!("  !! {v}");
        }
        Ok(false)
    }
}

fn cmd_eval(
    path: Option<&String>,
    formula: Option<&String>,
    time: Option<&String>,
) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::semantics::{GoodRuns, Semantics};
    use atl::model::{Point, System};
    let (path, content) = load(path)?;
    let (run, syms) =
        atl::model::parse_trace(&content).map_err(|e| ParseDiag(e.diagnostic(&path)))?;
    let phi = parse_formula(formula.ok_or("missing formula")?, &syms)
        .map_err(|e| ParseDiag(e.diagnostic("<formula>")))?;
    let k: i64 = match time {
        Some(t) => t.parse()?,
        None => run.horizon(),
    };
    let sys = System::new([run]);
    let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
    let verdict = sem.eval(Point::new(0, k), &phi)?;
    println!("at (run 0, time {k}): {phi} = {verdict}");
    Ok(verdict)
}

/// `atl monitor <TRACE | --stdin> FORMULA...` — stream a trace one
/// line at a time through the incremental monitor, printing each
/// event's verdict lines (exact `atl eval` format) as they land, with
/// the annotation-closure summary on stderr at end of stream. Exit
/// codes match the batch CLI: 3 on a parse diagnostic, 1 when the last
/// verdict of any watched formula is false, 0 otherwise.
fn cmd_monitor(args: &[String], pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::monitor::Monitor;
    use std::io::BufRead as _;

    let (origin, source): (String, Box<dyn std::io::BufRead>) =
        match args.first().map(String::as_str) {
            Some("--stdin") => ("stdin".into(), Box::new(std::io::stdin().lock())),
            Some(path) => (
                path.to_string(),
                Box::new(std::io::BufReader::new(std::fs::File::open(path)?)),
            ),
            None => return Err("monitor needs a trace (path or --stdin) and a formula".into()),
        };
    let formulas: Vec<String> = args[1..].to_vec();
    if formulas.is_empty() {
        return Err("monitor needs at least one formula to watch".into());
    }
    let mut monitor =
        Monitor::new("monitor", formulas).map_err(|e| ParseDiag(e.diagnostic(&origin)))?;
    for line in source.lines() {
        let line = line?;
        match monitor.feed_line(&line, pool) {
            Ok(out) => {
                for l in out {
                    println!("{l}");
                }
            }
            Err(e) if e.is_parse() => return Err(ParseDiag(e.diagnostic(&origin)).into()),
            Err(e) => return Err(e.to_string().into()),
        }
    }
    eprint!("{}", monitor.summary());
    Ok(monitor.last_verdicts().iter().all(|v| *v))
}

/// Parsed flags for `atl inject`. Probability flags accept
/// comma-separated step lists, which only `--sweep` may use; without it
/// each must be a single value.
struct InjectFlags {
    path: Option<String>,
    sweep: bool,
    seed: u64,
    seeds: u64,
    drop: Vec<f64>,
    dup: Vec<f64>,
    delay: Vec<f64>,
    delay_rounds: u32,
    reorder: Vec<f64>,
    replay: Vec<f64>,
    compromises: Vec<(Key, i64)>,
    patience: u32,
    retries: u32,
    public: bool,
    emit_trace: Option<String>,
    /// Fabric flags (sweep only): worker daemon addresses and the
    /// persistent outcome store.
    workers: Vec<String>,
    store: Option<String>,
    shard: usize,
    deadline_ms: u64,
    shard_retries: u32,
    worker_failures: u32,
    backoff_ms: u64,
}

impl InjectFlags {
    /// The single fault plan of a non-sweep invocation.
    fn plan(&self) -> Result<atl::model::FaultPlan, Box<dyn std::error::Error>> {
        let one = |name: &str, steps: &[f64]| -> Result<f64, Box<dyn std::error::Error>> {
            match steps {
                [] => Ok(0.0),
                [p] => Ok(*p),
                _ => Err(format!("{name} lists multiple steps; use --sweep to grid them").into()),
            }
        };
        let mut plan = atl::model::FaultPlan::new(self.seed)
            .drop(one("--drop", &self.drop)?)
            .duplicate(one("--dup", &self.dup)?)
            .delay(one("--delay", &self.delay)?, self.delay_rounds)
            .reorder(one("--reorder", &self.reorder)?)
            .replay(one("--replay", &self.replay)?);
        plan.compromises = self.compromises.clone();
        Ok(plan)
    }

    /// The plan grid of a `--sweep` invocation: `--seeds N` seeds
    /// starting at `--seed`, the cartesian product of every step list,
    /// and (when keys are compromised) both the clean and the
    /// compromised schedule.
    fn grid(&self) -> atl::model::SweepGrid {
        let mut grid = atl::model::SweepGrid::new()
            .seeds(self.seed..self.seed.saturating_add(self.seeds))
            .drop_steps(self.drop.iter().copied())
            .duplicate_steps(self.dup.iter().copied())
            .delay_steps(self.delay.iter().copied(), self.delay_rounds)
            .reorder_steps(self.reorder.iter().copied())
            .replay_steps(self.replay.iter().copied());
        if !self.compromises.is_empty() {
            grid = grid
                .compromise_choice([])
                .compromise_choice(self.compromises.iter().cloned());
        }
        grid
    }
}

fn parse_inject_flags(args: &[String]) -> Result<InjectFlags, Box<dyn std::error::Error>> {
    let mut flags = InjectFlags {
        path: None,
        sweep: false,
        seed: 0,
        seeds: 4,
        drop: Vec::new(),
        dup: Vec::new(),
        delay: Vec::new(),
        delay_rounds: 2,
        reorder: Vec::new(),
        replay: Vec::new(),
        compromises: Vec::new(),
        patience: 6,
        retries: 2,
        public: false,
        emit_trace: None,
        workers: Vec::new(),
        store: None,
        shard: 16,
        deadline_ms: 30_000,
        shard_retries: 3,
        worker_failures: 3,
        backoff_ms: 50,
    };
    fn need<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn steps(v: &str) -> Result<Vec<f64>, std::num::ParseFloatError> {
        v.split(',').map(str::parse).collect()
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep" => flags.sweep = true,
            "--seed" => flags.seed = need(&mut it, "--seed")?.parse()?,
            "--seeds" => flags.seeds = need(&mut it, "--seeds")?.parse()?,
            "--drop" => flags.drop = steps(need(&mut it, "--drop")?)?,
            "--dup" => flags.dup = steps(need(&mut it, "--dup")?)?,
            "--delay" => {
                let v = need(&mut it, "--delay")?;
                let (p, rounds) = match v.split_once(':') {
                    Some((p, r)) => (p, r.parse()?),
                    None => (v, 2),
                };
                flags.delay = steps(p)?;
                flags.delay_rounds = rounds;
            }
            "--reorder" => flags.reorder = steps(need(&mut it, "--reorder")?)?,
            "--replay" => flags.replay = steps(need(&mut it, "--replay")?)?,
            "--compromise" => {
                let v = need(&mut it, "--compromise")?;
                let (key, t) = v
                    .split_once('@')
                    .ok_or("--compromise takes KEY@TIME, e.g. Kab@2")?;
                flags.compromises.push((Key::new(key), t.parse()?));
            }
            "--patience" => flags.patience = need(&mut it, "--patience")?.parse()?,
            "--retries" => flags.retries = need(&mut it, "--retries")?.parse()?,
            "--public" => flags.public = true,
            "--emit-trace" => flags.emit_trace = Some(need(&mut it, "--emit-trace")?.to_string()),
            "--workers" => {
                flags.workers = need(&mut it, "--workers")?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--store" => flags.store = Some(need(&mut it, "--store")?.to_string()),
            "--shard" => flags.shard = need(&mut it, "--shard")?.parse()?,
            "--deadline-ms" => flags.deadline_ms = need(&mut it, "--deadline-ms")?.parse()?,
            "--shard-retries" => flags.shard_retries = need(&mut it, "--shard-retries")?.parse()?,
            "--worker-failures" => {
                flags.worker_failures = need(&mut it, "--worker-failures")?.parse()?;
            }
            "--backoff-ms" => flags.backoff_ms = need(&mut it, "--backoff-ms")?.parse()?,
            other if !other.starts_with("--") && flags.path.is_none() => {
                flags.path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok(flags)
}

fn cmd_inject(args: &[String], pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::inject::{inject_report, InjectRequest};
    use atl::model::{ExecOptions, ExecutionCache, ExpectPolicy};

    let flags = parse_inject_flags(args)?;
    let (at, _syms) = parse_spec_diag(flags.path.as_ref())?;
    let policy = if flags.retries > 0 {
        ExpectPolicy::resend_after(flags.patience, flags.retries)
    } else {
        ExpectPolicy::skip_after(flags.patience)
    };
    let opts = ExecOptions {
        public_channel: flags.public,
        ..ExecOptions::default()
    };

    if flags.sweep {
        use atl::core::sweep::{fault_sweep, SweepConfig};
        let config = SweepConfig {
            grid: flags.grid(),
            options: opts,
            expect_policy: policy,
        };
        if !flags.workers.is_empty() || flags.store.is_some() {
            use atl::core::fabric::{fabric_sweep, FabricConfig};
            use std::time::Duration;
            let fabric = FabricConfig {
                workers: flags.workers.clone(),
                store: flags.store.as_ref().map(std::path::PathBuf::from),
                shard_plans: flags.shard.max(1),
                deadline: Duration::from_millis(flags.deadline_ms.max(1)),
                shard_retries: flags.shard_retries,
                worker_failures: flags.worker_failures,
                backoff: Duration::from_millis(flags.backoff_ms),
            };
            let spec_path = flags.path.as_ref().expect("spec parsed above");
            let (report, fabric_stats) = fabric_sweep(&at, spec_path, &config, &fabric, pool)?;
            eprintln!("{fabric_stats}");
            print!("{report}");
            return Ok(report.all_executed() && report.audit_violations == 0);
        }
        let report = fault_sweep(&at, &config, pool);
        print!("{report}");
        return Ok(report.all_executed() && report.audit_violations == 0);
    }
    if !flags.workers.is_empty() || flags.store.is_some() {
        return Err("--workers/--store require --sweep".into());
    }

    // The single-plan report is shared with the serve daemon
    // (`atl_core::inject`); a one-shot invocation passes a fresh
    // execution cache.
    let req = InjectRequest {
        plan: flags.plan()?,
        policy,
        options: opts,
    };
    let outcome = inject_report(&at, &req, pool, &ExecutionCache::new())?;
    print!("{}", outcome.report);
    if let Some(path) = &flags.emit_trace {
        std::fs::write(path, atl::model::render_trace(&outcome.run))?;
        println!("trace written to {path}");
    }
    Ok(outcome.ok)
}

/// `atl hunt SPEC [flags]` — coverage-guided attack search. The spec's
/// keys become compromise candidates automatically; the report lists
/// one class per distinct belief-survival signature with its shrunk
/// minimal plan. Exit code 0 when the hunt completes (finding attacks
/// is the tool doing its job, not a failure).
fn cmd_hunt(args: &[String], pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::hunt::{default_space, hunt_report, seeds_from_checkpoint, HuntSettings};
    use atl::model::{ExecOptions, ExecutionCache, ExpectPolicy, FaultPlan, HuntConfig, HuntStore};

    let mut path: Option<String> = None;
    let mut seed: u64 = 0;
    let mut budget: usize = 256;
    let mut batch: usize = 32;
    let mut steps: Option<Vec<f64>> = None;
    let mut compromises: Vec<(Key, i64)> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut from_monitor: Option<String> = None;
    let mut patience: u32 = 6;
    let mut retries: u32 = 2;
    let mut public = false;
    fn need<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = need(&mut it, "--seed")?.parse()?,
            "--budget" => budget = need(&mut it, "--budget")?.parse()?,
            "--batch" => batch = need(&mut it, "--batch")?.parse::<usize>()?.max(1),
            "--steps" => {
                let parsed = need(&mut it, "--steps")?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<f64>, _>>()?;
                if let Some(p) = parsed.iter().find(|p| !(0.0..=1.0).contains(*p)) {
                    return Err(format!("--steps probability {p} is outside [0, 1]").into());
                }
                steps = Some(parsed);
            }
            "--compromise" => {
                let v = need(&mut it, "--compromise")?;
                let (key, t) = v
                    .split_once('@')
                    .ok_or("--compromise takes KEY@TIME, e.g. Kab@2")?;
                compromises.push((Key::new(key), t.parse()?));
            }
            "--store" => store_dir = Some(need(&mut it, "--store")?.to_string()),
            "--from-monitor" => {
                from_monitor = Some(need(&mut it, "--from-monitor")?.to_string());
            }
            "--patience" => patience = need(&mut it, "--patience")?.parse()?,
            "--retries" => retries = need(&mut it, "--retries")?.parse()?,
            "--public" => public = true,
            other if !other.starts_with("--") && path.is_none() => {
                path = Some(other.to_string());
            }
            other => return Err(format!("unknown hunt flag {other}").into()),
        }
    }
    let (at, _syms) = parse_spec_diag(path.as_ref())?;
    let mut space = default_space(&at);
    if let Some(steps) = steps {
        space.prob_steps = steps;
    }
    for (key, t) in compromises {
        if !space.compromise_candidates.contains(&(key.clone(), t)) {
            space = space.candidate(key, t);
        }
    }
    let seed_plans: Vec<FaultPlan> = match &from_monitor {
        Some(file) => seeds_from_checkpoint(&std::fs::read_to_string(file)?)?,
        None => Vec::new(),
    };
    let settings = HuntSettings {
        config: HuntConfig {
            seed,
            budget,
            batch,
            space,
            seed_plans,
        },
        options: ExecOptions {
            public_channel: public,
            ..ExecOptions::default()
        },
        expect_policy: if retries > 0 {
            ExpectPolicy::resend_after(patience, retries)
        } else {
            ExpectPolicy::skip_after(patience)
        },
    };
    let store = match &store_dir {
        Some(dir) => Some(HuntStore::open(dir)?),
        None => None,
    };
    let report = hunt_report(&at, &settings, pool, &ExecutionCache::new(), store.as_ref());
    print!("{report}");
    Ok(true)
}

fn cmd_serve(args: &[String], pool: Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::serve::{ServeConfig, Server};

    let mut config = ServeConfig {
        pool,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => config.port = it.next().ok_or("--port needs a value")?.parse()?,
            "--max-sessions" => {
                config.max_sessions = it
                    .next()
                    .ok_or("--max-sessions needs a value")?
                    .parse::<usize>()?
                    .max(1);
            }
            "--idle-timeout" => {
                let secs: u64 = it.next().ok_or("--idle-timeout needs a value")?.parse()?;
                config.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--drain" => {
                let secs: u64 = it.next().ok_or("--drain needs a value")?.parse()?;
                config.drain_deadline = std::time::Duration::from_secs(secs);
            }
            "--conn-workers" => {
                config.conn_workers = it
                    .next()
                    .ok_or("--conn-workers needs a value")?
                    .parse::<usize>()?
                    .max(1);
            }
            "--queue-depth" => {
                config.queue_depth = it
                    .next()
                    .ok_or("--queue-depth needs a value")?
                    .parse::<usize>()?
                    .max(1);
            }
            "--exec-cache-cap" => {
                let cap: usize = it.next().ok_or("--exec-cache-cap needs a value")?.parse()?;
                config.exec_cache_capacity = (cap > 0).then_some(cap);
            }
            "--store" => {
                config.monitor_store = Some(it.next().ok_or("--store needs a value")?.into());
            }
            other => return Err(format!("unknown serve flag {other}").into()),
        }
    }
    let server = Server::start(config)?;
    println!("serving on 127.0.0.1:{}", server.port());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    server.join();
    println!("shutdown complete");
    Ok(true)
}

fn cmd_client(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::serve::{Client, DEFAULT_PORT};

    let mut port = DEFAULT_PORT;
    let mut words: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => port = it.next().ok_or("--port needs a value")?.parse()?,
            other => words.push(other),
        }
    }
    if words.is_empty() {
        return Err("client needs a request, e.g. `atl client STATS`".into());
    }
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let mut client = Client::connect(addr)?;
    let resp = client.request(&words.join(" "))?;
    match resp.err_message() {
        None => {
            print!("{}", resp.payload());
            Ok(true)
        }
        Some(msg) => {
            eprintln!("error: {msg}");
            Ok(false)
        }
    }
}

fn cmd_proof(which: Option<&String>) -> Result<bool, Box<dyn std::error::Error>> {
    let p = Principal::new("P");
    let q = Principal::new("Q");
    let s = Principal::new("S");
    let k = KeyTerm::Key(Key::new("K"));
    let x = Message::nonce(Nonce::new("X"));
    let proof = match which.map(String::as_str) {
        Some("message-meaning") => theorems::ban_message_meaning(&p, &k, &q, &x, &s)?,
        Some("nonce-verification") => theorems::nonce_verification(&q, &x)?,
        Some("belief-conjunction") => theorems::belief_conjunction(
            &p,
            &Formula::has(p.clone(), k.clone()),
            &Formula::fresh(x.clone()),
        )?,
        _ => {
            eprintln!(
                "usage: atl proof <message-meaning | nonce-verification | belief-conjunction>"
            );
            return Ok(false);
        }
    };
    print!("{proof}");
    println!("-- conclusion: {}", proof.conclusion().expect("nonempty"));
    proof.check()?;
    println!("-- checked: ok");
    Ok(true)
}
