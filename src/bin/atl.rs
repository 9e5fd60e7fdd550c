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
use atl::core::request::{flag_text, flag_value, parse_steps, parse_value, PlanFlags};
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
    let arg = |i: usize| args.get(i).map(String::as_str);
    let result = match arg(0) {
        Some("analyze") => cmd_analyze(arg(1)),
        Some("trace") => cmd_trace(arg(1), arg(2)),
        Some("suite") => cmd_suite(&pool),
        Some("proof") => cmd_proof(arg(1)),
        Some("check-run") => cmd_check_run(arg(1)),
        Some("eval") => cmd_eval(arg(1), arg(2), arg(3)),
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
    let n: usize = flag_value("--jobs", &mut args[i + 1..].iter().map(String::as_str))?;
    if n == 0 {
        return Err("--jobs must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Pool::new(n))
}

fn load(path: Option<&str>) -> Result<(&str, String), Box<dyn std::error::Error>> {
    let path = path.ok_or("missing spec path")?;
    Ok((path, std::fs::read_to_string(path)?))
}

/// Parses a spec, mapping failures to the exit-code-3 diagnostic.
fn parse_spec_diag(
    path: Option<&str>,
) -> Result<(atl::core::annotate::AtProtocol, atl::lang::parser::Symbols), Box<dyn std::error::Error>>
{
    let (path, content) = load(path)?;
    parse_spec(&content).map_err(|e| ParseDiag(e.diagnostic(path)).into())
}

fn cmd_analyze(path: Option<&str>) -> Result<bool, Box<dyn std::error::Error>> {
    let (proto, _) = parse_spec_diag(path)?;
    let analysis = analyze_at(&proto);
    print!("{}", render_analysis(&proto, &analysis));
    Ok(analysis.succeeded())
}

fn cmd_trace(path: Option<&str>, goal: Option<&str>) -> Result<bool, Box<dyn std::error::Error>> {
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

fn cmd_check_run(path: Option<&str>) -> Result<bool, Box<dyn std::error::Error>> {
    let (path, content) = load(path)?;
    let (run, _) = atl::model::parse_trace(&content).map_err(|e| ParseDiag(e.diagnostic(path)))?;
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
    path: Option<&str>,
    formula: Option<&str>,
    time: Option<&str>,
) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::semantics::{verdict_line, GoodRuns, Semantics};
    use atl::model::{Point, System};
    let (path, content) = load(path)?;
    let (run, syms) =
        atl::model::parse_trace(&content).map_err(|e| ParseDiag(e.diagnostic(path)))?;
    let phi = parse_formula(formula.ok_or("missing formula")?, &syms)
        .map_err(|e| ParseDiag(e.diagnostic("<formula>")))?;
    let k: i64 = match time {
        Some(t) => parse_value("TIME", t)?,
        None => run.horizon(),
    };
    let sys = System::new([run]);
    let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
    let point = Point::new(0, k);
    let verdict = sem.eval(point, &phi)?;
    println!("{}", verdict_line(point, &phi, verdict));
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

/// `atl inject SPEC [flags]`: the fault flags go through the parser
/// the daemon's `INJECT` uses; the sweep, fabric and `--emit-trace`
/// flags are this command's own.
fn cmd_inject(args: &[String], pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::fabric::{fabric_sweep, FabricConfig};
    use atl::core::inject::inject_report;
    use atl::core::sweep::{fault_sweep, SweepConfig};
    use atl::model::ExecutionCache;
    use std::time::Duration;

    let (mut path, mut sweep, mut seeds, mut emit_trace) = (None, false, 4, None);
    let mut fabric = FabricConfig::default();
    let flags = PlanFlags::parse(args.iter().map(String::as_str), |arg, rest| {
        match arg {
            "--sweep" => sweep = true,
            "--seeds" => seeds = flag_value(arg, rest)?,
            "--emit-trace" => emit_trace = Some(flag_text(arg, rest)?),
            "--workers" => {
                fabric.workers = flag_text(arg, rest)?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--store" => fabric.store = Some(flag_text(arg, rest)?.into()),
            "--shard" => fabric.shard_plans = flag_value::<usize>(arg, rest)?.max(1),
            "--deadline-ms" => {
                fabric.deadline = Duration::from_millis(flag_value::<u64>(arg, rest)?.max(1));
            }
            "--shard-retries" => fabric.shard_retries = flag_value(arg, rest)?,
            "--worker-failures" => fabric.worker_failures = flag_value(arg, rest)?,
            "--backoff-ms" => fabric.backoff = Duration::from_millis(flag_value(arg, rest)?),
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => return Err(format!("unknown flag {other}")),
        }
        Ok(())
    })?;
    let (at, _syms) = parse_spec_diag(path)?;
    let fabric_flags = !fabric.workers.is_empty() || fabric.store.is_some();

    if sweep {
        let config = SweepConfig {
            grid: flags.grid(seeds),
            options: flags.options(),
            expect_policy: flags.policy(),
        };
        let report = match path {
            Some(spec_path) if fabric_flags => {
                let (report, fabric_stats) = fabric_sweep(&at, spec_path, &config, &fabric, pool)?;
                eprintln!("{fabric_stats}");
                report
            }
            _ => fault_sweep(&at, &config, pool),
        };
        print!("{report}");
        return Ok(report.all_executed() && report.audit_violations == 0);
    }
    if fabric_flags {
        return Err("--workers/--store require --sweep".into());
    }

    // The single-plan report is shared with the serve daemon
    // (`atl_core::inject`); a one-shot invocation passes a fresh
    // execution cache.
    let outcome = inject_report(&at, &flags.request()?, pool, &ExecutionCache::new())?;
    print!("{}", outcome.report);
    if let Some(path) = emit_trace {
        std::fs::write(path, atl::model::render_trace(&outcome.run))?;
        println!("trace written to {path}");
    }
    Ok(outcome.ok)
}

/// `atl hunt SPEC [flags]` — coverage-guided attack search. The spec's
/// keys become compromise candidates automatically; the report lists
/// one class per distinct belief-survival signature with its shrunk
/// minimal plan. Exit code 0 when the hunt completes (finding attacks
/// is the tool doing its job, not a failure). The fault flags go
/// through `atl inject`'s parser, but the probabilities are the
/// search's to choose, so the probability flags are refused.
fn cmd_hunt(args: &[String], pool: &Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::hunt::{default_space, hunt_report, seeds_from_checkpoint, HuntSettings};
    use atl::model::{ExecutionCache, HuntStore};

    let mut settings = HuntSettings::default();
    let (mut path, mut steps, mut store_dir, mut from_monitor) = (None, None, None, None);
    // A hunt searches the probabilities itself, so a probability flag is
    // refused where it stands, before its value is read.
    let probability_flags = PlanFlags::default().probabilities().map(|(flag, _)| flag);
    let mut refused = None;
    let tokens = args.iter().map(String::as_str).map_while(|arg| {
        if probability_flags.contains(&arg) {
            refused = Some(arg);
            return None;
        }
        Some(arg)
    });
    let flags = PlanFlags::parse(tokens, |arg, rest| {
        match arg {
            "--budget" => settings.config.budget = flag_value(arg, rest)?,
            "--batch" => settings.config.batch = flag_value::<usize>(arg, rest)?.max(1),
            "--steps" => {
                let parsed = parse_steps(arg, flag_text(arg, rest)?)?;
                if let Some(p) = parsed.iter().find(|p| !(0.0..=1.0).contains(*p)) {
                    return Err(format!("--steps probability {p} is outside [0, 1]"));
                }
                steps = Some(parsed);
            }
            "--store" => store_dir = Some(flag_text(arg, rest)?),
            "--from-monitor" => from_monitor = Some(flag_text(arg, rest)?),
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => return Err(format!("unknown hunt flag {other}")),
        }
        Ok(())
    });
    if let Some(flag) = refused {
        return Err(format!("unknown hunt flag {flag}").into());
    }
    let flags = flags?;
    let (at, _syms) = parse_spec_diag(path)?;
    let mut space = default_space(&at);
    if let Some(steps) = steps {
        space.prob_steps = steps;
    }
    for (key, t) in flags.compromises.iter().cloned() {
        if !space.compromise_candidates.contains(&(key.clone(), t)) {
            space = space.candidate(key, t);
        }
    }
    if let Some(file) = from_monitor {
        settings.config.seed_plans = seeds_from_checkpoint(&std::fs::read_to_string(file)?)?;
    }
    settings.config.seed = flags.seed;
    settings.config.space = space;
    settings.options = flags.options();
    settings.expect_policy = flags.policy();
    let store = match store_dir {
        Some(dir) => Some(HuntStore::open(dir)?),
        None => None,
    };
    let report = hunt_report(&at, &settings, pool, &ExecutionCache::new(), store.as_ref());
    print!("{report}");
    Ok(true)
}

fn cmd_serve(args: &[String], pool: Pool) -> Result<bool, Box<dyn std::error::Error>> {
    use atl::core::serve::{ServeConfig, Server};
    use std::time::Duration;

    let mut config = ServeConfig {
        pool,
        ..ServeConfig::default()
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--port" => config.port = flag_value(arg, &mut it)?,
            "--max-sessions" => config.max_sessions = flag_value::<usize>(arg, &mut it)?.max(1),
            "--idle-timeout" => {
                let secs: u64 = flag_value(arg, &mut it)?;
                config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--drain" => config.drain_deadline = Duration::from_secs(flag_value(arg, &mut it)?),
            "--conn-workers" => config.conn_workers = flag_value::<usize>(arg, &mut it)?.max(1),
            "--queue-depth" => config.queue_depth = flag_value::<usize>(arg, &mut it)?.max(1),
            "--exec-cache-cap" => {
                let cap: usize = flag_value(arg, &mut it)?;
                config.exec_cache_capacity = (cap > 0).then_some(cap);
            }
            "--store" => config.monitor_store = Some(flag_text(arg, &mut it)?.into()),
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
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--port" => port = flag_value(arg, &mut it)?,
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

fn cmd_proof(which: Option<&str>) -> Result<bool, Box<dyn std::error::Error>> {
    let p = Principal::new("P");
    let q = Principal::new("Q");
    let s = Principal::new("S");
    let k = KeyTerm::Key(Key::new("K"));
    let x = Message::nonce(Nonce::new("X"));
    let proof = match which {
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
