//! E17: the serve-mode daemon is a *transparent cache* — black-box
//! conformance for `atl serve`.
//!
//! The daemon holds parsed specs in warmed sessions and answers
//! `ANALYZE`/`EVAL`/`INJECT` from caches. None of that machinery may be
//! observable in the bytes: every response must equal the one-shot CLI
//! or library result, on every committed spec and on proptest-random
//! ones; repeat queries must be served warm (counter deltas prove it)
//! without changing a byte; eviction then reload must reproduce the
//! original bytes; garbage on the wire must never panic the daemon or
//! leak between sessions; and concurrent clients must see exactly the
//! answers of a sequential replay.

use atl::core::annotate::{analyze_at, render_analysis, AtProtocol};
use atl::core::enact::enact;
use atl::core::goodruns::{construct_on, InitialAssumptions};
use atl::core::parallel::Pool;
use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::serve::{Client, Response, ServeConfig, Server, MAX_REQUEST_BYTES};
use atl::core::spec::parse_spec;
use atl::lang::arbitrary::arb_formula;
use atl::lang::parser::{parse_formula, Symbols};
use atl::lang::Formula;
use atl::model::wire::fnv64;
use atl::model::{execute_with_faults, ExecOptions, FaultPlan, Point, System};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::Command;

/// Every committed spec, by name (paths resolve via the manifest dir so
/// the CLI and the daemon read the same files).
const SPEC_NAMES: &[&str] = &[
    "andrew_flawed",
    "kerberos_figure1",
    "needham_schroeder",
    "wide_mouthed_frog",
];

fn spec_path(name: &str) -> String {
    format!("{}/specs/{name}.atl", env!("CARGO_MANIFEST_DIR"))
}

fn start(jobs: usize, max_sessions: usize) -> Server {
    Server::start(ServeConfig {
        port: 0,
        max_sessions,
        pool: Pool::new(jobs),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn client(server: &Server) -> Client {
    Client::connect(server.addr()).expect("connect to the daemon")
}

fn stop(server: Server, client: &mut Client) {
    client.shutdown().expect("shutdown");
    server.join();
}

/// One-shot CLI stdout for the given arguments (exit status is the
/// command's verdict, not checked here — conformance is about bytes).
fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args(args)
        .output()
        .expect("run the atl binary");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A library-side replica of what `LOAD` builds for a spec: the same
/// fault-free execution, the same good-run vector (Section 7
/// construction, falling back to the all-runs vector), evaluated by a
/// *fresh* `Semantics` — if the daemon's warmed caches change a single
/// answer, these tests see it.
struct Replica {
    at: AtProtocol,
    syms: Symbols,
    system: System,
    goods: GoodRuns,
}

fn replica(src: &str) -> Replica {
    let (at, syms) = parse_spec(src).expect("committed spec parses");
    let proto = enact(&at);
    let (run, _) = execute_with_faults(&proto, &ExecOptions::default(), &FaultPlan::new(0))
        .expect("committed spec executes fault-free");
    let system = System::new([run]);
    let mut assumptions = InitialAssumptions::new();
    for f in &at.assumptions {
        if let Formula::Believes(p, body) = f {
            assumptions.assume(p.clone(), (**body).clone());
        }
    }
    let goods = match construct_on(&system, &assumptions, &Pool::new(1)) {
        Ok((g, _)) => g,
        Err(_) => GoodRuns::all_runs(&system),
    };
    Replica {
        at,
        syms,
        system,
        goods,
    }
}

/// What the daemon must answer for `EVAL <id> <run:time> <phi-text>`:
/// the formula is re-parsed from its own text (exactly what travels on
/// the wire) and evaluated by a fresh evaluator.
fn expected_eval(rep: &Replica, sem: &Semantics, pt: Point, text: &str) -> Response {
    let phi = match parse_formula(text, &rep.syms) {
        Ok(f) => f,
        Err(e) => return Response::err(e.diagnostic("<formula>")),
    };
    match sem.eval(pt, &phi) {
        Ok(v) => Response::from_text(&format!(
            "at (run {}, time {}): {phi} = {v}",
            pt.run, pt.time
        )),
        Err(e) => Response::err(e.to_string()),
    }
}

fn temp_spec(tag: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "atl-e17-{tag}-{}-{:016x}.atl",
        std::process::id(),
        fnv64(content.as_bytes())
    ));
    std::fs::write(&path, content).expect("write temp spec");
    path
}

/// `ANALYZE` and `INJECT` answers are byte-identical to the one-shot
/// CLI's stdout, at one worker and at two — on every committed spec.
#[test]
fn analyze_and_inject_bytes_match_the_one_shot_cli() {
    let analyses: Vec<(String, String)> = SPEC_NAMES
        .iter()
        .map(|name| {
            let path = spec_path(name);
            let out = cli_stdout(&["analyze", &path]);
            (path, out)
        })
        .collect();
    const INJECTS: &[(&str, &str)] = &[
        ("kerberos_figure1", "--seed 7 --drop 0.5"),
        (
            "wide_mouthed_frog",
            "--seed 3 --replay 1 --compromise Kab@2",
        ),
    ];
    let injects: Vec<(String, &str, String)> = INJECTS
        .iter()
        .map(|(name, flags)| {
            let path = spec_path(name);
            let mut args = vec!["inject", path.as_str()];
            args.extend(flags.split_whitespace());
            let out = cli_stdout(&args);
            (path, *flags, out)
        })
        .collect();

    for &jobs in &[1usize, 2] {
        let server = start(jobs, 8);
        let mut c = client(&server);
        for (path, want) in &analyses {
            let id = c.load(path).expect("load spec");
            let resp = c.request(&format!("ANALYZE {id}")).expect("analyze");
            assert!(resp.ok, "{path}: {resp:?}");
            assert_eq!(
                resp.payload(),
                *want,
                "{path}: ANALYZE differs from `atl analyze` at {jobs} job(s)"
            );
        }
        for (path, flags, want) in &injects {
            let id = c.load(path).expect("load spec");
            let resp = c.request(&format!("INJECT {id} {flags}")).expect("inject");
            assert!(resp.ok, "{path}: {resp:?}");
            assert_eq!(
                resp.payload(),
                *want,
                "{path}: INJECT {flags} differs from `atl inject` at {jobs} job(s)"
            );
        }
        stop(server, &mut c);
    }
}

/// `EVAL` agrees with a fresh library evaluator at *every point* of
/// every committed spec, for every goal and assumption — then a full
/// repeat pass is served entirely from the memo with identical bytes.
#[test]
fn eval_matches_the_library_at_every_point_then_replays_warm() {
    for &jobs in &[1usize, 2] {
        let server = start(jobs, 8);
        let mut c = client(&server);
        for name in SPEC_NAMES {
            let src = std::fs::read_to_string(spec_path(name)).expect("read spec");
            let rep = replica(&src);
            let sem = Semantics::new(&rep.system, rep.goods.clone());
            let id = c.load(&spec_path(name)).expect("load spec");
            let mut requests: Vec<(String, Response)> = Vec::new();
            for phi in rep.at.goals.iter().chain(rep.at.assumptions.iter()) {
                let text = phi.to_string();
                for pt in rep.system.points() {
                    let req = format!("EVAL {id} {}:{} {text}", pt.run, pt.time);
                    let want = expected_eval(&rep, &sem, pt, &text);
                    let got = c.request(&req).expect("eval");
                    assert_eq!(got, want, "{name}: {req} at {jobs} job(s)");
                    requests.push((req, got));
                }
            }
            // Bare-time form addresses run 0, same as `0:<time>`.
            let goal = rep.at.goals.first().expect("spec has goals").to_string();
            assert_eq!(
                c.request(&format!("EVAL {id} 0 {goal}")).expect("eval"),
                c.request(&format!("EVAL {id} 0:0 {goal}")).expect("eval"),
                "{name}: bare time must mean run 0"
            );

            let before = server.stats();
            for (req, want) in &requests {
                let again = c.request(req).expect("repeat eval");
                assert_eq!(again, *want, "{name}: warm replay changed {req}");
            }
            let after = server.stats();
            assert_eq!(
                after.eval_warm - before.eval_warm,
                requests.len() as u64,
                "{name}: every repeated EVAL must be a memo hit"
            );
            assert_eq!(after.parsed, before.parsed, "warm EVALs must not re-parse");
        }
        stop(server, &mut c);
    }
}

/// Re-`LOAD`ing the same bytes is a cache hit (same session id, no
/// re-parse), repeat `ANALYZE`/`INJECT` are served warm, and the `STATS`
/// payload reports exactly the counters `Server::stats` exposes.
#[test]
fn repeat_queries_hit_caches_and_stats_report_them() {
    let server = start(2, 8);
    let mut c = client(&server);
    let path = spec_path("kerberos_figure1");
    let id = c.load(&path).expect("load");
    assert_eq!(server.stats().parsed, 1);
    assert_eq!(
        c.load(&path).expect("reload"),
        id,
        "same bytes, same session"
    );
    let s = server.stats();
    assert_eq!((s.loads, s.parsed, s.load_hits), (2, 1, 1));

    let analyze = c.request(&format!("ANALYZE {id}")).expect("analyze");
    let inject = c
        .request(&format!("INJECT {id} --seed 7 --drop 0.5"))
        .expect("inject");
    assert!(analyze.ok && inject.ok);
    let before = server.stats();
    assert_eq!(
        c.request(&format!("ANALYZE {id}")).expect("analyze"),
        analyze
    );
    assert_eq!(
        c.request(&format!("INJECT {id} --seed 7 --drop 0.5"))
            .expect("inject"),
        inject
    );
    let after = server.stats();
    assert_eq!(after.inject_warm, before.inject_warm + 1);
    assert_eq!(after.parsed, before.parsed, "warm queries never re-parse");

    let stats = c.request("STATS").expect("stats");
    let s = server.stats();
    assert_eq!(stats.lines.len(), 11);
    assert_eq!(stats.lines[0], "sessions: 1 live, capacity 8");
    assert_eq!(
        stats.lines[1],
        format!(
            "loads: {} total, {} parsed, {} cache hit(s), {} eviction(s)",
            s.loads, s.parsed, s.load_hits, s.evictions
        )
    );
    assert_eq!(
        stats.lines[2],
        format!(
            "reloads: {} total, {} delta, {} full",
            s.reloads, s.reload_delta, s.reload_full
        )
    );
    assert_eq!(
        stats.lines[3],
        format!("analyze: {} served", s.analyze_served)
    );
    assert_eq!(
        stats.lines[5],
        format!(
            "inject: {} served, {} warm, {} exec-cache hit(s)",
            s.inject_served, s.inject_warm, s.inject_exec_hits
        )
    );
    assert_eq!(
        stats.lines[6],
        format!(
            "sweep: {} shard(s) served, {} plan(s)",
            s.sweep_served, s.sweep_plans
        )
    );
    assert_eq!(
        stats.lines[7],
        format!(
            "hunt: {} hunt(s) served, {} plan(s), {} class(es)",
            s.hunts_served, s.hunt_plans, s.hunt_classes
        )
    );
    assert_eq!(
        stats.lines[8],
        format!(
            "monitor: 0 session(s), {} event(s), {} point(s) reused, {} delta, {} full",
            s.monitor_events, s.monitor_points_reused, s.monitor_delta, s.monitor_full
        )
    );
    assert_eq!(stats.lines[9], format!("connections: {} reaped", s.reaped));
    stop(server, &mut c);
}

/// `HUNT` is transparent like every other verb: the first hunt on a
/// fresh daemon answers byte-for-byte what the one-shot CLI prints for
/// the same spec, seed, and budget (both start from a cold execution
/// cache), a repeat hunt re-derives the identical classes from the warm
/// global cache (only the cache-hit counter in the stats line may
/// move), and the `STATS` hunt counters account for both.
#[test]
fn hunt_matches_the_cli_and_repeats_from_the_warm_cache() {
    let server = start(2, 2);
    let mut c = client(&server);
    let path = spec_path("needham_schroeder");
    let id = c.load(&path).expect("load");
    let query = format!("HUNT {id} seed=7 budget=48 batch=8");
    let first = c.request(&query).expect("hunt");
    assert!(first.ok, "HUNT answers OK: {:?}", first.lines);
    let cli = cli_stdout(&[
        "hunt", &path, "--seed", "7", "--budget", "48", "--batch", "8",
    ]);
    assert_eq!(first.lines.join("\n") + "\n", cli);
    let s1 = server.stats();
    assert_eq!(s1.hunts_served, 1);
    assert!(s1.hunt_plans > 0, "hunt executions are accounted");
    assert!(s1.hunt_classes > 0, "hunt found at least one class");

    let second = c.request(&query).expect("hunt again");
    let strip = |r: &Response| -> Vec<String> {
        r.lines
            .iter()
            .filter(|l| !l.contains("cache hit"))
            .cloned()
            .collect()
    };
    assert_eq!(
        strip(&first),
        strip(&second),
        "repeat HUNT re-derives identical classes"
    );
    let s2 = server.stats();
    assert_eq!(s2.hunts_served, 2);
    assert_eq!(s2.hunt_classes, 2 * s1.hunt_classes);
    stop(server, &mut c);
}

/// LRU eviction drops a session, querying it reports "evicted", and
/// re-loading the spec reproduces the pre-eviction bytes exactly —
/// session ids never leak into query payloads.
#[test]
fn eviction_then_reload_reproduces_the_original_bytes() {
    let server = start(1, 2);
    let mut c = client(&server);
    let a = c.load(&spec_path("kerberos_figure1")).expect("load a");
    let b = c.load(&spec_path("wide_mouthed_frog")).expect("load b");
    let goal = {
        let src = std::fs::read_to_string(spec_path("wide_mouthed_frog")).expect("read");
        let (at, _) = parse_spec(&src).expect("parses");
        at.goals.first().expect("has goals").to_string()
    };
    let analyze_b = c.request(&format!("ANALYZE {b}")).expect("analyze b");
    let inject_b = c
        .request(&format!("INJECT {b} --seed 5 --drop 0.5"))
        .expect("inject b");
    let eval_b = c.request(&format!("EVAL {b} 0:0 {goal}")).expect("eval b");
    assert!(analyze_b.ok && inject_b.ok && eval_b.ok);

    // Touch a so b is the LRU victim, then overflow the store.
    assert!(c.request(&format!("ANALYZE {a}")).expect("touch a").ok);
    c.load(&spec_path("needham_schroeder")).expect("load c");
    let stats = server.stats();
    assert_eq!(stats.evictions, 1);
    let gone = c.request(&format!("ANALYZE {b}")).expect("response");
    assert_eq!(
        gone.err_message(),
        Some(format!("unknown session {b} (never loaded, or evicted)").as_str())
    );

    let b2 = c.load(&spec_path("wide_mouthed_frog")).expect("reload b");
    assert_ne!(b2, b, "a rebuilt session gets a fresh id");
    assert_eq!(server.stats().parsed, 4, "the reload re-parses once");
    assert_eq!(
        c.request(&format!("ANALYZE {b2}")).expect("analyze"),
        analyze_b,
        "ANALYZE bytes survive eviction + reload"
    );
    assert_eq!(
        c.request(&format!("INJECT {b2} --seed 5 --drop 0.5"))
            .expect("inject"),
        inject_b,
        "INJECT bytes survive eviction + reload"
    );
    assert_eq!(
        c.request(&format!("EVAL {b2} 0:0 {goal}")).expect("eval"),
        eval_b,
        "EVAL bytes survive eviction + reload"
    );
    stop(server, &mut c);
}

/// A malformed spec gets the same one-line `file:position` diagnostic
/// from the daemon, the library, and the CLI — and the CLI exits 3 for
/// parse errors, distinct from usage errors (2) and failed goals (1).
#[test]
fn parse_error_diagnostics_agree_between_daemon_library_and_cli() {
    let bad = temp_spec("bad", "protocol oops\nprincipals A B\nfrobnicate\n");
    let path = bad.to_str().expect("utf-8 path");
    let want = parse_spec(&std::fs::read_to_string(&bad).expect("read"))
        .expect_err("spec is malformed")
        .diagnostic(path);

    let server = start(1, 2);
    let mut c = client(&server);
    let resp = c.request(&format!("LOAD {path}")).expect("response");
    assert_eq!(resp.err_message(), Some(want.as_str()));
    assert_eq!(server.stats().parsed, 0, "a failed parse warms nothing");
    stop(server, &mut c);

    let out = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args(["analyze", path])
        .output()
        .expect("run the atl binary");
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&want),
        "CLI stderr {stderr:?} must carry the diagnostic {want:?}"
    );

    let usage = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args(["analyze", "/nonexistent/e17.atl", "--bogus"])
        .output()
        .expect("run the atl binary");
    assert_eq!(usage.status.code(), Some(2), "non-parse failures stay 2");
    let _ = std::fs::remove_file(bad);
}

/// Runs `atl <args>`, which must exit 2 with one `error: <m>` line on
/// stderr, and returns `<m>`.
fn cli_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args(args)
        .output()
        .expect("run the atl binary");
    assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    stderr
        .strip_prefix("error: ")
        .and_then(|m| m.strip_suffix('\n'))
        .unwrap_or_else(|| panic!("{args:?}: stderr {stderr:?} is not one error line"))
        .to_string()
}

/// A malformed fault flag gets one message from both front ends:
/// `atl inject` exits 2 with `error: <m>` on stderr, `INJECT` answers
/// `ERR <m>`, and `<m>` names the flag. `atl hunt`'s own flags name
/// themselves too.
#[test]
fn fault_flag_errors_name_the_flag_in_the_cli_and_on_the_wire() {
    const BAD_FLAGS: &[(&str, &str)] = &[
        ("--seed x", "--seed"),
        ("--drop x", "--drop"),
        ("--drop 0.5,0.6", "--drop"),
        ("--delay 0.5:x", "--delay"),
        ("--compromise Kab", "--compromise"),
        ("--compromise Kab@x", "--compromise"),
        ("--patience -1", "--patience"),
        ("--retries x", "--retries"),
        ("--drop", "--drop"),
    ];
    let path = spec_path("kerberos_figure1");
    let server = start(1, 2);
    let mut c = client(&server);
    let id = c.load(&path).expect("load spec");
    for (flags, flag) in BAD_FLAGS {
        let mut args = vec!["inject", path.as_str()];
        args.extend(flags.split_whitespace());
        let cli = cli_error(&args);
        let wire = c
            .request(&format!("INJECT {id} {flags}"))
            .expect("inject response");
        assert_eq!(
            wire.err_message(),
            Some(cli.as_str()),
            "`{flags}`: INJECT and `atl inject` disagree"
        );
        assert!(
            cli.contains(flag),
            "`{flags}`: {cli:?} does not name {flag}"
        );
    }
    stop(server, &mut c);

    let hunt = cli_error(&["hunt", &spec_path("needham_schroeder"), "--budget", "x"]);
    assert!(hunt.contains("--budget"), "{hunt:?} does not name --budget");
}

/// Each front end refuses the flags it does not take, by name: `INJECT`
/// every token that is not a single-plan fault flag, `atl hunt` the
/// probability flags, before their values are read.
#[test]
fn front_ends_refuse_the_flags_they_do_not_take() {
    let server = start(1, 2);
    let mut c = client(&server);
    let id = c.load(&spec_path("kerberos_figure1")).expect("load spec");
    for (flags, token) in [
        ("--sweep", "--sweep"),
        ("--seed 1 --emit-trace x", "--emit-trace"),
        ("--seeds 3", "--seeds"),
    ] {
        let resp = c.request(&format!("INJECT {id} {flags}")).expect("inject");
        assert_eq!(
            resp.err_message(),
            Some(
                format!(
                    "unknown inject flag {token:?} (serve-mode inject takes single-plan fault flags)"
                )
                .as_str()
            ),
            "INJECT {flags}"
        );
    }
    stop(server, &mut c);

    let spec = spec_path("needham_schroeder");
    for args in [
        vec![spec.as_str(), "--drop"],
        vec!["--drop", spec.as_str()],
        vec![spec.as_str(), "--drop", "x"],
        vec![spec.as_str(), "--drop", "0.5"],
    ] {
        let mut argv = vec!["hunt"];
        argv.extend(&args);
        assert_eq!(cli_error(&argv), "unknown hunt flag --drop", "{argv:?}");
    }
}

/// `EVAL` splits its id and point on runs of whitespace, as every other
/// verb does: doubled or tab separators answer the single-space bytes,
/// from the memo.
#[test]
fn eval_accepts_repeated_whitespace_between_its_fields() {
    let server = start(1, 2);
    let mut c = client(&server);
    let id = c.load(&spec_path("kerberos_figure1")).expect("load spec");
    let want = c.request(&format!("EVAL {id} 0 A has Kab")).expect("eval");
    assert!(want.ok, "{want:?}");
    for spaced in [
        format!("EVAL {id}  0 A has Kab"),
        format!("EVAL {id} 0  A has Kab"),
        format!("EVAL {id}\t0\tA has Kab"),
    ] {
        let before = server.stats();
        assert_eq!(c.request(&spaced).expect("eval"), want, "{spaced:?}");
        let after = server.stats();
        assert_eq!(
            after.eval_warm,
            before.eval_warm + 1,
            "{spaced:?} is a memo hit"
        );
    }
    stop(server, &mut c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random systems conform too: a committed spec extended with a
    /// random goal either fails to parse with the library's exact
    /// diagnostic, or loads — and then `ANALYZE` equals the library's
    /// rendered analysis and `EVAL` of a random formula at a random
    /// point equals the fresh-evaluator answer (or its exact error).
    #[test]
    fn random_specs_and_formulas_conform(
        base in 0usize..4,
        goal in arb_formula(2),
        query in arb_formula(2),
        time in 0i64..8,
    ) {
        let src = std::fs::read_to_string(spec_path(SPEC_NAMES[base])).expect("read spec");
        let extended = format!("{src}goal {goal}\n");
        let file = temp_spec("rand", &extended);
        let path = file.to_str().expect("utf-8 path").to_string();

        let server = start(1, 4);
        let mut c = client(&server);
        let resp = c.request(&format!("LOAD {path}")).expect("response");
        match parse_spec(&extended) {
            Err(e) => {
                let diag = e.diagnostic(&path);
                prop_assert_eq!(resp.err_message(), Some(diag.as_str()));
            }
            Ok(_) => {
                let id = resp.session_id().expect("loaded");
                let rep = replica(&extended);
                let analyze = c.request(&format!("ANALYZE {id}")).expect("analyze");
                prop_assert_eq!(
                    analyze.payload(),
                    render_analysis(&rep.at, &analyze_at(&rep.at))
                );
                let sem = Semantics::new(&rep.system, rep.goods.clone());
                let pt = Point::new(0, time.min(rep.system.runs()[0].horizon()));
                let text = query.to_string();
                let got = c
                    .request(&format!("EVAL {id} {}:{} {text}", pt.run, pt.time))
                    .expect("eval");
                prop_assert_eq!(got, expected_eval(&rep, &sem, pt, &text));
            }
        }
        stop(server, &mut c);
        let _ = std::fs::remove_file(file);
    }

    /// Protocol fuzz: any garbage line gets a parseable response (never
    /// a panic, never a dropped daemon), and a session loaded *before*
    /// the garbage still answers with its exact pre-garbage bytes — no
    /// cross-session contamination.
    #[test]
    fn garbage_requests_never_panic_or_contaminate(
        lines in prop::collection::vec("[garbage]{0,80}", 1..5),
    ) {
        let server = start(1, 4);
        let mut c = client(&server);
        let path = spec_path("wide_mouthed_frog");
        let id = c.load(&path).expect("load");
        let clean = c.request(&format!("ANALYZE {id}")).expect("analyze");
        prop_assert!(clean.ok);

        for line in &lines {
            prop_assume!(!line.contains('\n'));
            let resp = c.request(line).expect("every line gets a framed response");
            if let Some(msg) = resp.err_message() {
                prop_assert!(!msg.is_empty(), "ERR must carry a message");
                prop_assert!(!msg.contains('\n'), "ERR stays one line");
            }
        }
        prop_assert_eq!(
            c.request(&format!("ANALYZE {id}")).expect("analyze"),
            clean,
            "garbage must not disturb loaded sessions"
        );
        stop(server, &mut c);
    }
}

/// Truncated requests (disconnect mid-line), pipelined requests, and
/// oversized lines are all per-connection events: the daemon answers
/// what it can and stays healthy for the next client.
#[test]
fn truncated_pipelined_and_oversized_requests_stay_per_connection() {
    let server = start(1, 4);

    // Disconnect mid-request: no response owed, daemon unharmed.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(b"ANALY").expect("partial write");
        drop(s);
    }

    // Two requests in one write: two framed responses, in order.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(b"STATS\nFROB\n").expect("pipelined write");
        let mut r = BufReader::new(s);
        let mut header = String::new();
        r.read_line(&mut header).expect("first header");
        let n: usize = header
            .trim_start_matches("OK ")
            .trim()
            .parse()
            .expect("STATS answers OK <n>");
        for _ in 0..n {
            let mut l = String::new();
            r.read_line(&mut l).expect("payload line");
        }
        let mut second = String::new();
        r.read_line(&mut second).expect("second header");
        assert!(second.starts_with("ERR "), "got {second:?}");
    }

    // An oversized line: one ERR, the junk drained through its newline,
    // and a pipelined follow-up on the same connection still parses
    // from the line boundary instead of mid-payload.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let mut payload = vec![b'y'; MAX_REQUEST_BYTES + 1];
        payload.extend_from_slice(b"\nSTATS\n");
        s.write_all(&payload).expect("big + pipelined STATS");
        let mut r = BufReader::new(s);
        let mut reply = String::new();
        r.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("ERR "), "got {reply:?}");
        let mut second = String::new();
        r.read_line(&mut second).expect("follow-up header");
        assert!(
            second.starts_with("OK "),
            "pipelined follow-up after oversized line must parse, got {second:?}"
        );
    }

    // Fuzz the boundary: random junk lines straddling the cap, each
    // followed by a pipelined STATS — every junk line answers exactly
    // one ERR and never desynchronizes the stream.
    {
        let mut seed = 0xE17_5EEDu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let mut r = BufReader::new(s.try_clone().expect("clone"));
        for _ in 0..8 {
            let len = MAX_REQUEST_BYTES - 2 + (next() % 64) as usize;
            let mut junk: Vec<u8> = (0..len)
                .map(|_| {
                    let b = (next() % 256) as u8;
                    if b == b'\n' {
                        b'x'
                    } else {
                        b
                    }
                })
                .collect();
            junk.extend_from_slice(b"\nSTATS\n");
            s.write_all(&junk).expect("junk + STATS");
            let mut first = String::new();
            r.read_line(&mut first).expect("first header");
            // Over the cap: the oversize ERR. Under it: an unknown-
            // command ERR. Either way exactly one ERR line.
            assert!(first.starts_with("ERR "), "junk line answered {first:?}");
            let mut second = String::new();
            r.read_line(&mut second).expect("second header");
            let n: usize = second
                .trim_start_matches("OK ")
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("STATS after junk got {second:?}"));
            for _ in 0..n {
                let mut l = String::new();
                r.read_line(&mut l).expect("payload line");
            }
        }
    }

    let mut c = client(&server);
    let id = c.load(&spec_path("kerberos_figure1")).expect("load");
    assert!(c.request(&format!("ANALYZE {id}")).expect("analyze").ok);
    stop(server, &mut c);
}

/// Concurrency equivalence: four clients interleaving `EVAL` and
/// `INJECT` on shared sessions of a *cold* daemon produce exactly the
/// responses a sequential replay produced on another daemon.
#[test]
fn concurrent_clients_match_a_sequential_replay() {
    let kerberos = spec_path("kerberos_figure1");
    let frog = spec_path("wide_mouthed_frog");
    let goals: Vec<String> = [&kerberos, &frog]
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("read");
            let (at, _) = parse_spec(&src).expect("parses");
            at.goals.first().expect("has goals").to_string()
        })
        .collect();
    // Session ids are deterministic (1, 2) given the load order.
    let requests: Vec<String> = (1..=2u64)
        .flat_map(|id| {
            let goal = &goals[(id - 1) as usize];
            vec![
                format!("ANALYZE {id}"),
                format!("EVAL {id} 0:0 {goal}"),
                format!("EVAL {id} 0:3 {goal}"),
                format!("INJECT {id} --seed 5 --drop 0.5"),
                format!("INJECT {id} --seed 9 --replay 1"),
            ]
        })
        .collect();

    let run_loads = |c: &mut Client| {
        assert_eq!(c.load(&kerberos).expect("load"), 1);
        assert_eq!(c.load(&frog).expect("load"), 2);
    };

    let sequential = start(1, 8);
    let mut c = client(&sequential);
    run_loads(&mut c);
    let expected: Vec<Response> = requests
        .iter()
        .map(|r| c.request(r).expect("sequential request"))
        .collect();
    stop(sequential, &mut c);

    for &jobs in &[1usize, 2] {
        let concurrent = start(jobs, 8);
        let mut c = client(&concurrent);
        run_loads(&mut c);
        let addr = concurrent.addr();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let reqs = requests.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("worker connect");
                    let n = reqs.len();
                    (0..n)
                        .map(|i| {
                            let idx = (i + t * 3) % n;
                            (idx, c.request(&reqs[idx]).expect("worker request"))
                        })
                        .collect::<Vec<(usize, Response)>>()
                })
            })
            .collect();
        for h in handles {
            for (idx, got) in h.join().expect("worker thread") {
                assert_eq!(
                    got, expected[idx],
                    "concurrent answer to {:?} diverged at {jobs} job(s)",
                    requests[idx]
                );
            }
        }
        let stats = concurrent.stats();
        assert_eq!(stats.parsed, 2, "concurrent load never re-parses");
        assert!(
            stats.eval_warm + stats.inject_warm > 0,
            "racing repeats must hit the memos"
        );
        stop(concurrent, &mut c);
    }
}
