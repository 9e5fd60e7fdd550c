//! E17 — serve-mode latency: what a warmed session buys.
//!
//! The one-shot CLI pays parse + enact + execute + good-run
//! construction + prover analysis on *every* invocation; the daemon
//! pays it once per `LOAD` and then answers from caches. The `cold`
//! group measures that full build (fresh daemon, `LOAD`, first query,
//! shutdown — the serve analogue of a one-shot run, round-trips
//! included); the `warm` group measures repeat queries against a live
//! session, which is the steady state the daemon exists for. The gap
//! between the two is the number the warm-vs-cold table in
//! `BENCH_prover.json` records.

use atl_core::monitor::Monitor;
use atl_core::parallel::Pool;
use atl_core::semantics::{GoodRuns, Semantics};
use atl_core::serve::{Client, ServeConfig, Server};
use atl_core::spec::parse_spec;
use atl_lang::parser::parse_formula;
use atl_model::{parse_trace, Point, System};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SPECS: &[(&str, &str)] = &[
    (
        "kerberos_figure1",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/kerberos_figure1.atl"
        ),
    ),
    (
        "wide_mouthed_frog",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/wide_mouthed_frog.atl"
        ),
    ),
];

fn start() -> Server {
    Server::start(ServeConfig {
        port: 0,
        max_sessions: 8,
        pool: Pool::new(1),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn first_goal(path: &str) -> String {
    let src = std::fs::read_to_string(path).expect("read spec");
    let (at, _) = parse_spec(&src).expect("spec parses");
    at.goals.first().expect("spec has goals").to_string()
}

/// Cold path: a fresh daemon builds the session from scratch — the
/// serve-side equivalent of one `atl analyze` invocation.
fn bench_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_cold");
    for (name, path) in SPECS {
        g.bench_function(format!("{name}_load_analyze"), |b| {
            b.iter(|| {
                let server = start();
                let mut client = Client::connect(server.addr()).expect("connect");
                let id = client.load(path).expect("load");
                let resp = client.request(&format!("ANALYZE {id}")).expect("analyze");
                client.shutdown().expect("shutdown");
                server.join();
                black_box(resp.ok)
            })
        });
    }
    g.finish();
}

/// Warm path: the session is already built, so each query is a memo or
/// pre-rendered-report lookup plus one TCP round-trip.
fn bench_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_warm");
    for (name, path) in SPECS {
        let goal = first_goal(path);
        let server = start();
        let mut client = Client::connect(server.addr()).expect("connect");
        let id = client.load(path).expect("load");
        let analyze = format!("ANALYZE {id}");
        let eval = format!("EVAL {id} 0:3 {goal}");
        let inject = format!("INJECT {id} --seed 7 --drop 0.5");
        // Prime the memos so every measured request is the warm path.
        for req in [&analyze, &eval, &inject] {
            assert!(client.request(req).expect("prime").ok);
        }
        g.bench_function(format!("{name}_analyze"), |b| {
            b.iter(|| black_box(client.request(&analyze).expect("analyze").ok))
        });
        g.bench_function(format!("{name}_eval"), |b| {
            b.iter(|| black_box(client.request(&eval).expect("eval").ok))
        });
        g.bench_function(format!("{name}_inject"), |b| {
            b.iter(|| black_box(client.request(&inject).expect("inject").ok))
        });
        client.shutdown().expect("shutdown");
        server.join();
    }
    g.finish();
}

/// One sustained burst: `clients` concurrent connections each issue
/// `per_client` warm requests against a live session. Returns every
/// request's latency plus the burst's wall-clock span.
fn run_burst(
    addr: std::net::SocketAddr,
    id: u64,
    clients: usize,
    per_client: usize,
) -> (Vec<Duration>, Duration) {
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let req = if i % 2 == 0 {
                    format!("ANALYZE {id}")
                } else {
                    format!("INJECT {id} --seed 7 --drop 0.5")
                };
                let mut lats = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    assert!(c.request(&req).expect("request").ok);
                    lats.push(t.elapsed());
                }
                lats
            })
        })
        .collect();
    let mut lats = Vec::with_capacity(clients * per_client);
    for w in workers {
        lats.extend(w.join().expect("client thread"));
    }
    let span = started.elapsed();
    lats.sort_unstable();
    (lats, span)
}

/// Sustained throughput: 100 concurrent clients against pool widths
/// 1/4/16. The vendored criterion harness reports only the mean burst
/// wall time, so QPS and the p50/p99 latency quantiles are computed
/// here from per-request timings and printed alongside — those lines
/// are what `BENCH_prover.json` records.
fn bench_sustained(c: &mut Criterion) {
    const CLIENTS: usize = 100;
    const PER_CLIENT: usize = 20;
    let path = SPECS[0].1;
    let mut g = c.benchmark_group("serve_sustained");
    for width in [1usize, 4, 16] {
        let server = Server::start(ServeConfig {
            port: 0,
            max_sessions: 8,
            pool: Pool::new(1),
            conn_workers: width,
            queue_depth: 256,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.addr();
        let id = {
            // Load on a throwaway connection so no worker stays pinned.
            let mut c = Client::connect(addr).expect("connect");
            let id = c.load(path).expect("load");
            // Prime the memos: the burst measures serving, not proving.
            assert!(c.request(&format!("ANALYZE {id}")).expect("prime").ok);
            assert!(
                c.request(&format!("INJECT {id} --seed 7 --drop 0.5"))
                    .expect("prime")
                    .ok
            );
            id
        };
        let (lats, span) = run_burst(addr, id, CLIENTS, PER_CLIENT);
        let total = lats.len();
        let qps = total as f64 / span.as_secs_f64();
        let p50 = lats[total / 2];
        let p99 = lats[total * 99 / 100];
        eprintln!(
            "serve_sustained/width{width}: {total} reqs x {CLIENTS} clients in {:.3}s \
             qps={qps:.0} p50={p50:?} p99={p99:?}",
            span.as_secs_f64()
        );
        g.bench_function(format!("width{width}_burst100"), |b| {
            b.iter(|| {
                let (lats, _) = run_burst(addr, id, CLIENTS, PER_CLIENT);
                black_box(lats.len())
            })
        });
        let mut c = Client::connect(addr).expect("reconnect");
        c.shutdown().expect("shutdown");
        server.join();
    }
    g.finish();
}

/// E20 — delta reload per edit class, against the cost of building the
/// edited spec cold.
///
/// `cold_load_fresh_spec` is the baseline: a LOAD of never-seen content
/// on a live daemon (parse + analyze + execute + construct + prewarm,
/// no daemon start-up in the number). Each reload benchmark ping-pongs
/// one session between the base spec and one edited twin, so every
/// measured request is a real `RELOAD` of changed content (for the
/// comment-only twin the canonical digest is unchanged, so the reload
/// is the dedupe no-op — by design). The daemon's own counters are
/// printed after each group as proof the answers came from reused work.
fn bench_reload(c: &mut Criterion) {
    let src = std::fs::read_to_string(SPECS[0].1).expect("read spec");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let file = |tag: &str, content: &str| {
        let p = dir.join(format!("atl-bench-reload-{pid}-{tag}.atl"));
        std::fs::write(&p, content).expect("write bench spec");
        p
    };
    // The message edit reorders the components inside the Kbs cipher
    // *consistently in both steps* (S builds it, A forwards it), so the
    // edited spec still executes and the reload exercises the pointwise
    // cache rewarm rather than the no-system fallback.
    let message_edit = src.replace("{Ts, <<A <-Kab-> B>>}Kbs", "{<<A <-Kab-> B>>, Ts}Kbs");
    assert_ne!(src, message_edit, "the spec must contain the cipher");
    let edits = [
        (
            "comment_only",
            format!("{src}# an edit that says nothing\n"),
        ),
        ("message_changed", message_edit),
    ];
    let mut g = c.benchmark_group("serve_reload");

    {
        let server = start();
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut n = 0u64;
        g.bench_function("cold_load_fresh_spec", |b| {
            b.iter(|| {
                // Unique canonical content every iteration (renamed
                // protocol), so each LOAD is a full cold build.
                n += 1;
                let fresh = src.replacen(
                    "protocol kerberos-figure1",
                    &format!("protocol kerberos-figure1-{n}"),
                    1,
                );
                let p = file("cold", &fresh);
                black_box(client.load(p.to_str().expect("utf8")).expect("load"))
            })
        });
        client.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(dir.join(format!("atl-bench-reload-{pid}-cold.atl")));
    }

    // Single-assumption reloads are measured on a monotonically growing
    // spec chain: step i of the chain is the base spec plus i fresh
    // belief assumptions, so each measured request is exactly the "one
    // assumption added" delta (a ping-pong would average in the reverse
    // edit, which is an assumption *removal* and analyses from scratch
    // by design). The chain is written out before the loop so the
    // measurement is the RELOAD round-trip, not file I/O.
    {
        let mut grown = src.clone();
        let chain: Vec<_> = (0..64)
            .map(|i| {
                grown.push_str(&format!("assume A believes fresh(Zb{i})\n"));
                file(&format!("grow-{i}"), &grown)
            })
            .collect();
        let base_path = file("grow-base", &src);
        let server = start();
        let mut client = Client::connect(server.addr()).expect("connect");
        let id = client
            .load(base_path.to_str().expect("utf8"))
            .expect("load base");
        let mut n = 0usize;
        g.bench_function("assumption_added_delta_reload", |b| {
            b.iter(|| {
                let p = &chain[n % chain.len()];
                n += 1;
                let resp = client
                    .request(&format!("RELOAD {id} {}", p.display()))
                    .expect("reload");
                assert!(resp.ok, "{resp:?}");
                black_box(resp.lines.len())
            })
        });
        let s = server.stats();
        eprintln!(
            "serve_reload/assumption_added: reloads={} delta={} full={}",
            s.reloads, s.reload_delta, s.reload_full
        );
        client.shutdown().expect("shutdown");
        server.join();
        for p in chain {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(base_path);
    }

    for (name, edited) in &edits {
        let base_path = file(&format!("{name}-base"), &src);
        let edited_path = file(name, edited);
        let server = start();
        let mut client = Client::connect(server.addr()).expect("connect");
        let id = client
            .load(base_path.to_str().expect("utf8"))
            .expect("load base");
        let targets = [
            edited_path.to_str().expect("utf8").to_string(),
            base_path.to_str().expect("utf8").to_string(),
        ];
        let mut flip = 0usize;
        g.bench_function(format!("{name}_delta_reload"), |b| {
            b.iter(|| {
                let to = &targets[flip % 2];
                flip += 1;
                let resp = client
                    .request(&format!("RELOAD {id} {to}"))
                    .expect("reload");
                assert!(resp.ok, "{resp:?}");
                black_box(resp.lines.len())
            })
        });
        let s = server.stats();
        eprintln!(
            "serve_reload/{name}: reloads={} delta={} full={}",
            s.reloads, s.reload_delta, s.reload_full
        );
        client.shutdown().expect("shutdown");
        server.join();
        for p in [base_path, edited_path] {
            let _ = std::fs::remove_file(p);
        }
    }
    g.finish();
}

/// A synthetic live run for the monitor benchmarks: a send/recv/newkey
/// rotation with fresh nonces, so the term space keeps growing the way
/// a real protocol run's does.
fn monitor_trace(events: usize) -> Vec<String> {
    let mut lines = vec![
        "run start 0".to_string(),
        "principal A keys Kab".to_string(),
        "principal B keys Kab".to_string(),
    ];
    for i in 0..events {
        match i % 4 {
            0 => lines.push(format!("send A -> B : {{N{i}, <<A <-Kab-> B>>}}Kab@A")),
            1 => lines.push(format!("recv B : {{N{}, <<A <-Kab-> B>>}}Kab@A", i - 1)),
            2 => lines.push(format!("send B -> A : {{N{i}, N0}}Kab@B")),
            _ => lines.push(format!("recv A : {{N{}, N0}}Kab@B", i - 1)),
        }
    }
    lines
}

/// E21 — streaming monitor: one incremental event against the batch
/// re-walk of the same prefix.
///
/// At each prefix length the monitor is pre-fed the whole prefix; the
/// `incremental` benchmark clones it and feeds the next event (one run
/// and cache append + re-verdict), while the `batch_rewalk` benchmark
/// recreates the same verdicts without incrementality: re-parse the
/// full prefix-plus-event text, rebuild the system, prewarm and
/// evaluate from scratch. The eprintln lines — feed timed alone, clone
/// outside the measured region — are what `BENCH_prover.json` records.
fn bench_monitor(c: &mut Criterion) {
    let pool = Pool::new(1);
    let formulas = [
        "B sees N0".to_string(),
        "B sees N3".to_string(),
        "Env has Kab".to_string(),
    ];
    let mut g = c.benchmark_group("serve_monitor");
    for n in [4usize, 16, 64] {
        let lines = monitor_trace(n + 1);
        let (prefix, next) = lines.split_at(lines.len() - 1);
        let next = next[0].as_str();
        let mut warmed = Monitor::new("bench", formulas.clone()).expect("monitor");
        for line in prefix {
            warmed.feed_line(line, &pool).expect("prefix feeds");
        }
        let full_text = {
            let mut t = lines.join("\n");
            t.push('\n');
            t
        };
        let batch_rewalk = || {
            let (run, syms) = parse_trace(&full_text).expect("trace parses");
            let k = run.horizon();
            let sys = System::new([run]);
            let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
            let verdicts: Vec<bool> = formulas
                .iter()
                .map(|f| {
                    let phi = parse_formula(f, &syms).expect("formula");
                    sem.eval(Point::new(0, k), &phi).expect("in range")
                })
                .collect();
            black_box(verdicts);
        };

        // Per-event numbers with the clone outside the timed region.
        const REPS: u32 = 30;
        let mut incremental = Duration::ZERO;
        for _ in 0..REPS {
            let mut m = warmed.clone();
            let t = Instant::now();
            let out = m.feed_line(next, &pool).expect("event feeds");
            incremental += t.elapsed();
            assert_eq!(out.len(), formulas.len());
        }
        let mut batch = Duration::ZERO;
        for _ in 0..REPS {
            let t = Instant::now();
            batch_rewalk();
            batch += t.elapsed();
        }
        let speedup = batch.as_secs_f64() / incremental.as_secs_f64();
        eprintln!(
            "serve_monitor/prefix{n}: incremental={:?} batch={:?} speedup={speedup:.1}x",
            incremental / REPS,
            batch / REPS
        );

        g.bench_function(format!("prefix{n}_event_incremental"), |b| {
            b.iter(|| {
                let mut m = warmed.clone();
                black_box(m.feed_line(next, &pool).expect("event feeds"))
            })
        });
        g.bench_function(format!("prefix{n}_event_batch_rewalk"), |b| {
            b.iter(batch_rewalk)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cold,
    bench_warm,
    bench_sustained,
    bench_reload,
    bench_monitor
);
criterion_main!(benches);
