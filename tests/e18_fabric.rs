//! E18: the distributed sweep fabric under chaos.
//!
//! The fabric's single correctness bar is brutal and simple: whatever
//! happens to the fleet — workers killed with SIGKILL mid-shard,
//! workers that accept connections and then hang, workers that join
//! late, a whole fleet lost, a coordinator killed and resumed from its
//! persistent store, store entries corrupted on disk — the report on
//! stdout is **byte-identical** to a fault-free single-process
//! `atl inject --sweep`, and the sweep always completes. Every scenario
//! below asserts exactly that, at the worker-pool width named by
//! `ATL_TEST_JOBS` (default 1; CI runs 1 and 2).
//!
//! Real processes are used where the failure mode demands one: SIGKILL
//! needs a child daemon (`CARGO_BIN_EXE_atl serve`), a killed
//! coordinator needs a child `atl inject --sweep --store`; everything
//! else runs against in-process [`Server`]s for speed.

use atl::core::fabric::{fabric_sweep, FabricConfig};
use atl::core::parallel::Pool;
use atl::core::serve::{Client, ServeConfig, Server};
use atl::core::spec::parse_spec;
use atl::core::sweep::{fault_sweep, SweepConfig};
use atl::model::{ExecOptions, ExpectPolicy, SweepGrid};
use std::io::BufRead;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn jobs() -> usize {
    std::env::var("ATL_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn spec_path(name: &str) -> String {
    format!("{}/specs/{name}.atl", env!("CARGO_MANIFEST_DIR"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atl-e18-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A grid with fractional probabilities, so seeds stay distinct
/// fingerprints and the sweep carries enough unique plans to shard.
fn chaos_config(seeds: u64) -> SweepConfig {
    SweepConfig {
        grid: SweepGrid::new()
            .seeds(0..seeds)
            .drop_steps([0.0, 0.4, 1.0])
            .duplicate_steps([0.0, 0.5]),
        options: ExecOptions::default(),
        expect_policy: ExpectPolicy::skip_after(3),
    }
}

/// The single-process reference bytes the fabric must reproduce.
fn reference(spec: &str, config: &SweepConfig) -> String {
    let src = std::fs::read_to_string(spec).expect("read spec");
    let (at, _) = parse_spec(&src).expect("spec parses");
    fault_sweep(&at, config, &Pool::new(jobs())).to_string()
}

fn in_process_server() -> Server {
    Server::start(ServeConfig {
        port: 0,
        pool: Pool::new(1),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server")
}

fn stop(server: Server) {
    let mut c = Client::connect(server.addr()).expect("connect for shutdown");
    let _ = c.shutdown();
    server.join();
}

/// Spawns a real `atl serve` child daemon and reads its bound port off
/// stdout.
fn spawn_daemon() -> (Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args(["serve", "--port", "0", "--jobs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read serving line");
    let port: u16 = line
        .trim()
        .strip_prefix("serving on 127.0.0.1:")
        .expect("serving banner")
        .parse()
        .expect("port number");
    (child, port)
}

fn run_fabric(
    spec: &str,
    config: &SweepConfig,
    fabric: &FabricConfig,
) -> (String, atl::core::fabric::FabricStats) {
    let src = std::fs::read_to_string(spec).expect("read spec");
    let (at, _) = parse_spec(&src).expect("spec parses");
    let (report, stats) =
        fabric_sweep(&at, spec, config, fabric, &Pool::new(jobs())).expect("fabric sweep");
    (report.to_string(), stats)
}

/// Healthy fleets of one and two in-process workers reproduce the
/// single-process bytes, with every outcome remote.
#[test]
fn healthy_fleet_is_byte_identical_at_every_worker_count() {
    let spec = spec_path("kerberos_figure1");
    let config = chaos_config(4);
    let want = reference(&spec, &config);
    for workers in [1usize, 2] {
        let servers: Vec<Server> = (0..workers).map(|_| in_process_server()).collect();
        let fabric = FabricConfig {
            workers: servers
                .iter()
                .map(|s| format!("127.0.0.1:{}", s.port()))
                .collect(),
            shard_plans: 2,
            deadline: Duration::from_secs(10),
            ..FabricConfig::default()
        };
        let (got, stats) = run_fabric(&spec, &config, &fabric);
        assert_eq!(got, want, "{workers} worker(s)");
        assert_eq!(stats.local_resolved, 0, "{workers} worker(s): {stats}");
        assert!(stats.remote_resolved > 0, "{stats}");
        for server in servers {
            stop(server);
        }
    }
}

/// A worker SIGKILLed while the sweep is in flight: its shards requeue
/// to the survivor (or drain locally), and the bytes do not move.
#[test]
fn sigkilled_worker_mid_sweep_preserves_byte_identity() {
    let spec = spec_path("kerberos_figure1");
    let config = chaos_config(10);
    let want = reference(&spec, &config);
    let (mut victim, victim_port) = spawn_daemon();
    let (mut survivor, survivor_port) = spawn_daemon();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        let _ = victim.kill();
        victim
    });
    let fabric = FabricConfig {
        workers: vec![
            format!("127.0.0.1:{victim_port}"),
            format!("127.0.0.1:{survivor_port}"),
        ],
        shard_plans: 2,
        deadline: Duration::from_secs(5),
        shard_retries: 10,
        worker_failures: 3,
        backoff: Duration::from_millis(10),
        ..FabricConfig::default()
    };
    let (got, _stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    let mut victim = killer.join().expect("killer thread");
    let _ = victim.kill();
    let _ = victim.wait();
    let _ = survivor.kill();
    let _ = survivor.wait();
}

/// A worker that accepts connections and then never answers (a bound
/// listener whose backlog accepts the TCP handshake): the per-shard
/// deadline trips, its shards requeue to the live worker, and the bytes
/// do not move.
#[test]
fn hung_worker_times_out_and_its_shards_requeue() {
    let spec = spec_path("wide_mouthed_frog");
    let config = chaos_config(6);
    let want = reference(&spec, &config);
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind hung listener");
    let hung_port = hung.local_addr().expect("addr").port();
    let live = in_process_server();
    let fabric = FabricConfig {
        workers: vec![
            format!("127.0.0.1:{hung_port}"),
            format!("127.0.0.1:{}", live.port()),
        ],
        shard_plans: 2,
        deadline: Duration::from_millis(250),
        shard_retries: 20,
        // One strike: the hung worker is deterministically abandoned at
        // its first deadline, whatever the live worker got done.
        worker_failures: 1,
        backoff: Duration::from_millis(5),
        ..FabricConfig::default()
    };
    let (got, stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    assert_eq!(stats.workers_lost, 1, "{stats}");
    assert!(stats.requeues >= 1, "{stats}");
    assert_eq!(stats.local_resolved, 0, "{stats}");
    drop(hung);
    stop(live);
}

/// Every worker lost — one refuses connections, one hangs — degrades
/// the whole sweep to in-process execution, still byte-identical.
#[test]
fn fleet_fully_lost_degrades_to_local_execution() {
    let spec = spec_path("kerberos_figure1");
    let config = chaos_config(4);
    let want = reference(&spec, &config);
    // A port that was bound and released: connections are refused fast.
    let dead_port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind hung listener");
    let hung_port = hung.local_addr().expect("addr").port();
    let fabric = FabricConfig {
        workers: vec![
            format!("127.0.0.1:{dead_port}"),
            format!("127.0.0.1:{hung_port}"),
        ],
        shard_plans: 2,
        deadline: Duration::from_millis(200),
        shard_retries: 2,
        worker_failures: 2,
        backoff: Duration::from_millis(5),
        ..FabricConfig::default()
    };
    let (got, stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    assert_eq!(stats.workers_lost, 2, "{stats}");
    assert_eq!(stats.remote_resolved, 0, "{stats}");
    assert!(stats.local_resolved > 0, "{stats}");
    drop(hung);
}

/// A worker that joins late — its daemon starts only after the sweep is
/// already retrying its address — is picked up by the bounded backoff
/// loop and serves the whole sweep remotely.
#[test]
fn late_joining_worker_is_picked_up_by_retries() {
    let spec = spec_path("wide_mouthed_frog");
    let config = chaos_config(3);
    let want = reference(&spec, &config);
    // Reserve a port, release it, and start the daemon there shortly
    // after the sweep begins hammering it.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        Server::start(ServeConfig {
            port,
            pool: Pool::new(1),
            ..ServeConfig::default()
        })
        .expect("bind late server")
    });
    let fabric = FabricConfig {
        workers: vec![format!("127.0.0.1:{port}")],
        shard_plans: 4,
        deadline: Duration::from_secs(5),
        shard_retries: 100,
        worker_failures: 100,
        backoff: Duration::from_millis(30),
        ..FabricConfig::default()
    };
    let (got, stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    assert_eq!(stats.local_resolved, 0, "{stats}");
    assert!(stats.remote_resolved > 0, "{stats}");
    assert!(stats.requeues > 0, "{stats}");
    stop(starter.join().expect("late server"));
}

/// A coordinator SIGKILLed mid-sweep leaves a partial store; a fresh
/// coordinator resumes from it — even after an entry is corrupted on
/// disk — and prints the reference bytes.
#[test]
fn sigkilled_coordinator_resumes_from_partial_store() {
    let spec = spec_path("needham_schroeder");
    let store = temp_dir("resume");
    let config = SweepConfig {
        grid: SweepGrid::new().seeds(0..12).drop_steps([0.0, 0.3, 0.6]),
        options: ExecOptions::default(),
        // The CLI default policy (patience 6, 2 retries), so the child
        // coordinator below keys the same context.
        expect_policy: ExpectPolicy::resend_after(6, 2),
    };
    let want = reference(&spec, &config);
    let mut child = Command::new(env!("CARGO_BIN_EXE_atl"))
        .args([
            "inject",
            &spec,
            "--sweep",
            "--seeds",
            "12",
            "--drop",
            "0,0.3,0.6",
            "--store",
            store.to_str().expect("utf8 store path"),
            "--jobs",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    std::thread::sleep(Duration::from_millis(60));
    let _ = child.kill();
    let _ = child.wait();
    // Corrupt whatever partial progress exists: one truncated entry and
    // one garbage file must both be discarded, not trusted.
    if let Ok(entries) = std::fs::read_dir(&store) {
        let mut outcomes: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "outcome"))
            .collect();
        outcomes.sort();
        if let Some(first) = outcomes.first() {
            let bytes = std::fs::read(first).expect("read entry");
            std::fs::write(first, &bytes[..bytes.len() / 2]).expect("truncate entry");
        }
        if let Some(second) = outcomes.get(1) {
            std::fs::write(second, b"\xde\xad\xbe\xef not an outcome").expect("garble entry");
        }
    }
    let fabric = FabricConfig {
        store: Some(store.clone()),
        ..FabricConfig::default()
    };
    let (got, stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    // And a second resume is pure store hits.
    let (again, warm) = run_fabric(&spec, &config, &fabric);
    assert_eq!(again, want);
    assert_eq!(warm.local_resolved, 0, "{warm}");
    assert_eq!(
        warm.store_hits,
        stats.store_hits + stats.local_resolved,
        "{warm}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// The store and the fleet compose: a first sweep executes remotely and
/// persists, a second sweep with *no* workers replays it byte-for-byte.
#[test]
fn remote_outcomes_persist_and_replay_without_workers() {
    let spec = spec_path("kerberos_figure1");
    let store = temp_dir("replay");
    let config = chaos_config(3);
    let want = reference(&spec, &config);
    let server = in_process_server();
    let fabric = FabricConfig {
        workers: vec![format!("127.0.0.1:{}", server.port())],
        store: Some(store.clone()),
        shard_plans: 2,
        deadline: Duration::from_secs(10),
        ..FabricConfig::default()
    };
    let (got, stats) = run_fabric(&spec, &config, &fabric);
    assert_eq!(got, want);
    assert!(stats.remote_resolved > 0, "{stats}");
    stop(server);
    let offline = FabricConfig {
        store: Some(store.clone()),
        ..FabricConfig::default()
    };
    let (replayed, warm) = run_fabric(&spec, &config, &offline);
    assert_eq!(replayed, want);
    assert_eq!(warm.store_hits, stats.remote_resolved, "{warm}");
    assert_eq!(warm.local_resolved, 0, "{warm}");
    let _ = std::fs::remove_dir_all(&store);
}

/// A worker whose spec file holds another protocol executes that
/// protocol, so its shards must never reach the report or the store:
/// the shard names the coordinator's execution context, the worker
/// refuses it, and once the worker is abandoned the sweep resolves
/// locally, printing the coordinator's own reference bytes.
#[test]
fn worker_serving_another_protocol_is_refused() {
    let spec = spec_path("kerberos_figure1");
    let config = chaos_config(2);
    let want = reference(&spec, &config);
    let src = std::fs::read_to_string(&spec).expect("read spec");
    let (at, _) = parse_spec(&src).expect("spec parses");
    let server = in_process_server();
    let fabric = FabricConfig {
        workers: vec![format!("127.0.0.1:{}", server.port())],
        shard_plans: 4,
        deadline: Duration::from_secs(10),
        backoff: Duration::from_millis(1),
        ..FabricConfig::default()
    };
    let (report, stats) = fabric_sweep(
        &at,
        &spec_path("wide_mouthed_frog"),
        &config,
        &fabric,
        &Pool::new(jobs()),
    )
    .expect("fabric sweep");
    assert_eq!(report.to_string(), want);
    assert_eq!(stats.remote_resolved, 0, "{stats}");
    assert_eq!(stats.workers_lost, 1, "{stats}");
    // The refusal is permanent: the shard goes back to the queue at once,
    // without a retry.
    assert_eq!(stats.requeues, 0, "{stats}");
    stop(server);
}

/// The outcome store is keyed by the enacted protocol and options, not
/// by the spec bytes: after a cold `--store` sweep, a comment-only and
/// a goal-only edit replay every outcome from the store, while an edit
/// to a step's message misses it entirely. Each report still equals a
/// fresh single-process sweep of the edited spec.
#[test]
fn store_replays_across_executor_invisible_edits() {
    let src = std::fs::read_to_string(spec_path("kerberos_figure1")).expect("read spec");
    let store = temp_dir("edits");
    let config = chaos_config(2);
    let fabric = FabricConfig {
        store: Some(store.clone()),
        ..FabricConfig::default()
    };
    let sweep = |name: &str, text: &str| {
        let path =
            std::env::temp_dir().join(format!("atl-e18-{}-edit-{name}.atl", std::process::id()));
        std::fs::write(&path, text).expect("write spec");
        let path = path.to_str().expect("utf8 path").to_string();
        let (got, stats) = run_fabric(&path, &config, &fabric);
        assert_eq!(got, reference(&path, &config), "{name}");
        let _ = std::fs::remove_file(&path);
        stats
    };
    let cold = sweep("base", &src);
    assert!(cold.local_resolved > 0, "{cold}");
    for (name, text) in [
        ("comment-only", format!("{src}# nothing to see\n")),
        (
            "goal-only",
            format!("{src}goal B believes (S says <<A <-Kab-> B>>)\n"),
        ),
    ] {
        let stats = sweep(name, &text);
        assert_eq!(stats.local_resolved, 0, "{name}: {stats}");
        assert_eq!(stats.store_hits, cold.local_resolved, "{name}: {stats}");
    }
    let message = src.replacen("step A -> B : {Ts,", "step A -> B : {Kab,", 1);
    assert_ne!(message, src);
    let stats = sweep("message-changed", &message);
    assert_eq!(stats.store_hits, 0, "{stats}");
    assert_eq!(stats.local_resolved, cold.local_resolved, "{stats}");
    let _ = std::fs::remove_dir_all(&store);
}
