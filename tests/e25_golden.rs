//! E25: golden bytes — the CLI's reports pinned across versions.
//!
//! Every other CLI test compares the binary against itself: two runs,
//! two worker counts, a daemon and the one-shot command. None of them
//! notices when a change to the executor or the restriction checks
//! moves a report that every side then prints alike. These files under
//! `tests/golden/` hold the stdout of a fixed-seed hunt, a single plan
//! with every fault kind, and a single plan whose drops make senders
//! abandon steps (the `send abandoned: restriction 3 …` reasons on
//! Kerberos and Needham–Schroeder), on each committed spec. A change
//! that alters any of them must say why and regenerate the file with
//! the command named in `COMMANDS`.
//!
//! Two more files pin what no other test compares across versions:
//! `suite.txt` holds the `atl suite` table, and `serve_transcript.txt`
//! holds a daemon session driven by [`SERVE_SCRIPT`]: every verb but
//! `METRICS` (whose latency histograms vary from run to run), the
//! `RELOAD` summaries, `STATS`, the monitor's answers and the errors.
//! E17 compares the wire with the CLI at one version, so daemon-only
//! text would otherwise move unnoticed. Regenerate the transcript by
//! writing this test's `transcript` to the file.

use atl::core::enact::{enact_with, EnactOptions};
use atl::core::parallel::Pool;
use atl::core::serve::{Client, ServeConfig, Server};
use atl::core::spec::parse_spec;
use atl::model::wire::{render_plan, render_sweep_request};
use atl::model::{execution_context_digest, ExecOptions, ExpectPolicy, FaultPlan};
use std::path::Path;
use std::process::Command;

const SPECS: &[&str] = &[
    "andrew_flawed",
    "kerberos_figure1",
    "needham_schroeder",
    "wide_mouthed_frog",
];

/// Golden-file prefix and the `atl` arguments after the spec path.
const COMMANDS: &[(&str, &[&str])] = &[
    ("hunt", &["--seed", "7", "--budget", "48"]),
    (
        "inject_faults",
        &[
            "--seed",
            "7",
            "--drop",
            "0.3",
            "--dup",
            "0.3",
            "--delay",
            "0.3",
            "--reorder",
            "0.3",
            "--replay",
            "0.5",
            "--compromise",
            "Kab@2",
        ],
    ),
    (
        "inject_abandon",
        &["--seed", "1", "--drop", "1", "--retries", "0"],
    ),
];

/// The subcommand a golden-file prefix runs.
fn subcommand(prefix: &str) -> &'static str {
    if prefix == "hunt" {
        "hunt"
    } else {
        "inject"
    }
}

#[test]
fn cli_reports_match_their_golden_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for spec in SPECS {
        let spec_path = dir.join("specs").join(format!("{spec}.atl"));
        for (prefix, args) in COMMANDS {
            let golden_path = dir
                .join("tests/golden")
                .join(format!("{prefix}_{spec}.txt"));
            let golden = std::fs::read(&golden_path)
                .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
            let out = Command::new(env!("CARGO_BIN_EXE_atl"))
                .arg(subcommand(prefix))
                .arg(&spec_path)
                .args(*args)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "atl {} {spec} {args:?} exited {:?}: {}",
                subcommand(prefix),
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                out.stdout == golden,
                "atl {} {spec} {args:?} differs from {}:\n--- golden\n{}\n--- now\n{}",
                subcommand(prefix),
                golden_path.display(),
                String::from_utf8_lossy(&golden),
                String::from_utf8_lossy(&out.stdout)
            );
            checked += 1;
        }
    }
    assert_eq!(checked, SPECS.len() * COMMANDS.len());
}

/// The abandonment goldens really pin restriction-3 reasons: the checks
/// this file exists to guard are exercised, not just the happy path.
#[test]
fn abandonment_goldens_carry_restriction_reasons() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    for spec in ["kerberos_figure1", "needham_schroeder"] {
        let path = dir.join(format!("tests/golden/inject_abandon_{spec}.txt"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("send abandoned: restriction 3"),
            "{}: no restriction-3 reason",
            path.display()
        );
    }
}

/// `atl suite` prints the same table at one and two jobs, and that
/// table is the committed one.
#[test]
fn suite_table_matches_its_golden_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = dir.join("tests/golden/suite.txt");
    let golden =
        std::fs::read(&golden_path).unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    for jobs in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_atl"))
            .args(["suite", "--jobs", jobs])
            .output()
            .unwrap();
        assert!(out.status.success(), "atl suite --jobs {jobs} failed");
        assert!(
            out.stdout == golden,
            "atl suite --jobs {jobs} differs from {}:\n--- golden\n{}\n--- now\n{}",
            golden_path.display(),
            String::from_utf8_lossy(&golden),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// What the daemon session sends, in order. `{spec:NAME}` is the path
/// of a committed spec, `{tmp:NAME}` a file written beside the test,
/// `{sweep:NAME}` a `SWEEP` shard in NAME's execution context, and
/// `{trace}` stands for one `EVENT` per line of `denning_sacco.run`.
const SERVE_SCRIPT: &[&str] = &[
    "LOAD {spec:andrew_flawed}",
    "LOAD {spec:kerberos_figure1}",
    "LOAD {spec:needham_schroeder}",
    "LOAD {spec:wide_mouthed_frog}",
    "ANALYZE 1",
    "ANALYZE 2",
    "ANALYZE 3",
    "ANALYZE 4",
    "EVAL 2 2 B believes (A <-Kab-> B)",
    "EVAL 2 0:99 B believes (A <-Kab-> B)",
    "INJECT 3 --seed 7 --drop 0.5",
    "INJECT 3 --seed 7 --drop 0.5",
    "INJECT 3 --seed 7 --compromise Kab@2 --replay 0.5",
    "INJECT 3 --seed x",
    "HUNT 2 seed=7 budget=48 batch=8",
    "SWEEP 3 {sweep:needham_schroeder}",
    "SWEEP 2 {sweep:wide_mouthed_frog}",
    "RELOAD 2 {tmp:assumption}",
    "RELOAD 2 {tmp:goal}",
    "ANALYZE 2",
    "MONITOR A has Kab;B sees $X",
    "{trace}",
    "STATS",
    "FROB 1",
    "ANALYZE 9",
    "ANALYZE x",
    "STATS extra",
    "SHUTDOWN",
];

/// The `SWEEP` shard sent in the daemon session: three plans under a
/// skip policy, keyed to `spec`'s execution context.
fn sweep_shard(dir: &Path, spec: &str) -> String {
    let text = std::fs::read_to_string(dir.join(format!("specs/{spec}.atl"))).unwrap();
    let (at, _) = parse_spec(&text).unwrap();
    let policy = ExpectPolicy::skip_after(2);
    let options = ExecOptions::default();
    let proto = enact_with(
        &at,
        EnactOptions {
            expect_policy: policy,
        },
    );
    let plans = [
        FaultPlan::new(0),
        FaultPlan::new(3).drop(0.5),
        FaultPlan::new(5).replay(1.0).duplicate(0.5),
    ];
    let lines: Vec<String> = plans.iter().map(render_plan).collect();
    render_sweep_request(
        execution_context_digest(&proto, &options),
        &policy,
        &options,
        lines.iter().map(String::as_str),
    )
}

/// A daemon session over every verb but `METRICS` prints the committed
/// transcript: each request as `> <request>`, then `OK n` and its n
/// payload lines, or `ERR <message>`. Paths read `<repo>` and `<tmp>`.
#[test]
fn serve_transcript_matches_its_golden_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tmp = std::env::temp_dir().join(format!("atl-e25-serve-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let kerberos = std::fs::read_to_string(dir.join("specs/kerberos_figure1.atl")).unwrap();
    std::fs::write(
        tmp.join("assumption.atl"),
        format!("{kerberos}assume B believes fresh(Ta)\n"),
    )
    .unwrap();
    std::fs::write(
        tmp.join("goal.atl"),
        format!(
            "{kerberos}assume B believes fresh(Ta)\ngoal B believes (S says <<A <-Kab-> B>>)\n"
        ),
    )
    .unwrap();
    let trace = std::fs::read_to_string(dir.join("specs/denning_sacco.run")).unwrap();

    let mut requests = Vec::new();
    for entry in SERVE_SCRIPT {
        if *entry == "{trace}" {
            for line in trace.lines() {
                requests.push(format!("EVENT 1 {line}").trim_end().to_string());
            }
            continue;
        }
        let mut request = entry.to_string();
        if let Some((head, name)) = entry.split_once(" {spec:") {
            let name = name.trim_end_matches('}');
            request = format!("{head} {}", dir.join(format!("specs/{name}.atl")).display());
        } else if let Some((head, name)) = entry.split_once(" {tmp:") {
            let name = name.trim_end_matches('}');
            request = format!("{head} {}", tmp.join(format!("{name}.atl")).display());
        } else if let Some((head, name)) = entry.split_once(" {sweep:") {
            let name = name.trim_end_matches('}');
            request = format!("{head} {}", sweep_shard(dir, name));
        }
        requests.push(request);
    }

    let server = Server::start(ServeConfig {
        port: 0,
        pool: Pool::new(1),
        idle_timeout: None,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect to the daemon");
    let (tmp_text, repo_text) = (tmp.display().to_string(), dir.display().to_string());
    let mut transcript = String::new();
    for request in &requests {
        let masked = request
            .replace(&tmp_text, "<tmp>")
            .replace(&repo_text, "<repo>");
        transcript.push_str(&format!("> {masked}\n"));
        let resp = client.request(request).expect("request");
        match resp.err_message() {
            Some(message) => transcript.push_str(&format!("ERR {message}\n")),
            None => {
                transcript.push_str(&format!("OK {}\n", resp.lines.len()));
                transcript.push_str(&resp.payload());
            }
        }
    }
    server.join();
    let _ = std::fs::remove_dir_all(&tmp);

    let golden_path = dir.join("tests/golden/serve_transcript.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert!(
        transcript == golden,
        "the daemon session differs from {}:\n--- golden\n{golden}\n--- now\n{transcript}",
        golden_path.display()
    );
}
