//! E21: the streaming monitor is *invisible* — black-box conformance
//! for `atl monitor` and the `MONITOR`/`EVENT` wire verbs.
//!
//! The proof obligation is absolute: after every ingested event, the
//! monitor's verdict lines must be byte-identical to a batch re-walk of
//! the same prefix — `parse_trace` the fed lines from scratch, build a
//! fresh system, evaluate every watched formula at the final point —
//! for the shipped fixture traces and for proptest-random traces, at
//! pool widths 1 and 2. Alongside ride the persistence story (a
//! checkpoint rendered to the wire, parsed back, and resumed must be
//! indistinguishable from the monitor that never stopped) and wire
//! conformance (the serve-mode `EVENT` verb answers exactly what the
//! in-process engine does).

use atl::core::annotate::{analyze_at, render_analysis};
use atl::core::monitor::Monitor;
use atl::core::parallel::Pool;
use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::serve::{Client, ServeConfig, Server};
use atl::lang::parser::parse_formula;
use atl::model::wire::{parse_checkpoint, render_checkpoint};
use atl::model::{parse_trace, Point, System};
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR")))
        .expect("read fixture trace")
}

/// The batch reference: re-parse the full prefix text from scratch and
/// evaluate every formula at the final point, formatting exactly as
/// `atl eval` does. `None` when the prefix does not yet parse to a
/// buildable run (the monitor must not have verdicted it either).
fn batch_verdicts(prefix: &[String], formulas: &[&str]) -> Option<Vec<String>> {
    let mut text = prefix.join("\n");
    text.push('\n');
    let (run, syms) = parse_trace(&text).ok()?;
    let k = run.horizon();
    let sys = System::new([run]);
    let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
    Some(
        formulas
            .iter()
            .map(|f| {
                let phi = parse_formula(f, &syms).expect("watched formula parses");
                let v = sem.eval(Point::new(0, k), &phi).expect("point in range");
                format!("at (run 0, time {k}): {phi} = {v}")
            })
            .collect(),
    )
}

/// Streams `lines` through a fresh monitor and, at every event that
/// produced verdicts, asserts byte-identity against the batch re-walk
/// of the exact prefix fed so far.
fn check_conformance(lines: &[&str], formulas: &[&str], jobs: usize) {
    let pool = Pool::new(jobs);
    let mut monitor = Monitor::new("monitor", formulas.iter().map(|s| (*s).to_string()))
        .expect("watched formulas are syntactically valid");
    let mut fed: Vec<String> = Vec::new();
    for line in lines {
        let out = monitor
            .feed_line(line, &pool)
            .unwrap_or_else(|e| panic!("feed {line:?}: {e}"));
        fed.push((*line).to_string());
        if out.iter().any(|l| l.starts_with("at (")) {
            let batch = batch_verdicts(&fed, formulas)
                .expect("a verdicted prefix must batch-parse to a buildable run");
            assert_eq!(
                out,
                batch,
                "incremental and batch verdicts diverge after {} lines at jobs={jobs}",
                fed.len()
            );
        }
    }
}

#[test]
fn fixture_traces_conform_at_every_prefix() {
    let cases: &[(&str, &[&str])] = &[
        (
            "ns_compromised.run",
            &["Env has Kab", "B sees Nb", "A said Nb"],
        ),
        (
            "denning_sacco.run",
            &["Env has Kab", "A has Kab", "B sees NbNew"],
        ),
    ];
    for (name, formulas) in cases {
        let text = fixture(name);
        let lines: Vec<&str> = text.lines().collect();
        for jobs in [1, 2] {
            check_conformance(&lines, formulas, jobs);
        }
    }
}

/// `Monitor::summary` is the cold `atl analyze` report of the monitor's
/// protocol view after every line of each fixture trace, directives and
/// pre-epoch events included.
#[test]
fn summary_is_the_cold_analysis_of_the_protocol_view() {
    let pool = Pool::new(1);
    let cases = [
        (
            "denning_sacco.run",
            ["Env has Kab", "A has Kab", "B sees NbNew"],
        ),
        (
            "ns_compromised.run",
            ["Env has Kab", "B sees Nb", "A said Nb"],
        ),
    ];
    for (name, formulas) in cases {
        let mut monitor =
            Monitor::new("monitor", formulas.map(String::from)).expect("formulas parse");
        for line in fixture(name).lines() {
            monitor
                .feed_line(line, &pool)
                .unwrap_or_else(|e| panic!("{name}: feed {line:?}: {e}"));
            let proto = monitor.protocol();
            assert_eq!(
                monitor.summary(),
                render_analysis(proto, &analyze_at(proto)),
                "{name}: summary after {line:?}"
            );
        }
    }
}

/// Formulas every random trace is watched under.
const RANDOM_FORMULAS: &[&str] = &["A said Na", "B sees Na", "Env has Kab"];

/// Renders a random op sequence into trace lines, tracking in-flight
/// buffers so every `recv` references a message actually deliverable at
/// that point (the builder rejects anything else).
fn render_random_trace(start: i64, ops: &[(u8, u8, u8)]) -> Vec<String> {
    const PRINCIPALS: [&str; 3] = ["A", "B", "C"];
    // Messages each sender can build from its declared key material.
    const SENDABLE: [&[&str]; 3] = [
        &["Na", "{Na}Kab@A", "Nc"],
        &["Nb", "{Nb}Kab@B"],
        &["Nc", "Na"],
    ];
    let mut lines = vec![
        format!("run start {start}"),
        "principal A keys Kab".to_string(),
        "principal B keys Kab".to_string(),
        "principal C keys Kc".to_string(),
    ];
    let mut buffers: [Vec<(usize, String)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for &(kind, who, sel) in ops {
        let who = who as usize % 3;
        match kind % 4 {
            0 => {
                let to = (who + 1 + sel as usize % 2) % 3;
                let msg = SENDABLE[who][sel as usize % SENDABLE[who].len()];
                buffers[to].push((to, msg.to_string()));
                lines.push(format!(
                    "send {} -> {} : {msg}",
                    PRINCIPALS[who], PRINCIPALS[to]
                ));
            }
            1 => {
                // Receive at the first principal (scanning from `who`)
                // with something in flight; idle when nothing is.
                let target = (0..3)
                    .map(|i| (who + i) % 3)
                    .find(|i| !buffers[*i].is_empty());
                match target {
                    Some(i) => {
                        let slot = sel as usize % buffers[i].len();
                        let (_, msg) = buffers[i].remove(slot);
                        lines.push(format!("recv {} : {msg}", PRINCIPALS[i]));
                    }
                    None => lines.push("newkey Env __pad".to_string()),
                }
            }
            2 => lines.push(format!("newkey {} K{}", PRINCIPALS[who], sel % 4)),
            _ => lines.push("newkey Env __pad".to_string()),
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_traces_conform_at_every_prefix(
        start in -2i64..2,
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..8), 1..14),
    ) {
        let lines = render_random_trace(start, &ops);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        for jobs in [1, 2] {
            check_conformance(&refs, RANDOM_FORMULAS, jobs);
        }
    }

    #[test]
    fn checkpoint_resume_is_indistinguishable_mid_random_trace(
        start in -1i64..1,
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..8), 2..10),
        split_seed in 0usize..64,
    ) {
        let pool = Pool::new(1);
        let lines = render_random_trace(start, &ops);
        let split = 1 + split_seed % lines.len();
        let formulas: Vec<String> =
            RANDOM_FORMULAS.iter().map(|s| (*s).to_string()).collect();
        let mut original = Monitor::new("monitor-e21", formulas).expect("monitor");
        for line in &lines[..split] {
            original.feed_line(line, &pool).expect("prefix feeds");
        }
        // Round-trip the checkpoint through its wire text, as the
        // serve-mode store does across a daemon restart.
        let text = render_checkpoint(&original.checkpoint(9));
        let cp = parse_checkpoint(&text).expect("rendered checkpoint parses");
        let mut resumed = Monitor::resume(&cp, &pool).expect("resume replays");
        prop_assert_eq!(original.last_verdicts(), resumed.last_verdicts());
        for line in &lines[split..] {
            let a = original.feed_line(line, &pool).expect("original feeds");
            let b = resumed.feed_line(line, &pool).expect("resumed feeds");
            prop_assert_eq!(a, b, "divergence after resume on {}", line);
        }
        prop_assert_eq!(original.summary(), resumed.summary());
    }
}

#[test]
fn wire_events_answer_exactly_what_the_engine_does() {
    let server = Server::start(ServeConfig {
        port: 0,
        pool: Pool::new(1),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut c = Client::connect(server.addr()).expect("connect");
    let formulas = ["Env has Kab", "B sees Nb"];
    let opened = c
        .request(&format!("MONITOR {}", formulas.join("; ")))
        .expect("MONITOR");
    assert_eq!(opened.lines, vec!["monitor 1: watching 2 formula(s)"]);

    let pool = Pool::new(1);
    let mut reference = Monitor::new("monitor-1", formulas.iter().map(|s| (*s).to_string()))
        .expect("reference monitor");
    let text = fixture("ns_compromised.run");
    for line in text.lines() {
        let resp = c.request(&format!("EVENT 1 {line}")).expect("EVENT");
        assert!(resp.ok, "EVENT {line:?} failed: {resp:?}");
        let expected = reference.feed_line(line, &pool).expect("reference feed");
        assert_eq!(
            resp.lines, expected,
            "wire diverges from engine on {line:?}"
        );
    }
    // The last verdicts are the batch answer for the whole fixture.
    let fed: Vec<String> = text.lines().map(str::to_string).collect();
    let batch = batch_verdicts(&fed, &formulas).expect("fixture batch-parses");
    assert_eq!(reference.last_verdicts().len(), batch.len());
    c.shutdown().expect("shutdown");
    server.join();
}
