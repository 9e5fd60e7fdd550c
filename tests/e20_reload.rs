//! E20: delta session reload is *invisible* — black-box conformance for
//! `RELOAD`.
//!
//! The proof obligation is absolute: after any sequence of spec edits,
//! a delta-reloaded session must answer `ANALYZE`/`EVAL`/`INJECT`
//! byte-identically to a cold daemon that loaded the edited spec from
//! scratch — at every pool width — while the daemon's counters prove
//! the answers actually came from reused work (`reload_delta > 0`).
//! Alongside rides the global execution cache's safety story: its key
//! (`execution_context_digest`) must move whenever an edit changes
//! executor-visible behavior, so a reload can never serve a stale
//! execution.

use atl::core::annotate::{analyze_at, analyze_at_resumable, render_analysis, AtProtocol};
use atl::core::enact::enact;
use atl::core::parallel::Pool;
use atl::core::serve::{Client, Response, ServeConfig, Server};
use atl::core::spec::{canonicalize_spec, parse_spec};
use atl::lang::arbitrary::arb_formula;
use atl::lang::Formula;
use atl::model::{execution_context_digest, ExecOptions};
use atl::protocols::{
    andrew, forwarding, kerberos, needham_schroeder, nessett, otway_rees, reflection,
    wide_mouthed_frog, x509, yahalom,
};
use proptest::prelude::*;

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

fn temp_spec(tag: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("atl-e20-{}-{tag}.atl", std::process::id()));
    std::fs::write(&path, content).expect("write temp spec");
    path
}

/// One spec edit in a random edit sequence. Every variant keeps the
/// executor-visible protocol intact except `SwapAdjacentAssumes`, which
/// keeps even the parse order the only difference — the harness does
/// not pre-filter parse failures, it checks the daemon rejects them
/// with the cold diagnostic instead.
#[derive(Clone, Debug)]
enum Edit {
    /// Append a comment line: canonically invisible, must be a no-op.
    Comment,
    /// Append a random goal.
    Goal(Formula),
    /// Append a random belief assumption for principal `A`.
    Assume(Formula),
    /// Swap the first two `assume` lines (parse reorders, nothing else).
    SwapAdjacentAssumes,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        Just(Edit::Comment),
        arb_formula(2).prop_map(Edit::Goal),
        arb_formula(2).prop_map(Edit::Assume),
        Just(Edit::SwapAdjacentAssumes),
    ]
}

fn apply_edit(src: &str, edit: &Edit) -> String {
    match edit {
        Edit::Comment => format!("{src}# an edit that says nothing\n"),
        Edit::Goal(f) => format!("{src}goal {f}\n"),
        Edit::Assume(f) => format!("{src}assume A believes ({f})\n"),
        Edit::SwapAdjacentAssumes => {
            let assumes: Vec<&str> = src.lines().filter(|l| l.starts_with("assume")).collect();
            if assumes.len() < 2 {
                return src.to_string();
            }
            let pair = format!("{}\n{}", assumes[0], assumes[1]);
            let swapped = format!("{}\n{}", assumes[1], assumes[0]);
            src.replacen(&pair, &swapped, 1)
        }
    }
}

/// The query battery compared between the warm and the cold daemon.
fn queries(id: u64, probe: &Formula) -> Vec<String> {
    vec![
        format!("ANALYZE {id}"),
        format!("EVAL {id} 0:0 {probe}"),
        format!("EVAL {id} 0:2 {probe}"),
        format!("INJECT {id} --seed 7 --drop 0.5"),
        format!("INJECT {id} --seed 3"),
    ]
}

/// Replays one edit sequence against a live daemon at the given width,
/// comparing every post-edit answer against a cold daemon of the same
/// width; returns the full warm transcript for cross-width comparison.
fn replay(
    jobs: usize,
    base_src: &str,
    edits: &[Edit],
    probe: &Formula,
) -> Result<Vec<Response>, TestCaseError> {
    let file = temp_spec(&format!("replay-{jobs}"), base_src);
    let path = file.to_str().expect("utf-8 path").to_string();
    let server = start(jobs, 2);
    let mut c = client(&server);
    let id = c.load(&path).expect("base spec loads");
    let mut transcript = Vec::new();
    let mut good = base_src.to_string();
    let mut accepted = 0u64;

    // Final deterministic comment edit: guarantees at least one
    // accepted reload (the canonical no-op) in every sequence.
    let all_edits: Vec<Edit> = edits.iter().cloned().chain([Edit::Comment]).collect();
    for edit in &all_edits {
        let next = apply_edit(&good, edit);
        std::fs::write(&file, &next).expect("write edit");
        let resp = c.request(&format!("RELOAD {id} {path}")).expect("reload");
        match parse_spec(&next) {
            Err(e) => {
                // The edit does not parse: the daemon must reject it
                // with the cold diagnostic and leave the session alone.
                let diag = e.diagnostic(&path);
                prop_assert_eq!(resp.err_message(), Some(diag.as_str()));
                continue;
            }
            Ok(_) => {
                prop_assert!(resp.ok, "reload of a parsing edit failed: {:?}", resp);
                prop_assert_eq!(resp.session_id(), Some(id));
                good = next;
                accepted += 1;
            }
        }

        // Cold oracle: a fresh daemon of the same width, loading the
        // edited spec from scratch.
        let cold_srv = start(jobs, 2);
        let mut cold = client(&cold_srv);
        let cold_id = cold.load(&path).expect("cold load");
        for (warm_q, cold_q) in queries(id, probe)
            .iter()
            .zip(queries(cold_id, probe).iter())
        {
            let warm_resp = c.request(warm_q).expect("warm query");
            let cold_resp = cold.request(cold_q).expect("cold query");
            prop_assert_eq!(
                &warm_resp,
                &cold_resp,
                "jobs {}: {:?} diverged between delta reload and cold load",
                jobs,
                warm_q
            );
            transcript.push(warm_resp);
        }
        stop(cold_srv, &mut cold);
    }

    let stats = server.stats();
    prop_assert_eq!(stats.reloads, accepted);
    prop_assert!(
        stats.reload_delta > 0,
        "no reload was served incrementally: {:?}",
        stats
    );
    stop(server, &mut c);
    let _ = std::fs::remove_file(file);
    Ok(transcript)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random spec, random edit sequence: after every accepted edit the
    /// delta-reloaded daemon answers the full query battery
    /// byte-identically to a cold daemon — at widths 1 and 2, which
    /// must also agree with each other — and the counters prove at
    /// least one reload reused prior work.
    #[test]
    fn delta_reload_is_byte_identical_to_cold_load(
        base in 0usize..4,
        edits in prop::collection::vec(arb_edit(), 1..4),
        probe in arb_formula(2),
    ) {
        let src = std::fs::read_to_string(spec_path(SPEC_NAMES[base])).expect("read spec");
        let t1 = replay(1, &src, &edits, &probe)?;
        let t2 = replay(2, &src, &edits, &probe)?;
        prop_assert_eq!(t1, t2, "pool width changed reload bytes");
    }
}

/// The global execution cache key: edits the executor cannot see keep
/// the digest (so reloads keep hitting warm executions), and any edit
/// that changes executor-visible behavior moves it (so a reload can
/// never be served a stale execution).
#[test]
fn execution_cache_key_tracks_executor_visible_edits() {
    let src = std::fs::read_to_string(spec_path("kerberos_figure1")).expect("read spec");
    let digest_of = |text: &str, options: &ExecOptions| {
        let (at, _) = parse_spec(text).expect("spec parses");
        execution_context_digest(&enact(&at), options)
    };
    let options = ExecOptions::default();
    let base = digest_of(&src, &options);

    // Executor-invisible edits: comments, goals, belief assumptions,
    // assumption order. Same digest — the cache may keep serving.
    for (name, text) in [
        ("comment-only", format!("{src}# nothing to see\n")),
        (
            "goal-added",
            format!("{src}goal B believes (S says <<A <-Kab-> B>>)\n"),
        ),
        (
            "belief-assumption-added",
            format!("{src}assume S believes (A <-Kas-> S)\n"),
        ),
        (
            "assumptions-reordered",
            src.replacen(
                "assume A believes (A <-Kas-> S)\nassume B believes (B <-Kbs-> S)",
                "assume B believes (B <-Kbs-> S)\nassume A believes (A <-Kas-> S)",
                1,
            ),
        ),
    ] {
        assert_eq!(
            digest_of(&text, &options),
            base,
            "{name}: executor-invisible edit moved the execution cache key"
        );
    }

    // Executor-visible edits: a changed message, a new step, a changed
    // key-possession assumption. The digest must move for each.
    for (name, text) in [
        (
            "message-changed",
            src.replacen("step A -> B : {Ts,", "step A -> B : {Kab,", 1),
        ),
        ("step-added", format!("{src}step B -> A : {{Ts}}Kbs@B\n")),
        (
            "possession-changed",
            src.replacen("assume A has Kas", "assume A has Kab", 1),
        ),
    ] {
        let edited = digest_of(&text, &options);
        assert_ne!(
            edited, base,
            "{name}: executor-visible edit kept the execution cache key"
        );
    }

    // Options are part of the key too: the same protocol under a
    // different schedule or channel must not collide.
    assert_ne!(
        digest_of(
            &src,
            &ExecOptions {
                public_channel: true,
                ..ExecOptions::default()
            }
        ),
        base,
        "options must be part of the execution cache key"
    );
}

/// The canonical-digest contract satellite, end to end: comment-only
/// and whitespace-only twins share a canonical form (and so a `LOAD`
/// digest), while any canonical difference — even pure reordering —
/// does not.
#[test]
fn canonicalization_contract_for_load_dedupe() {
    let src = std::fs::read_to_string(spec_path("needham_schroeder")).expect("read spec");
    let commented: String = format!(
        "# header\n\n{}# trailer\n",
        src.lines()
            .map(|l| format!("  {l}  # note\n"))
            .collect::<String>()
    );
    assert_eq!(
        canonicalize_spec(&src),
        canonicalize_spec(&commented),
        "comment/whitespace twins must share a canonical form"
    );
    let reordered = {
        let assumes: Vec<&str> = src.lines().filter(|l| l.starts_with("assume")).collect();
        let pair = format!("{}\n{}", assumes[0], assumes[1]);
        let swapped = format!("{}\n{}", assumes[1], assumes[0]);
        src.replacen(&pair, &swapped, 1)
    };
    assert_ne!(
        canonicalize_spec(&src),
        canonicalize_spec(&reordered),
        "reordering is a real edit and must not be canonicalized away"
    );
}

/// Every AT idealization in the repository: the four committed specs and
/// the 18 that `atl_protocols` builds.
fn at_protocols() -> Vec<AtProtocol> {
    let mut all: Vec<AtProtocol> = SPEC_NAMES
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(spec_path(name)).expect("read spec");
            parse_spec(&src).expect("committed spec parses").0
        })
        .collect();
    all.extend([
        kerberos::figure1_at(),
        kerberos::full_at(),
        needham_schroeder::at_protocol(true),
        needham_schroeder::at_protocol(false),
        yahalom::at_protocol(true),
        yahalom::at_protocol(false),
        otway_rees::at_protocol(),
        wide_mouthed_frog::at_protocol(),
        andrew::at_protocol(false),
        andrew::at_protocol(true),
        x509::at_protocol(true),
        x509::at_protocol(false),
        x509::at_protocol_signed(true),
        x509::at_protocol_signed(false),
        nessett::at_protocol(),
        forwarding::at_protocol(),
        reflection::at_protocol(),
        reflection::reflected_at_protocol(),
    ]);
    all
}

/// The report a `LOAD` or `RELOAD` renders from its resumable analysis
/// is the cold `atl analyze` report: for a fresh analysis of every AT
/// idealization, and for one built without any single assumption and
/// then advanced by it (a `RELOAD` that adds that assumption).
#[test]
fn resumed_analysis_renders_the_cold_report() {
    for at in at_protocols() {
        let cold = render_analysis(&at, &analyze_at(&at));
        assert_eq!(analyze_at_resumable(&at).render(&at), cold, "{}", at.name);
        for held_out in 0..at.assumptions.len() {
            let mut reduced = at.clone();
            let added = reduced.assumptions.remove(held_out);
            let mut resume = analyze_at_resumable(&reduced);
            resume.advance(&at, std::slice::from_ref(&added));
            assert_eq!(
                resume.render(&at),
                cold,
                "{} advanced by assumption {held_out}",
                at.name
            );
        }
    }
}
