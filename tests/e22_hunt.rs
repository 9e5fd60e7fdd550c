//! E22: coverage-guided attack search — determinism, soundness,
//! minimality, the hand-written-attack oracle, and corpus persistence.
//!
//! The hunt (`atl-model::search` + `atl hunt`) is a feedback-directed
//! fuzzer over fault plans. These tests pin its contract:
//!
//! - **Determinism** — the whole report is byte-identical at every
//!   `--jobs` count, on committed specs and on proptest-random
//!   protocols, with cold or warm execution caches.
//! - **Soundness** — every witness and every shrunk minimal plan,
//!   re-executed directly, reproduces exactly the degradation signature
//!   of its class.
//! - **Minimality** — flipping any single minimized axis further toward
//!   the identity plan loses the signature: the shrinker's fixpoint is
//!   a real certificate, not a heuristic.
//! - **Oracle** — from a null corpus with a fixed seed, the hunt
//!   rediscovers the degradation signature of every hand-written attack
//!   fixture in `atl-protocols`, spending a small fraction of the
//!   executions an exhaustive sweep of the same axes would need.
//! - **Persistence** — `atl hunt --store DIR` round-trips its corpus
//!   with the checksum discipline, in at most one frame per round: a
//!   resumed hunt reports its classes without duplicates, and a
//!   corrupted frame is discarded whole rather than trusted, costing
//!   exactly its own classes.

use atl::core::annotate::AtProtocol;
use atl::core::enact::{enact_with, EnactOptions};
use atl::core::hunt::{default_space, hunt_report, HuntReport, HuntSettings, SignatureClassifier};
use atl::core::parallel::Pool;
use atl::core::spec::parse_spec;
use atl::lang::{Key, Message, Nonce};
use atl::model::{
    execute_with_faults, execution_context_digest, hunt_plans_on, ExecOptions, ExecOutcome,
    ExecutionCache, ExpectPolicy, FaultKind, FaultPlan, HuntConfig, HuntStore, MutationSpace,
    PlanFingerprint, Protocol, Role,
};
use atl::protocols::attacks::attack_fixtures;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const SPECS: &[(&str, &str)] = &[
    ("andrew_flawed", include_str!("../specs/andrew_flawed.atl")),
    (
        "kerberos_figure1",
        include_str!("../specs/kerberos_figure1.atl"),
    ),
    (
        "needham_schroeder",
        include_str!("../specs/needham_schroeder.atl"),
    ),
    (
        "wide_mouthed_frog",
        include_str!("../specs/wide_mouthed_frog.atl"),
    ),
];

/// The worker counts checked against the sequential reference.
const JOBS: &[usize] = &[2, 4];

fn spec_at(src: &str) -> AtProtocol {
    parse_spec(src).expect("committed spec parses").0
}

/// A hunt over the spec's default mutation space, optionally narrowed
/// to a coarser probability palette (fewer distinct signatures, faster
/// tests).
fn settings(at: &AtProtocol, seed: u64, budget: usize, steps: Option<&[f64]>) -> HuntSettings {
    let mut space = default_space(at);
    if let Some(steps) = steps {
        space.prob_steps = steps.to_vec();
    }
    HuntSettings {
        config: HuntConfig {
            seed,
            budget,
            batch: 16,
            space,
            seed_plans: Vec::new(),
        },
        ..HuntSettings::default()
    }
}

fn run_hunt(at: &AtProtocol, s: &HuntSettings, jobs: usize) -> HuntReport {
    hunt_report(at, s, &Pool::new(jobs), &ExecutionCache::new(), None)
}

/// The enacted protocol and classifier the hunt itself uses, for
/// re-deriving signatures by direct execution.
fn replica(at: &AtProtocol, s: &HuntSettings) -> (Protocol, SignatureClassifier) {
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: s.expect_policy,
        },
    );
    (proto, SignatureClassifier::new(at))
}

/// On every committed spec, the whole hunt report — stats, baseline,
/// class order, witnesses, minimal plans — is byte-identical at every
/// worker count.
#[test]
fn hunt_reports_identical_at_every_worker_count() {
    for (name, src) in SPECS {
        let at = spec_at(src);
        let s = settings(&at, 11, 64, Some(&[0.0, 0.5, 1.0]));
        let reference = run_hunt(&at, &s, 1).to_string();
        for &jobs in JOBS {
            assert_eq!(
                run_hunt(&at, &s, jobs).to_string(),
                reference,
                "{name} at {jobs} workers"
            );
        }
    }
}

/// Soundness: every class's witness *and* shrunk minimal plan,
/// re-executed directly (no sweep, no cache), reproduces exactly the
/// signature the hunt filed it under.
#[test]
fn witnesses_and_minimal_plans_reproduce_their_signature() {
    for (name, src) in SPECS {
        let at = spec_at(src);
        let s = settings(&at, 5, 48, Some(&[0.0, 0.5, 1.0]));
        let report = run_hunt(&at, &s, 2);
        let (proto, mut classifier) = replica(&at, &s);
        assert!(
            !report.outcome.classes.is_empty(),
            "{name}: hunt found nothing"
        );
        for class in &report.outcome.classes {
            for plan in [&class.witness, &class.minimal] {
                let outcome = execute_with_faults(&proto, &s.options, plan);
                assert_eq!(
                    classifier.signature(&outcome),
                    class.signature,
                    "{name}: {plan} does not reproduce its class"
                );
            }
        }
    }
}

/// Every single-axis step further toward the identity plan the mutation
/// space offers: compromise removals, strictly lower palette
/// probabilities, the default delay duration, the identity seed. This
/// mirrors the shrinker's own reduction set, so an empty
/// signature-preserving subset is exactly its fixpoint condition.
fn toward_identity(space: &MutationSpace, plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for i in 0..plan.compromises.len() {
        let mut c = plan.clone();
        c.compromises.remove(i);
        out.push(c);
    }
    type Axis = (fn(&FaultPlan) -> f64, fn(&mut FaultPlan, f64));
    let axes: [Axis; 5] = [
        (|p| p.drop_p, |p, v| p.drop_p = v),
        (|p| p.duplicate_p, |p, v| p.duplicate_p = v),
        (|p| p.delay_p, |p, v| p.delay_p = v),
        (|p| p.reorder_p, |p, v| p.reorder_p = v),
        (|p| p.replay_p, |p, v| p.replay_p = v),
    ];
    for (get, set) in axes {
        let current = get(plan);
        let mut lower: Vec<f64> = space
            .prob_steps
            .iter()
            .copied()
            .chain([0.0])
            .filter(|v| *v < current)
            .collect();
        lower.sort_by(f64::total_cmp);
        lower.dedup();
        for v in lower {
            let mut c = plan.clone();
            set(&mut c, v);
            out.push(c);
        }
    }
    let identity = space.identity();
    if plan.delay_p > 0.0 && plan.delay_rounds != identity.delay_rounds.max(2) {
        let mut c = plan.clone();
        c.delay_rounds = identity.delay_rounds.max(2);
        out.push(c);
    }
    if plan.seed != identity.seed {
        let mut c = plan.clone();
        c.seed = identity.seed;
        out.push(c);
    }
    out
}

/// Minimality: for every reported minimal plan, *every* single-axis
/// reduction toward identity changes the degradation signature. (A
/// reduction with the same canonical fingerprint would trivially
/// preserve the signature, so the fixpoint guarantees none exists.)
#[test]
fn minimal_plans_lose_their_signature_under_any_further_reduction() {
    let at = spec_at(SPECS[2].1);
    let s = settings(&at, 9, 48, Some(&[0.0, 0.5, 1.0]));
    let report = run_hunt(&at, &s, 2);
    let (proto, mut classifier) = replica(&at, &s);
    assert!(report.outcome.classes.len() > 3, "hunt found too little");
    for class in &report.outcome.classes {
        let minimal_fp = PlanFingerprint::of(&class.minimal);
        for candidate in toward_identity(&s.config.space, &class.minimal) {
            if candidate.validate().is_err() {
                continue;
            }
            assert_ne!(
                PlanFingerprint::of(&candidate),
                minimal_fp,
                "minimal plan {} carries an axis its own fingerprint ignores",
                class.minimal
            );
            let outcome = execute_with_faults(&proto, &s.options, &candidate);
            assert_ne!(
                classifier.signature(&outcome),
                class.signature,
                "{} is not minimal: {} keeps the signature",
                class.minimal,
                candidate
            );
        }
    }
}

/// The regression oracle: from a null corpus with a fixed seed, the
/// hunt rediscovers at least 90% of the hand-written attack fixtures'
/// degradation signatures — and spends at most 10% of the executions an
/// exhaustive sweep over the same axes (the space's grid, after
/// fingerprint dedup) would need.
#[test]
fn hunt_rediscovers_the_handwritten_attacks_cheaply() {
    let fixtures = attack_fixtures();
    let (mut found, mut total) = (0usize, 0usize);
    let (mut spent, mut exhaustive) = (0usize, 0usize);
    for (spec_name, src) in SPECS {
        let expected_here: Vec<_> = fixtures
            .iter()
            .filter(|f| f.spec_name == *spec_name)
            .collect();
        if expected_here.is_empty() {
            continue;
        }
        let at = spec_at(src);
        let s = settings(&at, 1, 192, None);
        let (proto, mut classifier) = replica(&at, &s);
        let report = run_hunt(&at, &s, 2);
        let sigs: BTreeSet<&str> = report
            .outcome
            .classes
            .iter()
            .map(|c| c.signature.as_str())
            .collect();
        for fixture in expected_here {
            let outcome = execute_with_faults(&proto, &s.options, &fixture.plan);
            let signature = classifier.signature(&outcome);
            total += 1;
            if sigs.contains(signature.as_str()) {
                found += 1;
            } else {
                eprintln!("missed {}: {signature}", fixture.name);
            }
        }
        spent += report.outcome.stats.executed;
        let unique: BTreeSet<String> = s
            .config
            .space
            .grid()
            .plans()
            .iter()
            .map(|p| PlanFingerprint::of(p).wire())
            .collect();
        exhaustive += unique.len();
    }
    eprintln!(
        "oracle: {found}/{total} fixture signatures rediscovered, \
         {spent} plans resolved vs {exhaustive} for the exhaustive grids"
    );
    assert!(total >= 5, "the fixture registry shrank");
    assert!(
        found * 10 >= total * 9,
        "hunt rediscovered only {found}/{total} fixture signatures"
    );
    assert!(
        spent * 10 <= exhaustive,
        "hunt spent {spent} executions; an exhaustive sweep needs {exhaustive} \
         — the 10% bound is blown"
    );
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atl-e22-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The corpus frames in a hunt store, by listing the directory.
fn corpus_frames(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read store")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "corpus"))
        .collect()
}

/// The sequence numbers of one corpus frame's plans: one `seq` line
/// each.
fn seqs_in(frame: &Path) -> Vec<usize> {
    std::fs::read_to_string(frame)
        .expect("read frame")
        .lines()
        .filter_map(|l| l.strip_prefix("seq "))
        .map(|n| n.parse().expect("a sequence number"))
        .collect()
}

fn cli_hunt(spec: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_atl"))
        .arg("hunt")
        .arg(spec)
        .args(["--seed", "3", "--budget", "48", "--steps", "0,0.5,1"])
        .args(extra)
        .output()
        .expect("run the atl binary");
    assert!(
        out.status.success(),
        "hunt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `atl hunt --store DIR` round-trips: a second run resumes every class
/// from the corpus (no duplicates, same classes). Corrupting one frame
/// costs exactly that frame's classes: the checksum discipline deletes
/// the damaged frame instead of trusting it, every other class still
/// resumes, and one run later the store is whole again. The lost classes
/// come back only where a later hunt's search reaches them again, which
/// at the same budget it need not do.
#[test]
fn cli_store_resumes_and_survives_corruption() {
    let spec = format!("{}/specs/needham_schroeder.atl", env!("CARGO_MANIFEST_DIR"));
    let dir = temp_dir("store");
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let cold = cli_hunt(&spec, &["--store", dir_arg]);
    assert!(cold.contains("0 class(es) resumed"), "{cold}");
    // Class *numbers* depend on discovery order, which a resume replays
    // from the store instead; the signatures are the stable identity.
    let classes = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| l.starts_with("class "))
            .map(|l| l.split_once(": ").expect("class line").1.to_string())
            .collect()
    };
    let cold_classes = classes(&cold);
    assert!(!cold_classes.is_empty());
    let cold_rounds: usize = cold
        .lines()
        .find_map(|l| l.trim().split_once(" round(s), "))
        .and_then(|(n, _)| n.parse().ok())
        .expect("a stats line");
    let entries = corpus_frames(&dir);
    assert!(
        entries.len() <= cold_rounds,
        "{} frames for {cold_rounds} round(s)",
        entries.len()
    );
    assert_eq!(
        entries.iter().map(|f| seqs_in(f).len()).sum::<usize>(),
        cold_classes.len(),
        "one stored plan per class"
    );

    // Resume: every class comes back from the store, none duplicated.
    let warm = cli_hunt(&spec, &["--store", dir_arg]);
    assert!(
        warm.contains(&format!("{} class(es) resumed", cold_classes.len())),
        "{warm}"
    );
    let warm_classes = classes(&warm);
    let distinct: BTreeSet<&String> = warm_classes.iter().collect();
    assert_eq!(
        distinct.len(),
        warm_classes.len(),
        "resume duplicated a signature"
    );
    for class in &cold_classes {
        assert!(warm_classes.contains(class), "lost {class} on resume");
    }

    // Corruption: damage the largest frame of a mutation round (any cold
    // frame but the one holding sequence number 0, the identity plan's
    // class), the most one flipped byte can cost. The next run discards
    // it whole (checksum) and resumes everything else. (The resumed run
    // kept hunting past its inherited corpus, so the store may have
    // grown — recount before corrupting.)
    let stored: usize = corpus_frames(&dir).iter().map(|f| seqs_in(f).len()).sum();
    let victim = entries
        .iter()
        .filter(|f| !seqs_in(f).contains(&0))
        .max_by_key(|f| seqs_in(f).len())
        .expect("a mutation round's frame");
    let lost = seqs_in(victim);
    let mut bytes = std::fs::read(victim).expect("read frame");
    let n = bytes.len();
    bytes[n - 2] ^= 0x20;
    std::fs::write(victim, bytes).expect("corrupt frame");
    let healed = cli_hunt(&spec, &["--store", dir_arg]);
    assert!(
        healed.contains(&format!("{} class(es) resumed", stored - lost.len())),
        "corrupt frame was not discarded: {healed}"
    );
    let healed_classes = classes(&healed);
    let distinct: BTreeSet<&String> = healed_classes.iter().collect();
    assert_eq!(
        distinct.len(),
        healed_classes.len(),
        "the healed run duplicated a signature"
    );
    // The cold run numbered its classes from 0 in discovery order, so
    // its class i holds sequence number i: every class outside the
    // damaged frame survives it.
    for (seq, class) in cold_classes.iter().enumerate() {
        assert!(
            lost.contains(&seq) || healed_classes.contains(class),
            "corruption lost {class}, which the damaged frame did not hold"
        );
    }
    // The damaged frame costs once: the next run resumes every class the
    // healed run reported.
    let after = cli_hunt(&spec, &["--store", dir_arg]);
    assert!(
        after.contains(&format!("{} class(es) resumed", healed_classes.len())),
        "{after}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold hunt with a store writes at most one corpus frame per round,
/// and the frames hold exactly the classes' witnesses, in class order.
#[test]
fn cold_hunt_stores_at_most_one_frame_per_round() {
    for (name, src) in SPECS {
        let at = spec_at(src);
        let s = settings(&at, 3, 64, None);
        let dir = temp_dir(&format!("frames-{name}"));
        let store = HuntStore::open(&dir).expect("open the hunt store");
        let report = hunt_report(&at, &s, &Pool::new(1), &ExecutionCache::new(), Some(&store));
        let stats = report.outcome.stats;
        let frames = corpus_frames(&dir).len();
        assert!(
            frames <= stats.rounds,
            "{name}: {frames} frames for {} round(s)",
            stats.rounds
        );
        let (proto, _) = replica(&at, &s);
        let context = execution_context_digest(&proto, &s.options);
        let witnesses: Vec<FaultPlan> = report
            .outcome
            .classes
            .iter()
            .map(|c| c.witness.clone())
            .collect();
        assert_eq!(store.load(context), witnesses, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A resumed hunt classifies its stored corpus against the spec it is
/// given. Dropping a goal leaves the enacted protocol, and so the store's
/// key, unchanged; the resumed classes must still carry the new goal
/// count, exactly one of them must be the baseline, and every minimal
/// plan must re-execute to its signature under the edited spec.
#[test]
fn resumed_hunt_reclassifies_its_corpus_after_a_goal_edit() {
    let src = SPECS[2].1;
    let dir = temp_dir("goal-edit");
    let store = HuntStore::open(&dir).expect("open the hunt store");
    let hunt = |at: &AtProtocol| {
        let s = settings(at, 7, 48, None);
        let report = hunt_report(at, &s, &Pool::new(1), &ExecutionCache::new(), Some(&store));
        (s, report)
    };
    let (_, cold) = hunt(&spec_at(src));
    assert!(cold.outcome.classes.len() > 1, "{cold}");

    let last_goal = src.rfind("\ngoal ").expect("a goal line") + 1;
    let end = last_goal
        + src[last_goal..]
            .find('\n')
            .map_or(src.len() - last_goal, |n| n + 1);
    let edited = spec_at(&format!("{}{}", &src[..last_goal], &src[end..]));
    assert_eq!(edited.goals.len() + 1, spec_at(src).goals.len());
    let (s, resumed) = hunt(&edited);
    assert!(
        resumed.outcome.stats.resumed > 0,
        "nothing resumed: {resumed}"
    );

    for class in &resumed.outcome.classes {
        let goals = class
            .signature
            .split_whitespace()
            .find_map(|field| field.strip_prefix("goals="))
            .expect("a goals= field");
        assert_eq!(
            goals.len(),
            edited.goals.len(),
            "stale signature {}",
            class.signature
        );
    }
    let baselines = resumed
        .outcome
        .classes
        .iter()
        .filter(|c| c.signature == resumed.outcome.baseline)
        .count();
    assert_eq!(baselines, 1, "{resumed}");
    let (proto, mut classifier) = replica(&edited, &s);
    for class in &resumed.outcome.classes {
        let outcome = execute_with_faults(&proto, &s.options, &class.minimal);
        assert_eq!(
            classifier.signature(&outcome),
            class.signature,
            "{} does not reproduce its class under the edited spec",
            class.minimal
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI is jobs-invariant end to end: `--jobs 1/2/4` print identical
/// bytes.
#[test]
fn cli_hunt_is_jobs_invariant() {
    let spec = format!("{}/specs/wide_mouthed_frog.atl", env!("CARGO_MANIFEST_DIR"));
    let reference = cli_hunt(&spec, &["--jobs", "1"]);
    assert!(reference.contains("attack hunt of"), "{reference}");
    for jobs in ["2", "4"] {
        assert_eq!(cli_hunt(&spec, &["--jobs", jobs]), reference, "jobs={jobs}");
    }
}

/// A protocol of `depth` nonce round-trips between A and B — randomized
/// protocol material for the engine-level properties.
fn pingpong(depth: u64) -> Protocol {
    let mut a = Role::new("A", []);
    let mut b = Role::new("B", []);
    let policy = ExpectPolicy::skip_after(2);
    for i in 0..depth {
        let ping = Message::nonce(Nonce::new(format!("P{i}")));
        let pong = Message::nonce(Nonce::new(format!("Q{i}")));
        a = a.send(ping.clone(), "B").expect_with(pong.clone(), policy);
        b = b.expect_with(ping, policy).send(pong, "A");
    }
    Protocol::new(format!("pingpong-{depth}")).role(a).role(b)
}

/// A protocol-independent classifier: which fault kinds fired plus the
/// abandoned-step count, or the error class.
fn classify(outcome: &ExecOutcome) -> String {
    match outcome {
        Ok((_, report)) => {
            let kinds: Vec<&str> = [
                (FaultKind::Drop, "drop"),
                (FaultKind::Duplicate, "dup"),
                (FaultKind::Delay, "delay"),
                (FaultKind::Reorder, "reorder"),
                (FaultKind::Replay, "replay"),
                (FaultKind::Compromise, "comp"),
            ]
            .iter()
            .filter(|(k, _)| report.faults_of(*k).next().is_some())
            .map(|(_, n)| *n)
            .collect();
            format!(
                "faults={} abandoned={}",
                kinds.join("+"),
                report.abandoned.len()
            )
        }
        Err(e) => format!("failed {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The search engine is worker-count invariant on random protocols
    /// and random mutation palettes: same classes, same stats, same
    /// baseline, cold caches each time.
    #[test]
    fn random_hunts_identical_at_every_worker_count(
        depth in 1u64..4,
        seed in 0u64..64,
        k in 0u64..(1 << 6),
    ) {
        let proto = pingpong(depth);
        let opts = ExecOptions::default();
        let palette = [0.0, 0.25 + (k & 3) as f64 / 8.0, 1.0];
        let space = MutationSpace::new()
            .prob_steps(palette)
            .seeds(0..1 + (k >> 2 & 3))
            .candidate(Key::new("P0"), 2);
        let config = HuntConfig {
            seed,
            budget: 24,
            batch: 8,
            space,
            seed_plans: Vec::new(),
        };
        let reference = hunt_plans_on(
            &proto, &opts, &config, &Pool::new(1), &ExecutionCache::new(), None,
            |_, outcome| classify(outcome),
        );
        for &jobs in JOBS {
            let outcome = hunt_plans_on(
                &proto, &opts, &config, &Pool::new(jobs), &ExecutionCache::new(), None,
                |_, outcome| classify(outcome),
            );
            prop_assert_eq!(&outcome.classes, &reference.classes, "jobs={}", jobs);
            prop_assert_eq!(outcome.stats, reference.stats, "jobs={}", jobs);
            prop_assert_eq!(&outcome.baseline, &reference.baseline, "jobs={}", jobs);
        }
    }
}
