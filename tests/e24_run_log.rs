//! E24: a run is one event log, and every state is a view of it.
//!
//! Runs once stored a deep snapshot of every global state. They now store
//! their first state and their events, and serve the state at a time as a
//! view (`Run::state`). `snapshot_reference` below is the snapshotting
//! builder those runs came from, written against the public API alone: it
//! replays a run's events and snapshots every state. At every time of
//! every run, each view must agree with its snapshot — every local view
//! (the environment's too), every key set, buffer and global history —
//! and so must the send records and the pre-epoch sent set. Run equality
//! must agree with equality of the snapshot vectors.
//!
//! The runs come from the random adversary (past epochs and environment
//! keys included), from faulted executions of every committed spec, from
//! the hand-built runs of `atl-protocols`, and from the committed traces.

use atl::core::enact::{enact_with, EnactOptions};
use atl::core::examples::coin_toss;
use atl::core::spec::parse_spec;
use atl::lang::{hide_message, Bindings, Key, KeySet, Message, MessageSet, Nonce, Principal};
use atl::model::{
    execute_with_faults, parse_trace, random_run, render_trace, Action, Event, ExecOptions,
    ExpectPolicy, FaultPlan, GenConfig, Run, RunBuilder, SendRecord,
};
use atl::protocols::{attacks, forwarding, nessett, ns_public_key, reflection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

const SPECS: &[&str] = &[
    include_str!("../specs/andrew_flawed.atl"),
    include_str!("../specs/kerberos_figure1.atl"),
    include_str!("../specs/needham_schroeder.atl"),
    include_str!("../specs/wide_mouthed_frog.atl"),
];

const TRACES: &[&str] = &[
    include_str!("../specs/denning_sacco.run"),
    include_str!("../specs/ns_compromised.run"),
];

/// A local state as a snapshot holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Local {
    history: Vec<Action>,
    key_set: KeySet,
    data: BTreeMap<String, String>,
}

impl Local {
    fn received(&self) -> MessageSet {
        let messages = self.history.iter().filter_map(|a| match a {
            Action::Receive { message } => Some(message.clone()),
            _ => None,
        });
        messages.collect()
    }

    /// `hide` (Section 6) over the history, under the current key set.
    fn hidden(&self) -> Vec<Action> {
        let hide = |m: &Message| hide_message(m, &self.key_set);
        let hidden = self.history.iter().map(|a| match a {
            Action::Send { message, to } => Action::send(hide(message), to.clone()),
            Action::Receive { message } => Action::receive(hide(message)),
            Action::NewKey { key } => Action::new_key(key.clone()),
        });
        hidden.collect()
    }
}

/// One deep copy of a global state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Snapshot {
    locals: BTreeMap<Principal, Local>,
    global_history: Vec<Event>,
    env_keys: KeySet,
    buffers: BTreeMap<Principal, Vec<Message>>,
}

impl Snapshot {
    /// `p`'s local state; a principal that is not a system principal
    /// sees its own actions in the global history and the environment's
    /// keys.
    fn local(&self, p: &Principal) -> Local {
        if let Some(local) = self.locals.get(p) {
            return local.clone();
        }
        Local {
            history: self
                .global_history
                .iter()
                .filter(|e| &e.actor == p)
                .map(|e| e.action.clone())
                .collect(),
            key_set: self.env_keys.clone(),
            data: BTreeMap::new(),
        }
    }

    fn buffer(&self, p: &Principal) -> Vec<Message> {
        self.buffers.get(p).cloned().unwrap_or_default()
    }
}

/// True for the idle step the executor pads with: the environment
/// acquiring the reserved key `__pad`, recorded in no history.
fn is_pad(event: &Event) -> bool {
    event.actor == Principal::environment()
        && matches!(&event.action, Action::NewKey { key } if *key == Key::new("__pad"))
}

/// The snapshotting builder runs came from, replayed over `run`'s events:
/// one deep snapshot per state, the first one read off the run's first
/// state.
fn snapshot_reference(run: &Run) -> Vec<Snapshot> {
    let first = run.state(run.start_time()).expect("first state");
    let mut current = Snapshot {
        locals: first
            .principals()
            .map(|p| {
                let local = Local {
                    history: Vec::new(),
                    key_set: first.key_set(p).clone(),
                    data: first.local(p).data().clone(),
                };
                (p.clone(), local)
            })
            .collect(),
        global_history: Vec::new(),
        env_keys: first.env_key_set().clone(),
        buffers: BTreeMap::new(),
    };
    let mut states = Vec::new();
    for (_, event) in run.events() {
        let actor = &event.actor;
        // A receive takes its message out of the buffer before the state
        // at its own time is snapshotted.
        if let Action::Receive { message } = &event.action {
            let buffer = current.buffers.entry(actor.clone()).or_default();
            if let Some(pos) = buffer.iter().position(|m| m == message) {
                buffer.remove(pos);
            }
        }
        states.push(current.clone());
        if is_pad(event) {
            current.env_keys.insert(Key::new("__pad"));
            continue;
        }
        if let Some(local) = current.locals.get_mut(actor) {
            local.history.push(event.action.clone());
        }
        current.global_history.push(event.clone());
        match &event.action {
            Action::Send { message, to } => {
                current
                    .buffers
                    .entry(to.clone())
                    .or_default()
                    .push(message.clone());
            }
            Action::NewKey { key } => match current.locals.get_mut(actor) {
                Some(local) => {
                    local.key_set.insert(key.clone());
                }
                None => {
                    current.env_keys.insert(key.clone());
                }
            },
            Action::Receive { .. } => {}
        }
    }
    states.push(current);
    states
}

/// The send records, unfolded from each send's pre-state snapshot.
fn reference_send_records(run: &Run, states: &[Snapshot]) -> Vec<SendRecord> {
    let mut out = Vec::new();
    for (i, (time, event)) in run.events().enumerate() {
        if let Action::Send { message, to } = &event.action {
            let local = states[i].local(&event.actor);
            out.push(SendRecord {
                time,
                sender: event.actor.clone(),
                to: to.clone(),
                message: message.clone(),
                key_set: local.key_set.clone(),
                received: local.received(),
            });
        }
    }
    out
}

/// Everything run equality compared when runs stored snapshots.
type Reference = (i64, Vec<Snapshot>, Vec<Event>, Bindings);

/// Asserts that every view of `run` agrees with the reference, and
/// returns the reference for the equality check.
fn check_views(label: &str, run: &Run) -> Reference {
    let states = snapshot_reference(run);
    assert_eq!(states.len(), run.times().count(), "{label}");
    assert!(run.state(run.start_time() - 1).is_none(), "{label}");
    assert!(run.state(run.horizon() + 1).is_none(), "{label}");

    // Every name the run mentions: system principals, the environment,
    // every actor and every recipient.
    let mut names: BTreeSet<Principal> = run.principals().cloned().collect();
    names.insert(Principal::environment());
    for (_, event) in run.events() {
        names.insert(event.actor.clone());
        if let Action::Send { to, .. } = &event.action {
            names.insert(to.clone());
        }
    }

    for (k, snap) in run.times().zip(&states) {
        let at = format!("{label} at time {k}");
        let view = run.state(k).expect("time in range");
        assert!(view.principals().eq(snap.locals.keys()), "{at}");
        assert_eq!(view.env_key_set(), &snap.env_keys, "{at}");
        assert!(
            view.global_history().eq(snap.global_history.iter()),
            "{at}: global history"
        );
        for p in &names {
            let (local, expected) = (view.local(p), snap.local(p));
            assert!(
                local.history().eq(expected.history.iter()),
                "{at}: history of {p}"
            );
            assert_eq!(local.key_set(), &expected.key_set, "{at}: keys of {p}");
            assert_eq!(view.key_set(p), &expected.key_set, "{at}: keys of {p}");
            assert_eq!(local.data(), &expected.data, "{at}: data of {p}");
            assert_eq!(local.received(), expected.received(), "{at}: {p}");
            assert_eq!(local.hidden().history, expected.hidden(), "{at}: {p}");
            assert_eq!(view.buffer(p), snap.buffer(p), "{at}: buffer of {p}");
        }
    }

    let records = reference_send_records(run, &states);
    assert_eq!(run.send_records(), records.as_slice(), "{label}");
    let past: MessageSet = records
        .iter()
        .filter(|r| r.time < 0)
        .map(|r| r.message.clone())
        .collect();
    assert_eq!(run.sent_before_epoch(), past, "{label}");

    let events = run.events().map(|(_, e)| e.clone()).collect();
    (run.start_time(), states, events, run.bindings().clone())
}

/// Random runs: the default configuration (a past epoch), a public-key
/// one (environment keys), and one with both and a longer past.
fn random_runs() -> Vec<(String, Run)> {
    let mut long_past = GenConfig {
        env_keys: vec![Key::new("Ke")],
        past_steps: 6,
        present_steps: 8,
        ..GenConfig::default()
    };
    long_past.nonce_pool.push(Nonce::new("Nc"));
    let configs = [
        ("default", GenConfig::default()),
        ("public-key", GenConfig::public_key()),
        ("long-past", long_past),
    ];
    let mut out = Vec::new();
    for (name, config) in configs {
        let mut rng = StdRng::seed_from_u64(24);
        for i in 0..40 {
            out.push((format!("random {name} #{i}"), random_run(&config, &mut rng)));
        }
    }
    out
}

/// Faulted executions of every committed spec under seeded plans that
/// drop, duplicate, delay, reorder and replay messages and compromise a
/// key — with expect steps that wait forever (lossy plans stall and are
/// skipped) and with steps that resend, then give up (lossy plans
/// degrade and idle).
fn faulted_runs() -> Vec<(String, Run)> {
    let policies = [ExpectPolicy::default(), ExpectPolicy::resend_after(6, 2)];
    let mut out = Vec::new();
    for src in SPECS {
        let (at, _) = parse_spec(src).expect("spec parses");
        for expect_policy in policies {
            let proto = enact_with(&at, EnactOptions { expect_policy });
            for seed in 0..24u64 {
                let p = |salt: u64| ((seed * 7 + salt * 13) % 10) as f64 / 10.0;
                let mut plan = FaultPlan::new(seed)
                    .drop(p(1) * 0.6)
                    .duplicate(p(2) * 0.5)
                    .delay(p(3) * 0.5, 1 + (seed % 3) as u32)
                    .reorder(p(4) * 0.5)
                    .replay(p(5));
                if seed % 3 == 0 {
                    plan = plan.compromise(Key::new("Kab"), (seed % 5) as i64);
                }
                let options = ExecOptions::default();
                if let Ok((run, _)) = execute_with_faults(&proto, &options, &plan) {
                    out.push((format!("{} {expect_policy:?} seed {seed}", at.name), run));
                }
            }
        }
    }
    out
}

/// The hand-built runs of `atl-protocols` and the coin-toss runs (which
/// differ only in their first state's data).
fn hand_built_runs() -> Vec<(String, Run)> {
    let named = [
        ("nspk honest", ns_public_key::honest_run()),
        ("nspk lowe", ns_public_key::lowe_run()),
        ("denning-sacco", attacks::denning_sacco_run()),
        ("reflection", reflection::reflection_run()),
        ("nessett clean", nessett::clean_run()),
        ("nessett leak", nessett::leak_run()),
        ("forward honest", forwarding::honest_forward_run()),
        ("forward misused", forwarding::misused_forward_run()),
    ];
    let mut out: Vec<(String, Run)> = named
        .into_iter()
        .map(|(label, run)| (label.to_string(), run))
        .collect();
    let (coins, _) = coin_toss();
    for (i, run) in coins.runs().iter().enumerate() {
        out.push((format!("coin toss #{i}"), run.clone()));
    }
    out
}

fn trace_runs() -> Vec<(String, Run)> {
    TRACES
        .iter()
        .enumerate()
        .map(|(i, src)| (format!("trace #{i}"), parse_trace(src).expect("trace").0))
        .collect()
}

/// Runs that differ from `run` only in their first state or bindings,
/// and one equal run built afresh from its trace.
fn variants(run: &Run) -> Vec<Run> {
    let trace = render_trace(run);
    let (reparsed, _) = parse_trace(&trace).expect("rendered traces parse");
    let (more_env_keys, _) =
        parse_trace(&trace.replacen("env keys", "env keys Kextra", 1)).expect("parses");
    let bound = format!("{trace}bind $Extra = Nextra\n");
    let (more_bindings, _) = parse_trace(&bound).expect("parses");
    vec![reparsed, more_env_keys, more_bindings]
}

#[test]
fn views_agree_with_snapshots_and_equality_with_snapshot_equality() {
    let mut runs = random_runs();
    runs.extend(faulted_runs());
    runs.extend(hand_built_runs());
    runs.extend(trace_runs());
    assert!(runs.len() > 250, "{} runs", runs.len());
    let extra: Vec<(String, Run)> = runs
        .iter()
        .step_by(7)
        .flat_map(|(label, run)| {
            let label = label.clone();
            variants(run)
                .into_iter()
                .enumerate()
                .map(move |(i, v)| (format!("{label} variant {i}"), v))
        })
        .collect();
    runs.extend(extra);

    let references: Vec<Reference> = runs.iter().map(|(l, r)| check_views(l, r)).collect();
    let mut equal_pairs = 0;
    for (i, (la, a)) in runs.iter().enumerate() {
        for (j, (lb, b)) in runs.iter().enumerate() {
            let same = references[i] == references[j];
            assert_eq!(a == b, same, "{la} vs {lb}");
            equal_pairs += usize::from(same && i != j);
        }
    }
    // Re-parsed traces (and any repeated executions) are equal runs.
    assert!(equal_pairs > 0);
}

/// An idle step is in no history and not in the global history, but it
/// adds `__pad` to the environment's key set; a receive's own state lacks
/// the delivered message; and a run extended in place equals the run
/// built from the longer log.
#[test]
fn the_three_traps_and_in_place_extension() {
    let nonce = |s: &str| Message::nonce(Nonce::new(s));
    let mut b = RunBuilder::new(-1);
    b.principal("A", [Key::new("K")]);
    b.principal("B", []);
    b.idle();
    let mut run = b.build().expect("reaches time 0");
    let b_name = Principal::new("B");
    let extend = |b: &RunBuilder, run: &mut Run| {
        run.extend_unchecked(b.last_event().expect("appended").clone());
        assert_eq!(*run, b.build().expect("builds"));
    };
    b.send("A", nonce("X"), "B").expect("send");
    extend(&b, &mut run);
    let buffered = |run: &Run, k| run.state(k).expect("state").buffer(&b_name);
    assert_eq!(buffered(&run, 1), [nonce("X")]);
    b.receive("B", &nonce("X")).expect("receive");
    extend(&b, &mut run);
    // The receive at time 1 took X out of the buffer in the state at
    // its own time.
    assert!(buffered(&run, 1).is_empty());
    b.idle();
    extend(&b, &mut run);
    b.new_key("Env", "Ke");
    extend(&b, &mut run);
    check_views("traps", &run);
    let env = Principal::environment();
    let pad = Key::new("__pad");
    let first = run.state(-1).expect("first state");
    assert!(!first.env_key_set().contains(&pad));
    let padded = run.state(0).expect("after the idle step");
    assert!(padded.env_key_set().contains(&pad));
    assert_eq!(padded.global_history().count(), 0);
    assert_eq!(padded.local(&env).history().count(), 0);
    let received = run.state(2).expect("state").local(&b_name).received();
    assert_eq!(received.len(), 1);
    let last = run.state(run.horizon()).expect("state");
    assert_eq!(last.local(&env).history().count(), 1);
    assert!(last.env_key_set().contains(&Key::new("Ke")));
}
