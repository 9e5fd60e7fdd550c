//! E24: a run is one event log, and every state is a view of it.
//!
//! Runs once stored a deep snapshot of every global state. They now store
//! their first state and their events, and serve the state at a time as a
//! view (`Run::state`). `snapshot_reference` below is the snapshotting
//! builder those runs came from, written against the public API alone: it
//! replays a run's events and snapshots every state. At every time of
//! every run, each view must agree with its snapshot — every local view
//! (the environment's too), every key set, buffer and global history —
//! and so must the pre-epoch sent set. Run equality must agree with
//! equality of the snapshot vectors.
//!
//! Send records are views too: each must agree with the owned record
//! runs once stored (the send, the sender's key set and received set
//! copied from the snapshot before it), and record equality with
//! equality of the owned records.
//!
//! The restriction checks read a sender's context by reference, through
//! one walk shared by the checked builder and the validator. Two
//! references below keep the checks as they stood when they copied the
//! context: the builder's `check_send` and the validator. Replayed prefix
//! by prefix, every run is offered sends the references accept and
//! refuse, and the builder must answer as its reference does, reason
//! text included; runs with unchecked sends must audit exactly as the
//! reference validator audits them.
//!
//! The runs come from the random adversary (past epochs and environment
//! keys included), from faulted executions of every committed spec, from
//! the hand-built runs of `atl-protocols`, and from the committed traces.

use atl::core::enact::{enact_with, EnactOptions};
use atl::core::examples::coin_toss;
use atl::core::spec::parse_spec;
use atl::lang::{
    can_see, hide_message, said_submsgs, seen_submsgs_of_set, submsgs, Bindings, Key, KeySet,
    KeyTerm, Message, MessageSet, Nonce, Principal,
};
use atl::model::{
    execute_with_faults, parse_trace, random_run, render_trace, validate_run, Action, Event,
    ExecOptions, ExpectPolicy, FaultPlan, GenConfig, ModelError, Run, RunBuilder, Violation,
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

/// A send record as runs stored it before records became views: the send
/// unfolded with owned copies of the sender's context.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OwnedRecord {
    time: i64,
    sender: Principal,
    to: Principal,
    message: Message,
    key_set: KeySet,
    received: MessageSet,
}

/// The send records, unfolded from each send's pre-state snapshot.
fn reference_send_records(run: &Run, states: &[Snapshot]) -> Vec<OwnedRecord> {
    let mut out = Vec::new();
    for (i, (time, event)) in run.events().enumerate() {
        if let Action::Send { message, to } = &event.action {
            let local = states[i].local(&event.actor);
            out.push(OwnedRecord {
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
/// returns the reference for the equality check with the owned records.
fn check_views(label: &str, run: &Run) -> (Reference, Vec<OwnedRecord>) {
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
    assert_eq!(run.send_records().len(), records.len(), "{label}");
    for (i, (view, owned)) in run.send_records().zip(&records).enumerate() {
        let at = format!("{label}: send {i}");
        assert_eq!(view.time, owned.time, "{at}");
        assert_eq!(view.sender, &owned.sender, "{at}");
        assert_eq!(view.to, &owned.to, "{at}");
        assert_eq!(view.message, &owned.message, "{at}");
        assert_eq!(run.send_record(i), Some(view), "{at}");
        let context = view.context();
        assert_eq!(context.key_set(), &owned.key_set, "{at}");
        assert_eq!(context.received(), owned.received, "{at}");
        let said = said_submsgs(&owned.message, &owned.key_set, &owned.received);
        assert_eq!(view.said_submsgs(), said, "{at}");
    }
    assert!(run.send_record(records.len()).is_none(), "{label}");
    let past: MessageSet = records
        .iter()
        .filter(|r| r.time < 0)
        .map(|r| r.message.clone())
        .collect();
    assert_eq!(run.sent_before_epoch(), past, "{label}");

    let events = run.events().map(|(_, e)| e.clone()).collect();
    let reference = (run.start_time(), states, events, run.bindings().clone());
    (reference, records)
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
    let [in_order, reordered] = reordered_receipts();
    out.push(("receipts in order".into(), in_order));
    out.push(("receipts reordered".into(), reordered));
    out
}

/// Two unequal runs whose last sends have equal records: `B` receives
/// `X` and `Y` in one order in the first run and in the other order in
/// the second, then sends `Z`. A record compares the *set* of messages
/// its sender received, which is all `said-submsgs` reads.
fn reordered_receipts() -> [Run; 2] {
    let nonce = |s: &str| Message::nonce(Nonce::new(s));
    let build = |first: &str, second: &str| {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("X"), "B").expect("send");
        b.send("A", nonce("Y"), "B").expect("send");
        b.receive("B", &nonce(first)).expect("receive");
        b.receive("B", &nonce(second)).expect("receive");
        b.send("B", Message::forwarded(nonce("X")), "A")
            .expect("forwards what it saw");
        b.into_run().expect("reaches time 0")
    };
    [build("X", "Y"), build("Y", "X")]
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

    let (references, records): (Vec<Reference>, Vec<Vec<OwnedRecord>>) =
        runs.iter().map(|(l, r)| check_views(l, r)).unzip();
    let (mut equal_pairs, mut equal_records_of_unequal_runs) = (0, 0);
    for (i, (la, a)) in runs.iter().enumerate() {
        for (j, (lb, b)) in runs.iter().enumerate() {
            let same = references[i] == references[j];
            assert_eq!(a == b, same, "{la} vs {lb}");
            equal_pairs += usize::from(same && i != j);
            // Records compare as the semantics' rewarm compares them: the
            // k-th send of one run against the k-th send of the other.
            for (k, (ra, rb)) in records[i].iter().zip(&records[j]).enumerate() {
                let equal = ra == rb;
                assert_eq!(
                    a.send_record(k) == b.send_record(k),
                    equal,
                    "{la} vs {lb}: send {k}"
                );
                equal_records_of_unequal_runs += usize::from(equal && !same);
            }
        }
    }
    // Re-parsed traces (and any repeated executions) are equal runs, and
    // unequal runs share equal records (the reordered receipts among them).
    assert!(equal_pairs > 0);
    assert!(equal_records_of_unequal_runs > 0);
    let [in_order, reordered] = reordered_receipts();
    assert_ne!(in_order, reordered);
    assert_eq!(in_order.send_record(2), reordered.send_record(2));
    assert_ne!(in_order.send_record(2), in_order.send_record(1));
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

/// The checked builder's restriction check as it stood when it copied the
/// sender's context: an owned received set and an owned `said_submsgs`,
/// walked in `Message` order, refusing on the first violation
/// (restriction 3 before 4 within a submessage). The context is read off
/// the snapshot before the send.
fn reference_check_send(
    state: &Snapshot,
    actor: &Principal,
    message: &Message,
) -> Result<(), String> {
    let local = state.local(actor);
    let (keys, received) = (&local.key_set, local.received());
    let is_system = state.locals.contains_key(actor);
    let said = said_submsgs(message, keys, &received);
    let seen_in_received = |m: &Message| received.iter().any(|r| can_see(m, r, keys));
    for sub in &said {
        match sub {
            Message::Encrypted { key, from, .. } => {
                let holds_key = matches!(key, KeyTerm::Key(k) if keys.contains(k));
                if !holds_key && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 3: cannot construct {sub} without its key"
                    ));
                }
                if is_system && from != actor && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 4: from field {from} on ciphertext constructed by {actor}"
                    ));
                }
            }
            Message::Combined { from, .. }
                if is_system && from != actor && !seen_in_received(sub) =>
            {
                return Err(format!(
                    "restriction 4: from field {from} on combined message constructed by {actor}"
                ));
            }
            Message::Forwarded(body) if is_system && !seen_in_received(body) => {
                return Err(format!(
                    "restriction 5: {actor} forwards {body} without having seen it"
                ));
            }
            Message::PubEncrypted { key, from, .. } => {
                let holds_key = matches!(key, KeyTerm::Key(k) if keys.contains(k));
                if !holds_key && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 3: cannot construct {sub} without the public key"
                    ));
                }
                if is_system && from != actor && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 4: from field {from} on public-key ciphertext constructed by {actor}"
                    ));
                }
            }
            Message::Signed { key, from, .. } => {
                let holds_inverse = matches!(key, KeyTerm::Key(k) if keys.contains(&k.inverse()));
                if !holds_inverse && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 3: cannot construct {sub} without the private key"
                    ));
                }
                if is_system && from != actor && !seen_in_received(sub) {
                    return Err(format!(
                        "restriction 4: from field {from} on signature constructed by {actor}"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// The validator as it stood when send records owned their context:
/// restrictions 1 and 2 over the run, 3–5 over the owned records.
fn reference_validate(run: &Run) -> Vec<Violation> {
    let mut out = Vec::new();
    let principals: Vec<Principal> = run.principals().cloned().collect();
    for w in run.times().collect::<Vec<_>>().windows(2) {
        let (k0, k1) = (w[0], w[1]);
        let (Some(s0), Some(s1)) = (run.state(k0), run.state(k1)) else {
            continue;
        };
        for p in &principals {
            if !s0.key_set(p).is_subset(s1.key_set(p)) {
                out.push(Violation {
                    restriction: 1,
                    time: k1,
                    actor: p.clone(),
                    detail: format!("key set of {p} shrank between {k0} and {k1}"),
                });
            }
        }
        if !s0.env_key_set().is_subset(s1.env_key_set()) {
            out.push(Violation {
                restriction: 1,
                time: k1,
                actor: Principal::environment(),
                detail: "environment key set shrank".into(),
            });
        }
    }
    let mut sent: Vec<(Principal, Message)> = Vec::new();
    for (time, event) in run.events() {
        match &event.action {
            Action::Send { message, to } => sent.push((to.clone(), message.clone())),
            Action::Receive { message } => {
                let pos = sent
                    .iter()
                    .position(|(to, m)| to == &event.actor && m == message);
                match pos {
                    Some(i) => {
                        sent.remove(i);
                    }
                    None => out.push(Violation {
                        restriction: 2,
                        time,
                        actor: event.actor.clone(),
                        detail: format!("{message} received without a prior matching send"),
                    }),
                }
            }
            Action::NewKey { .. } => {}
        }
    }
    let states = snapshot_reference(run);
    for rec in reference_send_records(run, &states) {
        let is_system = principals.contains(&rec.sender);
        let seen = seen_submsgs_of_set(rec.received.iter(), &rec.key_set);
        let said = said_submsgs(&rec.message, &rec.key_set, &rec.received);
        let violation = |restriction, detail| Violation {
            restriction,
            time: rec.time,
            actor: rec.sender.clone(),
            detail,
        };
        for sub in &said {
            match sub {
                Message::Encrypted { key, from, .. } => {
                    let holds = key.as_key().is_some_and(|k| rec.key_set.contains(k));
                    let saw = seen.contains(sub);
                    if !holds && !saw {
                        out.push(violation(
                            3,
                            format!("said {sub} without key or prior sight"),
                        ));
                    }
                    if is_system && from != &rec.sender && !saw {
                        out.push(violation(
                            4,
                            format!("constructed {sub} with foreign from field {from}"),
                        ));
                    }
                }
                Message::Combined { from, .. }
                    if is_system && from != &rec.sender && !seen.contains(sub) =>
                {
                    out.push(violation(
                        4,
                        format!("constructed {sub} with foreign from field {from}"),
                    ));
                }
                Message::Forwarded(body) => {
                    let saw_body = rec.received.iter().any(|r| can_see(body, r, &rec.key_set));
                    if is_system && !saw_body {
                        out.push(violation(
                            5,
                            format!("forwarded {body} without having seen it"),
                        ));
                    }
                }
                Message::PubEncrypted { key, from, .. } => {
                    let holds = key.as_key().is_some_and(|k| rec.key_set.contains(k));
                    let saw = seen.contains(sub);
                    if !holds && !saw {
                        out.push(violation(
                            3,
                            format!("said {sub} without the public key or prior sight"),
                        ));
                    }
                    if is_system && from != &rec.sender && !saw {
                        out.push(violation(
                            4,
                            format!("constructed {sub} with foreign from field {from}"),
                        ));
                    }
                }
                Message::Signed { key, from, .. } => {
                    let holds = key
                        .as_key()
                        .is_some_and(|k| rec.key_set.contains(&k.inverse()));
                    let saw = seen.contains(sub);
                    if !holds && !saw {
                        out.push(violation(
                            3,
                            format!("said {sub} without the private key or prior sight"),
                        ));
                    }
                    if is_system && from != &rec.sender && !saw {
                        out.push(violation(
                            4,
                            format!("constructed {sub} with foreign from field {from}"),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// What a run offers for trial sends: its messages, the ciphertexts
/// inside them, every key it mentions, and every name.
struct Material {
    messages: Vec<Message>,
    ciphertexts: Vec<Message>,
    keys: Vec<Key>,
    names: Vec<Principal>,
}

impl Material {
    fn of(run: &Run) -> Material {
        let first = run.state(run.start_time()).expect("first state");
        let mut messages = BTreeSet::new();
        let mut keys: BTreeSet<Key> = first.env_key_set().iter().cloned().collect();
        let mut names: BTreeSet<Principal> = run.principals().cloned().collect();
        names.insert(Principal::environment());
        for p in first.principals() {
            keys.extend(first.key_set(p).iter().cloned());
        }
        for (_, event) in run.events() {
            names.insert(event.actor.clone());
            match &event.action {
                Action::Send { message, .. } | Action::Receive { message } => {
                    keys.extend(message.keys());
                    messages.insert(message.clone());
                }
                Action::NewKey { key } => {
                    keys.insert(key.clone());
                }
            }
        }
        // A key nobody holds, so every sender lacks some key.
        keys.insert(Key::new("Kunheld"));
        let ciphertexts = messages
            .iter()
            .flat_map(submsgs)
            .filter(|m| {
                matches!(
                    m,
                    Message::Encrypted { .. }
                        | Message::PubEncrypted { .. }
                        | Message::Signed { .. }
                )
            })
            .collect::<BTreeSet<_>>();
        Material {
            messages: messages.into_iter().collect(),
            ciphertexts: ciphertexts.into_iter().collect(),
            keys: keys.into_iter().collect(),
            names: names.into_iter().collect(),
        }
    }

    /// The trial sends for `actor` holding `held`: every message of the
    /// run; each ciphertext re-wrapped under a key `actor` lacks (for a
    /// signature, a key whose private half it lacks), and with a foreign
    /// from field; each message combined with a secret under a foreign
    /// from field (no run here carries a combined message, so restriction
    /// 4's combined case needs these); and a forwarding of each message.
    fn trials(&self, actor: &Principal, held: &KeySet) -> BTreeSet<Message> {
        let lacked = self.keys.iter().find(|k| !held.contains(*k));
        let lacked = lacked.expect("nobody holds Kunheld").clone();
        let unsignable = self.keys.iter().find(|k| !held.contains(&k.inverse()));
        let unsignable = unsignable.expect("nobody holds Kunheld_inv").clone();
        let foreign = self.names.iter().find(|p| *p != actor);
        let foreign = foreign.expect("every run names the environment and another");
        let mut out: BTreeSet<Message> = self.messages.iter().cloned().collect();
        for c in &self.ciphertexts {
            let (body, key, from) = match c {
                Message::Encrypted { body, key, from }
                | Message::PubEncrypted { body, key, from }
                | Message::Signed { body, key, from } => ((**body).clone(), key.clone(), from),
                _ => continue,
            };
            let (rewrapped, forged) = match c {
                Message::Encrypted { .. } => (
                    Message::encrypted(body.clone(), lacked.clone(), from.clone()),
                    Message::encrypted(body, key, foreign.clone()),
                ),
                Message::PubEncrypted { .. } => (
                    Message::pub_encrypted(body.clone(), lacked.clone(), from.clone()),
                    Message::pub_encrypted(body, key, foreign.clone()),
                ),
                _ => (
                    Message::signed(body.clone(), unsignable.clone(), from.clone()),
                    Message::signed(body, key, foreign.clone()),
                ),
            };
            out.insert(rewrapped);
            out.insert(forged);
        }
        let secret = Message::nonce(Nonce::new("Ysecret"));
        for m in &self.messages {
            out.insert(Message::combined(
                m.clone(),
                secret.clone(),
                foreign.clone(),
            ));
            out.insert(Message::forwarded(m.clone()));
        }
        out
    }
}

/// A send's outcome with the refusal's reason text.
fn outcome(result: Result<&mut RunBuilder, ModelError>) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(ModelError::SendViolation { reason, .. }) => Err(reason),
        Err(e) => Err(format!("not a restriction refusal: {e}")),
    }
}

/// Replays `event` without any check.
fn replay(b: &mut RunBuilder, event: &Event) {
    let actor = event.actor.clone();
    match &event.action {
        Action::Send { message, to } => {
            b.send_unchecked(actor, message.clone(), to.clone());
        }
        Action::Receive { message } => {
            b.receive_unchecked(actor, message.clone());
        }
        Action::NewKey { key } => {
            b.new_key(actor, key.clone());
        }
    }
}

#[test]
fn restriction_checks_agree_with_the_owned_reference() {
    let mut runs = random_runs();
    runs.extend(faulted_runs());
    runs.extend(hand_built_runs());
    runs.extend(trace_runs());
    assert!(runs.len() > 250, "{} runs", runs.len());
    // Per restriction, the builder's refusals and the validator's
    // violations; and how many audited sends break 3 and then 4, the case
    // where the first violation differs from the last.
    let mut refused: BTreeMap<u8, usize> = BTreeMap::new();
    let mut audited: BTreeMap<u8, usize> = BTreeMap::new();
    let (mut accepted, mut combined_refusals, mut double_faults) = (0, 0, 0);
    for (label, run) in &runs {
        let states = snapshot_reference(run);
        let material = Material::of(run);
        let first = run.state(run.start_time()).expect("first state");
        let mut builder = RunBuilder::new(run.start_time());
        for p in first.principals() {
            builder.principal(p.clone(), first.key_set(p).iter().cloned());
            for (key, value) in first.local(p).data() {
                builder.datum(p.clone(), key.clone(), value.clone());
            }
        }
        builder.env_keys(first.env_key_set().iter().cloned());
        // The same prefixes with unchecked trial sends after every event.
        let mut ill = builder.clone();
        let env = Principal::environment();
        let events: Vec<&Event> = run.events().map(|(_, e)| e).collect();
        for (i, state) in states.iter().enumerate() {
            for actor in &material.names {
                let trials = material.trials(actor, &state.local(actor).key_set);
                for (t, m) in trials.iter().enumerate() {
                    let expected = reference_check_send(state, actor, m);
                    let send =
                        |b: &mut RunBuilder| outcome(b.send(actor.clone(), m.clone(), env.clone()));
                    // A refused send leaves the builder as it was, so only
                    // the sends the reference accepts need a clone.
                    let got = match &expected {
                        Ok(()) => send(&mut builder.clone()),
                        Err(_) => send(&mut builder),
                    };
                    assert_eq!(got, expected, "{label}: prefix {i}, {actor} sends {m}");
                    match &expected {
                        Ok(()) => accepted += 1,
                        Err(reason) => {
                            let digit =
                                reason.strip_prefix("restriction ").map(|s| s.as_bytes()[0]);
                            let r = digit.expect("a restriction refusal") - b'0';
                            *refused.entry(r).or_default() += 1;
                            combined_refusals += usize::from(reason.contains("combined"));
                        }
                    }
                    if (t + i) % 7 == 0 {
                        ill.send_unchecked(actor.clone(), m.clone(), env.clone());
                    }
                }
            }
            if let Some(event) = events.get(i) {
                replay(&mut builder, event);
                replay(&mut ill, event);
            }
        }
        // Refused trials left the replayed run untouched.
        assert_eq!(&builder.build().expect("replayed"), run, "{label}");
        let ill = ill.into_run().expect("reaches time 0");
        let violations = validate_run(&ill);
        assert_eq!(violations, reference_validate(&ill), "{label}");
        for v in &violations {
            *audited.entry(v.restriction).or_default() += 1;
        }
        double_faults += violations
            .windows(2)
            .filter(|w| w[0].restriction == 3 && w[1].restriction == 4 && w[0].time == w[1].time)
            .count();
    }
    // Every restriction the walk decides was exercised both ways.
    for r in [3, 4, 5] {
        assert!(refused.get(&r).is_some_and(|&n| n > 0), "no refusal on {r}");
        assert!(
            audited.get(&r).is_some_and(|&n| n > 0),
            "no violation of {r}"
        );
    }
    assert!(accepted > 0 && combined_refusals > 0 && double_faults > 0);
}
