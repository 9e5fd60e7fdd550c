//! The logic-level attack hunt behind `atl hunt` and the daemon's
//! `HUNT` verb.
//!
//! [`atl_model`]'s search engine ([`hunt_plans_on`]) is
//! signature-agnostic: it mutates plans, executes them through the
//! sweep engine, and grows one [`DegradationClass`] per distinct
//! signature string. This module supplies the *logic-level* signature —
//! the belief-survival verdict vector the paper's semantics makes
//! checkable — and the deterministic report the CLI and daemon render:
//!
//! 1. the idealized protocol is enacted and hunted over the pool with a
//!    shared [`ExecutionCache`];
//! 2. each executed plan's run is projected onto the idealized protocol
//!    ([`delivery_mask`]) and its goals re-checked through
//!    [`MaskVerdicts`], once per distinct mask — the signature is the
//!    per-goal survived/lost/unproven vector plus which fault kinds fired
//!    and how many steps were abandoned;
//! 3. the report lists every class in discovery order with its witness
//!    and shrunk minimal plan, byte-identical at every worker count.
//!
//! [`default_space`] derives the mutation bounds from the protocol
//! itself (every mentioned key becomes a compromise candidate), and
//! [`seeds_from_checkpoint`] turns a persisted monitor prefix (PR 9's
//! `MONITOR` sessions) into a starting corpus, so a hunt can pick up
//! from live traffic.

use crate::annotate::{AtProtocol, AtStep};
use crate::enact::{enact_with, EnactOptions};
use crate::parallel::Pool;
use crate::request::PlanFlags;
use crate::sweep::{delivery_mask, MaskVerdicts};
use atl_lang::{Formula, Key, KeyTerm, Message, Principal};
use atl_model::wire::parse_checkpoint;
use atl_model::{
    hunt_plans_on, Action, DegradationClass, ExecOptions, ExecOutcome, ExecutionCache,
    ExpectPolicy, FaultKind, FaultPlan, HuntConfig, HuntOutcome, HuntStore, ModelError, TraceFeed,
};
use std::collections::BTreeSet;
use std::fmt;

/// How to run an attack hunt over an idealized protocol.
#[derive(Clone, Debug)]
pub struct HuntSettings {
    /// The search configuration (seed, budget, batch, mutation space,
    /// seed corpus).
    pub config: HuntConfig,
    /// Execution options shared by every plan.
    pub options: ExecOptions,
    /// The degradation policy attached to every enacted expect step.
    pub expect_policy: ExpectPolicy,
}

impl Default for HuntSettings {
    fn default() -> Self {
        HuntSettings {
            config: HuntConfig::default(),
            options: ExecOptions::default(),
            // `atl inject`'s default: wait 6 rounds, resend twice, then skip.
            expect_policy: PlanFlags::default().policy(),
        }
    }
}

/// The full result of an attack hunt, ready to render.
#[derive(Clone, Debug)]
pub struct HuntReport {
    /// The protocol's name.
    pub protocol: String,
    /// The goals, in spec order (the signature's `goals=` positions).
    pub goals: Vec<Formula>,
    /// Whether the baseline (fault-free) annotation derives each goal.
    pub baseline_flags: Vec<bool>,
    /// The seed and budget the hunt ran with.
    pub seed: u64,
    /// The execution budget the hunt ran with.
    pub budget: usize,
    /// The search outcome: classes, baseline signature, accounting.
    pub outcome: HuntOutcome,
}

impl HuntReport {
    /// The classes whose signature differs from the fault-free
    /// baseline — the distinct attacks found.
    pub fn attacks(&self) -> Vec<&DegradationClass> {
        self.outcome.attacks().collect()
    }
}

impl fmt::Display for HuntReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "attack hunt of {}: seed {}, budget {}",
            self.protocol, self.seed, self.budget
        )?;
        writeln!(f, "  {}", self.outcome.stats)?;
        writeln!(f, "goals (signature positions, left to right):")?;
        for (goal, ok) in self.goals.iter().zip(&self.baseline_flags) {
            writeln!(f, "  [{}] {goal}", if *ok { "ok" } else { "unproven" })?;
        }
        writeln!(f, "baseline signature: {}", self.outcome.baseline)?;
        let attacks = self.attacks().len();
        writeln!(
            f,
            "classes: {} distinct signature(s), {attacks} attack(s)",
            self.outcome.classes.len()
        )?;
        for (i, class) in self.outcome.classes.iter().enumerate() {
            let tag = if class.signature == self.outcome.baseline {
                " (baseline)"
            } else {
                ""
            };
            writeln!(f, "class {}: {}{tag}", i + 1, class.signature)?;
            writeln!(f, "  members: {}", class.members)?;
            writeln!(f, "  witness: {}", class.witness)?;
            writeln!(f, "  minimal: {}", class.minimal)?;
        }
        Ok(())
    }
}

/// Fixed `faults=` positions of the signature, left to right.
const FAULT_POSITIONS: [(FaultKind, char); 6] = [
    (FaultKind::Drop, 'd'),
    (FaultKind::Duplicate, 'u'),
    (FaultKind::Delay, 'y'),
    (FaultKind::Reorder, 'r'),
    (FaultKind::Replay, 'p'),
    (FaultKind::Compromise, 'c'),
];

/// A memoizing belief-survival classifier over `at`: each distinct
/// delivery mask is annotated once ([`MaskVerdicts`]), however many
/// plans resolve to it. The signature is `goals=<S|L|U per goal>
/// faults=<fired kinds> abandoned=<n>` for well-formed runs (S survived,
/// L lost vs. the baseline, U unproven at baseline) and `failed <error
/// class>` when execution stalls or the plan is invalid.
pub struct SignatureClassifier {
    at: AtProtocol,
    baseline_flags: Vec<bool>,
    verdicts: MaskVerdicts,
}

impl SignatureClassifier {
    /// Builds the classifier, running the baseline annotation once.
    pub fn new(at: &AtProtocol) -> Self {
        let mut verdicts = MaskVerdicts::new(at);
        let baseline_flags = verdicts.flags(&verdicts.all_kept()).to_vec();
        SignatureClassifier {
            at: at.clone(),
            baseline_flags,
            verdicts,
        }
    }

    /// Whether the baseline annotation derives each goal, in order.
    pub fn baseline_flags(&self) -> &[bool] {
        &self.baseline_flags
    }

    /// The signature of one executed plan.
    pub fn signature(&mut self, outcome: &ExecOutcome) -> String {
        let (run, report) = match outcome {
            Ok(ok) => ok,
            Err(e) => return format!("failed {}", error_class(e)),
        };
        let flags = self.verdicts.flags(&delivery_mask(&self.at, run));
        let goals: String = self
            .baseline_flags
            .iter()
            .zip(flags.iter())
            .map(|(base, now)| match (base, now) {
                (true, true) => 'S',
                (true, false) => 'L',
                (false, _) => 'U',
            })
            .collect();
        let faults: String = FAULT_POSITIONS
            .iter()
            .map(|(kind, letter)| {
                if report.faults_of(*kind).next().is_some() {
                    *letter
                } else {
                    '-'
                }
            })
            .collect();
        format!(
            "goals={goals} faults={faults} abandoned={}",
            report.abandoned.len()
        )
    }
}

/// The stable error class of a failed execution (the signature must not
/// embed message text, which varies with the faulted interleaving).
fn error_class(e: &ModelError) -> String {
    match e {
        ModelError::Stalled { principal, .. } => format!("stalled {principal}"),
        ModelError::Fault(_) => "invalid-plan".to_string(),
        other => {
            let text = other.to_string();
            text.split_whitespace()
                .next()
                .unwrap_or("error")
                .to_string()
        }
    }
}

/// Every key mentioned anywhere in the protocol's steps, in sorted
/// order — the compromise candidates of [`default_space`].
pub fn protocol_keys(at: &AtProtocol) -> Vec<Key> {
    let mut keys = BTreeSet::new();
    for step in &at.steps {
        match step {
            AtStep::Send { message, .. } => message_keys(message, &mut keys),
            AtStep::NewKey { key, .. } => {
                keys.insert(key.clone());
            }
        }
    }
    keys.into_iter().collect()
}

fn key_term(t: &KeyTerm, out: &mut BTreeSet<Key>) {
    if let KeyTerm::Key(k) = t {
        out.insert(k.clone());
    }
}

fn message_keys(m: &Message, out: &mut BTreeSet<Key>) {
    match m {
        Message::Key(k) => {
            out.insert(k.clone());
        }
        Message::Formula(f) => formula_keys(f, out),
        Message::Tuple(items) => items.iter().for_each(|i| message_keys(i, out)),
        Message::Encrypted { body, key, .. }
        | Message::Signed { body, key, .. }
        | Message::PubEncrypted { body, key, .. } => {
            key_term(key, out);
            message_keys(body, out);
        }
        Message::Combined { body, secret, .. } => {
            message_keys(body, out);
            message_keys(secret, out);
        }
        Message::Forwarded(body) => message_keys(body, out),
        _ => {}
    }
}

fn formula_keys(f: &Formula, out: &mut BTreeSet<Key>) {
    match f {
        Formula::Prop(_) | Formula::True => {}
        Formula::Not(g) => formula_keys(g, out),
        Formula::And(a, b) => {
            formula_keys(a, out);
            formula_keys(b, out);
        }
        Formula::Believes(_, g) | Formula::Controls(_, g) => formula_keys(g, out),
        Formula::Sees(_, m) | Formula::Said(_, m) | Formula::Says(_, m) | Formula::Fresh(m) => {
            message_keys(m, out)
        }
        Formula::SharedSecret(_, m, _) => message_keys(m, out),
        Formula::SharedKey(_, t, _) | Formula::Has(_, t) | Formula::PublicKey(t, _) => {
            key_term(t, out)
        }
    }
}

/// The default mutation space for `at`: the standard five-point
/// probability palette and seed pair, plus one compromise candidate per
/// protocol key at each of the early times 0 and 2 (the epoch boundary
/// and the mid-protocol point the committed attack fixtures use).
pub fn default_space(at: &AtProtocol) -> atl_model::MutationSpace {
    let mut space = atl_model::MutationSpace::new();
    for key in protocol_keys(at) {
        for t in [0i64, 2] {
            space = space.candidate(key.clone(), t);
        }
    }
    space
}

/// Reconstructs a seed corpus from a persisted monitor checkpoint: the
/// live run prefix is rebuilt by replay, every key some principal
/// acquired mid-run becomes a compromise plan at its acquisition time,
/// and adversarial environment traffic adds a certain-replay plan.
///
/// # Errors
///
/// A rendered diagnostic if the checkpoint or its recorded trace lines
/// do not parse, or the prefix builds no run.
pub fn seeds_from_checkpoint(text: &str) -> Result<Vec<FaultPlan>, String> {
    let checkpoint = parse_checkpoint(text).map_err(|e| format!("bad checkpoint: {e}"))?;
    let mut feed = TraceFeed::new();
    for line in &checkpoint.lines {
        feed.feed(line)
            .map_err(|e| format!("bad checkpoint line: {}", e.diagnostic("checkpoint")))?;
    }
    let Some(run) = feed.try_build() else {
        return Err("checkpoint holds no buildable run prefix".to_string());
    };
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut compromises: BTreeSet<(Key, i64)> = BTreeSet::new();
    let mut env_sent = false;
    for (time, event) in run.events() {
        if let Action::NewKey { key } = &event.action {
            compromises.insert((key.clone(), time));
        }
        if event.actor == Principal::environment() && matches!(event.action, Action::Send { .. }) {
            env_sent = true;
        }
    }
    for (key, time) in compromises {
        plans.push(FaultPlan::new(0).compromise(key.clone(), time));
        if env_sent {
            plans.push(FaultPlan::new(0).compromise(key, time).replay(1.0));
        }
    }
    if env_sent {
        plans.push(FaultPlan::new(0).replay(1.0));
    }
    Ok(plans)
}

/// Runs the full enact → search → belief-survival pipeline over `pool`,
/// persisting and resuming discoveries through `store` when given. The
/// report renders byte-identically at every worker count.
pub fn hunt_report(
    at: &AtProtocol,
    settings: &HuntSettings,
    pool: &Pool,
    cache: &ExecutionCache,
    store: Option<&HuntStore>,
) -> HuntReport {
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: settings.expect_policy,
        },
    );
    let mut classifier = SignatureClassifier::new(at);
    let outcome = hunt_plans_on(
        &proto,
        &settings.options,
        &settings.config,
        pool,
        cache,
        store,
        |_, exec| classifier.signature(exec),
    );
    HuntReport {
        protocol: at.name.clone(),
        goals: at.goals.clone(),
        baseline_flags: classifier.baseline_flags().to_vec(),
        seed: settings.config.seed,
        budget: settings.config.budget,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;
    use atl_model::MutationSpace;

    /// Figure 1 (Kerberos fragment), as in the sweep tests.
    fn figure1() -> AtProtocol {
        let kab = Formula::shared_key("A", Key::new("Kab"), "B");
        let ts = Message::nonce(Nonce::new("Ts"));
        let inner = Message::encrypted(
            Message::tuple([ts.clone(), kab.clone().into_message()]),
            Key::new("Kbs"),
            "S",
        );
        let outer = Message::encrypted(
            Message::tuple([ts, kab.clone().into_message(), inner.clone()]),
            Key::new("Kas"),
            "S",
        );
        AtProtocol::new("kerberos-hunt")
            .assume(Formula::has("A", Key::new("Kas")))
            .assume(Formula::has("B", Key::new("Kbs")))
            .assume(Formula::believes(
                "A",
                Formula::shared_key("A", Key::new("Kas"), "S"),
            ))
            .step("S", "A", outer)
            .step("A", "B", inner)
            .goal(Formula::sees("B", kab.into_message()))
    }

    fn settings() -> HuntSettings {
        HuntSettings {
            config: HuntConfig {
                seed: 7,
                budget: 48,
                batch: 8,
                space: default_space(&figure1()).prob_steps([0.0, 0.5, 1.0]),
                seed_plans: Vec::new(),
            },
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::skip_after(3),
        }
    }

    #[test]
    fn protocol_keys_walks_nested_messages() {
        let keys = protocol_keys(&figure1());
        let names: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["Kab", "Kas", "Kbs"]);
    }

    #[test]
    fn hunt_finds_the_drop_attack_and_renders_deterministically() {
        let reference = hunt_report(
            &figure1(),
            &settings(),
            &Pool::sequential(),
            &ExecutionCache::new(),
            None,
        );
        // A certain drop starves B of the ticket: at least one class
        // must lose the baseline belief.
        assert!(
            reference
                .attacks()
                .iter()
                .any(|c| c.signature.contains('L')),
            "{reference}"
        );
        for jobs in [2, 4] {
            let report = hunt_report(
                &figure1(),
                &settings(),
                &Pool::new(jobs),
                &ExecutionCache::new(),
                None,
            );
            assert_eq!(report.to_string(), reference.to_string(), "jobs={jobs}");
        }
    }

    #[test]
    fn signature_distinguishes_baseline_from_total_loss() {
        let at = figure1();
        let mut classifier = SignatureClassifier::new(&at);
        let proto = enact_with(
            &at,
            EnactOptions {
                expect_policy: ExpectPolicy::skip_after(3),
            },
        );
        let clean = atl_model::execute_with_report(&proto, &ExecOptions::default());
        let lossy = atl_model::execute_with_faults(
            &proto,
            &ExecOptions::default(),
            &FaultPlan::new(0).drop(1.0),
        );
        let clean_sig = classifier.signature(&clean);
        let lossy_sig = classifier.signature(&lossy);
        assert_ne!(clean_sig, lossy_sig);
        assert!(clean_sig.starts_with("goals=S"), "{clean_sig}");
        assert!(lossy_sig.starts_with("goals=L"), "{lossy_sig}");
    }

    #[test]
    fn default_space_offers_each_key_as_candidate() {
        let space = default_space(&figure1());
        assert_eq!(space.compromise_candidates.len(), 6);
        assert!(space
            .compromise_candidates
            .iter()
            .any(|(k, t)| k.to_string() == "Kab" && *t == 2));
        // And the derived exhaustive grid carries the same choices.
        let grid = space.grid();
        assert_eq!(grid.compromise_choices.len(), 7);
        let _ = MutationSpace::new();
    }
}
