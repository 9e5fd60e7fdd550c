//! The soundness model-checker (Theorem 1).
//!
//! Theorem 1 states that the axiomatization of Section 4.2 is sound for
//! the semantics of Section 6. This module checks it mechanically: every
//! axiom schema is instantiated over pools of principals, keys, and
//! messages drawn from a system, and every instance is evaluated at every
//! point. [`check_axioms`] returns a report with instance counts and any
//! counterexamples (there are none on well-formed systems — that is the
//! theorem).
//!
//! One subtlety surfaced by mechanization: A5's side condition `P ≠ S`
//! identifies the sender through the from field, which restriction 4
//! guarantees honest for *system* principals only. When the shared-key
//! formula names the environment as `P` **and** the environment forges
//! from fields on ciphertext it constructs, A5 has counterexamples (see
//! `a5_needs_from_honesty` below). On from-honest runs — which the random
//! generator produces, and which the paper implicitly assumes — the schema
//! is sound.

use crate::axioms::{self, AxiomName};
use crate::semantics::{GoodRuns, Semantics, SemanticsError};
use atl_lang::{Formula, Key, KeyTerm, Message, Nonce, Principal};
use atl_model::{Point, System};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Instantiation pools and caps for the model checker.
#[derive(Clone, Debug)]
pub struct SoundnessConfig {
    /// Maximum messages drawn into the instantiation pool.
    pub max_messages: usize,
    /// Maximum formulas drawn into the instantiation pool.
    pub max_formulas: usize,
    /// Cap on instances checked per axiom schema.
    pub max_instances_per_axiom: usize,
}

impl Default for SoundnessConfig {
    fn default() -> Self {
        SoundnessConfig {
            max_messages: 8,
            max_formulas: 6,
            max_instances_per_axiom: 400,
        }
    }
}

/// A falsified instance: which schema, the concrete formula, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The schema violated.
    pub axiom: AxiomName,
    /// The falsified instance.
    pub instance: Formula,
    /// The point at which it is false.
    pub point: Point,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} falsified at (run {}, time {}): {}",
            self.axiom, self.point.run, self.point.time, self.instance
        )
    }
}

/// The outcome of a soundness check.
#[derive(Clone, Debug, Default)]
pub struct SoundnessReport {
    /// Instances checked per schema.
    pub instances: BTreeMap<AxiomName, usize>,
    /// All falsified instances found.
    pub counterexamples: Vec<Counterexample>,
}

impl SoundnessReport {
    /// True if no instance was falsified.
    pub fn sound(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Total instances checked across schemas.
    pub fn total_instances(&self) -> usize {
        self.instances.values().sum()
    }
}

impl fmt::Display for SoundnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soundness: {} instances across {} schemas, {} counterexample(s)",
            self.total_instances(),
            self.instances.len(),
            self.counterexamples.len()
        )?;
        for (name, n) in &self.instances {
            writeln!(f, "  {name:10} {n:6} instances — {}", name.description())?;
        }
        for ce in &self.counterexamples {
            writeln!(f, "  !! {ce}")?;
        }
        Ok(())
    }
}

/// The instantiation pools extracted from a system.
#[derive(Clone, Debug)]
pub struct Pools {
    /// Principals (system principals plus the environment).
    pub principals: Vec<Principal>,
    /// Keys occurring in key sets or messages.
    pub keys: Vec<Key>,
    /// Messages: sent submessages plus a few synthetics, smallest first.
    pub messages: Vec<Message>,
    /// Formulas: atomic facts over the other pools.
    pub formulas: Vec<Formula>,
}

impl Pools {
    /// Extracts pools from `system`, bounded by `config`.
    pub fn from_system(system: &System, config: &SoundnessConfig) -> Self {
        let mut principals: BTreeSet<Principal> = system.principals();
        principals.insert(Principal::environment());
        let principals: Vec<Principal> = principals.into_iter().collect();

        let mut keys: BTreeSet<Key> = BTreeSet::new();
        let mut messages: BTreeSet<Message> = BTreeSet::new();
        for run in system.runs() {
            for rec in run.send_records() {
                keys.extend(rec.message.keys());
                keys.extend(rec.context().key_set().iter().cloned());
                messages.extend(atl_lang::submsgs(rec.message));
            }
            if let Some(s0) = run.state(run.start_time()) {
                for p in s0.principals() {
                    keys.extend(s0.key_set(p).iter().cloned());
                }
            }
        }
        if keys.is_empty() {
            keys.insert(Key::new("Kpool"));
        }
        messages.insert(Message::nonce(Nonce::new("Zfresh")));
        let mut messages: Vec<Message> = messages.into_iter().collect();
        messages.sort_by_key(Message::size);
        messages.truncate(config.max_messages);
        let keys: Vec<Key> = keys.into_iter().collect();

        let mut formulas: Vec<Formula> = Vec::new();
        if let (Some(p), Some(q)) = (principals.first(), principals.last()) {
            if let Some(k) = keys.first() {
                formulas.push(Formula::shared_key(p.clone(), k.clone(), q.clone()));
                formulas.push(Formula::has(p.clone(), k.clone()));
            }
            if let Some(m) = messages.first() {
                formulas.push(Formula::sees(p.clone(), m.clone()));
                formulas.push(Formula::said(q.clone(), m.clone()));
                formulas.push(Formula::fresh(m.clone()));
            }
            formulas.push(Formula::True);
            if let Some(k) = keys.last() {
                formulas.push(Formula::not(Formula::has(q.clone(), k.clone())));
            }
        }
        formulas.truncate(config.max_formulas);

        Pools {
            principals,
            keys,
            messages,
            formulas,
        }
    }
}

/// Enumerates instances of one axiom schema over the pools, up to `cap`.
pub fn instances_of(name: AxiomName, pools: &Pools, cap: usize) -> Vec<Formula> {
    let mut out: Vec<Formula> = Vec::new();
    let ps = &pools.principals;
    let ks: Vec<KeyTerm> = pools.keys.iter().cloned().map(KeyTerm::Key).collect();
    let ms = &pools.messages;
    let fs = &pools.formulas;
    let full = &mut |f: Formula, out: &mut Vec<Formula>| -> bool {
        out.push(f);
        out.len() >= cap
    };
    match name {
        AxiomName::A1 => {
            'outer: for p in ps {
                for phi in fs {
                    for psi in fs {
                        if full(axioms::a1(p, phi, psi), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A2 => {
            'outer: for p in ps {
                for phi in fs {
                    if full(axioms::a2(p, phi), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A3 => {
            'outer: for p in ps {
                for phi in fs {
                    if full(axioms::a3(p, phi), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A4 => {
            'outer: for p in ps {
                for phi in fs {
                    for psi in fs {
                        if full(axioms::a4(p, phi, psi), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A5 => {
            'outer: for p in ps {
                for q in ps {
                    for r in ps {
                        for s in ps {
                            for k in &ks {
                                for x in ms {
                                    if let Some(f) = axioms::a5(p, k, q, r, x, s) {
                                        if full(f, &mut out) {
                                            break 'outer;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A6 => {
            'outer: for p in ps {
                for q in ps {
                    for r in ps {
                        for s in ps {
                            for y in ms.iter().take(3) {
                                for x in ms.iter().take(3) {
                                    if let Some(f) = axioms::a6(p, y, q, r, x, s) {
                                        if full(f, &mut out) {
                                            break 'outer;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A7 => {
            'outer: for p in ps {
                for a in ms.iter().take(4) {
                    for b in ms.iter().take(4) {
                        let items = [a.clone(), b.clone()];
                        for i in 0..2 {
                            if full(axioms::a7(p, &items, i), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A8 => {
            'outer: for p in ps {
                for q in ps {
                    for k in &ks {
                        for x in ms {
                            if full(axioms::a8(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A9 => {
            'outer: for p in ps {
                for q in ps {
                    for y in ms.iter().take(3) {
                        for x in ms.iter().take(3) {
                            if full(axioms::a9(p, x, q, y), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A10 => {
            'outer: for p in ps {
                for x in ms {
                    if full(axioms::a10(p, x), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A11 => {
            'outer: for p in ps {
                for q in ps {
                    for k in &ks {
                        for x in ms {
                            if full(axioms::a11(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A12 | AxiomName::A12Says => {
            let says = name == AxiomName::A12Says;
            'outer: for p in ps {
                for a in ms.iter().take(4) {
                    for b in ms.iter().take(4) {
                        let items = [a.clone(), b.clone()];
                        for i in 0..2 {
                            if full(axioms::a12(p, &items, i, says), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A13 | AxiomName::A13Says => {
            let says = name == AxiomName::A13Says;
            'outer: for p in ps {
                for q in ps {
                    for y in ms.iter().take(3) {
                        for x in ms.iter().take(3) {
                            if full(axioms::a13(p, x, q, y, says), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A14 | AxiomName::A14Says => {
            let says = name == AxiomName::A14Says;
            'outer: for p in ps {
                for x in ms {
                    if full(axioms::a14(p, x, says), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A15 => {
            'outer: for p in ps {
                for phi in fs {
                    if full(axioms::a15(p, phi), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A16 => {
            'outer: for a in ms.iter().take(5) {
                for b in ms.iter().take(5) {
                    let items = [a.clone(), b.clone()];
                    for i in 0..2 {
                        if full(axioms::a16(&items, i), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A17 => {
            'outer: for q in ps {
                for k in &ks {
                    for x in ms {
                        if full(axioms::a17(x, q, k), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A18 => {
            'outer: for q in ps {
                for y in ms.iter().take(3) {
                    for x in ms.iter().take(3) {
                        if full(axioms::a18(x, q, y), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A19 => {
            for x in ms {
                if full(axioms::a19(x), &mut out) {
                    break;
                }
            }
        }
        AxiomName::A20 => {
            'outer: for p in ps {
                for x in ms {
                    if full(axioms::a20(p, x), &mut out) {
                        break 'outer;
                    }
                }
            }
        }
        AxiomName::A21Key => {
            'outer: for p in ps {
                for q in ps {
                    for k in &ks {
                        if full(axioms::a21_key(p, k, q), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A21Secret => {
            'outer: for p in ps {
                for q in ps {
                    for y in ms.iter().take(4) {
                        if full(axioms::a21_secret(p, y, q), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A22SigMeaning => {
            'outer: for q in ps {
                for r in ps {
                    for s in ps {
                        for k in &ks {
                            for x in ms.iter().take(4) {
                                if full(axioms::a22(k, q, r, x, s), &mut out) {
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A23SeesSigned => {
            'outer: for p in ps {
                for q in ps {
                    for k in &ks {
                        for x in ms {
                            if full(axioms::a23(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A24SeesPubEnc => {
            'outer: for p in ps {
                for q in ps {
                    for k in pools.keys.iter() {
                        for x in ms {
                            if full(axioms::a24(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A25FreshSigned => {
            'outer: for q in ps {
                for k in &ks {
                    for x in ms {
                        if full(axioms::a25(x, q, k), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A26FreshPubEnc => {
            'outer: for q in ps {
                for k in &ks {
                    for x in ms {
                        if full(axioms::a26(x, q, k), &mut out) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        AxiomName::A27BelievesSeesSigned => {
            'outer: for p in ps {
                for q in ps {
                    for k in &ks {
                        for x in ms {
                            if full(axioms::a27(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        AxiomName::A28BelievesSeesPubEnc => {
            'outer: for p in ps {
                for q in ps {
                    for k in pools.keys.iter() {
                        for x in ms {
                            if full(axioms::a28(p, x, q, k), &mut out) {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Checks every axiom schema over `system` relative to `goods`.
///
/// # Errors
///
/// Propagates evaluation errors (none occur for ground pools).
pub fn check_axioms(
    system: &System,
    goods: GoodRuns,
    config: &SoundnessConfig,
) -> Result<SoundnessReport, SemanticsError> {
    let pools = Pools::from_system(system, config);
    let sem = Semantics::new(system, goods);
    let mut report = SoundnessReport::default();
    for name in AxiomName::ALL {
        let instances = instances_of(name, &pools, config.max_instances_per_axiom);
        report.instances.insert(name, instances.len());
        for instance in instances {
            for point in system.points() {
                if !sem.eval(point, &instance)? {
                    report.counterexamples.push(Counterexample {
                        axiom: name,
                        instance: instance.clone(),
                        point,
                    });
                    break; // one point per instance suffices
                }
            }
        }
    }
    Ok(report)
}

/// The paper's incompleteness example (Section 6): a valid formula that
/// does not appear derivable from A1–A21:
///
/// `P controls (P has K) ∧ P says (P has K, {X^P}_K) ⊃ P says X`.
pub fn incompleteness_example(p: &Principal, k: &Key, x: &Message) -> Formula {
    let has = Formula::has(p.clone(), k.clone());
    let tuple = Message::tuple([
        has.clone().into_message(),
        Message::encrypted(x.clone(), k.clone(), p.clone()),
    ]);
    Formula::implies(
        Formula::and(
            Formula::controls(p.clone(), has),
            Formula::says(p.clone(), tuple),
        ),
        Formula::says(p.clone(), x.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_model::{random_system, GenConfig, RunBuilder};

    #[test]
    fn axioms_sound_on_random_adversarial_systems() {
        let config = SoundnessConfig {
            max_instances_per_axiom: 60,
            ..SoundnessConfig::default()
        };
        for seed in 0..3 {
            let sys = random_system(&GenConfig::default(), 3, seed);
            let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config).unwrap();
            assert!(report.sound(), "seed {seed}: {}", report);
            assert!(report.total_instances() > 0);
        }
    }

    #[test]
    fn report_display_lists_schemas() {
        let sys = random_system(&GenConfig::default(), 1, 5);
        let config = SoundnessConfig {
            max_instances_per_axiom: 5,
            ..SoundnessConfig::default()
        };
        let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config).unwrap();
        let text = report.to_string();
        assert!(text.contains("A20"));
        assert!(text.contains("message meaning"));
    }

    #[test]
    fn a5_needs_from_honesty() {
        // The documented subtlety: the environment guesses K, constructs
        // ciphertext with a forged from field A, and sends it. The
        // shared-key formula naming the environment itself as one end is
        // then true, yet the A5 instance concluding "B said X" is false.
        let env = Principal::environment();
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.env_keys([Key::new("K")]);
        let x = Message::nonce(Nonce::new("X"));
        let forged = Message::encrypted(x.clone(), Key::new("K"), Principal::new("A"));
        b.send(env.clone(), forged.clone(), "B").unwrap();
        b.receive("B", &forged).unwrap();
        let sys = atl_model::System::new([b.build().unwrap()]);
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let end = Point::new(0, 2);
        // Env–K–B is a good key by the semantic definition (only the
        // environment encrypts with K)…
        let sk = Formula::shared_key(env.clone(), Key::new("K"), "B");
        assert!(sem.eval(end, &sk).unwrap());
        // …and B sees the ciphertext, whose (forged) from field is A ≠ Env.
        let instance = axioms::a5(
            &env,
            &KeyTerm::Key(Key::new("K")),
            &Principal::new("B"),
            &Principal::new("B"),
            &x,
            &Principal::new("A"),
        )
        .unwrap();
        assert!(
            !sem.eval(end, &instance).unwrap(),
            "A5 falsified as expected"
        );
    }

    #[test]
    fn incompleteness_example_is_valid_on_random_systems() {
        let p = Principal::new("A");
        let k = Key::new("Kas");
        let x = Message::nonce(Nonce::new("Na"));
        let f = incompleteness_example(&p, &k, &x);
        for seed in 0..4 {
            let sys = random_system(&GenConfig::default(), 3, seed);
            let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
            assert!(sem.valid(&f).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn pools_are_nonempty_even_for_quiet_systems() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.new_key("A", "K");
        let sys = atl_model::System::new([b.build().unwrap()]);
        let pools = Pools::from_system(&sys, &SoundnessConfig::default());
        assert!(!pools.principals.is_empty());
        assert!(!pools.keys.is_empty());
        assert!(!pools.messages.is_empty());
        assert!(!pools.formulas.is_empty());
    }
}
