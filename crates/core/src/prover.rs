//! A derivation engine for the reformulated logic, and the annotation
//! procedure of Section 4.3.
//!
//! Protocol analyses do not build raw Hilbert proofs; they close an
//! assertion set under *derived rules*, each justified by the axioms of
//! Section 4.2 together with R1/R2 (every axiom is believed by every
//! principal, so a rule valid at top level applies inside any belief
//! context — that is A1 + necessitation). The engine therefore works on
//! facts grouped by their *belief prefix*.
//!
//! Two optional rules go beyond the axioms but are validated against the
//! semantics (they are instances of the incompleteness the paper notes):
//!
//! - **sees-promotion**: `P sees X ⊢ P believes (P sees X)` when every
//!   ciphertext in `X` is under a key `P` has — `X` then survives `hide`
//!   unchanged, so the receive event is visible in every possible point.
//!   (A11 is the special case of an outermost decryptable ciphertext.)
//! - **has-promotion**: `P has K ⊢ P believes (P has K)` — key sets are
//!   part of the local state and preserved by `hide`.
//!
//! Both are enabled by default and can be disabled with
//! [`ProverConfig::axioms_only`].

use crate::budget::{Budget, BudgetMeter, Saturation, Verdict};
use crate::parallel::Pool;
use atl_lang::{Formula, KeyTerm, Message, Principal};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Names of the derived rules (with their justifying axioms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DerivedRule {
    /// A seeded fact (assumption or annotation).
    Given,
    /// Conjunction elimination (tautology + A1 under beliefs).
    AndSplit,
    /// Conjunction introduction within a context (A4), applied on demand
    /// during goal checking.
    AndIntro,
    /// A5: message meaning for keys.
    MessageMeaningKey,
    /// A6: message meaning for secrets.
    MessageMeaningSecret,
    /// A7: seeing tuple components.
    SeesTuple,
    /// A8: seeing through held keys.
    SeesDecrypt,
    /// A9: seeing combined bodies.
    SeesCombined,
    /// A10: seeing forwarded bodies.
    SeesForwarded,
    /// A11: believing one sees decryptable ciphertext.
    BelievesSeesCipher,
    /// A12 (and its `says` analogue): saying tuple components.
    SaidTuple,
    /// A13 (and its `says` analogue): saying combined bodies.
    SaidCombined,
    /// A15: jurisdiction.
    Jurisdiction,
    /// A16: fresh component makes the tuple fresh.
    FreshTuple,
    /// A17: fresh body makes the encryption fresh.
    FreshEncrypted,
    /// A18: fresh body makes the combination fresh.
    FreshCombined,
    /// A19: fresh body makes the forward fresh.
    FreshForwarded,
    /// A20: fresh sayings are recent (nonce verification).
    NonceVerification,
    /// A21: shared keys/secrets are directionless.
    Symmetry,
    /// A22 (public-key extension): signature message meaning.
    SignatureMeaning,
    /// A23 (public-key extension): seeing signed contents.
    SeesSigned,
    /// A24 (public-key extension): seeing public-key ciphertext contents.
    SeesPubEnc,
    /// A25 (public-key extension): fresh body makes the signature fresh.
    FreshSigned,
    /// A26 (public-key extension): fresh body makes the encryption fresh.
    FreshPubEnc,
    /// A27 (public-key extension): believing one sees signatures.
    BelievesSeesSigned,
    /// A28 (public-key extension): believing one sees pk-ciphertext.
    BelievesSeesPubEnc,
    /// Semantically validated: fully-readable seen messages are believed
    /// seen.
    SeesPromotion,
    /// Semantically validated: held keys are believed held.
    HasPromotion,
}

impl fmt::Display for DerivedRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DerivedRule::Given => "given",
            DerivedRule::AndSplit => "and-split",
            DerivedRule::AndIntro => "and-intro (A4)",
            DerivedRule::MessageMeaningKey => "message-meaning key (A5)",
            DerivedRule::MessageMeaningSecret => "message-meaning secret (A6)",
            DerivedRule::SeesTuple => "sees tuple (A7)",
            DerivedRule::SeesDecrypt => "sees decrypt (A8)",
            DerivedRule::SeesCombined => "sees combined (A9)",
            DerivedRule::SeesForwarded => "sees forwarded (A10)",
            DerivedRule::BelievesSeesCipher => "believes-sees cipher (A11)",
            DerivedRule::SaidTuple => "said tuple (A12)",
            DerivedRule::SaidCombined => "said combined (A13)",
            DerivedRule::Jurisdiction => "jurisdiction (A15)",
            DerivedRule::FreshTuple => "fresh tuple (A16)",
            DerivedRule::FreshEncrypted => "fresh encrypted (A17)",
            DerivedRule::FreshCombined => "fresh combined (A18)",
            DerivedRule::FreshForwarded => "fresh forwarded (A19)",
            DerivedRule::NonceVerification => "nonce-verification (A20)",
            DerivedRule::Symmetry => "symmetry (A21)",
            DerivedRule::SignatureMeaning => "signature meaning (A22)",
            DerivedRule::SeesSigned => "sees signed (A23)",
            DerivedRule::SeesPubEnc => "sees pk-encrypted (A24)",
            DerivedRule::FreshSigned => "fresh signed (A25)",
            DerivedRule::FreshPubEnc => "fresh pk-encrypted (A26)",
            DerivedRule::BelievesSeesSigned => "believes-sees signed (A27)",
            DerivedRule::BelievesSeesPubEnc => "believes-sees pk-encrypted (A28)",
            DerivedRule::SeesPromotion => "sees-promotion (semantic)",
            DerivedRule::HasPromotion => "has-promotion (semantic)",
        };
        f.write_str(s)
    }
}

/// One recorded derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The derived fact.
    pub conclusion: Formula,
    /// The rule applied.
    pub rule: DerivedRule,
    /// The facts it came from.
    pub premises: Vec<Formula>,
}

/// Prover options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProverConfig {
    /// If true, disable the two semantically-validated promotion rules and
    /// use only rules derivable from A1–A21 + R1/R2.
    pub axioms_only: bool,
    /// Use the indexed worklist saturation (the default): each rule fires
    /// only when one of its triggers — a new fact of the matching kind in
    /// the matching belief context, or a new universe message — arrives.
    /// When false, fall back to the rescan-everything fixpoint that
    /// re-fires every rule on every fact each pass; it computes the same
    /// closure and is kept as an ablation baseline and cross-check.
    pub use_worklist: bool,
    /// Cap on saturation passes of the rescan path (`use_worklist: false`);
    /// a safety net — protocols converge in a handful. The worklist path
    /// has no passes and runs to its fixpoint (or budget).
    pub max_passes: usize,
    /// Cap on the belief-prefix depth that the promotion rules (A11,
    /// sees-promotion, has-promotion) may create — without it, repeated
    /// introspection would generate `P believes P believes …` forever.
    pub max_belief_depth: usize,
    /// Resource budget for [`Prover::saturate`]. When it runs out,
    /// saturation stops early (keeping everything derived so far) and
    /// reports [`Saturation::BudgetExhausted`]; [`Prover::verdict`] then
    /// answers [`Verdict::Unknown`] for underivable goals instead of
    /// refuting them.
    pub budget: Budget,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            axioms_only: false,
            use_worklist: true,
            max_passes: 64,
            max_belief_depth: 3,
            budget: Budget::unlimited(),
        }
    }
}

/// The derivation engine.
///
/// # Examples
///
/// B's half of Figure 1 in the reformulated logic (note the explicit
/// `B has Kbs` — the decoupling of possession from belief that Section 3.1
/// motivates):
///
/// ```
/// use atl_core::prover::Prover;
/// use atl_lang::{Formula, Key, Message, Nonce};
/// let kab = Formula::shared_key("A", Key::new("Kab"), "B");
/// let msg = Message::encrypted(
///     Message::tuple([
///         Message::nonce(Nonce::new("Ts")),
///         kab.clone().into_message(),
///     ]),
///     Key::new("Kbs"),
///     "S",
/// );
/// let mut prover = Prover::new([
///     Formula::believes("B", Formula::shared_key("B", Key::new("Kbs"), "S")),
///     Formula::believes("B", Formula::fresh(Message::nonce(Nonce::new("Ts")))),
///     Formula::believes("B", Formula::controls("S", kab.clone())),
///     Formula::has("B", Key::new("Kbs")),
///     Formula::sees("B", msg),
/// ]);
/// prover.saturate();
/// assert!(prover.holds(&Formula::believes("B", kab)));
/// ```
#[derive(Clone, Debug)]
pub struct Prover {
    facts: BTreeSet<Formula>,
    trace: Vec<Step>,
    config: ProverConfig,
    meter: BudgetMeter,
    /// True iff `facts` is the closure a completed saturation reached and
    /// nothing was assumed since — the precondition for
    /// [`saturate_delta`](Self::saturate_delta) to skip re-firing it.
    saturated: bool,
    /// The worklist indexes as a completed saturation left them (every
    /// current fact indexed), cached so the next
    /// [`saturate_delta`](Self::saturate_delta) — including on a clone of
    /// this prover — starts from them instead of re-indexing the whole
    /// closure, which otherwise dominates an incremental re-analysis.
    /// `None` whenever the cache could be stale (facts assumed since, a
    /// saturation cut short, or a prover rebuilt from bare facts).
    idx: Option<Indexes>,
}

/// Splits off the belief prefix of a formula.
fn strip(f: &Formula) -> (Vec<Principal>, &Formula) {
    let mut chain = Vec::new();
    let mut cur = f;
    while let Formula::Believes(p, inner) = cur {
        chain.push(p.clone());
        cur = inner;
    }
    (chain, cur)
}

/// Rewraps a body in a belief prefix.
fn wrap(prefix: &[Principal], body: Formula) -> Formula {
    prefix
        .iter()
        .rev()
        .fold(body, |acc, p| Formula::believes(p.clone(), acc))
}

impl Prover {
    /// Creates a prover seeded with facts.
    pub fn new(facts: impl IntoIterator<Item = Formula>) -> Self {
        Prover::with_config(facts, ProverConfig::default())
    }

    /// Creates a prover with explicit options.
    pub fn with_config(facts: impl IntoIterator<Item = Formula>, config: ProverConfig) -> Self {
        let mut prover = Prover {
            facts: BTreeSet::new(),
            trace: Vec::new(),
            config,
            meter: BudgetMeter::start(Budget::unlimited()),
            saturated: false,
            idx: None,
        };
        for f in facts {
            prover.add(f, DerivedRule::Given, Vec::new());
        }
        prover
    }

    /// Adds a fact (e.g. an annotation `Q sees X` after a step).
    pub fn assume(&mut self, f: Formula) {
        if self.add(f, DerivedRule::Given, Vec::new()) {
            self.saturated = false;
            self.idx = None;
        }
    }

    /// The current fact set.
    pub fn facts(&self) -> &BTreeSet<Formula> {
        &self.facts
    }

    /// The derivation trace.
    pub fn trace(&self) -> &[Step] {
        &self.trace
    }

    /// The step that concluded `f`, if derived.
    pub fn derivation_of(&self, f: &Formula) -> Option<&Step> {
        self.trace.iter().find(|s| &s.conclusion == f)
    }

    fn add(&mut self, f: Formula, rule: DerivedRule, premises: Vec<Formula>) -> bool {
        // Seeding (`Given`) is free; every rule application during
        // saturation charges the budget, whether or not it is novel.
        if rule != DerivedRule::Given && !self.meter.charge(self.facts.len()) {
            return false;
        }
        if self.facts.insert(f.clone()) {
            self.trace.push(Step {
                conclusion: f,
                rule,
                premises,
            });
            true
        } else {
            false
        }
    }

    /// True if `goal` is derivable, decomposing conjunctions (A4 /
    /// and-intro applied on demand) at any belief depth.
    pub fn holds(&self, goal: &Formula) -> bool {
        if self.facts.contains(goal) {
            return true;
        }
        let (prefix, body) = strip(goal);
        if let Formula::And(a, b) = body {
            return self.holds(&wrap(&prefix, (**a).clone()))
                && self.holds(&wrap(&prefix, (**b).clone()));
        }
        false
    }

    /// Saturates to a fixpoint — or until the configured budget runs out.
    ///
    /// Facts derived before exhaustion are always kept; resaturating
    /// (e.g. with a larger budget via [`saturate_with`](Self::saturate_with))
    /// resumes from them.
    pub fn saturate(&mut self) -> Saturation {
        self.saturate_with(self.config.budget)
    }

    /// As [`saturate`](Self::saturate), but against an explicit budget
    /// (overriding the configured one for this call only).
    pub fn saturate_with(&mut self, budget: Budget) -> Saturation {
        self.saturate_metered(BudgetMeter::start(budget))
    }

    /// As [`saturate_with`](Self::saturate_with), but against a caller-
    /// supplied meter. A [`BudgetMeter`] is a shareable handle, so the
    /// same meter can be installed into several provers at once — one
    /// *global* budget that degrades gracefully across concurrent
    /// saturations (see [`BatchProver::with_shared_budget`]). A prover
    /// whose fixpoint races another's exhaustion of the shared meter
    /// reports [`Saturation::BudgetExhausted`] conservatively.
    pub fn saturate_metered(&mut self, meter: BudgetMeter) -> Saturation {
        self.meter = meter;
        self.idx = None;
        let before = self.facts.len();
        if self.config.use_worklist {
            self.saturate_worklist();
        } else {
            for _ in 0..self.config.max_passes {
                if self.meter.exhausted() || self.pass() == 0 {
                    break;
                }
            }
        }
        self.saturated = !self.meter.exhausted();
        if self.meter.exhausted() {
            Saturation::BudgetExhausted {
                facts: self.facts.len(),
                steps: self.meter.steps(),
            }
        } else {
            Saturation::Complete {
                new_facts: self.facts.len() - before,
            }
        }
    }

    /// Adds `added` as given facts and re-saturates **incrementally**:
    /// the current fact set — already a fixpoint after a completed
    /// [`saturate`](Self::saturate) — is indexed without re-firing any
    /// rule, and only the genuinely novel facts (and their consequences)
    /// enter the worklist. The closure is a unique fixpoint, so the
    /// resulting fact set is identical to seeding a fresh prover with
    /// the enlarged assumption set and saturating from scratch: every
    /// rule instance with at least one novel premise fires when its last
    /// novel premise is processed — the same last-arrival trigger
    /// discipline the full worklist relies on — and instances over only
    /// old facts already fired before the delta. Falls back to a full
    /// [`saturate`](Self::saturate) for the rescan engine
    /// (`use_worklist: false`), or when the fact set is not a completed
    /// fixpoint (never saturated, budget-exhausted, or assumed-into
    /// since).
    pub fn saturate_delta(&mut self, added: impl IntoIterator<Item = Formula>) -> Saturation {
        if !self.config.use_worklist || !self.saturated {
            for f in added {
                self.add(f, DerivedRule::Given, Vec::new());
            }
            return self.saturate();
        }
        let mut novel: BTreeSet<Formula> = BTreeSet::new();
        for f in added {
            if self.add(f.clone(), DerivedRule::Given, Vec::new()) {
                novel.insert(f);
            }
        }
        if novel.is_empty() {
            return Saturation::Complete { new_facts: 0 };
        }
        self.meter = BudgetMeter::start(self.config.budget);
        let before = self.facts.len();
        // A cached index from the last completed saturation already
        // covers every pre-delta fact (the novel ones were only just
        // added), so reuse it; otherwise index the old closure once.
        let mut idx = match self.idx.take() {
            Some(idx) => idx,
            None => {
                let mut idx = Indexes::default();
                for f in &self.facts {
                    if novel.contains(f) {
                        continue;
                    }
                    let (prefix, body) = strip(f);
                    idx.insert(&prefix, body);
                }
                idx
            }
        };
        // Novel facts drain in BTreeSet order, matching the full
        // saturation's deterministic seeding.
        let mut queue: VecDeque<Formula> = novel.into_iter().collect();
        self.drain_worklist(&mut idx, &mut queue);
        self.saturated = !self.meter.exhausted();
        self.idx = if self.saturated { Some(idx) } else { None };
        if self.meter.exhausted() {
            Saturation::BudgetExhausted {
                facts: self.facts.len(),
                steps: self.meter.steps(),
            }
        } else {
            Saturation::Complete {
                new_facts: self.facts.len() - before,
            }
        }
    }

    /// True if the most recent saturation ran out of budget, making
    /// negative [`holds`](Self::holds) answers inconclusive.
    pub fn budget_exhausted(&self) -> bool {
        self.meter.exhausted()
    }

    /// Three-valued query: [`Verdict::Proved`] if `goal` is derivable,
    /// [`Verdict::Unknown`] if it is not but the last saturation was cut
    /// short by its budget, [`Verdict::NotProved`] otherwise.
    pub fn verdict(&self, goal: &Formula) -> Verdict {
        if self.holds(goal) {
            Verdict::Proved
        } else if self.budget_exhausted() {
            Verdict::Unknown
        } else {
            Verdict::NotProved
        }
    }

    /// Facts grouped by belief prefix (a fact contributes its body to the
    /// context named by its prefix).
    fn contexts(&self) -> BTreeMap<Vec<Principal>, BTreeSet<Formula>> {
        let mut out: BTreeMap<Vec<Principal>, BTreeSet<Formula>> = BTreeMap::new();
        for f in &self.facts {
            let (prefix, body) = strip(f);
            out.entry(prefix).or_default().insert(body.clone());
        }
        out
    }

    /// All messages occurring in the facts (for the freshness rules'
    /// bounded conclusions).
    fn message_universe(&self) -> BTreeSet<Message> {
        let mut out = BTreeSet::new();
        for f in &self.facts {
            collect_messages(f, &mut out);
        }
        out
    }

    /// One rescan pass (`use_worklist: false`): re-fires every rule on
    /// every fact against snapshots of the contexts and universe.
    fn pass(&mut self) -> usize {
        let contexts = self.contexts();
        let universe = self.message_universe();
        let mut added = 0;
        let mut out = Vec::new();
        for (prefix, body_set) in &contexts {
            for body in body_set {
                rules_for(&self.config, prefix, body, body_set, &universe, &mut out);
                added += self.apply(&mut out, None);
            }
        }
        added
    }

    /// Worklist saturation: each dequeued fact is indexed by its trigger
    /// shape (fact kind × belief prefix), fires the rules it drives
    /// forward, and re-fires the already-indexed facts it completes a
    /// premise pair with. Novel conclusions join the queue; the loop runs
    /// to the least fixpoint (the same one the rescan path reaches, since
    /// every rule is monotone) or until the budget runs out.
    fn saturate_worklist(&mut self) {
        let mut idx = Indexes::default();
        // Seed in BTreeSet order so saturation is deterministic; rebuilt
        // from scratch each call, which also makes an exhausted saturation
        // resumable with a larger budget.
        let mut queue: VecDeque<Formula> = self.facts.iter().cloned().collect();
        self.drain_worklist(&mut idx, &mut queue);
        // A fully drained queue means `idx` covers the whole closure —
        // keep it so the next delta skips the re-index entirely.
        if !self.meter.exhausted() {
            self.idx = Some(idx);
        }
    }

    /// Drains the worklist to its fixpoint (or budget): each popped fact
    /// is indexed, then fires the forward, reverse, and freshness rules
    /// against everything indexed so far.
    fn drain_worklist(&mut self, idx: &mut Indexes, queue: &mut VecDeque<Formula>) {
        let mut out: Vec<Emission> = Vec::new();
        while let Some(fact) = queue.pop_front() {
            if self.meter.exhausted() {
                break;
            }
            let (prefix, body) = strip(&fact);
            let body = body.clone();
            let new_msgs = idx.insert(&prefix, &body);
            if let Some(ctx) = idx.ctx.get(&prefix) {
                rules_for(
                    &self.config,
                    &prefix,
                    &body,
                    &ctx.bodies,
                    &idx.universe,
                    &mut out,
                );
                reverse_rules(&self.config, &prefix, &body, ctx, &mut out);
            }
            fresh_closure(idx, &new_msgs, &mut out);
            self.apply(&mut out, Some(queue));
        }
    }

    /// Applies pending emissions, charging the budget per attempt exactly
    /// as the rules did when they fired inline. Returns the number of
    /// novel facts; those are also pushed onto `queue` when one is given.
    fn apply(
        &mut self,
        out: &mut Vec<Emission>,
        mut queue: Option<&mut VecDeque<Formula>>,
    ) -> usize {
        let mut added = 0;
        for e in out.drain(..) {
            let novel = if let Some(q) = queue.as_deref_mut() {
                let novel = self.add(e.conclusion.clone(), e.rule, e.premises);
                if novel {
                    q.push_back(e.conclusion);
                }
                novel
            } else {
                self.add(e.conclusion, e.rule, e.premises)
            };
            if novel {
                added += 1;
            }
        }
        added
    }
}

/// A rule firing waiting to be applied: the shared currency of the
/// worklist and rescan saturation paths, so both apply the same rules in
/// the same per-trigger order by construction.
struct Emission {
    conclusion: Formula,
    rule: DerivedRule,
    premises: Vec<Formula>,
}

impl Emission {
    fn new(conclusion: Formula, rule: DerivedRule, premises: Vec<Formula>) -> Self {
        Emission {
            conclusion,
            rule,
            premises,
        }
    }
}

/// One belief context's trigger-shape index: the bodies (for membership
/// guards) plus the fact kinds that participate in two-premise rules and
/// so must be re-firable when their partner arrives later.
#[derive(Clone, Debug, Default)]
struct CtxIndex {
    bodies: BTreeSet<Formula>,
    sees: Vec<(Principal, Message)>,
    said: Vec<(Principal, Message)>,
    says: Vec<(Principal, Message)>,
}

/// The worklist saturation's indices: per-prefix contexts, the message
/// universe, and the `fresh` facts by their message (for the freshness
/// closure against later universe arrivals).
#[derive(Clone, Debug, Default)]
struct Indexes {
    ctx: BTreeMap<Vec<Principal>, CtxIndex>,
    universe: BTreeSet<Message>,
    fresh: BTreeMap<Message, BTreeSet<Vec<Principal>>>,
}

impl Indexes {
    /// Indexes a fact, returning the messages it newly added to the
    /// universe (the freshness rules must be re-checked against those).
    fn insert(&mut self, prefix: &[Principal], body: &Formula) -> Vec<Message> {
        let ctx = self.ctx.entry(prefix.to_vec()).or_default();
        if !ctx.bodies.insert(body.clone()) {
            return Vec::new();
        }
        match body {
            Formula::Sees(p, m) => ctx.sees.push((p.clone(), (**m).clone())),
            Formula::Said(p, m) => ctx.said.push((p.clone(), (**m).clone())),
            Formula::Says(p, m) => ctx.says.push((p.clone(), (**m).clone())),
            Formula::Fresh(m) => {
                self.fresh
                    .entry((**m).clone())
                    .or_default()
                    .insert(prefix.to_vec());
            }
            _ => {}
        }
        let mut msgs = BTreeSet::new();
        collect_messages(body, &mut msgs);
        msgs.into_iter()
            .filter(|m| self.universe.insert(m.clone()))
            .collect()
    }
}

/// Collects the messages a fact contributes to the universe.
fn collect_messages(f: &Formula, out: &mut BTreeSet<Message>) {
    match f {
        Formula::Sees(_, m) | Formula::Said(_, m) | Formula::Says(_, m) => {
            out.extend(atl_lang::submsgs(m));
        }
        Formula::SharedSecret(_, m, _) | Formula::Fresh(m) => {
            out.extend(atl_lang::submsgs(m));
        }
        Formula::Not(g) => collect_messages(g, out),
        Formula::And(a, b) => {
            collect_messages(a, out);
            collect_messages(b, out);
        }
        Formula::Believes(_, g) | Formula::Controls(_, g) => collect_messages(g, out),
        _ => {}
    }
}

/// Rules driven by one fact (possibly consulting its context): the
/// forward direction, fired when the fact itself is (re)visited.
fn rules_for(
    config: &ProverConfig,
    prefix: &[Principal],
    body: &Formula,
    ctx: &BTreeSet<Formula>,
    universe: &BTreeSet<Message>,
    out: &mut Vec<Emission>,
) {
    match body {
        Formula::And(a, b) => {
            let fact = wrap(prefix, body.clone());
            out.push(Emission::new(
                wrap(prefix, (**a).clone()),
                DerivedRule::AndSplit,
                vec![fact.clone()],
            ));
            out.push(Emission::new(
                wrap(prefix, (**b).clone()),
                DerivedRule::AndSplit,
                vec![fact],
            ));
        }
        Formula::Sees(p, m) => sees_rules(config, prefix, p, m, ctx, out),
        Formula::Has(p, k) if !config.axioms_only && prefix.len() < config.max_belief_depth => {
            let fact = wrap(prefix, body.clone());
            let mut deeper = prefix.to_vec();
            deeper.push(p.clone());
            out.push(Emission::new(
                wrap(&deeper, Formula::Has(p.clone(), k.clone())),
                DerivedRule::HasPromotion,
                vec![fact],
            ));
        }
        Formula::Said(p, m) => said_rules(prefix, p, m, false, ctx, out),
        Formula::Says(p, m) => said_rules(prefix, p, m, true, ctx, out),
        Formula::Fresh(x) => fresh_rules(prefix, x, universe, out),
        Formula::SharedKey(p, k, q) => {
            let fact = wrap(prefix, body.clone());
            out.push(Emission::new(
                wrap(prefix, Formula::shared_key(q.clone(), k.clone(), p.clone())),
                DerivedRule::Symmetry,
                vec![fact],
            ));
        }
        Formula::SharedSecret(p, y, q) => {
            let fact = wrap(prefix, body.clone());
            out.push(Emission::new(
                wrap(
                    prefix,
                    Formula::shared_secret(q.clone(), (**y).clone(), p.clone()),
                ),
                DerivedRule::Symmetry,
                vec![fact],
            ));
        }
        _ => {}
    }
}

/// The reverse direction of the two-premise rules: a newly arrived
/// context fact re-fires the indexed facts it can pair with. Re-firing
/// re-emits earlier single-premise conclusions too; applying an emission
/// deduplicates against the fact set, so that costs a budget charge
/// (exactly as a rescan pass would) but never a spurious fact.
fn reverse_rules(
    config: &ProverConfig,
    prefix: &[Principal],
    body: &Formula,
    ctx: &CtxIndex,
    out: &mut Vec<Emission>,
) {
    match body {
        // Has guards decryption, the believes-sees rules, and promotion —
        // all for the key holder's own sees facts.
        Formula::Has(p, _) => {
            for (seer, m) in &ctx.sees {
                if seer == p {
                    sees_rules(config, prefix, seer, m, &ctx.bodies, out);
                }
            }
        }
        // Message-meaning premises pair with any sees fact in context.
        Formula::SharedKey(..) | Formula::SharedSecret(..) | Formula::PublicKey(..) => {
            for (seer, m) in &ctx.sees {
                sees_rules(config, prefix, seer, m, &ctx.bodies, out);
            }
        }
        // A20: freshness of exactly the said message.
        Formula::Fresh(x) => {
            for (p, m) in &ctx.said {
                if m == &**x {
                    said_rules(prefix, p, m, false, &ctx.bodies, out);
                }
            }
        }
        // A15: jurisdiction pairs with says facts of the controller.
        Formula::Controls(p, _) => {
            for (q, m) in &ctx.says {
                if q == p {
                    said_rules(prefix, q, m, true, &ctx.bodies, out);
                }
            }
        }
        _ => {}
    }
}

/// The freshness rules re-checked against messages that just entered the
/// universe: `fresh(x)` facts already indexed (in any context) conclude
/// freshness of every new construction with `x` as a direct component.
fn fresh_closure(idx: &Indexes, new_msgs: &[Message], out: &mut Vec<Emission>) {
    for m in new_msgs {
        let mut fire = |x: &Message, rule: DerivedRule| {
            if let Some(prefixes) = idx.fresh.get(x) {
                for prefix in prefixes {
                    out.push(Emission::new(
                        wrap(prefix, Formula::fresh(m.clone())),
                        rule,
                        vec![wrap(prefix, Formula::fresh(x.clone()))],
                    ));
                }
            }
        };
        match m {
            Message::Tuple(items) => {
                for item in items {
                    fire(item, DerivedRule::FreshTuple);
                }
            }
            Message::Encrypted { body, .. } => fire(body, DerivedRule::FreshEncrypted),
            Message::Combined { body, .. } => fire(body, DerivedRule::FreshCombined),
            Message::Forwarded(body) => fire(body, DerivedRule::FreshForwarded),
            Message::Signed { body, .. } => fire(body, DerivedRule::FreshSigned),
            Message::PubEncrypted { body, .. } => fire(body, DerivedRule::FreshPubEnc),
            _ => {}
        }
    }
}

/// The rules a `sees` fact drives (A7–A11, A23/A24/A27/A28, message
/// meaning, sees-promotion).
fn sees_rules(
    config: &ProverConfig,
    prefix: &[Principal],
    p: &Principal,
    m: &Message,
    ctx: &BTreeSet<Formula>,
    out: &mut Vec<Emission>,
) {
    let fact = wrap(prefix, Formula::sees(p.clone(), m.clone()));
    match m {
        Message::Tuple(items) => {
            for item in items {
                out.push(Emission::new(
                    wrap(prefix, Formula::sees(p.clone(), item.clone())),
                    DerivedRule::SeesTuple,
                    vec![fact.clone()],
                ));
            }
        }
        Message::Encrypted { body: x, key, .. }
            if ctx.contains(&Formula::Has(p.clone(), key.clone())) =>
        {
            out.push(Emission::new(
                wrap(prefix, Formula::sees(p.clone(), (**x).clone())),
                DerivedRule::SeesDecrypt,
                vec![
                    fact.clone(),
                    wrap(prefix, Formula::Has(p.clone(), key.clone())),
                ],
            ));
            // A11: believing one sees the ciphertext.
            if prefix.len() < config.max_belief_depth {
                let mut deeper = prefix.to_vec();
                deeper.push(p.clone());
                out.push(Emission::new(
                    wrap(&deeper, Formula::sees(p.clone(), m.clone())),
                    DerivedRule::BelievesSeesCipher,
                    vec![fact.clone()],
                ));
            }
        }
        Message::Signed { body: x, key, .. }
            // A23: the verification key opens the signature.
            if ctx.contains(&Formula::Has(p.clone(), key.clone())) =>
        {
            out.push(Emission::new(
                wrap(prefix, Formula::sees(p.clone(), (**x).clone())),
                DerivedRule::SeesSigned,
                vec![fact.clone()],
            ));
            // A27: believing one sees the signature.
            if prefix.len() < config.max_belief_depth {
                let mut deeper = prefix.to_vec();
                deeper.push(p.clone());
                out.push(Emission::new(
                    wrap(&deeper, Formula::sees(p.clone(), m.clone())),
                    DerivedRule::BelievesSeesSigned,
                    vec![fact.clone()],
                ));
            }
        }
        Message::PubEncrypted { body: x, key, .. } => {
            // A24: the private key opens public-key ciphertext.
            let has_inverse = key.as_key().is_some_and(|k| {
                ctx.contains(&Formula::Has(p.clone(), KeyTerm::Key(k.inverse())))
            });
            if has_inverse {
                out.push(Emission::new(
                    wrap(prefix, Formula::sees(p.clone(), (**x).clone())),
                    DerivedRule::SeesPubEnc,
                    vec![fact.clone()],
                ));
                // A28: believing one sees the ciphertext.
                if prefix.len() < config.max_belief_depth {
                    let mut deeper = prefix.to_vec();
                    deeper.push(p.clone());
                    out.push(Emission::new(
                        wrap(&deeper, Formula::sees(p.clone(), m.clone())),
                        DerivedRule::BelievesSeesPubEnc,
                        vec![fact.clone()],
                    ));
                }
            }
        }
        Message::Combined { body: x, .. } => {
            out.push(Emission::new(
                wrap(prefix, Formula::sees(p.clone(), (**x).clone())),
                DerivedRule::SeesCombined,
                vec![fact.clone()],
            ));
        }
        Message::Forwarded(x) => {
            out.push(Emission::new(
                wrap(prefix, Formula::sees(p.clone(), (**x).clone())),
                DerivedRule::SeesForwarded,
                vec![fact.clone()],
            ));
        }
        _ => {}
    }
    // Message-meaning: find a shared key/secret in context.
    message_meaning(prefix, m, ctx, &fact, out);
    // Sees-promotion (semantic rule).
    if !config.axioms_only
        && prefix.len() < config.max_belief_depth
        && readable_with_held_keys(m, p, ctx)
    {
        let mut deeper = prefix.to_vec();
        deeper.push(p.clone());
        out.push(Emission::new(
            wrap(&deeper, Formula::sees(p.clone(), m.clone())),
            DerivedRule::SeesPromotion,
            vec![fact],
        ));
    }
}

/// The rules a `said`/`says` fact drives (A12/A13 analogues, A20, A15).
fn said_rules(
    prefix: &[Principal],
    p: &Principal,
    m: &Message,
    says: bool,
    ctx: &BTreeSet<Formula>,
    out: &mut Vec<Emission>,
) {
    let rebuild = |p: &Principal, x: Message| {
        if says {
            Formula::says(p.clone(), x)
        } else {
            Formula::said(p.clone(), x)
        }
    };
    let fact = wrap(prefix, rebuild(p, m.clone()));
    match m {
        Message::Tuple(items) => {
            for item in items {
                out.push(Emission::new(
                    wrap(prefix, rebuild(p, item.clone())),
                    DerivedRule::SaidTuple,
                    vec![fact.clone()],
                ));
            }
        }
        Message::Combined { body: x, .. } => {
            out.push(Emission::new(
                wrap(prefix, rebuild(p, (**x).clone())),
                DerivedRule::SaidCombined,
                vec![fact.clone()],
            ));
        }
        _ => {}
    }
    if !says {
        // A20: fresh + said ⊃ says.
        if ctx.contains(&Formula::fresh(m.clone())) {
            out.push(Emission::new(
                wrap(prefix, Formula::says(p.clone(), m.clone())),
                DerivedRule::NonceVerification,
                vec![fact, wrap(prefix, Formula::fresh(m.clone()))],
            ));
        }
    } else {
        // A15: jurisdiction over recently said formulas.
        if let Message::Formula(phi) = m {
            if ctx.contains(&Formula::controls(p.clone(), (**phi).clone())) {
                out.push(Emission::new(
                    wrap(prefix, (**phi).clone()),
                    DerivedRule::Jurisdiction,
                    vec![
                        wrap(prefix, Formula::controls(p.clone(), (**phi).clone())),
                        fact,
                    ],
                ));
            }
        }
    }
}

/// The freshness rules a `fresh` fact drives against the current message
/// universe (A16–A19, A25/A26).
fn fresh_rules(
    prefix: &[Principal],
    x: &Message,
    universe: &BTreeSet<Message>,
    out: &mut Vec<Emission>,
) {
    let fact = wrap(prefix, Formula::fresh(x.clone()));
    for m in universe {
        let (rule, fires) = match m {
            Message::Tuple(items) => (DerivedRule::FreshTuple, items.contains(x)),
            Message::Encrypted { body, .. } => (DerivedRule::FreshEncrypted, **body == *x),
            Message::Combined { body, .. } => (DerivedRule::FreshCombined, **body == *x),
            Message::Forwarded(body) => (DerivedRule::FreshForwarded, **body == *x),
            Message::Signed { body, .. } => (DerivedRule::FreshSigned, **body == *x),
            Message::PubEncrypted { body, .. } => (DerivedRule::FreshPubEnc, **body == *x),
            _ => (DerivedRule::FreshTuple, false),
        };
        if fires {
            out.push(Emission::new(
                wrap(prefix, Formula::fresh(m.clone())),
                rule,
                vec![fact.clone()],
            ));
        }
    }
}

/// A5/A6/A22 within a context: the seen message is ciphertext, a
/// signature, or a combination whose key/secret the context believes
/// shared (or whose public key it believes owned).
fn message_meaning(
    prefix: &[Principal],
    m: &Message,
    ctx: &BTreeSet<Formula>,
    sees_fact: &Formula,
    out: &mut Vec<Emission>,
) {
    match m {
        Message::Encrypted { body, key, from } => {
            for f in ctx {
                let Formula::SharedKey(p, k, q) = f else {
                    continue;
                };
                if k != key {
                    continue;
                }
                // A5 needs P ≠ S (from field); identify the said-er as
                // the peer named opposite the matching side.
                for (side, peer) in [(p, q), (q, p)] {
                    if side != from {
                        out.push(Emission::new(
                            wrap(prefix, Formula::said(peer.clone(), (**body).clone())),
                            DerivedRule::MessageMeaningKey,
                            vec![wrap(prefix, f.clone()), sees_fact.clone()],
                        ));
                    }
                }
            }
        }
        Message::Signed { body, key, .. } => {
            // A22: only the key's owner signs; no side condition.
            for f in ctx {
                let Formula::PublicKey(k, owner) = f else {
                    continue;
                };
                if k != key {
                    continue;
                }
                out.push(Emission::new(
                    wrap(prefix, Formula::said(owner.clone(), (**body).clone())),
                    DerivedRule::SignatureMeaning,
                    vec![wrap(prefix, f.clone()), sees_fact.clone()],
                ));
            }
        }
        Message::Combined { body, secret, from } => {
            for f in ctx {
                let Formula::SharedSecret(p, y, q) = f else {
                    continue;
                };
                if **y != **secret {
                    continue;
                }
                for (side, peer) in [(p, q), (q, p)] {
                    if side != from {
                        out.push(Emission::new(
                            wrap(prefix, Formula::said(peer.clone(), (**body).clone())),
                            DerivedRule::MessageMeaningSecret,
                            vec![wrap(prefix, f.clone()), sees_fact.clone()],
                        ));
                    }
                }
            }
        }
        _ => {}
    }
}

/// True if every ciphertext inside `m` is under a key the context knows
/// `p` to hold — then `hide` leaves `m` intact for `p`.
fn readable_with_held_keys(m: &Message, p: &Principal, ctx: &BTreeSet<Formula>) -> bool {
    match m {
        Message::Encrypted { body, key, .. } => {
            let held = matches!(key, KeyTerm::Key(_))
                && ctx.contains(&Formula::Has(p.clone(), key.clone()));
            held && readable_with_held_keys(body, p, ctx)
        }
        Message::Tuple(items) => items.iter().all(|i| readable_with_held_keys(i, p, ctx)),
        Message::Combined { body, secret, .. } => {
            readable_with_held_keys(body, p, ctx) && readable_with_held_keys(secret, p, ctx)
        }
        Message::Forwarded(body) => readable_with_held_keys(body, p, ctx),
        Message::PubEncrypted { body, key, .. } => {
            let held = key
                .as_key()
                .is_some_and(|k| ctx.contains(&Formula::Has(p.clone(), KeyTerm::Key(k.inverse()))));
            held && readable_with_held_keys(body, p, ctx)
        }
        Message::Signed { body, key, .. } => {
            let held = matches!(key, KeyTerm::Key(_))
                && ctx.contains(&Formula::Has(p.clone(), key.clone()));
            held && readable_with_held_keys(body, p, ctx)
        }
        Message::Formula(_) | Message::Principal(_) | Message::Key(_) | Message::Nonce(_) => true,
        Message::Param(_) | Message::Opaque => false,
    }
}

/// Saturates independent provers and checks their goals concurrently
/// over a work-stealing [`Pool`].
///
/// Each job owns its fact set — nothing is shared between jobs except,
/// optionally, one *global* [`Budget`] metered atomically across all of
/// them ([`BatchProver::with_shared_budget`]). Outcomes come back in job
/// order; without a shared budget every job is deterministic, so the
/// batch result is identical to saturating the jobs one by one (the
/// equivalence `tests/e15_parallel.rs` checks). Under a shared budget
/// the *total* work is bounded exactly (the meter admits precisely
/// `cap` charges, whatever the interleaving), but which jobs exhaust
/// first depends on scheduling — three-valued [`Verdict`]s keep that
/// honest, degrading to [`Verdict::Unknown`] rather than flipping an
/// answer.
///
/// ```
/// use atl_core::parallel::Pool;
/// use atl_core::prover::{BatchProver, Prover};
/// use atl_core::budget::Verdict;
/// use atl_lang::{Formula, Key};
/// let jobs: Vec<(Prover, Vec<Formula>)> = (0..4)
///     .map(|i| {
///         let goal = Formula::has("A", Key::new(format!("K{i}")));
///         (Prover::new([goal.clone()]), vec![goal])
///     })
///     .collect();
/// let outcomes = BatchProver::new(Pool::new(2)).prove_all(jobs);
/// assert!(outcomes.iter().all(|o| o.verdicts == [Verdict::Proved]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchProver {
    pool: Pool,
    shared_budget: Option<Budget>,
}

/// The outcome of one [`BatchProver`] job.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The saturated prover (fact set and trace included).
    pub prover: Prover,
    /// How the job's saturation ended.
    pub saturation: Saturation,
    /// One three-valued verdict per goal, in the goals' order.
    pub verdicts: Vec<Verdict>,
}

impl BatchProver {
    /// A batch prover where each job meters its own configured budget.
    pub fn new(pool: Pool) -> Self {
        BatchProver {
            pool,
            shared_budget: None,
        }
    }

    /// A batch prover where all jobs share one global `budget`: a single
    /// atomically-metered allowance that degrades gracefully across
    /// workers (each derivation step, whichever job takes it, charges
    /// the same meter).
    pub fn with_shared_budget(pool: Pool, budget: Budget) -> Self {
        BatchProver {
            pool,
            shared_budget: Some(budget),
        }
    }

    /// Saturates every job and answers its goals, concurrently, with
    /// outcomes in job order.
    pub fn prove_all(&self, jobs: Vec<(Prover, Vec<Formula>)>) -> Vec<BatchOutcome> {
        let meter = self.shared_budget.map(BudgetMeter::start);
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|(mut prover, goals)| {
                let meter = meter.clone();
                move || {
                    let saturation = match meter {
                        Some(m) => prover.saturate_metered(m),
                        None => prover.saturate(),
                    };
                    let verdicts = goals.iter().map(|g| prover.verdict(g)).collect();
                    BatchOutcome {
                        prover,
                        saturation,
                        verdicts,
                    }
                }
            })
            .collect();
        self.pool.run(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Nonce};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    fn kab() -> Formula {
        Formula::shared_key("A", Key::new("Kab"), "B")
    }

    #[test]
    fn sees_decrypt_requires_has() {
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("S"));
        let mut p = Prover::new([Formula::sees("B", cipher.clone())]);
        p.saturate();
        assert!(!p.holds(&Formula::sees("B", nonce("X"))));
        p.assume(Formula::has("B", Key::new("K")));
        p.saturate();
        assert!(p.holds(&Formula::sees("B", nonce("X"))));
    }

    #[test]
    fn a11_promotes_ciphertext_sight_into_belief() {
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("S"));
        let mut p = Prover::new([
            Formula::sees("B", cipher.clone()),
            Formula::has("B", Key::new("K")),
        ]);
        p.saturate();
        assert!(p.holds(&Formula::believes("B", Formula::sees("B", cipher))));
    }

    #[test]
    fn nonce_verification_inside_belief_context() {
        let mut p = Prover::new([
            Formula::believes("B", Formula::fresh(nonce("Ts"))),
            Formula::believes("B", Formula::said("S", nonce("Ts"))),
        ]);
        p.saturate();
        assert!(p.holds(&Formula::believes("B", Formula::says("S", nonce("Ts")))));
    }

    #[test]
    fn jurisdiction_requires_says_not_said() {
        let phi = kab();
        let mut p = Prover::new([
            Formula::believes("B", Formula::controls("S", phi.clone())),
            Formula::believes("B", Formula::said("S", phi.clone().into_message())),
        ]);
        p.saturate();
        // `said` alone is not enough — the honesty-free A15 needs `says`.
        assert!(!p.holds(&Formula::believes("B", phi.clone())));
        p.assume(Formula::believes(
            "B",
            Formula::says("S", phi.clone().into_message()),
        ));
        p.saturate();
        assert!(p.holds(&Formula::believes("B", phi)));
    }

    #[test]
    fn full_figure1_chain_for_b() {
        let ts = nonce("Ts");
        let payload = Message::tuple([ts.clone(), kab().into_message()]);
        let cipher = Message::encrypted(payload, Key::new("Kbs"), Principal::new("S"));
        let mut p = Prover::new([
            Formula::believes("B", Formula::shared_key("B", Key::new("Kbs"), "S")),
            Formula::believes("B", Formula::fresh(ts.clone())),
            Formula::believes("B", Formula::controls("S", kab())),
            Formula::has("B", Key::new("Kbs")),
            Formula::sees("B", cipher),
        ]);
        p.saturate();
        assert!(
            p.holds(&Formula::believes("B", kab())),
            "facts: {:#?}",
            p.facts()
        );
        // The intermediate says-belief is also present.
        assert!(p.holds(&Formula::believes(
            "B",
            Formula::says("S", kab().into_message())
        )));
    }

    #[test]
    fn axioms_only_mode_blocks_promotions() {
        let mut p = Prover::with_config(
            [
                Formula::has("B", Key::new("K")),
                Formula::sees("B", nonce("X")),
            ],
            ProverConfig {
                axioms_only: true,
                ..ProverConfig::default()
            },
        );
        p.saturate();
        assert!(!p.holds(&Formula::believes("B", Formula::has("B", Key::new("K")))));
        assert!(!p.holds(&Formula::believes("B", Formula::sees("B", nonce("X")))));
    }

    #[test]
    fn sees_promotion_blocked_by_unreadable_ciphertext() {
        // B forwards ciphertext it cannot read: it must not come to believe
        // it sees the plaintext-bearing message unhidden.
        let inner = Message::encrypted(nonce("X"), Key::new("Kas"), Principal::new("S"));
        let m = Message::tuple([nonce("T"), inner]);
        let mut p = Prover::new([Formula::sees("B", m.clone())]);
        p.saturate();
        assert!(!p.holds(&Formula::believes("B", Formula::sees("B", m))));
        // The readable component is still promoted.
        assert!(p.holds(&Formula::believes("B", Formula::sees("B", nonce("T")))));
    }

    #[test]
    fn message_meaning_for_secrets() {
        let pw = nonce("pw");
        let m = Message::combined(nonce("hello"), pw.clone(), Principal::new("A"));
        let mut p = Prover::new([
            Formula::believes("B", Formula::shared_secret("A", pw, "B")),
            Formula::believes("B", Formula::sees("B", m)),
        ]);
        p.saturate();
        assert!(p.holds(&Formula::believes("B", Formula::said("A", nonce("hello")))));
    }

    #[test]
    fn message_meaning_respects_from_field() {
        // A's own ciphertext (from field A) must not prove B said anything
        // via the A-side of the key.
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        let mut p = Prover::new([
            Formula::believes("A", kab()),
            Formula::believes("A", Formula::sees("A", cipher)),
        ]);
        p.saturate();
        // From field is A, so the matching side P must differ from A:
        // P = B, peer = A… wait — the conclusion names the peer of the
        // side distinct from the from field, which is B said X only when
        // the from field is A and the side P = B? No: sides (p,q) = (A,B):
        // side A == from A is skipped; side B ≠ from A concludes peer A
        // said X. So "A said X" is derivable (A did say it), but "B said
        // X" is not.
        assert!(!p.holds(&Formula::believes("A", Formula::said("B", nonce("X")))));
        assert!(p.holds(&Formula::believes("A", Formula::said("A", nonce("X")))));
    }

    #[test]
    fn freshness_rules_cover_all_constructors() {
        let x = nonce("N");
        let enc = Message::encrypted(x.clone(), Key::new("K"), Principal::new("A"));
        let comb = Message::combined(x.clone(), nonce("Y"), Principal::new("A"));
        let fwd = Message::forwarded(x.clone());
        let tup = Message::tuple([x.clone(), nonce("Z")]);
        let mut p = Prover::new([
            Formula::fresh(x),
            // Mention the composite messages so they enter the universe.
            Formula::sees(
                "A",
                Message::tuple([enc.clone(), comb.clone(), fwd.clone(), tup.clone()]),
            ),
        ]);
        p.saturate();
        for m in [enc, comb, fwd, tup] {
            assert!(p.holds(&Formula::fresh(m.clone())), "not fresh: {m}");
        }
    }

    #[test]
    fn goal_conjunctions_decompose() {
        let mut p = Prover::new([
            Formula::believes("A", Formula::has("A", Key::new("K1"))),
            Formula::believes("A", Formula::has("A", Key::new("K2"))),
        ]);
        p.saturate();
        let goal = Formula::believes(
            "A",
            Formula::and(
                Formula::has("A", Key::new("K1")),
                Formula::has("A", Key::new("K2")),
            ),
        );
        assert!(p.holds(&goal));
    }

    #[test]
    fn tiny_step_budget_exhausts_without_losing_facts() {
        let ts = nonce("Ts");
        let payload = Message::tuple([ts.clone(), kab().into_message()]);
        let cipher = Message::encrypted(payload, Key::new("Kbs"), Principal::new("S"));
        let seeds = [
            Formula::believes("B", Formula::shared_key("B", Key::new("Kbs"), "S")),
            Formula::believes("B", Formula::fresh(ts)),
            Formula::believes("B", Formula::controls("S", kab())),
            Formula::has("B", Key::new("Kbs")),
            Formula::sees("B", cipher),
        ];
        let mut p = Prover::with_config(
            seeds.clone(),
            ProverConfig {
                budget: Budget::unlimited().steps(10),
                ..ProverConfig::default()
            },
        );
        let outcome = p.saturate();
        let Saturation::BudgetExhausted { facts, steps } = outcome else {
            panic!("expected exhaustion, got {outcome:?}");
        };
        assert_eq!(steps, 10);
        assert!(facts >= seeds.len(), "seeded facts must survive");
        assert_eq!(p.facts().len(), facts);
        // Everything derived before the cutoff is retained and resumable:
        // a fresh saturation with an unlimited budget reaches the goal.
        let kept = p.facts().len();
        assert!(p.saturate_with(Budget::unlimited()).is_complete());
        assert!(p.facts().len() >= kept);
        assert!(p.holds(&Formula::believes("B", kab())));
    }

    #[test]
    fn verdict_is_unknown_only_under_exhaustion() {
        let goal = Formula::believes("B", Formula::says("S", nonce("Ts")));
        let seeds = [
            Formula::believes("B", Formula::fresh(nonce("Ts"))),
            Formula::believes("B", Formula::said("S", nonce("Ts"))),
        ];
        // Budget too small to derive the says-belief: unknown.
        let mut p = Prover::with_config(
            seeds.clone(),
            ProverConfig {
                budget: Budget::unlimited().steps(0),
                ..ProverConfig::default()
            },
        );
        p.saturate();
        assert!(p.budget_exhausted());
        assert_eq!(p.verdict(&goal), Verdict::Unknown);
        // Unlimited: proved.
        let mut p = Prover::new(seeds);
        assert!(p.saturate().is_complete());
        assert_eq!(p.verdict(&goal), Verdict::Proved);
        // Complete saturation that genuinely cannot derive it: not proved.
        let mut p = Prover::new([Formula::believes("B", Formula::said("S", nonce("Ts")))]);
        assert!(p.saturate().is_complete());
        assert_eq!(p.verdict(&goal), Verdict::NotProved);
    }

    #[test]
    fn fact_budget_caps_the_set_size() {
        let tup = Message::tuple([nonce("a"), nonce("b"), nonce("c"), nonce("d")]);
        let mut p = Prover::with_config(
            [Formula::sees("B", tup)],
            ProverConfig {
                budget: Budget::unlimited().facts(3),
                ..ProverConfig::default()
            },
        );
        let outcome = p.saturate();
        assert!(!outcome.is_complete());
        assert!(p.facts().len() <= 3);
    }

    /// A figure-1-shaped seed set with enough rule interplay (decryption,
    /// message meaning, nonce verification, jurisdiction) to exercise
    /// every trigger direction of the worklist.
    fn figure1_seeds() -> Vec<Formula> {
        let msg = Message::encrypted(
            Message::tuple([nonce("Ts"), kab().into_message()]),
            Key::new("Kbs"),
            "S",
        );
        vec![
            Formula::believes("B", Formula::shared_key("B", Key::new("Kbs"), "S")),
            Formula::believes("B", Formula::fresh(nonce("Ts"))),
            Formula::believes("B", Formula::controls("S", kab())),
            Formula::has("B", Key::new("Kbs")),
            Formula::sees("B", msg),
        ]
    }

    #[test]
    fn delta_saturation_reaches_the_cold_fixpoint() {
        let seeds = figure1_seeds();
        // Hold back each seed in turn; the delta-resumed closure must
        // equal the cold closure over the full set.
        for held_out in 0..seeds.len() {
            let mut warm = Prover::new(
                seeds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != held_out)
                    .map(|(_, f)| f.clone()),
            );
            assert!(warm.saturate().is_complete());
            assert!(warm.saturate_delta([seeds[held_out].clone()]).is_complete());
            let mut cold = Prover::new(seeds.iter().cloned());
            cold.saturate();
            assert_eq!(
                warm.facts(),
                cold.facts(),
                "held-out seed {held_out} diverged"
            );
        }
    }

    #[test]
    fn delta_with_known_fact_is_a_no_op() {
        let mut p = Prover::new(figure1_seeds());
        p.saturate();
        let n = p.facts().len();
        let outcome = p.saturate_delta([Formula::has("B", Key::new("Kbs"))]);
        assert_eq!(outcome, Saturation::Complete { new_facts: 0 });
        assert_eq!(p.facts().len(), n);
    }

    #[test]
    fn delta_falls_back_when_not_at_a_fixpoint() {
        // An assume() between saturations invalidates the fixpoint, so
        // the delta path must re-run the full saturation and still land
        // on the cold closure.
        let seeds = figure1_seeds();
        let mut warm = Prover::new(seeds[..3].iter().cloned());
        warm.saturate();
        warm.assume(seeds[3].clone());
        warm.saturate_delta([seeds[4].clone()]);
        let mut cold = Prover::new(seeds.iter().cloned());
        cold.saturate();
        assert_eq!(warm.facts(), cold.facts());
        // A never-saturated prover likewise falls back.
        let mut fresh = Prover::new(seeds[..4].iter().cloned());
        fresh.saturate_delta([seeds[4].clone()]);
        assert_eq!(fresh.facts(), cold.facts());
    }

    #[test]
    fn delta_respects_the_rescan_engine() {
        let seeds = figure1_seeds();
        let config = ProverConfig {
            use_worklist: false,
            ..ProverConfig::default()
        };
        let mut warm = Prover::with_config(seeds[..4].iter().cloned(), config);
        warm.saturate();
        warm.saturate_delta([seeds[4].clone()]);
        let mut cold = Prover::with_config(seeds.iter().cloned(), config);
        cold.saturate();
        assert_eq!(warm.facts(), cold.facts());
    }

    #[test]
    fn trace_names_rules() {
        let mut p = Prover::new([Formula::fresh(nonce("N")), Formula::said("S", nonce("N"))]);
        p.saturate();
        let step = p
            .derivation_of(&Formula::says("S", nonce("N")))
            .expect("derived");
        assert_eq!(step.rule, DerivedRule::NonceVerification);
        assert!(step.rule.to_string().contains("A20"));
    }
}
