//! Choosing the good runs (Section 7).
//!
//! Belief is defined relative to a vector `G = (G_1, …, G_n)` of good-run
//! sets. Section 7 shows how to *construct* `G` from each principal's
//! initial assumptions `I_i` (formulas `P_i believes φ`):
//!
//! - under restriction **I1** (no belief within a negation) the iterative
//!   construction below yields a `G` that *supports* `I` — every initial
//!   assumption holds at every time-0 point relative to `G` (Theorem 2);
//! - under **I1 + I2** (no mistaken cross-beliefs) the constructed `G` is
//!   *optimum*: the maximum, under pointwise inclusion, of all supporting
//!   vectors (Theorem 3);
//! - without I2 there is in general **no** optimum — see
//!   [`examples::coin_toss`](crate::examples) for the paper's
//!   counterexample.
//!
//! One stage loop computes the construction. [`construct`],
//! [`construct_on`], [`construct_budgeted_on`],
//! [`construct_checkpointed_on`] and [`resume_construct_on`] each call
//! it with a budget, a prior [`ConstructionCheckpoint`] (empty for a cold
//! build), a pool and a fresh evaluation cache; the serve daemon and the
//! fault sweep call it with a cache of their own. Its candidate filters
//! evaluate through the one run-sharded evaluator of the semantics, so
//! the results are bit-identical at every pool width —
//! `tests/e15_parallel.rs` holds them to an independent sequential
//! reference.

use crate::budget::{Budget, BudgetMeter, Saturation};
use crate::parallel::Pool;
use crate::semantics::{EvalCache, GoodRuns, Semantics, SemanticsError};
use atl_lang::{Formula, Principal};
use atl_model::{Point, System};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Error raised by the good-run construction and its checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoodRunsError {
    /// An assumption registered for `P` is not of the form `P believes ψ`.
    BadShape(Formula),
    /// An assumption violates restriction I1 (belief within a negation).
    ViolatesI1(Formula),
    /// Evaluation failed (unbound parameter or bad point).
    Semantics(SemanticsError),
    /// The optimality search space exceeds the caller's limit.
    SearchSpaceTooLarge {
        /// Candidate vectors that would need checking.
        candidates: u128,
        /// The configured cap.
        limit: u128,
    },
}

impl fmt::Display for GoodRunsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoodRunsError::BadShape(formula) => {
                write!(
                    f,
                    "assumption {formula} is not of the form `P believes ψ` for its principal"
                )
            }
            GoodRunsError::ViolatesI1(formula) => {
                write!(
                    f,
                    "assumption {formula} places belief under negation (restriction I1)"
                )
            }
            GoodRunsError::Semantics(e) => write!(f, "{e}"),
            GoodRunsError::SearchSpaceTooLarge { candidates, limit } => {
                write!(
                    f,
                    "optimality search over {candidates} vectors exceeds limit {limit}"
                )
            }
        }
    }
}

impl Error for GoodRunsError {}

impl From<SemanticsError> for GoodRunsError {
    fn from(e: SemanticsError) -> Self {
        GoodRunsError::Semantics(e)
    }
}

/// The initial-assumption vector `I = (I_1, …, I_n)`: for each principal,
/// the formulas `P_i believes ψ` describing its preconceived beliefs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InitialAssumptions {
    map: BTreeMap<Principal, Vec<Formula>>,
}

impl InitialAssumptions {
    /// An empty vector.
    pub fn new() -> Self {
        InitialAssumptions::default()
    }

    /// Registers the assumption `P believes body`.
    pub fn assume(&mut self, p: impl Into<Principal>, body: Formula) -> &mut Self {
        let p = p.into();
        self.map
            .entry(p.clone())
            .or_default()
            .push(Formula::believes(p, body));
        self
    }

    /// The principals with assumptions.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.map.keys()
    }

    /// `P`'s assumptions (each of the form `P believes ψ`).
    pub fn of(&self, p: &Principal) -> &[Formula] {
        self.map.get(p).map_or(&[], Vec::as_slice)
    }

    /// Every assumption, tagged with its principal.
    pub fn iter(&self) -> impl Iterator<Item = (&Principal, &Formula)> {
        self.map
            .iter()
            .flat_map(|(p, fs)| fs.iter().map(move |f| (p, f)))
    }

    /// Checks the structural requirements: each assumption for `P` has the
    /// shape `P believes ψ` and satisfies restriction I1.
    ///
    /// # Errors
    ///
    /// [`GoodRunsError::BadShape`] or [`GoodRunsError::ViolatesI1`].
    pub fn check(&self) -> Result<(), GoodRunsError> {
        for (p, f) in self.iter() {
            match f {
                Formula::Believes(q, _) if q == p => {}
                _ => return Err(GoodRunsError::BadShape(f.clone())),
            }
            if f.has_belief_under_negation() {
                return Err(GoodRunsError::ViolatesI1(f.clone()));
            }
        }
        Ok(())
    }

    /// Checks restriction **I2**: if `I_i` contains
    /// `P_i believes (P_j believes φ)`, then `I_j` contains
    /// `P_j believes φ` — one principal's assumptions make no claims about
    /// another's beliefs that the other does not itself assume.
    ///
    /// Returns the first offending assumption, if any.
    pub fn violates_i2(&self) -> Option<&Formula> {
        for (_, f) in self.iter() {
            let Formula::Believes(_, body) = f else {
                continue;
            };
            if let Formula::Believes(j, _) = &**body {
                let present = self.of(j).iter().any(|g| g == &**body);
                if !present {
                    return Some(f);
                }
            }
        }
        None
    }

    /// The maximum belief nesting depth across all assumptions.
    pub fn max_depth(&self) -> usize {
        self.iter()
            .map(|(_, f)| f.belief_depth())
            .max()
            .unwrap_or(0)
    }
}

/// A record of the Section 7 construction's progress: the size of each
/// principal's good-run set after every stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstructionReport {
    /// `stages[j][p]` is |G_p^{j+1}| (stage 0 of the vector is `G^1`).
    pub stages: Vec<BTreeMap<Principal, usize>>,
}

impl ConstructionReport {
    /// The number of iteration stages performed (the maximum belief
    /// depth of the assumptions).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// True if some principal's good-run set became empty — that
    /// principal believes the absurd relative to the constructed vector.
    pub fn emptied(&self) -> Vec<&Principal> {
        self.stages
            .last()
            .map(|m| m.iter().filter(|(_, n)| **n == 0).map(|(p, _)| p).collect())
            .unwrap_or_default()
    }
}

/// The iterative construction of Section 7.
///
/// `G⁰ = (R, …, R)`; at stage `j`, `G_i^j` keeps the runs of `G_i^{j-1}`
/// whose time-0 point satisfies, relative to `G^{j-1}`, the body of every
/// depth-`j` assumption of `P_i`; the result is `G_i = ⋂_j G_i^j`.
///
/// # Errors
///
/// Structural errors from [`InitialAssumptions::check`], or evaluation
/// errors.
pub fn construct(
    system: &System,
    assumptions: &InitialAssumptions,
) -> Result<GoodRuns, GoodRunsError> {
    construct_on(system, assumptions, &Pool::sequential()).map(|(g, _)| g)
}

/// As [`construct`], also returning the per-stage [`ConstructionReport`],
/// with each stage's run-filtering sharded over `pool` — see
/// [`construct_budgeted_on`].
///
/// # Errors
///
/// As for [`construct`].
pub fn construct_on(
    system: &System,
    assumptions: &InitialAssumptions,
    pool: &Pool,
) -> Result<(GoodRuns, ConstructionReport), GoodRunsError> {
    construct_budgeted_on(system, assumptions, Budget::unlimited(), pool).map(|(g, r, _)| (g, r))
}

/// As [`construct_on`], but metered against `budget`: each semantic
/// evaluation of an assumption body at a point charges one step.
///
/// When the budget runs out the refinement stops where it stands and the
/// vector built so far is returned with
/// [`Saturation::BudgetExhausted`] — a *coarser* (larger) vector than the
/// full construction would produce, whose completed stages are exact. In
/// the returned outcome, `steps` counts evaluations and `facts` counts
/// fully completed stages.
///
/// The results are **bit-identical** at every pool width:
///
/// - candidate runs are dealt to workers by index and the surviving set
///   is merged back in index order, so each stage's `G^j` vector is the
///   same `BTreeSet` a one-by-one filter builds;
/// - the budget is claimed *before* the candidates are evaluated: the
///   meter is charged once per candidate, in index order, and only the
///   prefix those charges cover is evaluated at all. A partial stage is
///   discarded, so step counts, stage counts, and the [`Saturation`]
///   outcome do not depend on the scheduling;
/// - an evaluation error is reported for the earliest failing candidate
///   in index order.
///
/// # Errors
///
/// As for [`construct`].
pub fn construct_budgeted_on(
    system: &System,
    assumptions: &InitialAssumptions,
    budget: Budget,
    pool: &Pool,
) -> Result<(GoodRuns, ConstructionReport, Saturation), GoodRunsError> {
    let cold = ConstructionCheckpoint::default();
    let cache = &mut EvalCache::default();
    construct_in(system, assumptions, budget, &cold, pool, cache)
        .map(|c| (c.goods, c.report, c.outcome))
}

/// A per-stage record of a *completed* Section 7 construction, enough to
/// resume a later construction from the first stage an assumption edit
/// invalidates.
///
/// Stage `j` of the construction filters each `G_i^{j-1}` by the bodies
/// of `P_i`'s depth-`j` assumptions, relative to the whole vector
/// `G^{j-1}`. So the output of stage `j` is fully determined by the
/// vector after stage `j-1` together with the per-principal depth-`j`
/// assumption lists — the checkpoint stores exactly those two things per
/// stage, and [`resume_construct_on`] replays only the suffix whose
/// inputs changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstructionCheckpoint {
    /// `vectors[0]` is the initial vector `G^0`; `vectors[j]` is the
    /// vector after stage `j` completed.
    vectors: Vec<GoodRuns>,
    /// `inputs[j-1]` maps each principal with depth-`j` assumptions to
    /// those assumptions, in registration order. Principals *without*
    /// depth-`j` assumptions are omitted: stage `j` passes them through
    /// unchanged, so they cannot affect its output.
    inputs: Vec<BTreeMap<Principal, Vec<Formula>>>,
}

impl ConstructionCheckpoint {
    /// The number of completed stages recorded.
    pub fn stages(&self) -> usize {
        self.inputs.len()
    }

    /// How many leading stages a construction for `assumptions` could
    /// reuse from this checkpoint: the longest prefix of stages whose
    /// inputs are unchanged.
    pub fn reusable_stages(&self, assumptions: &InitialAssumptions) -> usize {
        self.inputs
            .iter()
            .zip(stage_inputs(assumptions))
            .take_while(|(old, new)| **old == *new)
            .count()
    }
}

/// The per-stage inputs of the construction for `assumptions`: element
/// `j-1` maps each principal to its depth-`j` assumptions (principals
/// with none at that depth omitted).
fn stage_inputs(assumptions: &InitialAssumptions) -> Vec<BTreeMap<Principal, Vec<Formula>>> {
    (1..=assumptions.max_depth())
        .map(|j| {
            assumptions
                .principals()
                .filter_map(|p| {
                    let fs: Vec<Formula> = assumptions
                        .of(p)
                        .iter()
                        .filter(|f| f.belief_depth() == j)
                        .cloned()
                        .collect();
                    (!fs.is_empty()).then(|| (p.clone(), fs))
                })
                .collect()
        })
        .collect()
}

/// As [`construct_on`], also returning a [`ConstructionCheckpoint`] that
/// a later [`resume_construct_on`] can pick up from.
///
/// # Errors
///
/// As for [`construct`].
pub fn construct_checkpointed_on(
    system: &System,
    assumptions: &InitialAssumptions,
    pool: &Pool,
) -> Result<(GoodRuns, ConstructionReport, ConstructionCheckpoint), GoodRunsError> {
    let cold = ConstructionCheckpoint::default();
    resume_construct_on(system, assumptions, &cold, pool).map(|(g, r, c, _)| (g, r, c))
}

/// Re-runs the construction for `assumptions`, reusing from `prior`
/// every leading stage whose inputs are unchanged and recomputing only
/// the suffix. Returns the vector, report, and a fresh checkpoint —
/// **identical** to what [`construct_checkpointed_on`] computes from
/// scratch on the same system — plus the number of stages reused.
///
/// `prior` must come from a construction over the *same* [`System`]
/// (same run set); the assumptions may differ arbitrarily.
///
/// # Errors
///
/// As for [`construct`].
pub fn resume_construct_on(
    system: &System,
    assumptions: &InitialAssumptions,
    prior: &ConstructionCheckpoint,
    pool: &Pool,
) -> Result<(GoodRuns, ConstructionReport, ConstructionCheckpoint, usize), GoodRunsError> {
    let cache = &mut EvalCache::default();
    construct_in(system, assumptions, Budget::unlimited(), prior, pool, cache)
        .map(|c| (c.goods, c.report, c.checkpoint, c.reused))
}

/// Everything one pass of [`construct_in`] yields; each public entry
/// point returns the parts its callers ask for.
pub(crate) struct Construction {
    pub(crate) goods: GoodRuns,
    pub(crate) report: ConstructionReport,
    /// For a later resume; a build its budget cut short leaves it
    /// partial, so budgeted callers drop it.
    pub(crate) checkpoint: ConstructionCheckpoint,
    /// Leading stages taken from the prior checkpoint.
    pub(crate) reused: usize,
    pub(crate) outcome: Saturation,
}

/// The one `G^j` stage loop behind every entry point above. It takes
/// from `prior` every leading stage whose inputs `assumptions` leave
/// unchanged (none, for the empty checkpoint of a cold build) and runs
/// the rest metered against `budget`, charging once per candidate, in
/// candidate order, before evaluating (see [`construct_budgeted_on`]).
///
/// Each candidate filter is one [`Semantics::map_runs`] over `cache`:
/// at one job `cache` keeps what the filters memoized, at more it ends
/// up prewarmed. Either way it holds facts about `system` alone, so a
/// caller can hand it on to a later evaluation over the same system.
pub(crate) fn construct_in(
    system: &System,
    assumptions: &InitialAssumptions,
    budget: Budget,
    prior: &ConstructionCheckpoint,
    pool: &Pool,
    cache: &mut EvalCache,
) -> Result<Construction, GoodRunsError> {
    assumptions.check()?;
    let meter = BudgetMeter::start(budget);
    let reused = prior.reusable_stages(assumptions);
    // Re-anchor each stored vector to the *new* assuming-principal set:
    // explicit entries for exactly those principals, with the stored
    // (semantic) value of each — `get` defaults new principals to "all
    // runs", which is what a cold build's `G⁰` gives them, since a
    // genuinely new principal with depth ≤ `reused` assumptions would
    // have changed those stages' inputs.
    let plain = GoodRuns::all_runs(system);
    let anchor = |stored: &GoodRuns| {
        let mut v = plain.clone();
        for p in assumptions.principals() {
            v.set(p.clone(), stored.get(p).clone());
        }
        v
    };
    let sizes = |v: &GoodRuns| -> BTreeMap<Principal, usize> {
        assumptions
            .principals()
            .map(|p| (p.clone(), v.get(p).len()))
            .collect()
    };
    let mut checkpoint = ConstructionCheckpoint {
        vectors: (0..=reused)
            .map(|j| anchor(prior.vectors.get(j).unwrap_or(&plain)))
            .collect(),
        inputs: stage_inputs(assumptions),
    };
    let mut report = ConstructionReport {
        stages: checkpoint.vectors[1..].iter().map(sizes).collect(),
    };
    let mut current = checkpoint.vectors[reused].clone();
    'stages: for j in (reused + 1)..=assumptions.max_depth() {
        let mut next = current.clone();
        for p in assumptions.principals() {
            let mut keep = current.get(p).clone();
            for f in assumptions.of(p).iter().filter(|f| f.belief_depth() == j) {
                let Formula::Believes(_, body) = f else {
                    unreachable!("checked shape");
                };
                let candidates: Vec<usize> = keep.into_iter().collect();
                let charged = candidates
                    .iter()
                    .take_while(|_| meter.charge(report.stages.len()))
                    .count();
                let verdicts = Semantics::map_runs(
                    system,
                    &current,
                    &candidates[..charged],
                    pool,
                    cache,
                    |sem, ri| sem.eval(Point::new(ri, 0), body),
                );
                keep = BTreeSet::new();
                for (&ri, verdict) in candidates.iter().zip(verdicts) {
                    if verdict? {
                        keep.insert(ri);
                    }
                }
                if charged < candidates.len() {
                    // Out of budget mid-stage: the partial stage is
                    // discarded and the last completed vector stands.
                    break 'stages;
                }
            }
            next.set(p.clone(), keep);
        }
        report.stages.push(sizes(&next));
        checkpoint.vectors.push(next.clone());
        current = next;
    }
    let outcome = if meter.exhausted() {
        Saturation::BudgetExhausted {
            facts: report.stages.len(),
            steps: meter.steps(),
        }
    } else {
        Saturation::Complete {
            new_facts: report.stages.len(),
        }
    };
    Ok(Construction {
        goods: current,
        report,
        checkpoint,
        reused,
        outcome,
    })
}

/// True if `goods` *supports* `assumptions`: every assumption holds at
/// every time-0 point of the system, relative to `goods`.
///
/// # Errors
///
/// Evaluation errors.
pub fn supports(
    system: &System,
    goods: &GoodRuns,
    assumptions: &InitialAssumptions,
) -> Result<bool, GoodRunsError> {
    supports_with(
        system,
        goods,
        assumptions,
        Rc::new(RefCell::new(EvalCache::default())),
    )
}

/// [`supports`] over a shared evaluation cache, so a caller probing many
/// candidate vectors on one system (the optimality search) pays for each
/// term-level computation once.
fn supports_with(
    system: &System,
    goods: &GoodRuns,
    assumptions: &InitialAssumptions,
    cache: Rc<RefCell<EvalCache>>,
) -> Result<bool, GoodRunsError> {
    let sem = Semantics::new_shared(system, goods.clone(), cache);
    for (_, f) in assumptions.iter() {
        for point in system.initial_points() {
            if !sem.eval(point, f)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Exhaustively decides whether `goods` is the **optimum** supporting
/// vector: every supporting vector `G'` satisfies `G' ≤ goods`.
///
/// Only the principals carrying assumptions are varied (others are fixed
/// at "all runs", which is trivially maximal).
///
/// # Errors
///
/// [`GoodRunsError::SearchSpaceTooLarge`] if more than `limit` candidate
/// vectors would be examined; evaluation errors.
pub fn is_optimum(
    system: &System,
    goods: &GoodRuns,
    assumptions: &InitialAssumptions,
    limit: u128,
) -> Result<bool, GoodRunsError> {
    Ok(find_witness_above(system, goods, assumptions, limit)?.is_none())
}

/// If `goods` is not optimum, returns a supporting vector not below it.
///
/// # Errors
///
/// As for [`is_optimum`].
pub fn find_witness_above(
    system: &System,
    goods: &GoodRuns,
    assumptions: &InitialAssumptions,
    limit: u128,
) -> Result<Option<GoodRuns>, GoodRunsError> {
    let principals: Vec<&Principal> = assumptions.principals().collect();
    let n_runs = system.len() as u32;
    let per = 1u128 << n_runs;
    let candidates = per
        .checked_pow(principals.len() as u32)
        .unwrap_or(u128::MAX);
    if candidates > limit {
        return Err(GoodRunsError::SearchSpaceTooLarge { candidates, limit });
    }
    let mut counter = vec![0u128; principals.len()];
    let cache = Rc::new(RefCell::new(EvalCache::default()));
    loop {
        // Materialize the candidate vector from the counters.
        let mut candidate = GoodRuns::all_runs(system);
        for (i, p) in principals.iter().enumerate() {
            let mask = counter[i];
            let runs: BTreeSet<usize> =
                (0..system.len()).filter(|r| mask & (1 << r) != 0).collect();
            candidate.set((*p).clone(), runs);
        }
        if !candidate.le(goods)
            && supports_with(system, &candidate, assumptions, Rc::clone(&cache))?
        {
            return Ok(Some(candidate));
        }
        // Increment the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == principals.len() {
                return Ok(None);
            }
            counter[i] += 1;
            if counter[i] < per {
                break;
            }
            counter[i] = 0;
            i += 1;
        }
        if principals.is_empty() {
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Message, Nonce};
    use atl_model::RunBuilder;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    /// Two runs: in run 0 the environment never touches Kab; in run 1 the
    /// environment guesses Kab and encrypts with it (so Kab is not a good
    /// key there).
    fn two_run_system() -> System {
        let good = {
            let mut b = RunBuilder::new(0);
            b.principal("A", [Key::new("Kab")]);
            b.principal("B", [Key::new("Kab")]);
            let c = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
            b.send("A", c.clone(), "B").unwrap();
            b.receive("B", &c).unwrap();
            b.build().unwrap()
        };
        let bad = {
            let mut b = RunBuilder::new(0);
            b.principal("A", [Key::new("Kab")]);
            b.principal("B", [Key::new("Kab")]);
            let env = Principal::environment();
            b.new_key(env.clone(), "Kab");
            let forged = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
            b.send(env, forged.clone(), "B").unwrap();
            b.receive("B", &forged).unwrap();
            b.build().unwrap()
        };
        System::new([good, bad])
    }

    fn key_assumption() -> InitialAssumptions {
        let mut i = InitialAssumptions::new();
        i.assume("A", Formula::shared_key("A", Key::new("Kab"), "B"));
        i
    }

    #[test]
    fn knowledge_alone_cannot_support_key_beliefs() {
        // The Section 6 motivation: with G = all runs, A cannot believe
        // Kab is good, because a key-guessing run is indistinguishable.
        let sys = two_run_system();
        let goods = GoodRuns::all_runs(&sys);
        assert!(!supports(&sys, &goods, &key_assumption()).unwrap());
    }

    #[test]
    fn construction_supports_depth_one_assumptions() {
        let sys = two_run_system();
        let i = key_assumption();
        let goods = construct(&sys, &i).unwrap();
        // Run 1 (environment encrypts with Kab) is excluded from A's good
        // runs; run 0 stays.
        assert_eq!(
            goods.get(&Principal::new("A")),
            &[0usize].into_iter().collect()
        );
        assert!(supports(&sys, &goods, &i).unwrap());
    }

    #[test]
    fn construction_is_optimum_under_i1_i2_depth_one() {
        let sys = two_run_system();
        let i = key_assumption();
        assert!(i.violates_i2().is_none());
        let goods = construct(&sys, &i).unwrap();
        assert!(is_optimum(&sys, &goods, &i, 1 << 20).unwrap());
    }

    #[test]
    fn nested_assumptions_stratify() {
        let sys = two_run_system();
        let mut i = InitialAssumptions::new();
        let base = Formula::shared_key("A", Key::new("Kab"), "B");
        i.assume("A", base.clone());
        i.assume("B", base.clone());
        // Depth-2: A believes (B believes base); I2 satisfied since B
        // assumes base itself.
        i.assume("A", Formula::believes("B", base));
        assert!(i.violates_i2().is_none());
        assert_eq!(i.max_depth(), 2);
        let goods = construct(&sys, &i).unwrap();
        assert!(supports(&sys, &goods, &i).unwrap());
        assert!(is_optimum(&sys, &goods, &i, 1 << 20).unwrap());
    }

    #[test]
    fn i1_violations_rejected() {
        let mut i = InitialAssumptions::new();
        i.assume("A", Formula::not(Formula::believes("A", Formula::True)));
        let sys = two_run_system();
        assert!(matches!(
            construct(&sys, &i),
            Err(GoodRunsError::ViolatesI1(_))
        ));
    }

    #[test]
    fn negation_inside_belief_is_allowed_by_i1() {
        // "A believes K is not a good key" is fine.
        let sys = two_run_system();
        let mut i = InitialAssumptions::new();
        i.assume(
            "A",
            Formula::not(Formula::shared_key("A", Key::new("Kother"), "B")),
        );
        assert!(construct(&sys, &i).is_ok());
    }

    #[test]
    fn i2_detection() {
        let mut i = InitialAssumptions::new();
        i.assume("A", Formula::believes("B", Formula::True));
        assert!(i.violates_i2().is_some());
        let mut ok = InitialAssumptions::new();
        ok.assume("B", Formula::True);
        ok.assume("A", Formula::believes("B", Formula::True));
        assert!(ok.violates_i2().is_none());
    }

    #[test]
    fn search_space_guard() {
        let sys = two_run_system();
        let i = key_assumption();
        let goods = construct(&sys, &i).unwrap();
        let err = is_optimum(&sys, &goods, &i, 1).unwrap_err();
        assert!(matches!(err, GoodRunsError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn unsatisfiable_assumption_empties_good_set() {
        // An assumption false at all time-0 points leaves no good runs:
        // the principal then believes everything (including the
        // assumption), so the construction still supports I.
        let sys = two_run_system();
        let mut i = InitialAssumptions::new();
        i.assume("A", Formula::falsum());
        let goods = construct(&sys, &i).unwrap();
        assert!(goods.get(&Principal::new("A")).is_empty());
        assert!(supports(&sys, &goods, &i).unwrap());
    }

    #[test]
    fn construction_report_tracks_stages() {
        let sys = two_run_system();
        let mut i = InitialAssumptions::new();
        let base = Formula::shared_key("A", Key::new("Kab"), "B");
        i.assume("A", base.clone());
        i.assume("B", base.clone());
        i.assume("A", Formula::believes("B", base));
        let (_, report) = construct_on(&sys, &i, &Pool::sequential()).unwrap();
        assert_eq!(report.depth(), 2);
        // Stage 1 trims both to the clean run; stage 2 keeps them there.
        assert_eq!(report.stages[0][&Principal::new("A")], 1);
        assert_eq!(report.stages[1][&Principal::new("A")], 1);
        assert!(report.emptied().is_empty());
    }

    #[test]
    fn construction_report_flags_absurd_believers() {
        let (sys, assumptions) = crate::examples::coin_toss();
        let (_, report) = construct_on(&sys, &assumptions, &Pool::sequential()).unwrap();
        let emptied = report.emptied();
        assert_eq!(emptied.len(), 2); // P1 and P3
    }

    #[test]
    fn budgeted_construction_degrades_to_coarser_vector() {
        let sys = two_run_system();
        let i = key_assumption();
        // One evaluation is not enough for the two runs of the system.
        let pool = Pool::sequential();
        let (goods, report, outcome) =
            construct_budgeted_on(&sys, &i, Budget::unlimited().steps(1), &pool).unwrap();
        assert!(matches!(
            outcome,
            Saturation::BudgetExhausted { steps: 1, .. }
        ));
        assert!(report.stages.is_empty(), "partial stage must be discarded");
        // The degraded answer is the coarser, pre-refinement vector.
        assert_eq!(goods, {
            let mut g = GoodRuns::all_runs(&sys);
            g.set(Principal::new("A"), [0, 1].into_iter().collect());
            g
        });
        // An unlimited budget reproduces the exact construction.
        let (full, _, outcome) =
            construct_budgeted_on(&sys, &i, Budget::unlimited(), &pool).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(full, construct(&sys, &i).unwrap());
    }

    fn depth_two_assumptions() -> InitialAssumptions {
        let mut i = InitialAssumptions::new();
        let base = Formula::shared_key("A", Key::new("Kab"), "B");
        i.assume("A", base.clone());
        i.assume("B", base.clone());
        i.assume("A", Formula::believes("B", base));
        i
    }

    #[test]
    fn checkpointed_construction_matches_plain() {
        let sys = two_run_system();
        let i = depth_two_assumptions();
        for jobs in [1, 2] {
            let pool = Pool::new(jobs);
            let (goods, report) = construct_on(&sys, &i, &pool).unwrap();
            let (g2, r2, ckpt) = construct_checkpointed_on(&sys, &i, &pool).unwrap();
            assert_eq!(goods, g2);
            assert_eq!(report, r2);
            assert_eq!(ckpt.stages(), 2);
            assert_eq!(ckpt.reusable_stages(&i), 2);
        }
    }

    #[test]
    fn resume_matches_cold_construction_for_every_edit_class() {
        let sys = two_run_system();
        let old = depth_two_assumptions();
        let base = Formula::shared_key("A", Key::new("Kab"), "B");

        // Each (edit, reusable-stage floor): depth-2 addition keeps
        // stage 1; depth-1 edits invalidate everything; pure reorders
        // and no-ops keep both stages.
        let mut add_depth2 = old.clone();
        add_depth2.assume("B", Formula::believes("A", base.clone()));
        let mut add_depth1 = old.clone();
        add_depth1.assume(
            "B",
            Formula::not(Formula::shared_key("B", Key::new("Kx"), "A")),
        );
        let mut removed = InitialAssumptions::new();
        removed.assume("A", base.clone());
        removed.assume("A", Formula::believes("B", base.clone()));
        let mut new_principal = old.clone();
        new_principal.assume("S", Formula::True);
        let edits: [(InitialAssumptions, usize); 5] = [
            (old.clone(), 2),
            (add_depth2, 1),
            (add_depth1, 0),
            (removed, 0),
            (new_principal, 0),
        ];

        for jobs in [1, 2] {
            let pool = Pool::new(jobs);
            let (_, _, ckpt) = construct_checkpointed_on(&sys, &old, &pool).unwrap();
            for (new, want_reused) in &edits {
                let (warm, warm_report, warm_ckpt, reused) =
                    resume_construct_on(&sys, new, &ckpt, &pool).unwrap();
                let (cold, cold_report, cold_ckpt) =
                    construct_checkpointed_on(&sys, new, &pool).unwrap();
                assert_eq!(warm, cold, "vector mismatch at jobs={jobs}");
                assert_eq!(warm_report, cold_report);
                assert_eq!(warm_ckpt, cold_ckpt, "checkpoint must be rebuilt as-cold");
                assert_eq!(reused, *want_reused);
            }
        }
    }

    #[test]
    fn resume_rejects_malformed_assumptions() {
        let sys = two_run_system();
        let pool = Pool::new(1);
        let (_, _, ckpt) = construct_checkpointed_on(&sys, &key_assumption(), &pool).unwrap();
        let mut bad = InitialAssumptions::new();
        bad.assume("A", Formula::not(Formula::believes("A", Formula::True)));
        assert!(matches!(
            resume_construct_on(&sys, &bad, &ckpt, &pool),
            Err(GoodRunsError::ViolatesI1(_))
        ));
    }

    #[test]
    fn empty_assumptions_yield_all_runs() {
        let sys = two_run_system();
        let i = InitialAssumptions::new();
        let goods = construct(&sys, &i).unwrap();
        assert_eq!(goods, GoodRuns::all_runs(&sys));
        assert!(supports(&sys, &goods, &i).unwrap());
    }
}
