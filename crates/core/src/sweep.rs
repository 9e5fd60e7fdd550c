//! Parallel fault sweeps with belief-survival reporting.
//!
//! [`atl_model`]'s sweep engine enumerates, deduplicates, and executes a
//! grid of [`FaultPlan`]s; this module is the bridge that turns those
//! executions into the *logic-level* robustness report an `atl inject
//! --sweep` prints:
//!
//! 1. the idealized protocol is enacted
//!    ([`enact_with`](crate::enact::enact_with)) and the grid executed
//!    over the pool ([`sweep_plans_on`]), with an [`ExecutionCache`] so
//!    overlapping grid points (and the inert baseline plan) run once;
//! 2. each surviving run is projected back onto the idealized protocol
//!    (which `→` steps were actually delivered) and its goals re-checked
//!    through [`MaskVerdicts`]: distinct plans with identical delivery
//!    patterns share one annotation pass, each pass is one delta
//!    saturation of the assumptions' closure, and the passes are sharded
//!    across the same pool;
//! 3. the distinct faulted runs become a [`System`](atl_model::System),
//!    audited run by run ([`validate_run`]), then fed to the good-run
//!    construction and to one [`Semantics::valid_all_on`] pass over every
//!    goal, so every goal also gets a *semantic* verdict over degraded
//!    traffic. Both passes evaluate over one evaluation cache: the
//!    construction fills it (one job) or prewarms it (more), and the
//!    validity pass picks it up as it stands.
//!
//! Every stage merges by index or first-occurrence order, so the
//! rendered [`FaultSweepReport`] is byte-identical at every `--jobs`
//! count — `tests/e16_sweep.rs` holds it to that.

use crate::annotate::{AtProtocol, AtStep};
use crate::budget::Budget;
use crate::enact::{enact_with, EnactOptions};
use crate::goodruns::{construct_in, ConstructionCheckpoint, InitialAssumptions};
use crate::parallel::Pool;
use crate::prover::{Prover, ProverConfig};
use crate::semantics::{EvalCache, GoodRuns, Semantics};
use atl_lang::{Formula, Message, Principal};
use atl_model::{
    sweep_plans_on, validate_run, Action, ExecOptions, ExecutionCache, ExpectPolicy, FaultPlan,
    Run, SweepGrid, SweepOutcome, SweepStats,
};
use std::collections::BTreeMap;
use std::fmt;

/// How to run a fault sweep over an idealized protocol.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The plan grid to enumerate.
    pub grid: SweepGrid,
    /// Execution options shared by every plan.
    pub options: ExecOptions,
    /// The degradation policy attached to every enacted expect step.
    pub expect_policy: ExpectPolicy,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            grid: SweepGrid::new(),
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::skip_after(6),
        }
    }
}

/// What one plan's execution meant for the protocol's beliefs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanVerdict {
    /// Execution failed (the plan starved a role past its policy, or the
    /// plan itself was invalid).
    Failed(String),
    /// Execution produced a well-formed run.
    Ok {
        /// Whether the run deviated from the clean interleaving at all.
        degraded: bool,
        /// Faults the executor applied.
        faults: usize,
        /// Expect steps abandoned by degrading roles.
        abandoned: usize,
        /// Idealized `→` steps whose message was actually delivered.
        delivered: usize,
        /// Goals achieved at baseline but lost under this plan.
        beliefs_lost: usize,
    },
}

/// Per-goal survival counts across the executed plans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoalSurvival {
    /// The goal formula.
    pub goal: Formula,
    /// Whether the baseline (fault-free) annotation derives it.
    pub baseline: bool,
    /// Plans (with well-formed runs) under which it is still derived.
    pub survived: usize,
    /// Plans under which the baseline derivation is lost.
    pub lost: usize,
    /// The semantic verdict of the goal over the system of distinct
    /// faulted runs, rendered (`valid` / `fails` / an error), if the
    /// sweep produced any runs.
    pub semantic: String,
}

/// The full result of a belief-survival fault sweep.
#[derive(Clone, Debug)]
pub struct FaultSweepReport {
    /// The protocol's name.
    pub protocol: String,
    /// Enumeration / dedup / cache / execution accounting.
    pub stats: SweepStats,
    /// One verdict per enumerated plan, in grid order.
    pub verdicts: Vec<(FaultPlan, PlanVerdict)>,
    /// Per-goal survival histogram.
    pub survival: Vec<GoalSurvival>,
    /// Total idealized `→` steps (the denominator of `delivered`).
    pub total_sends: usize,
    /// Distinct well-formed runs collected into the semantic system.
    pub distinct_runs: usize,
    /// Distinct runs violating restrictions 1–5 (always 0: the checked
    /// builder cannot emit them; audited anyway, as `inject` does).
    pub audit_violations: usize,
}

impl FaultSweepReport {
    /// True if every enumerated plan executed to a well-formed run.
    pub fn all_executed(&self) -> bool {
        self.stats.failed == 0
    }

    /// Plans whose runs lost at least one baseline belief.
    pub fn lossy_plans(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|(_, v)| matches!(v, PlanVerdict::Ok { beliefs_lost, .. } if *beliefs_lost > 0))
            .count()
    }
}

impl fmt::Display for FaultSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault sweep of {}:", self.protocol)?;
        writeln!(f, "  {}", self.stats)?;
        writeln!(
            f,
            "  {} distinct run(s); audit: {}",
            self.distinct_runs,
            if self.audit_violations == 0 {
                "restrictions 1-5 satisfied by every run".to_string()
            } else {
                format!("{} run(s) VIOLATE restrictions 1-5", self.audit_violations)
            }
        )?;
        writeln!(f, "plans:")?;
        for (plan, verdict) in &self.verdicts {
            match verdict {
                PlanVerdict::Failed(why) => writeln!(f, "  [failed]   {plan} — {why}")?,
                PlanVerdict::Ok {
                    degraded,
                    faults,
                    abandoned,
                    delivered,
                    beliefs_lost,
                } => {
                    let tag = if *degraded {
                        "[degraded]"
                    } else {
                        "[clean]   "
                    };
                    writeln!(
                        f,
                        "  {tag} {plan} — {faults} fault(s), {abandoned} abandoned, \
                         {delivered}/{} delivered, {beliefs_lost} belief(s) lost",
                        self.total_sends
                    )?;
                }
            }
        }
        let executed_ok = self.verdicts.len() - self.stats.failed;
        writeln!(f, "belief survival over {executed_ok} well-formed plan(s):")?;
        for s in &self.survival {
            if s.baseline {
                writeln!(
                    f,
                    "  [{}/{}] {}   (semantics: {})",
                    s.survived, executed_ok, s.goal, s.semantic
                )?;
            } else {
                writeln!(f, "  [unproven] {}   (semantics: {})", s.goal, s.semantic)?;
            }
        }
        Ok(())
    }
}

/// Is `message`, addressed to `to`, delivered somewhere in `run`?
/// (Sends to the environment count as delivered: there is no expect.)
fn delivered(run: &Run, to: &Principal, message: &Message) -> bool {
    *to == Principal::environment()
        || run.events().any(|(_, e)| {
            e.actor == *to && matches!(&e.action, Action::Receive { message: m } if m == message)
        })
}

/// The mask of idealized `→` steps whose message `run` delivered
/// (`true` = keep; `newkey` steps are always kept).
pub(crate) fn delivery_mask(at: &AtProtocol, run: &Run) -> Vec<bool> {
    at.steps
        .iter()
        .map(|s| match s {
            AtStep::Send { to, message, .. } => delivered(run, to, message),
            AtStep::NewKey { .. } => true,
        })
        .collect()
}

/// `at` restricted to the steps of `mask` — the degraded idealized
/// protocol a faulted run actually carried out.
pub fn degrade_at(at: &AtProtocol, mask: &[bool]) -> AtProtocol {
    let mut degraded = at.clone();
    degraded.steps = at
        .steps
        .iter()
        .zip(mask)
        .filter(|(_, keep)| **keep)
        .map(|(s, _)| s.clone())
        .collect();
    degraded
}

/// How many of `at`'s idealized `→` steps `mask` keeps.
pub(crate) fn sends_kept(at: &AtProtocol, mask: &[bool]) -> usize {
    at.steps
        .iter()
        .zip(mask)
        .filter(|(s, keep)| **keep && matches!(s, AtStep::Send { .. }))
        .count()
}

/// Per-goal annotation verdicts of one protocol under delivery masks,
/// each mask annotated at most once.
///
/// A mask's verdict is whether each goal holds in the final closure of
/// the Section 4.3 procedure over the kept steps, i.e. of
/// [`analyze_at`](crate::annotate::analyze_at) over [`degrade_at`]. That
/// closure is cl(assumptions ∪ the kept steps' `sees`/`has` facts), a
/// unique fixpoint however the facts arrive, so the assumptions are
/// saturated once (lazily, on the first miss) and each missing mask
/// costs one clone of that prover plus one [`Prover::saturate_delta`]
/// over its kept steps' facts. Verdicts are memoized per mask, and a
/// batch of missing masks is annotated over the pool.
pub struct MaskVerdicts {
    assumptions: Vec<Formula>,
    /// The fact each step asserts, by step index.
    step_facts: Vec<Formula>,
    goals: Vec<Formula>,
    /// The saturated closure of the assumptions, built on the first miss.
    base: Option<Prover>,
    memo: BTreeMap<Vec<bool>, Vec<bool>>,
    passes: u64,
}

impl MaskVerdicts {
    /// An empty memo for `at`.
    pub fn new(at: &AtProtocol) -> Self {
        MaskVerdicts {
            assumptions: at.assumptions.clone(),
            step_facts: at
                .steps
                .iter()
                .map(|step| match step {
                    AtStep::Send { to, message, .. } => Formula::sees(to.clone(), message.clone()),
                    AtStep::NewKey { principal, key } => {
                        Formula::has(principal.clone(), key.clone())
                    }
                })
                .collect(),
            goals: at.goals.clone(),
            base: None,
            memo: BTreeMap::new(),
            passes: 0,
        }
    }

    /// The mask keeping every step: its verdict is the baseline
    /// annotation's, the goal flags of [`analyze_at`](crate::annotate::analyze_at)
    /// over the whole protocol.
    pub fn all_kept(&self) -> Vec<bool> {
        vec![true; self.step_facts.len()]
    }

    /// Makes sure every mask of `masks` has its flags: memoized ones are
    /// kept, and the rest are annotated over `pool`, in first-occurrence
    /// order.
    pub fn resolve<'m>(&mut self, masks: impl IntoIterator<Item = &'m [bool]>, pool: &Pool) {
        let mut missing: Vec<Vec<bool>> = Vec::new();
        for mask in masks {
            if !self.memo.contains_key(mask) && !missing.iter().any(|m| m == mask) {
                missing.push(mask.to_vec());
            }
        }
        if missing.is_empty() {
            return;
        }
        let assumptions = &self.assumptions;
        let base = self.base.get_or_insert_with(|| {
            let mut prover =
                Prover::with_config(assumptions.iter().cloned(), ProverConfig::default());
            prover.saturate();
            prover
        });
        let (step_facts, goals) = (&self.step_facts, &self.goals);
        let flags = pool.map(&missing, |_, mask| {
            let mut prover = base.clone();
            prover.saturate_delta(
                step_facts
                    .iter()
                    .zip(mask)
                    .filter(|(_, keep)| **keep)
                    .map(|(fact, _)| fact.clone()),
            );
            goals.iter().map(|g| prover.holds(g)).collect::<Vec<bool>>()
        });
        self.passes += missing.len() as u64;
        self.memo.extend(missing.into_iter().zip(flags));
    }

    /// The flags of a [resolved](Self::resolve) mask, one per goal.
    pub fn get(&self, mask: &[bool]) -> Option<&[bool]> {
        self.memo.get(mask).map(Vec::as_slice)
    }

    /// The flags of `mask`, resolving it on this thread if needed.
    pub fn flags(&mut self, mask: &[bool]) -> &[bool] {
        self.resolve([mask], &Pool::sequential());
        self.get(mask).expect("resolved above")
    }

    /// How many masks were annotated: one delta saturation each.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

/// The belief-shaped assumptions of `at`, as the initial-assumption
/// vector the Section 7 good-run construction expects.
pub(crate) fn belief_assumptions(at: &AtProtocol) -> InitialAssumptions {
    let mut init = InitialAssumptions::new();
    for f in &at.assumptions {
        if let Formula::Believes(p, body) = f {
            init.assume(p.clone(), (**body).clone());
        }
    }
    init
}

/// Runs the full sweep → belief-survival pipeline over `pool`.
///
/// `cache` persists executions across calls: sweeping a refined grid
/// after a coarse one (or re-running the baseline plan) only executes
/// the new fingerprints. The returned report renders byte-identically
/// at every worker count.
pub fn fault_sweep_with_cache(
    at: &AtProtocol,
    config: &SweepConfig,
    pool: &Pool,
    cache: &ExecutionCache,
) -> FaultSweepReport {
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: config.expect_policy,
        },
    );
    let outcome = sweep_plans_on(&proto, &config.options, &config.grid.plans(), pool, cache);
    survival_report(at, outcome, pool)
}

/// Turns a finished [`SweepOutcome`] into the belief-survival report —
/// the half of the pipeline *after* execution. Split out so callers
/// that resolve outcomes differently (the distributed fabric, which
/// executes plans on remote daemons and persisted stores) feed the very
/// same annotation/semantics/rendering path as a local sweep.
///
/// Its stages: one annotation pass per distinct delivery mask
/// ([`MaskVerdicts`]), per-plan verdicts in grid order, the audit of
/// every distinct run, then the semantic stage — the good-run
/// construction and one validity pass over every goal, both evaluating
/// over one evaluation cache of the distinct runs' system.
pub fn survival_report(at: &AtProtocol, outcome: SweepOutcome, pool: &Pool) -> FaultSweepReport {
    // One annotation pass per distinct delivery mask (many plans resolve
    // to the same delivered-step pattern), the baseline's all-kept mask
    // first and then grid order.
    let masks: Vec<Option<Vec<bool>>> = outcome
        .results
        .iter()
        .map(|r| r.ok().map(|(run, _)| delivery_mask(at, run)))
        .collect();
    let mut verdicts = MaskVerdicts::new(at);
    let all_kept = verdicts.all_kept();
    verdicts.resolve(
        std::iter::once(all_kept.as_slice()).chain(masks.iter().flatten().map(Vec::as_slice)),
        pool,
    );
    let baseline_flags = verdicts.get(&all_kept).expect("resolved above");

    // Per-plan verdicts in grid order.
    let total_sends = sends_kept(at, &all_kept);
    let mut survived = vec![0usize; at.goals.len()];
    let mut lost = vec![0usize; at.goals.len()];
    let plan_verdicts: Vec<(FaultPlan, PlanVerdict)> = outcome
        .results
        .iter()
        .zip(&masks)
        .map(|(r, mask)| {
            let verdict = match (r.ok(), mask) {
                (Some((_, report)), Some(mask)) => {
                    let flags = verdicts.get(mask).expect("resolved above");
                    let mut beliefs_lost = 0;
                    for (g, (base, now)) in baseline_flags.iter().zip(flags).enumerate() {
                        if *base && *now {
                            survived[g] += 1;
                        } else if *base {
                            beliefs_lost += 1;
                            lost[g] += 1;
                        }
                    }
                    PlanVerdict::Ok {
                        degraded: report.degraded(),
                        faults: report.faults.len(),
                        abandoned: report.abandoned.len(),
                        delivered: sends_kept(at, mask),
                        beliefs_lost,
                    }
                }
                _ => PlanVerdict::Failed(match r.outcome.as_ref() {
                    Err(e) => e.to_string(),
                    Ok(_) => "unreachable: ok run without mask".to_string(),
                }),
            };
            (r.plan.clone(), verdict)
        })
        .collect();

    // The semantic stage: distinct faulted runs, audited, then good-run
    // construction and one validity sweep over every goal — all over the
    // pool.
    let system = outcome.system();
    let audit_violations = pool
        .map(system.runs(), |_, run| validate_run(run).len())
        .into_iter()
        .filter(|n| *n > 0)
        .count();
    let semantic: Vec<String> = if system.is_empty() {
        vec!["no runs".to_string(); at.goals.len()]
    } else {
        // One evaluation cache for both passes: it holds facts about the
        // system alone, whatever good-run vector an evaluator uses.
        let mut cache = EvalCache::default();
        let (beliefs, unlimited) = (belief_assumptions(at), Budget::unlimited());
        let cold = ConstructionCheckpoint::default();
        let goods = match construct_in(&system, &beliefs, unlimited, &cold, pool, &mut cache) {
            Ok(c) => c.goods,
            Err(_) => GoodRuns::all_runs(&system),
        };
        Semantics::valid_all_in(&system, &goods, &at.goals, pool, &mut cache)
            .into_iter()
            .map(|verdict| match verdict {
                Ok(true) => "valid".to_string(),
                Ok(false) => "fails".to_string(),
                Err(e) => format!("error: {e}"),
            })
            .collect()
    };
    let survival: Vec<GoalSurvival> = at
        .goals
        .iter()
        .zip(semantic)
        .enumerate()
        .map(|(g, (goal, semantic))| GoalSurvival {
            goal: goal.clone(),
            baseline: baseline_flags[g],
            survived: survived[g],
            lost: lost[g],
            semantic,
        })
        .collect();

    FaultSweepReport {
        protocol: at.name.clone(),
        stats: outcome.stats,
        verdicts: plan_verdicts,
        survival,
        total_sends,
        distinct_runs: system.len(),
        audit_violations,
    }
}

/// As [`fault_sweep_with_cache`] with a fresh cache — the common
/// one-shot entry point behind `atl inject --sweep`.
pub fn fault_sweep(at: &AtProtocol, config: &SweepConfig, pool: &Pool) -> FaultSweepReport {
    fault_sweep_with_cache(at, config, pool, &ExecutionCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Nonce};

    /// Figure 1 (Kerberos fragment), as in the enact tests.
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
        AtProtocol::new("kerberos-sweep")
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

    fn config(grid: SweepGrid) -> SweepConfig {
        SweepConfig {
            grid,
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::skip_after(3),
        }
    }

    #[test]
    fn clean_grid_keeps_every_belief() {
        let report = fault_sweep(
            &figure1(),
            &config(SweepGrid::new().seeds(0..3)),
            &Pool::sequential(),
        );
        assert_eq!(report.stats.enumerated, 3);
        // Three inert seeds collapse to one execution.
        assert_eq!(report.stats.executed, 1);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.lossy_plans(), 0);
        assert!(report.all_executed());
        assert_eq!(report.distinct_runs, 1);
        assert_eq!(report.audit_violations, 0);
        for s in &report.survival {
            if s.baseline {
                assert_eq!(s.survived, 3);
                assert_eq!(s.lost, 0);
            }
        }
        let shown = report.to_string();
        assert!(shown.contains("[clean]"), "{shown}");
        assert!(shown.contains("belief survival"), "{shown}");
    }

    #[test]
    fn total_loss_degrades_beliefs_and_report_is_jobs_invariant() {
        let grid = SweepGrid::new().seeds(0..2).drop_steps([0.0, 1.0]);
        let reference = fault_sweep(&figure1(), &config(grid.clone()), &Pool::sequential());
        // Certain drop starves B: its belief-relevant sight is lost.
        assert!(reference.lossy_plans() > 0, "{reference}");
        assert!(reference.stats.degraded > 0);
        // Dedup: 2 seeds × {clean, certain-drop} → 2 executions.
        assert_eq!(reference.stats.executed, 2);
        for jobs in [2, 4] {
            let report = fault_sweep(&figure1(), &config(grid.clone()), &Pool::new(jobs));
            assert_eq!(report.to_string(), reference.to_string(), "jobs={jobs}");
        }
    }

    #[test]
    fn cache_spans_sweep_stages() {
        let cache = ExecutionCache::new();
        let pool = Pool::sequential();
        let coarse = config(SweepGrid::new().seeds(0..2).drop_steps([0.0, 1.0]));
        let first = fault_sweep_with_cache(&figure1(), &coarse, &pool, &cache);
        assert_eq!(first.stats.cache_hits, 0);
        // A refined grid over the same axis: the shared points are hits.
        let refined = config(SweepGrid::new().seeds(0..2).drop_steps([0.0, 0.5, 1.0]));
        let second = fault_sweep_with_cache(&figure1(), &refined, &pool, &cache);
        assert_eq!(second.stats.cache_hits, 2);
        assert!(second.stats.executed < second.stats.unique);
    }
}
