//! E15: the parallel engine is *invisible* — equivalence guards for the
//! work-stealing pool.
//!
//! Three layers run over the pool: the Section 7 good-run construction
//! (one stage loop behind `construct_budgeted_on` and
//! `resume_construct_on`), the semantics sweep (`Semantics::sweep_on` /
//! `valid_on`, through one run-sharded evaluator), and batch proving
//! (`BatchProver`). Each shards work over the pool and merges results in
//! deterministic order, so the outputs must be bit-identical to a
//! sequential reference at every worker count, one worker included — on
//! every committed spec and on randomized systems, with and without
//! budgets. The construction and sweep references below are written
//! against the public API alone, so they share no code with the paths
//! they check.

use atl::core::budget::{Budget, BudgetMeter, Saturation};
use atl::core::enact::enact;
use atl::core::goodruns::{
    construct_budgeted_on, construct_checkpointed_on, resume_construct_on, ConstructionCheckpoint,
    ConstructionReport, GoodRunsError, InitialAssumptions,
};
use atl::core::parallel::Pool;
use atl::core::prover::{BatchProver, DerivedRule, Prover};
use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::spec::parse_spec;
use atl::lang::arbitrary::arb_formula;
use atl::lang::{Formula, Key, Message, Nonce};
use atl::model::{
    execute_with_faults, random_system, ExecOptions, FaultPlan, GenConfig, Point, System,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// The worker counts exercised against the sequential references.
const JOBS: &[usize] = &[1, 2, 4];

/// A faithful (fault-free) execution of a committed spec, as a system.
fn spec_system(src: &str) -> (System, atl::core::annotate::AtProtocol) {
    let (at, _) = parse_spec(src).expect("spec parses");
    let proto = enact(&at);
    let (run, _) = execute_with_faults(&proto, &ExecOptions::default(), &FaultPlan::new(0))
        .expect("fault-free execution");
    (System::new([run]), at)
}

/// The spec's belief-shaped assumptions as an initial-assumption vector.
fn spec_assumptions(at: &atl::core::annotate::AtProtocol) -> InitialAssumptions {
    let mut i = InitialAssumptions::new();
    for f in &at.assumptions {
        if let Formula::Believes(p, body) = f {
            i.assume(p.clone(), (**body).clone());
        }
    }
    i
}

/// The e3 pool of I1-respecting assumption bodies.
fn bodies() -> Vec<Formula> {
    vec![
        Formula::shared_key("A", Key::new("Kas"), "S"),
        Formula::shared_key("B", Key::new("Kbs"), "S"),
        Formula::fresh(Message::nonce(Nonce::new("Zunused"))),
        Formula::not(Formula::shared_key("A", Key::new("Ke"), "B")),
        Formula::has("S", Key::new("Kas")),
        Formula::controls("S", Formula::shared_key("A", Key::new("Kab"), "B")),
    ]
}

/// Sequential reference construction: one evaluator per stage, the
/// budget charged right before each evaluation, and the first error
/// returned at once.
fn construct_reference(
    system: &System,
    assumptions: &InitialAssumptions,
    budget: Budget,
) -> Result<(GoodRuns, ConstructionReport, Saturation), GoodRunsError> {
    assumptions.check()?;
    let meter = BudgetMeter::start(budget);
    let mut current = GoodRuns::all_runs(system);
    let all: BTreeSet<usize> = (0..system.len()).collect();
    // Make every assuming principal explicit so `set` updates land.
    for p in assumptions.principals() {
        current.set(p.clone(), all.clone());
    }
    let mut report = ConstructionReport::default();
    'stages: for j in 1..=assumptions.max_depth() {
        let sem = Semantics::new(system, current.clone());
        let mut next = current.clone();
        let mut stage = BTreeMap::new();
        for p in assumptions.principals() {
            let mut keep = current.get(p).clone();
            for f in assumptions.of(p) {
                if f.belief_depth() != j {
                    continue;
                }
                let Formula::Believes(_, body) = f else {
                    unreachable!("checked shape");
                };
                let mut surviving = BTreeSet::new();
                for &ri in &keep {
                    if !meter.charge(report.stages.len()) {
                        // Out of budget mid-stage: the partial stage is
                        // discarded and the last completed vector stands.
                        break 'stages;
                    }
                    if sem.eval(Point::new(ri, 0), body)? {
                        surviving.insert(ri);
                    }
                }
                keep = surviving;
            }
            stage.insert(p.clone(), keep.len());
            next.set(p.clone(), keep);
        }
        report.stages.push(stage);
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
    Ok((current, report, outcome))
}

/// Sequential reference sweep: one evaluator, every point in order,
/// collected with the same first-error semantics as `sweep_on`.
fn sweep_reference(
    sys: &System,
    goods: &GoodRuns,
    phi: &Formula,
) -> Result<Vec<bool>, atl::core::semantics::SemanticsError> {
    let sem = Semantics::new(sys, goods.clone());
    sys.points().map(|pt| sem.eval(pt, phi)).collect()
}

/// On every committed spec, the good-run construction and the sweep
/// over each goal agree exactly with the sequential references, budgeted
/// or not.
#[test]
fn specs_construct_and_sweep_identically_at_every_worker_count() {
    for (name, src) in SPECS {
        let (sys, at) = spec_system(src);
        let assumptions = spec_assumptions(&at);
        for budget in [Budget::unlimited().steps(1), Budget::unlimited()] {
            let want = construct_reference(&sys, &assumptions, budget);
            for &jobs in JOBS {
                let pool = Pool::new(jobs);
                assert_eq!(
                    construct_budgeted_on(&sys, &assumptions, budget, &pool),
                    want,
                    "{name}: good-run construction under {budget} differs at {jobs} workers"
                );
            }
        }
        let seq = construct_reference(&sys, &assumptions, Budget::unlimited());
        let goods = match &seq {
            Ok((g, _, _)) => g.clone(),
            Err(_) => GoodRuns::all_runs(&sys),
        };
        for phi in at.goals.iter().chain(at.assumptions.iter()) {
            let want = sweep_reference(&sys, &goods, phi);
            for &jobs in JOBS {
                let pool = Pool::new(jobs);
                assert_eq!(
                    Semantics::sweep_on(&sys, &goods, phi, &pool),
                    want,
                    "{name}: sweep of {phi} differs at {jobs} workers"
                );
                assert_eq!(
                    Semantics::valid_on(&sys, &goods, phi, &pool),
                    want.clone().map(|v| v.into_iter().all(|b| b)),
                    "{name}: validity of {phi} differs at {jobs} workers"
                );
            }
        }
    }
}

/// On every committed spec, batch proving the protocol's goals from its
/// assumptions reaches the same fixpoint, by the same trace, with the
/// same verdicts as one-by-one sequential proving.
#[test]
fn specs_batch_prover_matches_sequential() {
    let jobs_for = |specs: &[(&str, &str)]| -> Vec<(Prover, Vec<Formula>)> {
        specs
            .iter()
            .map(|(_, src)| {
                let (at, _) = parse_spec(src).expect("spec parses");
                (Prover::new(at.assumptions.clone()), at.goals.clone())
            })
            .collect()
    };
    let sequential: Vec<_> = jobs_for(SPECS)
        .into_iter()
        .map(|(mut prover, goals)| {
            let saturation = prover.saturate();
            let verdicts: Vec<_> = goals.iter().map(|g| prover.verdict(g)).collect();
            (prover, saturation, verdicts)
        })
        .collect();
    for &jobs in JOBS {
        let batch = BatchProver::new(Pool::new(jobs)).prove_all(jobs_for(SPECS));
        assert_eq!(batch.len(), sequential.len());
        for (out, (prover, saturation, verdicts)) in batch.iter().zip(&sequential) {
            assert_eq!(out.prover.facts(), prover.facts(), "{jobs} workers");
            assert_eq!(out.prover.trace(), prover.trace(), "{jobs} workers");
            assert_eq!(&out.saturation, saturation, "{jobs} workers");
            assert_eq!(&out.verdicts, verdicts, "{jobs} workers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The good-run construction is bit-identical to the sequential
    /// reference on random systems: same good-run vectors, same
    /// per-stage report, same saturation outcome.
    #[test]
    fn random_goodruns_equivalent(
        runs in 1usize..5,
        seed in 0u64..64,
        picks in proptest::collection::vec(0usize..6, 1..4),
    ) {
        let sys = random_system(&GenConfig::default(), runs, seed);
        let pool_bodies = bodies();
        let mut i = InitialAssumptions::new();
        for (n, &b) in picks.iter().enumerate() {
            let p = if n % 2 == 0 { "A" } else { "B" };
            i.assume(p, pool_bodies[b].clone());
        }
        let seq = construct_reference(&sys, &i, Budget::unlimited());
        for &jobs in JOBS {
            let par = construct_budgeted_on(&sys, &i, Budget::unlimited(), &Pool::new(jobs));
            prop_assert_eq!(&seq, &par, "{} workers", jobs);
        }
    }

    /// Resuming from the checkpoint of one assumption vector after a
    /// random edit (a kept prefix of the old assumptions plus new ones,
    /// at belief depths 1 and 2) gives what the reference builds cold
    /// for the edited vector.
    #[test]
    fn random_resume_matches_reference(
        runs in 1usize..4,
        seed in 0u64..32,
        picks in proptest::collection::vec((0usize..3, 0usize..6, 1usize..3), 1..5),
        kept in 0usize..5,
        added in proptest::collection::vec((0usize..3, 0usize..6, 1usize..3), 0..3),
    ) {
        let sys = random_system(&GenConfig::default(), runs, seed);
        let pool_bodies = bodies();
        let principals = ["A", "B", "S"];
        let assume = |picks: &[(usize, usize, usize)]| {
            let mut i = InitialAssumptions::new();
            for &(p, b, depth) in picks {
                let body = pool_bodies[b].clone();
                if depth == 2 {
                    let q = principals[(p + 1) % principals.len()];
                    i.assume(principals[p], Formula::believes(q, body));
                } else {
                    i.assume(principals[p], body);
                }
            }
            i
        };
        let old = assume(&picks);
        let edited: Vec<_> = picks[..kept.min(picks.len())].iter().chain(&added).copied().collect();
        let new = assume(&edited);
        let want = construct_reference(&sys, &new, Budget::unlimited()).map(|(g, r, _)| (g, r));
        for jobs in [1, 2] {
            let pool = Pool::new(jobs);
            let prior = construct_checkpointed_on(&sys, &old, &pool)
                .map(|(_, _, ckpt)| ckpt)
                .unwrap_or_else(|_| ConstructionCheckpoint::default());
            let got = resume_construct_on(&sys, &new, &prior, &pool).map(|(g, r, _, _)| (g, r));
            prop_assert_eq!(&got, &want, "{} workers", jobs);
        }
    }

    /// Budgeted construction is equivalent too: the pre-charge pattern
    /// makes step counts, exhaustion points, and partial-stage discards
    /// identical under any scheduling — including zero budgets.
    #[test]
    fn random_budgeted_goodruns_equivalent(
        runs in 1usize..4,
        seed in 0u64..32,
        steps in 0u64..24,
    ) {
        let sys = random_system(&GenConfig::default(), runs, seed);
        let mut i = InitialAssumptions::new();
        i.assume("B", Formula::shared_key("A", Key::new("Kas"), "S"));
        i.assume("A", Formula::believes("B", Formula::shared_key("A", Key::new("Kas"), "S")));
        let budget = Budget::unlimited().steps(steps);
        let seq = construct_reference(&sys, &i, budget);
        for &jobs in JOBS {
            let par = construct_budgeted_on(&sys, &i, budget, &Pool::new(jobs));
            prop_assert_eq!(&seq, &par, "{} workers, {} steps", jobs, steps);
        }
    }

    /// Parallel sweeps return exactly the sequential verdict vector —
    /// including the position of the first error — for random formulas
    /// over random systems.
    #[test]
    fn random_sweeps_equivalent(
        runs in 1usize..4,
        seed in 0u64..64,
        formulas in proptest::collection::vec(arb_formula(2), 1..4),
    ) {
        let sys = random_system(&GenConfig::default(), runs, seed);
        let goods = GoodRuns::all_runs(&sys);
        for phi in &formulas {
            let want = sweep_reference(&sys, &goods, phi);
            for &jobs in JOBS {
                let pool = Pool::new(jobs);
                prop_assert_eq!(
                    Semantics::sweep_on(&sys, &goods, phi, &pool),
                    want.clone(),
                    "{} at {} workers", phi, jobs
                );
                prop_assert_eq!(
                    Semantics::valid_on(&sys, &goods, phi, &pool),
                    want.clone().map(|v| v.into_iter().all(|b| b)),
                    "{} at {} workers", phi, jobs
                );
            }
        }
    }

    /// Batch proving random independent jobs matches proving them one by
    /// one: same fixpoints, same traces, same verdicts.
    #[test]
    fn random_batch_prover_equivalent(
        job_seeds in proptest::collection::vec(
            (proptest::collection::vec(arb_formula(3), 1..5), arb_formula(2)),
            1..5,
        ),
    ) {
        let make_jobs = || -> Vec<(Prover, Vec<Formula>)> {
            job_seeds
                .iter()
                .map(|(facts, goal)| (Prover::new(facts.clone()), vec![goal.clone()]))
                .collect()
        };
        let sequential: Vec<_> = make_jobs()
            .into_iter()
            .map(|(mut prover, goals)| {
                let saturation = prover.saturate();
                let verdicts: Vec<_> = goals.iter().map(|g| prover.verdict(g)).collect();
                (prover, saturation, verdicts)
            })
            .collect();
        for &jobs in JOBS {
            let batch = BatchProver::new(Pool::new(jobs)).prove_all(make_jobs());
            for (out, (prover, saturation, verdicts)) in batch.iter().zip(&sequential) {
                prop_assert_eq!(out.prover.facts(), prover.facts());
                prop_assert_eq!(out.prover.trace(), prover.trace());
                prop_assert_eq!(&out.saturation, saturation);
                prop_assert_eq!(&out.verdicts, verdicts);
            }
        }
    }

    /// A shared budget is a *global* cap: however the pool schedules the
    /// jobs, the total derivation work across all of them never exceeds
    /// the budget, and verdicts stay three-valued (no false NotProved).
    #[test]
    fn shared_budget_bounds_total_work(cap in 1u64..12) {
        let job_specs: Vec<(Prover, Vec<Formula>)> = SPECS
            .iter()
            .map(|(_, src)| {
                let (at, _) = parse_spec(src).expect("spec parses");
                (Prover::new(at.assumptions.clone()), at.goals.clone())
            })
            .collect();
        let batch = BatchProver::with_shared_budget(
            Pool::new(2),
            Budget::unlimited().steps(cap),
        )
        .prove_all(job_specs);
        // Every successful charge admits at most one novel non-Given
        // fact, so the combined traces bound the spent budget.
        let derived: usize = batch
            .iter()
            .map(|o| {
                o.prover
                    .trace()
                    .iter()
                    .filter(|s| s.rule != DerivedRule::Given)
                    .count()
            })
            .sum();
        prop_assert!(
            derived as u64 <= cap,
            "derived {} non-Given facts under a global budget of {}",
            derived,
            cap
        );
        // The specs have real derivation work, so a tiny global budget
        // must leave at least one job short of its fixpoint.
        prop_assert!(
            batch.iter().any(|o| !o.saturation.is_complete()),
            "no job reported exhaustion under a {}-step global budget",
            cap
        );
    }
}
