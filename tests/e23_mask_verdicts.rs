//! E23: delivery-mask verdicts — the annotation layer computed once per
//! delivery mask by delta saturation, shared by sweep, hunt and inject.
//!
//! `MaskVerdicts` replaces a step-by-step re-annotation per mask with one
//! delta saturation of the assumptions' closure, so it must agree with
//! `analyze_at` over the degraded protocol on every mask: all 2^n masks of
//! every committed spec, and every mask of random protocols, at pool
//! widths 1 and 2. `Semantics::valid_all_on`, which checks every goal's
//! validity through one evaluator, must give each formula exactly the
//! sequential `valid`'s verdict or error at widths 1, 2 and 4.

use atl::core::annotate::{analyze_at, AtProtocol, AtStep};
use atl::core::parallel::Pool;
use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::spec::parse_spec;
use atl::core::sweep::{degrade_at, MaskVerdicts};
use atl::lang::arbitrary::{arb_formula, arb_key, arb_message, arb_principal};
use atl::lang::Formula;
use atl::model::{random_system, GenConfig};
use proptest::prelude::*;

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

/// Every mask over `n` steps.
fn all_masks(n: usize) -> Vec<Vec<bool>> {
    (0..1u32 << n)
        .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
        .collect()
}

/// The goal flags of the step-by-step annotation of `at` over `mask`.
fn reference_flags(at: &AtProtocol, mask: &[bool]) -> Vec<bool> {
    analyze_at(&degrade_at(at, mask))
        .goals
        .iter()
        .map(|(_, ok)| *ok)
        .collect()
}

/// Resolves every mask of `at` at pool width `jobs` and compares each
/// verdict, and the all-kept baseline, with the step-by-step annotation.
fn check_every_mask(at: &AtProtocol, jobs: usize) -> Result<(), String> {
    let masks = all_masks(at.steps.len());
    let mut verdicts = MaskVerdicts::new(at);
    let pool = Pool::new(jobs);
    verdicts.resolve(masks.iter().map(Vec::as_slice), &pool);
    if verdicts.passes() != masks.len() as u64 {
        return Err(format!(
            "{} passes for {} masks",
            verdicts.passes(),
            masks.len()
        ));
    }
    let baseline: Vec<bool> = analyze_at(at).goals.iter().map(|(_, ok)| *ok).collect();
    if verdicts.get(&verdicts.all_kept()) != Some(baseline.as_slice()) {
        return Err("the all-kept mask differs from analyze_at".to_string());
    }
    for mask in &masks {
        let want = reference_flags(at, mask);
        if verdicts.get(mask) != Some(want.as_slice()) {
            return Err(format!(
                "mask {mask:?}: {:?} vs analyze_at {want:?}",
                verdicts.get(mask)
            ));
        }
    }
    // Resolving again answers every mask from the memo.
    verdicts.resolve(masks.iter().map(Vec::as_slice), &pool);
    if verdicts.passes() != masks.len() as u64 {
        return Err("a memoized mask was annotated again".to_string());
    }
    Ok(())
}

#[test]
fn every_mask_of_every_spec_matches_the_step_by_step_annotation() {
    for (name, src) in SPECS {
        let (at, _) = parse_spec(src).expect("spec parses");
        for jobs in [1, 2] {
            if let Err(why) = check_every_mask(&at, jobs) {
                panic!("{name} at jobs {jobs}: {why}");
            }
        }
    }
}

/// A random idealized protocol: random assumptions, up to five random
/// send or `newkey` steps, random goals plus each step's own fact (so
/// some goals hold exactly when their step is kept).
fn arb_protocol() -> impl Strategy<Value = AtProtocol> {
    (
        proptest::collection::vec(arb_formula(2), 0..5),
        proptest::collection::vec((arb_principal(), arb_message(2), arb_key(), 0u8..4), 0..6),
        proptest::collection::vec(arb_formula(2), 0..3),
    )
        .prop_map(|(assumptions, steps, goals)| {
            let mut at = AtProtocol::new("random");
            at.assumptions = assumptions;
            for (principal, message, key, kind) in steps {
                let step = if kind == 0 {
                    AtStep::NewKey { principal, key }
                } else {
                    AtStep::Send {
                        from: principal.clone(),
                        to: principal,
                        message,
                    }
                };
                at.goals.push(match &step {
                    AtStep::Send { to, message, .. } => Formula::sees(to.clone(), message.clone()),
                    AtStep::NewKey { principal, key } => {
                        Formula::has(principal.clone(), key.clone())
                    }
                });
                at.steps.push(step);
            }
            at.goals.extend(goals);
            at
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random protocols: every mask's delta-saturated verdict equals the
    /// step-by-step annotation of the degraded protocol, at widths 1
    /// and 2.
    #[test]
    fn random_protocol_masks_match_the_step_by_step_annotation(at in arb_protocol()) {
        for jobs in [1, 2] {
            let checked = check_every_mask(&at, jobs);
            prop_assert!(checked.is_ok(), "jobs {}: {:?}", jobs, checked);
        }
    }

    /// One evaluator for every formula answers, formula by formula, what
    /// the sequential `valid` does, errors included, at every width; and
    /// `valid_on` is that answer for one formula.
    #[test]
    fn valid_all_on_matches_sequential_valid_formula_by_formula(
        runs in 1usize..4,
        seed in 0u64..64,
        formulas in proptest::collection::vec(arb_formula(2), 1..5),
    ) {
        let sys = random_system(&GenConfig::default(), runs, seed);
        let goods = GoodRuns::all_runs(&sys);
        let sequential = Semantics::new(&sys, goods.clone());
        let want: Vec<_> = formulas.iter().map(|phi| sequential.valid(phi)).collect();
        for jobs in [1, 2, 4] {
            let pool = Pool::new(jobs);
            let all = Semantics::valid_all_on(&sys, &goods, &formulas, &pool);
            prop_assert_eq!(&all, &want, "{} workers", jobs);
            for (phi, want) in formulas.iter().zip(&want) {
                let one = Semantics::valid_on(&sys, &goods, phi, &pool);
                prop_assert_eq!(&one, want, "{} at {} workers", phi, jobs);
            }
        }
    }
}
