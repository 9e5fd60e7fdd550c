//! Cross-crate property tests: invariants that tie the language, the
//! model, and the semantics together on randomly generated systems.

use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::stability::{is_linguistically_stable, is_semantically_stable};
use atl::lang::{Formula, Key, Message, Nonce, Principal};
use atl::model::{random_system, GenConfig, Point, System};
use proptest::prelude::*;

fn system_strategy() -> impl Strategy<Value = System> {
    (0u64..200).prop_map(|seed| random_system(&GenConfig::default(), 3, seed))
}

/// Formulas whose truth should be monotone (never true-then-false) in any
/// run.
fn monotone_formulas() -> Vec<Formula> {
    let principals = ["A", "B", "S"];
    let mut out = Vec::new();
    for p in principals {
        out.push(Formula::has(p, Key::new("Kab")));
        out.push(Formula::sees(p, Message::nonce(Nonce::new("Na"))));
        out.push(Formula::said(p, Message::nonce(Nonce::new("Ts"))));
        out.push(Formula::says(p, Message::nonce(Nonce::new("Nb"))));
    }
    out.push(Formula::fresh(Message::nonce(Nonce::new("Na"))));
    out.push(Formula::shared_key("A", Key::new("Kas"), "S"));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linguistically_stable_formulas_are_semantically_stable(sys in system_strategy()) {
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        for f in monotone_formulas() {
            prop_assume!(is_linguistically_stable(&f));
            prop_assert!(
                is_semantically_stable(&sem, &f).unwrap(),
                "unstable: {f}"
            );
        }
    }

    #[test]
    fn rigid_formulas_are_constant_within_runs(sys in system_strategy()) {
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let rigid = [
            Formula::fresh(Message::nonce(Nonce::new("Na"))),
            Formula::shared_key("A", Key::new("Kab"), "B"),
            Formula::shared_secret("A", Message::nonce(Nonce::new("pw")), "B"),
            Formula::controls("S", Formula::shared_key("A", Key::new("Kab"), "B")),
        ];
        for f in rigid {
            for (ri, run) in sys.runs().iter().enumerate() {
                let values: std::collections::BTreeSet<bool> = run
                    .times()
                    .map(|k| sem.eval(Point::new(ri, k), &f).unwrap())
                    .collect();
                prop_assert!(values.len() <= 1, "{f} varies within run {ri}");
            }
        }
    }

    #[test]
    fn belief_is_introspective(sys in system_strategy()) {
        // A2/A3 as behavioral properties at every point, for every
        // principal, not just as schema checks.
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let phi = Formula::shared_key("A", Key::new("Kas"), "S");
        for p in [Principal::new("A"), Principal::new("B"), Principal::environment()] {
            let b = Formula::believes(p.clone(), phi.clone());
            let bb = Formula::believes(p.clone(), b.clone());
            let nb = Formula::not(b.clone());
            let bnb = Formula::believes(p.clone(), nb.clone());
            for point in sys.points() {
                let believes = sem.eval(point, &b).unwrap();
                if believes {
                    prop_assert!(sem.eval(point, &bb).unwrap());
                } else {
                    prop_assert!(sem.eval(point, &bnb).unwrap());
                }
            }
        }
    }

    #[test]
    fn said_implies_component_said(sys in system_strategy()) {
        // For every actual send record, the said-submessages really are
        // `said` semantically at the next instant.
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        for (ri, run) in sys.runs().iter().enumerate() {
            for rec in run.send_records() {
                let at = Point::new(ri, rec.time + 1);
                for sub in rec.said_submsgs() {
                    prop_assert!(
                        sem.eval(at, &Formula::said(rec.sender.clone(), sub.clone())).unwrap(),
                        "{} did not 'say' {sub}",
                        rec.sender
                    );
                }
            }
        }
    }

    #[test]
    fn sees_requires_a_matching_send(sys in system_strategy()) {
        // Semantic sees is grounded in traffic: anything seen was inside
        // some sent message (restriction 2 reflected at the semantics).
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let probes = [
            Message::nonce(Nonce::new("Na")),
            Message::nonce(Nonce::new("Zghost")),
        ];
        for (ri, run) in sys.runs().iter().enumerate() {
            let all_sent: atl::lang::MessageSet = run
                .send_records()
                .map(|r| r.message.clone())
                .collect();
            let sent_subs = atl::lang::submsgs_of_set(all_sent.iter());
            for probe in &probes {
                for p in run.principals() {
                    let horizon = run.horizon();
                    let seen = sem
                        .eval(Point::new(ri, horizon), &Formula::sees(p.clone(), probe.clone()))
                        .unwrap();
                    if seen {
                        prop_assert!(sent_subs.contains(probe));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tautology_duality(seed in 0u64..10_000) {
        // f is a tautology iff ¬f is unsatisfiable, over small random
        // propositional skeletons.
        use atl::core::tautology::{is_satisfiable, is_tautology};
        use atl::lang::Prop;
        // Deterministic small formula from the seed.
        fn build(mut n: u64, depth: u32) -> Formula {
            if depth == 0 {
                return match n % 3 {
                    0 => Formula::prop(Prop::new("p")),
                    1 => Formula::prop(Prop::new("q")),
                    _ => Formula::True,
                };
            }
            let op = n % 4;
            n /= 4;
            match op {
                0 => Formula::not(build(n, depth - 1)),
                1 => Formula::and(build(n / 2, depth - 1), build(n % 97, depth - 1)),
                2 => Formula::or(build(n / 3, depth - 1), build(n % 89, depth - 1)),
                _ => Formula::implies(build(n / 5, depth - 1), build(n % 83, depth - 1)),
            }
        }
        let f = build(seed, 4);
        prop_assert_eq!(is_tautology(&f), !is_satisfiable(&Formula::not(f.clone())));
    }

    #[test]
    fn spec_and_trace_parsers_never_panic(input in "\\PC{0,200}") {
        // Fuzz: arbitrary junk must produce errors, not panics.
        let _ = atl::core::spec::parse_spec(&input);
        let _ = atl::model::parse_trace(&input);
        let syms = atl::lang::parser::Symbols::new();
        let _ = atl::lang::parser::parse_formula(&input, &syms);
        let _ = atl::lang::parser::parse_message(&input, &syms);
    }

    #[test]
    fn trace_roundtrip_for_generated_runs(seed in 0u64..100) {
        // Every generator-built run renders to a trace that parses back to
        // an equal run (modulo the unchecked construction path).
        use atl::model::{parse_trace, render_trace, random_system, GenConfig};
        let sys = random_system(&GenConfig::default(), 1, seed);
        let run = &sys.runs()[0];
        let rendered = render_trace(run);
        let (reparsed, _) = parse_trace(&rendered)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{rendered}")))?;
        prop_assert_eq!(run, &reparsed);
    }
}
