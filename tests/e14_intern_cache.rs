//! E14: the interning/memoization layer and the worklist prover are
//! *invisible* — equivalence guards for the hot-path rewrite.
//!
//! Three independent layers got fast paths: term operators behind a
//! [`TermCache`], the semantics evaluator behind its point-level caches,
//! and prover saturation behind a trigger-indexed worklist. Each must be
//! a pure optimization: identical answers with the layer on or off, on
//! every committed spec and on randomized inputs.

use atl::core::annotate::analyze_at_with;
use atl::core::prover::{Prover, ProverConfig};
use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::spec::parse_spec;
use atl::lang::arbitrary::{arb_formula, arb_key, arb_message};
use atl::lang::{
    can_see, hide_message, said_submsg_refs, said_submsgs, seen_submsg_refs, seen_submsgs,
    seen_submsgs_of_set, submsgs, KeySet, Message, MessageSet, TermCache,
};
use atl::model::{random_system, GenConfig, System};
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

fn rescan_config() -> ProverConfig {
    ProverConfig {
        use_worklist: false,
        ..ProverConfig::default()
    }
}

/// Every committed spec decides every goal identically under worklist and
/// rescan saturation, and both reach the same fixpoint.
#[test]
fn worklist_and_rescan_agree_on_every_spec() {
    for (name, src) in SPECS {
        let (at, _) = parse_spec(src).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        let fast = analyze_at_with(&at, ProverConfig::default());
        let slow = analyze_at_with(&at, rescan_config());
        assert_eq!(
            fast.prover.facts(),
            slow.prover.facts(),
            "{name}: fixpoints differ"
        );
        assert_eq!(fast.goals, slow.goals, "{name}: goal verdicts differ");
        assert_eq!(fast.succeeded(), slow.succeeded(), "{name}");
    }
}

/// `seen-submsgs` as it was computed before the walkers borrowed: an
/// owned set, every visited term cloned.
fn owned_seen(ms: &[Message], keys: &KeySet) -> MessageSet {
    let mut out = MessageSet::new();
    for m in ms {
        let mut stack = vec![m];
        while let Some(m) = stack.pop() {
            if !out.insert(m.clone()) {
                continue;
            }
            match m {
                Message::Tuple(items) => stack.extend(items.iter()),
                Message::Encrypted { body, key, .. } | Message::Signed { body, key, .. }
                    if key.as_key().is_some_and(|k| keys.contains(k)) =>
                {
                    stack.push(body)
                }
                Message::PubEncrypted { body, key, .. }
                    if key.as_key().is_some_and(|k| keys.contains(&k.inverse())) =>
                {
                    stack.push(body)
                }
                Message::Combined { body, .. } | Message::Forwarded(body) => stack.push(body),
                _ => {}
            }
        }
    }
    out
}

/// `said-submsgs` as it was computed before the walkers borrowed.
fn owned_said(m: &Message, keys: &KeySet, received: &MessageSet) -> MessageSet {
    let mut out = MessageSet::new();
    let mut stack = vec![m];
    while let Some(m) = stack.pop() {
        if !out.insert(m.clone()) {
            continue;
        }
        match m {
            Message::Tuple(items) => stack.extend(items.iter()),
            Message::Encrypted { body, key, .. } | Message::PubEncrypted { body, key, .. }
                if key.as_key().is_some_and(|k| keys.contains(k)) =>
            {
                stack.push(body)
            }
            Message::Signed { body, key, .. }
                if key.as_key().is_some_and(|k| keys.contains(&k.inverse())) =>
            {
                stack.push(body)
            }
            Message::Combined { body, .. } => stack.push(body),
            Message::Forwarded(body) if !received.iter().any(|r| can_see(body, r, keys)) => {
                stack.push(body)
            }
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The borrowing walkers compute the owned sets they replaced, in
    /// the same `Message` order, whatever order and repeats the received
    /// list has; the owned operators are their clones.
    #[test]
    fn borrowing_walkers_match_the_owned_collectors(
        m in arb_message(4),
        others in proptest::collection::vec(arb_message(3), 0..4),
        picks in proptest::collection::vec(0usize..64, 0..3),
        keys in proptest::collection::vec(arb_key(), 0..3),
    ) {
        let keys: KeySet = keys.into_iter().collect();
        // Received messages include parts of `m`, so forwards inside `m`
        // are sometimes honest; a repeat stands for a duplicate delivery.
        let parts: Vec<Message> = submsgs(&m).into_iter().collect();
        let mut received = others;
        received.extend(picks.iter().map(|i| parts[i % parts.len()].clone()));
        received.extend(received.first().cloned());
        let received_set: MessageSet = received.iter().cloned().collect();
        let receipts: Vec<&Message> = received.iter().collect();

        let seen = owned_seen(std::slice::from_ref(&m), &keys);
        prop_assert!(seen_submsg_refs([&m], &keys).into_iter().eq(&seen));
        prop_assert_eq!(seen_submsgs(&m, &keys), seen);
        let seen_all = owned_seen(&received, &keys);
        prop_assert!(seen_submsg_refs(&received, &keys).into_iter().eq(&seen_all));
        prop_assert_eq!(seen_submsgs_of_set(&received, &keys), seen_all);

        let said = owned_said(&m, &keys, &received_set);
        prop_assert!(said_submsg_refs(&m, &keys, &receipts).into_iter().eq(&said));
        prop_assert_eq!(said_submsgs(&m, &keys, &received_set), said);
    }

    /// The term cache is transparent: every memoized operator returns
    /// exactly what its free-function counterpart computes, including
    /// across repeated (cache-hitting) queries.
    #[test]
    fn term_cache_matches_plain_operators(
        m in arb_message(4),
        keys in proptest::collection::vec(arb_key(), 0..3),
        probe in arb_message(2),
    ) {
        let keys: KeySet = keys.into_iter().collect();
        let mut cache = TermCache::new();
        for _ in 0..2 {
            prop_assert_eq!(&*cache.submsgs(&m), &submsgs(&m));
            prop_assert_eq!(&*cache.seen_submsgs(&m, &keys), &seen_submsgs(&m, &keys));
            prop_assert_eq!(&*cache.hide(&m, &keys), &hide_message(&m, &keys));
            prop_assert_eq!(
                cache.can_see(&probe, &m, &keys),
                can_see(&probe, &m, &keys)
            );
        }
        prop_assert!(cache.stats().hits >= cache.stats().misses);
    }

    /// Worklist saturation from arbitrary seed facts reaches the same
    /// least fixpoint as the rescan loop, in the same order-insensitive
    /// sense: equal fact sets.
    #[test]
    fn worklist_matches_rescan_on_random_facts(
        facts in proptest::collection::vec(arb_formula(3), 1..6),
    ) {
        let mut fast = Prover::with_config(facts.clone(), ProverConfig::default());
        let mut slow = Prover::with_config(facts, rescan_config());
        fast.saturate();
        slow.saturate();
        prop_assert_eq!(fast.facts(), slow.facts());
    }

    /// Saturation is deterministic: two provers over the same seeds
    /// derive the same facts by the same trace.
    #[test]
    fn saturation_is_deterministic(
        facts in proptest::collection::vec(arb_formula(3), 1..6),
    ) {
        let mut a = Prover::new(facts.clone());
        let mut b = Prover::new(facts);
        a.saturate();
        b.saturate();
        prop_assert_eq!(a.facts(), b.facts());
        prop_assert_eq!(a.trace(), b.trace());
    }

    /// The semantics caches are transparent: the fully cached evaluator,
    /// the belief-cache-only evaluator, and the cacheless one return the
    /// same `Result` for every formula at every point of a random system.
    #[test]
    fn semantics_caches_are_invisible(
        runs in 1usize..4,
        seed in 0u64..64,
        formulas in proptest::collection::vec(arb_formula(2), 1..4),
    ) {
        let sys: System = random_system(&GenConfig::default(), runs, seed);
        let cached = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let no_terms = Semantics::without_term_cache(&sys, GoodRuns::all_runs(&sys));
        let bare = Semantics::without_belief_cache(&sys, GoodRuns::all_runs(&sys));
        for point in sys.points() {
            for f in &formulas {
                let want = bare.eval(point, f);
                prop_assert_eq!(cached.eval(point, f), want.clone(), "{} at {:?}", f, point);
                prop_assert_eq!(no_terms.eval(point, f), want, "{} at {:?}", f, point);
            }
        }
    }
}
