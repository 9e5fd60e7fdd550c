//! The committed specs and the seeded edits the workloads make to them.
//!
//! A variant renames the protocol and every nonce, so it has exactly the
//! structure (and the work) of its base spec but never-seen bytes: it
//! misses every content-keyed cache on its first use.

use crate::common::Rng;
use atl_core::annotate::{analyze_at, AtProtocol};
use atl_core::goodruns::InitialAssumptions;
use atl_core::spec::parse_spec;
use atl_lang::Formula;

pub struct BaseSpec {
    pub name: &'static str,
    pub text: &'static str,
    /// Identifiers of the spec that are nonces (renamed by variants).
    pub nonces: &'static [&'static str],
}

pub const SPECS: [BaseSpec; 4] = [
    BaseSpec {
        name: "andrew_flawed",
        text: include_str!("../../specs/andrew_flawed.atl"),
        nonces: &["NbP"],
    },
    BaseSpec {
        name: "kerberos_figure1",
        text: include_str!("../../specs/kerberos_figure1.atl"),
        nonces: &["Ts"],
    },
    BaseSpec {
        name: "needham_schroeder",
        text: include_str!("../../specs/needham_schroeder.atl"),
        nonces: &["Na", "Nb"],
    },
    BaseSpec {
        name: "wide_mouthed_frog",
        text: include_str!("../../specs/wide_mouthed_frog.atl"),
        nonces: &["Ta", "Ts"],
    },
];

/// Replaces every whole identifier `from` in `text` with `to`.
pub fn replace_word(text: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        out.push_str(if word == from { to } else { word });
        word.clear();
    };
    for c in text.chars() {
        if is_ident(c) {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// A never-seen variant of `base`: the protocol line gets `tag` and
/// every nonce a fresh name. Comments are dropped.
pub fn variant(base: &BaseSpec, rng: &mut Rng, tag: &str) -> String {
    let mut text: String = base
        .text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .map(|l| match l.strip_prefix("protocol ") {
            Some(name) => format!("protocol {name}-{tag}\n"),
            None => format!("{l}\n"),
        })
        .collect();
    for nonce in base.nonces {
        text = replace_word(&text, nonce, &format!("{nonce}x{}", rng.tag()));
    }
    text
}

/// The first principal a spec declares.
fn first_principal(text: &str) -> &str {
    text.lines()
        .find_map(|l| l.strip_prefix("principals "))
        .and_then(|p| p.split_whitespace().next())
        .expect("every committed spec declares principals")
}

/// The "add an assumption" edit: one more belief assumption about a
/// fresh nonce. The steps are unchanged, so the analysis can advance in
/// place and the executed system is kept.
pub fn add_assumption(text: &str, rng: &mut Rng) -> String {
    let who = first_principal(text);
    format!("{text}assume {who} believes fresh(Nfx{})\n", rng.tag())
}

/// The "change a message" edit: the first nonce the steps carry is
/// renamed in every step (but not in the assumptions or goals), so each
/// message stays constructible by its sender. The enacted protocol
/// changes, so the system is re-executed and the evaluation cache
/// rewarmed.
pub fn change_message(text: &str, nonces: &[String], rng: &mut Rng) -> String {
    let nonce = nonces
        .iter()
        .find(|n| {
            text.lines()
                .any(|l| l.starts_with("step ") && replace_word(l, n, "") != l)
        })
        .expect("every committed spec carries a nonce in some step");
    let renamed = format!("Nmx{}", rng.tag());
    text.lines()
        .map(|l| {
            if l.starts_with("step ") {
                format!("{}\n", replace_word(l, nonce, &renamed))
            } else {
                format!("{l}\n")
            }
        })
        .collect()
}

/// The nonce names a variant gave its base spec's nonces, in base order.
pub fn variant_nonces(base: &BaseSpec, variant_text: &str) -> Vec<String> {
    base.nonces
        .iter()
        .map(|n| {
            let prefix = format!("{n}x");
            variant_text
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .find(|w| w.starts_with(&prefix) && w.len() == prefix.len() + 6)
                .expect("variant renamed every nonce")
                .to_string()
        })
        .collect()
}

/// The formulas a spec states (assumptions, then goals), as text.
pub fn stated_formulas(text: &str) -> Vec<String> {
    let assumes = text.lines().filter_map(|l| l.strip_prefix("assume "));
    let goals = text.lines().filter_map(|l| l.strip_prefix("goal "));
    assumes.chain(goals).map(|f| f.trim().to_string()).collect()
}

/// Parses a spec the workloads generated (a failure is a benchmark bug).
pub fn parse(text: &str) -> AtProtocol {
    parse_spec(text)
        .unwrap_or_else(|e| panic!("generated spec does not parse: {}", e.diagnostic("spec")))
        .0
}

/// Whether the base spec's annotation derives every goal.
pub fn base_succeeds(base: &BaseSpec) -> bool {
    analyze_at(&parse(base.text)).succeeded()
}

/// The belief-shaped assumptions of `at`, as the Section 7 construction
/// takes them (what `atl_core` derives internally for its own calls).
pub fn belief_assumptions(at: &AtProtocol) -> InitialAssumptions {
    let mut init = InitialAssumptions::new();
    for f in &at.assumptions {
        if let Formula::Believes(p, body) = f {
            init.assume(p.clone(), (**body).clone());
        }
    }
    init
}
