//! Random generation of well-formed runs with an active adversary.
//!
//! The soundness model-checker (Theorem 1) needs many structurally diverse
//! systems. This module grows runs action by action: at each step a random
//! principal — possibly the environment, acting as the attacker — performs
//! a random action drawn from what the Section 5 restrictions allow it:
//! replaying seen ciphertext, forging tuples and forwards from seen
//! submessages, guessing keys with `newkey`, or sending fresh data.
//!
//! All construction goes through the checked [`RunBuilder`], so every
//! generated run satisfies restrictions 1–5 by construction (and the tests
//! re-audit with [`validate_run`](crate::validate::validate_run)).

use crate::run::{Run, RunBuilder};
use crate::system::System;
use atl_lang::{seen_submsg_refs, Key, Message, Nonce, Principal};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration for the random run generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// System principals with their initial keys.
    pub principals: Vec<(Principal, Vec<Key>)>,
    /// The environment's initial keys.
    pub env_keys: Vec<Key>,
    /// The universe of keys `newkey` may draw from (models key guessing).
    pub key_universe: Vec<Key>,
    /// Nonce names used for fresh data messages.
    pub nonce_pool: Vec<Nonce>,
    /// Actions performed before time 0 (the past epoch).
    pub past_steps: usize,
    /// Actions performed in the current epoch.
    pub present_steps: usize,
    /// Probability that a step is taken by the environment.
    pub adversary_bias: f64,
}

impl GenConfig {
    /// A configuration whose principals own public-key pairs (each `P`
    /// holds everyone's public keys and its own private key), so the
    /// generator emits signatures and public-key ciphertext alongside
    /// shared-key traffic.
    pub fn public_key() -> Self {
        let pubs = [Key::new("Ka"), Key::new("Kb"), Key::new("Ks")];
        let all_pubs = || pubs.iter().cloned();
        GenConfig {
            principals: vec![
                (
                    Principal::new("A"),
                    all_pubs().chain([Key::new("Ka").inverse()]).collect(),
                ),
                (
                    Principal::new("B"),
                    all_pubs().chain([Key::new("Kb").inverse()]).collect(),
                ),
                (
                    Principal::new("S"),
                    all_pubs().chain([Key::new("Ks").inverse()]).collect(),
                ),
            ],
            env_keys: pubs.to_vec(),
            key_universe: pubs.to_vec(),
            nonce_pool: vec![Nonce::new("Na"), Nonce::new("Nb"), Nonce::new("Ts")],
            past_steps: 3,
            present_steps: 8,
            adversary_bias: 0.3,
        }
    }
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            principals: vec![
                (Principal::new("A"), vec![Key::new("Kas")]),
                (Principal::new("B"), vec![Key::new("Kbs")]),
                (Principal::new("S"), vec![Key::new("Kas"), Key::new("Kbs")]),
            ],
            env_keys: vec![],
            key_universe: vec![
                Key::new("Kas"),
                Key::new("Kbs"),
                Key::new("Kab"),
                Key::new("Ke"),
            ],
            nonce_pool: vec![Nonce::new("Na"), Nonce::new("Nb"), Nonce::new("Ts")],
            past_steps: 3,
            present_steps: 6,
            adversary_bias: 0.3,
        }
    }
}

/// Generates one well-formed random run.
pub fn random_run(config: &GenConfig, rng: &mut StdRng) -> Run {
    let total = config.past_steps + config.present_steps;
    let mut builder = RunBuilder::new(-(config.past_steps as i64));
    for (p, keys) in &config.principals {
        builder.principal(p.clone(), keys.iter().cloned());
    }
    builder.env_keys(config.env_keys.iter().cloned());
    let env = Principal::environment();
    let mut all: Vec<Principal> = config.principals.iter().map(|(p, _)| p.clone()).collect();
    all.push(env.clone());

    for _ in 0..total {
        let actor = if rng.gen_bool(config.adversary_bias) {
            env.clone()
        } else {
            all[rng.gen_range(0..all.len())].clone()
        };
        let mut attempted = false;
        for _ in 0..4 {
            if try_random_action(&mut builder, &actor, config, &all, rng) {
                attempted = true;
                break;
            }
        }
        if !attempted {
            // Guarantee progress: key acquisition always succeeds.
            let k = &config.key_universe[rng.gen_range(0..config.key_universe.len())];
            builder.new_key(actor, k.clone());
        }
    }
    builder.into_run().expect("generator always reaches time 0")
}

/// Tries one random action; returns whether it fired.
fn try_random_action(
    builder: &mut RunBuilder,
    actor: &Principal,
    config: &GenConfig,
    all: &[Principal],
    rng: &mut StdRng,
) -> bool {
    match rng.gen_range(0..4u8) {
        // Receive something buffered.
        0 => {
            let buffered = builder.buffer(actor).to_vec();
            if buffered.is_empty() {
                return false;
            }
            let m = buffered[rng.gen_range(0..buffered.len())].clone();
            builder.receive(actor.clone(), &m).is_ok()
        }
        // Acquire a key.
        1 => {
            let k = &config.key_universe[rng.gen_range(0..config.key_universe.len())];
            builder.new_key(actor.clone(), k.clone());
            true
        }
        // Send a constructible message.
        _ => {
            let Some(message) = random_message(builder, actor, config, rng) else {
                return false;
            };
            let to = all[rng.gen_range(0..all.len())].clone();
            builder.send(actor.clone(), message, to).is_ok()
        }
    }
}

/// Builds a random message the actor can legally send: fresh data, an
/// encryption under a held key, a replayed seen submessage, a forward of a
/// seen submessage, or a tuple of such parts.
fn random_message(
    builder: &RunBuilder,
    actor: &Principal,
    config: &GenConfig,
    rng: &mut StdRng,
) -> Option<Message> {
    let local = builder.current_state().local(actor);
    let seen: Vec<&Message> = seen_submsg_refs(local.receipts(), local.key_set())
        .into_iter()
        .collect();
    let held: Vec<Key> = local.key_set().iter().cloned().collect();
    fn fresh(config: &GenConfig, rng: &mut StdRng) -> Message {
        Message::nonce(config.nonce_pool[rng.gen_range(0..config.nonce_pool.len())].clone())
    }
    let base = match rng.gen_range(0..5u8) {
        0 => fresh(config, rng),
        1 if !seen.is_empty() => seen[rng.gen_range(0..seen.len())].clone(),
        2 if !seen.is_empty() => Message::forwarded(seen[rng.gen_range(0..seen.len())].clone()),
        3 => Message::principal(actor.clone()),
        _ => fresh(config, rng),
    };
    // Half the time wrap in an encryption under a held key: a shared-key
    // encryption, a signature (if a private key is held), or public-key
    // ciphertext (under any held public counterpart).
    if !held.is_empty() && rng.gen_bool(0.5) {
        let k = held[rng.gen_range(0..held.len())].clone();
        if k.is_private() {
            // Sign, naming the verifying public key.
            return Some(Message::signed(base, k.inverse(), actor.clone()));
        }
        if rng.gen_bool(0.3) && held.contains(&k.inverse()) {
            // We could open this as public-key ciphertext; mint one.
            return Some(Message::pub_encrypted(base, k, actor.clone()));
        }
        if rng.gen_bool(0.25) {
            return Some(Message::pub_encrypted(base, k, actor.clone()));
        }
        return Some(Message::encrypted(base, k, actor.clone()));
    }
    // Sometimes pair it with a fresh nonce.
    if rng.gen_bool(0.3) {
        let n = fresh(config, rng);
        return Some(Message::tuple([base, n]));
    }
    Some(base)
}

/// Generates a system of `n_runs` random runs from a seed.
pub fn random_system(config: &GenConfig, n_runs: usize, seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    System::new((0..n_runs).map(|_| random_run(config, &mut rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_run;

    #[test]
    fn generated_runs_are_well_formed() {
        let config = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let run = random_run(&config, &mut rng);
            let violations = validate_run(&run);
            assert!(violations.is_empty(), "{violations:?}");
            assert!(run.start_time() <= 0);
            assert!(run.horizon() >= 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GenConfig::default();
        let a = random_system(&config, 3, 42);
        let b = random_system(&config, 3, 42);
        assert_eq!(a.runs(), b.runs());
        let c = random_system(&config, 3, 43);
        assert_ne!(a.runs(), c.runs());
    }

    #[test]
    fn adversary_bias_one_makes_env_act() {
        let config = GenConfig {
            adversary_bias: 1.0,
            ..GenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let run = random_run(&config, &mut rng);
        let env = Principal::environment();
        let env_acts = run.events().filter(|(_, e)| e.actor == env).count();
        assert_eq!(env_acts, run.events().count());
    }

    #[test]
    fn runs_contain_traffic() {
        let config = GenConfig::default();
        let sys = random_system(&config, 10, 9);
        let total_sends: usize = sys.runs().iter().map(|r| r.send_records().len()).sum();
        assert!(total_sends > 0, "expected some sends across 10 runs");
    }
}
