//! Semantic secrecy analysis — the paper's first "interesting problem …
//! for the future": *elaborating the logic and semantics to deal with
//! secrecy (in addition to authentication)*.
//!
//! Under perfect encryption, everything a principal can ever learn from
//! traffic is the `seen-submsgs` closure of what it has received, given
//! its key set. That makes secrecy decidable on a run: `X` is secret from
//! `P` at `(r, k)` iff `P` cannot see `X` there — i.e. iff the semantic
//! `P sees X` is false. This module packages the judgments the protocol
//! analyses need:
//!
//! - [`known_messages`] — a principal's full derivable set at a time;
//! - [`is_secret_from`] — pointwise secrecy;
//! - [`secrecy_horizon`] — the first time a principal learns a message;
//! - [`leaks`] — every (run, principal) pair outside an allowed set that
//!   learns the message anywhere in a system.
//!
//! These are *semantic* checks on concrete runs, complementing the logic:
//! Nessett's protocol proves a belief while [`leaks`] flags the key, and
//! Lowe's attack leaves every derived belief true while [`leaks`] flags
//! `Nb` (see `atl-protocols`).

use atl_lang::{seen_submsgs_of_set, Message, MessageSet, Principal};
use atl_model::{Run, System};

/// Everything `p` can read at time `k` of `run`: the `seen-submsgs`
/// closure of its received messages under its current key set.
///
/// Returns an empty set for times outside the run.
pub fn known_messages(run: &Run, p: &Principal, k: i64) -> MessageSet {
    let Some(state) = run.state(k) else {
        return MessageSet::new();
    };
    let local = state.local(p);
    seen_submsgs_of_set(local.receipts(), local.key_set())
}

/// True if `p` cannot derive `x` at `(run, k)`.
pub fn is_secret_from(run: &Run, x: &Message, p: &Principal, k: i64) -> bool {
    let Some(state) = run.state(k) else {
        return true;
    };
    let local = state.local(p);
    !local
        .receipts()
        .any(|m| atl_lang::can_see(x, m, local.key_set()))
}

/// The first time at which `p` can derive `x` in `run`, if ever.
pub fn secrecy_horizon(run: &Run, x: &Message, p: &Principal) -> Option<i64> {
    run.times().find(|&k| !is_secret_from(run, x, p, k))
}

/// A secrecy violation: someone outside the allowed set derives the
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leak {
    /// Index of the run in the system.
    pub run: usize,
    /// Who learned the message.
    pub principal: Principal,
    /// The first time they could derive it.
    pub time: i64,
}

/// Finds every (run, principal) outside `allowed` that can derive `x`
/// anywhere in `system`. The environment principal is always audited.
pub fn leaks(system: &System, x: &Message, allowed: &[Principal]) -> Vec<Leak> {
    let mut out = Vec::new();
    for (ri, run) in system.runs().iter().enumerate() {
        let mut audit: Vec<Principal> = run.principals().cloned().collect();
        audit.push(Principal::environment());
        for p in audit {
            if allowed.contains(&p) {
                continue;
            }
            if let Some(time) = secrecy_horizon(run, x, &p) {
                out.push(Leak {
                    run: ri,
                    principal: p,
                    time,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Nonce};
    use atl_model::RunBuilder;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    fn keyed_run() -> Run {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", [Key::new("K")]);
        b.principal("C", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.send("A", cipher.clone(), "C").unwrap();
        b.receive("B", &cipher).unwrap();
        b.receive("C", &cipher).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn keys_gate_knowledge() {
        let run = keyed_run();
        let end = run.horizon();
        // B (with K) derives X; C (without) does not.
        assert!(!is_secret_from(
            &run,
            &nonce("X"),
            &Principal::new("B"),
            end
        ));
        assert!(is_secret_from(&run, &nonce("X"), &Principal::new("C"), end));
        assert!(known_messages(&run, &Principal::new("B"), end).contains(&nonce("X")));
        assert!(!known_messages(&run, &Principal::new("C"), end).contains(&nonce("X")));
    }

    #[test]
    fn secrecy_horizon_tracks_delivery() {
        let run = keyed_run();
        let b = Principal::new("B");
        // B receives at time 2, so it derives X from time 3 onward.
        assert_eq!(secrecy_horizon(&run, &nonce("X"), &b), Some(3));
        assert_eq!(secrecy_horizon(&run, &nonce("never"), &b), None);
    }

    #[test]
    fn late_keys_unlock_old_traffic() {
        // C receives ciphertext it cannot read, then acquires the key: the
        // old traffic opens up — secrecy is not forward-secure here, by
        // design of the model (sees uses the *current* key set).
        let mut bld = RunBuilder::new(0);
        bld.principal("A", [Key::new("K")]);
        bld.principal("C", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        bld.send("A", cipher.clone(), "C").unwrap();
        bld.receive("C", &cipher).unwrap();
        bld.new_key("C", "K");
        let run = bld.build().unwrap();
        let c = Principal::new("C");
        assert!(is_secret_from(&run, &nonce("X"), &c, 2));
        assert!(!is_secret_from(&run, &nonce("X"), &c, 3));
    }

    #[test]
    fn leaks_audits_whole_systems() {
        let sys = System::new([keyed_run()]);
        let allowed = [Principal::new("A"), Principal::new("B")];
        let found = leaks(&sys, &nonce("X"), &allowed);
        // Nobody outside {A, B} learns X (C lacks the key; the environment
        // never receives anything).
        assert!(found.is_empty(), "{found:?}");
        // Auditing with an empty allowlist flags B (the legitimate
        // recipient), demonstrating sensitivity.
        let found_all = leaks(&sys, &nonce("X"), &[]);
        assert_eq!(found_all.len(), 1);
        assert_eq!(found_all[0].principal, Principal::new("B"));
        assert_eq!(found_all[0].time, 3);
    }

    #[test]
    fn senders_are_not_charged_with_knowledge() {
        // `sees` is about received traffic: A *constructed* X but never
        // received it, so the traffic-derivability audit does not list A.
        // (A's own knowledge of its plaintext is not a secrecy question.)
        let run = keyed_run();
        let end = run.horizon();
        assert!(is_secret_from(&run, &nonce("X"), &Principal::new("A"), end));
    }
}
