//! Auditing runs against the five well-formedness restrictions of
//! Section 5.
//!
//! [`RunBuilder`](crate::run::RunBuilder) enforces these restrictions as a
//! run is constructed; this module re-checks a finished [`Run`] — useful
//! for runs assembled from parts, for adversarial test fixtures built with
//! `send_unchecked`, and as an executable statement of the model's
//! invariants.

use crate::action::Action;
use crate::run::Run;
use atl_lang::{can_see, said_submsg_refs, KeySet, Message, Principal};
use std::fmt;

/// A violation of one of the Section 5 restrictions, located in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which restriction (1–5) was violated.
    pub restriction: u8,
    /// The time at which the offending action was performed.
    pub time: i64,
    /// The principal responsible.
    pub actor: Principal,
    /// Human-readable details.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restriction {} violated at time {} by {}: {}",
            self.restriction, self.time, self.actor, self.detail
        )
    }
}

/// Checks all five restrictions on `run`, returning every violation found
/// (empty if the run is well-formed).
///
/// 1. A principal's key set never decreases.
/// 2. A message must be sent (to that principal) before it is received.
/// 3. A principal must possess keys it uses for encryption: for each
///    ciphertext it is considered to have said, it saw the ciphertext or
///    holds the key.
/// 4. A system principal sets from fields correctly on ciphertext and
///    combined messages it constructs.
/// 5. A system principal forwards only messages it has seen.
pub fn validate_run(run: &Run) -> Vec<Violation> {
    let mut out = Vec::new();
    check_key_monotonicity(run, &mut out);
    check_send_before_receive(run, &mut out);
    check_send_restrictions(run, &mut out);
    out
}

fn check_key_monotonicity(run: &Run, out: &mut Vec<Violation>) {
    let principals: Vec<Principal> = run.principals().cloned().collect();
    for w in run.times().collect::<Vec<_>>().windows(2) {
        let (k0, k1) = (w[0], w[1]);
        let (Some(s0), Some(s1)) = (run.state(k0), run.state(k1)) else {
            continue;
        };
        for p in &principals {
            if !s0.key_set(p).is_subset(s1.key_set(p)) {
                out.push(Violation {
                    restriction: 1,
                    time: k1,
                    actor: p.clone(),
                    detail: format!("key set of {p} shrank between {k0} and {k1}"),
                });
            }
        }
        if !s0.env_key_set().is_subset(s1.env_key_set()) {
            out.push(Violation {
                restriction: 1,
                time: k1,
                actor: Principal::environment(),
                detail: "environment key set shrank".into(),
            });
        }
    }
}

fn check_send_before_receive(run: &Run, out: &mut Vec<Violation>) {
    let mut sent: Vec<(Principal, Message)> = Vec::new();
    for (time, event) in run.events() {
        match &event.action {
            Action::Send { message, to } => sent.push((to.clone(), message.clone())),
            Action::Receive { message } => {
                let pos = sent
                    .iter()
                    .position(|(to, m)| to == &event.actor && m == message);
                match pos {
                    Some(i) => {
                        // Consume the matching send so one send delivers at
                        // most one receive.
                        sent.remove(i);
                    }
                    None => out.push(Violation {
                        restriction: 2,
                        time,
                        actor: event.actor.clone(),
                        detail: format!("{message} received without a prior matching send"),
                    }),
                }
            }
            Action::NewKey { .. } => {}
        }
    }
}

fn check_send_restrictions(run: &Run, out: &mut Vec<Violation>) {
    let system: Vec<&Principal> = run.principals().collect();
    for rec in run.send_records() {
        let context = rec.context();
        let received: Vec<&Message> = context.receipts().collect();
        let is_system = system.contains(&rec.sender);
        let violations = send_violations(
            rec.sender,
            is_system,
            rec.message,
            context.key_set(),
            &received,
        );
        for (restriction, sub) in violations {
            let detail = match sub {
                Message::Forwarded(body) => format!("forwarded {body} without having seen it"),
                Message::Encrypted { from, .. }
                | Message::Combined { from, .. }
                | Message::PubEncrypted { from, .. }
                | Message::Signed { from, .. }
                    if restriction == 4 =>
                {
                    format!("constructed {sub} with foreign from field {from}")
                }
                Message::PubEncrypted { .. } => {
                    format!("said {sub} without the public key or prior sight")
                }
                Message::Signed { .. } => {
                    format!("said {sub} without the private key or prior sight")
                }
                _ => format!("said {sub} without key or prior sight"),
            };
            out.push(Violation {
                restriction,
                time: rec.time,
                actor: rec.sender.clone(),
                detail,
            });
        }
    }
}

/// The from field of a ciphertext, signature or combined message.
fn from_field(m: &Message) -> Option<&Principal> {
    match m {
        Message::Encrypted { from, .. }
        | Message::Combined { from, .. }
        | Message::PubEncrypted { from, .. }
        | Message::Signed { from, .. } => Some(from),
        _ => None,
    }
}

/// Every violation of restrictions 3–5 by `actor` sending `message` with
/// key set `keys` and the received messages `received` (any order), as
/// `(restriction, submessage)`: the said submessages in `Message` order,
/// restriction 3 before 4 within one. A restriction-5 violation names the
/// forwarding submessage, whose body went unseen.
///
/// The one walk behind [`RunBuilder::send`](crate::run::RunBuilder::send),
/// which refuses on the first violation, and [`validate_run`], which
/// reports them all. It borrows everything it reads.
///
/// - Restriction 3 (any principal): a ciphertext it says was seen, or its
///   key is held (the public key to encrypt, the private one to sign).
/// - Restriction 4 (system principals): a ciphertext, signature or
///   combined message it constructs carries its own from field.
/// - Restriction 5 (system principals): it forwards only what it saw.
pub(crate) fn send_violations<'a>(
    actor: &'a Principal,
    is_system: bool,
    message: &'a Message,
    keys: &'a KeySet,
    received: &'a [&'a Message],
) -> impl Iterator<Item = (u8, &'a Message)> + 'a {
    let seen = move |m: &Message| received.iter().any(|r| can_see(m, r, keys));
    said_submsg_refs(message, keys, received)
        .into_iter()
        .flat_map(move |sub| {
            let unkeyed = match sub {
                Message::Encrypted { key, .. } | Message::PubEncrypted { key, .. } => {
                    !key.as_key().is_some_and(|k| keys.contains(k))
                }
                Message::Signed { key, .. } => {
                    !key.as_key().is_some_and(|k| keys.contains(&k.inverse()))
                }
                _ => false,
            };
            let found = match sub {
                Message::Forwarded(body) => [None, (is_system && !seen(body)).then_some(5)],
                _ => {
                    let foreign = is_system && from_field(sub).is_some_and(|from| from != actor);
                    // Sight decides only what a missing key or a foreign
                    // from field leaves open, and is walked at most once.
                    let saw = (unkeyed || foreign) && seen(sub);
                    [
                        (unkeyed && !saw).then_some(3),
                        (foreign && !saw).then_some(4),
                    ]
                }
            };
            found.into_iter().flatten().map(move |r| (r, sub))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use atl_lang::{Key, Nonce};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    #[test]
    fn well_formed_run_passes() {
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("K")]);
        b.principal("B", [Key::new("K")]);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        let run = b.build().unwrap();
        assert!(validate_run(&run).is_empty());
    }

    #[test]
    fn detects_restriction_3() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send_unchecked("A", cipher, "B");
        let run = b.build().unwrap();
        let violations = validate_run(&run);
        assert!(
            violations.iter().any(|v| v.restriction == 3),
            "{violations:?}"
        );
    }

    #[test]
    fn detects_restriction_4() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        let forged = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("B"));
        b.send_unchecked("A", forged, "B");
        let run = b.build().unwrap();
        assert!(validate_run(&run).iter().any(|v| v.restriction == 4));
    }

    #[test]
    fn detects_restriction_5() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.send_unchecked("A", Message::forwarded(nonce("X")), "B");
        let run = b.build().unwrap();
        assert!(validate_run(&run).iter().any(|v| v.restriction == 5));
    }

    #[test]
    fn environment_is_exempt_from_4_and_5_but_not_3() {
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        let env = Principal::environment();
        b.send_unchecked(env.clone(), Message::forwarded(nonce("X")), "B");
        let run = b.build().unwrap();
        let violations = validate_run(&run);
        assert!(
            violations.iter().all(|v| v.restriction != 5),
            "{violations:?}"
        );
    }

    #[test]
    fn detects_unmatched_receive() {
        // A receive that was never sent.
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        b.receive_unchecked("B", nonce("ghost"));
        let run = b.build().unwrap();
        assert!(validate_run(&run).iter().any(|v| v.restriction == 2));
    }

    #[test]
    fn one_send_delivers_at_most_once() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("X"), "B").unwrap();
        b.receive("B", &nonce("X")).unwrap();
        assert!(validate_run(&b.build().unwrap()).is_empty());
        // A second receive of the same message.
        b.receive_unchecked("B", nonce("X"));
        let run = b.build().unwrap();
        assert!(validate_run(&run).iter().any(|v| v.restriction == 2));
    }
}
