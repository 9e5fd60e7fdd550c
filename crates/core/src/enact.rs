//! Enacting idealized protocols as concrete model executions.
//!
//! The annotation procedure ([`analyze_at`](crate::annotate::analyze_at))
//! reasons about an [`AtProtocol`] symbolically; this module turns the
//! same description into an executable [`Protocol`]
//! for the Section 5 model, so the *run* a protocol induces can be
//! produced, audited against restrictions 1–5, and subjected to fault
//! injection ([`atl_model::execute_with_faults`]).
//!
//! The translation is direct: each `from → to : M` step becomes a `send`
//! in `from`'s role and a matching expect in `to`'s role. Initial key
//! sets come from the protocol's top-level `P has K` assumptions,
//! augmented with the keys each sender needs to *construct* its own
//! ciphertext (a `{X}K@P` sent by `P` implies `P` holds `K` — in the
//! idealized protocol that possession is usually implicit in an earlier
//! ticket).

use crate::annotate::{AtProtocol, AtStep};
use atl_lang::{Formula, Key, KeyTerm, Message, Principal};
use atl_model::{ExpectPolicy, MsgPattern, Protocol, Role, RoleStep};
use std::collections::{BTreeMap, BTreeSet};

/// Options for [`enact_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EnactOptions {
    /// The timeout/retry policy attached to every generated expect step.
    /// The default waits forever (faithful to the idealized protocol);
    /// fault-injection callers typically pass a skip or resend policy so
    /// lossy executions degrade instead of stalling.
    pub expect_policy: ExpectPolicy,
}

/// Enacts `protocol` as an executable model protocol with expects that
/// wait forever.
pub fn enact(protocol: &AtProtocol) -> Protocol {
    enact_with(protocol, EnactOptions::default())
}

/// Enacts `protocol` with explicit options.
pub fn enact_with(protocol: &AtProtocol, options: EnactOptions) -> Protocol {
    let env = Principal::environment();
    // Principals in order of first appearance (skipping the environment,
    // which the model provides implicitly).
    let mut order: Vec<Principal> = Vec::new();
    {
        let mut note = |p: &Principal| {
            if *p != env && !order.contains(p) {
                order.push(p.clone());
            }
        };
        for step in &protocol.steps {
            match step {
                AtStep::Send { from, to, .. } => {
                    note(from);
                    note(to);
                }
                AtStep::NewKey { principal, .. } => note(principal),
            }
        }
    }

    // Initial keys: explicit possession assumptions, plus whatever each
    // sender needs to construct its own ciphertext.
    let mut keys: BTreeMap<Principal, BTreeSet<Key>> = BTreeMap::new();
    for a in &protocol.assumptions {
        if let Formula::Has(p, KeyTerm::Key(k)) = a {
            keys.entry(p.clone()).or_default().insert(k.clone());
        }
    }
    for step in &protocol.steps {
        if let AtStep::Send { from, message, .. } = step {
            construction_keys(message, from, keys.entry(from.clone()).or_default());
        }
    }

    let mut roles: Vec<Role> = order
        .iter()
        .map(|p| Role::new(p.clone(), keys.get(p).cloned().unwrap_or_default()))
        .collect();
    let index = |p: &Principal, order: &[Principal]| order.iter().position(|q| q == p);
    for step in &protocol.steps {
        match step {
            AtStep::Send { from, to, message } => {
                if let Some(i) = index(from, &order) {
                    roles[i].steps.push(RoleStep::Send {
                        message: message.clone(),
                        to: to.clone(),
                    });
                }
                if to != from {
                    if let Some(i) = index(to, &order) {
                        roles[i].steps.push(RoleStep::Expect {
                            pattern: MsgPattern::Exact(message.clone()),
                            policy: options.expect_policy,
                        });
                    }
                }
            }
            AtStep::NewKey { principal, key } => {
                if let Some(i) = index(principal, &order) {
                    roles[i].steps.push(RoleStep::NewKey(key.clone()));
                }
            }
        }
    }

    let mut proto = Protocol::new(protocol.name.clone());
    for role in roles {
        proto = proto.role(role);
    }
    proto
}

/// Keys `sender` must hold to construct `m` itself: the key of every
/// ciphertext (and the signing key of every signature) whose from field
/// names `sender`. Ciphertext attributed to others is forwarded, not
/// constructed, and needs sight rather than keys.
fn construction_keys(m: &Message, sender: &Principal, out: &mut BTreeSet<Key>) {
    match m {
        Message::Encrypted { body, key, from } | Message::PubEncrypted { body, key, from } => {
            if from == sender {
                if let Some(k) = key.as_key() {
                    out.insert(k.clone());
                }
            }
            construction_keys(body, sender, out);
        }
        Message::Signed { body, key, from } => {
            if from == sender {
                if let Some(k) = key.as_key() {
                    out.insert(k.inverse());
                }
            }
            construction_keys(body, sender, out);
        }
        Message::Tuple(items) => {
            for item in items {
                construction_keys(item, sender, out);
            }
        }
        Message::Combined { body, secret, .. } => {
            construction_keys(body, sender, out);
            construction_keys(secret, sender, out);
        }
        Message::Forwarded(body) => construction_keys(body, sender, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;
    use atl_model::{
        execute, execute_with_faults, validate_run, ExecOptions, FaultKind, FaultPlan,
    };

    fn kab() -> Formula {
        Formula::shared_key("A", Key::new("Kab"), "B")
    }

    /// Figure 1 (Kerberos fragment) as an idealized protocol.
    fn figure1() -> AtProtocol {
        let ts = Message::nonce(Nonce::new("Ts"));
        let inner = Message::encrypted(
            Message::tuple([ts.clone(), kab().into_message()]),
            Key::new("Kbs"),
            "S",
        );
        let outer = Message::encrypted(
            Message::tuple([ts, kab().into_message(), inner.clone()]),
            Key::new("Kas"),
            "S",
        );
        AtProtocol::new("kerberos-enacted")
            .assume(Formula::has("A", Key::new("Kas")))
            .assume(Formula::has("B", Key::new("Kbs")))
            .step("S", "A", outer)
            .step("A", "B", inner)
    }

    #[test]
    fn enacted_figure1_executes_to_wellformed_run() {
        let proto = enact(&figure1());
        assert_eq!(proto.roles().len(), 3);
        // S constructs both ciphertexts, so it is granted both keys.
        let s = &proto.roles()[0];
        assert_eq!(s.principal, Principal::new("S"));
        assert!(s.initial_keys.contains(&Key::new("Kas")));
        assert!(s.initial_keys.contains(&Key::new("Kbs")));
        // A only holds its own key; the forwarded ticket needs sight, not
        // possession.
        let a = &proto.roles()[1];
        assert!(a.initial_keys.contains(&Key::new("Kas")));
        assert!(!a.initial_keys.contains(&Key::new("Kbs")));
        let run = execute(&proto, &ExecOptions::default()).expect("executes");
        assert!(validate_run(&run).is_empty(), "{:?}", validate_run(&run));
        assert_eq!(run.send_records().len(), 2);
    }

    #[test]
    fn enacted_protocol_degrades_under_faults() {
        let at = figure1();
        let proto = enact_with(
            &at,
            EnactOptions {
                expect_policy: ExpectPolicy::skip_after(4),
            },
        );
        let plan = FaultPlan::new(1).drop(1.0);
        let (run, report) =
            execute_with_faults(&proto, &ExecOptions::default(), &plan).expect("degrades");
        assert!(validate_run(&run).is_empty());
        assert!(report.degraded());
        assert!(report.faults_of(FaultKind::Drop).count() >= 1);
    }

    #[test]
    fn environment_gets_no_role() {
        let at = AtProtocol::new("leak").step(
            "A",
            Principal::environment(),
            Message::nonce(Nonce::new("X")),
        );
        let proto = enact(&at);
        assert_eq!(proto.roles().len(), 1);
        let run = execute(&proto, &ExecOptions::default()).expect("executes");
        assert!(validate_run(&run).is_empty());
    }

    #[test]
    fn newkey_steps_carry_over() {
        let at = AtProtocol::new("nk").new_key("A", "K9");
        let proto = enact(&at);
        assert!(matches!(
            proto.roles()[0].steps[0],
            RoleStep::NewKey(ref k) if k == &Key::new("K9")
        ));
    }
}
