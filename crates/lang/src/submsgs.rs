//! The submessage operators of Section 5: `submsgs`, `seen-submsgs`, and
//! `said-submsgs`.
//!
//! Under the perfect-encryption assumption, a principal's key set gives a
//! purely syntactic account of which parts of a message it can read
//! ([`seen_submsgs`]) and which parts it is accountable for having said
//! ([`said_submsgs`]). The unconditional structural closure ([`submsgs`])
//! underlies the semantics of `fresh`.
//!
//! [`seen_submsg_refs`] and [`said_submsg_refs`] are the walkers: they
//! borrow the submessages from the terms they walk, and the owned sets
//! are their clones. Readers that only look at a set (restriction
//! checks, replay picks) use the walkers and copy nothing.

use crate::message::{KeyTerm, Message};
use crate::name::Key;
use std::collections::BTreeSet;

/// A principal's key set: the keys it may use to encrypt or decrypt
/// (Section 5).
pub type KeySet = BTreeSet<Key>;

/// A set of messages, e.g. the messages a principal has received.
pub type MessageSet = BTreeSet<Message>;

/// Returns every submessage of `m`, including `m` itself, regardless of
/// keys.
///
/// This is the closure used by the freshness semantics: `fresh(X)` holds at
/// `(r, k)` iff `X ∉ submsgs(M(r, 0))` where `M(r, 0)` is the set of
/// messages sent before the current epoch.
///
/// # Examples
///
/// ```
/// use atl_lang::{submsgs, Key, Message, Nonce, Principal};
/// let n = Message::nonce(Nonce::new("Ts"));
/// let m = Message::encrypted(n.clone(), Key::new("Kbs"), Principal::new("S"));
/// let subs = submsgs(&m);
/// assert!(subs.contains(&n)); // encryption does not hide submessages here
/// assert!(subs.contains(&m));
/// ```
pub fn submsgs(m: &Message) -> MessageSet {
    let mut out = MessageSet::new();
    collect_submsgs(m, &mut out);
    out
}

// All collectors below use an explicit worklist rather than recursion so
// that adversarially deep terms cannot overflow the call stack.
fn collect_submsgs(m: &Message, out: &mut MessageSet) {
    let mut stack = vec![m];
    while let Some(m) = stack.pop() {
        if !out.insert(m.clone()) {
            continue;
        }
        match m {
            Message::Tuple(items) => stack.extend(items.iter()),
            Message::Encrypted { body, .. } => stack.push(body),
            Message::Combined { body, secret, .. } => {
                stack.push(body);
                stack.push(secret);
            }
            Message::Forwarded(body) => stack.push(body),
            Message::PubEncrypted { body, .. } | Message::Signed { body, .. } => stack.push(body),
            Message::Formula(_)
            | Message::Principal(_)
            | Message::Key(_)
            | Message::Nonce(_)
            | Message::Param(_)
            | Message::Opaque => {}
        }
    }
}

/// Extends [`submsgs`] to a set of messages.
pub fn submsgs_of_set<'a>(ms: impl IntoIterator<Item = &'a Message>) -> MessageSet {
    let mut out = MessageSet::new();
    for m in ms {
        collect_submsgs(m, &mut out);
    }
    out
}

/// True iff `needle` is a submessage of `hay` (including `hay` itself),
/// without materializing the submessage set.
pub fn is_submsg(needle: &Message, hay: &Message) -> bool {
    let mut stack = vec![hay];
    while let Some(m) = stack.pop() {
        if needle == m {
            return true;
        }
        match m {
            Message::Tuple(items) => stack.extend(items.iter()),
            Message::Encrypted { body, .. } => stack.push(body),
            Message::Combined { body, secret, .. } => {
                stack.push(body);
                stack.push(secret);
            }
            Message::Forwarded(body) => stack.push(body),
            Message::PubEncrypted { body, .. } | Message::Signed { body, .. } => stack.push(body),
            _ => {}
        }
    }
    false
}

/// The `seen-submsgs_K(M)` operator of Section 5: the components of `M`
/// that a principal holding the key set `keys` can read.
///
/// Defined as the union of `{M}` with:
///
/// 1. the seen submessages of each tuple component;
/// 2. the seen submessages of `X` if `M = {X^Q}_K` and `K ∈ keys`;
/// 3. the seen submessages of `X` if `M = (X^Q)_Y`;
/// 4. the seen submessages of `X` if `M = 'X'`.
///
/// # Examples
///
/// ```
/// use atl_lang::{seen_submsgs, Key, KeySet, Message, Nonce, Principal};
/// let n = Message::nonce(Nonce::new("Ts"));
/// let m = Message::encrypted(n.clone(), Key::new("Kbs"), Principal::new("S"));
/// let empty = KeySet::new();
/// assert!(!seen_submsgs(&m, &empty).contains(&n));
/// let mut with_key = KeySet::new();
/// with_key.insert(Key::new("Kbs"));
/// assert!(seen_submsgs(&m, &with_key).contains(&n));
/// ```
pub fn seen_submsgs(m: &Message, keys: &KeySet) -> MessageSet {
    seen_submsg_refs([m], keys).into_iter().cloned().collect()
}

/// Pushes the children of `m` that a holder of `keys` can read onto
/// `stack`. This single definition of "readable child" backs
/// [`seen_submsg_refs`] and [`can_see`], keeping them equivalent.
fn push_seen_children<'a>(m: &'a Message, keys: &KeySet, stack: &mut Vec<&'a Message>) {
    match m {
        Message::Tuple(items) => stack.extend(items.iter()),
        Message::Encrypted { body, key, .. } => {
            if let KeyTerm::Key(k) = key {
                if keys.contains(k) {
                    stack.push(body);
                }
            }
        }
        Message::Combined { body, .. } => stack.push(body),
        Message::Forwarded(body) => stack.push(body),
        Message::PubEncrypted { body, key, .. } => {
            if let KeyTerm::Key(k) = key {
                if keys.contains(&k.inverse()) {
                    stack.push(body);
                }
            }
        }
        Message::Signed { body, key, .. } => {
            if let KeyTerm::Key(k) = key {
                if keys.contains(k) {
                    stack.push(body);
                }
            }
        }
        Message::Formula(_)
        | Message::Principal(_)
        | Message::Key(_)
        | Message::Nonce(_)
        | Message::Param(_)
        | Message::Opaque => {}
    }
}

/// The seen submessages of every message in `ms` under `keys`, borrowed
/// from `ms` — the walker behind [`seen_submsgs`] and
/// [`seen_submsgs_of_set`], for readers that only look at the set.
/// Iterates in `Message` order, as the owned sets do.
///
/// # Examples
///
/// ```
/// use atl_lang::{seen_submsg_refs, seen_submsgs_of_set, Key, KeySet, Message, Nonce, Principal};
/// let n = Message::nonce(Nonce::new("Ts"));
/// let m = Message::encrypted(n.clone(), Key::new("Kbs"), Principal::new("S"));
/// let keys: KeySet = [Key::new("Kbs")].into_iter().collect();
/// let refs = seen_submsg_refs([&m], &keys);
/// assert!(refs.contains(&n));
/// assert!(refs.into_iter().eq(&seen_submsgs_of_set([&m], &keys)));
/// ```
pub fn seen_submsg_refs<'a>(
    ms: impl IntoIterator<Item = &'a Message>,
    keys: &KeySet,
) -> BTreeSet<&'a Message> {
    let mut out = BTreeSet::new();
    let mut stack = Vec::new();
    for m in ms {
        stack.push(m);
        while let Some(m) = stack.pop() {
            if out.insert(m) {
                push_seen_children(m, keys, &mut stack);
            }
        }
    }
    out
}

/// Extends [`seen_submsgs`] to a set of messages (e.g. everything a
/// principal has received).
pub fn seen_submsgs_of_set<'a>(
    ms: impl IntoIterator<Item = &'a Message>,
    keys: &KeySet,
) -> MessageSet {
    seen_submsg_refs(ms, keys).into_iter().cloned().collect()
}

/// True iff `needle ∈ seen-submsgs_keys(hay)` without materializing the set.
pub fn can_see(needle: &Message, hay: &Message, keys: &KeySet) -> bool {
    let mut stack = vec![hay];
    while let Some(m) = stack.pop() {
        if needle == m {
            return true;
        }
        push_seen_children(m, keys, &mut stack);
    }
    false
}

/// The `said-submsgs_{K,M}(M)` operator of Section 5: the components of a
/// sent message `m` that the sending principal is considered to have *said*,
/// given its key set `keys` and the set `received` of all messages it has
/// received so far.
///
/// Defined as the union of `{m}` with:
///
/// 1. the said submessages of each tuple component;
/// 2. the said submessages of `X` if `m = {X^Q}_K` and `K ∈ keys` — a
///    principal vouches for ciphertext only if it could have constructed it;
/// 3. the said submessages of `X` if `m = (X^Q)_Y`;
/// 4. the said submessages of `X` if `m = 'X'` and `X` is **not** among the
///    seen submessages of `received` — a principal misusing the forwarding
///    notation is held to account for the "forwarded" contents.
///
/// # Examples
///
/// A principal that forwards ciphertext it received (and cannot decrypt) is
/// not considered to have said the plaintext:
///
/// ```
/// use atl_lang::*;
/// use std::collections::BTreeSet;
/// let n = Message::nonce(Nonce::new("Ts"));
/// let cipher = Message::encrypted(n.clone(), Key::new("Kbs"), Principal::new("S"));
/// let keys = KeySet::new();
/// let mut received = BTreeSet::new();
/// received.insert(cipher.clone());
/// let said = said_submsgs(&cipher, &keys, &received);
/// assert!(said.contains(&cipher));
/// assert!(!said.contains(&n));
/// ```
pub fn said_submsgs(m: &Message, keys: &KeySet, received: &MessageSet) -> MessageSet {
    let received: Vec<&Message> = received.iter().collect();
    said_submsg_refs(m, keys, &received)
        .into_iter()
        .cloned()
        .collect()
}

/// The said submessages of `m`, borrowed from `m` — the walker behind
/// [`said_submsgs`], for readers that only look at the set. `received`
/// lists the sender's received messages in any order, repeats allowed
/// (a principal's history order, say). Iterates in `Message` order, as
/// the owned set does.
///
/// # Examples
///
/// ```
/// use atl_lang::*;
/// let n = Message::nonce(Nonce::new("Ts"));
/// let cipher = Message::encrypted(n.clone(), Key::new("Kbs"), Principal::new("S"));
/// let fwd = Message::forwarded(cipher.clone());
/// let said = said_submsg_refs(&fwd, &KeySet::new(), &[&cipher]);
/// // An honest forward of received ciphertext vouches for neither part.
/// assert!(said.into_iter().eq([&fwd]));
/// ```
pub fn said_submsg_refs<'a>(
    m: &'a Message,
    keys: &KeySet,
    received: &[&Message],
) -> BTreeSet<&'a Message> {
    let mut out = BTreeSet::new();
    let mut stack = vec![m];
    while let Some(m) = stack.pop() {
        if !out.insert(m) {
            continue;
        }
        match m {
            Message::Tuple(items) => stack.extend(items.iter()),
            Message::Encrypted { body, key, .. } => {
                if let KeyTerm::Key(k) = key {
                    if keys.contains(k) {
                        stack.push(body);
                    }
                }
            }
            Message::Combined { body, .. } => stack.push(body),
            Message::Forwarded(body) => {
                let seen_before = received.iter().any(|r| can_see(body, r, keys));
                if !seen_before {
                    stack.push(body);
                }
            }
            Message::PubEncrypted { body, key, .. } => {
                // Anyone holding the public key can construct the ciphertext
                // and so vouches for its contents.
                if let KeyTerm::Key(k) = key {
                    if keys.contains(k) {
                        stack.push(body);
                    }
                }
            }
            Message::Signed { body, key, .. } => {
                // Only the private-key holder can sign.
                if let KeyTerm::Key(k) = key {
                    if keys.contains(&k.inverse()) {
                        stack.push(body);
                    }
                }
            }
            Message::Formula(_)
            | Message::Principal(_)
            | Message::Key(_)
            | Message::Nonce(_)
            | Message::Param(_)
            | Message::Opaque => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::name::{Nonce, Principal};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    fn keyset(keys: &[&str]) -> KeySet {
        keys.iter().map(Key::new).collect()
    }

    #[test]
    fn submsgs_includes_everything_structural() {
        let s = Principal::new("S");
        let inner = nonce("Ts");
        let secret = nonce("Y");
        let m = Message::combined(inner.clone(), secret.clone(), s);
        let subs = submsgs(&m);
        assert!(subs.contains(&inner));
        assert!(subs.contains(&secret));
        assert_eq!(subs.len(), 3);
    }

    #[test]
    fn submsgs_of_tuple() {
        let m = Message::tuple([nonce("A"), nonce("B")]);
        let subs = submsgs(&m);
        assert_eq!(subs.len(), 3);
        assert!(is_submsg(&nonce("A"), &m));
        assert!(!is_submsg(&nonce("C"), &m));
    }

    #[test]
    fn seen_respects_keys() {
        let s = Principal::new("S");
        let inner = nonce("Ts");
        let m = Message::encrypted(inner.clone(), Key::new("Kbs"), s);
        assert!(!seen_submsgs(&m, &keyset(&[])).contains(&inner));
        assert!(seen_submsgs(&m, &keyset(&["Kbs"])).contains(&inner));
        assert!(can_see(&inner, &m, &keyset(&["Kbs"])));
        assert!(!can_see(&inner, &m, &keyset(&["Kas"])));
    }

    #[test]
    fn seen_descends_combined_but_not_its_secret() {
        let s = Principal::new("S");
        let body = nonce("X");
        let secret = nonce("Y");
        let m = Message::combined(body.clone(), secret.clone(), s);
        let seen = seen_submsgs(&m, &keyset(&[]));
        assert!(seen.contains(&body));
        // The secret itself is not revealed by seeing a combined message.
        assert!(!seen.contains(&secret));
    }

    #[test]
    fn seen_descends_forwarding() {
        let inner = nonce("X");
        let m = Message::forwarded(inner.clone());
        assert!(seen_submsgs(&m, &keyset(&[])).contains(&inner));
    }

    #[test]
    fn nested_encryption_needs_both_keys() {
        let s = Principal::new("S");
        let inner = nonce("Ts");
        let e1 = Message::encrypted(inner.clone(), Key::new("Kbs"), s.clone());
        let e2 = Message::encrypted(e1.clone(), Key::new("Kas"), s);
        assert!(!seen_submsgs(&e2, &keyset(&["Kas"])).contains(&inner));
        assert!(seen_submsgs(&e2, &keyset(&["Kas"])).contains(&e1));
        assert!(seen_submsgs(&e2, &keyset(&["Kas", "Kbs"])).contains(&inner));
    }

    #[test]
    fn said_descends_encryption_only_with_key() {
        let s = Principal::new("S");
        let inner = nonce("Ts");
        let m = Message::encrypted(inner.clone(), Key::new("Kbs"), s);
        let none = MessageSet::new();
        assert!(said_submsgs(&m, &keyset(&["Kbs"]), &none).contains(&inner));
        assert!(!said_submsgs(&m, &keyset(&[]), &none).contains(&inner));
    }

    #[test]
    fn honest_forwarding_absolves_responsibility() {
        // P received X, then sends 'X': P is not considered to have said X.
        let x = nonce("X");
        let mut received = MessageSet::new();
        received.insert(x.clone());
        let m = Message::forwarded(x.clone());
        let said = said_submsgs(&m, &keyset(&[]), &received);
        assert!(said.contains(&m));
        assert!(!said.contains(&x));
    }

    #[test]
    fn misused_forwarding_assigns_responsibility() {
        // P never received X but sends 'X': P is held to have said X (A14).
        let x = nonce("X");
        let received = MessageSet::new();
        let m = Message::forwarded(x.clone());
        let said = said_submsgs(&m, &keyset(&[]), &received);
        assert!(said.contains(&x));
    }

    #[test]
    fn forwarding_seen_inside_received_ciphertext_counts_as_seen() {
        // P received {X}K and holds K, so X is seen; forwarding 'X' is honest.
        let s = Principal::new("S");
        let x = nonce("X");
        let cipher = Message::encrypted(x.clone(), Key::new("K"), s);
        let mut received = MessageSet::new();
        received.insert(cipher);
        let m = Message::forwarded(x.clone());
        assert!(!said_submsgs(&m, &keyset(&["K"]), &received).contains(&x));
        // Without the key the ciphertext does not reveal X, so 'X' is misuse.
        assert!(said_submsgs(&m, &keyset(&[]), &received).contains(&x));
    }

    #[test]
    fn said_includes_formula_components() {
        let (a, b) = (Principal::new("A"), Principal::new("B"));
        let f = Formula::shared_key(a.clone(), Key::new("Kab"), b).into_message();
        let m = Message::tuple([nonce("Ts"), f.clone()]);
        let said = said_submsgs(&m, &keyset(&[]), &MessageSet::new());
        assert!(said.contains(&f));
    }

    #[test]
    fn deeply_nested_terms_do_not_overflow_the_stack() {
        // A 200_000-deep forwarding chain used to blow the call stack in
        // the recursive walkers; the explicit-stack versions handle it.
        // Only clone-free operations are exercised (and the chain is
        // leaked at the end): the derived Clone/Drop impls recurse by
        // nature, so materializing collectors stay out of this test.
        let depth = 200_000;
        let bottom = nonce("X");
        let fwd_chain = (0..depth).fold(bottom.clone(), |m, _| Message::forwarded(m));
        assert!(can_see(&bottom, &fwd_chain, &keyset(&[])));
        assert!(is_submsg(&bottom, &fwd_chain));
        assert!(!is_submsg(&nonce("Y"), &fwd_chain));
        std::mem::forget(fwd_chain);
    }

    #[test]
    fn set_extensions_union_elementwise() {
        let ms = [nonce("A"), Message::tuple([nonce("B"), nonce("C")])];
        let all = submsgs_of_set(ms.iter());
        assert_eq!(all.len(), 4);
        let seen = seen_submsgs_of_set(ms.iter(), &keyset(&[]));
        assert_eq!(seen.len(), 4);
    }
}
