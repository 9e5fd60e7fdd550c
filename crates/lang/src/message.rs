//! The language `MT` of messages (Section 4.1, conditions M1–M6).
//!
//! Idealized protocols exchange *messages*, which are expressions in the
//! logical language rather than bit strings. Messages are defined by mutual
//! induction with [`Formula`]s:
//!
//! - **M1** a formula is a message;
//! - **M2** a primitive term (principal, key, nonce) is a message;
//! - **M3** a tuple `(X1, …, Xk)` of messages is a message;
//! - **M4** `{X^P}_K` — `X` encrypted under `K` with *from field* `P` — is a
//!   message;
//! - **M5** `(X^P)_Y` — `X` combined with the secret `Y`, from `P` — is a
//!   message;
//! - **M6** `'X'` — a *forwarded* message — is a message.

use crate::formula::Formula;
use crate::name::{Key, Nonce, Param, Principal};
use std::collections::BTreeSet;

/// A key position in a message or formula: either a key constant or a
/// run-valued [`Param`]eter (Section 8).
///
/// The idealized Kerberos protocol of Figure 1 encrypts under the parameter
/// `Kab`, whose value — an actual key — is determined per run. Key positions
/// therefore accept both.
///
/// # Examples
///
/// ```
/// use atl_lang::{Key, KeyTerm, Param};
/// let k: KeyTerm = Key::new("Kas").into();
/// assert!(k.as_key().is_some());
/// let p: KeyTerm = Param::new("Kab").into();
/// assert!(p.as_key().is_none());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyTerm {
    /// A key constant.
    Key(Key),
    /// A parameter standing for a key, resolved per run.
    Param(Param),
}

impl KeyTerm {
    /// Returns the key constant, if this term is one.
    pub fn as_key(&self) -> Option<&Key> {
        match self {
            KeyTerm::Key(k) => Some(k),
            KeyTerm::Param(_) => None,
        }
    }

    /// True if the term contains no unresolved parameter.
    pub fn is_ground(&self) -> bool {
        matches!(self, KeyTerm::Key(_))
    }
}

impl From<Key> for KeyTerm {
    fn from(k: Key) -> Self {
        KeyTerm::Key(k)
    }
}

impl From<Param> for KeyTerm {
    fn from(p: Param) -> Self {
        KeyTerm::Param(p)
    }
}

/// A message in the language `MT` (conditions M1–M6 of Section 4.1).
///
/// # Examples
///
/// Building the third idealized Kerberos step `{Ts, A ↔Kab↔ B}_Kbs` from
/// Figure 1:
///
/// ```
/// use atl_lang::{Formula, Key, Message, Nonce, Principal};
/// let (a, b) = (Principal::new("A"), Principal::new("B"));
/// let kab = Key::new("Kab");
/// let body = Message::tuple([
///     Message::nonce(Nonce::new("Ts")),
///     Formula::shared_key(a.clone(), kab, b.clone()).into_message(),
/// ]);
/// let step3 = Message::encrypted(body, Key::new("Kbs"), a);
/// assert!(step3.is_ground());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Message {
    /// M1: a formula used as a message.
    Formula(Box<Formula>),
    /// M2: a principal name used as data (e.g. `A` inside Kerberos step 3).
    Principal(Principal),
    /// M2: a key used as data (e.g. the `Kab` sent by the server).
    Key(Key),
    /// M2: a nonce, timestamp, or other data constant.
    Nonce(Nonce),
    /// A run-valued parameter in message position (Section 8).
    Param(Param),
    /// M3: a concatenation `(X1, …, Xk)` of two or more messages.
    Tuple(Vec<Message>),
    /// M4: `{X^P}_K` — the body encrypted under `key`, with from field
    /// `from` naming the principal that performed the encryption.
    Encrypted {
        /// The plaintext `X`.
        body: Box<Message>,
        /// The encryption key `K`.
        key: KeyTerm,
        /// The from field `P` (used only so a principal can recognize and
        /// ignore its own messages).
        from: Principal,
    },
    /// M5: `(X^P)_Y` — the body combined with the secret `Y`, from `P`.
    Combined {
        /// The visible content `X`.
        body: Box<Message>,
        /// The proving secret `Y`.
        secret: Box<Message>,
        /// The from field `P`.
        from: Principal,
    },
    /// M6: `'X'` — a forwarded message, for which the sender does not vouch.
    Forwarded(Box<Message>),
    /// Public-key extension: `{X^P}_K` encrypted under the *public* key
    /// `K` — anyone holding `K` can construct it, only the holder of
    /// `K⁻¹` can read it. (The extended abstract omits public keys; "its
    /// treatment is similar to the treatment of shared keys".)
    PubEncrypted {
        /// The plaintext `X`.
        body: Box<Message>,
        /// The public key `K`.
        key: KeyTerm,
        /// The from field `P`.
        from: Principal,
    },
    /// Public-key extension: `{X^P}_K⁻¹` — signed with the private
    /// counterpart of `K`; anyone holding `K` can read it, only the
    /// holder of `K⁻¹` can construct it.
    Signed {
        /// The signed content `X`.
        body: Box<Message>,
        /// The *public* key `K` that verifies the signature.
        key: KeyTerm,
        /// The from field `P`.
        from: Principal,
    },
    /// The opaque token `⊥` produced by [`hide_message`](crate::hide_message) for ciphertext
    /// a principal cannot read. Never written by users; it exists so hidden
    /// local states remain expressible in the same language.
    Opaque,
}

impl Message {
    /// M1: wraps a formula as a message.
    pub fn formula(f: Formula) -> Self {
        Message::Formula(Box::new(f))
    }

    /// M2: a principal name as data.
    pub fn principal(p: impl Into<Principal>) -> Self {
        Message::Principal(p.into())
    }

    /// M2: a key as data.
    pub fn key(k: impl Into<Key>) -> Self {
        Message::Key(k.into())
    }

    /// M2: a nonce or other data constant.
    pub fn nonce(n: impl Into<Nonce>) -> Self {
        Message::Nonce(n.into())
    }

    /// A parameter in message position (Section 8).
    pub fn param(p: impl Into<Param>) -> Self {
        Message::Param(p.into())
    }

    /// M3: a tuple of messages. A single-element tuple collapses to its
    /// element; an empty iterator yields an empty tuple (the unit message).
    pub fn tuple(items: impl IntoIterator<Item = Message>) -> Self {
        let mut v: Vec<Message> = items.into_iter().collect();
        if v.len() == 1 {
            v.pop().expect("len checked")
        } else {
            Message::Tuple(v)
        }
    }

    /// M4: `{X^P}_K`.
    pub fn encrypted(body: Message, key: impl Into<KeyTerm>, from: impl Into<Principal>) -> Self {
        Message::Encrypted {
            body: Box::new(body),
            key: key.into(),
            from: from.into(),
        }
    }

    /// M5: `(X^P)_Y`.
    pub fn combined(body: Message, secret: Message, from: impl Into<Principal>) -> Self {
        Message::Combined {
            body: Box::new(body),
            secret: Box::new(secret),
            from: from.into(),
        }
    }

    /// M6: `'X'`.
    pub fn forwarded(body: Message) -> Self {
        Message::Forwarded(Box::new(body))
    }

    /// Public-key encryption `{X^P}_K`.
    pub fn pub_encrypted(
        body: Message,
        key: impl Into<KeyTerm>,
        from: impl Into<Principal>,
    ) -> Self {
        Message::PubEncrypted {
            body: Box::new(body),
            key: key.into(),
            from: from.into(),
        }
    }

    /// Signature `{X^P}_K⁻¹` (named by the verifying public key `K`).
    pub fn signed(body: Message, key: impl Into<KeyTerm>, from: impl Into<Principal>) -> Self {
        Message::Signed {
            body: Box::new(body),
            key: key.into(),
            from: from.into(),
        }
    }

    /// Returns the formula if this message is one (condition M1).
    pub fn as_formula(&self) -> Option<&Formula> {
        match self {
            Message::Formula(f) => Some(f),
            _ => None,
        }
    }

    /// Returns the tuple components: the components of a `Tuple`, or a
    /// one-element slice for any other message.
    pub fn components(&self) -> &[Message] {
        match self {
            Message::Tuple(items) => items,
            other => std::slice::from_ref(other),
        }
    }

    /// True if the message contains no unresolved [`Param`] and no
    /// [`Message::Opaque`] token — i.e. it can appear in a concrete run.
    pub fn is_ground(&self) -> bool {
        match self {
            Message::Formula(f) => f.is_ground(),
            Message::Principal(_) | Message::Key(_) | Message::Nonce(_) => true,
            Message::Param(_) | Message::Opaque => false,
            Message::Tuple(items) => items.iter().all(Message::is_ground),
            Message::Encrypted { body, key, .. }
            | Message::PubEncrypted { body, key, .. }
            | Message::Signed { body, key, .. } => key.is_ground() && body.is_ground(),
            Message::Combined { body, secret, .. } => body.is_ground() && secret.is_ground(),
            Message::Forwarded(b) => b.is_ground(),
        }
    }

    /// The structural depth of the message (a primitive has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Message::Formula(f) => 1 + f.depth(),
            Message::Principal(_)
            | Message::Key(_)
            | Message::Nonce(_)
            | Message::Param(_)
            | Message::Opaque => 1,
            Message::Tuple(items) => 1 + items.iter().map(Message::depth).max().unwrap_or(0),
            Message::Encrypted { body, .. }
            | Message::PubEncrypted { body, .. }
            | Message::Signed { body, .. } => 1 + body.depth(),
            Message::Combined { body, secret, .. } => 1 + body.depth().max(secret.depth()),
            Message::Forwarded(b) => 1 + b.depth(),
        }
    }

    /// The total number of grammar nodes in the message.
    pub fn size(&self) -> usize {
        match self {
            Message::Formula(f) => 1 + f.size(),
            Message::Principal(_)
            | Message::Key(_)
            | Message::Nonce(_)
            | Message::Param(_)
            | Message::Opaque => 1,
            Message::Tuple(items) => 1 + items.iter().map(Message::size).sum::<usize>(),
            Message::Encrypted { body, .. }
            | Message::PubEncrypted { body, .. }
            | Message::Signed { body, .. } => 1 + body.size(),
            Message::Combined { body, secret, .. } => 1 + body.size() + secret.size(),
            Message::Forwarded(b) => 1 + b.size(),
        }
    }

    /// Collects every key constant occurring anywhere in the message
    /// (encryption positions and data positions alike).
    pub fn keys(&self) -> BTreeSet<Key> {
        let mut out = BTreeSet::new();
        self.collect_keys(&mut out);
        out
    }

    pub(crate) fn collect_keys(&self, out: &mut BTreeSet<Key>) {
        match self {
            Message::Formula(f) => f.collect_keys(out),
            Message::Key(k) => {
                out.insert(k.clone());
            }
            Message::Principal(_) | Message::Nonce(_) | Message::Param(_) | Message::Opaque => {}
            Message::Tuple(items) => {
                for m in items {
                    m.collect_keys(out);
                }
            }
            Message::Encrypted { body, key, .. }
            | Message::PubEncrypted { body, key, .. }
            | Message::Signed { body, key, .. } => {
                if let KeyTerm::Key(k) = key {
                    out.insert(k.clone());
                }
                body.collect_keys(out);
            }
            Message::Combined { body, secret, .. } => {
                body.collect_keys(out);
                secret.collect_keys(out);
            }
            Message::Forwarded(b) => b.collect_keys(out),
        }
    }

    /// Collects every parameter occurring in the message.
    pub fn params(&self) -> BTreeSet<Param> {
        let mut out = BTreeSet::new();
        self.collect_params(&mut out);
        out
    }

    pub(crate) fn collect_params(&self, out: &mut BTreeSet<Param>) {
        match self {
            Message::Formula(f) => f.collect_params(out),
            Message::Param(p) => {
                out.insert(p.clone());
            }
            Message::Principal(_) | Message::Key(_) | Message::Nonce(_) | Message::Opaque => {}
            Message::Tuple(items) => {
                for m in items {
                    m.collect_params(out);
                }
            }
            Message::Encrypted { body, key, .. }
            | Message::PubEncrypted { body, key, .. }
            | Message::Signed { body, key, .. } => {
                if let KeyTerm::Param(p) = key {
                    out.insert(p.clone());
                }
                body.collect_params(out);
            }
            Message::Combined { body, secret, .. } => {
                body.collect_params(out);
                secret.collect_params(out);
            }
            Message::Forwarded(b) => b.collect_params(out),
        }
    }
}

impl From<Formula> for Message {
    fn from(f: Formula) -> Self {
        Message::formula(f)
    }
}

impl From<Principal> for Message {
    fn from(p: Principal) -> Self {
        Message::Principal(p)
    }
}

impl From<Key> for Message {
    fn from(k: Key) -> Self {
        Message::Key(k)
    }
}

impl From<Nonce> for Message {
    fn from(n: Nonce) -> Self {
        Message::Nonce(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn abk() -> (Principal, Principal, Key) {
        (Principal::new("A"), Principal::new("B"), Key::new("Kab"))
    }

    #[test]
    fn tuple_collapses_singletons() {
        let m = Message::tuple([Message::nonce(Nonce::new("Na"))]);
        assert_eq!(m, Message::nonce(Nonce::new("Na")));
        let m2 = Message::tuple([
            Message::nonce(Nonce::new("Na")),
            Message::nonce(Nonce::new("Nb")),
        ]);
        assert!(matches!(m2, Message::Tuple(ref v) if v.len() == 2));
    }

    #[test]
    fn components_of_non_tuple_is_self() {
        let m = Message::nonce(Nonce::new("Na"));
        assert_eq!(m.components(), std::slice::from_ref(&m));
    }

    #[test]
    fn groundness() {
        let (a, b, k) = abk();
        let f = Formula::shared_key(a.clone(), k, b);
        let m = Message::formula(f);
        assert!(m.is_ground());
        let p = Message::encrypted(m, Param::new("K"), a);
        assert!(!p.is_ground());
        assert!(!Message::Opaque.is_ground());
    }

    #[test]
    fn depth_and_size() {
        let (a, _, k) = abk();
        let inner = Message::nonce(Nonce::new("Ts"));
        assert_eq!(inner.depth(), 1);
        assert_eq!(inner.size(), 1);
        let enc = Message::encrypted(inner, k, a);
        assert_eq!(enc.depth(), 2);
        assert_eq!(enc.size(), 2);
    }

    #[test]
    fn key_collection_covers_data_and_encryption_positions() {
        let (a, b, k) = abk();
        let kbs = Key::new("Kbs");
        let m = Message::encrypted(Message::key(k.clone()), kbs.clone(), a.clone());
        let keys = m.keys();
        assert!(keys.contains(&k));
        assert!(keys.contains(&kbs));
        let _ = b;
    }

    #[test]
    fn param_collection() {
        let kab = Param::new("Kab");
        let m = Message::encrypted(
            Message::param(kab.clone()),
            Param::new("Kx"),
            Principal::new("S"),
        );
        let ps = m.params();
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&kab));
    }

    #[test]
    fn ordering_allows_btreeset_membership() {
        let (a, _, k) = abk();
        let mut set = BTreeSet::new();
        set.insert(Message::encrypted(
            Message::nonce(Nonce::new("T")),
            k.clone(),
            a.clone(),
        ));
        assert!(set.contains(&Message::encrypted(Message::nonce(Nonce::new("T")), k, a)));
    }
}
