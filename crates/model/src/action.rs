//! Actions and history events (Section 5).
//!
//! A principal changes its local state — and perhaps the environment state —
//! by performing an [`Action`]: sending a message, receiving a message, or
//! coming into possession of a new key. Each action appends itself to the
//! principal's local history, and, tagged with the performer, to the
//! environment's global history as an [`Event`].

use atl_lang::{Key, Message, Principal};
use std::fmt;

/// An action a principal can perform (Section 5).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// `send(m, Q)`: send the message `m` to principal `Q`; `m` is added to
    /// `Q`'s message buffer.
    Send {
        /// The message sent.
        message: Message,
        /// The intended recipient.
        to: Principal,
    },
    /// `receive(m)`: receipt of a message. In the paper `receive()` chooses
    /// nondeterministically from the buffer; histories record the chosen
    /// message, as the paper tags `receive(m)` with the message returned.
    Receive {
        /// The message delivered from the principal's buffer.
        message: Message,
    },
    /// `newkey(K)`: the key `K` is added to the principal's key set —
    /// whether freshly generated, out-of-band distributed, or guessed by an
    /// attacker.
    NewKey {
        /// The acquired key.
        key: Key,
    },
}

impl Action {
    /// Convenience constructor for [`Action::Send`].
    pub fn send(message: Message, to: impl Into<Principal>) -> Self {
        Action::Send {
            message,
            to: to.into(),
        }
    }

    /// Convenience constructor for [`Action::Receive`].
    pub fn receive(message: Message) -> Self {
        Action::Receive { message }
    }

    /// Convenience constructor for [`Action::NewKey`].
    pub fn new_key(key: impl Into<Key>) -> Self {
        Action::NewKey { key: key.into() }
    }

    /// The message carried by the action, if any.
    pub fn message(&self) -> Option<&Message> {
        match self {
            Action::Send { message, .. } | Action::Receive { message } => Some(message),
            Action::NewKey { .. } => None,
        }
    }

    /// True for `send` actions.
    pub fn is_send(&self) -> bool {
        matches!(self, Action::Send { .. })
    }

    /// True for `receive` actions.
    pub fn is_receive(&self) -> bool {
        matches!(self, Action::Receive { .. })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Send { message, to } => write!(f, "send({message}, {to})"),
            Action::Receive { message } => write!(f, "receive({message})"),
            Action::NewKey { key } => write!(f, "newkey({key})"),
        }
    }
}

/// A global-history entry: an action tagged with the principal that
/// performed it (Section 5 tags global-history actions this way).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// The principal that performed the action.
    pub actor: Principal,
    /// The action performed.
    pub action: Action,
}

/// The key an idle step acquires (see [`Event::idle`]).
const PAD_KEY: &str = "__pad";

impl Event {
    /// Creates an event.
    pub fn new(actor: impl Into<Principal>, action: Action) -> Self {
        Event {
            actor: actor.into(),
            action,
        }
    }

    /// An idle step: no principal acts, but time advances. It is logged
    /// as the environment acquiring the reserved padding key `__pad`; it
    /// is in no history, but `__pad` joins the environment's key set.
    pub fn idle() -> Self {
        Event::new(Principal::environment(), Action::new_key(PAD_KEY))
    }

    /// True for an idle step ([`Event::idle`]).
    pub fn is_idle(&self) -> bool {
        matches!(&self.action, Action::NewKey { key } if key.as_str() == PAD_KEY)
            && self.actor.is_environment()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.actor, self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    #[test]
    fn constructors_and_accessors() {
        let m = Message::nonce(Nonce::new("Na"));
        let s = Action::send(m.clone(), "B");
        assert!(s.is_send());
        assert_eq!(s.message(), Some(&m));
        let r = Action::receive(m.clone());
        assert!(r.is_receive());
        let k = Action::new_key("Kab");
        assert_eq!(k.message(), None);
    }

    #[test]
    fn display_forms() {
        let m = Message::nonce(Nonce::new("Na"));
        assert_eq!(Action::send(m.clone(), "B").to_string(), "send(Na, B)");
        assert_eq!(Action::receive(m).to_string(), "receive(Na)");
        assert_eq!(Action::new_key("K").to_string(), "newkey(K)");
        let e = Event::new("A", Action::new_key("K"));
        assert_eq!(e.to_string(), "A: newkey(K)");
    }
}
