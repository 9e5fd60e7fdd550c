//! States of a run as views of its event log (Section 5).
//!
//! A global state is fixed by the state before it and the action that
//! joins them, so the state at time `k` is a function of the run's first
//! state and its first `k − k₀` events. A run therefore stores one event
//! [`Log`]; a state is a [`StateView`] of the log at a time, and a
//! principal's local state is a [`LocalView`] whose history is a prefix of
//! that principal's events. [`LocalState`] is the owned form, produced by
//! hiding a view (Section 6) — the form the semantics compares and caches.
//!
//! A send's context — the sender's key set and received messages at send
//! time, which restrictions 3–5 and `said-submsgs` read — is the sender's
//! local view at the send's own index, so neither the checked builder
//! nor a run's [`SendRecord`](crate::run::SendRecord)s copy it: they read
//! [`LocalView::receipts`] from the log.

use crate::action::{Action, Event};
use atl_lang::{hide_message, Key, KeySet, Message, MessageSet, Principal, TermCache};
use std::collections::BTreeMap;

/// An owned local state: a history, a key set, and application data (used,
/// e.g., by the coin-toss example of Section 7, where a principal's state
/// records a coin outcome). [`LocalView::hidden`] produces one; two local
/// states are indistinguishable to their owner exactly when their hidden
/// forms are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalState {
    /// The sequence of all actions the principal has performed.
    pub history: Vec<Action>,
    /// The keys the principal holds.
    pub key_set: KeySet,
    /// Application-specific local data, part of the state for the purposes
    /// of indistinguishability.
    pub data: BTreeMap<String, String>,
}

impl LocalState {
    /// Creates an empty local state holding the given keys.
    pub fn with_keys(keys: impl IntoIterator<Item = Key>) -> Self {
        LocalState {
            history: Vec::new(),
            key_set: keys.into_iter().collect(),
            data: BTreeMap::new(),
        }
    }
}

/// Key-set changes: `(i, set)` means `set` is held from state `i` on.
type KeyChanges = Vec<(usize, KeySet)>;

/// The key set held at state `i`, given the first state's set and the
/// changes after it.
fn key_set_at<'a>(first: &'a KeySet, changes: &'a [(usize, KeySet)], i: usize) -> &'a KeySet {
    match changes.partition_point(|(from, _)| *from <= i) {
        0 => first,
        n => &changes[n - 1].1,
    }
}

/// Records that `key` is held from state `from` on (a no-op if it already
/// is: key sets only grow, so a change point is a real change).
fn acquire(first: &KeySet, changes: &mut KeyChanges, from: usize, key: &Key) {
    let held = changes.last().map_or(first, |(_, set)| set);
    if !held.contains(key) {
        let mut next = held.clone();
        next.insert(key.clone());
        changes.push((from, next));
    }
}

/// Takes the first copy of `message` out of `buffer` — how a receive
/// delivers — returning it if there was one.
pub(crate) fn take_first(buffer: &mut Vec<Message>, message: &Message) -> Option<Message> {
    let pos = buffer.iter().position(|m| m == message)?;
    Some(buffer.remove(pos))
}

/// No application data: the local view of a principal that is not a
/// system principal.
static NO_DATA: BTreeMap<String, String> = BTreeMap::new();

/// A run's first state and event log, with the indexes a view reads.
///
/// The first state holds each system principal's starting key set and
/// data, and the environment's starting key set; histories and buffers
/// start empty, as the paper requires of a run's first state. Every later
/// state is derived from the events:
///
/// - a principal's history is its own events, minus idle steps
///   ([`Event::is_idle`]); a principal that is not a system principal
///   (the environment, or any undeclared name) keeps the same history and
///   reads the environment's key set;
/// - a `newkey` adds to the actor's key set if it is a system principal,
///   and to the environment's otherwise; an idle step adds `__pad` to the
///   environment's key set;
/// - a `send` buffers the message for its recipient, and a `receive` takes
///   the first equal message out of the actor's buffer. The state at a
///   receive's own time already lacks the delivered message: the checked
///   builder takes it out of the buffer before the event is logged.
#[derive(Clone, Debug)]
pub(crate) struct Log {
    start_time: i64,
    /// The first state of each system principal (histories empty).
    first: BTreeMap<Principal, LocalState>,
    /// The environment's first key set.
    first_env_keys: KeySet,
    events: Vec<Event>,
    /// The indices of the send events, ascending.
    sends: Vec<usize>,
    /// Per actor, the indices of its non-idle events, ascending.
    histories: BTreeMap<Principal, Vec<usize>>,
    /// Key-set changes of each system principal that has any.
    key_changes: BTreeMap<Principal, KeyChanges>,
    /// Key-set changes of the environment.
    env_key_changes: KeyChanges,
}

impl PartialEq for Log {
    /// Everything but the start time, the first state and the events is
    /// derived from them, so equality compares those alone.
    fn eq(&self, other: &Log) -> bool {
        self.start_time == other.start_time
            && self.first_env_keys == other.first_env_keys
            && self.first == other.first
            && self.events == other.events
    }
}

impl Eq for Log {}

impl Log {
    /// An empty log whose first state carries time `start_time`.
    pub(crate) fn new(start_time: i64) -> Self {
        Log {
            start_time,
            first: BTreeMap::new(),
            first_env_keys: KeySet::new(),
            events: Vec::new(),
            sends: Vec::new(),
            histories: BTreeMap::new(),
            key_changes: BTreeMap::new(),
            env_key_changes: Vec::new(),
        }
    }

    /// The first state's local states, editable until the first event.
    pub(crate) fn first_mut(&mut self) -> &mut BTreeMap<Principal, LocalState> {
        debug_assert!(self.events.is_empty(), "header edited after an event");
        &mut self.first
    }

    /// The environment's first key set, editable until the first event.
    pub(crate) fn first_env_keys_mut(&mut self) -> &mut KeySet {
        debug_assert!(self.events.is_empty(), "header edited after an event");
        &mut self.first_env_keys
    }

    pub(crate) fn start_time(&self) -> i64 {
        self.start_time
    }

    pub(crate) fn events(&self) -> &[Event] {
        &self.events
    }

    /// The indices of the send events, ascending.
    pub(crate) fn sends(&self) -> &[usize] {
        &self.sends
    }

    /// The time of the last state.
    pub(crate) fn horizon(&self) -> i64 {
        self.start_time + self.events.len() as i64
    }

    pub(crate) fn is_system(&self, p: &Principal) -> bool {
        self.first.contains_key(p)
    }

    pub(crate) fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.first.keys()
    }

    /// Appends one event, updating the histories and key sets it changes.
    pub(crate) fn push(&mut self, event: Event) {
        let at = self.events.len();
        let idle = event.is_idle();
        if let Action::NewKey { key } = &event.action {
            // A system principal's own newkey grows its key set; every
            // other newkey, idle steps included, grows the environment's.
            match self.first.get(&event.actor).filter(|_| !idle) {
                Some(first) => {
                    let changes = self.key_changes.entry(event.actor.clone()).or_default();
                    acquire(&first.key_set, changes, at + 1, key);
                }
                None => acquire(&self.first_env_keys, &mut self.env_key_changes, at + 1, key),
            }
        }
        if !idle {
            self.histories
                .entry(event.actor.clone())
                .or_default()
                .push(at);
        }
        if event.action.is_send() {
            self.sends.push(at);
        }
        self.events.push(event);
    }

    /// The state after the first `i` events (`i ≤ events.len()`).
    pub(crate) fn view(&self, i: usize) -> StateView<'_> {
        debug_assert!(i <= self.events.len());
        StateView { log: self, at: i }
    }
}

/// A global state (Section 5's tuple `(s_e, s_1, …, s_n)`), viewed at one
/// time of a run's event log: [`Run::state`](crate::run::Run::state) and
/// [`RunBuilder::current_state`](crate::run::RunBuilder::current_state)
/// return one. A view is a log reference and an index, so making one costs
/// nothing; local views and key sets are answered in O(log n), buffers and
/// the global history by a scan of the log prefix.
#[derive(Clone, Copy, Debug)]
pub struct StateView<'a> {
    log: &'a Log,
    /// How many events precede this state.
    at: usize,
}

impl<'a> StateView<'a> {
    /// The local state of `p`.
    ///
    /// For a principal that is not a system principal — the distinguished
    /// environment principal above all — this is the environment's view:
    /// its history is its own non-idle events, and its key set is the
    /// environment's key set. (The environment can deduce everything in the
    /// global state, but for the belief semantics only its own actions and
    /// keys matter, matching the treatment of system principals.)
    pub fn local(&self, p: &Principal) -> LocalView<'a> {
        let log = self.log;
        let events = log.histories.get(p).map_or(&[][..], Vec::as_slice);
        let len = events.partition_point(|&j| j < self.at);
        LocalView {
            log: &log.events,
            history: &events[..len],
            key_set: self.key_set(p),
            data: log.first.get(p).map_or(&NO_DATA, |s| &s.data),
        }
    }

    /// The key set of `p` in this state (the environment's key set for a
    /// principal that is not a system principal).
    pub fn key_set(&self, p: &Principal) -> &'a KeySet {
        let log = self.log;
        match log.first.get(p) {
            Some(first) => key_set_at(
                &first.key_set,
                log.key_changes.get(p).map_or(&[][..], Vec::as_slice),
                self.at,
            ),
            None => self.env_key_set(),
        }
    }

    /// The environment's key set.
    pub fn env_key_set(&self) -> &'a KeySet {
        key_set_at(&self.log.first_env_keys, &self.log.env_key_changes, self.at)
    }

    /// The system principals, in order.
    pub fn principals(&self) -> impl Iterator<Item = &'a Principal> + 'a {
        self.log.principals()
    }

    /// The messages buffered for `p`: sent to `p` and not yet delivered,
    /// oldest first. A scan of the log prefix.
    pub fn buffer(&self, p: &Principal) -> Vec<Message> {
        let mut buffer: Vec<Message> = Vec::new();
        for event in &self.log.events[..self.at] {
            match &event.action {
                Action::Send { message, to } if to == p => buffer.push(message.clone()),
                Action::Receive { message } if &event.actor == p => {
                    take_first(&mut buffer, message);
                }
                _ => {}
            }
        }
        // A receive leaves the buffer before the state at its own time.
        if let Some(event) = self.log.events.get(self.at) {
            if let Action::Receive { message } = &event.action {
                if &event.actor == p {
                    take_first(&mut buffer, message);
                }
            }
        }
        buffer
    }

    /// The global history: every action performed so far, each tagged
    /// with its performer (idle steps are not actions).
    pub fn global_history(&self) -> impl Iterator<Item = &'a Event> + 'a {
        self.log.events[..self.at].iter().filter(|e| !e.is_idle())
    }
}

/// A principal's local state, viewed at one time of a run: its history
/// (a prefix of its events), its key set and its data.
#[derive(Clone, Copy, Debug)]
pub struct LocalView<'a> {
    log: &'a [Event],
    history: &'a [usize],
    key_set: &'a KeySet,
    data: &'a BTreeMap<String, String>,
}

impl PartialEq for LocalView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key_set == other.key_set
            && self.data == other.data
            && self.history.len() == other.history.len()
            && self.history().eq(other.history())
    }
}

impl Eq for LocalView<'_> {}

impl<'a> LocalView<'a> {
    /// The sequence of all actions the principal has performed.
    pub fn history(&self) -> impl Iterator<Item = &'a Action> + 'a {
        let log = self.log;
        self.history.iter().map(move |&j| &log[j].action)
    }

    /// The keys the principal holds.
    pub fn key_set(&self) -> &'a KeySet {
        self.key_set
    }

    /// The principal's application data.
    pub fn data(&self) -> &'a BTreeMap<String, String> {
        self.data
    }

    /// The messages the principal has received, by reference and in
    /// history order (a message delivered twice appears twice): what
    /// [`Self::received`] collects, for readers that only iterate.
    pub fn receipts(&self) -> impl Iterator<Item = &'a Message> + 'a {
        self.history().filter_map(|a| match a {
            Action::Receive { message } => Some(message),
            _ => None,
        })
    }

    /// The set of messages the principal has received (the paper's `𝓜`):
    /// every `m` with `receive(m)` in the local history.
    pub fn received(&self) -> MessageSet {
        self.receipts().cloned().collect()
    }

    /// The set of messages the principal has sent, analogously.
    pub fn sent(&self) -> MessageSet {
        self.history()
            .filter_map(|a| match a {
                Action::Send { message, .. } => Some(message.clone()),
                _ => None,
            })
            .collect()
    }

    /// The `hide` operation of Section 6 applied to a whole local state:
    /// every message in the history has its unreadable ciphertext replaced
    /// by the opaque token, using the *current* key set.
    ///
    /// Two local states are indistinguishable to their owner exactly when
    /// their hidden forms are equal.
    pub fn hidden(&self) -> LocalState {
        self.hidden_by(&mut |m, keys| hide_message(m, keys))
    }

    /// [`Self::hidden`] routed through a [`TermCache`], so repeated hides
    /// of the same `(message, key set)` pair — ubiquitous when scanning
    /// many points of the same system — are computed once.
    pub fn hidden_with(&self, cache: &mut TermCache) -> LocalState {
        self.hidden_by(&mut |m, keys| (*cache.hide(m, keys)).clone())
    }

    fn hidden_by(&self, hide: &mut dyn FnMut(&Message, &KeySet) -> Message) -> LocalState {
        LocalState {
            history: self
                .history()
                .map(|a| match a {
                    Action::Send { message, to } => Action::Send {
                        message: hide(message, self.key_set),
                        to: to.clone(),
                    },
                    Action::Receive { message } => Action::Receive {
                        message: hide(message, self.key_set),
                    },
                    Action::NewKey { key } => Action::NewKey { key: key.clone() },
                })
                .collect(),
            key_set: self.key_set.clone(),
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    /// A log with system principal `A` (holding `Ka`, coin `H`) and the
    /// given events.
    fn log(events: impl IntoIterator<Item = Event>) -> Log {
        let mut log = Log::new(0);
        let mut a = LocalState::with_keys([Key::new("Ka")]);
        a.data.insert("coin".into(), "H".into());
        log.first_mut().insert(Principal::new("A"), a);
        for e in events {
            log.push(e);
        }
        log
    }

    #[test]
    fn received_and_sent_extraction() {
        let log = log([
            Event::new("A", Action::receive(nonce("X"))),
            Event::new("A", Action::send(nonce("Y"), "B")),
            Event::new("A", Action::new_key("K2")),
        ]);
        let s = log.view(3).local(&Principal::new("A"));
        assert!(s.received().contains(&nonce("X")));
        assert!(!s.received().contains(&nonce("Y")));
        assert!(s.sent().contains(&nonce("Y")));
        assert_eq!(s.data().get("coin").map(String::as_str), Some("H"));
    }

    #[test]
    fn receipts_follow_history_order_and_sends_are_indexed() {
        let a = Principal::new("A");
        let log = log([
            Event::new("A", Action::receive(nonce("Y"))),
            Event::new("A", Action::send(nonce("Z"), "B")),
            Event::new("A", Action::receive(nonce("X"))),
            Event::new("B", Action::send(nonce("W"), "A")),
            Event::new("A", Action::receive(nonce("Y"))),
        ]);
        let (y, x) = (nonce("Y"), nonce("X"));
        assert!(log.view(5).local(&a).receipts().eq([&y, &x, &y]));
        assert_eq!(log.view(5).local(&a).received().len(), 2);
        assert!(log.view(2).local(&a).receipts().eq([&y]));
        assert_eq!(log.sends(), [1, 3]);
    }

    #[test]
    fn hidden_masks_unreadable_ciphertext_only() {
        let readable = Message::encrypted(nonce("X"), Key::new("Ka"), Principal::new("S"));
        let unreadable = Message::encrypted(nonce("Y"), Key::new("Kb"), Principal::new("S"));
        let log = log([
            Event::new("A", Action::receive(readable.clone())),
            Event::new("A", Action::receive(unreadable)),
        ]);
        let h = log.view(2).local(&Principal::new("A")).hidden();
        assert_eq!(h.history[0], Action::receive(readable));
        assert_eq!(h.history[1], Action::receive(Message::Opaque));
    }

    #[test]
    fn hidden_states_merge_indistinguishable_histories() {
        // Two states that differ only in ciphertext the owner cannot read
        // hide to the same state.
        let mk = |inner: &str| {
            log([Event::new(
                "A",
                Action::receive(Message::encrypted(
                    nonce(inner),
                    Key::new("K"),
                    Principal::new("S"),
                )),
            )])
        };
        let (x, y) = (mk("X"), mk("Y"));
        let a = Principal::new("A");
        assert_ne!(x.view(1).local(&a), y.view(1).local(&a));
        assert_eq!(x.view(1).local(&a).hidden(), y.view(1).local(&a).hidden());
    }

    #[test]
    fn hidden_with_cache_matches_uncached_hidden() {
        let log = log([
            Event::new(
                "A",
                Action::receive(Message::encrypted(
                    nonce("X"),
                    Key::new("Ka"),
                    Principal::new("S"),
                )),
            ),
            Event::new(
                "A",
                Action::send(
                    Message::encrypted(nonce("Y"), Key::new("Kb"), Principal::new("S")),
                    "B",
                ),
            ),
        ]);
        let s = log.view(2).local(&Principal::new("A"));
        let mut cache = TermCache::new();
        assert_eq!(s.hidden_with(&mut cache), s.hidden());
        // Second pass over the same state is answered from the cache.
        assert_eq!(s.hidden_with(&mut cache), s.hidden());
        assert!(cache.stats().hits >= 2);
    }

    #[test]
    fn environment_local_view_filters_global_history() {
        let env_p = Principal::environment();
        let log = log([
            Event::new("A", Action::new_key("Ka2")),
            Event::new(env_p.clone(), Action::new_key("Ke")),
            Event::idle(),
        ]);
        let view = log.view(3).local(&env_p);
        assert_eq!(
            view.history().cloned().collect::<Vec<_>>(),
            [Action::new_key("Ke")]
        );
        // The idle step is no action, but it does grow the key set.
        assert_eq!(log.view(3).global_history().count(), 2);
        assert!(view.key_set().contains(&Key::new("Ke")));
        assert!(view.key_set().contains(&Key::new("__pad")));
        assert!(view.data().is_empty());
    }

    #[test]
    fn key_set_lookup() {
        let log = log([
            Event::new("A", Action::new_key("K2")),
            Event::new("A", Action::new_key("K2")),
            Event::new("C", Action::new_key("Kc")),
        ]);
        let (a, c) = (Principal::new("A"), Principal::new("C"));
        assert!(log.view(0).key_set(&a).contains(&Key::new("Ka")));
        assert!(!log.view(0).key_set(&a).contains(&Key::new("K2")));
        assert!(log.view(1).key_set(&a).contains(&Key::new("K2")));
        // Re-acquiring a held key is no change point.
        assert_eq!(log.key_changes[&a].len(), 1);
        // An undeclared principal's key goes to the environment.
        assert!(log.view(2).env_key_set().is_empty());
        assert!(log.view(3).key_set(&c).contains(&Key::new("Kc")));
        assert!(log.view(3).env_key_set().contains(&Key::new("Kc")));
        assert!(log
            .view(3)
            .key_set(&Principal::environment())
            .contains(&Key::new("Kc")));
        assert!(log.view(3).principals().eq([&a]));
    }

    #[test]
    fn buffers_replay_sends_and_receives() {
        let b = Principal::new("B");
        let log = log([
            Event::new("A", Action::send(nonce("X"), "B")),
            Event::new("A", Action::send(nonce("Y"), "B")),
            Event::new("B", Action::receive(nonce("X"))),
        ]);
        assert!(log.view(0).buffer(&b).is_empty());
        assert_eq!(log.view(1).buffer(&b), [nonce("X")]);
        // The state at the receive's own time already lacks the message.
        assert_eq!(log.view(2).buffer(&b), [nonce("Y")]);
        assert_eq!(log.view(3).buffer(&b), [nonce("Y")]);
    }
}
