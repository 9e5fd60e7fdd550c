//! Runs: timed event logs (Section 5).
//!
//! A run assigns integer times to a sequence of global states. The first
//! state carries some time `k₀ ≤ 0`; the state at time 0 is the *initial
//! state* — the first state of the current epoch (the current
//! authentication). States before time 0 belong to the past epoch.
//!
//! Each state is fixed by the one before it and the event that joins them,
//! so a run stores its first state and its events, and serves the state at
//! any time as a [`StateView`] of that log (see [`crate::state`]). A send's
//! context — the sender's key set and received messages at send time — is
//! likewise a view: a [`SendRecord`] reads it from the log, and the
//! checked builder reads it by reference to enforce restrictions 3–5, so
//! neither copies it.
//!
//! The paper's runs are infinite; here a run is a finite prefix long enough
//! to contain time 0 and every point under analysis (see DESIGN.md §3 for
//! why this preserves the semantics of all constructs).

use crate::action::{Action, Event};
use crate::error::ModelError;
use crate::state::{take_first, LocalState, LocalView, Log, StateView};
use crate::validate::send_violations;
use atl_lang::{said_submsg_refs, Bindings, Key, Message, MessageSet, Principal};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A send event of a run, viewed with the sender's context at send time —
/// what the `said`/`says` and shared-key semantics read. A view is a log
/// reference and an index, so [`Run::send_records`] makes one per send at
/// no cost; the context is the sender's [`LocalView`] at the send's own
/// time, read from the log rather than copied.
///
/// Two records are equal iff they agree on everything
/// [`Self::said_submsgs`] reads: time, sender, recipient, message, the
/// sender's key set, and the *set* of messages it had received — in
/// whatever order they came.
#[derive(Clone, Copy)]
pub struct SendRecord<'a> {
    /// The time at which the send was performed (the event leading out of
    /// the state at this time).
    pub time: i64,
    /// The sending principal.
    pub sender: &'a Principal,
    /// The recipient.
    pub to: &'a Principal,
    /// The message sent.
    pub message: &'a Message,
    log: &'a Log,
    /// The send's index in the log.
    at: usize,
}

impl<'a> SendRecord<'a> {
    /// The view of the send at index `at` of `log`.
    fn at(log: &'a Log, at: usize) -> SendRecord<'a> {
        let event = &log.events()[at];
        let Action::Send { message, to } = &event.action else {
            unreachable!("the log's send index lists only sends");
        };
        SendRecord {
            time: log.start_time() + at as i64,
            sender: &event.actor,
            to,
            message,
            log,
            at,
        }
    }

    /// The sender's local state at send time: its key set, and its history
    /// up to (not including) this send.
    pub fn context(&self) -> LocalView<'a> {
        self.log.view(self.at).local(self.sender)
    }

    /// The components of the sent message the sender is considered to have
    /// said (`said-submsgs` with the sender's context at send time).
    pub fn said_submsgs(&self) -> MessageSet {
        let context = self.context();
        let received: Vec<&Message> = context.receipts().collect();
        said_submsg_refs(self.message, context.key_set(), &received)
            .into_iter()
            .cloned()
            .collect()
    }
}

impl PartialEq for SendRecord<'_> {
    fn eq(&self, other: &Self) -> bool {
        if (self.time, self.sender, self.to, self.message)
            != (other.time, other.sender, other.to, other.message)
        {
            return false;
        }
        let (mine, theirs) = (self.context(), other.context());
        mine.key_set() == theirs.key_set()
            && mine.receipts().collect::<BTreeSet<_>>()
                == theirs.receipts().collect::<BTreeSet<_>>()
    }
}

impl Eq for SendRecord<'_> {}

impl fmt::Debug for SendRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SendRecord")
            .field("time", &self.time)
            .field("sender", self.sender)
            .field("to", self.to)
            .field("message", self.message)
            .finish()
    }
}

/// A finite run: a first state, the events after it, and a per-run
/// parameter assignment (Section 8). The state at each time is a view of
/// the log ([`Run::state`]), and so is each send record
/// ([`Run::send_records`]).
///
/// Two runs are equal iff their start times, first states, events and
/// bindings are — an O(n) comparison, since every state is derived from
/// those.
#[derive(Clone, Debug)]
pub struct Run {
    log: Log,
    bindings: Bindings,
}

impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.log == other.log && self.bindings == other.bindings
    }
}

impl Eq for Run {}

impl Run {
    /// The time of the first state (`k₀ ≤ 0`).
    pub fn start_time(&self) -> i64 {
        self.log.start_time()
    }

    /// The time of the last state.
    pub fn horizon(&self) -> i64 {
        self.log.horizon()
    }

    /// How many events precede time `k`, if `k` is not before the first
    /// state.
    fn index(&self, k: i64) -> Option<usize> {
        usize::try_from(k.checked_sub(self.start_time())?).ok()
    }

    /// The state at time `k`, if the run covers it.
    pub fn state(&self, k: i64) -> Option<StateView<'_>> {
        let idx = self.index(k)?;
        (idx <= self.log.events().len()).then(|| self.log.view(idx))
    }

    /// Iterates over the times the run covers, earliest first.
    pub fn times(&self) -> impl Iterator<Item = i64> {
        self.start_time()..=self.horizon()
    }

    /// All events with the time at which each was performed.
    pub fn events(&self) -> impl Iterator<Item = (i64, &Event)> {
        let start = self.start_time();
        self.log
            .events()
            .iter()
            .enumerate()
            .map(move |(i, e)| (start + i as i64, e))
    }

    /// The send events of the run, earliest first, each viewed with its
    /// sender's context (see [`SendRecord`]).
    pub fn send_records(&self) -> impl ExactSizeIterator<Item = SendRecord<'_>> {
        let log = &self.log;
        log.sends().iter().map(move |&at| SendRecord::at(log, at))
    }

    /// The `i`-th send of the run (counting from 0), if there is one.
    pub fn send_record(&self, i: usize) -> Option<SendRecord<'_>> {
        let &at = self.log.sends().get(i)?;
        Some(SendRecord::at(&self.log, at))
    }

    /// The parameter assignment of this run (Section 8).
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// The system principals of the run (from its first state).
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.log.principals()
    }

    /// The set `M(r, 0)`: every message sent by any principal before the
    /// current epoch (i.e. present in the global history of the state at
    /// time 0). Freshness is defined against the submessage closure of this
    /// set.
    pub fn sent_before_epoch(&self) -> MessageSet {
        self.send_records()
            .take_while(|rec| rec.time < 0)
            .map(|rec| rec.message.clone())
            .collect()
    }

    /// Appends one event in place, without checking the Section 5
    /// restrictions — the streaming-monitor analogue of rebuilding the run
    /// from a longer prefix. Appending never changes an earlier event or
    /// the first state, so every fact derived from the old prefix (local
    /// states, send records, the pre-epoch sent set at times the run
    /// already covered) stays valid; the result equals the run a
    /// [`RunBuilder`] builds from the extended log. The one earlier state
    /// that reads differently is the old final state when the event is a
    /// receive: its buffer now lacks the delivered message, as the checked
    /// builder's does.
    pub fn extend_unchecked(&mut self, event: Event) {
        self.log.push(event);
    }
}

/// Checked, stepwise construction of a [`Run`].
///
/// The builder enforces the five restrictions of Section 5 as actions are
/// appended:
///
/// 1. key sets only grow (guaranteed structurally);
/// 2. a message can be received only if previously sent to that principal
///    (delivery pops the recipient's buffer);
/// 3. a principal may send ciphertext only if it saw the ciphertext or
///    holds the key;
/// 4. a *system* principal sets from fields to itself on ciphertext it
///    constructs;
/// 5. a *system* principal forwards only messages it has seen.
///
/// # Examples
///
/// ```
/// use atl_lang::{Key, Message, Nonce};
/// use atl_model::RunBuilder;
/// let mut b = RunBuilder::new(-1);
/// b.principal("A", [Key::new("Kas")]);
/// b.principal("S", [Key::new("Kas")]);
/// b.send("A", Message::nonce(Nonce::new("req")), "S")?;   // past epoch
/// b.receive("S", &Message::nonce(Nonce::new("req")))?;    // present
/// let run = b.build()?;
/// assert_eq!(run.start_time(), -1);
/// assert_eq!(run.horizon(), 1);
/// # Ok::<(), atl_model::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RunBuilder {
    log: Log,
    /// The live message buffers: what is sent and not yet delivered.
    buffers: BTreeMap<Principal, Vec<Message>>,
    bindings: Bindings,
}

impl RunBuilder {
    /// Starts a run whose first state carries time `start_time ≤ 0`
    /// (clamped to 0 if positive). Histories and buffers start empty, as
    /// the paper requires of a run's first state.
    pub fn new(start_time: i64) -> Self {
        RunBuilder {
            log: Log::new(start_time.min(0)),
            buffers: BTreeMap::new(),
            bindings: Bindings::new(),
        }
    }

    /// Registers a system principal with its initial key set. Must be
    /// called before any action is appended.
    pub fn principal(
        &mut self,
        p: impl Into<Principal>,
        keys: impl IntoIterator<Item = Key>,
    ) -> &mut Self {
        self.log
            .first_mut()
            .insert(p.into(), LocalState::with_keys(keys));
        self
    }

    /// Grants the environment principal its initial keys. Must be called
    /// before any action is appended.
    pub fn env_keys(&mut self, keys: impl IntoIterator<Item = Key>) -> &mut Self {
        self.log.first_env_keys_mut().extend(keys);
        self
    }

    /// Sets an application datum in a principal's initial local state
    /// (e.g. a coin-toss outcome). Must be called before any action is
    /// appended.
    pub fn datum(
        &mut self,
        p: impl Into<Principal>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> &mut Self {
        self.log
            .first_mut()
            .entry(p.into())
            .or_default()
            .data
            .insert(key.into(), value.into());
        self
    }

    /// Binds a run parameter (Section 8).
    pub fn bind_param(&mut self, p: atl_lang::Param, value: Message) -> &mut Self {
        self.bindings.bind(p, value);
        self
    }

    /// The time at which the *next* action will be performed.
    pub fn now(&self) -> i64 {
        self.log.horizon()
    }

    /// A view of the global state as currently built.
    pub fn current_state(&self) -> StateView<'_> {
        self.log.view(self.log.events().len())
    }

    /// The messages currently buffered for `p`, oldest first (what
    /// [`StateView::buffer`] of [`Self::current_state`] returns, without
    /// the scan).
    pub fn buffer(&self, p: &Principal) -> &[Message] {
        self.buffers.get(p).map_or(&[], Vec::as_slice)
    }

    /// The most recently appended event, if any — how a streaming
    /// consumer picks up the event it just applied, to extend an
    /// already-built [`Run`] via [`Run::extend_unchecked`].
    pub fn last_event(&self) -> Option<&Event> {
        self.log.events().last()
    }

    /// The run's initial global state: the declared principals with
    /// their starting key sets, before any event (the pre-state of the
    /// first event once one exists).
    pub fn initial_state(&self) -> StateView<'_> {
        self.log.view(0)
    }

    /// Checks restriction 3 (and 4–5 for system principals) for a message
    /// about to be sent by `actor`, refusing on the first violation the
    /// shared walk reports.
    fn check_send(&self, actor: &Principal, message: &Message) -> Result<(), ModelError> {
        let local = self.current_state().local(actor);
        let received: Vec<&Message> = local.receipts().collect();
        let is_system = self.log.is_system(actor);
        let first = send_violations(actor, is_system, message, local.key_set(), &received).next();
        let Some((restriction, sub)) = first else {
            return Ok(());
        };
        let reason = match sub {
            Message::Forwarded(body) => {
                format!("restriction 5: {actor} forwards {body} without having seen it")
            }
            Message::Encrypted { from, .. } if restriction == 4 => {
                format!("restriction 4: from field {from} on ciphertext constructed by {actor}")
            }
            Message::Combined { from, .. } => format!(
                "restriction 4: from field {from} on combined message constructed by {actor}"
            ),
            Message::PubEncrypted { from, .. } if restriction == 4 => format!(
                "restriction 4: from field {from} on public-key ciphertext constructed by {actor}"
            ),
            Message::Signed { from, .. } if restriction == 4 => {
                format!("restriction 4: from field {from} on signature constructed by {actor}")
            }
            Message::PubEncrypted { .. } => {
                format!("restriction 3: cannot construct {sub} without the public key")
            }
            Message::Signed { .. } => {
                format!("restriction 3: cannot construct {sub} without the private key")
            }
            _ => format!("restriction 3: cannot construct {sub} without its key"),
        };
        Err(ModelError::SendViolation {
            actor: actor.clone(),
            reason,
        })
    }

    /// Appends a checked `send` action.
    ///
    /// # Errors
    ///
    /// [`ModelError::SendViolation`] if the send breaks restriction 3 (any
    /// principal) or restrictions 4–5 (system principals);
    /// [`ModelError::NotGround`] if the message still contains parameters.
    pub fn send(
        &mut self,
        from: impl Into<Principal>,
        message: Message,
        to: impl Into<Principal>,
    ) -> Result<&mut Self, ModelError> {
        let from = from.into();
        let to = to.into();
        if !message.is_ground() {
            return Err(ModelError::NotGround(message));
        }
        self.check_send(&from, &message)?;
        self.push_send(from, message, to);
        Ok(self)
    }

    /// Appends a `send` action *without* checking the restrictions. Used to
    /// build deliberately ill-formed runs for the validator tests.
    pub fn send_unchecked(
        &mut self,
        from: impl Into<Principal>,
        message: Message,
        to: impl Into<Principal>,
    ) -> &mut Self {
        self.push_send(from.into(), message, to.into());
        self
    }

    fn push_send(&mut self, from: Principal, message: Message, to: Principal) {
        self.log
            .push(Event::new(from, Action::send(message.clone(), to.clone())));
        self.buffers.entry(to).or_default().push(message);
    }

    /// Takes the first buffered copy of `message` out of `p`'s buffer,
    /// returning it if there was one.
    fn take_buffered(&mut self, p: &Principal, message: &Message) -> Option<Message> {
        take_first(self.buffers.get_mut(p)?, message)
    }

    /// Appends a `receive` action delivering the given message from `p`'s
    /// buffer (the paper's nondeterministic choice, made explicit).
    ///
    /// # Errors
    ///
    /// [`ModelError::NotInBuffer`] if the message is not buffered for `p`.
    pub fn receive(
        &mut self,
        p: impl Into<Principal>,
        message: &Message,
    ) -> Result<&mut Self, ModelError> {
        let p = p.into();
        let Some(delivered) = self.take_buffered(&p, message) else {
            return Err(ModelError::NotInBuffer {
                principal: p,
                message: message.clone(),
            });
        };
        self.log.push(Event::new(p, Action::receive(delivered)));
        Ok(self)
    }

    /// Appends a `receive` action *without* requiring the message to be
    /// buffered (restriction 2); a buffered copy is still delivered. With
    /// [`Self::send_unchecked`], this builds the deliberately ill-formed
    /// runs of the validator tests.
    pub fn receive_unchecked(&mut self, p: impl Into<Principal>, message: Message) -> &mut Self {
        let p = p.into();
        self.take_buffered(&p, &message);
        self.log.push(Event::new(p, Action::receive(message)));
        self
    }

    /// Appends a `newkey` action adding `key` to `p`'s key set (to the
    /// environment's key set if `p` is not a system principal). The
    /// environment acquiring the reserved key `__pad` is an idle step
    /// ([`Self::idle`]).
    pub fn new_key(&mut self, p: impl Into<Principal>, key: impl Into<Key>) -> &mut Self {
        self.log.push(Event::new(p, Action::new_key(key)));
        self
    }

    /// Appends an idle step ([`Event::idle`]): no principal acts but time
    /// advances. Useful for padding the past epoch or aligning run
    /// lengths.
    pub fn idle(&mut self) -> &mut Self {
        self.log.push(Event::idle());
        self
    }

    /// Finishes the run, copying the log built so far; the builder can
    /// go on appending. A builder dropped right after should call
    /// [`Self::into_run`] instead.
    ///
    /// # Errors
    ///
    /// [`ModelError::MalformedRun`] if the run would end before time 0.
    pub fn build(&self) -> Result<Run, ModelError> {
        self.check_horizon()?;
        Ok(Run {
            log: self.log.clone(),
            bindings: self.bindings.clone(),
        })
    }

    /// Finishes the run, handing it the log built so far: the run
    /// [`Self::build`] returns, without the copy.
    ///
    /// # Errors
    ///
    /// As for [`Self::build`].
    pub fn into_run(self) -> Result<Run, ModelError> {
        self.check_horizon()?;
        Ok(Run {
            log: self.log,
            bindings: self.bindings,
        })
    }

    /// A run must reach time 0.
    fn check_horizon(&self) -> Result<(), ModelError> {
        let horizon = self.now();
        if horizon < 0 {
            return Err(ModelError::MalformedRun(format!(
                "run ends at time {horizon}, before the epoch start"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    #[test]
    fn times_and_states_align() {
        let mut b = RunBuilder::new(-2);
        b.principal("A", []);
        b.new_key("A", "K1");
        b.new_key("A", "K2");
        b.new_key("A", "K3");
        let run = b.build().unwrap();
        assert_eq!(run.start_time(), -2);
        assert_eq!(run.horizon(), 1);
        assert_eq!(run.times().collect::<Vec<_>>(), vec![-2, -1, 0, 1]);
        // Key acquired at time -2 appears in the state at time -1.
        assert!(!run
            .state(-2)
            .unwrap()
            .key_set(&Principal::new("A"))
            .contains(&Key::new("K1")));
        assert!(run
            .state(-1)
            .unwrap()
            .key_set(&Principal::new("A"))
            .contains(&Key::new("K1")));
    }

    #[test]
    fn send_buffers_and_receive_delivers() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("X"), "B").unwrap();
        assert_eq!(b.buffer(&Principal::new("B")), [nonce("X")]);
        assert_eq!(b.current_state().buffer(&Principal::new("B")), [nonce("X")]);
        b.receive("B", &nonce("X")).unwrap();
        let run = b.build().unwrap();
        let final_state = run.state(run.horizon()).unwrap();
        assert!(final_state.buffer(&Principal::new("B")).is_empty());
        assert!(final_state
            .local(&Principal::new("B"))
            .received()
            .contains(&nonce("X")));
    }

    #[test]
    fn receive_requires_buffered_message() {
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        let err = b.receive("B", &nonce("X")).unwrap_err();
        assert!(matches!(err, ModelError::NotInBuffer { .. }));
    }

    #[test]
    fn restriction3_rejects_unconstructible_ciphertext() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        let err = b.send("A", cipher, "B").unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn resending_seen_ciphertext_is_allowed() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        b.principal("C", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        // B does not hold K but may replay the ciphertext it received.
        b.send("B", cipher, "C").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn restriction4_rejects_forged_from_field() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        // A constructs ciphertext claiming it is from B.
        let forged = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("B"));
        let err = b.send("A", forged, "B").unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn environment_may_forge_from_fields_but_not_break_r3() {
        let mut b = RunBuilder::new(0);
        b.principal("B", []);
        b.env_keys([Key::new("Ke")]);
        let env = Principal::environment();
        // The environment holds Ke, so it may construct ciphertext with any
        // from field (restriction 4 binds only system principals).
        let spoofed = Message::encrypted(nonce("X"), Key::new("Ke"), Principal::new("B"));
        b.send(env.clone(), spoofed, "B").unwrap();
        // But restriction 3 still binds it.
        let unknown = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("B"));
        assert!(b.send(env, unknown, "B").is_err());
    }

    #[test]
    fn restriction5_rejects_blind_forwarding_by_system_principal() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let err = b
            .send("A", Message::forwarded(nonce("X")), "B")
            .unwrap_err();
        assert!(matches!(err, ModelError::SendViolation { .. }));
    }

    #[test]
    fn forwarding_after_receipt_is_allowed() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        b.principal("C", []);
        b.send("A", nonce("X"), "B").unwrap();
        b.receive("B", &nonce("X")).unwrap();
        b.send("B", Message::forwarded(nonce("X")), "C").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn sent_before_epoch_splits_at_time_zero() {
        let mut b = RunBuilder::new(-1);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap(); // time -1
        b.send("A", nonce("new"), "B").unwrap(); // time 0
        let run = b.build().unwrap();
        let past = run.sent_before_epoch();
        assert!(past.contains(&nonce("old")));
        assert!(!past.contains(&nonce("new")));
    }

    #[test]
    fn send_records_capture_sender_context() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        b.send("B", Message::forwarded(cipher.clone()), "A")
            .unwrap();
        let run = b.build().unwrap();
        assert_eq!(run.send_records().len(), 2);
        let rec = run.send_record(0).unwrap();
        assert_eq!(*rec.sender, Principal::new("A"));
        assert_eq!(
            (rec.time, rec.to, rec.message),
            (0, &Principal::new("B"), &cipher)
        );
        assert!(rec.said_submsgs().contains(&nonce("X")));
        // B's forward reads B's context at send time: it had received the
        // ciphertext, so it vouches for neither the ciphertext nor X.
        let fwd = run.send_record(1).unwrap();
        assert_eq!(fwd.time, 2);
        assert!(fwd.context().received().contains(&cipher));
        assert!(fwd.context().key_set().is_empty());
        assert_eq!(fwd.said_submsgs().len(), 1);
        assert!(run.send_record(2).is_none());
    }

    #[test]
    fn extend_unchecked_equals_rebuild_at_every_prefix() {
        // Replay a run with sends (pre- and post-epoch), receives, and
        // newkeys event by event: a run extended in place must equal a
        // full rebuild of the same prefix after every single event.
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("K")]);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap();
        b.receive("B", &nonce("old")).unwrap();
        b.new_key("B", "K2");
        b.send("B", nonce("new"), "A").unwrap();
        b.receive("A", &nonce("new")).unwrap();
        let full = b.build().unwrap();

        let mut replay = RunBuilder::new(-1);
        replay.principal("A", [Key::new("K")]);
        replay.principal("B", []);
        let mut extended: Option<Run> = None;
        for (_, event) in full.events() {
            match &event.action {
                Action::Send { message, to } => {
                    replay
                        .send(event.actor.clone(), message.clone(), to.clone())
                        .unwrap();
                }
                Action::Receive { message } => {
                    replay.receive(event.actor.clone(), message).unwrap();
                }
                Action::NewKey { key } => {
                    replay.new_key(event.actor.clone(), key.clone());
                }
            }
            match &mut extended {
                None if replay.now() >= 0 => extended = Some(replay.build().unwrap()),
                None => {}
                Some(run) => {
                    let ev = replay.last_event().expect("just appended").clone();
                    run.extend_unchecked(ev);
                    let rebuilt = replay.build().unwrap();
                    assert_eq!(*run, rebuilt, "extension diverged from rebuild");
                    assert!(run.send_records().eq(rebuilt.send_records()));
                    assert_eq!(run.sent_before_epoch(), rebuilt.sent_before_epoch());
                }
            }
        }
        assert_eq!(extended.expect("run crossed the epoch"), full);
    }

    #[test]
    fn build_requires_reaching_epoch() {
        let mut b = RunBuilder::new(-3);
        b.principal("A", []);
        b.new_key("A", "K");
        assert!(matches!(b.build(), Err(ModelError::MalformedRun(_))));
    }

    #[test]
    fn non_ground_messages_rejected() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.principal("B", []);
        let err = b
            .send("A", Message::param(atl_lang::Param::new("X")), "B")
            .unwrap_err();
        assert!(matches!(err, ModelError::NotGround(_)));
    }
}
