//! Executing protocols into runs, with optional fault injection.
//!
//! The executor interleaves the role scripts of a [`Protocol`] into a
//! well-formed [`Run`]: at each scheduler round it picks an *enabled* role
//! (one whose next script step can fire) and performs that step through
//! the checked [`RunBuilder`]. Different schedules yield different runs of
//! the same protocol; [`execute_schedules`] collects several into a
//! [`System`].
//!
//! [`execute_with_faults`] additionally threads a [`FaultPlan`] through
//! the rounds: sends may be dropped, duplicated, delayed, reordered, or
//! answered with environment replays, and keys may be compromised at
//! scheduled times. Roles whose [`ExpectPolicy`] allows it degrade (skip
//! the step, or retransmit and retry) instead of stalling. Every fault is
//! realized through the checked builder, so faulted runs still satisfy
//! the Section 5 restrictions; the accompanying [`ExecReport`] records
//! exactly what was injected and how the roles coped.

use crate::error::ModelError;
use crate::faults::{AbandonedStep, ExecReport, FaultEvent, FaultKind, FaultPlan};
use crate::parallel::Pool;
use crate::protocol::{ExpectPolicy, MsgPattern, OnTimeout, Protocol, RoleStep};
use crate::run::{Run, RunBuilder};
use crate::sweep::{sweep_plans_on, ExecutionCache};
use crate::system::System;
use atl_lang::{seen_submsg_refs, Message, Principal};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Options controlling execution.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Time assigned to the run's first state (≤ 0). A negative start time
    /// places the protocol's prologue in the past epoch.
    pub start_time: i64,
    /// If true, every send also posts a copy to the environment principal,
    /// modeling a public channel the attacker taps.
    pub public_channel: bool,
    /// Fixed schedule: at step `i`, try to fire role `schedule[i % len]`.
    /// Empty means round-robin over roles.
    pub schedule: Vec<usize>,
}

/// Executes `protocol` under `options`, producing one run.
///
/// # Errors
///
/// [`ModelError::Stalled`] if no role can make progress before all scripts
/// finish (e.g. an `Expect` for a message never sent);
/// [`ModelError::SendViolation`] if a script violates the Section 5
/// restrictions.
pub fn execute(protocol: &Protocol, options: &ExecOptions) -> Result<Run, ModelError> {
    Driver::new(protocol, options, None)?
        .run()
        .map(|(run, _)| run)
}

/// Like [`execute`], but also returns the [`ExecReport`] describing how
/// the roles degraded (useful even without faults, when expect policies
/// allow skipping or retransmission).
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_with_report(
    protocol: &Protocol,
    options: &ExecOptions,
) -> Result<(Run, ExecReport), ModelError> {
    Driver::new(protocol, options, None)?.run()
}

/// Executes `protocol` while injecting the faults of `plan`, returning
/// the (still well-formed) run and a report of the faults applied.
///
/// # Errors
///
/// [`ModelError::Fault`] if the plan is ill-formed; otherwise as for
/// [`execute`]. Note that under aggressive plans a protocol whose expect
/// steps have no degradation policy may legitimately return
/// [`ModelError::Stalled`].
pub fn execute_with_faults(
    protocol: &Protocol,
    options: &ExecOptions,
    plan: &FaultPlan,
) -> Result<(Run, ExecReport), ModelError> {
    Driver::new(protocol, options, Some(plan))?.run()
}

/// A buffered message copy the environment is withholding from its
/// recipient: dropped copies forever, delayed/reordered ones until a
/// scheduler round.
#[derive(Clone, Debug)]
struct Withheld {
    recipient: Principal,
    message: Message,
    /// `None` = never delivered (drop); `Some(r)` = withheld until round `r`.
    release_round: Option<u32>,
}

impl Withheld {
    fn active(&self, round: u32) -> bool {
        self.release_round.is_none_or(|r| r > round)
    }
}

/// Internal executor state shared by the clean and faulted paths.
struct Driver<'a> {
    protocol: &'a Protocol,
    options: &'a ExecOptions,
    plan: Option<&'a FaultPlan>,
    rng: Option<StdRng>,
    builder: RunBuilder,
    cursors: Vec<usize>,
    /// Fruitless scheduler rounds accumulated per role at its current
    /// expect step.
    waits: Vec<u32>,
    /// Retransmissions already performed per role at its current expect
    /// step.
    resends: Vec<u32>,
    withheld: Vec<Withheld>,
    pending_compromises: Vec<(atl_lang::Key, i64)>,
    report: ExecReport,
    round: u32,
    env: Principal,
}

impl<'a> Driver<'a> {
    fn new(
        protocol: &'a Protocol,
        options: &'a ExecOptions,
        plan: Option<&'a FaultPlan>,
    ) -> Result<Self, ModelError> {
        if let Some(p) = plan {
            p.validate()?;
        }
        let mut builder = RunBuilder::new(options.start_time);
        for role in protocol.roles() {
            builder.principal(role.principal.clone(), role.initial_keys.iter().cloned());
        }
        let n = protocol.roles().len();
        Ok(Driver {
            protocol,
            options,
            plan,
            rng: plan.map(|p| StdRng::seed_from_u64(p.seed)),
            builder,
            cursors: vec![0; n],
            waits: vec![0; n],
            resends: vec![0; n],
            withheld: Vec::new(),
            pending_compromises: plan.map(|p| p.compromises.clone()).unwrap_or_default(),
            report: ExecReport::default(),
            round: 0,
            env: Principal::environment(),
        })
    }

    /// A generous bound on scheduler rounds, guaranteeing termination even
    /// under adversarial plans: enough for every step, every finite
    /// patience window with all its retries, every withheld delivery, and
    /// some slack for compromise idling.
    fn round_cap(&self) -> u32 {
        let mut cap: u64 = 64 + 16 * self.protocol.total_steps() as u64;
        for role in self.protocol.roles() {
            for step in &role.steps {
                if let RoleStep::Expect { policy, .. } = step {
                    if let Some(patience) = policy.patience {
                        let retries = match policy.on_timeout {
                            OnTimeout::Resend { max_retries } => max_retries,
                            _ => 0,
                        };
                        cap += (u64::from(patience) + 1)
                            .saturating_mul(u64::from(retries) + 2)
                            .min(1 << 14);
                    }
                }
            }
        }
        if let Some(plan) = self.plan {
            // The delay duration only contributes when delays can fire:
            // this keeps execution a function of the plan's *canonical*
            // form (see `PlanFingerprint`), not of inert knobs.
            if plan.delay_p > 0.0 {
                cap += u64::from(plan.delay_rounds);
            }
            cap += 8 * (plan.compromises.len() as u64 + 1);
        }
        cap.min(u32::MAX as u64) as u32
    }

    fn run(mut self) -> Result<(Run, ExecReport), ModelError> {
        let cap = self.round_cap();
        let n = self.protocol.roles().len();
        while !self.finished() {
            if self.round >= cap {
                return Err(self.stall_error());
            }
            self.apply_due_compromises();
            self.release_due_withheld();
            let mut fired = false;
            for offset in 0..n {
                let idx = if self.options.schedule.is_empty() {
                    (self.round as usize + offset) % n
                } else {
                    (self.options.schedule[self.round as usize % self.options.schedule.len()]
                        + offset)
                        % n
                };
                if self.cursors[idx] >= self.protocol.roles()[idx].steps.len() {
                    continue;
                }
                if self.try_fire(idx)? {
                    fired = true;
                    break;
                }
            }
            if !fired {
                if self.has_future_work() {
                    // Nothing can fire this round, but a timeout, release,
                    // or compromise is coming: let time pass.
                    self.builder.idle();
                } else {
                    return Err(self.stall_error());
                }
            }
            self.round += 1;
        }
        self.apply_remaining_compromises();
        self.report.rounds = self.round;
        let run = self.builder.into_run()?;
        Ok((run, self.report))
    }

    fn finished(&self) -> bool {
        self.cursors
            .iter()
            .zip(self.protocol.roles())
            .all(|(c, r)| *c >= r.steps.len())
    }

    /// True if an unfired round still makes progress towards something: a
    /// withheld delivery due to release, an expect timeout due to fire, or
    /// a scheduled compromise the run has not reached yet.
    fn has_future_work(&self) -> bool {
        let release_pending = self
            .withheld
            .iter()
            .any(|w| w.release_round.is_some_and(|r| r > self.round));
        let timeout_pending = self
            .cursors
            .iter()
            .zip(self.protocol.roles())
            .any(|(c, role)| {
                matches!(
                    role.steps.get(*c),
                    Some(RoleStep::Expect {
                        policy: ExpectPolicy {
                            patience: Some(_),
                            ..
                        },
                        ..
                    })
                )
            });
        let compromise_pending = self
            .pending_compromises
            .iter()
            .any(|(_, t)| *t > self.builder.now());
        release_pending || timeout_pending || compromise_pending
    }

    fn stall_error(&self) -> ModelError {
        match self
            .protocol
            .roles()
            .iter()
            .enumerate()
            .find(|(i, r)| self.cursors[*i] < r.steps.len())
        {
            Some((idx, role)) => {
                let step = &role.steps[self.cursors[idx]];
                ModelError::Stalled {
                    principal: role.principal.clone(),
                    waiting_for: format!("{step:?}"),
                }
            }
            // Defensive: a stall is only reported while a role is
            // unfinished, but never panic on the error path.
            None => ModelError::MalformedRun("executor stalled with all roles finished".into()),
        }
    }

    /// Applies every compromise whose scheduled time has been reached.
    fn apply_due_compromises(&mut self) {
        let now = self.builder.now();
        let due: Vec<_> = {
            let (due, rest) = std::mem::take(&mut self.pending_compromises)
                .into_iter()
                .partition(|(_, t)| *t <= now);
            self.pending_compromises = rest;
            due
        };
        for (key, t) in due {
            self.builder.new_key(self.env.clone(), key.clone());
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Compromise,
                detail: format!("environment learned {key} (scheduled for t={t})"),
            });
        }
    }

    /// After the scripts finish, pad time forward (bounded) so compromises
    /// scheduled past the protocol's natural end still take effect.
    fn apply_remaining_compromises(&mut self) {
        const PADDING_CAP: i64 = 256;
        let mut padded = 0;
        while !self.pending_compromises.is_empty() && padded < PADDING_CAP {
            self.apply_due_compromises();
            if self.pending_compromises.is_empty() {
                break;
            }
            self.builder.idle();
            padded += 1;
        }
        self.apply_due_compromises();
        for (key, t) in std::mem::take(&mut self.pending_compromises) {
            self.report.faults.push(FaultEvent {
                time: self.builder.now(),
                kind: FaultKind::Compromise,
                detail: format!("{key} NOT compromised: scheduled time {t} is beyond reach"),
            });
        }
    }

    fn release_due_withheld(&mut self) {
        let round = self.round;
        self.withheld
            .retain(|w| w.release_round.is_none_or(|r| r > round));
    }

    /// Attempts to fire the next step of role `idx`; returns whether the
    /// role made progress (including degrading on timeout).
    fn try_fire(&mut self, idx: usize) -> Result<bool, ModelError> {
        let protocol = self.protocol;
        let role = &protocol.roles()[idx];
        let cursor = self.cursors[idx];
        match &role.steps[cursor] {
            RoleStep::Send { message, to } => {
                let principal = &role.principal;
                match self.perform_send(principal, message, to) {
                    Ok(()) => {}
                    // Under an active fault plan a role may have abandoned
                    // the expect that would have let it legally construct
                    // this message (restrictions 3–5). That is degradation,
                    // not a protocol bug: abandon the send and move on.
                    Err(ModelError::SendViolation { reason, .. })
                        if self.plan.is_some_and(|p| p.is_active()) =>
                    {
                        self.report.abandoned.push(AbandonedStep {
                            principal: principal.clone(),
                            step_index: cursor,
                            detail: format!("send abandoned: {reason}"),
                        });
                    }
                    Err(e) => return Err(e),
                }
                self.cursors[idx] += 1;
                Ok(true)
            }
            RoleStep::NewKey(k) => {
                self.builder.new_key(role.principal.clone(), k.clone());
                self.cursors[idx] += 1;
                Ok(true)
            }
            RoleStep::Expect { pattern, policy } => {
                match self.deliverable(&role.principal, pattern) {
                    Some(m) => {
                        self.builder.receive(role.principal.clone(), &m)?;
                        self.cursors[idx] += 1;
                        self.waits[idx] = 0;
                        self.resends[idx] = 0;
                        Ok(true)
                    }
                    None => self.handle_expect_timeout(idx, pattern, *policy),
                }
            }
        }
    }

    /// Nothing matched this round: account the wait and, if patience has
    /// run out, degrade according to the policy.
    fn handle_expect_timeout(
        &mut self,
        idx: usize,
        pattern: &MsgPattern,
        policy: ExpectPolicy,
    ) -> Result<bool, ModelError> {
        self.waits[idx] += 1;
        let Some(patience) = policy.patience else {
            return Ok(false);
        };
        if self.waits[idx] <= patience {
            return Ok(false);
        }
        let protocol = self.protocol;
        let role = &protocol.roles()[idx];
        let principal = &role.principal;
        if let OnTimeout::Resend { max_retries } = policy.on_timeout {
            if self.resends[idx] < max_retries {
                // Retransmit the most recent send before this expect step
                // (if the role has not sent anything, fall through to
                // skipping).
                let prior = role.steps[..self.cursors[idx]]
                    .iter()
                    .rev()
                    .find_map(|s| match s {
                        RoleStep::Send { message, to } => Some((message, to)),
                        _ => None,
                    });
                if let Some((message, to)) = prior {
                    self.resends[idx] += 1;
                    self.waits[idx] = 0;
                    self.report.retries += 1;
                    match self.perform_send(principal, message, to) {
                        Ok(()) => {}
                        // The prior send may itself have been abandoned
                        // (e.g. the role lost the expect that made it
                        // constructible), so retransmission can be
                        // illegal. Burn the retry and keep degrading.
                        Err(ModelError::SendViolation { .. })
                            if self.plan.is_some_and(|p| p.is_active()) => {}
                        Err(e) => return Err(e),
                    }
                    return Ok(true);
                }
            }
        }
        match policy.on_timeout {
            OnTimeout::Stall => Ok(false),
            OnTimeout::Skip | OnTimeout::Resend { .. } => {
                self.report.abandoned.push(AbandonedStep {
                    principal: principal.clone(),
                    step_index: self.cursors[idx],
                    detail: format!("{pattern:?}"),
                });
                self.cursors[idx] += 1;
                self.waits[idx] = 0;
                self.resends[idx] = 0;
                Ok(true)
            }
        }
    }

    /// The first buffered message for `p` matching `pattern` that is not
    /// currently withheld by the environment.
    fn deliverable(&self, p: &Principal, pattern: &MsgPattern) -> Option<Message> {
        // Buffered copies are plain values, so withheld entries suppress
        // *one* matching copy each (multiset semantics).
        let mut suppressed: Vec<&Message> = self
            .withheld
            .iter()
            .filter(|w| &w.recipient == p && w.active(self.round))
            .map(|w| &w.message)
            .collect();
        for m in self.builder.buffer(p) {
            if let Some(pos) = suppressed.iter().position(|s| *s == m) {
                suppressed.swap_remove(pos);
                continue;
            }
            if pattern.matches(m) {
                return Some(m.clone());
            }
        }
        None
    }

    /// Performs a role send through the builder, mirrors it on the public
    /// channel if configured, and applies per-send faults from the plan.
    fn perform_send(
        &mut self,
        sender: &Principal,
        message: &Message,
        to: &Principal,
    ) -> Result<(), ModelError> {
        self.builder
            .send(sender.clone(), message.clone(), to.clone())?;
        let tap = self.plan.is_some_and(|p| p.replay_p > 0.0);
        if (self.options.public_channel || tap) && *to != self.env {
            self.builder
                .send(sender.clone(), message.clone(), self.env.clone())?;
            if tap {
                // The environment takes its copy immediately, making the
                // message (and its visible submessages) replayable.
                self.builder.receive(self.env.clone(), message)?;
            }
        }
        self.apply_send_faults(sender, message, to)
    }

    /// Draws the fault decisions for one send, in a fixed order so the
    /// decision stream is a deterministic function of the plan seed and
    /// the send sequence.
    fn apply_send_faults(
        &mut self,
        sender: &Principal,
        message: &Message,
        to: &Principal,
    ) -> Result<(), ModelError> {
        let Some(plan) = self.plan else {
            return Ok(());
        };
        let Some(rng) = self.rng.as_mut() else {
            return Ok(());
        };
        let duplicate = plan.duplicate_p > 0.0 && rng.gen_bool(plan.duplicate_p);
        let drop = plan.drop_p > 0.0 && rng.gen_bool(plan.drop_p);
        let delay = !drop && plan.delay_p > 0.0 && rng.gen_bool(plan.delay_p);
        let reorder = !drop && !delay && plan.reorder_p > 0.0 && rng.gen_bool(plan.reorder_p);
        let reorder_span = if reorder {
            1 + rng.gen_range(0..3u32)
        } else {
            0
        };
        let replay = plan.replay_p > 0.0 && rng.gen_bool(plan.replay_p);
        let replay_pick = if replay { rng.next_u64() } else { 0 };

        if duplicate {
            // Modeled as a sender-side retransmission: the network's extra
            // copy is indistinguishable from the sender sending twice, and
            // the checked builder accepts it (the sender just sent it).
            self.builder
                .send(sender.clone(), message.clone(), to.clone())?;
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Duplicate,
                detail: format!("{message} for {to} buffered twice"),
            });
        }
        if drop {
            self.withheld.push(Withheld {
                recipient: to.clone(),
                message: message.clone(),
                release_round: None,
            });
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Drop,
                detail: format!("{message} for {to} never delivered"),
            });
        } else if delay {
            self.withheld.push(Withheld {
                recipient: to.clone(),
                message: message.clone(),
                release_round: Some(self.round + plan.delay_rounds),
            });
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Delay,
                detail: format!("{message} for {to} withheld {} round(s)", plan.delay_rounds),
            });
        } else if reorder {
            self.withheld.push(Withheld {
                recipient: to.clone(),
                message: message.clone(),
                release_round: Some(self.round + reorder_span),
            });
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Reorder,
                detail: format!("{message} for {to} overtaken for {reorder_span} round(s)"),
            });
        }
        if replay {
            self.perform_replay(replay_pick, to);
        }
        Ok(())
    }

    /// The environment re-sends one piece of previously seen material at
    /// `to` — the same move the random adversary generator makes, and
    /// legal under restriction 3 because the material was seen.
    fn perform_replay(&mut self, pick: u64, to: &Principal) {
        let env_local = self.builder.current_state().local(&self.env);
        // The seen set iterates in `Message` order, so the pick is a
        // function of the plan seed and the environment's receipts.
        let seen: Vec<&Message> = seen_submsg_refs(env_local.receipts(), env_local.key_set())
            .into_iter()
            .filter(|m| m.is_ground())
            .collect();
        if seen.is_empty() {
            return;
        }
        let chosen = seen[(pick % seen.len() as u64) as usize];
        let detail = format!("environment replayed {chosen} at {to}");
        let chosen = chosen.clone();
        // The checked send should always accept seen material; if a corner
        // case refuses, the fault is skipped rather than failing the run.
        if self
            .builder
            .send(self.env.clone(), chosen, to.clone())
            .is_ok()
        {
            self.report.faults.push(FaultEvent {
                time: self.builder.now() - 1,
                kind: FaultKind::Replay,
                detail,
            });
        }
    }
}

/// Executes the protocol under each provided schedule, collecting the
/// resulting runs into a system. Schedules that stall are skipped.
pub fn execute_schedules(
    protocol: &Protocol,
    base: &ExecOptions,
    schedules: &[Vec<usize>],
) -> System {
    let mut runs = Vec::new();
    for schedule in schedules {
        let options = ExecOptions {
            schedule: schedule.clone(),
            ..base.clone()
        };
        if let Ok(run) = execute(protocol, &options) {
            if !runs.contains(&run) {
                runs.push(run);
            }
        }
    }
    System::new(runs)
}

/// Executes the protocol once per fault plan, collecting the distinct
/// well-formed runs into a system — a degraded-traffic analogue of
/// [`execute_schedules`] for feeding the semantics with faulty runs.
///
/// Internally this rides the sweep engine: plans with identical
/// [fingerprints](crate::PlanFingerprint) execute once, and the
/// remaining executions are sharded across an auto-sized pool. The
/// resulting system is exactly what executing every plan sequentially
/// would produce.
pub fn execute_fault_suite(protocol: &Protocol, base: &ExecOptions, plans: &[FaultPlan]) -> System {
    sweep_plans_on(protocol, base, plans, &Pool::auto(), &ExecutionCache::new()).system()
}

/// All rotations of `0..n` — a cheap family of distinct schedules.
pub fn rotation_schedules(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|s| (0..n).map(|i| (i + s) % n).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Role;
    use crate::validate::validate_run;
    use atl_lang::{Key, Nonce};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    fn ping_pong() -> Protocol {
        Protocol::new("ping-pong")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect(nonce("pong")),
            )
            .role(
                Role::new("B", [])
                    .expect(nonce("ping"))
                    .send(nonce("pong"), "A"),
            )
    }

    #[test]
    fn executes_ping_pong() {
        let run = execute(&ping_pong(), &ExecOptions::default()).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(run.send_records().len(), 2);
        let a = Principal::new("A");
        let final_state = run.state(run.horizon()).unwrap();
        assert!(final_state.local(&a).received().contains(&nonce("pong")));
    }

    #[test]
    fn stalls_when_message_never_sent() {
        let proto = Protocol::new("stuck").role(Role::new("A", []).expect(nonce("never")));
        let err = execute(&proto, &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, ModelError::Stalled { .. }));
    }

    #[test]
    fn public_channel_copies_to_environment() {
        let opts = ExecOptions {
            public_channel: true,
            ..ExecOptions::default()
        };
        let run = execute(&ping_pong(), &opts).unwrap();
        // Each of the two protocol sends is mirrored to Env.
        assert_eq!(run.send_records().len(), 4);
        let env_buffer = run
            .state(run.horizon())
            .unwrap()
            .buffer(&Principal::environment());
        assert!(env_buffer.contains(&nonce("ping")));
        assert!(env_buffer.contains(&nonce("pong")));
    }

    #[test]
    fn negative_start_time_places_prefix_in_past() {
        let opts = ExecOptions {
            start_time: -2,
            ..ExecOptions::default()
        };
        let run = execute(&ping_pong(), &opts).unwrap();
        assert_eq!(run.start_time(), -2);
        assert!(run.sent_before_epoch().contains(&nonce("ping")));
    }

    #[test]
    fn schedules_generate_distinct_runs() {
        // Two independent senders: order matters, so rotations differ.
        let proto = Protocol::new("par")
            .role(Role::new("A", []).send(nonce("a"), "C"))
            .role(Role::new("B", []).send(nonce("b"), "C"))
            .role(Role::new("C", []).expect_any().expect_any());
        let sys = execute_schedules(&proto, &ExecOptions::default(), &rotation_schedules(3));
        assert!(
            sys.len() >= 2,
            "expected multiple distinct runs, got {}",
            sys.len()
        );
        for run in sys.runs() {
            assert!(validate_run(run).is_empty());
        }
    }

    #[test]
    fn keyed_protocol_respects_restrictions() {
        let k = Key::new("Kab");
        let cipher = Message::encrypted(nonce("X"), k.clone(), Principal::new("A"));
        let proto = Protocol::new("enc")
            .role(Role::new("A", [k.clone()]).send(cipher.clone(), "B"))
            .role(Role::new("B", [k]).expect(cipher));
        let run = execute(&proto, &ExecOptions::default()).unwrap();
        assert!(validate_run(&run).is_empty());
    }

    #[test]
    fn clean_execution_reports_no_degradation() {
        let (run, report) = execute_with_report(&ping_pong(), &ExecOptions::default()).unwrap();
        assert!(validate_run(&run).is_empty());
        assert!(!report.degraded());
        assert!(report.rounds > 0);
    }

    #[test]
    fn inactive_plan_reproduces_clean_run() {
        let clean = execute(&ping_pong(), &ExecOptions::default()).unwrap();
        let (faulted, report) =
            execute_with_faults(&ping_pong(), &ExecOptions::default(), &FaultPlan::new(5)).unwrap();
        assert_eq!(clean, faulted);
        assert!(!report.degraded());
    }

    #[test]
    fn invalid_plan_is_rejected_as_fault_error() {
        let err = execute_with_faults(
            &ping_pong(),
            &ExecOptions::default(),
            &FaultPlan::new(0).drop(2.0),
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::Fault(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn dropped_ping_times_out_and_skips() {
        // B skips its expect when the ping is dropped; A's expect also
        // skips (pong is never produced); the run completes, degraded.
        let proto = Protocol::new("lossy")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect_with(nonce("pong"), ExpectPolicy::skip_after(3)),
            )
            .role(
                Role::new("B", [])
                    .expect_with(nonce("ping"), ExpectPolicy::skip_after(3))
                    .send(nonce("pong"), "A"),
            );
        let plan = FaultPlan::new(1).drop(1.0);
        let (run, report) = execute_with_faults(&proto, &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty(), "{:?}", validate_run(&run));
        assert!(report.degraded());
        assert!(report.faults_of(FaultKind::Drop).count() >= 1);
        assert!(!report.abandoned.is_empty());
        // Nothing was ever received.
        let b = Principal::new("B");
        let final_state = run.state(run.horizon()).unwrap();
        assert!(final_state.local(&b).received().is_empty());
    }

    #[test]
    fn resend_policy_retransmits_until_delivery() {
        // Drop every send; A retries its ping enough times that B's
        // patience is irrelevant — but since drops are total, delivery
        // never happens and both roles degrade after their retries.
        let proto = Protocol::new("retry")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect_with(nonce("pong"), ExpectPolicy::resend_after(2, 3)),
            )
            .role(Role::new("B", []).expect_with(nonce("ping"), ExpectPolicy::skip_after(30)));
        let plan = FaultPlan::new(3).drop(1.0);
        let (run, report) = execute_with_faults(&proto, &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(report.retries, 3);
        // Original + 3 retransmissions, all dropped.
        assert_eq!(report.faults_of(FaultKind::Drop).count(), 4);
        assert_eq!(run.send_records().len(), 4);
        assert_eq!(report.abandoned.len(), 2);
    }

    #[test]
    fn resend_recovers_from_partial_loss() {
        // Seed chosen so the first ping is dropped but a retransmission
        // gets through: the protocol completes with retries > 0 and no
        // abandoned steps.
        let proto = |patience| {
            Protocol::new("retry-recover")
                .role(
                    Role::new("A", [])
                        .send(nonce("ping"), "B")
                        .expect_with(nonce("pong"), ExpectPolicy::resend_after(patience, 8)),
                )
                .role(
                    Role::new("B", [])
                        .expect_with(nonce("ping"), ExpectPolicy::skip_after(200))
                        .send(nonce("pong"), "A"),
                )
        };
        let mut recovered = false;
        for seed in 0..32 {
            let plan = FaultPlan::new(seed).drop(0.5);
            let Ok((run, report)) = execute_with_faults(&proto(2), &ExecOptions::default(), &plan)
            else {
                continue;
            };
            assert!(validate_run(&run).is_empty());
            if report.retries > 0 && report.abandoned.is_empty() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "no seed in 0..32 exercised drop-then-recover");
    }

    #[test]
    fn duplication_buffers_second_copy() {
        let plan = FaultPlan::new(2).duplicate(1.0);
        let (run, report) =
            execute_with_faults(&ping_pong(), &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(report.faults_of(FaultKind::Duplicate).count(), 2);
        // Each protocol message was sent twice; one copy of each is
        // consumed, one remains buffered.
        assert_eq!(run.send_records().len(), 4);
        let final_state = run.state(run.horizon()).unwrap();
        assert_eq!(final_state.buffer(&Principal::new("A")), [nonce("pong")]);
        assert_eq!(final_state.buffer(&Principal::new("B")), [nonce("ping")]);
    }

    #[test]
    fn delay_defers_but_preserves_delivery() {
        let plan = FaultPlan::new(4).delay(1.0, 3);
        let (run, report) =
            execute_with_faults(&ping_pong(), &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(report.faults_of(FaultKind::Delay).count(), 2);
        // Despite the delays, both messages eventually arrive.
        let final_state = run.state(run.horizon()).unwrap();
        let a = Principal::new("A");
        assert!(final_state.local(&a).received().contains(&nonce("pong")));
        assert!(report.rounds > 2, "delays should cost rounds");
    }

    #[test]
    fn reorder_lets_later_traffic_overtake() {
        // A sends two messages; C accepts any two. Reordering withholds
        // the first so the second can be received first in some seeds.
        let proto = Protocol::new("order")
            .role(
                Role::new("A", [])
                    .send(nonce("first"), "C")
                    .send(nonce("second"), "C"),
            )
            .role(Role::new("C", []).expect_any().expect_any());
        let mut saw_swap = false;
        for seed in 0..32 {
            let plan = FaultPlan::new(seed).reorder(0.7);
            let (run, _) = execute_with_faults(&proto, &ExecOptions::default(), &plan).unwrap();
            assert!(validate_run(&run).is_empty());
            let c = Principal::new("C");
            let received: Vec<Message> = run
                .state(run.horizon())
                .unwrap()
                .local(&c)
                .history()
                .filter_map(|a| match a {
                    crate::action::Action::Receive { message } => Some(message.clone()),
                    _ => None,
                })
                .collect();
            if received == [nonce("second"), nonce("first")] {
                saw_swap = true;
                break;
            }
        }
        assert!(saw_swap, "no seed in 0..32 produced a reordered delivery");
    }

    #[test]
    fn replay_resends_seen_material() {
        let plan = FaultPlan::new(6).replay(1.0);
        let (run, report) =
            execute_with_faults(&ping_pong(), &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert!(report.faults_of(FaultKind::Replay).count() >= 1);
        // Replayed sends come from the environment.
        let env = Principal::environment();
        assert!(run.send_records().any(|r| *r.sender == env));
    }

    #[test]
    fn compromise_grants_environment_the_key() {
        let k = Key::new("Kab");
        let cipher = Message::encrypted(nonce("X"), k.clone(), Principal::new("A"));
        let proto = Protocol::new("enc")
            .role(Role::new("A", [k.clone()]).send(cipher.clone(), "B"))
            .role(Role::new("B", [k.clone()]).expect(cipher));
        let plan = FaultPlan::new(0).compromise(k.clone(), 1);
        let (run, report) = execute_with_faults(&proto, &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(report.faults_of(FaultKind::Compromise).count(), 1);
        let final_state = run.state(run.horizon()).unwrap();
        assert!(final_state.env_key_set().contains(&k));
        // Before the scheduled time the environment did not hold it.
        assert!(!run.state(0).unwrap().env_key_set().contains(&k));
    }

    #[test]
    fn compromise_past_protocol_end_pads_the_run() {
        let plan = FaultPlan::new(0).compromise("Klate", 9);
        let (run, report) =
            execute_with_faults(&ping_pong(), &ExecOptions::default(), &plan).unwrap();
        assert!(validate_run(&run).is_empty());
        assert_eq!(report.faults_of(FaultKind::Compromise).count(), 1);
        assert!(run.horizon() >= 9);
        assert!(run
            .state(run.horizon())
            .unwrap()
            .env_key_set()
            .contains(&Key::new("Klate")));
    }

    #[test]
    fn faulted_execution_is_deterministic_per_seed() {
        let plan = |seed| FaultPlan::new(seed).drop(0.3).duplicate(0.3).replay(0.4);
        let proto = ping_pong();
        let opts = ExecOptions::default();
        let some_policy = Protocol::new("lossy")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect_with(nonce("pong"), ExpectPolicy::skip_after(4)),
            )
            .role(
                Role::new("B", [])
                    .expect_with(nonce("ping"), ExpectPolicy::skip_after(4))
                    .send(nonce("pong"), "A"),
            );
        for proto in [&proto, &some_policy] {
            if let (Ok(a), Ok(b)) = (
                execute_with_faults(proto, &opts, &plan(11)),
                execute_with_faults(proto, &opts, &plan(11)),
            ) {
                assert_eq!(a, b);
            }
            let differs = (0..16).any(|s| {
                execute_with_faults(proto, &opts, &plan(s)).ok()
                    != execute_with_faults(proto, &opts, &plan(11)).ok()
            });
            assert!(differs, "all seeds produced identical faulted runs");
        }
    }

    #[test]
    fn fault_suite_collects_distinct_wellformed_runs() {
        let proto = Protocol::new("lossy")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect_with(nonce("pong"), ExpectPolicy::skip_after(3)),
            )
            .role(
                Role::new("B", [])
                    .expect_with(nonce("ping"), ExpectPolicy::skip_after(3))
                    .send(nonce("pong"), "A"),
            );
        let plans: Vec<FaultPlan> = (0..12).map(|s| FaultPlan::new(s).drop(0.5)).collect();
        let sys = execute_fault_suite(&proto, &ExecOptions::default(), &plans);
        assert!(sys.len() >= 2, "expected diverse degraded runs");
        for run in sys.runs() {
            assert!(validate_run(run).is_empty());
        }
    }
}
