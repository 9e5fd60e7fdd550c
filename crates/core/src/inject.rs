//! The single-plan fault-injection report, shared by `atl inject` and
//! the serve-mode daemon.
//!
//! [`inject_report`] runs one [`FaultPlan`] against an idealized
//! protocol and renders the belief-survival report the CLI has always
//! printed: execution summary, injected faults, the restriction 1–5
//! audit, and which annotation-procedure beliefs survive the
//! degradation. Execution is routed through
//! [`sweep_plans_on`] with a caller-supplied
//! [`ExecutionCache`], so a long-lived process (the daemon) answers
//! repeated plans as reference bumps while a one-shot CLI invocation
//! just passes a fresh cache — the report bytes are identical either
//! way (the e16 suite pins swept outcomes to direct execution).

use crate::annotate::AtProtocol;
use crate::enact::{enact_with, EnactOptions};
use crate::parallel::Pool;
use crate::sweep::{delivery_mask, sends_kept, MaskVerdicts};
use atl_lang::{Formula, Key, KeyTerm, Message};
use atl_model::{
    sweep_plans_on, validate_run, ExecOptions, ExecutionCache, ExpectPolicy, FaultPlan, ModelError,
    Run,
};
use std::fmt::Write as _;

/// Everything that determines one `inject` execution: the plan, the
/// expect policy the roles are enacted with, and the executor options.
#[derive(Clone, Debug)]
pub struct InjectRequest {
    /// The fault plan to execute.
    pub plan: FaultPlan,
    /// How waiting roles cope with missing messages.
    pub policy: ExpectPolicy,
    /// Executor options (public channel, round caps, …).
    pub options: ExecOptions,
}

/// The result of a single-plan injection: the rendered report plus the
/// pieces callers layer extras on (the CLI's `--emit-trace`, the
/// daemon's cache counters).
#[derive(Clone, Debug)]
pub struct InjectOutcome {
    /// The canonical report text (every line newline-terminated).
    pub report: String,
    /// The faulted run.
    pub run: Run,
    /// True if the run satisfied restrictions 1–5.
    pub ok: bool,
    /// True if the execution was answered by `cache` rather than run.
    pub cache_hit: bool,
}

/// Executes `req` against `at` and renders the belief-survival report.
///
/// The baseline and degraded goal flags come from one [`MaskVerdicts`],
/// whose annotation passes are sharded over `pool`; execution goes
/// through the sweep engine so `cache` can answer repeats.
///
/// # Errors
///
/// [`ModelError`] if the plan is invalid or execution stalls.
pub fn inject_report(
    at: &AtProtocol,
    req: &InjectRequest,
    pool: &Pool,
    cache: &ExecutionCache,
) -> Result<InjectOutcome, ModelError> {
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: req.policy,
        },
    );
    let outcome = sweep_plans_on(
        &proto,
        &req.options,
        std::slice::from_ref(&req.plan),
        pool,
        cache,
    );
    let cache_hit = outcome.stats.cache_hits > 0;
    let result = outcome.results.into_iter().next().expect("one plan in");
    let (run, report) = match result.outcome.as_ref() {
        Ok((run, report)) => (run.clone(), report.clone()),
        Err(e) => return Err(e.clone()),
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "protocol {}: {} roles, seed {}",
        at.name,
        proto.roles().len(),
        req.plan.seed
    );
    let _ = writeln!(
        out,
        "execution: {} rounds, times {}..={}, {} sends, {} retransmissions",
        report.rounds,
        run.start_time(),
        run.horizon(),
        run.send_records().len(),
        report.retries
    );
    if report.faults.is_empty() {
        let _ = writeln!(out, "faults injected: none");
    } else {
        let _ = writeln!(out, "faults injected:");
        for f in &report.faults {
            let _ = writeln!(out, "  t={} {}: {}", f.time, f.kind, f.detail);
        }
    }
    for a in &report.abandoned {
        let _ = writeln!(
            out,
            "  !! {} abandoned step {}: {}",
            a.principal, a.step_index, a.detail
        );
    }

    let violations = validate_run(&run);
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "audit: restrictions 1-5 all satisfied by the faulted run"
        );
    } else {
        for v in &violations {
            let _ = writeln!(out, "  !! {v}");
        }
    }

    // Belief survival: re-run the annotation procedure over only the
    // steps whose messages were actually delivered in the faulted run.
    let mask = delivery_mask(at, &run);
    let mut verdicts = MaskVerdicts::new(at);
    let all_kept = verdicts.all_kept();
    verdicts.resolve([all_kept.as_slice(), mask.as_slice()], pool);
    let (baseline, after) = (
        verdicts.get(&all_kept).expect("resolved above"),
        verdicts.get(&mask).expect("resolved above"),
    );
    let (sent, delivered) = (sends_kept(at, &all_kept), sends_kept(at, &mask));
    let dropped_steps = sent - delivered;
    let _ = writeln!(
        out,
        "beliefs: {delivered} of {sent} idealized messages delivered"
    );
    let mut lost = 0;
    for ((goal, base_ok), now_ok) in at.goals.iter().zip(baseline).zip(after) {
        let tag = match (base_ok, now_ok) {
            (true, true) => "survives",
            (true, false) => {
                lost += 1;
                "degraded"
            }
            (false, _) => "unproven",
        };
        let _ = writeln!(out, "  [{tag}] {goal}");
        for (key, t) in &req.plan.compromises {
            if formula_mentions_key(goal, key) {
                let _ = writeln!(
                    out,
                    "      note: mentions {key}, compromised at t={t} — the \
                     environment holds this key from then on"
                );
            }
        }
    }
    if dropped_steps == 0 && lost == 0 && violations.is_empty() {
        let _ = writeln!(
            out,
            "verdict: run well-formed; all idealized beliefs survive this plan"
        );
    } else {
        let _ = writeln!(
            out,
            "verdict: run {}; {lost} belief(s) degraded, {dropped_steps} message(s) undelivered",
            if violations.is_empty() {
                "well-formed"
            } else {
                "ILL-FORMED"
            }
        );
    }
    Ok(InjectOutcome {
        report: out,
        run,
        ok: violations.is_empty(),
        cache_hit,
    })
}

/// Does `f` mention the key `k` anywhere (directly or inside a message)?
pub fn formula_mentions_key(f: &Formula, k: &Key) -> bool {
    let kt = |t: &KeyTerm| matches!(t, KeyTerm::Key(key) if key == k || &key.inverse() == k);
    match f {
        Formula::Prop(_) | Formula::True => false,
        Formula::Not(g) => formula_mentions_key(g, k),
        Formula::And(a, b) => formula_mentions_key(a, k) || formula_mentions_key(b, k),
        Formula::Believes(_, g) | Formula::Controls(_, g) => formula_mentions_key(g, k),
        Formula::Sees(_, m) | Formula::Said(_, m) | Formula::Says(_, m) | Formula::Fresh(m) => {
            message_mentions_key(m, k)
        }
        Formula::SharedSecret(_, m, _) => message_mentions_key(m, k),
        Formula::SharedKey(_, t, _) | Formula::Has(_, t) | Formula::PublicKey(t, _) => kt(t),
    }
}

/// Does `m` mention the key `k` anywhere (directly, as an encryption
/// key, or inside an embedded formula)?
pub fn message_mentions_key(m: &Message, k: &Key) -> bool {
    let kt = |t: &KeyTerm| matches!(t, KeyTerm::Key(key) if key == k || &key.inverse() == k);
    match m {
        Message::Key(key) => key == k,
        Message::Formula(f) => formula_mentions_key(f, k),
        Message::Tuple(items) => items.iter().any(|i| message_mentions_key(i, k)),
        Message::Encrypted { body, key, .. }
        | Message::Signed { body, key, .. }
        | Message::PubEncrypted { body, key, .. } => kt(key) || message_mentions_key(body, k),
        Message::Combined { body, secret, .. } => {
            message_mentions_key(body, k) || message_mentions_key(secret, k)
        }
        Message::Forwarded(body) => message_mentions_key(body, k),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Nonce, Principal};

    fn toy() -> AtProtocol {
        let a = Principal::new("A");
        let b = Principal::new("B");
        let k = Key::new("Kab");
        AtProtocol::new("toy")
            .assume(Formula::believes(
                a.clone(),
                Formula::shared_key(a.clone(), k.clone(), b.clone()),
            ))
            .step(
                a.clone(),
                b.clone(),
                Message::encrypted(Message::nonce(Nonce::new("Na")), k.clone(), a.clone()),
            )
            .goal(Formula::sees(
                b,
                Message::encrypted(Message::nonce(Nonce::new("Na")), k, a),
            ))
    }

    fn req(plan: FaultPlan) -> InjectRequest {
        InjectRequest {
            plan,
            policy: ExpectPolicy::resend_after(6, 2),
            options: ExecOptions::default(),
        }
    }

    #[test]
    fn report_is_deterministic_and_cache_aware() {
        let at = toy();
        let pool = Pool::new(1);
        let cache = ExecutionCache::new();
        let first = inject_report(&at, &req(FaultPlan::new(3)), &pool, &cache).expect("clean run");
        assert!(!first.cache_hit);
        assert!(first.ok);
        assert!(first.report.starts_with("protocol toy: "));
        let second = inject_report(&at, &req(FaultPlan::new(3)), &pool, &cache).expect("clean run");
        assert!(second.cache_hit, "second identical plan must hit the cache");
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn mentions_key_sees_inverse_and_nesting() {
        let k = Key::new("Kab");
        let f = Formula::shared_key(Principal::new("A"), k.clone(), Principal::new("B"));
        assert!(formula_mentions_key(&f, &k));
        assert!(!formula_mentions_key(&Formula::True, &k));
        let m = Message::encrypted(Message::key(k.clone()), Key::new("Kother"), "A");
        assert!(message_mentions_key(&m, &k));
    }
}
