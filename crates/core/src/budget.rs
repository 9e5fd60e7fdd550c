//! Graceful-degradation budgets for expensive analyses.
//!
//! Saturation ([`Prover::saturate`](crate::prover::Prover::saturate)) and
//! the good-run construction
//! ([`construct_budgeted_on`](crate::goodruns::construct_budgeted_on)) are
//! fixpoint computations whose cost grows with the fact set and the
//! system. A [`Budget`] caps that work along three independent axes —
//! derivation steps, total facts, and wall-clock time — and the
//! [`Saturation`] outcome says whether the fixpoint was actually reached.
//! Analyses never *lose* work when a budget runs out: everything derived
//! up to that point is kept, and queries answer with a three-valued
//! [`Verdict`] so "not derived" under an exhausted budget reads as
//! *unknown*, not as a refutation.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Resource limits for a saturation-style analysis. The default is
/// unlimited on every axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum derivation steps (rule applications / evaluations).
    pub max_steps: Option<u64>,
    /// Maximum size of the fact set; derivation stops once reached.
    pub max_facts: Option<usize>,
    /// Wall-clock cap in milliseconds.
    pub max_millis: Option<u64>,
}

impl Budget {
    /// No limits: saturation always runs to the fixpoint.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps derivation steps.
    pub fn steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Caps the fact-set size.
    pub fn facts(mut self, n: usize) -> Self {
        self.max_facts = Some(n);
        self
    }

    /// Caps wall-clock time, in milliseconds.
    pub fn millis(mut self, ms: u64) -> Self {
        self.max_millis = Some(ms);
        self
    }

    /// True if any axis is capped.
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some() || self.max_facts.is_some() || self.max_millis.is_some()
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_limited() {
            return f.write_str("unlimited");
        }
        let mut sep = "";
        if let Some(n) = self.max_steps {
            write!(f, "{sep}steps≤{n}")?;
            sep = ", ";
        }
        if let Some(n) = self.max_facts {
            write!(f, "{sep}facts≤{n}")?;
            sep = ", ";
        }
        if let Some(ms) = self.max_millis {
            write!(f, "{sep}time≤{ms}ms")?;
        }
        Ok(())
    }
}

/// Shared state behind every handle to one logical meter.
#[derive(Debug)]
struct MeterState {
    budget: Budget,
    steps: AtomicU64,
    started: Instant,
    exhausted: AtomicBool,
}

/// Running consumption against a [`Budget`]. Once any axis is exceeded
/// the meter latches exhausted and refuses all further charges.
///
/// A `BudgetMeter` is a *handle*: cloning it yields another handle onto
/// the same counters, so a single budget can meter several workers at
/// once. The step axis is charged with a compare-and-swap below the cap,
/// so under any interleaving exactly `cap` charges succeed in total —
/// two workers racing a 1-step budget never both proceed — and the
/// exhausted latch, once set by any handle, is visible to all of them.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    inner: Arc<MeterState>,
}

impl BudgetMeter {
    /// Starts metering against `budget` (the wall clock starts now).
    ///
    /// A zero cap on any axis is exhausted before any work: the meter
    /// starts latched, so callers observe `BudgetExhausted` instead of
    /// performing (and keeping) one charge's worth of work for free.
    pub fn start(budget: Budget) -> Self {
        let born_exhausted = budget.max_steps == Some(0)
            || budget.max_facts == Some(0)
            || budget.max_millis == Some(0);
        BudgetMeter {
            inner: Arc::new(MeterState {
                budget,
                steps: AtomicU64::new(0),
                started: Instant::now(),
                exhausted: AtomicBool::new(born_exhausted),
            }),
        }
    }

    /// Steps charged so far (across every handle to this meter).
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Acquire)
    }

    /// True once any axis has been exceeded (by any handle).
    pub fn exhausted(&self) -> bool {
        self.inner.exhausted.load(Ordering::Acquire)
    }

    /// Attempts to charge one derivation step while the tracked fact set
    /// holds `facts_now` entries. Returns false — latching the exhausted
    /// state — if the budget does not cover it.
    pub fn charge(&self, facts_now: usize) -> bool {
        let s = &*self.inner;
        if s.exhausted.load(Ordering::Acquire) {
            return false;
        }
        let over = s.budget.max_facts.is_some_and(|cap| facts_now >= cap)
            || s.budget.max_millis.is_some_and(|cap| {
                // Saturate rather than truncate: a cap near u64::MAX must
                // not wrap a long elapsed time into "under budget".
                u64::try_from(s.started.elapsed().as_millis()).unwrap_or(u64::MAX) >= cap
            });
        if over {
            s.exhausted.store(true, Ordering::Release);
            return false;
        }
        // Claim a step only while strictly below the cap: the CAS loop
        // guarantees exactly `cap` charges succeed, no matter how many
        // handles race.
        let claim = s
            .steps
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                match s.budget.max_steps {
                    Some(cap) if n >= cap => None,
                    _ => Some(n.saturating_add(1)),
                }
            });
        if claim.is_err() {
            s.exhausted.store(true, Ordering::Release);
            return false;
        }
        true
    }
}

/// The outcome of a budgeted fixpoint computation.
///
/// Not `#[must_use]`: callers that saturate purely for the side effect of
/// growing the fact set may discard it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Saturation {
    /// The fixpoint was reached; nothing more is derivable.
    Complete {
        /// Facts added by this saturation call.
        new_facts: usize,
    },
    /// The budget ran out first. All facts derived before exhaustion are
    /// retained, but absence of a fact is inconclusive.
    BudgetExhausted {
        /// Size of the fact set when the budget ran out.
        facts: usize,
        /// Derivation steps performed.
        steps: u64,
    },
}

impl Saturation {
    /// True if the fixpoint was reached.
    pub fn is_complete(&self) -> bool {
        matches!(self, Saturation::Complete { .. })
    }
}

impl fmt::Display for Saturation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Saturation::Complete { new_facts } => {
                write!(f, "complete ({new_facts} new facts)")
            }
            Saturation::BudgetExhausted { facts, steps } => {
                write!(
                    f,
                    "budget exhausted after {steps} steps ({facts} facts held)"
                )
            }
        }
    }
}

/// Three-valued answer for a goal queried against a budgeted analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The goal is derivable from the facts on hand.
    Proved,
    /// Saturation completed and the goal is not derivable.
    NotProved,
    /// The goal is not (yet) derivable, but the budget ran out before the
    /// fixpoint — derivability is undecided.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Proved => "proved",
            Verdict::NotProved => "not proved",
            Verdict::Unknown => "unknown (budget exhausted)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let m = BudgetMeter::start(Budget::unlimited());
        for i in 0..10_000 {
            assert!(m.charge(i));
        }
        assert!(!m.exhausted());
        assert_eq!(m.steps(), 10_000);
    }

    #[test]
    fn step_cap_latches() {
        let m = BudgetMeter::start(Budget::unlimited().steps(3));
        assert!(m.charge(0));
        assert!(m.charge(0));
        assert!(m.charge(0));
        assert!(!m.charge(0));
        assert!(m.exhausted());
        // Latched: even a charge that would otherwise fit is refused.
        assert!(!m.charge(0));
        assert_eq!(m.steps(), 3);
    }

    #[test]
    fn zero_budgets_exhaust_before_any_work() {
        for b in [
            Budget::unlimited().steps(0),
            Budget::unlimited().facts(0),
            Budget::unlimited().millis(0),
        ] {
            let m = BudgetMeter::start(b);
            assert!(m.exhausted(), "{b} should start exhausted");
            assert!(!m.charge(0));
            assert_eq!(m.steps(), 0);
        }
    }

    #[test]
    fn huge_millis_cap_is_not_truncated() {
        // `as u64` on the elapsed u128 would wrap for huge caps compared
        // against; with saturation the charge fits comfortably.
        let m = BudgetMeter::start(Budget::unlimited().millis(u64::MAX));
        assert!(m.charge(0));
        assert!(!m.exhausted());
    }

    #[test]
    fn fact_cap_checks_current_size() {
        let m = BudgetMeter::start(Budget::unlimited().facts(5));
        assert!(m.charge(4));
        assert!(!m.charge(5));
        assert!(m.exhausted());
    }

    #[test]
    fn clones_share_the_meter() {
        let m = BudgetMeter::start(Budget::unlimited().steps(2));
        let h = m.clone();
        assert!(m.charge(0));
        assert!(h.charge(0));
        // Both handles observe the shared totals and the shared latch.
        assert_eq!(m.steps(), 2);
        assert!(!m.charge(0));
        assert!(h.exhausted());
    }

    #[test]
    fn two_workers_racing_a_one_step_budget_never_both_proceed() {
        // Satellite: the CAS claim means exactly one of two racing
        // charges can succeed on a 1-step budget, on every interleaving.
        for _ in 0..200 {
            let m = BudgetMeter::start(Budget::unlimited().steps(1));
            let (a, b) = std::thread::scope(|scope| {
                let h1 = m.clone();
                let h2 = m.clone();
                let t1 = scope.spawn(move || h1.charge(0));
                let t2 = scope.spawn(move || h2.charge(0));
                (t1.join().expect("worker ok"), t2.join().expect("worker ok"))
            });
            assert!(
                a ^ b,
                "exactly one racing charge may win a 1-step budget (got {a}, {b})"
            );
            assert_eq!(m.steps(), 1);
            assert!(m.exhausted());
        }
    }

    #[test]
    fn racing_workers_never_oversubscribe_a_step_cap() {
        let m = BudgetMeter::start(Budget::unlimited().steps(64));
        let wins: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let h = m.clone();
                    scope.spawn(move || (0..100).filter(|_| h.charge(0)).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().expect("worker ok"))
                .sum()
        });
        assert_eq!(wins, 64, "exactly cap charges succeed across workers");
        assert_eq!(m.steps(), 64);
        assert!(m.exhausted());
    }

    #[test]
    fn zero_budget_latch_holds_under_concurrency() {
        let m = BudgetMeter::start(Budget::unlimited().steps(0));
        let wins: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let h = m.clone();
                    scope.spawn(move || (0..50).filter(|_| h.charge(0)).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().expect("worker ok"))
                .sum()
        });
        assert_eq!(wins, 0, "a born-exhausted meter admits no charge at all");
        assert_eq!(m.steps(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Budget::unlimited().to_string(), "unlimited");
        let b = Budget::unlimited().steps(7).millis(20);
        assert_eq!(b.to_string(), "steps≤7, time≤20ms");
        assert!(Saturation::Complete { new_facts: 2 }.is_complete());
        assert!(!Saturation::BudgetExhausted { facts: 9, steps: 7 }.is_complete());
        assert_eq!(Verdict::Unknown.to_string(), "unknown (budget exhausted)");
    }
}
