//! Parallel fault sweeps: grid enumeration, fingerprint dedup, and a
//! shared execution cache.
//!
//! Robustness scans in the spirit of the paper's Section 5 adversary
//! need *many* runs per protocol: a grid of [`FaultPlan`]s (seed ranges
//! × probability steps × compromise points) quickly reaches hundreds of
//! executions, and until now each one ran sequentially. This module
//! makes the scan scale with cores without changing a single answer:
//!
//! 1. **Enumeration** — [`SweepGrid`] describes the grid and
//!    [`SweepGrid::plans`] expands it in a fixed documented order.
//! 2. **Canonicalization** — [`PlanFingerprint`] maps each plan to a
//!    canonical form that two plans share exactly when the executor is
//!    guaranteed to resolve them to identical fault events (and hence
//!    identical runs): probabilities of `0` never fire, probabilities of
//!    `1` always fire, and the decision seed only matters when some
//!    decision actually draws from the RNG stream. Duplicate
//!    fingerprints are deduplicated *before* executing anything.
//! 3. **Sharding** — the surviving plans are dealt across a
//!    work-stealing [`Pool`] and merged back by index, so sweep output
//!    is bit-identical at every worker count.
//! 4. **Caching** — an [`Arc`]-backed [`ExecutionCache`] keyed by
//!    `(protocol digest, fingerprint)` lets repeated plans across sweep
//!    stages (the baseline/degraded pair, overlapping grids) execute
//!    once per process instead of once per occurrence.
//!
//! The entry point is [`sweep_plans_on`] (explicit plan list, explicit
//! cache); [`SweepGrid::plans`] builds the list from a grid.

use crate::error::ModelError;
use crate::executor::{execute_with_faults, ExecOptions};
use crate::faults::{ExecReport, FaultPlan};
use crate::parallel::Pool;
use crate::protocol::Protocol;
use crate::run::Run;
use crate::system::System;
use crate::wire::fnv64;
use atl_lang::Key;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// A grid of fault plans: the cartesian product of a seed range,
/// per-fault probability steps, and compromise choices.
///
/// Every axis defaults to the single inert point, so an empty grid
/// describes exactly one clean execution. [`plans`](SweepGrid::plans)
/// expands the grid in a fixed order (seeds outermost, then drop,
/// duplicate, delay, reorder, replay, compromises innermost), so the
/// plan list — and everything downstream of it — is deterministic.
///
/// # Examples
///
/// ```
/// use atl_model::SweepGrid;
/// let grid = SweepGrid::new()
///     .seeds(0..4)
///     .drop_steps([0.0, 0.5, 1.0])
///     .replay_steps([0.0, 0.5]);
/// assert_eq!(grid.len(), 4 * 3 * 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// The seed range, one plan family per seed.
    pub seeds: std::ops::Range<u64>,
    /// Drop-probability steps.
    pub drop_steps: Vec<f64>,
    /// Duplication-probability steps.
    pub duplicate_steps: Vec<f64>,
    /// Delay-probability steps.
    pub delay_steps: Vec<f64>,
    /// Withholding duration (scheduler rounds) for every delay step.
    pub delay_rounds: u32,
    /// Reorder-probability steps.
    pub reorder_steps: Vec<f64>,
    /// Replay-probability steps.
    pub replay_steps: Vec<f64>,
    /// Compromise choices; each entry is a full compromise schedule for
    /// one grid point. Empty means the single no-compromise choice.
    pub compromise_choices: Vec<Vec<(Key, i64)>>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::new()
    }
}

impl SweepGrid {
    /// The one-point grid: seed 0, everything inert.
    pub fn new() -> Self {
        SweepGrid {
            seeds: 0..1,
            drop_steps: Vec::new(),
            duplicate_steps: Vec::new(),
            delay_steps: Vec::new(),
            delay_rounds: 2,
            reorder_steps: Vec::new(),
            replay_steps: Vec::new(),
            compromise_choices: Vec::new(),
        }
    }

    /// Sets the seed range.
    pub fn seeds(mut self, seeds: std::ops::Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the drop-probability steps.
    pub fn drop_steps(mut self, steps: impl IntoIterator<Item = f64>) -> Self {
        self.drop_steps = steps.into_iter().collect();
        self
    }

    /// Sets the duplication-probability steps.
    pub fn duplicate_steps(mut self, steps: impl IntoIterator<Item = f64>) -> Self {
        self.duplicate_steps = steps.into_iter().collect();
        self
    }

    /// Sets the delay-probability steps and the shared withholding
    /// duration in scheduler rounds.
    pub fn delay_steps(mut self, steps: impl IntoIterator<Item = f64>, rounds: u32) -> Self {
        self.delay_steps = steps.into_iter().collect();
        self.delay_rounds = rounds;
        self
    }

    /// Sets the reorder-probability steps.
    pub fn reorder_steps(mut self, steps: impl IntoIterator<Item = f64>) -> Self {
        self.reorder_steps = steps.into_iter().collect();
        self
    }

    /// Sets the replay-probability steps.
    pub fn replay_steps(mut self, steps: impl IntoIterator<Item = f64>) -> Self {
        self.replay_steps = steps.into_iter().collect();
        self
    }

    /// Adds one compromise schedule as a grid choice.
    pub fn compromise_choice(mut self, compromises: impl IntoIterator<Item = (Key, i64)>) -> Self {
        self.compromise_choices
            .push(compromises.into_iter().collect());
        self
    }

    fn axis(steps: &[f64]) -> &[f64] {
        if steps.is_empty() {
            &[0.0]
        } else {
            steps
        }
    }

    /// How many plans [`plans`](SweepGrid::plans) will enumerate.
    pub fn len(&self) -> usize {
        let axis = |s: &[f64]| Self::axis(s).len();
        (self.seeds.end.saturating_sub(self.seeds.start) as usize)
            * axis(&self.drop_steps)
            * axis(&self.duplicate_steps)
            * axis(&self.delay_steps)
            * axis(&self.reorder_steps)
            * axis(&self.replay_steps)
            * self.compromise_choices.len().max(1)
    }

    /// True if the grid enumerates no plans (empty seed range).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its plan list, in the documented axis order.
    pub fn plans(&self) -> Vec<FaultPlan> {
        let default_choice = [Vec::new()];
        let choices: &[Vec<(Key, i64)>] = if self.compromise_choices.is_empty() {
            &default_choice
        } else {
            &self.compromise_choices
        };
        let mut out = Vec::with_capacity(self.len());
        for seed in self.seeds.clone() {
            for &drop in Self::axis(&self.drop_steps) {
                for &dup in Self::axis(&self.duplicate_steps) {
                    for &delay in Self::axis(&self.delay_steps) {
                        for &reorder in Self::axis(&self.reorder_steps) {
                            for &replay in Self::axis(&self.replay_steps) {
                                for compromises in choices {
                                    let mut plan = FaultPlan::new(seed)
                                        .drop(drop)
                                        .duplicate(dup)
                                        .delay(delay, self.delay_rounds)
                                        .reorder(reorder)
                                        .replay(replay);
                                    plan.compromises = compromises.clone();
                                    out.push(plan);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The canonical identity of a [`FaultPlan`] with respect to execution.
///
/// Two plans with equal fingerprints are guaranteed to resolve to the
/// same fault events against any protocol, and therefore to produce
/// identical runs and reports. The canonicalization mirrors the
/// executor's decision procedure exactly:
///
/// - probabilities `≤ 0` are inert and collapse to one value; `≥ 1` fire
///   unconditionally without consuming randomness;
/// - a certain drop masks the delay and reorder decisions entirely (the
///   executor evaluates them only when the message was not dropped), and
///   a certain delay masks the reorder decision: a masked reorder
///   probability collapses to zero, and a masked positive delay
///   probability collapses to one — its exact value can no longer
///   matter, but its *positivity* still sizes the executor's round cap;
/// - the seed is erased when no reachable decision can draw from the RNG
///   stream: no *unmasked* probability lies strictly inside `(0, 1)`,
///   reorders never fire, and replays never fire (firing reorders and
///   replays draw extra randomness even at probability 1);
/// - the delay duration is erased when the delay axis is fully inert.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanFingerprint {
    /// The seed, kept only if some decision draws randomness.
    seed: Option<u64>,
    /// Canonical probability bits, in drop/dup/delay/reorder/replay order.
    probs: [u64; 5],
    /// The delay duration, kept only if a delay can fire.
    delay_rounds: u32,
    /// The compromise schedule, in plan order.
    compromises: Vec<(Key, i64)>,
}

impl PlanFingerprint {
    /// Canonicalizes `plan`. The result is only meaningful for plans
    /// that pass [`FaultPlan::validate`]; invalid plans are rejected
    /// before fingerprinting by the sweep engine.
    pub fn of(plan: &FaultPlan) -> Self {
        // Clamp to the executor's effective behavior: `p > 0.0` guards
        // every decision, and `gen_bool` returns early at `p >= 1.0`
        // without consuming the stream.
        fn canon(p: f64) -> u64 {
            if p <= 0.0 {
                0.0f64.to_bits()
            } else if p >= 1.0 {
                1.0f64.to_bits()
            } else {
                p.to_bits()
            }
        }
        // The executor gates delay on `!drop` and reorder on
        // `!drop && !delay` (short-circuit: a masked `gen_bool` is never
        // evaluated and consumes nothing), so a certain drop makes the
        // delay and reorder decisions unreachable, and a certain delay
        // makes the reorder decision unreachable.
        let drop_certain = plan.drop_p >= 1.0;
        let delay_reachable = !drop_certain;
        let reorder_reachable = !drop_certain && plan.delay_p < 1.0;
        // A masked positive delay probability still adds `delay_rounds`
        // to the executor's round cap (`delay_p > 0.0` is the cap's
        // guard), so positivity survives canonicalization even though
        // the exact value cannot matter; a masked reorder probability is
        // completely inert and collapses to zero.
        let delay_bits = if !delay_reachable && plan.delay_p > 0.0 {
            1.0f64.to_bits()
        } else {
            canon(plan.delay_p)
        };
        let reorder_bits = if reorder_reachable {
            canon(plan.reorder_p)
        } else {
            0.0f64.to_bits()
        };
        let probs = [
            canon(plan.drop_p),
            canon(plan.duplicate_p),
            delay_bits,
            reorder_bits,
            canon(plan.replay_p),
        ];
        let draws = |p: f64| p > 0.0 && p < 1.0;
        let fractional = draws(plan.drop_p)
            || draws(plan.duplicate_p)
            || (delay_reachable && draws(plan.delay_p))
            || (reorder_reachable && draws(plan.reorder_p))
            || draws(plan.replay_p);
        // With every reachable probability at 0 or 1, the only remaining
        // draws are the reorder span (when a reorder actually fires:
        // certain reorder not masked by a certain drop or delay) and the
        // replay pick (when a replay fires).
        let reorder_fires = reorder_reachable && plan.reorder_p >= 1.0;
        let replay_fires = plan.replay_p >= 1.0;
        let seed = (fractional || reorder_fires || replay_fires).then_some(plan.seed);
        let delay_rounds = if plan.delay_p > 0.0 {
            plan.delay_rounds
        } else {
            0
        };
        PlanFingerprint {
            seed,
            probs,
            delay_rounds,
            compromises: plan.compromises.clone(),
        }
    }

    /// True if the seed survived canonicalization (i.e. the plan's
    /// decisions actually draw randomness).
    pub fn seed_matters(&self) -> bool {
        self.seed.is_some()
    }

    /// A canonical single-line rendering of the fingerprint, stable
    /// across processes: the surviving seed (or `-`), the canonical
    /// probability bit patterns, the surviving delay duration, and the
    /// escaped compromise schedule. Distinct fingerprints render
    /// distinctly, so the rendering (and [`digest`](Self::digest) of it)
    /// can key wire messages and on-disk store entries.
    pub fn wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = match self.seed {
            Some(seed) => format!("seed={seed}"),
            None => "seed=-".to_string(),
        };
        let _ = write!(
            out,
            " probs={:016x},{:016x},{:016x},{:016x},{:016x} rounds={}",
            self.probs[0],
            self.probs[1],
            self.probs[2],
            self.probs[3],
            self.probs[4],
            self.delay_rounds
        );
        for (key, t) in &self.compromises {
            let _ = write!(out, " comp={}@{t}", crate::wire::escape(&key.to_string()));
        }
        out
    }

    /// The [`fnv64`] digest of [`wire`](Self::wire), used to key
    /// outcomes compactly in the serve protocol and the outcome store.
    pub fn digest(&self) -> u64 {
        fnv64(self.wire().as_bytes())
    }
}

/// The outcome of executing one plan: the run and report, or the error.
pub type ExecOutcome = Result<(Run, ExecReport), ModelError>;

/// The cache key: context digest + canonical plan.
type CacheKey = (u64, PlanFingerprint);

/// The cache's storage plus the bookkeeping a bounded cache needs.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Arc<ExecOutcome>>,
    /// Keys in insertion order, consulted only when `capacity` is set.
    order: std::collections::VecDeque<CacheKey>,
    /// FIFO eviction threshold; `None` means the cache never evicts.
    capacity: Option<usize>,
    evictions: u64,
}

/// A process-wide, thread-safe cache of executions keyed by
/// `(protocol digest, plan fingerprint)`.
///
/// The cache is [`Arc`]-backed: clones share storage, so one cache can
/// serve every stage of a multi-stage sweep (and the baseline/degraded
/// pair of an `inject` analysis) across threads. Entries hold the full
/// [`ExecOutcome`] behind an `Arc`, so hits are reference bumps, not
/// deep run copies — and an outcome handed out before an eviction stays
/// valid for as long as the holder keeps its `Arc`, so evicting never
/// invalidates in-flight work.
///
/// [`new`](Self::new) is unbounded (growth-only, the historical
/// behavior); [`bounded`](Self::bounded) evicts oldest-inserted-first
/// once the capacity is exceeded, which long-lived daemons use to put a
/// ceiling on memory.
#[derive(Clone, Debug, Default)]
pub struct ExecutionCache {
    entries: Arc<Mutex<CacheInner>>,
}

impl ExecutionCache {
    /// An empty, unbounded cache: entries are never evicted.
    pub fn new() -> Self {
        ExecutionCache::default()
    }

    /// An empty cache that holds at most `capacity` entries (min 1),
    /// evicting the oldest-inserted once full.
    pub fn bounded(capacity: usize) -> Self {
        let cache = ExecutionCache::default();
        cache.lock().capacity = Some(capacity.max(1));
        cache
    }

    /// How many distinct executions the cache holds.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many entries a bounded cache has evicted so far (always 0
    /// for an unbounded cache; never reset, including by `clear`).
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Drops every entry (e.g. between unrelated protocols in a
    /// long-lived process).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A poisoned map only means a panic elsewhere mid-insert; the
        // map itself is still consistent (inserts are atomic).
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<ExecOutcome>> {
        self.lock().map.get(key).cloned()
    }

    fn insert(&self, key: CacheKey, outcome: Arc<ExecOutcome>) {
        let mut inner = self.lock();
        if inner.map.insert(key.clone(), outcome).is_none() && inner.capacity.is_some() {
            inner.order.push_back(key);
        }
        while inner
            .capacity
            .is_some_and(|capacity| inner.map.len() > capacity)
        {
            let Some(victim) = inner.order.pop_front() else {
                break;
            };
            if inner.map.remove(&victim).is_some() {
                inner.evictions += 1;
            }
        }
    }
}

/// The [`fnv64`] digest of everything besides the plan that determines
/// a faulted execution: the enacted protocol (expect policy included)
/// and the execution options. This is the context half of every
/// execution key — the [`ExecutionCache`], the outcome store, the hunt
/// corpus and the `SWEEP` shard — so any edit that changes
/// executor-visible behavior changes the digest, and a cache or store
/// shared across spec edits can never serve a pre-edit outcome for a
/// post-edit protocol. Comment, goal and belief-assumption edits leave
/// the enacted [`Protocol`] untouched and keep the digest, so their
/// stored outcomes still replay. It renders the protocol, so callers
/// that sweep one protocol many times compute it once and pass it to
/// [`sweep_plans_in`].
pub fn execution_context_digest(protocol: &Protocol, options: &ExecOptions) -> u64 {
    // The debug rendering covers every field of both structures and
    // escapes newlines inside strings, so the separator is unambiguous.
    fnv64(format!("{protocol:?}\n{options:?}").as_bytes())
}

/// One plan's slot in a [`SweepOutcome`].
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The plan as enumerated.
    pub plan: FaultPlan,
    /// Its canonical fingerprint.
    pub fingerprint: PlanFingerprint,
    /// The shared execution outcome (possibly served by another plan
    /// with the same fingerprint, or by the cache).
    pub outcome: Arc<ExecOutcome>,
}

impl PlanResult {
    /// The run and report, if execution succeeded.
    pub fn ok(&self) -> Option<(&Run, &ExecReport)> {
        self.outcome.as_ref().as_ref().ok().map(|(r, rep)| (r, rep))
    }
}

/// Bookkeeping for one sweep: how much enumeration, dedup, and caching
/// saved, and how the executions went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Plans enumerated (the full grid).
    pub enumerated: usize,
    /// Plans rejected by [`FaultPlan::validate`] without executing.
    pub invalid: usize,
    /// Distinct fingerprints among the valid plans.
    pub unique: usize,
    /// Distinct fingerprints answered by the execution cache.
    pub cache_hits: usize,
    /// Distinct fingerprints actually executed by this sweep.
    pub executed: usize,
    /// Plans whose execution succeeded but deviated from the clean
    /// interleaving (faults applied, retries, or abandoned steps).
    pub degraded: usize,
    /// Plans whose execution failed (stall or invalid plan).
    pub failed: usize,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} plan(s) enumerated, {} deduplicated away, {} cache hit(s), {} executed; \
             {} degraded, {} failed",
            self.enumerated,
            self.enumerated - self.invalid - self.unique,
            self.cache_hits,
            self.executed,
            self.degraded,
            self.failed
        )
    }
}

/// Everything a sweep produced: one [`PlanResult`] per enumerated plan
/// (in enumeration order) plus the [`SweepStats`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-plan results, aligned with the input plan order.
    pub results: Vec<PlanResult>,
    /// Dedup/cache/execution accounting.
    pub stats: SweepStats,
}

impl SweepOutcome {
    /// The distinct well-formed runs of the sweep, in first-occurrence
    /// order, as a [`System`] ready for the semantics pipeline.
    pub fn system(&self) -> System {
        let mut runs: Vec<Run> = Vec::new();
        for result in &self.results {
            if let Some((run, _)) = result.ok() {
                if !runs.contains(run) {
                    runs.push(run.clone());
                }
            }
        }
        System::new(runs)
    }
}

/// Executes `plans` against `protocol`, deduplicating by fingerprint,
/// serving repeats from `cache`, and sharding the remaining executions
/// across `pool`.
///
/// The result is **bit-identical at every worker count**: plans are
/// fingerprinted and deduplicated in enumeration order, the missing
/// executions are merged back by index, and every duplicate plan shares
/// the `Arc` of its first occurrence. Passing the same `cache` to a
/// later sweep (or to [`sweep_plans_on`] with an overlapping grid)
/// turns repeated work into reference bumps.
pub fn sweep_plans_on(
    protocol: &Protocol,
    options: &ExecOptions,
    plans: &[FaultPlan],
    pool: &Pool,
    cache: &ExecutionCache,
) -> SweepOutcome {
    let context = execution_context_digest(protocol, options);
    sweep_plans_in(context, protocol, options, plans, pool, cache)
}

/// [`sweep_plans_on`] with the context already computed: `context` must
/// be [`execution_context_digest`] of `protocol` and `options`. Callers
/// that sweep one protocol repeatedly (a hunt's rounds and shrink
/// probes) digest it once.
pub fn sweep_plans_in(
    context: u64,
    protocol: &Protocol,
    options: &ExecOptions,
    plans: &[FaultPlan],
    pool: &Pool,
    cache: &ExecutionCache,
) -> SweepOutcome {
    sweep_plans_resolve(context, plans, cache, |missing| {
        pool.map(missing, |_, (i, _)| {
            Arc::new(execute_with_faults(protocol, options, &plans[*i]))
        })
    })
}

/// The generalized sweep engine: like [`sweep_plans_on`], but the
/// executions themselves come from a caller-supplied resolver, so the
/// same dedup/cache/merge/accounting path serves local pools, remote
/// workers, and persisted outcome stores — whatever resolves a
/// fingerprint, the assembled [`SweepOutcome`] is identical.
///
/// `context` is [`execution_context_digest`] of the protocol and
/// options the outcomes were executed against, whether a local pool, a
/// remote worker or an outcome store supplies them: every layer keys on
/// that one digest. `resolve` receives the missing `(plan index,
/// fingerprint)` pairs in enumeration order and
/// must return one outcome per pair, in the same order; the engine
/// inserts them into `cache` and merges by index, so resolution order
/// inside the resolver never shows in the output. `stats.executed`
/// counts the fingerprints the resolver was asked for, however it
/// obtained them.
pub fn sweep_plans_resolve<F>(
    context: u64,
    plans: &[FaultPlan],
    cache: &ExecutionCache,
    resolve: F,
) -> SweepOutcome
where
    F: FnOnce(&[(usize, PlanFingerprint)]) -> Vec<Arc<ExecOutcome>>,
{
    let mut stats = SweepStats {
        enumerated: plans.len(),
        ..SweepStats::default()
    };

    // Fingerprint every plan; reject invalid ones up front (they would
    // fail inside the executor anyway, but this keeps NaN bit patterns
    // and other junk out of the dedup map).
    let slots: Vec<(PlanFingerprint, Option<Arc<ExecOutcome>>)> = plans
        .iter()
        .map(|plan| {
            let fp = PlanFingerprint::of(plan);
            let invalid = plan
                .validate()
                .err()
                .map(|e| Arc::new(Err(ModelError::Fault(e))));
            if invalid.is_some() {
                stats.invalid += 1;
            }
            (fp, invalid)
        })
        .collect();

    // Dedup to the first occurrence of each fingerprint among the valid
    // plans, in enumeration order, then consult the cache once per
    // unique fingerprint; everything missing is executed on the pool
    // and merged back in index order.
    let mut resolved: BTreeMap<PlanFingerprint, Arc<ExecOutcome>> = BTreeMap::new();
    let mut seen: std::collections::BTreeSet<PlanFingerprint> = std::collections::BTreeSet::new();
    let mut missing: Vec<(usize, PlanFingerprint)> = Vec::new();
    for (i, (fp, invalid)) in slots.iter().enumerate() {
        if invalid.is_some() || !seen.insert(fp.clone()) {
            continue;
        }
        match cache.get(&(context, fp.clone())) {
            Some(hit) => {
                stats.cache_hits += 1;
                resolved.insert(fp.clone(), hit);
            }
            None => missing.push((i, fp.clone())),
        }
    }
    stats.unique = seen.len();
    stats.executed = missing.len();
    let executed: Vec<Arc<ExecOutcome>> = resolve(&missing);
    assert_eq!(
        executed.len(),
        missing.len(),
        "sweep resolver returned the wrong number of outcomes"
    );
    for ((_, fp), outcome) in missing.iter().zip(executed) {
        cache.insert((context, fp.clone()), Arc::clone(&outcome));
        resolved.insert(fp.clone(), outcome);
    }

    // Assemble per-plan results; duplicates share their representative's
    // Arc, so no run is ever cloned here.
    let results: Vec<PlanResult> = plans
        .iter()
        .zip(slots)
        .map(|(plan, (fp, invalid))| {
            let outcome = invalid.unwrap_or_else(|| Arc::clone(&resolved[&fp]));
            match outcome.as_ref() {
                Ok((_, report)) if report.degraded() => stats.degraded += 1,
                Ok(_) => {}
                Err(_) => stats.failed += 1,
            }
            PlanResult {
                plan: plan.clone(),
                fingerprint: fp,
                outcome,
            }
        })
        .collect();

    SweepOutcome { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ExpectPolicy, Role};
    use atl_lang::{Message, Nonce, Principal};

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    fn lossy_ping_pong() -> Protocol {
        Protocol::new("lossy")
            .role(
                Role::new("A", [])
                    .send(nonce("ping"), "B")
                    .expect_with(nonce("pong"), ExpectPolicy::skip_after(3)),
            )
            .role(
                Role::new("B", [])
                    .expect_with(nonce("ping"), ExpectPolicy::skip_after(3))
                    .send(nonce("pong"), "A"),
            )
    }

    #[test]
    fn grid_enumerates_cartesian_product_in_order() {
        let grid = SweepGrid::new()
            .seeds(3..5)
            .drop_steps([0.0, 1.0])
            .replay_steps([0.25]);
        let plans = grid.plans();
        assert_eq!(plans.len(), grid.len());
        assert_eq!(plans.len(), 4);
        assert_eq!(
            plans.iter().map(|p| (p.seed, p.drop_p)).collect::<Vec<_>>(),
            vec![(3, 0.0), (3, 1.0), (4, 0.0), (4, 1.0)]
        );
        assert!(plans.iter().all(|p| p.replay_p == 0.25));
    }

    #[test]
    fn empty_seed_range_enumerates_no_plans() {
        assert!(SweepGrid::new().seeds(5..5).is_empty());
    }

    #[test]
    fn fingerprint_erases_irrelevant_seed_and_rounds() {
        // Inert plans: seed never drawn, so any two seeds coincide.
        assert_eq!(
            PlanFingerprint::of(&FaultPlan::new(1)),
            PlanFingerprint::of(&FaultPlan::new(99))
        );
        // Certain drops never draw either.
        assert_eq!(
            PlanFingerprint::of(&FaultPlan::new(1).drop(1.0)),
            PlanFingerprint::of(&FaultPlan::new(2).drop(1.0))
        );
        // A fractional probability keeps the seed.
        assert_ne!(
            PlanFingerprint::of(&FaultPlan::new(1).drop(0.5)),
            PlanFingerprint::of(&FaultPlan::new(2).drop(0.5))
        );
        assert!(PlanFingerprint::of(&FaultPlan::new(1).drop(0.5)).seed_matters());
        // Certain replays draw the replay pick; certain reorders draw the
        // span — unless a certain drop masks the reorder entirely.
        assert!(PlanFingerprint::of(&FaultPlan::new(0).replay(1.0)).seed_matters());
        assert!(PlanFingerprint::of(&FaultPlan::new(0).reorder(1.0)).seed_matters());
        assert!(!PlanFingerprint::of(&FaultPlan::new(0).reorder(1.0).drop(1.0)).seed_matters());
        // Delay duration is erased while delays cannot fire.
        assert_eq!(
            PlanFingerprint::of(&FaultPlan::new(0).delay(0.0, 7)),
            PlanFingerprint::of(&FaultPlan::new(0).delay(0.0, 2))
        );
        assert_ne!(
            PlanFingerprint::of(&FaultPlan::new(0).delay(1.0, 7)),
            PlanFingerprint::of(&FaultPlan::new(0).delay(1.0, 2))
        );
        // Compromises are part of the identity.
        assert_ne!(
            PlanFingerprint::of(&FaultPlan::new(0).compromise("Kab", 2)),
            PlanFingerprint::of(&FaultPlan::new(0))
        );
    }

    #[test]
    fn fingerprint_erases_axes_the_rng_never_consumes() {
        // The executor evaluates the delay decision only when the
        // message was not dropped: under a certain drop a fractional
        // delay probability is never sampled, so the seed cannot matter
        // and two plans differing only in it must canonicalize
        // identically.
        let a = FaultPlan::new(1).drop(1.0).delay(0.5, 3);
        let b = FaultPlan::new(99).drop(1.0).delay(0.5, 3);
        assert_eq!(PlanFingerprint::of(&a), PlanFingerprint::of(&b));
        assert!(!PlanFingerprint::of(&a).seed_matters());
        // The exact masked delay probability cannot matter either —
        // only its positivity survives (it still sizes the round cap).
        let c = FaultPlan::new(1).drop(1.0).delay(0.9, 3);
        assert_eq!(PlanFingerprint::of(&a), PlanFingerprint::of(&c));
        assert_ne!(
            PlanFingerprint::of(&a),
            PlanFingerprint::of(&FaultPlan::new(1).drop(1.0)),
            "delay positivity still sizes the round cap"
        );
        // A reorder masked by a certain delay is never sampled and is
        // completely inert: it collapses to the no-reorder plan.
        let d = FaultPlan::new(1).delay(1.0, 2).reorder(0.5);
        let e = FaultPlan::new(1).delay(1.0, 2).reorder(0.3);
        assert_eq!(PlanFingerprint::of(&d), PlanFingerprint::of(&e));
        assert_eq!(
            PlanFingerprint::of(&d),
            PlanFingerprint::of(&FaultPlan::new(1).delay(1.0, 2))
        );
        assert!(!PlanFingerprint::of(&d).seed_matters());
        // The collapses are sound: equal fingerprints, equal executions.
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        let ra = execute_with_faults(&proto, &opts, &a).unwrap();
        assert_eq!(ra, execute_with_faults(&proto, &opts, &b).unwrap());
        assert_eq!(ra, execute_with_faults(&proto, &opts, &c).unwrap());
        let rd = execute_with_faults(&proto, &opts, &d).unwrap();
        assert_eq!(rd, execute_with_faults(&proto, &opts, &e).unwrap());
    }

    #[test]
    fn equal_fingerprints_mean_equal_executions() {
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        // Seeds differ but the fingerprints coincide (certain drop):
        // executions must too.
        let a = execute_with_faults(&proto, &opts, &FaultPlan::new(1).drop(1.0)).unwrap();
        let b = execute_with_faults(&proto, &opts, &FaultPlan::new(77).drop(1.0)).unwrap();
        assert_eq!(a, b);
    }

    /// Every key written to disk or sent on the wire is an FNV-1a 64
    /// digest. Pinning the values makes any change to a key's algorithm
    /// or input fail here, instead of silently orphaning stores.
    #[test]
    fn digests_are_pinned_to_fnv1a() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let fp = PlanFingerprint::of(&FaultPlan::new(0));
        assert_eq!(
            fp.wire(),
            "seed=- probs=0000000000000000,0000000000000000,0000000000000000,\
             0000000000000000,0000000000000000 rounds=0"
        );
        assert_eq!(fp.digest(), fnv64(fp.wire().as_bytes()));
        assert_eq!(fp.digest(), 0xff9a_2516_632b_6f87);
        assert_eq!(
            execution_context_digest(&lossy_ping_pong(), &ExecOptions::default()),
            0x41ba_5c9f_7d7a_6fa7
        );
    }

    #[test]
    fn sweep_dedupes_and_caches() {
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        // 4 seeds × certain drop: one fingerprint, one execution.
        let plans: Vec<FaultPlan> = (0..4).map(|s| FaultPlan::new(s).drop(1.0)).collect();
        let cache = ExecutionCache::new();
        let pool = Pool::sequential();
        let outcome = sweep_plans_on(&proto, &opts, &plans, &pool, &cache);
        assert_eq!(outcome.stats.enumerated, 4);
        assert_eq!(outcome.stats.unique, 1);
        assert_eq!(outcome.stats.executed, 1);
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(cache.len(), 1);
        // All four plans share the one outcome.
        let first = &outcome.results[0];
        assert!(outcome
            .results
            .iter()
            .all(|r| Arc::ptr_eq(&r.outcome, &first.outcome)));
        // A second sweep over the same grid is pure cache hits.
        let again = sweep_plans_on(&proto, &opts, &plans, &pool, &cache);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.stats.executed, 0);
        assert_eq!(
            again.results[0].ok().map(|(r, _)| r.clone()),
            first.ok().map(|(r, _)| r.clone())
        );
    }

    #[test]
    fn cache_distinguishes_contexts() {
        let proto = lossy_ping_pong();
        let cache = ExecutionCache::new();
        let pool = Pool::sequential();
        let plans = [FaultPlan::new(0)];
        sweep_plans_on(&proto, &ExecOptions::default(), &plans, &pool, &cache);
        let public = ExecOptions {
            public_channel: true,
            ..ExecOptions::default()
        };
        let outcome = sweep_plans_on(&proto, &public, &plans, &pool, &cache);
        // Different options: the earlier entry must not answer.
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(outcome.stats.executed, 1);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn invalid_plans_fail_without_executing() {
        let proto = lossy_ping_pong();
        let cache = ExecutionCache::new();
        let plans = [FaultPlan::new(0).drop(2.0), FaultPlan::new(0)];
        let outcome = sweep_plans_on(
            &proto,
            &ExecOptions::default(),
            &plans,
            &Pool::sequential(),
            &cache,
        );
        assert_eq!(outcome.stats.invalid, 1);
        assert_eq!(outcome.stats.failed, 1);
        assert_eq!(outcome.stats.unique, 1);
        assert!(matches!(
            outcome.results[0].outcome.as_ref(),
            Err(ModelError::Fault(_))
        ));
        assert!(outcome.results[1].ok().is_some());
        // The system keeps only the well-formed runs.
        assert_eq!(outcome.system().len(), 1);
    }

    #[test]
    fn sweep_is_identical_at_every_worker_count() {
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        let grid = SweepGrid::new()
            .seeds(0..6)
            .drop_steps([0.0, 0.5, 1.0])
            .duplicate_steps([0.0, 0.5]);
        let plans = grid.plans();
        let reference = sweep_plans_on(
            &proto,
            &opts,
            &plans,
            &Pool::sequential(),
            &ExecutionCache::new(),
        );
        for jobs in [2, 4, 8] {
            let outcome = sweep_plans_on(
                &proto,
                &opts,
                &plans,
                &Pool::new(jobs),
                &ExecutionCache::new(),
            );
            assert_eq!(outcome.stats, reference.stats, "stats differ at {jobs}");
            for (a, b) in reference.results.iter().zip(&outcome.results) {
                assert_eq!(a.plan, b.plan);
                assert_eq!(a.fingerprint, b.fingerprint);
                assert_eq!(a.outcome.as_ref(), b.outcome.as_ref(), "jobs={jobs}");
            }
            assert_eq!(outcome.system().runs(), reference.system().runs());
        }
    }

    #[test]
    fn stats_display_accounts_for_everything() {
        let proto = lossy_ping_pong();
        let plans: Vec<FaultPlan> = (0..3).map(FaultPlan::new).collect();
        let outcome = sweep_plans_on(
            &proto,
            &ExecOptions::default(),
            &plans,
            &Pool::sequential(),
            &ExecutionCache::new(),
        );
        let line = outcome.stats.to_string();
        assert!(line.contains("3 plan(s) enumerated"), "{line}");
        assert!(line.contains("2 deduplicated away"), "{line}");
        assert!(line.contains("1 executed"), "{line}");
        // The three inert plans produce the one clean run.
        let env = Principal::environment();
        let sys = outcome.system();
        assert_eq!(sys.len(), 1);
        assert!(sys.runs()[0].send_records().all(|r| *r.sender != env));
    }

    #[test]
    fn execution_cache_grows_monotonically_without_eviction() {
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        let pool = Pool::sequential();
        let cache = ExecutionCache::new();
        assert!(cache.is_empty());
        let mut lens = Vec::new();
        for seed in 0..6u64 {
            // drop 0.5 draws the RNG, so every seed is a distinct
            // fingerprint.
            let plan = FaultPlan::new(seed).drop(0.5);
            let out = sweep_plans_on(&proto, &opts, std::slice::from_ref(&plan), &pool, &cache);
            assert_eq!(out.stats.cache_hits, 0, "seed {seed} was never cached");
            assert_eq!(out.stats.executed, 1);
            lens.push(cache.len());
        }
        // Growth only: no entry is ever displaced by a later one.
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "lens {lens:?}");
        assert_eq!(cache.len(), 6);
        // Every early fingerprint still answers — the cache is
        // eviction-free, unlike the daemon's LRU session store above it.
        let plans: Vec<FaultPlan> = (0..6).map(|s| FaultPlan::new(s).drop(0.5)).collect();
        let replay = sweep_plans_on(&proto, &opts, &plans, &pool, &cache);
        assert_eq!(replay.stats.cache_hits, 6);
        assert_eq!(replay.stats.executed, 0);
        assert_eq!(cache.len(), 6);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_cache_evicts_oldest_without_invalidating_holders() {
        let proto = lossy_ping_pong();
        let opts = ExecOptions::default();
        let pool = Pool::sequential();
        let cache = ExecutionCache::bounded(2);
        assert_eq!(cache.evictions(), 0);
        // Three distinct fingerprints through a 2-entry cache.
        let plans: Vec<FaultPlan> = (0..3).map(|s| FaultPlan::new(s).drop(0.5)).collect();
        let first = sweep_plans_on(&proto, &opts, &plans[..1], &pool, &cache);
        let held = Arc::clone(&first.results[0].outcome);
        sweep_plans_on(&proto, &opts, &plans[1..2], &pool, &cache);
        sweep_plans_on(&proto, &opts, &plans[2..], &pool, &cache);
        assert_eq!(cache.len(), 2, "capacity bounds the cache");
        assert_eq!(cache.evictions(), 1, "oldest entry was evicted");
        // Eviction never invalidates an outcome already handed out: the
        // Arc taken before the eviction still reads the same execution.
        assert_eq!(held.as_ref(), first.results[0].outcome.as_ref());
        assert!(held.as_ref().is_ok());
        // The evicted (oldest) fingerprint re-executes; the two newest
        // still answer from the cache.
        let replay = sweep_plans_on(&proto, &opts, &plans, &pool, &cache);
        assert_eq!(replay.stats.cache_hits, 2);
        assert_eq!(replay.stats.executed, 1);
        // Evictions are monotonic and survive `clear`.
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.evictions() >= 1);
        // An unbounded cache never evicts, whatever flows through it.
        let unbounded = ExecutionCache::new();
        for plan in &plans {
            sweep_plans_on(&proto, &opts, std::slice::from_ref(plan), &pool, &unbounded);
        }
        assert_eq!(unbounded.len(), 3);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn execution_cache_keys_by_protocol_and_options() {
        let proto = lossy_ping_pong();
        let pool = Pool::sequential();
        let cache = ExecutionCache::new();
        let plan = FaultPlan::new(0);
        let first = sweep_plans_on(
            &proto,
            &ExecOptions::default(),
            std::slice::from_ref(&plan),
            &pool,
            &cache,
        );
        assert_eq!(first.stats.executed, 1);
        // Same plan, different execution options: a distinct context
        // digest, so no false hit.
        let public = ExecOptions {
            public_channel: true,
            ..ExecOptions::default()
        };
        let second = sweep_plans_on(&proto, &public, std::slice::from_ref(&plan), &pool, &cache);
        assert_eq!(second.stats.cache_hits, 0);
        assert_eq!(second.stats.executed, 1);
        assert_eq!(cache.len(), 2);
        // And the original context still hits.
        let again = sweep_plans_on(
            &proto,
            &ExecOptions::default(),
            std::slice::from_ref(&plan),
            &pool,
            &cache,
        );
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(cache.len(), 2);
    }
}
