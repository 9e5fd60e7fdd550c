//! The semantics of the reformulated logic (Section 6).
//!
//! Truth of a formula is defined at a *point* `(r, k)` of a [`System`],
//! relative to a vector `G = (G_1, …, G_n)` of **good runs** ([`GoodRuns`])
//! that parameterizes belief:
//!
//! - `P sees X` — `X` is readable, under `P`'s current keys, in some
//!   message `P` has received;
//! - `P said X` — `X` is among the accountable components of some message
//!   `P` has sent (with `P`'s keys and received set *at send time*);
//! - `P says X` — likewise, restricted to sends in the current epoch;
//! - `P controls φ` — at every time ≥ 0 of the run, `P says φ` implies
//!   `φ` (so jurisdiction is more than `P says φ ⊃ φ`);
//! - `fresh(X)` — `X` is not a submessage of anything sent before time 0;
//! - `P ↔K↔ Q` — at all times, anyone who said ciphertext under `K`
//!   either saw it first or is `P` or `Q`;
//! - `P =Y= Q` — likewise for messages combined with `Y`;
//! - `P has K` — `K` is in `P`'s key set;
//! - `P believes φ` — `φ` holds at every point of a *good* run (for `P`)
//!   whose hidden local state matches `P`'s current hidden local state.
//!
//! Run parameters (Section 8) are resolved against the outer run's
//! bindings before the inductive definition is applied.

use crate::parallel::Pool;
use atl_lang::{
    can_see, submsgs_of_set, CacheStats, Formula, Interner, KeyTerm, Message, MessageSet,
    Principal, TermCache,
};
use atl_model::{LocalState, Point, Run, SendRecord, System};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Error produced during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemanticsError {
    /// The formula still contains a parameter the run does not bind.
    NotGround(Formula),
    /// The point's run index or time is outside the system.
    BadPoint(Point),
    /// Parameter substitution failed (non-key bound in key position).
    Subst(String),
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::NotGround(formula) => {
                write!(f, "formula {formula} has parameters unbound by the run")
            }
            SemanticsError::BadPoint(p) => {
                write!(
                    f,
                    "point (run {}, time {}) outside the system",
                    p.run, p.time
                )
            }
            SemanticsError::Subst(why) => write!(f, "parameter substitution failed: {why}"),
        }
    }
}

impl Error for SemanticsError {}

/// The vector `G = (G_1, …, G_n)` of good-run sets, one per principal;
/// principals without an entry default to *all* runs (belief as plain
/// hidden-state knowledge).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoodRuns {
    all: BTreeSet<usize>,
    map: BTreeMap<Principal, BTreeSet<usize>>,
}

impl GoodRuns {
    /// The trivial vector: every run is good for every principal.
    pub fn all_runs(system: &System) -> Self {
        GoodRuns {
            all: (0..system.len()).collect(),
            map: BTreeMap::new(),
        }
    }

    /// Sets `P`'s good-run set.
    pub fn set(&mut self, p: impl Into<Principal>, runs: BTreeSet<usize>) -> &mut Self {
        self.map.insert(p.into(), runs);
        self
    }

    /// `P`'s good-run set.
    pub fn get(&self, p: &Principal) -> &BTreeSet<usize> {
        self.map.get(p).unwrap_or(&self.all)
    }

    /// The principals with explicit (non-default) entries.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.map.keys()
    }

    /// Pointwise order: `self ≤ other` iff `G_i ⊆ G'_i` for every
    /// principal mentioned by either (Section 7).
    pub fn le(&self, other: &GoodRuns) -> bool {
        let names: BTreeSet<&Principal> = self.map.keys().chain(other.map.keys()).collect();
        names
            .into_iter()
            .all(|p| self.get(p).is_subset(other.get(p)))
    }
}

/// Memoized per-system evaluation state: a [`TermCache`] for the term
/// operators (`hide`, seen submessages) plus point-level sets the hot
/// evaluation paths recompute otherwise — the seen set per `(point,
/// principal)`, each send record's accountable (said) submessages, and
/// each run's pre-epoch submessage closure.
///
/// Everything here depends only on the [`System`], not on the good-run
/// vector, so one cache can be shared by many [`Semantics`] evaluators
/// over the same system (see [`Semantics::new_shared`]): a fault sweep's
/// semantic stage builds one and hands it from the good-run
/// construction to the validity pass.
///
/// Values are [`Arc`]-shared and the cache is `Send + Clone`. With one
/// job, [`Semantics::map_runs`] evaluates over the cache itself; with
/// more, it prewarms the cache once ([`EvalCache::prewarm_on`]) and
/// hands each worker a clone, which shares every memoized set by
/// reference.
#[derive(Clone, Debug, Default)]
pub(crate) struct EvalCache {
    terms: TermCache,
    // Keyed principal-first so hits borrow the principal instead of
    // cloning it into a composite key.
    seen_at: BTreeMap<Principal, BTreeMap<(usize, i64), Arc<MessageSet>>>,
    hidden_at: BTreeMap<Principal, BTreeMap<(usize, i64), Arc<LocalState>>>,
    said_rec: BTreeMap<(usize, usize), Arc<MessageSet>>,
    past: BTreeMap<usize, Arc<MessageSet>>,
}

/// How much of a prior cache [`EvalCache::prewarm_delta_on`] kept: the
/// entries carried over by reference versus the rewarmed cache's size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RewarmStats {
    /// Memoized sets carried over from the prior cache.
    pub(crate) reused: usize,
    /// Memoized sets in the rewarmed cache.
    pub(crate) total: usize,
}

/// The per-run slice of a prewarmed cache, computed on one worker.
struct RunWarm {
    ri: usize,
    past: Arc<MessageSet>,
    said: Vec<(usize, Arc<MessageSet>)>,
    hidden: Vec<(Principal, i64, Arc<LocalState>)>,
}

impl EvalCache {
    /// Builds the system-level sets of the cache concurrently: each run's
    /// pre-epoch closure, per-send accountable sets, and every
    /// principal's hidden local state at every point, sharded run-wise
    /// over `pool` — [`EvalCache::prewarm_delta_on`] with nothing to carry
    /// over.
    pub(crate) fn prewarm_on(system: &System, pool: &Pool) -> EvalCache {
        let nothing = System::new([]);
        EvalCache::prewarm_delta_on(system, &nothing, &EvalCache::default(), pool).0
    }

    /// Rewarms a cache for an *edited* system, carrying over from `old`
    /// (prewarmed for `old_system`) every memoized set whose inputs are
    /// untouched by the edit — reuse is decided pointwise, by comparing
    /// the model-level input of each entry:
    ///
    /// - a run's pre-epoch closure, iff its pre-epoch sent set is equal;
    /// - a send record's accountable set, iff the record is equal;
    /// - a `(principal, point)` hidden state, iff the principal's local
    ///   state at that point is equal.
    ///
    /// Workers share a frozen interner (base IDs stable across workers)
    /// and keep per-worker scratch [`TermCache`]s that are merged back at
    /// join — so the result is one coherent cache, whatever the
    /// scheduling. The snapshot is kept from `old` when it has one, and
    /// seeded with the system's sent messages otherwise: messages new to
    /// the edited system intern into the scratch layers exactly as
    /// evaluation-time terms do, so no snapshot is rebuilt. Term ids never
    /// reach any output, so the rewarmed cache answers byte-identically to
    /// [`EvalCache::prewarm_on`] on the edited system.
    pub(crate) fn prewarm_delta_on(
        system: &System,
        old_system: &System,
        old: &EvalCache,
        pool: &Pool,
    ) -> (EvalCache, RewarmStats) {
        let frozen = match old.frozen_base() {
            Some(base) => Arc::clone(base),
            None => {
                let mut seed = Interner::new();
                for run in system.runs() {
                    for rec in run.send_records() {
                        seed.message(&rec.message);
                    }
                }
                Arc::new(seed.freeze())
            }
        };
        let mut principals: BTreeSet<Principal> = system.principals();
        principals.insert(Principal::environment());

        // Borrow the Arc-valued maps individually: the `TermCache` layer
        // is not shared across workers, but these are.
        let (old_past, old_said, old_hidden) = (&old.past, &old.said_rec, &old.hidden_at);

        let runs: Vec<usize> = (0..system.len()).collect();
        let (warmed, scratches): (Vec<(RunWarm, RewarmStats)>, Vec<TermCache>) = pool
            .map_init_collect(
                &runs,
                || TermCache::with_base(Arc::clone(&frozen)),
                |terms, _, &ri| {
                    let run = &system.runs()[ri];
                    let old_run = old_system.runs().get(ri);
                    let mut stats = RewarmStats::default();

                    let sent: MessageSet = run.sent_before_epoch();
                    stats.total += 1;
                    let past = match old_run.filter(|o| o.sent_before_epoch() == sent) {
                        Some(_) if old_past.contains_key(&ri) => {
                            stats.reused += 1;
                            Arc::clone(&old_past[&ri])
                        }
                        _ => Arc::new(submsgs_of_set(sent.iter())),
                    };

                    let said = run
                        .send_records()
                        .iter()
                        .enumerate()
                        .map(|(i, rec)| {
                            stats.total += 1;
                            let cached = old_run
                                .filter(|o| o.send_records().get(i) == Some(rec))
                                .and_then(|_| old_said.get(&(ri, i)));
                            let set = match cached {
                                Some(s) => {
                                    stats.reused += 1;
                                    Arc::clone(s)
                                }
                                None => Arc::new(rec.said_submsgs()),
                            };
                            (i, set)
                        })
                        .collect();

                    let mut hidden = Vec::new();
                    for p in &principals {
                        let old_p = old_hidden.get(p);
                        for k in run.times() {
                            let state = run.state(k).expect("time in range");
                            stats.total += 1;
                            let cached = old_run
                                .and_then(|o| o.state(k))
                                .filter(|os| os.local(p) == state.local(p))
                                .and_then(|_| old_p.and_then(|m| m.get(&(ri, k))));
                            let h = match cached {
                                Some(h) => {
                                    stats.reused += 1;
                                    Arc::clone(h)
                                }
                                None => Arc::new(state.local(p).hidden_with(terms)),
                            };
                            hidden.push((p.clone(), k, h));
                        }
                    }
                    (
                        RunWarm {
                            ri,
                            past,
                            said,
                            hidden,
                        },
                        stats,
                    )
                },
            );

        let mut cache = EvalCache {
            terms: TermCache::with_base(frozen),
            ..EvalCache::default()
        };
        let mut stats = RewarmStats::default();
        for (w, s) in warmed {
            stats.reused += s.reused;
            stats.total += s.total;
            cache.past.insert(w.ri, w.past);
            for (i, set) in w.said {
                cache.said_rec.insert((w.ri, i), set);
            }
            for (p, k, h) in w.hidden {
                cache.hidden_at.entry(p).or_default().insert((w.ri, k), h);
            }
        }
        for scratch in scratches {
            cache.terms.absorb(scratch);
        }
        (cache, stats)
    }

    /// Extends the cache in place after run `ri` of `system` was grown by
    /// [`System::extend_run`]: every entry computed before the append is
    /// kept by reference and only sets the new suffix can introduce are
    /// computed, so the cost per appended event is O(principals), not
    /// O(points) — the streaming monitor's per-event path.
    ///
    /// `from_time` is the run's horizon *before* the append. Appending is
    /// safe for every map in the cache:
    ///
    /// - `past`: appended events carry times ≥ 1 (a built run's horizon
    ///   is ≥ 0), so the pre-epoch sent set cannot grow;
    /// - `said_rec`: send records are append-only, existing indices are
    ///   untouched;
    /// - `hidden_at` / `seen_at`: the only retroactive edit an append
    ///   makes is popping a delivered message from an env *buffer* at the
    ///   old final state ([`Run::extend_unchecked`]), and no local view —
    ///   hence no hidden state and no seen set — reads buffers.
    pub(crate) fn extend_appended(
        &mut self,
        system: &System,
        ri: usize,
        from_time: i64,
    ) -> RewarmStats {
        let reused = self.entry_count();
        let run = &system.runs()[ri];
        let mut principals: BTreeSet<Principal> = system.principals();
        principals.insert(Principal::environment());

        let EvalCache {
            terms,
            hidden_at,
            said_rec,
            past,
            ..
        } = self;

        past.entry(ri)
            .or_insert_with(|| Arc::new(submsgs_of_set(run.sent_before_epoch().iter())));

        let known = said_rec.range((ri, 0)..(ri, usize::MAX)).count();
        for (i, rec) in run.send_records().iter().enumerate().skip(known) {
            said_rec.insert((ri, i), Arc::new(rec.said_submsgs()));
        }

        for p in &principals {
            let map = hidden_at.entry(p.clone()).or_default();
            let mut k = from_time + 1;
            while k <= run.horizon() {
                let state = run.state(k).expect("time in range");
                map.entry((ri, k))
                    .or_insert_with(|| Arc::new(state.local(p).hidden_with(terms)));
                k += 1;
            }
        }

        RewarmStats {
            reused,
            total: self.entry_count(),
        }
    }

    /// The frozen interner snapshot backing this cache's term layer, if
    /// the cache was prewarmed (a default-constructed cache has none).
    pub(crate) fn frozen_base(&self) -> Option<&Arc<atl_lang::FrozenInterner>> {
        self.terms.interner().base()
    }

    /// How many `(principal, point)` hidden-state entries the cache holds
    /// (the bulk of a prewarmed cache; surfaced by serve-mode `STATS`).
    pub(crate) fn hidden_entries(&self) -> usize {
        self.hidden_at.values().map(BTreeMap::len).sum()
    }

    /// Total memoized points across the three point-indexed maps — the
    /// denominator serve-mode `RELOAD` reports cache reuse against.
    pub(crate) fn entry_count(&self) -> usize {
        self.past.len() + self.said_rec.len() + self.hidden_entries()
    }
}

/// The one-line verdict `at (run r, time k): φ = v` that `atl eval`,
/// the daemon's `EVAL` and the streaming monitor all print.
pub fn verdict_line(point: Point, phi: &Formula, verdict: bool) -> String {
    format!(
        "at (run {}, time {}): {phi} = {verdict}",
        point.run, point.time
    )
}

/// An evaluator for a fixed system and good-run vector.
///
/// Belief evaluation groups the points of each principal's good runs by
/// hidden local state once, up front; [`Semantics::without_belief_cache`]
/// disables this (the ablation measured by `bench_ablation_belief_cache`).
/// Term-level operations (`hide`, seen/said submessage sets, the
/// pre-epoch closure) are memoized in an [`EvalCache`];
/// [`Semantics::without_term_cache`] disables that layer alone.
///
/// # Examples
///
/// ```
/// use atl_core::semantics::{GoodRuns, Semantics};
/// use atl_lang::{Formula, Key, Message, Nonce};
/// use atl_model::{Point, RunBuilder, System};
/// let mut b = RunBuilder::new(0);
/// b.principal("A", [Key::new("K")]);
/// b.principal("B", []);
/// b.send("A", Message::nonce(Nonce::new("X")), "B")?;
/// b.receive("B", &Message::nonce(Nonce::new("X")))?;
/// let sys = System::new([b.build()?]);
/// let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
/// let sees = Formula::sees("B", Message::nonce(Nonce::new("X")));
/// assert!(sem.eval(Point::new(0, 2), &sees)?);
/// assert!(!sem.eval(Point::new(0, 1), &sees)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Semantics<'a> {
    system: &'a System,
    goods: GoodRuns,
    // Possibility groups are built lazily, one principal at a time, on
    // the first belief query that mentions the principal — so an
    // evaluator that never evaluates `believes` never pays for grouping
    // (the `semantics_constructor` cost is O(1) again), while repeated
    // belief queries still amortize to a point lookup.
    belief_cache: Option<RefCell<BTreeMap<Principal, Arc<PrincipalBelief>>>>,
    cache: Option<Rc<RefCell<EvalCache>>>,
    // `P believes φ` is constant across a possibility group (every member
    // sees the same group), so one verdict per (φ, P, group) suffices.
    // Groups partition the good points, making the first point a sound
    // group key. Per-evaluator: verdicts depend on the good-run vector.
    believes_memo: RefCell<BelievesMemo>,
}

/// Belief verdicts by formula, then believer, then group representative —
/// nested so lookups borrow every key component.
type BelievesMemo = BTreeMap<Formula, BTreeMap<Principal, BTreeMap<Point, bool>>>;

/// One principal's precomputed possibility relation: good points grouped
/// by hidden local state, plus the inverse index from each good point to
/// its (shared) group — so the hot belief path is a cheap `Point` lookup
/// instead of a deep hidden-state comparison.
#[derive(Debug, Default)]
struct PrincipalBelief {
    by_state: BTreeMap<Arc<LocalState>, Arc<Vec<Point>>>,
    by_point: BTreeMap<Point, Arc<Vec<Point>>>,
}

/// `p`'s hidden local state at `(ri, k)`, memoized per point so repeated
/// belief queries against the same evaluator (and the lazy group build)
/// hide each state once.
fn hidden_at(
    cache: &Option<Rc<RefCell<EvalCache>>>,
    ri: usize,
    k: i64,
    state: &atl_model::GlobalState,
    p: &Principal,
) -> Arc<LocalState> {
    let Some(cache) = cache else {
        return Arc::new(state.local(p).hidden());
    };
    let c = &mut *cache.borrow_mut();
    if let Some(h) = c.hidden_at.get(p).and_then(|m| m.get(&(ri, k))) {
        return Arc::clone(h);
    }
    let rc = Arc::new(state.local(p).hidden_with(&mut c.terms));
    c.hidden_at
        .entry(p.clone())
        .or_default()
        .insert((ri, k), Arc::clone(&rc));
    rc
}

impl<'a> Semantics<'a> {
    /// Creates an evaluator with the belief and term caches enabled.
    pub fn new(system: &'a System, goods: GoodRuns) -> Self {
        Semantics::new_shared(system, goods, Rc::new(RefCell::new(EvalCache::default())))
    }

    /// Creates an evaluator over a shared [`EvalCache`]. The cache holds
    /// facts about the *system* only, so evaluators for different good-run
    /// vectors over the same system may share one (as the good-run
    /// construction does across its stages). Sharing a cache across
    /// *different* systems is a logic error.
    pub(crate) fn new_shared(
        system: &'a System,
        goods: GoodRuns,
        cache: Rc<RefCell<EvalCache>>,
    ) -> Self {
        Semantics {
            system,
            goods,
            belief_cache: Some(RefCell::new(BTreeMap::new())),
            cache: Some(cache),
            believes_memo: RefCell::new(BTreeMap::new()),
        }
    }

    /// Creates an evaluator with the belief cache but no term cache, so
    /// every `hide`/seen/said query recomputes from scratch (the no-intern
    /// ablation measured by `bench_ablation_term_cache`).
    pub fn without_term_cache(system: &'a System, goods: GoodRuns) -> Self {
        Semantics {
            system,
            goods,
            belief_cache: Some(RefCell::new(BTreeMap::new())),
            cache: None,
            believes_memo: RefCell::new(BTreeMap::new()),
        }
    }

    /// Creates an evaluator that recomputes the possibility relation on
    /// every belief query and caches nothing at all (for the ablation
    /// benchmark).
    pub fn without_belief_cache(system: &'a System, goods: GoodRuns) -> Self {
        Semantics {
            system,
            goods,
            belief_cache: None,
            cache: None,
            believes_memo: RefCell::new(BTreeMap::new()),
        }
    }

    /// `p`'s possibility groups, built on first use. Grouping enumerates
    /// every point of `p`'s good runs, which is exactly what the scan
    /// fallback compares against — so a lazily built group answers every
    /// later query identically, while evaluators that never touch
    /// `believes` for `p` never pay for it.
    fn group_for(
        &self,
        groups: &RefCell<BTreeMap<Principal, Arc<PrincipalBelief>>>,
        p: &Principal,
    ) -> Arc<PrincipalBelief> {
        if let Some(pb) = groups.borrow().get(p) {
            return Arc::clone(pb);
        }
        let mut by_hidden: BTreeMap<Arc<LocalState>, Vec<Point>> = BTreeMap::new();
        for &ri in self.goods.get(p) {
            let Some(run) = self.system.runs().get(ri) else {
                continue;
            };
            for k in run.times() {
                let state = run.state(k).expect("time in range");
                let hidden = hidden_at(&self.cache, ri, k, state, p);
                by_hidden.entry(hidden).or_default().push(Point::new(ri, k));
            }
        }
        let mut pb = PrincipalBelief::default();
        for (hidden, points) in by_hidden {
            let points = Arc::new(points);
            for &pt in points.iter() {
                pb.by_point.insert(pt, Arc::clone(&points));
            }
            pb.by_state.insert(hidden, points);
        }
        let pb = Arc::new(pb);
        groups.borrow_mut().insert(p.clone(), Arc::clone(&pb));
        pb
    }

    /// Term-cache hit/miss counters (`None` when the term cache is off).
    pub fn term_cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.borrow().terms.stats())
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        self.system
    }

    /// The good-run vector.
    pub fn goods(&self) -> &GoodRuns {
        &self.goods
    }

    fn run(&self, point: Point) -> Result<&Run, SemanticsError> {
        self.system
            .runs()
            .get(point.run)
            .filter(|r| r.state(point.time).is_some())
            .ok_or(SemanticsError::BadPoint(point))
    }

    /// Evaluates `φ` at `point`, resolving run parameters first
    /// (Section 8).
    ///
    /// # Errors
    ///
    /// [`SemanticsError::NotGround`] if a parameter is unbound by the run;
    /// [`SemanticsError::BadPoint`] for a point outside the system.
    pub fn eval(&self, point: Point, phi: &Formula) -> Result<bool, SemanticsError> {
        let run = self.run(point)?;
        // Substitution is the identity on ground formulas; skip the
        // deep clone it would otherwise pay on every point.
        if phi.is_ground() {
            return Ok(self.eval_ground(point, phi));
        }
        let resolved = run
            .bindings()
            .apply_formula_partial(phi)
            .map_err(|e| SemanticsError::Subst(e.to_string()))?;
        if !resolved.is_ground() {
            return Err(SemanticsError::NotGround(resolved));
        }
        Ok(self.eval_ground(point, &resolved))
    }

    /// True if `φ` holds at every point of the system.
    ///
    /// # Errors
    ///
    /// As for [`Semantics::eval`].
    pub fn valid(&self, phi: &Formula) -> Result<bool, SemanticsError> {
        for point in self.system.points() {
            if !self.eval(point, phi)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluates `φ` at every point of `system`, sharded run-wise over
    /// `pool` (`Semantics::map_runs`), returning the verdicts in
    /// [`System::points`] order — exactly those of a sequential sweep;
    /// `tests/e15_parallel.rs` holds this path to that reference.
    ///
    /// # Errors
    ///
    /// As for [`Semantics::eval`], reporting the error of the earliest
    /// failing point in [`System::points`] order (as a sequential sweep
    /// would).
    pub fn sweep_on(
        system: &'a System,
        goods: &GoodRuns,
        phi: &Formula,
        pool: &Pool,
    ) -> Result<Vec<bool>, SemanticsError> {
        let runs: Vec<usize> = (0..system.len()).collect();
        let cache = &mut EvalCache::default();
        let per_run = Self::map_runs(system, goods, &runs, pool, cache, |sem, ri| {
            let points = system.runs()[ri].times().map(|k| Point::new(ri, k));
            points.map(|pt| sem.eval(pt, phi)).collect::<Vec<_>>()
        });
        per_run.into_iter().flatten().collect()
    }

    /// As [`Semantics::valid`], sharded over `pool`: true iff `φ` holds
    /// at every point. Verdict and error agree exactly with the
    /// sequential `valid` — in particular the answer for a sweep whose
    /// earliest anomaly (in point order) is a false point is `Ok(false)`
    /// even if a later point would error, matching `valid`'s early exit.
    ///
    /// # Errors
    ///
    /// As for [`Semantics::eval`].
    pub fn valid_on(
        system: &'a System,
        goods: &GoodRuns,
        phi: &Formula,
        pool: &Pool,
    ) -> Result<bool, SemanticsError> {
        Self::valid_all_on(system, goods, std::slice::from_ref(phi), pool).remove(0)
    }

    /// [`Semantics::valid_on`] for each of `phis` through one pass over
    /// the runs (`Semantics::map_runs`): each formula's verdict or
    /// error is that of its earliest anomaly (a false or failing point)
    /// in point order, as the sequential `valid` gives it.
    pub fn valid_all_on(
        system: &'a System,
        goods: &GoodRuns,
        phis: &[Formula],
        pool: &Pool,
    ) -> Vec<Result<bool, SemanticsError>> {
        Self::valid_all_in(system, goods, phis, pool, &mut EvalCache::default())
    }

    /// [`Semantics::valid_all_on`] over the caller's `cache`, which a
    /// good-run construction over the same system may already have
    /// filled or prewarmed.
    pub(crate) fn valid_all_in(
        system: &'a System,
        goods: &GoodRuns,
        phis: &[Formula],
        pool: &Pool,
        cache: &mut EvalCache,
    ) -> Vec<Result<bool, SemanticsError>> {
        // Each run reports every formula's earliest anomaly among its
        // points; merged in run order, the first one is the formula's.
        let runs: Vec<usize> = (0..system.len()).collect();
        let per_run = Self::map_runs(system, goods, &runs, pool, cache, |sem, ri| {
            let run = &system.runs()[ri];
            phis.iter()
                .map(|phi| {
                    run.times()
                        .map(|k| sem.eval(Point::new(ri, k), phi))
                        .find(|r| !matches!(r, Ok(true)))
                })
                .collect::<Vec<_>>()
        });
        let mut verdicts: Vec<Option<Result<bool, SemanticsError>>> = vec![None; phis.len()];
        for run in per_run {
            for (verdict, found) in verdicts.iter_mut().zip(run) {
                if verdict.is_none() {
                    *verdict = found;
                }
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.unwrap_or(Ok(true)))
            .collect()
    }

    /// Maps `f` over `runs`, giving each call an evaluator of `system`
    /// relative to `goods`, and returns the results in `runs` order —
    /// the one run-sharded evaluation behind the good-run construction,
    /// [`Semantics::sweep_on`], [`Semantics::valid_all_on`] and the
    /// streaming monitor.
    ///
    /// With one job the runs go inline through one evaluator over
    /// `cache` itself, which keeps everything the evaluator memoized.
    /// With more, `cache` is first prewarmed ([`EvalCache::prewarm_on`])
    /// unless it already has a frozen base, and each worker evaluates
    /// over its own clone of it, so `cache` keeps the prewarm only.
    pub(crate) fn map_runs<T: Send>(
        system: &'a System,
        goods: &GoodRuns,
        runs: &[usize],
        pool: &Pool,
        cache: &mut EvalCache,
        f: impl Fn(&Semantics<'a>, usize) -> T + Sync,
    ) -> Vec<T> {
        if pool.jobs() == 1 {
            let shared = Rc::new(RefCell::new(std::mem::take(cache)));
            let sem = Semantics::new_shared(system, goods.clone(), Rc::clone(&shared));
            let out = runs.iter().map(|&ri| f(&sem, ri)).collect();
            drop(sem);
            *cache = Rc::into_inner(shared)
                .expect("the evaluator was the cache's only other owner")
                .into_inner();
            return out;
        }
        if cache.frozen_base().is_none() {
            *cache = EvalCache::prewarm_on(system, pool);
        }
        let warmed = &*cache;
        pool.map_init(
            runs,
            || Semantics::new_shared(system, goods.clone(), Rc::new(RefCell::new(warmed.clone()))),
            |sem, _, &ri| f(sem, ri),
        )
    }

    /// Evaluates a ground formula (callers must have resolved parameters).
    fn eval_ground(&self, point: Point, phi: &Formula) -> bool {
        let run = &self.system.runs()[point.run];
        match phi {
            Formula::True => true,
            Formula::Prop(p) => self.system.interpretation().holds(p, run, point),
            Formula::Not(f) => !self.eval_ground(point, f),
            Formula::And(a, b) => self.eval_ground(point, a) && self.eval_ground(point, b),
            Formula::Believes(p, f) => self.eval_believes(point, p, f),
            Formula::Controls(p, f) => self.eval_controls(point, p, f),
            Formula::Sees(p, m) => self.eval_sees(point, p, m),
            Formula::Said(p, m) => self.eval_said(point, p, m, false),
            Formula::Says(p, m) => self.eval_said(point, p, m, true),
            Formula::SharedSecret(p, y, q) => self.eval_shared_secret(point, p, y, q),
            Formula::SharedKey(p, k, q) => self.eval_shared_key(point, p, k, q),
            Formula::Fresh(m) => self.eval_fresh(point, m),
            Formula::Has(p, k) => self.eval_has(point, p, k),
            Formula::PublicKey(k, p) => self.eval_public_key(point, k, p),
        }
    }

    /// `→K P` (public-key extension): whoever signed with `K⁻¹`, at any
    /// time of the run, saw the signature first or is `P` — the signing
    /// analogue of the shared-key definition.
    fn eval_public_key(&self, point: Point, k: &KeyTerm, p: &Principal) -> bool {
        let KeyTerm::Key(key) = k else { return false };
        let run = &self.system.runs()[point.run];
        run.send_records().iter().enumerate().all(|(i, rec)| {
            if rec.sender == *p {
                return true;
            }
            self.said_set(point.run, i, rec).iter().all(|sub| {
                let Message::Signed { key: kk, .. } = sub else {
                    return true;
                };
                if kk.as_key() != Some(key) {
                    return true;
                }
                self.eval_sees(Point::new(point.run, rec.time + 1), &rec.sender, sub)
            })
        })
    }

    /// `P sees X` at `(r, k)`: some received message reveals `X` under
    /// `P`'s keys at time `k`.
    fn eval_sees(&self, point: Point, p: &Principal, x: &Message) -> bool {
        let run = &self.system.runs()[point.run];
        let Some(state) = run.state(point.time) else {
            return false;
        };
        if let Some(cache) = &self.cache {
            // Membership in the memoized seen set is `can_see` by another
            // name: both walk exactly the readable submessages. A cache hit
            // skips materializing the local state entirely.
            let seen = {
                let c = &mut *cache.borrow_mut();
                if let Some(s) = c
                    .seen_at
                    .get(p)
                    .and_then(|m| m.get(&(point.run, point.time)))
                {
                    Arc::clone(s)
                } else {
                    let local = state.local(p);
                    let mut set = MessageSet::new();
                    for m in &local.received() {
                        set.extend(c.terms.seen_submsgs(m, &local.key_set).iter().cloned());
                    }
                    let rc = Arc::new(set);
                    c.seen_at
                        .entry(p.clone())
                        .or_default()
                        .insert((point.run, point.time), Arc::clone(&rc));
                    rc
                }
            };
            return seen.contains(x);
        }
        let local = state.local(p);
        local
            .received()
            .iter()
            .any(|m| can_see(x, m, &local.key_set))
    }

    /// The accountable submessages of the `idx`-th send record of run
    /// `run`, memoized when the term cache is on ([`SendRecord::
    /// said_submsgs`] redoes the seen-set closure on every call).
    fn said_set(&self, run: usize, idx: usize, rec: &SendRecord) -> Arc<MessageSet> {
        if let Some(cache) = &self.cache {
            let c = &mut *cache.borrow_mut();
            if let Some(s) = c.said_rec.get(&(run, idx)) {
                return Arc::clone(s);
            }
            let rc = Arc::new(rec.said_submsgs());
            c.said_rec.insert((run, idx), Arc::clone(&rc));
            return rc;
        }
        Arc::new(rec.said_submsgs())
    }

    /// `P said X` (or `P says X` when `recent`) at `(r, k)`.
    fn eval_said(&self, point: Point, p: &Principal, x: &Message, recent: bool) -> bool {
        let run = &self.system.runs()[point.run];
        run.send_records().iter().enumerate().any(|(i, rec)| {
            rec.sender == *p
                && rec.time < point.time
                && (!recent || rec.time >= 0)
                && self.said_set(point.run, i, rec).contains(x)
        })
    }

    /// `P controls φ` at `(r, k)`: for every time `k' ≥ 0` of the run,
    /// `P says φ` at `k'` implies `φ` at `k'`. (Holds at one point of a
    /// run iff at all points of it.)
    fn eval_controls(&self, point: Point, p: &Principal, phi: &Formula) -> bool {
        let run = &self.system.runs()[point.run];
        let claim = phi.clone().into_message();
        run.times().filter(|k| *k >= 0).all(|k| {
            let here = Point::new(point.run, k);
            !self.eval_said(here, p, &claim, true) || self.eval_ground(here, phi)
        })
    }

    /// `fresh(X)` at `(r, k)`: `X` is not a submessage of any message sent
    /// before time 0.
    fn eval_fresh(&self, point: Point, x: &Message) -> bool {
        let run = &self.system.runs()[point.run];
        if let Some(cache) = &self.cache {
            let c = &mut *cache.borrow_mut();
            let past = if let Some(s) = c.past.get(&point.run) {
                Arc::clone(s)
            } else {
                let sent: MessageSet = run.sent_before_epoch();
                let rc = Arc::new(submsgs_of_set(sent.iter()));
                c.past.insert(point.run, Arc::clone(&rc));
                rc
            };
            return !past.contains(x);
        }
        let past: MessageSet = run.sent_before_epoch();
        !submsgs_of_set(past.iter()).contains(x)
    }

    /// `P has K` at `(r, k)`.
    fn eval_has(&self, point: Point, p: &Principal, k: &KeyTerm) -> bool {
        let KeyTerm::Key(key) = k else { return false };
        let run = &self.system.runs()[point.run];
        run.state(point.time)
            .is_some_and(|s| s.key_set(p).contains(key))
    }

    /// `P ↔K↔ Q`: whoever said ciphertext under `K`, at any time of the
    /// run, saw it first or is `P` or `Q`.
    fn eval_shared_key(&self, point: Point, p: &Principal, k: &KeyTerm, q: &Principal) -> bool {
        let KeyTerm::Key(key) = k else { return false };
        let run = &self.system.runs()[point.run];
        run.send_records().iter().enumerate().all(|(i, rec)| {
            if rec.sender == *p || rec.sender == *q {
                return true;
            }
            self.said_set(point.run, i, rec).iter().all(|sub| {
                let Message::Encrypted { key: kk, .. } = sub else {
                    return true;
                };
                if kk.as_key() != Some(key) {
                    return true;
                }
                // The sender must have seen the ciphertext by the time the
                // send lands in its history (sees is monotone, so checking
                // at rec.time + 1 decides all later times; at earlier
                // times "said" is false and the implication vacuous).
                self.eval_sees(Point::new(point.run, rec.time + 1), &rec.sender, sub)
            })
        })
    }

    /// `P =Y= Q`: likewise for messages combined with the secret `Y`.
    fn eval_shared_secret(&self, point: Point, p: &Principal, y: &Message, q: &Principal) -> bool {
        let run = &self.system.runs()[point.run];
        run.send_records().iter().enumerate().all(|(i, rec)| {
            if rec.sender == *p || rec.sender == *q {
                return true;
            }
            self.said_set(point.run, i, rec).iter().all(|sub| {
                let Message::Combined { secret, .. } = sub else {
                    return true;
                };
                if **secret != *y {
                    return true;
                }
                self.eval_sees(Point::new(point.run, rec.time + 1), &rec.sender, sub)
            })
        })
    }

    /// The points `P` considers possible at `point`: points of `P`-good
    /// runs whose hidden local state equals `P`'s here.
    pub fn possible_points(&self, point: Point, p: &Principal) -> Vec<Point> {
        (*self.possible_points_shared(point, p)).clone()
    }

    fn possible_points_shared(&self, point: Point, p: &Principal) -> Arc<Vec<Point>> {
        if let Some(groups) = self.belief_cache.as_ref() {
            let pb = self.group_for(groups, p);
            // The group enumerated every point of `p`'s good runs, so a
            // point inside them resolves by index alone.
            if let Some(points) = pb.by_point.get(&point) {
                return Arc::clone(points);
            }
            // Outside the good runs (or off the end of one): match the
            // hidden state here against the precomputed groups.
            let run = &self.system.runs()[point.run];
            let Some(state) = run.state(point.time) else {
                return Arc::new(Vec::new());
            };
            let hidden = hidden_at(&self.cache, point.run, point.time, state, p);
            return pb
                .by_state
                .get(&hidden)
                .map(Arc::clone)
                .unwrap_or_else(|| Arc::new(Vec::new()));
        }
        // No belief cache: scan.
        let run = &self.system.runs()[point.run];
        let Some(state) = run.state(point.time) else {
            return Arc::new(Vec::new());
        };
        let hidden = hidden_at(&self.cache, point.run, point.time, state, p);
        let mut out = Vec::new();
        for &ri in self.goods.get(p) {
            let Some(r2) = self.system.runs().get(ri) else {
                continue;
            };
            for k in r2.times() {
                let s2 = r2.state(k).expect("time in range");
                if hidden_at(&self.cache, ri, k, s2, p) == hidden {
                    out.push(Point::new(ri, k));
                }
            }
        }
        Arc::new(out)
    }

    /// `P believes φ` at `point`.
    fn eval_believes(&self, point: Point, p: &Principal, phi: &Formula) -> bool {
        let points = self.possible_points_shared(point, p);
        let Some(&rep) = points.first() else {
            return true; // no possible points: vacuously believed
        };
        // The memo rides with the belief cache; the uncached ablation
        // evaluator recomputes from scratch, as advertised.
        if self.belief_cache.is_none() {
            return points.iter().all(|&pt| self.eval_ground(pt, phi));
        }
        if let Some(&v) = self
            .believes_memo
            .borrow()
            .get(phi)
            .and_then(|m| m.get(p))
            .and_then(|m| m.get(&rep))
        {
            return v;
        }
        let v = points.iter().all(|&pt| self.eval_ground(pt, phi));
        self.believes_memo
            .borrow_mut()
            .entry(phi.clone())
            .or_default()
            .entry(p.clone())
            .or_default()
            .insert(rep, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::{Key, Nonce};
    use atl_model::RunBuilder;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    /// A ↦ B : {X}Kab, with both holding Kab; one run.
    fn simple_system() -> System {
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("Kab")]);
        b.principal("B", [Key::new("Kab")]);
        b.new_key("A", "Spare"); // past-epoch activity
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        System::new([b.build().unwrap()])
    }

    fn sem(sys: &System) -> Semantics<'_> {
        Semantics::new(sys, GoodRuns::all_runs(sys))
    }

    #[test]
    fn sees_becomes_true_after_receive_and_stays() {
        let sys = simple_system();
        let s = sem(&sys);
        let f = Formula::sees("B", nonce("X"));
        assert!(!s.eval(Point::new(0, 1), &f).unwrap());
        assert!(s.eval(Point::new(0, 2), &f).unwrap());
    }

    #[test]
    fn said_and_says_track_epoch() {
        let mut b = RunBuilder::new(-1);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap(); // time -1 (past)
        b.send("A", nonce("new"), "B").unwrap(); // time 0 (present)
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let at = Point::new(0, 1);
        assert!(s.eval(at, &Formula::said("A", nonce("old"))).unwrap());
        assert!(!s.eval(at, &Formula::says("A", nonce("old"))).unwrap());
        assert!(s.eval(at, &Formula::said("A", nonce("new"))).unwrap());
        assert!(s.eval(at, &Formula::says("A", nonce("new"))).unwrap());
    }

    #[test]
    fn said_descends_ciphertext_only_with_key_at_send_time() {
        let sys = simple_system();
        let s = sem(&sys);
        let end = Point::new(0, 2);
        assert!(s.eval(end, &Formula::said("A", nonce("X"))).unwrap());
    }

    #[test]
    fn fresh_is_relative_to_epoch() {
        let mut b = RunBuilder::new(-1);
        b.principal("A", []);
        b.principal("B", []);
        b.send("A", nonce("old"), "B").unwrap();
        b.send("A", nonce("new"), "B").unwrap();
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let at = Point::new(0, 1);
        assert!(!s.eval(at, &Formula::fresh(nonce("old"))).unwrap());
        assert!(s.eval(at, &Formula::fresh(nonce("new"))).unwrap());
        assert!(s.eval(at, &Formula::fresh(nonce("unseen"))).unwrap());
    }

    #[test]
    fn has_reflects_key_set_growth() {
        let mut b = RunBuilder::new(0);
        b.principal("A", []);
        b.new_key("A", "K");
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let f = Formula::has("A", Key::new("K"));
        assert!(!s.eval(Point::new(0, 0), &f).unwrap());
        assert!(s.eval(Point::new(0, 1), &f).unwrap());
    }

    #[test]
    fn shared_key_holds_when_only_pair_encrypts() {
        let sys = simple_system();
        let s = sem(&sys);
        let f = Formula::shared_key("A", Key::new("Kab"), "B");
        assert!(s.eval(Point::new(0, 0), &f).unwrap());
    }

    #[test]
    fn shared_key_fails_when_third_party_encrypts() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("Kab")]);
        b.principal("B", [Key::new("Kab")]);
        b.principal("C", [Key::new("Kab")]);
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("C"));
        b.send("C", cipher, "B").unwrap();
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let f = Formula::shared_key("A", Key::new("Kab"), "B");
        assert!(!s.eval(Point::new(0, 0), &f).unwrap());
    }

    #[test]
    fn shared_key_tolerates_replay_by_third_party() {
        // C resends A's ciphertext (having received it): still a good key —
        // the Section 3.1 point that who *sends copies* is irrelevant.
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("Kab")]);
        b.principal("B", [Key::new("Kab")]);
        b.principal("C", []);
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        b.send("A", cipher.clone(), "C").unwrap();
        b.receive("C", &cipher).unwrap();
        b.send("C", cipher, "B").unwrap();
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let f = Formula::shared_key("A", Key::new("Kab"), "B");
        assert!(s.eval(Point::new(0, 0), &f).unwrap());
    }

    #[test]
    fn shared_key_is_time_independent_within_run() {
        let sys = simple_system();
        let s = sem(&sys);
        let f = Formula::shared_key("A", Key::new("Kab"), "B");
        let vals: BTreeSet<bool> = sys
            .run(0)
            .times()
            .map(|k| s.eval(Point::new(0, k), &f).unwrap())
            .collect();
        assert_eq!(vals.len(), 1);
    }

    #[test]
    fn belief_requires_truth_at_indistinguishable_points() {
        // Two runs: in run 0 the ciphertext contains X, in run 1 it
        // contains Y. B holds no key, so the runs are indistinguishable to
        // B after hiding: B cannot believe the ciphertext contains X.
        let mk = |inner: &str| {
            let mut b = RunBuilder::new(0);
            b.principal("A", [Key::new("K")]);
            b.principal("B", []);
            let cipher = Message::encrypted(nonce(inner), Key::new("K"), Principal::new("A"));
            b.send("A", cipher.clone(), "B").unwrap();
            b.receive("B", &cipher).unwrap();
            b.build().unwrap()
        };
        let sys = System::new([mk("X"), mk("Y")]);
        let s = sem(&sys);
        let cipher_x = Message::encrypted(nonce("X"), Key::new("K"), Principal::new("A"));
        let believes_sees = Formula::believes("B", Formula::sees("B", cipher_x.clone()));
        assert!(!s.eval(Point::new(0, 2), &believes_sees).unwrap());
        // A holds the key, so A CAN distinguish and does believe it said X.
        let believes_said = Formula::believes("A", Formula::said("A", nonce("X")));
        assert!(s.eval(Point::new(0, 2), &believes_said).unwrap());
    }

    #[test]
    fn good_runs_enable_preconceived_beliefs() {
        // Same two-run system; restrict B's good runs to run 0. Now B
        // believes everything true across run 0's matching points.
        let mk = |inner: &str| {
            let mut b = RunBuilder::new(0);
            b.principal("A", [Key::new("K")]);
            b.principal("B", []);
            let cipher = Message::encrypted(nonce(inner), Key::new("K"), Principal::new("A"));
            b.send("A", cipher.clone(), "B").unwrap();
            b.receive("B", &cipher).unwrap();
            b.build().unwrap()
        };
        let sys = System::new([mk("X"), mk("Y")]);
        let mut goods = GoodRuns::all_runs(&sys);
        goods.set("B", [0usize].into_iter().collect());
        let s = Semantics::new(&sys, goods);
        let said_x = Formula::believes("B", Formula::said("A", nonce("X")));
        // At the end of run 0 — and even of run 1! — B's possible points
        // lie in run 0 only.
        assert!(s.eval(Point::new(0, 2), &said_x).unwrap());
        assert!(s.eval(Point::new(1, 2), &said_x).unwrap());
    }

    #[test]
    fn belief_cache_matches_uncached() {
        let sys = simple_system();
        let cached = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let uncached = Semantics::without_belief_cache(&sys, GoodRuns::all_runs(&sys));
        let f = Formula::believes("A", Formula::said("A", nonce("X")));
        for point in sys.points() {
            assert_eq!(
                cached.eval(point, &f).unwrap(),
                uncached.eval(point, &f).unwrap(),
                "mismatch at {point:?}"
            );
        }
    }

    #[test]
    fn term_cache_matches_uncached_semantics() {
        // As `simple_system`, plus a second receiver of the same
        // ciphertext holding the same key set — so the term cache has
        // genuine cross-principal repeats to dedupe (B's and C's hides
        // of the cipher share one `(term, keyset)` entry), not just
        // repeats the point-level memos absorb.
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("Kab")]);
        b.principal("B", [Key::new("Kab")]);
        b.principal("C", [Key::new("Kab")]);
        b.new_key("A", "Spare");
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        b.send("A", cipher.clone(), "C").unwrap();
        b.receive("C", &cipher).unwrap();
        let sys = System::new([b.build().unwrap()]);
        let cached = sem(&sys);
        let no_terms = Semantics::without_term_cache(&sys, GoodRuns::all_runs(&sys));
        let bare = Semantics::without_belief_cache(&sys, GoodRuns::all_runs(&sys));
        let formulas = [
            Formula::sees("B", nonce("X")),
            Formula::said("A", nonce("X")),
            Formula::says("A", nonce("X")),
            Formula::fresh(nonce("X")),
            Formula::fresh(Message::key(Key::new("Spare"))),
            Formula::shared_key("A", Key::new("Kab"), "B"),
            Formula::believes("B", Formula::said("A", nonce("X"))),
        ];
        for point in sys.points() {
            for f in &formulas {
                let want = bare.eval(point, f).unwrap();
                assert_eq!(cached.eval(point, f).unwrap(), want, "{f} at {point:?}");
                assert_eq!(no_terms.eval(point, f).unwrap(), want, "{f} at {point:?}");
            }
        }
        assert!(cached.term_cache_stats().unwrap().hits > 0);
        assert!(no_terms.term_cache_stats().is_none());
    }

    #[test]
    fn controls_is_not_just_material_implication() {
        // S never says φ in this run, so `S controls φ` holds vacuously at
        // every point — including points where φ is false.
        let mut b = RunBuilder::new(0);
        b.principal("S", []);
        b.principal("A", []);
        b.new_key("S", "K");
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let phi = Formula::has("A", Key::new("Kx"));
        let f = Formula::controls("S", phi);
        assert!(s.eval(Point::new(0, 0), &f).unwrap());
    }

    #[test]
    fn controls_fails_when_claim_is_false() {
        // S says "A has Kx" but A never acquires it: no jurisdiction.
        let mut b = RunBuilder::new(0);
        b.principal("S", []);
        b.principal("A", []);
        let phi = Formula::has("A", Key::new("Kx"));
        b.send("S", phi.clone().into_message(), "A").unwrap();
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        assert!(!s
            .eval(Point::new(0, 0), &Formula::controls("S", phi))
            .unwrap());
    }

    #[test]
    fn controls_holds_when_claims_are_true() {
        let mut b = RunBuilder::new(0);
        b.principal("S", []);
        b.principal("A", []);
        b.new_key("A", "Kx"); // time 0: A has Kx from time 1 on
        let phi = Formula::has("A", Key::new("Kx"));
        b.send("S", phi.clone().into_message(), "A").unwrap(); // says at time 2+
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        assert!(s
            .eval(Point::new(0, 0), &Formula::controls("S", phi))
            .unwrap());
    }

    #[test]
    fn parameters_resolve_per_run() {
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K9")]);
        b.bind_param(atl_lang::Param::new("Kab"), Message::Key(Key::new("K9")));
        b.new_key("A", "K10");
        let sys = System::new([b.build().unwrap()]);
        let s = sem(&sys);
        let schematic = Formula::has("A", atl_lang::Param::new("Kab"));
        assert!(s.eval(Point::new(0, 0), &schematic).unwrap());
        let unbound = Formula::has("A", atl_lang::Param::new("Nope"));
        assert!(matches!(
            s.eval(Point::new(0, 0), &unbound),
            Err(SemanticsError::NotGround(_))
        ));
    }

    #[test]
    fn bad_points_are_errors() {
        let sys = simple_system();
        let s = sem(&sys);
        assert!(matches!(
            s.eval(Point::new(7, 0), &Formula::True),
            Err(SemanticsError::BadPoint(_))
        ));
        assert!(matches!(
            s.eval(Point::new(0, 99), &Formula::True),
            Err(SemanticsError::BadPoint(_))
        ));
    }

    #[test]
    fn goodruns_partial_order() {
        let sys = simple_system();
        let all = GoodRuns::all_runs(&sys);
        let mut smaller = all.clone();
        smaller.set("A", BTreeSet::new());
        assert!(smaller.le(&all));
        assert!(!all.le(&smaller));
        assert!(all.le(&all));
    }

    #[test]
    fn valid_checks_every_point() {
        let sys = simple_system();
        let s = sem(&sys);
        assert!(s.valid(&Formula::True).unwrap());
        assert!(!s.valid(&Formula::sees("B", nonce("X"))).unwrap());
    }

    #[test]
    fn prewarmed_cache_answers_like_a_fresh_evaluator() {
        let sys = simple_system();
        let goods = GoodRuns::all_runs(&sys);
        let formulas = [
            Formula::sees("B", nonce("X")),
            Formula::said("A", nonce("X")),
            Formula::says("A", nonce("X")),
            Formula::fresh(nonce("X")),
            Formula::believes("B", Formula::sees("B", nonce("X"))),
            Formula::shared_key("A", Key::new("Kab"), "B"),
        ];
        for jobs in [1, 2] {
            let warmed = EvalCache::prewarm_on(&sys, &Pool::new(jobs));
            let shared =
                Semantics::new_shared(&sys, goods.clone(), Rc::new(RefCell::new(warmed.clone())));
            let fresh = Semantics::new(&sys, goods.clone());
            for k in sys.runs()[0].times() {
                let at = Point::new(0, k);
                for f in &formulas {
                    assert_eq!(
                        shared.eval(at, f).unwrap(),
                        fresh.eval(at, f).unwrap(),
                        "jobs {jobs}, point {at:?}, formula {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_prewarm_reuses_untouched_points_and_answers_like_cold() {
        let old_sys = simple_system();
        // The edited system: same shape, different payload in the sent
        // cipher — states before the send are untouched.
        let edited = {
            let mut b = RunBuilder::new(-1);
            b.principal("A", [Key::new("Kab")]);
            b.principal("B", [Key::new("Kab")]);
            b.new_key("A", "Spare");
            let cipher = Message::encrypted(nonce("Y"), Key::new("Kab"), Principal::new("A"));
            b.send("A", cipher.clone(), "B").unwrap();
            b.receive("B", &cipher).unwrap();
            System::new([b.build().unwrap()])
        };
        let formulas = [
            Formula::sees("B", nonce("Y")),
            Formula::sees("B", nonce("X")),
            Formula::said("A", nonce("Y")),
            Formula::fresh(nonce("Y")),
            Formula::believes("B", Formula::sees("B", nonce("Y"))),
            Formula::shared_key("A", Key::new("Kab"), "B"),
        ];
        for jobs in [1, 2] {
            let pool = Pool::new(jobs);
            let old = EvalCache::prewarm_on(&old_sys, &pool);
            let (delta, stats) = EvalCache::prewarm_delta_on(&edited, &old_sys, &old, &pool);
            // The pre-edit prefix is carried over, the suffix is not.
            assert!(stats.reused > 0, "untouched points must be reused");
            assert!(stats.reused < stats.total, "edited points must not be");
            assert_eq!(
                stats.total,
                EvalCache::prewarm_on(&edited, &pool).hidden_entries()
                    + 1
                    + edited.runs()[0].send_records().len()
            );
            // The interner snapshot is the old one, kept by reference.
            assert!(Arc::ptr_eq(
                delta.frozen_base().unwrap(),
                old.frozen_base().unwrap()
            ));
            // And evaluation over the rewarmed cache matches a fresh
            // evaluator on the edited system, everywhere.
            let goods = GoodRuns::all_runs(&edited);
            let shared =
                Semantics::new_shared(&edited, goods.clone(), Rc::new(RefCell::new(delta)));
            let fresh = Semantics::new(&edited, goods);
            for k in edited.runs()[0].times() {
                let at = Point::new(0, k);
                for f in &formulas {
                    assert_eq!(
                        shared.eval(at, f).unwrap(),
                        fresh.eval(at, f).unwrap(),
                        "jobs {jobs}, point {at:?}, formula {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_appended_matches_fresh_prewarm_at_every_prefix() {
        let formulas = [
            Formula::sees("B", nonce("X")),
            Formula::said("A", nonce("X")),
            Formula::fresh(nonce("X")),
            Formula::believes("B", Formula::sees("B", nonce("X"))),
            Formula::shared_key("A", Key::new("Kab"), "B"),
        ];
        for jobs in [1, 2] {
            let pool = Pool::new(jobs);
            let mut b = RunBuilder::new(-1);
            b.principal("A", [Key::new("Kab")]);
            b.principal("B", [Key::new("Kab")]);
            b.new_key("A", "Spare");
            let mut sys = System::new([b.build().unwrap()]);
            let mut warmed = EvalCache::prewarm_on(&sys, &pool);

            let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
            b.send("A", cipher.clone(), "B").unwrap();
            let extend = |b: &mut RunBuilder, sys: &mut System, warmed: &mut EvalCache| {
                let from = sys.runs()[0].horizon();
                let before = warmed.entry_count();
                sys.extend_run(
                    0,
                    b.last_event().unwrap().clone(),
                    b.current_state().clone(),
                );
                let stats = warmed.extend_appended(sys, 0, from);
                // Every pre-append entry is kept; only the new point's
                // sets are added.
                assert_eq!(stats.reused, before, "jobs {jobs}");
                assert_eq!(
                    stats.total,
                    EvalCache::prewarm_on(sys, &pool).entry_count(),
                    "jobs {jobs}"
                );
            };
            extend(&mut b, &mut sys, &mut warmed);
            b.receive("B", &cipher).unwrap();
            extend(&mut b, &mut sys, &mut warmed);
            b.new_key("B", "Late");
            extend(&mut b, &mut sys, &mut warmed);

            // The extended cache answers exactly like a cold evaluator
            // over the extended system, at every point.
            let goods = GoodRuns::all_runs(&sys);
            let shared = Semantics::new_shared(&sys, goods.clone(), Rc::new(RefCell::new(warmed)));
            let fresh = Semantics::new(&sys, goods);
            for k in sys.runs()[0].times() {
                let at = Point::new(0, k);
                for f in &formulas {
                    assert_eq!(
                        shared.eval(at, f).unwrap(),
                        fresh.eval(at, f).unwrap(),
                        "jobs {jobs}, point {at:?}, formula {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_prewarm_of_an_empty_system_is_empty() {
        let empty = System::new([]);
        let pool = Pool::new(2);
        let (cache, stats) =
            EvalCache::prewarm_delta_on(&empty, &empty, &EvalCache::default(), &pool);
        assert_eq!(
            stats,
            RewarmStats {
                reused: 0,
                total: 0
            }
        );
        assert_eq!(cache.entry_count(), 0);
    }

    #[test]
    fn delta_prewarm_of_a_single_point_run() {
        // One state, no events: the smallest run a monitor can hold.
        let mut b = RunBuilder::new(0);
        b.principal("A", [Key::new("K")]);
        let sys = System::new([b.build().unwrap()]);
        assert_eq!(sys.runs()[0].times().count(), 1);
        let pool = Pool::new(1);
        let old = EvalCache::prewarm_on(&sys, &pool);
        let (delta, stats) = EvalCache::prewarm_delta_on(&sys, &sys, &old, &pool);
        assert_eq!(stats.reused, stats.total);
        assert_eq!(delta.entry_count(), old.entry_count());
        let s = Semantics::new_shared(&sys, GoodRuns::all_runs(&sys), Rc::new(RefCell::new(delta)));
        assert!(s
            .eval(Point::new(0, 0), &Formula::has("A", Key::new("K")))
            .unwrap());
    }

    #[test]
    fn delta_prewarm_after_append_invalidates_zero_points() {
        // Appending an event leaves every old point's inputs untouched
        // (the popped env buffer is invisible to local views), so a
        // delta prewarm over the extension reuses the old cache whole.
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("Kab")]);
        b.principal("B", [Key::new("Kab")]);
        b.new_key("A", "Spare");
        let cipher = Message::encrypted(nonce("X"), Key::new("Kab"), Principal::new("A"));
        b.send("A", cipher.clone(), "B").unwrap();
        b.receive("B", &cipher).unwrap();
        let old_sys = System::new([b.build().unwrap()]);
        let pool = Pool::new(1);
        let old = EvalCache::prewarm_on(&old_sys, &pool);
        let mut extended = old_sys.clone();
        b.new_key("B", "Late");
        extended.extend_run(
            0,
            b.last_event().unwrap().clone(),
            b.current_state().clone(),
        );
        let (_, stats) = EvalCache::prewarm_delta_on(&extended, &old_sys, &old, &pool);
        assert_eq!(stats.reused, old.entry_count(), "zero points invalidated");
        assert!(stats.total > stats.reused, "the new point is fresh work");
    }

    #[test]
    fn delta_prewarm_of_an_identical_system_reuses_everything() {
        let sys = simple_system();
        let pool = Pool::new(1);
        let old = EvalCache::prewarm_on(&sys, &pool);
        let (delta, stats) = EvalCache::prewarm_delta_on(&sys, &sys, &old, &pool);
        assert_eq!(stats.reused, stats.total);
        assert_eq!(delta.hidden_entries(), old.hidden_entries());
    }

    #[test]
    fn prewarm_covers_every_principal_point_and_pins_the_snapshot() {
        let sys = simple_system();
        let warmed = EvalCache::prewarm_on(&sys, &Pool::new(1));
        // One hidden state per (principal ∪ environment) × point.
        let times = sys.runs()[0].times().count();
        let principals = sys.principals().len() + 1;
        assert_eq!(warmed.hidden_entries(), principals * times);
        // The frozen snapshot holds every sent message; a
        // default-constructed cache holds no snapshot at all.
        let base = warmed.frozen_base().expect("prewarmed cache has a base");
        assert!(base.message_count() >= 1);
        assert!(EvalCache::default().frozen_base().is_none());
        // A clone shares the memoized sets (the daemon's per-query
        // path): same base counts, same hidden coverage.
        let clone = warmed.clone();
        assert_eq!(clone.hidden_entries(), warmed.hidden_entries());
        assert_eq!(
            clone.frozen_base().map(|b| b.message_count()),
            warmed.frozen_base().map(|b| b.message_count())
        );
    }
}
