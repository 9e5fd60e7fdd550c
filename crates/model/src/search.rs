//! Feedback-directed attack search over [`FaultPlan`]s.
//!
//! A sweep *measures* a grid; this module *searches* a space. The search
//! is a coverage-guided fuzzer in the AFL tradition, specialized to the
//! paper's adversary model:
//!
//! 1. **Mutation** — a [`MutationSpace`] bounds the search (probability
//!    palette, seed range, delay durations, compromise candidates) and
//!    perturbs one to three axes of a parent plan per mutant, from a
//!    seeded deterministic RNG. Mutants never escape
//!    [`FaultPlan::validate`]: probabilities are drawn from the palette
//!    (clamped to `[0, 1]`) and a positive delay always keeps a positive
//!    duration.
//! 2. **Coverage** — the signal is the pair (fingerprint novelty,
//!    degradation signature). [`PlanFingerprint`] novelty gates
//!    *execution*: a mutant canonically equal to anything already tried
//!    is discarded free of charge. Signature novelty gates the
//!    *corpus*: the caller-supplied classifier maps each execution to a
//!    degradation signature (e.g. the per-goal belief-survival verdict
//!    vector), and a plan producing a never-before-seen signature
//!    founds a new [`DegradationClass`] and enters the corpus.
//! 3. **Energy** — corpus entries are picked energy-weighted as mutation
//!    parents; each pick spends energy, so fresh discoveries get a burst
//!    of follow-up mutants and old ones decay to a trickle.
//! 4. **Shrinking** — each class's witness is delta-debugged toward the
//!    identity plan axis by axis while its signature is preserved; the
//!    fixpoint is the *minimal* plan reported for the class, and by
//!    construction flipping any single minimized axis further toward
//!    identity loses the signature.
//!
//! Execution rides [`sweep_plans_in`] under one execution context
//! digested once per hunt: dedup, the shared
//! [`ExecutionCache`], and `--jobs` parallelism come for free, and the
//! whole search — batch generation is sequential, sweeps merge by index,
//! shrinking is deterministic — is byte-identical at every worker count.
//!
//! A [`HuntStore`] persists the corpus as [`crate::store`] frames, one
//! per round that founded a class, so a killed hunt resumes without
//! re-discovering (or duplicating) the classes of its finished rounds.

use crate::executor::ExecOptions;
use crate::faults::FaultPlan;
use crate::parallel::Pool;
use crate::protocol::Protocol;
use crate::store::FrameStore;
use crate::sweep::{
    execution_context_digest, sweep_plans_in, ExecOutcome, ExecutionCache, PlanFingerprint,
    SweepGrid, SweepOutcome,
};
use crate::wire::{self, fnv64};
use atl_lang::Key;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The bounds of a mutation search: which values each plan axis may
/// take. The same space also describes the exhaustive grid
/// ([`grid`](MutationSpace::grid)) a `--sweep` of the same axes would
/// enumerate, which is what hunt efficiency is measured against.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationSpace {
    /// The probability palette every fault axis draws from. Values are
    /// clamped to `[0, 1]` at mutation time, so an unruly palette still
    /// cannot produce an invalid plan.
    pub prob_steps: Vec<f64>,
    /// The seed range; the identity plan uses `seeds.start`.
    pub seeds: std::ops::Range<u64>,
    /// Delay durations (scheduler rounds) a mutation may pick. Zero
    /// entries are repaired to 1 when the delay probability is positive.
    pub delay_rounds: Vec<u32>,
    /// Compromise `(key, time)` pairs a mutation may toggle on or off.
    pub compromise_candidates: Vec<(Key, i64)>,
    /// How many compromises one plan may carry at once.
    pub max_compromises: usize,
}

impl Default for MutationSpace {
    fn default() -> Self {
        MutationSpace::new()
    }
}

impl MutationSpace {
    /// The default space: the five-point probability palette
    /// `{0, ¼, ½, ¾, 1}`, seeds `0..2`, the default delay duration, no
    /// compromise candidates, at most one compromise per plan.
    pub fn new() -> Self {
        MutationSpace {
            prob_steps: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            seeds: 0..2,
            delay_rounds: vec![2],
            compromise_candidates: Vec::new(),
            max_compromises: 1,
        }
    }

    /// Sets the probability palette.
    pub fn prob_steps(mut self, steps: impl IntoIterator<Item = f64>) -> Self {
        self.prob_steps = steps.into_iter().collect();
        self
    }

    /// Sets the seed range.
    pub fn seeds(mut self, seeds: std::ops::Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Adds one compromise candidate.
    pub fn candidate(mut self, key: Key, time: i64) -> Self {
        self.compromise_candidates.push((key, time));
        self
    }

    /// The identity plan of the space: the lowest seed, everything
    /// inert. This is the fuzzer's round-zero input and the fixed point
    /// shrinking aims at.
    pub fn identity(&self) -> FaultPlan {
        FaultPlan::new(self.seeds.start)
    }

    /// The exhaustive grid over the same axes: the cartesian product of
    /// the seed range, the probability palette on all five fault axes,
    /// and the no-compromise choice plus each single candidate. A hunt
    /// is measured against the *unique fingerprints* of this grid — the
    /// executions an `atl inject --sweep` of the same space would need.
    pub fn grid(&self) -> SweepGrid {
        let steps = || self.prob_steps.iter().map(|p| p.clamp(0.0, 1.0));
        let rounds = self.delay_rounds.first().copied().unwrap_or(2).max(1);
        let mut grid = SweepGrid::new()
            .seeds(self.seeds.clone())
            .drop_steps(steps())
            .duplicate_steps(steps())
            .delay_steps(steps(), rounds)
            .reorder_steps(steps())
            .replay_steps(steps());
        if !self.compromise_candidates.is_empty() {
            grid = grid.compromise_choice([]);
            for c in &self.compromise_candidates {
                grid = grid.compromise_choice([c.clone()]);
            }
        }
        grid
    }

    /// One mutation step: clone `parent`, perturb one to three axes
    /// drawn from `rng`, and repair the result so
    /// [`FaultPlan::validate`] always accepts it.
    pub fn mutate(&self, rng: &mut StdRng, parent: &FaultPlan) -> FaultPlan {
        let mut plan = parent.clone();
        let edits = 1 + rng.gen_range(0..3u32);
        for _ in 0..edits {
            let mut axis = rng.gen_range(0..8u32);
            if axis == 7 && self.compromise_candidates.is_empty() {
                axis = 5;
            }
            match axis {
                0..=4 => {
                    let step = self.pick_prob(rng);
                    match axis {
                        0 => plan.drop_p = step,
                        1 => plan.duplicate_p = step,
                        2 => plan.delay_p = step,
                        3 => plan.reorder_p = step,
                        _ => plan.replay_p = step,
                    }
                }
                5 => {
                    plan.seed = if self.seeds.is_empty() {
                        0
                    } else {
                        self.seeds.start
                            + rng.gen_range(0..(self.seeds.end - self.seeds.start).max(1))
                    };
                }
                6 => {
                    let palette: &[u32] = if self.delay_rounds.is_empty() {
                        &[2]
                    } else {
                        &self.delay_rounds
                    };
                    plan.delay_rounds = palette[rng.gen_range(0..palette.len())];
                }
                _ => {
                    let i = rng.gen_range(0..self.compromise_candidates.len());
                    let candidate = self.compromise_candidates[i].clone();
                    if let Some(at) = plan.compromises.iter().position(|c| *c == candidate) {
                        plan.compromises.remove(at);
                    } else if plan.compromises.len() < self.max_compromises {
                        plan.compromises.push(candidate);
                        plan.compromises.sort();
                    }
                }
            }
        }
        // Repair: the palette is caller-supplied, so clamp junk instead
        // of letting it reach `validate`; a positive delay probability
        // must keep a positive duration (`BadDelay`).
        for p in [
            &mut plan.drop_p,
            &mut plan.duplicate_p,
            &mut plan.delay_p,
            &mut plan.reorder_p,
            &mut plan.replay_p,
        ] {
            *p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        }
        if plan.delay_p > 0.0 && plan.delay_rounds == 0 {
            plan.delay_rounds = 1;
        }
        plan
    }

    fn pick_prob(&self, rng: &mut StdRng) -> f64 {
        if self.prob_steps.is_empty() {
            return 0.0;
        }
        self.prob_steps[rng.gen_range(0..self.prob_steps.len())]
    }
}

/// How to run a hunt: the deterministic RNG seed, the execution budget,
/// the per-round batch size, the mutation bounds, and any seed corpus
/// (e.g. plans reconstructed from a live monitor prefix).
#[derive(Clone, Debug)]
pub struct HuntConfig {
    /// Seed of the mutation RNG; the whole search is a pure function of
    /// it (plus the protocol, options, space, and seed plans).
    pub seed: u64,
    /// Stop generating new batches once this many plans have been
    /// resolved (fresh executions plus cache hits; deduplicated mutants
    /// are free). Counting resolved plans rather than cache misses keeps
    /// the search trajectory — and therefore the report — independent of
    /// how warm the shared cache happens to be.
    pub budget: usize,
    /// Mutants generated per round before executing them as one sweep.
    pub batch: usize,
    /// The mutation bounds.
    pub space: MutationSpace,
    /// Extra round-zero inputs beside the identity plan.
    pub seed_plans: Vec<FaultPlan>,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            seed: 0,
            budget: 256,
            batch: 32,
            space: MutationSpace::new(),
            seed_plans: Vec::new(),
        }
    }
}

/// Bookkeeping for one hunt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HuntStats {
    /// Mutation/execution rounds run (round 1 is the seed corpus).
    pub rounds: usize,
    /// Mutants generated, including discarded duplicates.
    pub generated: usize,
    /// Mutants discarded before execution because their fingerprint had
    /// already been tried.
    pub duplicates: usize,
    /// Plans resolved (fresh executions plus cache hits), including
    /// shrinking probes. This is what the budget counts, so the number
    /// is identical whether the shared cache started cold or warm.
    pub executed: usize,
    /// Of the resolved plans, how many the shared cache answered
    /// without a fresh execution.
    pub cache_hits: usize,
    /// Shrinking probes (each is one plan checked for signature
    /// preservation; probes with known fingerprints hit the cache).
    pub shrink_trials: usize,
    /// Classes resumed from a [`HuntStore`] instead of rediscovered.
    pub resumed: usize,
}

impl fmt::Display for HuntStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} round(s), {} mutant(s) generated ({} duplicate(s) discarded), \
             {} executed, {} cache hit(s), {} shrink trial(s), {} class(es) resumed",
            self.rounds,
            self.generated,
            self.duplicates,
            self.executed,
            self.cache_hits,
            self.shrink_trials,
            self.resumed
        )
    }
}

/// One distinct degradation signature the hunt observed, with the plan
/// that first produced it and the shrunk minimal reproducer.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationClass {
    /// The classifier's signature for this class.
    pub signature: String,
    /// The first plan observed to produce the signature.
    pub witness: FaultPlan,
    /// The witness delta-debugged toward the identity plan: every
    /// single-axis reduction the space offers loses the signature.
    pub minimal: FaultPlan,
    /// How many executed plans landed in this class.
    pub members: usize,
}

/// Everything a hunt produced: the classes in discovery order, the
/// signature of the identity (fault-free) plan, and the accounting.
#[derive(Clone, Debug)]
pub struct HuntOutcome {
    /// Distinct degradation classes, in discovery order. The identity
    /// plan's class is discovered first unless the store resumed it.
    pub classes: Vec<DegradationClass>,
    /// The identity plan's signature — the "no attack" class, so every
    /// *other* class is a distinct way the protocol degrades.
    pub baseline: String,
    /// Generation/execution/shrinking accounting.
    pub stats: HuntStats,
}

impl HuntOutcome {
    /// The classes whose signature differs from the baseline — the
    /// distinct attacks found.
    pub fn attacks(&self) -> impl Iterator<Item = &DegradationClass> {
        self.classes.iter().filter(|c| c.signature != self.baseline)
    }
}

/// Initial mutation energy of a fresh corpus entry.
const INITIAL_ENERGY: u32 = 8;

/// Runs the feedback-directed search. `classify` maps one executed plan
/// to its degradation signature; the hunt treats signatures as opaque
/// strings. `store`, when given, seeds the corpus from previously
/// persisted plans (resuming a killed hunt without duplicate signatures)
/// and, after each round's results are classified, persists the
/// witnesses of the classes that round founded as one frame. The
/// baseline, resume and shrink phases never save. Persistence failures
/// are silently ignored — the store is a cache of discoveries, never the
/// source of truth.
///
/// A resumed plan is re-executed through `cache` and re-classified by
/// `classify`, outside the budget: the store's key covers the protocol
/// and options, not everything a classifier may read (a spec's goals and
/// belief assumptions), so a signature computed by an earlier hunt may
/// no longer hold.
///
/// The result is byte-identical at every `pool` worker count: mutants
/// are generated sequentially from the seeded RNG, executions ride the
/// jobs-invariant [`sweep_plans_in`], classification walks batches in
/// generation order, and shrinking is deterministic.
pub fn hunt_plans_on<C>(
    protocol: &Protocol,
    options: &ExecOptions,
    config: &HuntConfig,
    pool: &Pool,
    cache: &ExecutionCache,
    store: Option<&HuntStore>,
    mut classify: C,
) -> HuntOutcome
where
    C: FnMut(&FaultPlan, &ExecOutcome) -> String,
{
    let context = execution_context_digest(protocol, options);
    let sweep =
        |plans: &[FaultPlan]| sweep_plans_in(context, protocol, options, plans, pool, cache);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = HuntStats::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut sigs: BTreeMap<String, usize> = BTreeMap::new();
    let mut classes: Vec<DegradationClass> = Vec::new();
    let mut corpus: Vec<(FaultPlan, u32)> = Vec::new();

    // The baseline signature comes from a dedicated identity execution
    // so it is never confused with the first mutant on a resumed hunt;
    // resuming and round zero re-see the identity plan as a free cache
    // hit.
    let baseline = {
        let identity = config.space.identity();
        let outcome = sweep(std::slice::from_ref(&identity));
        stats.executed += outcome.stats.executed + outcome.stats.cache_hits;
        stats.cache_hits += outcome.stats.cache_hits;
        classify(&identity, outcome.results[0].outcome.as_ref())
    };

    // Resume: persisted plans are inputs, so they are executed and
    // classified afresh; their fingerprints count as already seen.
    if let Some(store) = store {
        let outcome = sweep(&store.load(context));
        for result in &outcome.results {
            seen.insert(PlanFingerprint::of(&result.plan).wire());
            let signature = classify(&result.plan, result.outcome.as_ref());
            admit(
                &mut classes,
                &mut sigs,
                &mut corpus,
                &result.plan,
                signature,
            );
        }
        stats.resumed = classes.len();
    }

    // Round zero: the identity plan plus any seed corpus, minus what the
    // store already covered.
    let mut pending: Vec<FaultPlan> = Vec::new();
    for plan in std::iter::once(config.space.identity()).chain(config.seed_plans.iter().cloned()) {
        if plan.validate().is_ok() && seen.insert(PlanFingerprint::of(&plan).wire()) {
            pending.push(plan);
        }
    }

    loop {
        if !pending.is_empty() {
            stats.rounds += 1;
            let outcome = sweep(&pending);
            stats.executed += outcome.stats.executed + outcome.stats.cache_hits;
            stats.cache_hits += outcome.stats.cache_hits;
            let founded = classes.len();
            for result in &outcome.results {
                let signature = classify(&result.plan, result.outcome.as_ref());
                admit(
                    &mut classes,
                    &mut sigs,
                    &mut corpus,
                    &result.plan,
                    signature,
                );
            }
            // One corpus frame per round: the witnesses it founded.
            if let Some(store) = store {
                let witnesses: Vec<FaultPlan> = classes[founded..]
                    .iter()
                    .map(|class| class.witness.clone())
                    .collect();
                let _ = store.save(context, &witnesses);
            }
        }
        if stats.executed >= config.budget {
            break;
        }

        // Next batch: energy-weighted parents, fingerprint-deduplicated
        // mutants. A bounded attempt count keeps a saturated space (every
        // mutant already seen) from spinning forever.
        let want = config.batch.min(config.budget - stats.executed).max(1);
        pending.clear();
        let mut attempts = 0usize;
        while pending.len() < want && attempts < want.saturating_mul(16) {
            attempts += 1;
            let parent = pick_parent(&mut rng, &mut corpus, &config.space);
            let mutant = config.space.mutate(&mut rng, &parent);
            stats.generated += 1;
            if seen.insert(PlanFingerprint::of(&mutant).wire()) {
                pending.push(mutant);
            } else {
                stats.duplicates += 1;
            }
        }
        if pending.is_empty() {
            break;
        }
    }

    // Shrink every class toward the identity plan.
    for class in &mut classes {
        let (minimal, probes, spent) = shrink(
            &config.space,
            &sweep,
            &class.witness,
            &class.signature,
            &mut classify,
        );
        stats.shrink_trials += probes;
        stats.executed += spent;
        class.minimal = minimal;
    }

    HuntOutcome {
        classes,
        baseline,
        stats,
    }
}

/// Files one executed plan under its signature: one more member of a
/// known class, or the witness of a new class entering the corpus.
fn admit(
    classes: &mut Vec<DegradationClass>,
    sigs: &mut BTreeMap<String, usize>,
    corpus: &mut Vec<(FaultPlan, u32)>,
    plan: &FaultPlan,
    signature: String,
) {
    if let Some(&slot) = sigs.get(&signature) {
        classes[slot].members += 1;
        return;
    }
    sigs.insert(signature.clone(), classes.len());
    classes.push(DegradationClass {
        signature,
        minimal: plan.clone(),
        witness: plan.clone(),
        members: 1,
    });
    corpus.push((plan.clone(), INITIAL_ENERGY));
}

/// Energy-weighted parent pick; falls back to the identity plan while
/// the corpus is empty. Each pick spends one energy point (floor 1), so
/// recent discoveries dominate briefly and then even out.
fn pick_parent(
    rng: &mut StdRng,
    corpus: &mut [(FaultPlan, u32)],
    space: &MutationSpace,
) -> FaultPlan {
    if corpus.is_empty() {
        return space.identity();
    }
    let total: u64 = corpus.iter().map(|(_, e)| u64::from(*e)).sum();
    let mut ticket = rng.gen_range(0..total.max(1));
    for (plan, energy) in corpus.iter_mut() {
        let weight = u64::from(*energy);
        if ticket < weight {
            *energy = (*energy).saturating_sub(1).max(1);
            return plan.clone();
        }
        ticket -= weight;
    }
    corpus[0].0.clone()
}

/// Delta-debugs `witness` toward the identity plan while `target` is
/// preserved: repeatedly accept the first single-axis reduction
/// (compromise removal, a lower palette probability, the default delay
/// duration, the identity seed) that keeps the signature, until a full
/// pass finds none. That final failed pass is the minimality
/// certificate: every single-axis reduction the space offers was tried
/// against the result and lost the signature. `sweep` executes a plan
/// list in the hunt's execution context.
fn shrink<S, C>(
    space: &MutationSpace,
    sweep: &S,
    witness: &FaultPlan,
    target: &str,
    classify: &mut C,
) -> (FaultPlan, usize, usize)
where
    S: Fn(&[FaultPlan]) -> SweepOutcome,
    C: FnMut(&FaultPlan, &ExecOutcome) -> String,
{
    let mut current = witness.clone();
    let mut probes = 0usize;
    let mut spent = 0usize;
    let mut check = |candidate: &FaultPlan| -> bool {
        if candidate.validate().is_err() {
            return false;
        }
        probes += 1;
        let outcome = sweep(std::slice::from_ref(candidate));
        spent += outcome.stats.executed + outcome.stats.cache_hits;
        classify(candidate, outcome.results[0].outcome.as_ref()) == target
    };
    'fixpoint: loop {
        for candidate in reductions(space, &current) {
            if check(&candidate) {
                current = candidate;
                continue 'fixpoint;
            }
        }
        break;
    }
    (current, probes, spent)
}

/// Every single-axis reduction of `plan` toward the identity plan, in a
/// fixed order: drop each compromise, walk each probability axis down
/// through the palette (always ending at 0), restore the default delay
/// duration, restore the identity seed.
fn reductions(space: &MutationSpace, plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for i in 0..plan.compromises.len() {
        let mut candidate = plan.clone();
        candidate.compromises.remove(i);
        out.push(candidate);
    }
    type Axis = (fn(&FaultPlan) -> f64, fn(&mut FaultPlan, f64));
    let axes: [Axis; 5] = [
        (|p| p.drop_p, |p, v| p.drop_p = v),
        (|p| p.duplicate_p, |p, v| p.duplicate_p = v),
        (|p| p.delay_p, |p, v| p.delay_p = v),
        (|p| p.reorder_p, |p, v| p.reorder_p = v),
        (|p| p.replay_p, |p, v| p.replay_p = v),
    ];
    for (get, set) in axes {
        let current = get(plan);
        let mut lower: Vec<f64> = std::iter::once(0.0)
            .chain(space.prob_steps.iter().map(|p| p.clamp(0.0, 1.0)))
            .filter(|v| *v < current)
            .collect();
        lower.sort_by(f64::total_cmp);
        lower.dedup();
        for v in lower {
            let mut candidate = plan.clone();
            set(&mut candidate, v);
            out.push(candidate);
        }
    }
    let identity = space.identity();
    if plan.delay_p > 0.0 && plan.delay_rounds != identity.delay_rounds {
        let mut candidate = plan.clone();
        candidate.delay_rounds = identity.delay_rounds;
        out.push(candidate);
    }
    if plan.seed != identity.seed {
        let mut candidate = plan.clone();
        candidate.seed = identity.seed;
        out.push(candidate);
    }
    out
}

/// The header of a hunt corpus frame.
const CORPUS_HEADER: &str = "atl-corpus v4";

/// A directory of persisted hunt discoveries: one [`crate::store`]
/// frame per hunt round that founded a class, holding the witnesses that
/// round founded. A frame is named `{context:016x}-{frame:016x}.corpus`
/// and keyed by the same two digests, where `frame` is FNV-1a 64 over
/// its plans' fingerprint digests in order. Its body numbers each plan,
/// an input (a resumed hunt re-executes and re-classifies it, see
/// [`hunt_plans_on`]), with its discovery sequence number:
///
/// ```text
/// seq <n>
/// <plan wire rendering>
/// seq <n + 1>
/// <plan wire rendering>
/// ```
///
/// Sequence numbers only grow: the store reads the highest one once,
/// when it opens, and numbers each saved plan after it, so a handle
/// opened after another's saves numbers after them. (Two handles open on
/// one directory at once number from the same point.)
/// [`load`](HuntStore::load) keeps the highest number of a plan saved
/// more than once and returns plans in sequence order, ties broken by
/// fingerprint digest, so a resumed hunt meets its classes in the order
/// they were found, whatever the digest function and however the plans
/// were grouped into frames. A frame failing verification (frames of
/// earlier versions included) is deleted whole when read, and its
/// classes with it: a later hunt re-finds them only where its search
/// reaches them again, which at the same budget it need not do.
#[derive(Debug)]
pub struct HuntStore {
    frames: FrameStore,
    next_seq: AtomicU64,
}

impl HuntStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let store = HuntStore {
            frames: FrameStore::open(dir)?,
            next_seq: AtomicU64::new(0),
        };
        store.entries("");
        Ok(store)
    }

    /// Persists `plans` atomically under `context` as one frame, numbered
    /// consecutively after every plan this store has seen. An empty slice
    /// writes nothing.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from writing or renaming the frame.
    pub fn save(&self, context: u64, plans: &[FaultPlan]) -> io::Result<()> {
        if plans.is_empty() {
            return Ok(());
        }
        let digests: Vec<u8> = plans
            .iter()
            .flat_map(|plan| PlanFingerprint::of(plan).digest().to_le_bytes())
            .collect();
        let frame = fnv64(&digests);
        let first = self
            .next_seq
            .fetch_add(plans.len() as u64, Ordering::Relaxed);
        // Numbers wrap as `fetch_add` does, even after a frame that
        // claims a number near `u64::MAX`.
        let body: String = (0u64..)
            .zip(plans)
            .map(|(i, plan)| {
                let seq = first.wrapping_add(i);
                format!("seq {seq}\n{}\n", wire::render_plan(plan))
            })
            .collect();
        self.frames.write(
            &format!("{context:016x}-{frame:016x}.corpus"),
            CORPUS_HEADER,
            &format!("{context:016x} {frame:016x}"),
            &body,
        )
    }

    /// Loads every verifiable plan for `context`, in discovery order.
    pub fn load(&self, context: u64) -> Vec<FaultPlan> {
        let mut entries: Vec<(u64, u64, FaultPlan)> = self
            .entries(&format!("{context:016x}-"))
            .into_iter()
            .map(|(seq, plan)| (seq, PlanFingerprint::of(&plan).digest(), plan))
            .collect();
        // A plan saved more than once (two hunts on one store) keeps its
        // highest number: the latest save's when each handle opened after
        // the other's saves, and the higher of the two otherwise.
        entries.sort_by_key(|(seq, digest, _)| std::cmp::Reverse((*digest, *seq)));
        entries.dedup_by_key(|(_, digest, _)| *digest);
        entries.sort_by_key(|(seq, digest, _)| (*seq, *digest));
        entries.into_iter().map(|(_, _, plan)| plan).collect()
    }

    /// Every `(sequence number, plan)` pair of the verifiable frames
    /// whose names start with `prefix`, raising the next sequence number
    /// past each one read.
    fn entries(&self, prefix: &str) -> Vec<(u64, FaultPlan)> {
        let entries: Vec<(u64, FaultPlan)> = self
            .frames
            .list(prefix, ".corpus")
            .into_iter()
            .flat_map(|name| {
                let key = name.trim_end_matches(".corpus").replacen('-', " ", 1);
                self.frames
                    .read(&name, CORPUS_HEADER, &key, decode_frame)
                    .unwrap_or_default()
            })
            .collect();
        for (seq, _) in &entries {
            self.next_seq
                .fetch_max(seq.saturating_add(1), Ordering::Relaxed);
        }
        entries
    }
}

/// Decodes a corpus frame body: `seq <n>` and plan lines in pairs. `None`
/// if any line fails, so one bad line discards the whole frame.
fn decode_frame(body: &str) -> Option<Vec<(u64, FaultPlan)>> {
    let lines: Vec<&str> = body.strip_suffix('\n')?.split('\n').collect();
    if !lines.len().is_multiple_of(2) {
        return None;
    }
    lines
        .chunks_exact(2)
        .map(|pair| {
            let seq: u64 = pair[0].strip_prefix("seq ")?.parse().ok()?;
            let plan = wire::parse_plan(pair[1]).ok()?;
            plan.validate().is_ok().then_some((seq, plan))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_with_faults;
    use crate::protocol::{ExpectPolicy, Role};
    use atl_lang::{Message, Nonce};
    use proptest::prelude::*;

    fn nonce(s: &str) -> Message {
        Message::nonce(Nonce::new(s))
    }

    /// The lossy ping-pong of the sweep tests: drop-sensitive, so fault
    /// axes actually change the degradation signature.
    fn lossy_ping_pong() -> Protocol {
        Protocol::new("ping-pong")
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

    /// A classifier over the executor-level outcome: which fault kinds
    /// fired plus how many steps were abandoned, or the error class.
    fn classify(_plan: &FaultPlan, outcome: &ExecOutcome) -> String {
        match outcome {
            Ok((_, report)) => {
                let kinds: Vec<String> = report
                    .faults
                    .iter()
                    .map(|f| f.kind.to_string())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                format!(
                    "faults={} abandoned={}",
                    kinds.join("+"),
                    report.abandoned.len()
                )
            }
            Err(e) => format!("failed {e}"),
        }
    }

    fn config() -> HuntConfig {
        HuntConfig {
            seed: 7,
            budget: 40,
            batch: 8,
            space: MutationSpace::new().prob_steps([0.0, 0.5, 1.0]),
            seed_plans: Vec::new(),
        }
    }

    #[test]
    fn hunt_is_deterministic_across_worker_counts() {
        let run = |jobs: usize| {
            let pool = if jobs == 1 {
                Pool::sequential()
            } else {
                Pool::new(jobs)
            };
            hunt_plans_on(
                &lossy_ping_pong(),
                &ExecOptions::default(),
                &config(),
                &pool,
                &ExecutionCache::new(),
                None,
                classify,
            )
        };
        let reference = run(1);
        assert!(reference.classes.len() > 1, "{:?}", reference.classes);
        for jobs in [2, 4] {
            let outcome = run(jobs);
            assert_eq!(outcome.classes, reference.classes, "jobs={jobs}");
            assert_eq!(outcome.stats, reference.stats, "jobs={jobs}");
            assert_eq!(outcome.baseline, reference.baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn minimal_plans_reproduce_their_signature() {
        let proto = lossy_ping_pong();
        let options = ExecOptions::default();
        let outcome = hunt_plans_on(
            &proto,
            &options,
            &config(),
            &Pool::sequential(),
            &ExecutionCache::new(),
            None,
            classify,
        );
        for class in &outcome.classes {
            let check = execute_with_faults(&proto, &options, &class.minimal);
            let sig = classify(&class.minimal, &check);
            assert_eq!(
                sig, class.signature,
                "minimal plan of {:?}",
                class.signature
            );
        }
    }

    #[test]
    fn mutation_never_escapes_validate() {
        let space = MutationSpace {
            // A deliberately unruly palette: out-of-range and NaN steps
            // must be repaired, never emitted.
            prob_steps: vec![-0.5, 0.0, 0.5, 1.0, 1.5, f64::NAN],
            seeds: 0..4,
            delay_rounds: vec![0, 1, 3],
            compromise_candidates: vec![(Key::new("K"), 0), (Key::new("K"), 2)],
            max_compromises: 2,
        };
        let mut rng = StdRng::seed_from_u64(99);
        let mut plan = space.identity();
        for step in 0..2000 {
            plan = space.mutate(&mut rng, &plan);
            assert!(plan.validate().is_ok(), "step {step}: {plan:?}");
            assert!(plan.compromises.len() <= 2, "step {step}: {plan:?}");
        }
    }

    fn temp_store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atl-search-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The corpus frames in `dir`, by listing the directory.
    fn corpus_frames(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut frames: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "corpus"))
            .collect();
        frames.sort();
        frames
    }

    /// The one frame in `dir` holding `plan`.
    fn frame_holding(dir: &std::path::Path, plan: &FaultPlan) -> PathBuf {
        let line = format!("\n{}\n", wire::render_plan(plan));
        let holding: Vec<PathBuf> = corpus_frames(dir)
            .into_iter()
            .filter(|path| std::fs::read_to_string(path).unwrap().contains(&line))
            .collect();
        assert_eq!(holding.len(), 1, "{plan} is in {holding:?}");
        holding[0].clone()
    }

    #[test]
    fn store_round_trips_resumes_and_discards_corruption() {
        let dir = temp_store_dir("store");
        let store = HuntStore::open(&dir).unwrap();
        let context = 0xfeed;
        let plan = FaultPlan::new(3).drop(0.5).compromise(Key::new("Kab"), 2);
        // A round that founded nothing writes nothing.
        store.save(context, &[]).unwrap();
        assert!(corpus_frames(&dir).is_empty());
        store.save(context, std::slice::from_ref(&plan)).unwrap();
        assert_eq!(store.load(context), vec![plan.clone()]);
        // A different context sees nothing.
        assert!(store.load(0xbeef).is_empty());
        // Corrupt the entry: it is discarded (and deleted), not served.
        let path = frame_holding(&dir, &plan);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("tampered\n");
        std::fs::write(&path, text).unwrap();
        assert!(store.load(context).is_empty());
        assert!(!path.exists(), "corrupt entry should be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Plans load in the order they were saved, not in digest order, and
    /// a later store on the same directory (a second hunt) numbers its
    /// frames after the first one's.
    #[test]
    fn corpus_loads_in_discovery_order_across_hunts() {
        let dir = temp_store_dir("order");
        let context = 0xfeed;
        let mut plans: Vec<FaultPlan> = (0..6).map(|seed| FaultPlan::new(seed).drop(0.5)).collect();
        // Save in descending digest order, so discovery order and digest
        // order disagree everywhere.
        plans.sort_by_key(|plan| std::cmp::Reverse(PlanFingerprint::of(plan).digest()));
        let (first, second) = plans.split_at(4);
        let store = HuntStore::open(&dir).unwrap();
        store.save(context, &first[..1]).unwrap();
        store.save(context, &first[1..]).unwrap();
        assert_eq!(store.load(context), first);
        let store = HuntStore::open(&dir).unwrap();
        store.save(context, second).unwrap();
        assert_eq!(store.load(context), plans);
        assert_eq!(corpus_frames(&dir).len(), 3);
        let text = std::fs::read_to_string(frame_holding(&dir, &plans[5])).unwrap();
        let numbered = format!("\nseq 5\n{}\n", wire::render_plan(&plans[5]));
        assert!(text.contains(&numbered), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small plan pool with repeats under canonicalization: fault-free
    /// plans, certain drops and compromises ignore their seed, so
    /// distinct plans share a fingerprint.
    fn pool_plan(i: u64) -> FaultPlan {
        let plan = FaultPlan::new(i % 3).drop([0.0, 0.5, 1.0][(i / 3 % 3) as usize]);
        if i >= 9 {
            plan.compromise(Key::new("Kab"), 2)
        } else {
            plan
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Per-round frames load exactly as one frame per plan (the
        /// previous discipline, where saving a plan again replaced its
        /// frame) does: across contexts, across a second handle opened on
        /// the same directory, and with plans repeated across and within
        /// rounds, where the later sequence number wins.
        #[test]
        fn round_frames_load_as_one_plan_frames(
            rounds in prop::collection::vec((0u64..2, prop::collection::vec(0u64..12, 0..5)), 1..8),
            reopen in 0usize..8,
        ) {
            let case = rounds
                .iter()
                .flat_map(|(context, round)| std::iter::once(*context).chain(round.iter().copied()))
                .fold(0u64, |h, x| h.wrapping_mul(31).wrapping_add(x + 1));
            let by_round = temp_store_dir(&format!("rounds-{case:x}"));
            let by_plan = temp_store_dir(&format!("plans-{case:x}"));
            let mut stores = (HuntStore::open(&by_round).unwrap(), HuntStore::open(&by_plan).unwrap());
            for (at, (context, round)) in rounds.iter().enumerate() {
                if at == reopen {
                    stores = (HuntStore::open(&by_round).unwrap(), HuntStore::open(&by_plan).unwrap());
                }
                let plans: Vec<FaultPlan> = round.iter().map(|&i| pool_plan(i)).collect();
                stores.0.save(*context, &plans).unwrap();
                for plan in &plans {
                    stores.1.save(*context, std::slice::from_ref(plan)).unwrap();
                }
            }
            let founding = rounds.iter().filter(|(_, round)| !round.is_empty()).count();
            prop_assert!(corpus_frames(&by_round).len() <= founding);
            for context in 0..2 {
                let expected = stores.1.load(context);
                prop_assert_eq!(stores.0.load(context), expected.clone());
                prop_assert_eq!(HuntStore::open(&by_round).unwrap().load(context), expected);
            }
            let _ = std::fs::remove_dir_all(&by_round);
            let _ = std::fs::remove_dir_all(&by_plan);
        }
    }

    /// Every way a frame can fail past its file name: each is deleted
    /// whole, and exactly its plans disappear from the load.
    #[test]
    fn bad_frames_are_deleted_whole() {
        let dir = temp_store_dir("bad-frames");
        let store = HuntStore::open(&dir).unwrap();
        let context = 0xfeed;
        let plans: Vec<FaultPlan> = (0..6).map(|seed| FaultPlan::new(seed).drop(0.5)).collect();
        store.save(context, &plans[0..2]).unwrap();
        store.save(context, &plans[2..3]).unwrap();
        store.save(context, &plans[3..5]).unwrap();
        assert_eq!(store.load(context), &plans[..5]);

        let stray = wire::render_plan(&plans[5]);
        let invalid = wire::render_plan(&FaultPlan::new(0).drop(1.5));
        let cases = [
            ("an odd line count", format!("seq 5\n{stray}\nseq 6\n")),
            ("a bad seq line", format!("seq five\n{stray}\n")),
            ("an unnumbered plan", format!("{stray}\nseq 5\n")),
            (
                "an unparsable plan",
                format!("seq 5\n{stray}\nseq 6\nnot a plan\n"),
            ),
            (
                "an invalid plan",
                format!("seq 5\n{stray}\nseq 6\n{invalid}\n"),
            ),
            ("an empty body", String::new()),
        ];
        for (what, body) in cases {
            let name = format!("{context:016x}-{:016x}.corpus", 0xbad);
            let key = format!("{context:016x} {:016x}", 0xbad);
            store
                .frames
                .write(&name, CORPUS_HEADER, &key, &body)
                .unwrap();
            assert_eq!(store.load(context), &plans[..5], "{what}");
            assert!(
                !dir.join(&name).exists(),
                "{what}: the frame was not deleted"
            );
        }
        // A frame of the previous version, one plan per frame.
        let name = format!("{context:016x}-{:016x}.corpus", 0xbad);
        let key = format!("{context:016x} {:016x}", 0xbad);
        let v3 = crate::store::render_frame("atl-corpus v3", &key, &format!("seq 5\n{stray}\n"));
        std::fs::write(dir.join(&name), v3).unwrap();
        assert_eq!(store.load(context), &plans[..5], "a v3 frame");
        assert!(!dir.join(&name).exists(), "the v3 frame was not deleted");

        // A flipped byte in a real two-plan frame takes both its plans.
        let victim = frame_holding(&dir, &plans[3]);
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() - 2;
        bytes[at] ^= 0x20;
        std::fs::write(&victim, bytes).unwrap();
        assert_eq!(store.load(context), &plans[..3]);
        assert!(!victim.exists(), "the flipped frame was not deleted");
        assert_eq!(corpus_frames(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two handles open on one directory at once number from the same
    /// point. A plan both save keeps the higher number, even where the
    /// handle with the lower number saved it last, and plans sharing a
    /// number load in fingerprint-digest order. (The one-plan frames that
    /// `round_frames_load_as_one_plan_frames` compares against keep the
    /// last writer's number here, so that proptest opens one handle at a
    /// time.)
    #[test]
    fn open_handles_keep_a_plans_highest_number() {
        let dir = temp_store_dir("open-handles");
        let context = 0xfeed;
        let mut plans: Vec<FaultPlan> = (0..3).map(|seed| FaultPlan::new(seed).drop(0.5)).collect();
        plans.sort_by_key(|plan| std::cmp::Reverse(PlanFingerprint::of(plan).digest()));
        let first = HuntStore::open(&dir).unwrap();
        let second = HuntStore::open(&dir).unwrap();
        first.save(context, &plans[..2]).unwrap(); // seq 0 and 1
        second.save(context, &plans[1..2]).unwrap(); // seq 0
        second.save(context, &plans[2..]).unwrap(); // seq 1
        let expected = vec![plans[0].clone(), plans[2].clone(), plans[1].clone()];
        assert_eq!(first.load(context), expected);
        assert_eq!(second.load(context), expected);
        assert_eq!(HuntStore::open(&dir).unwrap().load(context), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sound frame claiming the last sequence number: saving after it
    /// wraps the numbers instead of overflowing, and loses no plan.
    #[test]
    fn sequence_numbers_wrap_after_the_last_one() {
        let dir = temp_store_dir("wrap");
        let context = 0xfeed;
        let plans: Vec<FaultPlan> = (0..3).map(|seed| FaultPlan::new(seed).drop(0.5)).collect();
        let body = format!("seq {}\n{}\n", u64::MAX, wire::render_plan(&plans[0]));
        let key = format!("{context:016x} {:016x}", 1);
        FrameStore::open(&dir)
            .unwrap()
            .write(
                &format!("{}.corpus", key.replace(' ', "-")),
                CORPUS_HEADER,
                &key,
                &body,
            )
            .unwrap();
        let store = HuntStore::open(&dir).unwrap();
        store.save(context, &plans[1..]).unwrap();
        let mut loaded = store.load(context);
        loaded.sort_by_key(|plan| plan.seed);
        assert_eq!(loaded, plans);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_hunt_does_not_duplicate_signatures() {
        let dir =
            std::env::temp_dir().join(format!("atl-search-unit-{}-resume", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = HuntStore::open(&dir).unwrap();
        let proto = lossy_ping_pong();
        let options = ExecOptions::default();
        let pool = Pool::sequential();
        // A short first hunt, as if killed early.
        let mut short = config();
        short.budget = 10;
        let first = hunt_plans_on(
            &proto,
            &options,
            &short,
            &pool,
            &ExecutionCache::new(),
            Some(&store),
            classify,
        );
        assert!(first.stats.resumed == 0 && !first.classes.is_empty());
        // Resume with the full budget: persisted classes come back from
        // the store, and no signature appears twice.
        let second = hunt_plans_on(
            &proto,
            &options,
            &config(),
            &pool,
            &ExecutionCache::new(),
            Some(&store),
            classify,
        );
        assert_eq!(second.stats.resumed, first.classes.len());
        let mut sigs: Vec<&str> = second
            .classes
            .iter()
            .map(|c| c.signature.as_str())
            .collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(sigs.len(), before, "duplicate signatures after resume");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
