use super::verbs::first_word;
use super::{Response, ServeStats, ServerState};
use crate::annotate::{analyze_at_resumable, AnalysisResume, AtProtocol};
use crate::budget::Budget;
use crate::enact::enact;
use crate::goodruns::{construct_in, ConstructionCheckpoint};
use crate::parallel::Pool;
use crate::semantics::{EvalCache, GoodRuns, RewarmStats};
use crate::spec::{canonicalize_spec, parse_spec, SpecDiff};
use crate::sweep::belief_assumptions;
use atl_lang::parser::Symbols;
use atl_model::wire::fnv64;
use atl_model::{execute_with_faults, ExecOptions, FaultPlan, Protocol, System};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A warmed spec: everything `LOAD` builds once so later queries only
/// read caches.
pub(super) struct Session {
    pub(super) id: u64,
    digest: u64,
    /// The canonical digest of the spec this session was `RELOAD`ed
    /// from, when it was (lineage; `None` for a fresh `LOAD`).
    parent: Option<u64>,
    pub(super) at: AtProtocol,
    pub(super) syms: Symbols,
    /// The annotation run packaged for in-place resumption. A `RELOAD`
    /// *takes* it (the session is retiring anyway) and advances the
    /// prover directly — no clone, no re-indexing. `None`
    /// only after a concurrent reload already claimed it, in which case
    /// the loser re-analyzes cold.
    resume: Mutex<Option<AnalysisResume>>,
    /// Pre-rendered `atl analyze` report (and whether every goal held).
    pub(super) analysis_text: String,
    /// The enacted default protocol — the executor-visible surface. Two
    /// specs with equal `proto` execute identically, which is what lets
    /// `RELOAD` keep the system for goal/belief-only edits.
    proto: Protocol,
    /// The fault-free execution, if the spec runs to completion.
    pub(super) system: Option<System>,
    /// Why there is no system, when there is none.
    pub(super) no_system: String,
    /// Good-run vector over `system` (Section 7 construction, falling
    /// back to the all-runs vector exactly as the sweep bridge does).
    pub(super) goods: GoodRuns,
    /// Per-stage record of the construction, for `RELOAD` resume
    /// (`None` when the construction fell back or there is no system).
    checkpoint: Option<ConstructionCheckpoint>,
    /// Prewarmed evaluation cache holding the frozen-interner snapshot.
    pub(super) warmed: EvalCache,
    pub(super) eval_memo: Mutex<HashMap<String, Response>>,
    pub(super) inject_memo: Mutex<HashMap<String, Response>>,
}

impl Session {
    /// The `LOAD` response payload for this session.
    fn load_line(&self) -> String {
        format!(
            "session {}: protocol {} ({} assumption(s), {} step(s), {} goal(s))",
            self.id,
            self.at.name,
            self.at.assumptions.len(),
            self.at.steps.len(),
            self.at.goals.len()
        )
    }
}

#[derive(Default)]
pub(super) struct Store {
    pub(super) sessions: HashMap<u64, Arc<Session>>,
    by_digest: HashMap<u64, u64>,
    /// Session ids from least- to most-recently used.
    recency: Vec<u64>,
    next_id: u64,
    pub(super) stats: ServeStats,
}

impl Store {
    pub(super) fn touch(&mut self, id: u64) {
        self.recency.retain(|&x| x != id);
        self.recency.push(id);
    }

    /// The `LOAD` answer of the live session already built from the spec
    /// with canonical digest `digest`, counted as a dedupe hit; `None`
    /// when no live session has that digest.
    fn dedupe_hit(&mut self, digest: u64) -> Option<Response> {
        let id = *self.by_digest.get(&digest)?;
        let line = self.sessions.get(&id)?.load_line();
        self.stats.load_hits += 1;
        self.touch(id);
        Some(Response::from_text(&line))
    }

    /// What `STATS` and `METRICS` report about the resident sessions,
    /// in one walk under the store lock.
    pub(super) fn census(&self) -> Census {
        let mut census = Census {
            live: self.sessions.len(),
            ..Census::default()
        };
        for session in self.sessions.values() {
            census.hidden += session.warmed.hidden_entries();
            census.frozen += session
                .warmed
                .frozen_base()
                .map_or(0, |b| b.message_count());
            census.lineage += usize::from(session.parent.is_some());
        }
        census
    }
}

/// Session totals: live sessions, hidden-state entries and frozen
/// interner messages across their warmed caches, and sessions
/// re-pointed by `RELOAD` (lineage).
#[derive(Default)]
pub(super) struct Census {
    pub(super) live: usize,
    pub(super) hidden: usize,
    pub(super) frozen: usize,
    pub(super) lineage: usize,
}

/// The [`fnv64`] digest of the *canonicalized* spec text: comments and
/// insignificant whitespace are erased first, so comment-only twins
/// share a digest and hit the `LOAD` dedupe path instead of building a
/// second session.
fn content_digest(content: &str) -> u64 {
    fnv64(canonicalize_spec(content).as_bytes())
}

pub(super) fn cmd_load(state: &Arc<ServerState>, path: &str) -> Response {
    if path.is_empty() {
        return Response::err("LOAD takes a spec path");
    }
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return Response::err(format!("cannot read {path}: {e}")),
    };
    let digest = content_digest(&content);
    {
        let mut store = state.store();
        store.stats.loads += 1;
        if let Some(hit) = store.dedupe_hit(digest) {
            return hit;
        }
    }

    // Parse and warm outside any lock; concurrent LOADs of the same new
    // spec may both build, in which case the first insert wins below.
    let (at, syms) = match parse_spec(&content) {
        Ok(ok) => ok,
        Err(e) => return Response::err(e.diagnostic(path)),
    };
    let (mut session, _) = build_session(&state.pool, digest, at, syms, None);

    let mut store = state.store();
    // Re-check: another connection may have inserted this digest while
    // we were building.
    if let Some(hit) = store.dedupe_hit(digest) {
        return hit;
    }
    store.stats.parsed += 1;
    store.next_id += 1;
    let id = store.next_id;
    session.id = id;
    let session = Arc::new(session);
    store.by_digest.insert(digest, id);
    store.sessions.insert(id, Arc::clone(&session));
    store.touch(id);
    while store.sessions.len() > state.max_sessions {
        let victim = store.recency.remove(0);
        if let Some(gone) = store.sessions.remove(&victim) {
            // Lineage-aware: a reloaded session's old digests no longer
            // map to it, so only drop the mapping this victim still owns.
            if store.by_digest.get(&gone.digest) == Some(&victim) {
                store.by_digest.remove(&gone.digest);
            }
            store.stats.evictions += 1;
        }
    }
    Response::from_text(&session.load_line())
}

/// What a session build took over from the session it replaces.
#[derive(Default)]
struct Reuse {
    analysis: bool,
    system: bool,
    stages: usize,
    rewarm: RewarmStats,
}

/// Builds the session for a parsed spec, outside any lock. With no
/// `prior`, every stage is computed, as `LOAD` does. With the session a
/// `RELOAD` replaces and the diff against it, every stage whose inputs
/// the edit left untouched is reused: the analysis closure (advanced in
/// place via [`AnalysisResume`] when assumptions were only added), the
/// executed system (kept when the enacted protocol is equal), the
/// Section 7 construction (stage checkpoint resume), and the evaluation
/// cache (pointwise rewarm). The session takes the prior's id (`LOAD`
/// assigns one after the build) and records its digest as the parent.
fn build_session(
    pool: &Pool,
    digest: u64,
    at: AtProtocol,
    syms: Symbols,
    prior: Option<(&Session, &SpecDiff)>,
) -> (Session, Reuse) {
    let old = prior.map(|(old, _)| old);
    let mut reuse = Reuse::default();

    // Analysis: take the retiring session's resume and advance it in
    // place when assumptions were only added — one delta saturation, an
    // empty one for an unchanged protocol or a goal-only edit;
    // otherwise, or when a concurrent reload already claimed the resume,
    // analyze cold. `AnalysisResume::advance` requires unchanged steps,
    // which `analysis_resumable` guarantees.
    let taken = old.and_then(|old| {
        old.resume
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    });
    let resume = match (prior, taken) {
        (Some((_, diff)), Some(mut r)) => match diff.analysis_resumable() {
            Some(added) => {
                r.advance(&at, added);
                reuse.analysis = true;
                r
            }
            None => analyze_at_resumable(&at),
        },
        _ => analyze_at_resumable(&at),
    };
    let analysis_text = resume.render(&at);

    // Execution: `enact` ignores goals and belief assumptions, so any
    // edit that leaves the enacted protocol equal keeps the system (and
    // the executor-visible digest for the global execution cache).
    let proto = enact(&at);
    let kept = old.filter(|old| old.proto == proto);
    reuse.system = kept.is_some();
    let (system, no_system) = match kept {
        Some(old) => (old.system.clone(), old.no_system.clone()),
        None => match execute_with_faults(&proto, &ExecOptions::default(), &FaultPlan::new(0)) {
            Ok((run, _)) => (Some(System::new([run])), String::new()),
            Err(e) => (None, e.to_string()),
        },
    };

    // Evaluation cache: reuse wholesale with the system, rewarm
    // pointwise against the old snapshot when the system changed, or
    // prewarm cold when there is nothing to diff against.
    let (warmed, rewarm) = match (&system, kept, old) {
        (None, _, _) => (EvalCache::default(), RewarmStats::default()),
        (Some(_), Some(old), _) => {
            let total = old.warmed.entry_count();
            (
                old.warmed.clone(),
                RewarmStats {
                    reused: total,
                    total,
                },
            )
        }
        (
            Some(sys),
            None,
            Some(Session {
                system: Some(old_sys),
                warmed: old_warmed,
                ..
            }),
        ) => EvalCache::prewarm_delta_on(sys, old_sys, old_warmed, pool),
        (Some(sys), None, _) => {
            let warmed = EvalCache::prewarm_on(sys, pool);
            let total = warmed.entry_count();
            (warmed, RewarmStats { reused: 0, total })
        }
    };
    reuse.rewarm = rewarm;

    // Good-run construction: clone when nothing it depends on moved,
    // resume from the stage checkpoint when only the belief assumptions
    // moved, build otherwise (always over the freshly warmed cache).
    let beliefs = belief_assumptions(&at);
    let (goods, checkpoint) = match (&system, kept) {
        (None, _) => (
            GoodRuns::all_runs(&System::new(Vec::<atl_model::Run>::new())),
            None,
        ),
        (Some(_), Some(old)) if beliefs == belief_assumptions(&old.at) => {
            reuse.stages = old
                .checkpoint
                .as_ref()
                .map_or(0, ConstructionCheckpoint::stages);
            (old.goods.clone(), old.checkpoint.clone())
        }
        (Some(sys), _) => {
            // A cold build resumes from the empty checkpoint. The loop
            // fills the cache it is given at one job, so it gets a copy:
            // the session keeps exactly the warmed cache.
            let cold = ConstructionCheckpoint::default();
            let prior = kept
                .and_then(|old| old.checkpoint.as_ref())
                .unwrap_or(&cold);
            let cache = &mut warmed.clone();
            match construct_in(sys, &beliefs, Budget::unlimited(), prior, pool, cache) {
                Ok(c) => {
                    reuse.stages = c.reused;
                    (c.goods, Some(c.checkpoint))
                }
                Err(_) => (GoodRuns::all_runs(sys), None),
            }
        }
    };

    // Response memos answer over (system, goods, symbols) for EVAL and
    // over the full protocol text for INJECT — carry each across only
    // when its inputs are bytewise stable.
    let memo = |m: &Mutex<HashMap<String, Response>>| {
        m.lock().unwrap_or_else(PoisonError::into_inner).clone()
    };
    let eval_memo = match kept {
        Some(old) if syms == old.syms && goods == old.goods => memo(&old.eval_memo),
        _ => HashMap::new(),
    };
    let inject_memo = match old {
        Some(old) if at == old.at => memo(&old.inject_memo),
        _ => HashMap::new(),
    };

    let session = Session {
        id: old.map_or(0, |old| old.id),
        digest,
        parent: old.map(|old| old.digest),
        at,
        syms,
        resume: Mutex::new(Some(resume)),
        analysis_text,
        proto,
        system,
        no_system,
        goods,
        checkpoint,
        warmed,
        eval_memo: Mutex::new(eval_memo),
        inject_memo: Mutex::new(inject_memo),
    };
    (session, reuse)
}

/// `RELOAD <session-id> <spec-path>`: re-point a live session at an
/// edited spec, structurally diffing the new parse against the old one
/// and rebuilding it with [`build_session`], which reuses every artifact
/// whose inputs are untouched. The rebuilt session keeps its id and
/// records the old digest as its parent.
pub(super) fn cmd_reload(state: &Arc<ServerState>, rest: &str) -> Response {
    let (id_text, path) = first_word(rest);
    if path.is_empty() {
        return Response::err("RELOAD takes <session-id> <spec-path>");
    }
    let old = match state.session(id_text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return Response::err(format!("cannot read {path}: {e}")),
    };
    let digest = content_digest(&content);
    if digest == old.digest {
        // Canonically unchanged content: the live session already *is*
        // the cold load of this spec.
        let mut store = state.store();
        store.stats.reloads += 1;
        store.stats.reload_delta += 1;
        store.touch(old.id);
        return Response::from_text(&format!(
            "{}\nreload unchanged: session kept as-is",
            old.load_line()
        ));
    }

    // Build outside the store lock, exactly like LOAD.
    let (at, syms) = match parse_spec(&content) {
        Ok(ok) => ok,
        Err(e) => return Response::err(e.diagnostic(path)),
    };
    let diff = SpecDiff::classify(&old.at, &old.syms, &at, &syms);
    let (session, reuse) = build_session(&state.pool, digest, at, syms, Some((&old, &diff)));
    let session = Arc::new(session);
    let summary = format!(
        "reload {}: analysis {}, system {}, stages reused {}, cache points reused {}/{}",
        diff.kind(),
        if reuse.analysis {
            "reused"
        } else {
            "recomputed"
        },
        if reuse.system {
            "reused"
        } else {
            "re-executed"
        },
        reuse.stages,
        reuse.rewarm.reused,
        reuse.rewarm.total,
    );

    let mut store = state.store();
    store.stats.reloads += 1;
    if reuse.analysis || reuse.system || reuse.stages > 0 || reuse.rewarm.reused > 0 {
        store.stats.reload_delta += 1;
    } else {
        store.stats.reload_full += 1;
    }
    // Re-point the session in place: same id, new digest. The old
    // digest's dedupe mapping dies with the edit (unless some other
    // session owns it); the new digest maps here unless a session
    // already owns it — dedupe never steals.
    if store.by_digest.get(&old.digest) == Some(&old.id) {
        store.by_digest.remove(&old.digest);
    }
    store.by_digest.entry(digest).or_insert(old.id);
    store.sessions.insert(old.id, Arc::clone(&session));
    store.touch(old.id);
    Response::from_text(&format!("{}\n{}", session.load_line(), summary))
}
