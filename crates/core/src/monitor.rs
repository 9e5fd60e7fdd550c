//! A streaming online monitor: O(delta)-per-event incremental
//! verification of a live protocol run.
//!
//! The semantics of Section 6 assigns truth to *points* `(r, k)`, which
//! makes verification prefix-monotone: extending a run never edits any
//! earlier state, so everything computed for the prefix stays valid. A
//! [`Monitor`] exploits that. It holds one live run prefix, fed one raw
//! trace line at a time through the same [`TraceFeed`] grammar the batch
//! parser uses, and after every event re-verdicts its watched formulas
//! at the new final point with three incremental moves instead of a
//! re-walk:
//!
//! - the run grows **in place** ([`System::extend_run`]), no rebuild;
//! - the per-point memo sets grow monotonically
//!   ([`EvalCache::extend_appended`]) — only the new point's hidden
//!   states and accountable sets are computed, everything earlier is
//!   kept by reference — and the one inline evaluator that verdicts an
//!   event (`Semantics::map_runs` at one job) writes what it memoized
//!   back into the same cache, also when a formula fails to evaluate;
//! - the annotation closure advances by **one delta saturation** per
//!   level ([`AnalysisResume::advance`]), proportional to the new
//!   event's consequences only.
//!
//! Verdict lines are byte-identical to `atl eval` over a batch re-parse
//! of the same prefix at every event (`tests/e21_monitor.rs` proves
//! this), so a monitor is a drop-in for polling the batch CLI.
//!
//! A monitor session is durable: [`Monitor::checkpoint`] captures the
//! watched formula texts plus every line fed so far, and
//! [`Monitor::resume`] replays them through the identical path — a
//! resumed session cannot diverge from one that never went down.
//!
//! ```
//! use atl_core::monitor::Monitor;
//! use atl_core::parallel::Pool;
//! let pool = Pool::new(1);
//! let mut m = Monitor::new("demo", ["A has K".into()]).unwrap();
//! for line in ["run start 0", "principal A keys K", "newkey A K2"] {
//!     for verdict in m.feed_line(line, &pool).unwrap() {
//!         assert_eq!(verdict, "at (run 0, time 1): A has K = true");
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::annotate::{analyze_at_resumable, AnalysisResume, AtProtocol};
use crate::parallel::Pool;
use crate::semantics::{verdict_line, EvalCache, GoodRuns, Semantics};
use atl_lang::parser::{parse_formula, ParseError, Symbols};
use atl_lang::{Formula, Principal};
use atl_model::wire::MonitorCheckpoint;
use atl_model::{Action, FeedOutcome, Point, System, TraceError, TraceFeed};
use std::error::Error;
use std::fmt;

/// The padding key [`atl_model::RunBuilder::idle`] reserves; idle events
/// carry no protocol content, so they advance time without a fact.
const PAD_KEY: &str = "__pad";

/// Why a monitor rejected input.
///
/// `Trace` and `Formula` are *parse* failures and carry a
/// `origin:position: message` diagnostic ([`MonitorError::diagnostic`])
/// in exactly the shape the batch CLI reports (exit code 3 there); both
/// the `atl monitor` command and the serve-mode `EVENT` verb surface
/// them through this one path, so the two frontends cannot drift.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonitorError {
    /// A trace line failed the shared streaming grammar.
    Trace(TraceError),
    /// A watched formula failed to parse.
    Formula(ParseError),
    /// Evaluation over the extended run failed (a monitor bug — the
    /// final point of a built prefix is always in range).
    Eval(String),
}

impl MonitorError {
    /// True for the parse-failure variants (CLI exit code 3).
    pub fn is_parse(&self) -> bool {
        matches!(self, MonitorError::Trace(_) | MonitorError::Formula(_))
    }

    /// The `origin:position: message` diagnostic for parse failures;
    /// trace errors position by line, formula errors by byte offset
    /// (matching `atl eval`'s `<formula>` origin convention).
    pub fn diagnostic(&self, origin: &str) -> String {
        match self {
            MonitorError::Trace(e) => e.diagnostic(origin),
            MonitorError::Formula(e) => e.diagnostic("<formula>"),
            MonitorError::Eval(m) => format!("{origin}: {m}"),
        }
    }
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Trace(e) => write!(f, "{e}"),
            MonitorError::Formula(e) => write!(f, "{e}"),
            MonitorError::Eval(m) => write!(f, "monitor evaluation: {m}"),
        }
    }
}

impl Error for MonitorError {}

impl From<TraceError> for MonitorError {
    fn from(e: TraceError) -> Self {
        MonitorError::Trace(e)
    }
}

/// Work counters a monitor accumulates, exposed by serve-mode `STATS`
/// and `METRICS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events ingested (action lines; directives don't count).
    pub events: usize,
    /// Memoized point sets carried over across extensions — the work
    /// the incremental path did *not* redo.
    pub points_reused: usize,
    /// Incremental advances: one delta saturation + one cache append.
    pub delta_saturations: usize,
    /// Full builds: the first buildable prefix costs one batch prewarm.
    pub full_saturations: usize,
}

/// A live monitor session: one growing run prefix, a set of watched
/// formulas, and the memoized state to re-verdict them at delta cost
/// per event (see the module docs for the three incremental moves).
#[derive(Clone, Debug)]
pub struct Monitor {
    name: String,
    feed: TraceFeed,
    formula_texts: Vec<String>,
    formulas: Vec<Formula>,
    system: Option<System>,
    warmed: EvalCache,
    proto: AtProtocol,
    resume: AnalysisResume,
    lines: Vec<String>,
    last_verdicts: Vec<bool>,
    header_locked: bool,
    stats: MonitorStats,
}

impl Monitor {
    /// Creates a monitor watching `formulas` (their concrete syntax).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Formula`] if a formula is not syntactically
    /// valid. Identifier *classification* (which names are principals
    /// or keys) waits for the trace header, matching what `atl eval`
    /// sees after a batch parse; syntax errors surface immediately.
    pub fn new(
        name: impl Into<String>,
        formulas: impl IntoIterator<Item = String>,
    ) -> Result<Monitor, MonitorError> {
        let name = name.into();
        let formula_texts: Vec<String> = formulas.into_iter().collect();
        for text in &formula_texts {
            parse_formula(text, &Symbols::default()).map_err(MonitorError::Formula)?;
        }
        let proto = AtProtocol::new(name.clone());
        let resume = analyze_at_resumable(&proto);
        Ok(Monitor {
            name,
            feed: TraceFeed::new(),
            formula_texts,
            formulas: Vec::new(),
            system: None,
            warmed: EvalCache::default(),
            proto,
            resume,
            lines: Vec::new(),
            last_verdicts: Vec::new(),
            header_locked: false,
            stats: MonitorStats::default(),
        })
    }

    /// The number of watched formulas.
    pub fn formula_count(&self) -> usize {
        self.formula_texts.len()
    }

    /// The verdicts of the most recent event's formulas, in watch order
    /// (empty until the first post-epoch event).
    pub fn last_verdicts(&self) -> &[bool] {
        &self.last_verdicts
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Feeds one raw trace line and returns the monitor's output lines:
    /// nothing for header directives, a `# time k: pre-epoch` marker
    /// for events before time 0 (no run exists to evaluate yet), and
    /// one `at (run 0, time k): {formula} = {verdict}` line per watched
    /// formula after every post-epoch event — byte-identical to `atl
    /// eval` over the same prefix.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Trace`] on a malformed line (the line is *not*
    /// recorded; the session continues), [`MonitorError::Formula`] if a
    /// watched formula fails to parse against the header's symbols.
    pub fn feed_line(&mut self, raw: &str, pool: &Pool) -> Result<Vec<String>, MonitorError> {
        let outcome = self.feed.feed(raw)?;
        self.lines.push(raw.to_string());
        let time = match outcome {
            FeedOutcome::Directive => return Ok(Vec::new()),
            FeedOutcome::Event { time } => time,
        };
        self.stats.events += 1;
        if !self.header_locked {
            // The header is locked once actions start, so the symbol
            // table is now exactly what a batch parse of any prefix
            // would return; the declared starting key sets seed the
            // annotation closure the way initial assumptions seed a
            // protocol analysis.
            self.header_locked = true;
            let syms = self.feed.symbols();
            let mut proto = std::mem::replace(&mut self.proto, AtProtocol::new(""));
            for text in &self.formula_texts {
                let phi = parse_formula(text, syms).map_err(MonitorError::Formula)?;
                proto = proto.goal(phi.clone());
                self.formulas.push(phi);
            }
            let initial = self
                .feed
                .builder()
                .expect("events imply a builder")
                .initial_state();
            let mut seeds = Vec::new();
            for (p, local) in &initial.locals {
                for key in &local.key_set {
                    seeds.push(Formula::has(p.clone(), key.clone()));
                }
            }
            for key in &initial.env.key_set {
                seeds.push(Formula::has(Principal::environment(), key.clone()));
            }
            for f in &seeds {
                proto = proto.assume(f.clone());
            }
            self.proto = proto;
            self.resume.advance(&self.proto, &seeds);
        }
        self.ingest_fact();
        let builder = self.feed.builder().expect("events imply a builder");
        if builder.now() < 0 {
            return Ok(vec![format!(
                "# time {time}: pre-epoch (no verdicts before time 0)"
            )]);
        }

        match &mut self.system {
            None => {
                let run = self
                    .feed
                    .try_build()
                    .ok_or_else(|| MonitorError::Eval("prefix did not build".into()))?;
                let system = System::new([run]);
                self.warmed = EvalCache::prewarm_on(&system, pool);
                self.stats.full_saturations += 1;
                self.system = Some(system);
            }
            Some(system) => {
                let builder = self.feed.builder().expect("events imply a builder");
                let from = system.runs()[0].horizon();
                system.extend_run(
                    0,
                    builder.last_event().expect("just stepped").clone(),
                    builder.current_state().clone(),
                );
                let stats = self.warmed.extend_appended(system, 0, from);
                self.stats.points_reused += stats.reused;
                self.stats.delta_saturations += 1;
            }
        }
        self.verdict_lines()
    }

    /// Assumes the fed event's fact and advances the annotation closure
    /// by one delta saturation per level: `send` ⇒ `P said M`,
    /// `recv` ⇒ `P sees M`, `newkey` ⇒ `P has K`; idle padding steps
    /// carry no fact.
    fn ingest_fact(&mut self) {
        let Some(event) = self.feed.builder().and_then(|b| b.last_event()) else {
            return;
        };
        let actor = event.actor.clone();
        let fact = match &event.action {
            Action::Send { message, .. } => Formula::said(actor, message.clone()),
            Action::Receive { message } => Formula::sees(actor, message.clone()),
            Action::NewKey { key } => {
                if actor == Principal::environment() && key.as_str() == PAD_KEY {
                    return;
                }
                Formula::has(actor, key.clone())
            }
        };
        let proto = std::mem::replace(&mut self.proto, AtProtocol::new(""));
        self.proto = proto.assume(fact.clone());
        self.resume.advance(&self.proto, &[fact]);
    }

    /// Evaluates every watched formula at the run's final point through
    /// one inline evaluator over the monitor's cache, which keeps the
    /// memo sets it fills for the next event — also when a formula fails
    /// to evaluate.
    fn verdict_lines(&mut self) -> Result<Vec<String>, MonitorError> {
        let system = self.system.as_ref().expect("verdicts need a system");
        let at = Point::new(0, system.runs()[0].horizon());
        let formulas = &self.formulas;
        let verdicts = Semantics::map_runs(
            system,
            &GoodRuns::all_runs(system),
            &[0],
            &Pool::sequential(),
            &mut self.warmed,
            |sem, _| {
                let verdicts = formulas.iter().map(|phi| sem.eval(at, phi));
                verdicts.collect::<Result<Vec<bool>, _>>()
            },
        )
        .remove(0)
        .map_err(|e| MonitorError::Eval(e.to_string()))?;
        self.last_verdicts = verdicts;
        Ok(formulas
            .iter()
            .zip(&self.last_verdicts)
            .map(|(phi, &v)| verdict_line(at, phi, v))
            .collect())
    }

    /// The BAN-style annotation summary for everything ingested so far
    /// — byte-identical to a cold analysis of the same assumption set.
    pub fn summary(&self) -> String {
        self.resume.render(&self.proto)
    }

    /// Packages the session for durable storage (inputs, not derived
    /// state — see [`MonitorCheckpoint`]).
    pub fn checkpoint(&self, id: u64) -> MonitorCheckpoint {
        MonitorCheckpoint {
            id,
            name: self.name.clone(),
            formulas: self.formula_texts.clone(),
            lines: self.lines.clone(),
        }
    }

    /// Rebuilds a session from a checkpoint by replaying its recorded
    /// lines through the live path; the result is indistinguishable
    /// from a session that never went down.
    ///
    /// # Errors
    ///
    /// Any [`MonitorError`] the original session would have raised —
    /// a checkpoint only records lines that were accepted, so an error
    /// here means the checkpoint is stale or hand-edited.
    pub fn resume(cp: &MonitorCheckpoint, pool: &Pool) -> Result<Monitor, MonitorError> {
        let mut monitor = Monitor::new(cp.name.clone(), cp.formulas.clone())?;
        for line in &cp.lines {
            monitor.feed_line(line, pool)?;
        }
        Ok(monitor)
    }

    /// The monitor's name (used as the protocol name in [`Self::summary`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protocol view of everything ingested so far: one assumption
    /// per seeded initial key and per event fact, the watched formulas
    /// as goals. A batch re-analysis of this protocol (`analyze_at`)
    /// recreates from scratch the closure the monitor advances
    /// incrementally — the comparison the benchmarks draw.
    pub fn protocol(&self) -> &AtProtocol {
        &self.proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &[&str] = &[
        "run start -1",
        "principal A keys Kab",
        "principal B keys Kab",
        "# past-epoch activity",
        "newkey A Spare",
        "send A -> B : {X}Kab@A",
        "recv B : {X}Kab@A",
    ];

    fn feed_all(monitor: &mut Monitor, pool: &Pool) -> Vec<String> {
        let mut out = Vec::new();
        for line in TRACE {
            out.extend(monitor.feed_line(line, pool).unwrap());
        }
        out
    }

    #[test]
    fn verdicts_track_the_run_and_match_batch_format() {
        let pool = Pool::new(1);
        let mut m = Monitor::new("t", ["B sees X".to_string()]).unwrap();
        let out = feed_all(&mut m, &pool);
        assert_eq!(
            out,
            [
                "at (run 0, time 0): B sees X = false",
                "at (run 0, time 1): B sees X = false",
                "at (run 0, time 2): B sees X = true",
            ]
        );
        assert_eq!(m.last_verdicts(), [true]);
        let stats = m.stats();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.full_saturations, 1);
        assert_eq!(stats.delta_saturations, 2);
        assert!(stats.points_reused > 0);
    }

    #[test]
    fn checkpoint_resume_is_indistinguishable() {
        let pool = Pool::new(1);
        let mut m = Monitor::new("t", ["B sees X".to_string()]).unwrap();
        for line in &TRACE[..5] {
            m.feed_line(line, &pool).unwrap();
        }
        let cp = m.checkpoint(9);
        let mut resumed = Monitor::resume(&cp, &pool).unwrap();
        for line in &TRACE[5..] {
            assert_eq!(
                m.feed_line(line, &pool).unwrap(),
                resumed.feed_line(line, &pool).unwrap()
            );
        }
        assert_eq!(m.last_verdicts(), resumed.last_verdicts());
        assert_eq!(m.summary(), resumed.summary());
    }

    #[test]
    fn bad_lines_are_rejected_and_not_recorded() {
        let pool = Pool::new(1);
        let mut m = Monitor::new("t", ["B sees X".to_string()]).unwrap();
        m.feed_line("run start 0", &pool).unwrap();
        let err = m.feed_line("nonsense here", &pool).unwrap_err();
        assert!(err.is_parse());
        assert!(err.diagnostic("stdin").starts_with("stdin:2:"));
        // The session survives and the bad line is not checkpointed.
        m.feed_line("principal A keys K", &pool).unwrap();
        assert_eq!(m.checkpoint(0).lines.len(), 2);
    }

    #[test]
    fn formula_syntax_errors_surface_at_creation() {
        let err = Monitor::new("t", ["A believes (".to_string()]).unwrap_err();
        assert!(matches!(err, MonitorError::Formula(_)));
        assert!(err.diagnostic("x").starts_with("<formula>:"));
    }

    /// A watched formula the run cannot evaluate (`$X` is bound by no
    /// run) errs on every post-epoch event, yet the memo sets evaluated
    /// so far stay warm for the next event: the monitor reuses exactly
    /// what a monitor without that formula reuses.
    #[test]
    fn failing_formula_keeps_the_cache_warm() {
        let pool = Pool::new(1);
        let watch = |formulas: &[&str]| {
            let mut m = Monitor::new("ds", formulas.iter().map(|f| f.to_string())).unwrap();
            let (mut verdicts, mut errors) = (0, 0);
            for line in include_str!("../../../specs/denning_sacco.run").lines() {
                match m.feed_line(line, &pool) {
                    Ok(out) => verdicts += out.iter().filter(|l| l.starts_with("at ")).count(),
                    Err(e) => {
                        assert!(matches!(e, MonitorError::Eval(_)), "{e}");
                        errors += 1;
                    }
                }
            }
            (m.stats(), verdicts, errors)
        };
        let (healthy, post_epoch, none) = watch(&["A has Kab"]);
        assert_eq!(none, 0);
        assert!(healthy.points_reused > 0, "{healthy:?}");
        let (failing, verdicts, errors) = watch(&["A has Kab", "B sees $X"]);
        assert_eq!((verdicts, errors), (0, post_epoch));
        assert_eq!(failing.points_reused, healthy.points_reused);
    }

    #[test]
    fn summary_advances_with_the_closure() {
        let pool = Pool::new(1);
        let mut m = Monitor::new("t", ["B sees X".to_string()]).unwrap();
        feed_all(&mut m, &pool);
        let summary = m.summary();
        assert!(summary.contains("[ok] B sees X"), "{summary}");
    }
}
