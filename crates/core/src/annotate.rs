//! The annotation procedure for the reformulated logic (Section 4.3).
//!
//! Analysis proceeds as with the original logic — initial assumptions,
//! then an assertion after each step, closed under the derived rules —
//! with two novelties:
//!
//! 1. formulas annotating protocols must be **stable** (the language now
//!    has negation); the analyzer reports any assumption that fails the
//!    linguistic check of Section 4.3;
//! 2. idealized protocols may contain steps `P : newkey(K)`, after which
//!    `P has K` is asserted.

use crate::prover::{Prover, ProverConfig};
use crate::stability::is_linguistically_stable;
use atl_lang::{Formula, Key, Message, Principal};
use std::collections::BTreeSet;
use std::fmt;

/// One step of an idealized protocol in the reformulated logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtStep {
    /// `from → to : message`.
    Send {
        /// The sender.
        from: Principal,
        /// The receiver (who is asserted to see the message).
        to: Principal,
        /// The idealized message.
        message: Message,
    },
    /// `P : newkey(K)` — `P` adds `K` to its key set.
    NewKey {
        /// The acquiring principal.
        principal: Principal,
        /// The key acquired.
        key: Key,
    },
}

impl fmt::Display for AtStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtStep::Send { from, to, message } => write!(f, "{from} -> {to} : {message}"),
            AtStep::NewKey { principal, key } => write!(f, "{principal} : newkey({key})"),
        }
    }
}

/// An idealized protocol for the reformulated logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtProtocol {
    /// The protocol's name.
    pub name: String,
    /// Initial assumptions (should be stable; the analysis reports
    /// violations).
    pub assumptions: Vec<Formula>,
    /// The steps, in order.
    pub steps: Vec<AtStep>,
    /// Expected correctness conditions at the final step.
    pub goals: Vec<Formula>,
}

impl AtProtocol {
    /// Creates an empty protocol.
    pub fn new(name: impl Into<String>) -> Self {
        AtProtocol {
            name: name.into(),
            assumptions: Vec::new(),
            steps: Vec::new(),
            goals: Vec::new(),
        }
    }

    /// Adds an initial assumption.
    pub fn assume(mut self, f: Formula) -> Self {
        self.assumptions.push(f);
        self
    }

    /// Adds a send step.
    pub fn step(
        mut self,
        from: impl Into<Principal>,
        to: impl Into<Principal>,
        message: Message,
    ) -> Self {
        self.steps.push(AtStep::Send {
            from: from.into(),
            to: to.into(),
            message,
        });
        self
    }

    /// Adds a `newkey` step.
    pub fn new_key(mut self, principal: impl Into<Principal>, key: impl Into<Key>) -> Self {
        self.steps.push(AtStep::NewKey {
            principal: principal.into(),
            key: key.into(),
        });
        self
    }

    /// Adds a goal.
    pub fn goal(mut self, f: Formula) -> Self {
        self.goals.push(f);
        self
    }
}

/// The result of annotating an [`AtProtocol`].
#[derive(Clone, Debug)]
pub struct AtAnalysis {
    /// `annotations[0]` is the closure of the assumptions;
    /// `annotations[i + 1]` the closure after step `i`.
    pub annotations: Vec<BTreeSet<Formula>>,
    /// The prover in its final state (with the full trace).
    pub prover: Prover,
    /// `(goal, achieved)` for each goal.
    pub goals: Vec<(Formula, bool)>,
    /// Assumptions that fail the linguistic stability check of
    /// Section 4.3 (the annotation procedure's soundness is not guaranteed
    /// for these).
    pub unstable_assumptions: Vec<Formula>,
}

impl AtAnalysis {
    /// True if every goal was derived.
    pub fn succeeded(&self) -> bool {
        self.goals.iter().all(|(_, ok)| *ok)
    }

    /// The goals that failed.
    pub fn failed_goals(&self) -> impl Iterator<Item = &Formula> {
        self.goals.iter().filter(|(_, ok)| !*ok).map(|(g, _)| g)
    }
}

/// Renders an analysis as the canonical report text: the summary line,
/// one warning per linguistically unstable assumption, then one
/// `[ok]`/`[--]` line per goal. Both `atl analyze` and the serve-mode
/// daemon print exactly this string, so their outputs are byte-identical
/// by construction.
pub fn render_analysis(protocol: &AtProtocol, analysis: &AtAnalysis) -> String {
    render_report(
        protocol,
        analysis.prover.facts().len(),
        &analysis.unstable_assumptions,
        &analysis.goals,
    )
}

/// The one report renderer behind both [`render_analysis`] and
/// [`AnalysisResume::render`]: byte-identity between a cold analysis and
/// a resumed one is then a statement about the inputs, not the printing.
fn render_report(
    protocol: &AtProtocol,
    facts_derived: usize,
    unstable_assumptions: &[Formula],
    goals: &[(Formula, bool)],
) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "protocol {}: {} assumptions, {} steps, {} facts derived\n",
        protocol.name,
        protocol.assumptions.len(),
        protocol.steps.len(),
        facts_derived
    );
    for f in unstable_assumptions {
        let _ = writeln!(out, "  warning: assumption not linguistically stable: {f}");
    }
    for (goal, achieved) in goals {
        let _ = writeln!(out, "  [{}] {}", if *achieved { "ok" } else { "--" }, goal);
    }
    out
}

/// Runs the Section 4.3 annotation procedure with default prover options.
pub fn analyze_at(protocol: &AtProtocol) -> AtAnalysis {
    analyze_at_with(protocol, ProverConfig::default())
}

/// Runs the annotation procedure with explicit prover options.
pub fn analyze_at_with(protocol: &AtProtocol, config: ProverConfig) -> AtAnalysis {
    let unstable_assumptions = protocol
        .assumptions
        .iter()
        .filter(|f| !is_linguistically_stable(f))
        .cloned()
        .collect();
    let mut prover = Prover::with_config(protocol.assumptions.iter().cloned(), config);
    prover.saturate();
    let mut annotations = vec![prover.facts().clone()];
    for step in &protocol.steps {
        match step {
            AtStep::Send { to, message, .. } => {
                prover.assume(Formula::sees(to.clone(), message.clone()));
            }
            AtStep::NewKey { principal, key } => {
                prover.assume(Formula::has(principal.clone(), key.clone()));
            }
        }
        prover.saturate();
        annotations.push(prover.facts().clone());
    }
    let goals = protocol
        .goals
        .iter()
        .map(|g| (g.clone(), prover.holds(g)))
        .collect();
    AtAnalysis {
        annotations,
        prover,
        goals,
        unstable_assumptions,
    }
}

/// An annotation run packaged for repeated in-place resumption (the
/// serve daemon's `RELOAD`, the streaming monitor): the saturated prover
/// at every annotation level — `levels[i]`'s fact set is annotation
/// level `i`, the last entry is the final closure — **with trigger
/// indexes intact**, plus the computed goal verdicts and stability
/// warnings.
///
/// Advancing a resume mutates its provers in place: an edit that adds
/// assumptions costs one delta saturation per level, proportional to the
/// *new* consequences only. An owner that threads the same resume
/// through a chain of edits never clones a prover at all.
#[derive(Clone, Debug)]
pub struct AnalysisResume {
    levels: Vec<Prover>,
    unstable_assumptions: Vec<Formula>,
    goals: Vec<(Formula, bool)>,
}

/// Runs the Section 4.3 annotation procedure like [`analyze_at`], but
/// returns the run packaged for in-place resumption. The extra cost over
/// a plain analysis is one prover clone per protocol step.
pub fn analyze_at_resumable(protocol: &AtProtocol) -> AnalysisResume {
    let mut prover = Prover::with_config(
        protocol.assumptions.iter().cloned(),
        ProverConfig::default(),
    );
    prover.saturate();
    let mut levels = Vec::with_capacity(protocol.steps.len() + 1);
    for step in &protocol.steps {
        levels.push(prover.clone());
        match step {
            AtStep::Send { to, message, .. } => {
                prover.assume(Formula::sees(to.clone(), message.clone()));
            }
            AtStep::NewKey { principal, key } => {
                prover.assume(Formula::has(principal.clone(), key.clone()));
            }
        }
        prover.saturate();
    }
    levels.push(prover);
    let mut resume = AnalysisResume {
        levels,
        unstable_assumptions: Vec::new(),
        goals: Vec::new(),
    };
    resume.reverdict(protocol);
    resume
}

impl AnalysisResume {
    /// Re-verifies for an edited protocol by extending every level with
    /// `added` **in place** — one delta saturation each, no re-indexing,
    /// no clone. The caller guarantees that `new.steps` equals the
    /// analyzed steps and that `new.assumptions` is the old multiset plus
    /// `added`, in any order (goals may differ freely — they never feed
    /// the closure — and `added` may be empty for a goal-only edit).
    /// Afterwards this resume is exactly what [`analyze_at_resumable`] of
    /// `new` would have built — same levels, verdicts, warnings, and
    /// report bytes — by the closure argument `cl(S ∪ A) = cl(cl(S) ∪ A)`.
    pub fn advance(&mut self, new: &AtProtocol, added: &[Formula]) {
        for p in &mut self.levels {
            p.saturate_delta(added.iter().cloned());
        }
        self.reverdict(new);
    }

    fn reverdict(&mut self, protocol: &AtProtocol) {
        self.unstable_assumptions = protocol
            .assumptions
            .iter()
            .filter(|f| !is_linguistically_stable(f))
            .cloned()
            .collect();
        let last = self.final_prover();
        self.goals = protocol
            .goals
            .iter()
            .map(|g| (g.clone(), last.holds(g)))
            .collect();
    }

    fn final_prover(&self) -> &Prover {
        self.levels.last().expect("at least the initial level")
    }

    /// The canonical report for the current state — byte-identical to
    /// [`render_analysis`] over a cold analysis of the same protocol.
    pub fn render(&self, protocol: &AtProtocol) -> String {
        render_report(
            protocol,
            self.final_prover().facts().len(),
            &self.unstable_assumptions,
            &self.goals,
        )
    }

    /// Extracts the full [`AtAnalysis`] view (cloning every level) —
    /// for callers that need the annotation sets themselves rather than
    /// the report.
    pub fn to_analysis(&self) -> AtAnalysis {
        AtAnalysis {
            annotations: self.levels.iter().map(|p| p.facts().clone()).collect(),
            prover: self.final_prover().clone(),
            goals: self.goals.clone(),
            unstable_assumptions: self.unstable_assumptions.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    fn kab() -> Formula {
        Formula::shared_key("A", Key::new("Kab"), "B")
    }

    fn figure1_at() -> AtProtocol {
        let ts = Message::nonce(Nonce::new("Ts"));
        let inner = Message::encrypted(
            Message::tuple([ts.clone(), kab().into_message()]),
            Key::new("Kbs"),
            "S",
        );
        let outer = Message::encrypted(
            Message::tuple([ts.clone(), kab().into_message(), inner.clone()]),
            Key::new("Kas"),
            "S",
        );
        AtProtocol::new("kerberos-figure1-at")
            .assume(Formula::believes(
                "A",
                Formula::shared_key("A", Key::new("Kas"), "S"),
            ))
            .assume(Formula::believes(
                "B",
                Formula::shared_key("B", Key::new("Kbs"), "S"),
            ))
            .assume(Formula::believes("A", Formula::controls("S", kab())))
            .assume(Formula::believes("B", Formula::controls("S", kab())))
            .assume(Formula::believes("A", Formula::fresh(ts.clone())))
            .assume(Formula::believes("B", Formula::fresh(ts)))
            .assume(Formula::has("A", Key::new("Kas")))
            .assume(Formula::has("B", Key::new("Kbs")))
            .step("S", "A", outer)
            .step("A", "B", inner)
            .goal(Formula::believes("A", kab()))
            .goal(Formula::believes("B", kab()))
    }

    #[test]
    fn figure1_succeeds_in_reformulated_logic() {
        let analysis = analyze_at(&figure1_at());
        assert!(
            analysis.succeeded(),
            "failed: {:?}",
            analysis.failed_goals().collect::<Vec<_>>()
        );
        assert!(analysis.unstable_assumptions.is_empty());
    }

    #[test]
    fn annotations_grow_monotonically() {
        let analysis = analyze_at(&figure1_at());
        assert_eq!(analysis.annotations.len(), 3);
        for w in analysis.annotations.windows(2) {
            assert!(w[0].is_subset(&w[1]));
        }
    }

    #[test]
    fn possession_is_load_bearing() {
        // Remove `B has Kbs`: B cannot decrypt, so the goal fails — the
        // has/believes decoupling of Section 3.1 made explicit.
        let mut proto = figure1_at();
        proto
            .assumptions
            .retain(|a| a != &Formula::has("B", Key::new("Kbs")));
        let analysis = analyze_at(&proto);
        assert!(!analysis.succeeded());
        assert!(analysis
            .failed_goals()
            .any(|g| g == &Formula::believes("B", kab())));
    }

    #[test]
    fn newkey_steps_assert_possession() {
        let proto = AtProtocol::new("newkey")
            .new_key("A", "K")
            .goal(Formula::has("A", Key::new("K")));
        let analysis = analyze_at(&proto);
        assert!(analysis.succeeded());
    }

    #[test]
    fn unstable_assumptions_reported() {
        let proto = AtProtocol::new("unstable").assume(Formula::not(Formula::sees(
            "A",
            Message::nonce(Nonce::new("X")),
        )));
        let analysis = analyze_at(&proto);
        assert_eq!(analysis.unstable_assumptions.len(), 1);
    }

    /// The resume is indistinguishable from a cold analysis of `proto`:
    /// annotation levels, verdicts, warnings, prover closure, and report
    /// bytes.
    fn assert_matches_cold(resume: &AnalysisResume, proto: &AtProtocol) {
        let cold = analyze_at(proto);
        let resumed = resume.to_analysis();
        assert_eq!(resumed.annotations, cold.annotations);
        assert_eq!(resumed.goals, cold.goals);
        assert_eq!(resumed.unstable_assumptions, cold.unstable_assumptions);
        assert_eq!(resumed.prover.facts(), cold.prover.facts());
        assert_eq!(resume.render(proto), render_analysis(proto, &cold));
    }

    #[test]
    fn resumable_analysis_advances_in_place_and_matches_cold_analysis() {
        // Hold back each assumption in turn; advancing the reduced
        // analysis by the held-out assumption must reproduce the cold
        // analysis of the full protocol.
        let full = figure1_at();
        for held_out in 0..full.assumptions.len() {
            let mut reduced = full.clone();
            let added = reduced.assumptions.remove(held_out);
            let mut resume = analyze_at_resumable(&reduced);
            assert_matches_cold(&resume, &reduced);
            resume.advance(&full, std::slice::from_ref(&added));
            assert_matches_cold(&resume, &full);
        }
        // Hold back two assumptions, then feed them back one edit at a
        // time through the same in-place resume.
        let mut proto = full.clone();
        let second = proto.assumptions.remove(5);
        let first = proto.assumptions.remove(1);
        let mut resume = analyze_at_resumable(&proto);
        for added in [first, second] {
            proto = proto.clone().assume(added.clone());
            resume.advance(&proto, std::slice::from_ref(&added));
            assert_matches_cold(&resume, &proto);
        }
        // A goal-only edit advances with an empty delta: the closure is
        // untouched and only the verdict lines move.
        proto = proto.goal(Formula::has("A", Key::new("Kmissing")));
        resume.advance(&proto, &[]);
        assert_matches_cold(&resume, &proto);
        // An added unstable assumption brings its stability warning.
        let unstable = Formula::not(Formula::sees("A", Message::nonce(Nonce::new("X"))));
        let base = AtProtocol::new("t").assume(Formula::has("A", Key::new("K")));
        let mut resume = analyze_at_resumable(&base);
        let edited = base.clone().assume(unstable.clone());
        resume.advance(&edited, std::slice::from_ref(&unstable));
        assert_eq!(resume.to_analysis().unstable_assumptions, vec![unstable]);
        assert_matches_cold(&resume, &edited);
    }

    #[test]
    fn step_display() {
        let s = AtStep::Send {
            from: Principal::new("A"),
            to: Principal::new("B"),
            message: Message::nonce(Nonce::new("X")),
        };
        assert_eq!(s.to_string(), "A -> B : X");
        let k = AtStep::NewKey {
            principal: Principal::new("A"),
            key: Key::new("K"),
        };
        assert_eq!(k.to_string(), "A : newkey(K)");
    }
}
