//! Systems: sets of runs, with an interpretation of primitive propositions
//! (Sections 5–6).
//!
//! A *system* `R` is a set of runs, typically the executions of a protocol.
//! The semantics of Section 6 is given relative to a system and an
//! interpretation `π` mapping each primitive proposition to the set of
//! points at which it is true.

use crate::run::Run;
use atl_lang::{Principal, Prop};
use std::collections::{BTreeMap, BTreeSet};

/// A point `(r, k)`: a run (by index into its [`System`]) and a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Index of the run in its system.
    pub run: usize,
    /// The time `k`.
    pub time: i64,
}

impl Point {
    /// Creates a point.
    pub fn new(run: usize, time: i64) -> Self {
        Point { run, time }
    }
}

/// The interpretation `π` of primitive propositions.
///
/// Two mechanisms are provided, and may be combined:
///
/// - **explicit points**: a proposition is declared true at specific
///   points;
/// - **data propositions**: when enabled, a proposition named
///   `P.key=value` is true at `(r, k)` iff principal `P`'s local data in
///   `r(k)` maps `key` to `value`. The coin-toss construction of Section 7
///   uses propositions like `P2.coin=H`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interpretation {
    explicit: BTreeMap<Prop, BTreeSet<Point>>,
    data_props: bool,
}

impl Interpretation {
    /// An interpretation under which every primitive proposition is false.
    pub fn empty() -> Self {
        Interpretation::default()
    }

    /// Enables `P.key=value` data propositions.
    pub fn with_data_props(mut self) -> Self {
        self.data_props = true;
        self
    }

    /// Declares `prop` true at `point`.
    pub fn set_true_at(&mut self, prop: Prop, point: Point) -> &mut Self {
        self.explicit.entry(prop).or_default().insert(point);
        self
    }

    /// Declares `prop` true at every point of run `run_idx`.
    pub fn set_true_in_run(&mut self, prop: Prop, run_idx: usize, run: &Run) -> &mut Self {
        for k in run.times() {
            self.set_true_at(prop.clone(), Point::new(run_idx, k));
        }
        self
    }

    /// Evaluates `prop` at a point of `run`.
    pub fn holds(&self, prop: &Prop, run: &Run, point: Point) -> bool {
        if self
            .explicit
            .get(prop)
            .is_some_and(|points| points.contains(&point))
        {
            return true;
        }
        if self.data_props {
            if let Some((principal, key, value)) = parse_data_prop(prop) {
                if let Some(state) = run.state(point.time) {
                    return state.local(&principal).data().get(key) == Some(&value.to_string());
                }
            }
        }
        false
    }
}

/// Parses a data proposition of the form `P.key=value`.
fn parse_data_prop(prop: &Prop) -> Option<(Principal, &str, &str)> {
    let s = prop.as_str();
    let (principal, rest) = s.split_once('.')?;
    let (key, value) = rest.split_once('=')?;
    Some((Principal::new(principal), key, value))
}

/// A system: a finite set of runs with an interpretation of primitive
/// propositions.
#[derive(Clone, Debug, Default)]
pub struct System {
    runs: Vec<Run>,
    interp: Interpretation,
}

impl System {
    /// Creates a system from runs, with the all-false interpretation.
    pub fn new(runs: impl IntoIterator<Item = Run>) -> Self {
        System {
            runs: runs.into_iter().collect(),
            interp: Interpretation::empty(),
        }
    }

    /// Replaces the interpretation.
    pub fn with_interpretation(mut self, interp: Interpretation) -> Self {
        self.interp = interp;
        self
    }

    /// Adds a run, returning its index.
    pub fn push_run(&mut self, run: Run) -> usize {
        self.runs.push(run);
        self.runs.len() - 1
    }

    /// The runs of the system.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The run at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn run(&self, idx: usize) -> &Run {
        &self.runs[idx]
    }

    /// Extends the run at `idx` in place by one event (see
    /// [`Run::extend_unchecked`]) — the streaming monitor grows a live
    /// run prefix this way instead of rebuilding the system per event.
    /// Explicit interpretation entries are point-addressed and appending
    /// only adds points, so `π` stays valid as-is.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn extend_run(&mut self, idx: usize, event: crate::action::Event) {
        self.runs[idx].extend_unchecked(event);
    }

    /// The interpretation `π`.
    pub fn interpretation(&self) -> &Interpretation {
        &self.interp
    }

    /// Mutable access to the interpretation.
    pub fn interpretation_mut(&mut self) -> &mut Interpretation {
        &mut self.interp
    }

    /// The number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if the system has no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every point `(r, k)` of the system, run-major.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.times().map(move |k| Point::new(i, k)))
    }

    /// Every point at time 0 (the initial state of each run's epoch).
    pub fn initial_points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.runs.len()).map(|i| Point::new(i, 0))
    }

    /// The union of all system principals across runs.
    pub fn principals(&self) -> BTreeSet<Principal> {
        self.runs
            .iter()
            .flat_map(|r| r.principals().cloned())
            .collect()
    }
}

impl FromIterator<Run> for System {
    fn from_iter<I: IntoIterator<Item = Run>>(iter: I) -> Self {
        System::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use atl_lang::Key;

    fn trivial_run() -> Run {
        let mut b = RunBuilder::new(-1);
        b.principal("A", [Key::new("K")]);
        b.new_key("A", "K2");
        b.new_key("A", "K3");
        b.build().unwrap()
    }

    #[test]
    fn points_cover_all_runs_and_times() {
        let sys = System::new([trivial_run(), trivial_run()]);
        let pts: Vec<_> = sys.points().collect();
        // Each run covers times -1..=1: 3 points per run.
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&Point::new(1, 0)));
        assert_eq!(sys.initial_points().count(), 2);
    }

    #[test]
    fn explicit_interpretation() {
        let run = trivial_run();
        let mut interp = Interpretation::empty();
        interp.set_true_at(Prop::new("p"), Point::new(0, 0));
        let sys = System::new([run]).with_interpretation(interp);
        assert!(sys
            .interpretation()
            .holds(&Prop::new("p"), sys.run(0), Point::new(0, 0)));
        assert!(!sys
            .interpretation()
            .holds(&Prop::new("p"), sys.run(0), Point::new(0, 1)));
    }

    #[test]
    fn data_props_read_local_data() {
        let mut b = RunBuilder::new(0);
        b.principal("P2", []);
        b.datum("P2", "coin", "H");
        b.new_key("P2", "K");
        let run = b.build().unwrap();
        let interp = Interpretation::empty().with_data_props();
        assert!(interp.holds(&Prop::new("P2.coin=H"), &run, Point::new(0, 0)));
        assert!(!interp.holds(&Prop::new("P2.coin=T"), &run, Point::new(0, 0)));
        assert!(!interp.holds(&Prop::new("P3.coin=H"), &run, Point::new(0, 0)));
    }

    #[test]
    fn principals_union() {
        let sys = System::new([trivial_run()]);
        assert!(sys.principals().contains(&Principal::new("A")));
    }
}
