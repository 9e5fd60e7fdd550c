//! The protocol suite, aggregated (E8).
//!
//! Runs every protocol analysis in both logics and collects the per-goal
//! outcomes into a table — the executable counterpart of BAN89's
//! protocol-comparison discussion, reproducing each published finding.

use crate::{
    andrew, kerberos, needham_schroeder, nessett, otway_rees, wide_mouthed_frog, x509, yahalom,
};
use atl_ban::analyze;
use atl_core::annotate::analyze_at;
use atl_core::parallel::Pool;
use std::fmt;

/// Which logic an entry was analyzed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Logic {
    /// The original BAN logic (Section 2).
    Ban,
    /// The reformulated Abadi–Tuttle logic (Section 4).
    Reformulated,
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Logic::Ban => write!(f, "BAN"),
            Logic::Reformulated => write!(f, "AT"),
        }
    }
}

/// One analyzed protocol with its goal outcomes.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// Protocol name.
    pub name: String,
    /// The logic used.
    pub logic: Logic,
    /// `(goal, achieved)` pairs, in goal order.
    pub goals: Vec<(String, bool)>,
    /// Whether the analysis is *expected* to succeed (false for the
    /// deliberately flawed variants).
    pub expected_success: bool,
}

impl SuiteEntry {
    /// True if every goal was achieved.
    pub fn succeeded(&self) -> bool {
        self.goals.iter().all(|(_, ok)| *ok)
    }

    /// True if the outcome matches the published finding.
    pub fn matches_expectation(&self) -> bool {
        self.succeeded() == self.expected_success
    }
}

fn ban_entry(proto: &atl_ban::IdealProtocol, expected_success: bool) -> SuiteEntry {
    let analysis = analyze(proto);
    SuiteEntry {
        name: proto.name.clone(),
        logic: Logic::Ban,
        goals: analysis
            .goals
            .iter()
            .map(|(g, ok)| (g.to_string(), *ok))
            .collect(),
        expected_success,
    }
}

fn at_entry(proto: &atl_core::annotate::AtProtocol, expected_success: bool) -> SuiteEntry {
    let analysis = analyze_at(proto);
    SuiteEntry {
        name: proto.name.clone(),
        logic: Logic::Reformulated,
        goals: analysis
            .goals
            .iter()
            .map(|(g, ok)| (g.to_string(), *ok))
            .collect(),
        expected_success,
    }
}

/// The suite as independent analysis jobs, in publication order.
fn suite_jobs() -> Vec<Box<dyn FnOnce() -> SuiteEntry + Send>> {
    vec![
        Box::new(|| ban_entry(&kerberos::figure1_ban(), true)),
        Box::new(|| at_entry(&kerberos::figure1_at(), true)),
        Box::new(|| ban_entry(&kerberos::full_ban(), true)),
        Box::new(|| at_entry(&kerberos::full_at(), true)),
        Box::new(|| ban_entry(&needham_schroeder::ban_protocol(true), true)),
        Box::new(|| ban_entry(&needham_schroeder::ban_protocol(false), false)),
        Box::new(|| at_entry(&needham_schroeder::at_protocol(true), true)),
        Box::new(|| at_entry(&needham_schroeder::at_protocol(false), false)),
        Box::new(|| at_entry(&yahalom::at_protocol(true), true)),
        Box::new(|| at_entry(&yahalom::at_protocol(false), false)),
        Box::new(|| ban_entry(&otway_rees::ban_protocol(), true)),
        Box::new(|| ban_entry(&otway_rees::ban_protocol_with_second_level_goals(), false)),
        Box::new(|| at_entry(&otway_rees::at_protocol(), true)),
        Box::new(|| ban_entry(&wide_mouthed_frog::ban_protocol(), true)),
        Box::new(|| at_entry(&wide_mouthed_frog::at_protocol(), true)),
        Box::new(|| ban_entry(&andrew::ban_protocol(false), false)),
        Box::new(|| ban_entry(&andrew::ban_protocol(true), true)),
        Box::new(|| at_entry(&andrew::at_protocol(false), false)),
        Box::new(|| at_entry(&andrew::at_protocol(true), true)),
        Box::new(|| ban_entry(&x509::ban_protocol(true), true)),
        Box::new(|| ban_entry(&x509::ban_protocol(false), false)),
        Box::new(|| at_entry(&x509::at_protocol(true), true)),
        Box::new(|| at_entry(&x509::at_protocol(false), false)),
        Box::new(|| at_entry(&x509::at_protocol_signed(true), true)),
        Box::new(|| at_entry(&x509::at_protocol_signed(false), false)),
        Box::new(|| ban_entry(&nessett::ban_protocol(), true)),
        Box::new(|| at_entry(&nessett::at_protocol(), true)),
        Box::new(|| at_entry(&crate::forwarding::at_protocol(), true)),
        Box::new(|| at_entry(&crate::reflection::at_protocol(), true)),
        Box::new(|| at_entry(&crate::reflection::reflected_at_protocol(), false)),
    ]
}

/// Analyzes the whole suite.
pub fn run_suite() -> Vec<SuiteEntry> {
    run_suite_on(&Pool::sequential())
}

/// Analyzes the whole suite with entries sharded over `pool`. Every
/// entry is an independent analysis (no shared mutable state), and the
/// outcomes come back in publication order whatever the scheduling, so
/// the result is identical to [`run_suite`].
pub fn run_suite_on(pool: &Pool) -> Vec<SuiteEntry> {
    pool.run(suite_jobs())
}

/// Renders the suite outcome as an aligned text table.
pub fn summary_table(entries: &[SuiteEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>5} {:>7} {:>8} {:>8}\n",
        "protocol", "logic", "goals", "achieved", "expected"
    ));
    for e in entries {
        let achieved = e.goals.iter().filter(|(_, ok)| *ok).count();
        out.push_str(&format!(
            "{:<44} {:>5} {:>7} {:>8} {:>8}\n",
            e.name,
            e.logic.to_string(),
            e.goals.len(),
            achieved,
            if e.expected_success { "all" } else { "partial" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_every_entry_matches_its_published_finding() {
        for entry in run_suite() {
            assert!(
                entry.matches_expectation(),
                "{} [{}]: expected success={}, goals: {:?}",
                entry.name,
                entry.logic,
                entry.expected_success,
                entry.goals
            );
        }
    }

    #[test]
    fn suite_covers_both_logics() {
        let entries = run_suite();
        assert!(entries.iter().any(|e| e.logic == Logic::Ban));
        assert!(entries.iter().any(|e| e.logic == Logic::Reformulated));
        assert!(entries.len() >= 20);
    }

    #[test]
    fn table_renders_every_entry() {
        let entries = run_suite();
        let table = summary_table(&entries);
        for e in &entries {
            assert!(table.contains(&e.name), "missing {}", e.name);
        }
    }

    /// Every AT idealization of the suite is enacted and executed
    /// fault-free, and the run breaks none of restrictions 1–5. The one
    /// exemption is the reflected protocol, which stalls by design: its
    /// second step belongs to the environment.
    #[test]
    fn every_at_idealization_runs_within_the_restrictions() {
        use atl_core::enact::enact;
        use atl_model::{execute_with_faults, validate_run, ExecOptions, FaultPlan};
        let protocols = [
            kerberos::figure1_at(),
            kerberos::full_at(),
            needham_schroeder::at_protocol(true),
            needham_schroeder::at_protocol(false),
            yahalom::at_protocol(true),
            yahalom::at_protocol(false),
            otway_rees::at_protocol(),
            wide_mouthed_frog::at_protocol(),
            andrew::at_protocol(false),
            andrew::at_protocol(true),
            x509::at_protocol(true),
            x509::at_protocol(false),
            x509::at_protocol_signed(true),
            x509::at_protocol_signed(false),
            nessett::at_protocol(),
            crate::forwarding::at_protocol(),
            crate::reflection::at_protocol(),
            crate::reflection::reflected_at_protocol(),
        ];
        let suite: Vec<String> = run_suite()
            .into_iter()
            .filter(|e| e.logic == Logic::Reformulated)
            .map(|e| e.name)
            .collect();
        let names: Vec<&String> = protocols.iter().map(|at| &at.name).collect();
        assert_eq!(names, suite.iter().collect::<Vec<_>>(), "one per AT entry");
        let stalls = crate::reflection::reflected_at_protocol().name;
        for at in &protocols {
            let plan = FaultPlan::new(0);
            match execute_with_faults(&enact(at), &ExecOptions::default(), &plan) {
                Ok((run, _)) => {
                    assert_ne!(at.name, stalls, "the reflected protocol ran");
                    let violations = validate_run(&run);
                    assert!(violations.is_empty(), "{}: {violations:?}", at.name);
                }
                Err(e) => assert_eq!(at.name, stalls, "{}: {e}", at.name),
            }
        }
    }

    #[test]
    fn flawed_variants_fail_partially_not_totally() {
        // Each deliberately flawed variant still achieves some goals —
        // the analyses are discriminating, not broken.
        for entry in run_suite() {
            if !entry.expected_success {
                let achieved = entry.goals.iter().filter(|(_, ok)| *ok).count();
                assert!(
                    achieved < entry.goals.len(),
                    "{} unexpectedly achieved everything",
                    entry.name
                );
            }
        }
    }
}
