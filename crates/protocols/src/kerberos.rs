//! The Kerberos fragment of Figure 1, and the full four-message BAN89
//! Kerberos with mutual authentication.
//!
//! Figure 1: `A` asks the server `S` for a key; `S` answers with
//! `{Ts, Kab, {Ts, Kab, A}Kbs}Kas`; `A` forwards the inner part to `B`.
//! Idealized (the first step is omitted — it contributes nothing to
//! anyone's beliefs):
//!
//! ```text
//! S → A : {Ts, A ↔Kab↔ B, {Ts, A ↔Kab↔ B}Kbs}Kas
//! A → B : {Ts, A ↔Kab↔ B}Kbs
//! ```
//!
//! The full protocol adds the handshake `B → A : {Ts, A ↔Kab↔ B}Kab`,
//! giving each party second-level beliefs.

use atl_ban::{BanStmt, IdealProtocol};
use atl_core::annotate::AtProtocol;
use atl_core::spec::parse_spec;
use atl_lang::{Formula, Key, Message, Nonce};
use atl_model::{ExecOptions, Protocol, Role};

/// The shared-key belief `A ↔Kab↔ B` as a typed formula.
pub fn kab() -> Formula {
    Formula::shared_key("A", Key::new("Kab"), "B")
}

fn ts() -> Message {
    Message::nonce(Nonce::new("Ts"))
}

/// The inner certificate `{Ts, A ↔Kab↔ B}Kbs` of Figure 1 (typed form).
pub fn inner_certificate() -> Message {
    Message::encrypted(
        Message::tuple([ts(), kab().into_message()]),
        Key::new("Kbs"),
        "S",
    )
}

/// The outer message `{Ts, A ↔Kab↔ B, {…}Kbs}Kas` of Figure 1 (typed
/// form).
pub fn outer_message() -> Message {
    Message::encrypted(
        Message::tuple([ts(), kab().into_message(), inner_certificate()]),
        Key::new("Kas"),
        "S",
    )
}

/// Figure 1 in the original BAN logic.
pub fn figure1_ban() -> IdealProtocol {
    let kab = || BanStmt::shared_key("A", "Kab", "B");
    let ts = || BanStmt::nonce("Ts");
    let inner = || BanStmt::encrypted(BanStmt::conj([ts(), kab()]), "Kbs", "S");
    let outer = BanStmt::encrypted(BanStmt::conj([ts(), kab(), inner()]), "Kas", "S");
    IdealProtocol::new("kerberos-figure1 (BAN)")
        .assume(BanStmt::believes("A", BanStmt::shared_key("A", "Kas", "S")))
        .assume(BanStmt::believes("B", BanStmt::shared_key("B", "Kbs", "S")))
        .assume(BanStmt::believes("A", BanStmt::controls("S", kab())))
        .assume(BanStmt::believes("B", BanStmt::controls("S", kab())))
        .assume(BanStmt::believes("A", BanStmt::fresh(ts())))
        .assume(BanStmt::believes("B", BanStmt::fresh(ts())))
        .step("S", "A", outer)
        .step("A", "B", inner())
        .goal(BanStmt::believes("A", kab()))
        .goal(BanStmt::believes("B", kab()))
        .goal(BanStmt::believes("A", BanStmt::believes("S", kab())))
        .goal(BanStmt::believes("B", BanStmt::believes("S", kab())))
}

/// Figure 1 in the reformulated logic, as `specs/kerberos_figure1.atl`
/// writes it. Note the explicit possession assumptions `A has Kas` and
/// `B has Kbs` — the Section 3.1 decoupling.
pub fn figure1_at() -> AtProtocol {
    let (mut proto, _) = parse_spec(include_str!("../../../specs/kerberos_figure1.atl"))
        .expect("specs/kerberos_figure1.atl parses");
    proto.name.push_str(" (AT)");
    proto
}

/// The full BAN89 Kerberos, which appends the handshake
/// `B → A : {Ts, A ↔Kab↔ B}Kab` so that `A` learns `B` has the key.
pub fn full_ban() -> IdealProtocol {
    let kab = || BanStmt::shared_key("A", "Kab", "B");
    let ts = || BanStmt::nonce("Ts");
    let handshake = BanStmt::encrypted(BanStmt::conj([ts(), kab()]), "Kab", "B");
    let mut proto = figure1_ban();
    proto.name = "kerberos-full (BAN)".to_string();
    proto
        .step("B", "A", handshake)
        .goal(BanStmt::believes("A", BanStmt::believes("B", kab())))
}

/// The full Kerberos in the reformulated logic.
pub fn full_at() -> AtProtocol {
    let handshake = Message::encrypted(
        Message::tuple([ts(), kab().into_message()]),
        Key::new("Kab"),
        "B",
    );
    // A and B must acquire Kab before using it — expressible only in the
    // reformulated logic.
    let mut proto = figure1_at();
    proto.name = "kerberos-full (AT)".to_string();
    proto
        .new_key("A", "Kab")
        .new_key("B", "Kab")
        .step("B", "A", handshake)
        .goal(Formula::believes(
            "A",
            Formula::says("B", kab().into_message()),
        ))
}

/// The concrete (executable) Figure 1 protocol for the model of
/// computation.
pub fn figure1_concrete() -> Protocol {
    let request = Message::tuple([Message::principal("A"), Message::principal("B")]);
    Protocol::new("kerberos-figure1")
        .role(
            Role::new("A", [Key::new("Kas")])
                .send(request.clone(), "S")
                .expect(outer_message())
                .send(inner_certificate(), "B"),
        )
        .role(
            Role::new("S", [Key::new("Kas"), Key::new("Kbs"), Key::new("Kab")])
                .expect(request)
                .send(outer_message(), "A"),
        )
        .role(Role::new("B", [Key::new("Kbs")]).expect(inner_certificate()))
}

/// Default execution options for the concrete protocol.
pub fn exec_options() -> ExecOptions {
    ExecOptions::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_ban::analyze;
    use atl_core::annotate::analyze_at;
    use atl_core::semantics::{GoodRuns, Semantics};
    use atl_model::{execute, validate_run, Point, System};

    #[test]
    fn e1_ban_derivation_succeeds() {
        let analysis = analyze(&figure1_ban());
        assert!(
            analysis.succeeded(),
            "failed goals: {:?}",
            analysis.failed_goals().collect::<Vec<_>>()
        );
    }

    #[test]
    fn e1_at_derivation_succeeds() {
        let analysis = analyze_at(&figure1_at());
        assert!(
            analysis.succeeded(),
            "failed goals: {:?}",
            analysis.failed_goals().collect::<Vec<_>>()
        );
        assert!(analysis.unstable_assumptions.is_empty());
    }

    #[test]
    fn full_versions_add_second_level_goals() {
        assert!(analyze(&full_ban()).succeeded());
        assert!(analyze_at(&full_at()).succeeded());
    }

    #[test]
    fn concrete_protocol_executes_cleanly() {
        let run = execute(&figure1_concrete(), &exec_options()).unwrap();
        assert!(validate_run(&run).is_empty());
        // Three protocol sends.
        assert_eq!(run.send_records().len(), 3);
    }

    #[test]
    fn semantics_validates_the_analysis_conclusions() {
        // On the concrete execution, the key facts behind the derivation
        // hold: Kab is a good key, S said the certificate contents, and B
        // sees them.
        let run = execute(&figure1_concrete(), &exec_options()).unwrap();
        let sys = System::new([run]);
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        let end = Point::new(0, sys.run(0).horizon());
        assert!(sem.eval(end, &kab()).unwrap());
        assert!(sem
            .eval(end, &Formula::said("S", kab().into_message()))
            .unwrap());
        assert!(sem
            .eval(end, &Formula::sees("B", inner_certificate()))
            .unwrap());
        assert!(sem
            .eval(
                end,
                &Formula::believes("B", Formula::sees("B", inner_certificate()))
            )
            .unwrap());
    }

    #[test]
    fn dropping_b_freshness_breaks_b_goal_in_both_logics() {
        let mut ban = figure1_ban();
        ban.assumptions
            .retain(|a| a != &BanStmt::believes("B", BanStmt::fresh(BanStmt::nonce("Ts"))));
        assert!(!analyze(&ban).succeeded());

        let mut at = figure1_at();
        at.assumptions
            .retain(|a| a != &Formula::believes("B", Formula::fresh(super::ts())));
        let analysis = analyze_at(&at);
        assert!(!analysis.succeeded());
        assert!(analysis
            .failed_goals()
            .any(|g| g == &Formula::believes("B", kab())));
    }
}
