//! The Wide-Mouthed Frog protocol.
//!
//! Concrete protocol — the simplest server-mediated key exchange, with
//! `A` (not the server) generating the session key:
//!
//! ```text
//! 1. A → S : A, {Ta, B, Kab}Kas
//! 2. S → B : {Ts, A, Kab}Kbs
//! ```
//!
//! The analysis illustrates two things. In the original logic, message 2
//! is idealized with a nested *belief* (`A believes A ↔Kab↔ B`) and
//! jurisdiction over beliefs; in the honesty-free reformulation the same
//! content is idealized with *says*, exactly as Section 3.2 prescribes.
//! The protocol also shows double jurisdiction: `B` trusts `S` about what
//! `A` recently said, and trusts `A` about the key itself.

use atl_ban::{BanStmt, IdealProtocol};
use atl_core::annotate::AtProtocol;
use atl_core::spec::parse_spec;
use atl_lang::{Formula, Key};

/// `A ↔Kab↔ B` as a typed formula.
pub fn kab() -> Formula {
    Formula::shared_key("A", Key::new("Kab"), "B")
}

fn ban_kab() -> BanStmt {
    BanStmt::shared_key("A", "Kab", "B")
}

/// The idealized protocol in the original BAN logic, following \[BAN89\]:
///
/// ```text
/// 1. A → S : {Ta, (A ↔Kab↔ B)}Kas
/// 2. S → B : {Ts, A believes (A ↔Kab↔ B)}Kbs
/// ```
pub fn ban_protocol() -> IdealProtocol {
    let msg1 = BanStmt::encrypted(BanStmt::conj([BanStmt::nonce("Ta"), ban_kab()]), "Kas", "A");
    let msg2 = BanStmt::encrypted(
        BanStmt::conj([BanStmt::nonce("Ts"), BanStmt::believes("A", ban_kab())]),
        "Kbs",
        "S",
    );
    IdealProtocol::new("wide-mouthed-frog (BAN)")
        .assume(BanStmt::believes("A", BanStmt::shared_key("A", "Kas", "S")))
        .assume(BanStmt::believes("S", BanStmt::shared_key("A", "Kas", "S")))
        .assume(BanStmt::believes("B", BanStmt::shared_key("B", "Kbs", "S")))
        .assume(BanStmt::believes("A", ban_kab()))
        .assume(BanStmt::believes("S", BanStmt::controls("A", ban_kab())))
        .assume(BanStmt::believes(
            "B",
            BanStmt::controls("S", BanStmt::believes("A", ban_kab())),
        ))
        .assume(BanStmt::believes("B", BanStmt::controls("A", ban_kab())))
        .assume(BanStmt::believes("S", BanStmt::fresh(BanStmt::nonce("Ta"))))
        .assume(BanStmt::believes("B", BanStmt::fresh(BanStmt::nonce("Ts"))))
        .step("A", "S", msg1)
        .step("S", "B", msg2)
        .goal(BanStmt::believes("S", ban_kab()))
        .goal(BanStmt::believes("B", BanStmt::believes("A", ban_kab())))
        .goal(BanStmt::believes("B", ban_kab()))
}

/// The idealized protocol in the reformulated logic, as
/// `specs/wide_mouthed_frog.atl` writes it. Honesty is gone, so the
/// nested operator is `says`, and jurisdiction (A15) discharges it
/// without ever assuming `A` believes what it sends:
///
/// ```text
/// 1. A → S : {Ta, A ↔Kab↔ B}Kas
/// 2. S → B : {Ts, A says (A ↔Kab↔ B)}Kbs
/// ```
pub fn at_protocol() -> AtProtocol {
    let (mut proto, _) = parse_spec(include_str!("../../../specs/wide_mouthed_frog.atl"))
        .expect("specs/wide_mouthed_frog.atl parses");
    proto.name.push_str(" (AT)");
    proto
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_ban::analyze;
    use atl_core::annotate::analyze_at;
    use atl_lang::{Message, Nonce};

    #[test]
    fn ban_analysis_succeeds() {
        let analysis = analyze(&ban_protocol());
        assert!(
            analysis.succeeded(),
            "failed: {:?}",
            analysis.failed_goals().collect::<Vec<_>>()
        );
    }

    #[test]
    fn at_analysis_succeeds_without_honesty() {
        let analysis = analyze_at(&at_protocol());
        assert!(
            analysis.succeeded(),
            "failed: {:?}",
            analysis.failed_goals().collect::<Vec<_>>()
        );
    }

    #[test]
    fn freshness_of_ts_is_load_bearing() {
        // Without B's trust in the server timestamp, the replayed-message 2
        // proves nothing recent — the known WMF weakness.
        let mut proto = ban_protocol();
        proto
            .assumptions
            .retain(|a| a != &BanStmt::believes("B", BanStmt::fresh(BanStmt::nonce("Ts"))));
        let analysis = analyze(&proto);
        assert!(!analysis.succeeded());
        assert!(analysis
            .failed_goals()
            .any(|g| g == &BanStmt::believes("B", ban_kab())));
    }

    #[test]
    fn at_freshness_of_ts_is_load_bearing() {
        let mut proto = at_protocol();
        proto.assumptions.retain(|a| {
            a != &Formula::believes("B", Formula::fresh(Message::nonce(Nonce::new("Ts"))))
        });
        assert!(!analyze_at(&proto).succeeded());
    }
}
