//! The Otway–Rees protocol.
//!
//! Concrete protocol:
//!
//! ```text
//! 1. A → B : M, A, B, {Na, M, A, B}Kas
//! 2. B → S : M, A, B, {Na, M, A, B}Kas, {Nb, M, A, B}Kbs
//! 3. S → B : M, {Na, Kab}Kas, {Nb, Kab}Kbs
//! 4. B → A : M, {Na, Kab}Kas
//! ```
//!
//! BAN89's finding: both parties obtain first-level belief in the key,
//! but *neither* learns that the other has it — there are no second-level
//! goals without further assumptions. We reproduce both halves.

use atl_ban::{BanStmt, IdealProtocol};
use atl_core::annotate::AtProtocol;
use atl_lang::{Formula, Key, Message, Nonce};

/// `A ↔Kab↔ B` as a typed formula.
pub fn kab() -> Formula {
    Formula::shared_key("A", Key::new("Kab"), "B")
}

fn ban_kab() -> BanStmt {
    BanStmt::shared_key("A", "Kab", "B")
}

/// The idealized protocol in the original BAN logic (messages 1 and 2
/// carry no beliefs and are omitted; message 3's two certificates are
/// delivered to their readers).
pub fn ban_protocol() -> IdealProtocol {
    let a_cert = BanStmt::encrypted(BanStmt::conj([BanStmt::nonce("Na"), ban_kab()]), "Kas", "S");
    let b_cert = BanStmt::encrypted(BanStmt::conj([BanStmt::nonce("Nb"), ban_kab()]), "Kbs", "S");
    IdealProtocol::new("otway-rees (BAN)")
        .assume(BanStmt::believes("A", BanStmt::shared_key("A", "Kas", "S")))
        .assume(BanStmt::believes("B", BanStmt::shared_key("B", "Kbs", "S")))
        .assume(BanStmt::believes("A", BanStmt::controls("S", ban_kab())))
        .assume(BanStmt::believes("B", BanStmt::controls("S", ban_kab())))
        .assume(BanStmt::believes("A", BanStmt::fresh(BanStmt::nonce("Na"))))
        .assume(BanStmt::believes("B", BanStmt::fresh(BanStmt::nonce("Nb"))))
        .step("S", "B", BanStmt::conj([b_cert, a_cert.clone()]))
        .step("B", "A", a_cert)
        .goal(BanStmt::believes("A", ban_kab()))
        .goal(BanStmt::believes("B", ban_kab()))
}

/// As [`ban_protocol`], with the unobtainable second-level goals added —
/// the analysis is expected to fail on exactly these.
pub fn ban_protocol_with_second_level_goals() -> IdealProtocol {
    let mut proto = ban_protocol();
    proto.name = "otway-rees + second-level goals (BAN)".to_string();
    proto
        .goal(BanStmt::believes("A", BanStmt::believes("B", ban_kab())))
        .goal(BanStmt::believes("B", BanStmt::believes("A", ban_kab())))
}

/// The idealized protocol in the reformulated logic.
pub fn at_protocol() -> AtProtocol {
    let na = Message::nonce(Nonce::new("Na"));
    let nb = Message::nonce(Nonce::new("Nb"));
    let a_cert = Message::encrypted(
        Message::tuple([na.clone(), kab().into_message()]),
        Key::new("Kas"),
        "S",
    );
    let b_cert = Message::encrypted(
        Message::tuple([nb.clone(), kab().into_message()]),
        Key::new("Kbs"),
        "S",
    );
    AtProtocol::new("otway-rees (AT)")
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
        .assume(Formula::believes("A", Formula::fresh(na)))
        .assume(Formula::believes("B", Formula::fresh(nb)))
        .assume(Formula::has("A", Key::new("Kas")))
        .assume(Formula::has("B", Key::new("Kbs")))
        // S minted A's certificate, so only B's hop, which relays it,
        // carries the forwarding mark (restriction 5).
        .step("S", "B", Message::tuple([b_cert, a_cert.clone()]))
        .step("B", "A", Message::forwarded(a_cert))
        .goal(Formula::believes("A", kab()))
        .goal(Formula::believes("B", kab()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_ban::analyze;
    use atl_core::annotate::analyze_at;

    #[test]
    fn first_level_goals_succeed() {
        assert!(analyze(&ban_protocol()).succeeded());
        let at = analyze_at(&at_protocol());
        assert!(
            at.succeeded(),
            "failed: {:?}",
            at.failed_goals().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ban_finding_no_second_level_beliefs() {
        let analysis = analyze(&ban_protocol_with_second_level_goals());
        assert!(!analysis.succeeded());
        let failed: Vec<_> = analysis.failed_goals().collect();
        assert_eq!(failed.len(), 2, "exactly the second-level goals fail");
    }

    #[test]
    fn b_relays_a_certificate_without_reading_it() {
        // B forwards A's certificate; the analysis never grants B sight of
        // its contents.
        let analysis = analyze_at(&at_protocol());
        let leak = Formula::believes(
            "B",
            Formula::sees(
                "B",
                Message::tuple([Message::nonce(Nonce::new("Na")), kab().into_message()]),
            ),
        );
        assert!(!analysis.prover.holds(&leak));
    }
}
