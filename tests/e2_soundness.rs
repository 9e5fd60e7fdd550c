//! E2 (Theorem 1) — the axiomatization is sound: every schema instance
//! over every generated system holds at every point, for protocol
//! executions, adversarial random systems, and restricted good-run
//! vectors alike.

use atl::core::semantics::{GoodRuns, Semantics};
use atl::core::soundness::{check_axioms, SoundnessConfig};
use atl::core::{axioms, goodruns};
use atl::lang::{Formula, Key, Message, Nonce, Principal, Prop};
use atl::model::{execute_schedules, random_system, rotation_schedules, GenConfig, System};
use atl::protocols::kerberos;

fn config() -> SoundnessConfig {
    SoundnessConfig {
        max_instances_per_axiom: 120,
        ..SoundnessConfig::default()
    }
}

#[test]
fn sound_on_protocol_executions() {
    let sys = execute_schedules(
        &kerberos::figure1_concrete(),
        &kerberos::exec_options(),
        &rotation_schedules(3),
    );
    let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config()).unwrap();
    assert!(report.sound(), "{report}");
}

#[test]
fn sound_on_adversarial_random_systems() {
    for seed in 0..6 {
        let sys = random_system(&GenConfig::default(), 4, seed);
        let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config()).unwrap();
        assert!(report.sound(), "seed {seed}: {report}");
    }
}

#[test]
fn sound_on_busier_adversaries() {
    let gen = GenConfig {
        past_steps: 5,
        present_steps: 10,
        adversary_bias: 0.6,
        ..GenConfig::default()
    };
    for seed in 100..103 {
        let sys = random_system(&gen, 3, seed);
        let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config()).unwrap();
        assert!(report.sound(), "seed {seed}: {report}");
    }
}

#[test]
fn sound_relative_to_constructed_good_runs() {
    // Theorem 1 holds for ANY good-run vector; exercise a non-trivial one
    // built by the Section 7 construction from real assumptions.
    let sys = random_system(&GenConfig::default(), 4, 7);
    let mut assumptions = goodruns::InitialAssumptions::new();
    assumptions.assume("A", Formula::shared_key("A", Key::new("Kas"), "S"));
    assumptions.assume("B", Formula::shared_key("B", Key::new("Kbs"), "S"));
    let goods = goodruns::construct(&sys, &assumptions).unwrap();
    let report = check_axioms(&sys, goods, &config()).unwrap();
    assert!(report.sound(), "{report}");
}

#[test]
fn sound_relative_to_arbitrary_good_run_restrictions() {
    // Even arbitrary (not assumption-derived) restrictions keep A1–A21
    // valid — the introspection axioms in particular.
    let sys = random_system(&GenConfig::default(), 4, 11);
    let mut goods = GoodRuns::all_runs(&sys);
    goods.set("A", [0usize, 2].into_iter().collect());
    goods.set("B", [1usize].into_iter().collect());
    goods.set(Principal::environment(), [0usize].into_iter().collect());
    let report = check_axioms(&sys, goods, &config()).unwrap();
    assert!(report.sound(), "{report}");
}

#[test]
fn introspection_axioms_hold_even_with_empty_good_sets() {
    // With G_P = ∅, P believes everything; A2/A3 must still be valid.
    let sys = random_system(&GenConfig::default(), 2, 3);
    let mut goods = GoodRuns::all_runs(&sys);
    goods.set("A", Default::default());
    let sem = Semantics::new(&sys, goods);
    let p = Principal::new("A");
    let phi = Formula::prop(Prop::new("q"));
    assert!(sem.valid(&axioms::a2(&p, &phi)).unwrap());
    assert!(sem.valid(&axioms::a3(&p, &phi)).unwrap());
    // And indeed A believes the absurd.
    assert!(sem.valid(&Formula::believes(p, Formula::falsum())).unwrap());
}

#[test]
fn every_schema_gets_instances() {
    let sys = random_system(&GenConfig::default(), 3, 1);
    let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config()).unwrap();
    for (name, count) in &report.instances {
        assert!(*count > 0, "{name} had no instances");
    }
}

#[test]
fn the_checker_can_falsify() {
    // Sanity: hand the checker a formula that is NOT valid and watch the
    // machinery reject it (guards against a vacuously-green checker).
    let mut b = atl::model::RunBuilder::new(0);
    b.principal("A", []);
    b.principal("B", []);
    b.send("A", Message::nonce(Nonce::new("X")), "B").unwrap();
    let sys = System::new([b.build().unwrap()]);
    let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
    let bogus = Formula::implies(
        Formula::said("A", Message::nonce(Nonce::new("X"))),
        Formula::said("B", Message::nonce(Nonce::new("X"))),
    );
    assert!(!sem.valid(&bogus).unwrap());
}

#[test]
fn sound_on_random_public_key_systems() {
    // The A22–A28 schemas over generator-built traffic with signatures
    // and public-key ciphertext (not just the hand-built NSPK runs).
    for seed in 0..4 {
        let sys = random_system(&GenConfig::public_key(), 3, seed);
        let report = check_axioms(&sys, GoodRuns::all_runs(&sys), &config()).unwrap();
        assert!(report.sound(), "seed {seed}: {report}");
    }
}

#[test]
fn public_key_generator_actually_signs() {
    let mut signed = 0;
    let mut pubenc = 0;
    for seed in 0..10 {
        let sys = random_system(&GenConfig::public_key(), 2, seed);
        for run in sys.runs() {
            for rec in run.send_records() {
                for sub in atl::lang::submsgs(rec.message) {
                    match sub {
                        Message::Signed { .. } => signed += 1,
                        Message::PubEncrypted { .. } => pubenc += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(signed > 0, "no signatures generated");
    assert!(pubenc > 0, "no public-key ciphertext generated");
}
