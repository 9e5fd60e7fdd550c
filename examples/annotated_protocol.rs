//! Rendering a BAN analysis the way the paper's §2.3 describes it: the
//! protocol annotated step by step with the assertions each message makes
//! derivable.
//!
//! ```sh
//! cargo run --example annotated_protocol
//! ```

use atl::ban::{analyze, render_annotated};
use atl::core::goodruns::{construct_on, InitialAssumptions};
use atl::core::parallel::Pool;
use atl::lang::{Formula, Key};
use atl::model::{random_system, GenConfig};
use atl::protocols::{needham_schroeder, otway_rees};

fn main() {
    println!("== Needham-Schroeder, annotated (original BAN logic) ==\n");
    let proto = needham_schroeder::ban_protocol(true);
    let analysis = analyze(&proto);
    print!("{}", render_annotated(&proto, &analysis));

    println!("\n== Otway-Rees, annotated ==\n");
    let proto = otway_rees::ban_protocol();
    let analysis = analyze(&proto);
    print!("{}", render_annotated(&proto, &analysis));

    println!("\n== Good-run construction progress (Section 7) ==\n");
    let sys = random_system(&GenConfig::default(), 6, 42);
    let base = Formula::shared_key("A", Key::new("Kas"), "S");
    let mut i = InitialAssumptions::new();
    i.assume("S", base.clone());
    i.assume("B", Formula::believes("S", base.clone()));
    i.assume("A", Formula::believes("B", Formula::believes("S", base)));
    let (goods, report) = construct_on(&sys, &i, &Pool::sequential()).expect("construct");
    println!("system of {} runs; {} stages:", sys.len(), report.depth());
    for (j, stage) in report.stages.iter().enumerate() {
        let sizes: Vec<String> = stage
            .iter()
            .map(|(p, n)| format!("|G_{p}| = {n}"))
            .collect();
        println!("  after stage {}: {}", j + 1, sizes.join(", "));
    }
    if report.emptied().is_empty() {
        println!("  no principal believes the absurd; the vector supports I.");
    }
    let _ = goods;
}
