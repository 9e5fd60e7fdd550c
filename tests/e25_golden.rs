//! E25: golden bytes — the CLI's reports pinned across versions.
//!
//! Every other CLI test compares the binary against itself: two runs,
//! two worker counts, a daemon and the one-shot command. None of them
//! notices when a change to the executor or the restriction checks
//! moves a report that every side then prints alike. These files under
//! `tests/golden/` hold the stdout of a fixed-seed hunt, a single plan
//! with every fault kind, and a single plan whose drops make senders
//! abandon steps (the `send abandoned: restriction 3 …` reasons on
//! Kerberos and Needham–Schroeder), on each committed spec. A change
//! that alters any of them must say why and regenerate the file with
//! the command named in `COMMANDS`.

use std::path::Path;
use std::process::Command;

const SPECS: &[&str] = &[
    "andrew_flawed",
    "kerberos_figure1",
    "needham_schroeder",
    "wide_mouthed_frog",
];

/// Golden-file prefix and the `atl` arguments after the spec path.
const COMMANDS: &[(&str, &[&str])] = &[
    ("hunt", &["--seed", "7", "--budget", "48"]),
    (
        "inject_faults",
        &[
            "--seed",
            "7",
            "--drop",
            "0.3",
            "--dup",
            "0.3",
            "--delay",
            "0.3",
            "--reorder",
            "0.3",
            "--replay",
            "0.5",
            "--compromise",
            "Kab@2",
        ],
    ),
    (
        "inject_abandon",
        &["--seed", "1", "--drop", "1", "--retries", "0"],
    ),
];

/// The subcommand a golden-file prefix runs.
fn subcommand(prefix: &str) -> &'static str {
    if prefix == "hunt" {
        "hunt"
    } else {
        "inject"
    }
}

#[test]
fn cli_reports_match_their_golden_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for spec in SPECS {
        let spec_path = dir.join("specs").join(format!("{spec}.atl"));
        for (prefix, args) in COMMANDS {
            let golden_path = dir
                .join("tests/golden")
                .join(format!("{prefix}_{spec}.txt"));
            let golden = std::fs::read(&golden_path)
                .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
            let out = Command::new(env!("CARGO_BIN_EXE_atl"))
                .arg(subcommand(prefix))
                .arg(&spec_path)
                .args(*args)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "atl {} {spec} {args:?} exited {:?}: {}",
                subcommand(prefix),
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                out.stdout == golden,
                "atl {} {spec} {args:?} differs from {}:\n--- golden\n{}\n--- now\n{}",
                subcommand(prefix),
                golden_path.display(),
                String::from_utf8_lossy(&golden),
                String::from_utf8_lossy(&out.stdout)
            );
            checked += 1;
        }
    }
    assert_eq!(checked, SPECS.len() * COMMANDS.len());
}

/// The abandonment goldens really pin restriction-3 reasons: the checks
/// this file exists to guard are exercised, not just the happy path.
#[test]
fn abandonment_goldens_carry_restriction_reasons() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    for spec in ["kerberos_figure1", "needham_schroeder"] {
        let path = dir.join(format!("tests/golden/inject_abandon_{spec}.txt"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("send abandoned: restriction 3"),
            "{}: no restriction-3 reason",
            path.display()
        );
    }
}
