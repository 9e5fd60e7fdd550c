//! `atl-perfbench`: the end-to-end and per-layer benchmark of the atl
//! pipeline (parse → annotate → enact/execute → good runs → semantics,
//! plus the serve, fabric, monitor and hunt layers built on it).
//!
//! ```text
//! atl-perfbench --workload <serve_mix|sweep_replay|hunt_cold> --seed N
//!               --seconds S --trace <0|1>
//! ```
//!
//! The seed generates the workload's inputs; the run measures for `S`
//! seconds of timed work, checks every op's output against a reference
//! that bypasses the layer being timed, prints a human-readable report
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). It exits 0 only if every op was correct. See
//! `perfbench/README.md` for the workloads and the metrics.

mod common;
mod hunt_cold;
mod serve_mix;
mod specs;
mod sweep_replay;
mod tracer;

use common::{Settings, WorkDir};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

fn main() -> ExitCode {
    let settings = match Settings::from_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("atl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    common::steady_allocator();
    let host_cpus = common::host_cpus();
    let pinned = common::pin_to_current_cpu();
    let work = match WorkDir::create(&settings.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("atl-perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| match settings.workload.as_str() {
        "serve_mix" => serve_mix::run(&settings, &work),
        "sweep_replay" => sweep_replay::run(&settings, &work),
        _ => hunt_cold::run(&settings, &work),
    }));
    work.remove();
    match result {
        Ok(Ok(mut outcome)) => {
            outcome.host_cpus = host_cpus;
            outcome.pinned = pinned;
            outcome.print(&settings);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Err(e)) => {
            eprintln!("atl-perfbench: {e}");
            ExitCode::from(2)
        }
        Err(_) => {
            eprintln!("atl-perfbench: the run panicked");
            ExitCode::from(2)
        }
    }
}
