//! # atl-model
//!
//! The model of computation of *A Semantics for a Logic of Authentication*
//! (Abadi & Tuttle, PODC 1991), Section 5: principals with local histories
//! and key sets, an environment holding the global history and message
//! buffers, `send`/`receive`/`newkey` actions, timed runs with an epoch
//! boundary at time 0, and systems (sets of runs) with an interpretation of
//! primitive propositions.
//!
//! Construction is checked: [`RunBuilder`] enforces the paper's five
//! well-formedness restrictions, [`validate_run`] audits finished runs,
//! [`execute`] turns scripted [`Protocol`]s into runs, [`random_system`]
//! grows adversarial systems for model checking, and [`parse_trace`] /
//! [`render_trace`] move runs to and from a textual trace format.
//!
//! ```
//! use atl_lang::{Message, Nonce};
//! use atl_model::{execute, ExecOptions, Protocol, Role};
//! let ping = Message::nonce(Nonce::new("ping"));
//! let proto = Protocol::new("ping")
//!     .role(Role::new("A", []).send(ping.clone(), "B"))
//!     .role(Role::new("B", []).expect(ping));
//! let run = execute(&proto, &ExecOptions::default())?;
//! assert_eq!(run.send_records().len(), 1);
//! # Ok::<(), atl_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod action;
mod adversary;
mod error;
mod executor;
mod faults;
pub mod parallel;
mod protocol;
mod run;
mod search;
mod state;
pub mod store;
mod sweep;
mod system;
mod trace;
mod validate;
pub mod wire;

pub use action::{Action, Event};
pub use adversary::{random_run, random_system, GenConfig};
pub use error::ModelError;
pub use executor::{
    execute, execute_fault_suite, execute_schedules, execute_sweep_on, execute_with_faults,
    execute_with_report, rotation_schedules, ExecOptions,
};
pub use faults::{AbandonedStep, ExecReport, FaultError, FaultEvent, FaultKind, FaultPlan};
pub use protocol::{ExpectPolicy, MsgPattern, OnTimeout, Protocol, Role, RoleStep};
pub use run::{final_env, Run, RunBuilder, SendRecord};
pub use search::{
    hunt_plans_on, DegradationClass, HuntConfig, HuntOutcome, HuntStats, HuntStore, MutationSpace,
};
pub use state::{EnvState, GlobalState, LocalState};
pub use sweep::{
    execution_context_digest, sweep_plans_in, sweep_plans_on, sweep_plans_resolve, ExecOutcome,
    ExecutionCache, PlanFingerprint, PlanResult, SweepGrid, SweepOutcome, SweepStats,
};
pub use system::{Interpretation, Point, System};
pub use trace::{parse_trace, render_trace, FeedOutcome, TraceError, TraceFeed};
pub use validate::{validate_run, Violation};
