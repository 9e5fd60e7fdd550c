//! # atl-core
//!
//! The primary contribution of *A Semantics for a Logic of Authentication*
//! (Abadi & Tuttle, PODC 1991): the reformulated logic and its
//! possible-worlds semantics.
//!
//! - [`axioms`] — the axiomatization A1–A21 of Section 4.2;
//! - [`proof`] — checkable Hilbert proofs with modus ponens and
//!   (theorem-only) necessitation;
//! - [`tautology`] — deciding instances of propositional tautologies;
//! - [`prover`] — a derived-rule saturation engine and the protocol
//!   annotation style of Section 4.3;
//! - [`budget`] — graceful-degradation budgets (steps/facts/wall-clock)
//!   for the prover and the good-run construction, with three-valued
//!   verdicts under exhaustion;
//! - [`parallel`] — a work-stealing pool with deterministic ordered
//!   merges (re-exported from `atl_model`, where it also shards fault
//!   sweeps), behind the sharded good-run construction, concurrent
//!   belief sweeps, and batch proving;
//! - [`stability`] — the stability requirement on annotations;
//! - [`semantics`] — truth at points of a system, with belief as
//!   resource-bounded defensible knowledge (Section 6);
//! - [`monitor`] — the streaming online monitor: a live run prefix,
//!   fed one trace event at a time, re-verdicted at delta cost per
//!   event instead of a batch re-walk;
//! - [`goodruns`] — the Section 7 construction of good-run vectors, with
//!   support and optimality checks (Theorems 2 and 3);
//! - [`soundness`] — the Theorem 1 model-checker over generated systems;
//! - [`quantifier`] — bounded universal quantification (Section 8);
//! - [`enact`] — turning an idealized protocol into an executable model
//!   protocol, so runs can be produced, audited, and fault-injected;
//! - [`sweep`] — parallel fault sweeps over plan grids, with
//!   belief-survival and semantic-validity reporting per goal;
//! - [`fabric`] — the distributed sweep coordinator: shards plan grids
//!   across serve-mode daemons with retries, requeues, and a crash-safe
//!   persistent outcome store, degrading to local execution;
//! - [`hunt`] — coverage-guided attack search: a feedback-directed
//!   fuzzer over fault plans whose coverage signal is the belief-survival
//!   signature, with shrunk minimal plans per degradation class;
//! - [`examples`] — the coin-toss counterexample;
//! - [`theorems`] — machine-checked reconstructions of the BAN rules;
//! - [`secrecy`] — the semantic secrecy audit (the paper's future work);
//! - [`kripke`] — the possibility relation as an exportable Kripke frame;
//! - [`spec`] — a textual protocol format for the `atl` CLI;
//! - [`request`] — the fault-flag grammar `atl inject`, `atl hunt` and
//!   the daemon's `INJECT` share.
//!
//! ```
//! use atl_core::prover::Prover;
//! use atl_lang::{Formula, Key, Message, Nonce};
//! // Nonce verification, honesty-free: a fresh said message was said
//! // recently (A20), and jurisdiction applies to says, not believes (A15).
//! let n = Message::nonce(Nonce::new("N"));
//! let mut prover = Prover::new([
//!     Formula::fresh(n.clone()),
//!     Formula::said("S", n.clone()),
//! ]);
//! prover.saturate();
//! assert!(prover.holds(&Formula::says("S", n)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotate;
pub mod axioms;
pub mod budget;
pub mod enact;
pub mod examples;
pub mod fabric;
pub mod goodruns;
pub mod hunt;
pub mod inject;
pub mod kripke;
pub mod metrics;
pub mod monitor;
pub mod proof;
pub mod prover;
pub mod quantifier;
pub mod request;
pub mod secrecy;
pub mod semantics;
pub mod serve;
pub mod soundness;
pub mod spec;
pub mod stability;
pub mod sweep;
pub use atl_model::parallel;
pub mod tautology;
pub mod theorems;
