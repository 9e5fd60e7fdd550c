//! # atl-lang
//!
//! The term language of *A Semantics for a Logic of Authentication*
//! (Abadi & Tuttle, PODC 1991): the mutually inductive languages `MT` of
//! [`Message`]s (conditions M1–M6) and `FT` of [`Formula`]s (conditions
//! F1–F8), together with the syntactic operators the model of computation
//! and the semantics are built from:
//!
//! - [`submsgs`] — the structural submessage closure (freshness);
//! - [`seen_submsgs`] — what a key set lets a principal read (Section 5);
//! - [`said_submsgs`] — what a sender is accountable for (Section 5);
//! - [`hide_message`] — masking unreadable ciphertext (Section 6);
//! - [`Bindings`] — run-valued parameter substitution (Section 8);
//! - [`Interner`]/[`TermCache`] — hash-consed term IDs and memoized
//!   versions of the operators above, for evaluators on hot paths;
//! - a [`parser`] and `Display` impls for paper-style concrete syntax.
//!
//! # Quick example
//!
//! ```
//! use atl_lang::*;
//! use atl_lang::parser::{parse_formula, Symbols};
//!
//! let syms = Symbols::new().principals(["A", "B", "S"]).keys(["Kab", "Kbs"]);
//! // B's view of the third Kerberos step of Figure 1.
//! let goal = parse_formula("B believes (A <-Kab-> B)", &syms)?;
//! assert_eq!(goal.belief_depth(), 1);
//! # Ok::<(), atl_lang::parser::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod display;
mod formula;
mod hide;
mod intern;
mod message;
mod name;
mod submsgs;
mod subst;

pub mod parser;

#[cfg(feature = "arbitrary")]
pub mod arbitrary;

pub use formula::Formula;
pub use hide::hide_message;
pub use intern::{CacheStats, FormulaId, FrozenInterner, Interner, KeySetId, MsgId, TermCache};
pub use message::{KeyTerm, Message};
pub use name::{Key, Name, Nonce, Param, Principal, Prop};
pub use submsgs::{
    can_see, is_submsg, said_submsg_refs, said_submsgs, seen_submsg_refs, seen_submsgs,
    seen_submsgs_of_set, submsgs, submsgs_of_set, KeySet, MessageSet,
};
pub use subst::{Bindings, SubstError};
