//! RML — the Relational Modeling Language of the Ivy paper (Section 3).
//!
//! RML models infinite-state systems with finite relations over unbounded
//! sorted domains, stratified functions, quantifier-free updates and `∃*∀*`
//! assumes, guaranteeing that every verification condition is in decidable
//! EPR. This crate provides:
//!
//! * the [`Cmd`]/[`Program`] AST with the paper's syntactic sugar
//!   (Figures 10 and 12);
//! * a parser for `.rml` program text ([`parse_program`]);
//! * static validation of the fragment restrictions ([`check_program`]);
//! * the weakest-precondition operator of Figure 13 ([`wp()`]), the
//!   reference the unrolling is tested against;
//! * a transition-relation compiler and loop unroller for bounded
//!   verification ([`trans`]);
//! * an explicit-state interpreter used for differential testing
//!   ([`interp`]).
//!
//! # Example
//!
//! ```
//! use ivy_rml::{parse_program, check_program};
//!
//! let p = parse_program(r#"
//! sort node
//! relation leader : node
//! variable n : node
//! safety at_most_one:
//!   forall X:node, Y:node. leader(X) & leader(Y) -> X = Y
//! init { leader(X0) := false }
//! action elect { havoc n; leader.insert(n) }
//! "#)?;
//! assert!(check_program(&p).is_empty());
//! # Ok::<(), ivy_rml::RmlParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod interp;
pub mod parser;
pub mod pretty;
pub mod trans;
pub mod wp;

pub use ast::{Action, Cmd, Program};
pub use check::{check_program, CheckError};
pub use interp::{exec_all, exec_random, step_random, ExecOutcome, InterpError};
pub use parser::{parse_program, RmlParseError};
pub use pretty::render_program;
pub use trans::{
    paths, project_state, rename_symbols, unroll, unroll_free, Path, SymMap, Unrolling,
};
pub use wp::wp;
