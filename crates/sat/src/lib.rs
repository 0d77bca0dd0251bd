//! A from-scratch SAT solving stack for the Ivy reproduction.
//!
//! The PLDI 2016 Ivy paper discharges all verification conditions with Z3's
//! EPR engine. This crate is the propositional layer of our substitute:
//!
//! * [`Solver`]: a CDCL solver (watched literals, 1UIP learning, VSIDS +
//!   phase saving, Luby restarts, learnt-clause reduction) with
//!   **assumption-based incremental solving and UNSAT cores** — cores drive
//!   Ivy's *BMC + Auto Generalize* step (Section 4.5 of the paper) — and a
//!   [`Theory`] hook that adds lemmas inside the search (`ivy-epr` runs
//!   equality there).
//! * [`Cnf`]: a plain clause container, the target of Tseitin encoding in
//!   `ivy-epr`.
//! * [`solve_dpll`] / [`solve_brute_force`]: reference solvers used as
//!   differential-testing oracles.
//! * [`parse_dimacs`] / [`write_dimacs`]: DIMACS interoperability.
//!
//! # Example
//!
//! ```
//! use ivy_sat::{Cnf, Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let (a, b) = (s.new_var(), s.new_var());
//! s.add_clause([a.neg(), b.pos()]);
//! assert_eq!(s.solve_with_assumptions(&[a.pos(), b.neg()]), SolveResult::Unsat);
//! assert_eq!(s.unsat_core().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod dimacs;
pub mod dpll;
pub mod lit;
pub mod solver;

pub use cnf::Cnf;
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError};
pub use dpll::{solve_brute_force, solve_dpll};
pub use lit::{LBool, Lit, Var};
pub use solver::{Interrupt, SolveResult, Solver, Stats, Theory, TheoryCtx};
