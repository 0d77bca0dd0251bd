//! A decision procedure for EPR (Bernays–Schönfinkel–Ramsey) extended with
//! stratified function symbols — the logic underlying every check in the Ivy
//! paper (Section 3.3, Theorem 3.3).
//!
//! Pipeline: `ite`-elimination → Skolemization (constants only, since input
//! is `∃*∀*`) → finite ground-term universe (terminates by stratification) →
//! universal instantiation → Tseitin CNF with relevant-pairs equality
//! axioms → CDCL SAT. Satisfiable queries yield a *finite first-order
//! structure* (the finite-model property); unsatisfiable queries yield an
//! UNSAT core over assertion labels, which powers Ivy's
//! *BMC + Auto Generalize*.
//!
//! Fragment membership is a *dial*, not a wall: [`InstantiationMode::Bounded`]
//! admits unstratified signatures and `∀∃` alternations (Skolemized to real
//! functions) by building ground terms only up to a nesting depth. The
//! bounded clause set is a subset of the full instantiation, so UNSAT stays
//! a verdict; SAT while the bound was load-bearing degrades to
//! [`EprOutcome::Unknown`] with [`StopReason::BoundReached`].
//!
//! Every query runs through one front end, [`EprSession`]: a one-off check
//! is a session used once, and a query family (a shared frame plus
//! per-query goals) reuses one session's grounding and learnt clauses.
//!
//! # Example
//!
//! ```
//! use ivy_fol::{parse_formula, Signature};
//! use ivy_epr::{EprOutcome, EprSession};
//!
//! let mut sig = Signature::new();
//! sig.add_sort("node")?;
//! sig.add_relation("leader", ["node"])?;
//! let mut q = EprSession::new(&sig)?;
//! q.assert_labeled("two_leaders", &parse_formula(
//!     "exists X:node, Y:node. X ~= Y & leader(X) & leader(Y)")?)?;
//! let EprOutcome::Sat(model) = q.check() else { panic!("satisfiable") };
//! assert!(model.structure.domain_size(&"node".into()) >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod encode;
pub mod ground;
pub mod session;

pub use check::{
    EprError, EprOutcome, GroundStats, InstantiationMode, Model, DEFAULT_INSTANCE_LIMIT,
};
pub use encode::{Encoder, SolveOutcome, TheoryWork};
pub use ground::{ensure_inhabited, GroundTerm, TermId, TermTable};
pub use ivy_telemetry::{Budget, QueryReport, StopReason};
pub use session::{frame_fingerprint, EprSession, GroupId};
