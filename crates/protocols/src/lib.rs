//! The six distributed protocols of the Ivy paper's evaluation (Section 5),
//! modeled in RML with machine-checked universal inductive invariants —
//! plus [`two_phase`], a deliberately non-EPR protocol whose invariant is
//! proved under bounded quantifier instantiation.
#![warn(missing_docs)]

pub mod chord;
pub mod db_chain;
pub mod distributed_lock;
pub mod leader;
pub mod learning_switch;
pub mod lock_server;
pub mod two_phase;

use ivy_core::Conjecture;
use ivy_rml::Program;

/// One evaluation protocol: its Figure 14 row label, model, RML source and
/// known universal inductive invariant.
pub struct Protocol {
    /// Row label as in Figure 14.
    pub name: &'static str,
    /// The model.
    pub program: Program,
    /// A known-correct universal inductive invariant; the first clauses are
    /// the safety properties.
    pub invariant: Vec<Conjecture>,
    /// The model's RML source, for clients that ship it over a wire.
    pub source: &'static str,
}

/// The six evaluation protocols (Section 5.1), in Figure 14 order.
pub fn evaluation() -> Vec<Protocol> {
    macro_rules! protocol {
        ($name:literal, $module:ident) => {
            Protocol {
                name: $name,
                program: $module::program(),
                invariant: $module::invariant(),
                source: $module::SOURCE,
            }
        };
    }
    vec![
        protocol!("Leader election in ring", leader),
        protocol!("Lock server", lock_server),
        protocol!("Distributed lock protocol", distributed_lock),
        protocol!("Learning switch", learning_switch),
        protocol!("Database chain replication", db_chain),
        protocol!("Chord ring maintenance", chord),
    ]
}
