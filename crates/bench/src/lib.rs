//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The `figures` binary (see `src/bin/figures.rs`) prints each table/figure
//! and `fig14_one` runs one Figure 14 row. End-to-end timing lives in
//! `perfbench/`.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ivy_core::{Conjecture, Measure, OracleUser, Session, SessionOutcome, SessionStats};
use ivy_rml::Program;

/// Everything the Figure 14 table needs about one protocol.
pub struct ProtocolEntry {
    /// Row label as in Figure 14.
    pub name: &'static str,
    /// The model.
    pub program: Program,
    /// A known-correct universal inductive invariant (target for the oracle
    /// user). The first clauses are the safety properties.
    pub invariant: Vec<Conjecture>,
    /// Minimization measures a user of this protocol would pick.
    pub measures: Vec<Measure>,
    /// BMC bound the oracle passes to auto-generalization.
    pub oracle_bound: usize,
    /// Paper-reported (S, RF, C, I, G) for side-by-side comparison.
    pub paper: (usize, usize, usize, usize, usize),
}

/// All six evaluation protocols (Section 5.1), in Figure 14 order.
pub fn protocols() -> Vec<ProtocolEntry> {
    use ivy_protocols as p;
    // (measures, oracle_bound, paper), in the order of `p::evaluation()`.
    let rows = [
        (p::leader::measures(), 3, (2, 5, 3, 12, 3)),
        (p::lock_server::measures(), 2, (5, 11, 3, 21, 8)),
        (p::distributed_lock::measures(), 2, (2, 5, 3, 26, 12)),
        (p::learning_switch::measures(), 1, (2, 5, 11, 18, 3)),
        (p::db_chain::measures(), 1, (4, 13, 11, 35, 7)),
        (p::chord::measures(), 2, (1, 13, 35, 46, 4)),
    ];
    p::evaluation()
        .into_iter()
        .zip(rows)
        .map(|(e, (measures, oracle_bound, paper))| ProtocolEntry {
            name: e.name,
            program: e.program,
            invariant: e.invariant,
            measures,
            oracle_bound,
            paper,
        })
        .collect()
}

/// One measured row of our Figure 14 reproduction.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// Protocol name.
    pub name: &'static str,
    /// Number of sorts.
    pub s: usize,
    /// Number of relation + function symbols (program variables excluded;
    /// scratch locals never count).
    pub rf: usize,
    /// Literals in the initial conjecture set (the safety properties).
    pub c: usize,
    /// Literals in the final inductive invariant the session found.
    pub i: usize,
    /// CTI/generalization iterations (the session's CTI count).
    pub g: usize,
    /// Whether the found invariant was independently re-verified inductive.
    pub verified: bool,
    /// Wall-clock for the whole session.
    pub elapsed: Duration,
    /// Paper-reported values.
    pub paper: (usize, usize, usize, usize, usize),
}

/// Runs the ideal-user (oracle) session for one protocol and measures the
/// Figure 14 quantities.
///
/// # Panics
///
/// Panics if the session errors out or fails to prove within `max_ctis` —
/// the harness treats that as a reproduction failure worth loud reporting.
pub fn figure14_row(entry: &ProtocolEntry, max_ctis: usize) -> Fig14Row {
    let start = Instant::now();
    let initial = Conjecture::safety(&entry.program);
    let c: usize = initial.iter().map(|x| x.formula.literal_count()).sum();
    let target: Vec<_> = entry.invariant.iter().map(|x| x.formula.clone()).collect();
    let mut session = Session::new(&entry.program, initial, entry.measures.clone());
    let mut user = OracleUser::new(target, entry.oracle_bound);
    let outcome = session
        .run(&mut user, max_ctis)
        .unwrap_or_else(|e| panic!("{}: session error: {e}", entry.name));
    assert_eq!(
        outcome,
        SessionOutcome::Proved,
        "{}: oracle session did not converge ({:?})",
        entry.name,
        session.stats()
    );
    let stats: SessionStats = session.stats();
    let i: usize = session
        .conjectures()
        .iter()
        .map(|x| x.formula.literal_count())
        .sum();
    // Independent re-verification of the found invariant.
    let verifier = ivy_core::Verifier::new(&entry.program);
    let verified = verifier
        .check(session.conjectures())
        .map(|r| r.is_inductive())
        .unwrap_or(false);
    Fig14Row {
        name: entry.name,
        s: entry.program.sig.sorts().len(),
        rf: entry.program.sig.symbol_count(),
        c,
        i,
        g: stats.ctis,
        verified,
        elapsed: start.elapsed(),
        paper: entry.paper,
    }
}

/// Times a closure, returning its result and the elapsed wall-clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}
