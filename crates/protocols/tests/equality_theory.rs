//! Equality runs inside the SAT search: transitivity and congruence lemmas
//! are emitted while the solver propagates, and a final check at every
//! full assignment re-examines the equality classes before a model is
//! returned. On the bundled protocols that check must never find anything
//! the search let through.

use ivy_core::{Conjecture, Measure, Verifier};
use ivy_protocols::{chord, db_chain, distributed_lock, leader, learning_switch, lock_server};
use ivy_rml::Program;

/// Proves `invariant`, then asks for a CTI of the invariant without its
/// last conjecture (minimized by `measures` when given), and returns the
/// merged per-query report of the verifier's oracle.
fn run(
    program: &Program,
    invariant: &[Conjecture],
    measures: Option<&[Measure]>,
) -> ivy_epr::QueryReport {
    let v = Verifier::new(program);
    assert!(v.check(invariant).unwrap().is_inductive());
    let weaker = &invariant[..invariant.len() - 1];
    match measures {
        Some(m) => {
            v.find_minimal_cti(weaker, m).unwrap();
        }
        None => {
            v.check(weaker).unwrap();
        }
    }
    v.oracle().rollup().report
}

#[test]
fn final_check_never_fires_on_bundled_protocols() {
    let runs = [
        (
            "leader",
            run(
                &leader::program(),
                &leader::invariant(),
                Some(&leader::measures()),
            ),
        ),
        (
            "lock_server",
            run(
                &lock_server::program(),
                &lock_server::invariant(),
                Some(&lock_server::measures()),
            ),
        ),
        (
            "db_chain",
            run(
                &db_chain::program(),
                &db_chain::invariant(),
                Some(&db_chain::measures()),
            ),
        ),
        ("chord", run(&chord::program(), &chord::invariant(), None)),
        (
            "distributed_lock",
            run(
                &distributed_lock::program(),
                &distributed_lock::invariant(),
                None,
            ),
        ),
        (
            "learning_switch",
            run(
                &learning_switch::program(),
                &learning_switch::invariant(),
                None,
            ),
        ),
    ];
    for (name, report) in &runs {
        assert!(report.queries > 0, "{name}: no query ran");
        assert_eq!(report.final_check_firings, 0, "{name}: {report:?}");
    }
    assert!(
        runs.iter().any(|(_, r)| r.equality_clauses > 0),
        "no protocol needed an equality lemma"
    );
}
