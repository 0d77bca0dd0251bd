//! Every counterexample to induction the verifier reports is checked here
//! by evaluation alone, sharing nothing with the grounding or the SAT
//! search that produced it: a CTI whose pre-state breaks a kept conjecture
//! or an axiom, satisfies the safety property it names, or whose successor
//! still satisfies the conjecture it names, would mean the solver returned
//! a model of something other than the query.

use ivy_core::{Conjecture, Inductiveness, Verifier, Violation};
use ivy_protocols::{chord, db_chain, distributed_lock, leader, learning_switch, lock_server};
use ivy_rml::Program;

/// What the drop-one checks of one protocol reported.
#[derive(Default)]
struct Found {
    /// Checks that reported a CTI.
    ctis: usize,
    /// Safety CTIs naming a declared safety property (not an abort).
    property_ctis: usize,
}

/// Drops each conjecture of `invariant` in turn and checks the rest on a
/// fresh verifier; counts the CTIs the checks reported.
fn check_drop_one_ctis(name: &str, program: &Program, invariant: &[Conjecture]) -> Found {
    let axiom = program.axiom();
    let holds = |state: &ivy_fol::Structure, f: &ivy_fol::Formula| {
        state
            .eval_closed(f)
            .unwrap_or_else(|e| panic!("{name}: cannot evaluate `{f}`: {e}"))
    };
    let mut found = Found::default();
    for dropped in 0..invariant.len() {
        let kept: Vec<Conjecture> = invariant
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != dropped)
            .map(|(_, c)| c.clone())
            .collect();
        let cti = match Verifier::new(program).check(&kept).unwrap() {
            Inductiveness::Inductive => continue,
            Inductiveness::Cti(cti) => cti,
        };
        found.ctis += 1;
        let without = &invariant[dropped].name;
        let what = format!("{name} without {without}: {}", cti.violation);
        assert!(holds(&cti.state, &axiom), "{what}: state breaks the axioms");
        let named = |conjecture: &str| {
            kept.iter()
                .find(|c| c.name == conjecture)
                .unwrap_or_else(|| panic!("{what}: names an unknown conjecture"))
        };
        match &cti.violation {
            Violation::Initiation { conjecture } => {
                assert!(
                    !holds(&cti.state, &named(conjecture).formula),
                    "{what}: the initial state satisfies the conjecture"
                );
            }
            Violation::Safety { .. } | Violation::Consecution { .. } => {
                for c in &kept {
                    assert!(
                        holds(&cti.state, &c.formula),
                        "{what}: pre-state breaks kept conjecture {}",
                        c.name
                    );
                }
            }
        }
        if let Violation::Safety { property } = &cti.violation {
            if let Some((_, phi)) = program.safety.iter().find(|(label, _)| label == property) {
                found.property_ctis += 1;
                assert!(
                    !holds(&cti.state, phi),
                    "{what}: the state satisfies the safety property"
                );
            }
        }
        if let Violation::Consecution { conjecture, .. } = &cti.violation {
            let successor = cti
                .successor
                .as_ref()
                .unwrap_or_else(|| panic!("{what}: no successor state"));
            assert!(
                holds(successor, &axiom),
                "{what}: successor breaks the axioms"
            );
            assert!(
                !holds(successor, &named(conjecture).formula),
                "{what}: successor satisfies the conjecture"
            );
        }
    }
    found
}

#[test]
fn drop_one_ctis_satisfy_the_kept_invariant_and_break_the_named_conjecture() {
    let runs = [
        ("leader", leader::program(), leader::invariant()),
        (
            "lock_server",
            lock_server::program(),
            lock_server::invariant(),
        ),
        (
            "distributed_lock",
            distributed_lock::program(),
            distributed_lock::invariant(),
        ),
        (
            "learning_switch",
            learning_switch::program(),
            learning_switch::invariant(),
        ),
        ("db_chain", db_chain::program(), db_chain::invariant()),
        ("chord", chord::program(), chord::invariant()),
    ];
    let mut property_ctis = 0;
    for (name, program, invariant) in &runs {
        let found = check_drop_one_ctis(name, program, invariant);
        assert!(found.ctis > 0, "{name}: no drop-one check found a CTI");
        property_ctis += found.property_ctis;
    }
    // The safety-property check above is not vacuous.
    assert!(
        property_ctis > 0,
        "no drop-one check failed a safety property"
    );
}
