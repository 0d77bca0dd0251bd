//! Differential test for the incremental query machinery over the six
//! bundled evaluation protocols (Section 5.1): the `Fresh` and `Session`
//! strategies of the inductiveness checker must agree on every verdict and
//! name the same violation, and incremental BMC — cold, and
//! warm over a pooled unrolling — must agree with fresh per-depth BMC. This
//! is the end-to-end guarantee that solver-state reuse (shared frames,
//! assumption groups, learnt clauses, equality lemmas) never
//! changes an answer.

use std::sync::Arc;

use ivy_core::{Bmc, Conjecture, Inductiveness, Oracle, QueryStrategy, Trace, Verifier, Violation};
use ivy_fol::parse_formula;
use ivy_protocols::{evaluation, leader, Protocol};
use ivy_rml::Program;

fn check_with(program: &Program, strategy: QueryStrategy, inv: &[Conjecture]) -> Inductiveness {
    let mut oracle = Oracle::new();
    oracle.set_strategy(strategy);
    Verifier::with_oracle(program, Arc::new(oracle))
        .check(inv)
        .unwrap()
}

/// BMC over an oracle that re-solves every depth from scratch: the
/// reference path.
fn fresh_bmc(program: &Program) -> Bmc<'_> {
    let mut oracle = Oracle::new();
    oracle.set_strategy(QueryStrategy::Fresh);
    Bmc::with_oracle(program, Arc::new(oracle))
}

fn violation_of(result: &Inductiveness) -> Option<Violation> {
    match result {
        Inductiveness::Inductive => None,
        Inductiveness::Cti(cti) => Some(cti.violation.clone()),
    }
}

#[test]
fn strategies_agree_on_all_protocols() {
    for Protocol {
        name,
        program,
        invariant,
        ..
    } in evaluation()
    {
        // The bundled invariant is inductive: every strategy must prove it.
        // Dropping its last conjecture usually breaks inductiveness: every
        // strategy must then report the same violation.
        let mut weakened = invariant.clone();
        weakened.pop();
        for inv in [&invariant, &weakened] {
            let reference = check_with(&program, QueryStrategy::Fresh, inv);
            let got = check_with(&program, QueryStrategy::Session, inv);
            assert_eq!(
                violation_of(&reference),
                violation_of(&got),
                "{name}: Session disagrees with Fresh on {} conjectures",
                inv.len()
            );
        }
        assert!(
            check_with(&program, QueryStrategy::Session, &invariant).is_inductive(),
            "{name}: bundled invariant must verify"
        );
    }
}

#[test]
fn incremental_bmc_agrees_with_fresh() {
    for Protocol { name, program, .. } in evaluation() {
        let fresh = fresh_bmc(&program);
        let incremental = Bmc::new(&program);
        let k = 2;
        let f = fresh.check_safety(k).unwrap();
        let i = incremental.check_safety(k).unwrap();
        match (&f, &i) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.violated, b.violated, "{name}");
                assert_eq!(a.steps(), b.steps(), "{name}: trace depth differs");
            }
            _ => panic!("{name}: incremental BMC disagrees with fresh at k={k}"),
        }
        // k-invariance of each declared safety property.
        for (label, phi) in &program.safety {
            let f = fresh.check_k_invariance(phi, k).unwrap();
            let i = incremental.check_k_invariance(phi, k).unwrap();
            assert_eq!(
                f.as_ref().map(|t| t.steps()),
                i.as_ref().map(|t| t.steps()),
                "{name}: k-invariance of `{label}` differs"
            );
        }
    }
}

/// The parts of a BMC answer every strategy must agree on: the trace
/// depth and the violated label (`None` when safe).
fn bmc_answer(trace: Option<Trace>) -> Option<(usize, String)> {
    trace.map(|t| (t.steps(), t.violated))
}

#[test]
fn warm_bmc_agrees_with_fresh_and_cold() {
    let mut programs: Vec<(&str, Program)> = evaluation()
        .into_iter()
        .map(|p| (p.name, p.program))
        .collect();
    programs.push((
        "leader_without_unique_ids",
        leader::program_without_unique_ids(),
    ));
    let k = 2;
    let always = parse_formula("true").unwrap();
    for (name, program) in &programs {
        let fresh = fresh_bmc(program);
        let session = Bmc::new(program);
        let reference = bmc_answer(fresh.check_safety(k).unwrap());
        let cold = bmc_answer(session.check_safety(k).unwrap());
        assert_eq!(reference, cold, "{name}: cold session disagrees with Fresh");
        // A scan that stops early is not pooled; a k-invariance scan of
        // `true` reaches depth k and pools the whole unrolling, so the
        // next scan over the same frame runs warm.
        assert!(session.check_k_invariance(&always, k).unwrap().is_none());
        let before = session.oracle().rollup();
        let warm = bmc_answer(session.check_safety(k).unwrap());
        let after = session.oracle().rollup();
        assert_eq!(after.frame_hits, before.frame_hits + 1, "{name}: not warm");
        assert_eq!(after.sessions_built, before.sessions_built, "{name}");
        assert_eq!(reference, warm, "{name}: warm session disagrees with Fresh");
        for (label, phi) in &program.safety {
            let reference = fresh.check_k_invariance(phi, k).unwrap();
            let warm = session.check_k_invariance(phi, k).unwrap();
            assert_eq!(
                reference.map(|t| t.steps()),
                warm.map(|t| t.steps()),
                "{name}: warm k-invariance of `{label}` differs"
            );
        }
    }
}
