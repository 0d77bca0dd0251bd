//! Unknown-verdict plumbing audit for bounded instantiation.
//!
//! Every engine routes its queries through the shared [`Oracle`]. When a
//! bounded run's SAT answer leaned on the instantiation bound, the
//! outcome is `Unknown(BoundReached)` — and every engine must surface
//! that to its caller as [`EprError::Inconclusive`], never as a verdict
//! ("inductive", "safe", a CTI, a trace). These tests drive each engine
//! over a model whose epoch-generator function keeps the term universe
//! permanently truncated, so every satisfiable query hits the bound.

use std::sync::Arc;

use ivy_core::{
    enumerate_candidates, houdini_with_oracle, infer, Bmc, Conjecture, Generalizer, InferOptions,
    Measure, Oracle, QueryStrategy, Verifier,
};
use ivy_epr::{EprError, InstantiationMode, StopReason};
use ivy_fol::{PartialStructure, Sort};
use ivy_rml::{check_program, parse_program, Program};

/// A non-EPR model (`f : t -> t` keeps the universe open) whose safety
/// is violated in one step: every engine's first SAT query is forced to
/// lean on the bound.
const OPEN_BREAK: &str = r#"
sort t
function f : t -> t
relation p : t
local x : t
safety all_p: forall X:t. p(X)
init { p(X0) := true }
action break { havoc x; p.remove(x) }
"#;

fn open_break() -> Program {
    let p = parse_program(OPEN_BREAK).unwrap();
    assert!(
        check_program(&p).iter().all(|e| e.is_fragment()),
        "only fragment problems expected"
    );
    p
}

fn bounded_oracle(depth: usize) -> Arc<Oracle> {
    let mut o = Oracle::new();
    o.set_mode(InstantiationMode::Bounded(depth));
    Arc::new(o)
}

fn assert_bound_reached<T: std::fmt::Debug>(engine: &str, r: Result<T, EprError>) {
    match r {
        Err(EprError::Inconclusive(StopReason::BoundReached)) => {}
        other => panic!("{engine}: expected Inconclusive(BoundReached), got {other:?}"),
    }
}

#[test]
fn verifier_reports_bound_reached_not_a_cti() {
    let p = open_break();
    let v = Verifier::with_oracle(&p, bounded_oracle(2));
    assert_bound_reached("verifier", v.check(&Conjecture::safety(&p)));
}

#[test]
fn minimal_cti_search_reports_bound_reached() {
    let p = open_break();
    let v = Verifier::with_oracle(&p, bounded_oracle(2));
    let measures = vec![Measure::SortSize(Sort::new("t"))];
    assert_bound_reached(
        "find_minimal_cti",
        v.find_minimal_cti(&Conjecture::safety(&p), &measures),
    );
}

#[test]
fn bmc_reports_bound_reached_not_a_trace() {
    let p = open_break();
    let bmc = Bmc::with_oracle(&p, bounded_oracle(2));
    assert_bound_reached("bmc", bmc.check_safety(1));
}

#[test]
fn houdini_reports_bound_reached_not_survivors() {
    let p = open_break();
    let oracle = bounded_oracle(2);
    let candidates = enumerate_candidates(&p.sig, 1, 1);
    assert_bound_reached("houdini", houdini_with_oracle(&p, candidates, &oracle));
}

#[test]
fn infer_reports_bound_reached_not_a_proof() {
    let p = open_break();
    let oracle = bounded_oracle(2);
    let opts = InferOptions {
        vars_per_sort: 1,
        max_literals: 1,
        ..InferOptions::default()
    };
    assert_bound_reached("infer", infer(&p, &oracle, &opts));
}

#[test]
fn generalizer_reports_bound_reached_not_a_conjecture() {
    let p = open_break();
    let g = Generalizer::with_oracle(&p, bounded_oracle(2));
    // An empty partial structure is the weakest upper bound: the
    // too-strong probe (is some excluded state reachable?) is a SAT
    // query whose answer leans on the bound.
    let upper = PartialStructure::new(Arc::new(p.sig.clone()));
    assert_bound_reached("generalize", g.auto_generalize(&upper, 1));
}

#[test]
fn instance_overflow_is_inconclusive_in_bounded_mode() {
    // The other bound-liveness path: exceeding the ground-instance
    // budget under a depth bound is an expected consequence of the dial,
    // so it degrades to Inconclusive(InstanceBudget) — exit 3 at the
    // CLI — instead of a hard TooManyInstances error.
    let p = open_break();
    let mut o = Oracle::new();
    o.set_mode(InstantiationMode::Bounded(2));
    o.set_instance_limit(1);
    let v = Verifier::with_oracle(&p, Arc::new(o));
    match v.check(&Conjecture::safety(&p)) {
        Err(EprError::Inconclusive(StopReason::InstanceBudget)) => {}
        other => panic!("expected Inconclusive(InstanceBudget), got {other:?}"),
    }
}

#[test]
fn fresh_strategy_degrades_identically() {
    let p = open_break();
    let mut o = Oracle::new();
    o.set_mode(InstantiationMode::Bounded(2));
    o.set_strategy(QueryStrategy::Fresh);
    let v = Verifier::with_oracle(&p, Arc::new(o));
    assert_bound_reached("verifier(fresh)", v.check(&Conjecture::safety(&p)));
}

#[test]
fn unsat_backed_verdicts_survive_the_bound() {
    // The flip side of the audit: a verdict that rests only on UNSAT
    // answers must NOT degrade. `p` starts full and `grow` only
    // inserts, so safety is inductive — refutations within the bounded
    // clause set are sound regardless of truncation.
    let src = r#"
sort t
function f : t -> t
relation p : t
local x : t
safety all_p: forall X:t. p(X)
init { p(X0) := true }
action grow { havoc x; p.insert(x) }
"#;
    let p = parse_program(src).unwrap();
    assert!(check_program(&p).iter().all(|e| e.is_fragment()));
    let v = Verifier::with_oracle(&p, bounded_oracle(2));
    assert!(v.check(&Conjecture::safety(&p)).unwrap().is_inductive());
}
