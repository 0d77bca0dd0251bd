//! Differential suite: bounded instantiation at sufficient depth must
//! agree with full instantiation on every bundled EPR protocol.
//!
//! For a stratified signature the ground-term universe is finite; once
//! the depth bound exceeds its closure the bounded clause set *is* the
//! full clause set, nothing is truncated or skipped, and every verdict —
//! inductive and CTI alike — must be bit-for-bit the same answer the
//! full pipeline gives. Any divergence is a soundness bug in the
//! bounded pipeline, so this suite runs both modes over all six
//! protocols, with cold (per-check) and warm (pooled, repeated) oracles.
//!
//! The non-EPR `two_phase` protocol closes the loop the other way: full
//! mode must refuse it with a cycle-naming diagnostic, bounded mode must
//! prove it.

use std::sync::Arc;

use ivy_core::{Inductiveness, Oracle, Verifier};
use ivy_epr::InstantiationMode;
use ivy_protocols::{evaluation, two_phase, Protocol};

/// Deep enough that every stratified protocol's term universe closes
/// below the bound (function nesting in the six models is at most 2).
const SUFFICIENT_DEPTH: usize = 4;

fn oracle(mode: InstantiationMode) -> Arc<Oracle> {
    let mut o = Oracle::new();
    o.set_mode(mode);
    Arc::new(o)
}

/// A comparable verdict: CTI states may legitimately differ between
/// equal clause sets enumerated in different orders, but the verdict
/// kind and the violated conjecture may not.
fn verdict_tag(r: &Inductiveness) -> String {
    match r {
        Inductiveness::Inductive => "inductive".to_string(),
        Inductiveness::Cti(cti) => format!("cti:{}", cti.violation),
    }
}

#[test]
fn bounded_matches_full_on_all_protocols_cold_oracle() {
    for Protocol {
        name,
        program,
        invariant,
        ..
    } in evaluation()
    {
        for inv in [&invariant, &invariant[..1].to_vec()] {
            let full = Verifier::with_oracle(&program, oracle(InstantiationMode::Full))
                .check(inv)
                .unwrap_or_else(|e| panic!("{name}: full mode errored: {e}"));
            let bounded = Verifier::with_oracle(
                &program,
                oracle(InstantiationMode::Bounded(SUFFICIENT_DEPTH)),
            )
            .check(inv)
            .unwrap_or_else(|e| panic!("{name}: bounded mode errored: {e}"));
            assert_eq!(
                verdict_tag(&full),
                verdict_tag(&bounded),
                "{name}: bounded diverged from full on {} conjecture(s)",
                inv.len()
            );
        }
    }
}

#[test]
fn bounded_matches_full_on_all_protocols_warm_oracle() {
    // One pooled oracle per mode, shared across all protocols and
    // queried twice each: the second pass answers from warm frame-keyed
    // sessions and must not change a single verdict.
    let full_oracle = oracle(InstantiationMode::Full);
    let bounded_oracle = oracle(InstantiationMode::Bounded(SUFFICIENT_DEPTH));
    for pass in 0..2 {
        for Protocol {
            name,
            program,
            invariant,
            ..
        } in evaluation()
        {
            let full = Verifier::with_oracle(&program, full_oracle.clone())
                .check(&invariant)
                .unwrap_or_else(|e| panic!("{name} pass {pass}: full mode errored: {e}"));
            let bounded = Verifier::with_oracle(&program, bounded_oracle.clone())
                .check(&invariant)
                .unwrap_or_else(|e| panic!("{name} pass {pass}: bounded mode errored: {e}"));
            assert_eq!(
                verdict_tag(&full),
                verdict_tag(&bounded),
                "{name} pass {pass}: warm bounded diverged from full"
            );
            assert!(
                full.is_inductive(),
                "{name} pass {pass}: bundled invariant must verify"
            );
        }
    }
}

#[test]
fn two_phase_is_refused_by_full_and_proved_by_bounded() {
    let program = two_phase::program();
    let invariant = two_phase::invariant();
    let err = Verifier::with_oracle(&program, oracle(InstantiationMode::Full))
        .check(&invariant)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("not stratified") && msg.contains("epoch"),
        "full mode should name the cycle, got: {msg}"
    );
    let verdict = Verifier::with_oracle(
        &program,
        oracle(InstantiationMode::Bounded(two_phase::PROVE_BOUND)),
    )
    .check(&invariant)
    .unwrap();
    assert!(
        verdict.is_inductive(),
        "bounded mode should prove two_phase"
    );
}
