//! Differential tests for incremental sessions: a sequence of queries run
//! through one [`EprSession`] (shared frame, assumption-guarded violations,
//! persistent learnt clauses and equality lemmas) must agree query-by-query
//! with a single-use [`EprSession`] built from scratch for each query.
//!
//! Queries are drawn from a fixed sentence pool via a deterministic bitmask
//! walk: the low half of the mask selects the persistent frame, the high
//! half selects the sequence of one-shot violations.

use ivy_epr::{EprOutcome, EprSession};
use ivy_fol::{parse_formula, Formula, Signature};

fn signature() -> Signature {
    let mut sig = Signature::new();
    sig.add_sort("s").unwrap();
    sig.add_sort("t").unwrap();
    sig.add_relation("r", ["s"]).unwrap();
    sig.add_relation("q", ["s", "t"]).unwrap();
    sig.add_function("f", ["s"], "t").unwrap();
    sig.add_constant("a", "s").unwrap();
    sig.add_constant("b", "s").unwrap();
    sig
}

/// Frame candidates: hypotheses that persist across a session's queries.
fn frame_pool() -> Vec<Formula> {
    [
        "r(a)",
        "a ~= b",
        "forall X:s. r(X) -> q(X, f(X))",
        "forall X:s, Y:s. f(X) = f(Y) -> X = Y",
        "forall X:s. q(X, f(X))",
        "f(a) = f(b)",
        "exists X:s, Y:s. X ~= Y",
        "forall X:s. r(X)",
    ]
    .iter()
    .map(|s| parse_formula(s).unwrap())
    .collect()
}

/// Violation candidates: asserted one at a time, retired after their query.
/// Several introduce Skolem constants, exercising universe growth between
/// queries of the same session.
fn violation_pool() -> Vec<Formula> {
    [
        "~r(b)",
        "a = b",
        "exists X:s. ~r(X)",
        "exists X:s. r(X) & X ~= a",
        "forall X:s, Y:s. X = Y",
        "f(a) ~= f(b)",
        "exists X:s, Y:t. q(X, Y) & Y ~= f(X)",
        "forall X:s, Y:t. ~q(X, Y)",
    ]
    .iter()
    .map(|s| parse_formula(s).unwrap())
    .collect()
}

/// The reference: one single-use session checking `frame ∪ {violation}`.
fn fresh_verdict(frame: &[Formula], violation: Option<&Formula>) -> EprOutcome {
    let mut q = EprSession::new(&signature()).unwrap();
    for (i, f) in frame.iter().enumerate() {
        q.assert_labeled(format!("h{i}"), f).unwrap();
    }
    if let Some(v) = violation {
        q.assert_labeled("violation", v).unwrap();
    }
    q.check()
}

#[test]
fn session_agrees_with_fresh_check_per_query() {
    let frames = frame_pool();
    let violations = violation_pool();
    for case in 0..96u32 {
        let mask = case.wrapping_mul(21139) % 65536;
        let frame: Vec<Formula> = frames
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| f.clone())
            .collect();
        let queries: Vec<Formula> = violations
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i + 8)) != 0)
            .map(|(_, f)| f.clone())
            .collect();

        let mut session = EprSession::new(&signature()).unwrap();
        for (i, f) in frame.iter().enumerate() {
            session.assert_labeled(format!("h{i}"), f).unwrap();
        }
        // The frame alone must agree with a fresh check of the frame.
        let base = session.check();
        assert_eq!(
            base.is_sat(),
            fresh_verdict(&frame, None).is_sat(),
            "frame-only disagreement on mask {mask}"
        );
        for v in &queries {
            let group = session.assert_labeled("violation", v).unwrap();
            let incremental = session.check();
            session.retire(group);
            let reference = fresh_verdict(&frame, Some(v));
            assert_eq!(
                incremental.is_sat(),
                reference.is_sat(),
                "session and fresh check disagree on mask {mask}, violation `{v}`"
            );
            match incremental {
                EprOutcome::Sat(model) => {
                    // The session's model satisfies the frame and the
                    // violation (evaluated independently).
                    for f in frame.iter().chain([v]) {
                        assert!(
                            model.structure.eval_closed(f).unwrap(),
                            "model violates `{f}` on mask {mask}; structure: {}",
                            model.structure
                        );
                    }
                }
                EprOutcome::Unsat(core) => {
                    // Core labels must refer to live groups, and the core
                    // itself must be unsatisfiable per a fresh check.
                    let core_frame: Vec<Formula> = core
                        .iter()
                        .filter_map(|label| {
                            label
                                .strip_prefix('h')
                                .and_then(|n| n.parse::<usize>().ok())
                                .map(|n| frame[n].clone())
                        })
                        .collect();
                    let core_violation = core.iter().any(|l| l == "violation").then_some(v);
                    assert!(
                        !fresh_verdict(&core_frame, core_violation).is_sat(),
                        "unsat core {core:?} is satisfiable on mask {mask}"
                    );
                }
                EprOutcome::Unknown(r) => {
                    panic!("unbudgeted query returned unknown ({r}) on mask {mask}")
                }
            }
        }
        // After retiring every violation the frame verdict is unchanged.
        let after = session.check();
        assert_eq!(
            after.is_sat(),
            base.is_sat(),
            "retiring violations changed the frame verdict on mask {mask}"
        );
    }
}
