//! Houdini-style invariant inference (Flanagan & Leino), the technique the
//! paper reports using for the Chord proof: "we described a class of
//! formulas using a template, and used abstract interpretation to construct
//! the strongest inductive invariant in this class" (Section 5.1).
//!
//! Starting from a finite set of candidate universal clauses, repeatedly
//! drop every candidate falsified by an initiation counterexample or by the
//! successor state of a consecution CTI, until the surviving set is
//! inductive. The result is the strongest inductive invariant within the
//! candidate set; safety is then checked separately.

use std::sync::Arc;

use ivy_epr::{Budget, EprError, EprOutcome};
use ivy_fol::Signature;
use ivy_rml::{project_state, unroll, unroll_free, Program};

use crate::oracle::{Frame, FrameGroup, Goal, Oracle};
use crate::vc::{not_renamed, renamed_id, Conjecture, Verifier};

/// Result of a Houdini run.
#[derive(Clone, Debug)]
pub struct HoudiniResult {
    /// The strongest inductive subset of the candidates.
    pub invariant: Vec<Conjecture>,
    /// CTIs processed (each drops at least one candidate).
    pub iterations: usize,
    /// Whether the surviving invariant establishes the program's safety.
    pub proves_safety: bool,
}

/// Runs Houdini on `candidates`.
///
/// # Errors
///
/// Propagates [`EprError`].
pub fn houdini(
    program: &Program,
    candidates: Vec<Conjecture>,
    instance_limit: u64,
) -> Result<HoudiniResult, EprError> {
    houdini_budgeted(program, candidates, instance_limit, Budget::UNLIMITED)
}

/// [`houdini`] under a resource budget: every underlying query inherits the
/// deadline/conflict/instance caps, and exhausting them aborts inference
/// with [`EprError::Inconclusive`] — a partial candidate set is never
/// reported as the strongest inductive invariant.
///
/// # Errors
///
/// Propagates [`EprError`].
pub fn houdini_budgeted(
    program: &Program,
    candidates: Vec<Conjecture>,
    instance_limit: u64,
    budget: Budget,
) -> Result<HoudiniResult, EprError> {
    let mut oracle = Oracle::new();
    oracle.set_instance_limit(instance_limit);
    oracle.set_budget(budget);
    houdini_with_oracle(program, candidates, &Arc::new(oracle))
}

/// [`houdini`] issuing every query through `oracle`: its strategy governs
/// how candidate sweeps run (incrementally or fresh), and its frame-keyed
/// session cache is shared with any other
/// engine holding the same oracle — e.g. the final safety check reuses the
/// one-step frame grounded during consecution filtering.
///
/// # Errors
///
/// Propagates [`EprError`].
pub fn houdini_with_oracle(
    program: &Program,
    candidates: Vec<Conjecture>,
    oracle: &Arc<Oracle>,
) -> Result<HoudiniResult, EprError> {
    let mut set = candidates;
    let mut iterations = 0usize;

    // Initiation. Each query asks "can init violate this candidate?" — the
    // frame is just the init unrolling, independent of the candidate set, so
    // a single pass over the family suffices: a drop cannot invalidate an
    // earlier UNSAT answer. `done` counts the verified prefix; verified
    // candidates always survive a batch-drop (the witnessing state is an
    // init state, and their violations were just proven init-unsatisfiable),
    // so the scan resumes in place after each CTI.
    {
        let u = unroll(program, 0);
        let mut frame = Frame::new(&u.sig);
        frame.push("base", u.base);
        let mut done = 0;
        while done < set.len() {
            let found = oracle.first_sat(
                &frame,
                set.len() - done,
                |i| Goal::new("violation", not_renamed(&set[done + i].formula, &u.maps[0])),
                |i, model| (i, project_state(&model.structure, &program.sig, &u.maps[0])),
            )?;
            let Some((offset, state)) = found else {
                break;
            };
            iterations += 1;
            // Batch-drop everything false in the witnessing state (including
            // the violated candidate itself).
            set.retain(|c| state.eval_closed(&c.formula).unwrap_or(false));
            done += offset;
        }
    }

    // Consecution: one oracle handle across all drop-loop rounds. The base
    // and the transition step are grounded once; each candidate contributes
    // a hypothesis group at the pre-state (retired when the candidate
    // drops). Its post-state violation is probed as a per-query *goal*, not
    // a persistent group: a violation is existential, so keeping N of them
    // on the session would pile up N sets of Skolem constants and
    // re-instantiate every hypothesis over all of them, whereas goal groups
    // are retired immediately and the session recycles their Skolems — the
    // ground universe stays the size of one violation, as under fresh
    // grounding.
    {
        let u = unroll_free(program, 1);
        let mut frame = Frame::new(&u.sig);
        frame.push("base", u.base);
        frame.push("step", u.steps[0]);
        let mut h = oracle.open(&frame)?;
        let mut entries: Vec<(Conjecture, FrameGroup)> = Vec::new();
        for c in set.drain(..) {
            let hyp = h.assert(
                format!("inv:{}", c.name),
                renamed_id(&c.formula, &u.maps[0]),
            )?;
            entries.push((c, hyp));
        }
        let mut i = 0;
        while i < entries.len() {
            let bad = not_renamed(&entries[i].0.formula, &u.maps[1]);
            match h.solve_goal(&Goal::new("violation", bad))? {
                EprOutcome::Unsat(_) => i += 1,
                EprOutcome::Sat(model) => {
                    iterations += 1;
                    let successor = project_state(&model.structure, &program.sig, &u.maps[1]);
                    drop_nonpreserved(&mut entries, &successor, |hyp| h.retire(*hyp))?;
                    // Weaker hypotheses can newly admit CTIs for candidates
                    // already checked, so restart the pass (the fresh
                    // fixpoint does the same). Reaching the end therefore
                    // means a full clean pass: the set is inductive.
                    i = 0;
                }
                EprOutcome::Unknown(r) => return Err(EprError::Inconclusive(r)),
            }
        }
        set = entries.into_iter().map(|(c, _)| c).collect();
    }

    let verifier = Verifier::with_oracle(program, oracle.clone());
    let proves_safety = verifier.check_safety(&set)?.is_none();
    Ok(HoudiniResult {
        invariant: set,
        iterations,
        proves_safety,
    })
}

/// Batch-drops every candidate falsified by `successor` (the projected
/// post-state of a consecution CTI), retiring its hypothesis group. The CTI
/// must falsify at least one candidate for the drop loop to make progress;
/// when the projection to the program vocabulary loses the interpretations
/// that witnessed the violation (so nothing evaluates to false), inference
/// cannot continue and degrades to an inconclusive verdict rather than
/// looping or reporting a partial set as strongest.
fn drop_nonpreserved<G>(
    entries: &mut Vec<(Conjecture, G)>,
    successor: &ivy_fol::Structure,
    mut retire: impl FnMut(&G),
) -> Result<(), EprError> {
    let before = entries.len();
    entries.retain(|(c, hyp)| {
        if successor.eval_closed(&c.formula).unwrap_or(false) {
            true
        } else {
            retire(hyp);
            false
        }
    });
    if entries.len() == before {
        return Err(EprError::Inconclusive(ivy_epr::StopReason::ProjectionLoss));
    }
    Ok(())
}

/// Enumerates candidate universal clauses over a template: all disjunctions
/// of at most `max_literals` literals whose atoms use the given variables
/// (a fixed number per sort), relation symbols, equalities, and depth-1
/// function applications.
///
/// Template variables are named `V_SORT0`, `V_SORT1`, … (see
/// [`ivy_fol::template_var`]) — deliberately disjoint from the `NODE0`-style
/// names [`ivy_fol::diagram_var`] gives diagram variables — and clauses
/// that are alpha-variants of one another (equal up to permuting same-sort
/// variables) are emitted once.
///
/// The candidate count grows combinatorially; keep `vars_per_sort` and
/// `max_literals` small (2–3). The richer, incremental generator behind
/// `ivy infer` is [`crate::infer::generate_clauses`]; this entry point
/// keeps the original vocabulary (no constants, no nullary relations).
pub fn enumerate_candidates(
    sig: &Signature,
    vars_per_sort: usize,
    max_literals: usize,
) -> Vec<Conjecture> {
    crate::infer::generate_clauses(
        sig,
        &crate::infer::TemplateSpec::legacy(vars_per_sort, max_literals),
    )
}

/// Convenience: enumerate candidates and run Houdini.
///
/// # Errors
///
/// Propagates [`EprError`].
pub fn houdini_with_template(
    program: &Program,
    vars_per_sort: usize,
    max_literals: usize,
    instance_limit: u64,
) -> Result<HoudiniResult, EprError> {
    let candidates = enumerate_candidates(&program.sig, vars_per_sort, max_literals);
    houdini(program, candidates, instance_limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_rml::{check_program, parse_program};

    const SPREAD: &str = r#"
sort node
relation marked : node
relation blue : node
local n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed; blue(X0) := false }
action mark { havoc n; marked.insert(n) }
"#;

    #[test]
    fn houdini_finds_strongest_inductive_subset() {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty());
        let candidates = vec![
            Conjecture::new("good1", ivy_fol::parse_formula("marked(seed)").unwrap()),
            Conjecture::new(
                "good2",
                ivy_fol::parse_formula("forall X:node. ~blue(X)").unwrap(),
            ),
            // Not preserved: marking a second node kills it.
            Conjecture::new(
                "bad_consec",
                ivy_fol::parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y")
                    .unwrap(),
            ),
            // Not initial.
            Conjecture::new(
                "bad_init",
                ivy_fol::parse_formula("forall X:node. ~marked(X)").unwrap(),
            ),
        ];
        let result = houdini(&p, candidates, ivy_epr::DEFAULT_INSTANCE_LIMIT).unwrap();
        let names: Vec<&str> = result.invariant.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"good1"), "{names:?}");
        assert!(names.contains(&"good2"));
        assert!(!names.contains(&"bad_consec"));
        assert!(!names.contains(&"bad_init"));
        assert!(result.proves_safety);
        assert!(result.iterations >= 2);
    }

    #[test]
    fn exhausted_budget_is_inconclusive_not_a_proof() {
        // Houdini must not pass off a partially-filtered candidate set as
        // the strongest invariant when the budget trips mid-run.
        let p = parse_program(SPREAD).unwrap();
        let candidates = vec![Conjecture::new(
            "good1",
            ivy_fol::parse_formula("marked(seed)").unwrap(),
        )];
        let err = houdini_budgeted(
            &p,
            candidates,
            ivy_epr::DEFAULT_INSTANCE_LIMIT,
            ivy_epr::Budget::UNLIMITED.with_max_conflicts(0),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ivy_epr::EprError::Inconclusive(ivy_epr::StopReason::ConflictBudget)
            ),
            "{err}"
        );
    }

    #[test]
    fn lossy_projection_is_inconclusive_not_a_panic() {
        // Regression: the consecution drop pass used to `assert!` that the
        // projected successor falsifies some candidate and panicked when
        // the projection lost the interpretations witnessing the violation
        // (every candidate evaluating true, or erroring asymmetrically).
        // Simulate that partial-projection outcome directly: a successor
        // state in which the single candidate still evaluates to true.
        let p = parse_program(SPREAD).unwrap();
        let mut state = ivy_fol::Structure::new(std::sync::Arc::new(p.sig.clone()));
        let n0 = state.add_element("node");
        state.set_rel(ivy_fol::Sym::new("marked"), vec![n0.clone()], true);
        state.set_fun(ivy_fol::Sym::new("seed"), vec![], n0.clone());
        state.set_fun(ivy_fol::Sym::new("n"), vec![], n0);
        let mut entries = vec![(
            Conjecture::new("good1", ivy_fol::parse_formula("marked(seed)").unwrap()),
            (),
        )];
        let err = drop_nonpreserved(&mut entries, &state, |_| {}).unwrap_err();
        assert!(
            matches!(
                err,
                EprError::Inconclusive(ivy_epr::StopReason::ProjectionLoss)
            ),
            "{err}"
        );
        // The candidate set is left intact for the caller to report.
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn template_enumeration_is_well_sorted() {
        let p = parse_program(SPREAD).unwrap();
        let candidates = enumerate_candidates(&p.sig, 2, 2);
        assert!(!candidates.is_empty());
        for c in &candidates {
            c.formula
                .well_sorted(&p.sig, &std::collections::BTreeMap::new())
                .unwrap_or_else(|e| panic!("{}: {e}", c.formula));
            assert!(c.formula.is_closed());
        }
    }

    #[test]
    fn template_houdini_proves_spread_safety() {
        let p = parse_program(SPREAD).unwrap();
        // 1 variable per sort, 2 literals: enough for marked(seed) — which
        // needs the constant... constants do not appear in the template, so
        // safety is NOT provable from this template; Houdini still returns
        // the strongest inductive subset.
        let result = houdini_with_template(&p, 1, 1, ivy_epr::DEFAULT_INSTANCE_LIMIT).unwrap();
        // "forall X. ~blue(X)" is in the template and survives.
        assert!(result
            .invariant
            .iter()
            .any(|c| c.formula.to_string().contains("~blue")));
    }
}
