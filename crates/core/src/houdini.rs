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
//!
//! The initiation pass is a depth-0 `ReachScan` ([`crate::bmc`]), shared with
//! `infer`'s reachability filter through one helper that drops the
//! candidates a witness state falsifies. The consecution pass holds one
//! oracle handle over the one-step frame for every drop round.

use std::sync::Arc;

use ivy_epr::{EprError, EprOutcome};
use ivy_fol::Signature;
use ivy_rml::{project_state, unroll, unroll_free, Program, Unrolling};

use crate::bmc::ReachScan;
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

/// Runs Houdini on `candidates`, issuing every query through `oracle`: its
/// strategy governs how candidate sweeps run (incrementally or fresh), its
/// budget bounds every query (exhausting it aborts inference with
/// [`EprError::Inconclusive`] — a partial candidate set is never reported
/// as the strongest inductive invariant), and its frame-keyed session cache
/// is shared with any other engine holding the same oracle — e.g. the
/// initiation pass reuses [`Verifier`]'s initiation frame. The final
/// safety check runs on [`Verifier::check_safety`]'s own frame
/// (`base, inv:*`), not on the consecution pass's handle (`base, step`
/// with the candidates as hypothesis groups): asking it there would leave
/// the safety goals' Skolem constants in that pooled session for every
/// later tenant.
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

    // Initiation: drop every candidate some initial state falsifies, on a
    // depth-0 scan (the frame is the init unrolling, independent of the
    // candidate set, so one pass suffices).
    {
        let u = unroll(program, 0);
        let mut scan = ReachScan::open(oracle, &u.sig, &u)?;
        iterations += drop_reachable_violations(&mut scan, program, &u, 0, &mut set)?;
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

/// Drops from `set` every candidate falsified by some state reachable in
/// exactly `j` steps of `u`, the unrolling `scan` runs over, and returns
/// how many witness states that took. Each candidate's violation at depth
/// `j` is one goal; a SAT witness batch-drops everything false in its state,
/// the violated candidate included. The candidates before the hit were
/// just proven unviolable at depth `j`, so they hold in the witness and the
/// walk resumes in place. Houdini's initiation pass and `infer`'s
/// reachability filter both run on this.
pub(crate) fn drop_reachable_violations(
    scan: &mut ReachScan<'_>,
    program: &Program,
    u: &Unrolling,
    j: usize,
    set: &mut Vec<Conjecture>,
) -> Result<usize, EprError> {
    let map = &u.maps[j];
    let mut witnesses = 0;
    let mut i = 0;
    while i < set.len() {
        let Some(model) = scan.model_at(j, not_renamed(&set[i].formula, map))? else {
            i += 1;
            continue;
        };
        witnesses += 1;
        let state = project_state(&model, &program.sig, map);
        set.retain(|c| state.eval_closed(&c.formula).unwrap_or(false));
    }
    Ok(witnesses)
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
        let result = houdini_with_oracle(&p, candidates, &Arc::new(Oracle::new())).unwrap();
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
        let mut oracle = Oracle::new();
        oracle.set_budget(ivy_epr::Budget::UNLIMITED.with_max_conflicts(0));
        let err = houdini_with_oracle(&p, candidates, &Arc::new(oracle)).unwrap_err();
        assert!(
            matches!(
                err,
                ivy_epr::EprError::Inconclusive(ivy_epr::StopReason::ConflictBudget)
            ),
            "{err}"
        );
    }

    #[test]
    fn initiation_pass_shares_the_verifiers_initiation_frame() {
        let p = parse_program(SPREAD).unwrap();
        let oracle = Arc::new(Oracle::new());
        let result = houdini_with_oracle(&p, enumerate_candidates(&p.sig, 1, 1), &oracle).unwrap();
        let before = oracle.rollup();
        let v = Verifier::with_oracle(&p, oracle.clone());
        assert!(v.check_initiation(&result.invariant).unwrap().is_none());
        let after = oracle.rollup();
        assert_eq!(after.frame_misses, before.frame_misses);
        assert_eq!(after.frame_hits, before.frame_hits + 1);
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
        let candidates = enumerate_candidates(&p.sig, 1, 1);
        let result = houdini_with_oracle(&p, candidates, &Arc::new(Oracle::new())).unwrap();
        // "forall X. ~blue(X)" is in the template and survives.
        assert!(result
            .invariant
            .iter()
            .any(|c| c.formula.to_string().contains("~blue")));
    }
}
