//! Bounded verification (Section 4.1 of the paper): `k`-invariance checking
//! and symbolic trace reconstruction.
//!
//! `k`-invariance bounds the number of loop iterations but *not* the state
//! size (Equation 3): a property found `k`-invariant holds in every state
//! reachable by at most `k` iterations, over rings/networks of any size.
//!
//! `ReachScan` is the one way the engines ask "is a state satisfying
//! this goal reachable in exactly `j` steps?": BMC, BMC + Auto Generalize
//! ([`crate::generalize`]), Houdini's initiation pass
//! ([`mod@crate::houdini`]) and `infer`'s reachability filter
//! ([`mod@crate::infer`]) all scan depths on one. Reading a model back into a
//! [`Trace`], naming the action a step took, and listing the safety cases
//! of a state live here too.

use std::sync::Arc;

use ivy_epr::{EprError, EprOutcome};
use ivy_fol::intern::{self, FormulaId};
use ivy_fol::{Formula, Signature, Structure};
use ivy_rml::{project_state, unroll, Program, Unrolling};

use crate::oracle::{sat_model, Frame, FrameSession, Goal, Oracle};
use crate::vc::not_renamed;

/// A concrete counterexample trace: the loop-head states of an execution,
/// labeled with the actions between them.
#[derive(Clone, Debug)]
pub struct Trace {
    /// States at the loop head, `states[0]` right after `init`.
    pub states: Vec<Structure>,
    /// `actions[i]` is the action taken between `states[i]` and
    /// `states[i+1]` (empty when reconstruction failed to label a step).
    pub actions: Vec<String>,
    /// What was violated (a safety label, a conjecture rendering, or
    /// `"abort"`).
    pub violated: String,
}

impl Trace {
    /// Number of loop iterations the trace executes.
    pub fn steps(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// Reads the trace of a model of `base ∧ steps[0..j]` of `u`: the
    /// loop-head states `0..=j` projected onto the program vocabulary, and
    /// each step labeled with the action it took.
    pub(crate) fn from_model(
        program: &Program,
        u: &Unrolling,
        j: usize,
        model: &Structure,
        violated: String,
    ) -> Trace {
        Trace {
            states: u.maps[..=j]
                .iter()
                .map(|map| project_state(model, &program.sig, map))
                .collect(),
            actions: (0..j).map(|i| step_action(u, i, model)).collect(),
            violated,
        }
    }
}

/// The action step `i` of `u` took in `model`: the first action whose path
/// formula the model satisfies (empty when none does).
pub(crate) fn step_action(u: &Unrolling, i: usize, model: &Structure) -> String {
    u.step_paths[i]
        .iter()
        .find(|(_, f)| model.eval_closed(&intern::resolve(*f)).unwrap_or(false))
        .map(|(n, _)| n.clone())
        .unwrap_or_default()
}

/// The violation cases of loop-head state `j` of `u`: each declared safety
/// property, then abort reachability through the body (when `u` has a step
/// from state `j`) and through the finalization command. Returns
/// `(label, bad formula)` pairs; the labels name what a trace or CTI
/// violated.
pub(crate) fn safety_cases(program: &Program, u: &Unrolling, j: usize) -> Vec<(String, FormulaId)> {
    let mut out: Vec<(String, FormulaId)> = program
        .safety
        .iter()
        .map(|(label, phi)| (label.clone(), not_renamed(phi, &u.maps[j])))
        .collect();
    let false_id = intern::false_id();
    for (action, err) in u.step_errors.get(j).into_iter().flatten() {
        if *err != false_id {
            out.push((format!("abort in action `{action}`"), *err));
        }
    }
    if u.final_errors[j] != false_id {
        out.push(("abort in final".into(), u.final_errors[j]));
    }
    out
}

/// Bounded verification engine for one program.
#[derive(Clone, Debug)]
pub struct Bmc<'p> {
    program: &'p Program,
    oracle: Arc<Oracle>,
}

impl<'p> Bmc<'p> {
    /// Creates a BMC engine with its own default [`Oracle`].
    pub fn new(program: &'p Program) -> Bmc<'p> {
        Bmc::with_oracle(program, Arc::new(Oracle::new()))
    }

    /// Creates a BMC engine issuing every query through `oracle` — sharing
    /// it with other engines shares the frame-keyed session cache too. An
    /// oracle set to [`crate::QueryStrategy::Fresh`] re-solves every depth
    /// from scratch (the reference behavior).
    ///
    /// The oracle's budget applies to every query; exhausting it surfaces
    /// as [`EprError::Inconclusive`], never as a spurious "no trace up to
    /// depth k". Its instance limit covers the unrolling's base and every
    /// step grounded so far: a cold scan grounds steps only as it deepens,
    /// so a shallow violation is found within a limit too small for all
    /// `k` steps.
    pub fn with_oracle(program: &'p Program, oracle: Arc<Oracle>) -> Bmc<'p> {
        Bmc { program, oracle }
    }

    /// The engine's oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// Checks whether `phi` is `k`-invariant: true in every state reachable
    /// at the loop head within `k` iterations (Equation 3 of the paper).
    /// Returns `None` when invariant, or a violating trace.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] (fragment violations, resource limits).
    pub fn check_k_invariance(&self, phi: &Formula, k: usize) -> Result<Option<Trace>, EprError> {
        let u = unroll(self.program, k);
        let mut scan = ReachScan::open(&self.oracle, &u.sig, &u)?;
        for j in 0..=k {
            if let Some(model) = scan.model_at(j, not_renamed(phi, &u.maps[j]))? {
                let msg = format!("~({phi})");
                return Ok(Some(Trace::from_model(self.program, &u, j, &model, msg)));
            }
        }
        Ok(None)
    }

    /// Checks all safety properties and abort reachability up to `k`
    /// iterations. Returns the first violating trace found, scanning depth
    /// by depth (so the trace is minimal in iteration count).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn check_safety(&self, k: usize) -> Result<Option<Trace>, EprError> {
        let u = unroll(self.program, k);
        let mut scan = ReachScan::open(&self.oracle, &u.sig, &u)?;
        // Aborts during init (no steps involved; depth 0).
        if u.init_error != intern::false_id() {
            if let Some(model) = scan.model_at(0, u.init_error)? {
                let msg = "abort during init".to_string();
                return Ok(Some(Trace::from_model(self.program, &u, 0, &model, msg)));
            }
        }
        for j in 0..=k {
            for (label, bad) in safety_cases(self.program, &u, j) {
                if let Some(model) = scan.model_at(j, bad)? {
                    return Ok(Some(Trace::from_model(self.program, &u, j, &model, label)));
                }
            }
        }
        Ok(None)
    }
}

/// A depth scan over one unrolling: one oracle handle over the frame
/// `base ∧ steps[0..k]`, opened at prefix 1, so depth `j` is queried at
/// prefix `j + 1` ([`crate::oracle::FrameSession::set_frame_prefix`]). Each
/// step is grounded when the scan first reaches it, unless a pooled
/// session from an earlier scan already holds it; steps beyond the queried
/// depth are merely masked. Every query runs as a retirable goal, so
/// learnt clauses carry across the whole scan, and every scan leaves the
/// steps it grounded in the oracle's pool for the next scan over the same
/// frame. Under [`crate::QueryStrategy::Fresh`] every query grounds
/// its prefix anew — the reference behavior.
pub(crate) struct ReachScan<'o> {
    handle: FrameSession<'o>,
}

impl<'o> ReachScan<'o> {
    /// Opens a scan over `u` on `sig` (`u.sig`, or an extension of it
    /// whose extra constants the goals mention).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] from grounding the base.
    pub(crate) fn open(
        oracle: &'o Oracle,
        sig: &Signature,
        u: &Unrolling,
    ) -> Result<ReachScan<'o>, EprError> {
        let mut frame = Frame::new(sig);
        frame.push("base", u.base);
        for (i, step) in u.steps.iter().enumerate() {
            frame.push(format!("step{i}"), *step);
        }
        Ok(ReachScan {
            handle: oracle.open_prefix(&frame, 1)?,
        })
    }

    /// Solves `base ∧ steps[0..j] ∧ goal`.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] from grounding the next step or the goal.
    pub(crate) fn solve_at(&mut self, j: usize, goal: &Goal) -> Result<EprOutcome, EprError> {
        self.handle.set_frame_prefix(j + 1)?;
        self.handle.solve_goal(goal)
    }

    /// Solves `base ∧ steps[0..j] ∧ bad` and returns the model on SAT.
    ///
    /// # Errors
    ///
    /// As for [`ReachScan::solve_at`]; a budget-exhausted query surfaces as
    /// [`EprError::Inconclusive`].
    pub(crate) fn model_at(
        &mut self,
        j: usize,
        bad: FormulaId,
    ) -> Result<Option<Structure>, EprError> {
        let outcome = self.solve_at(j, &Goal::new("violation", bad))?;
        Ok(sat_model(outcome)?.map(|m| m.structure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{configured, QueryStrategy};
    use ivy_epr::Budget;
    use ivy_fol::parse_formula;
    use ivy_rml::{check_program, parse_program};

    /// A counter-ish protocol: tokens spread from a seed; the (wrong)
    /// property "no two distinct marked nodes" is violated in 2 steps.
    const SPREAD: &str = r#"
sort node
relation marked : node
variable n : node
variable seed : node

init {
  marked(X0) := X0 = seed
}

action mark_one {
  havoc n;
  marked.insert(n)
}
"#;

    fn spread() -> Program {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty());
        p
    }

    #[test]
    fn invariant_property_reported_invariant() {
        let p = spread();
        let bmc = Bmc::new(&p);
        // "seed is always marked" is invariant at every depth.
        let phi = parse_formula("marked(seed)").unwrap();
        assert!(bmc.check_k_invariance(&phi, 3).unwrap().is_none());
    }

    #[test]
    fn exhausted_budget_is_inconclusive_not_invariant() {
        // With the budget exhausted, the invariant property above must NOT
        // be reported "invariant up to depth k": a budgeted None from the
        // solver surfaces as Inconclusive, never as a bound.
        let p = spread();
        let bmc = Bmc::with_oracle(
            &p,
            configured(|o| o.set_budget(Budget::UNLIMITED.with_max_conflicts(0))),
        );
        let phi = parse_formula("marked(seed)").unwrap();
        let err = bmc.check_k_invariance(&phi, 3).unwrap_err();
        assert!(
            matches!(
                err,
                EprError::Inconclusive(ivy_epr::StopReason::ConflictBudget)
            ),
            "{err}"
        );
    }

    #[test]
    fn violated_property_yields_trace() {
        let p = spread();
        let bmc = Bmc::new(&p);
        // "at most one marked node" breaks within 1 step (marking a second
        // node).
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        let trace = bmc.check_k_invariance(&phi, 3).unwrap().unwrap();
        assert!(trace.steps() >= 1 && trace.steps() <= 3);
        // The final state really violates the property; earlier ones do not.
        let last = trace.states.last().unwrap();
        assert!(!last.eval_closed(&phi).unwrap());
        assert!(trace.states[0].eval_closed(&phi).unwrap());
        // Steps are labeled with the only action.
        assert!(trace.actions.iter().all(|a| a == "mark_one"));
    }

    #[test]
    fn trace_replays_in_interpreter() {
        let p = spread();
        let bmc = Bmc::new(&p);
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        let trace = bmc.check_k_invariance(&phi, 2).unwrap().unwrap();
        // Each consecutive state pair must be reachable via exec_all of the
        // named action.
        let axiom = p.axiom();
        for i in 0..trace.steps() {
            let action = p.action(&trace.actions[i]).unwrap();
            let outcomes = ivy_rml::exec_all(&axiom, &action.cmd, &trace.states[i]).unwrap();
            let reached = outcomes.iter().any(|o| match o {
                ivy_rml::ExecOutcome::Done(s) => s == &trace.states[i + 1],
                _ => false,
            });
            assert!(reached, "step {i} does not replay concretely");
        }
    }

    #[test]
    fn safety_check_finds_assert_violation() {
        let src = format!(
            "{SPREAD}\nsafety at_most_one: forall X:node, Y:node. marked(X) & marked(Y) -> X = Y\n"
        );
        let p = parse_program(&src).unwrap();
        assert!(check_program(&p).is_empty());
        let bmc = Bmc::new(&p);
        let trace = bmc.check_safety(4).unwrap().unwrap();
        assert_eq!(trace.violated, "at_most_one");
        assert_eq!(trace.steps(), 1, "minimal depth reported first");
    }

    #[test]
    fn abort_in_action_detected() {
        let src = r#"
sort node
relation marked : node
variable n : node
init { marked(X0) := false }
action mark { havoc n; marked.insert(n) }
action check { assert forall X:node. ~marked(X) }
"#;
        let p = parse_program(src).unwrap();
        assert!(check_program(&p).is_empty());
        let bmc = Bmc::new(&p);
        let trace = bmc.check_safety(3).unwrap().unwrap();
        assert!(trace.violated.contains("check"), "{}", trace.violated);
    }

    #[test]
    fn safe_program_passes_bmc() {
        let src = r#"
sort node
relation marked : node
variable seed : node
variable n : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed }
action mark { havoc n; marked.insert(n) }
"#;
        let p = parse_program(src).unwrap();
        assert!(check_program(&p).is_empty());
        let bmc = Bmc::new(&p);
        assert!(bmc.check_safety(4).unwrap().is_none());
    }

    /// "At most two marked nodes": violated after two `mark_one` steps.
    const AT_MOST_TWO: &str = "forall X:node, Y:node, Z:node. \
         marked(X) & marked(Y) & marked(Z) -> X = Y | X = Z | Y = Z";

    #[test]
    fn cold_scan_grounds_only_the_steps_it_reaches() {
        let p = spread();
        let phi = parse_formula(AT_MOST_TWO).unwrap();
        // Calibrate: the whole cold scan to the depth-2 violation, with
        // steps beyond it never grounded.
        let probe = Bmc::new(&p);
        let trace = probe.check_k_invariance(&phi, 8).unwrap().unwrap();
        assert_eq!(trace.steps(), 2);
        let limit = probe.oracle().rollup().report.instances;
        // That budget admits base plus two steps but not base plus eight:
        // a scan that must reach depth 8 overflows it.
        let bmc = Bmc::with_oracle(&p, configured(|o| o.set_instance_limit(limit)));
        let invariant = parse_formula("marked(seed)").unwrap();
        assert!(matches!(
            bmc.check_k_invariance(&invariant, 8),
            Err(EprError::TooManyInstances { .. })
        ));
        // The lazy scan still stops at depth 2 within it, cold and fresh.
        for strategy in [QueryStrategy::Session, QueryStrategy::Fresh] {
            let oracle = configured(|o| {
                o.set_strategy(strategy);
                o.set_instance_limit(limit);
            });
            let bmc = Bmc::with_oracle(&p, oracle);
            let trace = bmc.check_k_invariance(&phi, 8).unwrap().unwrap();
            assert_eq!(trace.steps(), 2, "{strategy:?}");
        }
    }

    #[test]
    fn warm_scan_masks_steps_beyond_the_queried_depth() {
        // The only action deadlocks once a second node is marked, so the
        // depth-1 violation has no successor state: a query at depth 1
        // that left step 2 enabled would miss it and report depth 2.
        let src = r#"
sort node
relation marked : node
variable n : node
variable seed : node
safety at_most_one: forall X:node, Y:node. marked(X) & marked(Y) -> X = Y
init { marked(X0) := X0 = seed }
action mark_one {
  assume forall X:node. marked(X) -> X = seed;
  havoc n;
  marked.insert(n)
}
"#;
        let p = parse_program(src).unwrap();
        assert!(check_program(&p).is_empty());
        let bmc = Bmc::new(&p);
        // Pool the full three-step frame through a scan that never stops
        // early.
        let seed_marked = parse_formula("marked(seed)").unwrap();
        assert!(bmc.check_k_invariance(&seed_marked, 3).unwrap().is_none());
        let before = bmc.oracle().rollup();
        let trace = bmc.check_safety(3).unwrap().unwrap();
        let after = bmc.oracle().rollup();
        assert_eq!(after.frame_hits, before.frame_hits + 1, "warm scan");
        assert_eq!(after.sessions_built, before.sessions_built);
        assert_eq!(trace.violated, "at_most_one");
        assert_eq!(trace.steps(), 1);
        let fresh = Bmc::with_oracle(&p, configured(|o| o.set_strategy(QueryStrategy::Fresh)));
        assert_eq!(fresh.check_safety(3).unwrap().unwrap().steps(), 1);
    }

    #[test]
    fn early_exit_pools_its_grounded_prefix() {
        let p = spread();
        let bmc = Bmc::new(&p);
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        // The violation sits at depth 1 < k, so steps 2 and 3 are never
        // grounded; the session enters the pool with the prefix it has.
        for round in 1..=2 {
            let trace = bmc.check_k_invariance(&phi, 3).unwrap().unwrap();
            assert_eq!(trace.steps(), 1);
            let rollup = bmc.oracle().rollup();
            // Round 2 hits the pooled prefix and builds no session.
            assert_eq!(rollup.frame_hits, round - 1, "round {round}");
            assert_eq!(rollup.frame_misses, 1);
            assert_eq!(rollup.sessions_built, 1);
        }
        // A scan that reaches depth k grounds the missing steps on the
        // pooled session, and the next scan reuses the whole frame.
        let invariant = parse_formula("marked(seed)").unwrap();
        assert!(bmc.check_k_invariance(&invariant, 3).unwrap().is_none());
        assert!(bmc.check_k_invariance(&phi, 3).unwrap().is_some());
        let rollup = bmc.oracle().rollup();
        assert_eq!(rollup.frame_hits, 3);
        assert_eq!(rollup.sessions_built, 1);
    }

    #[test]
    fn non_incremental_mode_agrees() {
        let p = spread();
        let bmc = Bmc::with_oracle(&p, configured(|o| o.set_strategy(QueryStrategy::Fresh)));
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        let trace = bmc.check_k_invariance(&phi, 3).unwrap().unwrap();
        assert_eq!(trace.steps(), 1);
        assert!(bmc
            .check_k_invariance(&parse_formula("marked(seed)").unwrap(), 3)
            .unwrap()
            .is_none());
    }
}
