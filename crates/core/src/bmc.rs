//! Bounded verification (Section 4.1 of the paper): `k`-invariance checking
//! and symbolic trace reconstruction.
//!
//! `k`-invariance bounds the number of loop iterations but *not* the state
//! size (Equation 3): a property found `k`-invariant holds in every state
//! reachable by at most `k` iterations, over rings/networks of any size.

use std::sync::Arc;

use ivy_epr::{Budget, EprError};
use ivy_fol::intern::{self, FormulaId};
use ivy_fol::{Formula, Structure};
use ivy_rml::{project_state, unroll, Program, Unrolling};

use crate::oracle::{sat_model, Frame, FrameSession, Goal, Oracle, QueryStrategy};
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
}

/// Bounded verification engine for one program.
#[derive(Clone, Debug)]
pub struct Bmc<'p> {
    program: &'p Program,
    oracle: Arc<Oracle>,
}

impl<'p> Bmc<'p> {
    /// Creates a BMC engine with its own default [`Oracle`] (incremental
    /// depth scanning via [`QueryStrategy::Session`]).
    pub fn new(program: &'p Program) -> Bmc<'p> {
        Bmc::with_oracle(program, Arc::new(Oracle::new()))
    }

    /// Creates a BMC engine issuing every query through `oracle` — sharing
    /// it with other engines shares the frame-keyed session cache too.
    pub fn with_oracle(program: &'p Program, oracle: Arc<Oracle>) -> Bmc<'p> {
        Bmc { program, oracle }
    }

    /// The engine's oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// Installs a resource budget applied to every underlying EPR query;
    /// exceeding it surfaces as [`EprError::Inconclusive`], never as a
    /// spurious "no trace up to depth k".
    pub fn set_budget(&mut self, budget: Budget) {
        Arc::make_mut(&mut self.oracle).set_budget(budget);
    }

    /// Caps grounding size per query (see
    /// [`ivy_epr::EprSession::set_instance_limit`]). In incremental mode the
    /// budget is cumulative per pooled session: it covers the unrolling's
    /// base, every step grounded so far, and the violations of every scan
    /// the session served (an exhausted recycled session is rebuilt
    /// transparently). A cold scan grounds steps only as it deepens, so a
    /// shallow violation is found within a budget too small for all `k`
    /// steps.
    pub fn set_instance_limit(&mut self, limit: u64) {
        Arc::make_mut(&mut self.oracle).set_instance_limit(limit);
    }

    /// Toggles incremental solving (on by default). Incremental checks hold
    /// one oracle session per call over one frame, the unrolling's base
    /// plus all `k` transition steps ([`Oracle::open_prefix`]). Depth `j`
    /// queries the frame prefix `base ∧ steps[0..j]`: on a cold session
    /// each step is grounded when the scan first reaches it, on a pooled
    /// one every step is already grounded and the deeper steps are merely
    /// masked. Every per-depth violation runs as a retirable assumption
    /// group, so learnt clauses carry across the whole depth-by-depth
    /// scan, and a scan that reached depth `k` leaves the grounded
    /// unrolling in the oracle's pool for the next call at the same depth.
    /// `false` re-solves every depth from scratch (the reference behavior,
    /// [`QueryStrategy::Fresh`]).
    pub fn set_incremental(&mut self, on: bool) {
        Arc::make_mut(&mut self.oracle).set_strategy(if on {
            QueryStrategy::Session
        } else {
            QueryStrategy::Fresh
        });
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
        let mut scan = self.open_scan(&u)?;
        for j in 0..=k {
            let bad = not_renamed(phi, &u.maps[j]);
            if let Some(model) = scan.solve_at(j, ("violation", bad))? {
                return Ok(Some(self.extract_trace(&u, j, &model, format!("~({phi})"))));
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
        let mut scan = self.open_scan(&u)?;
        // Aborts during init (no steps involved; depth 0).
        let false_id = intern::false_id();
        if u.init_error != false_id {
            if let Some(model) = scan.solve_at(0, ("abort", u.init_error))? {
                let mut trace = self.extract_trace(&u, 0, &model, String::new());
                trace.violated = "abort during init".into();
                return Ok(Some(trace));
            }
        }
        for j in 0..=k {
            // Safety properties at state j.
            for (label, phi) in &self.program.safety {
                let bad = not_renamed(phi, &u.maps[j]);
                if let Some(model) = scan.solve_at(j, ("violation", bad))? {
                    return Ok(Some(self.extract_trace(&u, j, &model, label.clone())));
                }
            }
            // Aborts inside the body step from state j.
            if j < u.step_errors.len() {
                for (action, err) in &u.step_errors[j] {
                    if *err == false_id {
                        continue;
                    }
                    if let Some(model) = scan.solve_at(j, ("abort", *err))? {
                        return Ok(Some(self.extract_trace(
                            &u,
                            j,
                            &model,
                            format!("abort in action `{action}`"),
                        )));
                    }
                }
            }
            // Aborts in the finalization command from state j.
            if u.final_errors[j] != false_id {
                let err = u.final_errors[j];
                if let Some(model) = scan.solve_at(j, ("abort", err))? {
                    return Ok(Some(self.extract_trace(
                        &u,
                        j,
                        &model,
                        "abort in final".to_string(),
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Opens the depth-scan handle over one frame: the unrolling base plus
    /// all `k` transition steps, with only the base active (see
    /// [`ReachScan::solve_at`]). Under [`QueryStrategy::Fresh`] the handle
    /// re-grounds per query — the reference behavior.
    fn open_scan(&self, u: &Unrolling) -> Result<ReachScan<'_>, EprError> {
        let mut frame = Frame::new(&u.sig);
        frame.push("base", u.base);
        for (i, step) in u.steps.iter().enumerate() {
            frame.push(format!("step{i}"), *step);
        }
        Ok(ReachScan {
            handle: self.oracle.open_prefix(&frame, 1)?,
        })
    }

    /// Projects the model onto loop-head states 0..=j and labels steps by
    /// evaluating each action's path formula in the model.
    fn extract_trace(&self, u: &Unrolling, j: usize, model: &Structure, violated: String) -> Trace {
        let mut states = Vec::with_capacity(j + 1);
        for map in u.maps.iter().take(j + 1) {
            states.push(project_state(model, &self.program.sig, map));
        }
        let mut actions = Vec::with_capacity(j);
        for step in u.step_paths.iter().take(j) {
            let name = step
                .iter()
                .find(|(_, f)| model.eval_closed(&intern::resolve(*f)).unwrap_or(false))
                .map(|(n, _)| n.clone())
                .unwrap_or_default();
            actions.push(name);
        }
        Trace {
            states,
            actions,
            violated,
        }
    }
}

/// The depth-scan state: one oracle handle over `base ∧ steps[0..k]`.
struct ReachScan<'o> {
    handle: FrameSession<'o>,
}

impl ReachScan<'_> {
    /// Solves `base ∧ steps[0..j] ∧ extra` by moving the handle's frame
    /// prefix to `j + 1`: a cold session grounds the next step, a pooled
    /// one only masks the deeper steps. Returns the model on SAT.
    fn solve_at(
        &mut self,
        j: usize,
        extra: (&str, FormulaId),
    ) -> Result<Option<Structure>, EprError> {
        self.handle.set_frame_prefix(j + 1)?;
        let outcome = self.handle.solve_goal(&Goal::new(extra.0, extra.1))?;
        Ok(sat_model(outcome)?.map(|m| m.structure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut bmc = Bmc::new(&p);
        bmc.set_budget(Budget::UNLIMITED.with_max_conflicts(0));
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
        let mut bmc = Bmc::new(&p);
        bmc.set_instance_limit(limit);
        let invariant = parse_formula("marked(seed)").unwrap();
        assert!(matches!(
            bmc.check_k_invariance(&invariant, 8),
            Err(EprError::TooManyInstances { .. })
        ));
        // The lazy scan still stops at depth 2 within it, cold and fresh.
        for incremental in [true, false] {
            let mut bmc = Bmc::new(&p);
            bmc.set_incremental(incremental);
            bmc.set_instance_limit(limit);
            let trace = bmc.check_k_invariance(&phi, 8).unwrap().unwrap();
            assert_eq!(trace.steps(), 2, "incremental: {incremental}");
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
        let mut fresh = Bmc::new(&p);
        fresh.set_incremental(false);
        assert_eq!(fresh.check_safety(3).unwrap().unwrap().steps(), 1);
    }

    #[test]
    fn early_exit_does_not_pool_a_partial_frame() {
        let p = spread();
        let bmc = Bmc::new(&p);
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        // The violation sits at depth 1 < k, so steps 2 and 3 are never
        // grounded and the session must not enter the pool.
        for round in 1..=2 {
            let trace = bmc.check_k_invariance(&phi, 3).unwrap().unwrap();
            assert_eq!(trace.steps(), 1);
            let rollup = bmc.oracle().rollup();
            assert_eq!(rollup.frame_hits, 0, "round {round}");
            assert_eq!(rollup.frame_misses, round);
            assert_eq!(rollup.sessions_built, round);
        }
        // A scan that reaches depth k pools its session for the next one.
        let invariant = parse_formula("marked(seed)").unwrap();
        assert!(bmc.check_k_invariance(&invariant, 3).unwrap().is_none());
        assert!(bmc.check_k_invariance(&phi, 3).unwrap().is_some());
        assert_eq!(bmc.oracle().rollup().frame_hits, 1);
    }

    #[test]
    fn non_incremental_mode_agrees() {
        let p = spread();
        let mut bmc = Bmc::new(&p);
        bmc.set_incremental(false);
        let phi = parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap();
        let trace = bmc.check_k_invariance(&phi, 3).unwrap().unwrap();
        assert_eq!(trace.steps(), 1);
        assert!(bmc
            .check_k_invariance(&parse_formula("marked(seed)").unwrap(), 3)
            .unwrap()
            .is_none());
    }
}
