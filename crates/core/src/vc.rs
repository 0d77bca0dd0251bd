//! Inductive-invariant checking (Equation 2 of the paper) and
//! counterexamples to induction (CTIs).
//!
//! A candidate invariant is a set of universally quantified *conjectures*.
//! Checking is decidable (Theorem 3.3); on failure a finite CTI state is
//! produced: a state satisfying the axioms and every conjecture that either
//! violates safety, or steps to a state violating some conjecture.
//!
//! Every query goes through the crate's solver [`Oracle`]: the three
//! inductiveness conditions are three query families — a frame (base,
//! invariant hypotheses, transition step) plus one violation goal per
//! conjecture or safety case — and the oracle decides how to discharge
//! them (fresh, or frame-cached session). Safety (`A ∧ I ⇒ ¬bad`) and
//! consecution (`A ∧ I ∧ TR ⇒ I'`) share the hypothesis `A ∧ I`, so
//! [`Verifier::check`] asks both on one handle over the consecution frame
//! `base, inv:*, step`: the safety cases with `step` masked, then the
//! consecution goals with it grounded on top, so `A ∧ I` is grounded once.

use std::fmt;
use std::sync::{Arc, OnceLock};

use ivy_epr::EprError;
use ivy_fol::intern::{FormulaId, Interner};
use ivy_fol::{Formula, Structure};
use ivy_rml::{project_state, unroll, unroll_free, Program, SymMap, Unrolling};

use crate::bmc::{safety_cases, step_action};
use crate::oracle::{sat_model, Frame, FrameSession, Goal, Oracle};

/// Interns `phi` renamed through `map` — the pervasive "conjecture at a
/// vocabulary" operation. Renames are memoized in the interner, so repeated
/// calls over the same conjecture/map pair are cheap.
pub(crate) fn renamed_id(phi: &Formula, map: &SymMap) -> FormulaId {
    Interner::with(|it| {
        let f = it.intern(phi);
        it.rename_symbols(f, map)
    })
}

/// `¬(phi[map])`, interned: the violation formula of a conjecture.
pub(crate) fn not_renamed(phi: &Formula, map: &SymMap) -> FormulaId {
    Interner::with(|it| {
        let f = it.intern(phi);
        let r = it.rename_symbols(f, map);
        it.not(r)
    })
}

/// A named conjecture of the candidate invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conjecture {
    /// Display name (e.g. `C1`).
    pub name: String,
    /// The universally quantified formula.
    pub formula: Formula,
}

impl Conjecture {
    /// Creates a conjecture.
    pub fn new(name: impl Into<String>, formula: Formula) -> Self {
        Conjecture {
            name: name.into(),
            formula,
        }
    }

    /// The model's safety properties, each under its own label: the
    /// invariant to check when the caller names none.
    pub fn safety(program: &Program) -> Vec<Conjecture> {
        program
            .safety
            .iter()
            .map(|(l, f)| Conjecture::new(l.clone(), f.clone()))
            .collect()
    }
}

impl fmt::Display for Conjecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.formula)
    }
}

/// Which inductiveness condition a CTI violates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An initial state violates the named conjecture.
    Initiation {
        /// The conjecture failing initiation.
        conjecture: String,
    },
    /// A state satisfying the invariant violates the named safety property
    /// (or reaches an abort, named `"abort in ..."`).
    Safety {
        /// The failing property.
        property: String,
    },
    /// A state satisfying the invariant steps (via `action`) to a state
    /// violating the named conjecture.
    Consecution {
        /// The conjecture broken in the successor state.
        conjecture: String,
        /// The action taken.
        action: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Initiation { conjecture } => {
                write!(f, "initiation of `{conjecture}` fails")
            }
            Violation::Safety { property } => write!(f, "safety `{property}` fails"),
            Violation::Consecution { conjecture, action } => write!(
                f,
                "consecution of `{conjecture}` fails via action `{action}`"
            ),
        }
    }
}

/// A counterexample to induction.
#[derive(Clone, Debug)]
pub struct Cti {
    /// The offending state (for initiation: the post-init state).
    pub state: Structure,
    /// The successor state, for consecution violations (the paper's `(a2)`
    /// displays).
    pub successor: Option<Structure>,
    /// What failed.
    pub violation: Violation,
}

/// Result of an inductiveness check.
#[derive(Clone, Debug)]
pub enum Inductiveness {
    /// All three conditions hold: the conjunction is an inductive invariant
    /// and the program is safe.
    Inductive,
    /// A counterexample to induction.
    Cti(Box<Cti>),
}

impl Inductiveness {
    /// Whether the candidate was proven inductive.
    pub fn is_inductive(&self) -> bool {
        matches!(self, Inductiveness::Inductive)
    }
}

/// The inductiveness checker for one program.
#[derive(Clone, Debug)]
pub struct Verifier<'p> {
    program: &'p Program,
    oracle: Arc<Oracle>,
    /// The depth-0 unrolling (initiation queries), compiled on first use.
    init: OnceLock<Unrolling>,
    /// The free one-step unrolling shared by the safety, consecution and
    /// minimal-CTI queries, compiled on first use. Interned ids are
    /// hash-consed, so a rebuilt copy would be identical.
    one_step: OnceLock<Unrolling>,
}

impl<'p> Verifier<'p> {
    /// Creates a verifier with its own default [`Oracle`].
    pub fn new(program: &'p Program) -> Verifier<'p> {
        Verifier::with_oracle(program, Arc::new(Oracle::new()))
    }

    /// Creates a verifier issuing every query through `oracle` — sharing it
    /// with other engines shares the frame-keyed session cache too.
    pub fn with_oracle(program: &'p Program, oracle: Arc<Oracle>) -> Verifier<'p> {
        Verifier {
            program,
            oracle,
            init: OnceLock::new(),
            one_step: OnceLock::new(),
        }
    }

    /// The program under verification.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The depth-0 unrolling: axioms plus the init transition.
    fn init_unrolling(&self) -> &Unrolling {
        self.init.get_or_init(|| unroll(self.program, 0))
    }

    /// The one-step unrolling from an arbitrary axiom-satisfying state.
    fn one_step_unrolling(&self) -> &Unrolling {
        self.one_step.get_or_init(|| unroll_free(self.program, 1))
    }

    /// The verifier's oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// Checks whether the conjunction of `conjectures` is an inductive
    /// invariant establishing the program's safety (Equation 2):
    /// initiation, safety, and consecution — in that order, returning the
    /// first CTI found.
    ///
    /// Initiation runs on its own frame (the depth-0 unrolling). Safety
    /// and consecution run on one handle over the consecution frame
    /// `base, inv:*, step`, opened at the prefix `base, inv:*` for the
    /// safety cases and extended by `step` for the consecution goals — the
    /// prefix scan [`crate::Bmc`] runs over its unrolling — so the shared
    /// `A ∧ I` is grounded once per check, and a check that stops at a
    /// safety CTI pools its grounded prefix for the next one.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] (e.g. a conjecture outside `∀*∃*` makes the
    /// consecution query leave EPR).
    pub fn check(&self, conjectures: &[Conjecture]) -> Result<Inductiveness, EprError> {
        if let Some(cti) = self.check_initiation(conjectures)? {
            return Ok(Inductiveness::Cti(Box::new(cti)));
        }
        let u = self.one_step_unrolling();
        let frame = self.consecution_frame(u, conjectures);
        let with_step = frame.asserts().len();
        let mut handle = self.oracle.open_prefix(&frame, with_step - 1)?;
        let mut cti = self.first_safety_cti(&mut handle, u)?;
        if cti.is_none() {
            handle.set_frame_prefix(with_step)?;
            cti = self.first_consecution_cti(&mut handle, u, conjectures)?;
        }
        Ok(cti.map_or(Inductiveness::Inductive, |cti| {
            Inductiveness::Cti(Box::new(cti))
        }))
    }

    /// Checks `A ⇒ wp(C_init, ϕ)` for each conjecture.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn check_initiation(&self, conjectures: &[Conjecture]) -> Result<Option<Cti>, EprError> {
        let u = self.init_unrolling();
        let frame = init_frame(u);
        self.oracle.first_sat(
            &frame,
            conjectures.len(),
            |i| {
                Goal::new(
                    "violation",
                    not_renamed(&conjectures[i].formula, &u.maps[0]),
                )
            },
            |i, model| Cti {
                state: project_state(&model.structure, &self.program.sig, &u.maps[0]),
                successor: None,
                violation: Violation::Initiation {
                    conjecture: conjectures[i].name.clone(),
                },
            },
        )
    }

    /// Checks that invariant states satisfy the safety properties and cannot
    /// abort (via the body or the finalization command).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn check_safety(&self, conjectures: &[Conjecture]) -> Result<Option<Cti>, EprError> {
        let u = self.one_step_unrolling();
        let mut handle = self.oracle.open(&self.invariant_frame(u, conjectures))?;
        self.first_safety_cti(&mut handle, u)
    }

    /// Checks `A ∧ I ⇒ wp(C_body, ϕ)` for each conjecture `ϕ` of `I`.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn check_consecution(&self, conjectures: &[Conjecture]) -> Result<Option<Cti>, EprError> {
        let u = self.one_step_unrolling();
        let mut handle = self.oracle.open(&self.consecution_frame(u, conjectures))?;
        self.first_consecution_cti(&mut handle, u, conjectures)
    }

    /// The lowest-index safety case of `u`'s pre-state satisfiable on
    /// `handle` (whose active frame is `A ∧ I`), as a CTI.
    fn first_safety_cti(
        &self,
        handle: &mut FrameSession<'_>,
        u: &Unrolling,
    ) -> Result<Option<Cti>, EprError> {
        let cases = safety_cases(self.program, u, 0);
        handle.first_sat(
            cases.len(),
            |i| Goal::new("violation", cases[i].1),
            |i, model| Cti {
                state: project_state(&model.structure, &self.program.sig, &u.maps[0]),
                successor: None,
                violation: Violation::Safety {
                    property: cases[i].0.clone(),
                },
            },
        )
    }

    /// The lowest-index conjecture violated after one step on `handle`
    /// (whose active frame is `A ∧ I ∧ TR`), as a CTI.
    fn first_consecution_cti(
        &self,
        handle: &mut FrameSession<'_>,
        u: &Unrolling,
        conjectures: &[Conjecture],
    ) -> Result<Option<Cti>, EprError> {
        handle.first_sat(
            conjectures.len(),
            |i| {
                Goal::new(
                    "violation",
                    not_renamed(&conjectures[i].formula, &u.maps[1]),
                )
            },
            |i, model| self.consecution_cti(u, &conjectures[i], &model.structure),
        )
    }

    /// Builds the two-state CTI for a consecution violation from a model of
    /// the step query, labeling the step with the action whose path formula
    /// the model satisfies.
    fn consecution_cti(&self, u: &Unrolling, c: &Conjecture, model: &Structure) -> Cti {
        Cti {
            state: project_state(model, &self.program.sig, &u.maps[0]),
            successor: Some(project_state(model, &self.program.sig, &u.maps[1])),
            violation: Violation::Consecution {
                conjecture: c.name.clone(),
                action: step_action(u, 0, model),
            },
        }
    }

    /// Opens a persistent handle for re-solving one specific violation
    /// under varying extra constraints — the workhorse of minimal-CTI search
    /// (Algorithm 1). The frame is that of the check
    /// [`Verifier::find_minimal_cti`] found the CTI with
    /// ([`Verifier::check_initiation`], [`Verifier::check_safety`] or
    /// [`Verifier::check_consecution`]), so under
    /// [`crate::QueryStrategy::Session`] the descent recycles the very
    /// grounding that found the CTI. The violation rides on top as a handle
    /// group; each [`ViolationSession::solve`] call only adds the candidate
    /// constraint as a retirable group. Each query runs under the oracle's
    /// budget with its conflict cap lowered to `max_conflicts`.
    /// Returns `None` when the violation does not name a known safety case.
    pub(crate) fn violation_session(
        &self,
        conjectures: &[Conjecture],
        violation: &Violation,
        max_conflicts: u64,
    ) -> Result<Option<ViolationSession<'p, '_>>, EprError> {
        let (u, frame, bad) = match violation {
            Violation::Initiation { conjecture } => {
                let u = self.init_unrolling();
                let frame = init_frame(u);
                let bad = not_renamed(&find_formula(conjectures, conjecture), &u.maps[0]);
                (u, frame, bad)
            }
            Violation::Safety { property } => {
                let u = self.one_step_unrolling();
                let Some((_, bad)) = safety_cases(self.program, u, 0)
                    .into_iter()
                    .find(|(label, _)| label == property)
                else {
                    return Ok(None);
                };
                let frame = self.invariant_frame(u, conjectures);
                (u, frame, bad)
            }
            Violation::Consecution { conjecture, .. } => {
                let u = self.one_step_unrolling();
                let frame = self.consecution_frame(u, conjectures);
                let bad = not_renamed(&find_formula(conjectures, conjecture), &u.maps[1]);
                (u, frame, bad)
            }
        };
        let mut handle = self.oracle.open(&frame)?;
        let mut budget = self.oracle.budget();
        budget.max_conflicts = Some(
            budget
                .max_conflicts
                .map_or(max_conflicts, |c| c.min(max_conflicts)),
        );
        handle.set_budget(budget);
        handle.assert("violation", bad)?;
        Ok(Some(ViolationSession {
            program: self.program,
            u,
            handle,
            violation: violation.clone(),
        }))
    }

    /// The shared one-step frame: the unrolling base plus every invariant
    /// conjunct as a hypothesis at the pre-state vocabulary.
    fn invariant_frame(&self, u: &Unrolling, conjectures: &[Conjecture]) -> Frame {
        let mut frame = Frame::new(&u.sig);
        frame.push("base", u.base);
        for c in conjectures {
            frame.push(
                format!("inv:{}", c.name),
                renamed_id(&c.formula, &u.maps[0]),
            );
        }
        frame
    }

    /// The consecution frame: the invariant frame plus the transition step,
    /// which every conjecture's query shares, so it is frame, not goal.
    fn consecution_frame(&self, u: &Unrolling, conjectures: &[Conjecture]) -> Frame {
        let mut frame = self.invariant_frame(u, conjectures);
        frame.push("step", u.steps[0]);
        frame
    }
}

/// The initiation frame: just the depth-0 unrolling base.
fn init_frame(u: &Unrolling) -> Frame {
    let mut frame = Frame::new(&u.sig);
    frame.push("base", u.base);
    frame
}

/// An incremental re-solver for one fixed violation (see
/// [`Verifier::violation_session`]).
pub(crate) struct ViolationSession<'p, 'o> {
    program: &'p Program,
    u: &'o Unrolling,
    handle: FrameSession<'o>,
    violation: Violation,
}

impl ViolationSession<'_, '_> {
    /// Re-solves the violation with `extra` constraints (over the base
    /// vocabulary) conjoined at the CTI state. The constraint group is
    /// retired afterwards — also on an error, so the handle survives
    /// best-effort budgeted queries.
    pub(crate) fn solve(&mut self, extra: &[Formula]) -> Result<Option<Cti>, EprError> {
        let state_map = &self.u.maps[0];
        let constraint = Interner::with(|it| {
            let parts: Vec<FormulaId> = extra
                .iter()
                .map(|e| {
                    let f = it.intern(e);
                    it.rename_symbols(f, state_map)
                })
                .collect();
            it.and(parts)
        });
        let group = self.handle.assert("constraint", constraint)?;
        let outcome = self.handle.check();
        self.handle.retire(group);
        match sat_model(outcome?)? {
            Some(model) => {
                let m = &model.structure;
                let (successor, violation) = match &self.violation {
                    Violation::Consecution { conjecture, .. } => (
                        Some(project_state(m, &self.program.sig, &self.u.maps[1])),
                        Violation::Consecution {
                            conjecture: conjecture.clone(),
                            action: step_action(self.u, 0, m),
                        },
                    ),
                    v => (None, v.clone()),
                };
                Ok(Some(Cti {
                    state: project_state(m, &self.program.sig, &self.u.maps[0]),
                    successor,
                    violation,
                }))
            }
            None => Ok(None),
        }
    }
}

fn find_formula(conjectures: &[Conjecture], name: &str) -> Formula {
    conjectures
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.formula.clone())
        .unwrap_or(Formula::True)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{configured, QueryStrategy};
    use ivy_fol::parse_formula;
    use ivy_rml::{check_program, parse_program};

    /// Mark-spreading with a seed; "seed stays marked" is inductive,
    /// "at most one marked" is not.
    const SPREAD: &str = r#"
sort node
relation marked : node
variable n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed }
action mark { havoc n; marked.insert(n) }
"#;

    fn spread() -> Program {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty(), "{:?}", check_program(&p));
        p
    }

    #[test]
    fn good_invariant_is_inductive() {
        let p = spread();
        let v = Verifier::new(&p);
        let inv = vec![Conjecture::new(
            "C0",
            parse_formula("marked(seed)").unwrap(),
        )];
        assert!(v.check(&inv).unwrap().is_inductive());
    }

    #[test]
    fn exhausted_budget_is_inconclusive_not_inductive() {
        // The same invariant that proves inductive above must NOT be
        // reported inductive when the budget runs out first — degradation
        // surfaces as an error, never a verdict.
        let p = spread();
        let v = Verifier::with_oracle(
            &p,
            configured(|o| o.set_budget(ivy_epr::Budget::UNLIMITED.with_max_conflicts(0))),
        );
        let inv = vec![Conjecture::new(
            "C0",
            parse_formula("marked(seed)").unwrap(),
        )];
        let err = v.check(&inv).unwrap_err();
        assert!(
            matches!(
                err,
                ivy_epr::EprError::Inconclusive(ivy_epr::StopReason::ConflictBudget)
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_invariant_fails_safety() {
        let p = spread();
        let v = Verifier::new(&p);
        match v.check(&[]).unwrap() {
            Inductiveness::Cti(cti) => {
                assert_eq!(
                    cti.violation,
                    Violation::Safety {
                        property: "seed_marked".into()
                    }
                );
                // The CTI state indeed violates the safety property.
                let phi = parse_formula("marked(seed)").unwrap();
                assert!(!cti.state.eval_closed(&phi).unwrap());
            }
            Inductiveness::Inductive => panic!("expected CTI"),
        }
    }

    #[test]
    fn non_inductive_conjecture_yields_consecution_cti() {
        let p = spread();
        let v = Verifier::new(&p);
        let inv = vec![
            Conjecture::new("C0", parse_formula("marked(seed)").unwrap()),
            Conjecture::new(
                "C1",
                parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap(),
            ),
        ];
        match v.check(&inv).unwrap() {
            Inductiveness::Cti(cti) => {
                let Violation::Consecution { conjecture, action } = &cti.violation else {
                    panic!("expected consecution, got {}", cti.violation);
                };
                assert_eq!(conjecture, "C1");
                assert_eq!(action, "mark");
                // Pre-state satisfies all conjectures; successor violates C1.
                for c in &inv {
                    assert!(cti.state.eval_closed(&c.formula).unwrap(), "{c}");
                }
                let succ = cti.successor.as_ref().unwrap();
                assert!(!succ.eval_closed(&inv[1].formula).unwrap());
            }
            Inductiveness::Inductive => panic!("expected CTI"),
        }
    }

    #[test]
    fn initiation_violation_detected() {
        let p = spread();
        let v = Verifier::new(&p);
        // "nothing is marked" is false right after init.
        let inv = vec![
            Conjecture::new("C0", parse_formula("marked(seed)").unwrap()),
            Conjecture::new("Cbad", parse_formula("forall X:node. ~marked(X)").unwrap()),
        ];
        match v.check(&inv).unwrap() {
            Inductiveness::Cti(cti) => {
                assert_eq!(
                    cti.violation,
                    Violation::Initiation {
                        conjecture: "Cbad".into()
                    }
                );
            }
            Inductiveness::Inductive => panic!("expected CTI"),
        }
    }

    #[test]
    fn abort_reachability_counts_as_safety() {
        let src = r#"
sort node
relation marked : node
variable n : node
init { marked(X0) := false }
action bad { havoc n; assume marked(n); abort }
"#;
        let p = parse_program(src).unwrap();
        assert!(check_program(&p).is_empty());
        let v = Verifier::new(&p);
        // Without an invariant, a state with a marked node reaches abort.
        match v.check(&[]).unwrap() {
            Inductiveness::Cti(cti) => {
                assert!(matches!(cti.violation, Violation::Safety { .. }));
            }
            Inductiveness::Inductive => panic!("expected CTI"),
        }
        // With the invariant "nothing marked", the program is inductive-safe.
        let inv = vec![Conjecture::new(
            "none",
            parse_formula("forall X:node. ~marked(X)").unwrap(),
        )];
        assert!(v.check(&inv).unwrap().is_inductive());
    }

    #[test]
    fn strategies_agree_on_verdict_and_violation() {
        let p = spread();
        // Candidate sets covering all three violation kinds plus the
        // inductive case.
        let suites: Vec<Vec<Conjecture>> = vec![
            vec![Conjecture::new(
                "C0",
                parse_formula("marked(seed)").unwrap(),
            )],
            vec![],
            vec![
                Conjecture::new("C0", parse_formula("marked(seed)").unwrap()),
                Conjecture::new(
                    "C1",
                    parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap(),
                ),
            ],
            vec![
                Conjecture::new("C0", parse_formula("marked(seed)").unwrap()),
                Conjecture::new("Cbad", parse_formula("forall X:node. ~marked(X)").unwrap()),
            ],
        ];
        for inv in &suites {
            let reference =
                Verifier::with_oracle(&p, configured(|o| o.set_strategy(QueryStrategy::Fresh)));
            let expected = reference.check(inv).unwrap();
            let v =
                Verifier::with_oracle(&p, configured(|o| o.set_strategy(QueryStrategy::Session)));
            let got = v.check(inv).unwrap();
            match (&expected, &got) {
                (Inductiveness::Inductive, Inductiveness::Inductive) => {}
                (Inductiveness::Cti(a), Inductiveness::Cti(b)) => {
                    assert_eq!(a.violation, b.violation);
                }
                _ => panic!("Session disagrees with Fresh on {inv:?}"),
            }
        }
    }

    #[test]
    fn cti_names_the_lowest_index_violation() {
        let p = spread();
        // Several non-inductive conjectures: both strategies and repeated
        // runs must report the same (lowest-index) violation.
        let inv = vec![
            Conjecture::new("C0", parse_formula("marked(seed)").unwrap()),
            Conjecture::new(
                "A",
                parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y").unwrap(),
            ),
            Conjecture::new(
                "B",
                parse_formula("forall X:node. marked(X) -> X = seed").unwrap(),
            ),
        ];
        let mut first: Option<Violation> = None;
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            for _run in 0..3 {
                let v = Verifier::with_oracle(&p, configured(|o| o.set_strategy(strategy)));
                let Inductiveness::Cti(cti) = v.check(&inv).unwrap() else {
                    panic!("expected CTI");
                };
                match &first {
                    None => first = Some(cti.violation.clone()),
                    Some(expected) => assert_eq!(
                        expected, &cti.violation,
                        "nondeterministic CTI under {strategy:?}"
                    ),
                }
            }
        }
        // The winner is the lowest-index failing conjecture, "A".
        assert_eq!(
            first.unwrap(),
            Violation::Consecution {
                conjecture: "A".into(),
                action: "mark".into()
            }
        );
    }

    #[test]
    fn shared_oracle_reuses_frames_across_checks() {
        let p = spread();
        let oracle = Arc::new(Oracle::new());
        let v = Verifier::with_oracle(&p, oracle.clone());
        let inv = vec![Conjecture::new(
            "C0",
            parse_formula("marked(seed)").unwrap(),
        )];
        assert!(v.check(&inv).unwrap().is_inductive());
        let cold = oracle.rollup();
        assert!(cold.frame_misses >= 1);
        // Re-checking the same candidate hits every frame in the cache.
        assert!(v.check(&inv).unwrap().is_inductive());
        let warm = oracle.rollup();
        assert_eq!(warm.frame_misses, cold.frame_misses, "no new groundings");
        assert!(warm.frame_hits > cold.frame_hits);
    }

    #[test]
    fn cold_check_grounds_safety_and_consecution_on_one_session() {
        let p = spread();
        let oracle = Arc::new(Oracle::new());
        let v = Verifier::with_oracle(&p, oracle.clone());
        let inv = vec![Conjecture::new(
            "C0",
            parse_formula("marked(seed)").unwrap(),
        )];
        assert!(v.check(&inv).unwrap().is_inductive());
        // One session for initiation, one for safety and consecution.
        let rollup = oracle.rollup();
        assert_eq!(rollup.sessions_built, 2);
        assert_eq!(rollup.frame_misses, 2);
    }

    #[test]
    fn safety_cti_pools_its_grounded_prefix() {
        let p = spread();
        let oracle = Arc::new(Oracle::new());
        let v = Verifier::with_oracle(&p, oracle.clone());
        for round in 1..=2 {
            let Inductiveness::Cti(cti) = v.check(&[]).unwrap() else {
                panic!("expected CTI");
            };
            assert_eq!(
                cti.violation,
                Violation::Safety {
                    property: "seed_marked".into()
                }
            );
            // The check stopped before grounding the step; the second
            // round still finds both of its frames in the pool.
            let rollup = oracle.rollup();
            assert_eq!(rollup.frame_misses, 2, "round {round}");
            assert_eq!(rollup.sessions_built, 2, "round {round}");
        }
        // The pooled prefix is the consecution frame's: a consecution
        // query grounds the step on it instead of a new session.
        assert!(v.check_consecution(&[]).unwrap().is_none());
        let rollup = oracle.rollup();
        assert_eq!((rollup.frame_misses, rollup.sessions_built), (2, 2));
    }
}
