//! Interactive generalization from CTIs (Sections 4.4–4.5 of the paper):
//! the *BMC + Auto Generalize* procedure.
//!
//! The user coarsely generalizes a CTI into a partial structure `s_u` (the
//! *upper bound*), dropping elements and fact polarities they judge
//! irrelevant. This module then:
//!
//! 1. checks that the induced conjecture `ϕ(s_u)` is `k`-invariant — if not,
//!    the user's generalization excludes a reachable state and a concrete
//!    counterexample trace is returned;
//! 2. if it is, computes a ⪯-smallest generalization `s_m ⪯ s_u` whose
//!    conjecture is still `k`-invariant, seeding from the solver's minimal
//!    UNSAT core over the diagram's fact literals and finishing with
//!    deletion-based minimization;
//! 3. re-verifies `ϕ(s_m)` (dropping facts also drops distinctness of
//!    newly-inactive elements, which cores alone do not account for).
//!
//! Every embedding query runs on one `ReachScan` per call: the unrolling
//! to depth `k` over one extended signature (a fresh constant per diagram
//! element), queried at depth `j` by frame prefix. The first
//! `k`-invariance check with cores, the core-seeded candidate and every
//! deletion step share that one grounding, and the next call at the same
//! bound finds it in the oracle's pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ivy_epr::{EprError, EprOutcome};
use ivy_fol::intern::{FormulaId, Interner};
use ivy_fol::{conjecture, Elem, Fact, Formula, PartialStructure, Signature, Sym, Term};
use ivy_rml::{rename_symbols, unroll, Program, SymMap, Unrolling};

use crate::bmc::{ReachScan, Trace};
use crate::oracle::{sat_model, Frame, Goal, Oracle};

/// Interns a formula (embedding goals are built in formula space, queries
/// run in id space).
fn intern_formula(f: &Formula) -> FormulaId {
    Interner::with(|it| it.intern(f))
}

/// The result of *BMC + Auto Generalize*.
#[derive(Clone, Debug)]
pub enum AutoGen {
    /// The upper bound's conjecture excludes a reachable state: here is the
    /// trace. The user should generalize less (or has found a protocol bug).
    TooStrong(Trace),
    /// A ⪯-smallest `k`-invariant generalization of the upper bound,
    /// together with its conjecture.
    Generalized {
        /// The generalized partial structure `s_m ⪯ s_u`.
        partial: PartialStructure,
        /// `ϕ(s_m)`, the conjecture to add to the invariant.
        conjecture: Formula,
    },
}

/// The *BMC + Auto Generalize* engine for one program.
#[derive(Clone, Debug)]
pub struct Generalizer<'p> {
    program: &'p Program,
    oracle: Arc<Oracle>,
}

impl<'p> Generalizer<'p> {
    /// Creates a generalizer with its own default [`Oracle`].
    pub fn new(program: &'p Program) -> Self {
        Generalizer::with_oracle(program, Arc::new(Oracle::new()))
    }

    /// Creates a generalizer issuing every query through `oracle` — sharing
    /// it with other engines shares the frame-keyed session cache too.
    /// Exhausting the oracle's budget surfaces as
    /// [`EprError::Inconclusive`] rather than a wrong minimization step.
    pub fn with_oracle(program: &'p Program, oracle: Arc<Oracle>) -> Self {
        Generalizer { program, oracle }
    }

    /// The engine's oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// Runs BMC + Auto Generalize on the upper bound `s_u` with bound `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn auto_generalize(&self, s_u: &PartialStructure, k: usize) -> Result<AutoGen, EprError> {
        let u = unroll(self.program, k);
        let facts: Vec<Fact> = s_u.facts().iter().cloned().collect();
        // One extended signature with a fresh constant per element of ANY
        // fact. Constants left unconstrained by a subset query never change
        // EPR satisfiability, so every subset shares the signature — which
        // keeps the scan's frame (and its pooled grounding) stable across
        // the whole minimization.
        let mut sig = u.sig.clone();
        let mut elem_const: BTreeMap<Elem, Sym> = BTreeMap::new();
        for fact in &facts {
            for e in fact.elements() {
                if !elem_const.contains_key(e) {
                    let name = ivy_fol::xform::fresh_constant_name(
                        &sig,
                        &format!("emb_{}{}", e.sort, e.idx),
                    );
                    sig.add_constant(name, e.sort).expect("fresh name");
                    elem_const.insert(e.clone(), name);
                }
            }
        }
        let mut scan = ReachScan::open(&self.oracle, &sig, &u)?;
        // Check k-invariance of ϕ(s_u) with per-fact labels, collecting the
        // union of UNSAT cores across depths.
        let all: Vec<usize> = (0..facts.len()).collect();
        let mut core_union: Vec<bool> = vec![false; facts.len()];
        for j in 0..=k {
            let goal = embed_goal(&facts, &all, &elem_const, &u.maps[j]);
            match scan.solve_at(j, &goal)? {
                EprOutcome::Sat(model) => {
                    // Reachable state contains s_u: report the trace.
                    let violated = "generalization excludes a reachable state".into();
                    let trace = Trace::from_model(self.program, &u, j, &model.structure, violated);
                    return Ok(AutoGen::TooStrong(trace));
                }
                EprOutcome::Unsat(core) => {
                    for label in &core {
                        let fact = label.strip_prefix("fact").and_then(|i| i.parse().ok());
                        if let Some(in_core) = fact.and_then(|i: usize| core_union.get_mut(i)) {
                            *in_core = true;
                        }
                    }
                }
                EprOutcome::Unknown(r) => return Err(EprError::Inconclusive(r)),
            }
        }
        // Candidate from the cores.
        let seeded: Vec<usize> = (0..facts.len()).filter(|&i| core_union[i]).collect();
        let mut kept: Vec<usize> = if seeded.len() < facts.len()
            && invariant_with(&mut scan, &u, &facts, &seeded, &elem_const)?
        {
            seeded
        } else {
            all
        };
        // Deletion-based minimization on the remaining facts.
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if invariant_with(&mut scan, &u, &facts, &candidate, &elem_const)? {
                kept = candidate;
            } else {
                i += 1;
            }
        }
        let mut partial = s_u.clone();
        let keep_set: BTreeSet<&Fact> = kept.iter().map(|&i| &facts[i]).collect();
        partial.retain_facts(|f| keep_set.contains(f));
        // Drop elements no longer mentioned by any fact; they only added
        // distinctness constraints.
        let active = partial.active_elements();
        for e in partial.domain().clone() {
            if !active.contains(&e) {
                partial.drop_element(&e);
            }
        }
        let conj = conjecture(&partial);
        Ok(AutoGen::Generalized {
            partial,
            conjecture: conj,
        })
    }
}

/// Checks whether the conjecture of `s_u` restricted to the given fact
/// subset is `k`-invariant: no depth of the scan embeds the subset.
fn invariant_with(
    scan: &mut ReachScan<'_>,
    u: &Unrolling,
    facts: &[Fact],
    subset: &[usize],
    elem_const: &BTreeMap<Elem, Sym>,
) -> Result<bool, EprError> {
    for (j, map) in u.maps.iter().enumerate() {
        let goal = embed_goal(facts, subset, elem_const, map);
        if sat_model(scan.solve_at(j, &goal)?)?.is_some() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The embedding goal for one fact subset at one state vocabulary:
/// distinctness among the *selected* facts' active elements (kept hard:
/// partial structures identify elements, not the facts about them), plus
/// each selected fact individually labeled for UNSAT cores.
fn embed_goal(
    facts: &[Fact],
    selected: &[usize],
    elem_const: &BTreeMap<Elem, Sym>,
    map: &SymMap,
) -> Goal {
    let mut active: Vec<(&Elem, &Sym)> = Vec::new();
    for &i in selected {
        for e in facts[i].elements() {
            let c = &elem_const[e];
            if !active.iter().any(|(a, _)| *a == e) {
                active.push((e, c));
            }
        }
    }
    let mut distinct_parts = Vec::new();
    for (ai, (a, ca)) in active.iter().enumerate() {
        for (b, cb) in active.iter().skip(ai + 1) {
            if a.sort == b.sort {
                distinct_parts.push(Formula::neq(Term::cst(**ca), Term::cst(**cb)));
            }
        }
    }
    let mut goal = Goal::new("distinct", intern_formula(&Formula::and(distinct_parts)));
    for &i in selected {
        let f = fact_formula(&facts[i], elem_const, map);
        goal.push(format!("fact{i}"), intern_formula(&f));
    }
    goal
}

/// Translates a partial-structure fact into a formula over embedding
/// constants, renamed to a state vocabulary.
fn fact_formula(fact: &Fact, elem_const: &BTreeMap<Elem, Sym>, map: &SymMap) -> Formula {
    let term = |e: &Elem| Term::cst(elem_const[e]);
    let raw = match fact {
        Fact::Rel { sym, tuple, value } => {
            let atom = Formula::rel(*sym, tuple.iter().map(term));
            if *value {
                atom
            } else {
                Formula::not(atom)
            }
        }
        Fact::Fun {
            sym,
            args,
            result,
            value,
        } => {
            let atom = Formula::eq(Term::app(*sym, args.iter().map(term)), term(result));
            if *value {
                atom
            } else {
                Formula::not(atom)
            }
        }
    };
    rename_symbols(&raw, map)
}

/// Convenience check used by oracle users and tests: is `phi` implied by
/// `hypotheses` together with the program's axioms? (Decidable whenever
/// `¬phi` is `∃*∀*`, i.e. `phi` universal.)
///
/// # Errors
///
/// Propagates [`EprError`].
pub fn implied(
    sig: &Signature,
    axioms: &Formula,
    hypotheses: &[Formula],
    phi: &Formula,
) -> Result<bool, EprError> {
    let oracle = Oracle::new();
    let mut frame = Frame::new(sig);
    frame.push("axioms", intern_formula(axioms));
    for (i, h) in hypotheses.iter().enumerate() {
        frame.push(format!("h{i}"), intern_formula(h));
    }
    let goal = Goal::new("neg", intern_formula(&Formula::not(phi.clone())));
    match oracle.solve(&frame, &goal)? {
        EprOutcome::Sat(_) => Ok(false),
        EprOutcome::Unsat(_) => Ok(true),
        EprOutcome::Unknown(r) => Err(EprError::Inconclusive(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::{Conjecture, Verifier};
    use ivy_rml::{check_program, parse_program};

    const SPREAD: &str = r#"
sort node
relation marked : node
relation blue : node
variable n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed; blue(X0) := false }
action mark { havoc n; marked.insert(n) }
"#;

    fn spread() -> Program {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty());
        p
    }

    #[test]
    fn too_strong_generalization_yields_trace() {
        let p = spread();
        let g = Generalizer::new(&p);
        let v = Verifier::new(&p);
        // CTI for the bogus conjecture "at most one marked node".
        let inv = vec![
            Conjecture::new("C0", ivy_fol::parse_formula("marked(seed)").unwrap()),
            Conjecture::new(
                "one",
                ivy_fol::parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y")
                    .unwrap(),
            ),
        ];
        let cti = v.find_minimal_cti(&inv, &[]).unwrap().unwrap();
        // Upper bound: the full CTI. Its conjecture excludes the CTI state,
        // which IS reachable (any 1-marked state is): expect TooStrong.
        let s_u = PartialStructure::from_structure(&cti.state);
        match g.auto_generalize(&s_u, 2).unwrap() {
            AutoGen::TooStrong(trace) => {
                assert!(!trace.states.is_empty());
            }
            AutoGen::Generalized { conjecture, .. } => {
                panic!("reachable configuration accepted: {conjecture}")
            }
        }
    }

    /// Upper bound: a marked seed and a blue node. Nothing ever inserts
    /// into blue, so the configuration is unreachable at any depth.
    fn blue_upper_bound(p: &Program) -> PartialStructure {
        let mut s = ivy_fol::Structure::new(Arc::new(p.sig.clone()));
        let a = s.add_element("node");
        let b = s.add_element("node");
        s.set_fun("seed", vec![], a.clone());
        s.set_fun("n", vec![], a.clone());
        s.set_rel("marked", vec![a.clone()], true);
        s.set_rel("blue", vec![b.clone()], true);
        let mut s_u = PartialStructure::empty_over(&s);
        s_u.define_rel("blue", vec![b], true);
        s_u.define_rel("marked", vec![a], true);
        s_u
    }

    #[test]
    fn unreachable_configuration_generalizes() {
        let p = spread();
        let g = Generalizer::new(&p);
        // The minimal core keeps just the blue fact.
        let s_u = blue_upper_bound(&p);
        match g.auto_generalize(&s_u, 2).unwrap() {
            AutoGen::Generalized {
                partial,
                conjecture,
            } => {
                // Auto-generalization drops the irrelevant `marked` fact:
                // "no blue node anywhere" is the strongest k-invariant
                // conjecture below s_u.
                assert_eq!(partial.fact_count(), 1);
                assert_eq!(conjecture.to_string(), "forall NODE1:node. ~blue(NODE1)");
            }
            AutoGen::TooStrong(_) => panic!("blue nodes are unreachable"),
        }
    }

    #[test]
    fn generalizer_strategies_agree() {
        let p = spread();
        let s_u = blue_upper_bound(&p);
        for strategy in [
            crate::oracle::QueryStrategy::Fresh,
            crate::oracle::QueryStrategy::Session,
        ] {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            let g = Generalizer::with_oracle(&p, Arc::new(oracle));
            match g.auto_generalize(&s_u, 2).unwrap() {
                AutoGen::Generalized { conjecture, .. } => {
                    assert_eq!(
                        conjecture.to_string(),
                        "forall NODE1:node. ~blue(NODE1)",
                        "{strategy:?}"
                    );
                }
                AutoGen::TooStrong(_) => panic!("{strategy:?}: blue nodes are unreachable"),
            }
        }
    }

    #[test]
    fn one_scan_serves_the_whole_generalization() {
        let p = spread();
        let s_u = blue_upper_bound(&p);
        let g = Generalizer::new(&p);
        // The k-invariance check with cores, the core-seeded candidate and
        // every deletion step run on one grounding of the depth-2
        // unrolling, not one per depth.
        assert!(matches!(
            g.auto_generalize(&s_u, 2).unwrap(),
            AutoGen::Generalized { .. }
        ));
        let cold = g.oracle().rollup();
        assert_eq!(cold.sessions_built, 1);
        // The scan reached depth 2, so its session was pooled: a repeat
        // grounds nothing.
        g.auto_generalize(&s_u, 2).unwrap();
        let warm = g.oracle().rollup();
        assert_eq!(warm.sessions_built, 1);
        assert_eq!(warm.frame_misses, cold.frame_misses);
    }

    #[test]
    fn implied_checks_consequence() {
        let p = spread();
        let ax = p.axiom();
        let strong = ivy_fol::parse_formula("forall X:node. ~marked(X)").unwrap();
        let weak = ivy_fol::parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y")
            .unwrap();
        assert!(implied(&p.sig, &ax, std::slice::from_ref(&strong), &weak).unwrap());
        assert!(!implied(&p.sig, &ax, &[weak], &strong).unwrap());
    }
}
