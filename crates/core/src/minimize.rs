//! Minimal-CTI search (Section 4.3, Algorithm 1 of the paper).
//!
//! Small CTIs are easier to understand and generalize better. The user picks
//! a tuple of [`Measure`]s; the search finds a CTI minimal in the induced
//! lexicographic order by conjoining cardinality constraints `ϕ_m(n)` —
//! themselves `∃*∀*` formulas — and growing `n` until satisfiable.

use ivy_epr::EprError;
use ivy_fol::{Binding, Formula, Sort, Sym, Term};

use crate::vc::{Conjecture, Cti, Verifier};

/// A minimization measure (Section 4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Measure {
    /// Number of elements of a sort, `|D_S|`.
    SortSize(Sort),
    /// Number of positive tuples of a relation.
    PositiveTuples(Sym),
    /// Number of negative tuples of a relation.
    NegativeTuples(Sym),
}

impl Measure {
    /// The constraint `ϕ_m(n)`: "the value of this measure is at most `n`",
    /// as an `∃*∀*` sentence over the given signature.
    ///
    /// For a `k`-ary relation the paper's encoding is used:
    /// `∃x̄1..x̄n. ∀ȳ. r(ȳ) → ⋁ᵢ ȳ = x̄ᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the measured relation is not declared.
    pub fn at_most(&self, sig: &ivy_fol::Signature, n: usize) -> Formula {
        match self {
            Measure::SortSize(sort) => {
                let ex: Vec<Binding> = (0..n)
                    .map(|i| Binding::new(format!("SZ{i}"), *sort))
                    .collect();
                let y = Binding::new("SZY", *sort);
                let body = Formula::or(
                    ex.iter()
                        .map(|b| Formula::eq(Term::var("SZY"), Term::Var(b.var))),
                );
                Formula::exists(ex, Formula::forall([y], body))
            }
            Measure::PositiveTuples(rel) | Measure::NegativeTuples(rel) => {
                let positive = matches!(self, Measure::PositiveTuples(_));
                let sorts = sig
                    .relation(rel)
                    .unwrap_or_else(|| panic!("unknown relation `{rel}` in measure"))
                    .to_vec();
                let arity = sorts.len();
                let mut ex = Vec::with_capacity(n * arity);
                for i in 0..n {
                    for (j, s) in sorts.iter().enumerate() {
                        ex.push(Binding::new(format!("T{i}_{j}"), *s));
                    }
                }
                let ys: Vec<Binding> = sorts
                    .iter()
                    .enumerate()
                    .map(|(j, s)| Binding::new(format!("TY{j}"), *s))
                    .collect();
                let atom = Formula::rel(*rel, ys.iter().map(|b| Term::Var(b.var)));
                let guard = if positive { atom } else { Formula::not(atom) };
                let matches_row = |i: usize| {
                    Formula::and((0..arity).map(|j| {
                        Formula::eq(Term::var(format!("TY{j}")), Term::var(format!("T{i}_{j}")))
                    }))
                };
                let body = Formula::implies(guard, Formula::or((0..n).map(matches_row)));
                Formula::exists(ex, Formula::forall(ys, body))
            }
        }
    }

    /// Evaluates the measure on a concrete structure (used by tests and to
    /// report minimization results).
    pub fn eval(&self, s: &ivy_fol::Structure) -> usize {
        match self {
            Measure::SortSize(sort) => s.domain_size(sort) as usize,
            Measure::PositiveTuples(rel) => s.rel_count(rel),
            Measure::NegativeTuples(rel) => {
                let sorts = s
                    .signature()
                    .relation(rel)
                    .expect("known relation")
                    .to_vec();
                let total: usize = sorts
                    .iter()
                    .map(|sort| s.domain_size(sort) as usize)
                    .product();
                total - s.rel_count(rel)
            }
        }
    }
}

impl<'p> Verifier<'p> {
    /// Finds a CTI minimal in the lexicographic order of `measures`
    /// (Algorithm 1). Returns `None` when the candidate invariant is
    /// inductive.
    ///
    /// Minimization applies to safety and consecution CTIs; an initiation
    /// CTI is returned unminimized (it signals a bad conjecture rather than
    /// a missing one).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`]. Measure constraints grow the Skolem universe
    /// slightly; over-tight instance limits may need raising.
    pub fn find_minimal_cti(
        &self,
        conjectures: &[Conjecture],
        measures: &[Measure],
    ) -> Result<Option<Cti>, EprError> {
        if let Some(cti) = self.check_initiation(conjectures)? {
            return Ok(Some(cti));
        }
        // Establish which check fails, then re-solve with growing
        // cardinality bounds. ψ_min accumulates per-measure constraints.
        let base_cti = match self.check_safety(conjectures)? {
            Some(cti) => cti,
            None => match self.check_consecution(conjectures)? {
                Some(cti) => cti,
                None => return Ok(None),
            },
        };
        let mut extra: Vec<Formula> = Vec::new();
        let mut best = base_cti;
        // Equality-heavy cardinality queries can be much harder than the
        // underlying CTI query; minimization is best-effort UX (a
        // non-minimal CTI is still a CTI). Each query runs under a
        // conflict budget, each measure under a wall-clock budget, and the
        // search descends from the current witness value — one
        // (expensive) UNSAT query per measure instead of one per value. A
        // query that runs out of budget is inconclusive and ends its
        // measure's descent.
        const QUERY_CONFLICTS: u64 = 20_000;
        const MEASURE_BUDGET: std::time::Duration = std::time::Duration::from_secs(15);
        // One oracle handle carries the whole descent: the violation's frame
        // matches the inductiveness check that found it, and each candidate
        // bound below runs as a retirable constraint group. The oracle owns
        // the strategy — under `Fresh` the handle re-solves from scratch,
        // under the incremental strategies it recycles the grounding — so
        // minimization never branches on strategy. The violation kind and
        // conjecture never change across the descent (only the witness
        // shrinks), so the frame stays valid.
        let Some(mut session) =
            self.violation_session(conjectures, &best.violation, QUERY_CONFLICTS)?
        else {
            // The violation names no known safety case (cannot happen for a
            // CTI we just produced); return it unminimized.
            return Ok(Some(best));
        };
        for m in measures {
            let started = std::time::Instant::now();
            loop {
                if started.elapsed() > MEASURE_BUDGET {
                    break;
                }
                let current = m.eval(&best.state);
                if current == 0 {
                    break;
                }
                let constraint = m.at_most(&self.program().sig, current - 1);
                let mut candidate_extra = extra.clone();
                candidate_extra.push(constraint);
                match session.solve(&candidate_extra) {
                    Ok(Some(cti)) => best = cti,
                    Ok(None) => break,
                    Err(EprError::TooManyInstances { .. }) | Err(EprError::Inconclusive(_)) => {
                        break
                    }
                    Err(e) => return Err(e),
                }
            }
            // Pin this measure's value for the lexicographic order.
            extra.push(m.at_most(&self.program().sig, m.eval(&best.state)));
        }
        Ok(Some(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_rml::{check_program, parse_program};

    /// Marking protocol where a CTI for "at most one marked" needs 2 marked
    /// nodes but solvers may return larger states.
    const SPREAD: &str = r#"
sort node
relation marked : node
relation junk : node
variable n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed; junk(X0) := false }
action mark { havoc n; marked.insert(n) }
action junkify { havoc n; junk.insert(n) }
"#;

    #[test]
    fn minimal_cti_shrinks_domain_and_relations() {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty());
        let v = Verifier::new(&p);
        let inv = vec![
            Conjecture::new("C0", ivy_fol::parse_formula("marked(seed)").unwrap()),
            Conjecture::new(
                "one",
                ivy_fol::parse_formula("forall X:node, Y:node. marked(X) & marked(Y) -> X = Y")
                    .unwrap(),
            ),
        ];
        let measures = [
            Measure::SortSize(Sort::new("node")),
            Measure::PositiveTuples(Sym::new("junk")),
            Measure::PositiveTuples(Sym::new("marked")),
        ];
        let cti = v.find_minimal_cti(&inv, &measures).unwrap().unwrap();
        // Minimal consecution CTI: one node (the seed, marked), marking a
        // second... with one node, mark(n) re-marks the seed and `one` still
        // holds; so two nodes are needed.
        assert_eq!(cti.state.domain_size(&Sort::new("node")), 2);
        assert_eq!(cti.state.rel_count(&Sym::new("junk")), 0);
        assert_eq!(cti.state.rel_count(&Sym::new("marked")), 1);
    }

    #[test]
    fn measures_evaluate_on_structures() {
        let p = parse_program(SPREAD).unwrap();
        let v = Verifier::new(&p);
        let cti = v
            .find_minimal_cti(
                &[Conjecture::new(
                    "C0",
                    ivy_fol::parse_formula("marked(seed)").unwrap(),
                )],
                &[],
            )
            .unwrap();
        assert!(cti.is_none(), "C0 alone is inductive for this program");
    }

    #[test]
    fn at_most_formulas_are_ea() {
        let p = parse_program(SPREAD).unwrap();
        for m in [
            Measure::SortSize(Sort::new("node")),
            Measure::PositiveTuples(Sym::new("marked")),
            Measure::NegativeTuples(Sym::new("marked")),
        ] {
            for n in 0..3 {
                let f = m.at_most(&p.sig, n);
                assert!(ivy_fol::is_ea_sentence(&f), "{f}");
                assert!(f.is_closed());
            }
        }
    }

    #[test]
    fn at_most_semantics() {
        use std::sync::Arc;
        let p = parse_program(SPREAD).unwrap();
        let mut s = ivy_fol::Structure::new(Arc::new(p.sig.clone()));
        let a = s.add_element("node");
        let b = s.add_element("node");
        s.set_fun("seed", vec![], a.clone());
        s.set_fun("n", vec![], a.clone());
        s.set_rel("marked", vec![a], true);
        s.set_rel("marked", vec![b], true);
        let m = Measure::PositiveTuples(Sym::new("marked"));
        assert!(!s.eval_closed(&m.at_most(&p.sig, 1)).unwrap());
        assert!(s.eval_closed(&m.at_most(&p.sig, 2)).unwrap());
        assert_eq!(m.eval(&s), 2);
        assert_eq!(Measure::NegativeTuples(Sym::new("marked")).eval(&s), 0);
        assert_eq!(Measure::SortSize(Sort::new("node")).eval(&s), 2);
    }
}
