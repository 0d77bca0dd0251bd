//! Programmable [`User`] implementations.
//!
//! The paper evaluates Ivy with a human in the loop; for a reproducible
//! evaluation we provide:
//!
//! * [`ScriptedUser`] — replays a fixed sequence of decisions (used to
//!   re-enact the paper's Figures 7–9 leader-election session verbatim);
//! * [`OracleUser`] — an *ideal user*: it knows a correct inductive
//!   invariant and plays the role the paper assigns to human intuition,
//!   picking, for each CTI, the facts relevant to a violated target clause.
//!   The interaction counts it produces are the reproduction of Figure 14's
//!   G column.

use std::collections::{BTreeMap, VecDeque};

use ivy_fol::{nnf, prenex, Block, Elem, Formula, PartialStructure, Structure, Sym, Term};

use crate::bmc::Trace;
use crate::generalize::implied;
use crate::interact::{
    CtiDecision, Proposal, ProposalDecision, SessionCtx, TooStrongDecision, User,
};
use crate::vc::Cti;

/// Closure type for scripted CTI decisions.
pub type CtiScript = Box<dyn FnMut(&SessionCtx<'_>, &Cti) -> CtiDecision>;

/// Replays scripted CTI decisions; stops when the script runs dry and
/// accepts every proposal.
#[derive(Default)]
pub struct ScriptedUser {
    cti_steps: VecDeque<CtiScript>,
}

impl ScriptedUser {
    /// An empty script (stops at the first CTI).
    pub fn new() -> Self {
        ScriptedUser::default()
    }

    /// Appends a CTI decision.
    pub fn push_cti(
        &mut self,
        f: impl FnMut(&SessionCtx<'_>, &Cti) -> CtiDecision + 'static,
    ) -> &mut Self {
        self.cti_steps.push_back(Box::new(f));
        self
    }
}

impl User for ScriptedUser {
    fn on_cti(&mut self, ctx: &SessionCtx<'_>, cti: &Cti) -> CtiDecision {
        match self.cti_steps.pop_front() {
            Some(mut f) => f(ctx, cti),
            None => CtiDecision::Stop,
        }
    }

    fn on_too_strong(
        &mut self,
        _ctx: &SessionCtx<'_>,
        _attempted: &PartialStructure,
        _trace: &Trace,
    ) -> TooStrongDecision {
        TooStrongDecision::Stop
    }

    fn on_proposal(&mut self, _ctx: &SessionCtx<'_>, _proposal: &Proposal) -> ProposalDecision {
        ProposalDecision::Accept
    }
}

/// An ideal user guided by a known inductive invariant.
///
/// On each CTI it finds a *target* clause the CTI violates, reads off the
/// facts of the CTI state that witness the violation (including the function
/// edges the paper's GUI would display), and submits them as the upper
/// bound. Proposed generalizations are accepted when they are implied by
/// the target invariant (plus axioms), otherwise the upper bound's own
/// conjecture is used — mirroring the paper's advice to reject "bogus"
/// over-generalizations.
pub struct OracleUser {
    target: Vec<Formula>,
    bound: usize,
}

impl OracleUser {
    /// Creates an oracle from the clauses of a known inductive invariant.
    pub fn new(target: Vec<Formula>, bound: usize) -> Self {
        OracleUser { target, bound }
    }
}

impl User for OracleUser {
    fn on_cti(&mut self, ctx: &SessionCtx<'_>, cti: &Cti) -> CtiDecision {
        for phi in &self.target {
            if cti.state.eval_closed(phi).unwrap_or(true) {
                continue;
            }
            if let Some(upper_bound) = violation_witness(&cti.state, phi) {
                return CtiDecision::Generalize {
                    upper_bound,
                    bound: self.bound,
                };
            }
        }
        // The CTI satisfies the whole target invariant: by inductiveness of
        // the target this cannot happen for consecution CTIs; for weakening
        // scenarios remove non-target conjectures.
        let remove: Vec<String> = ctx
            .conjectures
            .iter()
            .filter(|c| !cti.state.eval_closed(&c.formula).unwrap_or(true))
            .map(|c| c.name.clone())
            .collect();
        if remove.is_empty() {
            CtiDecision::Stop
        } else {
            CtiDecision::Weaken { remove }
        }
    }

    fn on_too_strong(
        &mut self,
        _ctx: &SessionCtx<'_>,
        _attempted: &PartialStructure,
        _trace: &Trace,
    ) -> TooStrongDecision {
        // Target clauses hold in all reachable states, so their witnesses
        // can never be reachable; reaching this means the target invariant
        // is wrong.
        TooStrongDecision::Stop
    }

    fn on_proposal(&mut self, ctx: &SessionCtx<'_>, proposal: &Proposal) -> ProposalDecision {
        let axioms = ctx.program.axiom();
        match implied(
            &ctx.program.sig,
            &axioms,
            &self.target,
            &proposal.conjecture,
        ) {
            Ok(true) => ProposalDecision::Accept,
            _ => ProposalDecision::AcceptUpperBound,
        }
    }
}

/// Extracts a partial structure witnessing `state ⊭ phi`: the facts of the
/// state corresponding to the atoms of `¬phi` under a satisfying assignment
/// of its existential variables, with function applications decomposed into
/// explicit function facts (the edges a user sees in the paper's GUI).
pub fn violation_witness(state: &Structure, phi: &Formula) -> Option<PartialStructure> {
    let neg = nnf(&Formula::not(phi.clone()));
    let pren = prenex(&neg);
    let mut bindings = Vec::new();
    for block in &pren.prefix {
        match block {
            Block::Exists(bs) => bindings.extend(bs.iter().cloned()),
            // A universal block inside ¬phi (phi with existentials) is out
            // of scope for this extractor.
            Block::Forall(_) => return None,
        }
    }
    // Enumerate assignments to find a witness.
    let mut env: BTreeMap<Sym, Elem> = BTreeMap::new();
    if !assign(state, &pren.matrix, &bindings, 0, &mut env) {
        return None;
    }
    let mut out = PartialStructure::empty_over(state);
    collect_facts(state, &pren.matrix, &env, &mut out);
    // Keep only elements mentioned by facts.
    let active = out.active_elements();
    for e in out.domain().clone() {
        if !active.contains(&e) {
            out.drop_element(&e);
        }
    }
    Some(out)
}

fn assign(
    state: &Structure,
    matrix: &Formula,
    bindings: &[ivy_fol::Binding],
    i: usize,
    env: &mut BTreeMap<Sym, Elem>,
) -> bool {
    if i == bindings.len() {
        return state.eval(matrix, env).unwrap_or(false);
    }
    let b = &bindings[i];
    for e in state.elements(&b.sort).collect::<Vec<_>>() {
        env.insert(b.var, e);
        if assign(state, matrix, bindings, i + 1, env) {
            return true;
        }
    }
    env.remove(&b.var);
    false
}

/// Records the truth value of every atom of `f` under `env` as facts,
/// decomposing function applications.
fn collect_facts(
    state: &Structure,
    f: &Formula,
    env: &BTreeMap<Sym, Elem>,
    out: &mut PartialStructure,
) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Rel(r, args) => {
            let mut tuple = Vec::with_capacity(args.len());
            for a in args {
                let Some(e) = term_elem(state, a, env, out) else {
                    return;
                };
                tuple.push(e);
            }
            let value = state.rel_holds(r, &tuple);
            out.define_rel(*r, tuple, value);
        }
        Formula::Eq(a, b) => {
            // Equalities between pure variables are captured by element
            // identity/distinctness; function applications become facts.
            let _ = term_elem(state, a, env, out);
            let _ = term_elem(state, b, env, out);
        }
        Formula::Not(g) => collect_facts(state, g, env, out),
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().for_each(|g| collect_facts(state, g, env, out));
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_facts(state, a, env, out);
            collect_facts(state, b, env, out);
        }
        // Matrix is quantifier-free by construction.
        Formula::Forall(..) | Formula::Exists(..) => {}
    }
}

fn term_elem(
    state: &Structure,
    t: &Term,
    env: &BTreeMap<Sym, Elem>,
    out: &mut PartialStructure,
) -> Option<Elem> {
    match t {
        Term::Var(v) => env.get(v).cloned(),
        Term::App(f, args) => {
            let mut elems = Vec::with_capacity(args.len());
            for a in args {
                elems.push(term_elem(state, a, env, out)?);
            }
            let result = state.fun_app(f, &elems)?;
            out.define_fun(*f, elems, result.clone());
            Some(result)
        }
        Term::Ite(c, a, b) => {
            collect_facts(state, c, env, out);
            if state.eval(c, env).ok()? {
                term_elem(state, a, env, out)
            } else {
                term_elem(state, b, env, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::{parse_formula, Signature};
    use std::sync::Arc;

    fn two_node_state() -> Structure {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        sig.add_relation("leader", ["node"]).unwrap();
        let mut s = Structure::new(Arc::new(sig));
        let n1 = s.add_element("node");
        let n2 = s.add_element("node");
        let i1 = s.add_element("id");
        let i2 = s.add_element("id");
        s.set_fun("idf", vec![n1.clone()], i1.clone());
        s.set_fun("idf", vec![n2.clone()], i2.clone());
        s.set_rel("le", vec![i1.clone(), i1.clone()], true);
        s.set_rel("le", vec![i2.clone(), i2.clone()], true);
        s.set_rel("le", vec![i1, i2], true);
        s.set_rel("leader", vec![n1], true);
        s
    }

    #[test]
    fn witness_extracts_relevant_facts() {
        // C1 is violated: a leader with a non-maximal id. The witness should
        // contain leader(n1), le(id1, id2), idf edges — and nothing else.
        let s = two_node_state();
        let c1 = parse_formula(
            "forall N1:node, N2:node. ~(N1 ~= N2 & leader(N1) & le(idf(N1), idf(N2)))",
        )
        .unwrap();
        assert!(!s.eval_closed(&c1).unwrap());
        let w = violation_witness(&s, &c1).unwrap();
        // Facts: leader(node0)=true, le(id0,id1)=true, idf(node0)=id0,
        // idf(node1)=id1.
        assert_eq!(w.fact_count(), 4, "{w}");
        // The conjecture excludes the state.
        let conj = ivy_fol::conjecture(&w);
        assert!(!s.eval_closed(&conj).unwrap());
    }

    #[test]
    fn witness_none_when_satisfied() {
        let s = two_node_state();
        let c0 =
            parse_formula("forall N1:node, N2:node. leader(N1) & leader(N2) -> N1 = N2").unwrap();
        assert!(s.eval_closed(&c0).unwrap());
        assert!(violation_witness(&s, &c0).is_none());
    }

    #[test]
    fn witness_records_negative_facts() {
        // Violate "some node is a leader"... that has an existential; use
        // instead: ~leader(n2) appears when the clause mentions it
        // negatively.
        let s = two_node_state();
        let phi = parse_formula("forall N1:node, N2:node. ~(leader(N1) & ~leader(N2) & N1 ~= N2)")
            .unwrap();
        assert!(!s.eval_closed(&phi).unwrap());
        let w = violation_witness(&s, &phi).unwrap();
        let has_negative = w.facts().iter().any(|f| !f.value());
        assert!(has_negative, "{w}");
    }
}
