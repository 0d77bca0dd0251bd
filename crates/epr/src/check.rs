//! The vocabulary of an EPR query, shared by every [`EprSession`]: the
//! instantiation mode, outcomes, errors and statistics, plus the grounding
//! steps the session runs per group (definitional splitting, template
//! instantiation over the universe, and model extraction).
//!
//! [`EprSession`]: crate::EprSession

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ivy_fol::intern::{FormulaId, FormulaNode, Interner};
use ivy_fol::{Binding, Elem, SigError, Signature, SkolemError, Sort, SortError, Structure, Sym};
use ivy_sat::{Lit, Stats};
use ivy_telemetry::{counter_add, QueryReport, StopReason};

use crate::encode::{Encoder, Template};

/// A Skolemized assertion split into one miniscoped universal job: the
/// bindings to enumerate and the pre-compiled instantiation template of the
/// matrix (see [`Template`]).
#[derive(Clone, Debug)]
pub(crate) struct GroundJob {
    pub(crate) bindings: Vec<Binding>,
    pub(crate) template: Template,
}

/// The default cap on universal instantiations per query, shared by every
/// engine built on this crate (verification conditions, BMC, Houdini, …).
/// Large enough for all bundled protocols, small enough to fail fast when a
/// query's grounding explodes.
pub const DEFAULT_INSTANCE_LIMIT: u64 = 4_000_000;

/// How universal quantifiers are instantiated over the ground universe.
///
/// [`Full`](InstantiationMode::Full) is the classical EPR pipeline: the
/// signature must be stratified and every assertion `∃*∀*`, the term
/// universe is the (finite) closure under all functions, and both SAT and
/// UNSAT are verdicts.
///
/// [`Bounded`](InstantiationMode::Bounded) relaxes both preconditions:
/// unstratified signatures and `∀∃` alternations (Skolemized to genuine
/// functions) are admitted, but ground terms are only built up to the given
/// nesting depth and instantiations that would mention deeper terms are
/// skipped. The bounded clause set is a *subset* of the full ground
/// instantiation, so by Herbrand's theorem UNSAT answers remain verdicts;
/// a SAT answer while the bound was load-bearing (the universe was
/// truncated or any instantiation was skipped) degrades to
/// [`EprOutcome::Unknown`] with [`StopReason::BoundReached`]. When the
/// closure happens to fit entirely under the bound, nothing was cut and
/// SAT is genuine too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstantiationMode {
    /// Complete instantiation over the closed universe (requires the
    /// stratified `∃*∀*` fragment). The default.
    #[default]
    Full,
    /// Instantiate only ground terms of function-nesting depth at most the
    /// given bound. Admits non-stratified signatures and `∀∃` assertions.
    Bounded(usize),
}

impl InstantiationMode {
    /// The depth bound, if any.
    pub fn depth(&self) -> Option<usize> {
        match self {
            InstantiationMode::Full => None,
            InstantiationMode::Bounded(d) => Some(*d),
        }
    }

    /// Whether this is a bounded mode.
    pub fn is_bounded(&self) -> bool {
        matches!(self, InstantiationMode::Bounded(_))
    }
}

impl fmt::Display for InstantiationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantiationMode::Full => write!(f, "full"),
            InstantiationMode::Bounded(d) => write!(f, "bounded({d})"),
        }
    }
}

/// Errors from the EPR check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EprError {
    /// Signature problem (e.g. not stratified).
    Sig(SigError),
    /// An assertion is ill-sorted.
    Sort(SortError),
    /// An assertion is outside `∃*∀*` (or open), so Skolemization fails.
    Skolem(SkolemError),
    /// Grounding would create more instantiations than the configured limit.
    TooManyInstances {
        /// Estimated number of ground instances.
        estimated: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A query stopped inside its resource [`Budget`] (deadline or
    /// conflict cap) without reaching a verdict. Raised by the
    /// verification loops when a query returns
    /// [`EprOutcome::Unknown`] — the enclosing analysis is
    /// *inconclusive*, never a proof or a refutation.
    ///
    /// [`Budget`]: ivy_telemetry::Budget
    Inconclusive(StopReason),
}

impl fmt::Display for EprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EprError::Sig(e) => write!(f, "signature error: {e}"),
            EprError::Sort(e) => write!(f, "sort error: {e}"),
            EprError::Skolem(e) => write!(f, "fragment error: {e}"),
            EprError::TooManyInstances { estimated, limit } => write!(
                f,
                "grounding needs ~{estimated} instances, over the limit of {limit}"
            ),
            EprError::Inconclusive(reason) => {
                write!(f, "query inconclusive: {reason}")
            }
        }
    }
}

impl std::error::Error for EprError {}

impl From<SigError> for EprError {
    fn from(e: SigError) -> Self {
        EprError::Sig(e)
    }
}

impl From<SortError> for EprError {
    fn from(e: SortError) -> Self {
        EprError::Sort(e)
    }
}

impl From<SkolemError> for EprError {
    fn from(e: SkolemError) -> Self {
        EprError::Skolem(e)
    }
}

/// A finite model of the asserted sentences.
#[derive(Clone, Debug)]
pub struct Model {
    /// The model as a finite first-order structure. Its signature is the
    /// *extended* signature (original symbols plus Skolem constants).
    pub structure: Structure,
}

/// Outcome of [`EprSession::check`](crate::EprSession::check).
#[derive(Clone, Debug)]
pub enum EprOutcome {
    /// Satisfiable, with a finite model (the finite-model property of EPR).
    Sat(Box<Model>),
    /// Unsatisfiable; the labels of an unsatisfiable subset of assertions.
    Unsat(Vec<String>),
    /// The query's [`Budget`] ran out (deadline or conflict cap) before a
    /// verdict. Partial statistics are still recorded — see
    /// [`EprSession::stats`] / [`EprSession::report`]. Callers must treat
    /// this as *inconclusive*, never as UNSAT.
    ///
    /// [`Budget`]: ivy_telemetry::Budget
    /// [`EprSession::stats`]: crate::EprSession::stats
    /// [`EprSession::report`]: crate::EprSession::report
    Unknown(StopReason),
}

impl EprOutcome {
    /// Whether the outcome is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, EprOutcome::Sat(_))
    }

    /// Stable lower-case tag for telemetry: `sat`, `unsat`, or `unknown`.
    pub fn tag(&self) -> &'static str {
        match self {
            EprOutcome::Sat(_) => "sat",
            EprOutcome::Unsat(_) => "unsat",
            EprOutcome::Unknown(_) => "unknown",
        }
    }
}

/// Diagnostics about the last grounding (sizes, for benchmarking).
#[derive(Clone, Copy, Debug, Default)]
pub struct GroundStats {
    /// Ground terms in the universe.
    pub universe: usize,
    /// Universal instantiations performed.
    pub instances: u64,
    /// Equality lemma clauses the theory added in this check.
    pub equality_clauses: usize,
    /// Final checks in this check that found an equality violation the
    /// search let through (expected 0).
    pub final_check_firings: usize,
    /// SAT variables allocated.
    pub sat_vars: usize,
    /// Problem (non-learnt) clauses in the SAT solver.
    pub sat_clauses: usize,
    /// Ground-atom (Tseitin) cache hits of the encoder.
    pub atom_hits: u64,
    /// Ground-atom cache misses of the encoder.
    pub atom_misses: u64,
    /// SAT solver statistics.
    pub sat: Stats,
}

impl GroundStats {
    /// Converts to a telemetry [`QueryReport`] covering the *delta* from
    /// `prev` (solver counters are cumulative per solver; per-query numbers
    /// are differences between consecutive snapshots). Also publishes the
    /// delta to the global telemetry counters when recording is enabled.
    pub(crate) fn report_delta(
        &self,
        prev: &GroundStats,
        outcome: &str,
        stop: Option<StopReason>,
        wall_nanos: u128,
    ) -> QueryReport {
        let report = QueryReport {
            queries: 1,
            outcome: outcome.to_string(),
            stop,
            wall_nanos,
            universe: self.universe as u64,
            instances: self.instances.saturating_sub(prev.instances),
            // Theory numbers are already per check, so no delta.
            equality_clauses: self.equality_clauses as u64,
            final_check_firings: self.final_check_firings as u64,
            sat_vars: self.sat_vars as u64,
            sat_clauses: self.sat_clauses as u64,
            decisions: self.sat.decisions.saturating_sub(prev.sat.decisions),
            propagations: self.sat.propagations.saturating_sub(prev.sat.propagations),
            conflicts: self.sat.conflicts.saturating_sub(prev.sat.conflicts),
            restarts: self.sat.restarts.saturating_sub(prev.sat.restarts),
            deleted_clauses: self
                .sat
                .deleted_clauses
                .saturating_sub(prev.sat.deleted_clauses),
            atom_cache_hits: self.atom_hits.saturating_sub(prev.atom_hits),
            atom_cache_misses: self.atom_misses.saturating_sub(prev.atom_misses),
        };
        counter_add("epr.queries", 1);
        counter_add("epr.instances", report.instances);
        counter_add("sat.decisions", report.decisions);
        counter_add("sat.propagations", report.propagations);
        counter_add("sat.conflicts", report.conflicts);
        counter_add("epr.equality_clauses", report.equality_clauses);
        counter_add("epr.final_check_firings", report.final_check_firings);
        counter_add("sat.restarts", report.restarts);
        counter_add("sat.deleted_clauses", report.deleted_clauses);
        counter_add(
            "sat.lbd_reductions",
            self.sat
                .lbd_reductions
                .saturating_sub(prev.sat.lbd_reductions),
        );
        counter_add(
            "sat.minimized_lits",
            self.sat
                .minimized_lits
                .saturating_sub(prev.sat.minimized_lits),
        );
        counter_add("cache.atom_hits", report.atom_cache_hits);
        counter_add("cache.atom_misses", report.atom_cache_misses);
        report
    }
}

/// Splits an NNF sentence into equisatisfiable pieces whose quantifier
/// blocks stay small (Plaisted–Greenbaum-style definitional splitting):
///
/// * conjunctions split into separate pieces;
/// * universal quantifiers distribute over the conjuncts of their body;
/// * inside a disjunction, each non-literal disjunct is replaced by a fresh
///   nullary *guard* relation `g`, and `¬g ∨ disjunct` is split recursively.
///
/// `guard` carries the accumulated guard literals to prefix onto every
/// emitted piece. Sound for positively asserted sentences.
pub(crate) fn split_for_grounding(
    it: &mut Interner,
    f: FormulaId,
    guard: Vec<FormulaId>,
    sig: &mut Signature,
    counter: &mut usize,
    out: &mut Vec<FormulaId>,
) {
    let node = it.node(f).clone();
    match node {
        FormulaNode::And(fs) => {
            for g in fs {
                split_for_grounding(it, g, guard.clone(), sig, counter, out);
            }
        }
        FormulaNode::Forall(bs, body) => {
            // ∀x.(A ∧ B) = (∀x.A) ∧ (∀x.B); restrict bindings per conjunct.
            if let FormulaNode::And(cs) = it.node(body).clone() {
                for c in cs {
                    let fv = it.free_vars(c);
                    let needed: Vec<Binding> =
                        bs.iter().filter(|b| fv.contains(&b.var)).cloned().collect();
                    let piece = it.forall(needed, c);
                    split_for_grounding(it, piece, guard.clone(), sig, counter, out);
                }
            } else {
                emit_piece(it, f, guard, out);
            }
        }
        FormulaNode::Or(fs) => {
            // Estimate whether splitting pays off: count disjuncts that are
            // conjunctions or quantified formulas.
            let complex = |it: &Interner, g: FormulaId| {
                matches!(
                    it.node(g),
                    FormulaNode::And(_)
                        | FormulaNode::Forall(..)
                        | FormulaNode::Exists(..)
                        | FormulaNode::Or(_)
                )
            };
            if fs.iter().filter(|&&g| complex(it, g)).count() <= 1 {
                // At most one structured disjunct: keep intact (prenexing
                // handles a single block fine).
                emit_piece(it, f, guard, out);
                return;
            }
            let mut disjuncts = Vec::with_capacity(fs.len());
            for g in fs {
                if complex(it, g) {
                    let name = loop {
                        let candidate = Sym::new(format!("split__{counter}"));
                        *counter += 1;
                        if sig.relation(&candidate).is_none() && sig.function(&candidate).is_none()
                        {
                            break candidate;
                        }
                    };
                    sig.add_relation(name, Vec::<ivy_fol::Sort>::new())
                        .expect("fresh guard name");
                    let guard_atom = it.rel(name, Vec::new());
                    disjuncts.push(guard_atom);
                    let mut inner_guard = guard.clone();
                    inner_guard.push(it.not(guard_atom));
                    split_for_grounding(it, g, inner_guard, sig, counter, out);
                } else {
                    disjuncts.push(g);
                }
            }
            let piece = it.or(disjuncts);
            emit_piece(it, piece, guard, out);
        }
        _ => emit_piece(it, f, guard, out),
    }
}

fn emit_piece(it: &mut Interner, f: FormulaId, guard: Vec<FormulaId>, out: &mut Vec<FormulaId>) {
    if guard.is_empty() {
        out.push(f);
    } else {
        let mut parts = guard;
        parts.push(f);
        out.push(it.or(parts));
    }
}

/// Enumerates all ground instantiations of the job's bindings and asserts
/// `guard -> matrix[env]` for each (by template replay — no interner access
/// in this loop). With `min_term`, only tuples mentioning at least one term
/// id `>= min_term` are instantiated — incremental sessions use this to
/// cover exactly the universe delta after an extension without repeating
/// instantiations that already exist.
pub(crate) fn instantiate_delta(enc: &mut Encoder, guard: Lit, job: &GroundJob, min_term: usize) {
    // Copy each binding's candidate list once per job, not once per visited
    // tuple prefix — the walk only reads them.
    let domains: Vec<Vec<usize>> = job
        .bindings
        .iter()
        .map(|b| enc.table().of_sort(&b.sort).to_vec())
        .collect();
    for_each_delta_tuple(&domains, min_term, &mut |env| {
        enc.assert_template(&job.template, env, guard);
    });
}

/// Calls `visit` on every tuple of `domains` (each sorted by ascending id)
/// that mentions an id `>= min_term`, in lexicographic order; with
/// `min_term = 0`, on every tuple (once for zero domains).
///
/// Only those tuples are reached: a position that still needs a new id,
/// with no later position able to supply one, iterates only its domain's
/// new tail, and when no domain has a new id the walk returns at once.
fn for_each_delta_tuple(domains: &[Vec<usize>], min_term: usize, visit: &mut dyn FnMut(&[usize])) {
    // Domains are sorted, so each one's new ids form a tail.
    let new_from: Vec<usize> = domains
        .iter()
        .map(|d| d.partition_point(|&t| t < min_term))
        .collect();
    // `later_new[i]`: some position `>= i` has a new id.
    let mut later_new = vec![false; domains.len() + 1];
    for i in (0..domains.len()).rev() {
        later_new[i] = later_new[i + 1] || new_from[i] < domains[i].len();
    }
    if min_term > 0 && !later_new[0] {
        return;
    }
    struct Walk<'a> {
        domains: &'a [Vec<usize>],
        new_from: &'a [usize],
        later_new: &'a [bool],
        min_term: usize,
    }
    fn go(w: &Walk<'_>, env: &mut Vec<usize>, any_new: bool, visit: &mut dyn FnMut(&[usize])) {
        let i = env.len();
        if i == w.domains.len() {
            debug_assert!(any_new || w.min_term == 0, "the walk reached an old tuple");
            visit(env);
            return;
        }
        // Without a new id so far and none possible after this position,
        // only this domain's new tail can complete a tuple.
        let from = if any_new || w.later_new[i + 1] {
            0
        } else {
            w.new_from[i]
        };
        for &t in &w.domains[i][from..] {
            env.push(t);
            go(w, env, any_new || t >= w.min_term, visit);
            env.pop();
        }
    }
    let walk = Walk {
        domains,
        new_from: &new_from,
        later_new: &later_new,
        min_term,
    };
    go(&walk, &mut Vec::new(), false, visit);
}

/// Builds a finite first-order structure from the SAT model by quotienting
/// the ground-term universe by the true equalities.
pub(crate) fn extract_structure(enc: &Encoder, work_sig: &Signature) -> Structure {
    let sig = Arc::new(work_sig.clone());
    let mut structure = Structure::new(sig);
    let parts = enc.model_parts();
    let mut classes = parts.equality_classes();
    // Map class representative -> element, per sort, in ascending rep order
    // for determinism.
    let mut elem_of: BTreeMap<usize, Elem> = BTreeMap::new();
    for sort in work_sig.sorts() {
        let mut reps: Vec<usize> = enc
            .table()
            .of_sort(sort)
            .iter()
            .map(|&t| classes.find(t))
            .collect();
        reps.sort_unstable();
        reps.dedup();
        for rep in reps {
            let e = structure.add_element(*sort);
            elem_of.insert(rep, e);
        }
    }
    // Relations: positive atoms only (missing tuples are false).
    for (sym, args, value) in parts.atoms() {
        if value {
            let tuple: Vec<Elem> = args
                .iter()
                .map(|&a| elem_of[&classes.find(a)].clone())
                .collect();
            structure.set_rel(*sym, tuple, true);
        }
    }
    // Functions: total by construction of the closed universe. For every
    // combination of argument *classes*, apply the function to the class
    // representatives (which are ground terms) and read off the result class.
    let sorts_elems: BTreeMap<Sort, Vec<usize>> = work_sig
        .sorts()
        .iter()
        .map(|sort| {
            let mut reps: Vec<usize> = enc
                .table()
                .of_sort(sort)
                .iter()
                .map(|&t| classes.find(t))
                .collect();
            reps.sort_unstable();
            reps.dedup();
            (*sort, reps)
        })
        .collect();
    for (name, decl) in work_sig.functions() {
        let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
        for s in &decl.args {
            let mut next = Vec::new();
            for prefix in &tuples {
                for &rep in &sorts_elems[s] {
                    let mut t = prefix.clone();
                    t.push(rep);
                    next.push(t);
                }
            }
            tuples = next;
        }
        for reps in tuples {
            let result_term = enc
                .table()
                .get(name, &reps)
                .expect("universe is closed under functions");
            let args: Vec<Elem> = reps
                .iter()
                .map(|r| elem_of[&classes.find(*r)].clone())
                .collect();
            let result = elem_of[&classes.find(result_term)].clone();
            structure.set_fun(*name, args, result);
        }
    }
    structure
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk every delta instantiation used to make: all tuples in
    /// lexicographic order, filtered at the leaf.
    fn naive_delta(domains: &[Vec<usize>], min_term: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
        for d in domains {
            tuples = tuples
                .iter()
                .flat_map(|p| {
                    d.iter().map(move |&t| {
                        let mut q = p.clone();
                        q.push(t);
                        q
                    })
                })
                .collect();
        }
        for t in tuples {
            if min_term == 0 || t.iter().any(|&x| x >= min_term) {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn delta_walk_visits_exactly_the_new_tuples_in_order() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for round in 0..400 {
            let arity = below(4);
            let domains: Vec<Vec<usize>> = (0..arity)
                .map(|_| {
                    let mut d: Vec<usize> = (0..below(5)).map(|_| below(12)).collect();
                    d.sort_unstable();
                    d.dedup();
                    d
                })
                .collect();
            let min_term = below(14);
            let mut got = Vec::new();
            for_each_delta_tuple(&domains, min_term, &mut |env| got.push(env.to_vec()));
            assert_eq!(
                got,
                naive_delta(&domains, min_term),
                "round {round}: domains {domains:?}, min_term {min_term}"
            );
        }
    }
}
