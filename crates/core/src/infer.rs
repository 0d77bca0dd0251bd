//! Automatic invariant inference (`ivy infer`).
//!
//! The paper bootstraps its Chord proof by running Houdini over a clause
//! template (Section 5.1); this module grows that seed into a synthesis
//! loop that rediscovers an inductive invariant from the safety properties
//! alone, in the enumerate-and-filter style of Schultz et al. (*Plain and
//! Simple Inductive Invariant Inference in TLA+*):
//!
//! 1. **Generate** — [`generate_clauses`] enumerates universal clauses over
//!    a bounded template (configurable variables per sort × literal count)
//!    whose atoms are built over *interned* formulas, with canonical-form
//!    symmetry reduction ([`ivy_fol::canonical_clause`]) so alpha-variant
//!    clauses are emitted once. Template variables use the `V_`-prefixed
//!    [`ivy_fol::template_var`] names, disjoint from diagram variables.
//! 2. **Filter** — a reachability pre-filter first drops every candidate
//!    some state reachable within two steps (`REACH_DEPTH`)
//!    falsifies, walking the depths on one BMC scan of the unrolling. Then
//!    [`houdini_with_oracle`] drops every candidate falsified by an
//!    initiation counterexample or a consecution CTI successor. All
//!    queries go through one shared [`Oracle`], so repeated frames reuse
//!    pooled sessions.
//! 3. **Block** — when the surviving set fails to prove safety, the loop
//!    does not restart: it asks the [`Verifier`] for a CTI, turns the CTI
//!    state into a blocking conjecture with the diagram machinery of
//!    [`Generalizer::auto_generalize`] (Definitions 4–5), and re-runs the
//!    filter with the enlarged set. When generalization stagnates the
//!    template itself is enlarged incrementally — only clauses whose
//!    canonical key was never seen before are added.
//!
//! Budgets degrade the whole loop to `Unknown`
//! ([`EprError::Inconclusive`]), never to a wrong verdict.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

use ivy_epr::EprError;
use ivy_fol::intern::intern;
use ivy_fol::{
    canonical_clause, sort_permutations, template_var, Binding, Formula, FormulaId,
    PartialStructure, Signature, Sort, Sym, Term,
};
use ivy_rml::{unroll, Program};

use crate::bmc::ReachScan;
use crate::generalize::{AutoGen, Generalizer};
use crate::houdini::{drop_reachable_violations, houdini_with_oracle};
use crate::minimize::Measure;
use crate::oracle::Oracle;
use crate::vc::{Conjecture, Verifier, Violation};

// ---------------------------------------------------------------------------
// Template specification and clause generation
// ---------------------------------------------------------------------------

/// What the clause template ranges over.
#[derive(Clone, Debug)]
pub struct TemplateSpec {
    /// Quantified variables per sort (`V_SORT0`, `V_SORT1`, …).
    pub vars_per_sort: usize,
    /// Maximum literals per clause.
    pub max_literals: usize,
    /// Include signature constants (nullary functions) as atom arguments.
    pub include_constants: bool,
    /// Include nullary relations as atoms.
    pub include_nullary: bool,
    /// Symbols excluded from the vocabulary (scratch locals carry no
    /// protocol state and only bloat the template).
    pub exclude: BTreeSet<Sym>,
}

impl TemplateSpec {
    /// The full vocabulary used by `ivy infer`, with `program.locals`
    /// excluded.
    pub fn for_program(program: &Program, vars_per_sort: usize, max_literals: usize) -> Self {
        TemplateSpec {
            vars_per_sort,
            max_literals,
            include_constants: true,
            include_nullary: true,
            exclude: program.locals.clone(),
        }
    }

    /// The vocabulary of the original `enumerate_candidates`: variables,
    /// depth-1 unary function applications, relation atoms and same-sort
    /// variable equalities — no constants, no nullary relations.
    pub fn legacy(vars_per_sort: usize, max_literals: usize) -> Self {
        TemplateSpec {
            vars_per_sort,
            max_literals,
            include_constants: false,
            include_nullary: false,
            exclude: BTreeSet::new(),
        }
    }
}

/// Enumerates the template's clauses as named conjectures, one per
/// alpha-equivalence class. See [`generate_clauses_into`] for the
/// incremental variant.
pub fn generate_clauses(sig: &Signature, spec: &TemplateSpec) -> Vec<Conjecture> {
    let mut seen = HashSet::new();
    generate_clauses_into(sig, spec, &mut seen, &mut 0)
}

/// Enumerates the template's clauses, skipping any clause whose canonical
/// key is already in `seen` (and recording the new ones). Passing the same
/// `seen` set across calls with growing specs yields only the *delta* of an
/// enlarged template; `index` numbers conjectures uniquely across calls.
pub fn generate_clauses_into(
    sig: &Signature,
    spec: &TemplateSpec,
    seen: &mut HashSet<Vec<FormulaId>>,
    index: &mut usize,
) -> Vec<Conjecture> {
    // Typed template variables per sort.
    let mut bindings: Vec<Binding> = Vec::new();
    for sort in sig.sorts() {
        for i in 0..spec.vars_per_sort {
            bindings.push(Binding::new(template_var(sort, i), *sort));
        }
    }
    let vars_of = |sort: &Sort| -> Vec<Term> {
        bindings
            .iter()
            .filter(|b| &b.sort == sort)
            .map(|b| Term::Var(b.var))
            .collect()
    };
    // Term pools per sort: variables, constants, then depth-1 unary
    // function applications to variables.
    let mut terms: BTreeMap<Sort, Vec<Term>> = BTreeMap::new();
    for sort in sig.sorts() {
        terms.insert(*sort, vars_of(sort));
    }
    for (fun, decl) in sig.functions() {
        if spec.exclude.contains(fun) {
            continue;
        }
        if spec.include_constants && decl.arity() == 0 {
            terms
                .get_mut(&decl.ret)
                .expect("sort known")
                .push(Term::cst(*fun));
        }
    }
    for (fun, decl) in sig.functions() {
        if spec.exclude.contains(fun) {
            continue;
        }
        if decl.arity() == 1 {
            let apps: Vec<Term> = vars_of(&decl.args[0])
                .into_iter()
                .map(|v| Term::app(*fun, [v]))
                .collect();
            terms.get_mut(&decl.ret).expect("sort known").extend(apps);
        }
    }
    // Atoms: nullary relations, relation applications over the term pools,
    // and equalities between distinct same-sort variables.
    let mut atoms: Vec<Formula> = Vec::new();
    for (rel, arg_sorts) in sig.relations() {
        if spec.exclude.contains(rel) {
            continue;
        }
        if arg_sorts.is_empty() {
            if spec.include_nullary {
                atoms.push(Formula::rel(*rel, Vec::<Term>::new()));
            }
            continue;
        }
        let mut tuples: Vec<Vec<Term>> = vec![Vec::new()];
        for s in arg_sorts {
            let pool = terms.get(s).cloned().unwrap_or_default();
            let mut next = Vec::new();
            for prefix in &tuples {
                for t in &pool {
                    let mut row = prefix.clone();
                    row.push(t.clone());
                    next.push(row);
                }
            }
            tuples = next;
        }
        for tuple in tuples {
            atoms.push(Formula::rel(*rel, tuple));
        }
    }
    for sort in sig.sorts() {
        let vars = vars_of(sort);
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                atoms.push(Formula::eq(vars[i].clone(), vars[j].clone()));
            }
        }
    }
    // Literals, interned. Literal 2k is the k-th atom, 2k+1 its negation.
    let literals: Vec<Formula> = atoms
        .iter()
        .flat_map(|a| [a.clone(), Formula::not(a.clone())])
        .collect();
    let lit_ids: Vec<FormulaId> = literals.iter().map(intern).collect();
    // Dense renaming table: renamed[p][l] is literal l under permutation p.
    // Substitution is memoized in the interner, and the table makes the
    // per-clause canonical key a pure integer computation.
    let perms = sort_permutations(&bindings);
    let renamed: Vec<Vec<FormulaId>> = perms
        .iter()
        .map(|perm| {
            lit_ids
                .iter()
                .map(|&l| canonical_clause(&[l], std::slice::from_ref(perm))[0])
                .collect()
        })
        .collect();
    let canonical_key = |combo: &[usize]| -> Vec<FormulaId> {
        let mut best: Option<Vec<FormulaId>> = None;
        for row in &renamed {
            let mut key: Vec<FormulaId> = combo.iter().map(|&i| row[i]).collect();
            key.sort_unstable();
            key.dedup();
            match &best {
                Some(b) if *b <= key => {}
                _ => best = Some(key),
            }
        }
        best.unwrap_or_default()
    };

    let mut out = Vec::new();
    let mut combo: Vec<usize> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn emit(
        literals: &[Formula],
        bindings: &[Binding],
        canonical_key: &dyn Fn(&[usize]) -> Vec<FormulaId>,
        seen: &mut HashSet<Vec<FormulaId>>,
        combo: &mut Vec<usize>,
        start: usize,
        left: usize,
        out: &mut Vec<Conjecture>,
        index: &mut usize,
    ) {
        if !combo.is_empty() {
            // Skip tautologies (an atom and its negation in one clause).
            let tautology = combo
                .iter()
                .any(|&i| i % 2 == 0 && combo.contains(&(i + 1)));
            if !tautology && seen.insert(canonical_key(combo)) {
                let parts: Vec<Formula> = combo.iter().map(|&i| literals[i].clone()).collect();
                let body = Formula::or(parts);
                let fv = body.free_vars();
                let needed: Vec<Binding> = bindings
                    .iter()
                    .filter(|b| fv.contains(&b.var))
                    .cloned()
                    .collect();
                let clause = Formula::forall(needed, body);
                out.push(Conjecture::new(format!("H{index}"), clause));
                *index += 1;
            }
        }
        if left == 0 {
            return;
        }
        for i in start..literals.len() {
            combo.push(i);
            emit(
                literals,
                bindings,
                canonical_key,
                seen,
                combo,
                i + 1,
                left - 1,
                out,
                index,
            );
            combo.pop();
        }
    }
    emit(
        &literals,
        &bindings,
        &canonical_key,
        seen,
        &mut combo,
        0,
        spec.max_literals,
        &mut out,
        index,
    );
    out
}

// ---------------------------------------------------------------------------
// The inference loop
// ---------------------------------------------------------------------------

/// Tuning knobs for [`infer`].
#[derive(Clone, Debug)]
pub struct InferOptions {
    /// Template variables per sort to start from.
    pub vars_per_sort: usize,
    /// Literals per clause to start from.
    pub max_literals: usize,
    /// CTI minimization measures (Section 4.3, Algorithm 1). Small CTI
    /// states yield narrow diagrams — and narrow blocking clauses ground
    /// cheaply when asserted as Houdini hypotheses. When empty, one
    /// [`Measure::SortSize`] per signature sort is used.
    pub measures: Vec<Measure>,
    /// Include signature constants as atom arguments in the template.
    /// Protocols whose signature carries many constants (Chord's ring
    /// anchors) blow the candidate count up by an order of magnitude;
    /// disabling this restricts the template to the paper's Section 5.1
    /// relation-only vocabulary, leaving constant-specific facts to
    /// CTI-guided blocking.
    pub include_constants: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            vars_per_sort: 2,
            max_literals: 2,
            measures: Vec::new(),
            include_constants: true,
        }
    }
}

/// Why [`infer`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InferStatus {
    /// The returned invariant is inductive and proves every safety
    /// property.
    Proved,
    /// A safety property is violated in a reachable state (within the
    /// generalization bound) — a protocol bug, not an inference failure.
    ReachableCounterexample,
    /// Template and blocking enlargement were exhausted (or the round
    /// limit was hit) without proving safety. The returned invariant is
    /// still the strongest inductive subset found.
    Exhausted,
}

impl InferStatus {
    /// Stable lower-case tag used in JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            InferStatus::Proved => "proved",
            InferStatus::ReachableCounterexample => "reachable_cex",
            InferStatus::Exhausted => "exhausted",
        }
    }
}

/// Emits a diagnostic line when `IVY_INFER_DEBUG` is set.
fn debug(msg: impl FnOnce() -> String) {
    if std::env::var_os("IVY_INFER_DEBUG").is_some() {
        eprintln!("infer: {}", msg());
    }
}

/// Ceiling for incremental literal enlargement of the template.
const LITERAL_CAP: usize = 3;

/// Ceiling for incremental variable enlargement of the template.
const VAR_CAP: usize = 3;

/// Maximum CTI-guided blocking rounds before giving up.
const MAX_ROUNDS: usize = 64;

/// Depth of the reachability pre-filter: before Houdini ever asserts a
/// hypothesis, every candidate violated in some state reachable within
/// this many steps is mass-eliminated with goal-only batched probes.
const REACH_DEPTH: usize = 2;

/// BMC bound `k` for checking blocking conjectures (the paper's
/// `k`-invariance of generalizations).
const GENERALIZE_BOUND: usize = 2;

/// How many extra reachability-filter depths [`infer`] may explore beyond
/// [`REACH_DEPTH`] when Houdini's consecution frame would
/// exceed the oracle's instance limit. Each extra depth mass-eliminates
/// more candidates before the retry, shrinking the hypothesis set instead
/// of raising the limit.
const MAX_REACH_DEEPENING: usize = 4;

/// How far past [`GENERALIZE_BOUND`] the loop may deepen the
/// generalization BMC bound. A blocking clause that is `k`-invariant but
/// excludes a state reachable in more than `k` steps is only discovered
/// when a later CTI retires it; deepening the bound makes the regenerated
/// clause weaker (more facts survive the minimization) instead of
/// re-learning the refuted one forever.
const MAX_GEN_DEEPENING: usize = 4;

/// The outcome of one [`infer`] run.
#[derive(Clone, Debug)]
pub struct InferReport {
    /// How the run ended.
    pub status: InferStatus,
    /// The inferred conjunction (includes the safety properties when
    /// `status` is [`InferStatus::Proved`]).
    pub invariant: Vec<Conjecture>,
    /// Clauses emitted by the template generator (after symmetry dedup).
    pub generated: usize,
    /// Candidates eliminated by the reachability pre-filter.
    pub filtered_out: usize,
    /// Witness states the reachability pre-filter batch-dropped against.
    pub filter_states: usize,
    /// CTI-guided blocking conjectures added from diagrams.
    pub blocked: usize,
    /// Incremental template enlargements.
    pub enlargements: usize,
    /// Houdini filter runs.
    pub houdini_runs: usize,
    /// CTIs processed inside the Houdini runs.
    pub houdini_iterations: usize,
    /// Oracle queries issued by this run (rollup delta).
    pub queries: u64,
}

/// Drops every candidate violated in some state reachable in `d` steps, for
/// each `d` in `depths`. Pure goal-only probing on one [`ReachScan`] over
/// the unrolling to the deepest `d`: each candidate's violation is a
/// retire-immediately goal, so no hypothesis is ever asserted and the frame
/// stays small no matter how many candidates there are. Every SAT witness
/// batch-drops all candidates it falsifies.
///
/// This is the mass-elimination stage: Houdini's consecution pass asserts
/// one hypothesis per surviving candidate, so it must only ever see the
/// (much smaller) set of candidates that at least *look* invariant out to
/// the deepest depth. The filter is best-effort: a depth whose grounding
/// passes the oracle's instance limit ends it, since every deeper prefix
/// only adds instances (budget exhaustion still propagates).
fn reachability_filter(
    program: &Program,
    oracle: &Arc<Oracle>,
    set: &mut Vec<Conjecture>,
    depths: RangeInclusive<usize>,
    states: &mut usize,
) -> Result<(), EprError> {
    let u = unroll(program, *depths.end());
    let walk = || -> Result<(), EprError> {
        let mut scan = ReachScan::open(oracle, &u.sig, &u)?;
        for d in depths {
            *states += drop_reachable_violations(&mut scan, program, &u, d, set)?;
        }
        Ok(())
    };
    match walk() {
        Err(EprError::TooManyInstances { .. }) => {
            debug(|| "reach filter over the instance limit, stopped".into());
            Ok(())
        }
        other => other,
    }
}

/// Rediscovers an inductive invariant proving `program`'s safety from its
/// safety properties alone. Every solver query is issued through `oracle`,
/// so strategy (fresh or session), budgets, and the
/// frame-keyed session cache are all inherited — and shared with any other
/// engine holding the same oracle.
///
/// # Errors
///
/// Propagates [`EprError`]; budget exhaustion surfaces as
/// [`EprError::Inconclusive`], never as a wrong verdict.
pub fn infer(
    program: &Program,
    oracle: &Arc<Oracle>,
    opts: &InferOptions,
) -> Result<InferReport, EprError> {
    let queries_before = oracle.rollup().report.queries;
    let safety: Vec<Conjecture> = program
        .safety
        .iter()
        .map(|(label, f)| Conjecture::new(format!("S_{label}"), f.clone()))
        .collect();
    let mut spec = TemplateSpec::for_program(program, opts.vars_per_sort, opts.max_literals);
    spec.include_constants = opts.include_constants;
    let mut seen: HashSet<Vec<FormulaId>> = HashSet::new();
    let mut next_index = 0usize;
    let mut pool = generate_clauses_into(&program.sig, &spec, &mut seen, &mut next_index);

    let mut report = InferReport {
        status: InferStatus::Exhausted,
        invariant: Vec::new(),
        generated: pool.len(),
        filtered_out: 0,
        filter_states: 0,
        blocked: 0,
        enlargements: 0,
        houdini_runs: 0,
        houdini_iterations: 0,
        queries: 0,
    };

    let before = pool.len();
    reachability_filter(
        program,
        oracle,
        &mut pool,
        0..=REACH_DEPTH,
        &mut report.filter_states,
    )?;
    report.filtered_out += before - pool.len();
    debug(|| format!("pool {} -> {} after reach filter", before, pool.len()));

    let verifier = Verifier::with_oracle(program, oracle.clone());
    let generalizer = Generalizer::with_oracle(program, oracle.clone());
    // Small CTIs generalize better (Section 4.3) *and* keep the learned
    // blocking clauses narrow: a diagram over `e` elements quantifies `e`
    // variables, and an `e`-variable hypothesis grounds to |U|^e instances
    // in every later Houdini frame.
    let measures: Vec<Measure> = if opts.measures.is_empty() {
        program
            .sig
            .sorts()
            .iter()
            .map(|s| Measure::SortSize(*s))
            .collect()
    } else {
        opts.measures.clone()
    };
    let mut blocking: Vec<Conjecture> = Vec::new();
    let mut blocked_ids: HashSet<FormulaId> = HashSet::new();
    let mut rounds = 0usize;
    let mut reach = REACH_DEPTH;
    let mut gen_bound = GENERALIZE_BOUND;
    let gen_cap = GENERALIZE_BOUND + MAX_GEN_DEEPENING;

    loop {
        // Filter: safety + blocking conjectures + template pool. Houdini
        // returns the strongest inductive subset; between rounds the pool
        // shrinks to the survivors, so candidates already eliminated are
        // never re-filtered (incremental, not a restart). When the pool is
        // still so large that the consecution frame would blow the oracle's
        // instance limit, the reachability filter is deepened step by step —
        // each new depth's witness states mass-eliminate more candidates —
        // and Houdini retried, rather than failing hard.
        let hres = loop {
            let mut candidates = safety.clone();
            candidates.extend(blocking.iter().cloned());
            candidates.extend(pool.iter().cloned());
            debug(|| {
                format!(
                    "houdini over {} candidates ({} blocking, reach={reach})",
                    candidates.len(),
                    blocking.len()
                )
            });
            match houdini_with_oracle(program, candidates, oracle) {
                Ok(h) => break h,
                Err(EprError::TooManyInstances { .. })
                    if reach >= REACH_DEPTH + MAX_REACH_DEEPENING || pool.is_empty() =>
                {
                    // Deepening is exhausted and the hypothesis set still
                    // grounds over the instance limit: degrade to Unknown —
                    // never a wrong verdict, and never a hard failure for a
                    // resource limit the caller can raise.
                    return Err(EprError::Inconclusive(ivy_epr::StopReason::InstanceBudget));
                }
                Err(EprError::TooManyInstances { .. }) => {
                    reach += 1;
                    let before = pool.len();
                    reachability_filter(
                        program,
                        oracle,
                        &mut pool,
                        reach..=reach,
                        &mut report.filter_states,
                    )?;
                    report.filtered_out += before - pool.len();
                    debug(|| {
                        format!(
                            "deepened filter to {reach}: pool {before} -> {}",
                            pool.len()
                        )
                    });
                    // If nothing was eliminated the retry will fail again;
                    // once `reach` hits the cap the error propagates.
                }
                Err(e) => return Err(e),
            }
        };
        report.houdini_runs += 1;
        report.houdini_iterations += hres.iterations;
        let survivors = hres.invariant;
        // Shrink the pool to its surviving partition. Blocking conjectures
        // are *aspirational*: a single blocking clause is rarely inductive
        // by itself (its consecution needs the clauses that will be learned
        // from later CTIs), so Houdini dropping one does not retire it — it
        // stays in the candidate set until the accumulated frontier makes
        // it inductive, exactly as in the paper's interactive sessions.
        let is_safety = |c: &Conjecture| c.name.starts_with("S_");
        let is_blocking = |c: &Conjecture| c.name.starts_with("B");
        pool = survivors
            .iter()
            .filter(|c| !is_safety(c) && !is_blocking(c))
            .cloned()
            .collect();

        let safety_survived = safety
            .iter()
            .all(|s| survivors.iter().any(|c| c.name == s.name));
        if safety_survived && hres.proves_safety {
            report.status = InferStatus::Proved;
            report.invariant = survivors;
            break;
        }

        if rounds >= MAX_ROUNDS {
            report.invariant = survivors;
            break;
        }
        rounds += 1;

        // Block: ask for a CTI of the full aspirational set (safety ∪
        // blocking ∪ surviving pool) and generalize its pre-state into a
        // new blocking conjecture (the diagram machinery of Definitions
        // 4–5, minimized under k-invariance). Because the pre-state of the
        // CTI satisfies every blocking clause learned so far and the new
        // clause excludes it, each round's frontier state is genuinely new.
        let mut full = safety.clone();
        full.extend(blocking.iter().cloned());
        full.extend(pool.iter().cloned());
        let cti = match verifier.find_minimal_cti(&full, &measures) {
            Ok(None) => {
                report.status = InferStatus::Proved;
                report.invariant = full;
                break;
            }
            Ok(Some(cti)) => cti,
            // The aspirational set (unlike Houdini's surviving subset)
            // can ground over the instance limit — e.g. a learned blocking
            // clause with many variables. Degrade to Unknown, never a hard
            // failure for a resource limit the caller can raise.
            Err(EprError::TooManyInstances { .. }) => {
                return Err(EprError::Inconclusive(ivy_epr::StopReason::InstanceBudget));
            }
            Err(e) => return Err(e),
        };
        if let Violation::Initiation { conjecture } = &cti.violation {
            if conjecture.starts_with("S_") {
                // An initial state violates a safety property: a real bug.
                report.status = InferStatus::ReachableCounterexample;
                report.invariant = survivors;
                break;
            }
            // A candidate excludes an initial state — it can never be part
            // of the invariant, so retire it for good (its interned id
            // stays in `blocked_ids`, so it is never regenerated).
            debug(|| {
                format!("round {rounds}: retiring `{conjecture}` (excludes an initial state)")
            });
            blocking.retain(|b| &b.name != conjecture);
            pool.retain(|c| &c.name != conjecture);
            continue;
        }
        let s_u = PartialStructure::from_structure_without(&cti.state, &program.locals);
        let auto = match generalizer.auto_generalize(&s_u, gen_bound) {
            Ok(auto) => auto,
            // Generalizing a wide CTI can blow the instance limit while
            // checking k-unreachability of a candidate diagram; like the
            // frame cases above, an exhausted budget is Unknown, not a bug.
            Err(EprError::TooManyInstances { .. }) => {
                return Err(EprError::Inconclusive(ivy_epr::StopReason::InstanceBudget));
            }
            Err(e) => return Err(e),
        };
        let progress = match auto {
            AutoGen::TooStrong(_) => {
                // The CTI pre-state is reachable within the bound, so its
                // successor is too. If that successor violates safety the
                // protocol is buggy; if it violates a candidate, the
                // candidate excludes a reachable state and is retired.
                match &cti.violation {
                    Violation::Safety { .. } => {
                        report.status = InferStatus::ReachableCounterexample;
                        report.invariant = survivors;
                        break;
                    }
                    Violation::Consecution { conjecture, .. } if !conjecture.starts_with("S_") => {
                        debug(|| {
                            format!(
                                "round {rounds}: retiring `{conjecture}` (blocks a reachable state)"
                            )
                        });
                        blocking.retain(|b| &b.name != conjecture);
                        pool.retain(|c| &c.name != conjecture);
                        // The retired clause passed the `gen_bound`-step
                        // check when it was learned, so the bound is too
                        // shallow — deepen it for subsequent rounds.
                        gen_bound = (gen_bound + 1).min(gen_cap);
                        true
                    }
                    _ => {
                        // A reachable state steps to a safety violation.
                        report.status = InferStatus::ReachableCounterexample;
                        report.invariant = survivors;
                        break;
                    }
                }
            }
            AutoGen::Generalized { conjecture, .. } => {
                let id = intern(&conjecture);
                if blocked_ids.insert(id) {
                    report.blocked += 1;
                    debug(|| format!("round {rounds}: blocking B{}: {conjecture}", report.blocked));
                    blocking.push(Conjecture::new(format!("B{}", report.blocked), conjecture));
                    true
                } else if gen_bound < gen_cap {
                    // Generalization re-derived a conjecture that was
                    // already learned (and, if retired, refuted). A deeper
                    // bound makes the minimization keep more facts, so the
                    // same CTI state yields a strictly weaker clause.
                    gen_bound += 1;
                    debug(|| format!("round {rounds}: duplicate diagram, bound -> {gen_bound}"));
                    true
                } else {
                    false
                }
            }
        };
        if !progress {
            // Generalization stagnated: enlarge the template incrementally
            // (literals first, then variables) and add only clauses whose
            // canonical key is new.
            if spec.max_literals < LITERAL_CAP {
                spec.max_literals += 1;
            } else if spec.vars_per_sort < VAR_CAP {
                spec.vars_per_sort += 1;
            } else {
                report.invariant = survivors;
                break;
            }
            report.enlargements += 1;
            let mut delta = generate_clauses_into(&program.sig, &spec, &mut seen, &mut next_index);
            report.generated += delta.len();
            let before = delta.len();
            reachability_filter(
                program,
                oracle,
                &mut delta,
                0..=reach,
                &mut report.filter_states,
            )?;
            report.filtered_out += before - delta.len();
            pool.extend(delta);
        }
    }

    report.queries = oracle.rollup().report.queries - queries_before;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::diagram;
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
    fn template_vars_do_not_collide_with_diagram_vars() {
        // Regression: template variables used to be named `NODE0`, … — the
        // exact names `diagram_var` gives diagram variables, silently
        // identifying distinct variables when a template clause is
        // conjoined with a diagram-derived conjecture.
        let p = parse_program(SPREAD).unwrap();
        let clauses = generate_clauses(&p.sig, &TemplateSpec::legacy(2, 2));
        let mut s = ivy_fol::Structure::new(std::sync::Arc::new(p.sig.clone()));
        let n0 = s.add_element("node");
        s.set_rel(Sym::new("marked"), vec![n0.clone()], true);
        s.set_fun(Sym::new("seed"), vec![], n0);
        let diag = diagram(&PartialStructure::from_structure(&s));
        let (diag_vars, clause_vars) = ivy_fol::Interner::with(|it| {
            let d = it.intern(&diag);
            let dv = it.all_vars(d).as_ref().clone();
            let cv: Vec<_> = clauses
                .iter()
                .map(|c| {
                    let f = it.intern(&c.formula);
                    it.all_vars(f).as_ref().clone()
                })
                .collect();
            (dv, cv)
        });
        assert!(!diag_vars.is_empty());
        for (c, vars) in clauses.iter().zip(&clause_vars) {
            for v in vars {
                assert!(
                    !diag_vars.contains(v),
                    "template variable {v} collides with a diagram variable in {}",
                    c.formula
                );
            }
        }
    }

    #[test]
    fn generation_dedups_alpha_variants() {
        let p = parse_program(SPREAD).unwrap();
        let spec = TemplateSpec::legacy(2, 2);
        let clauses = generate_clauses(&p.sig, &spec);
        // Every pair of emitted clauses must have distinct canonical keys.
        let mut bindings = Vec::new();
        for sort in p.sig.sorts() {
            for i in 0..2 {
                bindings.push(Binding::new(template_var(sort, i), *sort));
            }
        }
        let perms = sort_permutations(&bindings);
        let mut keys = HashSet::new();
        for c in &clauses {
            let body = match &c.formula {
                Formula::Forall(_, body) => body.as_ref(),
                other => other,
            };
            let lits = disjuncts(body);
            assert!(
                keys.insert(canonical_clause(&lits, &perms)),
                "duplicate alpha-class: {}",
                c.formula
            );
        }
    }

    fn disjuncts(f: &Formula) -> Vec<FormulaId> {
        match f {
            Formula::Or(parts) => parts.iter().map(intern).collect(),
            other => vec![intern(other)],
        }
    }

    #[test]
    fn infer_proves_spread_from_safety_alone() {
        let p = parse_program(SPREAD).unwrap();
        assert!(check_program(&p).is_empty());
        let oracle = Arc::new(Oracle::new());
        let report = infer(&p, &oracle, &InferOptions::default()).unwrap();
        assert_eq!(report.status, InferStatus::Proved, "{report:?}");
        // The invariant must include the safety property and be inductive.
        let v = Verifier::new(&p);
        assert!(v.check(&report.invariant).unwrap().is_inductive());
        assert!(report.queries > 0);
    }

    #[test]
    fn reachability_filter_walks_every_depth_on_one_session() {
        let p = parse_program(SPREAD).unwrap();
        let oracle = Arc::new(Oracle::new());
        let mut pool = generate_clauses(&p.sig, &TemplateSpec::for_program(&p, 1, 2));
        let before = pool.len();
        let mut states = 0;
        reachability_filter(&p, &oracle, &mut pool, 0..=2, &mut states).unwrap();
        assert!(
            states > 0 && pool.len() < before,
            "{before} -> {}",
            pool.len()
        );
        assert_eq!(oracle.rollup().sessions_built, 1);
        // Every survivor holds in every state reachable within two steps.
        let bmc = crate::Bmc::new(&p);
        for c in &pool {
            assert!(
                bmc.check_k_invariance(&c.formula, 2).unwrap().is_none(),
                "{c}"
            );
        }
    }

    #[test]
    fn locals_are_excluded_from_the_vocabulary() {
        let p = parse_program(SPREAD).unwrap();
        let spec = TemplateSpec::for_program(&p, 1, 1);
        let clauses = generate_clauses(&p.sig, &spec);
        let (mentions_local, mentions_seed) = ivy_fol::Interner::with(|it| {
            let mut local = false;
            let mut seed = false;
            for c in &clauses {
                let f = it.intern(&c.formula);
                local |= it.mentions(f, Sym::new("n"));
                seed |= it.mentions(f, Sym::new("seed"));
            }
            (local, seed)
        });
        assert!(!mentions_local, "local leaked into template");
        assert!(mentions_seed, "constants missing from template");
    }
}
