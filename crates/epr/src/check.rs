//! The EPR satisfiability check: the decision procedure behind every Ivy
//! query (Theorem 3.3 of the paper).
//!
//! Input: a signature with stratified functions and a set of labeled
//! sentences that are `∃*∀*` after prenexing. Output: a finite model
//! (structure) or an UNSAT core over the labels.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ivy_fol::intern::{FormulaId, FormulaNode, Interner};
use ivy_fol::xform::Block;
use ivy_fol::{
    Binding, Elem, Formula, SigError, Signature, SkolemError, Sort, SortError, Structure, Sym,
};
use ivy_sat::{Lit, SolveResult, Stats};
use ivy_telemetry::{counter_add, Budget, QueryReport, Span, StopReason};

use crate::encode::{Encoder, EqualityMode, LazyResult, Template};

/// A Skolemized assertion split into one miniscoped universal job: the
/// bindings to enumerate and the pre-compiled instantiation template of the
/// matrix (see [`Template`]).
#[derive(Clone, Debug)]
pub(crate) struct GroundJob {
    pub(crate) bindings: Vec<Binding>,
    pub(crate) template: Template,
}
use crate::ground::{ensure_inhabited, TermTable};

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
    /// The lazy equality repair loop exceeded its configured round limit
    /// (only with [`EprCheck::set_lazy_round_limit`]); the query is
    /// undecided. Best-effort callers treat this as "give up".
    RepairLimit {
        /// Rounds performed before giving up.
        rounds: usize,
    },
    /// A query stopped inside its resource [`Budget`] (deadline or
    /// conflict cap) without reaching a verdict. Raised by the
    /// verification loops when a query returns
    /// [`EprOutcome::Unknown`] — the enclosing analysis is
    /// *inconclusive*, never a proof or a refutation.
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
            EprError::RepairLimit { rounds } => {
                write!(f, "lazy equality repair gave up after {rounds} rounds")
            }
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

/// Outcome of [`EprCheck::check`].
#[derive(Clone, Debug)]
pub enum EprOutcome {
    /// Satisfiable, with a finite model (the finite-model property of EPR).
    Sat(Box<Model>),
    /// Unsatisfiable; the labels of an unsatisfiable subset of assertions.
    Unsat(Vec<String>),
    /// The query's [`Budget`] ran out (deadline or conflict cap) before a
    /// verdict. Partial statistics are still recorded — see
    /// [`EprCheck::stats`] / [`EprCheck::report`]. Callers must treat this
    /// as *inconclusive*, never as UNSAT.
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
    /// Equality axiom clauses added (eager mode) or added lazily.
    pub equality_clauses: usize,
    /// Lazy-equality repair rounds performed (0 in eager mode).
    pub equality_rounds: usize,
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
    /// The single stats builder shared by [`EprCheck::check`] and
    /// `EprSession::check`: everything solver- and encoder-derived is read
    /// here, in one place, so the two paths cannot silently diverge.
    pub(crate) fn collect(enc: &Encoder, instances: u64, eq_clauses: usize, rounds: usize) -> Self {
        let (atom_hits, atom_misses) = enc.atom_cache_stats();
        GroundStats {
            universe: enc.table().len(),
            instances,
            equality_clauses: eq_clauses,
            equality_rounds: rounds,
            sat_vars: enc.solver().num_vars(),
            sat_clauses: enc.solver().num_clauses(),
            atom_hits,
            atom_misses,
            sat: enc.solver().stats(),
        }
    }

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
        let (intern_hits, intern_misses) = ivy_fol::intern::cache_stats();
        let report = QueryReport {
            queries: 1,
            outcome: outcome.to_string(),
            stop,
            wall_nanos,
            universe: self.universe as u64,
            instances: self.instances.saturating_sub(prev.instances),
            // Equality repair numbers are already per-call (the caller
            // passes this check's round count), so no delta.
            equality_rounds: self.equality_rounds as u64,
            equality_clauses: self.equality_clauses as u64,
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
            intern_hits,
            intern_misses,
            atom_cache_hits: self.atom_hits.saturating_sub(prev.atom_hits),
            atom_cache_misses: self.atom_misses.saturating_sub(prev.atom_misses),
        };
        counter_add("epr.queries", 1);
        counter_add("epr.instances", report.instances);
        counter_add("sat.decisions", report.decisions);
        counter_add("sat.propagations", report.propagations);
        counter_add("sat.conflicts", report.conflicts);
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

/// An EPR satisfiability query: labeled `∃*∀*` assertions over a signature.
///
/// # Examples
///
/// ```
/// use ivy_fol::{parse_formula, Signature};
/// use ivy_epr::EprCheck;
///
/// let mut sig = Signature::new();
/// sig.add_sort("s")?;
/// sig.add_relation("r", ["s", "s"])?;
/// let mut q = EprCheck::new(&sig)?;
/// q.assert_labeled("total", &parse_formula("forall X:s, Y:s. r(X, Y) | r(Y, X)")?)?;
/// q.assert_labeled("gap", &parse_formula("exists X:s, Y:s. ~r(X, Y) & ~r(Y, X)")?)?;
/// assert!(!q.check()?.is_sat());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct EprCheck {
    sig: Signature,
    mode: InstantiationMode,
    assertions: Vec<(String, FormulaId)>,
    instance_limit: u64,
    equality_mode: EqualityMode,
    lazy_round_limit: Option<usize>,
    budget: Budget,
    stats: GroundStats,
    report: QueryReport,
}

impl EprCheck {
    /// Creates a query over `sig` in [`InstantiationMode::Full`].
    ///
    /// # Errors
    ///
    /// Returns [`EprError::Sig`] if the signature's functions are not
    /// stratified — the decidability precondition of Section 3.3. The error
    /// names the offending sort cycle and the function edges inducing it;
    /// [`EprCheck::with_mode`] with [`InstantiationMode::Bounded`] admits
    /// such signatures.
    pub fn new(sig: &Signature) -> Result<EprCheck, EprError> {
        EprCheck::with_mode(sig, InstantiationMode::Full)
    }

    /// Creates a query over `sig` with an explicit [`InstantiationMode`].
    ///
    /// # Errors
    ///
    /// In [`InstantiationMode::Full`], returns [`EprError::Sig`] for
    /// unstratified signatures. [`InstantiationMode::Bounded`] accepts any
    /// signature — fragment membership becomes a per-query analysis that
    /// decides how much the bound ends up mattering, not a constructor
    /// error.
    pub fn with_mode(sig: &Signature, mode: InstantiationMode) -> Result<EprCheck, EprError> {
        if !mode.is_bounded() {
            sig.stratification()?;
        }
        Ok(EprCheck {
            sig: sig.clone(),
            mode,
            assertions: Vec::new(),
            instance_limit: DEFAULT_INSTANCE_LIMIT,
            equality_mode: EqualityMode::default(),
            lazy_round_limit: None,
            budget: Budget::UNLIMITED,
            stats: GroundStats::default(),
            report: QueryReport::default(),
        })
    }

    /// The instantiation mode this query runs under.
    pub fn mode(&self) -> InstantiationMode {
        self.mode
    }

    /// Bounds the lazy equality repair loop; exceeding it yields
    /// [`EprError::RepairLimit`]. `None` (the default) never gives up.
    pub fn set_lazy_round_limit(&mut self, limit: Option<usize>) {
        self.lazy_round_limit = limit;
    }

    /// Applies a resource [`Budget`]. A deadline or conflict cap that trips
    /// mid-query makes [`EprCheck::check`] return
    /// [`EprOutcome::Unknown`] (with partial statistics) instead of
    /// running unbounded; `max_instances` tightens the instantiation limit.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Selects eager or lazy equality axiom generation (default: lazy).
    pub fn set_equality_mode(&mut self, mode: EqualityMode) {
        self.equality_mode = mode;
    }

    /// Caps the number of universal instantiations grounding may perform.
    pub fn set_instance_limit(&mut self, limit: u64) {
        self.instance_limit = limit;
    }

    /// Adds a labeled assertion. The formula must be closed and well-sorted;
    /// its quantifier structure is validated at [`EprCheck::check`] time
    /// (after Skolemization).
    ///
    /// # Errors
    ///
    /// Returns [`EprError::Sort`] for ill-sorted formulas.
    pub fn assert_labeled(
        &mut self,
        label: impl Into<String>,
        f: &Formula,
    ) -> Result<(), EprError> {
        f.well_sorted(&self.sig, &BTreeMap::new())?;
        let id = ivy_fol::intern::intern(f);
        self.assertions.push((label.into(), id));
        Ok(())
    }

    /// Adds a labeled assertion that is already interned, avoiding a tree
    /// materialization for callers working in id space (the sort check
    /// still resolves once — the only cold walk an assertion pays).
    ///
    /// # Errors
    ///
    /// Returns [`EprError::Sort`] for ill-sorted formulas.
    pub fn assert_id(&mut self, label: impl Into<String>, f: FormulaId) -> Result<(), EprError> {
        let tree = ivy_fol::intern::resolve(f);
        tree.well_sorted(&self.sig, &BTreeMap::new())?;
        self.assertions.push((label.into(), f));
        Ok(())
    }

    /// Grounding and solving statistics of the last `check` call.
    pub fn stats(&self) -> GroundStats {
        self.stats
    }

    /// Telemetry report of the last `check` call (same numbers as
    /// [`EprCheck::stats`], in the machine-readable form emitted by
    /// `--profile`). Partial stats are recorded even when the outcome is
    /// [`EprOutcome::Unknown`].
    pub fn report(&self) -> &QueryReport {
        &self.report
    }

    /// Runs only the grounding pipeline (split, Skolemize, instantiate,
    /// Tseitin-encode) without invoking the SAT solver. Useful for measuring
    /// grounding cost in isolation; the updated [`GroundStats`] are
    /// returned and also available via [`EprCheck::stats`].
    ///
    /// # Errors
    ///
    /// Same as [`EprCheck::check`], minus solver-stage errors.
    pub fn ground_only(&mut self) -> Result<GroundStats, EprError> {
        let _ = self.grounded()?;
        Ok(self.stats)
    }

    /// Decides satisfiability of the conjunction of all assertions.
    ///
    /// # Errors
    ///
    /// [`EprError::Skolem`] when an assertion leaves `∃*∀*`;
    /// [`EprError::TooManyInstances`] when grounding exceeds the limit.
    pub fn check(&mut self) -> Result<EprOutcome, EprError> {
        let started = std::time::Instant::now();
        // An already-expired deadline degrades before grounding even
        // starts: grounding a large query can itself blow the budget.
        if self.budget.expired() {
            let stop = Some(StopReason::DeadlineExceeded);
            self.report = self.stats.report_delta(
                &GroundStats::default(),
                "unknown",
                stop,
                started.elapsed().as_nanos(),
            );
            return Ok(EprOutcome::Unknown(StopReason::DeadlineExceeded));
        }
        let (work_sig, mut enc, guards) = self.grounded()?;
        let assumptions: Vec<Lit> = guards.iter().map(|(g, _)| *g).collect();
        enc.solver_mut().set_deadline(self.budget.deadline);
        let sat_span = Span::enter("sat");
        let result = match self.equality_mode {
            EqualityMode::Eager => {
                self.stats.equality_clauses = enc.finalize_equality();
                let max_conflicts = self.budget.max_conflicts.unwrap_or(u64::MAX);
                match enc.solver_mut().solve_budgeted(&assumptions, max_conflicts) {
                    Some(r) => Ok(r),
                    None => Err(match enc.solver().last_interrupt() {
                        Some(ivy_sat::Interrupt::Deadline) => StopReason::DeadlineExceeded,
                        _ => StopReason::ConflictBudget,
                    }),
                }
            }
            EqualityMode::Lazy => {
                let (result, rounds) = enc.solve_lazy_with(
                    &assumptions,
                    self.lazy_round_limit,
                    self.budget.max_conflicts,
                );
                self.stats.equality_rounds = rounds;
                match result {
                    LazyResult::Sat => Ok(SolveResult::Sat),
                    LazyResult::Unsat => Ok(SolveResult::Unsat),
                    LazyResult::Deadline => Err(StopReason::DeadlineExceeded),
                    LazyResult::Conflicts => Err(StopReason::ConflictBudget),
                    LazyResult::GaveUp => {
                        drop(sat_span);
                        self.finish_stats(&enc, started, "gave_up", Some(StopReason::RepairLimit));
                        return Err(EprError::RepairLimit { rounds });
                    }
                }
            }
        };
        drop(sat_span);
        let outcome = match result {
            Err(reason) => EprOutcome::Unknown(reason),
            // A bounded SAT is only a verdict when nothing was cut: if the
            // universe was truncated or an instantiation skipped, the model
            // satisfies a strict subset of the full ground problem and may
            // not extend — degrade to Unknown. (UNSAT always stands: the
            // bounded clauses are a subset of the full instantiation.)
            // `extract_structure` also relies on the closure being complete.
            Ok(SolveResult::Sat) if enc.table().truncated() || enc.skipped_instances() > 0 => {
                EprOutcome::Unknown(StopReason::BoundReached)
            }
            Ok(SolveResult::Sat) => {
                let structure = extract_structure(&enc, &work_sig);
                EprOutcome::Sat(Box::new(Model { structure }))
            }
            Ok(SolveResult::Unsat) => {
                let core: Vec<String> = enc
                    .solver()
                    .unsat_core()
                    .iter()
                    .filter_map(|l| {
                        guards
                            .iter()
                            .find(|(g, _)| g == l)
                            .map(|(_, label)| label.clone())
                    })
                    .collect();
                EprOutcome::Unsat(core)
            }
        };
        let stop = match &outcome {
            EprOutcome::Unknown(r) => Some(*r),
            _ => None,
        };
        self.finish_stats(&enc, started, outcome.tag(), stop);
        Ok(outcome)
    }

    /// Refreshes `stats` and `report` from the encoder through the shared
    /// builder (each `check` uses a fresh encoder, so the delta baseline is
    /// empty). Equality fields filled earlier in `check` are preserved.
    fn finish_stats(
        &mut self,
        enc: &Encoder,
        started: std::time::Instant,
        outcome: &str,
        stop: Option<StopReason>,
    ) {
        let eq_clauses = self.stats.equality_clauses;
        let rounds = self.stats.equality_rounds;
        self.stats = GroundStats::collect(enc, self.stats.instances, eq_clauses, rounds);
        self.report = self.stats.report_delta(
            &GroundStats::default(),
            outcome,
            stop,
            started.elapsed().as_nanos(),
        );
    }

    /// The grounding prefix shared by [`EprCheck::check`] and
    /// [`EprCheck::ground_only`]: split, Skolemize, instantiate and encode
    /// every assertion into a fresh [`Encoder`], one assumption guard per
    /// assertion.
    #[allow(clippy::type_complexity)]
    fn grounded(&mut self) -> Result<(Signature, Encoder, Vec<(Lit, String)>), EprError> {
        let ground_span = Span::enter("ground");
        let mut work_sig = self.sig.clone();
        // Split, then Skolemize every assertion, extending the working
        // signature. Splitting (relational Tseitin with fresh nullary guard
        // relations) keeps disjunctions of universally-defined transition
        // paths from merging all their quantifiers into one huge block —
        // without it a BMC step over p paths with v variables each would
        // ground over (p·v) variables at once.
        let mut guard_counter = 0usize;
        let mut ground_jobs: Vec<(String, Vec<GroundJob>)> = Vec::new();
        Interner::with(|it| -> Result<(), EprError> {
            for (label, f) in &self.assertions {
                let f = it.eliminate_ite(*f);
                let n = it.nnf(f);
                let mut pieces = Vec::new();
                split_for_grounding(
                    it,
                    n,
                    Vec::new(),
                    &mut work_sig,
                    &mut guard_counter,
                    &mut pieces,
                );
                let mut jobs = Vec::new();
                for piece in pieces {
                    // Bounded mode tolerates ∀∃ nesting: existentials under
                    // universals Skolemize to genuine functions, whose
                    // applications the bounded universe only unrolls up to
                    // the depth bound.
                    let sk = match self.mode {
                        InstantiationMode::Full => it.skolemize(piece, &mut work_sig)?,
                        InstantiationMode::Bounded(_) => {
                            it.skolemize_bounded(piece, &mut work_sig)?
                        }
                    };
                    let bindings: Vec<Binding> = sk
                        .universal
                        .prefix
                        .iter()
                        .flat_map(|b| match b {
                            Block::Forall(bs) => bs.clone(),
                            Block::Exists(_) => unreachable!("skolemize leaves only universals"),
                        })
                        .collect();
                    // Miniscope: instantiate each top-level conjunct only
                    // over the variables it actually uses (free-var sets are
                    // cached on the interned nodes).
                    for conjunct in it.conjuncts(sk.universal.matrix) {
                        let fv = it.free_vars(conjunct);
                        let needed: Vec<Binding> = bindings
                            .iter()
                            .filter(|b| fv.contains(&b.var))
                            .cloned()
                            .collect();
                        let template = Template::compile(it, conjunct, &needed);
                        jobs.push(GroundJob {
                            bindings: needed,
                            template,
                        });
                    }
                }
                ground_jobs.push((label.clone(), jobs));
            }
            Ok(())
        })?;
        ensure_inhabited(&mut work_sig);
        let table = match self.mode {
            InstantiationMode::Full => TermTable::build(&work_sig),
            InstantiationMode::Bounded(depth) => TermTable::build_bounded(&work_sig, depth),
        };
        // Estimate and enforce the instantiation budget.
        let mut estimated: u64 = 0;
        for (_, jobs) in &ground_jobs {
            for job in jobs {
                let mut count: u64 = 1;
                for b in &job.bindings {
                    count = count.saturating_mul(table.of_sort(&b.sort).len() as u64);
                }
                estimated = estimated.saturating_add(count);
            }
        }
        let limit = self
            .instance_limit
            .min(self.budget.max_instances.unwrap_or(u64::MAX));
        if estimated > limit {
            return Err(EprError::TooManyInstances { estimated, limit });
        }
        self.stats = GroundStats {
            universe: table.len(),
            instances: estimated,
            ..GroundStats::default()
        };
        drop(ground_span);
        let encode_span = Span::enter("encode");
        let mut enc = Encoder::new(table);
        enc.set_bound(self.mode.depth());
        // One assumption guard per assertion (for UNSAT cores).
        let mut guards: Vec<(Lit, String)> = Vec::new();
        for (label, jobs) in &ground_jobs {
            let guard = enc.fresh_var().pos();
            guards.push((guard, label.clone()));
            for job in jobs {
                instantiate(&mut enc, guard, job);
            }
        }
        drop(encode_span);
        Ok((work_sig, enc, guards))
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
    // tuple prefix — the recursion below only reads them.
    let domains: Vec<Vec<usize>> = job
        .bindings
        .iter()
        .map(|b| enc.table().of_sort(&b.sort).to_vec())
        .collect();
    fn go(
        enc: &mut Encoder,
        guard: Lit,
        job: &GroundJob,
        domains: &[Vec<usize>],
        env: &mut Vec<usize>,
        min_term: usize,
        any_new: bool,
    ) {
        if env.len() == job.bindings.len() {
            if any_new || min_term == 0 {
                enc.assert_template(&job.template, env, guard);
            }
            return;
        }
        for &t in &domains[env.len()] {
            env.push(t);
            go(
                enc,
                guard,
                job,
                domains,
                env,
                min_term,
                any_new || t >= min_term,
            );
            env.pop();
        }
    }
    go(enc, guard, job, &domains, &mut Vec::new(), min_term, false);
}

/// Enumerates all ground instantiations of the job and asserts
/// `guard -> matrix[env]` for each.
fn instantiate(enc: &mut Encoder, guard: Lit, job: &GroundJob) {
    instantiate_delta(enc, guard, job, 0);
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
    use ivy_fol::parse_formula;

    fn order_sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("id").unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        sig
    }

    const TOTAL_ORDER: &str = "forall X:id. le(X, X)";
    const ANTISYM: &str = "forall X:id, Y:id. le(X, Y) & le(Y, X) -> X = Y";
    const TRANS: &str = "forall X:id, Y:id, Z:id. le(X, Y) & le(Y, Z) -> le(X, Z)";
    const TOTAL: &str = "forall X:id, Y:id. le(X, Y) | le(Y, X)";

    #[test]
    fn total_order_axioms_satisfiable() {
        let sig = order_sig();
        let mut q = EprCheck::new(&sig).unwrap();
        for (i, src) in [TOTAL_ORDER, ANTISYM, TRANS, TOTAL].iter().enumerate() {
            q.assert_labeled(format!("ax{i}"), &parse_formula(src).unwrap())
                .unwrap();
        }
        q.assert_labeled(
            "three",
            &parse_formula("exists X:id, Y:id, Z:id. X ~= Y & Y ~= Z & X ~= Z").unwrap(),
        )
        .unwrap();
        match q.check().unwrap() {
            EprOutcome::Sat(model) => {
                let s = &model.structure;
                assert!(s.domain_size(&Sort::new("id")) >= 3);
                // The model really satisfies all assertions.
                for src in [TOTAL_ORDER, ANTISYM, TRANS, TOTAL] {
                    assert!(
                        s.eval_closed(&parse_formula(src).unwrap()).unwrap(),
                        "{src}"
                    );
                }
            }
            EprOutcome::Unsat(core) => panic!("unexpectedly unsat: {core:?}"),
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
    }

    #[test]
    fn contradiction_detected_with_core() {
        let sig = order_sig();
        let mut q = EprCheck::new(&sig).unwrap();
        q.assert_labeled("refl", &parse_formula(TOTAL_ORDER).unwrap())
            .unwrap();
        q.assert_labeled("irrefl", &parse_formula("exists X:id. ~le(X, X)").unwrap())
            .unwrap();
        q.assert_labeled("total", &parse_formula(TOTAL).unwrap())
            .unwrap();
        match q.check().unwrap() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"refl".to_string()));
                assert!(core.contains(&"irrefl".to_string()));
                assert!(!core.contains(&"total".to_string()), "core: {core:?}");
            }
            EprOutcome::Sat(_) => panic!("expected unsat"),
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
    }

    #[test]
    fn finite_model_property_bounds_domain() {
        // exists X,Y. X ~= Y with nothing else: minimal model has 2 elements;
        // our construction never exceeds the number of Skolem constants.
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        let mut q = EprCheck::new(&sig).unwrap();
        q.assert_labeled("pair", &parse_formula("exists X:s, Y:s. X ~= Y").unwrap())
            .unwrap();
        match q.check().unwrap() {
            EprOutcome::Sat(model) => {
                assert_eq!(model.structure.domain_size(&Sort::new("s")), 2);
            }
            EprOutcome::Unsat(_) => panic!("satisfiable"),
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
    }

    #[test]
    fn skolems_can_merge_when_equality_forces() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        let mut q = EprCheck::new(&sig).unwrap();
        // At most one element, and two witnesses: they must merge.
        q.assert_labeled(
            "at_most_one",
            &parse_formula("forall X:s, Y:s. X = Y").unwrap(),
        )
        .unwrap();
        q.assert_labeled(
            "two_names",
            &parse_formula("exists X:s, Y:s. r(X) & r(Y)").unwrap(),
        )
        .unwrap();
        match q.check().unwrap() {
            EprOutcome::Sat(model) => {
                assert_eq!(model.structure.domain_size(&Sort::new("s")), 1);
            }
            EprOutcome::Unsat(_) => panic!("satisfiable"),
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
    }

    #[test]
    fn ae_formula_rejected() {
        let sig = order_sig();
        let mut q = EprCheck::new(&sig).unwrap();
        q.assert_labeled(
            "ae",
            &parse_formula("forall X:id. exists Y:id. le(X, Y)").unwrap(),
        )
        .unwrap();
        assert!(matches!(q.check(), Err(EprError::Skolem(_))));
    }

    #[test]
    fn unstratified_signature_rejected() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        assert!(matches!(EprCheck::new(&sig), Err(EprError::Sig(_))));
    }

    #[test]
    fn bounded_mode_admits_unstratified_signature() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        // Full mode refuses at construction; bounded mode proceeds, and an
        // UNSAT answer is a verdict even though the universe is truncated.
        assert!(EprCheck::new(&sig).is_err());
        let mut q = EprCheck::with_mode(&sig, InstantiationMode::Bounded(2)).unwrap();
        q.assert_labeled("absurd", &parse_formula("exists X:s. X ~= X").unwrap())
            .unwrap();
        match q.check().unwrap() {
            EprOutcome::Unsat(core) => assert_eq!(core, vec!["absurd".to_string()]),
            other => panic!("expected unsat, got {}", other.tag()),
        }
    }

    #[test]
    fn bounded_mode_degrades_sat_under_live_bound() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        // `next` makes the closure infinite, so any bound truncates; a SAT
        // answer is then only about a strict subset of the ground problem.
        let mut q = EprCheck::with_mode(&sig, InstantiationMode::Bounded(2)).unwrap();
        q.assert_labeled("trivial", &parse_formula("exists X:s. X = X").unwrap())
            .unwrap();
        assert!(matches!(
            q.check().unwrap(),
            EprOutcome::Unknown(StopReason::BoundReached)
        ));
    }

    #[test]
    fn bounded_mode_keeps_genuine_sat_when_closure_fits() {
        // A stratified signature whose closure fits under the bound: nothing
        // is cut, so SAT stays a verdict with a real model.
        let sig = order_sig();
        let mut q = EprCheck::with_mode(&sig, InstantiationMode::Bounded(4)).unwrap();
        q.assert_labeled(
            "pair",
            &parse_formula("exists X:id, Y:id. le(X, Y) & X ~= Y").unwrap(),
        )
        .unwrap();
        match q.check().unwrap() {
            EprOutcome::Sat(model) => {
                assert!(model.structure.domain_size(&Sort::new("id")) >= 2);
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
    }

    #[test]
    fn bounded_mode_proves_ae_contradiction() {
        // ∀∃ assertion Skolemizes to a function sk : id -> id; together with
        // an ∃∀ witness of an le-maximal element it is UNSAT, and depth 1
        // already holds the witnessing term sk(c).
        let sig = order_sig();
        let mut full = EprCheck::new(&sig).unwrap();
        full.assert_labeled(
            "succ",
            &parse_formula("forall X:id. exists Y:id. le(X, Y) & X ~= Y").unwrap(),
        )
        .unwrap();
        assert!(matches!(full.check(), Err(EprError::Skolem(_))));

        let mut q = EprCheck::with_mode(&sig, InstantiationMode::Bounded(1)).unwrap();
        q.assert_labeled(
            "succ",
            &parse_formula("forall X:id. exists Y:id. le(X, Y) & X ~= Y").unwrap(),
        )
        .unwrap();
        q.assert_labeled(
            "max",
            &parse_formula("exists X:id. forall Y:id. le(X, Y) -> X = Y").unwrap(),
        )
        .unwrap();
        match q.check().unwrap() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"succ".to_string()), "core: {core:?}");
                assert!(core.contains(&"max".to_string()), "core: {core:?}");
            }
            other => panic!("expected unsat, got {}", other.tag()),
        }
    }

    #[test]
    fn stratified_functions_in_models() {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        let mut q = EprCheck::new(&sig).unwrap();
        // Injectivity + two nodes.
        q.assert_labeled(
            "unique_ids",
            &parse_formula("forall N1:node, N2:node. N1 ~= N2 -> idf(N1) ~= idf(N2)").unwrap(),
        )
        .unwrap();
        q.assert_labeled(
            "two",
            &parse_formula("exists N1:node, N2:node. N1 ~= N2").unwrap(),
        )
        .unwrap();
        match q.check().unwrap() {
            EprOutcome::Sat(model) => {
                let s = &model.structure;
                assert!(s.domain_size(&Sort::new("id")) >= 2, "ids must differ");
                assert!(s.totality_gap().is_none(), "functions are total");
            }
            EprOutcome::Unsat(_) => panic!("satisfiable"),
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
    }

    #[test]
    fn instance_limit_enforced() {
        let sig = order_sig();
        let mut q = EprCheck::new(&sig).unwrap();
        q.set_instance_limit(2);
        q.assert_labeled("trans", &parse_formula(TRANS).unwrap())
            .unwrap();
        q.assert_labeled(
            "some",
            &parse_formula("exists X:id, Y:id. le(X, Y)").unwrap(),
        )
        .unwrap();
        assert!(matches!(q.check(), Err(EprError::TooManyInstances { .. })));
    }
}
