//! EPR sessions: the one front end of this crate's decision procedure.
//!
//! Every Ivy check is a call to [`EprSession::check`]. A one-off query is a
//! session used once: assert the labeled sentences, check, drop. The
//! verification loops built on this crate (inductiveness checking,
//! Houdini, BMC, CTI minimization) discharge *families* of queries that
//! share almost everything: the axioms, the initial/transition frame, and
//! the invariant-conjunct hypotheses are identical from one query to the
//! next; only a small per-conjecture violation changes. A session grounds
//! that shared frame once: each assertion set becomes a *group* of clauses
//! guarded by an activation literal, queries select groups via solver
//! assumptions, and the CDCL solver's learnt clauses — plus every equality
//! lemma the search produced — carry over between queries.
//!
//! Later groups may introduce new Skolem constants, growing the ground-term
//! universe. The session then re-instantiates every live group's universal
//! jobs over exactly the *delta* (tuples mentioning at least one new term),
//! so persistent universals stay sound over the grown universe without
//! repeating old instantiations. To keep the universe from growing linearly
//! with the number of queries — which would make the per-query
//! delta-instantiation cost quadratic over a long session — Skolem
//! constants of retired groups are pooled by sort and reused by later
//! groups: a retired group's clauses are deactivated at level 0, so its
//! Skolem constants are unconstrained and free to take on new meanings.
//!
//! Equality is a theory of the search ([`Encoder::solve`]); its lemmas are
//! valid in the theory of equality and stay in the solver as level-0
//! clauses, so they remain sound for every future query regardless of
//! which groups it enables.

use std::collections::{BTreeMap, HashMap};

use ivy_fol::intern::{FormulaId, Interner};
use ivy_fol::xform::Block;
use ivy_fol::{Binding, Formula, Signature, Sort, Sym};
use ivy_sat::Lit;
use ivy_telemetry::{Budget, QueryReport, Span, StopReason};

use crate::check::{
    extract_structure, instantiate_delta, split_for_grounding, EprError, EprOutcome, GroundJob,
    GroundStats, InstantiationMode, Model, DEFAULT_INSTANCE_LIMIT,
};
use crate::encode::{Encoder, SolveOutcome, Template};
use crate::ground::{ensure_inhabited, TermTable};

/// Content fingerprint of a query *frame*: a signature plus an ordered list
/// of labeled, interned assertions, grounded under an [`InstantiationMode`].
/// Two frames with the same fingerprint ground to the same universe and the
/// same clause groups, so a session built for one can be reused for the
/// other verbatim. The mode is part of the key: a bounded session grounds a
/// different (smaller) universe and clause set than a full one, and two
/// bounded sessions at different depths differ too, so pooled sessions are
/// never shared across modes. This is the cache key of the solver-oracle
/// layer in `ivy-core`; it is only meaningful within one process (interned
/// ids and hashes are process-local).
pub fn frame_fingerprint(
    sig: &Signature,
    asserts: &[(String, FormulaId)],
    mode: InstantiationMode,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    mode.hash(&mut h);
    for s in sig.sorts() {
        s.hash(&mut h);
    }
    for (r, args) in sig.relations() {
        r.hash(&mut h);
        args.hash(&mut h);
    }
    for (f, decl) in sig.functions() {
        f.hash(&mut h);
        decl.args.hash(&mut h);
        decl.ret.hash(&mut h);
    }
    for (label, id) in asserts {
        label.hash(&mut h);
        id.hash(&mut h);
    }
    h.finish()
}

/// Handle to one assertion group of an [`EprSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupId(usize);

struct Group {
    label: String,
    act: Lit,
    /// Miniscoped universal jobs, kept for delta re-instantiation when the
    /// universe grows.
    jobs: Vec<GroundJob>,
    /// Skolem constants this group owns; returned to the session's pool for
    /// reuse when the group is retired.
    skolems: Vec<(Sym, Sort)>,
    enabled: bool,
    retired: bool,
}

/// An incremental EPR query session (see the module docs).
///
/// # Examples
///
/// ```
/// use ivy_fol::{parse_formula, Signature};
/// use ivy_epr::EprSession;
///
/// let mut sig = Signature::new();
/// sig.add_sort("s")?;
/// sig.add_relation("r", ["s"])?;
/// sig.add_constant("a", "s")?;
/// let mut s = EprSession::new(&sig)?;
/// // Persistent frame: r holds everywhere.
/// s.assert_labeled("frame", &parse_formula("forall X:s. r(X)")?)?;
/// assert!(s.check().is_sat());
/// // A per-query violation, retired after its query.
/// let v = s.assert_labeled("violation", &parse_formula("exists X:s. ~r(X)")?)?;
/// assert!(!s.check().is_sat());
/// s.retire(v);
/// assert!(s.check().is_sat());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EprSession {
    work_sig: Signature,
    mode: InstantiationMode,
    enc: Encoder,
    guard_counter: usize,
    groups: Vec<Group>,
    instance_limit: u64,
    /// Instantiations performed over the session's lifetime (the budget is
    /// cumulative: shared-frame instantiations are paid once, not per query).
    instances: u64,
    /// Skolem constants freed by retired groups, by sort. Reusing them keeps
    /// the universe — and with it the delta-instantiation cost of persistent
    /// groups — bounded by the largest single query instead of growing with
    /// every query.
    skolem_pool: BTreeMap<Sort, Vec<Sym>>,
    budget: Budget,
    stats: GroundStats,
    report: QueryReport,
    /// Fingerprint of the frame this session was grounded for, when the
    /// session is managed by a frame cache (see [`frame_fingerprint`]).
    frame_key: Option<u64>,
}

impl EprSession {
    /// Opens a session over `sig` in [`InstantiationMode::Full`].
    ///
    /// # Errors
    ///
    /// Returns [`EprError::Sig`] if the signature's functions are not
    /// stratified. [`EprSession::with_mode`] with
    /// [`InstantiationMode::Bounded`] admits such signatures.
    pub fn new(sig: &Signature) -> Result<EprSession, EprError> {
        EprSession::with_mode(sig, InstantiationMode::Full)
    }

    /// Opens a session over `sig` with an explicit [`InstantiationMode`].
    ///
    /// # Errors
    ///
    /// In [`InstantiationMode::Full`], returns [`EprError::Sig`] for
    /// unstratified signatures; [`InstantiationMode::Bounded`] accepts any
    /// signature and any `∀∃` alternation in later groups, at the price of
    /// SAT answers degrading to [`EprOutcome::Unknown`] whenever the bound
    /// actually cut something.
    pub fn with_mode(sig: &Signature, mode: InstantiationMode) -> Result<EprSession, EprError> {
        if !mode.is_bounded() {
            sig.stratification()?;
        }
        let mut work_sig = sig.clone();
        // Inhabit every sort up front; later Skolem constants only grow
        // domains, which preserves EPR satisfiability.
        ensure_inhabited(&mut work_sig);
        let table = match mode {
            InstantiationMode::Full => TermTable::build(&work_sig),
            InstantiationMode::Bounded(depth) => TermTable::build_bounded(&work_sig, depth),
        };
        let mut enc = Encoder::new(table);
        enc.set_bound(mode.depth());
        Ok(EprSession {
            work_sig,
            mode,
            enc,
            guard_counter: 0,
            groups: Vec::new(),
            instance_limit: DEFAULT_INSTANCE_LIMIT,
            instances: 0,
            skolem_pool: BTreeMap::new(),
            budget: Budget::UNLIMITED,
            stats: GroundStats::default(),
            report: QueryReport::default(),
            frame_key: None,
        })
    }

    /// Tags the session with the [`frame_fingerprint`] of the frame it was
    /// grounded for, so a cache can re-key it on checkout/checkin.
    pub fn set_frame_key(&mut self, key: u64) {
        self.frame_key = Some(key);
    }

    /// The frame fingerprint set by [`EprSession::set_frame_key`], if any.
    pub fn frame_key(&self) -> Option<u64> {
        self.frame_key
    }

    /// The instantiation mode this session runs under.
    pub fn mode(&self) -> InstantiationMode {
        self.mode
    }

    /// Applies a resource [`Budget`]. A deadline or conflict cap that trips
    /// mid-query makes [`EprSession::check`] return
    /// [`EprOutcome::Unknown`] with partial statistics (the session stays
    /// usable).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Caps the *cumulative* number of universal instantiations the session
    /// may perform across all groups.
    pub fn set_instance_limit(&mut self, limit: u64) {
        self.instance_limit = limit;
    }

    /// The working signature: the original symbols plus split guards and
    /// Skolem constants accumulated so far.
    pub fn work_sig(&self) -> &Signature {
        &self.work_sig
    }

    /// Grounding and solving statistics as of the last `check` call.
    pub fn stats(&self) -> GroundStats {
        self.stats
    }

    /// Telemetry report of the last `check` call: the same counters as
    /// [`EprSession::stats`], but as per-query deltas (solver statistics
    /// are cumulative across a session) in the machine-readable form
    /// emitted by `--profile`.
    pub fn report(&self) -> &QueryReport {
        &self.report
    }

    /// Asserts one labeled sentence as its own group. See
    /// [`EprSession::assert_group`].
    ///
    /// # Errors
    ///
    /// As for [`EprSession::assert_group`].
    pub fn assert_labeled(
        &mut self,
        label: impl Into<String>,
        f: &Formula,
    ) -> Result<GroupId, EprError> {
        self.assert_group(label, std::slice::from_ref(f))
    }

    /// Asserts one already-interned sentence as its own group. See
    /// [`EprSession::assert_group_ids`].
    ///
    /// # Errors
    ///
    /// As for [`EprSession::assert_group`].
    pub fn assert_id(
        &mut self,
        label: impl Into<String>,
        f: FormulaId,
    ) -> Result<GroupId, EprError> {
        self.assert_group_ids(label, &[f])
    }

    /// Grounds and encodes the conjunction of `formulas` as a new group,
    /// enabled by default. The group's clauses constrain a query only while
    /// the group is enabled; disable it with [`EprSession::set_enabled`] or
    /// drop it permanently with [`EprSession::retire`].
    ///
    /// If the formulas introduce Skolem constants, the universe grows and
    /// every live group's universal jobs are re-instantiated over the new
    /// tuples, so persistent groups remain sound.
    ///
    /// # Errors
    ///
    /// [`EprError::Sort`] for ill-sorted formulas, [`EprError::Skolem`] when
    /// a formula leaves `∃*∀*`, and [`EprError::TooManyInstances`] when the
    /// cumulative instantiation budget would be exceeded. A rejected group
    /// leaves the session fully unchanged: no signature growth, no universe
    /// extension, no partial encoding, and no budget consumed — asserting
    /// the same or a different group afterwards behaves exactly as if the
    /// rejected attempt never happened.
    pub fn assert_group(
        &mut self,
        label: impl Into<String>,
        formulas: &[Formula],
    ) -> Result<GroupId, EprError> {
        for f in formulas {
            f.well_sorted(&self.work_sig, &BTreeMap::new())?;
        }
        let ids: Vec<FormulaId> =
            Interner::with(|it| formulas.iter().map(|f| it.intern(f)).collect());
        self.group_inner(label.into(), &ids)
    }

    /// Like [`EprSession::assert_group`], but over already-interned
    /// sentences — the common case for callers that build queries in id
    /// space (verification conditions, Houdini, BMC). Only the sort check
    /// materializes a tree.
    ///
    /// # Errors
    ///
    /// As for [`EprSession::assert_group`].
    pub fn assert_group_ids(
        &mut self,
        label: impl Into<String>,
        ids: &[FormulaId],
    ) -> Result<GroupId, EprError> {
        Interner::with(|it| -> Result<(), EprError> {
            for &f in ids {
                it.resolve(f)
                    .well_sorted(&self.work_sig, &BTreeMap::new())?;
            }
            Ok(())
        })?;
        self.group_inner(label.into(), ids)
    }

    fn group_inner(&mut self, label: String, ids: &[FormulaId]) -> Result<GroupId, EprError> {
        let ground_span = Span::enter("ground");
        // Split and Skolemize against *staged* copies of the session state
        // (signature, guard counter, universe). Nothing session-visible
        // mutates until the cumulative instantiation budget has admitted
        // the group, so a rejected group leaves the session untouched —
        // no partial encoding, no leaked Skolem constants, no budget
        // consumed. Each Skolem constant is first offered a pooled name
        // freed by a retired group; only genuinely new constants grow the
        // staged signature.
        let mut staged_sig = self.work_sig.clone();
        let mut staged_counter = self.guard_counter;
        let mut jobs: Vec<GroundJob> = Vec::new();
        let mut reused: Vec<(Sym, Sort)> = Vec::new();
        let mut fresh: Vec<(Sym, Sort)> = Vec::new();
        let staged = Interner::with(|it| -> Result<(), EprError> {
            for &f in ids {
                let f = it.eliminate_ite(f);
                let n = it.nnf(f);
                let mut pieces = Vec::new();
                split_for_grounding(
                    it,
                    n,
                    Vec::new(),
                    &mut staged_sig,
                    &mut staged_counter,
                    &mut pieces,
                );
                for piece in pieces {
                    let mut scratch = staged_sig.clone();
                    let sk = match self.mode {
                        InstantiationMode::Full => it.skolemize(piece, &mut scratch)?,
                        InstantiationMode::Bounded(_) => {
                            it.skolemize_bounded(piece, &mut scratch)?
                        }
                    };
                    let mut matrix = sk.universal.matrix;
                    // Skolem *functions* (∀∃ nesting, bounded mode only) are
                    // never pooled: unlike a retired constant, a function's
                    // interpretation is constrained per argument tuple, and
                    // reusing its name under a different matrix would alias
                    // unrelated witnesses. They simply join the signature.
                    for (name, args, ret) in &sk.functions {
                        staged_sig
                            .add_function(*name, args.clone(), *ret)
                            .expect("skolemize_bounded picked a fresh name");
                    }
                    for (name, sort) in sk.constants {
                        match self.skolem_pool.get_mut(&sort).and_then(Vec::pop) {
                            Some(pooled) => {
                                let c = it.cst(pooled);
                                matrix = it.subst_constant(matrix, name, c);
                                reused.push((pooled, sort));
                            }
                            None => {
                                staged_sig
                                    .add_constant(name, sort)
                                    .expect("skolemize picked a fresh name");
                                fresh.push((name, sort));
                            }
                        }
                    }
                    let bindings: Vec<Binding> = sk
                        .universal
                        .prefix
                        .iter()
                        .flat_map(|b| match b {
                            Block::Forall(bs) => bs.clone(),
                            Block::Exists(_) => unreachable!("skolemize leaves only universals"),
                        })
                        .collect();
                    for conjunct in it.conjuncts(matrix) {
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
            }
            Ok(())
        });
        if let Err(e) = staged {
            // Abandon the group before anything touched session state;
            // pooled constants that were tentatively claimed go back.
            for (sym, sort) in reused {
                self.skolem_pool.entry(sort).or_default().push(sym);
            }
            return Err(e);
        }
        // Estimate the cumulative instantiation budget against a *preview*
        // of the extended universe — the encoder's own table is untouched
        // until the group is admitted: the new group in full, plus every
        // live group's delta.
        // A group that adds no constant or function (the warm case: its
        // Skolem constants all came from the pool) cannot grow the
        // universe, so the preview is the current table and no live group
        // has a delta.
        let grows = staged_sig.functions().count() != self.work_sig.functions().count();
        let preview;
        let (table, watermark) = if grows {
            let mut extended = self.enc.table().clone();
            let watermark = match self.mode {
                InstantiationMode::Full => extended.extend(&staged_sig),
                InstantiationMode::Bounded(depth) => extended.extend_bounded(&staged_sig, depth),
            };
            preview = extended;
            (&preview, watermark)
        } else {
            (self.enc.table(), self.enc.table().len())
        };
        let mut estimated = self.instances;
        for job in &jobs {
            estimated = estimated.saturating_add(count_tuples(table, job, 0));
        }
        if grows {
            for g in self.groups.iter().filter(|g| !g.retired) {
                for job in &g.jobs {
                    estimated = estimated.saturating_add(count_tuples(table, job, watermark));
                }
            }
        }
        let limit = self.instance_limit;
        if estimated > limit {
            // The group is abandoned; the session is exactly as it was.
            for (sym, sort) in reused {
                self.skolem_pool.entry(sort).or_default().push(sym);
            }
            return Err(EprError::TooManyInstances { estimated, limit });
        }
        // Admitted: commit the staged signature and universe, then encode.
        self.work_sig = staged_sig;
        self.guard_counter = staged_counter;
        let committed = self.enc.extend_universe(&self.work_sig);
        debug_assert_eq!(committed, watermark);
        debug_assert!(grows || self.enc.table().len() == watermark);
        drop(ground_span);
        let _encode_span = Span::enter("encode");
        // Re-instantiate live groups over tuples touching the delta.
        if self.enc.table().len() > watermark {
            for g in self.groups.iter().filter(|g| !g.retired) {
                for job in &g.jobs {
                    instantiate_delta(&mut self.enc, g.act, job, watermark);
                }
            }
        }
        // Instantiate the new group over the whole universe.
        let act = self.enc.fresh_var().pos();
        for job in &jobs {
            instantiate_delta(&mut self.enc, act, job, 0);
        }
        self.instances = estimated;
        reused.append(&mut fresh);
        self.groups.push(Group {
            label,
            act,
            jobs,
            skolems: reused,
            enabled: true,
            retired: false,
        });
        Ok(GroupId(self.groups.len() - 1))
    }

    /// Enables or disables a group for subsequent checks. Disabling merely
    /// stops assuming the group's activation literal; the clauses stay in
    /// the solver and the group can be re-enabled later. No-op on retired
    /// groups.
    pub fn set_enabled(&mut self, id: GroupId, on: bool) {
        let g = &mut self.groups[id.0];
        if !g.retired {
            g.enabled = on;
        }
    }

    /// Permanently drops a group: its activation literal is asserted false
    /// at level 0, letting the solver simplify the group's clauses away, and
    /// the group stops participating in delta re-instantiation. Its Skolem
    /// constants return to the pool for reuse by later groups — the retired
    /// clauses no longer constrain them, so they are free to mean anything.
    pub fn retire(&mut self, id: GroupId) {
        let g = &mut self.groups[id.0];
        if !g.retired {
            g.retired = true;
            g.enabled = false;
            g.jobs.clear();
            for (sym, sort) in g.skolems.drain(..) {
                self.skolem_pool.entry(sort).or_default().push(sym);
            }
            self.enc.solver_mut().retire_group(g.act);
        }
    }

    /// Decides satisfiability of the conjunction of all *enabled* groups,
    /// in one solve with equality inside the search. Learnt clauses and
    /// equality lemmas persist into subsequent checks.
    ///
    /// With a [`Budget`] applied (see [`EprSession::set_budget`]), a
    /// deadline or conflict cap that trips mid-solve yields
    /// [`EprOutcome::Unknown`] with partial statistics; the session stays
    /// usable.
    pub fn check(&mut self) -> EprOutcome {
        let started = std::time::Instant::now();
        let prev = self.stats;
        // An already-expired deadline degrades up front (zero-delta
        // report); the session state is untouched and stays usable.
        if self.budget.expired() {
            let stop = Some(StopReason::DeadlineExceeded);
            // The theory did no work in this check.
            let idle = GroundStats {
                equality_clauses: 0,
                final_check_firings: 0,
                ..prev
            };
            self.report = idle.report_delta(&prev, "unknown", stop, started.elapsed().as_nanos());
            return EprOutcome::Unknown(StopReason::DeadlineExceeded);
        }
        let guards: Vec<(Lit, &str)> = self
            .groups
            .iter()
            .filter(|g| g.enabled && !g.retired)
            .map(|g| (g.act, g.label.as_str()))
            .collect();
        let assumptions: Vec<Lit> = guards.iter().map(|(a, _)| *a).collect();
        self.enc.solver_mut().set_deadline(self.budget.deadline);
        let sat_span = Span::enter("sat");
        let (result, work) = self.enc.solve(&assumptions, self.budget.max_conflicts);
        drop(sat_span);
        // Verdicts and degradations alike read their statistics here, from
        // the encoder and solver, in one place.
        let instances = self.instances;
        let finish = |enc: &Encoder, outcome: &str, stop: Option<StopReason>| {
            let (atom_hits, atom_misses) = enc.atom_cache_stats();
            let stats = GroundStats {
                universe: enc.table().len(),
                instances,
                equality_clauses: work.lemmas,
                final_check_firings: work.final_firings,
                sat_vars: enc.solver().num_vars(),
                sat_clauses: enc.solver().num_clauses(),
                atom_hits,
                atom_misses,
                sat: enc.solver().stats(),
            };
            let report = stats.report_delta(&prev, outcome, stop, started.elapsed().as_nanos());
            (stats, report)
        };
        let outcome = match result {
            SolveOutcome::Deadline => EprOutcome::Unknown(StopReason::DeadlineExceeded),
            SolveOutcome::Conflicts => EprOutcome::Unknown(StopReason::ConflictBudget),
            // A bounded SAT only stands when the bound never cut anything
            // over the whole session (truncation is sticky and skips are
            // cumulative): the assignment satisfies a subset of the full
            // ground problem, and `extract_structure`'s closed-universe
            // invariant would not hold either.
            SolveOutcome::Sat
                if self.enc.table().truncated() || self.enc.skipped_instances() > 0 =>
            {
                EprOutcome::Unknown(StopReason::BoundReached)
            }
            SolveOutcome::Sat => {
                let structure = extract_structure(&self.enc, &self.work_sig);
                EprOutcome::Sat(Box::new(Model { structure }))
            }
            SolveOutcome::Unsat => {
                let labels: HashMap<Lit, &str> = guards.iter().copied().collect();
                let core: Vec<String> = self
                    .enc
                    .solver()
                    .unsat_core()
                    .iter()
                    .filter_map(|l| labels.get(l).map(|label| label.to_string()))
                    .collect();
                EprOutcome::Unsat(core)
            }
        };
        let stop = match &outcome {
            EprOutcome::Unknown(r) => Some(*r),
            _ => None,
        };
        let (stats, report) = finish(&self.enc, outcome.tag(), stop);
        self.stats = stats;
        self.report = report;
        outcome
    }
}

/// Number of instantiation tuples for `job` over `table`, counting only
/// tuples that mention at least one term id `>= min_term` (with
/// `min_term = 0`: all tuples; empty-binding jobs count as 1 there and 0
/// in any proper delta, matching [`instantiate_delta`]).
fn count_tuples(table: &TermTable, job: &GroundJob, min_term: usize) -> u64 {
    let mut total: u64 = 1;
    let mut old: u64 = 1;
    for b in &job.bindings {
        // `of_sort` is sorted by id, so the old terms are a prefix.
        let terms = table.of_sort(&b.sort);
        total = total.saturating_mul(terms.len() as u64);
        old = old.saturating_mul(terms.partition_point(|&t| t < min_term) as u64);
    }
    if min_term == 0 {
        total
    } else {
        total - old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::parse_formula;

    fn sig_rs() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        sig
    }

    /// A single-use session over `sig` with every labeled sentence
    /// asserted as its own group.
    fn single_use(sig: &Signature, asserts: &[(&str, &str)]) -> Result<EprSession, EprError> {
        let mut s = EprSession::new(sig)?;
        for (label, src) in asserts {
            s.assert_labeled(*label, &parse_formula(src).unwrap())?;
        }
        Ok(s)
    }

    fn check_once(sig: &Signature, asserts: &[(&str, &str)]) -> Result<EprOutcome, EprError> {
        Ok(single_use(sig, asserts)?.check())
    }

    #[test]
    fn session_matches_single_use_sessions_on_basic_queries() {
        let sig = sig_rs();
        let frame_src = "forall X:s. r(X) | X = a";
        let frame = parse_formula(frame_src).unwrap();
        let queries = [
            "exists X:s. ~r(X) & X ~= a", // unsat under the frame
            "exists X:s. ~r(X)",          // sat: X = a may be unmarked
            "r(b) & ~r(b)",               // unsat outright
        ];
        let mut session = EprSession::new(&sig).unwrap();
        session.assert_labeled("frame", &frame).unwrap();
        for q in queries {
            let f = parse_formula(q).unwrap();
            let g = session.assert_labeled("violation", &f).unwrap();
            let incremental = session.check();
            session.retire(g);

            let reference = check_once(&sig, &[("frame", frame_src), ("violation", q)]).unwrap();
            assert_eq!(incremental.is_sat(), reference.is_sat(), "query `{q}`");
            if let EprOutcome::Sat(model) = incremental {
                assert!(model.structure.eval_closed(&frame).unwrap());
                assert!(model.structure.eval_closed(&f).unwrap());
            }
        }
    }

    #[test]
    fn persistent_universals_cover_late_skolem_constants() {
        // The frame's universal must also constrain Skolem constants that
        // only appear in a later group — this exercises universe growth and
        // delta re-instantiation.
        let sig = sig_rs();
        let mut session = EprSession::new(&sig).unwrap();
        session
            .assert_labeled("all_r", &parse_formula("forall X:s. r(X)").unwrap())
            .unwrap();
        assert!(session.check().is_sat());
        let g = session
            .assert_labeled("cex", &parse_formula("exists X:s. ~r(X)").unwrap())
            .unwrap();
        match session.check() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"all_r".to_string()), "{core:?}");
                assert!(core.contains(&"cex".to_string()), "{core:?}");
            }
            EprOutcome::Sat(_) => {
                panic!("delta re-instantiation missed the new Skolem constant")
            }
            EprOutcome::Unknown(r) => panic!("unexpectedly unknown: {r}"),
        }
        session.retire(g);
        assert!(session.check().is_sat());
    }

    #[test]
    fn disabled_groups_do_not_constrain_but_can_return() {
        let sig = sig_rs();
        let mut session = EprSession::new(&sig).unwrap();
        let hyp = session
            .assert_labeled("hyp", &parse_formula("forall X:s. r(X)").unwrap())
            .unwrap();
        session
            .assert_labeled("cex", &parse_formula("~r(a)").unwrap())
            .unwrap();
        assert!(!session.check().is_sat());
        session.set_enabled(hyp, false);
        assert!(session.check().is_sat());
        session.set_enabled(hyp, true);
        assert!(!session.check().is_sat());
    }

    #[test]
    fn skolems_from_disabled_groups_still_respect_re_enabled_universals() {
        // A Skolem constant introduced while a universal was disabled must
        // be covered once the universal is re-enabled (instantiation happens
        // at assert time regardless of enablement).
        let sig = sig_rs();
        let mut session = EprSession::new(&sig).unwrap();
        let all = session
            .assert_labeled("all_r", &parse_formula("forall X:s. r(X)").unwrap())
            .unwrap();
        session.set_enabled(all, false);
        session
            .assert_labeled("cex", &parse_formula("exists X:s. ~r(X)").unwrap())
            .unwrap();
        assert!(session.check().is_sat());
        session.set_enabled(all, true);
        assert!(!session.check().is_sat());
    }

    #[test]
    fn equality_repairs_survive_across_queries() {
        // Query 1 forces equality reasoning (transitivity + congruence);
        // query 2 reuses the same frame and must stay correct.
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        sig.add_constant("c", "s").unwrap();
        let mut session = EprSession::new(&sig).unwrap();
        session
            .assert_labeled("chain", &parse_formula("a = b & b = c").unwrap())
            .unwrap();
        let v1 = session
            .assert_labeled("v1", &parse_formula("r(a) & ~r(c)").unwrap())
            .unwrap();
        assert!(!session.check().is_sat());
        session.retire(v1);
        let v2 = session
            .assert_labeled("v2", &parse_formula("r(c) & ~r(b)").unwrap())
            .unwrap();
        assert!(!session.check().is_sat());
        session.retire(v2);
        let v3 = session
            .assert_labeled("v3", &parse_formula("r(a) & r(b)").unwrap())
            .unwrap();
        assert!(session.check().is_sat());
        session.retire(v3);
    }

    #[test]
    fn cumulative_instance_limit_enforced() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("q", ["s", "s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        let mut session = EprSession::new(&sig).unwrap();
        session.set_instance_limit(5);
        // 2 terms, binary universal: 4 instantiations — fits.
        session
            .assert_labeled("q1", &parse_formula("forall X:s, Y:s. q(X, Y)").unwrap())
            .unwrap();
        // A second universal brings the cumulative total to 8 > 5.
        let err = session
            .assert_labeled("q2", &parse_formula("forall X:s, Y:s. q(Y, X)").unwrap())
            .unwrap_err();
        assert!(matches!(err, EprError::TooManyInstances { .. }), "{err}");
        // The session is still usable with the first group.
        assert!(session.check().is_sat());
        // The rejected group must have left the session fully unchanged:
        // after raising the limit, re-pushing the same group and an extra
        // contradiction must behave exactly like a session that never saw
        // the rejection at all.
        session.set_instance_limit(u64::MAX);
        session
            .assert_labeled("q2", &parse_formula("forall X:s, Y:s. q(Y, X)").unwrap())
            .unwrap();
        session
            .assert_labeled("q3", &parse_formula("~q(a, b)").unwrap())
            .unwrap();
        let mut fresh = EprSession::new(&sig).unwrap();
        for (label, f) in [
            ("q1", "forall X:s, Y:s. q(X, Y)"),
            ("q2", "forall X:s, Y:s. q(Y, X)"),
            ("q3", "~q(a, b)"),
        ] {
            fresh
                .assert_labeled(label, &parse_formula(f).unwrap())
                .unwrap();
        }
        let (bumped, reference) = (session.check(), fresh.check());
        assert!(!bumped.is_sat());
        assert_eq!(bumped.is_sat(), reference.is_sat());
        assert_eq!(
            session.stats().instances,
            fresh.stats().instances,
            "rejected group leaked ground instances into the session"
        );
    }

    #[test]
    fn empty_session_is_sat() {
        let mut session = EprSession::new(&sig_rs()).unwrap();
        assert!(session.check().is_sat());
    }

    #[test]
    fn bounded_session_admits_unstratified_signature() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        assert!(EprSession::new(&sig).is_err());
        let mut session = EprSession::with_mode(&sig, InstantiationMode::Bounded(2)).unwrap();
        // SAT under a live bound (the `next` closure is infinite, so any
        // bound truncates) degrades to Unknown.
        session
            .assert_labeled("some_r", &parse_formula("r(a)").unwrap())
            .unwrap();
        match session.check() {
            EprOutcome::Unknown(StopReason::BoundReached) => {}
            other => panic!("expected BoundReached, got {}", other.tag()),
        }
        // UNSAT is still a verdict on the very same session.
        session
            .assert_labeled("no_r", &parse_formula("~r(a)").unwrap())
            .unwrap();
        match session.check() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"some_r".to_string()), "{core:?}");
                assert!(core.contains(&"no_r".to_string()), "{core:?}");
            }
            other => panic!("expected unsat, got {}", other.tag()),
        }
    }

    #[test]
    fn bounded_session_handles_ae_groups() {
        // ∀∃ in a group Skolemizes to a function; the frame's universal
        // must still refute a later contradictory witness.
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("le", ["s", "s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        let mut session = EprSession::with_mode(&sig, InstantiationMode::Bounded(2)).unwrap();
        session
            .assert_labeled(
                "succ",
                &parse_formula("forall X:s. exists Y:s. le(X, Y) & X ~= Y").unwrap(),
            )
            .unwrap();
        let g = session
            .assert_labeled(
                "max",
                &parse_formula("exists X:s. forall Y:s. le(X, Y) -> X = Y").unwrap(),
            )
            .unwrap();
        match session.check() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"succ".to_string()), "{core:?}");
                assert!(core.contains(&"max".to_string()), "{core:?}");
            }
            other => panic!("expected unsat, got {}", other.tag()),
        }
        // Retiring the witness leaves a satisfiable-but-truncated frame:
        // Unknown, never a spurious verdict.
        session.retire(g);
        match session.check() {
            EprOutcome::Unknown(StopReason::BoundReached) => {}
            other => panic!("expected BoundReached, got {}", other.tag()),
        }
    }

    #[test]
    fn bounded_depth_one_refutes_ae_contradiction() {
        // Over a constant-free sort, `succ` Skolemizes to sk : s -> s and
        // `max` to a constant m; depth 1 already holds the witnessing term
        // sk(m), so the bounded clause set is UNSAT.
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("le", ["s", "s"]).unwrap();
        let mut session = EprSession::with_mode(&sig, InstantiationMode::Bounded(1)).unwrap();
        for (label, src) in [
            ("succ", "forall X:s. exists Y:s. le(X, Y) & X ~= Y"),
            ("max", "exists X:s. forall Y:s. le(X, Y) -> X = Y"),
        ] {
            session
                .assert_labeled(label, &parse_formula(src).unwrap())
                .unwrap();
        }
        match session.check() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"succ".to_string()), "{core:?}");
                assert!(core.contains(&"max".to_string()), "{core:?}");
            }
            other => panic!("expected unsat, got {}", other.tag()),
        }
    }

    #[test]
    fn bounded_session_matches_full_when_closure_fits() {
        // A function-free frame: the bounded universe equals the full one,
        // so the bound is never load-bearing and verdicts are identical.
        let sig = sig_rs();
        let frame = parse_formula("forall X:s. r(X) | X = a").unwrap();
        let queries = ["exists X:s. ~r(X) & X ~= a", "exists X:s. ~r(X)"];
        let mut bounded = EprSession::with_mode(&sig, InstantiationMode::Bounded(3)).unwrap();
        let mut full = EprSession::new(&sig).unwrap();
        bounded.assert_labeled("frame", &frame).unwrap();
        full.assert_labeled("frame", &frame).unwrap();
        for q in queries {
            let f = parse_formula(q).unwrap();
            let gb = bounded.assert_labeled("violation", &f).unwrap();
            let gf = full.assert_labeled("violation", &f).unwrap();
            let (b, r) = (bounded.check(), full.check());
            assert_eq!(b.is_sat(), r.is_sat(), "query `{q}`");
            assert_eq!(b.tag(), r.tag(), "query `{q}`");
            bounded.retire(gb);
            full.retire(gf);
        }
    }

    #[test]
    fn fingerprint_keyed_by_mode() {
        let sig = sig_rs();
        let asserts: Vec<(String, FormulaId)> = vec![(
            "inv".to_string(),
            Interner::with(|it| it.intern(&parse_formula("forall X:s. r(X)").unwrap())),
        )];
        let full = frame_fingerprint(&sig, &asserts, InstantiationMode::Full);
        let b2 = frame_fingerprint(&sig, &asserts, InstantiationMode::Bounded(2));
        let b3 = frame_fingerprint(&sig, &asserts, InstantiationMode::Bounded(3));
        assert_ne!(
            full, b2,
            "bounded and full frames must never share sessions"
        );
        assert_ne!(b2, b3, "different depths ground different clause sets");
        assert_eq!(
            full,
            frame_fingerprint(&sig, &asserts, InstantiationMode::Full)
        );
    }

    /// A session loaded with a ground pigeonhole instance (`n` pigeons into
    /// `n - 1` holes): hard UNSAT, so budgeted checks reliably run out
    /// before the verdict.
    fn pigeonhole_session(n: usize) -> EprSession {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("in", ["s", "s"]).unwrap();
        for i in 0..n {
            sig.add_constant(format!("p{i}").as_str(), "s").unwrap();
        }
        for j in 0..n - 1 {
            sig.add_constant(format!("h{j}").as_str(), "s").unwrap();
        }
        let mut session = EprSession::new(&sig).unwrap();
        for i in 0..n {
            let row: Vec<String> = (0..n - 1).map(|j| format!("in(p{i}, h{j})")).collect();
            session
                .assert_labeled(format!("row{i}"), &parse_formula(&row.join(" | ")).unwrap())
                .unwrap();
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for j in 0..n - 1 {
                    session
                        .assert_labeled(
                            format!("excl{a}_{b}_{j}"),
                            &parse_formula(&format!("~in(p{a}, h{j}) | ~in(p{b}, h{j})")).unwrap(),
                        )
                        .unwrap();
                }
            }
        }
        session
    }

    #[test]
    fn expired_deadline_degrades_to_unknown() {
        let mut session = pigeonhole_session(8);
        session.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        match session.check() {
            EprOutcome::Unknown(StopReason::DeadlineExceeded) => {}
            other => panic!("expected deadline Unknown, got {}", other.tag()),
        }
        // Partial statistics were still published.
        assert_eq!(session.report().outcome, "unknown");
        assert_eq!(session.report().stop, Some(StopReason::DeadlineExceeded));
        // Lifting the budget restores the decisive verdict on the same
        // session — degradation must not corrupt incremental state.
        session.set_budget(Budget::UNLIMITED);
        assert!(!session.check().is_sat());
    }

    #[test]
    fn conflict_budget_degrades_to_unknown() {
        let mut session = pigeonhole_session(8);
        session.set_budget(Budget::UNLIMITED.with_max_conflicts(1));
        match session.check() {
            EprOutcome::Unknown(StopReason::ConflictBudget) => {}
            other => panic!("expected conflict-budget Unknown, got {}", other.tag()),
        }
        session.set_budget(Budget::UNLIMITED);
        assert!(!session.check().is_sat());
    }

    fn order_sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("id").unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        sig
    }

    const REFL: &str = "forall X:id. le(X, X)";
    const ANTISYM: &str = "forall X:id, Y:id. le(X, Y) & le(Y, X) -> X = Y";
    const TRANS: &str = "forall X:id, Y:id, Z:id. le(X, Y) & le(Y, Z) -> le(X, Z)";
    const TOTAL: &str = "forall X:id, Y:id. le(X, Y) | le(Y, X)";

    #[test]
    fn total_order_axioms_satisfiable() {
        let three = "exists X:id, Y:id, Z:id. X ~= Y & Y ~= Z & X ~= Z";
        let asserts = [
            ("refl", REFL),
            ("antisym", ANTISYM),
            ("trans", TRANS),
            ("total", TOTAL),
            ("three", three),
        ];
        match check_once(&order_sig(), &asserts).unwrap() {
            EprOutcome::Sat(model) => {
                let s = &model.structure;
                assert!(s.domain_size(&Sort::new("id")) >= 3);
                // The model really satisfies all assertions.
                for (_, src) in asserts {
                    assert!(
                        s.eval_closed(&parse_formula(src).unwrap()).unwrap(),
                        "{src}"
                    );
                }
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
    }

    #[test]
    fn unsat_core_leaves_out_unneeded_assertions() {
        let asserts = [
            ("refl", REFL),
            ("irrefl", "exists X:id. ~le(X, X)"),
            ("total", TOTAL),
        ];
        match check_once(&order_sig(), &asserts).unwrap() {
            EprOutcome::Unsat(core) => {
                assert!(core.contains(&"refl".to_string()));
                assert!(core.contains(&"irrefl".to_string()));
                assert!(!core.contains(&"total".to_string()), "core: {core:?}");
            }
            other => panic!("expected unsat, got {}", other.tag()),
        }
    }

    #[test]
    fn finite_model_property_bounds_domain() {
        // exists X,Y. X ~= Y with nothing else: the minimal model has 2
        // elements, and the model never exceeds the ground universe (the
        // two Skolem constants plus the up-front inhabitant of `s`).
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        let mut session = single_use(&sig, &[("pair", "exists X:s, Y:s. X ~= Y")]).unwrap();
        match session.check() {
            EprOutcome::Sat(model) => {
                let domain = model.structure.domain_size(&Sort::new("s")) as usize;
                assert!(domain >= 2, "domain {domain}");
                assert!(domain <= session.stats().universe, "domain {domain}");
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
        // A sort with a constant needs no inhabitant: the universe is the
        // constant and one Skolem witness, so the model is exactly 2.
        sig.add_constant("a", "s").unwrap();
        match check_once(&sig, &[("other", "exists X:s. X ~= a")]).unwrap() {
            EprOutcome::Sat(model) => {
                assert_eq!(model.structure.domain_size(&Sort::new("s")), 2);
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
    }

    #[test]
    fn skolems_can_merge_when_equality_forces() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        // At most one element, and two witnesses: they must merge.
        let asserts = [
            ("at_most_one", "forall X:s, Y:s. X = Y"),
            ("two_names", "exists X:s, Y:s. r(X) & r(Y)"),
        ];
        match check_once(&sig, &asserts).unwrap() {
            EprOutcome::Sat(model) => {
                assert_eq!(model.structure.domain_size(&Sort::new("s")), 1);
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
    }

    #[test]
    fn ae_formula_rejected_in_full_mode() {
        let asserts = [("ae", "forall X:id. exists Y:id. le(X, Y)")];
        assert!(matches!(
            check_once(&order_sig(), &asserts),
            Err(EprError::Skolem(_))
        ));
    }

    #[test]
    fn stratified_functions_are_total_in_models() {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        // Injectivity + two nodes.
        let asserts = [
            (
                "unique_ids",
                "forall N1:node, N2:node. N1 ~= N2 -> idf(N1) ~= idf(N2)",
            ),
            ("two", "exists N1:node, N2:node. N1 ~= N2"),
        ];
        match check_once(&sig, &asserts).unwrap() {
            EprOutcome::Sat(model) => {
                let s = &model.structure;
                assert!(s.domain_size(&Sort::new("id")) >= 2, "ids must differ");
                assert!(s.totality_gap().is_none(), "functions are total");
            }
            other => panic!("expected sat, got {}", other.tag()),
        }
    }

    #[test]
    fn instance_limit_enforced() {
        let mut session = EprSession::new(&order_sig()).unwrap();
        session.set_instance_limit(2);
        // One inhabitant: TRANS grounds a single instance.
        session
            .assert_labeled("trans", &parse_formula(TRANS).unwrap())
            .unwrap();
        // Two Skolem witnesses grow the universe to 3: TRANS needs 26 more.
        let err = session
            .assert_labeled(
                "some",
                &parse_formula("exists X:id, Y:id. le(X, Y)").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, EprError::TooManyInstances { .. }), "{err}");
    }

    #[test]
    fn lazily_added_equality_clauses_are_reported() {
        let mut sig = sig_rs();
        sig.add_constant("c", "s").unwrap();
        let mut session = single_use(&sig, &[("chain", "a = b & b = c")]).unwrap();
        let v = session
            .assert_labeled("v", &parse_formula("r(a) & ~r(c)").unwrap())
            .unwrap();
        // Refuting r(a) & ~r(c) needs transitivity and congruence: the
        // theory must add lemmas.
        assert!(!session.check().is_sat());
        assert!(session.stats().equality_clauses > 0);
        assert_eq!(
            session.report().equality_clauses,
            session.stats().equality_clauses as u64
        );
        // The counts are per check: the next one needs no further lemma.
        session.retire(v);
        assert!(session.check().is_sat());
        assert_eq!(session.stats().equality_clauses, 0);
    }

    #[test]
    fn expired_check_reports_no_equality_work() {
        let mut sig = sig_rs();
        sig.add_constant("c", "s").unwrap();
        let mut session =
            single_use(&sig, &[("chain", "a = b & b = c"), ("v", "r(a) & ~r(c)")]).unwrap();
        assert!(!session.check().is_sat());
        assert!(session.report().equality_clauses > 0);
        // A check that stops before solving added no lemma, whatever the
        // previous check did.
        session.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        assert!(matches!(
            session.check(),
            EprOutcome::Unknown(StopReason::DeadlineExceeded)
        ));
        assert_eq!(session.report().equality_clauses, 0);
        assert_eq!(session.report().final_check_firings, 0);
    }

    /// The eager-equality reference verdict of a single-use session: every
    /// transitivity and congruence axiom over the "possibly equal" pairs is
    /// added up front ([`Encoder::finalize_equality`]), then one plain solve
    /// under the enabled groups.
    fn eager_is_sat(mut session: EprSession) -> bool {
        session.enc.finalize_equality();
        let assumptions: Vec<Lit> = session
            .groups
            .iter()
            .filter(|g| g.enabled && !g.retired)
            .map(|g| g.act)
            .collect();
        let solver = session.enc.solver_mut();
        solver.solve_with_assumptions(&assumptions) == ivy_sat::SolveResult::Sat
    }

    fn prop_signature() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_sort("t").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_relation("q", ["s", "t"]).unwrap();
        sig.add_function("f", ["s"], "t").unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        sig
    }

    /// [`prop_signature`] plus a ternary relation `u` and a second layer of
    /// functions, `h : t -> w`, so `h(f(X))` nests congruence.
    fn rich_signature() -> Signature {
        let mut sig = prop_signature();
        sig.add_sort("w").unwrap();
        sig.add_relation("u", ["s", "s", "t"]).unwrap();
        sig.add_function("h", ["t"], "w").unwrap();
        sig
    }

    /// Checks `cases` subsets of `pool` (a deterministic bitmask walk over
    /// the `2^16` subsets): SAT models satisfy every assertion (checked by
    /// independent evaluation), UNSAT cores are genuinely unsatisfiable,
    /// the verdict matches the eager-equality reference, and the final
    /// check never finds a violation the search let through.
    fn check_pool(sig: &Signature, pool: &[&str; 16], cases: u32) {
        let labels: Vec<String> = (0..pool.len()).map(|i| format!("a{i}")).collect();
        // Multiplicative stride by an odd constant hits distinct masks.
        for case in 0..cases {
            let mask = case.wrapping_mul(21139) % 65536;
            let chosen: Vec<(&str, &str)> = (0..pool.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| (labels[i].as_str(), pool[i]))
                .collect();
            let mut session = single_use(sig, &chosen).unwrap();
            let outcome = session.check();
            assert_eq!(session.stats().final_check_firings, 0, "mask {mask}");
            let eager = eager_is_sat(single_use(sig, &chosen).unwrap());
            assert_eq!(
                outcome.is_sat(),
                eager,
                "equality disciplines disagree on mask {mask}"
            );
            match outcome {
                EprOutcome::Sat(model) => {
                    for (_, src) in &chosen {
                        assert!(
                            model
                                .structure
                                .eval_closed(&parse_formula(src).unwrap())
                                .unwrap(),
                            "model violates `{src}`; structure: {}",
                            model.structure
                        );
                    }
                }
                EprOutcome::Unsat(core) => {
                    // The core must itself be unsatisfiable.
                    let core_asserts: Vec<(&str, &str)> = chosen
                        .iter()
                        .filter(|(label, _)| core.iter().any(|c| c == label))
                        .copied()
                        .collect();
                    assert!(!core_asserts.is_empty() || chosen.is_empty());
                    let again = check_once(sig, &core_asserts).unwrap();
                    assert!(!again.is_sat(), "core is satisfiable: {core:?}");
                }
                EprOutcome::Unknown(r) => {
                    panic!("unbudgeted query returned unknown ({r}) on mask {mask}")
                }
            }
        }
    }

    /// Property check over subsets of fixed `∃*∀*` sentence pools (see
    /// [`check_pool`]). The second pool adds the shapes that stress
    /// equality as a theory: `Measure::at_most`-style cardinality bounds
    /// (`∃x̄ ∀y. ⋁ y = xᵢ`, on a sort and on a relation's tuples) that
    /// collapse classes, a ternary relation, and nested applications; its
    /// eager reference grounds hundreds of thousands of axioms per case, so
    /// it walks half as many masks.
    #[test]
    fn models_satisfy_assertions_and_equality_disciplines_agree() {
        check_pool(
            &prop_signature(),
            &[
                "r(a)",
                "~r(b)",
                "a = b",
                "a ~= b",
                "forall X:s. r(X)",
                "forall X:s. ~r(X)",
                "exists X:s. r(X) & X ~= a",
                "forall X:s, Y:s. X = Y",
                "exists X:s, Y:s. X ~= Y",
                "forall X:s. q(X, f(X))",
                "forall X:s, Y:t. ~q(X, Y)",
                "exists X:s. q(X, f(a))",
                "f(a) = f(b)",
                "f(a) ~= f(b)",
                "forall X:s, Y:s. f(X) = f(Y) -> X = Y",
                "forall X:s. r(X) -> q(X, f(X))",
            ],
            192,
        );
        check_pool(
            &rich_signature(),
            &[
                "exists A:s, B:s. forall Y:s. Y = A | Y = B",
                "exists A:s. forall Y:s. Y = A",
                "exists A:t. forall Y:t. Y = A",
                "exists A:s, B:s, C:t. forall X:s, Y:s, Z:t. u(X, Y, Z) -> X = A & Y = B & Z = C",
                "exists A:s, B:t. forall X:s, Y:t. ~q(X, Y) -> X = A & Y = B",
                "a ~= b",
                "forall X:s, Y:s, Z:t. u(X, Y, Z) -> q(X, Z)",
                "exists X:s, Y:s. u(X, Y, f(X)) & X ~= Y",
                "forall X:s, Y:s. u(X, Y, f(Y)) -> u(Y, X, f(X))",
                "~u(b, a, f(b)) & r(a)",
                "h(f(a)) ~= h(f(b))",
                "f(a) = f(b) | a = b",
                "forall X:s. r(X) | h(f(X)) = h(f(a))",
                "exists X:s. ~r(X) & f(X) = f(a)",
                "forall X:s, Y:s. h(f(X)) = h(f(Y)) -> X = Y",
                "exists X:s. u(X, X, f(b)) & ~r(X)",
            ],
            96,
        );
    }
}
