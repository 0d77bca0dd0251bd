//! A CDCL SAT solver on a flat clause arena, in the MiniSat/Glucose lineage.
//!
//! Clauses live in one contiguous `Vec<u32>` (header words followed by the
//! literal run), addressed by `ClauseRef` word offsets — the same u32-id
//! trick as the interned-term arena in `ivy-fol`. Deletion marks a header
//! bit and counts wasted words; a compacting GC rewrites the arena through
//! forwarding pointers once a quarter of it is garbage. On top of the
//! arena the solver layers the competition-era CDCL features:
//!
//! * **LBD (glue) reduction** — every learnt clause records its literal
//!   block distance; the learnt database is periodically halved keeping
//!   low-LBD / high-activity clauses.
//! * **Recursive conflict-clause minimization** — MiniSat's `litRedundant`
//!   walk over the implication graph, dropping dominated literals.
//! * **Chronological backtracking** — when analysis would jump far past the
//!   conflict level, back up one level instead and assert there.
//! * **A theory hook** — [`Solver::solve_with_theory`] runs a [`Theory`]
//!   at every propagation fixpoint and once more at a full assignment; the
//!   lemmas it returns join the clause set mid-search (DPLL(T) style).
//!
//! The paper's Ivy uses Z3 as its satisfiability back end; this solver
//! (plus the EPR grounding layer in `ivy-epr`) is our from-scratch
//! substitute. [`crate::solve_dpll`] is its differential-testing oracle
//! (`tests/arena_vs_dpll.rs`).

use crate::lit::{LBool, Lit, Var};
use std::time::Instant;

/// Statistics about a solver's run, cumulative over all `solve` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of LBD-based learnt-database reductions performed.
    pub lbd_reductions: u64,
    /// Literals removed from learnt clauses by conflict-clause minimization.
    pub minimized_lits: u64,
}

/// The result of [`Solver::solve_with_assumptions`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; query the model via [`Solver::model_value`].
    Sat,
    /// Unsatisfiable under the assumptions; the subset of assumptions used
    /// in the refutation is available via [`Solver::unsat_core`].
    Unsat,
}

/// Why [`Solver::solve_budgeted`] gave up without an answer (see
/// [`Solver::last_interrupt`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The per-call conflict budget was exhausted.
    Conflicts,
    /// The wall-clock deadline set via [`Solver::set_deadline`] passed.
    Deadline,
}

/// A theory that runs inside the CDCL search of
/// [`Solver::solve_with_theory`].
///
/// The solver calls [`Theory::propagate`] at every propagation fixpoint
/// and [`Theory::final_check`] once every variable is assigned. Through
/// the [`TheoryCtx`] a theory reads the trail and the assignment, may
/// allocate fresh variables, and returns *lemmas*: clauses that hold in
/// the theory, so they stay in the solver for good (every later call and
/// every assumption set). A SAT answer is returned only when a final
/// check adds no lemma.
///
/// A solver must be driven by one theory across calls: the trail
/// positions the theory has seen are tracked between solves. Plain solves
/// in between are fine: the backtracks they make are saved for the
/// theory's next call.
pub trait Theory {
    /// Forgets the effect of every trail literal at position `>= len`: the
    /// solver backtracked below it. Called before the next `propagate` or
    /// `final_check` after any backtrack.
    fn backtrack(&mut self, len: usize);

    /// Examines the trail literals assigned since the theory last looked
    /// (positions it has not seen, see [`TheoryCtx::trail_len`]) and adds
    /// the lemmas they make unit or false.
    fn propagate(&mut self, ctx: &mut TheoryCtx<'_>);

    /// Checks a full assignment that `propagate` left alone; a lemma added
    /// here must be false under it (the search resumes from the lemma).
    fn final_check(&mut self, ctx: &mut TheoryCtx<'_>);
}

/// A [`Theory`]'s view of the solver during a call: the trail, the
/// assignment, fresh variables, and a lemma buffer the solver adds from
/// once the call returns.
pub struct TheoryCtx<'a> {
    solver: &'a mut Solver,
}

impl TheoryCtx<'_> {
    /// Number of literals on the trail.
    #[inline]
    pub fn trail_len(&self) -> usize {
        self.solver.trail.len()
    }

    /// The trail literal at position `i`.
    #[inline]
    pub fn trail_lit(&self, i: usize) -> Lit {
        self.solver.trail[i]
    }

    /// The current value of `l`.
    #[inline]
    pub fn value(&self, l: Lit) -> LBool {
        self.solver.value(l)
    }

    /// Allocates a fresh variable; it is unassigned and joins the search.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// [`Solver::pin_phase`] for a variable allocated mid-search.
    pub fn pin_phase(&mut self, v: Var, value: bool) {
        self.solver.pin_phase(v, value);
    }

    /// Queues `lits` as a lemma. The solver adds it after the call, at the
    /// current decision level.
    pub fn add_lemma(&mut self, lits: &[Lit]) {
        self.solver.lemma_lits.extend_from_slice(lits);
        self.solver.lemma_ends.push(self.solver.lemma_lits.len());
    }
}

/// What adding a theory call's lemmas did to the search.
enum TheoryStep {
    /// No lemma.
    Quiet,
    /// Lemmas were added; propagation must run again.
    Progress,
    /// A lemma is false at the (backtracked-to) current level.
    Conflict(ClauseRef),
    /// A lemma is false at level 0.
    Unsat,
}

/// Word offset of a clause inside the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ClauseRef(u32);

const HEADER_WORDS: usize = 3;
/// Header word 0, bit 0: clause is learnt.
const LEARNT_BIT: u32 = 1 << 0;
/// Header word 0, bit 1: clause is deleted (space reclaimed by the next GC).
const DELETED_BIT: u32 = 1 << 1;
/// Clause size is stored in header word 0 above the flag bits.
const SIZE_SHIFT: u32 = 2;

/// Flat clause storage: `[header, activity, lbd, lit0, lit1, ...]*`.
///
/// Word 1 holds the clause activity as `f32` bits; during GC it doubles as
/// the forwarding pointer to the clause's new offset. Word 2 is the LBD.
#[derive(Clone, Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses; drives GC scheduling.
    wasted: u32,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        debug_assert!(self.data.len() + HEADER_WORDS + lits.len() < u32::MAX as usize);
        let cref = ClauseRef(self.data.len() as u32);
        let mut header = (lits.len() as u32) << SIZE_SHIFT;
        if learnt {
            header |= LEARNT_BIT;
        }
        self.data.push(header);
        self.data.push(0f32.to_bits());
        self.data.push(lbd);
        self.data.extend(lits.iter().map(|l| l.0));
        cref
    }

    #[inline]
    fn header(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize]
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.header(c) >> SIZE_SHIFT) as usize
    }

    #[inline]
    fn base(&self, c: ClauseRef) -> usize {
        c.0 as usize + HEADER_WORDS
    }

    #[inline]
    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit(self.data[self.base(c) + k])
    }

    #[inline]
    fn swap_lits(&mut self, c: ClauseRef, a: usize, b: usize) {
        let base = self.base(c);
        self.data.swap(base + a, base + b);
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.header(c) & DELETED_BIT != 0
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.header(c) & LEARNT_BIT != 0
    }

    fn delete(&mut self, c: ClauseRef) {
        if !self.is_deleted(c) {
            self.wasted += (HEADER_WORDS + self.len(c)) as u32;
            self.data[c.0 as usize] |= DELETED_BIT;
        }
    }

    #[inline]
    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c.0 as usize + 1])
    }

    fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c.0 as usize + 1] = a.to_bits();
    }

    #[inline]
    fn lbd(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 2]
    }
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: ClauseRef,
    blocker: Lit,
}

/// Tag bit on [`Watch::cref`] marking a binary clause. For a binary clause
/// the blocker *is* the entire rest of the clause, so propagation can
/// decide skip/enqueue/conflict from the watch entry alone — the arena is
/// only touched on an actual enqueue (to put the propagated literal at
/// position 0, the reason-clause invariant `analyze` relies on). EPR
/// groundings are dominated by binary gate clauses, making this the hot
/// path of [`Solver::propagate`].
const BINARY_TAG: u32 = 1 << 31;

impl Watch {
    /// The untagged clause reference.
    #[inline]
    fn clause(self) -> ClauseRef {
        ClauseRef(self.cref.0 & !BINARY_TAG)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.cref.0 & BINARY_TAG != 0
    }
}

/// Releases the slack of a watch list that lost most of its entries, so
/// capacity stays within `2·len + 8`. Watches migrate away in bulk during
/// propagation; without this, every list would keep its high-water mark.
fn shrink_watch_list(wl: &mut Vec<Watch>) {
    if wl.capacity() > 2 * wl.len() + 8 {
        wl.shrink_to_fit();
    }
}

/// Indexed max-heap over variable activities (the VSIDS order).
#[derive(Clone, Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn grow_to(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != usize::MAX
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn decrease_key_bumped(&mut self, v: Var, act: &[f64]) {
        // Activity only increases, so a bumped element sifts up.
        let i = self.pos[v.index()];
        if i != usize::MAX {
            self.sift_up(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] > act[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

/// Learnt clauses with LBD at most this ("glue" clauses) survive every
/// reduction.
const GLUE_MAX_LBD: u32 = 2;
/// Conflicts before the first LBD-based reduction.
const REDUCE_BASE: u64 = 2000;
/// Extra conflicts added to the reduction interval per reduction done.
const REDUCE_INTERVAL_GROWTH: u64 = 300;
/// Base conflict budget per Luby restart.
const RESTART_UNIT: u64 = 100;
/// VSIDS variable-activity decay factor (the activity increment grows by
/// `1 / VAR_DECAY` per conflict).
const VAR_DECAY: f64 = 0.95;
/// Minimum backjump distance before chronological backtracking kicks in.
const CHRONO_THRESHOLD: u32 = 100;

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use ivy_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.pos(), b.pos()]);
/// s.add_clause([a.neg()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    arena: ClauseArena,
    /// Live problem (non-learnt) clauses attached to watches.
    attached_problem: usize,
    learnt_refs: Vec<ClauseRef>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<LBool>,
    polarity: Vec<bool>,
    /// Vars whose decision phase is pinned: phase saving skips them, so the
    /// solver always prefers the pinned polarity when branching.
    phase_pinned: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    /// False once the clause set is unconditionally unsatisfiable.
    ok: bool,
    seen: Vec<bool>,
    /// Per-decision-level stamp used by LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    assumptions: Vec<Lit>,
    core: Vec<Lit>,
    model: Vec<LBool>,
    /// Conflict count that triggers the next LBD reduction.
    next_reduce: u64,
    /// LBD reductions done so far (grows the reduction interval).
    reduce_count: u64,
    /// Backjumps longer than this many levels backtrack chronologically
    /// instead ([`CHRONO_THRESHOLD`]; unit tests lower it).
    chrono_threshold: u32,
    /// Wall-clock deadline; search gives up (gracefully) once it passes.
    deadline: Option<Instant>,
    /// Why the most recent `solve_budgeted` returned `None`.
    interrupt: Option<Interrupt>,
    /// Reused literal buffer for `add_clause` simplification — EPR
    /// groundings add millions of clauses, so the per-call allocation is
    /// measurable.
    scratch_add: Vec<Lit>,
    /// The lowest trail length backtracked to since the theory was last
    /// called; it is told before its next call.
    theory_undo: Option<usize>,
    /// Lemmas queued by the running theory call: flat literals, and the
    /// end offset of each lemma.
    lemma_lits: Vec<Lit>,
    lemma_ends: Vec<usize>,
    stats: Stats,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            next_reduce: REDUCE_BASE,
            chrono_threshold: CHRONO_THRESHOLD,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.polarity.push(false);
        self.phase_pinned.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Pins `v`'s decision phase to `value`: when branching on `v`, the
    /// solver always tries `value` first, and phase saving no longer updates
    /// the preference. Propagation may of course still force the other
    /// value. Useful for variables (like ground-equality encodings) whose
    /// unconstrained occurrences should default to a canonical polarity
    /// instead of whatever an earlier model happened to assign.
    pub fn pin_phase(&mut self, v: Var, value: bool) {
        self.polarity[v.index()] = value;
        self.phase_pinned[v.index()] = true;
    }

    /// Forgets all saved decision phases, restoring the initial all-false
    /// preference (pinned phases keep their pinned value). Incremental
    /// queries use this to avoid inheriting a previous, unrelated model:
    /// saved phases make the solver re-assert atoms the old model set true,
    /// which can force large spurious equality classes in lazy-equality
    /// grounding.
    pub fn reset_phases(&mut self) {
        for (i, p) in self.polarity.iter_mut().enumerate() {
            if !self.phase_pinned[i] {
                *p = false;
            }
        }
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses currently attached (clauses
    /// simplified away at add time are not counted).
    pub fn num_clauses(&self) -> usize {
        self.attached_problem
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Sets (or clears) the wall-clock deadline. Once it passes,
    /// [`Solver::solve_budgeted`] returns `None` with
    /// [`Solver::last_interrupt`] reporting [`Interrupt::Deadline`]. The
    /// solver stays usable; clear the deadline to resume unbounded solving.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Why the most recent [`Solver::solve_budgeted`] call returned `None`
    /// (cleared at the start of each solve).
    pub fn last_interrupt(&self) -> Option<Interrupt> {
        self.interrupt
    }

    /// Adds a clause. Returns `false` when the solver becomes trivially
    /// unsatisfiable (empty clause, or a unit contradicting level-0 facts).
    ///
    /// Clauses may be added between `solve` calls (incremental use).
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable was not allocated with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut buf = std::mem::take(&mut self.scratch_add);
        buf.clear();
        buf.extend(lits);
        for l in &buf {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l}");
        }
        // Simplify in place: sort, dedupe, drop false literals, detect
        // tautology. The buffer is a reused field — `add_clause` runs
        // millions of times during grounding, so it must not allocate.
        buf.sort_unstable();
        buf.dedup();
        let mut kept = 0;
        let mut trivial = false;
        for i in 0..buf.len() {
            let l = buf[i];
            if i + 1 < buf.len() && buf[i + 1] == !l {
                trivial = true; // tautology: contains l and ~l
                break;
            }
            match self.value(l) {
                LBool::True => {
                    trivial = true; // satisfied at level 0
                    break;
                }
                LBool::False => {} // drop
                LBool::Undef => {
                    buf[kept] = l;
                    kept += 1;
                }
            }
        }
        let result = if trivial {
            true
        } else {
            buf.truncate(kept);
            match buf.len() {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(buf[0], None);
                    self.ok = self.propagate().is_none();
                    self.ok
                }
                _ => {
                    self.attach_clause(&buf, false, 0);
                    true
                }
            }
        };
        self.scratch_add = buf;
        result
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        if learnt {
            self.learnt_refs.push(cref);
        } else {
            self.attached_problem += 1;
        }
        let (w0, w1) = (lits[0], lits[1]);
        debug_assert_eq!(cref.0 & BINARY_TAG, 0, "arena outgrew the watch tag bit");
        let tagged = if lits.len() == 2 {
            ClauseRef(cref.0 | BINARY_TAG)
        } else {
            cref
        };
        self.watches[w0.index()].push(Watch {
            cref: tagged,
            blocker: w1,
        });
        self.watches[w1.index()].push(Watch {
            cref: tagged,
            blocker: w0,
        });
        cref
    }

    fn value(&self, l: Lit) -> LBool {
        self.assign[l.var().index()].under(l)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(l.is_pos());
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Propagates pending assignments; returns the conflicting clause
    /// reference, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Visit clauses watching ~p (now false).
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut conflict = None;
            while i < watch_list.len() {
                let w = watch_list[i];
                let blocker = w.blocker;
                if self.value(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                if w.is_binary() {
                    // Binary clauses are never deleted (the reduction passes
                    // skip `len <= 2`), so the watch entry is authoritative.
                    let cref = w.clause();
                    debug_assert!(!self.arena.is_deleted(cref));
                    if self.value(blocker) == LBool::False {
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                        break;
                    }
                    if self.arena.lit(cref, 0) != blocker {
                        self.arena.swap_lits(cref, 0, 1);
                    }
                    self.unchecked_enqueue(blocker, Some(cref));
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                if self.arena.is_deleted(cref) {
                    watch_list.swap_remove(i);
                    continue;
                }
                // Normalize: the false watch goes to position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                if first != blocker && self.value(first) == LBool::True {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let len = self.arena.len(cref);
                let mut moved = false;
                for k in 2..len {
                    let cand = self.arena.lit(cref, k);
                    if self.value(cand) != LBool::False {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[cand.index()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict.
                if self.value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            // New watches only go to non-false literals, so the slot is
            // still empty: move the list back instead of copying it.
            debug_assert!(self.watches[false_lit.index()].is_empty());
            shrink_watch_list(&mut watch_list);
            self.watches[false_lit.index()] = watch_list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        self.theory_undo = Some(self.theory_undo.map_or(bound, |u| u.min(bound)));
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assign[v.index()] = LBool::Undef;
            if !self.phase_pinned[v.index()] {
                self.polarity[v.index()] = l.is_pos();
            }
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease_key_bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, bumped);
        if bumped > 1e20 {
            for &r in &self.learnt_refs {
                let scaled = self.arena.activity(r) * 1e-20;
                self.arena.set_activity(r, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal block distance: distinct nonzero decision levels among `lits`.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            if lev == 0 {
                continue;
            }
            if lev >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lev + 1, 0);
            }
            if self.lbd_stamp[lev] != self.lbd_gen {
                self.lbd_stamp[lev] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            self.bump_clause(confl);
            // Skip position 0 when it is the literal we just resolved on.
            let skip = usize::from(p.is_some());
            let len = self.arena.len(confl);
            for k in skip..len {
                let q = self.arena.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next literal on the trail to resolve.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let q = self.trail[index];
            self.seen[q.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(q);
                break;
            }
            confl = self.reason[q.var().index()].expect("non-UIP literal has a reason");
            p = Some(q);
        }
        learnt[0] = !p.expect("loop sets p");

        // Conflict-clause minimization: drop literals implied by the rest of
        // the clause through any depth of the implication graph.
        let mut to_clear: Vec<Var> = Vec::new();
        let mut keep = vec![true; learnt.len()];
        let abstract_levels = learnt[1..].iter().fold(0u32, |acc, l| {
            acc | Self::abstract_level(self.level[l.var().index()])
        });
        for i in 1..learnt.len() {
            keep[i] = !self.lit_redundant_recursive(learnt[i], abstract_levels, &mut to_clear);
        }
        let mut minimized = Vec::with_capacity(learnt.len());
        for (i, &l) in learnt.iter().enumerate() {
            if keep[i] {
                minimized.push(l);
            }
        }
        self.stats.minimized_lits += (learnt.len() - minimized.len()) as u64;

        // Compute backtrack level: second highest level in the clause.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        for &l in &minimized {
            self.seen[l.var().index()] = false;
        }
        // Clear any remaining seen flags from minimization checks.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        for &v in &to_clear {
            self.seen[v.index()] = false;
        }
        (minimized, bt)
    }

    /// Bitmask fingerprint of a decision level (MiniSat's `abstractLevel`).
    fn abstract_level(level: u32) -> u32 {
        1 << (level & 31)
    }

    /// MiniSat's `litRedundant`: whether `l` is implied by `seen` literals
    /// through any depth of the implication graph. Vars proven redundant
    /// along the way stay marked in `seen` (memoization) and are recorded in
    /// `to_clear` for the caller to unmark; on failure the vars marked by
    /// this call are rolled back.
    fn lit_redundant_recursive(
        &mut self,
        l: Lit,
        abstract_levels: u32,
        to_clear: &mut Vec<Var>,
    ) -> bool {
        if self.reason[l.var().index()].is_none() {
            return false;
        }
        let mut stack = vec![l.var()];
        let undo_from = to_clear.len();
        while let Some(v) = stack.pop() {
            let r = self.reason[v.index()].expect("stacked vars have reasons");
            // Position 0 holds the propagated literal itself; its antecedents
            // are the rest.
            for k in 1..self.arena.len(r) {
                let q = self.arena.lit(r, k);
                let qv = q.var();
                if self.seen[qv.index()] || self.level[qv.index()] == 0 {
                    continue;
                }
                if self.reason[qv.index()].is_some()
                    && (Self::abstract_level(self.level[qv.index()]) & abstract_levels) != 0
                {
                    self.seen[qv.index()] = true;
                    to_clear.push(qv);
                    stack.push(qv);
                } else {
                    for &u in &to_clear[undo_from..] {
                        self.seen[u.index()] = false;
                    }
                    to_clear.truncate(undo_from);
                    return false;
                }
            }
        }
        true
    }

    /// Produces the subset of assumptions responsible for falsifying the
    /// assumption `failed` (MiniSat's `analyzeFinal`). The trail contains
    /// `!failed`; we walk its implication graph back to assumption decisions.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                // A decision within assumption levels is an assumption, and
                // the trail literal *is* the assumption itself. (When q is
                // `!failed` it is the contradictory twin assumption.)
                None => core.push(q),
                Some(r) => {
                    for k in 1..self.arena.len(r) {
                        let x = self.arena.lit(r, k);
                        if self.level[x.var().index()] > 0 {
                            self.seen[x.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[failed.var().index()] = false;
        core
    }

    /// Whether `r` is the reason of its first literal's assignment (locked
    /// clauses must never be deleted).
    fn is_locked(&self, r: ClauseRef) -> bool {
        self.reason[self.arena.lit(r, 0).var().index()] == Some(r)
    }

    /// LBD-based reduction (Glucose's policy): sort deletion candidates by
    /// LBD descending then activity ascending, delete the worst half.
    /// Binary clauses, glue clauses (LBD ≤ 2), and locked clauses are kept.
    fn reduce_db_lbd(&mut self) {
        let mut cands: Vec<ClauseRef> = Vec::with_capacity(self.learnt_refs.len());
        for &r in &self.learnt_refs {
            debug_assert!(self.arena.is_deleted(r) || self.arena.is_learnt(r));
            if !self.arena.is_deleted(r)
                && self.arena.len(r) > 2
                && self.arena.lbd(r) > GLUE_MAX_LBD
                && !self.is_locked(r)
            {
                cands.push(r);
            }
        }
        let arena = &self.arena;
        cands.sort_by(|&a, &b| {
            arena.lbd(b).cmp(&arena.lbd(a)).then(
                arena
                    .activity(a)
                    .partial_cmp(&arena.activity(b))
                    .expect("activities are finite"),
            )
        });
        let target = cands.len() / 2;
        for &r in &cands[..target] {
            self.arena.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.stats.lbd_reductions += 1;
        let arena = &self.arena;
        self.learnt_refs.retain(|&r| !arena.is_deleted(r));
        self.maybe_collect_garbage();
    }

    fn maybe_collect_garbage(&mut self) {
        if (self.arena.wasted as usize) * 4 > self.arena.data.len() {
            self.collect_garbage();
        }
    }

    /// Compacts the arena: copies live clauses front-to-back, writing each
    /// clause's new offset into its activity word (word 1) as a forwarding
    /// pointer, then remaps every `ClauseRef` in watches, reasons, and the
    /// learnt list.
    fn collect_garbage(&mut self) {
        let mut old = std::mem::take(&mut self.arena.data);
        let mut new_data = Vec::with_capacity(old.len().saturating_sub(self.arena.wasted as usize));
        let mut off = 0usize;
        while off < old.len() {
            let header = old[off];
            let total = HEADER_WORDS + (header >> SIZE_SHIFT) as usize;
            if header & DELETED_BIT == 0 {
                let new_off = new_data.len() as u32;
                new_data.extend_from_slice(&old[off..off + total]);
                old[off + 1] = new_off; // forwarding pointer
            }
            off += total;
        }
        let fwd = |c: ClauseRef| -> ClauseRef {
            debug_assert_eq!(
                old[c.0 as usize] & DELETED_BIT,
                0,
                "deleted clause survived"
            );
            ClauseRef(old[c.0 as usize + 1])
        };
        for wl in &mut self.watches {
            // Watches of deleted clauses are purged lazily by propagation;
            // drop any stragglers now so every remaining cref forwards.
            wl.retain(|w| old[w.clause().0 as usize] & DELETED_BIT == 0);
            shrink_watch_list(wl);
            for w in wl.iter_mut() {
                let tag = w.cref.0 & BINARY_TAG;
                w.cref = ClauseRef(fwd(w.clause()).0 | tag);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = fwd(*r);
        }
        for r in &mut self.learnt_refs {
            *r = fwd(*r);
        }
        self.arena.data = new_data;
        self.arena.wasted = 0;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Luby restart sequence value (1-based): 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. On `Unsat`, the subset of
    /// assumptions participating in the refutation is available via
    /// [`Solver::unsat_core`] (empty core = unsatisfiable even without
    /// assumptions).
    ///
    /// # Panics
    ///
    /// Panics if a deadline set via [`Solver::set_deadline`] expires during
    /// the solve — callers with a deadline must use
    /// [`Solver::solve_budgeted`], which degrades gracefully.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_budgeted(assumptions, u64::MAX)
            .expect("unbounded solve always decides (use solve_budgeted with a deadline)")
    }

    /// Like [`Solver::solve_with_assumptions`] but gives up (returning
    /// `None`) once `max_conflicts` conflicts have been analyzed in this
    /// call (at once when it is 0), or once the deadline set via
    /// [`Solver::set_deadline`] passes; [`Solver::last_interrupt`] tells
    /// the two apart. The solver stays usable afterwards (learnt clauses
    /// are kept).
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        self.solve_inner(assumptions, max_conflicts, None)
    }

    /// [`Solver::solve_budgeted`] with `theory` inside the search: it runs
    /// at every propagation fixpoint, and a final check runs at every full
    /// assignment before `Sat` is returned (see [`Theory`]). Each lemma is
    /// added at the decision level where it is returned: a false lemma is
    /// analysed as a conflict, a unit lemma propagates, and any other is
    /// watched on its two highest-level literals. Lemmas stay after the
    /// call, so UNSAT cores and later calls may rest on them.
    pub fn solve_with_theory(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
        theory: &mut dyn Theory,
    ) -> Option<SolveResult> {
        self.solve_inner(assumptions, max_conflicts, Some(theory))
    }

    fn solve_inner(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
        mut theory: Option<&mut (dyn Theory + '_)>,
    ) -> Option<SolveResult> {
        self.assumptions = assumptions.to_vec();
        self.core.clear();
        self.interrupt = None;
        self.backtrack_to(0);
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        if self.propagate().is_some() {
            self.ok = false;
            return Some(SolveResult::Unsat);
        }
        let conflict_limit = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restart = 0u64;
        loop {
            if self.stats.conflicts >= conflict_limit {
                self.interrupt = Some(Interrupt::Conflicts);
                return None;
            }
            restart += 1;
            let budget = RESTART_UNIT.saturating_mul(Self::luby(restart));
            let result = self.search(budget, conflict_limit, theory.as_deref_mut());
            self.backtrack_to(0);
            if result.is_some() {
                return result;
            }
            if self.deadline_passed() {
                self.interrupt = Some(Interrupt::Deadline);
                return None;
            }
        }
    }

    fn deadline_passed(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Runs CDCL search for at most `budget` conflicts, and until the
    /// solver's conflict count reaches `conflict_limit`. `None` = restart,
    /// or an interrupt the caller reports.
    fn search(
        &mut self,
        budget: u64,
        conflict_limit: u64,
        mut theory: Option<&mut (dyn Theory + '_)>,
    ) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        let mut steps = 0u32;
        loop {
            // Poll the wall clock sparingly: an overshoot of a few thousand
            // propagation/decision steps is invisible next to the cost of
            // checking `Instant::now` every iteration.
            steps = steps.wrapping_add(1);
            if steps & 0x0FFF == 0 && self.deadline_passed() {
                return None; // surfaces as a restart; solve_budgeted stops
            }
            let mut confl = self.propagate();
            if confl.is_none() {
                match self.run_theory(theory.as_deref_mut(), false) {
                    TheoryStep::Quiet => {}
                    TheoryStep::Progress => continue,
                    TheoryStep::Conflict(c) => confl = Some(c),
                    TheoryStep::Unsat => {
                        self.ok = false;
                        return Some(SolveResult::Unsat);
                    }
                }
            }
            if let Some(confl) = confl {
                conflicts_here += 1;
                if !self.resolve_conflict(confl) {
                    return Some(SolveResult::Unsat);
                }
                if self.stats.conflicts >= conflict_limit {
                    return None;
                }
                continue;
            }
            if conflicts_here >= budget {
                self.stats.restarts += 1;
                return None;
            }
            if self.stats.conflicts >= self.next_reduce {
                self.reduce_db_lbd();
                self.reduce_count += 1;
                self.next_reduce =
                    self.stats.conflicts + REDUCE_BASE + REDUCE_INTERVAL_GROWTH * self.reduce_count;
            }
            // Place assumptions as pseudo-decisions first.
            let mut next_decision: Option<Lit> = None;
            while (self.decision_level() as usize) < self.assumptions.len() {
                let p = self.assumptions[self.decision_level() as usize];
                match self.value(p) {
                    LBool::True => self.new_decision_level(),
                    LBool::False => {
                        self.core = self.analyze_final(p);
                        return Some(SolveResult::Unsat);
                    }
                    LBool::Undef => {
                        next_decision = Some(p);
                        break;
                    }
                }
            }
            let decision = match next_decision {
                Some(p) => p,
                None => match self.pick_branch_var() {
                    // A full assignment: the theory's final check decides
                    // whether it is a model.
                    None => match self.run_theory(theory.as_deref_mut(), true) {
                        TheoryStep::Quiet => {
                            self.model.clone_from(&self.assign);
                            return Some(SolveResult::Sat);
                        }
                        TheoryStep::Progress => continue,
                        TheoryStep::Conflict(c) => {
                            conflicts_here += 1;
                            if !self.resolve_conflict(c) {
                                return Some(SolveResult::Unsat);
                            }
                            if self.stats.conflicts >= conflict_limit {
                                return None;
                            }
                            continue;
                        }
                        TheoryStep::Unsat => {
                            self.ok = false;
                            return Some(SolveResult::Unsat);
                        }
                    },
                    Some(v) => v.lit(self.polarity[v.index()]),
                },
            };
            self.stats.decisions += 1;
            self.new_decision_level();
            self.unchecked_enqueue(decision, None);
        }
    }

    /// Analyses conflict `confl` at the current level, backjumps and
    /// asserts the learnt clause. Returns `false` when the conflict is at
    /// level 0 (the clause set is unsatisfiable).
    fn resolve_conflict(&mut self, confl: ClauseRef) -> bool {
        self.stats.conflicts += 1;
        if self.decision_level() == 0 {
            self.ok = false;
            return false;
        }
        let (learnt, bt) = self.analyze(confl);
        // LBD is computed against pre-backtrack levels.
        let lbd = self.compute_lbd(&learnt);
        // Chronological backtracking: on a long backjump, step back a
        // single level and assert there instead, keeping most of the
        // trail. Unit learnt clauses always go to level 0 (a reason-
        // less literal above level 0 would corrupt final-conflict
        // analysis).
        let target = if learnt.len() > 1
            && self.decision_level() > bt.saturating_add(self.chrono_threshold)
        {
            self.decision_level() - 1
        } else {
            bt
        };
        self.backtrack_to(target);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.unchecked_enqueue(asserting, None);
        } else {
            let cref = self.attach_clause(&learnt, true, lbd);
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= 0.999;
        true
    }

    /// Runs one theory call (`propagate`, or `final_check` when `full`)
    /// and adds the lemmas it queued.
    ///
    /// Every lemma is kept: the theory may never return it again. Level-0
    /// false literals are dropped and level-0 satisfied lemmas skipped
    /// (level-0 facts are permanent). A lemma left with one literal is a
    /// level-0 unit: the solver backtracks to level 0 to assert it. Any
    /// other lemma is attached watching its two best literals (true or
    /// unassigned first, then false ones by descending level). A false
    /// lemma sends the search back to its highest level: analysed there as
    /// a conflict when two literals share that level, otherwise its one
    /// top literal is asserted at the next level down. A unit lemma
    /// propagates at the current level.
    ///
    /// A plain solve (`theory` is `None`) leaves the saved backtrack for
    /// the theory's next call.
    fn run_theory(&mut self, theory: Option<&mut (dyn Theory + '_)>, full: bool) -> TheoryStep {
        let Some(theory) = theory else {
            return TheoryStep::Quiet;
        };
        if let Some(len) = self.theory_undo.take() {
            theory.backtrack(len);
        }
        {
            let mut ctx = TheoryCtx { solver: self };
            if full {
                theory.final_check(&mut ctx);
            } else {
                theory.propagate(&mut ctx);
            }
        }
        if self.lemma_ends.is_empty() {
            return TheoryStep::Quiet;
        }
        let lits = std::mem::take(&mut self.lemma_lits);
        let ends = std::mem::take(&mut self.lemma_ends);
        let mut units: Vec<Lit> = Vec::new();
        // (clause, its level when false, or None when unit).
        let mut pending: Vec<(ClauseRef, Option<u32>)> = Vec::new();
        let mut buf = std::mem::take(&mut self.scratch_add);
        let mut start = 0;
        let mut unsat = false;
        for &end in &ends {
            buf.clear();
            buf.extend_from_slice(&lits[start..end]);
            start = end;
            buf.sort_unstable();
            buf.dedup();
            if buf.windows(2).any(|w| w[1] == !w[0]) {
                continue; // tautology
            }
            let at_root = |s: &Solver, l: Lit| s.level[l.var().index()] == 0;
            if buf
                .iter()
                .any(|&l| self.value(l) == LBool::True && at_root(self, l))
            {
                continue;
            }
            buf.retain(|&l| !(self.value(l) == LBool::False && at_root(self, l)));
            match buf.len() {
                0 => {
                    unsat = true;
                    break;
                }
                1 => {
                    units.push(buf[0]);
                    continue;
                }
                _ => {}
            }
            // Best two literals to the front.
            let rank = |s: &Solver, l: Lit| match s.value(l) {
                LBool::True => u64::MAX,
                LBool::Undef => u64::MAX - 1,
                LBool::False => u64::from(s.level[l.var().index()]),
            };
            for k in 0..2 {
                let best = (k..buf.len())
                    .max_by_key(|&i| (rank(self, buf[i]), std::cmp::Reverse(i)))
                    .expect("two literals");
                buf.swap(k, best);
            }
            let cref = self.attach_clause(&buf, false, 0);
            match (self.value(buf[0]), self.value(buf[1])) {
                (LBool::False, _) => {
                    pending.push((cref, Some(self.level[buf[0].var().index()])));
                }
                (LBool::Undef, LBool::False) => pending.push((cref, None)),
                _ => {}
            }
        }
        self.scratch_add = buf;
        self.lemma_lits = lits;
        self.lemma_lits.clear();
        self.lemma_ends = ends;
        self.lemma_ends.clear();
        if unsat {
            return TheoryStep::Unsat;
        }
        if !units.is_empty() {
            // Level-0 units: the other lemmas' watches are unassigned or
            // true there, and propagation takes it from here.
            self.backtrack_to(0);
            for l in units {
                match self.value(l) {
                    LBool::Undef => self.unchecked_enqueue(l, None),
                    LBool::True => {}
                    LBool::False => return TheoryStep::Unsat,
                }
            }
            return TheoryStep::Progress;
        }
        // The lowest false lemma decides where the search resumes.
        let lowest = pending
            .iter()
            .filter_map(|&(c, level)| level.map(|l| (l, c)))
            .min_by_key(|&(l, _)| l);
        if let Some((level, cref)) = lowest {
            let below = self.level[self.arena.lit(cref, 1).var().index()];
            if below < level {
                // One literal at the top level: it is implied one level
                // down.
                self.backtrack_to(below);
                self.unchecked_enqueue(self.arena.lit(cref, 0), Some(cref));
                return TheoryStep::Progress;
            }
            self.backtrack_to(level);
            return TheoryStep::Conflict(cref);
        }
        // A unit lemma that another unit of this batch falsified is found
        // by propagation, which visits the newly false watch.
        for (cref, _) in pending {
            let l = self.arena.lit(cref, 0);
            if self.value(l) == LBool::Undef {
                self.unchecked_enqueue(l, Some(cref));
            }
        }
        TheoryStep::Progress
    }

    /// The value of `v` in the most recent satisfying model. `None` when the
    /// last solve was UNSAT or the variable was irrelevant... variables are
    /// always fully assigned on SAT, so `None` only before any solve.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The failed-assumption core of the most recent UNSAT answer: a subset
    /// of the assumptions that is jointly unsatisfiable with the clauses.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Allocates a fresh *activation literal* for a retirable clause group.
    /// Clauses added via [`Solver::add_clause_in_group`] with this literal
    /// are enforced only while it is passed as an assumption, so a caller
    /// can keep many alternative assertion sets in one solver and pick a
    /// subset per [`Solver::solve_with_assumptions`] call — the basis of
    /// incremental solving with learnt-clause reuse.
    pub fn new_activation(&mut self) -> Lit {
        self.new_var().pos()
    }

    /// Adds `lits` as a clause guarded by activation literal `act`: the
    /// stored clause is `¬act ∨ lits`, a tautological no-op unless `act` is
    /// assumed. Returns `false` if the solver is already unsatisfiable.
    pub fn add_clause_in_group(&mut self, act: Lit, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.add_clause(lits.into_iter().chain([!act]))
    }

    /// Permanently disables the clause group guarded by `act` by asserting
    /// `¬act` at level 0. All clauses of the group become satisfied, and the
    /// solver may simplify them away. The activation literal must not be
    /// assumed afterwards. Returns `false` if the solver became (or already
    /// was) unsatisfiable.
    pub fn retire_group(&mut self, act: Lit) -> bool {
        self.add_clause([!act])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    /// A hard UNSAT instance: `n` pigeons into `n - 1` holes.
    fn pigeonhole(s: &mut Solver, n: usize) {
        let p: Vec<Vec<Var>> = (0..n).map(|_| vars(s, n - 1)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for (pa, pb) in p[a].iter().zip(&p[b]) {
                    s.add_clause([pa.neg(), pb.neg()]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_interrupts_and_solver_recovers() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        assert_eq!(s.solve_budgeted(&[], 1), None);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Conflicts));
        // The solver (and its learnt clauses) stay usable: an unbudgeted
        // call still reaches the correct verdict.
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.last_interrupt(), None);
    }

    #[test]
    fn conflict_budget_is_exact() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        for budget in [0, 1, 5, 37, 250] {
            let before = s.stats().conflicts;
            assert_eq!(s.solve_budgeted(&[], budget), None);
            assert_eq!(s.last_interrupt(), Some(Interrupt::Conflicts));
            assert_eq!(s.stats().conflicts - before, budget, "budget {budget}");
        }
    }

    #[test]
    fn expired_deadline_interrupts_budgeted_solve() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        s.set_deadline(Some(Instant::now()));
        assert_eq!(s.solve_budgeted(&[], u64::MAX), None);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Deadline));
        // Clearing the deadline restores a decisive answer.
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.last_interrupt(), None);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m0 = s.model_value(v[0]).unwrap();
        let m1 = s.model_value(v[1]).unwrap();
        assert!(m0 || m1);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([v[0].pos()]);
        assert!(!s.add_clause([v[0].neg()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0].pos()]);
        s.add_clause([v[0].neg(), v[1].pos()]);
        s.add_clause([v[1].neg(), v[2].pos()]);
        s.add_clause([v[2].neg(), v[3].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.model_value(x), Some(true));
        }
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0].pos(), v[0].neg()]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_5_sat() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 5)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..5 {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    s.add_clause([p[a][j].neg(), p[b][j].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].neg(), v[1].pos()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[0].pos(), v[1].neg()]),
            SolveResult::Unsat
        );
        // Solver stays usable incrementally:
        assert_eq!(s.solve_with_assumptions(&[v[0].pos()]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unsat_core_is_relevant_subset() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // v0 & v1 contradictory via clauses; v2, v3 irrelevant.
        s.add_clause([v[0].neg(), v[1].neg()]);
        let assumptions = [v[2].pos(), v[0].pos(), v[3].pos(), v[1].pos()];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(core.contains(&v[0].pos()) || core.contains(&v[1].pos()));
        assert!(
            !core.contains(&v[2].pos()),
            "irrelevant assumption in core: {core:?}"
        );
        assert!(!core.contains(&v[3].pos()));
        // Core itself must be unsat with the clauses.
        assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
    }

    #[test]
    fn core_empty_when_clauses_alone_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].pos()]);
        s.add_clause([v[0].neg()]);
        assert_eq!(s.solve_with_assumptions(&[v[1].pos()]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0].pos(), v[1].pos(), v[2].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([v[0].neg()]);
        s.add_clause([v[1].neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
        s.add_clause([v[2].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (1..=15).map(Solver::luby).collect();
        assert_eq!(seq, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn activation_groups_enable_and_disable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        let g1 = s.new_activation();
        let g2 = s.new_activation();
        // Group 1 forces x0; group 2 contradicts it.
        s.add_clause_in_group(g1, [v[0].pos()]);
        s.add_clause_in_group(g2, [v[0].neg()]);
        s.add_clause([v[1].pos()]);
        // Individually each group is consistent.
        assert_eq!(s.solve_with_assumptions(&[g1]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(false));
        // Together they conflict, and the core names both groups.
        assert_eq!(s.solve_with_assumptions(&[g1, g2]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&g1) && core.contains(&g2), "{core:?}");
        // Unguarded clauses are unaffected by group selection.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn retired_group_no_longer_constrains() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        let g1 = s.new_activation();
        let g2 = s.new_activation();
        s.add_clause_in_group(g1, [v[0].pos()]);
        s.add_clause_in_group(g2, [v[0].neg()]);
        assert_eq!(s.solve_with_assumptions(&[g1, g2]), SolveResult::Unsat);
        s.retire_group(g1);
        // With group 1 retired, group 2 alone decides the query.
        assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(false));
    }

    #[test]
    fn groups_reuse_learnt_clauses_across_queries() {
        let mut s = Solver::new();
        let n = 5;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for (pa, pb) in p[a].iter().zip(&p[b]) {
                    s.add_clause([pa.neg(), pb.neg()]);
                }
            }
        }
        let g1 = s.new_activation();
        let g2 = s.new_activation();
        s.add_clause_in_group(g1, [p[0][0].pos()]);
        s.add_clause_in_group(g2, [p[0][0].neg()]);
        assert_eq!(s.solve_with_assumptions(&[g1]), SolveResult::Unsat);
        let conflicts_first = s.stats().conflicts;
        assert!(conflicts_first > 0, "pigeonhole needs search");
        let clauses = s.num_clauses();
        // The second query runs on the same solver: no clauses are re-added
        // and the conflict counter keeps accumulating instead of resetting —
        // learnt state is carried, not rebuilt.
        assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Unsat);
        assert_eq!(s.num_clauses(), clauses);
        assert!(s.stats().conflicts >= conflicts_first);
    }

    // ---- Arena / feature-specific tests ---------------------------------

    /// A solver that backtracks chronologically on every non-unit learnt
    /// clause: small instances rarely backjump past [`CHRONO_THRESHOLD`]
    /// levels, so the default threshold leaves that branch untested.
    fn eager_chrono_solver() -> Solver {
        let mut s = Solver::new();
        s.chrono_threshold = 0;
        s
    }

    #[test]
    fn eager_chronological_backtracking_keeps_verdicts_models_and_cores() {
        // Random 2..4-SAT instances around the satisfiability threshold,
        // checked against the DPLL reference.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..60 {
            let n = 5 + round % 8;
            let mut cnf = crate::Cnf::new();
            cnf.ensure_vars(n);
            for _ in 0..n * 4 + round % 7 {
                let width = 2 + below(3);
                let lits: Vec<Lit> = (0..width)
                    .map(|_| Var(below(n) as u32).lit(below(2) == 0))
                    .collect();
                cnf.add_clause(lits);
            }
            let mut s = eager_chrono_solver();
            vars(&mut s, n);
            for c in cnf.clauses() {
                s.add_clause(c.iter().copied());
            }
            let expected = crate::solve_dpll(&cnf).is_some();
            match s.solve() {
                SolveResult::Sat => {
                    assert!(expected, "round {round}: SAT but DPLL says UNSAT");
                    let model: Vec<bool> = (0..n)
                        .map(|i| s.model_value(Var(i as u32)).unwrap())
                        .collect();
                    assert!(cnf.eval(&model), "round {round}: model violates the CNF");
                    sat += 1;
                }
                SolveResult::Unsat => {
                    assert!(!expected, "round {round}: UNSAT but DPLL says SAT");
                    unsat += 1;
                }
            }
        }
        assert!(
            sat > 0 && unsat > 0,
            "corpus lacks a verdict: {sat} sat, {unsat} unsat"
        );

        // The failed-assumption core stays free of irrelevant assumptions.
        let mut s = eager_chrono_solver();
        pigeonhole(&mut s, 5);
        let extra = s.new_var();
        assert_eq!(s.solve_with_assumptions(&[extra.pos()]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0, "pigeonhole needs search");
        assert!(
            !s.unsat_core().contains(&extra.pos()),
            "irrelevant assumption in core"
        );
    }
    #[test]
    fn lbd_reduction_fires_and_keeps_verdicts() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        // Pull the first reduction forward so the test does not need
        // thousands of conflicts.
        s.next_reduce = 50;
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.lbd_reductions > 0, "no LBD reduction ran: {st:?}");
        assert!(st.deleted_clauses > 0, "reduction deleted nothing: {st:?}");
    }

    #[test]
    fn arena_gc_compacts_and_solver_stays_usable() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        s.next_reduce = 20;
        let first = s.solve_budgeted(&[], 2_000);
        assert!(matches!(first, None | Some(SolveResult::Unsat)));
        assert!(s.stats().deleted_clauses > 0);
        // The GC invariant: never more than a quarter of the arena wasted
        // once a reduction has run.
        assert!(
            (s.arena.wasted as usize) * 4 <= s.arena.data.len(),
            "wasted {} of {}",
            s.arena.wasted,
            s.arena.data.len()
        );
        // The compacted solver still answers correctly, incrementally.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn watch_lists_release_capacity_after_migration() {
        // Every long clause first watches `x` and `y`; falsifying them
        // migrates all of those watches to the clause tails in one pass.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let n = 2_000;
        let tails: Vec<(Var, Var)> = (0..n).map(|_| (s.new_var(), s.new_var())).collect();
        for &(a, b) in &tails {
            s.add_clause([x.pos(), y.pos(), a.pos(), b.pos()]);
        }
        assert!(s.watches[x.pos().index()].len() >= n);
        let within = |s: &Solver| s.watches.iter().all(|wl| wl.capacity() <= 2 * wl.len() + 8);
        assert_eq!(
            s.solve_with_assumptions(&[x.neg(), y.neg()]),
            SolveResult::Sat
        );
        assert!(s.watches[x.pos().index()].len() < n);
        assert!(within(&s), "a watch list kept its high-water capacity");
        // Migrating back the other way keeps the bound too.
        let first_tails: Vec<Lit> = tails.iter().map(|(a, _)| a.neg()).collect();
        let second_tails: Vec<Lit> = tails.iter().map(|(_, b)| b.neg()).collect();
        let mut assumptions = first_tails;
        assumptions.extend(second_tails);
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Sat);
        assert!(s.model_value(x) == Some(true) || s.model_value(y) == Some(true));
        assert!(within(&s), "a watch list kept its high-water capacity");
    }

    /// A theory that holds back part of a CNF and returns each held clause
    /// as a lemma once the assignment makes it unit or false — at whatever
    /// decision level that happens. It only looks at every third fixpoint,
    /// so some lemmas arrive false below the current level. "Late" clauses
    /// are only returned by the final check (as is anything still false
    /// there), and "split" clauses come back as two lemmas joined by a
    /// fresh variable (`a ∨ b ∨ x`, `¬x ∨ rest`), which is equisatisfiable.
    struct HeldClauses {
        held: Vec<(Vec<Lit>, bool, bool)>,
        emitted: Vec<bool>,
        calls: usize,
        from_final: usize,
    }

    impl HeldClauses {
        fn emit(&mut self, ctx: &mut TheoryCtx<'_>, i: usize) {
            self.emitted[i] = true;
            let (lits, _, split) = self.held[i].clone();
            if split && lits.len() >= 2 {
                let x = ctx.new_var();
                let mut first = lits[..lits.len() / 2].to_vec();
                first.push(x.pos());
                let mut second = vec![x.neg()];
                second.extend_from_slice(&lits[lits.len() / 2..]);
                ctx.add_lemma(&first);
                ctx.add_lemma(&second);
            } else {
                ctx.add_lemma(&lits);
            }
        }

        fn scan(&mut self, ctx: &mut TheoryCtx<'_>, full: bool) {
            self.calls += 1;
            if !full && !self.calls.is_multiple_of(3) {
                return;
            }
            for i in 0..self.held.len() {
                let (lits, late, _) = &self.held[i];
                if self.emitted[i] || *late && !full {
                    continue;
                }
                let open = lits
                    .iter()
                    .filter(|&&l| ctx.value(l) != LBool::False)
                    .count();
                let sat = lits.iter().any(|&l| ctx.value(l) == LBool::True);
                if !sat && open <= usize::from(!full) {
                    self.emit(ctx, i);
                    if full {
                        self.from_final += 1;
                    }
                }
            }
        }
    }

    impl Theory for HeldClauses {
        fn backtrack(&mut self, _len: usize) {}
        fn propagate(&mut self, ctx: &mut TheoryCtx<'_>) {
            self.scan(ctx, false);
        }
        fn final_check(&mut self, ctx: &mut TheoryCtx<'_>) {
            self.scan(ctx, true);
        }
    }

    #[test]
    fn theory_lemmas_mid_search_keep_verdicts_models_and_cores() {
        let mut state = 0x5851_f42d_4c95_7f2d_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let (mut sat, mut unsat, mut cores, mut finals) = (0, 0, 0, 0);
        for round in 0..160 {
            let n = 8 + round % 10;
            let mut cnf = crate::Cnf::new();
            cnf.ensure_vars(n);
            for _ in 0..n * 4 + round % 7 {
                let width = 2 + below(3);
                let lits: Vec<Lit> = (0..width)
                    .map(|_| Var(below(n) as u32).lit(below(2) == 0))
                    .collect();
                cnf.add_clause(lits);
            }
            let mut s = if round % 2 == 0 {
                eager_chrono_solver()
            } else {
                Solver::new()
            };
            vars(&mut s, n);
            let mut theory = HeldClauses {
                held: Vec::new(),
                emitted: Vec::new(),
                calls: 0,
                from_final: 0,
            };
            for c in cnf.clauses() {
                if below(3) == 0 {
                    s.add_clause(c.iter().copied());
                } else {
                    theory.held.push((c.to_vec(), below(5) == 0, below(3) == 0));
                    theory.emitted.push(false);
                }
            }
            // Several queries on one solver: lemmas from earlier queries
            // stay, and each query's assumptions differ.
            for query in 0..4 {
                let assumptions: Vec<Lit> = (0..below(4))
                    .map(|_| Var(below(n) as u32).lit(below(2) == 0))
                    .collect();
                let mut with_units = cnf.clone();
                for &a in &assumptions {
                    with_units.add_clause([a]);
                }
                let expected = crate::solve_dpll(&with_units).is_some();
                let got = s
                    .solve_with_theory(&assumptions, u64::MAX, &mut theory)
                    .expect("unbudgeted");
                let tag = format!("round {round} query {query}");
                match got {
                    SolveResult::Sat => {
                        assert!(expected, "{tag}: SAT but DPLL says UNSAT");
                        let model: Vec<bool> = (0..n)
                            .map(|i| s.model_value(Var(i as u32)).unwrap())
                            .collect();
                        assert!(with_units.eval(&model), "{tag}: model violates the CNF");
                        sat += 1;
                    }
                    SolveResult::Unsat => {
                        assert!(!expected, "{tag}: UNSAT but DPLL says SAT");
                        let core = s.unsat_core().to_vec();
                        assert!(core.iter().all(|l| assumptions.contains(l)), "{tag}");
                        let mut with_core = cnf.clone();
                        for &a in &core {
                            with_core.add_clause([a]);
                        }
                        assert!(
                            crate::solve_dpll(&with_core).is_none(),
                            "{tag}: core {core:?} is satisfiable"
                        );
                        if !core.is_empty() {
                            cores += 1;
                        }
                        unsat += 1;
                    }
                }
            }
            finals += theory.from_final;
        }
        assert!(
            sat > 0 && unsat > 0 && cores > 0 && finals > 0,
            "corpus lacks a case: {sat} sat, {unsat} unsat, {cores} cores, {finals} final lemmas"
        );
    }

    /// A theory that keeps its own copy of the trail prefix it has seen,
    /// truncated on every backtrack it is told of, and checks on each call
    /// that the copy still matches the solver's trail.
    #[derive(Default)]
    struct TrailMirror {
        seen: Vec<Lit>,
        calls: usize,
    }

    impl TrailMirror {
        fn sync(&mut self, ctx: &mut TheoryCtx<'_>) {
            self.calls += 1;
            assert!(self.seen.len() <= ctx.trail_len(), "missed a backtrack");
            for (i, &l) in self.seen.iter().enumerate() {
                assert_eq!(l, ctx.trail_lit(i), "stale trail position {i}");
            }
            for i in self.seen.len()..ctx.trail_len() {
                self.seen.push(ctx.trail_lit(i));
            }
        }
    }

    impl Theory for TrailMirror {
        fn backtrack(&mut self, len: usize) {
            self.seen.truncate(len);
        }
        fn propagate(&mut self, ctx: &mut TheoryCtx<'_>) {
            self.sync(ctx);
        }
        fn final_check(&mut self, ctx: &mut TheoryCtx<'_>) {
            self.sync(ctx);
        }
    }

    #[test]
    fn plain_solves_between_theory_solves_keep_the_theory_in_step() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut calls = 0;
        for _ in 0..40 {
            let n = 30;
            let mut s = Solver::new();
            vars(&mut s, n);
            for _ in 0..120 {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| Var(below(n) as u32).lit(below(2) == 0))
                    .collect();
                s.add_clause(lits);
            }
            let mut theory = TrailMirror::default();
            for query in 0..8 {
                let assumptions: Vec<Lit> = (0..1 + below(3))
                    .map(|_| Var(below(n) as u32).lit(below(2) == 0))
                    .collect();
                if query % 2 == 0 {
                    s.solve_with_theory(&assumptions, u64::MAX, &mut theory);
                } else {
                    s.solve_with_assumptions(&assumptions);
                }
            }
            calls += theory.calls;
        }
        assert!(calls > 0);
    }

    #[test]
    fn recursive_minimization_strips_literals() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().minimized_lits > 0,
            "recursive minimization never removed a literal: {:?}",
            s.stats()
        );
    }
}
