//! The pre-arena CDCL solver, frozen as a differential-testing baseline.
//!
//! This is the boxed-clause (`Vec<Clause>`, one heap allocation per clause)
//! solver that shipped before the flat-arena rebuild in [`crate::solver`].
//! It is kept verbatim — two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS with phase saving, Luby restarts, activity-based
//! learnt-clause deletion, assumption-based incremental solving with UNSAT
//! cores — so randomized differential tests can pin the arena solver's
//! verdicts. New features (LBD reduction, recursive minimization,
//! chronological backtracking) exist only in the arena solver; do not add
//! them here.

use crate::lit::{LBool, Lit, Var};
use crate::solver::{Interrupt, SolveResult, Stats};
use std::time::Instant;

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: u32,
    blocker: Lit,
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

/// The frozen pre-arena CDCL solver (boxed-clause layout).
///
/// # Examples
///
/// ```
/// use ivy_sat::legacy::Solver;
/// use ivy_sat::SolveResult;
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
    clauses: Vec<Clause>,
    learnt_refs: Vec<u32>,
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
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    qhead: usize,
    /// False once the clause set is unconditionally unsatisfiable.
    ok: bool,
    seen: Vec<bool>,
    assumptions: Vec<Lit>,
    core: Vec<Lit>,
    model: Vec<LBool>,
    max_learnts: f64,
    /// Problem (non-learnt) clauses submitted via `add_clause`, counted
    /// before simplification; sizes the learnt-clause database.
    problem_clauses: usize,
    /// Wall-clock deadline; search gives up (gracefully) once it passes.
    deadline: Option<Instant>,
    /// Why the most recent `solve_budgeted` returned `None`.
    interrupt: Option<Interrupt>,
    stats: Stats,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnts: 1000.0,
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

    /// Number of problem (non-learnt) clauses added, including those
    /// simplified away.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
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
        self.problem_clauses += 1;
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l}");
        }
        // Simplify: sort, dedupe, drop false literals, detect tautology.
        lits.sort();
        lits.dedup();
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: contains l and ~l
            }
            match self.value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_new_clause(simplified, false);
                true
            }
        }
    }

    fn attach_new_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let (w0, w1) = (lits[0], lits[1]);
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        if learnt {
            self.learnt_refs.push(cref);
        }
        self.watches[w0.index()].push(Watch { cref, blocker: w1 });
        self.watches[w1.index()].push(Watch { cref, blocker: w0 });
        cref
    }

    fn value(&self, l: Lit) -> LBool {
        self.assign[l.var().index()].under(l)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(l.is_pos());
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Propagates pending assignments; returns the conflicting clause
    /// reference, if any.
    fn propagate(&mut self) -> Option<u32> {
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
                let Watch { cref, blocker } = watch_list[i];
                if self.value(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let clause = &mut self.clauses[cref as usize];
                if clause.deleted {
                    watch_list.swap_remove(i);
                    continue;
                }
                // Normalize: the false watch goes to position 1.
                if clause.lits[0] == false_lit {
                    clause.lits.swap(0, 1);
                }
                debug_assert_eq!(clause.lits[1], false_lit);
                let first = clause.lits[0];
                if first != blocker && self.assign[first.var().index()].under(first) == LBool::True
                {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..clause.lits.len() {
                    let cand = clause.lits[k];
                    if self.assign[cand.var().index()].under(cand) != LBool::False {
                        clause.lits.swap(1, k);
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
            self.watches[false_lit.index()].append(&mut watch_list);
            // Note: append puts processed watches back *after* any watches
            // added during this loop (none target false_lit), order is
            // irrelevant for correctness.
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

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for &r in &self.learnt_refs {
                self.clauses[r as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            self.bump_clause(confl);
            let lits: Vec<Lit> = self.clauses[confl as usize].lits.clone();
            // Skip lits[0] when it is the literal we just resolved on.
            let skip = usize::from(p.is_some());
            for &q in &lits[skip..] {
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

        // Simple self-subsumption minimization: drop literals whose reason
        // clause is entirely covered by the remaining `seen` set.
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_redundant(l))
            .collect();
        let mut minimized = Vec::with_capacity(learnt.len());
        for (i, &l) in learnt.iter().enumerate() {
            if keep[i] {
                minimized.push(l);
            }
        }

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
        (minimized, bt)
    }

    /// Whether `l` is implied by the other literals already in the learnt
    /// clause (a one-level check, not the full recursive version).
    fn literal_redundant(&self, l: Lit) -> bool {
        match self.reason[l.var().index()] {
            None => false,
            Some(r) => self.clauses[r as usize].lits.iter().all(|&q| {
                q == !l || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
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
                    for &x in &self.clauses[r as usize].lits[1..] {
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

    fn reduce_db(&mut self) {
        // Sort learnt clauses by activity, delete the weaker half (skipping
        // binary and locked clauses).
        let mut refs = self.learnt_refs.clone();
        refs.retain(|&r| !self.clauses[r as usize].deleted);
        refs.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .expect("activities are finite")
        });
        let target = refs.len() / 2;
        let mut deleted = 0;
        for &r in refs.iter() {
            if deleted >= target {
                break;
            }
            let locked = {
                let c = &self.clauses[r as usize];
                c.lits.len() <= 2 || self.reason[c.lits[0].var().index()] == Some(r)
            };
            if !locked {
                self.clauses[r as usize].deleted = true;
                deleted += 1;
                self.stats.deleted_clauses += 1;
            }
        }
        self.learnt_refs
            .retain(|&r| !self.clauses[r as usize].deleted);
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
    /// `None`) once roughly `max_conflicts` conflicts have been analyzed in
    /// this call, or once the deadline set via [`Solver::set_deadline`]
    /// passes; [`Solver::last_interrupt`] tells the two apart. The solver
    /// stays usable afterwards (learnt clauses are kept).
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
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
        // Size the learnt database to the problem: a fixed cap of 1000
        // thrashes on 100k+-clause groundings. Only ever raise it, so the
        // usual 1.1x growth is preserved across incremental calls.
        let target = (self.problem_clauses / 3).max(1000) as f64;
        if self.max_learnts < target {
            self.max_learnts = target;
        }
        let conflict_limit = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restart = 0u64;
        loop {
            restart += 1;
            let budget = 100 * Self::luby(restart);
            match self.search(budget) {
                Some(result) => {
                    self.backtrack_to(0);
                    return Some(result);
                }
                None => {
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    if self.deadline_passed() {
                        self.interrupt = Some(Interrupt::Deadline);
                        return None;
                    }
                    if self.stats.conflicts >= conflict_limit {
                        self.interrupt = Some(Interrupt::Conflicts);
                        return None;
                    }
                }
            }
        }
    }

    fn deadline_passed(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Runs CDCL search for at most `budget` conflicts; `None` = restart.
    fn search(&mut self, budget: u64) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        let mut steps = 0u32;
        loop {
            // Poll the wall clock sparingly: a deadline overshoot of a few
            // thousand propagation/decision steps is invisible next to the
            // cost of checking `Instant::now` every iteration.
            steps = steps.wrapping_add(1);
            if steps & 0x0FFF == 0 && self.deadline_passed() {
                return None; // surfaces as a restart; solve_budgeted stops
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack_to(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let cref = self.attach_new_clause(learnt, true);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                continue;
            }
            if conflicts_here >= budget {
                return None; // restart
            }
            if self.learnt_refs.len() as f64 > self.max_learnts + self.trail.len() as f64 {
                self.reduce_db();
                self.max_learnts *= 1.1;
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
                    None => {
                        self.model = self.assign.clone();
                        return Some(SolveResult::Sat);
                    }
                    Some(v) => v.lit(self.polarity[v.index()]),
                },
            };
            self.stats.decisions += 1;
            self.new_decision_level();
            self.unchecked_enqueue(decision, None);
        }
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
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.push(!act);
        self.add_clause(clause)
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
    fn learnt_cap_scales_with_problem_size() {
        let mut s = Solver::new();
        let mut prev = s.new_var();
        // 6000 distinct implication clauses: a satisfiable problem big
        // enough that `problem_clauses / 3` exceeds the fixed cap.
        for _ in 0..6000 {
            let v = s.new_var();
            s.add_clause([prev.neg(), v.pos()]);
            prev = v;
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(
            s.max_learnts >= (s.problem_clauses / 3) as f64,
            "cap {} for {} clauses",
            s.max_learnts,
            s.problem_clauses
        );
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
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    let (x, y) = (p[a][j], p[b][j]);
                    s.add_clause([x.neg(), y.neg()]);
                }
            }
        }
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
        // A pigeonhole core shared by two violation groups: solving under
        // the first group trains the solver; the second query still answers
        // correctly with the learnt clauses in place.
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
}
