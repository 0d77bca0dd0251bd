//! Grounding and propositional encoding of EPR formulas.
//!
//! After Skolemization, every assertion is a universally quantified
//! quantifier-free matrix over a finite ground-term universe. The encoder
//! instantiates universals over the universe, Tseitin-encodes the resulting
//! ground formulas, and axiomatizes equality *locally*: equality variables
//! exist only for pairs of terms that can possibly be equal (connected by
//! equality atoms, directly or through congruence), which keeps the
//! transitivity/congruence axioms from exploding over large universes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::BuildHasherDefault;

use ivy_fol::intern::{FormulaId, FormulaNode, Interner, TermNode};
use ivy_fol::{Binding, Formula, Signature, Sym, Term};
use ivy_sat::{Interrupt, Lit, Solver, Var};

use crate::ground::{TermId, TermTable};

/// A hash-consed term id from the formula interner, distinct from the
/// ground-term [`TermId`] of the universe table.
type FolTermId = ivy_fol::intern::TermId;

/// Atoms bucketed by (symbol, componentwise signature) for congruence.
type AtomBuckets = BTreeMap<(Sym, Vec<usize>), Vec<(Vec<TermId>, Var)>>;

/// Disjoint-set forest over term ids.
#[derive(Clone, Debug)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb)] = ra.min(rb);
        true
    }
}

/// One ground-term evaluation step of a [`Template`]: either read a
/// quantified variable's ground instantiation from the environment, or look
/// up a function application over previously evaluated steps.
#[derive(Clone, Debug)]
pub(crate) enum TStep {
    /// The value of the `i`-th binding of the job's universal prefix.
    Var(usize),
    /// `sym(steps[j]...)` resolved through the closed universe table.
    App(Sym, Vec<usize>),
}

/// Which way a subformula constrains its Tseitin gate: `Pos` occurrences
/// only need `gate → formula`, `Neg` only `formula → gate`, `Both` (under an
/// `iff`) need the full equivalence. Polarity is static — it depends only on
/// the matrix structure, so the template walk threads it for free and the
/// replay path can emit Plaisted–Greenbaum gates (half the clauses of full
/// Tseitin). The tree encoder ([`Encoder::encode`]) predates polarity
/// tracking and keeps emitting full Tseitin gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Polarity {
    Pos,
    Neg,
    Both,
}

impl Polarity {
    fn flip(self) -> Polarity {
        match self {
            Polarity::Pos => Polarity::Neg,
            Polarity::Neg => Polarity::Pos,
            Polarity::Both => Polarity::Both,
        }
    }
}

/// The propositional skeleton of a quantifier-free matrix, with terms
/// replaced by indices into the shared step list.
#[derive(Clone, Debug)]
pub(crate) enum TNode {
    True,
    False,
    Rel(Sym, Vec<usize>),
    Eq(usize, usize),
    Not(Box<TNode>),
    And(Vec<TNode>),
    Or(Vec<TNode>),
    Implies(Box<TNode>, Box<TNode>),
    Iff(Box<TNode>, Box<TNode>),
}

/// One literal of a pre-flattened clausal matrix (see [`Template::compile`]):
/// an atom over step indices plus a sign.
#[derive(Clone, Debug)]
pub(crate) enum CLit {
    /// `sym(steps…)`, negated when `neg`.
    Rel {
        /// Negate the atom.
        neg: bool,
        /// Relation symbol.
        sym: Sym,
        /// Argument step indices.
        args: Vec<usize>,
    },
    /// `steps[a] = steps[b]`, negated when `neg`.
    Eq {
        /// Negate the equality.
        neg: bool,
        /// Left step index.
        a: usize,
        /// Right step index.
        b: usize,
    },
}

/// A conjunction of disjunctions of [`CLit`]s — a matrix pre-flattened to
/// CNF at template-compile time.
type FlatCnf = Vec<Vec<CLit>>;

/// Clause-count cap for [`flatten_cnf`]: matrices whose distributed CNF
/// exceeds this many clauses fall back to Tseitin gates, so distribution
/// can never blow up (it is quadratic in the cap, run once per template).
const FLAT_CNF_MAX_CLAUSES: usize = 16;
/// Total-literal cap for [`flatten_cnf`] (same fallback).
const FLAT_CNF_MAX_LITS: usize = 96;

/// `∨` of two CNFs by distribution: every clause of `a` joined with every
/// clause of `b`. `None` when the product exceeds the flattening caps.
fn cnf_or(a: FlatCnf, b: FlatCnf) -> Option<FlatCnf> {
    if a.len() * b.len() > FLAT_CNF_MAX_CLAUSES {
        return None;
    }
    let mut out = Vec::with_capacity(a.len() * b.len());
    for ca in &a {
        for cb in &b {
            let mut c = ca.clone();
            c.extend(cb.iter().cloned());
            out.push(c);
        }
    }
    Some(out)
}

/// Flattens `n` (negated when `neg`) into CNF by pushing negations inward
/// and distributing `∨` over `∧`, without auxiliary variables. Returns
/// `None` when the result would exceed [`FLAT_CNF_MAX_CLAUSES`] clauses or
/// [`FLAT_CNF_MAX_LITS`] literals — those matrices (rare, deeply mixed
/// connectives) keep the Tseitin gate encoding instead.
fn flatten_cnf(n: &TNode, neg: bool) -> Option<FlatCnf> {
    let out = match n {
        // ⊤ is the empty conjunction; ⊥ the empty clause.
        TNode::True => {
            if neg {
                vec![Vec::new()]
            } else {
                Vec::new()
            }
        }
        TNode::False => {
            if neg {
                Vec::new()
            } else {
                vec![Vec::new()]
            }
        }
        TNode::Rel(r, args) => vec![vec![CLit::Rel {
            neg,
            sym: *r,
            args: args.clone(),
        }]],
        TNode::Eq(a, b) => vec![vec![CLit::Eq { neg, a: *a, b: *b }]],
        TNode::Not(g) => flatten_cnf(g, !neg)?,
        TNode::And(fs) if !neg => {
            let mut acc = Vec::new();
            for g in fs {
                acc.extend(flatten_cnf(g, false)?);
            }
            acc
        }
        // ¬(∧ fs) = ∨ ¬fs — distribute; dually for a positive ∨.
        TNode::And(fs) => {
            let mut acc = vec![Vec::new()];
            for g in fs {
                acc = cnf_or(acc, flatten_cnf(g, true)?)?;
            }
            acc
        }
        TNode::Or(fs) if !neg => {
            let mut acc = vec![Vec::new()];
            for g in fs {
                acc = cnf_or(acc, flatten_cnf(g, false)?)?;
            }
            acc
        }
        TNode::Or(fs) => {
            let mut acc = Vec::new();
            for g in fs {
                acc.extend(flatten_cnf(g, true)?);
            }
            acc
        }
        TNode::Implies(a, b) if !neg => cnf_or(flatten_cnf(a, true)?, flatten_cnf(b, false)?)?,
        TNode::Implies(a, b) => {
            let mut acc = flatten_cnf(a, false)?;
            acc.extend(flatten_cnf(b, true)?);
            acc
        }
        // a ↔ b = (a → b) ∧ (b → a); ¬(a ↔ b) = (a ∨ b) ∧ (¬a ∨ ¬b).
        TNode::Iff(a, b) if !neg => {
            let mut acc = cnf_or(flatten_cnf(a, true)?, flatten_cnf(b, false)?)?;
            acc.extend(cnf_or(flatten_cnf(b, true)?, flatten_cnf(a, false)?)?);
            acc
        }
        TNode::Iff(a, b) => {
            let mut acc = cnf_or(flatten_cnf(a, false)?, flatten_cnf(b, false)?)?;
            acc.extend(cnf_or(flatten_cnf(a, true)?, flatten_cnf(b, true)?)?);
            acc
        }
    };
    let lits: usize = out.iter().map(Vec::len).sum();
    (out.len() <= FLAT_CNF_MAX_CLAUSES && lits <= FLAT_CNF_MAX_LITS).then_some(out)
}

/// A pre-compiled instantiation plan for one universal grounding job.
///
/// Compiled once per job from the hash-consed matrix: the term structure is
/// flattened into `steps` — deduplicated by interned [`FolTermId`], so a
/// subterm shared five times across the matrix is evaluated once per ground
/// tuple instead of five times — and the boolean skeleton becomes a
/// [`TNode`] tree mirroring the matrix exactly. Replaying a template
/// ([`Encoder::assert_template`]) makes the *same* `rel_var`/`eq_lit`/gate
/// *variable* allocations in the same DFS order as the tree encoder, so
/// atom and gate numbering is unchanged; gate *clauses* are the
/// Plaisted–Greenbaum subset for the gate's static polarity (roots are
/// asserted positively under a guard, so the admissible atom assignments —
/// and hence soundness of models and UNSAT cores — are preserved; only the
/// solver's choice among equivalent models may differ from full Tseitin).
#[derive(Clone, Debug)]
pub(crate) struct Template {
    steps: Vec<TStep>,
    root: TNode,
    /// The matrix flattened into a small CNF over its own atoms, when the
    /// bounded distribution of [`flatten_cnf`] succeeds (it does for nearly
    /// every invariant, axiom, and frame condition). Flat templates are
    /// asserted clause-by-clause with no Tseitin gates at all
    /// ([`Encoder::assert_template`]), so the SAT variable count stays
    /// proportional to the number of distinct ground atoms rather than
    /// ground instantiations.
    cnf: Option<FlatCnf>,
}

impl Template {
    /// Compiles `matrix` against the universal prefix `bindings` (the
    /// environment layout at replay time).
    ///
    /// # Panics
    ///
    /// Panics on variables not bound by `bindings`, on `ite` (eliminate
    /// first), or on quantifiers in the matrix — all pipeline invariants.
    pub(crate) fn compile(it: &Interner, matrix: FormulaId, bindings: &[Binding]) -> Template {
        let var_pos: BTreeMap<Sym, usize> = bindings
            .iter()
            .enumerate()
            .map(|(i, b)| (b.var, i))
            .collect();
        let mut steps = Vec::new();
        let mut seen: HashMap<FolTermId, usize> = HashMap::new();
        let root = compile_node(it, matrix, &var_pos, &mut steps, &mut seen);
        let cnf = flatten_cnf(&root, false);
        Template { steps, root, cnf }
    }
}

fn compile_term(
    it: &Interner,
    t: FolTermId,
    var_pos: &BTreeMap<Sym, usize>,
    steps: &mut Vec<TStep>,
    seen: &mut HashMap<FolTermId, usize>,
) -> usize {
    if let Some(&i) = seen.get(&t) {
        return i;
    }
    let step = match it.term_node(t) {
        TermNode::Var(v) => TStep::Var(
            *var_pos
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v} during grounding")),
        ),
        TermNode::App(f, args) => TStep::App(
            *f,
            args.iter()
                .map(|&a| compile_term(it, a, var_pos, steps, seen))
                .collect(),
        ),
        TermNode::Ite(..) => panic!("ite must be eliminated before grounding"),
    };
    steps.push(step);
    seen.insert(t, steps.len() - 1);
    steps.len() - 1
}

fn compile_node(
    it: &Interner,
    f: FormulaId,
    var_pos: &BTreeMap<Sym, usize>,
    steps: &mut Vec<TStep>,
    seen: &mut HashMap<FolTermId, usize>,
) -> TNode {
    match it.node(f) {
        FormulaNode::True => TNode::True,
        FormulaNode::False => TNode::False,
        FormulaNode::Rel(r, args) => TNode::Rel(
            *r,
            args.iter()
                .map(|&a| compile_term(it, a, var_pos, steps, seen))
                .collect(),
        ),
        FormulaNode::Eq(a, b) => {
            let sa = compile_term(it, *a, var_pos, steps, seen);
            let sb = compile_term(it, *b, var_pos, steps, seen);
            TNode::Eq(sa, sb)
        }
        FormulaNode::Not(g) => TNode::Not(Box::new(compile_node(it, *g, var_pos, steps, seen))),
        FormulaNode::And(fs) => TNode::And(
            fs.iter()
                .map(|&g| compile_node(it, g, var_pos, steps, seen))
                .collect(),
        ),
        FormulaNode::Or(fs) => TNode::Or(
            fs.iter()
                .map(|&g| compile_node(it, g, var_pos, steps, seen))
                .collect(),
        ),
        FormulaNode::Implies(a, b) => {
            let na = compile_node(it, *a, var_pos, steps, seen);
            let nb = compile_node(it, *b, var_pos, steps, seen);
            TNode::Implies(Box::new(na), Box::new(nb))
        }
        FormulaNode::Iff(a, b) => {
            let na = compile_node(it, *a, var_pos, steps, seen);
            let nb = compile_node(it, *b, var_pos, steps, seen);
            TNode::Iff(Box::new(na), Box::new(nb))
        }
        FormulaNode::Forall(..) | FormulaNode::Exists(..) => {
            panic!("encode: quantifier in matrix (prenexing bug)")
        }
    }
}

/// Flat open-addressing hash index over ground atoms, the fast-path
/// counterpart of the canonical `rel_atoms`/`eq_vars` `BTreeMap`s.
///
/// Keys are a symbol's dense id plus an argument run stored in one flat
/// arena, probed by borrowed slice — the template-replay hot loop (millions
/// of `cache.atom_hits` per check) performs no allocation and no SipHash.
/// Equality atoms index here too, under the reserved [`EQ_SYM`] id. The
/// `BTreeMap`s remain the canonical stores: every deterministic iteration
/// (equality repair, congruence bucketing, model extraction) still walks
/// them in order.
#[derive(Clone, Debug, Default)]
struct AtomIndex {
    /// Power-of-two slot table holding entry index + 1 (0 = empty slot).
    slots: Vec<u32>,
    /// Per-entry key: (symbol id, arg start, arg len) into `args`.
    keys: Vec<(u32, u32, u32)>,
    /// Per-entry SAT variable.
    vars: Vec<Var>,
    /// Flat argument arena; each key owns one contiguous run.
    args: Vec<TermId>,
}

/// Reserved [`AtomIndex`] symbol id for equality atoms (`a = b` keyed as
/// `EQ_SYM(min, max)`); relation ids are dense and never reach it.
const EQ_SYM: u32 = u32::MAX;

impl AtomIndex {
    /// Multiply-xor key hash (splitmix-style finalizer per word).
    fn hash(sym: u32, args: &[TermId]) -> u64 {
        let mut h = (u64::from(sym) ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xff51_afd7_ed55_8ccd);
        for &a in args {
            h = (h ^ a as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
        }
        h
    }

    fn entry_matches(&self, e: u32, sym: u32, args: &[TermId]) -> bool {
        let (s, start, len) = self.keys[e as usize - 1];
        s == sym
            && len as usize == args.len()
            && self.args[start as usize..start as usize + len as usize] == *args
    }

    fn get(&self, sym: u32, args: &[TermId]) -> Option<Var> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(sym, args) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                e => {
                    if self.entry_matches(e, sym, args) {
                        return Some(self.vars[e as usize - 1]);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key the caller knows is absent.
    fn insert(&mut self, sym: u32, args: &[TermId], v: Var) {
        if (self.keys.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let start = u32::try_from(self.args.len()).expect("atom argument arena overflow");
        self.args.extend_from_slice(args);
        self.keys.push((sym, start, args.len() as u32));
        self.vars.push(v);
        let e = self.keys.len() as u32;
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(sym, args) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = e;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(1024);
        self.slots = vec![0; cap];
        let mask = cap - 1;
        for (idx, &(sym, start, len)) in self.keys.iter().enumerate() {
            let args = &self.args[start as usize..(start + len) as usize];
            let mut i = Self::hash(sym, args) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32 + 1;
        }
    }
}

/// Tseitin encoder over a ground-term universe, with lazy atom allocation
/// and relevant-pairs equality.
///
/// Atom and equality maps are ordered (`BTreeMap`), so every iteration over
/// them — equality repair, congruence bucketing, model extraction — is
/// deterministic across processes. Incremental sessions rely on this:
/// repeated runs must produce the same models and hence the same CTIs.
pub struct Encoder {
    solver: Solver,
    table: TermTable,
    true_lit: Lit,
    rel_atoms: BTreeMap<(Sym, Vec<TermId>), Var>,
    /// Flat hash index over `rel_atoms` and `eq_vars` for the template
    /// replay path (see [`AtomIndex`]).
    atom_index: AtomIndex,
    eq_vars: BTreeMap<(TermId, TermId), Var>,
    /// Pairs that received an equality variable from the matrix (pre-closure).
    seed_pairs: Vec<(TermId, TermId)>,
    finalized: bool,
    /// Clauses added by the lazy repair loop, for dedup.
    lazy_added: AxiomSet,
    /// Reused step-value buffer for template replay (one live replay at a
    /// time; reuse keeps the per-tuple loop allocation-free).
    scratch_vals: Vec<TermId>,
    /// Reused argument buffer for atom probes and term-table lookups.
    scratch_args: Vec<TermId>,
    /// Reused literal buffer for the clausal template fast path.
    scratch_clause: Vec<Lit>,
    /// Ground-atom (Tseitin) cache hits: `rel_var`/`eq_lit` calls answered
    /// from the atom maps instead of allocating a fresh SAT variable.
    atom_hits: u64,
    /// Ground-atom cache misses (fresh variable allocations).
    atom_misses: u64,
    /// Instantiation depth bound, when the encoder runs in bounded mode.
    /// `None` (full mode) keeps the closed-universe invariant: applications
    /// outside the universe are pipeline bugs and panic. `Some(d)` makes
    /// them expected — the whole ground instance is skipped and counted.
    bound: Option<usize>,
    /// Ground instances skipped because a term fell outside the bounded
    /// universe (bounded mode only). Nonzero means the bound was
    /// load-bearing for instantiation.
    skipped: u64,
}

/// Outcome of [`Encoder::solve_lazy_with`], distinguishing the ways the
/// lazy loop can stop without a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyResult {
    /// Satisfiable, equality-consistent model available.
    Sat,
    /// Unsatisfiable (sound regardless of pending equality axioms).
    Unsat,
    /// The repair loop hit its round limit or axiom flood cutoff.
    GaveUp,
    /// The caller's wall-clock deadline passed mid-solve.
    Deadline,
    /// The caller's total conflict budget was exhausted.
    Conflicts,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum LazyAxiom {
    Transitivity(TermId, TermId, TermId),
    FunCongruence(TermId, TermId),
    RelCongruence(Var, Var),
}

/// Multiply-rotate hasher for the `lazy_added` dedup set. Its keys are
/// small integer tuples private to the encoder and the set is never
/// iterated, so it needs neither SipHash's flood resistance nor a stable
/// order; membership answers are the same under any hasher.
#[derive(Default)]
struct AxiomHasher(u64);

impl std::hash::Hasher for AxiomHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type AxiomSet = HashSet<LazyAxiom, BuildHasherDefault<AxiomHasher>>;

impl Encoder {
    /// Creates an encoder over the given universe.
    pub fn new(table: TermTable) -> Encoder {
        let mut solver = Solver::new();
        let t = solver.new_var();
        solver.add_clause([t.pos()]);
        Encoder {
            solver,
            table,
            true_lit: t.pos(),
            rel_atoms: BTreeMap::new(),
            atom_index: AtomIndex::default(),
            eq_vars: BTreeMap::new(),
            seed_pairs: Vec::new(),
            finalized: false,
            lazy_added: AxiomSet::default(),
            scratch_vals: Vec::new(),
            scratch_args: Vec::new(),
            scratch_clause: Vec::new(),
            atom_hits: 0,
            atom_misses: 0,
            bound: None,
            skipped: 0,
        }
    }

    /// Puts the encoder in bounded-instantiation mode with the given term
    /// depth (or back in full mode with `None`). In bounded mode a template
    /// instance whose terms fall outside the (truncated) universe is skipped
    /// atomically — no partial clauses — and counted in
    /// [`Encoder::skipped_instances`]; universe extensions go through
    /// [`TermTable::extend_bounded`].
    pub fn set_bound(&mut self, bound: Option<usize>) {
        self.bound = bound;
    }

    /// The depth bound set by [`Encoder::set_bound`], if any.
    pub fn bound(&self) -> Option<usize> {
        self.bound
    }

    /// Ground instances skipped because the depth bound truncated the
    /// universe (cumulative; always 0 in full mode).
    pub fn skipped_instances(&self) -> u64 {
        self.skipped
    }

    /// `(hits, misses)` of the ground-atom/equality-variable caches,
    /// cumulative over the encoder's lifetime.
    pub fn atom_cache_stats(&self) -> (u64, u64) {
        (self.atom_hits, self.atom_misses)
    }

    /// The universe.
    pub fn table(&self) -> &TermTable {
        &self.table
    }

    /// Grows the universe in place to cover new constants in `sig` and the
    /// function closure over them (see [`TermTable::extend`]); returns the
    /// term count before the extension. Existing term ids, atoms, equality
    /// variables and clauses are unaffected — incremental sessions use the
    /// returned watermark to instantiate persistent universals over the
    /// delta only. In bounded mode the closure is cut at the depth bound
    /// (see [`TermTable::extend_bounded`]).
    pub fn extend_universe(&mut self, sig: &Signature) -> usize {
        match self.bound {
            Some(d) => self.table.extend_bounded(sig, d),
            None => self.table.extend(sig),
        }
    }

    /// A literal that is always true.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// Allocates a fresh free variable (used for assumption guards).
    pub fn fresh_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Adds a clause directly.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.solver.add_clause(lits);
    }

    /// The propositional variable of the ground atom `sym(args)`.
    pub fn rel_var(&mut self, sym: &Sym, args: &[TermId]) -> Var {
        if let Some(v) = self.atom_index.get(sym.id(), args) {
            self.atom_hits += 1;
            return v;
        }
        self.atom_misses += 1;
        let v = self.solver.new_var();
        self.rel_atoms.insert((*sym, args.to_vec()), v);
        self.atom_index.insert(sym.id(), args, v);
        v
    }

    /// The literal of the ground equality `a = b`.
    pub fn eq_lit(&mut self, a: TermId, b: TermId) -> Lit {
        if a == b {
            return self.true_lit;
        }
        debug_assert_eq!(
            self.table.sort(a),
            self.table.sort(b),
            "cross-sort equality is ill-sorted"
        );
        let key = (a.min(b), a.max(b));
        if let Some(v) = self.atom_index.get(EQ_SYM, &[key.0, key.1]) {
            self.atom_hits += 1;
            return v.pos();
        }
        self.atom_misses += 1;
        let v = self.solver.new_var();
        // Unconstrained equalities must default to *false*: phase saving
        // would otherwise let a stale `true` from an earlier model inflate
        // the union-find classes of the lazy repair scan, which then
        // axiomatizes enormous congruence buckets.
        self.solver.pin_phase(v, false);
        self.eq_vars.insert(key, v);
        self.atom_index.insert(EQ_SYM, &[key.0, key.1], v);
        if !self.finalized {
            self.seed_pairs.push(key);
        }
        v.pos()
    }

    /// Evaluates a ground (variable-free after `env`) term to its id.
    ///
    /// # Panics
    ///
    /// Panics on unbound variables, `ite` (eliminate first), or applications
    /// outside the closed universe — all internal invariants.
    pub fn term_id(&self, t: &Term, env: &[(Sym, TermId)]) -> TermId {
        match t {
            Term::Var(v) => {
                env.iter()
                    .find(|(name, _)| name == v)
                    .unwrap_or_else(|| panic!("unbound variable {v} during grounding"))
                    .1
            }
            Term::App(f, args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.term_id(a, env)).collect();
                self.table
                    .get(f, &args)
                    .unwrap_or_else(|| panic!("application of {f} outside closed universe"))
            }
            Term::Ite(..) => panic!("ite must be eliminated before grounding"),
        }
    }

    /// Tseitin-encodes a quantifier-free formula under a variable
    /// environment; returns a literal equivalent to the formula.
    ///
    /// # Panics
    ///
    /// Panics if the formula contains quantifiers (matrices are QF by
    /// construction).
    pub fn encode(&mut self, f: &Formula, env: &[(Sym, TermId)]) -> Lit {
        match f {
            Formula::True => self.true_lit,
            Formula::False => !self.true_lit,
            Formula::Rel(r, args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.term_id(a, env)).collect();
                self.rel_var(r, &args).pos()
            }
            Formula::Eq(a, b) => {
                let (a, b) = (self.term_id(a, env), self.term_id(b, env));
                self.eq_lit(a, b)
            }
            Formula::Not(g) => !self.encode(g, env),
            Formula::And(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.encode(g, env)).collect();
                self.define_and(&lits)
            }
            Formula::Or(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.encode(g, env)).collect();
                !self.define_and(&lits.iter().map(|&l| !l).collect::<Vec<_>>())
            }
            Formula::Implies(a, b) => {
                let (la, lb) = (self.encode(a, env), self.encode(b, env));
                !self.define_and(&[la, !lb])
            }
            Formula::Iff(a, b) => {
                let (la, lb) = (self.encode(a, env), self.encode(b, env));
                // g <-> (la <-> lb).
                let g = self.solver.new_var().pos();
                self.solver.add_clause([!g, !la, lb]);
                self.solver.add_clause([!g, la, !lb]);
                self.solver.add_clause([g, la, lb]);
                self.solver.add_clause([g, !la, !lb]);
                g
            }
            Formula::Forall(..) | Formula::Exists(..) => {
                panic!("encode: quantifier in matrix (prenexing bug)")
            }
        }
    }

    /// Replays a compiled [`Template`] under a ground environment (`env[i]`
    /// is the universe term instantiating the job's `i`-th binding);
    /// returns a literal equivalent to the instantiated matrix.
    ///
    /// Allocates exactly the variables [`Encoder::encode`] would on the
    /// resolved matrix, in the same order; gate clauses are the
    /// polarity-pruned Plaisted–Greenbaum subset (the template root is used
    /// positively, under a guard).
    ///
    /// Evaluates the template's ground-term step list under `env` into
    /// `vals` (cleared first); `args` is scratch space for each
    /// application's argument tuple. Returns `false` when an application falls
    /// outside the universe in bounded mode — the caller must then skip the
    /// instance (nothing has been emitted; step evaluation allocates no
    /// solver state).
    ///
    /// # Panics
    ///
    /// In full mode, panics on applications outside the closed universe (an
    /// internal invariant).
    fn eval_steps(
        &self,
        tpl: &Template,
        env: &[TermId],
        vals: &mut Vec<TermId>,
        args: &mut Vec<TermId>,
    ) -> bool {
        vals.clear();
        vals.reserve(tpl.steps.len());
        for step in &tpl.steps {
            let v = match step {
                TStep::Var(i) => env[*i],
                TStep::App(f, arg_steps) => {
                    args.clear();
                    args.extend(arg_steps.iter().map(|&j| vals[j]));
                    match self.table.get(f, args) {
                        Some(id) => id,
                        None if self.bound.is_some() => return false,
                        None => panic!("application of {f} outside closed universe"),
                    }
                }
            };
            vals.push(v);
        }
        true
    }

    /// Asserts `guard → matrix[env]` for one ground tuple.
    ///
    /// Matrices whose bounded CNF flattening succeeded at compile time —
    /// nearly all invariants, axioms, and frame conditions — are emitted
    /// clause-by-clause as `¬guard ∨ lits` with no Tseitin gates at all,
    /// which keeps the SAT variable count proportional to the number of
    /// distinct ground *atoms* rather than ground *instantiations*.
    /// Everything else gets a Plaisted–Greenbaum gate tree plus a
    /// two-literal root clause.
    ///
    /// In bounded mode, an instance whose terms fall outside the truncated
    /// universe is skipped *atomically* — all steps are evaluated before any
    /// clause or variable is emitted — and counted in
    /// [`Encoder::skipped_instances`].
    pub(crate) fn assert_template(&mut self, tpl: &Template, env: &[TermId], guard: Lit) {
        let mut vals = std::mem::take(&mut self.scratch_vals);
        let mut args = std::mem::take(&mut self.scratch_args);
        let complete = self.eval_steps(tpl, env, &mut vals, &mut args);
        self.scratch_args = args;
        if !complete {
            self.scratch_vals = vals;
            self.skipped += 1;
            return;
        }
        let Some(cnf) = tpl.cnf.as_ref() else {
            let root = self.encode_tnode(&tpl.root, &vals, Polarity::Pos);
            self.scratch_vals = vals;
            self.add_clause([!guard, root]);
            return;
        };
        let mut lits = std::mem::take(&mut self.scratch_clause);
        for clause in cnf {
            lits.clear();
            lits.push(!guard);
            for cl in clause {
                let l = match cl {
                    CLit::Rel { neg, sym, args } => {
                        let mut buf = std::mem::take(&mut self.scratch_args);
                        buf.clear();
                        buf.extend(args.iter().map(|&a| vals[a]));
                        let v = self.rel_var(sym, &buf);
                        self.scratch_args = buf;
                        if *neg {
                            v.neg()
                        } else {
                            v.pos()
                        }
                    }
                    CLit::Eq { neg, a, b } => {
                        let l = self.eq_lit(vals[*a], vals[*b]);
                        if *neg {
                            !l
                        } else {
                            l
                        }
                    }
                };
                lits.push(l);
            }
            self.solver.add_clause(lits.iter().copied());
        }
        self.scratch_clause = lits;
        self.scratch_vals = vals;
    }

    fn encode_tnode(&mut self, n: &TNode, vals: &[TermId], pol: Polarity) -> Lit {
        match n {
            TNode::True => self.true_lit,
            TNode::False => !self.true_lit,
            TNode::Rel(r, args) => {
                let mut buf = std::mem::take(&mut self.scratch_args);
                buf.clear();
                buf.extend(args.iter().map(|&a| vals[a]));
                let v = self.rel_var(r, &buf);
                self.scratch_args = buf;
                v.pos()
            }
            TNode::Eq(a, b) => self.eq_lit(vals[*a], vals[*b]),
            TNode::Not(g) => !self.encode_tnode(g, vals, pol.flip()),
            TNode::And(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.encode_tnode(g, vals, pol)).collect();
                self.define_and_polar(&lits, pol)
            }
            TNode::Or(fs) => {
                // ¬∧¬: the children keep the Or's polarity (two negations
                // cancel), while the conjunction gate is used flipped.
                let negs: Vec<Lit> = fs
                    .iter()
                    .map(|g| !self.encode_tnode(g, vals, pol))
                    .collect();
                !self.define_and_polar(&negs, pol.flip())
            }
            TNode::Implies(a, b) => {
                let la = self.encode_tnode(a, vals, pol.flip());
                let lb = self.encode_tnode(b, vals, pol);
                !self.define_and_polar(&[la, !lb], pol.flip())
            }
            TNode::Iff(a, b) => {
                // Both directions of each child are referenced, so children
                // are encoded under Both; the gate itself still only needs
                // the implication direction(s) its own polarity demands.
                let la = self.encode_tnode(a, vals, Polarity::Both);
                let lb = self.encode_tnode(b, vals, Polarity::Both);
                let g = self.solver.new_var().pos();
                if pol != Polarity::Neg {
                    self.solver.add_clause([!g, !la, lb]);
                    self.solver.add_clause([!g, la, !lb]);
                }
                if pol != Polarity::Pos {
                    self.solver.add_clause([g, la, lb]);
                    self.solver.add_clause([g, !la, !lb]);
                }
                g
            }
        }
    }

    /// Like [`Encoder::define_and`], but emits only the Plaisted–Greenbaum
    /// subset of the gate clauses for the gate's static polarity: `g → lits`
    /// (the short clauses) when the gate is used positively, `lits → g` (the
    /// long clause) when used negatively, both under `Both`. The gate
    /// variable is allocated unconditionally, at the same point the full
    /// Tseitin encoder would allocate it, so variable numbering is identical
    /// across both encoders.
    fn define_and_polar(&mut self, lits: &[Lit], pol: Polarity) -> Lit {
        match lits {
            [] => self.true_lit,
            [l] => *l,
            _ => {
                let g = self.solver.new_var().pos();
                if pol != Polarity::Neg {
                    for &l in lits {
                        self.solver.add_clause([!g, l]);
                    }
                }
                if pol != Polarity::Pos {
                    let mut long: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                    long.push(g);
                    self.solver.add_clause(long);
                }
                g
            }
        }
    }

    fn define_and(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => self.true_lit,
            [l] => *l,
            _ => {
                let g = self.solver.new_var().pos();
                for &l in lits {
                    self.solver.add_clause([!g, l]);
                }
                let mut long: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                long.push(g);
                self.solver.add_clause(long);
                g
            }
        }
    }

    /// Closes the equality machinery: computes "possibly equal" components
    /// from the seeded pairs, saturates them under function congruence,
    /// allocates equality variables for all intra-component pairs, and adds
    /// transitivity plus function/relation congruence axioms.
    ///
    /// This is the eager discipline. Sessions solve with the lazy one
    /// ([`Encoder::solve_lazy_with`]); the eager axioms remain the
    /// reference the crate's tests check lazy verdicts against.
    ///
    /// Must be called exactly once, after all assertions are encoded and
    /// before solving. Returns the number of axiom clauses added (for
    /// diagnostics).
    pub fn finalize_equality(&mut self) -> usize {
        assert!(!self.finalized, "finalize_equality called twice");
        self.finalized = true;
        let n = self.table.len();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &self.seed_pairs {
            uf.union(a, b);
        }
        // Saturate under function congruence: if f(ā) and f(b̄) have argwise
        // possibly-equal arguments, their results are possibly equal.
        let mut terms_by_sym: BTreeMap<Sym, Vec<TermId>> = BTreeMap::new();
        for id in 0..n {
            let t = self.table.term(id);
            if !t.args.is_empty() {
                terms_by_sym.entry(t.sym).or_default().push(id);
            }
        }
        loop {
            let mut changed = false;
            for ids in terms_by_sym.values() {
                for (i, &t1) in ids.iter().enumerate() {
                    for &t2 in &ids[i + 1..] {
                        if uf.find(t1) == uf.find(t2) {
                            continue;
                        }
                        let a1 = self.table.term(t1).args.clone();
                        let a2 = self.table.term(t2).args.clone();
                        let related = a1
                            .iter()
                            .zip(&a2)
                            .all(|(&x, &y)| x == y || uf.find(x) == uf.find(y));
                        if related {
                            uf.union(t1, t2);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Group terms into components.
        let mut components: BTreeMap<usize, Vec<TermId>> = BTreeMap::new();
        for id in 0..n {
            components.entry(uf.find(id)).or_default().push(id);
        }
        components.retain(|_, v| v.len() > 1);
        let mut clauses = 0usize;
        // Allocate all intra-component equality vars.
        for comp in components.values() {
            for (i, &a) in comp.iter().enumerate() {
                for &b in &comp[i + 1..] {
                    let _ = self.eq_lit(a, b);
                }
            }
        }
        // Transitivity.
        for comp in components.values() {
            for i in 0..comp.len() {
                for j in (i + 1)..comp.len() {
                    for k in (j + 1)..comp.len() {
                        let (a, b, c) = (comp[i], comp[j], comp[k]);
                        let (ab, bc, ac) =
                            (self.eq_lit(a, b), self.eq_lit(b, c), self.eq_lit(a, c));
                        self.solver.add_clause([!ab, !bc, ac]);
                        self.solver.add_clause([!ab, !ac, bc]);
                        self.solver.add_clause([!ac, !bc, ab]);
                        clauses += 3;
                    }
                }
            }
        }
        // Function congruence between terms in the same component.
        for ids in terms_by_sym.values() {
            for (i, &t1) in ids.iter().enumerate() {
                for &t2 in &ids[i + 1..] {
                    if uf.find(t1) != uf.find(t2) {
                        continue;
                    }
                    let a1 = self.table.term(t1).args.clone();
                    let a2 = self.table.term(t2).args.clone();
                    if a1
                        .iter()
                        .zip(&a2)
                        .any(|(&x, &y)| x != y && uf.find(x) != uf.find(y))
                    {
                        continue; // some argument pair can never be equal
                    }
                    let mut clause: Vec<Lit> = Vec::new();
                    for (&x, &y) in a1.iter().zip(&a2) {
                        if x != y {
                            let e = self.eq_lit(x, y);
                            clause.push(!e);
                        }
                    }
                    clause.push(self.eq_lit(t1, t2));
                    self.solver.add_clause(clause);
                    clauses += 1;
                }
            }
        }
        // Relation congruence between existing atoms whose argument tuples
        // are componentwise related. Bucket atoms by (symbol, component
        // signature) so unrelated atoms never pair up.
        let mut buckets: AtomBuckets = BTreeMap::new();
        for ((sym, args), var) in self.rel_atoms.clone() {
            let sig: Vec<usize> = args.iter().map(|&a| uf.find(a)).collect();
            buckets.entry((sym, sig)).or_default().push((args, var));
        }
        for atoms in buckets.values() {
            for (i, (args1, v1)) in atoms.iter().enumerate() {
                for (args2, v2) in &atoms[i + 1..] {
                    let mut guard: Vec<Lit> = Vec::new();
                    for (&x, &y) in args1.iter().zip(args2) {
                        if x != y {
                            let e = self.eq_lit(x, y);
                            guard.push(!e);
                        }
                    }
                    let mut c1 = guard.clone();
                    c1.push(v1.neg());
                    c1.push(v2.pos());
                    self.solver.add_clause(c1);
                    let mut c2 = guard;
                    c2.push(v2.neg());
                    c2.push(v1.pos());
                    self.solver.add_clause(c2);
                    clauses += 2;
                }
            }
        }
        clauses
    }

    /// Solves with the *lazy* equality discipline: no equality axioms are
    /// generated up front; after each SAT answer, the model is checked for
    /// transitivity/congruence violations and only the violated axioms are
    /// added, until the model is equality-consistent or the query becomes
    /// unsatisfiable. Returns the result, the number of repair rounds, and
    /// the number of equality axiom clauses added.
    ///
    /// UNSAT answers are sound (fewer axioms only weakens the clause set);
    /// SAT answers are certified consistent before being returned.
    /// `max_rounds = None` runs to completion; `Some(n)` gives up after `n`
    /// repair rounds — used by best-effort callers such as CTI
    /// minimization. The loop is also bounded by a total conflict budget
    /// (`max_conflicts`, across all repair rounds) and by any wall-clock
    /// deadline set on the underlying solver via [`Solver::set_deadline`].
    /// The returned [`LazyResult`] distinguishes repair-loop exhaustion
    /// ([`LazyResult::GaveUp`]) from the caller's budget tripping
    /// ([`LazyResult::Deadline`] / [`LazyResult::Conflicts`]), so the EPR
    /// layer can degrade to `Unknown` with the right reason.
    pub fn solve_lazy_with(
        &mut self,
        assumptions: &[Lit],
        max_rounds: Option<usize>,
        max_conflicts: Option<u64>,
    ) -> (LazyResult, usize, usize) {
        // A bounded repair loop also bounds each SAT call; an unbounded one
        // runs each call to completion.
        let conflict_budget = if max_rounds.is_some() {
            200_000
        } else {
            u64::MAX
        };
        self.finalized = true;
        // Even the unbounded discipline caps each round: adding a bounded
        // batch of violated axioms and re-solving usually collapses the
        // spurious equality classes, making the remaining millions of
        // would-be axioms moot. Unlike the bounded mode, the unbounded loop
        // never gives up — it just takes more (cheap) rounds.
        let per_round_cap = if max_rounds.is_some() {
            Some(4_000)
        } else {
            Some(50_000)
        };
        // Start from canonical phases: a saved model from an earlier query
        // in this session would otherwise bias this query's first model
        // toward stale truths, inflating the repair scan's equality classes.
        self.solver.reset_phases();
        let start_conflicts = self.solver.stats().conflicts;
        let cap = max_conflicts.unwrap_or(u64::MAX);
        let mut rounds = 0;
        let mut total_added = 0usize;
        loop {
            let spent = self.solver.stats().conflicts - start_conflicts;
            let remaining = cap.saturating_sub(spent);
            if remaining == 0 {
                return (LazyResult::Conflicts, rounds, total_added);
            }
            let round_budget = conflict_budget.min(remaining);
            match self.solver.solve_budgeted(assumptions, round_budget) {
                None => {
                    // Tell the caller's budget apart from the internal
                    // per-round cap: only a deadline or the caller's total
                    // conflict budget degrade to Unknown; the internal cap
                    // is the historical best-effort give-up.
                    let reason = match self.solver.last_interrupt() {
                        Some(Interrupt::Deadline) => LazyResult::Deadline,
                        Some(Interrupt::Conflicts)
                            if self.solver.stats().conflicts - start_conflicts >= cap =>
                        {
                            LazyResult::Conflicts
                        }
                        _ => LazyResult::GaveUp,
                    };
                    return (reason, rounds, total_added);
                }
                Some(ivy_sat::SolveResult::Unsat) => {
                    return (LazyResult::Unsat, rounds, total_added)
                }
                Some(ivy_sat::SolveResult::Sat) => {
                    let added = self.repair_equality(per_round_cap);
                    if added == 0 {
                        return (LazyResult::Sat, rounds, total_added);
                    }
                    total_added += added;
                    rounds += 1;
                    if max_rounds.is_some_and(|m| rounds >= m)
                        || (max_rounds.is_some() && total_added > 200_000)
                    {
                        return (LazyResult::GaveUp, rounds, total_added);
                    }
                }
            }
        }
    }

    /// Adds the equality axioms violated by the current model; returns how
    /// many clauses were added (0 = model is equality-consistent). With a
    /// cap, stops adding once the round's budget is spent (the loop then
    /// continues with a partial repair).
    fn repair_equality(&mut self, cap: Option<usize>) -> usize {
        let over = |added: usize| cap.is_some_and(|c| added >= c);
        let n = self.table.len();
        let mut uf = UnionFind::new(n);
        for (&(a, b), &v) in &self.eq_vars {
            if self.solver.model_value(v) == Some(true) {
                uf.union(a, b);
            }
        }
        let mut added = 0usize;

        // Transitivity: an equality variable that is false although its
        // endpoints are connected through true equalities. Repair by fully
        // axiomatizing the (small) true-equality class.
        let mut violated_classes: Vec<usize> = Vec::new();
        for (&(a, b), &v) in &self.eq_vars {
            if self.solver.model_value(v) == Some(false) && uf.find(a) == uf.find(b) {
                let root = uf.find(a);
                if !violated_classes.contains(&root) {
                    violated_classes.push(root);
                }
            }
        }
        if !violated_classes.is_empty() {
            let mut members: BTreeMap<usize, Vec<TermId>> = BTreeMap::new();
            for t in 0..n {
                let r = uf.find(t);
                if violated_classes.contains(&r) {
                    members.entry(r).or_default().push(t);
                }
            }
            'transitivity: for class in members.values() {
                for i in 0..class.len() {
                    for j in (i + 1)..class.len() {
                        for k in (j + 1)..class.len() {
                            if over(added) {
                                break 'transitivity;
                            }
                            let key = LazyAxiom::Transitivity(class[i], class[j], class[k]);
                            if !self.lazy_added.insert(key) {
                                continue;
                            }
                            let (a, b, c) = (class[i], class[j], class[k]);
                            let (ab, bc, ac) =
                                (self.eq_lit(a, b), self.eq_lit(b, c), self.eq_lit(a, c));
                            self.solver.add_clause([!ab, !bc, ac]);
                            self.solver.add_clause([!ab, !ac, bc]);
                            self.solver.add_clause([!ac, !bc, ab]);
                            added += 3;
                        }
                    }
                }
            }
        }

        // Function congruence: same function, argwise model-equal arguments,
        // results not model-equal.
        let mut terms_by_sym: BTreeMap<&Sym, Vec<TermId>> = BTreeMap::new();
        for id in 0..n {
            let t = self.table.term(id);
            if !t.args.is_empty() {
                terms_by_sym.entry(&t.sym).or_default().push(id);
            }
        }
        let mut fun_pairs: Vec<(TermId, TermId)> = Vec::new();
        for ids in terms_by_sym.values() {
            for (i, &t1) in ids.iter().enumerate() {
                for &t2 in &ids[i + 1..] {
                    if uf.find(t1) == uf.find(t2) {
                        continue;
                    }
                    let a1 = &self.table.term(t1).args;
                    let a2 = &self.table.term(t2).args;
                    if a1
                        .iter()
                        .zip(a2)
                        .all(|(&x, &y)| x == y || uf.find(x) == uf.find(y))
                        && !self.lazy_added.contains(&LazyAxiom::FunCongruence(t1, t2))
                    {
                        fun_pairs.push((t1, t2));
                    }
                }
            }
        }
        for (t1, t2) in fun_pairs {
            if over(added) {
                break;
            }
            // Mark only when the clause is really added, so pairs cut off by
            // the cap are retried in a later round.
            self.lazy_added.insert(LazyAxiom::FunCongruence(t1, t2));
            let a1 = self.table.term(t1).args.clone();
            let a2 = self.table.term(t2).args.clone();
            let mut clause: Vec<Lit> = Vec::new();
            for (x, y) in a1.into_iter().zip(a2) {
                if x != y {
                    let e = self.eq_lit(x, y);
                    clause.push(!e);
                }
            }
            clause.push(self.eq_lit(t1, t2));
            self.solver.add_clause(clause);
            added += 1;
        }

        self.repair_relation_congruence(&mut uf, added, cap)
    }

    /// Relation congruence: same symbol, argwise model-equal tuples,
    /// differing truth values. Adds the violated axioms on top of the
    /// `added` clauses of the round so far and returns the new total.
    ///
    /// The clause stream is exactly that of the pairwise scan over
    /// `(symbol, class signature)` buckets in `BTreeMap` order, each bucket
    /// in `rel_atoms` order (kept as a test reference), but the work is
    /// proportional to the atoms that share a class and to the pairs that
    /// differ in value:
    ///
    /// * `rel_atoms` is contiguous per symbol (`Sym` orders by name), so
    ///   each symbol's atoms are bucketed on their own, by sorting their
    ///   indices by class signature with the index as tie-break.
    /// * An atom whose arguments all sit in singleton classes is alone in
    ///   its bucket and is skipped.
    /// * Only value-differing pairs are enumerated. The per-round cap is
    ///   checked before each of them, which stops at the same pair as
    ///   checking before every pair.
    /// * Pairs are planned first and emitted afterwards from one reused
    ///   buffer, calling `eq_lit` in the same order as the pairwise scan.
    fn repair_relation_congruence(
        &mut self,
        uf: &mut UnionFind,
        mut added: usize,
        cap: Option<usize>,
    ) -> usize {
        let over = |added: usize| cap.is_some_and(|c| added >= c);
        let n = self.table.len();
        let roots: Vec<usize> = (0..n).map(|t| uf.find(t)).collect();
        let mut class_size = vec![0u32; n];
        for &r in &roots {
            class_size[r] += 1;
        }
        let shared = |t: TermId| class_size[roots[t]] > 1;
        let value = |v: Var| match self.solver.model_value(v) {
            Some(false) => 0usize,
            Some(true) => 1,
            None => 2,
        };

        // Plan: `(v1, v2, end)` per pair, whose guard is the argument pairs
        // `guard_pairs[previous end..end]`.
        let mut plan: Vec<(Var, Var, usize)> = Vec::new();
        let mut guard_pairs: Vec<(TermId, TermId)> = Vec::new();
        // One symbol's atoms with a shared argument.
        let mut run: Vec<(&[TermId], Var)> = Vec::new();
        // Indices into `run`, sorted into buckets; they fit `u32` because
        // every atom owns a distinct SAT variable.
        let mut order: Vec<u32> = Vec::new();
        let mut by_value: [Vec<u32>; 3] = Default::default();
        let mut atoms = self.rel_atoms.iter().peekable();
        'scan: while let Some(&(&(sym, _), _)) = atoms.peek() {
            run.clear();
            while let Some(((_, args), &v)) = atoms.next_if(|((s, _), _)| *s == sym) {
                if args.iter().any(|&a| shared(a)) {
                    run.push((args, v));
                }
            }
            // The class signature, compared in place: a signature buffer
            // raised the peak RSS of perfbench's Chord session by 3.4 MB.
            let sig = |i: u32| run[i as usize].0.iter().map(|&a| roots[a]);
            order.clear();
            order.extend(0..run.len() as u32);
            order.sort_unstable_by(|&x, &y| sig(x).cmp(sig(y)).then(x.cmp(&y)));
            let mut start = 0;
            while start < order.len() {
                let mut end = start + 1;
                while end < order.len() && sig(order[start]).eq(sig(order[end])) {
                    end += 1;
                }
                let bucket = &order[start..end];
                start = end;
                for list in &mut by_value {
                    list.clear();
                }
                for (p, &i) in bucket.iter().enumerate() {
                    by_value[value(run[i as usize].1)].push(p as u32);
                }
                if by_value.iter().filter(|l| !l.is_empty()).count() < 2 {
                    continue;
                }
                for (p, &i) in bucket.iter().enumerate() {
                    let (args1, v1) = run[i as usize];
                    // The partners of `p`: later positions holding one of
                    // the other two values, merged in position order.
                    let (o1, o2) = match value(v1) {
                        0 => (&by_value[1], &by_value[2]),
                        1 => (&by_value[0], &by_value[2]),
                        _ => (&by_value[0], &by_value[1]),
                    };
                    let mut i1 = o1.partition_point(|&q| q as usize <= p);
                    let mut i2 = o2.partition_point(|&q| q as usize <= p);
                    loop {
                        let q = match (o1.get(i1), o2.get(i2)) {
                            (Some(&a), Some(&b)) if a < b => {
                                i1 += 1;
                                a
                            }
                            (_, Some(&b)) => {
                                i2 += 1;
                                b
                            }
                            (Some(&a), None) => {
                                i1 += 1;
                                a
                            }
                            (None, None) => break,
                        };
                        if over(added) {
                            break 'scan;
                        }
                        let (args2, v2) = run[bucket[q as usize] as usize];
                        let key = LazyAxiom::RelCongruence(v1.min(v2), v1.max(v2));
                        if !self.lazy_added.insert(key) {
                            continue;
                        }
                        guard_pairs.extend(
                            args1
                                .iter()
                                .copied()
                                .zip(args2.iter().copied())
                                .filter(|(x, y)| x != y),
                        );
                        plan.push((v1, v2, guard_pairs.len()));
                        added += 2;
                    }
                }
            }
        }

        let mut clause = std::mem::take(&mut self.scratch_clause);
        let mut from = 0;
        for (v1, v2, to) in plan {
            clause.clear();
            for &(x, y) in &guard_pairs[from..to] {
                let e = self.eq_lit(x, y);
                clause.push(!e);
            }
            from = to;
            let guard = clause.len();
            clause.extend([v1.neg(), v2.pos()]);
            self.solver.add_clause(clause.iter().copied());
            clause.truncate(guard);
            clause.extend([v2.neg(), v1.pos()]);
            self.solver.add_clause(clause.iter().copied());
        }
        self.scratch_clause = clause;
        added
    }

    /// The pairwise relation-congruence scan that
    /// [`Encoder::repair_relation_congruence`] must reproduce clause for
    /// clause: it re-buckets every atom and visits every pair in a bucket.
    #[cfg(test)]
    fn repair_relation_congruence_reference(
        &mut self,
        uf: &mut UnionFind,
        mut added: usize,
        cap: Option<usize>,
    ) -> usize {
        let over = |added: usize| cap.is_some_and(|c| added >= c);
        let mut buckets: AtomBuckets = BTreeMap::new();
        for ((sym, args), var) in self.rel_atoms.clone() {
            let sig: Vec<usize> = args.iter().map(|&a| uf.find(a)).collect();
            buckets.entry((sym, sig)).or_default().push((args, var));
        }
        'relcong: for atoms in buckets.values() {
            for (i, (args1, v1)) in atoms.iter().enumerate() {
                for (args2, v2) in &atoms[i + 1..] {
                    if over(added) {
                        break 'relcong;
                    }
                    if self.solver.model_value(*v1) == self.solver.model_value(*v2) {
                        continue;
                    }
                    let key = LazyAxiom::RelCongruence(*v1.min(v2), *v1.max(v2));
                    if !self.lazy_added.insert(key) {
                        continue;
                    }
                    let mut guard: Vec<Lit> = Vec::new();
                    for (&x, &y) in args1.iter().zip(args2) {
                        if x != y {
                            let e = self.eq_lit(x, y);
                            guard.push(!e);
                        }
                    }
                    let mut c1 = guard.clone();
                    c1.push(v1.neg());
                    c1.push(v2.pos());
                    self.solver.add_clause(c1);
                    let mut c2 = guard;
                    c2.push(v2.neg());
                    c2.push(v1.pos());
                    self.solver.add_clause(c2);
                    added += 2;
                }
            }
        }
        added
    }

    /// Mutable access to the underlying SAT solver (for solving).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Shared access to the underlying SAT solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// After a SAT answer: the set of (atom, value) pairs and the true
    /// equalities, for model extraction.
    pub(crate) fn model_parts(&self) -> ModelParts<'_> {
        ModelParts { enc: self }
    }
}

pub(crate) struct ModelParts<'a> {
    enc: &'a Encoder,
}

impl ModelParts<'_> {
    /// True-equality union-find over the universe per the SAT model.
    pub(crate) fn equality_classes(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.enc.table.len());
        for (&(a, b), &v) in &self.enc.eq_vars {
            if self.enc.solver.model_value(v) == Some(true) {
                uf.union(a, b);
            }
        }
        uf
    }

    /// Iterates over ground relation atoms with their model values.
    pub(crate) fn atoms(&self) -> impl Iterator<Item = (&Sym, &[TermId], bool)> + '_ {
        self.enc.rel_atoms.iter().map(|((sym, args), &v)| {
            (
                sym,
                args.as_slice(),
                self.enc.solver.model_value(v) == Some(true),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::{Signature, Sort};
    use ivy_sat::SolveResult;

    fn simple_table() -> (Signature, TermTable) {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        sig.add_constant("c", "s").unwrap();
        let table = TermTable::build(&sig);
        (sig, table)
    }

    #[test]
    fn encode_simple_conflict() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        let f1 = ivy_fol::parse_formula("r(a)").unwrap();
        let f2 = ivy_fol::parse_formula("~r(a)").unwrap();
        let l1 = enc.encode(&f1, &[]);
        let l2 = enc.encode(&f2, &[]);
        enc.add_clause([l1]);
        enc.add_clause([l2]);
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn equality_transitivity_enforced() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // a=b & b=c & r(a) & ~r(c) is unsat (needs transitivity + congruence).
        let f = ivy_fol::parse_formula("a = b & b = c & r(a) & ~r(c)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn equality_sat_when_consistent() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        let f = ivy_fol::parse_formula("a = b & r(a) & r(b) & ~r(c)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
        let classes = enc.model_parts().equality_classes();
        let mut uf = classes;
        let a = enc.table().get(&Sym::new("a"), &[]).unwrap();
        let b = enc.table().get(&Sym::new("b"), &[]).unwrap();
        assert_eq!(uf.find(a), uf.find(b));
    }

    #[test]
    fn function_congruence_enforced() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_sort("t").unwrap();
        sig.add_function("f", ["s"], "t").unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_constant("b", "s").unwrap();
        let table = TermTable::build(&sig);
        let mut enc = Encoder::new(table);
        // a=b & f(a) ~= f(b) is unsat by congruence.
        let f = ivy_fol::parse_formula("a = b & f(a) ~= f(b)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn lazy_solve_counts_repair_rounds_and_clauses() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // The first model sets r(a) and ~r(c) with a = b = c: the repair
        // loop must add transitivity/congruence clauses to refute it.
        let f = ivy_fol::parse_formula("a = b & b = c & r(a) & ~r(c)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        let (result, rounds, clauses) = enc.solve_lazy_with(&[], None, None);
        assert_eq!(result, LazyResult::Unsat);
        assert!(
            rounds >= 1 && clauses > 0,
            "{rounds} rounds, {clauses} clauses"
        );

        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        let f = ivy_fol::parse_formula("r(a) & ~r(b)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        assert_eq!(
            enc.solve_lazy_with(&[], None, None),
            (LazyResult::Sat, 0, 0)
        );
    }

    #[test]
    fn unrelated_terms_stay_apart() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // No equality atoms at all: r(a) & ~r(b) is satisfiable.
        let f = ivy_fol::parse_formula("r(a) & ~r(b)").unwrap();
        let l = enc.encode(&f, &[]);
        enc.add_clause([l]);
        let axioms = enc.finalize_equality();
        assert_eq!(axioms, 0, "no equality atoms, no axioms");
        assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
    }

    /// Deterministic splitmix64 generator.
    struct Gen(u64);

    impl Gen {
        fn new(seed: u64) -> Gen {
            Gen(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
        }

        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A random relation-congruence scenario over sorts `s` and `t`:
    /// relations of arity 0–3, random atoms with random forced values,
    /// random forced equalities, short random clauses, and some pairs
    /// already in `lazy_added`. With `collapse`, every `s` term is forced
    /// equal to the first, so sort `s` is a single class.
    fn random_encoder(seed: u64, collapse: bool) -> Encoder {
        let mut g = Gen::new(seed);
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_sort("t").unwrap();
        for i in 0..3 + g.below(4) {
            sig.add_constant(format!("s{i}").as_str(), "s").unwrap();
        }
        for i in 0..2 + g.below(3) {
            sig.add_constant(format!("t{i}").as_str(), "t").unwrap();
        }
        let rels = [
            sig.add_relation("p", [] as [&str; 0]).unwrap(),
            sig.add_relation("q", ["s"]).unwrap(),
            sig.add_relation("r", ["s", "t"]).unwrap(),
            sig.add_relation("u", ["s", "s", "t"]).unwrap(),
        ];
        let table = TermTable::build(&sig);
        let s_terms = table.of_sort(&Sort::from("s")).to_vec();
        let t_terms = table.of_sort(&Sort::from("t")).to_vec();
        let mut enc = Encoder::new(table);
        let pick = |g: &mut Gen, pool: &[TermId]| pool[g.below(pool.len())];

        // Distinct atoms per relation, each with its forced value, if any.
        let mut atoms: Vec<Vec<(Var, Option<bool>)>> = vec![Vec::new(); rels.len()];
        for _ in 0..32 {
            let k = g.below(rels.len());
            let args: Vec<TermId> = match k {
                0 => vec![],
                1 => vec![pick(&mut g, &s_terms)],
                2 => vec![pick(&mut g, &s_terms), pick(&mut g, &t_terms)],
                _ => vec![
                    pick(&mut g, &s_terms),
                    pick(&mut g, &s_terms),
                    pick(&mut g, &t_terms),
                ],
            };
            let v = enc.rel_var(&rels[k], &args);
            if atoms[k].iter().any(|&(w, _)| w == v) {
                continue;
            }
            let forced = match g.below(3) {
                0 => None,
                r => Some(r == 1),
            };
            if let Some(value) = forced {
                enc.add_clause([v.lit(value)]);
            }
            atoms[k].push((v, forced));
        }
        let all: Vec<Var> = atoms.iter().flatten().map(|&(v, _)| v).collect();
        let mut eqs: Vec<Lit> = Vec::new();
        for pool in [&s_terms, &t_terms] {
            for _ in 0..pool.len() {
                let (x, y) = (pick(&mut g, pool), pick(&mut g, pool));
                if x != y {
                    let e = enc.eq_lit(x, y);
                    eqs.push(e);
                    if g.below(2) == 0 {
                        enc.add_clause([e]);
                    }
                }
            }
        }
        if collapse {
            for &x in &s_terms[1..] {
                let e = enc.eq_lit(s_terms[0], x);
                enc.add_clause([e]);
            }
        }
        for _ in 0..6 {
            if let (Some(&e), Some(&v)) = (
                eqs.get(g.below(eqs.len().max(1))),
                all.get(g.below(all.len())),
            ) {
                let l = if g.below(2) == 0 { v.pos() } else { v.neg() };
                enc.add_clause([!e, l]);
            }
        }
        // Mark some opposite-valued pairs as already repaired.
        for list in &atoms {
            for (i, &(a, va)) in list.iter().enumerate() {
                for &(b, vb) in &list[i + 1..] {
                    if va.is_some() && vb.is_some() && va != vb && g.below(3) == 0 {
                        enc.lazy_added
                            .insert(LazyAxiom::RelCongruence(a.min(b), a.max(b)));
                    }
                }
            }
        }
        enc
    }

    /// The bucketed relation-congruence pass emits exactly the clauses of
    /// the pairwise reference scan, round after round: same return value,
    /// variable and clause counts, and hence the same next model.
    #[test]
    fn relation_congruence_matches_pairwise_reference() {
        let model = |e: &Encoder| -> Vec<Option<bool>> {
            (0..e.solver().num_vars())
                .map(|v| e.solver().model_value(Var(v as u32)))
                .collect()
        };
        let (mut cut, mut emitted) = (0, 0);
        for seed in 0..300u64 {
            let mut g = Gen::new(seed ^ 0x5eed);
            let collapse = seed % 3 == 0;
            let mut fast = random_encoder(seed, collapse);
            let mut reference = random_encoder(seed, collapse);
            for round in 0..12 {
                let verdict = fast.solver_mut().solve();
                assert_eq!(
                    verdict,
                    reference.solver_mut().solve(),
                    "seed {seed} round {round}"
                );
                assert_eq!(model(&fast), model(&reference), "seed {seed} round {round}");
                if verdict == SolveResult::Unsat {
                    break;
                }
                if g.below(4) == 0 {
                    // An atom born after the model has no model value.
                    let table = fast.table();
                    let s_terms = table.of_sort(&Sort::from("s"));
                    let t_terms = table.of_sort(&Sort::from("t"));
                    let args = [
                        s_terms[g.below(s_terms.len())],
                        s_terms[g.below(s_terms.len())],
                        t_terms[g.below(t_terms.len())],
                    ];
                    let u = Sym::new("u");
                    fast.rel_var(&u, &args);
                    reference.rel_var(&u, &args);
                }
                let cap = match g.below(3) {
                    0 => None,
                    1 => Some(2 + g.below(6)),
                    _ => Some(20 + g.below(40)),
                };
                let start = g.below(3);
                let mut uf = fast.model_parts().equality_classes();
                let got = fast.repair_relation_congruence(&mut uf, start, cap);
                let mut uf = reference.model_parts().equality_classes();
                let want = reference.repair_relation_congruence_reference(&mut uf, start, cap);
                assert_eq!(got, want, "seed {seed} round {round}");
                assert_eq!(fast.eq_vars, reference.eq_vars, "seed {seed} round {round}");
                assert_eq!(fast.solver().num_vars(), reference.solver().num_vars());
                assert_eq!(
                    fast.solver().num_clauses(),
                    reference.solver().num_clauses()
                );
                if cap.is_some_and(|c| got >= c) {
                    cut += 1;
                }
                if got == start {
                    break;
                }
                emitted += got - start;
            }
        }
        assert!(cut > 0, "the per-round cap never cut a scan");
        assert!(emitted > 0, "no congruence clause was ever emitted");
    }
}
