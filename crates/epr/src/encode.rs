//! Grounding and propositional encoding of EPR formulas.
//!
//! After Skolemization, every assertion is a universally quantified
//! quantifier-free matrix over a finite ground-term universe. The encoder
//! instantiates universals over the universe and Tseitin-encodes the
//! resulting ground formulas. Equality is a theory of the CDCL search
//! (`EqTheory`, run through [`ivy_sat::Theory`]): transitivity and
//! congruence lemmas are emitted while the solver searches, at the moment
//! their premises become true, over equality variables that exist only for
//! the pairs of terms the search actually relates.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::BuildHasherDefault;

use ivy_fol::intern::{FormulaId, FormulaNode, Interner, TermNode};
use ivy_fol::{Binding, Signature, Sort, Sym};
use ivy_sat::{Interrupt, LBool, Lit, Solver, Theory, TheoryCtx, Var};

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
/// Tseitin).
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

/// Whether `clause` holds under every assignment: it has an atom in both
/// signs, or an equality of a step with itself. Distributing `∨` over `∧`
/// makes such clauses (an `iff` frame condition yields several per
/// matrix); the solver would drop every instance of one only after its
/// atoms were looked up, so [`Template::compile`] drops it first.
fn tautology(clause: &[CLit]) -> bool {
    clause.iter().enumerate().any(|(i, l)| match l {
        CLit::Eq { neg: false, a, b } if a == b => true,
        CLit::Eq { neg, a, b } => clause[i + 1..].iter().any(|m| {
            matches!(m, CLit::Eq { neg: n, a: x, b: y }
                if n != neg && ((x, y) == (a, b) || (x, y) == (b, a)))
        }),
        CLit::Rel { neg, sym, args } => clause[i + 1..].iter().any(|m| {
            matches!(m, CLit::Rel { neg: n, sym: s, args: a }
                if n != neg && s == sym && a == args)
        }),
    })
}

/// A pre-compiled instantiation plan for one universal grounding job.
///
/// Compiled once per job from the hash-consed matrix: the term structure is
/// flattened into `steps` — deduplicated by interned [`FolTermId`], so a
/// subterm shared five times across the matrix is evaluated once per ground
/// tuple instead of five times — and the boolean skeleton becomes a
/// [`TNode`] tree mirroring the matrix exactly. Replaying a template
/// ([`Encoder::assert_template`]) allocates `rel_var`/`eq_lit`/gate
/// variables in DFS order over that tree; gate *clauses* are the
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
    /// ground instantiations. Tautological clauses (see [`tautology`]) are
    /// left out, so an atom that occurs only in them is never allocated.
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
        let cnf = flatten_cnf(&root, false).map(|mut cnf| {
            cnf.retain(|clause| !tautology(clause));
            cnf
        });
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
/// counterpart of the canonical `BTreeMap`s of [`Atoms`].
///
/// Keys are a symbol's dense id plus an argument run stored in one flat
/// arena, probed by borrowed slice — the template-replay hot loop (millions
/// of `cache.atom_hits` per check) performs no allocation and no SipHash.
/// Equality atoms index here too, under the reserved [`EQ_SYM`] id. The
/// `BTreeMap`s remain the canonical stores: every deterministic iteration
/// (model extraction, the eager reference) still walks them in order.
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

    /// The key of entry `e` (1-based, as stored in the slots).
    fn entry(&self, e: u32) -> (u32, &[TermId]) {
        let (sym, start, len) = self.keys[e as usize - 1];
        (sym, &self.args[start as usize..(start + len) as usize])
    }

    /// Inserts a key the caller knows is absent; returns its entry.
    fn insert(&mut self, sym: u32, args: &[TermId], v: Var) -> u32 {
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
        e
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

/// A source of fresh SAT variables: the solver between searches, or the
/// theory context during one.
trait VarSource {
    fn fresh(&mut self) -> Var;
    fn pin_false(&mut self, v: Var);
}

impl VarSource for Solver {
    fn fresh(&mut self) -> Var {
        self.new_var()
    }

    fn pin_false(&mut self, v: Var) {
        self.pin_phase(v, false);
    }
}

impl VarSource for TheoryCtx<'_> {
    fn fresh(&mut self) -> Var {
        self.new_var()
    }

    fn pin_false(&mut self, v: Var) {
        self.pin_phase(v, false);
    }
}

/// The ground atoms of an encoder and their SAT variables.
///
/// `rel` and `eq` are the canonical ordered stores: every deterministic
/// iteration (model extraction, the eager reference) walks them in order.
/// `index` answers the hot lookups, and the last two fields let the
/// equality theory go from a trail literal to its atom and from a term to
/// the relation atoms mentioning it.
#[derive(Default)]
struct Atoms {
    rel: BTreeMap<(Sym, Vec<TermId>), Var>,
    eq: BTreeMap<(TermId, TermId), Var>,
    index: AtomIndex,
    /// Per SAT variable: its atom's `index` entry (0: not an atom).
    entry_of: Vec<u32>,
    /// Per term: the relation atoms mentioning it, as (entry, position).
    rel_occ: Vec<Vec<(u32, u32)>>,
    /// Per relation symbol (by id): its index in `rels`.
    rel_of_sym: HashMap<u32, u32>,
    /// Per relation symbol: its argument sorts and atom count.
    rels: Vec<RelInfo>,
    /// Per `index` entry of a relation atom: its symbol's index in `rels`.
    entry_rel: Vec<u32>,
}

/// What the equality theory knows of one relation symbol.
struct RelInfo {
    sorts: Vec<Sort>,
    atoms: u64,
    /// Every argument tuple over the universe has an atom (set per solve).
    complete: bool,
}

impl Atoms {
    /// The variable of `sym(args)`, and whether it was just allocated.
    fn rel_var(
        &mut self,
        vars: &mut impl VarSource,
        table: &TermTable,
        sym: &Sym,
        args: &[TermId],
    ) -> (Var, bool) {
        if let Some(v) = self.index.get(sym.id(), args) {
            return (v, false);
        }
        let v = vars.fresh();
        self.rel.insert((*sym, args.to_vec()), v);
        let e = self.index.insert(sym.id(), args, v);
        self.note(v, e);
        let rels = &mut self.rels;
        let r = *self.rel_of_sym.entry(sym.id()).or_insert_with(|| {
            rels.push(RelInfo {
                sorts: args.iter().map(|&t| *table.sort(t)).collect(),
                atoms: 0,
                complete: false,
            });
            rels.len() as u32 - 1
        });
        self.rels[r as usize].atoms += 1;
        if self.entry_rel.len() < e as usize + 1 {
            self.entry_rel.resize(e as usize + 1, u32::MAX);
        }
        self.entry_rel[e as usize] = r;
        for (i, &t) in args.iter().enumerate() {
            if self.rel_occ.len() <= t {
                self.rel_occ.resize_with(t + 1, Vec::new);
            }
            self.rel_occ[t].push((e, i as u32));
        }
        (v, true)
    }

    /// The variable of `a = b` (`a < b`), and whether it was just
    /// allocated.
    fn eq_var(&mut self, vars: &mut impl VarSource, a: TermId, b: TermId) -> (Var, bool) {
        debug_assert!(a < b);
        if let Some(v) = self.index.get(EQ_SYM, &[a, b]) {
            return (v, false);
        }
        let v = vars.fresh();
        // Unconstrained equalities default to *false*: a decided `true`
        // merges two classes, and every merge wakes transitivity and
        // congruence lemmas.
        vars.pin_false(v);
        self.eq.insert((a, b), v);
        let e = self.index.insert(EQ_SYM, &[a, b], v);
        self.note(v, e);
        (v, true)
    }

    /// Marks the relations whose atoms cover every argument tuple over
    /// `table`.
    fn mark_complete(&mut self, table: &TermTable) {
        for r in &mut self.rels {
            let tuples = r
                .sorts
                .iter()
                .try_fold(1u64, |n, s| n.checked_mul(table.of_sort(s).len() as u64));
            r.complete = tuples == Some(r.atoms);
        }
    }

    /// Whether relation atom `entry`'s symbol is complete (see
    /// [`Atoms::mark_complete`]).
    fn complete(&self, entry: u32) -> bool {
        self.rels[self.entry_rel[entry as usize] as usize].complete
    }

    /// The variable of `a = b` if it exists (`a ≠ b`).
    fn find_eq(&self, a: TermId, b: TermId) -> Option<Var> {
        self.index.get(EQ_SYM, &[a.min(b), a.max(b)])
    }

    fn note(&mut self, v: Var, e: u32) {
        if self.entry_of.len() <= v.index() {
            self.entry_of.resize(v.index() + 1, 0);
        }
        self.entry_of[v.index()] = e;
    }
}

/// Tseitin encoder over a ground-term universe, with lazy atom allocation
/// and equality as a theory of the search.
///
/// Atom and equality maps are ordered (`BTreeMap`), so every iteration over
/// them is deterministic across processes, and the equality theory's state
/// is plain vectors indexed by term and variable. Incremental sessions rely
/// on this: repeated runs must produce the same models and hence the same
/// CTIs.
pub struct Encoder {
    solver: Solver,
    table: TermTable,
    true_lit: Lit,
    atoms: Atoms,
    /// Pairs that received an equality variable from the matrix (pre-closure).
    seed_pairs: Vec<(TermId, TermId)>,
    finalized: bool,
    /// Equality lemmas added so far (the theory's dedup set).
    lazy_added: AxiomSet,
    /// The equality theory's state between searches.
    eq_state: EqState,
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

/// Outcome of [`Encoder::solve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable, equality-consistent model available.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The caller's wall-clock deadline passed mid-solve.
    Deadline,
    /// The caller's conflict budget was exhausted.
    Conflicts,
}

/// What one [`Encoder::solve`] call did besides answering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TheoryWork {
    /// Equality lemma clauses the theory added.
    pub lemmas: usize,
    /// Final checks that found a violation the search let through (0 when
    /// propagation is complete, as it is meant to be).
    pub final_firings: usize,
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

/// The equality theory's state that outlives one search: the true
/// equality graph of the current trail, the terms' function occurrences,
/// and counters.
#[derive(Default)]
struct EqState {
    /// Per term: the applications taking it as an argument, as (term,
    /// position); covers the first `fun_occ.len()` terms of the table.
    fun_occ: Vec<Vec<(TermId, u32)>>,
    /// Per term: its true equalities on the trail, as (other term, var).
    adj: Vec<Vec<(TermId, Var)>>,
    /// The trail position of every `adj` edge, in push order.
    adj_log: Vec<(usize, TermId, TermId)>,
    /// Per SAT variable: a relation atom whose partners were examined on
    /// the current trail.
    examined: Vec<bool>,
    /// The trail position of every `examined` mark, in order.
    examined_log: Vec<(usize, Var)>,
    /// Trail literals examined so far.
    head: usize,
    /// Cumulative counters (see [`TheoryWork`]).
    work: TheoryWork,
    /// Per-term marks of [`EqTheory::closes_triangle`], current when equal
    /// to `stamp_gen`.
    stamp: Vec<u64>,
    stamp_gen: u64,
    /// Reused buffers of [`EqTheory::rel_partners`],
    /// [`EqTheory::rel_swaps`] and lemma building.
    pick: Vec<usize>,
    swap_terms: Vec<TermId>,
    combo: Vec<TermId>,
    own: Vec<TermId>,
    clause: Vec<Lit>,
}

impl EqState {
    /// Covers terms added to `table` since the last search.
    fn sync(&mut self, table: &TermTable) {
        let n = table.len();
        let from = self.fun_occ.len();
        self.fun_occ.resize_with(n, Vec::new);
        for t in from..n {
            for (i, &x) in table.term(t).args.iter().enumerate() {
                self.fun_occ[x].push((t, i as u32));
            }
        }
        self.adj.resize_with(n, Vec::new);
    }

    /// Covers variables allocated since the last call.
    fn sync_vars(&mut self, vars: usize) {
        if self.examined.len() < vars {
            self.examined.resize(vars, false);
        }
    }
}

/// Equality as a theory of the CDCL search.
///
/// It watches equality and relation atoms as the trail assigns them and
/// emits the lemma shapes below the moment all their premises are true and
/// the lemma is unit or false; each is added once per session (`lazy_added`)
/// and, being valid in the theory of equality, stays for every later query:
///
/// * transitivity, per triangle `{a, b, c}` of terms: `¬ab ∨ ¬bc ∨ ac` and
///   its two rotations, when two of its edges are true and the third is
///   not;
/// * function congruence `⋁ ¬(xᵢ = yᵢ) ∨ f(x̄) = f(ȳ)`, when every argument
///   pair is equal or true and the conclusion is not;
/// * relation congruence, pairwise and guarded by the argument equalities:
///   `guard ∨ ¬r(x̄) ∨ r(ȳ)` and `guard ∨ ¬r(ȳ) ∨ r(x̄)`, when the guard is
///   true and the two atoms' values differ (one may be unassigned).
///
/// Triggers fire on each event that can make a lemma unit or false: an
/// edge turning true or false, a relation atom being assigned. Relation
/// pairs are found two ways. For a *complete* relation (an atom for every
/// argument tuple, the usual case after universal instantiation) only the
/// single-swap pairs `r(..x..)`, `r(..y..)` along each true edge `x = y`
/// are checked, and an edge that closes a triangle of true edges needs
/// none: every other pair is joined to them through atoms that exist.
/// Other relations check every partner. So once propagation is quiet,
/// the true classes are cliques and congruent atoms and terms agree; the
/// final check at a full assignment re-examines the classes and is
/// expected to find nothing ([`TheoryWork::final_firings`]).
struct EqTheory<'a> {
    atoms: &'a mut Atoms,
    st: &'a mut EqState,
    table: &'a TermTable,
    added: &'a mut AxiomSet,
    true_lit: Lit,
    /// A lemma false under the current assignment was emitted: the call
    /// stops, the solver backjumps.
    conflict: bool,
}

impl EqTheory<'_> {
    /// The literal of `a = b`, allocating its variable if needed.
    fn eq(&mut self, ctx: &mut TheoryCtx<'_>, a: TermId, b: TermId) -> Lit {
        if a == b {
            return self.true_lit;
        }
        self.atoms.eq_var(ctx, a.min(b), a.max(b)).0.pos()
    }

    /// The value of `a = b`; unassigned when it has no variable.
    fn eq_value(&self, ctx: &TheoryCtx<'_>, a: TermId, b: TermId) -> LBool {
        if a == b {
            return LBool::True;
        }
        match self.atoms.find_eq(a, b) {
            Some(v) => ctx.value(v.pos()),
            None => LBool::Undef,
        }
    }

    /// Triangle `{hub, u, v}` where `hub = u` and `hub = v` are true:
    /// emits its transitivity lemmas unless `u = v` is true already.
    fn triangle(&mut self, ctx: &mut TheoryCtx<'_>, hub: TermId, u: TermId, v: TermId) {
        let closing = self.eq_value(ctx, u, v);
        if closing == LBool::True {
            return;
        }
        let mut t = [hub, u, v];
        t.sort_unstable();
        let [a, b, c] = t;
        if !self.added.insert(LazyAxiom::Transitivity(a, b, c)) {
            return;
        }
        let (ab, bc, ac) = (self.eq(ctx, a, b), self.eq(ctx, b, c), self.eq(ctx, a, c));
        ctx.add_lemma(&[!ab, !bc, ac]);
        ctx.add_lemma(&[!ab, !ac, bc]);
        ctx.add_lemma(&[!ac, !bc, ab]);
        self.st.work.lemmas += 3;
        self.conflict |= closing == LBool::False;
    }

    /// Function congruence between applications `t1` and `t2`: emitted
    /// when they share a symbol, every argument pair is equal or true, and
    /// `t1 = t2` is not true.
    fn fun_pair(&mut self, ctx: &mut TheoryCtx<'_>, t1: TermId, t2: TermId) {
        let table = self.table;
        let (g1, g2) = (table.term(t1), table.term(t2));
        if t1 == t2 || g1.sym != g2.sym || g1.args.is_empty() {
            return;
        }
        if g1
            .args
            .iter()
            .zip(&g2.args)
            .any(|(&x, &y)| self.eq_value(ctx, x, y) != LBool::True)
        {
            return;
        }
        let conclusion = self.eq_value(ctx, t1, t2);
        if conclusion == LBool::True
            || !self
                .added
                .insert(LazyAxiom::FunCongruence(t1.min(t2), t1.max(t2)))
        {
            return;
        }
        let mut clause = std::mem::take(&mut self.st.clause);
        clause.clear();
        for (&x, &y) in g1.args.iter().zip(&g2.args) {
            if x != y {
                let e = self.eq(ctx, x, y);
                clause.push(!e);
            }
        }
        let e = self.eq(ctx, t1, t2);
        clause.push(e);
        ctx.add_lemma(&clause);
        self.st.clause = clause;
        self.st.work.lemmas += 1;
        self.conflict |= conclusion == LBool::False;
    }

    /// Relation congruence between atoms `a` and `b` of one symbol whose
    /// argument pairs (`args_a`, `args_b`) are all equal or true: emitted
    /// when their values differ, one of them possibly unassigned.
    fn rel_pair(
        &mut self,
        ctx: &mut TheoryCtx<'_>,
        a: Var,
        b: Var,
        args_a: &[TermId],
        args_b: &[TermId],
    ) {
        let (va, vb) = (ctx.value(a.pos()), ctx.value(b.pos()));
        if va == vb
            || !self
                .added
                .insert(LazyAxiom::RelCongruence(a.min(b), a.max(b)))
        {
            return;
        }
        let mut clause = std::mem::take(&mut self.st.clause);
        clause.clear();
        for (&x, &y) in args_a.iter().zip(args_b) {
            if x != y {
                let e = self.eq(ctx, x, y);
                clause.push(!e);
            }
        }
        let guard = clause.len();
        clause.extend([a.neg(), b.pos()]);
        ctx.add_lemma(&clause);
        clause.truncate(guard);
        clause.extend([b.neg(), a.pos()]);
        ctx.add_lemma(&clause);
        self.st.clause = clause;
        self.st.work.lemmas += 2;
        self.conflict |= va != LBool::Undef && vb != LBool::Undef;
    }

    /// Checks atom `entry` of an incomplete relation against all its
    /// *partners*: the atoms of its symbol whose arguments are, position by
    /// position, the same term or a true equal of it (position `pin.0`
    /// fixed to `pin.1` when given). Lemmas go to every partner whose value
    /// differs from the atom's. An unassigned atom stops at its first
    /// lemma: it is now propagated, and its own examination follows on the
    /// trail.
    fn rel_partners(&mut self, ctx: &mut TheoryCtx<'_>, entry: u32, pin: Option<(usize, TermId)>) {
        let a = self.atoms.index.vars[entry as usize - 1];
        let va = ctx.value(a.pos());
        let mut own = std::mem::take(&mut self.st.own);
        let mut pick = std::mem::take(&mut self.st.pick);
        let mut combo = std::mem::take(&mut self.st.combo);
        let (sym, args) = self.atoms.index.entry(entry);
        own.clear();
        own.extend_from_slice(args);
        // Position j takes choice 0 (its own term, or the pin) or one of
        // the term's true equals; `pick` holds the current choices.
        let pinned = |j: usize| pin.filter(|&(i, _)| i == j).map(|(_, u)| u);
        let count = |st: &EqState, j: usize| match pinned(j) {
            Some(_) => 1,
            None => 1 + st.adj[own[j]].len(),
        };
        // Without a pin, the atom only has partners through a true edge.
        if pin.is_some() || (0..own.len()).any(|j| count(self.st, j) > 1) {
            pick.clear();
            pick.resize(own.len(), 0);
            combo.clear();
            combo.extend((0..own.len()).map(|j| pinned(j).unwrap_or(own[j])));
            'combos: loop {
                if combo != own {
                    if let Some(b) = self.atoms.index.get(sym, &combo) {
                        let vb = ctx.value(b.pos());
                        if va != vb {
                            self.rel_pair(ctx, a, b, &own, &combo);
                            if self.conflict || va == LBool::Undef && vb != LBool::Undef {
                                break 'combos;
                            }
                        }
                    }
                }
                // Next combination, last position fastest.
                let mut j = own.len();
                loop {
                    if j == 0 {
                        break 'combos;
                    }
                    j -= 1;
                    pick[j] += 1;
                    if pick[j] < count(self.st, j) {
                        combo[j] = self.st.adj[own[j]][pick[j] - 1].0;
                        break;
                    }
                    pick[j] = 0;
                    combo[j] = pinned(j).unwrap_or(own[j]);
                }
            }
        }
        self.st.own = own;
        self.st.pick = pick;
        self.st.combo = combo;
    }

    /// Checks atom `entry` of a complete relation against the atoms that
    /// differ from it in one position, by a true edge: position `i` moved
    /// to each `ys` term.
    fn rel_swaps(&mut self, ctx: &mut TheoryCtx<'_>, entry: u32, i: usize, ys: &[TermId]) {
        let a = self.atoms.index.vars[entry as usize - 1];
        let mut own = std::mem::take(&mut self.st.own);
        let mut combo = std::mem::take(&mut self.st.combo);
        let (sym, args) = self.atoms.index.entry(entry);
        own.clear();
        own.extend_from_slice(args);
        combo.clear();
        combo.extend_from_slice(args);
        for &y in ys {
            combo[i] = y;
            if let Some(b) = self.atoms.index.get(sym, &combo) {
                self.rel_pair(ctx, a, b, &own, &combo);
                if self.conflict {
                    break;
                }
            }
        }
        self.st.own = own;
        self.st.combo = combo;
    }

    /// `a = b` turned true (its edge is already in `adj`).
    fn eq_true(&mut self, ctx: &mut TheoryCtx<'_>, a: TermId, b: TermId) {
        // Transitivity: every other true edge at either end.
        for (x, y) in [(a, b), (b, a)] {
            let mut k = 0;
            while k < self.st.adj[x].len() {
                let (c, _) = self.st.adj[x][k];
                k += 1;
                if c != y {
                    self.triangle(ctx, x, y, c);
                }
            }
        }
        // Function congruence: applications with `a` and `b` at the same
        // position.
        for k in 0..self.st.fun_occ[a].len() {
            let (t1, i) = self.st.fun_occ[a][k];
            for m in 0..self.st.fun_occ[b].len() {
                let (t2, j) = self.st.fun_occ[b][m];
                if i == j {
                    self.fun_pair(ctx, t1, t2);
                }
            }
        }
        // Relation congruence: atoms with `a` at some position, paired
        // with `b` there. An assigned atom not yet examined is left to its
        // own examination, which will see this edge.
        //
        // A complete relation only needs its single-swap pairs `r(..a..)`,
        // `r(..b..)` consistent along every examined edge: any two
        // partners are joined by swaps one position at a time, through
        // atoms that exist. And an edge closing a triangle `a c b` of
        // examined edges needs no pair at all: each of its swaps chains
        // through the `c` atom.
        let mut closes = None;
        let mut k = 0;
        while k < self.atoms.rel_occ.get(a).map_or(0, Vec::len) && !self.conflict {
            let (e, i) = self.atoms.rel_occ[a][k];
            k += 1;
            let v = self.atoms.index.vars[e as usize - 1];
            if ctx.value(v.pos()) != LBool::Undef && !self.st.examined[v.index()] {
                continue;
            }
            if !self.atoms.complete(e) {
                self.rel_partners(ctx, e, Some((i as usize, b)));
            } else if !*closes.get_or_insert_with(|| self.closes_triangle(a, b)) {
                self.rel_swaps(ctx, e, i as usize, &[b]);
            }
        }
    }

    /// Whether `a` and `b` have a common neighbour in the true edges
    /// examined so far.
    fn closes_triangle(&mut self, a: TermId, b: TermId) -> bool {
        let st = &mut *self.st;
        let (small, large) = if st.adj[a].len() <= st.adj[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        st.stamp_gen += 1;
        if st.stamp.len() < st.adj.len() {
            st.stamp.resize(st.adj.len(), 0);
        }
        for &(c, _) in &st.adj[large] {
            st.stamp[c] = st.stamp_gen;
        }
        st.adj[small]
            .iter()
            .any(|&(c, _)| c != large && st.stamp[c] == st.stamp_gen)
    }

    /// `a = c` turned false.
    fn eq_false(&mut self, ctx: &mut TheoryCtx<'_>, a: TermId, c: TermId) {
        let mut k = 0;
        while k < self.st.adj[a].len() {
            let (b, _) = self.st.adj[a][k];
            k += 1;
            if self.eq_value(ctx, b, c) == LBool::True {
                self.triangle(ctx, b, a, c);
            }
        }
        self.fun_pair(ctx, a, c);
    }

    fn examine(&mut self, ctx: &mut TheoryCtx<'_>, pos: usize, p: Lit) {
        let e = self
            .atoms
            .entry_of
            .get(p.var().index())
            .copied()
            .unwrap_or(0);
        if e == 0 {
            return;
        }
        let (sym, args) = self.atoms.index.entry(e);
        if sym != EQ_SYM {
            let v = p.var();
            self.st.examined[v.index()] = true;
            self.st.examined_log.push((pos, v));
            if !self.atoms.complete(e) {
                self.rel_partners(ctx, e, None);
                return;
            }
            let mut ys = std::mem::take(&mut self.st.swap_terms);
            for i in 0..self.atoms.index.entry(e).1.len() {
                let t = self.atoms.index.entry(e).1[i];
                if self.st.adj[t].is_empty() {
                    continue;
                }
                ys.clear();
                ys.extend(self.st.adj[t].iter().map(|&(y, _)| y));
                self.rel_swaps(ctx, e, i, &ys);
                if self.conflict {
                    break;
                }
            }
            self.st.swap_terms = ys;
            return;
        }
        let (a, b) = (args[0], args[1]);
        if p.is_pos() {
            self.st.adj[a].push((b, p.var()));
            self.st.adj[b].push((a, p.var()));
            self.st.adj_log.push((pos, a, b));
            self.eq_true(ctx, a, b);
        } else {
            self.eq_false(ctx, a, b);
        }
    }
}

impl Theory for EqTheory<'_> {
    fn backtrack(&mut self, len: usize) {
        let st = &mut *self.st;
        while let Some(&(pos, a, b)) = st.adj_log.last() {
            if pos < len {
                break;
            }
            st.adj_log.pop();
            let popped = (st.adj[a].pop(), st.adj[b].pop());
            debug_assert!(matches!(popped, (Some((x, _)), Some((y, _))) if x == b && y == a));
        }
        while let Some(&(pos, v)) = st.examined_log.last() {
            if pos < len {
                break;
            }
            st.examined_log.pop();
            st.examined[v.index()] = false;
        }
        st.head = st.head.min(len);
    }

    fn propagate(&mut self, ctx: &mut TheoryCtx<'_>) {
        self.conflict = false;
        while self.st.head < ctx.trail_len() && !self.conflict {
            let pos = self.st.head;
            self.st.head += 1;
            self.examine(ctx, pos, ctx.trail_lit(pos));
        }
    }

    /// Checks the full assignment from the true classes, in one pass per
    /// axiom kind: every class is a clique of true edges (transitivity),
    /// applications with the same symbol and class-equal arguments are
    /// class-equal (function congruence), and atoms with the same symbol
    /// and class-equal arguments agree (relation congruence). Each pass
    /// runs only when the previous ones found nothing, since the later
    /// lemmas rest on the class edges being true.
    fn final_check(&mut self, ctx: &mut TheoryCtx<'_>) {
        self.conflict = false;
        let before = self.st.work.lemmas;
        let n = self.st.adj.len();
        let mut uf = UnionFind::new(n);
        for t in 0..n {
            for &(u, _) in &self.st.adj[t] {
                uf.union(t, u);
            }
        }
        let roots: Vec<usize> = (0..n).map(|t| uf.find(t)).collect();
        let mut size = vec![0usize; n];
        for &r in &roots {
            size[r] += 1;
        }
        // A class is a clique when every member is adjacent to all the
        // others; a connected non-clique has a member with two
        // non-adjacent neighbours, which `triangle` finds.
        let mut broken = vec![false; n];
        for t in 0..n {
            if self.st.adj[t].len() + 1 < size[roots[t]] {
                broken[roots[t]] = true;
            }
        }
        for t in 0..n {
            let deg = self.st.adj[t].len();
            if broken[roots[t]] {
                for i in 0..deg {
                    for j in i + 1..deg {
                        let (u, v) = (self.st.adj[t][i].0, self.st.adj[t][j].0);
                        self.triangle(ctx, t, u, v);
                    }
                }
            }
        }
        let shared = |t: TermId| size[roots[t]] > 1;
        if self.st.work.lemmas == before {
            let table = self.table;
            let mut apps: HashMap<(Sym, Vec<usize>), TermId> = HashMap::new();
            for t in 0..n {
                let g = table.term(t);
                if g.args.iter().any(|&x| shared(x)) {
                    let key = (g.sym, g.args.iter().map(|&x| roots[x]).collect());
                    let first = *apps.entry(key).or_insert(t);
                    if roots[first] != roots[t] {
                        self.fun_pair(ctx, first, t);
                    }
                }
            }
        }
        if self.st.work.lemmas == before {
            let mut atoms: Vec<u32> = (0..n)
                .filter(|&t| shared(t))
                .flat_map(|t| self.atoms.rel_occ.get(t).into_iter().flatten())
                .map(|&(e, _)| e)
                .collect();
            atoms.sort_unstable();
            atoms.dedup();
            let index = &self.atoms.index;
            let key = |e: u32| {
                let (sym, args) = index.entry(e);
                (sym, args.iter().map(|&x| roots[x]))
            };
            atoms.sort_unstable_by(|&x, &y| {
                let ((sx, ax), (sy, ay)) = (key(x), key(y));
                sx.cmp(&sy).then_with(|| ax.cmp(ay)).then(x.cmp(&y))
            });
            let mut clashes: Vec<(u32, u32)> = Vec::new();
            let mut start = 0;
            while start < atoms.len() {
                let mut end = start + 1;
                let same = |x: u32, y: u32| {
                    let ((sx, ax), (sy, ay)) = (key(x), key(y));
                    sx == sy && ax.eq(ay)
                };
                while end < atoms.len() && same(atoms[start], atoms[end]) {
                    end += 1;
                }
                let first = atoms[start];
                let v0 = ctx.value(index.vars[first as usize - 1].pos());
                for &e in &atoms[start + 1..end] {
                    if ctx.value(index.vars[e as usize - 1].pos()) != v0 {
                        clashes.push((first, e));
                    }
                }
                start = end;
            }
            let (mut own, mut other) = (Vec::new(), Vec::new());
            for (x, y) in clashes {
                let (vx, vy) = (
                    self.atoms.index.vars[x as usize - 1],
                    self.atoms.index.vars[y as usize - 1],
                );
                own.clear();
                own.extend_from_slice(self.atoms.index.entry(x).1);
                other.clear();
                other.extend_from_slice(self.atoms.index.entry(y).1);
                self.rel_pair(ctx, vx, vy, &own, &other);
            }
        }
        if self.st.work.lemmas > before {
            self.st.work.final_firings += 1;
        }
    }
}

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
            atoms: Atoms::default(),
            seed_pairs: Vec::new(),
            finalized: false,
            lazy_added: AxiomSet::default(),
            eq_state: EqState::default(),
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
        let (v, new) = self.atoms.rel_var(&mut self.solver, &self.table, sym, args);
        if new {
            self.atom_misses += 1;
        } else {
            self.atom_hits += 1;
        }
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
        let (v, new) = self.atoms.eq_var(&mut self.solver, key.0, key.1);
        if !new {
            self.atom_hits += 1;
            return v.pos();
        }
        self.atom_misses += 1;
        if !self.finalized {
            self.seed_pairs.push(key);
        }
        v.pos()
    }

    /// Evaluates the template's ground-term step list under `env` (`env[i]`
    /// is the universe term instantiating the job's `i`-th binding) into
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

    /// Closes the equality machinery: computes "possibly equal" components
    /// from the seeded pairs, saturates them under function congruence,
    /// allocates equality variables for all intra-component pairs, and adds
    /// transitivity plus function/relation congruence axioms.
    ///
    /// This is the eager discipline. Sessions solve with equality as a
    /// theory of the search ([`Encoder::solve`]); the eager axioms remain
    /// the reference the crate's tests check its verdicts against.
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
        for ((sym, args), var) in self.atoms.rel.clone() {
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

    /// Solves under `assumptions` with equality as a theory of the search
    /// (`EqTheory`): one CDCL call, whose SAT models are
    /// equality-consistent. The conflict budget `max_conflicts` and any
    /// wall-clock deadline set on the solver via [`Solver::set_deadline`]
    /// stop the call with [`SolveOutcome::Conflicts`] /
    /// [`SolveOutcome::Deadline`]. Returns the outcome and the theory's
    /// work in this call.
    ///
    /// Lemmas are valid in the theory of equality, so they stay in the
    /// solver: later calls, under any assumptions, reuse them.
    pub fn solve(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> (SolveOutcome, TheoryWork) {
        self.finalized = true;
        // Start from canonical phases: a saved model from an earlier query
        // in this session would otherwise steer this query toward stale
        // truths, merging equality classes no query asked for.
        self.solver.reset_phases();
        self.eq_state.sync(&self.table);
        self.atoms.mark_complete(&self.table);
        self.eq_state.sync_vars(self.solver.num_vars());
        let before = self.eq_state.work;
        let mut theory = EqTheory {
            atoms: &mut self.atoms,
            st: &mut self.eq_state,
            table: &self.table,
            added: &mut self.lazy_added,
            true_lit: self.true_lit,
            conflict: false,
        };
        let result = self.solver.solve_with_theory(
            assumptions,
            max_conflicts.unwrap_or(u64::MAX),
            &mut theory,
        );
        let outcome = match result {
            Some(ivy_sat::SolveResult::Sat) => SolveOutcome::Sat,
            Some(ivy_sat::SolveResult::Unsat) => SolveOutcome::Unsat,
            None => match self.solver.last_interrupt() {
                Some(Interrupt::Deadline) => SolveOutcome::Deadline,
                _ => SolveOutcome::Conflicts,
            },
        };
        debug_assert!(
            outcome != SolveOutcome::Sat || self.equality_violations() == 0,
            "a SAT model violates equality"
        );
        let after = self.eq_state.work;
        let work = TheoryWork {
            lemmas: after.lemmas - before.lemmas,
            final_firings: after.final_firings - before.final_firings,
        };
        (outcome, work)
    }

    /// The equality axioms the last SAT model violates, counted by a
    /// whole-model scan that shares nothing with [`EqTheory`]: union-find
    /// over the true equalities, then every false equality inside a class,
    /// every pair of applications with class-equal arguments in different
    /// classes, and every pair of atoms with class-equal arguments and
    /// different values. A debug and test validator: every SAT answer must
    /// score 0.
    pub(crate) fn equality_violations(&self) -> usize {
        let parts = self.model_parts();
        let mut uf = parts.equality_classes();
        let mut violations = 0;
        for (&(a, b), &v) in &self.atoms.eq {
            if self.solver.model_value(v) == Some(false) && uf.find(a) == uf.find(b) {
                violations += 1;
            }
        }
        let mut apps: BTreeMap<(Sym, Vec<usize>), usize> = BTreeMap::new();
        for t in 0..self.table.len() {
            let g = self.table.term(t);
            if g.args.is_empty() {
                continue;
            }
            let key = (g.sym, g.args.iter().map(|&x| uf.find(x)).collect());
            let root = uf.find(t);
            if *apps.entry(key).or_insert(root) != root {
                violations += 1;
            }
        }
        let mut atoms: BTreeMap<(Sym, Vec<usize>), bool> = BTreeMap::new();
        for (sym, args, value) in parts.atoms() {
            let key = (*sym, args.iter().map(|&x| uf.find(x)).collect());
            if *atoms.entry(key).or_insert(value) != value {
                violations += 1;
            }
        }
        violations
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
        for (&(a, b), &v) in &self.enc.atoms.eq {
            if self.enc.solver.model_value(v) == Some(true) {
                uf.union(a, b);
            }
        }
        uf
    }

    /// Iterates over ground relation atoms with their model values.
    pub(crate) fn atoms(&self) -> impl Iterator<Item = (&Sym, &[TermId], bool)> + '_ {
        self.enc.atoms.rel.iter().map(|((sym, args), &v)| {
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
    use ivy_fol::Signature;
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

    /// Asserts the ground formula `src` through the production path: a
    /// template with no universals, replayed under the always-true guard.
    fn assert_ground(enc: &mut Encoder, src: &str) {
        let f = ivy_fol::parse_formula(src).unwrap();
        let tpl = Interner::with(|it| {
            let id = it.intern(&f);
            Template::compile(it, id, &[])
        });
        let guard = enc.true_lit();
        enc.assert_template(&tpl, &[], guard);
    }

    #[test]
    fn encode_simple_conflict() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        assert_ground(&mut enc, "r(a)");
        assert_ground(&mut enc, "~r(a)");
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn equality_transitivity_enforced() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // a=b & b=c & r(a) & ~r(c) is unsat (needs transitivity + congruence).
        assert_ground(&mut enc, "a = b & b = c & r(a) & ~r(c)");
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn equality_sat_when_consistent() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        assert_ground(&mut enc, "a = b & r(a) & r(b) & ~r(c)");
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
        assert_ground(&mut enc, "a = b & f(a) ~= f(b)");
        enc.finalize_equality();
        assert_eq!(enc.solver_mut().solve(), SolveResult::Unsat);
    }

    #[test]
    fn theory_solve_counts_lemmas() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // Refuting r(a) & ~r(c) under a = b = c needs `a = c`, which no
        // clause mentions: transitivity allocates it mid-search, and
        // relation congruence closes the argument.
        assert_ground(&mut enc, "a = b & b = c & r(a) & ~r(c)");
        let vars = enc.solver().num_vars();
        let (result, work) = enc.solve(&[], None);
        assert_eq!(result, SolveOutcome::Unsat);
        assert!(work.lemmas > 0, "{work:?}");
        assert_eq!(work.final_firings, 0, "{work:?}");
        assert!(
            enc.solver().num_vars() > vars,
            "no equality variable was added"
        );

        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        assert_ground(&mut enc, "r(a) & ~r(b)");
        assert_eq!(
            enc.solve(&[], None),
            (SolveOutcome::Sat, TheoryWork::default())
        );
    }

    #[test]
    fn unrelated_terms_stay_apart() {
        let (_, table) = simple_table();
        let mut enc = Encoder::new(table);
        // No equality atoms at all: r(a) & ~r(b) is satisfiable.
        assert_ground(&mut enc, "r(a) & ~r(b)");
        let axioms = enc.finalize_equality();
        assert_eq!(axioms, 0, "no equality atoms, no axioms");
        assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
    }

    /// Compiles the matrix `src` over the universals `X:s` and `Y:s`.
    fn flat_template(src: &str) -> FlatCnf {
        let f = ivy_fol::parse_formula(src).unwrap();
        let bindings: Vec<Binding> = ["X", "Y"]
            .into_iter()
            .map(|v| Binding::new(Sym::new(v), Sort::new("s")))
            .collect();
        let tpl = Interner::with(|it| {
            let id = it.intern(&f);
            Template::compile(it, id, &bindings)
        });
        tpl.cnf.expect("the matrix flattens")
    }

    #[test]
    fn flat_templates_drop_tautologies() {
        // `p <-> (p | q)` distributes into `¬p ∨ p ∨ q`, `¬p ∨ p` and
        // `¬q ∨ p`: only the last can ever be false.
        let cnf = flat_template("r(X) <-> (r(X) | r(Y))");
        assert_eq!(cnf.len(), 1, "{cnf:?}");
        // An equality in both signs, mirrored or not, and `X = X` hold
        // outright; `X = Y ∨ X != X` does not.
        assert!(flat_template("X = Y -> Y = X").is_empty());
        assert!(flat_template("X = X | r(X)").is_empty());
        assert_eq!(flat_template("X = Y | X ~= X").len(), 1);
    }
}
