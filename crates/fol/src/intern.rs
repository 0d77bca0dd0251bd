//! Hash-consed arena for terms and formulas.
//!
//! Every structurally distinct term/formula node is stored once in a
//! process-global append-only arena and identified by a dense [`TermId`] /
//! [`FormulaId`]. Equality and hashing of ids are O(1), subformula sharing
//! is free, and per-node attributes (free variables, all variable names,
//! literal counts, `ite` presence) are computed once at intern time.
//!
//! The transformation passes of `subst`/`xform` have id-level counterparts
//! here ([`Interner::subst_vars`], [`Interner::nnf`], [`Interner::prenex`],
//! [`Interner::skolemize`], ...) that are *exact ports* of the tree
//! algorithms — byte-identical output modulo `intern`/`resolve` — with
//! persistent memo tables keyed by id, so repeated work (the transition
//! clone storm, re-grounding in incremental sessions) collapses into map
//! lookups.
//!
//! Tree [`Formula`]/[`Term`] remain the parser-facing surface;
//! [`Interner::intern`] and [`Interner::resolve`] are lossless bridges
//! (variant-for-variant, no normalization), so `resolve(intern(f)) == f`.
//!
//! # Determinism
//!
//! Arena ids depend on global intern order, which depends on thread timing
//! when several `ivy serve` workers intern concurrently. Nothing
//! user-visible may therefore depend on *id order*: iteration that affects
//! output must run over
//! name-ordered (`Sym`-keyed) structures or follow formula structure, never
//! over id-keyed maps. All code in this module observes that rule.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use crate::formula::{Binding, Formula};
use crate::subst::fresh_name;
use crate::term::Term;
use crate::xform::{fresh_constant_name, Block, SkolemError};
use crate::{Signature, Sort, Sym};

/// Id of an interned [`Term`] in the global arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

/// Id of an interned [`Formula`] in the global arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FormulaId(u32);

impl TermId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FormulaId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned term node: the [`Term`] shape with id children.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A logical variable.
    Var(Sym),
    /// Function application (constants have empty argument lists).
    App(Sym, Vec<TermId>),
    /// If-then-else over a condition formula.
    Ite(FormulaId, TermId, TermId),
}

/// An interned formula node: the [`Formula`] shape with id children.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum FormulaNode {
    /// The true constant.
    True,
    /// The false constant.
    False,
    /// Relation membership.
    Rel(Sym, Vec<TermId>),
    /// Equality between terms.
    Eq(TermId, TermId),
    /// Negation.
    Not(FormulaId),
    /// N-ary conjunction.
    And(Vec<FormulaId>),
    /// N-ary disjunction.
    Or(Vec<FormulaId>),
    /// Implication.
    Implies(FormulaId, FormulaId),
    /// Bi-implication.
    Iff(FormulaId, FormulaId),
    /// Universal quantification.
    Forall(Vec<Binding>, FormulaId),
    /// Existential quantification.
    Exists(Vec<Binding>, FormulaId),
}

/// A prenex normal form over interned matrices (id-level [`crate::Prenex`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrenexI {
    /// The quantifier prefix, outermost first.
    pub prefix: Vec<Block>,
    /// The quantifier-free matrix.
    pub matrix: FormulaId,
}

impl PrenexI {
    /// Whether the prefix is `∃*∀*` (the EPR fragment).
    pub fn is_ea(&self) -> bool {
        match self.prefix.as_slice() {
            [] | [_] => true,
            [a, b] => a.is_exists_block() && !b.is_exists_block(),
            _ => false,
        }
    }
}

impl Block {
    fn is_exists_block(&self) -> bool {
        matches!(self, Block::Exists(_))
    }
}

/// The result of id-level Skolemization of a closed `∃*∀*` sentence.
#[derive(Clone, Debug)]
pub struct SkolemizedI {
    /// The remaining universally quantified part.
    pub universal: PrenexI,
    /// Fresh Skolem constants introduced, with their sorts.
    pub constants: Vec<(Sym, Sort)>,
    /// Fresh Skolem *functions* introduced for existentials under
    /// universals, as `(name, argument sorts, result sort)`. Always empty
    /// for [`Interner::skolemize`]; only
    /// [`Interner::skolemize_bounded`] emits them (they generally break
    /// stratification, which is exactly what the bounded-instantiation
    /// pipeline tolerates).
    pub functions: Vec<(Sym, Vec<Sort>, Sort)>,
}

struct TermData {
    node: TermNode,
    /// Free variables of the term (`Term::vars` semantics: `ite` conditions
    /// contribute their free variables).
    vars: Arc<BTreeSet<Sym>>,
    has_ite: bool,
}

struct FormulaData {
    node: FormulaNode,
    /// Free logical variables.
    free: Arc<BTreeSet<Sym>>,
    /// All variable names, free or bound (`subst::all_var_names` semantics).
    all_vars: Arc<BTreeSet<Sym>>,
    /// Literal occurrence count (`Formula::literal_count`).
    literals: usize,
}

/// The hash-consing arena plus persistent memo tables. One per process;
/// access through [`Interner::with`].
pub struct Interner {
    terms: Vec<TermData>,
    formulas: Vec<FormulaData>,
    term_dedup: HashMap<TermNode, TermId>,
    formula_dedup: HashMap<FormulaNode, FormulaId>,
    true_id: FormulaId,
    false_id: FormulaId,

    // Interned op contexts: canonical small keys for memo tables.
    subst_envs: HashMap<Vec<(Sym, TermId)>, u32>,
    rename_envs: HashMap<Vec<(Sym, Sym)>, u32>,

    memo_subst: HashMap<(FormulaId, u32), FormulaId>,
    memo_subst_term: HashMap<(TermId, u32), TermId>,
    memo_subst_const: HashMap<(FormulaId, Sym, TermId), FormulaId>,
    memo_subst_const_term: HashMap<(TermId, Sym, TermId), TermId>,
    memo_rename: HashMap<(FormulaId, u32), FormulaId>,
    memo_rename_term: HashMap<(TermId, u32), TermId>,
    memo_nnf: HashMap<(FormulaId, bool), FormulaId>,
    memo_ite: HashMap<FormulaId, FormulaId>,
    memo_mentions: HashMap<(FormulaId, Sym), bool>,
    memo_mentions_term: HashMap<(TermId, Sym), bool>,
    memo_ea: HashMap<FormulaId, bool>,
    memo_uni: HashMap<FormulaId, bool>,
    memo_prenex: HashMap<FormulaId, PrenexI>,

    /// Hash-consing hits: `mk`/`mk_term` calls answered from the dedup
    /// tables. Together with `cache_misses` this gives the intern-cache
    /// hit rate reported by the telemetry layer.
    cache_hits: u64,
    /// Hash-consing misses: calls that allocated a fresh arena node.
    cache_misses: u64,
}

fn empty_set() -> Arc<BTreeSet<Sym>> {
    static EMPTY: OnceLock<Arc<BTreeSet<Sym>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(BTreeSet::new())).clone()
}

/// Unions variable sets, sharing the `Arc` when at most one input is
/// non-empty or later inputs are subsets of the accumulator.
fn union_sets<'a>(sets: impl IntoIterator<Item = &'a Arc<BTreeSet<Sym>>>) -> Arc<BTreeSet<Sym>> {
    let mut acc: Option<Arc<BTreeSet<Sym>>> = None;
    for s in sets {
        if s.is_empty() {
            continue;
        }
        match &mut acc {
            None => acc = Some(s.clone()),
            Some(a) => {
                if !s.iter().all(|x| a.contains(x)) {
                    Arc::make_mut(a).extend(s.iter().copied());
                }
            }
        }
    }
    acc.unwrap_or_else(empty_set)
}

fn global() -> &'static Mutex<Interner> {
    static GLOBAL: OnceLock<Mutex<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Interner::new()))
}

impl Interner {
    fn new() -> Self {
        let mut it = Interner {
            terms: Vec::new(),
            formulas: Vec::new(),
            term_dedup: HashMap::new(),
            formula_dedup: HashMap::new(),
            true_id: FormulaId(0),
            false_id: FormulaId(1),
            subst_envs: HashMap::new(),
            rename_envs: HashMap::new(),
            memo_subst: HashMap::new(),
            memo_subst_term: HashMap::new(),
            memo_subst_const: HashMap::new(),
            memo_subst_const_term: HashMap::new(),
            memo_rename: HashMap::new(),
            memo_rename_term: HashMap::new(),
            memo_nnf: HashMap::new(),
            memo_ite: HashMap::new(),
            memo_mentions: HashMap::new(),
            memo_mentions_term: HashMap::new(),
            memo_ea: HashMap::new(),
            memo_uni: HashMap::new(),
            memo_prenex: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        };
        let t = it.mk(FormulaNode::True);
        let f = it.mk(FormulaNode::False);
        it.true_id = t;
        it.false_id = f;
        it
    }

    /// Runs `f` with exclusive access to the process-global interner.
    ///
    /// The lock is **not** reentrant: code inside the closure must use the
    /// `&mut Interner` it is given and never call the module-level wrappers
    /// (or any tree-level API that delegates to them, such as
    /// `subst::subst_vars`).
    pub fn with<R>(f: impl FnOnce(&mut Interner) -> R) -> R {
        let mut guard = global().lock().expect("interner poisoned");
        f(&mut guard)
    }

    // ------------------------------------------------------------------
    // Raw hash-consing constructors and accessors.
    // ------------------------------------------------------------------

    /// Interns a raw term node.
    pub fn mk_term(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.term_dedup.get(&node) {
            self.cache_hits += 1;
            return id;
        }
        self.cache_misses += 1;
        let (vars, has_ite) = match &node {
            TermNode::Var(v) => (Arc::new(BTreeSet::from([*v])), false),
            TermNode::App(_, args) => (
                union_sets(args.iter().map(|a| &self.terms[a.index()].vars)),
                args.iter().any(|a| self.terms[a.index()].has_ite),
            ),
            TermNode::Ite(c, a, b) => (
                union_sets([
                    &self.formulas[c.index()].free,
                    &self.terms[a.index()].vars,
                    &self.terms[b.index()].vars,
                ]),
                true,
            ),
        };
        let id = TermId(u32::try_from(self.terms.len()).expect("term arena overflow"));
        self.terms.push(TermData {
            node: node.clone(),
            vars,
            has_ite,
        });
        self.term_dedup.insert(node, id);
        id
    }

    /// Interns a raw formula node. No normalization: use the smart
    /// constructors ([`Interner::and`], [`Interner::not`], ...) where the
    /// tree code used `Formula::and` etc.
    pub fn mk(&mut self, node: FormulaNode) -> FormulaId {
        if let Some(&id) = self.formula_dedup.get(&node) {
            self.cache_hits += 1;
            return id;
        }
        self.cache_misses += 1;
        let (free, all_vars, literals) = match &node {
            FormulaNode::True | FormulaNode::False => (empty_set(), empty_set(), 0),
            FormulaNode::Rel(_, args) => {
                let vs = union_sets(args.iter().map(|a| &self.terms[a.index()].vars));
                (vs.clone(), vs, 1)
            }
            FormulaNode::Eq(a, b) => {
                let vs = union_sets([&self.terms[a.index()].vars, &self.terms[b.index()].vars]);
                (vs.clone(), vs, 1)
            }
            FormulaNode::Not(g) => {
                let d = &self.formulas[g.index()];
                (d.free.clone(), d.all_vars.clone(), d.literals)
            }
            FormulaNode::And(fs) | FormulaNode::Or(fs) => (
                union_sets(fs.iter().map(|g| &self.formulas[g.index()].free)),
                union_sets(fs.iter().map(|g| &self.formulas[g.index()].all_vars)),
                fs.iter().map(|g| self.formulas[g.index()].literals).sum(),
            ),
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => (
                union_sets([
                    &self.formulas[a.index()].free,
                    &self.formulas[b.index()].free,
                ]),
                union_sets([
                    &self.formulas[a.index()].all_vars,
                    &self.formulas[b.index()].all_vars,
                ]),
                self.formulas[a.index()].literals + self.formulas[b.index()].literals,
            ),
            FormulaNode::Forall(bs, g) | FormulaNode::Exists(bs, g) => {
                let d = &self.formulas[g.index()];
                let free = if bs.iter().any(|b| d.free.contains(&b.var)) {
                    let mut s = (*d.free).clone();
                    for b in bs {
                        s.remove(&b.var);
                    }
                    Arc::new(s)
                } else {
                    d.free.clone()
                };
                let mut av = (*d.all_vars).clone();
                av.extend(bs.iter().map(|b| b.var));
                (free, Arc::new(av), d.literals)
            }
        };
        let id = FormulaId(u32::try_from(self.formulas.len()).expect("formula arena overflow"));
        self.formulas.push(FormulaData {
            node: node.clone(),
            free,
            all_vars,
            literals,
        });
        self.formula_dedup.insert(node, id);
        id
    }

    /// The node of an interned formula.
    pub fn node(&self, f: FormulaId) -> &FormulaNode {
        &self.formulas[f.index()].node
    }

    /// The node of an interned term.
    pub fn term_node(&self, t: TermId) -> &TermNode {
        &self.terms[t.index()].node
    }

    /// The id of `true`.
    pub fn true_id(&self) -> FormulaId {
        self.true_id
    }

    /// The id of `false`.
    pub fn false_id(&self) -> FormulaId {
        self.false_id
    }

    /// Cached free variables of a formula.
    pub fn free_vars(&self, f: FormulaId) -> Arc<BTreeSet<Sym>> {
        self.formulas[f.index()].free.clone()
    }

    /// Cached set of all variable names (free or bound) of a formula.
    pub fn all_vars(&self, f: FormulaId) -> Arc<BTreeSet<Sym>> {
        self.formulas[f.index()].all_vars.clone()
    }

    /// Cached free variables of a term.
    pub fn term_vars(&self, t: TermId) -> Arc<BTreeSet<Sym>> {
        self.terms[t.index()].vars.clone()
    }

    /// Cached literal occurrence count.
    pub fn literal_count(&self, f: FormulaId) -> usize {
        self.formulas[f.index()].literals
    }

    /// `(hits, misses)` of the hash-consing tables, cumulative for the
    /// process. Only a profile of the whole process (the CLI's
    /// `--profile`) reports them: a per-request count cannot be read off
    /// a table every request shares.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    // ------------------------------------------------------------------
    // Lossless bridges.
    // ------------------------------------------------------------------

    /// Interns a tree term, variant for variant.
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        match t {
            Term::Var(v) => self.mk_term(TermNode::Var(*v)),
            Term::App(f, args) => {
                let a: Vec<TermId> = args.iter().map(|x| self.intern_term(x)).collect();
                self.mk_term(TermNode::App(*f, a))
            }
            Term::Ite(c, a, b) => {
                let c = self.intern(c);
                let a = self.intern_term(a);
                let b = self.intern_term(b);
                self.mk_term(TermNode::Ite(c, a, b))
            }
        }
    }

    /// Interns a tree formula, variant for variant (no normalization), so
    /// `resolve(intern(f)) == f`.
    pub fn intern(&mut self, f: &Formula) -> FormulaId {
        match f {
            Formula::True => self.true_id,
            Formula::False => self.false_id,
            Formula::Rel(r, args) => {
                let a: Vec<TermId> = args.iter().map(|x| self.intern_term(x)).collect();
                self.mk(FormulaNode::Rel(*r, a))
            }
            Formula::Eq(a, b) => {
                let a = self.intern_term(a);
                let b = self.intern_term(b);
                self.mk(FormulaNode::Eq(a, b))
            }
            Formula::Not(g) => {
                let g = self.intern(g);
                self.mk(FormulaNode::Not(g))
            }
            Formula::And(fs) => {
                let gs: Vec<FormulaId> = fs.iter().map(|g| self.intern(g)).collect();
                self.mk(FormulaNode::And(gs))
            }
            Formula::Or(fs) => {
                let gs: Vec<FormulaId> = fs.iter().map(|g| self.intern(g)).collect();
                self.mk(FormulaNode::Or(gs))
            }
            Formula::Implies(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk(FormulaNode::Implies(a, b))
            }
            Formula::Iff(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk(FormulaNode::Iff(a, b))
            }
            Formula::Forall(bs, g) => {
                let g = self.intern(g);
                self.mk(FormulaNode::Forall(bs.clone(), g))
            }
            Formula::Exists(bs, g) => {
                let g = self.intern(g);
                self.mk(FormulaNode::Exists(bs.clone(), g))
            }
        }
    }

    /// Rebuilds the tree term.
    pub fn resolve_term(&self, t: TermId) -> Term {
        match &self.terms[t.index()].node {
            TermNode::Var(v) => Term::Var(*v),
            TermNode::App(f, args) => {
                Term::App(*f, args.iter().map(|a| self.resolve_term(*a)).collect())
            }
            TermNode::Ite(c, a, b) => Term::Ite(
                Box::new(self.resolve(*c)),
                Box::new(self.resolve_term(*a)),
                Box::new(self.resolve_term(*b)),
            ),
        }
    }

    /// Rebuilds the tree formula, variant for variant.
    pub fn resolve(&self, f: FormulaId) -> Formula {
        match &self.formulas[f.index()].node {
            FormulaNode::True => Formula::True,
            FormulaNode::False => Formula::False,
            FormulaNode::Rel(r, args) => {
                Formula::Rel(*r, args.iter().map(|a| self.resolve_term(*a)).collect())
            }
            FormulaNode::Eq(a, b) => Formula::Eq(self.resolve_term(*a), self.resolve_term(*b)),
            FormulaNode::Not(g) => Formula::Not(Box::new(self.resolve(*g))),
            FormulaNode::And(fs) => Formula::And(fs.iter().map(|g| self.resolve(*g)).collect()),
            FormulaNode::Or(fs) => Formula::Or(fs.iter().map(|g| self.resolve(*g)).collect()),
            FormulaNode::Implies(a, b) => {
                Formula::Implies(Box::new(self.resolve(*a)), Box::new(self.resolve(*b)))
            }
            FormulaNode::Iff(a, b) => {
                Formula::Iff(Box::new(self.resolve(*a)), Box::new(self.resolve(*b)))
            }
            FormulaNode::Forall(bs, g) => Formula::Forall(bs.clone(), Box::new(self.resolve(*g))),
            FormulaNode::Exists(bs, g) => Formula::Exists(bs.clone(), Box::new(self.resolve(*g))),
        }
    }

    // ------------------------------------------------------------------
    // Smart constructors (exact ports of the `Formula` ones).
    // ------------------------------------------------------------------

    /// A logical variable term.
    pub fn var(&mut self, v: Sym) -> TermId {
        self.mk_term(TermNode::Var(v))
    }

    /// A constant / program variable term.
    pub fn cst(&mut self, name: Sym) -> TermId {
        self.mk_term(TermNode::App(name, Vec::new()))
    }

    /// A function application term.
    pub fn app(&mut self, f: Sym, args: Vec<TermId>) -> TermId {
        self.mk_term(TermNode::App(f, args))
    }

    /// A relation atom.
    pub fn rel(&mut self, r: Sym, args: Vec<TermId>) -> FormulaId {
        self.mk(FormulaNode::Rel(r, args))
    }

    /// An equality atom.
    pub fn eq(&mut self, a: TermId, b: TermId) -> FormulaId {
        self.mk(FormulaNode::Eq(a, b))
    }

    /// Negation, simplifying double negations and constants (mirror of
    /// [`Formula::not`]).
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        match &self.formulas[f.index()].node {
            FormulaNode::True => self.false_id,
            FormulaNode::False => self.true_id,
            FormulaNode::Not(inner) => *inner,
            _ => self.mk(FormulaNode::Not(f)),
        }
    }

    /// Flattening conjunction (mirror of [`Formula::and`]).
    pub fn and(&mut self, fs: impl IntoIterator<Item = FormulaId>) -> FormulaId {
        let mut out: Vec<FormulaId> = Vec::new();
        for f in fs {
            match &self.formulas[f.index()].node {
                FormulaNode::True => {}
                FormulaNode::False => return self.false_id,
                FormulaNode::And(inner) => out.extend(inner.iter().copied()),
                _ => out.push(f),
            }
        }
        match out.len() {
            0 => self.true_id,
            1 => out[0],
            _ => self.mk(FormulaNode::And(out)),
        }
    }

    /// Flattening disjunction (mirror of [`Formula::or`]).
    pub fn or(&mut self, fs: impl IntoIterator<Item = FormulaId>) -> FormulaId {
        let mut out: Vec<FormulaId> = Vec::new();
        for f in fs {
            match &self.formulas[f.index()].node {
                FormulaNode::False => {}
                FormulaNode::True => return self.true_id,
                FormulaNode::Or(inner) => out.extend(inner.iter().copied()),
                _ => out.push(f),
            }
        }
        match out.len() {
            0 => self.false_id,
            1 => out[0],
            _ => self.mk(FormulaNode::Or(out)),
        }
    }

    /// Implication with constant simplification (mirror of
    /// [`Formula::implies`]).
    pub fn implies(&mut self, lhs: FormulaId, rhs: FormulaId) -> FormulaId {
        if lhs == self.true_id {
            return rhs;
        }
        if lhs == self.false_id || rhs == self.true_id {
            return self.true_id;
        }
        if rhs == self.false_id {
            return self.not(lhs);
        }
        self.mk(FormulaNode::Implies(lhs, rhs))
    }

    /// Bi-implication with constant simplification (mirror of
    /// [`Formula::iff`]).
    pub fn iff(&mut self, lhs: FormulaId, rhs: FormulaId) -> FormulaId {
        if lhs == self.true_id {
            return rhs;
        }
        if rhs == self.true_id {
            return lhs;
        }
        if lhs == self.false_id {
            return self.not(rhs);
        }
        if rhs == self.false_id {
            return self.not(lhs);
        }
        self.mk(FormulaNode::Iff(lhs, rhs))
    }

    /// Universal quantification with nested-quantifier merging (mirror of
    /// [`Formula::forall`]).
    pub fn forall(&mut self, bindings: Vec<Binding>, body: FormulaId) -> FormulaId {
        if bindings.is_empty() {
            return body;
        }
        if body == self.true_id {
            return self.true_id;
        }
        if body == self.false_id {
            return self.false_id;
        }
        let merged = match &self.formulas[body.index()].node {
            FormulaNode::Forall(inner, b) => Some((inner.clone(), *b)),
            _ => None,
        };
        match merged {
            Some((inner, b)) => {
                let mut bs = bindings;
                bs.extend(inner);
                self.mk(FormulaNode::Forall(bs, b))
            }
            None => self.mk(FormulaNode::Forall(bindings, body)),
        }
    }

    /// Existential quantification with nested-quantifier merging (mirror of
    /// [`Formula::exists`]).
    pub fn exists(&mut self, bindings: Vec<Binding>, body: FormulaId) -> FormulaId {
        if bindings.is_empty() {
            return body;
        }
        if body == self.true_id {
            return self.true_id;
        }
        if body == self.false_id {
            return self.false_id;
        }
        let merged = match &self.formulas[body.index()].node {
            FormulaNode::Exists(inner, b) => Some((inner.clone(), *b)),
            _ => None,
        };
        match merged {
            Some((inner, b)) => {
                let mut bs = bindings;
                bs.extend(inner);
                self.mk(FormulaNode::Exists(bs, b))
            }
            None => self.mk(FormulaNode::Exists(bindings, body)),
        }
    }

    /// The conjuncts of a top-level conjunction.
    pub fn conjuncts(&self, f: FormulaId) -> Vec<FormulaId> {
        match &self.formulas[f.index()].node {
            FormulaNode::And(fs) => fs.clone(),
            _ => vec![f],
        }
    }

    /// Whether the formula mentions relation/function symbol `name`
    /// (memoized).
    pub fn mentions(&mut self, f: FormulaId, name: Sym) -> bool {
        if let Some(&r) = self.memo_mentions.get(&(f, name)) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let r = match node {
            FormulaNode::True | FormulaNode::False => false,
            FormulaNode::Rel(r, args) => {
                r == name || {
                    let mut found = false;
                    for t in args {
                        if self.term_mentions(t, name) {
                            found = true;
                            break;
                        }
                    }
                    found
                }
            }
            FormulaNode::Eq(a, b) => self.term_mentions(a, name) || self.term_mentions(b, name),
            FormulaNode::Not(g) | FormulaNode::Forall(_, g) | FormulaNode::Exists(_, g) => {
                self.mentions(g, name)
            }
            FormulaNode::And(fs) | FormulaNode::Or(fs) => {
                let mut found = false;
                for g in fs {
                    if self.mentions(g, name) {
                        found = true;
                        break;
                    }
                }
                found
            }
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                self.mentions(a, name) || self.mentions(b, name)
            }
        };
        self.memo_mentions.insert((f, name), r);
        r
    }

    /// Whether the term mentions function symbol or constant `name`
    /// (memoized).
    pub fn term_mentions(&mut self, t: TermId, name: Sym) -> bool {
        if let Some(&r) = self.memo_mentions_term.get(&(t, name)) {
            return r;
        }
        let node = self.terms[t.index()].node.clone();
        let r = match node {
            TermNode::Var(_) => false,
            TermNode::App(f, args) => {
                f == name || {
                    let mut found = false;
                    for a in args {
                        if self.term_mentions(a, name) {
                            found = true;
                            break;
                        }
                    }
                    found
                }
            }
            TermNode::Ite(c, a, b) => {
                self.mentions(c, name) || self.term_mentions(a, name) || self.term_mentions(b, name)
            }
        };
        self.memo_mentions_term.insert((t, name), r);
        r
    }
}

// ----------------------------------------------------------------------
// Module-level convenience wrappers (each takes the global lock once).
// ----------------------------------------------------------------------

/// Interns a tree formula into the global arena.
pub fn intern(f: &Formula) -> FormulaId {
    Interner::with(|it| it.intern(f))
}

/// Rebuilds the tree formula for an id in the global arena.
pub fn resolve(f: FormulaId) -> Formula {
    Interner::with(|it| it.resolve(f))
}

/// Interns a tree term into the global arena.
pub fn intern_term(t: &Term) -> TermId {
    Interner::with(|it| it.intern_term(t))
}

/// Rebuilds the tree term for an id in the global arena.
pub fn resolve_term(t: TermId) -> Term {
    Interner::with(|it| it.resolve_term(t))
}

/// The id of `Formula::True` in the global arena.
pub fn true_id() -> FormulaId {
    Interner::with(|it| it.true_id())
}

/// The id of `Formula::False` in the global arena.
pub fn false_id() -> FormulaId {
    Interner::with(|it| it.false_id())
}

/// `(hits, misses)` of the global hash-consing tables.
pub fn cache_stats() -> (u64, u64) {
    Interner::with(|it| it.cache_stats())
}

// ----------------------------------------------------------------------
// Substitution family: exact ports of `crate::subst` tree algorithms.
// ----------------------------------------------------------------------

impl Interner {
    /// Interns a substitution environment into a dense memo key.
    fn subst_env_key(&mut self, map: &BTreeMap<Sym, TermId>) -> u32 {
        let v: Vec<(Sym, TermId)> = map.iter().map(|(k, t)| (*k, *t)).collect();
        let next = u32::try_from(self.subst_envs.len()).expect("env table overflow");
        *self.subst_envs.entry(v).or_insert(next)
    }

    /// Substitutes logical variables in a term (port of
    /// `subst::subst_term_vars`).
    pub fn subst_term_vars(&mut self, t: TermId, map: &BTreeMap<Sym, TermId>) -> TermId {
        if map.is_empty() {
            return t;
        }
        let env = self.subst_env_key(map);
        self.subst_term_rec(t, map, env)
    }

    fn subst_term_rec(&mut self, t: TermId, map: &BTreeMap<Sym, TermId>, env: u32) -> TermId {
        if let Some(&r) = self.memo_subst_term.get(&(t, env)) {
            return r;
        }
        let node = self.terms[t.index()].node.clone();
        let out = match node {
            TermNode::Var(v) => map.get(&v).copied().unwrap_or(t),
            TermNode::App(f, args) => {
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|x| self.subst_term_rec(x, map, env))
                    .collect();
                self.mk_term(TermNode::App(f, a))
            }
            TermNode::Ite(c, a, b) => {
                let c = self.subst_rec(c, map, env);
                let a = self.subst_term_rec(a, map, env);
                let b = self.subst_term_rec(b, map, env);
                self.mk_term(TermNode::Ite(c, a, b))
            }
        };
        self.memo_subst_term.insert((t, env), out);
        out
    }

    /// Capture-avoiding substitution of logical variables by terms (port of
    /// `subst::subst_vars`, memoized by `(formula, environment)`).
    pub fn subst_vars(&mut self, f: FormulaId, map: &BTreeMap<Sym, TermId>) -> FormulaId {
        if map.is_empty() {
            return f;
        }
        let env = self.subst_env_key(map);
        self.subst_rec(f, map, env)
    }

    fn subst_rec(&mut self, f: FormulaId, map: &BTreeMap<Sym, TermId>, env: u32) -> FormulaId {
        if let Some(&r) = self.memo_subst.get(&(f, env)) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let out = match node {
            FormulaNode::True | FormulaNode::False => f,
            FormulaNode::Rel(r, args) => {
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|t| self.subst_term_rec(t, map, env))
                    .collect();
                self.mk(FormulaNode::Rel(r, a))
            }
            FormulaNode::Eq(a, b) => {
                let a = self.subst_term_rec(a, map, env);
                let b = self.subst_term_rec(b, map, env);
                self.mk(FormulaNode::Eq(a, b))
            }
            FormulaNode::Not(g) => {
                let g = self.subst_rec(g, map, env);
                self.mk(FormulaNode::Not(g))
            }
            FormulaNode::And(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.subst_rec(g, map, env))
                    .collect();
                self.mk(FormulaNode::And(gs))
            }
            FormulaNode::Or(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.subst_rec(g, map, env))
                    .collect();
                self.mk(FormulaNode::Or(gs))
            }
            FormulaNode::Implies(a, b) => {
                let a = self.subst_rec(a, map, env);
                let b = self.subst_rec(b, map, env);
                self.mk(FormulaNode::Implies(a, b))
            }
            FormulaNode::Iff(a, b) => {
                let a = self.subst_rec(a, map, env);
                let b = self.subst_rec(b, map, env);
                self.mk(FormulaNode::Iff(a, b))
            }
            FormulaNode::Forall(bs, body) => {
                let (bs, body) = self.subst_under_binders(&bs, body, map);
                self.mk(FormulaNode::Forall(bs, body))
            }
            FormulaNode::Exists(bs, body) => {
                let (bs, body) = self.subst_under_binders(&bs, body, map);
                self.mk(FormulaNode::Exists(bs, body))
            }
        };
        self.memo_subst.insert((f, env), out);
        out
    }

    /// Port of `subst::subst_under_binders`: drop shadowed mappings, rename
    /// binders that would capture replacement variables (the cached
    /// `all_vars`/`term_vars` sets replace the tree walk over the body).
    fn subst_under_binders(
        &mut self,
        bs: &[Binding],
        body: FormulaId,
        map: &BTreeMap<Sym, TermId>,
    ) -> (Vec<Binding>, FormulaId) {
        let mut inner: BTreeMap<Sym, TermId> = map
            .iter()
            .filter(|(k, _)| !bs.iter().any(|b| &b.var == *k))
            .map(|(k, v)| (*k, *v))
            .collect();
        if inner.is_empty() {
            return (bs.to_vec(), body);
        }
        let mut replacement_vars: BTreeSet<Sym> = BTreeSet::new();
        for t in inner.values() {
            replacement_vars.extend(self.terms[t.index()].vars.iter().copied());
        }
        let mut used = replacement_vars.clone();
        used.extend(self.formulas[body.index()].all_vars.iter().copied());
        used.extend(inner.keys().copied());
        let mut new_bs = Vec::with_capacity(bs.len());
        for b in bs {
            if replacement_vars.contains(&b.var) {
                let fresh = fresh_name(b.var.as_str(), &mut used);
                let fv = self.var(fresh);
                inner.insert(b.var, fv);
                new_bs.push(Binding::new(fresh, b.sort));
            } else {
                new_bs.push(b.clone());
            }
        }
        let env = self.subst_env_key(&inner);
        let body = self.subst_rec(body, &inner, env);
        (new_bs, body)
    }

    /// Replaces the nullary function symbol `name` by `term`, renaming any
    /// binder that would capture a variable of `term` (port of
    /// `subst::subst_constant`, memoized by `(formula, name, term)`).
    pub fn subst_constant(&mut self, f: FormulaId, name: Sym, term: TermId) -> FormulaId {
        let tvars = self.terms[term.index()].vars.clone();
        self.subst_const_rec(f, name, term, &tvars)
    }

    fn subst_const_term(
        &mut self,
        t: TermId,
        name: Sym,
        term: TermId,
        tvars: &BTreeSet<Sym>,
    ) -> TermId {
        if let Some(&r) = self.memo_subst_const_term.get(&(t, name, term)) {
            return r;
        }
        let node = self.terms[t.index()].node.clone();
        let out = match node {
            TermNode::Var(_) => t,
            TermNode::App(g, args) if g == name && args.is_empty() => term,
            TermNode::App(g, args) => {
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|x| self.subst_const_term(x, name, term, tvars))
                    .collect();
                self.mk_term(TermNode::App(g, a))
            }
            TermNode::Ite(c, a, b) => {
                let c = self.subst_const_rec(c, name, term, tvars);
                let a = self.subst_const_term(a, name, term, tvars);
                let b = self.subst_const_term(b, name, term, tvars);
                self.mk_term(TermNode::Ite(c, a, b))
            }
        };
        self.memo_subst_const_term.insert((t, name, term), out);
        out
    }

    fn subst_const_rec(
        &mut self,
        f: FormulaId,
        name: Sym,
        term: TermId,
        tvars: &BTreeSet<Sym>,
    ) -> FormulaId {
        if let Some(&r) = self.memo_subst_const.get(&(f, name, term)) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let out = match node {
            FormulaNode::True | FormulaNode::False => f,
            FormulaNode::Rel(r, args) => {
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|t| self.subst_const_term(t, name, term, tvars))
                    .collect();
                self.mk(FormulaNode::Rel(r, a))
            }
            FormulaNode::Eq(a, b) => {
                let a = self.subst_const_term(a, name, term, tvars);
                let b = self.subst_const_term(b, name, term, tvars);
                self.mk(FormulaNode::Eq(a, b))
            }
            FormulaNode::Not(g) => {
                let g = self.subst_const_rec(g, name, term, tvars);
                self.mk(FormulaNode::Not(g))
            }
            FormulaNode::And(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.subst_const_rec(g, name, term, tvars))
                    .collect();
                self.mk(FormulaNode::And(gs))
            }
            FormulaNode::Or(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.subst_const_rec(g, name, term, tvars))
                    .collect();
                self.mk(FormulaNode::Or(gs))
            }
            FormulaNode::Implies(a, b) => {
                let a = self.subst_const_rec(a, name, term, tvars);
                let b = self.subst_const_rec(b, name, term, tvars);
                self.mk(FormulaNode::Implies(a, b))
            }
            FormulaNode::Iff(a, b) => {
                let a = self.subst_const_rec(a, name, term, tvars);
                let b = self.subst_const_rec(b, name, term, tvars);
                self.mk(FormulaNode::Iff(a, b))
            }
            FormulaNode::Forall(bs, body) | FormulaNode::Exists(bs, body) => {
                let forall = matches!(self.formulas[f.index()].node, FormulaNode::Forall(..));
                if !self.mentions(f, name) {
                    f
                } else {
                    let needs_rename = bs.iter().any(|b| tvars.contains(&b.var));
                    let (bs, body) = if needs_rename {
                        let mut used = tvars.clone();
                        used.extend(self.formulas[body.index()].all_vars.iter().copied());
                        let mut renames = BTreeMap::new();
                        let mut new_bs = Vec::with_capacity(bs.len());
                        for b in &bs {
                            if tvars.contains(&b.var) {
                                let fresh = fresh_name(b.var.as_str(), &mut used);
                                let fv = self.var(fresh);
                                renames.insert(b.var, fv);
                                new_bs.push(Binding::new(fresh, b.sort));
                            } else {
                                new_bs.push(b.clone());
                            }
                        }
                        let body = self.subst_vars(body, &renames);
                        (new_bs, body)
                    } else {
                        (bs, body)
                    };
                    let new_body = self.subst_const_rec(body, name, term, tvars);
                    if forall {
                        self.mk(FormulaNode::Forall(bs, new_body))
                    } else {
                        self.mk(FormulaNode::Exists(bs, new_body))
                    }
                }
            }
        };
        self.memo_subst_const.insert((f, name, term), out);
        out
    }

    /// Renames relation/function symbols (port of
    /// `ivy_rml::rename_symbols`; binders are untouched because symbol
    /// renaming cannot capture logical variables). Memoized persistently by
    /// `(formula, rename map)` — this is what collapses the transition
    /// compiler's repeated axiom re-renames into lookups.
    pub fn rename_symbols(&mut self, f: FormulaId, map: &BTreeMap<Sym, Sym>) -> FormulaId {
        if map.is_empty() {
            return f;
        }
        let v: Vec<(Sym, Sym)> = map.iter().map(|(k, t)| (*k, *t)).collect();
        let next = u32::try_from(self.rename_envs.len()).expect("env table overflow");
        let env = *self.rename_envs.entry(v).or_insert(next);
        self.rename_rec(f, map, env)
    }

    fn rename_rec(&mut self, f: FormulaId, map: &BTreeMap<Sym, Sym>, env: u32) -> FormulaId {
        if let Some(&r) = self.memo_rename.get(&(f, env)) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let out = match node {
            FormulaNode::True | FormulaNode::False => f,
            FormulaNode::Rel(r, args) => {
                let r = map.get(&r).copied().unwrap_or(r);
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|t| self.rename_term_rec(t, map, env))
                    .collect();
                self.mk(FormulaNode::Rel(r, a))
            }
            FormulaNode::Eq(a, b) => {
                let a = self.rename_term_rec(a, map, env);
                let b = self.rename_term_rec(b, map, env);
                self.mk(FormulaNode::Eq(a, b))
            }
            FormulaNode::Not(g) => {
                let g = self.rename_rec(g, map, env);
                self.mk(FormulaNode::Not(g))
            }
            FormulaNode::And(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.rename_rec(g, map, env))
                    .collect();
                self.mk(FormulaNode::And(gs))
            }
            FormulaNode::Or(fs) => {
                let gs: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.rename_rec(g, map, env))
                    .collect();
                self.mk(FormulaNode::Or(gs))
            }
            FormulaNode::Implies(a, b) => {
                let a = self.rename_rec(a, map, env);
                let b = self.rename_rec(b, map, env);
                self.mk(FormulaNode::Implies(a, b))
            }
            FormulaNode::Iff(a, b) => {
                let a = self.rename_rec(a, map, env);
                let b = self.rename_rec(b, map, env);
                self.mk(FormulaNode::Iff(a, b))
            }
            FormulaNode::Forall(bs, g) => {
                let g = self.rename_rec(g, map, env);
                self.mk(FormulaNode::Forall(bs, g))
            }
            FormulaNode::Exists(bs, g) => {
                let g = self.rename_rec(g, map, env);
                self.mk(FormulaNode::Exists(bs, g))
            }
        };
        self.memo_rename.insert((f, env), out);
        out
    }

    /// Term-level symbol renaming (port of `ivy_rml`'s `rename_term`).
    pub fn rename_term_symbols(&mut self, t: TermId, map: &BTreeMap<Sym, Sym>) -> TermId {
        if map.is_empty() {
            return t;
        }
        let v: Vec<(Sym, Sym)> = map.iter().map(|(k, s)| (*k, *s)).collect();
        let next = u32::try_from(self.rename_envs.len()).expect("env table overflow");
        let env = *self.rename_envs.entry(v).or_insert(next);
        self.rename_term_rec(t, map, env)
    }

    fn rename_term_rec(&mut self, t: TermId, map: &BTreeMap<Sym, Sym>, env: u32) -> TermId {
        if let Some(&r) = self.memo_rename_term.get(&(t, env)) {
            return r;
        }
        let node = self.terms[t.index()].node.clone();
        let out = match node {
            TermNode::Var(_) => t,
            TermNode::App(f, args) => {
                let f = map.get(&f).copied().unwrap_or(f);
                let a: Vec<TermId> = args
                    .into_iter()
                    .map(|x| self.rename_term_rec(x, map, env))
                    .collect();
                self.mk_term(TermNode::App(f, a))
            }
            TermNode::Ite(c, a, b) => {
                let c = self.rename_rec(c, map, env);
                let a = self.rename_term_rec(a, map, env);
                let b = self.rename_term_rec(b, map, env);
                self.mk_term(TermNode::Ite(c, a, b))
            }
        };
        self.memo_rename_term.insert((t, env), out);
        out
    }
}

// ----------------------------------------------------------------------
// Normal forms: exact ports of `crate::xform` tree algorithms.
// ----------------------------------------------------------------------

impl Interner {
    /// Negation normal form (port of `xform::nnf`, memoized by
    /// `(formula, polarity)`).
    pub fn nnf(&mut self, f: FormulaId) -> FormulaId {
        self.nnf_polarity(f, true)
    }

    fn nnf_polarity(&mut self, f: FormulaId, positive: bool) -> FormulaId {
        if let Some(&r) = self.memo_nnf.get(&(f, positive)) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let out = match node {
            FormulaNode::True => {
                if positive {
                    self.true_id
                } else {
                    self.false_id
                }
            }
            FormulaNode::False => {
                if positive {
                    self.false_id
                } else {
                    self.true_id
                }
            }
            FormulaNode::Rel(..) | FormulaNode::Eq(..) => {
                if positive {
                    f
                } else {
                    self.mk(FormulaNode::Not(f))
                }
            }
            FormulaNode::Not(g) => self.nnf_polarity(g, !positive),
            FormulaNode::And(fs) => {
                let parts: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.nnf_polarity(g, positive))
                    .collect();
                if positive {
                    self.and(parts)
                } else {
                    self.or(parts)
                }
            }
            FormulaNode::Or(fs) => {
                let parts: Vec<FormulaId> = fs
                    .into_iter()
                    .map(|g| self.nnf_polarity(g, positive))
                    .collect();
                if positive {
                    self.or(parts)
                } else {
                    self.and(parts)
                }
            }
            FormulaNode::Implies(a, b) => {
                if positive {
                    let na = self.nnf_polarity(a, false);
                    let pb = self.nnf_polarity(b, true);
                    self.or([na, pb])
                } else {
                    let pa = self.nnf_polarity(a, true);
                    let nb = self.nnf_polarity(b, false);
                    self.and([pa, nb])
                }
            }
            FormulaNode::Iff(a, b) => {
                let pa = self.nnf_polarity(a, true);
                let na = self.nnf_polarity(a, false);
                let pb = self.nnf_polarity(b, true);
                let nb = self.nnf_polarity(b, false);
                if positive {
                    let both = self.and([pa, pb]);
                    let neither = self.and([na, nb]);
                    self.or([both, neither])
                } else {
                    let left = self.and([pa, nb]);
                    let right = self.and([na, pb]);
                    self.or([left, right])
                }
            }
            FormulaNode::Forall(bs, g) => {
                let body = self.nnf_polarity(g, positive);
                if positive {
                    self.forall(bs, body)
                } else {
                    self.exists(bs, body)
                }
            }
            FormulaNode::Exists(bs, g) => {
                let body = self.nnf_polarity(g, positive);
                if positive {
                    self.exists(bs, body)
                } else {
                    self.forall(bs, body)
                }
            }
        };
        self.memo_nnf.insert((f, positive), out);
        out
    }

    /// Eliminates `ite` terms by case-splitting enclosing atoms (port of
    /// `xform::eliminate_ite`, memoized by id).
    pub fn eliminate_ite(&mut self, f: FormulaId) -> FormulaId {
        if let Some(&r) = self.memo_ite.get(&f) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let out = match node {
            FormulaNode::True | FormulaNode::False => f,
            FormulaNode::Rel(..) | FormulaNode::Eq(..) => self.split_atom(f),
            FormulaNode::Not(g) => {
                let g = self.eliminate_ite(g);
                self.not(g)
            }
            FormulaNode::And(fs) => {
                let gs: Vec<FormulaId> = fs.into_iter().map(|g| self.eliminate_ite(g)).collect();
                self.and(gs)
            }
            FormulaNode::Or(fs) => {
                let gs: Vec<FormulaId> = fs.into_iter().map(|g| self.eliminate_ite(g)).collect();
                self.or(gs)
            }
            FormulaNode::Implies(a, b) => {
                let a = self.eliminate_ite(a);
                let b = self.eliminate_ite(b);
                self.implies(a, b)
            }
            FormulaNode::Iff(a, b) => {
                let a = self.eliminate_ite(a);
                let b = self.eliminate_ite(b);
                self.iff(a, b)
            }
            FormulaNode::Forall(bs, g) => {
                let g = self.eliminate_ite(g);
                self.forall(bs, g)
            }
            FormulaNode::Exists(bs, g) => {
                let g = self.eliminate_ite(g);
                self.exists(bs, g)
            }
        };
        self.memo_ite.insert(f, out);
        out
    }

    fn split_atom(&mut self, atom: FormulaId) -> FormulaId {
        let args: Vec<TermId> = match &self.formulas[atom.index()].node {
            FormulaNode::Rel(_, args) => args.clone(),
            FormulaNode::Eq(a, b) => vec![*a, *b],
            _ => unreachable!("split_atom only called on atoms"),
        };
        for (idx, t) in args.iter().enumerate() {
            if !self.terms[t.index()].has_ite {
                continue;
            }
            if let Some((cond, then_t, else_t)) = self.find_ite(*t) {
                let then_arg = self.replace_ite_once(args[idx], then_t);
                let else_arg = self.replace_ite_once(args[idx], else_t);
                let then_atom = self.replace_arg(atom, idx, then_arg);
                let else_atom = self.replace_arg(atom, idx, else_arg);
                let cond = self.eliminate_ite(cond);
                let then_split = self.split_atom(then_atom);
                let else_split = self.split_atom(else_atom);
                let ncond = self.not(cond);
                let pos = self.and([cond, then_split]);
                let neg = self.and([ncond, else_split]);
                return self.or([pos, neg]);
            }
        }
        atom
    }

    /// Finds the first (leftmost, outermost) `ite` in a term.
    fn find_ite(&self, t: TermId) -> Option<(FormulaId, TermId, TermId)> {
        match &self.terms[t.index()].node {
            TermNode::Var(_) => None,
            TermNode::App(_, args) => args.iter().find_map(|a| self.find_ite(*a)),
            TermNode::Ite(c, a, b) => Some((*c, *a, *b)),
        }
    }

    /// Replaces the first `ite` in `t` by `branch`.
    fn replace_ite_once(&mut self, t: TermId, branch: TermId) -> TermId {
        fn go(it: &mut Interner, t: TermId, branch: TermId, done: &mut bool) -> TermId {
            if *done {
                return t;
            }
            let node = it.terms[t.index()].node.clone();
            match node {
                TermNode::Var(_) => t,
                TermNode::App(f, args) => {
                    let a: Vec<TermId> =
                        args.into_iter().map(|x| go(it, x, branch, done)).collect();
                    it.mk_term(TermNode::App(f, a))
                }
                TermNode::Ite(..) => {
                    *done = true;
                    branch
                }
            }
        }
        let mut done = false;
        go(self, t, branch, &mut done)
    }

    fn replace_arg(&mut self, atom: FormulaId, idx: usize, new_arg: TermId) -> FormulaId {
        let node = self.formulas[atom.index()].node.clone();
        match node {
            FormulaNode::Rel(r, mut args) => {
                args[idx] = new_arg;
                self.mk(FormulaNode::Rel(r, args))
            }
            FormulaNode::Eq(a, b) => {
                if idx == 0 {
                    self.mk(FormulaNode::Eq(new_arg, b))
                } else {
                    self.mk(FormulaNode::Eq(a, new_arg))
                }
            }
            _ => unreachable!("replace_arg only called on atoms"),
        }
    }

    /// Prenex normal form (port of `xform::prenex`: NNF first, sibling
    /// prefixes merged ∃-blocks-first; memoized by input id — the whole
    /// computation is a pure function of the formula).
    pub fn prenex(&mut self, f: FormulaId) -> PrenexI {
        if let Some(p) = self.memo_prenex.get(&f) {
            return p.clone();
        }
        let n = self.nnf(f);
        let mut used: BTreeSet<Sym> = (*self.formulas[n.index()].free).clone();
        let mut p = self.prenex_rec(n, &mut used);
        normalize_blocks(&mut p.prefix);
        self.memo_prenex.insert(f, p.clone());
        p
    }

    fn prenex_rec(&mut self, f: FormulaId, used: &mut BTreeSet<Sym>) -> PrenexI {
        let node = self.formulas[f.index()].node.clone();
        match node {
            FormulaNode::Forall(bs, g) | FormulaNode::Exists(bs, g) => {
                let forall = matches!(self.formulas[f.index()].node, FormulaNode::Forall(..));
                let mut renames = BTreeMap::new();
                let mut fresh_bs = Vec::with_capacity(bs.len());
                for b in &bs {
                    let name = fresh_name(b.var.as_str(), used);
                    if name != b.var {
                        let fv = self.var(name);
                        renames.insert(b.var, fv);
                    }
                    fresh_bs.push(Binding::new(name, b.sort));
                }
                let body = if renames.is_empty() {
                    g
                } else {
                    self.subst_vars(g, &renames)
                };
                let mut inner = self.prenex_rec(body, used);
                let block = if forall {
                    Block::Forall(fresh_bs)
                } else {
                    Block::Exists(fresh_bs)
                };
                inner.prefix.insert(0, block);
                inner
            }
            FormulaNode::And(fs) => self.merge_siblings(&fs, used, true),
            FormulaNode::Or(fs) => self.merge_siblings(&fs, used, false),
            FormulaNode::Not(_)
            | FormulaNode::Rel(..)
            | FormulaNode::Eq(..)
            | FormulaNode::True
            | FormulaNode::False => PrenexI {
                prefix: Vec::new(),
                matrix: f,
            },
            FormulaNode::Implies(..) | FormulaNode::Iff(..) => {
                unreachable!("prenex_rec runs on NNF input with no -> or <->")
            }
        }
    }

    fn merge_siblings(
        &mut self,
        fs: &[FormulaId],
        used: &mut BTreeSet<Sym>,
        conj: bool,
    ) -> PrenexI {
        let mut children: Vec<PrenexI> = fs.iter().map(|g| self.prenex_rec(*g, used)).collect();
        let mut prefix = Vec::new();
        let mut want_exists = true;
        loop {
            let mut grabbed: Vec<Binding> = Vec::new();
            for child in &mut children {
                while child
                    .prefix
                    .first()
                    .is_some_and(|b| b.is_exists_block() == want_exists)
                {
                    let block = child.prefix.remove(0);
                    grabbed.extend(block.bindings_vec());
                }
            }
            let done = children.iter().all(|c| c.prefix.is_empty());
            if !grabbed.is_empty() {
                prefix.push(if want_exists {
                    Block::Exists(grabbed)
                } else {
                    Block::Forall(grabbed)
                });
            }
            if done {
                break;
            }
            want_exists = !want_exists;
        }
        let parts: Vec<FormulaId> = children.into_iter().map(|c| c.matrix).collect();
        let matrix = if conj {
            self.and(parts)
        } else {
            self.or(parts)
        };
        PrenexI { prefix, matrix }
    }

    /// Whether `f` is prenexable to `∃*∀*` (port of
    /// `xform::is_ea_sentence`; the per-node classification is cached).
    pub fn is_ea_sentence(&mut self, f: FormulaId) -> bool {
        let n = self.nnf(f);
        self.frag_ea(n)
    }

    /// Whether `f` is prenexable to `∀*∃*` (port of
    /// `xform::is_ae_sentence`).
    pub fn is_ae_sentence(&mut self, f: FormulaId) -> bool {
        let n = self.not(f);
        self.is_ea_sentence(n)
    }

    fn frag_ea(&mut self, f: FormulaId) -> bool {
        if let Some(&r) = self.memo_ea.get(&f) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let r = match node {
            FormulaNode::And(fs) | FormulaNode::Or(fs) => {
                let mut all = true;
                for g in fs {
                    if !self.frag_ea(g) {
                        all = false;
                        break;
                    }
                }
                all
            }
            FormulaNode::Exists(_, g) => self.frag_ea(g),
            FormulaNode::Forall(_, g) => self.frag_uni(g),
            _ => true,
        };
        self.memo_ea.insert(f, r);
        r
    }

    fn frag_uni(&mut self, f: FormulaId) -> bool {
        if let Some(&r) = self.memo_uni.get(&f) {
            return r;
        }
        let node = self.formulas[f.index()].node.clone();
        let r = match node {
            FormulaNode::And(fs) | FormulaNode::Or(fs) => {
                let mut all = true;
                for g in fs {
                    if !self.frag_uni(g) {
                        all = false;
                        break;
                    }
                }
                all
            }
            FormulaNode::Forall(_, g) => self.frag_uni(g),
            FormulaNode::Exists(..) => false,
            _ => true,
        };
        self.memo_uni.insert(f, r);
        r
    }

    /// Skolemizes a closed `∃*∀*` sentence: outermost existentials become
    /// fresh constants registered into `sig` (port of `xform::skolemize`).
    ///
    /// Not memoized: the fresh constant names depend on the evolving
    /// signature.
    ///
    /// # Errors
    ///
    /// [`SkolemError::OpenFormula`] if the sentence has free variables;
    /// [`SkolemError::NotEA`] if an existential occurs under a universal.
    pub fn skolemize(
        &mut self,
        f: FormulaId,
        sig: &mut Signature,
    ) -> Result<SkolemizedI, SkolemError> {
        if let Some(v) = self.formulas[f.index()].free.iter().next() {
            return Err(SkolemError::OpenFormula(*v));
        }
        if !self.is_ea_sentence(f) {
            // Cold path: materialize the tree once to name the offending
            // quantifier pair in the diagnostic.
            let tree = self.resolve(f);
            let (universal, existential) = crate::xform::ae_alternation(&tree)
                .expect("non-EA sentence has an alternation witness");
            return Err(SkolemError::NotEA {
                universal,
                existential,
            });
        }
        let p = self.prenex(f);
        debug_assert!(p.is_ea(), "∃-first merge must realize the EA prefix");
        let mut constants = Vec::new();
        let mut matrix = p.matrix;
        let mut universal_prefix = Vec::new();
        for block in p.prefix {
            match block {
                Block::Exists(bs) => {
                    let mut map = BTreeMap::new();
                    for b in bs {
                        let name = fresh_constant_name(sig, b.var.as_str());
                        sig.add_constant(name, b.sort)
                            .expect("fresh name cannot clash");
                        let c = self.cst(name);
                        map.insert(b.var, c);
                        constants.push((name, b.sort));
                    }
                    matrix = self.subst_vars(matrix, &map);
                }
                Block::Forall(bs) => universal_prefix.push(Block::Forall(bs)),
            }
        }
        Ok(SkolemizedI {
            universal: PrenexI {
                prefix: universal_prefix,
                matrix,
            },
            constants,
            functions: Vec::new(),
        })
    }

    /// Skolemizes a closed sentence of *any* quantifier prefix: outermost
    /// existentials become constants as in [`Interner::skolemize`], while an
    /// existential under `n` universals becomes a fresh Skolem *function* of
    /// those `n` universally bound variables, registered into `sig`. The
    /// resulting signature is generally **not** stratified (e.g. `∀X:s. ∃Y:s`
    /// yields `sk : s -> s`), so the result is only usable by the
    /// bounded-instantiation pipeline, which grounds function applications up
    /// to a depth bound instead of relying on a finite closed universe.
    ///
    /// # Errors
    ///
    /// [`SkolemError::OpenFormula`] if the sentence has free variables. The
    /// `NotEA` case cannot occur.
    pub fn skolemize_bounded(
        &mut self,
        f: FormulaId,
        sig: &mut Signature,
    ) -> Result<SkolemizedI, SkolemError> {
        if let Some(v) = self.formulas[f.index()].free.iter().next() {
            return Err(SkolemError::OpenFormula(*v));
        }
        let p = self.prenex(f);
        let mut constants = Vec::new();
        let mut functions = Vec::new();
        let mut matrix = p.matrix;
        let mut universal_prefix = Vec::new();
        let mut universals: Vec<Binding> = Vec::new();
        for block in p.prefix {
            match block {
                Block::Exists(bs) => {
                    let mut map = BTreeMap::new();
                    for b in bs {
                        let name = fresh_constant_name(sig, b.var.as_str());
                        if universals.is_empty() {
                            sig.add_constant(name, b.sort)
                                .expect("fresh name cannot clash");
                            let c = self.cst(name);
                            map.insert(b.var, c);
                            constants.push((name, b.sort));
                        } else {
                            let arg_sorts: Vec<Sort> = universals.iter().map(|u| u.sort).collect();
                            sig.add_function(name, arg_sorts.clone(), b.sort)
                                .expect("fresh name cannot clash");
                            let args: Vec<TermId> =
                                universals.iter().map(|u| self.var(u.var)).collect();
                            let t = self.app(name, args);
                            map.insert(b.var, t);
                            functions.push((name, arg_sorts, b.sort));
                        }
                    }
                    matrix = self.subst_vars(matrix, &map);
                }
                Block::Forall(bs) => {
                    universals.extend(bs.iter().cloned());
                    universal_prefix.push(Block::Forall(bs));
                }
            }
        }
        Ok(SkolemizedI {
            universal: PrenexI {
                prefix: universal_prefix,
                matrix,
            },
            constants,
            functions,
        })
    }
}

impl Block {
    fn bindings_vec(&self) -> Vec<Binding> {
        match self {
            Block::Exists(b) | Block::Forall(b) => b.clone(),
        }
    }
}

/// Drops empty blocks and merges adjacent same-kind blocks (mirror of the
/// private `xform::normalize_blocks`).
fn normalize_blocks(prefix: &mut Vec<Block>) {
    let mut out: Vec<Block> = Vec::with_capacity(prefix.len());
    for block in prefix.drain(..) {
        let empty = match &block {
            Block::Exists(b) | Block::Forall(b) => b.is_empty(),
        };
        if empty {
            continue;
        }
        match (out.last_mut(), &block) {
            (Some(Block::Exists(a)), Block::Exists(b)) => a.extend(b.iter().cloned()),
            (Some(Block::Forall(a)), Block::Forall(b)) => a.extend(b.iter().cloned()),
            _ => out.push(block),
        }
    }
    *prefix = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;

    fn roundtrip(src: &str) {
        let f = parse_formula(src).unwrap();
        let back = Interner::with(|it| {
            let id = it.intern(&f);
            let id2 = it.intern(&f);
            assert_eq!(id, id2, "hash-consing must dedup re-interned formulas");
            it.resolve(id)
        });
        assert_eq!(back, f, "resolve ∘ intern must be the identity");
    }

    #[test]
    fn intern_resolve_roundtrip() {
        for src in [
            "true",
            "leader(n)",
            "forall X:node, Y:node. leader(X) & leader(Y) -> X = Y",
            "exists I:id. pnd(I, n) | ~le(I, idf(n))",
            "p(ite(q, a, b))",
            "forall X:s. (p(X) <-> q(X))",
        ] {
            roundtrip(src);
        }
        // Raw nested structure the parser can't produce: an Iff over an
        // Exists, built directly — must survive unchanged (no smart-ctor
        // normalization on the bridge).
        let f = Formula::Iff(
            Box::new(parse_formula("p").unwrap()),
            Box::new(Formula::Exists(
                vec![Binding::new("Y", "s")],
                Box::new(parse_formula("q(Y)").unwrap()),
            )),
        );
        let back = Interner::with(|it| {
            let id = it.intern(&f);
            it.resolve(id)
        });
        assert_eq!(back, f);
    }

    #[test]
    fn cached_free_vars_match_tree() {
        let f = parse_formula("forall X:node. leader(X) & pnd(I, Y) & (exists Y:id. le(Y, I))")
            .unwrap();
        let tree_free = f.free_vars();
        let cached = Interner::with(|it| {
            let id = it.intern(&f);
            (*it.free_vars(id)).clone()
        });
        assert_eq!(cached, tree_free);
    }

    #[test]
    fn cached_all_vars_match_tree() {
        let f = parse_formula("forall X:s. le(X, Y) & (exists Z:s. le(Z, X))").unwrap();
        let mut tree_all = BTreeSet::new();
        crate::subst::all_var_names(&f, &mut tree_all);
        let cached = Interner::with(|it| {
            let id = it.intern(&f);
            (*it.all_vars(id)).clone()
        });
        assert_eq!(cached, tree_all);
    }

    #[test]
    fn literal_count_matches_tree() {
        let f = parse_formula("forall X:s. ~(p(X) & q(X)) | (r(X) -> s(X))").unwrap();
        let cached = Interner::with(|it| {
            let id = it.intern(&f);
            it.literal_count(id)
        });
        assert_eq!(cached, f.literal_count());
    }

    #[test]
    fn subst_vars_matches_tree_including_capture() {
        for (src, var, term) in [
            ("le(X, Y)", "X", Term::cst("a")),
            ("forall X:s. le(X, Y)", "X", Term::cst("a")),
            ("forall X:s. le(X, Y)", "Y", Term::var("X")),
        ] {
            let f = parse_formula(src).unwrap();
            let mut map = BTreeMap::new();
            map.insert(Sym::new(var), term.clone());
            let tree = crate::subst::subst_vars(&f, &map);
            let interned = Interner::with(|it| {
                let id = it.intern(&f);
                let m: BTreeMap<Sym, TermId> =
                    map.iter().map(|(k, v)| (*k, it.intern_term(v))).collect();
                let out = it.subst_vars(id, &m);
                it.resolve(out)
            });
            assert_eq!(interned, tree, "subst mismatch on {src}");
        }
    }

    #[test]
    fn nnf_matches_tree() {
        for src in [
            "~(p & (q -> r))",
            "~(forall X:s. p(X))",
            "(p <-> q) -> r",
            "~(p <-> (q | ~r))",
        ] {
            let f = parse_formula(src).unwrap();
            let tree = crate::xform::nnf(&f);
            let interned = Interner::with(|it| {
                let id = it.intern(&f);
                let out = it.nnf(id);
                it.resolve(out)
            });
            assert_eq!(interned, tree, "nnf mismatch on {src}");
        }
    }

    #[test]
    fn prenex_matches_tree() {
        for src in [
            "(exists X:s. forall Y:s. r(X, Y)) & (exists U:s. forall V:s. r(U, V))",
            "(forall X:s. p(X)) & (forall X:s. q(X))",
            "forall X:s. exists Y:s. r(X, Y)",
        ] {
            let f = parse_formula(src).unwrap();
            let tree = crate::xform::prenex(&f);
            let (prefix, matrix) = Interner::with(|it| {
                let id = it.intern(&f);
                let p = it.prenex(id);
                (p.prefix, it.resolve(p.matrix))
            });
            assert_eq!(prefix, tree.prefix, "prenex prefix mismatch on {src}");
            assert_eq!(matrix, tree.matrix, "prenex matrix mismatch on {src}");
        }
    }

    #[test]
    fn eliminate_ite_matches_tree() {
        for src in ["p(ite(q, a, b))", "p(ite(q, ite(r, a, b), c))"] {
            let f = parse_formula(src).unwrap();
            let tree = crate::xform::eliminate_ite(&f);
            let interned = Interner::with(|it| {
                let id = it.intern(&f);
                let out = it.eliminate_ite(id);
                it.resolve(out)
            });
            assert_eq!(interned, tree, "eliminate_ite mismatch on {src}");
        }
    }

    #[test]
    fn fragment_classification_matches_tree() {
        for src in [
            "exists X:s. forall Y:s. r(X, Y)",
            "forall X:s. exists Y:s. r(X, Y)",
            "(exists X:s. p(X)) & (forall Y:s. q(Y))",
        ] {
            let f = parse_formula(src).unwrap();
            let (ea, ae) = Interner::with(|it| {
                let id = it.intern(&f);
                (it.is_ea_sentence(id), it.is_ae_sentence(id))
            });
            assert_eq!(ea, crate::xform::is_ea_sentence(&f), "EA mismatch on {src}");
            assert_eq!(ae, crate::xform::is_ae_sentence(&f), "AE mismatch on {src}");
        }
    }

    #[test]
    fn skolemize_matches_tree() {
        let mk_sig = || {
            let mut sig = Signature::new();
            sig.add_sort("s").unwrap();
            sig.add_relation("r", ["s", "s"]).unwrap();
            sig
        };
        let f = parse_formula("exists X:s. forall Y:s. r(X, Y)").unwrap();
        let mut tree_sig = mk_sig();
        let tree = crate::xform::skolemize(&f, &mut tree_sig).unwrap();
        let mut int_sig = mk_sig();
        let (constants, prefix, matrix) = Interner::with(|it| {
            let id = it.intern(&f);
            let sk = it.skolemize(id, &mut int_sig).unwrap();
            (
                sk.constants,
                sk.universal.prefix,
                it.resolve(sk.universal.matrix),
            )
        });
        assert_eq!(constants, tree.constants);
        assert_eq!(prefix, tree.universal.prefix);
        assert_eq!(matrix, tree.universal.matrix);
    }

    #[test]
    fn rename_symbols_renames_heads_only() {
        let f = parse_formula("forall X:s. pnd(idf(X), n) -> leader(n)").unwrap();
        let mut map = BTreeMap::new();
        map.insert(Sym::new("pnd"), Sym::new("pnd__v1"));
        map.insert(Sym::new("n"), Sym::new("n__v1"));
        let out = Interner::with(|it| {
            let id = it.intern(&f);
            let r = it.rename_symbols(id, &map);
            it.resolve(r)
        });
        assert_eq!(
            out.to_string(),
            "forall X:s. pnd__v1(idf(X), n__v1) -> leader(n__v1)"
        );
    }
}
