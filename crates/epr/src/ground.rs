//! Ground-term universes for EPR extended with stratified functions.
//!
//! After Skolemization, an `∃*∀*` sentence mentions only constants and
//! (stratified) function symbols. The Herbrand universe — all ground terms —
//! is finite precisely because the functions are stratified (Section 3.3 of
//! the paper): each application strictly descends the sort order, so term
//! depth is bounded by the number of sorts.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use ivy_fol::{Signature, Sort, Sym};

/// Index of a ground term in a [`TermTable`].
pub type TermId = usize;

/// A ground term: a function symbol applied to previously-built ground terms.
/// Constants have no arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTerm {
    /// The head function symbol (or constant).
    pub sym: Sym,
    /// Argument term ids.
    pub args: Vec<TermId>,
}

/// A `(symbol, arguments)` view of a ground-term key. The universe index
/// is probed through `dyn TermKey`, so a lookup by borrowed argument slice
/// builds no `GroundTerm` (and allocates nothing).
pub trait TermKey {
    /// The head symbol and argument ids.
    fn key(&self) -> (Sym, &[TermId]);
}

impl TermKey for GroundTerm {
    fn key(&self) -> (Sym, &[TermId]) {
        (self.sym, &self.args)
    }
}

impl TermKey for (Sym, &[TermId]) {
    fn key(&self) -> (Sym, &[TermId]) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn TermKey + 'a> for GroundTerm {
    fn borrow(&self) -> &(dyn TermKey + 'a) {
        self
    }
}

// `HashMap` lookups through `Borrow` require the owned and the borrowed
// key to hash identically, so both go through `TermKey::key`.
impl Hash for GroundTerm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl Hash for dyn TermKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn TermKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn TermKey + '_ {}

/// The finite Herbrand universe of a signature: every ground term, grouped
/// by sort.
///
/// With an unstratified signature the full universe is infinite; the
/// bounded constructors ([`TermTable::build_bounded`] /
/// [`TermTable::extend_bounded`]) cut the closure at a term-depth bound
/// and record that truncation happened ([`TermTable::truncated`]), which
/// the bounded-instantiation pipeline uses to tell genuine SAT models from
/// artifacts of the bound.
#[derive(Clone, Debug, Default)]
pub struct TermTable {
    terms: Vec<GroundTerm>,
    sorts: Vec<Sort>,
    /// Term depth per id: constants are 0, applications `1 + max(args)`.
    depths: Vec<usize>,
    index: HashMap<GroundTerm, TermId>,
    by_sort: BTreeMap<Sort, Vec<TermId>>,
    /// Whether some ground term was skipped for exceeding a depth bound.
    truncated: bool,
}

impl TermTable {
    /// Builds the ground-term universe of `sig`.
    ///
    /// Every sort is guaranteed at least one term: sorts without constants
    /// receive no table entry here — callers that need non-empty domains
    /// should add a fresh constant to the signature first (see
    /// [`ensure_inhabited`]).
    ///
    /// # Panics
    ///
    /// Panics if the signature is not stratified (the closure would diverge);
    /// callers validate stratification first.
    pub fn build(sig: &Signature) -> TermTable {
        let mut table = TermTable::default();
        table.extend(sig);
        table
    }

    /// Builds the ground-term universe of `sig` cut at term depth `depth`
    /// (constants are depth 0, so `depth = 0` admits only constants). The
    /// signature need *not* be stratified: the depth bound makes the
    /// closure finite regardless. [`TermTable::truncated`] reports whether
    /// any term was left out.
    pub fn build_bounded(sig: &Signature, depth: usize) -> TermTable {
        let mut table = TermTable::default();
        table.extend_bounded(sig, depth);
        table
    }

    /// Extends the universe in place with every ground term of `sig` not yet
    /// present: newly declared constants (typically Skolem constants from a
    /// later query of an incremental session) and the function closure over
    /// them. Existing term ids are preserved; new terms receive ids starting
    /// at the returned watermark (the term count *before* the extension), so
    /// callers can enumerate the delta as `watermark..self.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the signature is not stratified (the closure would diverge);
    /// callers validate stratification first.
    pub fn extend(&mut self, sig: &Signature) -> usize {
        sig.stratification()
            .expect("TermTable requires a stratified signature");
        self.extend_bounded(sig, usize::MAX)
    }

    /// [`TermTable::extend`] with the function closure cut at term depth
    /// `depth`; sets the [`TermTable::truncated`] flag when any application
    /// is skipped for exceeding the bound. Terminates for *any* signature:
    /// with finitely many symbols there are finitely many terms of bounded
    /// depth.
    pub fn extend_bounded(&mut self, sig: &Signature, depth: usize) -> usize {
        let old_len = self.terms.len();
        // Seed with constants.
        for (name, sort) in sig.constants() {
            self.intern(
                GroundTerm {
                    sym: *name,
                    args: Vec::new(),
                },
                *sort,
                0,
            );
        }
        // Close under functions: repeat until no new terms appear. Each pass
        // applies every function to every argument tuple currently present.
        loop {
            let mut added = false;
            let snapshot: BTreeMap<Sort, Vec<TermId>> = self.by_sort.clone();
            for (name, decl) in sig.functions() {
                if decl.is_constant() {
                    continue;
                }
                let mut tuples = vec![Vec::new()];
                for arg_sort in &decl.args {
                    let candidates = snapshot.get(arg_sort).cloned().unwrap_or_default();
                    let mut next = Vec::with_capacity(tuples.len() * candidates.len());
                    for prefix in &tuples {
                        for &c in &candidates {
                            let mut t = prefix.clone();
                            t.push(c);
                            next.push(t);
                        }
                    }
                    tuples = next;
                }
                for args in tuples {
                    let d = args
                        .iter()
                        .map(|&a| self.depths[a])
                        .max()
                        .unwrap_or(0)
                        .saturating_add(1);
                    if d > depth {
                        self.truncated = true;
                        continue;
                    }
                    let gt = GroundTerm { sym: *name, args };
                    if !self.index.contains_key(&gt) {
                        self.intern(gt, decl.ret, d);
                        added = true;
                    }
                }
            }
            if !added {
                break;
            }
        }
        old_len
    }

    /// Whether some ground term was skipped for exceeding a depth bound —
    /// i.e. whether the bound was *load-bearing* for universe construction.
    /// Sticky across extensions.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    fn intern(&mut self, gt: GroundTerm, sort: Sort, depth: usize) -> TermId {
        if let Some(&id) = self.index.get(&gt) {
            return id;
        }
        let id = self.terms.len();
        self.terms.push(gt.clone());
        self.sorts.push(sort);
        self.depths.push(depth);
        self.index.insert(gt, id);
        self.by_sort.entry(sort).or_default().push(id);
        id
    }

    /// Looks up a ground term.
    pub fn get(&self, sym: &Sym, args: &[TermId]) -> Option<TermId> {
        self.index.get(&(*sym, args) as &dyn TermKey).copied()
    }

    /// The term with the given id.
    pub fn term(&self, id: TermId) -> &GroundTerm {
        &self.terms[id]
    }

    /// The sort of a term.
    pub fn sort(&self, id: TermId) -> &Sort {
        &self.sorts[id]
    }

    /// All terms of a sort.
    pub fn of_sort(&self, sort: &Sort) -> &[TermId] {
        self.by_sort.get(sort).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of ground terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Renders a term for diagnostics, e.g. `idf(n)`.
    pub fn display(&self, id: TermId) -> String {
        let t = self.term(id);
        if t.args.is_empty() {
            t.sym.to_string()
        } else {
            let args: Vec<String> = t.args.iter().map(|&a| self.display(a)).collect();
            format!("{}({})", t.sym, args.join(", "))
        }
    }
}

/// Adds a fresh constant to every sort of `sig` that would otherwise have no
/// ground terms, so domains stay non-empty (first-order semantics requires
/// inhabited sorts). Returns the constants added.
pub fn ensure_inhabited(sig: &mut Signature) -> Vec<(Sym, Sort)> {
    // A sort is inhabited if some constant has it as return sort, or some
    // function chain produces it. Functions only produce terms when their
    // argument sorts are inhabited; iterate to a fixpoint.
    let mut inhabited: BTreeMap<Sort, bool> = sig.sorts().iter().map(|s| (*s, false)).collect();
    for (_, sort) in sig.constants() {
        inhabited.insert(*sort, true);
    }
    let mut added = Vec::new();
    loop {
        // Propagate inhabitation through functions to a fixpoint.
        loop {
            let mut changed = false;
            for (_, decl) in sig.functions() {
                if decl.is_constant() {
                    continue;
                }
                let args_ok = decl.args.iter().all(|s| inhabited[s]);
                if args_ok && !inhabited[&decl.ret] {
                    inhabited.insert(decl.ret, true);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Seed one still-empty sort (if any) and re-propagate. Prefer the
        // *largest* sort in the stratification order: functions map larger
        // sorts to smaller ones, so seeding high lets propagation fill the
        // sorts below without redundant constants. Unstratified signatures
        // (bounded mode) have no such order; declaration order works — the
        // heuristic only saves redundant constants, inhabitation itself
        // needs any still-empty sort seeded.
        let order = sig
            .analyze_stratification()
            .order
            .unwrap_or_else(|| sig.sorts().to_vec());
        let Some(sort) = order.into_iter().rev().find(|s| !inhabited[s]) else {
            break;
        };
        let name = ivy_fol::xform::fresh_constant_name(sig, &format!("some_{sort}"));
        sig.add_constant(name, sort).expect("fresh constant name");
        inhabited.insert(sort, true);
        added.push((name, sort));
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leader_sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        sig.add_constant("n", "node").unwrap();
        sig.add_constant("m", "node").unwrap();
        sig
    }

    #[test]
    fn universe_closes_under_functions() {
        let sig = leader_sig();
        let table = TermTable::build(&sig);
        // n, m, idf(n), idf(m).
        assert_eq!(table.len(), 4);
        assert_eq!(table.of_sort(&Sort::new("node")).len(), 2);
        assert_eq!(table.of_sort(&Sort::new("id")).len(), 2);
        let n = table.get(&Sym::new("n"), &[]).unwrap();
        let idn = table.get(&Sym::new("idf"), &[n]).unwrap();
        assert_eq!(table.display(idn), "idf(n)");
        assert_eq!(table.sort(idn), &Sort::new("id"));
    }

    #[test]
    fn two_level_stratification() {
        let mut sig = Signature::new();
        sig.add_sort("a").unwrap();
        sig.add_sort("b").unwrap();
        sig.add_sort("c").unwrap();
        sig.add_function("f", ["a"], "b").unwrap();
        sig.add_function("g", ["b"], "c").unwrap();
        sig.add_constant("x", "a").unwrap();
        let table = TermTable::build(&sig);
        // x, f(x), g(f(x)).
        assert_eq!(table.len(), 3);
        let x = table.get(&Sym::new("x"), &[]).unwrap();
        let fx = table.get(&Sym::new("f"), &[x]).unwrap();
        assert!(table.get(&Sym::new("g"), &[fx]).is_some());
    }

    #[test]
    fn binary_function_universe() {
        let mut sig = Signature::new();
        sig.add_sort("a").unwrap();
        sig.add_sort("b").unwrap();
        sig.add_function("pair", ["a", "a"], "b").unwrap();
        sig.add_constant("x", "a").unwrap();
        sig.add_constant("y", "a").unwrap();
        let table = TermTable::build(&sig);
        // x, y, pair over 4 tuples.
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn ensure_inhabited_adds_constants() {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        // No constants at all: node is empty; id becomes inhabited only via
        // idf once node is inhabited.
        let added = ensure_inhabited(&mut sig);
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].1, Sort::new("node"));
        let table = TermTable::build(&sig);
        assert_eq!(table.of_sort(&Sort::new("node")).len(), 1);
        assert_eq!(table.of_sort(&Sort::new("id")).len(), 1);
    }

    #[test]
    fn ensure_inhabited_noop_when_populated() {
        let mut sig = leader_sig();
        assert!(ensure_inhabited(&mut sig).is_empty());
    }

    #[test]
    fn bounded_universe_cuts_unstratified_closure() {
        // next : s -> s is unstratified; the full closure would diverge.
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        sig.add_constant("zero", "s").unwrap();
        let table = TermTable::build_bounded(&sig, 2);
        // zero, next(zero), next(next(zero)).
        assert_eq!(table.len(), 3);
        assert!(table.truncated());
        let zero = table.get(&Sym::new("zero"), &[]).unwrap();
        let one = table.get(&Sym::new("next"), &[zero]).unwrap();
        assert!(table.get(&Sym::new("next"), &[one]).is_some());
        // Depth 0 admits constants only.
        let table = TermTable::build_bounded(&sig, 0);
        assert_eq!(table.len(), 1);
        assert!(table.truncated());
    }

    #[test]
    fn bounded_universe_not_truncated_when_closure_fits() {
        // Stratified signature whose closure sits within the bound: the
        // bounded build must match the full build and report no truncation.
        let sig = leader_sig();
        let full = TermTable::build(&sig);
        let bounded = TermTable::build_bounded(&sig, 8);
        assert_eq!(bounded.len(), full.len());
        assert!(!bounded.truncated());
        assert!(!full.truncated());
    }

    #[test]
    fn ensure_inhabited_tolerates_unstratified_signatures() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_sort("t").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        let added = ensure_inhabited(&mut sig);
        assert_eq!(added.len(), 2, "both empty sorts get seeded");
    }

    #[test]
    fn extend_preserves_ids_and_reports_watermark() {
        let mut sig = leader_sig();
        let mut table = TermTable::build(&sig);
        let n = table.get(&Sym::new("n"), &[]).unwrap();
        let before = table.len();
        // A new constant closes under idf, adding two terms.
        sig.add_constant("k", "node").unwrap();
        let watermark = table.extend(&sig);
        assert_eq!(watermark, before);
        assert_eq!(table.len(), before + 2);
        assert_eq!(table.get(&Sym::new("n"), &[]), Some(n), "ids preserved");
        let k = table.get(&Sym::new("k"), &[]).unwrap();
        assert!(k >= watermark);
        assert!(table.get(&Sym::new("idf"), &[k]).is_some());
        // Extending again with no new symbols is a no-op.
        assert_eq!(table.extend(&sig), before + 2);
        assert_eq!(table.len(), before + 2);
    }
}
