//! Substitution machinery.
//!
//! Four operations, all needed by the weakest-precondition operator of
//! Figure 13:
//!
//! * [`subst_vars`]: capture-avoiding substitution of logical variables by
//!   terms (Hoare's assignment rule instantiation).
//! * [`subst_constant`]: replace a nullary function symbol (program variable)
//!   by a term — used by `wp(v := *, Q)`.
//! * [`rewrite_relation`]: replace every atom `r(s̄)` by `ϕ[s̄/x̄]` — used by
//!   `wp(r(x̄) := ϕ, Q) = (A → Q)[ϕ(s̄)/r(s̄)]`.
//! * [`rewrite_function`]: replace every term `f(s̄)` by `t[s̄/x̄]`
//!   *simultaneously* (occurrences of `f` inside the update body are not
//!   rewritten again) — used by `wp(f(x̄) := t, Q)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::formula::{Binding, Formula};
use crate::term::Term;
use crate::Sym;

/// Returns a name based on `base` that does not occur in `used`, inserting it
/// into `used`.
pub fn fresh_name(base: &str, used: &mut BTreeSet<Sym>) -> Sym {
    let candidate = Sym::new(base);
    if !used.contains(&candidate) {
        used.insert(candidate);
        return candidate;
    }
    for i in 1.. {
        let candidate = Sym::new(format!("{base}_{i}"));
        if !used.contains(&candidate) {
            used.insert(candidate);
            return candidate;
        }
    }
    unreachable!("fresh name search is unbounded")
}

/// Collects every variable name occurring in `f`, free or bound.
pub fn all_var_names(f: &Formula, out: &mut BTreeSet<Sym>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Rel(_, args) => args.iter().for_each(|t| t.collect_vars(out)),
        Formula::Eq(a, b) => {
            a.collect_vars(out);
            b.collect_vars(out);
        }
        Formula::Not(g) => all_var_names(g, out),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| all_var_names(g, out)),
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            all_var_names(a, out);
            all_var_names(b, out);
        }
        Formula::Forall(bs, g) | Formula::Exists(bs, g) => {
            out.extend(bs.iter().map(|b| b.var));
            all_var_names(g, out);
        }
    }
}

/// The original tree-walking variable substitution, kept as the executable
/// specification for the interned fast path (`tests/intern_prop.rs`
/// compares the two).
pub mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use crate::formula::{Binding, Formula};
    use crate::term::Term;
    use crate::Sym;

    /// Substitutes logical variables in a term.
    pub fn subst_term_vars(t: &Term, map: &BTreeMap<Sym, Term>) -> Term {
        match t {
            Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| t.clone()),
            Term::App(f, args) => {
                Term::App(*f, args.iter().map(|a| subst_term_vars(a, map)).collect())
            }
            Term::Ite(c, a, b) => Term::Ite(
                Box::new(subst_vars(c, map)),
                Box::new(subst_term_vars(a, map)),
                Box::new(subst_term_vars(b, map)),
            ),
        }
    }

    /// Capture-avoiding substitution of logical variables by terms.
    pub fn subst_vars(f: &Formula, map: &BTreeMap<Sym, Term>) -> Formula {
        if map.is_empty() {
            return f.clone();
        }
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Rel(r, args) => {
                Formula::Rel(*r, args.iter().map(|t| subst_term_vars(t, map)).collect())
            }
            Formula::Eq(a, b) => Formula::Eq(subst_term_vars(a, map), subst_term_vars(b, map)),
            Formula::Not(g) => Formula::Not(Box::new(subst_vars(g, map))),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| subst_vars(g, map)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| subst_vars(g, map)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(subst_vars(a, map)), Box::new(subst_vars(b, map)))
            }
            Formula::Iff(a, b) => {
                Formula::Iff(Box::new(subst_vars(a, map)), Box::new(subst_vars(b, map)))
            }
            Formula::Forall(bs, body) => {
                let (bs, body) = subst_under_binders(bs, body, map);
                Formula::Forall(bs, Box::new(body))
            }
            Formula::Exists(bs, body) => {
                let (bs, body) = subst_under_binders(bs, body, map);
                Formula::Exists(bs, Box::new(body))
            }
        }
    }

    fn subst_under_binders(
        bs: &[Binding],
        body: &Formula,
        map: &BTreeMap<Sym, Term>,
    ) -> (Vec<Binding>, Formula) {
        // Drop mappings shadowed by the binders.
        let mut inner: BTreeMap<Sym, Term> = map
            .iter()
            .filter(|(k, _)| !bs.iter().any(|b| &b.var == *k))
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        if inner.is_empty() {
            return (bs.to_vec(), body.clone());
        }
        // Rename binders that would capture variables of the replacement terms.
        let mut replacement_vars = BTreeSet::new();
        for t in inner.values() {
            t.collect_vars(&mut replacement_vars);
        }
        let mut used = replacement_vars.clone();
        super::all_var_names(body, &mut used);
        used.extend(inner.keys().cloned());
        let mut new_bs = Vec::with_capacity(bs.len());
        for b in bs {
            if replacement_vars.contains(&b.var) {
                let fresh = super::fresh_name(b.var.as_str(), &mut used);
                inner.insert(b.var, Term::Var(fresh));
                new_bs.push(Binding::new(fresh, b.sort));
            } else {
                new_bs.push(b.clone());
            }
        }
        (new_bs, subst_vars(body, &inner))
    }
}

use crate::intern::{Interner, TermId};

/// Substitutes logical variables in a term.
///
/// Delegates to the interned engine ([`Interner::subst_term_vars`]): the
/// term is interned once, rewritten by memoized id maps, and resolved back.
/// Output is identical to [`reference::subst_term_vars`].
pub fn subst_term_vars(t: &Term, map: &BTreeMap<Sym, Term>) -> Term {
    Interner::with(|it| {
        let tid = it.intern_term(t);
        let m: BTreeMap<Sym, TermId> = map.iter().map(|(k, v)| (*k, it.intern_term(v))).collect();
        let out = it.subst_term_vars(tid, &m);
        it.resolve_term(out)
    })
}

/// Capture-avoiding substitution of logical variables by terms.
///
/// Delegates to the interned engine ([`Interner::subst_vars`]); the
/// capture-avoidance walks over the body (`free_vars`, `all_var_names`) hit
/// per-node caches instead of re-traversing the tree. Output is identical
/// to [`reference::subst_vars`].
pub fn subst_vars(f: &Formula, map: &BTreeMap<Sym, Term>) -> Formula {
    Interner::with(|it| {
        let fid = it.intern(f);
        let m: BTreeMap<Sym, TermId> = map.iter().map(|(k, v)| (*k, it.intern_term(v))).collect();
        let out = it.subst_vars(fid, &m);
        it.resolve(out)
    })
}

/// Replaces the nullary function symbol (program variable) `name` by `term`,
/// renaming any binder that would capture a variable of `term`.
///
/// Delegates to [`Interner::subst_constant`].
pub fn subst_constant(f: &Formula, name: &Sym, term: &Term) -> Formula {
    Interner::with(|it| {
        let fid = it.intern(f);
        let tid = it.intern_term(term);
        let out = it.subst_constant(fid, *name, tid);
        it.resolve(out)
    })
}

/// Replaces every atom `r(s̄)` in `f` by `body[s̄/params]`.
///
/// `body` must be quantifier-free (as RML's update formulas are), so no
/// capture can occur. Argument terms are rewritten first, which matters when
/// they contain `ite` conditions mentioning `r`.
pub fn rewrite_relation(f: &Formula, rel: &Sym, params: &[Sym], body: &Formula) -> Formula {
    let bind = |args: Vec<Term>| params.iter().copied().zip(args).collect();
    Rewrite {
        avoid: non_param_vars(body.free_vars(), params),
        app: &Term::App,
        atom: &|r, args| {
            if r == *rel {
                debug_assert_eq!(args.len(), params.len(), "arity checked upstream");
                subst_vars(body, &bind(args))
            } else {
                Formula::Rel(r, args)
            }
        },
    }
    .formula(f)
}

/// Replaces every application `f(s̄)` in the formula by `body[s̄/params]`,
/// simultaneously: occurrences of `f` inside `body` itself are left alone,
/// which is exactly Hoare-style assignment for `f(x̄) := t(x̄)` (so
/// `f(x) := f(x)` is a no-op rather than a loop).
pub fn rewrite_function(f: &Formula, func: &Sym, params: &[Sym], body: &Term) -> Formula {
    let bind = |args: Vec<Term>| params.iter().copied().zip(args).collect();
    let mut body_vars = BTreeSet::new();
    body.collect_vars(&mut body_vars);
    Rewrite {
        avoid: non_param_vars(body_vars, params),
        app: &|g, args| {
            if g == *func {
                debug_assert_eq!(args.len(), params.len(), "arity checked upstream");
                subst_term_vars(body, &bind(args))
            } else {
                Term::App(g, args)
            }
        },
        atom: &Formula::Rel,
    }
    .formula(f)
}

/// The free variables of an update body other than its parameters: the
/// parameters are replaced wholesale, so only these can be captured.
fn non_param_vars(mut vars: BTreeSet<Sym>, params: &[Sym]) -> BTreeSet<Sym> {
    for p in params {
        vars.remove(p);
    }
    vars
}

/// A bottom-up symbol rewrite shared by [`rewrite_relation`] and
/// [`rewrite_function`]: `app` rebuilds each application and `atom` each
/// relation atom from its already-rewritten arguments. A binder that would
/// capture a variable of `avoid` is renamed before its body is rewritten.
struct Rewrite<'a> {
    avoid: BTreeSet<Sym>,
    app: &'a dyn Fn(Sym, Vec<Term>) -> Term,
    atom: &'a dyn Fn(Sym, Vec<Term>) -> Formula,
}

impl Rewrite<'_> {
    fn formula(&self, f: &Formula) -> Formula {
        let sub = |g: &Formula| Box::new(self.formula(g));
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Rel(r, args) => (self.atom)(*r, args.iter().map(|t| self.term(t)).collect()),
            Formula::Eq(a, b) => Formula::Eq(self.term(a), self.term(b)),
            Formula::Not(g) => Formula::Not(sub(g)),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| self.formula(g)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| self.formula(g)).collect()),
            Formula::Implies(a, b) => Formula::Implies(sub(a), sub(b)),
            Formula::Iff(a, b) => Formula::Iff(sub(a), sub(b)),
            Formula::Forall(bs, g) => {
                let (bs, g) = self.under_binders(bs, g);
                Formula::Forall(bs, Box::new(g))
            }
            Formula::Exists(bs, g) => {
                let (bs, g) = self.under_binders(bs, g);
                Formula::Exists(bs, Box::new(g))
            }
        }
    }

    fn term(&self, t: &Term) -> Term {
        match t {
            Term::Var(_) => t.clone(),
            Term::App(g, args) => (self.app)(*g, args.iter().map(|a| self.term(a)).collect()),
            Term::Ite(c, a, b) => Term::Ite(
                Box::new(self.formula(c)),
                Box::new(self.term(a)),
                Box::new(self.term(b)),
            ),
        }
    }

    fn under_binders(&self, bs: &[Binding], g: &Formula) -> (Vec<Binding>, Formula) {
        if !bs.iter().any(|b| self.avoid.contains(&b.var)) {
            return (bs.to_vec(), self.formula(g));
        }
        let mut used = self.avoid.clone();
        all_var_names(g, &mut used);
        let mut renames = BTreeMap::new();
        let bs = bs
            .iter()
            .map(|b| {
                if self.avoid.contains(&b.var) {
                    let fresh = fresh_name(b.var.as_str(), &mut used);
                    renames.insert(b.var, Term::Var(fresh));
                    Binding::new(fresh, b.sort)
                } else {
                    b.clone()
                }
            })
            .collect();
        (bs, self.formula(&subst_vars(g, &renames)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;

    fn map(pairs: &[(&str, Term)]) -> BTreeMap<Sym, Term> {
        pairs
            .iter()
            .map(|(k, v)| (Sym::new(*k), v.clone()))
            .collect()
    }

    #[test]
    fn simple_var_subst() {
        let f = parse_formula("le(X, Y)").unwrap();
        let g = subst_vars(&f, &map(&[("X", Term::cst("a"))]));
        assert_eq!(g.to_string(), "le(a, Y)");
    }

    #[test]
    fn shadowed_vars_untouched() {
        let f = parse_formula("forall X:s. le(X, Y)").unwrap();
        let g = subst_vars(&f, &map(&[("X", Term::cst("a"))]));
        assert_eq!(g.to_string(), "forall X:s. le(X, Y)");
    }

    #[test]
    fn capture_is_avoided() {
        // Substituting Y := X under a binder for X must rename the binder.
        let f = parse_formula("forall X:s. le(X, Y)").unwrap();
        let g = subst_vars(&f, &map(&[("Y", Term::var("X"))]));
        assert_eq!(g.to_string(), "forall X_1:s. le(X_1, X)");
    }

    #[test]
    fn constant_subst_basic() {
        let f = parse_formula("leader(n) & pnd(idf(n), m)").unwrap();
        let g = subst_constant(&f, &Sym::new("n"), &Term::var("X"));
        assert_eq!(g.to_string(), "leader(X) & pnd(idf(X), m)");
    }

    #[test]
    fn constant_subst_avoids_capture() {
        let f = parse_formula("forall X:s. le(X, n)").unwrap();
        let g = subst_constant(&f, &Sym::new("n"), &Term::var("X"));
        assert_eq!(g.to_string(), "forall X_1:s. le(X_1, X)");
    }

    #[test]
    fn relation_rewrite_identity_example() {
        // r(x1, x2) := x1 = x2 turns r into the identity relation:
        // wp substitutes r(a, b) by a = b.
        let q = parse_formula("r(a, b) | r(b, b)").unwrap();
        let body = parse_formula("X1 = X2").unwrap();
        let g = rewrite_relation(&q, &Sym::new("r"), &[Sym::new("X1"), Sym::new("X2")], &body);
        assert_eq!(g.to_string(), "a = b | b = b");
    }

    #[test]
    fn relation_rewrite_inverse_example() {
        // r(x1, x2) := r(x2, x1): substitution is simultaneous.
        let q = parse_formula("r(a, b)").unwrap();
        let body = parse_formula("r(X2, X1)").unwrap();
        let g = rewrite_relation(&q, &Sym::new("r"), &[Sym::new("X1"), Sym::new("X2")], &body);
        assert_eq!(g.to_string(), "r(b, a)");
    }

    #[test]
    fn relation_rewrite_insert_example() {
        // pnd.insert (i, n): pnd(x1,x2) := pnd(x1,x2) | (x1 = i & x2 = n).
        let q = parse_formula("forall I:id, N:node. pnd(I, N) -> le(I, idf(N))").unwrap();
        let body = parse_formula("pnd(X1, X2) | X1 = i & X2 = n").unwrap();
        let g = rewrite_relation(
            &q,
            &Sym::new("pnd"),
            &[Sym::new("X1"), Sym::new("X2")],
            &body,
        );
        // `|` binds tighter than `->`, so no parentheses are needed.
        assert_eq!(
            g.to_string(),
            "forall I:id, N:node. pnd(I, N) | I = i & N = n -> le(I, idf(N))"
        );
    }

    #[test]
    fn function_rewrite_simultaneous() {
        // f(x) := f(x) must be a no-op, not an infinite regress.
        let q = parse_formula("r(f(a))").unwrap();
        let g = rewrite_function(
            &q,
            &Sym::new("f"),
            &[Sym::new("X")],
            &Term::app("f", [Term::var("X")]),
        );
        assert_eq!(g.to_string(), "r(f(a))");
    }

    #[test]
    fn function_rewrite_transpose() {
        // f(x1,x2) := f(x2,x1) applied to r(f(a,b)).
        let q = parse_formula("r(f(a, b))").unwrap();
        let g = rewrite_function(
            &q,
            &Sym::new("f"),
            &[Sym::new("X1"), Sym::new("X2")],
            &Term::app("f", [Term::var("X2"), Term::var("X1")]),
        );
        assert_eq!(g.to_string(), "r(f(b, a))");
    }

    #[test]
    fn function_rewrite_nested_applications() {
        // g(g(a)) with g(x) := h(x): inner rewritten first, outer sees the
        // *old* g of its argument — simultaneous semantics gives h(h(a)).
        let q = parse_formula("r(g(g(a)))").unwrap();
        let out = rewrite_function(
            &q,
            &Sym::new("g"),
            &[Sym::new("X")],
            &Term::app("h", [Term::var("X")]),
        );
        assert_eq!(out.to_string(), "r(h(h(a)))");
    }

    #[test]
    fn function_rewrite_with_ite_body() {
        // f(x) := ite(r(x), x, f(x)).
        let q = parse_formula("p(f(c))").unwrap();
        let body = Term::ite(
            Formula::rel("r", [Term::var("X")]),
            Term::var("X"),
            Term::app("f", [Term::var("X")]),
        );
        let g = rewrite_function(&q, &Sym::new("f"), &[Sym::new("X")], &body);
        assert_eq!(g.to_string(), "p(ite(r(c), c, f(c)))");
    }

    #[test]
    fn fresh_names_are_fresh() {
        let mut used: BTreeSet<Sym> = ["X", "X_1"].iter().map(|s| Sym::new(*s)).collect();
        let f = fresh_name("X", &mut used);
        assert_eq!(f.as_str(), "X_2");
        assert!(used.contains(&f));
    }
}
