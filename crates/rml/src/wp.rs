//! The weakest-precondition operator of Figure 13.
//!
//! ```text
//! wp(skip, Q)            = Q
//! wp(abort, Q)           = false
//! wp(r(x̄) := ϕ(x̄), Q)   = (A → Q)[ϕ(s̄)/r(s̄)]
//! wp(f(x̄) := t(x̄), Q)   = (A → Q)[t(s̄)/f(s̄)]
//! wp(v := *, Q)          = ∀x. (A → Q)[x/v]
//! wp(assume ϕ, Q)        = ϕ → Q
//! wp(C1 ; C2, Q)         = wp(C1, wp(C2, Q))
//! wp(C1 | C2, Q)         = wp(C1, Q) ∧ wp(C2, Q)
//! ```
//!
//! where `A` is the conjunction of the program's axioms: state mutations are
//! restricted to axiom-satisfying states. Lemma 3.2: if `Q` is `∀*∃*` then
//! so is `wp(C, Q)` (after prenexing) — `wp_preserves_ae_fragment` below
//! checks it on the leader-election receive action.
//!
//! The engines discharge verification conditions through the
//! transition-relation unrolling ([`crate::trans`]), not through `wp`. This
//! tree `wp` is the Figure 13 reference that `tests/wp_vs_transition.rs` and
//! `tests/wp_soundness.rs` check the unrolling against.

use std::collections::BTreeSet;

use ivy_fol::subst::{fresh_name, rewrite_function, rewrite_relation, subst_constant};
use ivy_fol::{Binding, Formula, Signature, Sym, Term};

use crate::ast::Cmd;

/// Computes `wp(cmd, post)` with respect to the axiom conjunction `axiom`.
///
/// `sig` supplies sorts for the fresh universal variable introduced by
/// `havoc`.
///
/// # Panics
///
/// Panics if a havocked variable is not a declared program variable
/// (validated by [`crate::check`]).
pub fn wp(sig: &Signature, axiom: &Formula, cmd: &Cmd, post: &Formula) -> Formula {
    let _span = ivy_telemetry::Span::enter("wp");
    wp_rec(sig, axiom, cmd, post)
}

/// Recursive body of [`wp`], kept separate so the telemetry span covers one
/// top-level call rather than nesting (and double-counting) per subcommand.
fn wp_rec(sig: &Signature, axiom: &Formula, cmd: &Cmd, post: &Formula) -> Formula {
    match cmd {
        Cmd::Skip => post.clone(),
        Cmd::Abort => Formula::False,
        Cmd::UpdateRel { rel, params, body } => {
            let target = Formula::implies(axiom.clone(), post.clone());
            rewrite_relation(&target, rel, params, body)
        }
        Cmd::UpdateFun { fun, params, body } => {
            let target = Formula::implies(axiom.clone(), post.clone());
            rewrite_function(&target, fun, params, body)
        }
        Cmd::Havoc(v) => {
            let decl = sig
                .function(v)
                .unwrap_or_else(|| panic!("havoc of undeclared variable `{v}`"));
            assert!(decl.is_constant(), "havoc target `{v}` is not a variable");
            let target = Formula::implies(axiom.clone(), post.clone());
            let mut used: BTreeSet<Sym> = target.free_vars();
            ivy_fol::subst::all_var_names(&target, &mut used);
            let x = fresh_name(&heading_var(v), &mut used);
            let substituted = subst_constant(&target, v, &Term::Var(x));
            Formula::forall([Binding::new(x, decl.ret)], substituted)
        }
        Cmd::Assume(phi) => Formula::implies(phi.clone(), post.clone()),
        Cmd::Seq(cmds) => {
            let mut q = post.clone();
            for c in cmds.iter().rev() {
                q = wp_rec(sig, axiom, c, &q);
            }
            q
        }
        Cmd::Choice(cmds) => Formula::and(cmds.iter().map(|c| wp_rec(sig, axiom, c, post))),
    }
}

/// A capitalized variable name for the havocked program variable `v`
/// (e.g. `n` becomes `N`), matching the parser's variable convention.
fn heading_var(v: &Sym) -> String {
    let mut s: String = v.as_str().to_string();
    if let Some(first) = s.get_mut(0..1) {
        first.make_ascii_uppercase();
    }
    format!("{s}_h")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::parse_formula;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_sort("id").unwrap();
        sig.add_function("idf", ["node"], "id").unwrap();
        sig.add_relation("leader", ["node"]).unwrap();
        sig.add_relation("pnd", ["id", "node"]).unwrap();
        sig.add_relation("le", ["id", "id"]).unwrap();
        sig.add_constant("n", "node").unwrap();
        sig.add_constant("m", "node").unwrap();
        sig
    }

    #[test]
    fn wp_skip_and_abort() {
        let sig = sig();
        let q = parse_formula("leader(n)").unwrap();
        assert_eq!(wp(&sig, &Formula::True, &Cmd::Skip, &q), q);
        assert_eq!(wp(&sig, &Formula::True, &Cmd::Abort, &q), Formula::False);
    }

    #[test]
    fn wp_assume() {
        let sig = sig();
        let q = parse_formula("leader(n)").unwrap();
        let phi = parse_formula("leader(m)").unwrap();
        let w = wp(&sig, &Formula::True, &Cmd::Assume(phi), &q);
        assert_eq!(w.to_string(), "leader(m) -> leader(n)");
    }

    #[test]
    fn wp_relation_update_substitutes() {
        let sig = sig();
        // leader(x) := false; then "no one is a leader" must hold trivially.
        let cmd = Cmd::UpdateRel {
            rel: Sym::new("leader"),
            params: vec![Sym::new("X0")],
            body: Formula::False,
        };
        let q = parse_formula("forall X:node. ~leader(X)").unwrap();
        let w = wp(&sig, &Formula::True, &cmd, &q);
        // The substituted postcondition is `forall X. ~false`, which
        // normalizes to `true` (substitution itself builds raw nodes).
        assert_eq!(ivy_fol::nnf(&w), Formula::True);
    }

    #[test]
    fn wp_havoc_quantifies() {
        let sig = sig();
        let q = parse_formula("leader(n)").unwrap();
        let w = wp(&sig, &Formula::True, &Cmd::Havoc(Sym::new("n")), &q);
        assert_eq!(w.to_string(), "forall N_h:node. leader(N_h)");
    }

    #[test]
    fn wp_seq_is_right_to_left() {
        let sig = sig();
        // n := m; assume leader(n)  -- wp(Q) = leader(m) -> Q[m/n].
        let cmd = Cmd::seq([
            Cmd::point_update("n", vec![], vec![], Term::cst("m")),
            Cmd::Assume(parse_formula("leader(n)").unwrap()),
        ]);
        let q = parse_formula("pnd(idf(n), n)").unwrap();
        let w = wp(&sig, &Formula::True, &cmd, &q);
        assert_eq!(w.to_string(), "leader(m) -> pnd(idf(m), m)");
    }

    #[test]
    fn wp_choice_conjoins() {
        let sig = sig();
        let q = parse_formula("leader(n)").unwrap();
        let cmd = Cmd::choice([Cmd::Assume(parse_formula("p").unwrap()), Cmd::Abort]);
        // Need `p` relation in sig.
        let mut sig2 = sig.clone();
        sig2.add_relation("p", Vec::<&str>::new()).unwrap();
        let w = wp(&sig2, &Formula::True, &cmd, &q);
        assert_eq!(w, Formula::False, "abort branch forces false");
        let _ = sig;
    }

    #[test]
    fn wp_axioms_guard_updates() {
        let sig = sig();
        let axiom = parse_formula("forall X:node. leader(X)").unwrap();
        let cmd = Cmd::UpdateRel {
            rel: Sym::new("leader"),
            params: vec![Sym::new("X0")],
            body: Formula::False,
        };
        // Post = false; but the update makes the axiom false, so no
        // execution survives: wp = (A -> false)[false/leader] = ~(forall X. false)
        // = true (on nonempty domains; formula-level simplification keeps the
        // negated quantifier).
        let w = wp(&sig, &axiom, &cmd, &Formula::False);
        assert_eq!(w.to_string(), "~(forall X:node. false)");
    }

    #[test]
    fn wp_preserves_ae_fragment() {
        // Lemma 3.2 on a representative command: the paper's receive action
        // shape. Q is ∀*; wp must prenex to ∀*∃* (here even ∀*).
        let sig = sig();
        let axiom = parse_formula("forall X:id, Y:id. le(X, Y) | le(Y, X)").unwrap();
        let cmd = Cmd::seq([
            Cmd::Havoc(Sym::new("n")),
            Cmd::Assume(parse_formula("exists I:id. pnd(I, n)").unwrap()),
            Cmd::insert_tuple(
                "pnd",
                vec![Sym::new("X0"), Sym::new("X1")],
                vec![Term::app("idf", [Term::cst("n")]), Term::cst("m")],
            ),
            Cmd::UpdateRel {
                rel: Sym::new("leader"),
                params: vec![Sym::new("X0")],
                body: parse_formula("leader(X0) | X0 = n").unwrap(),
            },
        ]);
        let q =
            parse_formula("forall N1:node, N2:node. leader(N1) & leader(N2) -> N1 = N2").unwrap();
        let w = wp(&sig, &axiom, &cmd, &q);
        assert!(
            ivy_fol::is_ae_sentence(&w),
            "wp left the ∀*∃* fragment: {w}"
        );
    }
}
