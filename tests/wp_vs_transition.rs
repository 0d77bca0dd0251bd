//! Cross-crate consistency: the paper's `wp`-based verification conditions
//! (Equation 2) agree with the transition-relation encoding the verifier
//! uses. Both are checked with the same EPR decision procedure; a candidate
//! invariant must be judged identically by the two encodings.

use ivy_repro::epr::{EprOutcome, EprSession};
use ivy_repro::fol::{parse_formula, Formula};
use ivy_repro::ivy::{Conjecture, Verifier};
use ivy_repro::rml::{check_program, parse_program, wp, Program};

const SPREAD: &str = r#"
sort node
relation marked : node
relation blue : node
local n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed; blue(X0) := false }
action mark { havoc n; marked.insert(n) }
action unmark_blue { havoc n; assume blue(n); marked.remove(n) }
"#;

fn program() -> Program {
    let p = parse_program(SPREAD).unwrap();
    assert!(check_program(&p).is_empty());
    p
}

/// Checks consecution `A ∧ I ⇒ wp(C_body, I)` via the wp encoding.
fn wp_consecution_holds(p: &Program, inv: &Formula) -> bool {
    let axiom = p.axiom();
    let weakest = wp(&p.sig, &axiom, &p.body(), inv);
    let mut q = EprSession::new(&p.sig).unwrap();
    q.assert_labeled("axiom", &axiom).unwrap();
    q.assert_labeled("inv", inv).unwrap();
    q.assert_labeled("neg_wp", &Formula::not(weakest)).unwrap();
    matches!(q.check(), EprOutcome::Unsat(_))
}

#[test]
fn encodings_agree_on_inductive_invariants() {
    let p = program();
    let v = Verifier::new(&p);
    let candidates = [
        // Inductive: nothing restores blue marks... blue never set.
        "forall X:node. ~blue(X)",
        // Inductive: marked(seed) given no node is blue... NOT inductive
        // alone (unmark_blue could remove seed if blue(seed)); tests the
        // negative direction.
        "marked(seed)",
        // Inductive trivially.
        "forall X:node. marked(X) | ~marked(X)",
        // Not inductive: mark action breaks it.
        "forall X:node, Y:node. marked(X) & marked(Y) -> X = Y",
        // Not even initially true... consecution may or may not hold;
        // encodings must still agree.
        "forall X:node. ~marked(X)",
    ];
    for src in candidates {
        let inv = parse_formula(src).unwrap();
        let via_wp = wp_consecution_holds(&p, &inv);
        let via_trans = v
            .check_consecution(&[Conjecture::new("I", inv.clone())])
            .unwrap()
            .is_none();
        assert_eq!(
            via_wp, via_trans,
            "encodings disagree on consecution of `{src}`"
        );
    }
}

#[test]
fn wp_initiation_matches_verifier() {
    let p = program();
    let v = Verifier::new(&p);
    let axiom = p.axiom();
    for (src, _expected) in [
        ("marked(seed)", true),
        ("forall X:node. ~marked(X)", false),
        ("forall X:node. ~blue(X)", true),
    ] {
        let inv = parse_formula(src).unwrap();
        // wp encoding of initiation: A ⇒ wp(C_init, I).
        let weakest = wp(&p.sig, &axiom, &p.init, &inv);
        let mut q = EprSession::new(&p.sig).unwrap();
        q.assert_labeled("axiom", &axiom).unwrap();
        q.assert_labeled("neg", &Formula::not(weakest)).unwrap();
        let via_wp = matches!(q.check(), EprOutcome::Unsat(_));
        let via_trans = v
            .check_initiation(&[Conjecture::new("I", inv)])
            .unwrap()
            .is_none();
        assert_eq!(
            via_wp, via_trans,
            "initiation encodings disagree on `{src}`"
        );
    }
}

#[test]
fn wp_vcs_stay_in_decidable_fragment() {
    // Lemma 3.2 / Theorem 3.3 on real protocol bodies: the negated VC of
    // every universal conjecture is ∃*∀*.
    for (p, inv) in [
        (
            ivy_repro::protocols::leader::program(),
            ivy_repro::protocols::leader::invariant(),
        ),
        (
            ivy_repro::protocols::lock_server::program(),
            ivy_repro::protocols::lock_server::invariant(),
        ),
        (
            ivy_repro::protocols::chord::program(),
            ivy_repro::protocols::chord::invariant(),
        ),
    ] {
        let axiom = p.axiom();
        let conj = Formula::and(inv.iter().map(|c| c.formula.clone()));
        let weakest = wp(&p.sig, &axiom, &p.body(), &conj);
        assert!(
            ivy_repro::fol::is_ae_sentence(&weakest),
            "wp left ∀*∃* on a protocol body"
        );
        let vc = Formula::and([axiom, conj, Formula::not(weakest)]);
        assert!(ivy_repro::fol::is_ea_sentence(&vc), "negated VC left ∃*∀*");
    }
}
