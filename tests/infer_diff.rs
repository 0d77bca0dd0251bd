//! Differential tests for `ivy_core::infer` — automatic invariant synthesis
//! from the safety properties alone (DESIGN.md §4i). Three guarantees:
//!
//! 1. Everything `infer` claims to have proved is *independently* checkable:
//!    a fresh `Verifier` (no shared state with the synthesis run) must find
//!    the returned clause set inductive, and the set must contain the
//!    program's safety properties — across the bundled evaluation protocols.
//! 2. The loop rides the oracle's frame cache: re-running synthesis through
//!    the same oracle must re-ground strictly fewer frames than the cold
//!    run did (the serve daemon exposes `infer` over the wire precisely to
//!    amortize this).
//! 3. Alpha-equivalence dedup in template enumeration is sound: adding the
//!    duplicates back changes neither Houdini's safety verdict nor the
//!    surviving clause set (up to renaming) — the dedup only removes work.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use ivy_core::{
    enumerate_candidates, houdini_with_oracle, infer, Conjecture, InferOptions, InferStatus,
    Oracle, Verifier,
};
use ivy_epr::Budget;
use ivy_fol::intern::intern;
use ivy_fol::{
    canonical_clause, sort_permutations, template_var, Binding, Formula, FormulaId, Sym, Term,
};
use ivy_protocols as p;

fn budgeted_oracle(secs: u64) -> Arc<Oracle> {
    let mut o = Oracle::new();
    o.set_budget(Budget::with_timeout(Duration::from_secs(secs)));
    Arc::new(o)
}

/// The inferred invariant must prove safety on most of the evaluation
/// protocols (the ROADMAP bar is 4 of 6, always including leader election
/// and the lock server), and every `Proved` verdict must survive
/// independent re-verification by a verifier that shares nothing with the
/// synthesis run.
#[test]
fn infer_verdicts_survive_independent_reverification() {
    // (name, program, measures, include_constants, budget_secs) — Chord's
    // template is relation-only, as the paper's Section 5.1 seed is (the
    // ring-anchor constants come back in via CTI-guided blocking). The two
    // protocols whose invariants need four-variable clauses (distributed
    // lock, learning switch) are expected to degrade to Unknown; they get a
    // short budget so the suite stays fast — what matters is that they
    // degrade *gracefully*, never with a hard error or a wrong verdict.
    let entries: Vec<(&str, ivy_rml::Program, Vec<ivy_core::Measure>, bool, u64)> = vec![
        (
            "leader",
            p::leader::program(),
            p::leader::measures(),
            true,
            240,
        ),
        (
            "lock_server",
            p::lock_server::program(),
            p::lock_server::measures(),
            true,
            240,
        ),
        (
            "distributed_lock",
            p::distributed_lock::program(),
            p::distributed_lock::measures(),
            true,
            30,
        ),
        (
            "learning_switch",
            p::learning_switch::program(),
            p::learning_switch::measures(),
            true,
            30,
        ),
        (
            "db_chain",
            p::db_chain::program(),
            p::db_chain::measures(),
            true,
            240,
        ),
        (
            "chord",
            p::chord::program(),
            p::chord::measures(),
            false,
            240,
        ),
    ];
    let total = entries.len();
    let mut proved = Vec::new();
    for (name, program, measures, include_constants, budget_secs) in entries {
        let oracle = budgeted_oracle(budget_secs);
        let opts = InferOptions {
            measures,
            include_constants,
            ..InferOptions::default()
        };
        let report = match infer(&program, &oracle, &opts) {
            Ok(r) => r,
            // An exhausted budget is an honest Unknown, not a failure —
            // but it must arrive as `Inconclusive`, never a hard error.
            Err(ivy_epr::EprError::Inconclusive(_)) => continue,
            Err(e) => panic!("{name}: infer failed hard: {e}"),
        };
        if report.status != InferStatus::Proved {
            continue;
        }
        proved.push(name);
        // Independent re-verification with a fresh verifier.
        let checked = Verifier::new(&program)
            .check(&report.invariant)
            .unwrap_or_else(|e| panic!("{name}: re-verification errored: {e}"));
        assert!(
            checked.is_inductive(),
            "{name}: inferred invariant is not independently inductive"
        );
        // The invariant must actually contain the safety properties —
        // inductiveness of the set then implies safety.
        for (label, _) in &program.safety {
            assert!(
                report
                    .invariant
                    .iter()
                    .any(|c| c.name == format!("S_{label}")),
                "{name}: safety property {label} missing from the invariant"
            );
        }
    }
    assert!(
        proved.len() * 6 >= total * 4,
        "only {proved:?} of {total} protocols proved from safety alone (need 4/6)"
    );
    for name in ["leader", "lock_server"] {
        assert!(proved.contains(&name), "{name} not proved: {proved:?}");
    }
}

/// Synthesis through a warm oracle re-grounds strictly fewer frames than
/// the cold run: the loop's Houdini passes, CTI searches, and BMC frames
/// are all keyed in the shared session pool.
#[test]
fn rerunning_infer_rides_the_frame_cache() {
    let program = p::lock_server::program();
    let oracle = budgeted_oracle(240);
    let opts = InferOptions {
        measures: p::lock_server::measures(),
        ..InferOptions::default()
    };
    let cold = infer(&program, &oracle, &opts).expect("cold run");
    assert_eq!(cold.status, InferStatus::Proved, "{cold:?}");
    let mid = oracle.rollup();
    assert!(mid.frame_misses > 0, "cold run must build frames");

    let warm = infer(&program, &oracle, &opts).expect("warm run");
    let end = oracle.rollup();
    // Same verdict, same invariant — the cache must not change answers.
    assert_eq!(warm.status, InferStatus::Proved);
    assert_eq!(
        cold.invariant
            .iter()
            .map(|c| c.formula.clone())
            .collect::<Vec<_>>(),
        warm.invariant
            .iter()
            .map(|c| c.formula.clone())
            .collect::<Vec<_>>(),
        "warm run synthesized a different invariant"
    );
    let warm_misses = end.frame_misses - mid.frame_misses;
    assert!(
        warm_misses < mid.frame_misses,
        "warm run re-ground {warm_misses} frames, cold ground {}",
        mid.frame_misses
    );
    assert!(
        end.frame_hits > mid.frame_hits,
        "warm run never hit the session cache"
    );
}

/// The disjuncts of a clause body, interned.
fn disjuncts(f: &Formula) -> Vec<FormulaId> {
    match f {
        Formula::Or(parts) => parts.iter().map(intern).collect(),
        other => vec![intern(other)],
    }
}

/// Enumeration dedups alpha-variants (Chord's 2-variable / 2-literal
/// template, the paper's Section 5.1 seed): every emitted clause is
/// canonically distinct, hand-built alpha-variants of emitted clauses fall
/// into existing equivalence classes (so an enumeration without the dedup
/// would emit strictly more clauses), and running Houdini with the
/// duplicates added back changes neither the safety verdict nor the
/// surviving clause set up to renaming.
#[test]
fn chord_dedup_drops_alpha_variants_without_changing_survivors() {
    let program = p::chord::program();
    let deduped = enumerate_candidates(&program.sig, 2, 2);

    // Canonical keys over the full template variable pool.
    let mut bindings: Vec<Binding> = Vec::new();
    for sort in program.sig.sorts() {
        for i in 0..2 {
            bindings.push(Binding::new(template_var(sort, i), *sort));
        }
    }
    let perms = sort_permutations(&bindings);
    let key_of = |f: &Formula| -> Vec<FormulaId> {
        let body = match f {
            Formula::Forall(_, body) => body.as_ref(),
            other => other,
        };
        canonical_clause(&disjuncts(body), &perms)
    };

    // 1. Every emitted clause is its own alpha-equivalence class.
    let mut keys = HashSet::new();
    for c in &deduped {
        assert!(
            keys.insert(key_of(&c.formula)),
            "enumeration emitted two alpha-variants: {}",
            c.formula
        );
    }

    // 2. Swapping the two node variables yields alpha-variants that land in
    //    already-emitted classes: a dedup-free enumeration would have
    //    emitted them too, so the deduped count is a strict drop.
    let mut swap: BTreeMap<Sym, Term> = BTreeMap::new();
    for sort in program.sig.sorts() {
        swap.insert(template_var(sort, 0), Term::Var(template_var(sort, 1)));
        swap.insert(template_var(sort, 1), Term::Var(template_var(sort, 0)));
    }
    let mut variants: Vec<Conjecture> = Vec::new();
    for (i, c) in deduped.iter().enumerate() {
        let (binds, body) = match &c.formula {
            Formula::Forall(b, body) => (b.clone(), body.as_ref().clone()),
            other => (Vec::new(), other.clone()),
        };
        if binds.iter().filter(|b| b.sort == binds[0].sort).count() < 2 {
            continue; // nothing to permute
        }
        let swapped_body = ivy_fol::subst::subst_vars(&body, &swap);
        if swapped_body == body {
            continue; // symmetric clause, the swap is the identity
        }
        let renamed: Vec<Binding> = binds
            .iter()
            .map(|b| match swap.get(&b.var) {
                Some(Term::Var(v)) => Binding::new(*v, b.sort),
                _ => b.clone(),
            })
            .collect();
        let variant = Formula::forall(renamed, swapped_body);
        assert!(
            keys.contains(&key_of(&variant)),
            "alpha-variant of {} escaped its equivalence class",
            c.formula
        );
        variants.push(Conjecture::new(format!("D{i}"), variant));
    }
    assert!(
        variants.len() > deduped.len() / 4,
        "too few genuine alpha-variants ({} of {}) to exercise the dedup",
        variants.len(),
        deduped.len()
    );

    // 3. Houdini over the deduped set and over deduped ∪ variants: the
    //    duplicates are just as inductive as their originals, so the
    //    verdict and the surviving classes must match exactly.
    let baseline = houdini_with_oracle(&program, deduped.clone(), &budgeted_oracle(240))
        .expect("houdini on the deduped set");
    let mut padded = deduped.clone();
    padded.extend(variants);
    let with_dupes = houdini_with_oracle(&program, padded, &budgeted_oracle(240))
        .expect("houdini on the padded set");
    assert_eq!(baseline.proves_safety, with_dupes.proves_safety);
    let classes = |cs: &[Conjecture]| -> HashSet<Vec<FormulaId>> {
        cs.iter().map(|c| key_of(&c.formula)).collect()
    };
    assert_eq!(
        classes(&baseline.invariant),
        classes(&with_dupes.invariant),
        "adding alpha-duplicates changed the surviving clause set"
    );
}
