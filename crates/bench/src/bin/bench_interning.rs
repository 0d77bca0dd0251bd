//! Tree-vs-interned ablation: measures wp generation and transition
//! compilation on the six evaluation protocols against the pre-interning
//! tree-walking baselines, cross-validates that both pipelines produce
//! identical outputs, and writes the medians to `BENCH_interning.json`.
//!
//! Usage: `cargo run --release -p ivy-bench --bin bench_interning`

use std::fmt::Write as _;
use std::time::Duration;

use ivy_bench::harness::measure;
use ivy_bench::reference::{unroll_free_tree, wp_tree};
use ivy_fol::intern;
use ivy_rml::{unroll_free, wp_id, Program};

const SAMPLES: usize = 15;

struct Case {
    key: &'static str,
    program: Program,
}

fn cases() -> Vec<Case> {
    use ivy_protocols as p;
    vec![
        Case {
            key: "leader",
            program: p::leader::program(),
        },
        Case {
            key: "lock_server",
            program: p::lock_server::program(),
        },
        Case {
            key: "distributed_lock",
            program: p::distributed_lock::program(),
        },
        Case {
            key: "learning_switch",
            program: p::learning_switch::program(),
        },
        Case {
            key: "db_chain",
            program: p::db_chain::program(),
        },
        Case {
            key: "chord",
            program: p::chord::program(),
        },
    ]
}

struct Pair {
    tree: Duration,
    interned: Duration,
}

impl Pair {
    fn speedup(&self) -> f64 {
        let i = self.interned.as_secs_f64();
        if i == 0.0 {
            f64::INFINITY
        } else {
            self.tree.as_secs_f64() / i
        }
    }
}

/// wp of the safety conjunction through every action body, both pipelines;
/// asserts they produce the same formula before timing.
fn bench_wp(case: &Case) -> Pair {
    let p = &case.program;
    let axiom = p.axiom();
    let post = p.safety_formula();
    // Cross-validate: the interned wp is an exact port of the tree wp.
    for a in &p.actions {
        let t = wp_tree(&p.sig, &axiom, &a.cmd, &post);
        let id = wp_id(
            &p.sig,
            intern::intern(&axiom),
            &a.cmd,
            intern::intern(&post),
        );
        assert_eq!(
            intern::resolve(id),
            t,
            "{}: interned wp diverged on action {}",
            case.key,
            a.name
        );
    }
    let tree = measure(SAMPLES, || {
        for a in &p.actions {
            std::hint::black_box(wp_tree(&p.sig, &axiom, &a.cmd, &post));
        }
    });
    let ax = intern::intern(&axiom);
    let po = intern::intern(&post);
    let interned = measure(SAMPLES, || {
        for a in &p.actions {
            std::hint::black_box(wp_id(&p.sig, ax, &a.cmd, po));
        }
    });
    Pair {
        tree: tree.median,
        interned: interned.median,
    }
}

/// One-step free unrolling (the consecution frame), both compilers; asserts
/// the interned compiler emits exactly the tree compiler's formulas.
fn bench_transition(case: &Case) -> Pair {
    let p = &case.program;
    let t = unroll_free_tree(p, 1);
    let u = unroll_free(p, 1);
    assert_eq!(
        intern::resolve(u.base),
        t.base,
        "{}: base diverged",
        case.key
    );
    assert_eq!(u.steps.len(), t.steps.len());
    for (is, ts) in u.steps.iter().zip(&t.steps) {
        assert_eq!(intern::resolve(*is), *ts, "{}: step diverged", case.key);
    }
    assert_eq!(u.maps, t.maps, "{}: vocabulary maps diverged", case.key);
    let tree = measure(SAMPLES, || {
        std::hint::black_box(unroll_free_tree(p, 1));
    });
    let interned = measure(SAMPLES, || {
        std::hint::black_box(unroll_free(p, 1));
    });
    Pair {
        tree: tree.median,
        interned: interned.median,
    }
}

fn main() {
    let mut json = String::from("{\n  \"samples\": ");
    let _ = write!(json, "{SAMPLES},\n  \"protocols\": {{\n");
    let all = cases();
    for (ci, case) in all.iter().enumerate() {
        eprintln!("== {} ==", case.key);
        let wp = bench_wp(case);
        eprintln!(
            "  wp:         tree {:?}  interned {:?}  ({:.2}x)",
            wp.tree,
            wp.interned,
            wp.speedup()
        );
        let tr = bench_transition(case);
        eprintln!(
            "  transition: tree {:?}  interned {:?}  ({:.2}x)",
            tr.tree,
            tr.interned,
            tr.speedup()
        );
        let _ = writeln!(json, "    \"{}\": {{", case.key);
        for (name, pair) in [("wp", &wp), ("transition", &tr)] {
            let _ = write!(
                json,
                "      \"{name}\": {{\"tree_median_us\": {:.1}, \"interned_median_us\": {:.1}, \"speedup\": {:.2}}}",
                pair.tree.as_secs_f64() * 1e6,
                pair.interned.as_secs_f64() * 1e6,
                pair.speedup()
            );
            json.push_str(if name == "transition" { "\n" } else { ",\n" });
        }
        json.push_str(if ci + 1 == all.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_interning.json", &json).expect("write BENCH_interning.json");
    println!("wrote BENCH_interning.json");
}
