//! Differential test: the flat-arena CDCL solver against the DPLL
//! reference solver on randomized CNFs.
//!
//! Every instance is round-tripped through the DIMACS writer/parser first,
//! so the corpus doubles as an interop check, then solved by both the
//! arena solver and `solve_dpll`. Verdicts must agree everywhere; every
//! SAT model either solver returns is checked against the CNF.

use ivy_sat::{parse_dimacs, solve_dpll, write_dimacs, Cnf, Lit, SolveResult, Solver};

/// Deterministic LCG (the PCG/Knuth MMIX multiplier).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random k-SAT instance with `vars` variables and `clauses` clauses of
/// width 1..=4 (width skewed toward 3).
fn random_cnf(vars: usize, clauses: usize, seed: u64) -> Cnf {
    let mut rng = Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1));
    let mut cnf = Cnf::new();
    cnf.ensure_vars(vars);
    let all: Vec<_> = (0..vars as u32).map(ivy_sat::Var).collect();
    for _ in 0..clauses {
        let width = match rng.below(6) {
            0 => 2,
            5 => 4,
            _ => 3,
        };
        let lits: Vec<_> = (0..width)
            .map(|_| {
                let v = all[rng.below(vars as u64) as usize];
                v.lit(rng.below(2) == 0)
            })
            .collect();
        cnf.add_clause(lits);
    }
    cnf
}

fn arena_solver(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    for _ in 0..cnf.num_vars() {
        s.new_var();
    }
    for c in cnf.clauses() {
        s.add_clause(c.iter().copied());
    }
    s
}

/// The DPLL verdict on `cnf`, after checking its model if it found one.
fn dpll_verdict(cnf: &Cnf, label: &str) -> SolveResult {
    match solve_dpll(cnf) {
        Some(model) => {
            assert!(cnf.eval(&model), "{label}: dpll model violates the CNF");
            SolveResult::Sat
        }
        None => SolveResult::Unsat,
    }
}

/// Checks the arena solver's current model against `cnf` and `assumptions`.
fn check_arena_model(s: &Solver, cnf: &Cnf, assumptions: &[Lit], label: &str) {
    let assignment: Vec<bool> = (0..cnf.num_vars())
        .map(|i| s.model_value(ivy_sat::Var(i as u32)).unwrap())
        .collect();
    assert!(
        cnf.eval(&assignment),
        "{label}: arena model violates the CNF"
    );
    for &a in assumptions {
        assert_eq!(
            assignment[a.var().index()],
            a.is_pos(),
            "{label}: arena model violates an assumption"
        );
    }
}

fn check_instance(cnf: &Cnf, label: &str) {
    // DIMACS round-trip: the parsed instance is what both solvers solve.
    let cnf = parse_dimacs(&write_dimacs(cnf)).expect("round-trip parse");
    let expected = dpll_verdict(&cnf, label);
    let mut s = arena_solver(&cnf);
    let got = s.solve();
    assert_eq!(got, expected, "{label}: arena disagrees with dpll");
    if got == SolveResult::Sat {
        check_arena_model(&s, &cnf, &[], label);
    }
}

#[test]
fn randomized_cnfs_small_with_dpll_oracle() {
    for seed in 0..40u64 {
        let vars = 4 + (seed % 7) as usize;
        let clauses = vars * 3 + (seed % 11) as usize;
        let cnf = random_cnf(vars, clauses, seed);
        check_instance(&cnf, &format!("small seed {seed}"));
    }
}

#[test]
fn randomized_cnfs_medium_against_dpll() {
    for seed in 0..15u64 {
        // Around the 3-SAT phase transition (ratio ~4.3) so both verdicts
        // occur and search actually branches.
        let vars = 30 + (seed % 20) as usize;
        let clauses = (vars as f64 * 4.3) as usize;
        let cnf = random_cnf(vars, clauses, 1000 + seed);
        check_instance(&cnf, &format!("medium seed {seed}"));
    }
}

#[test]
fn randomized_cnfs_incremental_assumptions_agree() {
    for seed in 0..10u64 {
        let vars = 20;
        let clauses = 70;
        let cnf = random_cnf(vars, clauses, 5000 + seed);
        let cnf = parse_dimacs(&write_dimacs(&cnf)).expect("round-trip parse");

        // One incremental arena solver answers every probe; DPLL solves
        // the CNF plus one unit clause per assumption from scratch.
        let mut s = arena_solver(&cnf);
        let mut rng = Rng(seed + 99);
        for probe in 0..6 {
            let a = ivy_sat::Var(rng.below(vars as u64) as u32);
            let b = ivy_sat::Var(rng.below(vars as u64) as u32);
            let assumptions = [a.lit(rng.below(2) == 0), b.lit(rng.below(2) == 0)];
            let label = format!("seed {seed} probe {probe}");
            let mut with_units = cnf.clone();
            for &l in &assumptions {
                with_units.add_clause([l]);
            }
            let expected = dpll_verdict(&with_units, &label);
            let got = s.solve_with_assumptions(&assumptions);
            assert_eq!(got, expected, "{label}: incremental verdict mismatch");
            if got == SolveResult::Sat {
                check_arena_model(&s, &cnf, &assumptions, &label);
            }
        }
    }
}
