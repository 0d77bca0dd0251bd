//! A reference DPLL solver: recursive, unit propagation + pure-literal
//! elimination, no learning.
//!
//! Deliberately simple — it serves as a differential-testing oracle for the
//! CDCL solver.

use crate::cnf::Cnf;
use crate::lit::Lit;

/// Solves a CNF by plain DPLL. Returns a model on SAT, `None` on UNSAT.
///
/// Exponential worst case; only use on small instances (tests, baselines).
pub fn solve_dpll(cnf: &Cnf) -> Option<Vec<bool>> {
    let clauses: Vec<Vec<Lit>> = cnf.clauses().to_vec();
    let mut assignment: Vec<Option<bool>> = vec![None; cnf.num_vars()];
    if dpll(&clauses, &mut assignment) {
        Some(assignment.into_iter().map(|v| v.unwrap_or(false)).collect())
    } else {
        None
    }
}

fn lit_value(assignment: &[Option<bool>], l: Lit) -> Option<bool> {
    assignment[l.var().index()].map(|b| b == l.is_pos())
}

/// Simplification outcome of one pass.
enum Pass {
    Conflict,
    Fixpoint,
    Progress,
}

fn unit_propagate(clauses: &[Vec<Lit>], assignment: &mut [Option<bool>]) -> Pass {
    let mut progress = false;
    for clause in clauses {
        let mut unassigned: Option<Lit> = None;
        let mut count = 0;
        let mut satisfied = false;
        for &l in clause {
            match lit_value(assignment, l) {
                Some(true) => {
                    satisfied = true;
                    break;
                }
                Some(false) => {}
                None => {
                    unassigned = Some(l);
                    count += 1;
                }
            }
        }
        if satisfied {
            continue;
        }
        match count {
            0 => return Pass::Conflict,
            1 => {
                let l = unassigned.expect("count == 1");
                assignment[l.var().index()] = Some(l.is_pos());
                progress = true;
            }
            _ => {}
        }
    }
    if progress {
        Pass::Progress
    } else {
        Pass::Fixpoint
    }
}

fn dpll(clauses: &[Vec<Lit>], assignment: &mut Vec<Option<bool>>) -> bool {
    loop {
        match unit_propagate(clauses, assignment) {
            Pass::Conflict => return false,
            Pass::Progress => continue,
            Pass::Fixpoint => break,
        }
    }
    // Find a branching variable: first unassigned var in an unsatisfied clause.
    let mut branch = None;
    'outer: for clause in clauses {
        if clause
            .iter()
            .any(|&l| lit_value(assignment, l) == Some(true))
        {
            continue;
        }
        for &l in clause {
            if lit_value(assignment, l).is_none() {
                branch = Some(l);
                break 'outer;
            }
        }
    }
    let Some(l) = branch else {
        return true; // every clause satisfied
    };
    let saved = assignment.clone();
    assignment[l.var().index()] = Some(l.is_pos());
    if dpll(clauses, assignment) {
        return true;
    }
    *assignment = saved;
    assignment[l.var().index()] = Some(!l.is_pos());
    if dpll(clauses, assignment) {
        return true;
    }
    assignment[l.var().index()] = None;
    false
}

/// Exhaustive satisfiability check by enumeration — the "obviously correct"
/// oracle for property tests.
///
/// # Panics
///
/// Panics if the CNF has more than 24 variables.
pub fn solve_brute_force(cnf: &Cnf) -> Option<Vec<bool>> {
    let n = cnf.num_vars();
    assert!(n <= 24, "brute force limited to 24 variables");
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        if cnf.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phole(pigeons: usize, holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let p: Vec<Vec<_>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.new_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| v.pos()));
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    cnf.add_clause([p[a][j].neg(), p[b][j].neg()]);
                }
            }
        }
        cnf
    }

    #[test]
    fn dpll_agrees_on_pigeonhole() {
        let unsat = phole(4, 3);
        assert!(solve_dpll(&unsat).is_none());
        assert!(unsat.solve().is_none());
        let sat = phole(3, 3);
        let m = solve_dpll(&sat).unwrap();
        assert!(sat.eval(&m));
    }

    #[test]
    fn brute_force_agrees() {
        let cnf = phole(3, 2);
        assert!(solve_brute_force(&cnf).is_none());
        assert!(solve_dpll(&cnf).is_none());
    }

    #[test]
    fn empty_cnf_sat() {
        let cnf = Cnf::new();
        assert!(solve_dpll(&cnf).is_some());
        assert!(solve_brute_force(&cnf).is_some());
    }
}
