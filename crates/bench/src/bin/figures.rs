//! Regenerates every table and figure of the Ivy paper's evaluation.
//!
//! ```text
//! figures fig14        # Figure 14: the six-protocol table (S RF C I G)
//! figures fig6         # Figure 6: the leader-election invariant C0-C3
//! figures fig4         # Figure 4: the BMC error trace without unique ids
//! figures fig7 fig8 fig9   # the three CTI/generalization steps (DOT + text)
//! figures bmc-table    # Section 2.2: BMC depth sweep with wall-clock
//! figures compare      # Section 5.2: proof-effort comparison quantities
//! figures all          # everything above
//! ```

use std::sync::Arc;
use std::time::Instant;

use ivy_bench::{figure14_row, protocols, timed};
use ivy_core::{
    trace_to_text, Bmc, Conjecture, Measure, Oracle, Projection, Session, SessionOutcome,
    VizOptions,
};
use ivy_fol::{parse_formula, Sort};
use ivy_protocols::leader;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig14",
            "fig6",
            "fig4",
            "fig7",
            "fig8",
            "fig9",
            "bmc-table",
            "compare",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for w in wanted {
        match w {
            "fig14" => fig14(),
            "fig6" => fig6(),
            "fig4" => fig4(),
            "fig7" | "fig8" | "fig9" => fig789(),
            "bmc-table" => bmc_table(),
            "compare" => compare(),
            other => eprintln!("unknown figure `{other}`"),
        }
    }
}

/// Figure 14: protocols verified interactively (here: by the oracle user
/// standing in for the paper's human), measured vs. paper-reported.
fn fig14() {
    println!("== Figure 14: protocols verified interactively ==");
    println!("(measured by the ideal-user oracle session; paper values in parentheses)");
    println!(
        "{:<28} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "Protocol", "S", "RF", "C", "I", "G", "verified", "time"
    );
    for entry in protocols() {
        let row = figure14_row(&entry, 40);
        let (ps, prf, pc, pi, pg) = row.paper;
        println!(
            "{:<28} {:>2}({:>2}) {:>3}({:>2}) {:>4}({:>3}) {:>4}({:>3}) {:>4}({:>3}) {:>10} {:>8.1?}",
            row.name, row.s, ps, row.rf, prf, row.c, pc, row.i, pi, row.g, pg,
            row.verified, row.elapsed
        );
    }
}

/// Figure 6: the conjectures found for leader election by replaying the
/// paper's user moves (Figures 7-9) with a scripted user.
fn fig6() {
    println!("\n== Figure 6: leader-election invariant found interactively ==");
    let program = leader::program();
    let initial = vec![Conjecture::new(
        "C0",
        parse_formula(leader::C0).expect("C0 parses"),
    )];
    let mut session = Session::new(&program, initial, leader::measures());
    let mut user = leader::paper_user(3);
    let (outcome, elapsed) = timed(|| session.run(&mut user, 6).expect("session"));
    assert_eq!(outcome, SessionOutcome::Proved);
    for c in session.conjectures() {
        println!("  {c}");
    }
    println!(
        "  -- proved inductive after {} CTIs in {elapsed:.1?} (paper: 3 iterations)",
        session.stats().ctis
    );
}

/// Figure 4: the 4-step error trace found by BMC when `unique_ids` is
/// omitted from the leader-election model.
fn fig4() {
    println!("\n== Figure 4: BMC error trace without unique ids (bound 4) ==");
    let program = leader::program_without_unique_ids();
    let bmc = Bmc::new(&program);
    let (trace, elapsed) = timed(|| {
        bmc.check_safety(4)
            .expect("bmc")
            .expect("two leaders reachable")
    });
    print!("{}", trace_to_text(&trace));
    println!(
        "  -- found in {elapsed:.1?} ({} steps; paper shows 5 states (a)-(e))",
        trace.steps()
    );
}

/// Figures 7-9: the three CTI + generalization steps of the interactive
/// session, printed as text and DOT.
fn fig789() {
    println!("\n== Figures 7-9: CTIs and generalizations for leader election ==");
    let program = leader::program();
    let initial = vec![Conjecture::new(
        "C0",
        parse_formula(leader::C0).expect("C0 parses"),
    )];
    let mut session = Session::new(&program, initial, leader::measures());
    // A wrapper around the paper user that also prints what it sees.
    struct Printing(ivy_core::ScriptedUser, VizOptions);
    impl ivy_core::User for Printing {
        fn on_cti(
            &mut self,
            ctx: &ivy_core::SessionCtx<'_>,
            cti: &ivy_core::Cti,
        ) -> ivy_core::CtiDecision {
            println!("-- CTI {} ({}):", ctx.iteration, cti.violation);
            println!("   (a1) {}", cti.state);
            if let Some(s) = &cti.successor {
                println!("   (a2) {s}");
            }
            println!("{}", ivy_core::structure_to_dot(&cti.state, &self.1));
            self.0.on_cti(ctx, cti)
        }
        fn on_too_strong(
            &mut self,
            ctx: &ivy_core::SessionCtx<'_>,
            attempted: &ivy_fol::PartialStructure,
            trace: &ivy_core::Trace,
        ) -> ivy_core::TooStrongDecision {
            self.0.on_too_strong(ctx, attempted, trace)
        }
        fn on_proposal(
            &mut self,
            ctx: &ivy_core::SessionCtx<'_>,
            proposal: &ivy_core::Proposal,
        ) -> ivy_core::ProposalDecision {
            println!("   (b) upper bound: {}", proposal.upper_bound);
            println!("   (c) auto-generalized: {}", proposal.conjecture);
            println!("{}", ivy_core::partial_to_dot(&proposal.partial, &self.1));
            self.0.on_proposal(ctx, proposal)
        }
    }
    let opts = VizOptions::default().hide("btw").project(Projection {
        name: "next".into(),
        formula: parse_formula("forall Z:node. Z ~= X & Z ~= Y -> btw(X, Y, Z)")
            .expect("projection parses"),
        sort: Sort::new("node"),
    });
    let mut user = Printing(leader::paper_user(3), opts);
    let outcome = session.run(&mut user, 6).expect("session");
    assert_eq!(outcome, SessionOutcome::Proved);
}

/// The Section 2.2 claim: protocols debug via BMC at bounds up to ~10 "in a
/// few minutes". Sweeps the leader election model over depths and reports
/// wall-clock and grounding size.
fn bmc_table() {
    println!("\n== Section 2.2: BMC depth sweep (leader election, correct model) ==");
    println!("{:>6} {:>12} {:>12}", "bound", "result", "time");
    let program = leader::program();
    let mut oracle = Oracle::new();
    oracle.set_instance_limit(50_000_000);
    let bmc = Bmc::with_oracle(&program, Arc::new(oracle));
    for k in 0..=6 {
        let start = Instant::now();
        let out = bmc.check_safety(k).expect("bmc");
        println!(
            "{k:>6} {:>12} {:>12.1?}",
            if out.is_none() { "safe" } else { "violated" },
            start.elapsed()
        );
    }
}

/// Section 5.2 comparison quantities: model sizes in lines, interaction
/// counts, and machine-checked inductiveness replacing manual proof.
fn compare() {
    println!("\n== Section 5.2: proof-effort comparison ==");
    let lock_loc = ivy_protocols::lock_server::SOURCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();
    println!(
        "Lock server model: {lock_loc} non-comment lines (paper: ~50 lines in both Ivy and Verdi)"
    );
    println!("Verdi/Coq manual proof: ~500 lines (paper); here: 0 manual proof lines —");
    println!("inductiveness of the invariant is checked automatically:");
    for entry in protocols() {
        let verifier = ivy_core::Verifier::new(&entry.program);
        let (result, elapsed) = timed(|| verifier.check(&entry.invariant).expect("check"));
        println!(
            "  {:<28} invariant of {:>2} clauses checked inductive={} in {elapsed:.1?}",
            entry.name,
            entry.invariant.len(),
            result.is_inductive()
        );
    }
    let _ = Measure::SortSize(Sort::new("node")); // keep the import honest
}
