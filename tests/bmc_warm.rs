//! Warm bounded verification: a repeated `Bmc::check_safety` over one
//! shared oracle must reuse the pooled unrolling — no new session, no
//! frame miss, and (almost) no grounding — and repeating it must not
//! accumulate anything in the pooled session.

use ivy_core::Bmc;
use ivy_protocols::{evaluation, lock_server, Protocol};

/// What one scan cost, read off the oracle's rollup.
#[derive(Debug)]
struct Delta {
    frame_hits: u64,
    frame_misses: u64,
    sessions_built: u64,
    instances: u64,
}

/// Runs one safety scan (the protocols are all safe at these depths) and
/// returns the rollup delta it caused.
fn scan(bmc: &Bmc<'_>, k: usize, name: &str) -> Delta {
    let before = bmc.oracle().rollup();
    let found = bmc.check_safety(k).unwrap();
    assert!(found.is_none(), "{name}: safe at k={k}");
    let after = bmc.oracle().rollup();
    Delta {
        frame_hits: after.frame_hits - before.frame_hits,
        frame_misses: after.frame_misses - before.frame_misses,
        sessions_built: after.sessions_built - before.sessions_built,
        instances: after.report.instances - before.report.instances,
    }
}

#[test]
fn warm_bmc_reuses_the_pooled_unrolling() {
    for Protocol { name, program, .. } in evaluation() {
        let bmc = Bmc::new(&program);
        let cold = scan(&bmc, 2, name);
        assert_eq!(cold.frame_misses, 1, "{name}: cold scan grounds once");
        let warm = scan(&bmc, 2, name);
        assert_eq!(warm.sessions_built, 0, "{name}: warm scan built a session");
        assert_eq!(warm.frame_misses, 0, "{name}: warm scan missed the pool");
        assert_eq!(warm.frame_hits, 1, "{name}");
        assert!(
            warm.instances * 100 <= cold.instances,
            "{name}: warm scan ground {} instances, cold {}",
            warm.instances,
            cold.instances
        );
        // Nothing accumulates: every further repeat costs exactly the same.
        for i in 0..20 {
            let again = scan(&bmc, 2, name);
            assert_eq!(again.frame_misses, 0, "{name}: repeat {i}");
            assert_eq!(again.sessions_built, 0, "{name}: repeat {i}");
            assert_eq!(
                again.instances, warm.instances,
                "{name}: repeat {i} ground a different instance count"
            );
        }
    }
}

#[test]
fn deep_scans_are_pooled_too() {
    // Ten steps used to be ten handle groups — more than the pool admits
    // from one handle — so a depth-10 scan was never reused.
    let program = lock_server::program();
    let bmc = Bmc::new(&program);
    let cold = scan(&bmc, 10, "lock_server");
    assert_eq!(cold.frame_misses, 1);
    let warm = scan(&bmc, 10, "lock_server");
    assert_eq!(warm.frame_misses, 0, "depth-10 rescan must hit the pool");
    assert_eq!(warm.frame_hits, 1);
    assert_eq!(warm.sessions_built, 0);
    assert!(
        warm.instances * 100 <= cold.instances,
        "warm {} vs cold {}",
        warm.instances,
        cold.instances
    );
}
