//! Concurrency stress: many threads hammering ONE shared oracle with a
//! mix of frames and engines must produce exactly the verdicts the same
//! workload produces single-threaded, and the frame-keyed session pool
//! must hand each pooled session to at most one thread, and each view
//! must account for its own work only.
//!
//! This is the server seam (`ivy serve` runs every request on a view of
//! one oracle), exercised without any sockets in the way.

use std::sync::{Arc, Barrier};

use ivy_core::{houdini_with_oracle, Bmc, Conjecture, Frame, Inductiveness, Oracle, Verifier};
use ivy_fol::parse_formula;
use ivy_rml::{check_program, parse_program, Program};
use ivy_telemetry::OracleRollup;

const MUTEX: &str = r#"
sort client
relation has_lock : client
relation lock_free
local c : client
safety mutex: forall C1:client, C2:client. has_lock(C1) & has_lock(C2) -> C1 = C2
init { has_lock(X0) := false; lock_free() := true }
action acquire { havoc c; assume lock_free; lock_free() := false; has_lock.insert(c) }
action release { havoc c; assume has_lock(c); has_lock.remove(c); lock_free() := true }
"#;

const SPREAD: &str = r#"
sort node
relation marked : node
local n : node
variable seed : node
safety seed_marked: marked(seed)
init { marked(X0) := X0 = seed }
action mark { havoc n; marked.insert(n) }
"#;

fn program(src: &str) -> Program {
    let p = parse_program(src).unwrap();
    assert!(check_program(&p).is_empty());
    p
}

fn mutex_invariant() -> Vec<Conjecture> {
    vec![
        Conjecture::new(
            "mutex",
            parse_formula("forall C1:client, C2:client. has_lock(C1) & has_lock(C2) -> C1 = C2")
                .unwrap(),
        ),
        Conjecture::new(
            "excl",
            parse_formula("forall C:client. has_lock(C) -> ~lock_free").unwrap(),
        ),
    ]
}

/// The mixed workload one "client" runs; returns a verdict transcript.
fn workload(mutex: &Program, spread: &Program, oracle: &Arc<Oracle>) -> Vec<String> {
    let mut verdicts = Vec::new();

    // 1. Strengthened mutex invariant: inductive.
    let v = Verifier::with_oracle(mutex, oracle.clone());
    verdicts.push(match v.check(&mutex_invariant()).unwrap() {
        Inductiveness::Inductive => "mutex:inductive".to_string(),
        Inductiveness::Cti(cti) => format!("mutex:cti:{}", cti.violation),
    });

    // 2. Safety alone: a consecution CTI.
    verdicts.push(match v.check(&Conjecture::safety(mutex)).unwrap() {
        Inductiveness::Inductive => "mutex-weak:inductive".to_string(),
        Inductiveness::Cti(_) => "mutex-weak:cti".to_string(),
    });

    // 3. BMC on a different program (different frames, same pool).
    let bmc = Bmc::with_oracle(spread, oracle.clone());
    verdicts.push(match bmc.check_safety(2).unwrap() {
        None => "spread:safe@2".to_string(),
        Some(_) => "spread:trace".to_string(),
    });

    // 4. Houdini over a tiny template on the mutex model.
    let candidates = ivy_core::enumerate_candidates(&mutex.sig, 1, 1);
    let h = houdini_with_oracle(mutex, candidates, oracle).unwrap();
    verdicts.push(format!(
        "mutex:houdini:{}:{}",
        h.invariant.len(),
        h.proves_safety
    ));

    verdicts
}

#[test]
fn shared_oracle_matches_single_threaded_verdicts() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;

    let mutex = program(MUTEX);
    let spread = program(SPREAD);

    // Reference transcript, computed on a private oracle.
    let reference = workload(&mutex, &spread, &Arc::new(Oracle::new()));

    // The shared oracle every thread hammers. Views share the pool.
    let shared = Arc::new(Oracle::new());
    shared.set_pool_capacity(THREADS * 8);

    let barrier = Barrier::new(THREADS);
    let rollup = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            handles.push(scope.spawn(|| {
                barrier.wait(); // maximize interleaving
                let view = Arc::new(shared.view());
                let mut transcripts = Vec::new();
                for _ in 0..ROUNDS {
                    transcripts.push(workload(&mutex, &spread, &view));
                }
                (transcripts, view.rollup())
            }));
        }
        let mut rollup = OracleRollup::new();
        for h in handles {
            let (transcripts, view_rollup) = h.join().unwrap();
            for transcript in transcripts {
                assert_eq!(transcript, reference, "concurrent verdict divergence");
            }
            rollup.merge(&view_rollup);
        }
        rollup
    });

    // The workload repeated 24 times must have warmed the shared pool:
    // later rounds ride on sessions earlier rounds (of ANY thread) built.
    assert!(
        rollup.frame_hits > rollup.frame_misses,
        "a hot shared pool must serve mostly warm checkouts: {} hits, {} misses",
        rollup.frame_hits,
        rollup.frame_misses
    );
}

#[test]
fn pool_hands_each_session_to_at_most_one_thread() {
    const THREADS: usize = 8;

    let mutex = program(MUTEX);
    let oracle = Arc::new(Oracle::new());
    oracle.set_pool_capacity(THREADS);

    // One frame, shared by every thread.
    let mut frame = Frame::new(&mutex.sig);
    for c in mutex_invariant() {
        frame.push(c.name.clone(), ivy_fol::intern::intern(&c.formula));
    }

    // Round 1: a cold pool and 8 simultaneous checkouts — every thread
    // must get a freshly built session (nothing to share, nothing shared).
    let barrier = Barrier::new(THREADS);
    let run_round = |expect_label: &str| {
        std::thread::scope(|scope| {
            let barrier = &barrier;
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                handles.push(scope.spawn(|| {
                    barrier.wait();
                    let mut session = oracle.open(&frame).unwrap();
                    // Hold the session across a rendezvous so all eight
                    // are checked out at once; a double-handed session
                    // would be mutated from two threads here.
                    barrier.wait();
                    let outcome = session.check().unwrap();
                    matches!(outcome, ivy_epr::EprOutcome::Sat(_))
                }));
            }
            for h in handles {
                assert!(h.join().unwrap(), "{expect_label}: invariant frame is SAT");
            }
        });
    };

    run_round("cold");
    let cold = oracle.rollup();
    assert_eq!(
        cold.sessions_built, THREADS as u64,
        "8 concurrent checkouts of one frame from a cold pool must build 8 sessions"
    );

    // Round 2: all eight sessions were checked back in; the same stampede
    // is served entirely from the pool, one pooled session per thread.
    run_round("warm");
    let warm = oracle.rollup();
    assert_eq!(
        warm.sessions_built, THREADS as u64,
        "a warm pool with 8 pooled sessions must build nothing new"
    );
    assert_eq!(
        warm.frame_hits - cold.frame_hits,
        THREADS as u64,
        "every warm checkout is a pool hit"
    );
}

/// Verifier checks of the inductive mutex invariant. Every goal is asked
/// whatever models the solver picks, so the query count is fixed.
fn check_rounds(mutex: &Program, oracle: &Arc<Oracle>) {
    let v = Verifier::with_oracle(mutex, oracle.clone());
    for _ in 0..4 {
        let verdict = v.check(&mutex_invariant()).unwrap();
        assert!(matches!(verdict, Inductiveness::Inductive));
    }
}

/// Safe BMC runs: every depth is asked, so the query count is fixed too.
fn bmc_rounds(spread: &Program, oracle: &Arc<Oracle>) {
    let bmc = Bmc::with_oracle(spread, oracle.clone());
    for _ in 0..4 {
        assert!(bmc.check_safety(2).unwrap().is_none());
    }
}

#[test]
fn each_view_counts_only_its_own_queries() {
    let mutex = program(MUTEX);
    let spread = program(SPREAD);
    let alone = |run: fn(&Program, &Arc<Oracle>), p: &Program| {
        let oracle = Arc::new(Oracle::new());
        run(p, &oracle);
        oracle.rollup().report.queries
    };
    let expected = [alone(check_rounds, &mutex), alone(bmc_rounds, &spread)];

    // The same two workloads at once, on two views of one root.
    let root = Oracle::new();
    let barrier = Barrier::new(2);
    let on_view = |run: fn(&Program, &Arc<Oracle>), p: &Program| {
        let view = Arc::new(root.view());
        barrier.wait();
        run(p, &view);
        view.rollup().report.queries
    };
    let queries = std::thread::scope(|scope| {
        let check = scope.spawn(|| on_view(check_rounds, &mutex));
        let bmc = scope.spawn(|| on_view(bmc_rounds, &spread));
        [check.join().unwrap(), bmc.join().unwrap()]
    });
    assert_eq!(queries, expected, "each view counts its own queries");
    assert_eq!(root.rollup(), OracleRollup::new(), "the root asked nothing");
}
