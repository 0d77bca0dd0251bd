//! Observability and resource governance for the Ivy pipeline.
//!
//! Three pieces, all dependency-free:
//!
//! * **Timing spans and counters** — [`Span::enter`] measures a phase
//!   (`"wp"`, `"ground"`, `"sat"`, ...) on the monotonic clock and folds
//!   the elapsed time into a process-global, thread-safe registry, so
//!   concurrent server workers aggregate correctly. Recording is off
//!   by default and gated by a single atomic load, so the instrumented
//!   hot paths pay one branch when profiling is disabled.
//!
//! * **[`QueryReport`]** — a merged, machine-readable account of one or
//!   more solver queries: wall time by phase, grounding sizes, clause /
//!   conflict / restart / propagation counts, and atom-cache hits. The
//!   `ivy-serve` crate writes it as the `ivy-profile-v1` object
//!   documented in DESIGN.md §4e.
//!
//! * **[`Budget`]** — a deadline plus conflict and instantiation caps
//!   threaded through the EPR layer and the verification loops.
//!   Exceeding the deadline degrades gracefully: queries report
//!   `Unknown(`[`StopReason`]`)` with partial statistics instead of
//!   running unbounded or panicking.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global span/counter registry
// ---------------------------------------------------------------------------

/// Aggregated wall time and call count for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    pub nanos: u128,
    pub calls: u64,
}

impl PhaseStat {
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1.0e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASES: Mutex<Vec<(&'static str, PhaseStat)>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

/// Turn global recording on or off. Disabled by default; spans and
/// counter bumps are no-ops (one atomic load) while disabled.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded phases and counters (recording state unchanged).
pub fn reset() {
    PHASES.lock().unwrap().clear();
    COUNTERS.lock().unwrap().clear();
}

/// Add `n` to the named global counter (no-op while disabled).
pub fn counter_add(name: &'static str, n: u64) {
    if n == 0 || !is_enabled() {
        return;
    }
    let mut table = COUNTERS.lock().unwrap();
    match table.iter_mut().find(|(k, _)| *k == name) {
        Some((_, v)) => *v += n,
        None => table.push((name, n)),
    }
}

/// Snapshot of every recorded phase, sorted by name.
pub fn phase_snapshot() -> Vec<(String, PhaseStat)> {
    let mut out: Vec<(String, PhaseStat)> = PHASES
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Snapshot of every recorded counter, sorted by name.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// RAII timing span. [`Span::enter`] samples the monotonic clock; the
/// drop folds the elapsed time into the global registry under `phase`.
/// When recording is disabled the span holds no sample and the drop is
/// free.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    phase: &'static str,
    start: Option<Instant>,
}

impl Span {
    pub fn enter(phase: &'static str) -> Span {
        let start = if is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Span { phase, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = start.elapsed().as_nanos();
        let mut table = PHASES.lock().unwrap();
        match table.iter_mut().find(|(k, _)| *k == self.phase) {
            Some((_, stat)) => {
                stat.nanos += nanos;
                stat.calls += 1;
            }
            None => table.push((self.phase, PhaseStat { nanos, calls: 1 })),
        }
    }
}

// ---------------------------------------------------------------------------
// Budgets and stop reasons
// ---------------------------------------------------------------------------

/// Why a query stopped without reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The conflict budget was exhausted.
    ConflictBudget,
    /// The cumulative ground-instance budget was exhausted.
    InstanceBudget,
    /// A counterexample survived projection to the program vocabulary
    /// without falsifying any candidate, so candidate elimination cannot
    /// make progress (e.g. the projection lost the interpretations that
    /// witnessed the violation).
    ProjectionLoss,
    /// The instantiation depth bound was load-bearing: the ground universe
    /// (or the instance set over it) was truncated, so a SAT answer may be
    /// an artifact of the bound rather than a genuine model.
    BoundReached,
}

impl StopReason {
    /// Stable lower-case tag used in JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            StopReason::DeadlineExceeded => "deadline",
            StopReason::ConflictBudget => "conflicts",
            StopReason::InstanceBudget => "instances",
            StopReason::ProjectionLoss => "projection_loss",
            StopReason::BoundReached => "bound",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            StopReason::ConflictBudget => write!(f, "conflict budget exhausted"),
            StopReason::InstanceBudget => write!(f, "instantiation budget exhausted"),
            StopReason::ProjectionLoss => {
                write!(f, "counterexample projection falsified no candidate")
            }
            StopReason::BoundReached => write!(f, "instantiation depth bound reached"),
        }
    }
}

/// Resource limits for a query (or a whole verification run). All
/// limits are optional; [`Budget::UNLIMITED`] imposes none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cap on SAT conflicts per query.
    pub max_conflicts: Option<u64>,
}

impl Budget {
    pub const UNLIMITED: Budget = Budget {
        deadline: None,
        max_conflicts: None,
    };

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::UNLIMITED
        }
    }

    pub fn with_max_conflicts(mut self, max_conflicts: u64) -> Budget {
        self.max_conflicts = Some(max_conflicts);
        self
    }

    /// True if the deadline (if any) has already passed.
    pub fn expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

// ---------------------------------------------------------------------------
// QueryReport
// ---------------------------------------------------------------------------

/// Machine-readable account of one query (or the merge of many).
///
/// Built by the single stats builder in `ivy-epr` so the per-check and
/// per-session counters cannot diverge, then optionally merged across
/// queries by callers. `ivy_serve::profile` writes it as the
/// `ivy-profile-v1` object documented in DESIGN.md §4e.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReport {
    /// Number of queries merged into this report.
    pub queries: u64,
    /// Outcome tag of the *last* query: `sat`, `unsat`, or `unknown`.
    pub outcome: String,
    /// Why the last query stopped early, if it did.
    pub stop: Option<StopReason>,
    /// Total wall time across merged queries.
    pub wall_nanos: u128,
    // Grounding.
    /// Herbrand universe size (max across merged queries).
    pub universe: u64,
    /// Cumulative ground instances.
    pub instances: u64,
    /// Equality lemma clauses the theory added inside the search.
    pub equality_clauses: u64,
    /// Final checks that found an equality violation propagation missed.
    pub final_check_firings: u64,
    // SAT solver.
    pub sat_vars: u64,
    pub sat_clauses: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub restarts: u64,
    pub deleted_clauses: u64,
    // Caches.
    pub atom_cache_hits: u64,
    pub atom_cache_misses: u64,
}

impl QueryReport {
    /// Fold another report into this one: counters add, universe takes
    /// the max, outcome/stop take the other's (latest wins).
    pub fn merge(&mut self, other: &QueryReport) {
        self.queries += other.queries;
        if !other.outcome.is_empty() {
            self.outcome = other.outcome.clone();
        }
        if other.stop.is_some() {
            self.stop = other.stop;
        }
        self.wall_nanos += other.wall_nanos;
        self.universe = self.universe.max(other.universe);
        self.instances += other.instances;
        self.equality_clauses += other.equality_clauses;
        self.final_check_firings += other.final_check_firings;
        self.sat_vars = self.sat_vars.max(other.sat_vars);
        self.sat_clauses = self.sat_clauses.max(other.sat_clauses);
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.deleted_clauses += other.deleted_clauses;
        self.atom_cache_hits += other.atom_cache_hits;
        self.atom_cache_misses += other.atom_cache_misses;
    }
}

// ---------------------------------------------------------------------------
// OracleRollup
// ---------------------------------------------------------------------------

/// Aggregated telemetry of one solver *oracle*: every query the oracle
/// answered (merged into one [`QueryReport`]) plus the frame-cache
/// behaviour that the per-query reports cannot see — how often a
/// grounded session was reused versus rebuilt from scratch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OracleRollup {
    /// Merge of every per-query report the oracle produced.
    pub report: QueryReport,
    /// Session checkouts served from the frame cache.
    pub frame_hits: u64,
    /// Session checkouts that had to ground a fresh session.
    pub frame_misses: u64,
    /// Sessions grounded over the oracle's lifetime (misses + rebuilds
    /// after an exhausted session was discarded).
    pub sessions_built: u64,
}

impl OracleRollup {
    pub fn new() -> OracleRollup {
        OracleRollup::default()
    }

    /// Fold one query's report into the rollup.
    pub fn record_query(&mut self, report: &QueryReport) {
        self.report.merge(report);
    }

    /// Record one session checkout: `hit` when an already-grounded
    /// session was reused for the frame.
    pub fn record_checkout(&mut self, hit: bool) {
        if hit {
            self.frame_hits += 1;
        } else {
            self.frame_misses += 1;
        }
    }

    /// Record that a session was grounded from scratch.
    pub fn record_session_built(&mut self) {
        self.sessions_built += 1;
    }

    /// Fold another rollup into this one (the report as in
    /// [`QueryReport::merge`], the cache counts added).
    pub fn merge(&mut self, other: &OracleRollup) {
        self.report.merge(&other.report);
        self.frame_hits += other.frame_hits;
        self.frame_misses += other.frame_misses;
        self.sessions_built += other.sessions_built;
    }

    /// Fraction of checkouts served from the frame cache.
    pub fn frame_hit_rate(&self) -> f64 {
        let total = self.frame_hits + self.frame_misses;
        if total == 0 {
            0.0
        } else {
            self.frame_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: the registry and enabled flag are global, so
    // splitting this into separate #[test] fns would race under the
    // parallel test runner.
    #[test]
    fn global_registry_lifecycle() {
        set_enabled(false);
        reset();
        {
            let _s = Span::enter("test.disabled");
        }
        counter_add("test.disabled.counter", 3);
        assert!(phase_snapshot().is_empty());
        assert!(counter_snapshot().is_empty());

        set_enabled(true);
        {
            let _s = Span::enter("test.phase");
        }
        {
            let _s = Span::enter("test.phase");
        }
        counter_add("test.counter", 2);
        counter_add("test.counter", 5);
        let phases = phase_snapshot();
        let phase = phases.iter().find(|(n, _)| n == "test.phase").unwrap();
        assert_eq!(phase.1.calls, 2);
        let counters = counter_snapshot();
        let counter = counters.iter().find(|(n, _)| n == "test.counter").unwrap();
        assert_eq!(counter.1, 7);
        set_enabled(false);
        reset();
    }

    #[test]
    fn budget_expiry() {
        assert!(!Budget::UNLIMITED.expired());
        let b = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::UNLIMITED
        };
        assert!(b.expired());
        let b = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!b.expired());
    }

    #[test]
    fn report_merge() {
        let mut a = QueryReport {
            queries: 1,
            outcome: "unsat".into(),
            universe: 10,
            instances: 100,
            equality_clauses: 6,
            conflicts: 5,
            ..QueryReport::default()
        };
        let b = QueryReport {
            queries: 1,
            outcome: "unknown".into(),
            stop: Some(StopReason::DeadlineExceeded),
            universe: 7,
            instances: 50,
            equality_clauses: 4,
            final_check_firings: 1,
            conflicts: 2,
            ..QueryReport::default()
        };
        a.merge(&b);
        // An empty report counts no query.
        a.merge(&QueryReport::default());
        assert_eq!(a.queries, 2);
        assert_eq!(a.outcome, "unknown");
        assert_eq!(a.stop, Some(StopReason::DeadlineExceeded));
        assert_eq!(a.universe, 10);
        assert_eq!(a.instances, 150);
        assert_eq!(a.conflicts, 7);
        assert_eq!((a.equality_clauses, a.final_check_firings), (10, 1));
    }

    #[test]
    fn oracle_rollup_accounting() {
        let mut r = OracleRollup::new();
        assert_eq!(r.frame_hit_rate(), 0.0);
        r.record_checkout(false);
        r.record_session_built();
        r.record_checkout(true);
        r.record_checkout(true);
        r.record_query(&QueryReport {
            queries: 1,
            outcome: "unsat".into(),
            instances: 40,
            ..QueryReport::default()
        });
        r.record_query(&QueryReport {
            queries: 1,
            outcome: "sat".into(),
            instances: 2,
            ..QueryReport::default()
        });
        assert_eq!(r.frame_hits, 2);
        assert_eq!(r.frame_misses, 1);
        assert_eq!(r.sessions_built, 1);
        assert!((r.frame_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.report.queries, 2);
        assert_eq!(r.report.instances, 42);
        let mut total = r.clone();
        total.merge(&OracleRollup::new());
        assert_eq!(total, r);
        total.merge(&r);
        assert_eq!(
            (total.frame_hits, total.frame_misses, total.sessions_built),
            (4, 2, 2)
        );
        assert_eq!(total.report.queries, 4);
    }
}
