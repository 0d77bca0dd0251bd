//! The unified solver oracle: one frame-cached, strategy-aware query
//! layer under every proof engine.
//!
//! Every engine in this crate — inductiveness checking ([`crate::vc`]),
//! bounded verification ([`crate::bmc`]), Houdini ([`mod@crate::houdini`]),
//! minimal-CTI search ([`crate::minimize`]), and BMC + Auto Generalize
//! ([`crate::generalize`]) — is ultimately a stream of EPR queries against
//! a shared *frame*: the axioms, the unrolling, and the background
//! hypotheses that stay fixed while only a small per-query *goal* changes.
//! This module factors that observation into three types:
//!
//! * [`Frame`]: a signature plus an ordered list of labeled, interned
//!   assertions, content-fingerprinted via [`ivy_epr::frame_fingerprint`].
//! * [`Goal`]: the per-query assertions, labeled for UNSAT cores.
//! * [`Oracle`]: owns the [`QueryStrategy`], the resource [`Budget`],
//!   instance limit, its own telemetry rollup, and a handle on a
//!   frame-fingerprint-keyed pool of grounded [`EprSession`]s, so engines
//!   querying the same frame — even different engines, at different times —
//!   reuse one grounding instead of re-grounding it per query family.
//!
//! Every query, under either strategy, is a [`FrameSession`] goal on an
//! [`EprSession`]. [`QueryStrategy::Session`] checks sessions out of the
//! pool and back in; [`QueryStrategy::Fresh`] grounds a new session for
//! each query, uses it once and drops it, never touching the pool.
//!
//! # Cache invalidation rules
//!
//! A pooled session is keyed by its frame's fingerprint: the signature
//! content plus the ordered `(label, FormulaId)` assertion list. Any change
//! to the frame — one more hypothesis, a different unrolling depth, a grown
//! signature — changes the fingerprint, so stale reuse is impossible by
//! construction. Per-query state never enters the pool: a checked-out
//! [`FrameSession`] retires all of its groups on drop, restoring the
//! session to frame-only state before check-in. Budgets and limits are
//! re-applied at checkout (a pooled session may carry stale deadlines).
//! Sessions carry a *cumulative* instantiation budget; when a recycled
//! session has too little left for a new group, the oracle transparently
//! rebuilds it from the frame and replays the handle's groups, so verdicts
//! match fresh grounding exactly. The pool holds at most
//! [`MAX_POOLED_SESSIONS`] sessions by default (oldest evicted first;
//! see [`Oracle::set_pool_capacity`]).
//!
//! Each frame assert is its own session group, so a handle can query a
//! *prefix* of the frame ([`Oracle::open_prefix`],
//! [`FrameSession::set_frame_prefix`]) — the depth scan over `base` plus
//! `k` transition steps that BMC, BMC + Auto Generalize, Houdini's
//! initiation pass and `infer`'s reachability filter all run on, and the
//! `base, inv:*` then `step` scan of [`crate::Verifier::check`]. A session
//! grounds frame asserts only up to the largest prefix any of its tenants
//! asked for, and masks the asserts past the active prefix by not assuming
//! their groups. Any grounded prefix is poolable: a handle is checked in
//! with every grounded frame group re-enabled, and a later handle that
//! asks for a longer prefix grounds the missing asserts on the pooled
//! session.
//!
//! # Sharing across threads and tenants
//!
//! An `Oracle` is `Sync`: `solve`/`first_sat`/`open` take `&self`, and the
//! pool hands each checked-out session to exactly one [`FrameSession`] (a
//! checkout *removes* the session, so double-handing is impossible by
//! ownership). Cloning produces a *view* sharing the pool, with its own
//! configuration and an empty telemetry rollup — the `ivy serve` daemon
//! derives one view per request to enforce per-request budgets and report
//! per-request telemetry while all clients warm one cache. Engines that
//! share one `Arc<Oracle>` share its rollup. Concurrent checkouts of the
//! same frame simply miss and ground extra sessions, all of which are
//! pooled on check-in; under a steady concurrent load the pool converges
//! to about one session per worker per hot frame.

use std::fmt;
use std::sync::{Arc, Mutex};

use ivy_epr::{
    frame_fingerprint, Budget, EprError, EprOutcome, EprSession, GroupId, InstantiationMode, Model,
    DEFAULT_INSTANCE_LIMIT,
};
use ivy_fol::intern::FormulaId;
use ivy_fol::Signature;
use ivy_telemetry::{counter_add, OracleRollup, QueryReport, StopReason};

/// Extracts the SAT model of an outcome, mapping a budget-exhausted
/// [`EprOutcome::Unknown`] to [`EprError::Inconclusive`] so callers can
/// never mistake "ran out of budget" for "no counterexample".
pub(crate) fn sat_model(outcome: EprOutcome) -> Result<Option<Model>, EprError> {
    match outcome {
        EprOutcome::Sat(model) => Ok(Some(*model)),
        EprOutcome::Unsat(_) => Ok(None),
        EprOutcome::Unknown(r) => Err(EprError::Inconclusive(r)),
    }
}

/// How an [`Oracle`] discharges its families of per-goal queries.
///
/// Both strategies return the same verdict and report the same
/// first-found witness (the one with the lowest goal index); only the
/// witnessing model may differ, as SAT models are not unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryStrategy {
    /// One new [`EprSession`] per query, never pooled: the frame (and a
    /// handle's live groups) is re-grounded and re-encoded every time,
    /// and the session is dropped after its one check. The reference
    /// implementation.
    Fresh,
    /// Incremental [`EprSession`]s, pooled by frame fingerprint: the frame
    /// is grounded once and each goal runs as an assumption-guarded group
    /// on the same solver, reusing learnt clauses and equality lemmas
    /// across queries — and across engines. The default.
    #[default]
    Session,
}

/// The persistent part of a query family: a signature plus an ordered list
/// of labeled, interned assertions (axioms, unrolling, background
/// hypotheses). Content-fingerprinted so oracles can pool grounded
/// sessions per frame.
#[derive(Clone, Debug)]
pub struct Frame {
    sig: Signature,
    asserts: Vec<(String, FormulaId)>,
}

impl Frame {
    /// An empty frame over `sig`.
    pub fn new(sig: &Signature) -> Frame {
        Frame {
            sig: sig.clone(),
            asserts: Vec::new(),
        }
    }

    /// Appends one labeled assertion.
    pub fn push(&mut self, label: impl Into<String>, id: FormulaId) {
        self.asserts.push((label.into(), id));
    }

    /// The frame's signature.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// The labeled assertions, in insertion order.
    pub fn asserts(&self) -> &[(String, FormulaId)] {
        &self.asserts
    }

    /// The frame's content fingerprint under an [`InstantiationMode`]
    /// (process-local; see [`ivy_epr::frame_fingerprint`]): bounded and
    /// full groundings of the same frame (and bounded groundings at
    /// different depths) are distinct cache entries, so pooled sessions
    /// are never shared across modes.
    pub fn fingerprint(&self, mode: InstantiationMode) -> u64 {
        frame_fingerprint(&self.sig, &self.asserts, mode)
    }
}

/// The per-query part: labeled assertions conjoined with a frame for one
/// query, labeled individually so UNSAT cores can name them.
#[derive(Clone, Debug, Default)]
pub struct Goal {
    asserts: Vec<(String, FormulaId)>,
}

impl Goal {
    /// A goal with one labeled assertion.
    pub fn new(label: impl Into<String>, id: FormulaId) -> Goal {
        let mut g = Goal::default();
        g.push(label, id);
        g
    }

    /// Appends one labeled assertion.
    pub fn push(&mut self, label: impl Into<String>, id: FormulaId) {
        self.asserts.push((label.into(), id));
    }

    /// The labeled assertions, in insertion order.
    pub fn asserts(&self) -> &[(String, FormulaId)] {
        &self.asserts
    }
}

/// Default bound on pooled sessions per oracle; the oldest is evicted
/// first. Long-running multi-tenant processes (the `ivy serve` daemon)
/// raise it via [`Oracle::set_pool_capacity`] so concurrent clients over
/// many frames do not thrash the cache.
pub const MAX_POOLED_SESSIONS: usize = 8;

/// A [`FrameSession`] that asserted more handle groups than this is *not*
/// returned to the pool on drop. Retiring a group disables its assumption
/// but keeps its clauses, so a handle with heavy group churn (Houdini's
/// per-candidate hypothesis juggling, a long minimization descent) leaves a
/// session whose dead clauses tax every later tenant — re-grounding the
/// frame is cheaper than inheriting them. Goal asserts are not counted:
/// they are one or two groups per query by construction.
pub const MAX_POOLED_HANDLE_GROUPS: usize = 8;

/// One pooled session: grounded for a prefix of the asserts of the frame
/// keyed by `key`, with every grounded frame group enabled.
struct Pooled {
    key: u64,
    session: EprSession,
    /// `frame_groups[i]` is the session group of frame assert `i`.
    frame_groups: Vec<GroupId>,
}

/// The shared half of an oracle: the session pool, common to every view
/// cloned from the same root oracle.
struct OracleShared {
    pool: Mutex<Vec<Pooled>>,
    pool_capacity: Mutex<usize>,
}

impl OracleShared {
    fn new() -> OracleShared {
        OracleShared {
            pool: Mutex::new(Vec::new()),
            pool_capacity: Mutex::new(MAX_POOLED_SESSIONS),
        }
    }
}

/// The solver oracle: every engine's single point of contact with the EPR
/// layer (see the module docs).
///
/// Cloning an oracle produces a *view*: an independent copy of the
/// configuration (strategy, budget, limits) that shares the original's
/// session pool and starts an empty telemetry rollup. This is the seam a
/// multi-tenant server needs — each request derives a view with its own
/// admission budget and its own account of the work, while every view
/// warms (and is warmed by) the same frame-keyed cache. Checked-out
/// sessions are owned by exactly one [`FrameSession`] at a time (the pool
/// *removes* on checkout), so views on different threads can never hand
/// one solver to two requests.
pub struct Oracle {
    strategy: QueryStrategy,
    mode: InstantiationMode,
    budget: Budget,
    instance_limit: u64,
    shared: Arc<OracleShared>,
    /// Every query, checkout and session build of this oracle value (not
    /// of its views).
    rollup: Mutex<OracleRollup>,
}

impl Clone for Oracle {
    fn clone(&self) -> Oracle {
        Oracle {
            strategy: self.strategy,
            mode: self.mode,
            budget: self.budget,
            instance_limit: self.instance_limit,
            shared: Arc::clone(&self.shared),
            rollup: Mutex::new(OracleRollup::new()),
        }
    }
}

impl fmt::Debug for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Oracle")
            .field("strategy", &self.strategy)
            .field("budget", &self.budget)
            .field("instance_limit", &self.instance_limit)
            .field("pooled_sessions", &self.shared.pool.lock().unwrap().len())
            .finish()
    }
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle::new()
    }
}

impl Oracle {
    /// An oracle with the default strategy ([`QueryStrategy::Session`]),
    /// no budget, and the default instance limit.
    pub fn new() -> Oracle {
        Oracle {
            strategy: QueryStrategy::default(),
            mode: InstantiationMode::default(),
            budget: Budget::UNLIMITED,
            instance_limit: DEFAULT_INSTANCE_LIMIT,
            shared: Arc::new(OracleShared::new()),
            rollup: Mutex::new(OracleRollup::new()),
        }
    }

    /// A *view* of this oracle: an independent configuration copy sharing
    /// the session pool, with an empty telemetry rollup of its own (an
    /// explicit name for what [`Clone`] does). A server derives one per
    /// request to apply per-request budgets and read per-request telemetry
    /// while every request hits the same frame cache.
    pub fn view(&self) -> Oracle {
        self.clone()
    }

    /// Bounds the shared session pool (shared by every view; excess
    /// oldest sessions are evicted immediately). The default is
    /// [`MAX_POOLED_SESSIONS`], sized for one CLI run; a daemon serving
    /// many concurrent clients over many frames should scale this to
    /// roughly `workers × live frames` to avoid cache thrash.
    pub fn set_pool_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        *self.shared.pool_capacity.lock().unwrap() = capacity;
        let mut pool = self.shared.pool.lock().unwrap();
        while pool.len() > capacity {
            pool.remove(0);
        }
    }

    /// The shared session pool's current capacity.
    pub fn pool_capacity(&self) -> usize {
        *self.shared.pool_capacity.lock().unwrap()
    }

    /// Selects how query families are discharged.
    pub fn set_strategy(&mut self, strategy: QueryStrategy) {
        self.strategy = strategy;
    }

    /// The active query strategy.
    pub fn strategy(&self) -> QueryStrategy {
        self.strategy
    }

    /// Selects the [`InstantiationMode`] of every query.
    /// [`InstantiationMode::Bounded`] admits unstratified signatures and
    /// `∀∃` assertions; verdicts whose soundness depended on the bound
    /// surface as [`EprError::Inconclusive`] with
    /// [`StopReason::BoundReached`], never as a wrong answer. The mode is
    /// part of the session-pool key, so bounded and full queries over the
    /// same frame never share pooled state.
    pub fn set_mode(&mut self, mode: InstantiationMode) {
        self.mode = mode;
    }

    /// The active instantiation mode.
    pub fn mode(&self) -> InstantiationMode {
        self.mode
    }

    /// Installs a resource budget applied to every query. Exceeding it
    /// surfaces as [`EprError::Inconclusive`] rather than a wrong verdict.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The active resource budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Caps grounding size per query (cumulative per session under
    /// [`QueryStrategy::Session`]; the oracle rebuilds exhausted recycled
    /// sessions transparently).
    pub fn set_instance_limit(&mut self, limit: u64) {
        self.instance_limit = limit;
    }

    /// The active instance limit.
    pub fn instance_limit(&self) -> u64 {
        self.instance_limit
    }

    /// Discharges one `frame ∧ goal` query under the active strategy.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn solve(&self, frame: &Frame, goal: &Goal) -> Result<EprOutcome, EprError> {
        self.open(frame)?.solve_goal(goal)
    }

    /// In bounded mode every resource refusal is best-effort by contract:
    /// an instantiation-budget overflow degrades to
    /// [`EprError::Inconclusive`] (with [`StopReason::InstanceBudget`])
    /// like any other exhausted bound, instead of surfacing as a hard
    /// error. Full mode keeps [`EprError::TooManyInstances`] as an error —
    /// the query should be restructured. Applied at the oracle's *public*
    /// boundaries only: the internal recycled-session rebuild logic needs
    /// to see the raw error.
    fn soften(&self, e: EprError) -> EprError {
        match e {
            EprError::TooManyInstances { .. } if self.mode.is_bounded() => {
                EprError::Inconclusive(StopReason::InstanceBudget)
            }
            e => e,
        }
    }

    /// Discharges the query family `frame ∧ goal(0..count)` and returns the
    /// lowest-index satisfiable goal's witness, or `None` when every goal is
    /// unsatisfiable.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`]; a budget-exhausted `Unknown` surfaces as
    /// [`EprError::Inconclusive`].
    pub fn first_sat<T, G, W>(
        &self,
        frame: &Frame,
        count: usize,
        goal: G,
        witness: W,
    ) -> Result<Option<T>, EprError>
    where
        G: Fn(usize) -> Goal,
        W: Fn(usize, &Model) -> T,
    {
        self.open(frame)?.first_sat(count, goal, witness)
    }

    /// Opens a handle for a *stateful* query family over one frame: the
    /// caller asserts, toggles, and retires its own groups on top of the
    /// frame (Houdini's hypothesis juggling, minimization's constraint
    /// descent). Under [`QueryStrategy::Fresh`] the handle records groups
    /// and grounds a single-use session per query, never touching the pool;
    /// otherwise it holds a live session (pooled on drop).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] from grounding the frame.
    pub fn open(&self, frame: &Frame) -> Result<FrameSession<'_>, EprError> {
        self.open_prefix(frame, frame.asserts().len())
    }

    /// Like [`Oracle::open`], but only the first `n` frame asserts
    /// constrain queries until [`FrameSession::set_frame_prefix`] moves the
    /// prefix (the depth scan: `base` plus `k` steps, queried at prefix
    /// `j + 1` for depth `j`; [`crate::Verifier::check`]: safety at the
    /// invariant, then consecution with the step). A cold session grounds
    /// frame asserts only up to the active prefix, so a scan that stops
    /// early never pays for the deeper steps. A pooled session holds
    /// whatever prefix its last tenant grounded: the asserts it lacks up to
    /// `n` are grounded now, and those past `n` are merely disabled.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] from grounding the prefix.
    pub fn open_prefix(&self, frame: &Frame, n: usize) -> Result<FrameSession<'_>, EprError> {
        let n = n.min(frame.asserts().len());
        let key = frame.fingerprint(self.mode);
        let live = match self.strategy {
            QueryStrategy::Fresh => None,
            QueryStrategy::Session => {
                Some(self.checkout(frame, key, n).map_err(|e| self.soften(e))?)
            }
        };
        let mut handle = FrameSession {
            oracle: self,
            frame: frame.clone(),
            prefix: n,
            key,
            budget: self.budget,
            groups: Vec::new(),
            live,
        };
        handle.set_frame_prefix(n)?;
        Ok(handle)
    }

    /// A snapshot of this oracle's aggregated telemetry: the work done
    /// through this value, not through its views.
    pub fn rollup(&self) -> OracleRollup {
        self.rollup.lock().unwrap().clone()
    }

    /// Takes a session for `frame` from the pool (some prefix of the
    /// frame's asserts grounded), or grounds one for the first `prefix`
    /// frame asserts.
    fn checkout(&self, frame: &Frame, key: u64, prefix: usize) -> Result<LiveState, EprError> {
        let cached = {
            let mut pool = self.shared.pool.lock().unwrap();
            pool.iter()
                .rposition(|p| p.key == key)
                .map(|i| pool.remove(i))
        };
        match cached {
            Some(Pooled {
                mut session,
                frame_groups,
                ..
            }) => {
                // Budgets and limits are configuration, not frame content:
                // re-apply them, the pooled values may be stale.
                session.set_budget(self.budget);
                session.set_instance_limit(self.instance_limit);
                self.note_checkout(true);
                Ok(LiveState::new(session, frame_groups, true))
            }
            None => {
                self.note_checkout(false);
                let (session, frame_groups) =
                    self.build_session(frame, key, prefix, self.budget)?;
                Ok(LiveState::new(session, frame_groups, false))
            }
        }
    }

    /// Grounds a fresh session for the first `prefix` asserts of `frame`,
    /// returning it with the session group of each grounded assert.
    fn build_session(
        &self,
        frame: &Frame,
        key: u64,
        prefix: usize,
        budget: Budget,
    ) -> Result<(EprSession, Vec<GroupId>), EprError> {
        let mut s = EprSession::with_mode(frame.sig(), self.mode)?;
        s.set_frame_key(key);
        s.set_instance_limit(self.instance_limit);
        s.set_budget(budget);
        let mut frame_groups = Vec::with_capacity(frame.asserts().len());
        for (label, id) in &frame.asserts()[..prefix] {
            frame_groups.push(s.assert_id(label.clone(), *id)?);
        }
        self.rollup.lock().unwrap().record_session_built();
        counter_add("oracle.sessions_built", 1);
        Ok((s, frame_groups))
    }

    /// Returns a session to the pool; every grounded frame assert (a
    /// prefix of the frame) must be enabled, and every handle group
    /// retired.
    fn checkin(&self, key: u64, session: EprSession, frame_groups: Vec<GroupId>) {
        debug_assert_eq!(session.frame_key(), Some(key));
        let capacity = *self.shared.pool_capacity.lock().unwrap();
        let mut pool = self.shared.pool.lock().unwrap();
        pool.push(Pooled {
            key,
            session,
            frame_groups,
        });
        while pool.len() > capacity {
            pool.remove(0);
        }
    }

    fn record(&self, report: &QueryReport) {
        self.rollup.lock().unwrap().record_query(report);
    }

    fn note_checkout(&self, hit: bool) {
        self.rollup.lock().unwrap().record_checkout(hit);
        counter_add(
            if hit {
                "oracle.frame_hits"
            } else {
                "oracle.frame_misses"
            },
            1,
        );
    }
}

/// One group asserted through a [`FrameSession`] handle, mirrored outside
/// the live session so fresh handles (and session rebuilds) can replay it.
struct GroupRec {
    label: String,
    ids: Vec<FormulaId>,
    enabled: bool,
    retired: bool,
}

/// The live half of a [`FrameSession`]: the checked-out session plus the
/// frame and per-handle group mappings.
struct LiveState {
    session: EprSession,
    /// `frame_groups[i]` is the session group of frame assert `i`; only
    /// the asserts grounded so far have one.
    frame_groups: Vec<GroupId>,
    /// `map[i]` is the session group of handle group `i` (`None` once
    /// retired).
    map: Vec<Option<GroupId>>,
    /// True when the session was recycled from the pool, so a
    /// `TooManyInstances` on a new group may just mean "budget already
    /// spent by earlier tenants" — rebuilt transparently.
    reused: bool,
}

impl LiveState {
    fn new(session: EprSession, frame_groups: Vec<GroupId>, reused: bool) -> LiveState {
        LiveState {
            session,
            frame_groups,
            map: Vec::new(),
            reused,
        }
    }
}

/// Handle to one group asserted via [`FrameSession::assert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameGroup(usize);

/// A checked-out query handle over one [`Frame`] (see [`Oracle::open`]).
/// Dropping the handle retires its groups and returns the session (if any)
/// to the oracle's pool with every grounded frame group re-enabled: the
/// pool keeps whatever prefix of the frame the handle grounded, and the
/// next tenant grounds the rest only if it asks for it.
pub struct FrameSession<'o> {
    oracle: &'o Oracle,
    frame: Frame,
    /// How many leading frame asserts constrain queries (see
    /// [`Oracle::open_prefix`]).
    prefix: usize,
    key: u64,
    /// The budget of this handle's queries (the oracle's unless
    /// [`FrameSession::set_budget`] overrides it).
    budget: Budget,
    groups: Vec<GroupRec>,
    live: Option<LiveState>,
}

impl FrameSession<'_> {
    /// Asserts one labeled sentence as a retirable group on top of the
    /// frame.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`]; a rejected group leaves the handle
    /// unchanged.
    pub fn assert(
        &mut self,
        label: impl Into<String>,
        id: FormulaId,
    ) -> Result<FrameGroup, EprError> {
        self.assert_ids(label, &[id])
    }

    /// Asserts the conjunction of `ids` as one retirable group.
    ///
    /// # Errors
    ///
    /// As for [`FrameSession::assert`].
    pub fn assert_ids(
        &mut self,
        label: impl Into<String>,
        ids: &[FormulaId],
    ) -> Result<FrameGroup, EprError> {
        self.groups.push(GroupRec {
            label: label.into(),
            ids: ids.to_vec(),
            enabled: true,
            retired: false,
        });
        if let Err(e) = self.live_assert_last() {
            self.groups.pop();
            return Err(self.oracle.soften(e));
        }
        Ok(FrameGroup(self.groups.len() - 1))
    }

    /// Enables or disables a group for subsequent queries.
    pub fn set_enabled(&mut self, g: FrameGroup, on: bool) {
        self.groups[g.0].enabled = on;
        if let Some(live) = &mut self.live {
            if let Some(gid) = live.map[g.0] {
                live.session.set_enabled(gid, on);
            }
        }
    }

    /// Permanently drops a group.
    pub fn retire(&mut self, g: FrameGroup) {
        self.groups[g.0].retired = true;
        if let Some(live) = &mut self.live {
            if let Some(gid) = live.map[g.0].take() {
                live.session.retire(gid);
            }
        }
    }

    /// Applies `budget` to this handle's queries instead of the oracle's
    /// (a pooled session gets the oracle's back at its next checkout).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        if let Some(live) = &mut self.live {
            live.session.set_budget(budget);
        }
    }

    /// Makes the first `n` frame asserts (clamped to the frame's length)
    /// constrain subsequent queries and masks the rest. Asserts not yet
    /// grounded on this handle's session are grounded now, in frame
    /// order; already-grounded ones only have their assumption literals
    /// toggled, so moving the prefix within what a session (or its pooled
    /// predecessors) grounded costs nothing. A recycled session whose
    /// instantiation budget cannot admit the new asserts is rebuilt from
    /// the frame, as [`FrameSession::solve_goal`] does.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`] from grounding; the prefix is then
    /// unchanged.
    pub fn set_frame_prefix(&mut self, n: usize) -> Result<(), EprError> {
        let n = n.min(self.frame.asserts().len());
        let reused = self.live.as_ref().is_some_and(|l| l.reused);
        match self.ground_frame_to(n) {
            Ok(()) => {}
            // A recycled session may have spent its instantiation budget on
            // earlier tenants: ground the new prefix on a fresh session, as
            // a cold handle would.
            Err(EprError::TooManyInstances { .. }) if reused => {
                let old = std::mem::replace(&mut self.prefix, n);
                if let Err(e) = self.rebuild_live() {
                    self.prefix = old;
                    return Err(self.oracle.soften(e));
                }
            }
            Err(e) => return Err(self.oracle.soften(e)),
        }
        if let Some(live) = &mut self.live {
            for (i, gid) in live.frame_groups.iter().enumerate() {
                live.session.set_enabled(*gid, i < n);
            }
        }
        self.prefix = n;
        Ok(())
    }

    /// Grounds the frame asserts the live session lacks among the first
    /// `n`, each masked until [`FrameSession::set_frame_prefix`] enables
    /// the new prefix.
    fn ground_frame_to(&mut self, n: usize) -> Result<(), EprError> {
        if let Some(live) = &mut self.live {
            while live.frame_groups.len() < n {
                let (label, id) = &self.frame.asserts()[live.frame_groups.len()];
                let gid = live.session.assert_id(label.clone(), *id)?;
                live.session.set_enabled(gid, false);
                live.frame_groups.push(gid);
            }
        }
        Ok(())
    }

    /// Solves `goal(0..count)` in order and returns the lowest-index
    /// satisfiable goal's witness, or `None` when every goal is
    /// unsatisfiable (see [`Oracle::first_sat`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`]; a budget-exhausted `Unknown` surfaces as
    /// [`EprError::Inconclusive`].
    pub(crate) fn first_sat<T, G, W>(
        &mut self,
        count: usize,
        goal: G,
        witness: W,
    ) -> Result<Option<T>, EprError>
    where
        G: Fn(usize) -> Goal,
        W: Fn(usize, &Model) -> T,
    {
        for i in 0..count {
            if let Some(m) = sat_model(self.solve_goal(&goal(i))?)? {
                return Ok(Some(witness(i, &m)));
            }
        }
        Ok(None)
    }

    /// Solves the frame plus the enabled groups.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn check(&mut self) -> Result<EprOutcome, EprError> {
        self.solve_goal(&Goal::default())
    }

    /// Solves the frame plus the enabled groups plus `goal` (asserted as
    /// per-label groups so UNSAT cores can name them, retired afterwards —
    /// also on errors, so the handle survives best-effort budgeted
    /// queries).
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn solve_goal(&mut self, goal: &Goal) -> Result<EprOutcome, EprError> {
        let result = if self.live.is_none() {
            // A fresh handle: ground a single-use session, query it once,
            // and drop it unpooled.
            self.ground_live().and_then(|live| {
                self.live = Some(live);
                let outcome = self.try_goal_live(goal);
                self.live = None;
                outcome
            })
        } else {
            let reused = self.live.as_ref().is_some_and(|l| l.reused);
            match self.try_goal_live(goal) {
                Err(EprError::TooManyInstances { .. }) if reused => {
                    self.rebuild_live().and_then(|()| self.try_goal_live(goal))
                }
                other => other,
            }
        };
        result.map_err(|e| self.oracle.soften(e))
    }

    /// One query on the live session. Goal groups are always retired
    /// before returning.
    fn try_goal_live(&mut self, goal: &Goal) -> Result<EprOutcome, EprError> {
        let oracle = self.oracle;
        let live = self.live.as_mut().expect("live session");
        let mut goal_groups = Vec::with_capacity(goal.asserts().len());
        let mut failed = None;
        for (label, id) in goal.asserts() {
            match live.session.assert_id(label.clone(), *id) {
                Ok(g) => goal_groups.push(g),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let result = match failed {
            Some(e) => Err(e),
            None => {
                let r = live.session.check();
                oracle.record(live.session.report());
                Ok(r)
            }
        };
        for g in goal_groups {
            live.session.retire(g);
        }
        result
    }

    /// Replaces an instantiation-exhausted recycled session with a fresh
    /// grounding (see [`FrameSession::ground_live`]). The candidate is
    /// built before swapping, so a failure leaves the handle usable; the
    /// old session is dropped, not pooled: its budget is spent.
    fn rebuild_live(&mut self) -> Result<(), EprError> {
        self.live = Some(self.ground_live()?);
        Ok(())
    }

    /// Grounds a new, unpooled session for the frame's active prefix plus
    /// this handle's live groups.
    fn ground_live(&self) -> Result<LiveState, EprError> {
        let (mut session, frame_groups) =
            self.oracle
                .build_session(&self.frame, self.key, self.prefix, self.budget)?;
        let mut map = Vec::with_capacity(self.groups.len());
        for rec in &self.groups {
            if rec.retired {
                map.push(None);
                continue;
            }
            let gid = session.assert_group_ids(rec.label.clone(), &rec.ids)?;
            if !rec.enabled {
                session.set_enabled(gid, false);
            }
            map.push(Some(gid));
        }
        Ok(LiveState {
            session,
            frame_groups,
            map,
            reused: false,
        })
    }

    /// Mirrors the most recently pushed group into the live session, if
    /// any. On an instantiation-budget rejection of a *recycled* session,
    /// rebuilds it from the frame (which replays every live group,
    /// including the new one).
    fn live_assert_last(&mut self) -> Result<(), EprError> {
        if self.live.is_none() {
            return Ok(());
        }
        let rec = self.groups.last().expect("just pushed");
        let (label, ids) = (rec.label.clone(), rec.ids.clone());
        let reused = self.live.as_ref().is_some_and(|l| l.reused);
        let live = self.live.as_mut().expect("checked above");
        match live.session.assert_group_ids(label, &ids) {
            Ok(gid) => {
                live.map.push(Some(gid));
                Ok(())
            }
            Err(EprError::TooManyInstances { .. }) if reused => self.rebuild_live(),
            Err(e) => Err(e),
        }
    }
}

impl Drop for FrameSession<'_> {
    fn drop(&mut self) {
        if let Some(mut live) = self.live.take() {
            // A churn-heavy handle leaves too many dead clauses behind to be
            // worth recycling (see [`MAX_POOLED_HANDLE_GROUPS`]).
            if self.groups.len() > MAX_POOLED_HANDLE_GROUPS {
                return;
            }
            // Restore frame-only state before pooling: retire every handle
            // group and re-enable every frame group.
            for gid in live.map.iter().filter_map(|g| *g) {
                live.session.retire(gid);
            }
            for gid in &live.frame_groups {
                live.session.set_enabled(*gid, true);
            }
            self.oracle
                .checkin(self.key, live.session, live.frame_groups);
        }
    }
}

/// A new oracle configured by `configure`, ready to share between
/// engines through `with_oracle`.
#[cfg(test)]
pub(crate) fn configured(configure: impl FnOnce(&mut Oracle)) -> Arc<Oracle> {
    let mut oracle = Oracle::new();
    configure(&mut oracle);
    Arc::new(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_fol::intern::Interner;
    use ivy_fol::parse_formula;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig
    }

    fn fid(text: &str) -> FormulaId {
        let f = parse_formula(text).unwrap();
        Interner::with(|it| it.intern(&f))
    }

    #[test]
    fn fingerprint_tracks_frame_content() {
        let sig = sig();
        let full = InstantiationMode::Full;
        let mut f1 = Frame::new(&sig);
        f1.push("base", fid("forall X:s. r(X)"));
        let mut f2 = Frame::new(&sig);
        f2.push("base", fid("forall X:s. r(X)"));
        assert_eq!(f1.fingerprint(full), f2.fingerprint(full));
        f2.push("extra", fid("r(a)"));
        assert_ne!(f1.fingerprint(full), f2.fingerprint(full));
        // A different label alone changes the fingerprint too.
        let mut f3 = Frame::new(&sig);
        f3.push("other", fid("forall X:s. r(X)"));
        assert_ne!(f1.fingerprint(full), f3.fingerprint(full));
    }

    #[test]
    fn strategies_agree_on_solve() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let sat_goal = Goal::new("g", fid("r(a)"));
        let unsat_goal = Goal::new("g", fid("exists X:s. ~r(X)"));
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            assert!(
                oracle.solve(&frame, &sat_goal).unwrap().is_sat(),
                "{strategy:?}"
            );
            assert!(
                !oracle.solve(&frame, &unsat_goal).unwrap().is_sat(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn session_pool_reuses_groundings() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let oracle = Oracle::new();
        let goal = Goal::new("g", fid("r(a)"));
        oracle.solve(&frame, &goal).unwrap();
        oracle.solve(&frame, &goal).unwrap();
        oracle.solve(&frame, &goal).unwrap();
        let rollup = oracle.rollup();
        assert_eq!(rollup.frame_misses, 1);
        assert_eq!(rollup.frame_hits, 2);
        assert_eq!(rollup.sessions_built, 1);
        assert_eq!(rollup.report.queries, 3);
        // A different frame grounds its own session.
        let mut other = Frame::new(&sig);
        other.push("base", fid("r(a)"));
        oracle.solve(&other, &goal).unwrap();
        assert_eq!(oracle.rollup().frame_misses, 2);
    }

    #[test]
    fn views_share_the_pool_but_not_configuration() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let goal = Goal::new("g", fid("r(a)"));
        let root = Oracle::new();
        let mut view = root.view();
        let budget = Budget::UNLIMITED.with_max_conflicts(1_000);
        view.set_budget(budget);
        view.set_instance_limit(1_000);
        // A tighter view leaves the root's settings alone.
        assert_eq!(root.budget(), Budget::UNLIMITED);
        assert_eq!(root.instance_limit(), DEFAULT_INSTANCE_LIMIT);
        assert_eq!(view.budget(), budget);
        assert_eq!(view.instance_limit(), 1_000);
        // The view's cold query grounds the session the root then reuses,
        // and the root's query warms the view in turn.
        assert!(view.solve(&frame, &goal).unwrap().is_sat());
        assert!(root.solve(&frame, &goal).unwrap().is_sat());
        assert!(view.solve(&frame, &goal).unwrap().is_sat());
        // Each rollup shows only its own checkouts: the view's cold miss
        // and warm hit, the root's warm hit. A fresh view starts empty.
        let counts = |r: OracleRollup| {
            (
                r.frame_misses,
                r.frame_hits,
                r.sessions_built,
                r.report.queries,
            )
        };
        assert_eq!(counts(view.rollup()), (1, 1, 1, 2));
        assert_eq!(counts(root.rollup()), (0, 1, 0, 1));
        assert_eq!(root.view().rollup(), OracleRollup::new());
    }

    #[test]
    fn fresh_queries_never_touch_the_pool() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let goal = Goal::new("g", fid("r(a)"));
        let mut oracle = Oracle::new();
        oracle.set_strategy(QueryStrategy::Fresh);
        for _ in 0..3 {
            assert!(oracle.solve(&frame, &goal).unwrap().is_sat());
            let mut h = oracle.open(&frame).unwrap();
            h.assert("extra", fid("r(a)")).unwrap();
            assert!(h.check().unwrap().is_sat());
            assert!(h.solve_goal(&goal).unwrap().is_sat());
        }
        let rollup = oracle.rollup();
        assert_eq!(rollup.frame_hits, 0);
        assert_eq!(rollup.frame_misses, 0);
        assert_eq!(rollup.report.queries, 9);
        // Nothing was checked in: the first pooled query over the same
        // frame (and the same shared pool) is a miss.
        oracle.set_strategy(QueryStrategy::Session);
        assert!(oracle.solve(&frame, &goal).unwrap().is_sat());
        let rollup = oracle.rollup();
        assert_eq!(rollup.frame_hits, 0);
        assert_eq!(rollup.frame_misses, 1);
    }

    #[test]
    fn fresh_queries_ground_like_a_cold_session() {
        // A fresh query is a single-use session, so its grounding matches
        // the cold pooled query's exactly (empty sorts are inhabited up
        // front either way).
        let mut sig = Signature::new();
        sig.add_sort("node").unwrap();
        sig.add_relation("r", ["node"]).unwrap();
        let mut frame = Frame::new(&sig);
        frame.push("one", fid("forall X:node, Y:node. r(X) & r(Y) -> X = Y"));
        let goal = Goal::new("two", fid("exists X:node, Y:node. r(X) & r(Y) & X ~= Y"));
        let report = |strategy| {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            assert!(!oracle.solve(&frame, &goal).unwrap().is_sat());
            oracle.rollup().report
        };
        let (fresh, session) = (report(QueryStrategy::Fresh), report(QueryStrategy::Session));
        assert_eq!(fresh.universe, session.universe);
        assert_eq!(fresh.instances, session.instances);
    }

    #[test]
    fn frame_session_groups_toggle_and_retire() {
        let sig = sig();
        let frame = Frame::new(&sig);
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            let mut h = oracle.open(&frame).unwrap();
            let all = h.assert("all", fid("forall X:s. r(X)")).unwrap();
            let none = h.assert("none", fid("forall X:s. ~r(X)")).unwrap();
            assert!(!h.check().unwrap().is_sat(), "{strategy:?}");
            h.set_enabled(none, false);
            assert!(h.check().unwrap().is_sat(), "{strategy:?}");
            h.set_enabled(none, true);
            h.retire(all);
            assert!(h.check().unwrap().is_sat(), "{strategy:?}");
        }
    }

    #[test]
    fn frame_prefix_masks_and_pools_grounded_prefixes() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("all", fid("forall X:s. r(X)"));
        frame.push("none", fid("forall X:s. ~r(X)"));
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            let mut h = oracle.open_prefix(&frame, 1).unwrap();
            assert!(h.check().unwrap().is_sat(), "{strategy:?}");
            h.set_frame_prefix(2).unwrap();
            assert!(!h.check().unwrap().is_sat(), "{strategy:?}");
            h.set_frame_prefix(1).unwrap();
            assert!(h.check().unwrap().is_sat(), "{strategy:?}");
        }
        let oracle = Oracle::new();
        // A handle that never grounded `none` pools its prefix, and a
        // longer handle grounds `none` on that pooled session...
        let h = oracle.open_prefix(&frame, 1).unwrap();
        drop(h);
        let mut h = oracle.open_prefix(&frame, 2).unwrap();
        assert_eq!(oracle.rollup().frame_hits, 1);
        assert_eq!(oracle.rollup().sessions_built, 1);
        assert!(!h.check().unwrap().is_sat());
        drop(h);
        // ...the whole frame is pooled too, and a warm prefix handle masks
        // the suffix.
        let mut h = oracle.open_prefix(&frame, 1).unwrap();
        assert_eq!(oracle.rollup().frame_hits, 2);
        assert!(h.check().unwrap().is_sat());
        drop(h);
        // Dropping re-enabled the masked assert for the next tenant.
        assert!(!oracle.open(&frame).unwrap().check().unwrap().is_sat());
        assert_eq!(oracle.rollup().sessions_built, 1);
    }

    #[test]
    fn recycled_prefix_too_spent_to_extend_is_rebuilt() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        frame.push("pairs", fid("forall X:s, Y:s. r(X) | r(Y)"));
        // Calibrate: what a cold handle over the whole frame grounds.
        let cold = Oracle::new();
        assert!(cold.open(&frame).unwrap().check().unwrap().is_sat());
        let need = cold.rollup().report.instances;
        // A prefix handle whose goal grows the universe pools a session
        // that cannot ground `pairs` within that limit any more.
        let mut oracle = Oracle::new();
        let goal = Goal::new("g", fid("exists X:s, Y:s, Z:s. X ~= Y & Y ~= Z & X ~= Z"));
        let mut h = oracle.open_prefix(&frame, 1).unwrap();
        assert!(h.solve_goal(&goal).unwrap().is_sat());
        drop(h);
        oracle.set_instance_limit(need);
        // Extending the recycled prefix rebuilds it from the frame, as a
        // cold handle would ground it.
        let mut h = oracle.open(&frame).unwrap();
        assert!(h.check().unwrap().is_sat());
        let rollup = oracle.rollup();
        assert_eq!((rollup.frame_hits, rollup.sessions_built), (1, 2));
    }

    #[test]
    fn churn_heavy_handles_are_not_pooled() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let oracle = Oracle::new();
        {
            let mut h = oracle.open(&frame).unwrap();
            for i in 0..=MAX_POOLED_HANDLE_GROUPS {
                let g = h.assert(format!("c{i}"), fid("r(a)")).unwrap();
                h.retire(g);
            }
            assert!(h.check().unwrap().is_sat());
        }
        // The handle exceeded the churn bound, so its session was dropped:
        // reopening the frame grounds a new one.
        assert_eq!(oracle.rollup().sessions_built, 1);
        drop(oracle.open(&frame).unwrap());
        assert_eq!(oracle.rollup().sessions_built, 2);
        // A light handle is pooled and reused.
        drop(oracle.open(&frame).unwrap());
        assert_eq!(oracle.rollup().sessions_built, 2);
    }

    #[test]
    fn bounded_and_full_modes_never_share_pooled_sessions() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        assert_ne!(
            frame.fingerprint(InstantiationMode::Full),
            frame.fingerprint(InstantiationMode::Bounded(2))
        );
        let goal = Goal::new("g", fid("r(a)"));
        let oracle = Oracle::new();
        oracle.solve(&frame, &goal).unwrap();
        // A bounded view over the same shared pool must ground its own
        // session rather than reuse the full-mode one.
        let mut bounded = oracle.view();
        bounded.set_mode(InstantiationMode::Bounded(3));
        bounded.solve(&frame, &goal).unwrap();
        let total = || {
            let mut rollup = oracle.rollup();
            rollup.merge(&bounded.rollup());
            (
                rollup.sessions_built,
                rollup.frame_misses,
                rollup.frame_hits,
            )
        };
        assert_eq!(total(), (2, 2, 0));
        // Each mode reuses its *own* pooled session on the next query.
        oracle.solve(&frame, &goal).unwrap();
        bounded.solve(&frame, &goal).unwrap();
        assert_eq!(total(), (2, 2, 2));
    }

    #[test]
    fn bounded_mode_solves_unstratified_frames() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        sig.add_relation("r", ["s"]).unwrap();
        sig.add_constant("a", "s").unwrap();
        sig.add_function("next", ["s"], "s").unwrap();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let mut oracle = Oracle::new();
        // Full mode refuses the signature outright.
        assert!(matches!(
            oracle.solve(&frame, &Goal::new("g", fid("r(a)"))),
            Err(EprError::Sig(_))
        ));
        oracle.set_mode(InstantiationMode::Bounded(2));
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            oracle.set_strategy(strategy);
            // UNSAT is a verdict even under a live (truncating) bound.
            let unsat = oracle
                .solve(&frame, &Goal::new("g", fid("exists X:s. ~r(X)")))
                .unwrap();
            assert!(matches!(unsat, EprOutcome::Unsat(_)), "{strategy:?}");
            // SAT degrades to Unknown(BoundReached): the `next` closure is
            // infinite, so the bound is always load-bearing here.
            let sat = oracle.solve(&frame, &Goal::new("g", fid("r(a)"))).unwrap();
            assert!(
                matches!(sat, EprOutcome::Unknown(StopReason::BoundReached)),
                "{strategy:?}: {}",
                sat.tag()
            );
        }
    }

    #[test]
    fn bounded_mode_softens_instance_overflow_to_inconclusive() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s, Y:s, Z:s. r(X) | r(Y) | r(Z)"));
        let goal = Goal::new("g", fid("exists X:s, Y:s. r(X) & r(Y) & X ~= Y"));
        for strategy in [QueryStrategy::Fresh, QueryStrategy::Session] {
            let mut oracle = Oracle::new();
            oracle.set_strategy(strategy);
            oracle.set_instance_limit(1);
            // Full mode: a hard error the caller must restructure around.
            assert!(
                matches!(
                    oracle.solve(&frame, &goal),
                    Err(EprError::TooManyInstances { .. })
                ),
                "{strategy:?}"
            );
            // Bounded mode: best-effort by contract, so the overflow is
            // inconclusive like any other exhausted bound.
            oracle.set_mode(InstantiationMode::Bounded(2));
            assert!(
                matches!(
                    oracle.solve(&frame, &goal),
                    Err(EprError::Inconclusive(StopReason::InstanceBudget))
                ),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn exhausted_recycled_session_is_rebuilt() {
        let sig = sig();
        let mut frame = Frame::new(&sig);
        frame.push("base", fid("forall X:s. r(X)"));
        let mut oracle = Oracle::new();
        // Ground once under a permissive limit, pool the session.
        let goal = Goal::new("g", fid("exists X:s, Y:s. r(X) & r(Y) & X ~= Y"));
        assert!(oracle.solve(&frame, &goal).unwrap().is_sat());
        // Tighten the limit so the recycled session cannot afford the goal's
        // delta re-instantiation, while a fresh grounding still can: the
        // oracle must rebuild transparently and return the same verdict.
        let spent = oracle.rollup().report.instances;
        oracle.set_instance_limit(spent.max(4));
        let before = oracle.rollup().sessions_built;
        let outcome = oracle.solve(&frame, &goal);
        match outcome {
            Ok(o) => {
                assert!(o.is_sat());
                // Either the recycled session had room, or it was rebuilt.
                assert!(oracle.rollup().sessions_built >= before);
            }
            Err(EprError::TooManyInstances { .. }) => {
                // The goal exceeds the limit even fresh: acceptable, the
                // point is that reuse never yields a *different* error or
                // verdict than fresh grounding.
                let mut fresh = Oracle::new();
                fresh.set_strategy(QueryStrategy::Fresh);
                fresh.set_instance_limit(spent.max(4));
                assert!(matches!(
                    fresh.solve(&frame, &goal),
                    Err(EprError::TooManyInstances { .. })
                ));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
