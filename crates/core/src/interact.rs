//! The interactive search for a universal inductive invariant
//! (Figure 5 and Section 4.2 of the paper).
//!
//! The paper's graphical user interface boils down to a small set of choice
//! points, captured here by the [`User`] trait: examine a (minimal) CTI and
//! decide to strengthen / weaken / give up; pick an upper bound and a bound
//! `k` for *BMC + Auto Generalize*; accept or adjust the suggested
//! generalization. [`crate::users`] provides a scripted user (replaying the
//! paper's Figures 7–9 session) and an oracle user (an ideal user guided by
//! a known inductive invariant, used to reproduce Figure 14's G column).

use std::sync::Arc;

use ivy_epr::EprError;
use ivy_fol::{conjecture, PartialStructure};
use ivy_rml::Program;

use crate::bmc::Trace;
use crate::generalize::{AutoGen, Generalizer};
use crate::minimize::Measure;
use crate::oracle::Oracle;
use crate::vc::{Conjecture, Cti, Verifier};

/// Read-only view of the session handed to user callbacks.
#[derive(Debug)]
pub struct SessionCtx<'a> {
    /// The program under verification.
    pub program: &'a Program,
    /// The current candidate invariant.
    pub conjectures: &'a [Conjecture],
    /// 1-based CTI counter (the paper's G column counts these).
    pub iteration: usize,
}

/// The user's reaction to a CTI (the three options of Section 2.3).
#[derive(Debug)]
pub enum CtiDecision {
    /// The CTI is judged unreachable: strengthen by generalizing from it.
    Generalize {
        /// The coarse manual generalization `s_u` (Section 4.5).
        upper_bound: PartialStructure,
        /// The BMC bound `k` for auto-generalization.
        bound: usize,
    },
    /// Some conjectures are judged wrong: weaken by removing them.
    Weaken {
        /// Names of conjectures to remove.
        remove: Vec<String>,
    },
    /// Give up (e.g. the model itself needs fixing).
    Stop,
}

/// The user's reaction when their upper bound excluded a reachable state.
#[derive(Debug)]
pub enum TooStrongDecision {
    /// Try again with a less general upper bound or a different `k`.
    Retry {
        /// New upper bound.
        upper_bound: PartialStructure,
        /// New BMC bound.
        bound: usize,
    },
    /// Weaken the invariant instead.
    Weaken {
        /// Names of conjectures to remove.
        remove: Vec<String>,
    },
    /// Give up.
    Stop,
}

/// A generalization proposed by *BMC + Auto Generalize*.
#[derive(Clone, Debug)]
pub struct Proposal {
    /// The ⪯-smallest `k`-invariant generalization found.
    pub partial: PartialStructure,
    /// Its conjecture `ϕ(s_m)`.
    pub conjecture: ivy_fol::Formula,
    /// The upper bound it came from.
    pub upper_bound: PartialStructure,
}

/// The user's verdict on a proposal.
#[derive(Debug)]
pub enum ProposalDecision {
    /// Add `ϕ(s_m)` to the invariant.
    Accept,
    /// Auto-generalization went too far (a bogus conjecture): add the upper
    /// bound's own conjecture `ϕ(s_u)` instead.
    AcceptUpperBound,
    /// Try again with different parameters.
    Retry {
        /// New upper bound.
        upper_bound: PartialStructure,
        /// New BMC bound.
        bound: usize,
    },
    /// Give up.
    Stop,
}

/// The interactive participant. Every choice the paper's GUI offers is one
/// of these callbacks.
pub trait User {
    /// A (minimal) CTI was found; decide how to proceed.
    fn on_cti(&mut self, ctx: &SessionCtx<'_>, cti: &Cti) -> CtiDecision;

    /// The chosen upper bound excluded a reachable state; the trace shows
    /// how it is reached.
    fn on_too_strong(
        &mut self,
        ctx: &SessionCtx<'_>,
        attempted: &PartialStructure,
        trace: &Trace,
    ) -> TooStrongDecision;

    /// Auto-generalization succeeded; inspect and decide.
    fn on_proposal(&mut self, ctx: &SessionCtx<'_>, proposal: &Proposal) -> ProposalDecision;
}

/// How a session ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// An inductive invariant was found: the program is safe.
    Proved,
    /// The user stopped.
    Stopped,
    /// The CTI budget ran out.
    OutOfBudget,
}

/// Counters reported by a session (the measurements behind Figure 14).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// CTIs shown to the user (the paper's G column counts CTIs and
    /// generalizations).
    pub ctis: usize,
    /// Auto-generalization runs.
    pub generalizations: usize,
    /// Conjectures accepted into the invariant.
    pub accepted: usize,
    /// Conjectures removed by weakening.
    pub weakened: usize,
}

/// An interactive invariant-search session (the loop of Figure 5).
///
/// The verifier and the generalizer share one [`Oracle`]: the inductiveness
/// frames grounded while finding a CTI stay pooled for the minimization
/// descent, and the generalizer's reachability frames stay warm across the
/// user's repeated generalization attempts.
pub struct Session<'p> {
    verifier: Verifier<'p>,
    generalizer: Generalizer<'p>,
    program: &'p Program,
    measures: Vec<Measure>,
    conjectures: Vec<Conjecture>,
    fresh_index: usize,
    stats: SessionStats,
}

impl<'p> Session<'p> {
    /// Starts a session from an initial conjecture set (commonly the safety
    /// properties, the paper's `C0`).
    pub fn new(
        program: &'p Program,
        initial: Vec<Conjecture>,
        measures: Vec<Measure>,
    ) -> Session<'p> {
        Session::with_oracle(program, initial, measures, Arc::new(Oracle::new()))
    }

    /// Starts a session whose engines issue every query through `oracle`.
    pub fn with_oracle(
        program: &'p Program,
        initial: Vec<Conjecture>,
        measures: Vec<Measure>,
        oracle: Arc<Oracle>,
    ) -> Session<'p> {
        let fresh_index = initial.len();
        Session {
            verifier: Verifier::with_oracle(program, oracle.clone()),
            generalizer: Generalizer::with_oracle(program, oracle),
            program,
            measures,
            conjectures: initial,
            fresh_index,
            stats: SessionStats::default(),
        }
    }

    /// The session's shared oracle.
    pub fn oracle(&self) -> &Arc<Oracle> {
        self.verifier.oracle()
    }

    /// The current candidate invariant.
    pub fn conjectures(&self) -> &[Conjecture] {
        &self.conjectures
    }

    /// Session counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Runs the interactive loop until an inductive invariant is found, the
    /// user stops, or `max_ctis` counterexamples have been processed.
    ///
    /// # Errors
    ///
    /// Propagates [`EprError`].
    pub fn run(
        &mut self,
        user: &mut dyn User,
        max_ctis: usize,
    ) -> Result<SessionOutcome, EprError> {
        loop {
            let Some(cti) = self
                .verifier
                .find_minimal_cti(&self.conjectures, &self.measures)?
            else {
                return Ok(SessionOutcome::Proved);
            };
            self.stats.ctis += 1;
            if self.stats.ctis > max_ctis {
                return Ok(SessionOutcome::OutOfBudget);
            }
            let ctx = SessionCtx {
                program: self.program,
                conjectures: &self.conjectures,
                iteration: self.stats.ctis,
            };
            let mut decision = user.on_cti(&ctx, &cti);
            loop {
                match decision {
                    CtiDecision::Stop => return Ok(SessionOutcome::Stopped),
                    CtiDecision::Weaken { remove } => {
                        let before = self.conjectures.len();
                        self.conjectures.retain(|c| !remove.contains(&c.name));
                        self.stats.weakened += before - self.conjectures.len();
                        break;
                    }
                    CtiDecision::Generalize { upper_bound, bound } => {
                        self.stats.generalizations += 1;
                        match self.generalizer.auto_generalize(&upper_bound, bound)? {
                            AutoGen::TooStrong(trace) => {
                                let ctx = SessionCtx {
                                    program: self.program,
                                    conjectures: &self.conjectures,
                                    iteration: self.stats.ctis,
                                };
                                decision = match user.on_too_strong(&ctx, &upper_bound, &trace) {
                                    TooStrongDecision::Retry { upper_bound, bound } => {
                                        CtiDecision::Generalize { upper_bound, bound }
                                    }
                                    TooStrongDecision::Weaken { remove } => {
                                        CtiDecision::Weaken { remove }
                                    }
                                    TooStrongDecision::Stop => CtiDecision::Stop,
                                };
                                continue;
                            }
                            AutoGen::Generalized {
                                partial,
                                conjecture: phi,
                            } => {
                                let proposal = Proposal {
                                    partial,
                                    conjecture: phi,
                                    upper_bound: upper_bound.clone(),
                                };
                                let ctx = SessionCtx {
                                    program: self.program,
                                    conjectures: &self.conjectures,
                                    iteration: self.stats.ctis,
                                };
                                match user.on_proposal(&ctx, &proposal) {
                                    ProposalDecision::Accept => {
                                        self.push_conjecture(proposal.conjecture);
                                        break;
                                    }
                                    ProposalDecision::AcceptUpperBound => {
                                        self.push_conjecture(conjecture(&upper_bound));
                                        break;
                                    }
                                    ProposalDecision::Retry { upper_bound, bound } => {
                                        decision = CtiDecision::Generalize { upper_bound, bound };
                                        continue;
                                    }
                                    ProposalDecision::Stop => return Ok(SessionOutcome::Stopped),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn push_conjecture(&mut self, phi: ivy_fol::Formula) {
        let name = format!("C{}", self.fresh_index);
        self.fresh_index += 1;
        self.stats.accepted += 1;
        self.conjectures.push(Conjecture::new(name, phi));
    }
}
