//! The Ivy verification engine: interactive safety verification by
//! generalization from counterexamples to induction (PLDI 2016).
//!
//! * [`vc`]: inductiveness checking (Equation 2) producing CTIs.
//! * [`bmc`]: bounded verification / `k`-invariance (Section 4.1).
#![warn(missing_docs)]

pub mod bmc;
pub mod generalize;
pub mod houdini;
pub mod infer;
pub mod interact;
pub mod minimize;
pub mod oracle;
pub mod users;
pub mod vc;
pub mod viz;

pub use bmc::{Bmc, Trace};
pub use generalize::{implied, AutoGen, Generalizer};
pub use houdini::{enumerate_candidates, houdini_with_oracle, HoudiniResult};
pub use infer::{
    generate_clauses, generate_clauses_into, infer, InferOptions, InferReport, InferStatus,
    TemplateSpec,
};
pub use interact::{
    CtiDecision, Proposal, ProposalDecision, Session, SessionCtx, SessionOutcome, SessionStats,
    TooStrongDecision, User,
};
pub use minimize::Measure;
pub use oracle::{Frame, FrameGroup, FrameSession, Goal, Oracle, QueryStrategy};
pub use users::{violation_witness, OracleUser, ScriptedUser};
pub use vc::{Conjecture, Cti, Inductiveness, Verifier, Violation};
pub use viz::{
    partial_to_dot, structure_to_dot, trace_to_dot, trace_to_text, Projection, VizOptions,
};
