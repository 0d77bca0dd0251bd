//! `ivy-serve`: a persistent, concurrent verification service.
//!
//! Verification workloads are bursty and repetitive: an interactive
//! invariant-discovery loop re-checks near-identical frames dozens of
//! times, and a cold process pays parsing, grounding, and solver
//! construction on every run. This crate turns the frame-cached
//! [`ivy_core::Oracle`] into a long-lived daemon so that cost is paid
//! once per *frame*, not once per *request*:
//!
//! - [`server`] — the daemon: a bounded worker pool behind an admission
//!   gate, all workers sharing one oracle (one session pool, one
//!   interner) so every client warms the cache for every other client.
//! - [`proto`] — the newline-delimited JSON wire protocol: request
//!   parsing, error codes, and response shapes (see
//!   `docs/serve-protocol.md` for the normative description).
//! - [`json`] — a dependency-free JSON parser and single-line
//!   serializer (the whole crate is std-only).
//! - [`profile`] — the one writer of the `ivy-profile-v1` object, for
//!   responses, `status` and the CLI's `--profile` file.
//! - [`client`] — a blocking one-line-in, one-line-out client used by
//!   `ivy client` and the load test in `tests/serve_load.rs`.
//!
//! Every response carries the verdict, an `ivy-profile-v1` telemetry
//! block scoped to that request, and cache provenance (frame hits,
//! misses, sessions built), so a client can always tell whether it was
//! served warm.

pub mod client;
pub mod json;
pub mod profile;
pub mod proto;
pub mod server;

pub use client::{Client, Endpoint};
pub use json::Json;
pub use proto::{ErrorCode, WireError};
pub use server::{Handled, Listener, ServeConfig, Server};
