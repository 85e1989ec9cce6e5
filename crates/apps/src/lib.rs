//! # fabsp-apps — FA-BSP applications on the selector runtime
//!
//! The workloads of the ActorProf paper's evaluation and of the benchmark,
//! each written against [`fabsp_actor::Selector`] and each returning a
//! full [`actorprof::TraceBundle`] when tracing is enabled:
//!
//! - [`histogram`] — the paper's Listings 1–2: fine-grained remote
//!   increments into per-PE tables (the canonical bale `histo` kernel).
//! - [`index_gather`] — bale's `ig`: random remote reads implemented as a
//!   request mailbox whose handlers answer on a response mailbox.
//! - [`triangle`] — the §IV case study: distributed triangle counting
//!   (Algorithm 1) over a lower-triangular R-MAT matrix under 1D Cyclic or
//!   1D Range distribution, validated against the sequential reference
//!   counts exactly as §IV-C validates ("by using assertion").
//!
//! Every app runs through the [`actorprof::Profiler`] facade via
//! [`common::RunConfig`] and returns a typed outcome carrying its result
//! and the [`actorprof::TraceBundle`].
//! The [`matrix`] module registers all three as [`fabsp_testkit::matrix`]
//! entries so the conformance suites iterate over one registry.

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod common;
pub mod histogram;
pub mod index_gather;
pub mod matrix;
pub mod triangle;

pub use common::{AppError, AppParams, RunConfig};
pub use matrix::registry;
pub use triangle::{count_triangles, DistKind, TriangleConfig, TriangleOutcome};
