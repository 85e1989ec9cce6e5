//! # fabsp-apps — FA-BSP applications on the selector runtime
//!
//! The workloads of the ActorProf paper and of the bale benchmark family
//! it builds on, each written against [`fabsp_actor::Selector`] and each
//! returning a full [`actorprof::TraceBundle`] when tracing is enabled:
//!
//! - [`histogram`] — the paper's Listings 1–2: fine-grained remote
//!   increments into per-PE tables (the canonical bale `histo` kernel).
//! - [`index_gather`] — bale's `ig`: random remote reads implemented as a
//!   request mailbox whose handlers answer on a response mailbox.
//! - [`permute`] — bale's random permutation: scatter values to the owner
//!   of each target slot.
//! - [`triangle`] — the §IV case study: distributed triangle counting
//!   (Algorithm 1) over a lower-triangular R-MAT matrix under 1D Cyclic or
//!   1D Range distribution, validated against the sequential reference
//!   counts exactly as §IV-C validates ("by using assertion").
//! - [`bfs`] — level-synchronous distributed BFS (one selector spans all
//!   levels), validated against a sequential BFS.
//! - [`components`] — connected components by min-label propagation with
//!   a dedup'd frontier (schedule-independent traffic), validated against
//!   a sequential fixpoint.
//! - [`pagerank`] — push-style synchronous PageRank with struct-typed
//!   messages and a canonical-order fold for bit-stable results,
//!   validated against a sequential reference.
//! - [`jaccard`] — per-edge Jaccard similarity via wedge probes and a
//!   confirmation mailbox (a workload §IV-A names).
//! - [`intsort`] — distributed bucket/integer sort: every key crosses the
//!   conveyor exactly once (the canonical FA-BSP stress test).
//! - [`skewed_agg`] — Zipf-keyed aggregation that deliberately breaks
//!   load balance so imbalance views have real signal.
//!
//! Every app runs through the [`actorprof::Profiler`] facade via
//! [`common::RunConfig`] and returns a typed outcome carrying its result,
//! the [`actorprof::TraceBundle`], and the [`actorprof::RecoveryLog`].
//! The [`matrix`] module registers all ten as [`fabsp_testkit::matrix`]
//! entries so the conformance suites iterate over one registry.

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod bfs;
pub mod common;
pub mod components;
pub mod histogram;
pub mod intsort;
pub mod jaccard;
pub mod matrix;
pub mod pagerank;
pub mod index_gather;
pub mod permute;
pub mod skewed_agg;
pub mod triangle;

pub use common::{AppError, AppParams, RunConfig};
pub use matrix::registry;
pub use triangle::{count_triangles, DistKind, TriangleConfig, TriangleOutcome};
