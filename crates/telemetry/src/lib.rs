//! # fabsp-telemetry — always-on runtime observability
//!
//! The paper's pipeline is post-mortem: traces are collected per PE and
//! rendered after `execute()` returns. A production FA-BSP runtime also
//! needs *always-on, low-overhead* visibility into the runtime itself —
//! phase-level timing of supersteps / `advance` / `quiet` / relay hops,
//! substrate counters, and enough recent history to diagnose a crash.
//! This crate provides the three pieces the rest of the stack embeds:
//!
//! - [`TelemetryRegistry`] — a lock-free per-PE metrics registry of
//!   monotonic [`Counter`]s, last-value [`Gauge`]s, and per-[`Phase`] span
//!   cycles and counts, all plain `AtomicU64`s (20 words per PE). Each
//!   metric cell has a *single writer* (the owning PE's thread), so writes
//!   are `Relaxed` load+store pairs; readers take torn-free point-in-time
//!   [`Snapshot`]s from any thread.
//! - [`FlightRing`] — a bounded per-PE ring of the last N span/metric
//!   events, published with a `Release` cursor so a post-mortem dump (on PE
//!   panic, injected fault, or termination-checker trip) sees every fully
//!   written event. Dumps serialize to `flightrec-pe<rank>.json`.
//! - [`Phase`] — the phase vocabulary shared with the trace layer: span
//!   begin/end pairs for supersteps, `advance`, `quiet`, and relay hops
//!   flow through the existing `TraceBuffer` batching path and export as
//!   Perfetto duration events.
//! - [`overhead`] — the continuous-profiling meter: instrumentation
//!   self-cost is metered into the registry and checked against an
//!   [`OverheadBudget`] per observation window; every window is kept as an
//!   [`OverheadWindow`] in the run's [`ContinuousReport`].
//!
//! The registry is deliberately *fixed-vocabulary*: metric identity is an
//! enum, not a string, so the hot path never hashes or allocates.

#![forbid(unsafe_code)]

pub mod flight;
pub mod metric;
pub mod overhead;
pub mod registry;

pub use flight::{FlightDump, FlightEvent, FlightRing};
pub use metric::{phase_site, Counter, Gauge, Phase, PhaseSite};
pub use overhead::{ContinuousReport, OverheadBudget, OverheadWindow};
pub use registry::{Frame, PeMetrics, PeSnapshot, Snapshot, TelemetryRegistry};
