//! # actorprof-trace — the ActorProf trace model
//!
//! This crate defines *what ActorProf records* (§III of the paper) as plain
//! data, decoupled from both the runtime that produces it (`fabsp-actor`,
//! `fabsp-conveyors`) and the profiler that consumes it (`actorprof`):
//!
//! - [`LogicalRecord`] — one point-to-point send **before aggregation**
//!   (`PEi_send.csv`): source node/PE, destination node/PE, message size.
//! - [`PapiRecord`] — the PAPI-based message trace (`PEi_PAPI.csv`):
//!   destination, packet size, mailbox id, number of sends, and up to four
//!   hardware-counter values.
//! - [`PhysicalRecord`] — one Conveyors-level send **after aggregation**
//!   (`physical.txt`): send type (`local_send` / `nonblock_send` /
//!   `nonblock_progress`), buffer size, source PE, destination PE.
//! - [`OverallRecord`] — the per-PE MAIN/COMM/PROC cycle breakdown
//!   (`overall.txt`), with `T_COMM` derived as `T_TOTAL − T_MAIN − T_PROC`.
//! - [`SpanRecord`] — one completed runtime phase (superstep / advance /
//!   quiet / relay hop) as a begin/end cycle pair, exported as Perfetto
//!   duration events.
//!
//! [`TraceConfig`] mirrors the paper's compile flags (`-DENABLE_TRACE`,
//! `-DENABLE_TCOMM_PROFILING`, `-DENABLE_TRACE_PHYSICAL`), and
//! [`PeCollector`] is the per-PE accumulation buffer the runtime layers
//! write into. Because the FA-BSP model sends *billions* of fine-grained
//! messages (§IV-E / §VI discuss trace bloat), the collector always keeps a
//! dense per-destination *aggregate matrix* and keeps exact per-send
//! records only when explicitly enabled — and then as [`Runs`] of equal
//! records, from the collector through the file writer and back out of the
//! reader, so their memory grows with the runs and not with the messages.

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod buffer;
pub mod codec;
pub mod collector;
pub mod config;
pub mod record;

pub use buffer::{PhysicalEvent, SendRun, SpanEvent, TraceBuffer};
pub use collector::{LogicalRecords, PeCollector, SharedCollector};
pub use config::{PapiConfig, TraceConfig, TraceConfigError};
pub use fabsp_telemetry::{Phase, SamplingKnob};
pub use record::{
    LogicalRecord, OverallRecord, PapiRecord, PhysicalRecord, Runs, SendType, SpanRecord,
};
