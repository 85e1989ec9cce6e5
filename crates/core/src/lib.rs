//! # actorprof — FA-BSP-aware profiling for the selector runtime
//!
//! The profiler of the paper: it takes the per-PE traces the runtime
//! collected (an [`actorprof_trace::PeCollector`] per PE) and turns them
//! into the artifacts ActorProf produces:
//!
//! - **Trace files** in the paper's formats (§III): `PEi_send.csv`,
//!   `PEi_PAPI.csv`, `physical.txt`, `overall.txt` — see [`writer`], with
//!   matching parsers in [`reader`].
//! - **Statistics** (§III-D / §IV-D): send/recv matrices with total
//!   rows/columns (the heatmap input), quartile summaries (the violin-plot
//!   input), per-PE PAPI totals (the bar-graph input), and the
//!   MAIN/COMM/PROC breakdown (the stacked-bar input) — see [`stats`],
//!   [`papi`], [`overall`].
//! - A plain-text **report** summarizing load balance and bottlenecks
//!   ([`report`]), and a **Google Trace Events** exporter for
//!   Chrome/Perfetto timelines ([`export`] — the paper's §VI future work).
//!
//! The entry point is [`TraceBundle`]: assemble it from the collectors an
//! SPMD run returns, then ask it for any of the above.
//!
//! ```
//! use actorprof::TraceBundle;
//! use actorprof_trace::{PeCollector, TraceConfig};
//!
//! // Normally the selector runtime fills these during an SPMD run.
//! let mut c0 = PeCollector::new(0, 2, 2, TraceConfig::off().with_logical());
//! c0.record_send(1, 8, 0, None); // PE0 -> PE1, 8 bytes, mailbox 0
//! let c1 = PeCollector::new(1, 2, 2, TraceConfig::off().with_logical());
//!
//! let bundle = TraceBundle::from_collectors(vec![c0, c1]).unwrap();
//! let m = bundle.logical_matrix().unwrap();
//! assert_eq!(m.get(0, 1), 1);
//! assert_eq!(m.row_totals(), vec![1, 0]);
//! ```

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod bundle;
pub mod compare;
pub mod error;
pub mod export;
pub mod overall;
pub mod papi;
pub mod profiler;
pub mod reader;
pub mod report;
pub mod stats;
pub mod writer;

pub use actorprof_trace::{PapiConfig, TraceConfig};
pub use bundle::TraceBundle;
pub use error::ProfError;
pub use fabsp_shmem::Checkpoint;
pub use fabsp_telemetry::{
    phase_site, ContinuousReport, Counter, FlightDump, Frame, Gauge, OverheadBudget,
    OverheadWindow, Phase, PhaseSite, Snapshot, TelemetryRegistry,
};
pub use profiler::{ObserveSink, Profiler, ProfilerCtx, Report, RunError};
pub use stats::{Matrix, Quartiles};
