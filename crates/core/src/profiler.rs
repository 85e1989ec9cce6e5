//! The one-stop ActorProf entry point: configure what to profile with a
//! builder, run an SPMD body, get a [`Report`] back.
//!
//! This facade replaces the hand-wired pipeline (build a `TraceConfig`,
//! thread it into every `Selector`, carry `PeCollector`s out of the SPMD
//! closure, assemble a `TraceBundle`) with one fluent call chain:
//!
//! ```
//! use actorprof::{PapiConfig, Profiler};
//! use std::{cell::RefCell, rc::Rc};
//!
//! let report = Profiler::new(fabsp_shmem::Grid::new(1, 2).unwrap())
//!     .logical()
//!     .overall()
//!     .papi(PapiConfig::case_study())
//!     .run(|pe, ctx| {
//!         // one selector per PE; the profiler wires tracing into it
//!         let seen = Rc::new(RefCell::new(0u64));
//!         let s = Rc::clone(&seen);
//!         let mut actor = ctx
//!             .selector(1, move |_mb, _msg: u64, _from, _ctx| *s.borrow_mut() += 1)
//!             .expect("selector");
//!         actor
//!             .execute(pe, |main| {
//!                 for i in 0..10u64 {
//!                     main.send(0, i, (i as usize) % main.n_pes()).expect("send");
//!                 }
//!                 main.done(0).expect("done");
//!             })
//!             .expect("execute");
//!         let got = *seen.borrow();
//!         got
//!     })
//!     .unwrap();
//! assert_eq!(report.results.iter().sum::<u64>(), 20);
//! assert_eq!(report.bundle.logical_matrix().unwrap().total(), 20);
//! ```

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use actorprof_trace::{PapiConfig, SharedCollector, TraceConfig};
use fabsp_actor::{ActorError, ProcCtx, Selector, SelectorConfig};
use fabsp_conveyors::ConveyorOptions;
use fabsp_shmem::{spmd, Grid, Harness, Pe, SchedSpec, ShmemError};
use fabsp_telemetry::{
    ContinuousReport, Counter, Frame, OverheadBudget, Snapshot, TelemetryRegistry,
};

use crate::bundle::TraceBundle;
use crate::error::ProfError;

/// A live-telemetry subscriber: called with each [`Frame`] the observer
/// thread produces while the run executes.
pub type ObserveSink = Arc<dyn Fn(&Frame) + Send + Sync>;

/// Default interval between observer frames.
const DEFAULT_OBSERVE_INTERVAL: Duration = Duration::from_millis(25);

/// Anything a profiled run can fail with: the SPMD substrate, the actor
/// runtime, or trace assembly.
#[derive(Debug)]
pub enum RunError {
    /// SPMD / symmetric-memory failure.
    Shmem(ShmemError),
    /// Actor-runtime failure.
    Actor(ActorError),
    /// Trace assembly failure.
    Prof(ProfError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Shmem(e) => write!(f, "shmem: {e}"),
            RunError::Actor(e) => write!(f, "actor: {e}"),
            RunError::Prof(e) => write!(f, "profiler: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ShmemError> for RunError {
    fn from(e: ShmemError) -> Self {
        RunError::Shmem(e)
    }
}

impl From<ActorError> for RunError {
    fn from(e: ActorError) -> Self {
        RunError::Actor(e)
    }
}

impl From<ProfError> for RunError {
    fn from(e: ProfError) -> Self {
        RunError::Prof(e)
    }
}

/// Builder for a profiled FA-BSP run (see the [module docs](self) for the
/// full example).
///
/// Each `logical()`/`physical()`/`papi()`/… call enables one of the trace
/// kinds the paper's compile-time flags enable; `run` executes the body
/// once per PE and assembles everything into a [`Report`].
#[derive(Clone)]
pub struct Profiler {
    /// The SPMD world: grid, schedule, checkpoint period.
    harness: Harness,
    trace: TraceConfig,
    conveyor: ConveyorOptions,
    /// Always-on metrics registry (counters, gauges, histograms, flight
    /// recorder); off only for A/B overhead measurement.
    telemetry_enabled: bool,
    /// Live subscriber: (frame interval, sink).
    observe: Option<(Duration, ObserveSink)>,
    /// Continuous-profiling mode: meter instrumentation self-cost online
    /// against this budget, every observation window.
    continuous: Option<OverheadBudget>,
    /// Write the Perfetto trace-events JSON here after the run.
    trace_events: Option<PathBuf>,
    /// Where flight-recorder dumps land when a PE dies.
    flightrec_dir: Option<PathBuf>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("grid", &self.harness.grid)
            .field("trace", &self.trace)
            .field("conveyor", &self.conveyor)
            .field("sched", &self.harness.sched)
            .field("checkpoint_every", &self.harness.checkpoint_every)
            .field("telemetry_enabled", &self.telemetry_enabled)
            .field("observe_interval", &self.observe.as_ref().map(|(i, _)| *i))
            .field("continuous", &self.continuous)
            .field("trace_events", &self.trace_events)
            .field("flightrec_dir", &self.flightrec_dir)
            .finish()
    }
}

impl Profiler {
    /// A profiler on the given grid with all tracing off (telemetry — the
    /// always-on metrics registry — stays on).
    pub fn new(grid: Grid) -> Profiler {
        Profiler {
            harness: Harness::new(grid),
            trace: TraceConfig::off(),
            conveyor: ConveyorOptions::default(),
            telemetry_enabled: true,
            observe: None,
            continuous: None,
            trace_events: None,
            flightrec_dir: None,
        }
    }

    /// Record the pre-aggregation logical send matrix (`-DENABLE_TRACE`).
    pub fn logical(mut self) -> Profiler {
        self.trace = self.trace.with_logical();
        self
    }

    /// Additionally keep the exact per-send record list
    /// (`PEi_send.csv` rows rather than just the matrix).
    pub fn logical_records(mut self) -> Profiler {
        self.trace = self.trace.with_logical_records();
        self
    }

    /// Record the post-aggregation physical trace inside Conveyors
    /// (`-DENABLE_TRACE_PHYSICAL`).
    pub fn physical(mut self) -> Profiler {
        self.trace = self.trace.with_physical();
        self
    }

    /// Record the MAIN/COMM/PROC overall breakdown
    /// (`-DENABLE_TCOMM_PROFILING`).
    pub fn overall(mut self) -> Profiler {
        self.trace = self.trace.with_overall();
        self
    }

    /// Record the PAPI message trace for these hardware events.
    pub fn papi(mut self, papi: PapiConfig) -> Profiler {
        self.trace = self.trace.with_papi(papi);
        self
    }

    /// Enable every trace kind (the paper's full instrumentation).
    pub fn all_traces(mut self) -> Profiler {
        self.trace = TraceConfig::all();
        self
    }

    /// Replace the trace configuration wholesale (escape hatch for
    /// record sampling, which no named method covers).
    pub fn trace_config(mut self, trace: TraceConfig) -> Profiler {
        self.trace = trace;
        self
    }

    /// Override conveyor aggregation options for the run's selectors.
    pub fn conveyor(mut self, conveyor: ConveyorOptions) -> Profiler {
        self.conveyor = conveyor;
        self
    }

    /// Select the thread schedule (deterministic random walk for tests).
    pub fn sched(mut self, sched: SchedSpec) -> Profiler {
        self.harness = self.harness.sched(sched);
        self
    }

    /// Capture a checkpoint of the symmetric state every `n` supersteps
    /// (at the superstep boundary, where conveyors are quiescent).
    pub fn checkpoint_every(mut self, n: u64) -> Profiler {
        self.harness = self.harness.checkpoint_every(n);
        self
    }

    /// Record phase spans (superstep / advance / quiet / relay hop), every
    /// span kept; they appear as duration events in the Perfetto export.
    pub fn spans(mut self) -> Profiler {
        self.trace = self.trace.with_spans();
        self
    }

    /// Write the Google Trace Events JSON (for ui.perfetto.dev /
    /// `chrome://tracing`) to `path` after the run — no need to touch the
    /// [`TraceBundle`] for the common export.
    pub fn trace_events_path(mut self, path: impl Into<PathBuf>) -> Profiler {
        self.trace_events = Some(path.into());
        self
    }

    /// Directory for flight-recorder dumps (`flightrec-pe<i>.json`),
    /// written when a PE panics, a testkit fault fires, or the termination
    /// checker trips.
    pub fn flightrec_dir(mut self, dir: impl Into<PathBuf>) -> Profiler {
        self.flightrec_dir = Some(dir.into());
        self
    }

    /// Subscribe a live sink to the run's telemetry at the default frame
    /// interval. The sink runs on a dedicated observer thread and receives
    /// snapshot-diff [`Frame`]s while the PEs execute, plus one final frame
    /// after they finish.
    pub fn observe(self, sink: impl Fn(&Frame) + Send + Sync + 'static) -> Profiler {
        self.observe_every(DEFAULT_OBSERVE_INTERVAL, sink)
    }

    /// Like [`observe`](Profiler::observe) with an explicit frame interval.
    pub fn observe_every(
        mut self,
        interval: Duration,
        sink: impl Fn(&Frame) + Send + Sync + 'static,
    ) -> Profiler {
        self.observe = Some((interval, Arc::new(sink)));
        self
    }

    /// Continuous-profiling mode: the observer thread meters the measured
    /// instrumentation cost of each window against `budget`. Every
    /// metered window comes back as [`Report::continuous`].
    ///
    /// Implies span tracing; composes with [`observe`](Profiler::observe)
    /// (the sink then sees [`Frame::overhead`] populated, at the sink's
    /// interval) but works without a sink too.
    pub fn continuous(mut self, budget: OverheadBudget) -> Profiler {
        self.continuous = Some(budget);
        self
    }

    /// Disable the always-on telemetry registry. Only meant for measuring
    /// its own overhead (the benchmark ladder's `telemetry.on_ns_per_msg`
    /// rung).
    pub fn telemetry_off(mut self) -> Profiler {
        self.telemetry_enabled = false;
        self
    }

    /// Run `body` once per PE and assemble the traces.
    ///
    /// The body must create **exactly one** selector through
    /// [`ProfilerCtx::selector`] — that selector's collector becomes the
    /// PE's contribution to [`Report::bundle`]. The per-PE return values
    /// come back in rank order as [`Report::results`].
    pub fn run<R, F>(self, body: F) -> Result<Report<R>, RunError>
    where
        R: Send,
        F: Fn(&Pe, &mut ProfilerCtx<'_>) -> R + Sync,
    {
        let n_pes = self.harness.grid.n_pes();
        let registry = self.telemetry_enabled.then(|| {
            let mut reg = TelemetryRegistry::new(n_pes);
            if let Some(dir) = &self.flightrec_dir {
                reg = reg.flight_dump_dir(dir);
            }
            Arc::new(reg)
        });
        let harness = match &registry {
            Some(reg) => self.harness.telemetry(reg.clone()),
            None => self.harness.telemetry_off(),
        };

        // Continuous mode records every phase span.
        let mut trace = self.trace.clone();
        trace.spans |= self.continuous.is_some();

        // The observer thread pulls snapshot diffs at the configured
        // interval while PEs run; the stop flag is Relaxed — thread join
        // orders the final accesses, the flag itself is a plain signal.
        // In continuous mode the same thread meters the overhead: each
        // tick it charges its own snapshot+diff cost plus the PEs'
        // metered self-cost against the window.
        let spawn_observer = self.observe.is_some() || self.continuous.is_some();
        let observer = match &registry {
            Some(reg) if spawn_observer => {
                let reg = reg.clone();
                let sink = self.observe.as_ref().map(|(_, s)| Arc::clone(s));
                let interval = self
                    .observe
                    .as_ref()
                    .map_or(DEFAULT_OBSERVE_INTERVAL, |(i, _)| *i);
                let mut continuous = self.continuous.map(ContinuousReport::new);
                let stop = Arc::new(AtomicBool::new(false));
                let stop_flag = stop.clone();
                let handle = std::thread::spawn(move || {
                    let mut prev = reg.snapshot();
                    let mut prev_cycles = fabsp_hwpc::cycles_now();
                    let mut seq = 0u64;
                    loop {
                        // Final frame skips the wait: everything since the
                        // last tick, so short runs still deliver one frame.
                        // Parked, not slept: the runner unparks right after
                        // raising the stop flag, so a finishing run never
                        // waits out a whole interval to get its final frame.
                        let mut stopped = stop_flag.load(Ordering::Relaxed);
                        if !stopped {
                            let deadline = std::time::Instant::now() + interval;
                            loop {
                                let left = deadline.saturating_duration_since(std::time::Instant::now());
                                if left.is_zero() || stop_flag.load(Ordering::Relaxed) {
                                    break;
                                }
                                std::thread::park_timeout(left);
                            }
                            stopped = stop_flag.load(Ordering::Relaxed);
                        }
                        let obs_begin = fabsp_hwpc::cycles_now();
                        let total = reg.snapshot();
                        let delta = total.diff(&prev);
                        let now = fabsp_hwpc::cycles_now();
                        // The post-stop flush frame is a fractional stub
                        // window — fixed snapshot cost over however little
                        // wall time is left — so metering it would end
                        // every run with a quantization spike. Meter it only
                        // when it is the run's sole window (a run shorter
                        // than one interval, where the stub IS the run).
                        let overhead = match continuous.as_mut() {
                            Some(c) if !stopped || c.metered.is_empty() => {
                                let window_cycles =
                                    now.saturating_sub(prev_cycles).saturating_mul(n_pes as u64);
                                let instr = delta.counter_total(Counter::TelemetrySelfCycles);
                                Some(c.meter(
                                    window_cycles,
                                    instr,
                                    now.saturating_sub(obs_begin),
                                    now,
                                ))
                            }
                            _ => None,
                        };
                        if let Some(sink) = &sink {
                            sink(&Frame {
                                seq,
                                at_cycles: now,
                                total: total.clone(),
                                delta,
                                overhead,
                            });
                        }
                        prev = total;
                        prev_cycles = now;
                        seq += 1;
                        if stopped {
                            break;
                        }
                    }
                    continuous
                });
                Some((stop, handle))
            }
            _ => None,
        };

        let trace = &trace;
        let conveyor = self.conveyor;
        let outcomes = spmd::run(harness, |pe| {
            let mut ctx = ProfilerCtx {
                pe,
                trace: trace.clone(),
                conveyor,
                collectors: Vec::new(),
            };
            let result = body(pe, &mut ctx);
            let n = ctx.collectors.len();
            let collector = (n == 1).then(|| {
                let rc = ctx.collectors.pop().expect("len checked");
                Rc::try_unwrap(rc)
                    .map(std::cell::RefCell::into_inner)
                    .expect("drop the selector before the profiler body returns")
            });
            (result, collector, n)
        });

        // Stop the observer on success AND failure paths, so a failed run
        // cannot leak a forever-polling thread.
        let mut continuous_report = None;
        if let Some((stop, handle)) = observer {
            stop.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            if let Ok(report) = handle.join() {
                continuous_report = report;
            }
        }
        let outcomes = outcomes?;

        let mut results = Vec::with_capacity(outcomes.len());
        let mut collectors = Vec::with_capacity(outcomes.len());
        for (rank, (result, collector, n)) in outcomes.into_iter().enumerate() {
            let Some(collector) = collector else {
                return Err(ProfError::BadBundle(format!(
                    "profiler body must create exactly one selector per PE \
                     (PE {rank} created {n})"
                ))
                .into());
            };
            results.push(result);
            collectors.push(collector);
        }
        let bundle = TraceBundle::from_collectors(collectors)?;
        if let Some(path) = &self.trace_events {
            crate::export::write_trace_events_with_overhead(
                path,
                &bundle,
                continuous_report.as_ref(),
            )?;
        }
        let telemetry = registry.map(|reg| reg.snapshot());
        Ok(Report {
            results,
            bundle,
            telemetry,
            continuous: continuous_report,
        })
    }
}

/// Per-PE handle the profiler passes to the run body: identity plus the
/// selector factory that wires tracing in.
pub struct ProfilerCtx<'p> {
    pe: &'p Pe,
    trace: TraceConfig,
    conveyor: ConveyorOptions,
    collectors: Vec<SharedCollector>,
}

impl<'p> ProfilerCtx<'p> {
    /// The calling PE.
    pub fn pe(&self) -> &'p Pe {
        self.pe
    }

    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.pe.rank()
    }

    /// World size.
    pub fn n_pes(&self) -> usize {
        self.pe.n_pes()
    }

    /// The trace configuration this run profiles under.
    pub fn trace(&self) -> &TraceConfig {
        &self.trace
    }

    /// Collectively create a selector wired to the profiler's trace and
    /// conveyor configuration. `handler` is invoked as
    /// `(mailbox, message, sender, ctx)` for every delivered message.
    pub fn selector<'h, T>(
        &mut self,
        n_mailboxes: usize,
        handler: impl FnMut(usize, T, u32, &mut ProcCtx<'_, T>) + 'h,
    ) -> Result<Selector<'h, T>, ActorError>
    where
        T: Copy + Default + Send + 'static,
    {
        let selector = Selector::new(
            self.pe,
            n_mailboxes,
            SelectorConfig {
                conveyor: self.conveyor,
                trace: self.trace.clone(),
            },
            handler,
        )?;
        self.collectors.push(selector.collector());
        Ok(selector)
    }
}

/// What a profiled run produced: per-PE results plus the assembled traces.
#[derive(Debug)]
pub struct Report<R = ()> {
    /// Per-PE body return values, in rank order.
    pub results: Vec<R>,
    /// The assembled traces — ask it for matrices, quartiles, PAPI
    /// totals, the overall breakdown, or feed it to [`crate::writer`].
    pub bundle: TraceBundle,
    /// Final telemetry snapshot (counters, gauges, histograms per PE);
    /// `None` only when the run was built with
    /// [`telemetry_off`](Profiler::telemetry_off).
    pub telemetry: Option<Snapshot>,
    /// The overhead measured window by window; `Some` only when
    /// the run was built with [`Profiler::continuous`].
    pub continuous: Option<ContinuousReport>,
}

impl<R> Report<R> {
    /// Render the plain-text analysis report (load balance, bottlenecks).
    pub fn render(&self, title: &str) -> String {
        crate::report::render(&self.bundle, title)
    }

    /// Write the paper-format trace files into `dir`; returns the file
    /// names written.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> Result<Vec<String>, ProfError> {
        crate::writer::write_all(dir.as_ref(), &self.bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabsp_telemetry::Phase;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_histogram(p: Profiler) -> Report<u64> {
        p.run(|pe, ctx| {
            let mass = Rc::new(RefCell::new(0u64));
            let m = Rc::clone(&mass);
            let mut actor = ctx
                .selector(1, move |_mb, _msg: u64, _from, _ctx| *m.borrow_mut() += 1)
                .expect("selector");
            actor
                .execute(pe, |main| {
                    for i in 0..50u64 {
                        main.send(0, i, (i as usize) % main.n_pes()).expect("send");
                    }
                    main.done(0).expect("done");
                })
                .expect("execute");
            let got = *mass.borrow();
            got
        })
        .expect("profiled run")
    }

    #[test]
    fn facade_collects_all_enabled_traces() {
        let report = run_histogram(
            Profiler::new(Grid::new(2, 2).unwrap())
                .logical()
                .overall()
                .physical()
                .papi(PapiConfig::case_study()),
        );
        assert_eq!(report.results.iter().sum::<u64>(), 200);
        let m = report.bundle.logical_matrix().unwrap();
        assert_eq!(m.total(), 200);
        assert!(report.bundle.has_overall());
        assert!(report.bundle.has_physical());
        assert!(!report.render("t").is_empty());
    }

    #[test]
    fn facade_runs_untraced() {
        let report = run_histogram(Profiler::new(Grid::single_node(2).unwrap()));
        assert_eq!(report.results.iter().sum::<u64>(), 100);
        assert!(report.bundle.logical_matrix().is_err());
    }

    #[test]
    fn facade_is_deterministic_under_seeded_schedule() {
        let traced = || {
            run_histogram(
                Profiler::new(Grid::new(2, 2).unwrap())
                    .logical()
                    .sched(SchedSpec::random_walk(11)),
            )
        };
        let (a, b) = (traced(), traced());
        assert_eq!(
            a.bundle.logical_matrix().unwrap(),
            b.bundle.logical_matrix().unwrap()
        );
    }

    #[test]
    fn telemetry_snapshot_counts_runtime_activity() {
        let report = run_histogram(Profiler::new(Grid::new(2, 2).unwrap()));
        let snap = report.telemetry.expect("telemetry on by default");
        // every PE sent 50 messages from MAIN
        assert_eq!(
            snap.counter_total(fabsp_telemetry::Counter::ActorSends),
            200
        );
        assert!(
            snap.span_count_total(fabsp_telemetry::Phase::Advance) > 0,
            "advance spans counted"
        );
        let per_pe = snap.counter_per_pe(fabsp_telemetry::Counter::ActorSends);
        assert_eq!(per_pe, vec![50, 50, 50, 50]);
    }

    #[test]
    fn telemetry_off_yields_no_snapshot() {
        let report = run_histogram(Profiler::new(Grid::single_node(2).unwrap()).telemetry_off());
        assert!(report.telemetry.is_none());
        assert_eq!(report.results.iter().sum::<u64>(), 100);
    }

    #[test]
    fn observer_sink_receives_frames() {
        let frames = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sends_seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let f = frames.clone();
        let s = sends_seen.clone();
        let report = run_histogram(
            Profiler::new(Grid::single_node(2).unwrap()).observe_every(
                Duration::from_millis(1),
                move |frame: &Frame| {
                    f.fetch_add(1, Ordering::Relaxed);
                    s.store(
                        frame.total.counter_total(fabsp_telemetry::Counter::ActorSends),
                        Ordering::Relaxed,
                    );
                },
            ),
        );
        assert_eq!(report.results.iter().sum::<u64>(), 100);
        assert!(
            frames.load(Ordering::Relaxed) >= 1,
            "the final frame always fires"
        );
        assert_eq!(
            sends_seen.load(Ordering::Relaxed),
            100,
            "last frame carries the complete totals"
        );
    }

    #[test]
    fn continuous_mode_reports_metered_windows() {
        let report = run_histogram(
            Profiler::new(Grid::single_node(2).unwrap())
                .continuous(OverheadBudget::pct(50.0))
                .observe_every(Duration::from_millis(1), |_| {}),
        );
        assert_eq!(report.results.iter().sum::<u64>(), 100);
        let cont = report.continuous.expect("continuous report present");
        assert!(cont.windows() >= 1, "at least the final window observed");
        for (i, w) in cont.metered.iter().enumerate() {
            assert_eq!(w.window, i as u64, "windows numbered in order");
            assert!(w.window_cycles > 0, "windows span real cycles");
            assert!(w.overhead_pct >= 0.0);
            assert_eq!(w.within_budget, w.overhead_pct <= cont.budget.pct);
        }
        assert_eq!(
            cont.final_overhead_pct(),
            cont.metered.last().unwrap().overhead_pct
        );
        // Spans were enabled implicitly by continuous mode, so the bundle
        // carries phase spans even though .spans() was never called.
        assert!(
            report.bundle.has_spans(),
            "continuous mode implies span tracing"
        );
    }

    #[test]
    fn continuous_mode_keeps_every_span() {
        let report = run_histogram(
            Profiler::new(Grid::new(2, 2).unwrap()).continuous(OverheadBudget::default()),
        );
        let snap = report.telemetry.expect("telemetry on by default");
        for (pe, c) in report.bundle.collectors().iter().enumerate() {
            for phase in Phase::ALL {
                let recorded = c.span_records().iter().filter(|s| s.phase == phase).count();
                assert_eq!(
                    recorded as u64,
                    snap.pes[pe].span_counts[phase as usize],
                    "pe{pe} {}: one record per metered span",
                    phase.label()
                );
            }
        }
        assert!(
            snap.span_count_total(Phase::Advance) > 1,
            "hot spans were recorded"
        );
    }

    #[test]
    fn plain_runs_have_no_continuous_report() {
        let report = run_histogram(Profiler::new(Grid::single_node(2).unwrap()));
        assert!(report.continuous.is_none());
    }

    #[test]
    fn trace_events_path_writes_perfetto_json() {
        let dir = std::env::temp_dir().join(format!("actorprof-tep-{}", std::process::id()));
        let path = dir.join("trace.json");
        let report = run_histogram(
            Profiler::new(Grid::single_node(2).unwrap())
                .physical()
                .spans()
                .trace_events_path(&path),
        );
        assert_eq!(report.results.iter().sum::<u64>(), 100);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""), "duration spans exported");
        assert!(json.contains("\"name\":\"superstep\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_body_fails_the_run() {
        let err = Profiler::new(Grid::new(1, 2).unwrap())
            .logical()
            .run(|pe, ctx| {
                let mut actor = ctx
                    .selector(1, |_mb, _msg: u64, _from, _ctx| {})
                    .expect("selector");
                actor
                    .execute(pe, |main| {
                        if main.rank() == 1 {
                            panic!("kernel bug");
                        }
                        main.done(0).expect("done");
                    })
                    .expect("execute");
            })
            .unwrap_err();
        match err {
            RunError::Shmem(ShmemError::PePanicked { pe, message }) => {
                assert_eq!(pe, 1, "the panicking PE is reported, not a poisoned peer");
                assert!(message.contains("kernel bug"), "unexpected: {message}");
            }
            other => panic!("expected PePanicked, got {other:?}"),
        }
    }

    #[test]
    fn body_without_selector_is_an_error() {
        let err = Profiler::new(Grid::single_node(2).unwrap())
            .run(|_pe, _ctx| 0u64)
            .unwrap_err();
        assert!(matches!(err, RunError::Prof(ProfError::BadBundle(_))));
        assert!(err.to_string().contains("exactly one selector"));
    }
}
