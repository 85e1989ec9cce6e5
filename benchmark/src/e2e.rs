//! The end-to-end run of one workload: the six metrics a user of the
//! profiler would see, measured with the benchmark's own spans off.
//!
//! Protocol (why: a single `histogram::run` on this class of shared
//! 2-core host has IQR/median 6–18 % with one-sided 2x outliers, and the
//! host drifts ~6 % between minutes):
//! * set-up — input generation, golden oracle and one cold untraced rep —
//!   runs [`SETUP_REPS`] times. A cold rep is never a throughput sample.
//! * the three product trace classes and the post-mortem pipeline are
//!   timed in interleaved rounds (`off, logical, all, pm, off, …`) so
//!   drift hits all of them equally.
//! * the round count is what fits the time budget (>= 23 on the reference
//!   host), never fewer than [`MIN_ROUNDS`].
//! * a timed metric is the fast decile over its reps (see
//!   [`Row::rate`]), never a single shot, printed with median, quartiles
//!   and rep count.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::postmortem;
use crate::spans::Spans;
use crate::stats::Row;
use crate::workloads::{Prepared, TraceClass, Workload};

/// An end-to-end metric: its unit, direction, and the share of the
/// parent's median by which it may worsen before it is a regression.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Mirrors `end_to_end` in BENCHMARK.json; [`run`] fills the rows in this
/// order.
pub const METRICS: [MetricDef; 6] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "msgs_per_s_off",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "msgs_per_s_logical",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "msgs_per_s_all",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "postmortem_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "trace_bytes_per_msg",
        unit: "B",
        higher_is_better: false,
        bound: 0.02,
    },
];

/// Set-ups per run (the first is the process-cold one).
pub const SETUP_REPS: usize = 9;
/// Interleaved rounds never go below this, whatever the time budget.
pub const MIN_ROUNDS: usize = 11;

/// Counts reps (one op = one rep) and keeps the reasons of the failed
/// ones.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one rep; returns its value when it passed its checks.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Run `workload` end to end: set-up, then interleaved rounds for
/// `seconds`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans: &mut Spans,
) -> (Vec<Row>, Ops) {
    let mut ops = Ops::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let ((p, cold), dt) = spans.time("setup", rep, |_| {
            let p = Prepared::new(workload, seed);
            let cold = p.rep(TraceClass::Off);
            (p, cold)
        });
        if ops.record("setup cold rep", cold).is_some() {
            setup_s.push(dt);
        }
        prepared = Some(p);
    }
    let prepared = prepared.expect("SETUP_REPS > 0");
    let traced = ops.record("post-mortem traced run", prepared.postmortem_run());

    // A round is one rep of each trace class and one post-mortem pass, so
    // every metric samples the whole measuring window.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut pm_s = Vec::new();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for (i, class) in TraceClass::ROUND.into_iter().enumerate() {
            let (done, dt) = spans.time(class.span_name(), round, |_| prepared.rep(class));
            if let Some(done) = ops.record(class.span_name(), done) {
                rates[i].push(done as f64 / dt);
            }
        }
        if let Some((bundle, _)) = &traced {
            let pass = postmortem::run_once(bundle, &scratch.join("pm"), spans, round);
            if let Some(pass) = ops.record("post-mortem pass", pass) {
                pm_s.push(pass.total_s);
            }
        }
        round += 1;
    }

    // A metric with no passing rep has no row; the run is reported as
    // failed instead.
    let [.., trace_bytes] = &METRICS;
    let samples: [&[f64]; 5] = [&setup_s, &rates[0], &rates[1], &rates[2], &pm_s];
    let mut rows: Vec<Row> = METRICS
        .iter()
        .zip(samples)
        .filter(|(_, values)| !values.is_empty())
        .map(|(m, values)| {
            if m.higher_is_better {
                Row::rate(m.name, m.unit, values)
            } else {
                Row::time(m.name, m.unit, values)
            }
        })
        .collect();
    if let Some((bundle, messages)) = &traced {
        let bytes = bundle.trace_bytes() as f64 / *messages as f64;
        rows.push(Row::exact(trace_bytes.name, trace_bytes.unit, bytes));
    }
    (rows, ops)
}
