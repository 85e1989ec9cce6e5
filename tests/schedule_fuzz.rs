//! Schedule fuzzing: every bundled workload must be *schedule
//! independent*.
//!
//! Each app's logical trace matrix and application result are pure
//! functions of the app seed — the thread interleaving, put/quiet timing,
//! and conveyor buffer boundaries may vary freely underneath. The sweep
//! iterates the three-app registry (`fabsp_apps::registry()`): per app, an
//! OS-scheduled baseline [`MatrixRun`] is captured, checked against the
//! app's sequential golden oracle, and then replayed under seeded
//! random-walk schedules. Every replay must reproduce the baseline
//! bit-for-bit —
//! result digest *and* flattened logical matrix (which also pins message
//! conservation: same per-pair send counts under every schedule). A
//! divergence names the app and seed, which replays that exact schedule.
//!
//! Per-app seed budgets (Σ budgets = 102 schedules) keep the sweep past
//! the 100-schedule floor while staying CI-affordable; the
//! capacity-1 lane runs a smaller seed slice on top.
//!
//! Physical traces and timings are intentionally *not* compared: buffer
//! flush boundaries legitimately depend on the schedule.
//!
//! `FABSP_TESTKIT_SEED` offsets the seed range so CI can sweep disjoint
//! schedule sets across jobs without code changes; `ACTORPROF_SCALE`
//! scales every workload from one knob.

use actorprof_suite::fabsp_apps::registry;
use actorprof_suite::fabsp_conveyors::ConveyorOptions;
use actorprof_suite::fabsp_shmem::{Grid, SchedSpec};
use actorprof_suite::fabsp_testkit::matrix::MatrixParams;
use actorprof_suite::fabsp_testkit::{
    assert_schedule_independent, handler_backlog, DEFAULT_STEP_BUDGET,
};

/// CI seed offset: disjoint jobs explore disjoint schedule sets.
fn seed_base() -> u64 {
    std::env::var("FABSP_TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Seed window for `(app, lane)`: disjoint per lane and per app so no two
/// sweeps replay the same schedule.
fn sweep_seeds(app_idx: usize, lane: u64, budget: u64) -> impl Iterator<Item = u64> {
    let lo = seed_base() + lane * 10_000 + (app_idx as u64) * 100;
    lo..lo + budget
}

fn fuzz_grid() -> Grid {
    Grid::new(2, 2).unwrap()
}

#[test]
fn registry_is_schedule_independent() {
    let params = MatrixParams::new(fuzz_grid());
    let mut schedules = 0u64;
    for (app_idx, app) in registry().into_iter().enumerate() {
        let base = app
            .run(&params)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", app.name));
        base.assert_golden(&format!("{} baseline", app.name));
        let logical = base.logical.as_ref().expect("logical trace collected");
        assert!(
            logical.iter().sum::<u64>() > 0,
            "{}: the baseline sent traffic",
            app.name
        );

        for seed in sweep_seeds(app_idx, 0, app.fuzz_seed_budget) {
            let p = params.clone().with_sched(SchedSpec::random_walk(seed));
            let out = app
                .run(&p)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", app.name));
            let ctx = format!("{} seed {seed}", app.name);
            out.assert_matches(&base, &ctx);
            out.assert_golden(&ctx);
            schedules += 1;
        }
    }
    assert!(
        schedules >= 100,
        "the sweep must cover >= 100 schedules, ran {schedules}"
    );
}

#[test]
fn registry_survives_capacity_one_aggregation() {
    // Shrink every aggregation buffer and landing slot to a single item:
    // maximal buffer-boundary pressure, constant flushing, and (on the
    // mesh) relay traffic at every step. Results must be unchanged for
    // every app under every schedule.
    let mut params = MatrixParams::new(fuzz_grid());
    params.conveyor = ConveyorOptions {
        capacity: 1,
        ..ConveyorOptions::default()
    };
    for (app_idx, app) in registry().into_iter().enumerate() {
        let base = app
            .run(&params)
            .unwrap_or_else(|e| panic!("{} capacity-1 baseline: {e}", app.name));
        base.assert_golden(&format!("{} capacity-1 baseline", app.name));
        for seed in sweep_seeds(app_idx, 5, 4) {
            let p = params.clone().with_sched(SchedSpec::random_walk(seed));
            let out = app
                .run(&p)
                .unwrap_or_else(|e| panic!("{} capacity-1 seed {seed}: {e}", app.name));
            out.assert_matches(&base, &format!("{} capacity-1 seed {seed}", app.name));
        }
    }
}

#[test]
fn handler_outbox_backlog_is_schedule_independent() {
    // The registry's request/response apps answer a request with one
    // item; this arm answers it with thousands, so the handler outbox
    // holds a deep backlog of alternating-destination runs that tiny
    // buffers refuse part-way on nearly every submission — on the
    // two-node grid. The litmus panics on a link FIFO violation; each
    // PE's counts must match the OS baseline's.
    const BACKLOG: u64 = 4_000;
    let runs = assert_schedule_independent(fuzz_grid(), sweep_seeds(0, 30, 4), |pe| {
        handler_backlog(pe, 4, BACKLOG, true)
    });
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(run.received, BACKLOG, "PE {rank}");
        assert_eq!(run.staged, run.pushed, "PE {rank}");
    }
}

#[test]
fn step_budget_is_generous_enough_for_the_workloads() {
    // The termination checker (step budget) must never fire on a healthy
    // run; document the headroom so scale bumps don't silently approach it.
    use actorprof_suite::fabsp_apps::histogram::{self, HistogramConfig};
    let mut cfg = HistogramConfig::new(Grid::single_node(2).unwrap());
    cfg.updates_per_pe = 8;
    cfg.table_size_per_pe = 8;
    cfg.sched = SchedSpec::RandomWalk {
        seed: seed_base(),
        max_steps: DEFAULT_STEP_BUDGET,
    };
    histogram::run(&cfg).expect("healthy run must stay far under the step budget");
}
