//! The adaptive occupancy controller is invisible to the application.
//!
//! Every registry app runs its workload through `send_slice`-bucketed
//! submission over the selector's one exchange path (`push_slice` in,
//! `pull_batch` out). The conveyor orders items per (source, destination)
//! link whatever the slab occupancy target is, so the logical trace matrix
//! and the application result digest must be bit-identical with the
//! controller on and off. A divergence means a flush boundary dropped,
//! duplicated, or reordered items.

use actorprof_suite::fabsp_apps::registry;
use actorprof_suite::fabsp_shmem::{Grid, SchedSpec};
use actorprof_suite::fabsp_testkit::matrix::{AppSpec, MatrixParams, MatrixRun};

fn run_golden(app: &AppSpec, p: &MatrixParams, ctx: &str) -> MatrixRun {
    let run = app.run(p).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    run.assert_golden(&ctx);
    run
}

#[test]
fn adaptive_capacity_reproduces_the_fixed_capacity_result() {
    // The adaptive controller only moves the slab occupancy target —
    // flush boundaries, never ordering — so results and logical matrices
    // must match a fixed-capacity run of the same seeded schedule.
    for app in registry() {
        let fixed = MatrixParams::new(Grid::new(2, 2).unwrap())
            .with_sched(SchedSpec::random_walk(0xADA7));
        let mut adaptive = fixed.clone();
        adaptive.conveyor.adaptive = true;
        let a = run_golden(&app, &fixed, &format!("{} fixed-capacity", app.name));
        let b = run_golden(&app, &adaptive, &format!("{} adaptive-capacity", app.name));
        a.assert_matches(&b, &format!("{} fixed vs adaptive", app.name));
    }
}
