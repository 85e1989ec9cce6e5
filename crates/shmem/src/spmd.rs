//! SPMD launcher: run one closure on every PE of a [`Grid`].
//!
//! This is the reproduction's `oshrun`/`srun`: it spawns one OS thread per
//! PE, hands each a [`Pe`] handle, and joins them. If any PE panics, the
//! world is poisoned so PEs blocked in barriers, collectives, or polling
//! loops unwind instead of hanging, and the first panic (by rank) is
//! reported as [`ShmemError::PePanicked`].

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use fabsp_telemetry::TelemetryRegistry;

use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::FaultSpec;
use crate::pe::{Pe, World};
use crate::sched::{SchedSpec, Scheduler};

/// How a run acquires its telemetry registry.
#[derive(Clone, Default)]
enum TelemetrySpec {
    /// Always-on default: the run creates a fresh registry.
    #[default]
    Fresh,
    /// Telemetry disabled (A/B overhead measurement only).
    Off,
    /// Caller-provided registry, observable from outside the run (live
    /// dashboards, post-run assertions).
    Shared(Arc<TelemetryRegistry>),
}

/// How to run one SPMD execution: the PE layout plus the (optional)
/// deterministic scheduler and fault injection driving it.
///
/// A bare [`Grid`] converts into a harness with OS scheduling and no
/// faults, so `spmd::run(grid, f)` keeps its production meaning while
/// tests can pass a full harness:
///
/// ```
/// use fabsp_shmem::{spmd, spmd::Harness, sched::SchedSpec, net::FaultSpec, Grid};
///
/// let grid = Grid::single_node(2).unwrap();
/// let harness = Harness::new(grid)
///     .sched(SchedSpec::random_walk(42))
///     .faults(FaultSpec::nbi_shuffle(7));
/// let ranks = spmd::run(harness, |pe| pe.rank()).unwrap();
/// assert_eq!(ranks, vec![0, 1]);
/// ```
#[derive(Clone)]
pub struct Harness {
    pub grid: Grid,
    pub sched: SchedSpec,
    pub faults: FaultSpec,
    /// Telemetry wiring: always-on by default, shareable, or disabled.
    telemetry: TelemetrySpec,
    /// Auto-checkpoint period in supersteps, surfaced to the actor layer's
    /// superstep hooks via [`Pe::checkpoint_due`].
    pub checkpoint_every: Option<u64>,
    /// Whether to attach the happens-before race detector (on by default
    /// when the `race-detect` feature is compiled in, so the whole test
    /// suite runs checked).
    #[cfg(feature = "race-detect")]
    race_detect: bool,
    #[cfg(feature = "race-detect")]
    race_hooks: crate::race::RaceHooks,
}

impl Harness {
    /// OS scheduling, no faults — identical to running with the bare grid.
    pub fn new(grid: Grid) -> Harness {
        Harness {
            grid,
            sched: SchedSpec::Os,
            faults: FaultSpec::NONE,
            telemetry: TelemetrySpec::Fresh,
            checkpoint_every: None,
            #[cfg(feature = "race-detect")]
            race_detect: true,
            #[cfg(feature = "race-detect")]
            race_hooks: crate::race::RaceHooks::default(),
        }
    }

    /// Select a built-in scheduling spec.
    pub fn sched(mut self, sched: SchedSpec) -> Harness {
        self.sched = sched;
        self
    }

    /// Enable fault injection.
    pub fn faults(mut self, faults: FaultSpec) -> Harness {
        self.faults = faults;
        self
    }

    /// Checkpoint the symmetric state every `n` supersteps (at the
    /// superstep hooks the actor layer drives; see [`Pe::checkpoint_due`]).
    pub fn checkpoint_every(mut self, n: u64) -> Harness {
        self.checkpoint_every = Some(n);
        self
    }

    /// Share a caller-owned [`TelemetryRegistry`] with the run, so live
    /// subscribers can snapshot it while PEs execute and post-mortem
    /// assertions can read it afterwards. The registry must be sized for
    /// this harness's PE count.
    pub fn telemetry(mut self, registry: Arc<TelemetryRegistry>) -> Harness {
        self.telemetry = TelemetrySpec::Shared(registry);
        self
    }

    /// Disable telemetry for this run. Only meant for measuring the
    /// registry's own overhead (the benchmark ladder's
    /// `telemetry.on_ns_per_msg` rung); production runs leave it on.
    pub fn telemetry_off(mut self) -> Harness {
        self.telemetry = TelemetrySpec::Off;
        self
    }

    /// Enable or disable the happens-before race detector for this run
    /// (enabled by default under the `race-detect` feature; disable to
    /// measure the detector's own overhead).
    #[cfg(feature = "race-detect")]
    pub fn race(mut self, enabled: bool) -> Harness {
        self.race_detect = enabled;
        self
    }

    /// Install negative-litmus hooks (deliberate edge weakenings) on this
    /// run's race detector; see [`crate::race::RaceHooks`].
    #[cfg(feature = "race-detect")]
    pub fn race_hooks(mut self, hooks: crate::race::RaceHooks) -> Harness {
        self.race_hooks = hooks;
        self
    }

    /// Schedule identity for violation reports: names the seed that
    /// replays the flagged interleaving.
    #[cfg(feature = "race-detect")]
    fn schedule_name(&self) -> String {
        match self.sched {
            SchedSpec::Os => "OS threads, free-running".to_string(),
            SchedSpec::RandomWalk { seed, .. } => format!("RandomWalk seed {seed}"),
        }
    }
}

impl From<Grid> for Harness {
    fn from(grid: Grid) -> Harness {
        Harness::new(grid)
    }
}

/// Run `f` once per PE and return the per-PE results in rank order.
///
/// `f` runs concurrently on `grid.n_pes()` threads; the `&Pe` argument is
/// the calling PE's identity and capability handle. `harness` is either a
/// bare [`Grid`] (production: OS scheduling, no faults) or a [`Harness`]
/// selecting a deterministic schedule and fault injection.
pub fn run<R, F, H>(harness: H, f: F) -> Result<Vec<R>, ShmemError>
where
    R: Send,
    F: Fn(&Pe) -> R + Sync,
    H: Into<Harness>,
{
    let harness = harness.into();
    let grid = harness.grid;
    let telemetry = match &harness.telemetry {
        TelemetrySpec::Fresh => Some(Arc::new(TelemetryRegistry::new(grid.n_pes()))),
        TelemetrySpec::Off => None,
        TelemetrySpec::Shared(reg) => Some(reg.clone()),
    };
    let sched = harness.sched.build(grid.n_pes());
    #[cfg_attr(not(feature = "race-detect"), allow(unused_mut))]
    let mut world = World::with_harness(
        grid,
        sched.clone(),
        harness.faults,
        telemetry,
        harness.checkpoint_every,
    );
    #[cfg(feature = "race-detect")]
    if harness.race_detect {
        let detector =
            crate::race::Detector::new(grid.n_pes(), harness.schedule_name(), harness.race_hooks);
        Arc::get_mut(&mut world)
            .expect("world is not yet shared at detector installation")
            .race = Some(Arc::new(detector));
    }
    run_attempt(&world, sched, &f).map_err(|(pe, message)| ShmemError::PePanicked { pe, message })
}

/// Spawn, run and join one thread per PE. `Err` carries the rank and message
/// of the original panic (collateral world-poison unwinds are filtered).
fn run_attempt<R, F>(
    world: &Arc<World>,
    sched: Option<Arc<dyn Scheduler>>,
    f: &F,
) -> Result<Vec<R>, (usize, String)>
where
    R: Send,
    F: Fn(&Pe) -> R + Sync,
{
    let n_pes = world.grid.n_pes();
    let mut outcomes: Vec<Option<std::thread::Result<R>>> = (0..n_pes).map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_pes)
            .map(|rank| {
                let world = world.clone();
                let sched = sched.clone();
                scope.spawn(move || {
                    let pe = Pe::new(rank, world.clone());
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        if let Some(sched) = &sched {
                            sched.register(rank);
                            world.check_poison();
                        }
                        f(&pe)
                    }));
                    if let Some(sched) = &sched {
                        sched.finished(rank);
                    }
                    if result.is_err() {
                        world.poison();
                        // Post-mortem flight-recorder dump for this PE —
                        // covers direct panics, testkit faults, and
                        // termination-checker (step-budget) trips, all of
                        // which unwind through here. Best-effort: a dump
                        // failure must not mask the original panic.
                        if let Some(reg) = &world.telemetry {
                            let _ = reg.dump_flight(rank);
                        }
                    }
                    result
                })
            })
            .collect();
        for (slot, handle) in outcomes.iter_mut().zip(handles) {
            // The spawned closure catches panics, so join itself cannot fail.
            *slot = Some(handle.join().expect("PE thread infrastructure panicked"));
        }
    });

    let mut results = Vec::with_capacity(n_pes);
    let mut panics: Vec<(usize, String)> = Vec::new();
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome.expect("PE outcome missing") {
            Ok(r) => results.push(r),
            // `&*payload`, not `&payload`: the latter would unsize the
            // `&Box` itself into `&dyn Any` and defeat the downcasts.
            Err(payload) => panics.push((rank, panic_message(&*payload))),
        }
    }
    // Report the original panic; PEs that died of induced poisoning are
    // collateral, not the cause.
    let original = panics
        .iter()
        .find(|(_, m)| !m.contains("world poisoned"))
        .or_else(|| panics.first());
    match original {
        Some((pe, message)) => Err((*pe, message.clone())),
        None => Ok(results),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_closure_per_pe_in_rank_order() {
        let grid = Grid::new(2, 3).unwrap();
        let results = run(grid, |pe| (pe.rank(), pe.node(), pe.local_index())).unwrap();
        assert_eq!(
            results,
            vec![
                (0, 0, 0),
                (1, 0, 1),
                (2, 0, 2),
                (3, 1, 0),
                (4, 1, 1),
                (5, 1, 2)
            ]
        );
    }

    #[test]
    fn barrier_all_is_usable_repeatedly() {
        let grid = Grid::single_node(4).unwrap();
        let results = run(grid, |pe| {
            for _ in 0..10 {
                pe.barrier_all();
            }
            pe.rank()
        })
        .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pe_panic_is_reported_not_hung() {
        let grid = Grid::single_node(3).unwrap();
        let err = run(grid, |pe| {
            if pe.rank() == 1 {
                panic!("deliberate failure on PE 1");
            }
            // Other PEs head into a barrier that PE 1 never reaches;
            // poisoning must release them.
            pe.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, 1, "the original panicking PE must be reported");
                assert!(message.contains("deliberate"), "unexpected: {message}");
            }
            other => panic!("expected PePanicked, got {other:?}"),
        }
    }

    #[test]
    fn poll_yield_panics_after_poison() {
        let grid = Grid::single_node(2).unwrap();
        let err = run(grid, |pe| {
            if pe.rank() == 0 {
                panic!("boom");
            }
            // PE 1 polls forever; the poison check must break the loop.
            loop {
                pe.poll_yield();
            }
            #[allow(unreachable_code)]
            ()
        })
        .unwrap_err();
        assert!(matches!(err, ShmemError::PePanicked { .. }));
    }

    #[test]
    fn single_pe_grid_works() {
        let grid = Grid::single_node(1).unwrap();
        let results = run(grid, |pe| {
            pe.barrier_all();
            pe.n_pes()
        })
        .unwrap();
        assert_eq!(results, vec![1]);
    }
}
