//! SPMD launcher: run one closure on every PE of a [`Grid`].
//!
//! This is the reproduction's `oshrun`/`srun`: it spawns one OS thread per
//! PE, hands each a [`Pe`] handle, and joins them. If any PE panics, the
//! world is poisoned so PEs blocked in barriers, collectives, or polling
//! loops unwind instead of hanging, and the first panic (by rank) is
//! reported as [`ShmemError::PePanicked`].

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use fabsp_telemetry::{Counter, TelemetryRegistry};

use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::FaultSpec;
use crate::pe::{Pe, World};
use crate::recovery::{backoff_delay, KillRecord, RecoveryLog, RecoverySpec};
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
    /// What to do when a PE fails (default: abort the run).
    pub recovery: RecoverySpec,
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
            recovery: RecoverySpec::Abort,
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

    /// Select the recovery policy applied when a PE fails.
    pub fn recovery(mut self, recovery: RecoverySpec) -> Harness {
        self.recovery = recovery;
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
    run_recovering(harness, f).map(|(results, _)| results)
}

/// Run `f` once per PE under the harness's [`RecoverySpec`], returning the
/// per-PE results plus the [`RecoveryLog`] of everything fault tolerance
/// did along the way.
///
/// Under [`RecoverySpec::Abort`] (the default) this behaves exactly like
/// [`run`]: any PE failure tears the world down and is reported as
/// [`ShmemError::PePanicked`]. Under
/// [`RecoverySpec::RestartFromCheckpoint`], a failed attempt is retried —
/// the SPMD closure runs again as a fresh attempt (a restarted, seeded run
/// is bit-identical to an unkilled one; see [`crate::recovery`]) with
/// bounded exponential backoff between attempts, up to `max_retries`
/// restarts. Telemetry is shared across attempts, so counters accumulate;
/// the deterministic scheduler, if any, is rebuilt per attempt from its
/// spec so the replay walks the same schedule.
pub fn run_recovering<R, F, H>(harness: H, f: F) -> Result<(Vec<R>, RecoveryLog), ShmemError>
where
    R: Send,
    F: Fn(&Pe) -> R + Sync,
    H: Into<Harness>,
{
    let harness = harness.into();
    let grid = harness.grid;
    let max_retries = harness.recovery.max_retries();
    let backoff = match harness.recovery {
        RecoverySpec::RestartFromCheckpoint { backoff, .. } => backoff,
        RecoverySpec::Abort => std::time::Duration::ZERO,
    };
    // Built once and shared across attempts: counters accumulate over
    // restarts and live observers keep their subscription.
    let telemetry = match &harness.telemetry {
        TelemetrySpec::Fresh => Some(Arc::new(TelemetryRegistry::new(grid.n_pes()))),
        TelemetrySpec::Off => None,
        TelemetrySpec::Shared(reg) => Some(reg.clone()),
    };
    let mut log = RecoveryLog::default();
    let mut attempt = 0u32;
    loop {
        // The scheduler is rebuilt per attempt — a failed attempt poisons
        // it — and, being spec-seeded, replays the same schedule.
        let sched = harness.sched.build(grid.n_pes());
        #[cfg_attr(not(feature = "race-detect"), allow(unused_mut))]
        let mut world = World::with_harness(
            grid,
            sched.clone(),
            harness.faults,
            telemetry.clone(),
            harness.checkpoint_every,
            attempt,
        );
        #[cfg(feature = "race-detect")]
        if harness.race_detect {
            let detector = crate::race::Detector::new(
                grid.n_pes(),
                harness.schedule_name(),
                harness.race_hooks,
            );
            Arc::get_mut(&mut world)
                .expect("world is not yet shared at detector installation")
                .race = Some(Arc::new(detector));
        }
        let outcome = run_attempt(&world, sched, &f);
        // Relaxed loads: every PE thread has been joined inside
        // `run_attempt`; the joins are the synchronizing edges.
        log.net_retries += world.net_retries.load(Ordering::Relaxed);
        log.checkpoints_taken += world.checkpoint.taken();
        match outcome {
            Ok(results) => return Ok((results, log)),
            Err((pe, message)) => {
                log.kills_observed.push(KillRecord {
                    attempt,
                    pe,
                    message: message.clone(),
                });
                log.wasted_supersteps += world.superstep_high.load(Ordering::Relaxed);
                if attempt >= max_retries {
                    return Err(if max_retries == 0 {
                        // Abort policy (or a zero-retry restart spec):
                        // preserve the pre-recovery error shape.
                        ShmemError::PePanicked { pe, message }
                    } else {
                        ShmemError::RetriesExhausted {
                            attempts: attempt + 1,
                            pe,
                            message,
                        }
                    });
                }
                if let Some(reg) = &telemetry {
                    // Attributed to the PE that died; its threads are
                    // joined, so the slab has a unique writer again.
                    reg.pe(pe).count(Counter::Restarts);
                }
                let delay = backoff_delay(backoff, attempt);
                attempt += 1;
                log.restarts += 1;
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// One SPMD attempt: spawn, run, join. `Err` carries the rank and message
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
    fn recoverable_fault_no_longer_fails_the_harness() {
        // Regression: the poisoned-worker path used to tear down all PEs on
        // any single panic even when a RecoverySpec could handle it. A kill
        // fault under RestartFromCheckpoint must now succeed via restart.
        let grid = Grid::single_node(3).unwrap();
        let harness = Harness::new(grid)
            .faults(FaultSpec::kill_pe(1, 0))
            .recovery(RecoverySpec::restart(2));
        let (results, log) = run_recovering(harness, |pe| {
            let ss = pe.begin_superstep();
            pe.barrier_all();
            pe.end_superstep(ss);
            pe.rank() * 10
        })
        .unwrap();
        assert_eq!(results, vec![0, 10, 20]);
        assert_eq!(log.restarts, 1);
        assert_eq!(log.kills_observed.len(), 1);
        assert_eq!(log.kills_observed[0].pe, 1);
        assert!(log.kills_observed[0].message.contains("kill_pe"));
        assert_eq!(log.wasted_supersteps, 1);
    }

    #[test]
    fn same_fault_under_abort_still_fails() {
        let grid = Grid::single_node(3).unwrap();
        let harness = Harness::new(grid).faults(FaultSpec::kill_pe(1, 0));
        let err = run(harness, |pe| {
            let ss = pe.begin_superstep();
            pe.barrier_all();
            pe.end_superstep(ss);
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, 1);
                assert!(message.contains("kill_pe"), "unexpected: {message}");
            }
            other => panic!("expected PePanicked, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_report_the_last_failure() {
        // A plain panic (not a kill fault) fires on every attempt, so even
        // restarts cannot save the run.
        let grid = Grid::single_node(2).unwrap();
        let harness = Harness::new(grid).recovery(RecoverySpec::restart(2));
        let err = run_recovering(harness, |pe| {
            if pe.rank() == 0 {
                panic!("always fails");
            }
            pe.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::RetriesExhausted { attempts, pe, message } => {
                assert_eq!(attempts, 3);
                assert_eq!(pe, 0);
                assert!(message.contains("always fails"));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn kill_fires_only_on_the_initial_attempt() {
        // attempt index is threaded into the world: a restarted attempt
        // models a replaced node, so the same kill spec must not re-fire.
        let grid = Grid::single_node(2).unwrap();
        let harness = Harness::new(grid)
            .faults(FaultSpec::kill_pe(0, 0))
            .recovery(RecoverySpec::restart(1));
        let (_, log) = run_recovering(harness, |pe| {
            let ss = pe.begin_superstep();
            pe.end_superstep(ss);
        })
        .unwrap();
        assert_eq!(log.restarts, 1);
        assert_eq!(log.kills_observed.len(), 1);
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
