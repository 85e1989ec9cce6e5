//! # fabsp-testkit — deterministic schedule exploration and fault injection
//!
//! The FA-BSP substrate (`fabsp-shmem` + `fabsp-conveyors`) is concurrent:
//! under the OS scheduler a test exercises one arbitrary interleaving per
//! run, and a bug that needs a particular ordering of puts, quiets and
//! barrier arrivals may hide for thousands of runs. This crate turns the
//! substrate's [`Scheduler`] hook into a test harness:
//!
//! - **Schedule exploration** — [`explore_schedules`] runs one SPMD closure
//!   under many seeded [`SchedSpec::random_walk`] schedules; each `u64`
//!   seed names (and replays, exactly) one total order of observable
//!   substrate events. [`assert_schedule_independent`] additionally checks
//!   every schedule produces the same per-PE results as a free-running
//!   baseline.
//! - **Fault injection** — any [`FaultSpec`] (e.g.
//!   [`FaultSpec::nbi_shuffle`], which delivers non-blocking puts in a
//!   hostile-but-legal order at each `quiet`) can be combined with every
//!   explored schedule.
//! - **Invariant checkers** — [`MsgLog`] records push/pull events and
//!   [`MsgLog::check`] verifies per-`(src, dst)` FIFO delivery and message
//!   conservation; [`check_conveyor_quiescent`] verifies pushed == pulled
//!   with nothing in flight at quiescence;
//!   [`assert_nbi_invisible_until_quiet`] is a two-PE litmus proving no
//!   byte of a non-blocking put is visible before the issuing PE's
//!   `quiet`. **Termination** is checked by construction: the random-walk
//!   scheduler's step budget ([`DEFAULT_STEP_BUDGET`]) turns any deadlock
//!   or livelock into a deterministic [`ShmemError::PePanicked`] instead
//!   of a hang.
//! - **App conformance matrix** — [`matrix`] defines the generic
//!   [`matrix::AppSpec`]/[`matrix::MatrixParams`]/[`matrix::MatrixRun`]
//!   contract the workload registry (`fabsp_apps::registry()`) implements,
//!   so the schedule-fuzz and race-detect suites iterate
//!   over every bundled app from one list.
//!
//! ## Example
//!
//! ```
//! use fabsp_testkit::{assert_schedule_independent, FaultSpec, Grid};
//!
//! // A ring rotation must produce the same answer under every schedule.
//! let grid = Grid::single_node(3).unwrap();
//! let results = assert_schedule_independent(grid, 0..4, FaultSpec::NONE, |pe| {
//!     let sym = pe.alloc_sym::<u64>(1);
//!     let dst = (pe.rank() + 1) % pe.n_pes();
//!     sym.put(pe, dst, 0, &[pe.rank() as u64]).unwrap();
//!     pe.barrier_all();
//!     sym.read_local(pe, |v| v[0])
//! });
//! assert_eq!(results, vec![2, 0, 1]);
//! ```

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod matrix;

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

pub use fabsp_conveyors::{Conveyor, ConveyorOptions, ConveyorStats};
pub use fabsp_shmem::sched::DEFAULT_STEP_BUDGET;
pub use fabsp_shmem::{
    spmd, Checkpoint, FaultSpec, Grid, Harness, Pe, SchedPoint, SchedSpec, Scheduler, ShmemError,
};

/// One explored schedule: the seed that names it and every PE's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRun<R> {
    /// Seed of the random-walk schedule.
    pub seed: u64,
    /// Rank-ordered results of the SPMD closure.
    pub results: Vec<R>,
}

/// A schedule that failed to complete: the seed replays it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFailure {
    /// The failing seed (`None` for the OS-scheduled baseline).
    pub seed: Option<u64>,
    /// The underlying SPMD error (a panic on some PE, usually).
    pub error: ShmemError,
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seed {
            Some(seed) => write!(f, "schedule seed {seed}: {}", self.error),
            None => write!(f, "OS-scheduled baseline: {}", self.error),
        }
    }
}

impl std::error::Error for ScheduleFailure {}

/// Run `f` once per seed under a seeded random-walk schedule (plus the
/// given faults), collecting each schedule's rank-ordered results.
///
/// The first failing schedule aborts the sweep and reports its seed —
/// re-running that single seed reproduces the failure exactly. A schedule
/// that exceeds the step budget (deadlock/livelock) fails with
/// [`ShmemError::PePanicked`]; the budget is the termination checker.
pub fn explore_schedules<R, F>(
    grid: Grid,
    seeds: impl IntoIterator<Item = u64>,
    faults: FaultSpec,
    f: F,
) -> Result<Vec<ScheduleRun<R>>, ScheduleFailure>
where
    R: Send,
    F: Fn(&Pe) -> R + Sync,
{
    let mut runs = Vec::new();
    for seed in seeds {
        let harness = Harness::new(grid)
            .sched(SchedSpec::random_walk(seed))
            .faults(faults);
        let results = spmd::run(harness, &f).map_err(|error| ScheduleFailure {
            seed: Some(seed),
            error,
        })?;
        runs.push(ScheduleRun { seed, results });
    }
    Ok(runs)
}

/// Assert that `f`'s per-PE results are identical under a free-running
/// (OS-scheduled, fault-free) baseline and under every seeded schedule
/// with the given faults. Returns the baseline results.
///
/// # Panics
/// Panics if any run fails or any schedule's results diverge from the
/// baseline; the message names the seed, which replays the divergence.
pub fn assert_schedule_independent<R, F>(
    grid: Grid,
    seeds: impl IntoIterator<Item = u64>,
    faults: FaultSpec,
    f: F,
) -> Vec<R>
where
    R: Send + PartialEq + fmt::Debug,
    F: Fn(&Pe) -> R + Sync,
{
    let baseline = spmd::run(grid, &f)
        .unwrap_or_else(|error| panic!("{}", ScheduleFailure { seed: None, error }));
    let runs = explore_schedules(grid, seeds, faults, &f).unwrap_or_else(|e| panic!("{e}"));
    for run in &runs {
        assert_eq!(
            run.results, baseline,
            "schedule seed {} diverged from the OS-scheduled baseline",
            run.seed
        );
    }
    baseline
}

/// A violated delivery invariant, reported by [`MsgLog::check`] or
/// [`check_conveyor_quiescent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The n-th pull on a `(src, dst)` pair did not carry the n-th pushed
    /// tag: out-of-order delivery, or a pull with no matching push
    /// (`expected: None`).
    Fifo {
        src: usize,
        dst: usize,
        /// Zero-based delivery index on the pair.
        index: u64,
        /// Tag that FIFO order demanded (`None`: nothing was in flight).
        expected: Option<u64>,
        /// Tag actually pulled.
        got: u64,
    },
    /// Messages still in flight at quiescence: pushes without pulls.
    InFlight {
        src: usize,
        dst: usize,
        undelivered: usize,
    },
    /// World-wide conveyor counters disagree: `pushed != pulled`.
    ConveyorImbalance { pushed: u64, pulled: u64 },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Fifo {
                src,
                dst,
                index,
                expected,
                got,
            } => write!(
                f,
                "FIFO violation on {src}->{dst}: pull #{index} got tag {got}, expected {expected:?}"
            ),
            InvariantViolation::InFlight {
                src,
                dst,
                undelivered,
            } => write!(
                f,
                "conservation violation on {src}->{dst}: {undelivered} pushed but never pulled"
            ),
            InvariantViolation::ConveyorImbalance { pushed, pulled } => write!(
                f,
                "conveyor imbalance at quiescence: {pushed} pushed != {pulled} pulled"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Summary of a clean [`MsgLog::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgLogSummary {
    /// Messages delivered (pushed and pulled).
    pub delivered: u64,
    /// Distinct `(src, dst)` pairs that carried traffic.
    pub pairs: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgEvent {
    Push { src: usize, dst: usize, tag: u64 },
    Pull { src: usize, dst: usize, tag: u64 },
}

/// A shared push/pull event log for delivery-invariant checking.
///
/// Test closures record a [`push`](MsgLog::push) when a message enters the
/// substrate and a [`pull`](MsgLog::pull) when the destination hands it to
/// the application; [`check`](MsgLog::check) then replays the log and
/// verifies, per `(src, dst)` pair, **FIFO delivery** (the n-th pull
/// carries the n-th pushed tag — the ordering Conveyors guarantees and
/// algorithms rely on, per the paper's note on self-sends) and **message
/// conservation** (every push is pulled exactly once; nothing in flight at
/// the end).
///
/// Events from different PEs interleave arbitrarily in the log, but each
/// PE appends its own events in program order, which is all the per-pair
/// invariants need: pushes on a pair are appended only by `src`, pulls
/// only by `dst`.
#[derive(Debug, Default)]
pub struct MsgLog {
    events: Mutex<Vec<MsgEvent>>,
}

impl MsgLog {
    /// An empty log.
    pub fn new() -> MsgLog {
        MsgLog::default()
    }

    /// Record a message entering the substrate at `src`, bound for `dst`.
    /// `tag` identifies the message (e.g. its payload or a sequence
    /// number); FIFO checking compares tags, so tags should be unique per
    /// pair unless duplicates are genuinely indistinguishable.
    pub fn push(&self, src: usize, dst: usize, tag: u64) {
        self.events
            .lock()
            .unwrap()
            .push(MsgEvent::Push { src, dst, tag });
    }

    /// Record a message handed to the application at `dst`.
    pub fn pull(&self, src: usize, dst: usize, tag: u64) {
        self.events
            .lock()
            .unwrap()
            .push(MsgEvent::Pull { src, dst, tag });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replay the log and verify FIFO delivery and conservation on every
    /// `(src, dst)` pair. Call after the run has quiesced (all PEs
    /// returned); a push still in flight is a conservation violation.
    pub fn check(&self) -> Result<MsgLogSummary, InvariantViolation> {
        let events = self.events.lock().unwrap();
        let mut in_flight: HashMap<(usize, usize), VecDeque<u64>> = HashMap::new();
        let mut delivered_per_pair: HashMap<(usize, usize), u64> = HashMap::new();
        let mut delivered = 0u64;
        for event in events.iter() {
            match *event {
                MsgEvent::Push { src, dst, tag } => {
                    in_flight.entry((src, dst)).or_default().push_back(tag);
                }
                MsgEvent::Pull { src, dst, tag } => {
                    let index = delivered_per_pair.entry((src, dst)).or_insert(0);
                    let expected = in_flight.entry((src, dst)).or_default().pop_front();
                    if expected != Some(tag) {
                        return Err(InvariantViolation::Fifo {
                            src,
                            dst,
                            index: *index,
                            expected,
                            got: tag,
                        });
                    }
                    *index += 1;
                    delivered += 1;
                }
            }
        }
        for ((src, dst), queue) in &in_flight {
            if !queue.is_empty() {
                return Err(InvariantViolation::InFlight {
                    src: *src,
                    dst: *dst,
                    undelivered: queue.len(),
                });
            }
        }
        Ok(MsgLogSummary {
            delivered,
            pairs: delivered_per_pair.len(),
        })
    }
}

/// Check world-wide conveyor quiescence: every pushed item was pulled.
///
/// Pass each PE's [`Conveyor::stats`] taken after the conveyor terminated
/// (`advance` returned `false` everywhere); an imbalance means items were
/// lost or duplicated in aggregation buffers, relays, or non-blocking
/// sends.
pub fn check_conveyor_quiescent(stats: &[ConveyorStats]) -> Result<(), InvariantViolation> {
    let pushed: u64 = stats.iter().map(|s| s.pushed).sum();
    let pulled: u64 = stats.iter().map(|s| s.pulled).sum();
    if pushed != pulled {
        return Err(InvariantViolation::ConveyorImbalance { pushed, pulled });
    }
    Ok(())
}

/// Litmus test: no byte of a non-blocking put is visible at the target
/// before the issuing PE's `quiet`, and every byte is visible after —
/// under every given schedule and the given faults.
///
/// Two PEs on two nodes run a flag protocol: PE 0 issues `put_nbi`, then
/// signals "staged"; PE 1 reads the target location **while PE 0 is
/// provably pre-`quiet`** (PE 0 blocks on PE 1's acknowledgement before
/// calling `quiet`) and must see the old value; after PE 0 signals
/// "flushed", PE 1 must see the put value. This is the property that makes
/// `shmem_putmem_nbi` invisible to conventional profilers (paper §V-B) —
/// and the one [`FaultSpec::nbi_shuffle`] must not break, since shuffling
/// is only legal *within* the pending set of one `quiet`.
///
/// # Panics
/// Panics naming the violating seed.
pub fn assert_nbi_invisible_until_quiet(seeds: impl IntoIterator<Item = u64>, faults: FaultSpec) {
    const MAGIC: u64 = 0xF00D_FACE;
    const STAGED: usize = 0; // PE1's flag: the put is staged
    const FLUSHED: usize = 1; // PE1's flag: quiet has completed
    let grid = Grid::new(2, 1).expect("2x1 grid");
    for seed in seeds {
        let harness = Harness::new(grid)
            .sched(SchedSpec::random_walk(seed))
            .faults(faults);
        let results = spmd::run(harness, |pe| {
            let data = pe.alloc_sym::<u64>(1);
            let flags = pe.alloc_sym_atomic(2);
            if pe.rank() == 0 {
                data.put_nbi(pe, 1, 0, &[MAGIC]).unwrap();
                flags.store(pe, 1, STAGED, 1).unwrap();
                // Hold pre-quiet until PE 1 has sampled the target.
                flags.wait_until(pe, STAGED, |v| v == 1);
                pe.quiet();
                flags.store(pe, 1, FLUSHED, 1).unwrap();
                (0, MAGIC)
            } else {
                flags.wait_until(pe, STAGED, |v| v == 1);
                let before = data.local_get(pe, 0);
                flags.store(pe, 0, STAGED, 1).unwrap(); // acknowledge
                flags.wait_until(pe, FLUSHED, |v| v == 1);
                let after = data.local_get(pe, 0);
                (before, after)
            }
        })
        .unwrap_or_else(|e| panic!("nbi litmus, seed {seed}: {e}"));
        let (before, after) = results[1];
        assert_eq!(before, 0, "seed {seed}: nbi put visible before quiet");
        assert_eq!(after, MAGIC, "seed {seed}: nbi put not visible after quiet");
    }
}

/// What one PE saw of a [`handler_backlog`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BacklogRun {
    /// Responses this PE's handler received.
    pub received: u64,
    /// Items this PE's handlers copied into the outbox
    /// ([`ConveyorStats::outbox_staged`]).
    pub staged: u64,
    /// Responses this PE's conveyor accepted.
    pub pushed: u64,
}

/// Litmus for the selector's handler outbox — run it on every PE of a
/// world. Each PE sends one request to its right neighbour; the handler
/// answers it with `backlog` sequence-numbered responses staged in one
/// go, all to the requester, or (`alternating`) item `i` to PE
/// `(requester + i) % n_pes`. Nothing drains while a handler runs, so the
/// outbox holds the whole backlog at once, and with conveyor buffers of
/// `capacity` items almost every submission is refused part-way. The
/// response mailbox is chained after the request mailbox.
///
/// # Panics
/// Panics (poisoning the world) if responses from one source arrive out of
/// staging order — a refused suffix resubmitted wrongly — or, inside the
/// selector, if the response mailbox's done goes out while a run is
/// still queued.
pub fn handler_backlog(pe: &Pe, capacity: usize, backlog: u64, alternating: bool) -> BacklogRun {
    use fabsp_actor::{Selector, SelectorConfig};
    use std::cell::{Cell, RefCell};

    let n_pes = pe.n_pes();
    let received = Cell::new(0u64);
    let last_from: RefCell<Vec<Option<u64>>> = RefCell::new(vec![None; n_pes]);
    let config = SelectorConfig {
        conveyor: ConveyorOptions {
            capacity,
            ..ConveyorOptions::default()
        },
        ..SelectorConfig::default()
    };
    let mut actor = Selector::new(pe, 2, config, |mb, seq: u64, from, ctx| {
        if mb == 0 {
            for i in 0..backlog {
                let dst = from as usize + if alternating { i as usize } else { 0 };
                ctx.send(1, i, dst % n_pes);
            }
            return;
        }
        let last = &mut last_from.borrow_mut()[from as usize];
        assert!(
            last.is_none_or(|l| l < seq),
            "PE {} got response {seq} from PE {from} after {last:?}: link FIFO broken",
            ctx.rank()
        );
        *last = Some(seq);
        received.set(received.get() + 1);
    })
    .expect("two-mailbox selector");
    actor.chain_done(1, 0).expect("responses end after requests");
    actor
        .execute(pe, |ctx| {
            ctx.send(0, 0, (ctx.rank() + 1) % ctx.n_pes())
                .expect("request");
            ctx.done(0).expect("done");
        })
        .expect("execute");
    BacklogRun {
        received: received.get(),
        staged: actor.stats().outbox_staged,
        pushed: actor.mailbox_stats(1).expect("mailbox 1").pushed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identical_results() {
        let grid = Grid::single_node(3).unwrap();
        let program = |pe: &Pe| {
            let sym = pe.alloc_sym_atomic(1);
            for dst in 0..pe.n_pes() {
                sym.fetch_add(pe, dst, 0, pe.rank() as u64).unwrap();
            }
            pe.barrier_all();
            sym.local_load(pe, 0)
        };
        let a = explore_schedules(grid, [9, 10, 11], FaultSpec::NONE, program).unwrap();
        let b = explore_schedules(grid, [9, 10, 11], FaultSpec::NONE, program).unwrap();
        assert_eq!(a, b, "a seed must name exactly one schedule");
        for run in &a {
            assert_eq!(run.results, vec![3, 3, 3]);
        }
    }

    #[test]
    fn schedule_independence_of_a_reduction() {
        let grid = Grid::new(2, 2).unwrap();
        let results = assert_schedule_independent(grid, 0..6, FaultSpec::NONE, |pe| {
            pe.allreduce_sum_u64(pe.rank() as u64 + 1)
        });
        assert_eq!(results, vec![10; 4]);
    }

    #[test]
    fn msg_log_accepts_fifo_delivery() {
        let log = MsgLog::new();
        log.push(0, 1, 100);
        log.push(0, 1, 101);
        log.push(2, 1, 7);
        log.pull(0, 1, 100);
        log.pull(2, 1, 7);
        log.pull(0, 1, 101);
        let summary = log.check().unwrap();
        assert_eq!(summary.delivered, 3);
        assert_eq!(summary.pairs, 2);
    }

    #[test]
    fn msg_log_detects_reordering() {
        let log = MsgLog::new();
        log.push(0, 1, 100);
        log.push(0, 1, 101);
        log.pull(0, 1, 101);
        let err = log.check().unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::Fifo {
                src: 0,
                dst: 1,
                index: 0,
                expected: Some(100),
                got: 101
            }
        );
    }

    #[test]
    fn msg_log_detects_loss() {
        let log = MsgLog::new();
        log.push(3, 0, 1);
        log.push(3, 0, 2);
        log.pull(3, 0, 1);
        let err = log.check().unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::InFlight {
                src: 3,
                dst: 0,
                undelivered: 1
            }
        );
    }

    #[test]
    fn msg_log_detects_phantom_pull() {
        let log = MsgLog::new();
        log.pull(0, 1, 9);
        assert!(matches!(
            log.check().unwrap_err(),
            InvariantViolation::Fifo {
                expected: None,
                got: 9,
                ..
            }
        ));
    }

    #[test]
    fn conveyor_quiescence_checker() {
        let balanced = [
            ConveyorStats {
                pushed: 5,
                pulled: 2,
                ..Default::default()
            },
            ConveyorStats {
                pushed: 1,
                pulled: 4,
                ..Default::default()
            },
        ];
        check_conveyor_quiescent(&balanced).unwrap();
        let lossy = [ConveyorStats {
            pushed: 5,
            pulled: 4,
            ..Default::default()
        }];
        assert_eq!(
            check_conveyor_quiescent(&lossy).unwrap_err(),
            InvariantViolation::ConveyorImbalance {
                pushed: 5,
                pulled: 4
            }
        );
    }

    #[test]
    fn nbi_litmus_holds_across_schedules() {
        assert_nbi_invisible_until_quiet(0..6, FaultSpec::NONE);
    }

    #[test]
    fn nbi_litmus_holds_under_shuffle_faults() {
        assert_nbi_invisible_until_quiet(0..6, FaultSpec::nbi_shuffle(0xC4A0));
    }

    #[test]
    fn step_budget_reports_deadlock_as_error() {
        let grid = Grid::single_node(2).unwrap();
        let harness = Harness::new(grid).sched(SchedSpec::RandomWalk {
            seed: 1,
            max_steps: 20_000,
        });
        // PE 0 waits on a flag nobody ever sets.
        let err = spmd::run(harness, |pe| {
            let flags = pe.alloc_sym_atomic(1);
            if pe.rank() == 0 {
                flags.wait_until(pe, 0, |v| v == 1);
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("without terminating")
                        || message.contains("poisoned"),
                    "unexpected panic message: {message}"
                );
            }
            other => panic!("expected PePanicked, got {other:?}"),
        }
    }

    #[test]
    fn violation_display_names_the_pair() {
        let v = InvariantViolation::Fifo {
            src: 2,
            dst: 5,
            index: 3,
            expected: Some(8),
            got: 9,
        };
        assert!(v.to_string().contains("2->5"));
        assert!(
            InvariantViolation::ConveyorImbalance {
                pushed: 1,
                pulled: 0
            }
            .to_string()
            .contains("1 pushed")
        );
    }
}
