//! The per-thread PE handle and the shared world.
//!
//! [`Pe`] is what SPMD code receives: it identifies the calling processing
//! element, carries its deferred non-blocking-put queue, and is the
//! capability through which all symmetric-memory and collective operations
//! run. It is deliberately `!Sync`/`!Send` — a PE handle belongs to exactly
//! one thread, just as an OpenSHMEM PE is one process.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fabsp_hwpc::cost::model;
use fabsp_telemetry::{Counter, PeMetrics, TelemetryRegistry};

use crate::checkpoint::{Checkpoint, CheckpointState};
use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::{NetLedger, NetStats, TransferClass};
use crate::sched::{SchedPoint, Scheduler};
use crate::sync::{PoisonBarrier, Rendezvous};

/// Shared state of one SPMD execution.
pub(crate) struct World {
    pub(crate) grid: Grid,
    pub(crate) barrier: PoisonBarrier,
    pub(crate) rendezvous: Rendezvous,
    pub(crate) ledger: NetLedger,
    pub(crate) poisoned: AtomicBool,
    /// Serializing scheduler, if this run is under deterministic control.
    pub(crate) sched: Option<Arc<dyn Scheduler>>,
    /// Always-on runtime telemetry. `None` only when a harness explicitly
    /// disabled it (A/B overhead measurement).
    pub(crate) telemetry: Option<Arc<TelemetryRegistry>>,
    /// Checkpoint registry and latest-checkpoint store.
    pub(crate) checkpoint: CheckpointState,
    /// Auto-checkpoint period in supersteps (facade `checkpoint_every`).
    pub(crate) checkpoint_every: Option<u64>,
    /// Happens-before race detector, when this run checks its schedules.
    #[cfg(feature = "race-detect")]
    pub(crate) race: Option<Arc<crate::race::Detector>>,
}

impl World {
    pub(crate) fn with_harness(
        grid: Grid,
        sched: Option<Arc<dyn Scheduler>>,
        telemetry: Option<Arc<TelemetryRegistry>>,
        checkpoint_every: Option<u64>,
    ) -> Arc<World> {
        if let Some(reg) = &telemetry {
            assert_eq!(
                reg.n_pes(),
                grid.n_pes(),
                "telemetry registry sized for a different PE count"
            );
        }
        Arc::new(World {
            grid,
            barrier: PoisonBarrier::new(grid.n_pes()),
            rendezvous: Rendezvous::new(grid.n_pes()),
            ledger: NetLedger::new(grid.n_pes()),
            poisoned: AtomicBool::new(false),
            sched,
            telemetry,
            checkpoint: CheckpointState::default(),
            checkpoint_every,
            #[cfg(feature = "race-detect")]
            race: None,
        })
    }

    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        if let Some(sched) = &self.sched {
            sched.poison();
        }
        self.barrier.poison();
        self.rendezvous.poison();
    }

    pub(crate) fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "SPMD world poisoned: another PE panicked"
        );
    }
}

/// A deferred non-blocking put, applied at the next [`Pe::quiet`].
pub(crate) struct PendingPut {
    pub(crate) apply: Box<dyn FnOnce()>,
    pub(crate) bytes: usize,
}

/// Handle to one processing element, passed to the SPMD closure.
pub struct Pe {
    rank: usize,
    world: Arc<World>,
    collective_seq: Cell<u64>,
    pending: RefCell<Vec<PendingPut>>,
    /// Supersteps begun on this PE (bumped by [`Pe::begin_superstep`]).
    superstep: Cell<u64>,
}

impl Pe {
    pub(crate) fn new(rank: usize, world: Arc<World>) -> Pe {
        Pe {
            rank,
            world,
            collective_seq: Cell::new(0),
            pending: RefCell::new(Vec::new()),
            superstep: Cell::new(0),
        }
    }

    /// This PE's global rank (OpenSHMEM `shmem_my_pe`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of PEs (OpenSHMEM `shmem_n_pes`).
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.world.grid.n_pes()
    }

    /// The PE/node layout.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.world.grid
    }

    /// The node hosting this PE.
    #[inline]
    pub fn node(&self) -> usize {
        self.world.grid.node_of(self.rank)
    }

    /// This PE's index within its node.
    #[inline]
    pub fn local_index(&self) -> usize {
        self.world.grid.local_index(self.rank)
    }

    /// Whether `other` shares this PE's node.
    #[inline]
    pub fn same_node_as(&self, other: usize) -> bool {
        self.world.grid.same_node(self.rank, other)
    }

    /// Whether a deterministic [`Scheduler`] is driving
    /// this world. Scheduler yield points take the rendezvous mutex, so
    /// lock-freedom assertions about the message hot path only hold in
    /// free-running (OS-scheduled) worlds.
    #[inline]
    pub fn is_scheduled(&self) -> bool {
        self.world.sched.is_some()
    }

    /// Complete all outstanding non-blocking puts issued by this PE
    /// (OpenSHMEM `shmem_quiet`).
    ///
    /// After `quiet` returns, the data of every prior
    /// [`put_nbi`](crate::SymmetricVec::put_nbi) is visible at its target —
    /// and not before, which is the semantics the paper's `nonblock_progress`
    /// instrumentation captures. Returns the number of bytes flushed.
    pub fn quiet(&self) -> usize {
        self.sched_point(SchedPoint::Quiet);
        let pending = std::mem::take(&mut *self.pending.borrow_mut());
        if pending.is_empty() {
            self.note_quiet();
            return 0;
        }
        let mut bytes = 0;
        for op in pending {
            bytes += op.bytes;
            (op.apply)();
        }
        model::QUIET.charge();
        self.world
            .ledger
            .record(self.rank, TransferClass::Quiet, bytes);
        self.note_quiet();
        bytes
    }

    /// Telemetry for one completed `quiet`.
    #[inline]
    fn note_quiet(&self) {
        if let Some(m) = self.metrics() {
            m.count(Counter::ShmemQuiets);
        }
    }

    /// Number of non-blocking puts issued but not yet completed by `quiet`.
    pub fn pending_nbi(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Barrier across all PEs (OpenSHMEM `shmem_barrier_all`).
    /// Implies [`quiet`](Pe::quiet), as the OpenSHMEM specification requires.
    pub fn barrier_all(&self) {
        self.quiet();
        // Arrive strictly before the physical wait and depart strictly
        // after it, so every departer's clock covers every arriver's.
        #[cfg(feature = "race-detect")]
        if let Some(d) = self.race_detector() {
            d.barrier_arrive(self.rank);
        }
        match &self.world.sched {
            None => self.world.barrier.wait(),
            Some(sched) => {
                // Under a serializing scheduler a condvar sleep would hold
                // the execution token forever; poll instead, yielding the
                // token between checks.
                sched.yield_point(self.rank, SchedPoint::Barrier);
                self.world.check_poison();
                self.world.barrier.wait_with_idle(&|| {
                    sched.yield_point(self.rank, SchedPoint::Barrier);
                    self.world.check_poison();
                });
            }
        }
        #[cfg(feature = "race-detect")]
        if let Some(d) = self.race_detector() {
            d.barrier_depart(self.rank);
        }
        if let Some(m) = self.metrics() {
            m.count(Counter::ShmemBarrierWaits);
        }
    }

    /// Cooperatively yield while polling: checks for world poisoning so a
    /// panic on another PE does not leave this one spinning forever.
    pub fn poll_yield(&self) {
        self.world.check_poison();
        match &self.world.sched {
            None => std::thread::yield_now(),
            Some(sched) => {
                sched.yield_point(self.rank, SchedPoint::Poll);
                self.world.check_poison();
            }
        }
    }

    /// Hit an observable scheduling point (no-op without a scheduler).
    #[inline]
    pub(crate) fn sched_point(&self, point: SchedPoint) {
        if let Some(sched) = &self.world.sched {
            sched.yield_point(self.rank, point);
            self.world.check_poison();
        }
    }

    /// Run collective number `next_collective_seq()` through the world
    /// rendezvous, idling scheduler-aware while other PEs arrive.
    pub(crate) fn run_collective<T, R>(
        &self,
        value: T,
        combine: impl FnOnce(Vec<T>) -> R,
    ) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
    {
        let seq = self.next_collective_seq();
        self.sched_point(SchedPoint::Collective);
        // Rendezvous arrival/departure bracket the physical wait, like the
        // barrier's: collectives are full synchronization points.
        #[cfg(feature = "race-detect")]
        if let Some(d) = self.race_detector() {
            d.collective_arrive(self.rank);
        }
        let out = match &self.world.sched {
            None => self
                .world
                .rendezvous
                .collective(seq, self.rank, value, combine),
            Some(sched) => self.world.rendezvous.collective_with_idle(
                seq,
                self.rank,
                value,
                combine,
                Some(&|| {
                    sched.yield_point(self.rank, SchedPoint::Collective);
                    self.world.check_poison();
                }),
            ),
        };
        #[cfg(feature = "race-detect")]
        if let Some(d) = self.race_detector() {
            d.collective_depart(self.rank);
        }
        out
    }

    /// Enter the next superstep and return its 0-based index. Called by the
    /// actor layer at the top of each selector execution; applications
    /// driving the substrate directly may call it around their own
    /// superstep loops to get the auto-checkpoint hook.
    pub fn begin_superstep(&self) -> u64 {
        let ss = self.superstep.get();
        self.superstep.set(ss + 1);
        ss
    }

    /// Supersteps begun on this PE so far.
    pub fn superstep(&self) -> u64 {
        self.superstep.get()
    }

    /// Whether the harness' `checkpoint_every` period lands on `superstep`.
    pub fn checkpoint_due(&self, superstep: u64) -> bool {
        self.world
            .checkpoint_every
            .is_some_and(|n| n > 0 && superstep.is_multiple_of(n))
    }

    /// Capture a checkpoint of all symmetric state at the current cut.
    ///
    /// Collective: every PE must call it at the same point. The cut must be
    /// quiescent — if any PE still has non-blocking puts pending, all PEs
    /// get [`ShmemError::CheckpointNotQuiescent`] and nothing is captured.
    pub fn checkpoint(&self) -> Result<Arc<Checkpoint>, ShmemError> {
        let world = self.world.clone();
        let superstep = self.superstep.get();
        let result = self.run_collective(
            self.pending_nbi(),
            move |pending: Vec<usize>| -> Result<Arc<Checkpoint>, ShmemError> {
                let total: usize = pending.iter().sum();
                if total > 0 {
                    return Err(ShmemError::CheckpointNotQuiescent { pending_nbi: total });
                }
                Ok(world.checkpoint.capture(superstep, &world.ledger))
            },
        );
        if let (Ok(_), Some(m)) = (&*result, self.metrics()) {
            m.count(Counter::Checkpoints);
        }
        (*result).clone()
    }

    /// Write `ckpt` back into every allocation it captured, plus the
    /// network ledger. Collective and quiescence-checked like
    /// [`checkpoint`](Pe::checkpoint).
    pub fn restore_checkpoint(&self, ckpt: &Arc<Checkpoint>) -> Result<(), ShmemError> {
        let world = self.world.clone();
        let ckpt = ckpt.clone();
        let result = self.run_collective(
            self.pending_nbi(),
            move |pending: Vec<usize>| -> Result<(), ShmemError> {
                let total: usize = pending.iter().sum();
                if total > 0 {
                    return Err(ShmemError::CheckpointNotQuiescent { pending_nbi: total });
                }
                world.checkpoint.restore(&ckpt, &world.ledger);
                Ok(())
            },
        );
        (*result).clone()
    }

    /// The most recent checkpoint of this world, if any was taken.
    pub fn latest_checkpoint(&self) -> Option<Arc<Checkpoint>> {
        self.world.checkpoint.latest()
    }

    /// The shared world, for allocation constructors that register
    /// checkpoint targets from inside their collective combine closures.
    pub(crate) fn world_arc(&self) -> Arc<World> {
        self.world.clone()
    }

    /// Network statistics attributed to this PE as a source.
    pub fn net_stats(&self) -> NetStats {
        self.world.ledger.pe_stats(self.rank)
    }

    /// Merged network statistics over all PEs. Only meaningful when other
    /// PEs are quiescent (e.g. right after [`barrier_all`](Pe::barrier_all)).
    pub fn world_net_stats(&self) -> NetStats {
        self.world.ledger.total()
    }

    pub(crate) fn next_collective_seq(&self) -> u64 {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        seq
    }

    pub(crate) fn push_pending(&self, bytes: usize, apply: Box<dyn FnOnce()>) {
        self.pending.borrow_mut().push(PendingPut { apply, bytes });
    }

    pub(crate) fn record_net(&self, class: TransferClass, bytes: usize) {
        if let Some(m) = self.metrics() {
            if matches!(
                class,
                TransferClass::LocalCopy | TransferClass::RemotePut | TransferClass::NonBlockingPut
            ) {
                m.count(Counter::ShmemPuts);
            }
        }
        self.world.ledger.record(self.rank, class, bytes);
    }

    /// This PE's always-on metric slab, or `None` when the harness disabled
    /// telemetry. The handle is cheap enough to look up per event.
    #[inline]
    pub fn metrics(&self) -> Option<&PeMetrics> {
        self.world.telemetry.as_deref().map(|t| t.pe(self.rank))
    }

    /// The world's telemetry registry (shared across PEs), for snapshotting
    /// from inside SPMD bodies.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryRegistry>> {
        self.world.telemetry.as_ref()
    }
}

/// Race-detector surface (the `race-detect` feature). All methods are
/// no-ops when the run's [`Harness`](crate::spmd::Harness) disabled the
/// detector.
#[cfg(feature = "race-detect")]
impl Pe {
    /// This world's detector, if the run is being checked.
    #[inline]
    pub(crate) fn race_detector(&self) -> Option<&Arc<crate::race::Detector>> {
        self.world.race.as_ref()
    }

    /// Release edge on `obj`: order this PE's prior accesses before any PE
    /// that later acquires `obj`.
    pub fn hb_release(&self, obj: &crate::race::HbObject) {
        if let Some(d) = self.race_detector() {
            d.sync_release(self.rank, obj.loc(), || ());
        }
    }

    /// Acquire edge on `obj`: order every prior release of `obj` before
    /// this PE's subsequent accesses.
    pub fn hb_acquire(&self, obj: &crate::race::HbObject) {
        if let Some(d) = self.race_detector() {
            d.sync_acquire(self.rank, obj.loc(), || ());
        }
    }

    /// Combined acquire-release edge on `obj` (models an RMW).
    pub fn hb_rmw(&self, obj: &crate::race::HbObject) {
        if let Some(d) = self.race_detector() {
            d.sync_rmw(self.rank, obj.loc(), || ());
        }
    }

    /// Tag this PE's subsequent tracked accesses with a logical-operation
    /// note (shown in violation reports).
    pub fn race_note(&self, note: &'static str) {
        if let Some(d) = self.race_detector() {
            d.note(self.rank, note);
        }
    }

    /// Total detector events so far (accesses + sync edges), for overhead
    /// reporting; `None` when the run is unchecked.
    pub fn race_events(&self) -> Option<u64> {
        self.race_detector().map(|d| d.events())
    }
}

impl std::fmt::Debug for Pe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pe")
            .field("rank", &self.rank)
            .field("grid", &self.world.grid)
            .finish()
    }
}
