//! Vector-clock happens-before race detector (the `race-detect` feature).
//!
//! The substrate's hot path is lock-free by contract; the static lint
//! (`fabsp-analyzer`) pins every memory ordering to a policy table, and this
//! module checks the *dynamic* half of the argument: every pair of
//! conflicting accesses to tracked shared memory (symmetric-heap elements,
//! ring cell buffers) must be ordered by a happens-before edge the substrate
//! actually models. A [`Detector`] hangs off the SPMD world; instrumented
//! operations feed it:
//!
//! - **Accesses** — [`SymmetricVec`](crate::SymmetricVec) element
//!   reads/writes and [`SpscRing`](crate::SpscRing) cell-buffer fills/reads,
//!   at element/cell granularity.
//! - **Sync edges** — ring state-word publish/release (`Release` stores)
//!   paired with `state()` polls (`Acquire` loads), barrier
//!   arrive/depart, collective rendezvous arrive/depart, and explicit
//!   [`HbObject`] edges (the conveyor termination ledger).
//! - **The nbi protocol** — a ring `write_nbi` marks its cell *pending*;
//!   the initiator's `quiet` clears the mark (and only then emits the write
//!   event). A consumer that reads a still-pending cell has consumed
//!   non-blocking-put data before the initiator's `quiet` — a protocol
//!   violation even if the bytes happen to be there. Symmetric-heap
//!   `put_nbi` needs no pending mark: the heap defers the *data itself*
//!   until `quiet`, so a pre-quiet read legitimately observes old values
//!   (that is the litmus-tested OpenSHMEM semantics), and the write event
//!   fires inside the deferred apply closure.
//!
//! The clock algebra is FastTrack-flavoured: one vector clock per PE, and
//! per tracked location a last-write epoch plus one read epoch per reading
//! PE. A conflicting pair whose earlier epoch is not `<=` the later access's
//! clock is a race: the detector panics with both access labels, both
//! captured backtraces, and the schedule (seed) that produced the
//! interleaving, which poisons the world and surfaces as
//! [`ShmemError::PePanicked`](crate::ShmemError::PePanicked).
//!
//! Physical atomic operations run *inside* the detector's mutex (the
//! `sync_*` methods take the operation as a closure), so a load observes a
//! sync object's accumulated clock exactly when it observes the matching
//! store — free-running threads cannot skew bookkeeping against reality.
//!
//! The detector deliberately uses `std::sync::Mutex`, which the vendored
//! `parking_lot` acquisition counter does not count: enabling `race-detect`
//! does not trip the hot path's zero-lock-delta assertions.
//!
//! [`RaceHooks`] hosts the negative litmus switches — three seeded
//! weakenings (downgrade the ring `Acquire` poll to `Relaxed`, drop the
//! quiet-epoch delivery edge, skip the barrier epoch) that tests use to
//! prove the detector actually flags each missing edge.

use std::backtrace::Backtrace;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static ALLOC_IDS: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique id for a tracked allocation (called from the
/// collective combine closures that create symmetric objects). Id 0 is
/// reserved for the detector's built-in barrier/collective sync objects.
pub fn next_alloc_id() -> u64 {
    ALLOC_IDS.fetch_add(1, Ordering::Relaxed)
}

/// One tracked location or sync object: element `index` of `owner`'s region
/// of allocation `alloc`. Data locations and sync objects live in separate
/// tables, so a ring cell's buffer and its state word share a `Loc`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Loc {
    /// Allocation id from [`next_alloc_id`].
    pub alloc: u64,
    /// PE whose region the location belongs to.
    pub owner: usize,
    /// Element (heap) or cell (ring) index within the region.
    pub index: usize,
}

/// A named happens-before token for synchronization the substrate performs
/// outside the instrumented primitives (e.g. the conveyor termination
/// ledger's `SeqCst` atomics). Edges are drawn with [`Pe::hb_release`],
/// [`Pe::hb_acquire`] and [`Pe::hb_rmw`].
///
/// [`Pe::hb_release`]: crate::Pe::hb_release
/// [`Pe::hb_acquire`]: crate::Pe::hb_acquire
/// [`Pe::hb_rmw`]: crate::Pe::hb_rmw
#[derive(Debug)]
pub struct HbObject {
    id: u64,
}

impl HbObject {
    /// A fresh sync object with a process-unique id.
    pub fn new() -> HbObject {
        HbObject { id: next_alloc_id() }
    }

    pub(crate) fn loc(&self) -> Loc {
        Loc {
            alloc: self.id,
            owner: 0,
            index: 0,
        }
    }
}

impl Default for HbObject {
    fn default() -> Self {
        HbObject::new()
    }
}

/// Negative-litmus switches: each deliberately weakens one modeled edge so
/// tests can prove the detector flags exactly that weakening. All default
/// to off; production semantics are unchanged either way (the hooks only
/// alter detector bookkeeping, plus one physically-equivalent `Relaxed`
/// poll on x86).
#[derive(Clone, Copy, Default, Debug)]
pub struct RaceHooks {
    /// Downgrade the ring `state()` poll from `Acquire` to `Relaxed` and
    /// record no acquire edge: the publish/consume pairing disappears and
    /// every cell handoff becomes a flagged race.
    pub downgrade_ring_acquire: bool,
    /// Drop the quiet-epoch delivery edge: the initiator's `quiet` no
    /// longer clears ring nbi pending marks (nor emits the write event), so
    /// the first consumption of an nbi delivery is flagged.
    pub skip_quiet_edge: bool,
    /// Skip the barrier arrive/depart epoch: `barrier_all` stops ordering
    /// accesses on opposite sides, so barrier-synchronized code is flagged.
    pub skip_barrier_edge: bool,
}

/// A vector clock: one logical-time component per PE.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Vc(Vec<u64>);

impl Vc {
    fn new(n_pes: usize) -> Vc {
        Vc(vec![0; n_pes])
    }

    fn join(&mut self, other: &Vc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
}

/// What an access did, for conflict checking and reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AccessKind {
    Read,
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// One recorded access epoch: `(rank, time)` plus reporting context.
struct Access {
    rank: usize,
    time: u64,
    label: &'static str,
    note: Option<&'static str>,
    bt: Arc<Backtrace>,
}

#[derive(Default)]
struct LocState {
    write: Option<Access>,
    /// At most one (the latest) read epoch per reading rank.
    reads: Vec<Access>,
}

struct PendingNbi {
    issuer: usize,
    label: &'static str,
    bt: Arc<Backtrace>,
}

struct State {
    clocks: Vec<Vc>,
    locs: HashMap<Loc, LocState>,
    syncs: HashMap<Loc, Vc>,
    nbi_pending: HashMap<Loc, PendingNbi>,
    /// Most recent logical-operation note per rank (e.g. "Conveyor::push"),
    /// attached to subsequent accesses for friendlier reports.
    notes: Vec<Option<&'static str>>,
    events: u64,
}

/// Reserved sync objects (alloc id 0 never collides with allocations).
const BARRIER_LOC: Loc = Loc { alloc: 0, owner: 0, index: 0 };
const COLLECTIVE_LOC: Loc = Loc { alloc: 0, owner: 0, index: 1 };

/// The happens-before checker attached to one SPMD world; see the module
/// docs. All methods are callable from any PE thread.
pub struct Detector {
    state: Mutex<State>,
    /// Human-readable schedule identity ("RandomWalk seed 42", ...),
    /// included in every violation report so the interleaving replays.
    schedule: String,
    hooks: RaceHooks,
}

impl Detector {
    /// A detector for `n_pes` PEs under the named schedule.
    pub fn new(n_pes: usize, schedule: String, hooks: RaceHooks) -> Detector {
        Detector {
            state: Mutex::new(State {
                // Each PE's own component starts at 1, not 0: an epoch
                // stamped before any release still reads `time >= 1`, which
                // another PE's untouched clock entry (0) does not cover —
                // otherwise first-epoch accesses could never conflict.
                clocks: (0..n_pes)
                    .map(|r| {
                        let mut vc = Vc::new(n_pes);
                        vc.0[r] = 1;
                        vc
                    })
                    .collect(),
                locs: HashMap::new(),
                syncs: HashMap::new(),
                nbi_pending: HashMap::new(),
                notes: vec![None; n_pes],
                events: 0,
            }),
            schedule,
            hooks,
        }
    }

    /// The installed litmus hooks.
    #[inline]
    pub fn hooks(&self) -> RaceHooks {
        self.hooks
    }

    /// Total events processed (accesses + sync edges), for overhead
    /// reporting.
    pub fn events(&self) -> u64 {
        self.lock().events
    }

    /// After a violation panic the mutex is poisoned; every later caller is
    /// collateral of an already-reported race, so recover the guard and let
    /// the world-poison check unwind them.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // --- sync edges -------------------------------------------------------

    /// Acquire edge on `loc` around the physical operation `op` (typically
    /// the matching `Acquire` load). Running `op` under the detector lock
    /// keeps the clock join atomic with the observation it models.
    pub fn sync_acquire<R>(&self, rank: usize, loc: Loc, op: impl FnOnce() -> R) -> R {
        let mut st = self.lock();
        st.events += 1;
        let out = op();
        Self::acquire_in(&mut st, rank, loc);
        out
    }

    /// Release edge on `loc` around the physical operation `op` (typically
    /// the matching `Release` store).
    pub fn sync_release<R>(&self, rank: usize, loc: Loc, op: impl FnOnce() -> R) -> R {
        let mut st = self.lock();
        st.events += 1;
        Self::release_in(&mut st, rank, loc);
        op()
    }

    /// Acquire-release edge on `loc` around `op` (an RMW such as
    /// `fetch_add`).
    pub fn sync_rmw<R>(&self, rank: usize, loc: Loc, op: impl FnOnce() -> R) -> R {
        let mut st = self.lock();
        st.events += 1;
        Self::acquire_in(&mut st, rank, loc);
        Self::release_in(&mut st, rank, loc);
        op()
    }

    fn acquire_in(st: &mut State, rank: usize, loc: Loc) {
        let State { clocks, syncs, .. } = st;
        if let Some(s) = syncs.get(&loc) {
            clocks[rank].join(s);
        }
    }

    fn release_in(st: &mut State, rank: usize, loc: Loc) {
        let State { clocks, syncs, .. } = st;
        let clock = &mut clocks[rank];
        syncs
            .entry(loc)
            .or_insert_with(|| Vc::new(clock.0.len()))
            .join(clock);
        // Bump our component so later same-rank accesses are not mistaken
        // for pre-release ones by PEs that acquired this edge.
        clock.0[rank] += 1;
    }

    // --- barrier / collective epochs --------------------------------------

    /// Entering `barrier_all`: publish this PE's clock (before the physical
    /// wait, so every departer observes every arriver).
    pub fn barrier_arrive(&self, rank: usize) {
        if self.hooks.skip_barrier_edge {
            return; // LITMUS HOOK: the barrier stops ordering anything.
        }
        let mut st = self.lock();
        st.events += 1;
        Self::release_in(&mut st, rank, BARRIER_LOC);
    }

    /// Leaving `barrier_all`: join every arriver's clock.
    pub fn barrier_depart(&self, rank: usize) {
        if self.hooks.skip_barrier_edge {
            return;
        }
        let mut st = self.lock();
        st.events += 1;
        Self::acquire_in(&mut st, rank, BARRIER_LOC);
    }

    /// Entering a collective rendezvous (allocation, reduction, ...).
    pub fn collective_arrive(&self, rank: usize) {
        let mut st = self.lock();
        st.events += 1;
        Self::release_in(&mut st, rank, COLLECTIVE_LOC);
    }

    /// Leaving a collective rendezvous.
    pub fn collective_depart(&self, rank: usize) {
        let mut st = self.lock();
        st.events += 1;
        Self::acquire_in(&mut st, rank, COLLECTIVE_LOC);
    }

    // --- data accesses ----------------------------------------------------

    /// Record a read of `loc` and check it against the last write.
    pub fn read(&self, rank: usize, loc: Loc, label: &'static str) {
        self.access(rank, loc, AccessKind::Read, label);
    }

    /// Record a write of `loc` and check it against all prior epochs.
    pub fn write(&self, rank: usize, loc: Loc, label: &'static str) {
        self.access(rank, loc, AccessKind::Write, label);
    }

    /// Record reads of `len` consecutive elements of `owner`'s region.
    pub fn read_range(
        &self,
        rank: usize,
        alloc: u64,
        owner: usize,
        start: usize,
        len: usize,
        label: &'static str,
    ) {
        self.access_range(rank, alloc, owner, start..start + len, AccessKind::Read, label);
    }

    /// Record writes of `len` consecutive elements of `owner`'s region.
    pub fn write_range(
        &self,
        rank: usize,
        alloc: u64,
        owner: usize,
        start: usize,
        len: usize,
        label: &'static str,
    ) {
        self.access_range(rank, alloc, owner, start..start + len, AccessKind::Write, label);
    }

    fn access_range(
        &self,
        rank: usize,
        alloc: u64,
        owner: usize,
        indices: std::ops::Range<usize>,
        kind: AccessKind,
        label: &'static str,
    ) {
        let mut st = self.lock();
        let bt = Arc::new(Backtrace::capture());
        for index in indices {
            let loc = Loc { alloc, owner, index };
            self.access_in(&mut st, rank, loc, kind, label, &bt);
        }
    }

    fn access(&self, rank: usize, loc: Loc, kind: AccessKind, label: &'static str) {
        let mut st = self.lock();
        let bt = Arc::new(Backtrace::capture());
        self.access_in(&mut st, rank, loc, kind, label, &bt);
    }

    fn access_in(
        &self,
        st: &mut State,
        rank: usize,
        loc: Loc,
        kind: AccessKind,
        label: &'static str,
        bt: &Arc<Backtrace>,
    ) {
        st.events += 1;
        let note = st.notes[rank];
        if let Some(p) = st.nbi_pending.get(&loc) {
            if p.issuer != rank {
                self.report_pending_nbi(rank, loc, label, note, p, bt);
            }
        }
        let time = st.clocks[rank].0[rank];
        // An earlier epoch (r, t) happens-before this access iff t <= our
        // clock's r component; same-rank epochs are ordered trivially.
        if let Some(entry) = st.locs.get(&loc) {
            let clock = &st.clocks[rank];
            if let Some(w) = entry
                .write
                .as_ref()
                .filter(|w| w.rank != rank && w.time > clock.0[w.rank])
            {
                self.report_conflict(rank, loc, kind, label, note, bt, AccessKind::Write, w);
            }
            if kind == AccessKind::Write {
                if let Some(r) = entry
                    .reads
                    .iter()
                    .find(|r| r.rank != rank && r.time > clock.0[r.rank])
                {
                    self.report_conflict(rank, loc, kind, label, note, bt, AccessKind::Read, r);
                }
            }
        }
        let access = Access {
            rank,
            time,
            label,
            note,
            bt: Arc::clone(bt),
        };
        let entry = st.locs.entry(loc).or_default();
        match kind {
            AccessKind::Write => {
                // Every prior epoch was just proven ordered before us, so
                // the write epoch now dominates the location's history.
                entry.write = Some(access);
                entry.reads.clear();
            }
            AccessKind::Read => {
                entry.reads.retain(|r| r.rank != rank);
                entry.reads.push(access);
            }
        }
    }

    // --- the non-blocking-put pending protocol ----------------------------

    /// A ring `write_nbi` staged data into `loc`; consumption before the
    /// issuer's `quiet` is a protocol violation.
    pub fn nbi_staged(&self, rank: usize, loc: Loc, label: &'static str) {
        let mut st = self.lock();
        st.events += 1;
        st.nbi_pending.insert(
            loc,
            PendingNbi {
                issuer: rank,
                label,
                bt: Arc::new(Backtrace::capture()),
            },
        );
    }

    /// The issuer's `quiet` completed the staged put: clear the pending
    /// mark and emit the deferred write event.
    pub fn nbi_delivered(&self, rank: usize, loc: Loc, label: &'static str) {
        if self.hooks.skip_quiet_edge {
            return; // LITMUS HOOK: quiet no longer delivers anything.
        }
        {
            let mut st = self.lock();
            st.events += 1;
            st.nbi_pending.remove(&loc);
        }
        self.write(rank, loc, label);
    }

    // --- reporting --------------------------------------------------------

    /// Tag subsequent accesses by `rank` with a logical-operation note.
    pub fn note(&self, rank: usize, note: &'static str) {
        let mut st = self.lock();
        st.notes[rank] = Some(note);
    }

    #[allow(clippy::too_many_arguments)]
    fn report_conflict(
        &self,
        rank: usize,
        loc: Loc,
        kind: AccessKind,
        label: &'static str,
        note: Option<&'static str>,
        bt: &Arc<Backtrace>,
        prev_kind: AccessKind,
        prev: &Access,
    ) -> ! {
        let mut msg = format!(
            "race detected (schedule: {}): {} {} by PE {} is unordered with {} {} by PE {} \
             at alloc#{}[pe {}][{}]",
            self.schedule,
            kind,
            describe(label, note),
            rank,
            prev_kind,
            describe(prev.label, prev.note),
            prev.rank,
            loc.alloc,
            loc.owner,
            loc.index,
        );
        let _ = write!(
            msg,
            "\n  PE {rank} stack:\n{bt}\n  PE {} stack:\n{}\
             \n  (set RUST_BACKTRACE=1 for full stacks; the schedule above replays the interleaving)",
            prev.rank, prev.bt,
        );
        panic!("{msg}");
    }

    fn report_pending_nbi(
        &self,
        rank: usize,
        loc: Loc,
        label: &'static str,
        note: Option<&'static str>,
        pending: &PendingNbi,
        bt: &Arc<Backtrace>,
    ) -> ! {
        let mut msg = format!(
            "race detected (schedule: {}): {} by PE {} consumed a non-blocking put staged by \
             PE {} ({}) before the initiator's quiet at alloc#{}[pe {}][{}]",
            self.schedule,
            describe(label, note),
            rank,
            pending.issuer,
            pending.label,
            loc.alloc,
            loc.owner,
            loc.index,
        );
        let _ = write!(
            msg,
            "\n  PE {rank} stack:\n{bt}\n  PE {} stack (at staging):\n{}\
             \n  (set RUST_BACKTRACE=1 for full stacks; the schedule above replays the interleaving)",
            pending.issuer, pending.bt,
        );
        panic!("{msg}");
    }
}

fn describe(label: &'static str, note: Option<&'static str>) -> String {
    match note {
        Some(note) => format!("{label} (during {note})"),
        None => label.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(n: usize) -> Detector {
        Detector::new(n, "unit test".to_string(), RaceHooks::default())
    }

    const L: Loc = Loc { alloc: 7, owner: 1, index: 3 };
    const S: Loc = Loc { alloc: 8, owner: 0, index: 0 };

    #[test]
    fn release_acquire_orders_write_before_read() {
        let d = det(2);
        d.write(0, L, "writer");
        d.sync_release(0, S, || ());
        d.sync_acquire(1, S, || ());
        d.read(1, L, "reader"); // ordered: must not panic
    }

    #[test]
    fn unordered_write_read_is_reported() {
        let d = det(2);
        d.write(0, L, "writer");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.read(1, L, "reader");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("race detected"), "{msg}");
        assert!(msg.contains("writer") && msg.contains("reader"), "{msg}");
        assert!(msg.contains("unit test"), "schedule missing: {msg}");
    }

    #[test]
    fn unordered_write_write_is_reported() {
        let d = det(2);
        d.write(0, L, "first");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.write(1, L, "second");
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<String>().unwrap().contains("race detected"));
    }

    #[test]
    fn reads_do_not_conflict_with_reads() {
        let d = det(3);
        d.read(0, L, "r0");
        d.read(1, L, "r1");
        d.read(2, L, "r2");
    }

    #[test]
    fn release_bump_separates_pre_and_post_epochs() {
        let d = det(2);
        d.sync_release(0, S, || ());
        d.sync_acquire(1, S, || ());
        // PE 0 writes *after* its release: PE 1's acquired clock does not
        // cover it, so a subsequent PE 1 read must be flagged.
        d.write(0, L, "late writer");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.read(1, L, "early reader");
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<String>().unwrap().contains("race detected"));
    }

    #[test]
    fn barrier_epoch_orders_all_pes() {
        let d = det(3);
        d.write(0, L, "before barrier");
        for r in 0..3 {
            d.barrier_arrive(r);
        }
        for r in 0..3 {
            d.barrier_depart(r);
        }
        d.write(2, L, "after barrier");
    }

    #[test]
    fn skip_barrier_hook_drops_the_edge() {
        let d = Detector::new(
            2,
            "unit test".to_string(),
            RaceHooks { skip_barrier_edge: true, ..Default::default() },
        );
        d.write(0, L, "before barrier");
        for r in 0..2 {
            d.barrier_arrive(r);
            d.barrier_depart(r);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.read(1, L, "after barrier");
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<String>().unwrap().contains("race detected"));
    }

    #[test]
    fn pending_nbi_consumption_is_reported() {
        let d = det(2);
        d.nbi_staged(0, L, "write_nbi");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.read(1, L, "read_local");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("before the initiator's quiet"), "{msg}");
    }

    #[test]
    fn delivered_nbi_with_edge_is_clean() {
        let d = det(2);
        d.nbi_staged(0, L, "write_nbi");
        d.nbi_delivered(0, L, "write_nbi");
        d.sync_release(0, S, || ()); // publish
        d.sync_acquire(1, S, || ()); // state poll
        d.read(1, L, "read_local");
    }

    #[test]
    fn skip_quiet_hook_leaves_the_mark() {
        let d = Detector::new(
            2,
            "unit test".to_string(),
            RaceHooks { skip_quiet_edge: true, ..Default::default() },
        );
        d.nbi_staged(0, L, "write_nbi");
        d.nbi_delivered(0, L, "write_nbi"); // suppressed by the hook
        d.sync_release(0, S, || ());
        d.sync_acquire(1, S, || ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.read(1, L, "read_local");
        }))
        .unwrap_err();
        assert!(err
            .downcast_ref::<String>()
            .unwrap()
            .contains("before the initiator's quiet"));
    }

    #[test]
    fn alloc_ids_are_unique_and_nonzero() {
        let a = next_alloc_id();
        let b = next_alloc_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn events_are_counted() {
        let d = det(2);
        d.write(0, L, "w");
        d.sync_release(0, S, || ());
        assert_eq!(d.events(), 2);
    }
}
