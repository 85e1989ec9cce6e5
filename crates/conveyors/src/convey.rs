//! The conveyor engine: aggregation buffers, a ring of landing cells per
//! link, two-hop relaying, and quiescence-based termination.
//!
//! ## Delivery protocol
//!
//! Each directed link owns a **ring of [`RING`] landing cells** at the
//! receiver — lock-free SPSC ring cells ([`SpscRing`]) whose state word
//! doubles as ready signal and free-list entry (`0` = free for the sender,
//! non-zero = published). The sender stages items in a per-link buffer; the
//! link's `n`-th flush goes to cell `n % RING`, and only there, so sender
//! and receiver agree on the cell without searching. A flush whose cell is
//! still held (not yet released, or written but unpublished) waits; when
//! the cell is free it delivers:
//!
//! - **local_send** (same node): a blocking [`SpscRing::write`] (the
//!   `shmem_ptr` memcpy) immediately followed by the *ready* publication.
//! - **nonblock_send** (cross node): a [`SpscRing::write_nbi`]
//!   (`shmem_putmem_nbi`) whose data is *not yet visible* — the cell stays
//!   unpublished and is marked in-flight. A later **nonblock_progress**
//!   issues one [`Pe::quiet`] and then publishes each in-flight cell — the
//!   exact `quiet`-then-signal sequence §III-C traces. The quiet is issued
//!   when a link's next cell is held while some of its cells are still in
//!   flight (up to `RING` slabs), or in the endgame.
//!
//! The ring only sets how many slabs a link may have outstanding. Slab
//! size, flush thresholds and therefore every physical event — one
//! `local_send` or `nonblock_send` per flushed slab, one
//! `nonblock_progress` per `nonblock_send` — do not depend on it.
//!
//! ### Slab format
//!
//! What crosses a link is a **slab**: the staged payloads as a bare `[T]`
//! and, only when the receiver cannot know it otherwise, a **route table**
//! of runs `(final_dst, origin, len)` — routing travels once per run, never
//! per item. One `push_slice` call (or one relayed run) stages one entry,
//! merged into the tail entry when it goes the same way. A slab whose only
//! route is "from this link's sender, to this link's receiver" ships *no*
//! table at all: every slab of a 1D grid and every final-hop slab that
//! carries only its sender's own traffic. This is the split the C library
//! makes between simple and tensor conveyors, decided per slab instead of
//! per conveyor.
//!
//! The ready word a flush publishes packs three fields:
//!
//! ```text
//!  63            32 31        16 15         0
//! +----------------+------------+------------+
//! |  flush seq     | table runs | item count |
//! +----------------+------------+------------+
//! ```
//!
//! `item count` is at least 1 (empty buffers are never flushed), so the word
//! is never the free-cell sentinel `0`; `table runs == 0` flags the bare
//! slab. The fields are 16 bits wide, so [`Conveyor::new`] rejects a slab
//! capacity above 65 535. Flush thresholds count items, not
//! bytes, so when a slab is sent does not depend on how many routes it
//! carries; a slab is `count * size_of::<T>() + 12 * runs` bytes on the
//! wire (worst case — destinations alternating every item on a relayed
//! link — 12 bytes per item; the per-item envelope this replaced cost 8 on
//! *every* item of *every* link).
//!
//! ### Consumption
//!
//! The sequence field counts flushes per link and wraps; the receiver
//! polls exactly the cell of the next sequence it expects and consumes
//! cells strictly in that order, so message order between any PE pair is
//! preserved (the "ordering guarantees... restricted for a pair of PEs" of
//! §IV-E). `RING` divides 2³², so the cell index stays continuous across
//! the wrap.
//! A bare slab goes from the landing cell into the pull queue in **one bulk
//! copy**. A slab with a table is walked run by run: a run addressed to this
//! PE is appended to the pull queue the same way, a run for someone else is
//! re-staged on its relay link — as a run, keeping its `(final_dst,
//! origin)` — flushing the relay buffer first when it is full. If the relay
//! link still has no room the cell is *parked*: the cursor (run index and
//! offset inside the run) is saved and a later `advance` resumes there, so
//! a park never re-copies and never reorders. Runs of one slab are handled
//! in slab order and slabs of one link in sequence order, which is why
//! run-wise relaying preserves pairwise FIFO exactly as item-wise relaying
//! did.
//!
//! Consumption ends with a [`SpscRing::release`] — the ack that returns the
//! cell to the sender — so no separate ack counters exist and the
//! per-message path (`push`, `pull`, flush, consume) acquires **no mutex**;
//! debug builds assert this against the lock-acquisition counter.
//!
//! Trace events are likewise batched: physical sends land in a thread-local
//! [`TraceBuffer`] and drain into the attached collector once per
//! [`advance`](Conveyor::advance), not per event.
//!
//! ## Termination
//!
//! `advance(done)` implements Conveyors' collective endgame: a shared
//! ledger counts PEs that signalled done, items pushed, and items pulled;
//! the conveyor is complete when every PE is done and every pushed item has
//! been pulled. (The C library detects this with split-phase reductions;
//! the in-process ledger is the same protocol with the network edges
//! collapsed.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use actorprof_trace::{SendType, SharedCollector, TraceBuffer};
use fabsp_shmem::{Pe, SpscRing};
use fabsp_telemetry::{Counter, Gauge, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ConveyorError;
use crate::exchange::{BatchDelivery, Delivery, PushOutcome, PushReport};
use crate::stats::ConveyorStats;
use crate::topology::{LinkKind, Topology, TopologySpec};

/// Construction options for a [`Conveyor`].
#[derive(Debug, Clone, Copy)]
pub struct ConveyorOptions {
    /// Items per aggregation buffer (and per landing cell). Default 64 —
    /// with 8–32-byte items this yields the 0.5–2 KiB network packets
    /// aggregation libraries target. At most
    /// 65 535 (the width of the ready word's count field);
    /// [`Conveyor::new`] rejects more.
    pub capacity: usize,
    /// Topology selection (default: what Conveyors picks for the grid).
    pub topology: TopologySpec,
}

impl Default for ConveyorOptions {
    fn default() -> Self {
        ConveyorOptions {
            capacity: 64,
            topology: TopologySpec::Auto,
        }
    }
}

/// The ready word a flush publishes into a landing cell's state word:
/// flush sequence, route-table length and item count (layout in the module
/// docs).
mod ready {
    const FIELD_BITS: u32 = 16;
    const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

    /// Largest slab (items per landing cell) the count and route-count
    /// fields can describe; a slab carries at most one route per item.
    pub(super) const MAX_SLAB: usize = FIELD_MASK as usize;

    pub(super) fn pack(seq: u32, runs: usize, count: usize) -> u64 {
        debug_assert!((1..=MAX_SLAB).contains(&count) && runs <= count);
        (u64::from(seq) << (2 * FIELD_BITS)) | ((runs as u64) << FIELD_BITS) | count as u64
    }

    pub(super) fn seq(word: u64) -> u32 {
        (word >> (2 * FIELD_BITS)) as u32
    }

    pub(super) fn runs(word: u64) -> usize {
        ((word >> FIELD_BITS) & FIELD_MASK) as usize
    }

    pub(super) fn count(word: u64) -> usize {
        (word & FIELD_MASK) as usize
    }
}

/// One entry of a slab's route table: `len` consecutive items that
/// `origin` pushed for `final_dst`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Run {
    final_dst: u32,
    origin: u32,
    len: u32,
}

/// Bytes a slab with this ready word occupies on the wire.
fn slab_bytes<T>(word: u64) -> u64 {
    (ready::count(word) * std::mem::size_of::<T>()
        + ready::runs(word) * std::mem::size_of::<Run>()) as u64
}

/// Landing cells per directed link: how many flushed slabs a link may have
/// outstanding (published but unconsumed, or written but not yet quiesced)
/// before its sender has to wait for the receiver.
pub const RING: usize = 8;

// A power of two divides 2^32, so `seq % RING` runs on unbroken across the
// wrap of the u32 flush sequence (u32::MAX lands in the last cell, its
// successor 0 in the first).
const _: () = assert!(RING.is_power_of_two());

/// The ring cell a link's flush number `seq` lands in, on both ends.
fn ring_slot(seq: u32) -> usize {
    seq as usize % RING
}

/// Shared termination ledger (the in-process stand-in for Conveyors'
/// endgame reductions).
struct SharedState {
    pushed: AtomicU64,
    pulled: AtomicU64,
    done: AtomicU64,
    /// The ledger's identity for the race detector: its SeqCst posts and
    /// the termination check are real synchronization, so they are modeled
    /// as edges on this object.
    #[cfg(feature = "race-detect")]
    hb: fabsp_shmem::race::HbObject,
}

struct OutLink<T> {
    peer: usize,
    kind: LinkKind,
    /// Staged payloads of the next slab.
    buf: Vec<T>,
    /// Route table of the staged slab; run lengths sum to `buf.len()`.
    runs: Vec<Run>,
    /// Per ring cell, the ready word of a remote write not yet published
    /// (to publish after the next quiet); `0` = not in flight.
    in_flight: [u64; RING],
    /// How many of this link's latest flushes are in flight — always the
    /// newest ones, since a progress publishes every in-flight cell.
    unpublished: u32,
    /// Per-link flush sequence (wraps; picks the cell via [`ring_slot`]).
    flush_seq: u32,
}

impl<T: Copy> OutLink<T> {
    /// Append one run to the staged slab, merging it into the tail route
    /// when it goes the same way.
    fn stage(&mut self, final_dst: u32, origin: u32, items: &[T]) {
        self.buf.extend_from_slice(items);
        let len = items.len() as u32;
        match self.runs.last_mut() {
            Some(tail) if tail.final_dst == final_dst && tail.origin == origin => tail.len += len,
            _ => self.runs.push(Run {
                final_dst,
                origin,
                len,
            }),
        }
    }
}

/// One run of delivered items from a single origin, so
/// [`Conveyor::pull_batch`] can hand the payloads out as a zero-copy
/// `&[T]`. `cursor` tracks how far per-item [`Conveyor::pull`] has nibbled
/// into the front batch; backing `Vec`s recycle through a free list.
struct Batch<T> {
    src: u32,
    items: Vec<T>,
    cursor: usize,
}

/// Delivered-but-unpulled items, grouped into per-origin runs so
/// `pull_batch` hands out whole slices. Arrival order is preserved: a
/// delivery either extends the tail batch (same origin) or starts a new one.
struct PullQueue<T> {
    batches: VecDeque<Batch<T>>,
    /// Total unpulled items across `batches` (the true pull backlog).
    queued_items: usize,
    /// Free list of batch backing `Vec`s.
    pool: Vec<Vec<T>>,
    allocs: u64,
    slab_cap: usize,
}

impl<T: Copy> PullQueue<T> {
    /// Queue one incoming run — the receive-side copy, straight out of the
    /// landing cell.
    fn deliver(&mut self, origin: u32, items: &[T]) {
        self.queued_items += items.len();
        if let Some(back) = self.batches.back_mut() {
            if back.src == origin {
                back.items.extend_from_slice(items);
                return;
            }
        }
        let mut buf = self.pool.pop().unwrap_or_else(|| {
            self.allocs += 1;
            Vec::with_capacity(self.slab_cap)
        });
        buf.extend_from_slice(items);
        self.batches.push_back(Batch {
            src: origin,
            items: buf,
            cursor: 0,
        });
    }

    fn recycle(&mut self, mut batch: Batch<T>) {
        batch.items.clear();
        self.pool.push(batch.items);
    }
}

/// How far consumption of a landing cell's route table got before a relay
/// link refused: `run` is the entry being consumed, `in_run` the items of
/// it already taken, `item` the offset of the next item in the cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    run: usize,
    in_run: usize,
    item: usize,
}

/// A fixed-item-size aggregating communication object (one per Selector
/// mailbox in the FA-BSP stack).
pub struct Conveyor<T> {
    me: usize,
    grid: fabsp_shmem::Grid,
    topology: Topology,
    /// Items per slab: the flush/refusal threshold and the size of every
    /// landing cell and staging buffer.
    capacity: usize,
    links: Vec<OutLink<T>>,
    /// Landing cells, `RING` SPSC cells per incoming link, each with a
    /// route table beside the items; the cell state word is ready signal
    /// and free-list entry in one.
    cells: SpscRing<T, Run>,
    /// Receiver-side consumption cursor per incoming link; non-zero only
    /// while the link's next cell is parked (only that cell can be).
    cursors: Vec<Cursor>,
    /// Next flush sequence expected per incoming link.
    expect_seq: Vec<u32>,
    /// Items staged across all links (the sum of their `buf.len()`).
    staged: usize,
    /// Remote cells written but not yet published, across all links.
    in_flight: usize,
    inbox: PullQueue<T>,
    /// The batch most recently lent out by `pull_batch`; its items are
    /// already counted as pulled, and its backing `Vec` is recycled on the
    /// next pull/pull_batch/advance.
    live: Option<Batch<T>>,
    shared: Arc<SharedState>,
    /// Pushes/pulls not yet posted to the shared termination ledger. The
    /// ledger is contended by every PE, so the hot path only bumps these
    /// locals; `advance` posts the deltas once per call, which is all the
    /// endgame check needs (a PE with unposted deltas cannot be terminal —
    /// it will call `advance` again).
    pending_pushed: u64,
    pending_pulled: u64,
    done_signaled: bool,
    complete: bool,
    need_progress: bool,
    stats: ConveyorStats,
    collector: Option<SharedCollector>,
    /// Batched physical-trace events; drained into `collector` once per
    /// `advance`, never on the per-message path.
    trace_buf: TraceBuffer,
    chaos: Option<Chaos>,
}

/// Chaos-injection state: seeded backpressure on the relay path.
struct Chaos {
    rng: StdRng,
    park_probability: f64,
}

impl<T: Copy + Default + Send + 'static> Conveyor<T> {
    /// Collectively create a conveyor across all PEs. Every PE must call
    /// this with identical options.
    pub fn new(pe: &Pe, options: ConveyorOptions) -> Result<Conveyor<T>, ConveyorError> {
        let capacity = options.capacity;
        if capacity == 0 {
            return Err(ConveyorError::ZeroCapacity);
        }
        if capacity > ready::MAX_SLAB {
            return Err(ConveyorError::CapacityTooLarge {
                capacity,
                max: ready::MAX_SLAB,
            });
        }
        let grid = pe.grid();
        let topology = Topology::resolve(options.topology, grid);
        let n_links = topology.n_links(grid);
        // Worst case a slab carries one route per item; a 1D grid never
        // relays, so none of its slabs carries a table at all.
        let table_cap = if topology == Topology::OneD { 0 } else { capacity };
        let cells = SpscRing::with_side(pe, n_links * RING, capacity, table_cap)?;
        let shared = pe.allreduce((), |_| {
            Arc::new(SharedState {
                pushed: AtomicU64::new(0),
                pulled: AtomicU64::new(0),
                done: AtomicU64::new(0),
                #[cfg(feature = "race-detect")]
                hb: fabsp_shmem::race::HbObject::new(),
            })
        });
        let me = pe.rank();
        let links = (0..n_links)
            .map(|link| OutLink {
                peer: topology.link_peer(grid, me, link),
                kind: topology.link_kind(grid, me, link),
                buf: Vec::with_capacity(capacity),
                // One route per item at worst; a 1D link only ever stages
                // the one run its slabs then omit.
                runs: Vec::with_capacity(table_cap.max(1)),
                in_flight: [0; RING],
                unpublished: 0,
                flush_seq: 0,
            })
            .collect();
        Ok(Conveyor {
            me,
            grid,
            topology,
            capacity,
            links,
            cells,
            cursors: vec![Cursor::default(); n_links],
            expect_seq: vec![0; n_links],
            staged: 0,
            in_flight: 0,
            inbox: PullQueue {
                batches: VecDeque::new(),
                queued_items: 0,
                pool: Vec::new(),
                allocs: 0,
                slab_cap: capacity,
            },
            live: None,
            pending_pushed: 0,
            pending_pulled: 0,
            shared,
            done_signaled: false,
            complete: false,
            need_progress: false,
            stats: ConveyorStats::default(),
            collector: None,
            trace_buf: TraceBuffer::default(),
            chaos: None,
        })
    }

    /// Inject relay-buffer backpressure: with probability
    /// `park_probability`, relay re-staging in `consume_routed` pretends
    /// the relay buffer is full even when it is not, forcing the
    /// parked-link path (saved cursor, link resumed on a later advance)
    /// that real runs only hit under heavy congestion. The roll happens
    /// once per attempt to re-stage (part of) a relayed run.
    ///
    /// The decision stream is seeded per PE, so a given `(seed, schedule)`
    /// pair replays exactly. Parks are refusals, not drops — every item is
    /// still delivered — and each retry re-rolls, so forward progress is
    /// preserved for any probability below 1 (clamped to 0.95). Testing
    /// hook; leave uncalled in production.
    pub fn inject_chaos(&mut self, seed: u64, park_probability: f64) {
        self.chaos = Some(Chaos {
            rng: StdRng::seed_from_u64(
                seed ^ (self.me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            park_probability: park_probability.clamp(0.0, 0.95),
        });
    }

    /// Attach an ActorProf collector; subsequent `local_send` /
    /// `nonblock_send` / `nonblock_progress` events are batched and drained
    /// into its physical trace (§III-C) at `advance` boundaries.
    pub fn attach_collector(&mut self, collector: SharedCollector) {
        let config = collector.borrow().config().clone();
        self.trace_buf = TraceBuffer::for_config(&config);
        self.collector = Some(collector);
    }

    /// The resolved topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Items per aggregation buffer, as configured.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This PE's operation counters.
    pub fn stats(&self) -> ConveyorStats {
        ConveyorStats {
            batch_allocs: self.inbox.allocs,
            ..self.stats
        }
    }

    /// Whether this PE already signalled done.
    pub fn is_done_signaled(&self) -> bool {
        self.done_signaled
    }

    /// Whether the conveyor has terminated (a prior
    /// [`advance`](Conveyor::advance) returned `false`).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Collectively re-arm a terminated conveyor for another superstep
    /// (Conveyors' `convey_reset`/`convey_begin` reuse pattern). Buffers,
    /// landing cells, and sequence numbers carry over — termination left
    /// them empty and consistent — and the endgame ledger is zeroed in
    /// place during the collective rendezvous, so `reset` allocates
    /// nothing.
    ///
    /// All PEs must call `reset` together, and only after every PE's
    /// `advance` returned `false`.
    ///
    /// # Panics
    /// Panics if the conveyor has not terminated on this PE.
    pub fn reset(&mut self, pe: &Pe) {
        assert!(
            self.complete,
            "reset called before the conveyor terminated"
        );
        debug_assert!(
            self.inbox.batches.is_empty() && self.live.is_none() && self.inbox.queued_items == 0,
            "termination implies drained"
        );
        debug_assert!(!self.has_in_flight(), "termination implies progressed");
        debug_assert_eq!(self.staged_items(), 0, "termination implies flushed");
        debug_assert!(
            self.trace_buf.is_empty(),
            "the final advance drains the trace batch"
        );
        debug_assert!(
            self.pending_pushed == 0 && self.pending_pulled == 0,
            "the final advance posts all ledger deltas"
        );
        // The combine closure runs exactly once, inside the rendezvous all
        // PEs are parked at, so zeroing in place is race-free and the Arc
        // is reused across supersteps.
        let shared = Arc::clone(&self.shared);
        pe.allreduce((), move |_| {
            shared.pushed.store(0, Ordering::SeqCst);
            shared.pulled.store(0, Ordering::SeqCst);
            shared.done.store(0, Ordering::SeqCst);
        });
        self.done_signaled = false;
        self.complete = false;
        self.need_progress = false;
    }

    /// Whether this PE's side of the conveyor is a valid checkpoint cut:
    /// nothing staged, nothing in flight, nothing delivered-but-unpulled,
    /// no unposted ledger deltas, no undrained trace batch. Holds for a
    /// fresh conveyor, after termination, and after a
    /// [`reset`](Conveyor::reset) — i.e. exactly at superstep boundaries.
    /// This is the precondition the actor layer asserts before a
    /// [`Pe::checkpoint`]: checkpointing mid-superstep would freeze
    /// half-delivered buffers into the cut.
    pub fn checkpoint_ready(&self) -> bool {
        self.inbox.batches.is_empty()
            && self.live.is_none()
            && self.inbox.queued_items == 0
            && !self.has_in_flight()
            && self.staged_items() == 0
            && self.pending_pushed == 0
            && self.pending_pulled == 0
            && self.trace_buf.is_empty()
    }

    /// Try to enqueue `item` for `dst`. [`PushOutcome::Retry`] — item *not*
    /// accepted — means aggregation buffers are full; the caller must
    /// [`advance`](Conveyor::advance) and retry (HClib-Actor's send loop
    /// does this on the user's behalf).
    ///
    /// A thin one-item wrapper over the [`push_slice`](Conveyor::push_slice)
    /// staging path; still the per-message hot path, and still mutex-free
    /// (debug builds assert a zero lock-acquisition delta in free-running
    /// worlds).
    pub fn push(&mut self, pe: &Pe, item: T, dst: usize) -> Result<PushOutcome, ConveyorError> {
        #[cfg(debug_assertions)]
        let lock_probe = (!pe.is_scheduled()).then(fabsp_shmem::debug_lock_acquisitions);
        let outcome = self.push_slice_impl(pe, &[item], dst, false).map(|r| {
            if r.accepted == 1 {
                PushOutcome::Accepted
            } else {
                PushOutcome::Retry
            }
        });
        #[cfg(debug_assertions)]
        if let Some(before) = lock_probe {
            assert_eq!(
                fabsp_shmem::debug_lock_acquisitions(),
                before,
                "Conveyor::push acquired a mutex on the hot path"
            );
        }
        outcome
    }

    /// Enqueue a slice of items for `dst`, amortizing routing and the SPSC
    /// state-word protocol over whole-slab publishes: staging appends to
    /// the link buffer with bulk copies — one route-table entry per call,
    /// not per item — and flushes full slabs inline, instead of paying a
    /// threshold check and branch per item.
    ///
    /// Returns how far the slice got: [`PushReport::accepted`] is always a
    /// prefix length, so a partial push resubmits `&items[accepted..]`
    /// after an [`advance`](Conveyor::advance). Refusal is the same
    /// backpressure `push` reports as [`PushOutcome::Retry`] — folded here
    /// into the report instead of a per-item verdict. Mutex-free like
    /// `push`.
    pub fn push_slice(
        &mut self,
        pe: &Pe,
        items: &[T],
        dst: usize,
    ) -> Result<PushReport, ConveyorError> {
        #[cfg(debug_assertions)]
        let lock_probe = (!pe.is_scheduled()).then(fabsp_shmem::debug_lock_acquisitions);
        let report = self.push_slice_impl(pe, items, dst, true);
        #[cfg(debug_assertions)]
        if let Some(before) = lock_probe {
            assert_eq!(
                fabsp_shmem::debug_lock_acquisitions(),
                before,
                "Conveyor::push_slice acquired a mutex on the hot path"
            );
        }
        report
    }

    fn push_slice_impl(
        &mut self,
        pe: &Pe,
        items: &[T],
        dst: usize,
        batched: bool,
    ) -> Result<PushReport, ConveyorError> {
        #[cfg(feature = "race-detect")]
        pe.race_note("Conveyor::push");
        if dst >= self.grid.n_pes() {
            return Err(ConveyorError::InvalidDestination {
                dst,
                n_pes: self.grid.n_pes(),
            });
        }
        if self.done_signaled {
            return Err(ConveyorError::PushAfterDone);
        }
        if items.is_empty() {
            return Ok(PushReport::default());
        }
        if batched {
            self.stats.batched_pushes += 1;
        }
        let link = self.topology.route(self.grid, self.me, dst).link;
        let origin = self.me as u32;
        let mut accepted = 0usize;
        let mut retried = 0u64;
        while accepted < items.len() {
            if self.links[link].buf.len() >= self.capacity {
                self.flush_link(pe, link);
                if self.links[link].buf.len() >= self.capacity {
                    self.stats.push_refusals += 1;
                    retried += 1;
                    if let Some(m) = pe.metrics() {
                        m.count(Counter::ConveyorPushRetries);
                    }
                    break;
                }
            }
            let room = self.capacity - self.links[link].buf.len();
            let take = room.min(items.len() - accepted);
            self.links[link].stage(dst as u32, origin, &items[accepted..accepted + take]);
            self.staged += take;
            accepted += take;
        }
        self.stats.pushed += accepted as u64;
        self.stats.item_copies += accepted as u64;
        self.pending_pushed += accepted as u64;
        Ok(PushReport { accepted, retried })
    }

    /// Take one delivered item, if any. Mutex-free like `push`; a thin
    /// one-item view over the batch queue [`pull_batch`](Conveyor::pull_batch)
    /// drains whole.
    pub fn pull(&mut self) -> Option<Delivery<T>> {
        #[cfg(debug_assertions)]
        let before = fabsp_shmem::debug_lock_acquisitions();
        if let Some(prev) = self.live.take() {
            self.inbox.recycle(prev);
        }
        let out = match self.inbox.batches.front_mut() {
            Some(b) => {
                let src = b.src;
                let item = b.items[b.cursor];
                b.cursor += 1;
                if b.cursor == b.items.len() {
                    let done = self.inbox.batches.pop_front().expect("front exists");
                    self.inbox.recycle(done);
                }
                self.stats.pulled += 1;
                self.stats.item_copies += 1;
                self.pending_pulled += 1;
                self.inbox.queued_items -= 1;
                Some(Delivery { src, item })
            }
            None => None,
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            fabsp_shmem::debug_lock_acquisitions(),
            before,
            "Conveyor::pull acquired a mutex on the hot path"
        );
        out
    }

    /// Take the next delivered batch, if any: every queued item from one
    /// origin run, as a zero-copy slice borrowed from the delivery queue
    /// (valid until the next `pull`/`pull_batch`/`advance`). Items appear
    /// in push order, so pairwise FIFO holds exactly as with per-item
    /// [`pull`](Conveyor::pull). Mutex-free like `push`.
    pub fn pull_batch(&mut self) -> Option<BatchDelivery<'_, T>> {
        #[cfg(debug_assertions)]
        let before = fabsp_shmem::debug_lock_acquisitions();
        if let Some(prev) = self.live.take() {
            self.inbox.recycle(prev);
        }
        let out = self.inbox.batches.pop_front();
        #[cfg(debug_assertions)]
        assert_eq!(
            fabsp_shmem::debug_lock_acquisitions(),
            before,
            "Conveyor::pull_batch acquired a mutex on the hot path"
        );
        let batch = out?;
        let n = batch.items.len() - batch.cursor;
        debug_assert!(n > 0, "queued batches are never empty");
        self.stats.pulled += n as u64;
        self.stats.batched_pulls += 1;
        self.pending_pulled += n as u64;
        self.inbox.queued_items -= n;
        let live = self.live.insert(batch);
        Some(BatchDelivery {
            src: live.src,
            items: &live.items[live.cursor..],
        })
    }

    /// Number of delivered-but-unpulled items.
    pub fn pending_pulls(&self) -> usize {
        self.inbox.queued_items
    }

    /// Make communication progress. `done = true` declares that this PE
    /// will push no more items (idempotent; pushes afterwards error).
    ///
    /// Returns `true` while the conveyor is active; once it returns
    /// `false`, every pushed item (on all PEs) has been pulled and the
    /// conveyor may be discarded.
    pub fn advance(&mut self, pe: &Pe, done: bool) -> bool {
        if self.complete {
            return false;
        }
        let begin = fabsp_hwpc::cycles_now();
        let active = self.advance_impl(pe, done);
        let end = fabsp_hwpc::cycles_now();
        self.trace_buf.record_span(Phase::Advance, begin, end);
        if let Some(m) = pe.metrics() {
            m.gauge_set(Gauge::ConveyorBufferedItems, self.staged_items() as u64);
            // True occupancy: items, not slabs — pull_batch drains whole
            // batches, so counting queue entries would under-report the
            // backlog.
            m.gauge_set(Gauge::ConveyorPullBacklog, self.inbox.queued_items as u64);
            m.flight_span(Phase::Advance, begin, end);
        }
        // Drain boundary: hand the batched physical events to the
        // collector in one borrow, covering push-triggered flushes since
        // the previous advance as well.
        if let Some(c) = &self.collector {
            if !self.trace_buf.is_empty() {
                c.borrow_mut().drain(&mut self.trace_buf);
            }
        }
        active
    }

    fn advance_impl(&mut self, pe: &Pe, done: bool) -> bool {
        self.stats.advances += 1;
        // A batch lent out by pull_batch is dead once the caller advances;
        // reclaim its backing Vec for the free list.
        if let Some(prev) = self.live.take() {
            self.inbox.recycle(prev);
        }
        // Post the hot path's batched ledger deltas before anything that
        // could observe termination, `done` signalling included.
        if self.pending_pushed != 0 {
            self.shared
                .pushed
                .fetch_add(self.pending_pushed, Ordering::SeqCst);
            self.pending_pushed = 0;
        }
        if self.pending_pulled != 0 {
            self.shared
                .pulled
                .fetch_add(self.pending_pulled, Ordering::SeqCst);
            self.pending_pulled = 0;
        }
        if done && !self.done_signaled {
            self.done_signaled = true;
            self.shared.done.fetch_add(1, Ordering::SeqCst);
        }
        // The SeqCst posts above are release-and-acquire on the shared
        // ledger; one modeled RMW edge covers them.
        #[cfg(feature = "race-detect")]
        pe.hb_rmw(&self.shared.hb);

        self.consume_incoming(pe);

        // Flush full buffers; in the endgame flush anything non-empty.
        for link in 0..self.links.len() {
            let len = self.links[link].buf.len();
            if len >= self.capacity || (self.done_signaled && len > 0) {
                self.flush_link(pe, link);
            }
        }

        // Complete non-blocking sends when a slot was needed or when the
        // endgame demands all data on the wire become visible.
        if self.need_progress || (self.done_signaled && self.has_in_flight()) {
            self.progress(pe);
        }

        // Data signalled by our own progress (self-column) or arriving
        // meanwhile can often be consumed immediately.
        self.consume_incoming(pe);

        // Termination: all PEs done (monotonic; pushes are finished), and
        // every pushed item has been pulled by a user somewhere.
        #[cfg(feature = "race-detect")]
        pe.hb_acquire(&self.shared.hb);
        if self.shared.done.load(Ordering::SeqCst) == self.grid.n_pes() as u64 {
            let pushed = self.shared.pushed.load(Ordering::SeqCst);
            let pulled = self.shared.pulled.load(Ordering::SeqCst);
            if pushed == pulled {
                self.complete = true;
                return false;
            }
        }
        true
    }

    fn has_in_flight(&self) -> bool {
        debug_assert_eq!(
            self.in_flight,
            self.links
                .iter()
                .map(|l| l.unpublished as usize)
                .sum::<usize>(),
            "in-flight count matches the links"
        );
        self.in_flight != 0
    }

    /// Items staged on all links, from the running count.
    fn staged_items(&self) -> usize {
        debug_assert_eq!(
            self.staged,
            self.links.iter().map(|l| l.buf.len()).sum::<usize>(),
            "staged-item count matches the links"
        );
        self.staged
    }

    /// Index of `link`'s ring cell `slot` among a PE's landing cells.
    fn cell_index(link: usize, slot: usize) -> usize {
        link * RING + slot
    }

    /// Start every link's flush sequence (both ends) at `seq` instead of 0.
    /// Collective: call on every PE before the first push.
    #[cfg(test)]
    fn start_sequences_at(&mut self, seq: u32) {
        for l in &mut self.links {
            l.flush_seq = seq;
        }
        self.expect_seq.fill(seq);
    }

    /// Deliver `link`'s staged slab into its next ring cell at the peer,
    /// if that cell is free.
    fn flush_link(&mut self, pe: &Pe, link: usize) {
        let l = &self.links[link];
        if l.buf.is_empty() {
            return;
        }
        let peer = l.peer;
        let rev = self.topology.reverse_link(self.grid, peer, self.me);
        let slot = ring_slot(l.flush_seq);
        let cell = Self::cell_index(rev, slot);
        // The cell is free when no unpublished delivery of ours occupies it
        // and its state word is 0 (the receiver released it).
        if l.in_flight[slot] != 0 || self.cells.state(pe, peer, cell) != 0 {
            // The next cell is held. If some of this link's cells are
            // merely unpublished, a progress call will free the pipeline —
            // the paper's "quiet when the buffers for a particular
            // destination are full" trigger.
            if l.unpublished != 0 {
                self.need_progress = true;
            }
            return;
        }

        // The receiver of a slab whose only route is "this link's sender to
        // this link's receiver" needs no table to place it.
        let table: &[Run] = match l.runs[..] {
            [only] if only.final_dst as usize == peer && only.origin as usize == self.me => &[],
            _ => &l.runs,
        };
        debug_assert_eq!(
            l.runs.iter().map(|r| r.len as usize).sum::<usize>(),
            l.buf.len(),
            "route table covers the staged slab"
        );
        let count = l.buf.len();
        let ready_word = ready::pack(l.flush_seq, table.len(), count);
        let bytes = slab_bytes::<T>(ready_word);

        match l.kind {
            LinkKind::Local => {
                // local_send: shmem_ptr + memcpy, immediately visible,
                // then the ready publication.
                self.cells
                    .write(pe, peer, cell, &l.buf, table)
                    .expect("landing cell bounds are static");
                self.cells
                    .publish(pe, peer, cell, ready_word)
                    .expect("landing cell bounds are static");
                self.stats.local_sends += 1;
                self.stats.item_copies += count as u64;
                self.trace_buf.record_physical(SendType::LocalSend, bytes, peer);
            }
            LinkKind::Remote => {
                // nonblock_send: shmem_putmem_nbi; the cell stays
                // unpublished (invisible) until a later quiet. The copy
                // count models the nbi capture + apply pair of a real
                // shmem_putmem_nbi, though the SPSC cell needs no capture copy.
                self.cells
                    .write_nbi(pe, peer, cell, &l.buf, table)
                    .expect("landing cell bounds are static");
                let l = &mut self.links[link];
                l.in_flight[slot] = ready_word;
                l.unpublished += 1;
                self.in_flight += 1;
                self.stats.nonblock_sends += 1;
                self.stats.item_copies += 2 * count as u64;
                self.trace_buf
                    .record_physical(SendType::NonblockSend, bytes, peer);
            }
        }
        let l = &mut self.links[link];
        self.staged -= count;
        l.flush_seq = l.flush_seq.wrapping_add(1);
        l.buf.clear();
        l.runs.clear();
    }

    /// nonblock_progress: one `shmem_quiet`, then a publishing put per
    /// in-flight delivery, each link's in flush order.
    fn progress(&mut self, pe: &Pe) {
        if !self.has_in_flight() {
            self.need_progress = false;
            return;
        }
        let q_begin = fabsp_hwpc::cycles_now();
        pe.quiet();
        let q_end = fabsp_hwpc::cycles_now();
        self.trace_buf.record_span(Phase::Quiet, q_begin, q_end);
        if let Some(m) = pe.metrics() {
            m.flight_span(Phase::Quiet, q_begin, q_end);
        }
        self.stats.quiets += 1;
        for l in self.links.iter_mut().filter(|l| l.unpublished != 0) {
            let rev = self.topology.reverse_link(self.grid, l.peer, self.me);
            let oldest = l.flush_seq.wrapping_sub(l.unpublished);
            for k in 0..l.unpublished {
                let slot = ring_slot(oldest.wrapping_add(k));
                let ready_word = std::mem::take(&mut l.in_flight[slot]);
                debug_assert_ne!(ready_word, 0, "in-flight cells are the newest flushes");
                self.cells
                    .publish(pe, l.peer, Self::cell_index(rev, slot), ready_word)
                    .expect("landing cell bounds are static");
                self.stats.nonblock_progress += 1;
                self.trace_buf.record_physical(
                    SendType::NonblockProgress,
                    slab_bytes::<T>(ready_word),
                    l.peer,
                );
            }
            l.unpublished = 0;
        }
        self.in_flight = 0;
        self.need_progress = false;
    }

    /// Drain published landing cells, in per-link flush order: deliver
    /// runs addressed to this PE to the pull queue, re-stage relayed runs
    /// on their next link.
    fn consume_incoming(&mut self, pe: &Pe) {
        for link in 0..self.links.len() {
            // Consume strictly in sequence: poll the cell the next expected
            // flush lands in, and only that one.
            loop {
                let expected = self.expect_seq[link];
                let idx = Self::cell_index(link, ring_slot(expected));
                let word = self.cells.state(pe, self.me, idx);
                if word == 0 {
                    break;
                }
                debug_assert_eq!(
                    ready::seq(word),
                    expected,
                    "a ring cell only ever holds the flush its sequence maps to"
                );
                if !self.consume_cell(pe, link, idx, word) {
                    // Relay buffer blocked: park THIS link (cursor saved)
                    // but keep draining the others — final-destination
                    // consumption elsewhere is what frees the relay's
                    // column cells, so returning here could deadlock a
                    // cycle of relays.
                    break;
                }
                self.expect_seq[link] = self.expect_seq[link].wrapping_add(1);
            }
        }
    }

    /// Consume `link`'s published cell `idx` whose ready word is `word`.
    /// Returns `false` if consumption blocked on a full relay buffer
    /// (cursor saved for resumption).
    fn consume_cell(&mut self, pe: &Pe, link: usize, idx: usize, word: u64) -> bool {
        let count = ready::count(word);
        let src = self.topology.link_peer(self.grid, self.me, link);
        match ready::runs(word) {
            0 => {
                // Bare slab: everything in it was pushed by the link's
                // sender for this PE — one copy, cell to pull queue.
                let inbox = &mut self.inbox;
                self.cells
                    .read_local(pe, idx, |items| inbox.deliver(src as u32, &items[..count]));
                self.stats.item_copies += count as u64;
            }
            n_runs => {
                if !self.consume_routed(pe, link, idx, n_runs) {
                    return false;
                }
                debug_assert_eq!(self.cursors[link].item, count);
                self.cursors[link] = Cursor::default();
            }
        }

        // Fully consumed: release the cell, which is also the ack that
        // hands the buffer back to the sender's free list.
        self.cells
            .release(pe, idx, src)
            .expect("own landing cell bounds are static");
        true
    }

    /// Walk the route table of `link`'s published cell `idx` from the
    /// link's saved cursor: runs for this PE go to the pull queue, runs for
    /// someone else are re-staged on their relay link (flushing it first
    /// when full). Returns `false` — cursor saved, possibly mid-run — when
    /// a relay link has no room or chaos forces a park.
    fn consume_routed(&mut self, pe: &Pe, link: usize, idx: usize, n_runs: usize) -> bool {
        let mut cur = self.cursors[link];
        // Stamped when the first item is relayed; `None` = nothing was.
        let mut hop_begin = None;
        // `Some(forced)` once consumption has to stop.
        let mut parked = None;
        while cur.run < n_runs {
            let run = self.cells.read_side(pe, idx, |table| table[cur.run]);
            let left = run.len as usize - cur.in_run;
            let take = if run.final_dst as usize == self.me {
                let inbox = &mut self.inbox;
                self.cells.read_local(pe, idx, |items| {
                    inbox.deliver(run.origin, &items[cur.item..cur.item + left])
                });
                left
            } else {
                let rl = self
                    .topology
                    .relay_link(self.grid, self.me, run.final_dst as usize);
                if let Some(chaos) = &mut self.chaos {
                    if chaos.rng.gen_bool(chaos.park_probability) {
                        self.stats.forced_parks += 1;
                        parked = Some(true);
                        break;
                    }
                }
                if self.links[rl].buf.len() >= self.capacity {
                    self.flush_link(pe, rl);
                }
                let room = self.capacity.saturating_sub(self.links[rl].buf.len());
                if room == 0 {
                    parked = Some(false);
                    break;
                }
                let take = room.min(left);
                hop_begin.get_or_insert_with(fabsp_hwpc::cycles_now);
                let out = &mut self.links[rl];
                self.cells.read_local(pe, idx, |items| {
                    out.stage(run.final_dst, run.origin, &items[cur.item..cur.item + take])
                });
                self.staged += take;
                self.stats.relayed += take as u64;
                take
            };
            self.stats.item_copies += take as u64;
            cur.item += take;
            cur.in_run += take;
            if cur.in_run == run.len as usize {
                cur.run += 1;
                cur.in_run = 0;
            }
        }
        self.cursors[link] = cur;

        if let Some(hop_begin) = hop_begin {
            let hop_end = fabsp_hwpc::cycles_now();
            self.trace_buf.record_span(Phase::RelayHop, hop_begin, hop_end);
            if let Some(m) = pe.metrics() {
                m.flight_span(Phase::RelayHop, hop_begin, hop_end);
            }
        }

        let Some(forced) = parked else {
            return true;
        };
        // A park — chaos-forced or a genuinely full relay buffer — stalls
        // this link until a later advance resumes the cursor.
        if let Some(m) = pe.metrics() {
            let which = if forced {
                Counter::ConveyorForcedParks
            } else {
                Counter::ConveyorRelayParks
            };
            m.count(which);
            m.flight_note(which, 1);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::{PeCollector, TraceConfig};
    use fabsp_shmem::{spmd, Grid};

    /// Drive an all-to-all: every PE sends `per_pair` items to every PE,
    /// then drains. Returns (received items per source, stats).
    fn all_to_all(
        grid: Grid,
        options: ConveyorOptions,
        per_pair: usize,
    ) -> Vec<(Vec<Vec<u64>>, ConveyorStats)> {
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, options).unwrap();
            let n = pe.n_pes();
            let mut received: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut outbox: Vec<(u64, usize)> = Vec::new();
            for k in 0..per_pair {
                for dst in 0..n {
                    outbox.push(((pe.rank() * 1_000_000 + dst * 1_000 + k) as u64, dst));
                }
            }
            let mut next = 0;
            let mut done = false;
            loop {
                while next < outbox.len() {
                    let (item, dst) = outbox[next];
                    if c.push(pe, item, dst).unwrap().is_accepted() {
                        next += 1;
                    } else {
                        break;
                    }
                }
                if next == outbox.len() {
                    done = true;
                }
                let active = c.advance(pe, done);
                while let Some(d) = c.pull() {
                    received[d.src as usize].push(d.item);
                }
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            (received, c.stats())
        })
        .unwrap()
    }

    fn check_all_to_all(grid: Grid, options: ConveyorOptions, per_pair: usize) {
        let results = all_to_all(grid, options, per_pair);
        let n = grid.n_pes();
        for (me, (received, stats)) in results.iter().enumerate() {
            assert_eq!(stats.pushed, (n * per_pair) as u64);
            assert_eq!(stats.pulled, (n * per_pair) as u64);
            for (src, items) in received.iter().enumerate() {
                assert_eq!(items.len(), per_pair, "PE {me} from {src}");
                // pairwise FIFO: items arrive in push order
                for (k, item) in items.iter().enumerate() {
                    assert_eq!(
                        *item,
                        (src * 1_000_000 + me * 1_000 + k) as u64,
                        "PE {me} from {src} item {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_pe_self_send_roundtrip() {
        check_all_to_all(
            Grid::single_node(1).unwrap(),
            ConveyorOptions::default(),
            10,
        );
    }

    #[test]
    fn one_node_all_to_all_oned() {
        check_all_to_all(
            Grid::single_node(4).unwrap(),
            ConveyorOptions::default(),
            25,
        );
    }

    #[test]
    fn two_node_all_to_all_mesh() {
        check_all_to_all(Grid::new(2, 3).unwrap(), ConveyorOptions::default(), 20);
    }

    #[test]
    fn three_node_mesh_with_relays() {
        check_all_to_all(Grid::new(3, 2).unwrap(), ConveyorOptions::default(), 15);
    }

    #[test]
    fn cube3d_all_to_all_delivers_in_order() {
        // 2 nodes x 4 PEs: cube factors (2, 2); worst routes take 3 hops.
        check_all_to_all(
            Grid::new(2, 4).unwrap(),
            ConveyorOptions {
                capacity: 8,
                topology: TopologySpec::Cube3D,
            },
            12,
        );
    }

    #[test]
    fn cube3d_uses_double_relays() {
        let grid = Grid::new(2, 4).unwrap();
        let options = ConveyorOptions {
            capacity: 8,
            topology: TopologySpec::Cube3D,
        };
        let results = all_to_all(grid, options, 6);
        let total_relayed: u64 = results.iter().map(|(_, s)| s.relayed).sum();
        // Pairs differing in two or three coordinates relay once or twice;
        // with 8 PEs all-to-all there are many such pairs.
        assert!(total_relayed > 0, "cube must relay multi-axis traffic");
        // but delivery still balances
        for (_, s) in &results {
            assert_eq!(s.pushed, 48);
            assert_eq!(s.pulled, 48);
        }
    }

    #[test]
    fn cube3d_on_one_wide_node_stays_local() {
        let grid = Grid::new(1, 9).unwrap(); // cube (3, 3) within one node
        let options = ConveyorOptions {
            capacity: 4,
            topology: TopologySpec::Cube3D,
        };
        let results = all_to_all(grid, options, 5);
        for (_, s) in &results {
            assert_eq!(s.nonblock_sends, 0, "no cross-node traffic exists");
            assert!(s.local_sends > 0);
        }
        check_all_to_all(grid, options, 5);
    }

    #[test]
    fn tiny_capacity_forces_refusals_but_delivers() {
        let grid = Grid::new(2, 2).unwrap();
        let options = ConveyorOptions {
            capacity: 2,
            topology: TopologySpec::Auto,
        };
        let results = all_to_all(grid, options, 30);
        assert!(
            results.iter().any(|(_, s)| s.push_refusals > 0),
            "capacity 2 with 120 pushes should refuse at least once"
        );
        // correctness still holds
        check_all_to_all(grid, options, 30);
    }

    #[test]
    fn forced_oned_on_two_nodes_uses_nonblocking_path() {
        let grid = Grid::new(2, 2).unwrap();
        let options = ConveyorOptions {
            capacity: 8,
            topology: TopologySpec::OneD,
        };
        let results = all_to_all(grid, options, 10);
        for (_, stats) in &results {
            assert!(stats.nonblock_sends > 0);
            assert!(stats.relayed == 0, "1D never relays");
        }
    }

    #[test]
    fn mesh_relays_off_row_off_column_traffic() {
        let grid = Grid::new(2, 2).unwrap();
        let results = all_to_all(grid, ConveyorOptions::default(), 10);
        let total_relayed: u64 = results.iter().map(|(_, s)| s.relayed).sum();
        // 0<->3 and 1<->2 pairs are off-row/off-column: 4 directed pairs
        // x 10 items must relay.
        assert_eq!(total_relayed, 40);
    }

    #[test]
    fn a_park_in_the_middle_of_a_run_resumes_there_without_recopying() {
        // 2x2 mesh, capacity 4. PE 1 fills its column link to PE 3 — all
        // `RING` cells hold unpublished slabs in flight, plus two staged
        // items — before PE 0's four-item run for PE 3 arrives on the row
        // link. Relaying it stages two items (all the room there is),
        // cannot flush (no free cell at PE 3), and parks with the cursor
        // inside the run; PE 3 only starts consuming after that.
        let own = 4 * RING as u64 + 2;
        let grid = Grid::new(2, 2).unwrap();
        let results = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 4,
                    ..ConveyorOptions::default()
                },
            )
            .unwrap();
            match pe.rank() {
                0 => {
                    let run = [100, 101, 102, 103];
                    assert_eq!(c.push_slice(pe, &run, 3).unwrap().accepted, 4);
                    c.advance(pe, false);
                }
                1 => {
                    for item in 0..own {
                        assert!(c.push(pe, item, 3).unwrap().is_accepted());
                    }
                }
                _ => {}
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                c.advance(pe, false);
                assert_eq!(c.stats().relayed, 2, "two of the four items fit");
                let parked: Vec<Cursor> =
                    c.cursors.iter().copied().filter(|cur| cur.item != 0).collect();
                assert!(
                    matches!(parked[..], [Cursor { run: 0, in_run: 2, item: 2 }]),
                    "one cell parked two items into its only run: {parked:?}"
                );
            }
            pe.barrier_all();
            let mut received: Vec<(u32, u64)> = Vec::new();
            loop {
                let active = c.advance(pe, true);
                while let Some(d) = c.pull() {
                    received.push((d.src, d.item));
                }
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            (received, c.stats())
        })
        .unwrap();
        let from = |src: u32| -> Vec<u64> {
            results[3].0.iter().filter(|d| d.0 == src).map(|d| d.1).collect()
        };
        assert_eq!(from(0), vec![100, 101, 102, 103], "the parked run arrives whole, in order");
        assert_eq!(from(1), (0..own).collect::<Vec<_>>());
        assert_eq!(results[1].1.relayed, 4);
        let copies: u64 = results.iter().map(|(_, s)| s.item_copies).sum();
        assert_eq!(copies, 4 * 7 + own * 5, "resuming a park re-copies nothing");
    }

    #[test]
    fn push_after_done_errors() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let _ = c.push(pe, 1, 0).unwrap();
            while c.advance(pe, true) {
                while c.pull().is_some() {}
            }
            assert!(matches!(
                c.push(pe, 2, 0),
                Err(ConveyorError::PushAfterDone)
            ));
        })
        .unwrap();
    }

    #[test]
    fn termination_waits_for_every_pe_to_signal_done() {
        // PE 1 signals done while PE 0 has not. Nothing was pushed, so
        // pushed == pulled already holds and only the ledger's done count
        // keeps PE 1's conveyor open for what PE 0 may still send.
        let grid = Grid::single_node(2).unwrap();
        let closed_early = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let closed_early = pe.rank() == 1 && !c.advance(pe, true);
            pe.barrier_all();
            while c.advance(pe, true) {
                pe.poll_yield();
            }
            closed_early
        })
        .unwrap();
        assert_eq!(
            closed_early,
            [false, false],
            "PE 1 completed before PE 0 was done"
        );
    }

    #[test]
    fn invalid_destination_errors() {
        let grid = Grid::single_node(2).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u8>::new(pe, ConveyorOptions::default()).unwrap();
            assert!(matches!(
                c.push(pe, 0, 5),
                Err(ConveyorError::InvalidDestination { dst: 5, .. })
            ));
            while c.advance(pe, true) {}
        })
        .unwrap();
    }

    #[test]
    fn zero_capacity_rejected() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let r = Conveyor::<u8>::new(
                pe,
                ConveyorOptions {
                    capacity: 0,
                    topology: TopologySpec::Auto,
                },
            );
            assert!(matches!(r, Err(ConveyorError::ZeroCapacity)));
        })
        .unwrap();
    }

    #[test]
    fn capacity_must_fit_the_ready_word() {
        // The count and route-count fields are 16 bits: the largest slab is
        // accepted and works, one more is a typed error.
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let options = |capacity| ConveyorOptions {
                capacity,
                ..ConveyorOptions::default()
            };
            let mut c = Conveyor::<u8>::new(pe, options(ready::MAX_SLAB)).unwrap();
            let items = vec![7u8; ready::MAX_SLAB + 1];
            assert_eq!(c.push_slice(pe, &items, 0).unwrap().accepted, items.len());
            let mut got = 0usize;
            while c.advance(pe, true) {
                while let Some(b) = c.pull_batch() {
                    got += b.items.len();
                }
            }
            assert_eq!(got, items.len(), "a full-width slab is delivered whole");
            assert!(matches!(
                Conveyor::<u8>::new(pe, options(ready::MAX_SLAB + 1)),
                Err(ConveyorError::CapacityTooLarge {
                    capacity: 65_536,
                    max: 65_535
                })
            ));
        })
        .unwrap();
    }

    #[test]
    fn ready_word_fields_round_trip_and_never_read_as_free() {
        for seq in [0, 1, u32::MAX] {
            for (runs, count) in [(0, 1), (1, 1), (0, ready::MAX_SLAB), (ready::MAX_SLAB, ready::MAX_SLAB)] {
                let word = ready::pack(seq, runs, count);
                assert_ne!(word, 0, "0 is the free-cell sentinel");
                assert_eq!(
                    (ready::seq(word), ready::runs(word), ready::count(word)),
                    (seq, runs, count)
                );
            }
        }
        assert_eq!(slab_bytes::<u64>(ready::pack(9, 0, 64)), 512);
        assert_eq!(slab_bytes::<u64>(ready::pack(9, 3, 64)), 512 + 3 * 12);
    }

    #[test]
    fn ring_slots_run_on_across_the_sequence_wrap() {
        // Both ends map a flush sequence to its cell; consecutive flushes
        // must take consecutive cells through the u32 wrap, or a lap of the
        // ring would reuse a cell the receiver has not consumed yet.
        let mut seq = u32::MAX - 2 * RING as u32;
        for _ in 0..4 * RING {
            let next = seq.wrapping_add(1);
            assert_eq!(
                ring_slot(next),
                (ring_slot(seq) + 1) % RING,
                "{seq} -> {next}"
            );
            seq = next;
        }
        assert_eq!(ring_slot(u32::MAX), RING - 1);
        assert_eq!(ring_slot(0), 0);
    }

    #[test]
    fn links_started_below_the_sequence_wrap_cross_it() {
        // `reset` keeps sequence numbers, so a long-lived conveyor reaches
        // 2^32 flushes on a link. Start three flushes short of it, at
        // capacity 1 (every item is a flush), so the wrap falls inside the
        // first lap of the ring, and run four laps on, on the blocking and
        // the non-blocking path, free-running and under seeded schedules
        // that interleave release and reuse of the cells.
        use fabsp_shmem::{Harness, SchedSpec};
        let per_pair = 4 * RING as u64;
        for grid in [Grid::single_node(2).unwrap(), Grid::new(2, 1).unwrap()] {
            for sched in std::iter::once(None).chain((0..6).map(Some)) {
                let harness = match sched {
                    Some(seed) => Harness::new(grid).sched(SchedSpec::random_walk(seed)),
                    None => Harness::new(grid),
                };
                let results = spmd::run(harness, move |pe| {
                    let mut c = Conveyor::<u64>::new(
                        pe,
                        ConveyorOptions {
                            capacity: 1,
                            ..ConveyorOptions::default()
                        },
                    )
                    .unwrap();
                    c.start_sequences_at(u32::MAX - 2);
                    let n = pe.n_pes() as u64;
                    let mut received: Vec<Vec<u64>> = vec![Vec::new(); pe.n_pes()];
                    let mut next = 0u64;
                    loop {
                        while next < n * per_pair {
                            let dst = (next % n) as usize;
                            if !c.push(pe, next / n, dst).unwrap().is_accepted() {
                                break;
                            }
                            next += 1;
                        }
                        let active = c.advance(pe, next == n * per_pair);
                        while let Some(d) = c.pull() {
                            received[d.src as usize].push(d.item);
                        }
                        if !active {
                            break;
                        }
                        pe.poll_yield();
                    }
                    let wrapped = (0..pe.n_pes()).all(|dst| {
                        let link = c.topology.route(c.grid, c.me, dst).link;
                        c.links[link].flush_seq < u32::MAX - 2
                    });
                    (received, wrapped)
                })
                .unwrap_or_else(|e| panic!("{grid:?}, schedule {sched:?}: {e}"));
                for (me, (received, wrapped)) in results.iter().enumerate() {
                    assert!(wrapped, "every used link of PE {me} flushed past the wrap");
                    for (src, items) in received.iter().enumerate() {
                        assert_eq!(
                            *items,
                            (0..per_pair).collect::<Vec<_>>(),
                            "{grid:?}, schedule {sched:?}: {src} -> {me}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn physical_trace_matches_topology() {
        let grid = Grid::new(2, 2).unwrap();
        let traces = spmd::run(grid, |pe| {
            let collector = PeCollector::new(
                pe.rank(),
                pe.n_pes(),
                pe.grid().pes_per_node(),
                TraceConfig::off().with_physical(),
            )
            .into_shared();
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            c.attach_collector(collector.clone());
            let n = pe.n_pes();
            let mut pending: Vec<usize> = (0..n).flat_map(|d| std::iter::repeat_n(d, 5)).collect();
            let mut i = 0;
            loop {
                while i < pending.len() && c.push(pe, 7, pending[i]).unwrap().is_accepted() {
                    i += 1;
                }
                let active = c.advance(pe, i == pending.len());
                while c.pull().is_some() {}
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            pending.clear();
            let recs = collector.borrow().physical_records().iter().collect::<Vec<_>>();
            recs
        })
        .unwrap();
        let grid = Grid::new(2, 2).unwrap();
        let mut saw_local = false;
        let mut saw_nonblock = false;
        let mut saw_progress = false;
        for (src, recs) in traces.iter().enumerate() {
            for r in recs {
                assert_eq!(r.src_pe as usize, src);
                match r.send_type {
                    SendType::LocalSend => {
                        saw_local = true;
                        assert!(
                            grid.same_node(src, r.dst_pe as usize),
                            "local_send crossed nodes: {src}->{}",
                            r.dst_pe
                        );
                    }
                    SendType::NonblockSend | SendType::NonblockProgress => {
                        if r.send_type == SendType::NonblockSend {
                            saw_nonblock = true;
                        } else {
                            saw_progress = true;
                        }
                        assert!(
                            !grid.same_node(src, r.dst_pe as usize),
                            "nonblocking send within a node: {src}->{}",
                            r.dst_pe
                        );
                        // mesh columns: same local index
                        assert_eq!(
                            grid.local_index(src),
                            grid.local_index(r.dst_pe as usize),
                            "mesh column violated"
                        );
                    }
                }
            }
        }
        assert!(saw_local && saw_nonblock && saw_progress);
    }

    #[test]
    fn buffer_counts_do_not_depend_on_ring_depth() {
        // The physical trace counts slabs (Figs 7-9), and a slab is flushed
        // only when full or in the endgame, so the ring's depth must not
        // show in it. Each PE sends `k` items to every PE it has a direct
        // link to — all of them on a 1D grid, its row and column on the
        // 2x2 mesh — so no slab is relayed and each link's events are
        // determined: ceil(k / capacity) slabs, all full but the last, and
        // on a remote link one nonblock_progress per nonblock_send, of the
        // same size and in the same order.
        for grid in [Grid::single_node(3).unwrap(), Grid::new(2, 2).unwrap()] {
            for capacity in [1, 4, 64] {
                let k = 3 * RING * capacity + capacity / 2 + 1;
                let traces = spmd::run(grid, move |pe| {
                    let collector = PeCollector::new(
                        pe.rank(),
                        pe.n_pes(),
                        pe.grid().pes_per_node(),
                        TraceConfig::off().with_physical(),
                    )
                    .into_shared();
                    let mut c = Conveyor::<u64>::new(
                        pe,
                        ConveyorOptions {
                            capacity,
                            ..ConveyorOptions::default()
                        },
                    )
                    .unwrap();
                    c.attach_collector(collector.clone());
                    let g = pe.grid();
                    let me = pe.rank();
                    let peers: Vec<usize> = (0..pe.n_pes())
                        .filter(|&d| g.same_node(me, d) || g.local_index(me) == g.local_index(d))
                        .collect();
                    let mut next = 0usize;
                    let total = k * peers.len();
                    loop {
                        while next < total
                            && c.push(pe, next as u64, peers[next % peers.len()])
                                .unwrap()
                                .is_accepted()
                        {
                            next += 1;
                        }
                        let active = c.advance(pe, next == total);
                        while c.pull().is_some() {}
                        if !active {
                            break;
                        }
                        pe.poll_yield();
                    }
                    let stats = c.stats();
                    assert_eq!(stats.relayed, 0, "direct links only");
                    assert_eq!(stats.nonblock_progress, stats.nonblock_sends);
                    let recs = collector.borrow().physical_records().iter().collect::<Vec<_>>();
                    (peers, recs)
                })
                .unwrap();
                let item = std::mem::size_of::<u64>() as u64;
                let mut slabs = vec![capacity as u64 * item; k / capacity];
                if !k.is_multiple_of(capacity) {
                    slabs.push((k % capacity) as u64 * item);
                }
                for (src, (peers, recs)) in traces.iter().enumerate() {
                    for &dst in peers {
                        let sizes = |ty: SendType| -> Vec<u64> {
                            recs.iter()
                                .filter(|r| r.send_type == ty && r.dst_pe as usize == dst)
                                .map(|r| r.buffer_size)
                                .collect()
                        };
                        let what = format!("{grid:?}, capacity {capacity}: {src} -> {dst}");
                        if grid.same_node(src, dst) {
                            assert_eq!(sizes(SendType::LocalSend), slabs, "{what}");
                            assert!(sizes(SendType::NonblockSend).is_empty(), "{what}");
                        } else {
                            assert!(sizes(SendType::LocalSend).is_empty(), "{what}");
                            assert_eq!(sizes(SendType::NonblockSend), slabs, "{what}");
                            assert_eq!(sizes(SendType::NonblockProgress), slabs, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn remote_slabs_stay_invisible_until_the_next_cell_is_needed() {
        // 2x1 grid, capacity 1: every item is one nbi slab. RING slabs fill
        // the ring with unpublished cells and issue no quiet; the receiver
        // sees none of them. The next flush finds its cell held, which
        // triggers one quiet that publishes all RING cells in flush order.
        let grid = Grid::new(2, 1).unwrap();
        let ring = RING as u64;
        let results = spmd::run(grid, move |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 1,
                    ..ConveyorOptions::default()
                },
            )
            .unwrap();
            let sender = pe.rank() == 0;
            let mut received: Vec<u64> = Vec::new();
            let receive = |c: &mut Conveyor<u64>, received: &mut Vec<u64>| {
                c.advance(pe, false);
                while let Some(d) = c.pull() {
                    received.push(d.item);
                }
            };
            if sender {
                for item in 0..ring {
                    assert!(c.push(pe, item, 1).unwrap().is_accepted());
                }
                c.advance(pe, false);
                let s = c.stats();
                assert_eq!(
                    (s.nonblock_sends, s.nonblock_progress, s.quiets),
                    (ring, 0, 0)
                );
            }
            pe.barrier_all();
            if !sender {
                receive(&mut c, &mut received);
                assert!(received.is_empty(), "nbi puts are invisible until quiet");
            }
            pe.barrier_all();
            if sender {
                assert!(c.push(pe, ring, 1).unwrap().is_accepted());
                c.advance(pe, false);
                let s = c.stats();
                assert_eq!(
                    (s.nonblock_sends, s.nonblock_progress, s.quiets),
                    (ring, ring, 1)
                );
            }
            pe.barrier_all();
            if !sender {
                receive(&mut c, &mut received);
                assert_eq!(
                    received,
                    (0..ring).collect::<Vec<_>>(),
                    "one quiet publishes all"
                );
            }
            pe.barrier_all();
            loop {
                let active = c.advance(pe, true);
                while let Some(d) = c.pull() {
                    received.push(d.item);
                }
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            (received, c.stats())
        })
        .unwrap();
        assert_eq!(results[1].0, (0..=ring).collect::<Vec<_>>());
        let s = results[0].1;
        assert_eq!(
            (s.nonblock_sends, s.nonblock_progress),
            (ring + 1, ring + 1)
        );
    }

    #[test]
    fn every_nonblock_send_is_progressed() {
        let grid = Grid::new(2, 2).unwrap();
        let results = all_to_all(grid, ConveyorOptions::default(), 12);
        for (_, stats) in &results {
            assert_eq!(
                stats.nonblock_sends, stats.nonblock_progress,
                "all in-flight buffers must be signalled by termination"
            );
        }
    }

    #[test]
    fn reset_supports_repeated_supersteps() {
        let grid = Grid::new(2, 2).unwrap();
        let results = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let n = pe.n_pes();
            let mut received = 0u64;
            for round in 0..3u64 {
                let mut sent = 0usize;
                loop {
                    while sent < n && c.push(pe, round, sent).unwrap().is_accepted() {
                        sent += 1;
                    }
                    let active = c.advance(pe, sent == n);
                    while let Some(d) = c.pull() {
                        assert_eq!(d.item, round, "stale message crossed supersteps");
                        received += 1;
                    }
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                assert!(c.is_complete());
                pe.barrier_all();
                c.reset(pe);
                assert!(!c.is_complete());
            }
            received
        })
        .unwrap();
        assert_eq!(results.iter().sum::<u64>(), 3 * 16);
    }

    #[test]
    fn supersteps_reuse_staging_buffers_without_allocating() {
        // The staging side of "steady state and `reset` allocate nothing":
        // every link's payload buffer and route table keep the capacity
        // `new` gave them, across reset supersteps of the traffic that
        // grows a route table fastest — destinations alternating every
        // item, so the row link of the 2x2 mesh stages one route per item.
        let grid = Grid::new(2, 2).unwrap();
        let capacities = |c: &Conveyor<u64>| -> Vec<(usize, usize)> {
            c.links
                .iter()
                .map(|l| (l.buf.capacity(), l.runs.capacity()))
                .collect()
        };
        let per_pe = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let n = pe.n_pes();
            let total = 5 * c.capacity() * n;
            let mut per_round = vec![capacities(&c)];
            let mut most_runs = 0usize;
            for round in 0..4u64 {
                let mut sent = 0usize;
                loop {
                    while sent < total && c.push(pe, round, sent % n).unwrap().is_accepted() {
                        sent += 1;
                        most_runs = most_runs.max(c.links.iter().map(|l| l.runs.len()).max().unwrap());
                    }
                    let active = c.advance(pe, sent == total);
                    while c.pull().is_some() {}
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                per_round.push(capacities(&c));
                pe.barrier_all();
                c.reset(pe);
            }
            (per_round, most_runs)
        })
        .unwrap();
        for (me, (per_round, most_runs)) in per_pe.iter().enumerate() {
            assert_eq!(*most_runs, 64, "PE {me}: a row slab staged one route per item");
            for (round, caps) in per_round.iter().enumerate().skip(1) {
                assert_eq!(
                    *caps, per_round[0],
                    "PE {me}: staging storage regrew by the end of superstep {}",
                    round - 1
                );
            }
        }
    }

    #[test]
    fn reset_before_termination_panics_world() {
        let grid = Grid::single_node(1).unwrap();
        let err = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let _ = c.push(pe, 1, 0).unwrap();
            c.reset(pe); // not terminated: must panic
        })
        .unwrap_err();
        assert!(err.to_string().contains("before the conveyor terminated"));
    }

    #[test]
    fn checkpoint_ready_holds_at_fresh_and_terminated_cuts_only() {
        let grid = Grid::new(2, 2).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            assert!(c.checkpoint_ready(), "a fresh conveyor is a valid cut");
            let n = pe.n_pes();
            for dst in 0..n {
                while !c.push(pe, dst as u64, dst).unwrap().is_accepted() {
                    c.advance(pe, false);
                }
            }
            assert!(!c.checkpoint_ready(), "staged items poison the cut");
            let mut got = 0u64;
            while c.advance(pe, true) {
                while c.pull().is_some() {
                    got += 1;
                }
                pe.poll_yield();
            }
            while c.pull().is_some() {
                got += 1;
            }
            assert!(c.is_complete());
            assert!(c.checkpoint_ready(), "a terminated conveyor is a valid cut");
            assert_eq!(got, n as u64, "every delivery reached the sink");
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn self_send_takes_full_buffer_path() {
        // §IV-D "Note for self-sends": no bypass; a self-send still incurs
        // the push / deliver / consume / pull copies.
        let grid = Grid::single_node(1).unwrap();
        let results = all_to_all(grid, ConveyorOptions::default(), 1);
        let (_, stats) = &results[0];
        assert_eq!(stats.local_sends, 1, "self-send delivered a real buffer");
        assert!(
            stats.item_copies >= 4,
            "self-send must pay the full copy chain, got {}",
            stats.item_copies
        );
    }

    #[test]
    fn physical_events_drain_at_advance_not_per_event() {
        // Batching contract: push-triggered flushes buffer their physical
        // events; the collector sees them only after the next advance.
        let grid = Grid::single_node(2).unwrap();
        spmd::run(grid, |pe| {
            let collector = PeCollector::new(
                pe.rank(),
                pe.n_pes(),
                pe.grid().pes_per_node(),
                TraceConfig::off().with_physical(),
            )
            .into_shared();
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 1,
                    topology: TopologySpec::OneD,
                },
            )
            .unwrap();
            c.attach_collector(collector.clone());
            if pe.rank() == 0 {
                // capacity 1: the second push flushes the first buffer
                assert!(c.push(pe, 1, 1).unwrap().is_accepted());
                assert!(c.push(pe, 2, 1).unwrap().is_accepted());
                assert!(
                    collector.borrow().physical_records().is_empty(),
                    "flush events stay batched until an advance"
                );
            }
            let mut done = pe.rank() != 0;
            loop {
                let active = c.advance(pe, done);
                while c.pull().is_some() {}
                done = true;
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            if pe.rank() == 0 {
                assert!(
                    !collector.borrow().physical_records().is_empty(),
                    "advance drained the batch"
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn batched_all_to_all_preserves_pairwise_fifo() {
        // The batched surface (push_slice + pull_batch) must deliver the
        // exact per-source streams the per-item surface guarantees.
        for grid in [Grid::single_node(4).unwrap(), Grid::new(2, 2).unwrap()] {
            let per_pair = 150usize;
            let results = spmd::run(grid, |pe| {
                let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
                let n = pe.n_pes();
                let outboxes: Vec<Vec<u64>> = (0..n)
                    .map(|dst| {
                        (0..per_pair)
                            .map(|k| (pe.rank() * 1_000_000 + dst * 1_000 + k) as u64)
                            .collect()
                    })
                    .collect();
                let mut sent = vec![0usize; n];
                let mut received: Vec<Vec<u64>> = vec![Vec::new(); n];
                loop {
                    let mut done = true;
                    for dst in 0..n {
                        if sent[dst] < per_pair {
                            let r = c.push_slice(pe, &outboxes[dst][sent[dst]..], dst).unwrap();
                            sent[dst] += r.accepted;
                            done &= sent[dst] == per_pair;
                        }
                    }
                    let active = c.advance(pe, done);
                    while let Some(batch) = c.pull_batch() {
                        received[batch.src as usize].extend_from_slice(batch.items);
                    }
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                (received, c.stats())
            })
            .unwrap();
            for (me, (received, stats)) in results.iter().enumerate() {
                assert!(stats.batched_pushes > 0, "push_slice path must be counted");
                assert!(stats.batched_pulls > 0, "pull_batch path must be counted");
                assert_eq!(stats.pushed, (grid.n_pes() * per_pair) as u64);
                assert_eq!(stats.pulled, (grid.n_pes() * per_pair) as u64);
                for (src, items) in received.iter().enumerate() {
                    assert_eq!(items.len(), per_pair, "PE {me} from {src}");
                    for (k, item) in items.iter().enumerate() {
                        assert_eq!(
                            *item,
                            (src * 1_000_000 + me * 1_000 + k) as u64,
                            "PE {me} from {src} item {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn push_slice_accepts_a_prefix_under_backpressure() {
        // Single PE, capacity 4: `RING` landing cells plus one staged
        // buffer hold exactly `(RING + 1) * 4` items, so a longer slice
        // accepts that prefix and reports the refusal; resubmitting the
        // remainder after advances delivers everything in order.
        let window = (RING + 1) * 4;
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 4,
                    ..ConveyorOptions::default()
                },
            )
            .unwrap();
            let items: Vec<u64> = (0..4 * window as u64).collect();
            let first = c.push_slice(pe, &items, 0).unwrap();
            assert_eq!(first.accepted, window, "RING cells + 1 staging buffer of 4");
            assert!(first.retried >= 1, "the next item must report backpressure");
            let mut sent = first.accepted;
            let mut got: Vec<u64> = Vec::new();
            loop {
                let active = c.advance(pe, sent == items.len());
                while let Some(b) = c.pull_batch() {
                    got.extend_from_slice(b.items);
                }
                if !active {
                    break;
                }
                if sent < items.len() {
                    sent += c.push_slice(pe, &items[sent..], 0).unwrap().accepted;
                }
                pe.poll_yield();
            }
            assert_eq!(got, items, "batched delivery preserves push order");
        })
        .unwrap();
    }

    #[test]
    fn batch_buffers_recycle_across_supersteps() {
        // Single-PE self-traffic yields one origin run per round, so the
        // batch free list settles after round 0 and steady-state rounds
        // allocate nothing (the pull-queue half of
        // `supersteps_reuse_staging_buffers_without_allocating`).
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let mut per_round = Vec::new();
            for _ in 0..4 {
                let items = [1u64, 2, 3];
                let mut sent = 0usize;
                loop {
                    if sent < items.len() {
                        sent += c.push_slice(pe, &items[sent..], 0).unwrap().accepted;
                    }
                    let active = c.advance(pe, sent == items.len());
                    while c.pull_batch().is_some() {}
                    if !active {
                        break;
                    }
                }
                per_round.push(c.stats().batch_allocs);
                c.reset(pe);
            }
            assert!(per_round[0] > 0, "round 0 takes batch buffers");
            for later in &per_round[1..] {
                assert_eq!(
                    *later, per_round[0],
                    "steady-state rounds must not allocate batch buffers"
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn per_item_and_batched_pulls_interoperate() {
        // pull() nibbles the front of the batch queue; pull_batch() then
        // hands out the remainder of that run — no item lost or reordered.
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let items: Vec<u64> = (0..10).collect();
            assert_eq!(c.push_slice(pe, &items, 0).unwrap().accepted, 10);
            let mut got: Vec<u64> = Vec::new();
            loop {
                let active = c.advance(pe, true);
                if let Some(d) = c.pull() {
                    got.push(d.item);
                }
                while let Some(b) = c.pull_batch() {
                    got.extend_from_slice(b.items);
                }
                if !active {
                    break;
                }
            }
            assert_eq!(got, items, "mixed pull surfaces must interleave cleanly");
            assert_eq!(c.pending_pulls(), 0);
        })
        .unwrap();
    }
}
