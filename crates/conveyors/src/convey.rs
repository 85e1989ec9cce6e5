//! The conveyor engine: aggregation buffers, double-buffered delivery,
//! two-hop relaying, and quiescence-based termination.
//!
//! ## Delivery protocol
//!
//! Each directed link owns **two landing cells** at the receiver — lock-free
//! SPSC ring cells ([`SpscRing`]) whose state word doubles as ready signal
//! and free-list entry (`0` = free for the sender, non-zero = published).
//! The sender stages items in a pooled per-link buffer; a flush claims a
//! free cell and delivers:
//!
//! - **local_send** (same node): a blocking [`SpscRing::write`] (the
//!   `shmem_ptr` memcpy) immediately followed by the *ready* publication.
//! - **nonblock_send** (cross node): a [`SpscRing::write_nbi`]
//!   (`shmem_putmem_nbi`) whose data is *not yet visible* — the cell stays
//!   unpublished and the slot is marked in-flight. A later
//!   **nonblock_progress** issues one [`Pe::quiet`] and then publishes each
//!   in-flight cell — the exact `quiet`-then-signal sequence §III-C traces.
//!
//! Ready words carry a per-link flush sequence number; the receiver
//! consumes cells strictly in sequence, so message order between any PE
//! pair is preserved (the "ordering guarantees... restricted for a pair of
//! PEs" of §IV-E) even when double-buffered flushes complete out of order.
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
use fabsp_telemetry::{Counter, Gauge, Hist, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ConveyorError;
use crate::exchange::{BatchDelivery, Delivery, Envelope, PushOutcome, PushReport};
use crate::stats::ConveyorStats;
use crate::topology::{LinkKind, Topology, TopologySpec};

/// Physical slab capacity when the adaptive controller is on: the
/// controller moves the *effective* occupancy target inside this envelope,
/// so landing cells never need reallocation.
const ADAPTIVE_SLAB_CAP: usize = 512;

/// Floor the adaptive controller never shrinks the occupancy target below.
const ADAPTIVE_MIN_TARGET: usize = 8;

/// Advances between adaptive controller decisions.
const ADAPT_PERIOD: u64 = 32;

/// Construction options for a [`Conveyor`].
#[derive(Debug, Clone, Copy)]
pub struct ConveyorOptions {
    /// Items per aggregation buffer (and per landing cell). Default 64 —
    /// with 8–32-byte items this yields the 0.5–2 KiB network packets
    /// aggregation libraries target. With `adaptive` set this is the
    /// *initial* occupancy target; the physical slab is pre-sized to
    /// `ADAPTIVE_SLAB_CAP` (512) so the controller has headroom.
    pub capacity: usize,
    /// Topology selection (default: what Conveyors picks for the grid).
    pub topology: TopologySpec,
    /// Enable the occupancy feedback controller: the effective slab
    /// occupancy target tracks the telemetry registry's
    /// `BufferedItems`/`PullBacklog` gauges instead of staying pinned at
    /// `capacity`. Off by default (fixed capacity, bit-stable behavior).
    pub adaptive: bool,
}

impl Default for ConveyorOptions {
    fn default() -> Self {
        ConveyorOptions {
            capacity: 64,
            topology: TopologySpec::Auto,
            adaptive: false,
        }
    }
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

/// Free-list of staging/scratch buffers. All `Vec<Envelope<T>>` the
/// conveyor ever uses come from here, so steady-state supersteps allocate
/// nothing: buffers cycle take → use → give. [`ConveyorStats::buffer_allocs`]
/// exposes the (construction-time) allocation count.
struct BufferPool<T> {
    free: Vec<Vec<Envelope<T>>>,
    capacity: usize,
    allocs: u64,
}

impl<T> BufferPool<T> {
    fn new(capacity: usize) -> BufferPool<T> {
        BufferPool {
            free: Vec::new(),
            capacity,
            allocs: 0,
        }
    }

    fn take(&mut self) -> Vec<Envelope<T>> {
        self.free.pop().unwrap_or_else(|| {
            self.allocs += 1;
            Vec::with_capacity(self.capacity)
        })
    }

    fn give(&mut self, mut buf: Vec<Envelope<T>>) {
        buf.clear();
        self.free.push(buf);
    }
}

struct OutLink<T> {
    peer: usize,
    kind: LinkKind,
    buf: Vec<Envelope<T>>,
    /// Remote cells written but not yet published: (seq, item_count).
    in_flight: [Option<(u64, usize)>; 2],
    /// Per-link flush sequence (1-based).
    flush_seq: u64,
}

/// One run of delivered items from a single origin, stored stripped of
/// envelopes so [`Conveyor::pull_batch`] can hand the payloads out as a
/// zero-copy `&[T]`. `cursor` tracks how far per-item [`Conveyor::pull`]
/// has nibbled into the front batch; backing `Vec`s recycle through a
/// free list like the staging buffers.
struct Batch<T> {
    src: u32,
    items: Vec<T>,
    cursor: usize,
}

/// A fixed-item-size aggregating communication object (one per Selector
/// mailbox in the FA-BSP stack).
pub struct Conveyor<T> {
    me: usize,
    grid: fabsp_shmem::Grid,
    topology: Topology,
    /// Configured capacity (what [`capacity`](Conveyor::capacity) reports).
    capacity: usize,
    /// Effective occupancy target: flush/refusal threshold. Equals
    /// `capacity` unless the adaptive controller moves it.
    target: usize,
    /// Physical items per landing cell / staging buffer (`>= target`).
    slab_cap: usize,
    /// Occupancy feedback controller enabled?
    adaptive: bool,
    /// `push_refusals` value at the controller's last decision point.
    adapt_refusal_mark: u64,
    links: Vec<OutLink<T>>,
    /// Landing cells, one SPSC cell per (incoming link, slot); the cell
    /// state word is ready signal and free-list entry in one.
    cells: SpscRing<Envelope<T>>,
    /// Receiver-side consumption cursor per (link, slot).
    cursors: Vec<usize>,
    /// Cycle stamp of the first blocked consumption per (link, slot),
    /// cleared when the cell is finally released — measures how long a
    /// relay park actually stalled the link (telemetry only).
    park_since: Vec<Option<u64>>,
    /// Next flush sequence expected per incoming link.
    expect_seq: Vec<u64>,
    /// Delivered-but-unpulled items, grouped into per-origin runs so
    /// `pull_batch` hands out whole slices. Arrival order is preserved:
    /// a delivery either extends the tail batch (same origin) or starts a
    /// new one.
    batches: VecDeque<Batch<T>>,
    /// The batch most recently lent out by `pull_batch`; its items are
    /// already counted as pulled, and its backing `Vec` is recycled on the
    /// next pull/pull_batch/advance.
    live: Option<Batch<T>>,
    /// Total unpulled items across `batches` (the true pull backlog).
    queued_items: usize,
    /// Free list of batch backing `Vec`s.
    batch_pool: Vec<Vec<T>>,
    batch_allocs: u64,
    pool: BufferPool<T>,
    shared: Arc<SharedState>,
    /// Pushes/pulls not yet posted to the shared termination ledger. The
    /// ledger is contended by every PE, so the hot path only bumps these
    /// locals; `advance` posts the deltas once per call, which is all the
    /// endgame check needs (a PE with unposted deltas cannot be terminal —
    /// it will call `advance` again).
    pending_pushed: u64,
    pending_pulled: u64,
    /// `pull_batch` calls not yet posted to the telemetry registry
    /// (`pull_batch` takes no `Pe`, so the counter is batched like the
    /// ledger deltas and flushed once per `advance`).
    pending_batched_pulls: u64,
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
        if options.capacity == 0 {
            return Err(ConveyorError::ZeroCapacity);
        }
        let grid = pe.grid();
        let topology = Topology::resolve(options.topology, grid);
        let n_links = topology.n_links(grid);
        // Adaptive mode over-provisions the physical slabs so the
        // controller can move the occupancy target without reallocating
        // landing cells mid-run.
        let slab_cap = if options.adaptive {
            options.capacity.max(ADAPTIVE_SLAB_CAP)
        } else {
            options.capacity
        };
        let cells = SpscRing::new(pe, n_links * 2, slab_cap)?;
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
        let mut pool = BufferPool::new(slab_cap);
        let links = (0..n_links)
            .map(|link| OutLink {
                peer: topology.link_peer(grid, me, link),
                kind: topology.link_kind(grid, me, link),
                buf: pool.take(),
                in_flight: [None, None],
                flush_seq: 1,
            })
            .collect();
        Ok(Conveyor {
            me,
            grid,
            topology,
            capacity: options.capacity,
            target: options.capacity,
            slab_cap,
            adaptive: options.adaptive,
            adapt_refusal_mark: 0,
            links,
            cells,
            cursors: vec![0; n_links * 2],
            park_since: vec![None; n_links * 2],
            expect_seq: vec![1; n_links],
            batches: VecDeque::new(),
            live: None,
            queued_items: 0,
            batch_pool: Vec::new(),
            batch_allocs: 0,
            pending_pushed: 0,
            pending_pulled: 0,
            pending_batched_pulls: 0,
            pool,
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
    /// `park_probability`, relay re-staging in `consume_slot` pretends
    /// the relay buffer is full even when it is not, forcing the
    /// parked-link path (saved cursor, link resumed on a later advance)
    /// that real runs only hit under heavy congestion.
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

    /// The effective occupancy target the flush/refusal thresholds use
    /// right now. Equals [`capacity`](Conveyor::capacity) unless the
    /// adaptive controller has moved it.
    pub fn effective_capacity(&self) -> usize {
        self.target
    }

    /// This PE's operation counters.
    pub fn stats(&self) -> ConveyorStats {
        ConveyorStats {
            buffer_allocs: self.pool.allocs,
            batch_allocs: self.batch_allocs,
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
            self.batches.is_empty() && self.live.is_none() && self.queued_items == 0,
            "termination implies drained"
        );
        debug_assert!(!self.has_in_flight(), "termination implies progressed");
        debug_assert!(
            self.links.iter().all(|l| l.buf.is_empty()),
            "termination implies flushed"
        );
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
        self.batches.is_empty()
            && self.live.is_none()
            && self.queued_items == 0
            && !self.has_in_flight()
            && self.links.iter().all(|l| l.buf.is_empty())
            && self.pending_pushed == 0
            && self.pending_pulled == 0
            && self.trace_buf.is_empty()
    }

    /// Drive the conveyor to quiescence so the superstep can be cleanly
    /// checkpointed or replayed: signals done, keeps advancing, and hands
    /// every remaining delivery to `sink` until termination. On return the
    /// conveyor [`is_complete`](Conveyor::is_complete) and
    /// [`checkpoint_ready`](Conveyor::checkpoint_ready) (asserted in debug
    /// builds). Collective in effect: all PEs must drain together, like the
    /// endgame itself. Cold path — runs at superstep boundaries only.
    pub fn drain_and_park(&mut self, pe: &Pe, mut sink: impl FnMut(Delivery<T>)) {
        loop {
            let active = self.advance(pe, true);
            while let Some(d) = self.pull() {
                sink(d);
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        debug_assert!(
            self.checkpoint_ready(),
            "a parked conveyor must be checkpoint-ready"
        );
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
    /// state-word protocol over whole-slab publishes: staging fills the
    /// pooled link buffer in bulk `extend`s and flushes full slabs inline,
    /// instead of paying a threshold check and branch per item.
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
            if let Some(m) = pe.metrics() {
                m.count(Counter::BatchedPushes);
                m.observe(Hist::BatchLen, items.len() as u64);
            }
        }
        let link = self.topology.route(self.grid, self.me, dst).link;
        let origin = self.me as u32;
        let mut accepted = 0usize;
        let mut retried = 0u64;
        while accepted < items.len() {
            if self.links[link].buf.len() >= self.target {
                self.flush_link(pe, link);
                if self.links[link].buf.len() >= self.target {
                    self.stats.push_refusals += 1;
                    retried += 1;
                    if let Some(m) = pe.metrics() {
                        m.count(Counter::ConveyorPushRetries);
                    }
                    break;
                }
            }
            let room = self.target - self.links[link].buf.len();
            let take = room.min(items.len() - accepted);
            self.links[link].buf.extend(items[accepted..accepted + take].iter().map(
                |&item| Envelope {
                    final_dst: dst as u32,
                    origin,
                    item,
                },
            ));
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
            self.recycle_batch(prev);
        }
        let out = match self.batches.front_mut() {
            Some(b) => {
                let src = b.src;
                let item = b.items[b.cursor];
                b.cursor += 1;
                if b.cursor == b.items.len() {
                    let done = self.batches.pop_front().expect("front exists");
                    self.recycle_batch(done);
                }
                self.stats.pulled += 1;
                self.stats.item_copies += 1;
                self.pending_pulled += 1;
                self.queued_items -= 1;
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
            self.recycle_batch(prev);
        }
        let out = self.batches.pop_front();
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
        self.pending_batched_pulls += 1;
        self.queued_items -= n;
        let live = self.live.insert(batch);
        Some(BatchDelivery {
            src: live.src,
            items: &live.items[live.cursor..],
        })
    }

    /// Number of delivered-but-unpulled items.
    pub fn pending_pulls(&self) -> usize {
        self.queued_items
    }

    /// Queue one incoming item, extending the tail batch when the origin
    /// matches (arrival order is preserved either way).
    fn deliver(&mut self, origin: u32, item: T) {
        self.queued_items += 1;
        if let Some(back) = self.batches.back_mut() {
            if back.src == origin {
                back.items.push(item);
                return;
            }
        }
        let mut items = self.batch_pool.pop().unwrap_or_else(|| {
            self.batch_allocs += 1;
            Vec::with_capacity(self.slab_cap)
        });
        items.push(item);
        self.batches.push_back(Batch {
            src: origin,
            items,
            cursor: 0,
        });
    }

    fn recycle_batch(&mut self, mut batch: Batch<T>) {
        batch.items.clear();
        self.batch_pool.push(batch.items);
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
            m.observe(Hist::AdvanceCycles, end.saturating_sub(begin));
            let buffered: usize = self.links.iter().map(|l| l.buf.len()).sum();
            m.gauge_set(Gauge::ConveyorBufferedItems, buffered as u64);
            // True occupancy: items, not slabs — pull_batch drains whole
            // batches, so counting queue entries would under-report the
            // backlog the adaptive controller steers on.
            m.gauge_set(Gauge::ConveyorPullBacklog, self.queued_items as u64);
            m.flight_span(Phase::Advance, begin, end);
            if self.pending_batched_pulls != 0 {
                m.add(Counter::BatchedPulls, self.pending_batched_pulls);
            }
        }
        self.pending_batched_pulls = 0;
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
            self.recycle_batch(prev);
        }
        if self.adaptive && self.stats.advances.is_multiple_of(ADAPT_PERIOD) {
            self.adapt_tick(pe);
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
            if len >= self.target || (self.done_signaled && len > 0) {
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

    /// The occupancy feedback controller: every [`ADAPT_PERIOD`] advances,
    /// steer the effective slab occupancy target from this PE's telemetry
    /// gauges. Refusals with a manageable pull backlog mean the fixed
    /// target is the bottleneck — grow it (bigger slabs amortize the
    /// state-word protocol further); a backlog far above the target means
    /// the consumer is the bottleneck — shrink, so flushes deliver smaller,
    /// smoother slabs instead of piling onto the queue. Inputs are this
    /// PE's own single-writer gauge slab (set by the previous `advance`),
    /// so the decision stream is deterministic per schedule.
    fn adapt_tick(&mut self, pe: &Pe) {
        let backlog = pe
            .metrics()
            .map(|m| m.gauge(Gauge::ConveyorPullBacklog))
            .unwrap_or(self.queued_items as u64);
        let refusals = self.stats.push_refusals - self.adapt_refusal_mark;
        self.adapt_refusal_mark = self.stats.push_refusals;
        // A consumer that keeps up holds the backlog near 3x the target (two
        // drained cells plus an inline flush per advance), so the stable
        // band is [0, 4x]: refusals inside it grow, a backlog beyond 8x —
        // the consumer genuinely falling behind — shrinks.
        let target = self.target as u64;
        if refusals > 0 && backlog <= 4 * target {
            let grown = (self.target * 2).min(self.slab_cap);
            if grown != self.target {
                self.target = grown;
                self.stats.capacity_grows += 1;
            }
        } else if backlog > 8 * target {
            let shrunk = (self.target / 2).max(ADAPTIVE_MIN_TARGET.min(self.slab_cap));
            if shrunk != self.target {
                self.target = shrunk;
                self.stats.capacity_shrinks += 1;
            }
        }
    }

    fn has_in_flight(&self) -> bool {
        self.links
            .iter()
            .any(|l| l.in_flight.iter().any(|s| s.is_some()))
    }

    fn slot_index(link: usize, slot: usize) -> usize {
        link * 2 + slot
    }

    /// Deliver `link`'s staged buffer into a free landing cell at the peer,
    /// if one is available.
    fn flush_link(&mut self, pe: &Pe, link: usize) {
        if self.links[link].buf.is_empty() {
            return;
        }
        let peer = self.links[link].peer;
        let rev = self.topology.reverse_link(self.grid, peer, self.me);
        // A cell is free when its state word is 0 (the receiver released
        // it) and no unpublished delivery of ours occupies it.
        let slot = {
            let l = &self.links[link];
            (0..2).find(|&s| {
                l.in_flight[s].is_none() && self.cells.state(pe, peer, Self::slot_index(rev, s)) == 0
            })
        };
        let Some(slot) = slot else {
            // Both cells busy. If any are merely unpublished, a progress
            // call will free the pipeline — the paper's "quiet when the
            // second buffer is full for a particular destination" trigger.
            if self.links[link].in_flight.iter().any(|s| s.is_some()) {
                self.need_progress = true;
            }
            return;
        };

        let kind = self.links[link].kind;
        let count = self.links[link].buf.len();
        let bytes = (count * std::mem::size_of::<Envelope<T>>()) as u64;
        let seq = self.links[link].flush_seq;
        let cell = Self::slot_index(rev, slot);
        let ready_word = (seq << 32) | (count as u64 + 1);

        match kind {
            LinkKind::Local => {
                // local_send: shmem_ptr + memcpy, immediately visible,
                // then the ready publication.
                self.cells
                    .write(pe, peer, cell, &self.links[link].buf)
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
                    .write_nbi(pe, peer, cell, &self.links[link].buf)
                    .expect("landing cell bounds are static");
                self.links[link].in_flight[slot] = Some((seq, count));
                self.stats.nonblock_sends += 1;
                self.stats.item_copies += 2 * count as u64;
                self.trace_buf
                    .record_physical(SendType::NonblockSend, bytes, peer);
            }
        }
        self.links[link].flush_seq += 1;
        self.links[link].buf.clear();
    }

    /// nonblock_progress: one `shmem_quiet`, then a publishing put per
    /// in-flight delivery.
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
        for link in 0..self.links.len() {
            for slot in 0..2 {
                if let Some((seq, count)) = self.links[link].in_flight[slot].take() {
                    let peer = self.links[link].peer;
                    let rev = self.topology.reverse_link(self.grid, peer, self.me);
                    let ready_word = (seq << 32) | (count as u64 + 1);
                    self.cells
                        .publish(pe, peer, Self::slot_index(rev, slot), ready_word)
                        .expect("landing cell bounds are static");
                    let bytes = (count * std::mem::size_of::<Envelope<T>>()) as u64;
                    self.stats.nonblock_progress += 1;
                    self.trace_buf
                        .record_physical(SendType::NonblockProgress, bytes, peer);
                }
            }
        }
        self.need_progress = false;
    }

    /// Drain published landing cells, in per-link flush order: deliver
    /// items addressed to this PE to the pull queue, re-stage relayed items
    /// on their column link.
    fn consume_incoming(&mut self, pe: &Pe) {
        let n_links = self.links.len();
        for link in 0..n_links {
            // Consume strictly in sequence so pairwise ordering holds even
            // when double-buffered flushes are published out of order.
            loop {
                let expected = self.expect_seq[link];
                let Some(slot) = (0..2).find(|&s| {
                    let word = self.cells.state(pe, self.me, Self::slot_index(link, s));
                    word != 0 && (word >> 32) == expected
                }) else {
                    break;
                };
                if !self.consume_slot(pe, link, slot) {
                    // Relay buffer blocked: park THIS link (cursor saved)
                    // but keep draining the others — final-destination
                    // consumption elsewhere is what frees the relay's
                    // column cells, so returning here could deadlock a
                    // cycle of relays.
                    break;
                }
                self.expect_seq[link] += 1;
            }
        }
    }

    /// Consume one published cell. Returns `false` if consumption blocked
    /// on a full relay buffer (cursor saved for resumption).
    fn consume_slot(&mut self, pe: &Pe, link: usize, slot: usize) -> bool {
        let idx = Self::slot_index(link, slot);
        let word = self.cells.state(pe, self.me, idx);
        let count = ((word & 0xffff_ffff) - 1) as usize;
        let start = self.cursors[idx];
        let hop_begin = fabsp_hwpc::cycles_now();

        // Copy the unconsumed remainder out of the landing cell (the
        // receive-side memcpy), then process from a pooled scratch buffer.
        let mut scratch = self.pool.take();
        self.cells.read_local(pe, idx, |cell| {
            scratch.extend_from_slice(&cell[start..count]);
        });

        let mut processed = 0;
        let mut relayed_here = 0u64;
        let mut blocked = false;
        let mut forced = false;
        for env in &scratch {
            if env.final_dst as usize == self.me {
                self.deliver(env.origin, env.item);
                self.stats.item_copies += 1;
                processed += 1;
            } else {
                let rl = self.topology.relay_link(self.grid, self.me, env.final_dst as usize);
                if let Some(chaos) = &mut self.chaos {
                    if chaos.rng.gen_bool(chaos.park_probability) {
                        self.stats.forced_parks += 1;
                        forced = true;
                        blocked = true;
                        break;
                    }
                }
                if self.links[rl].buf.len() >= self.target {
                    self.flush_link(pe, rl);
                }
                if self.links[rl].buf.len() >= self.target {
                    blocked = true;
                    break;
                }
                self.links[rl].buf.push(*env);
                self.stats.relayed += 1;
                self.stats.item_copies += 1;
                processed += 1;
                relayed_here += 1;
            }
        }
        self.pool.give(scratch);
        self.cursors[idx] = start + processed;

        if relayed_here > 0 {
            let hop_end = fabsp_hwpc::cycles_now();
            self.trace_buf.record_span(Phase::RelayHop, hop_begin, hop_end);
            if let Some(m) = pe.metrics() {
                m.flight_span(Phase::RelayHop, hop_begin, hop_end);
            }
        }

        if blocked {
            // A park — chaos-forced or a genuinely full relay buffer —
            // stalls this link until a later advance resumes the cursor.
            if let Some(m) = pe.metrics() {
                let which = if forced {
                    Counter::ConveyorForcedParks
                } else {
                    Counter::ConveyorRelayParks
                };
                m.count(which);
                m.flight_note(which, 1);
            }
            if self.park_since[idx].is_none() {
                self.park_since[idx] = Some(fabsp_hwpc::cycles_now());
            }
            return false;
        }

        // Fully consumed: release the cell, which is also the ack that
        // hands the buffer back to the sender's free list.
        debug_assert_eq!(self.cursors[idx], count);
        self.cursors[idx] = 0;
        if let Some(since) = self.park_since[idx].take() {
            if let Some(m) = pe.metrics() {
                m.observe(
                    Hist::RelayParkCycles,
                    fabsp_hwpc::cycles_now().saturating_sub(since),
                );
            }
        }
        let src = self.topology.link_peer(self.grid, self.me, link);
        self.cells
            .release(pe, idx, src)
            .expect("own landing cell bounds are static");
        true
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
                ..ConveyorOptions::default()
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
            ..ConveyorOptions::default()
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
            ..ConveyorOptions::default()
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
            ..ConveyorOptions::default()
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
            ..ConveyorOptions::default()
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
    fn push_after_done_errors() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let _ = c.push(pe, 1, 0).unwrap();
            while c.advance(pe, true) {
                while c.pull().is_some() {}
            }
            assert!(matches!(
                // analyzer: allow(push-without-rearm): deliberate negative litmus — asserts the runtime rejects exactly this
                c.push(pe, 2, 0),
                Err(ConveyorError::PushAfterDone)
            ));
        })
        .unwrap();
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
                    ..ConveyorOptions::default()
                },
            );
            assert!(matches!(r, Err(ConveyorError::ZeroCapacity)));
        })
        .unwrap();
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
            let recs = collector.borrow().physical_records().to_vec();
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
    fn supersteps_reuse_pooled_buffers_without_allocating() {
        // The free-list claim: buffer allocations settle at construction
        // and stay flat across arbitrarily many reset supersteps.
        let grid = Grid::new(2, 2).unwrap();
        let allocs = spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let n = pe.n_pes();
            let mut per_round = Vec::new();
            for round in 0..4u64 {
                let mut sent = 0usize;
                loop {
                    while sent < n && c.push(pe, round, sent).unwrap().is_accepted() {
                        sent += 1;
                    }
                    let active = c.advance(pe, sent == n);
                    while c.pull().is_some() {}
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                per_round.push(c.stats().buffer_allocs);
                pe.barrier_all();
                c.reset(pe);
            }
            per_round
        })
        .unwrap();
        for per_round in &allocs {
            assert!(per_round[0] > 0, "construction takes buffers from the pool");
            for later in &per_round[1..] {
                assert_eq!(
                    *later, per_round[0],
                    "steady-state supersteps must not allocate"
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
            // analyzer: allow(rearm-before-terminate): deliberate negative litmus — the world must panic here
            c.reset(pe); // not terminated: must panic
        })
        .unwrap_err();
        assert!(err.to_string().contains("before the conveyor terminated"));
    }

    #[test]
    fn drain_and_park_reaches_checkpoint_ready() {
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
            c.drain_and_park(pe, |_| got += 1);
            assert!(c.is_complete());
            assert!(c.checkpoint_ready(), "parked conveyor is a valid cut");
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
                    ..ConveyorOptions::default()
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
        // Single PE, capacity 4: two landing cells plus one staged buffer
        // hold exactly 12 items, so a 64-item slice accepts a 12-prefix and
        // reports the refusal; resubmitting the remainder after advances
        // delivers everything in order.
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
            let items: Vec<u64> = (0..64).collect();
            let first = c.push_slice(pe, &items, 0).unwrap();
            assert_eq!(first.accepted, 12, "2 cells + 1 staging buffer of 4");
            assert!(first.retried >= 1, "the 13th item must report backpressure");
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
    fn adaptive_capacity_grows_under_refusals() {
        // Sustained oversized pushes refuse at the initial target; the
        // controller must raise the effective target (toward the physical
        // slab cap) while delivery stays complete and correct.
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 16,
                    adaptive: true,
                    ..ConveyorOptions::default()
                },
            )
            .unwrap();
            assert_eq!(c.capacity(), 16, "configured capacity is reported as-is");
            assert_eq!(c.effective_capacity(), 16);
            let total = 20_000usize;
            let items: Vec<u64> = (0..total as u64).collect();
            let mut sent = 0usize;
            let mut got = 0usize;
            loop {
                if sent < total {
                    sent += c.push_slice(pe, &items[sent..], 0).unwrap().accepted;
                }
                let active = c.advance(pe, sent == total);
                while let Some(b) = c.pull_batch() {
                    got += b.items.len();
                }
                if !active {
                    break;
                }
            }
            assert_eq!(got, total);
            let s = c.stats();
            assert!(s.capacity_grows > 0, "refusals must grow the target: {s:?}");
            assert!(
                c.effective_capacity() > 16,
                "target stuck at {}",
                c.effective_capacity()
            );
        })
        .unwrap();
    }

    #[test]
    fn adaptive_capacity_shrinks_when_the_backlog_piles_up() {
        // Deliver without pulling: the pull backlog blows past 4x the
        // target and the controller backs off toward the floor.
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 64,
                    adaptive: true,
                    ..ConveyorOptions::default()
                },
            )
            .unwrap();
            let items: Vec<u64> = (0..4096).collect();
            let mut sent = 0usize;
            for _ in 0..320 {
                if sent < items.len() {
                    sent += c.push_slice(pe, &items[sent..], 0).unwrap().accepted;
                }
                c.advance(pe, false);
                if c.stats().capacity_shrinks > 0 {
                    break;
                }
            }
            let s = c.stats();
            assert!(s.capacity_shrinks > 0, "backlog must shrink the target: {s:?}");
            assert!(c.effective_capacity() < 64);
            let mut got = 0usize;
            loop {
                let active = c.advance(pe, sent == items.len());
                while let Some(b) = c.pull_batch() {
                    got += b.items.len();
                }
                if !active {
                    break;
                }
                if sent < items.len() {
                    sent += c.push_slice(pe, &items[sent..], 0).unwrap().accepted;
                }
            }
            assert_eq!(got, items.len(), "shrinking must not lose deliveries");
        })
        .unwrap();
    }

    #[test]
    fn batch_buffers_recycle_across_supersteps() {
        // Single-PE self-traffic yields one origin run per round, so the
        // batch free list settles after round 0 and steady-state rounds
        // allocate nothing (mirrors the staging-pool flatness gate).
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
