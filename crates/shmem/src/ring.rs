//! Lock-free single-producer/single-consumer link cells.
//!
//! A [`SpscRing`] gives every PE a fixed set of *cells*; each cell is one
//! landing slot of a directed communication link: a data buffer of
//! `capacity` items, an optional *side table* of `side_capacity` entries of
//! a second type (the conveyor's per-slab route table; empty for plain
//! rings) and one atomic *state word*. Items and side table travel in the
//! same put and are covered by the same publication edge. The state word
//! doubles as ready signal and free-list entry:
//!
//! - `0` — the cell is **free**: owned by its (single) remote producer,
//!   which may fill the buffer and publish.
//! - non-zero — the cell is **published**: owned by the consumer (the PE
//!   the cell lives on) until it calls [`release`](SpscRing::release),
//!   which hands the cell back to the producer. The word's payload
//!   (sequence numbers, item counts, ...) is the caller's business.
//!
//! Publication is a `Release` store matched by `Acquire` loads, so the
//! buffer contents written before [`publish`](SpscRing::publish) are
//! visible to a consumer that observed the word — and the `Release` store
//! of 0 in `release` conversely hands the (now consumed) buffer back to a
//! producer that observes the cell free. No mutex anywhere: this is the
//! conveyor hot path, and it replaces the mutex-guarded symmetric-heap
//! landing zones plus the separate ack counters of the original design.
//!
//! ## Accounting
//!
//! The cost-model and network-ledger charges mirror the symmetric-heap
//! operations each call models (so the profiler observes the same calls
//! whether bytes land in a ring cell or a heap region):
//!
//! - [`write`](SpscRing::write) ≙ [`SymmetricVec::put`]: the `shmem_ptr` +
//!   memcpy (same node) or blocking put (cross node).
//! - [`write_nbi`](SpscRing::write_nbi) ≙ [`SymmetricVec::put_nbi`]: a
//!   `shmem_putmem_nbi` — it registers with the PE's pending-put queue so
//!   [`Pe::quiet`]/[`Pe::pending_nbi`] behave identically, but (unlike the
//!   mutex path) captures no data and allocates nothing: the bytes land in
//!   the cell immediately and simply stay unpublished until after `quiet`.
//! - [`publish`](SpscRing::publish) / [`release`](SpscRing::release) ≙ the
//!   signalling atomic puts ([`crate::SymmetricAtomicVec::store`] /
//!   `fetch_add`).
//!
//! ## Protocol obligations (checked by debug assertions)
//!
//! The type is safe to *use* but the single-producer/single-consumer
//! discipline is structural: exactly one PE may produce into a given cell
//! (in the conveyor, topology construction guarantees it — each cell
//! belongs to one directed link), writes may only target **free** cells,
//! and reads may only touch **published** cells. Violations are caught by
//! `debug_assert!`s on the state word.
//!
//! [`SymmetricVec::put`]: crate::SymmetricVec::put
//! [`SymmetricVec::put_nbi`]: crate::SymmetricVec::put_nbi

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabsp_hwpc::cost::model;

use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::TransferClass;
use crate::pe::Pe;
use crate::sched::SchedPoint;

/// One landing cell, padded to 128 bytes so adjacent cells' state words
/// never share a cache line (nor the adjacent line the spatial prefetcher
/// pairs with it). The cells of a PE sit contiguously in `regions`, and
/// each state word is spun on by a *different* remote producer while the
/// owner releases — without the padding, every publish/release would
/// false-share with its neighbors' polls.
#[repr(align(128))]
struct RingCell<T, S> {
    state: AtomicU64,
    data: UnsafeCell<Box<[T]>>,
    side: UnsafeCell<Box<[S]>>,
}

struct RingInner<T, S> {
    grid: Grid,
    cells_per_pe: usize,
    capacity: usize,
    side_capacity: usize,
    /// `regions[pe][cell]`.
    regions: Vec<Box<[RingCell<T, S>]>>,
    /// Allocation identity for the race detector's location map.
    #[cfg(feature = "race-detect")]
    race_id: u64,
}

// SAFETY: cross-thread access to the UnsafeCell'd buffers (items and side
// table alike) follows the SPSC protocol documented above — a producer
// writes only while it owns the cell (state == 0, single producer per
// cell), a consumer reads only while the cell is published, and ownership
// transfers through Release/Acquire on the state word. `T: Send` and
// `S: Send` are required because values move between threads.
unsafe impl<T: Send, S: Send> Sync for RingInner<T, S> {}
// SAFETY: RingInner owns its buffers; moving the allocation to another
// thread moves the `T`s and `S`s with it, which the `Send` bounds permit.
// No thread affinity exists anywhere in the structure (the per-PE
// discipline lives in `Pe`, not here).
unsafe impl<T: Send, S: Send> Send for RingInner<T, S> {}

/// Symmetric lock-free SPSC link cells; see the module docs. `S` is the
/// side-table entry type (`()` for a ring without one).
///
/// Clone is shallow (all clones refer to the same allocation).
pub struct SpscRing<T, S = ()> {
    inner: Arc<RingInner<T, S>>,
}

impl<T, S> Clone for SpscRing<T, S> {
    fn clone(&self) -> Self {
        SpscRing {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Default + Send + 'static> SpscRing<T> {
    /// Collectively allocate `cells` cells of `capacity` items (and no side
    /// table) on every PE. All PEs must call with the same shape (checked).
    pub fn new(pe: &Pe, cells: usize, capacity: usize) -> Result<SpscRing<T>, ShmemError> {
        SpscRing::with_side(pe, cells, capacity, 0)
    }
}

impl<T, S> SpscRing<T, S>
where
    T: Copy + Default + Send + 'static,
    S: Copy + Default + Send + 'static,
{
    /// Collectively allocate `cells` cells of `capacity` items plus a side
    /// table of `side_capacity` entries on every PE. All PEs must call with
    /// the same shape (checked).
    pub fn with_side(
        pe: &Pe,
        cells: usize,
        capacity: usize,
        side_capacity: usize,
    ) -> Result<SpscRing<T, S>, ShmemError> {
        let grid = pe.grid();
        let arc = pe.run_collective(
            (cells, capacity, side_capacity),
            move |shapes| -> Result<SpscRing<T, S>, ShmemError> {
                if shapes.iter().any(|&s| s != shapes[0]) {
                    return Err(ShmemError::CollectiveMismatch(format!(
                        "SpscRing shapes differ across PEs: {shapes:?}"
                    )));
                }
                let regions = (0..grid.n_pes())
                    .map(|_| {
                        (0..cells)
                            .map(|_| RingCell {
                                state: AtomicU64::new(0),
                                data: UnsafeCell::new(
                                    vec![T::default(); capacity].into_boxed_slice(),
                                ),
                                side: UnsafeCell::new(
                                    vec![S::default(); side_capacity].into_boxed_slice(),
                                ),
                            })
                            .collect()
                    })
                    .collect();
                Ok(SpscRing {
                    inner: Arc::new(RingInner {
                        grid,
                        cells_per_pe: cells,
                        capacity,
                        side_capacity,
                        regions,
                        #[cfg(feature = "race-detect")]
                        race_id: crate::race::next_alloc_id(),
                    }),
                })
            },
        );
        (*arc).clone()
    }

    /// Cells per PE.
    #[inline]
    pub fn cells_per_pe(&self) -> usize {
        self.inner.cells_per_pe
    }

    /// Items per cell buffer.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    fn check(&self, pe: usize, cell: usize, len: usize, side_len: usize) -> Result<(), ShmemError> {
        self.inner.grid.check_pe(pe)?;
        if cell >= self.inner.cells_per_pe || len > self.inner.capacity {
            return Err(ShmemError::OutOfBounds {
                offset: cell,
                len,
                region_len: self.inner.capacity,
            });
        }
        if side_len > self.inner.side_capacity {
            return Err(ShmemError::OutOfBounds {
                offset: cell,
                len: side_len,
                region_len: self.inner.side_capacity,
            });
        }
        Ok(())
    }

    /// The detector's name for `owner_pe`'s cell (state word and item
    /// buffer share it: the two live in separate sync/data maps).
    #[cfg(feature = "race-detect")]
    fn loc(&self, owner_pe: usize, cell: usize) -> crate::race::Loc {
        crate::race::Loc {
            alloc: self.inner.race_id,
            owner: owner_pe,
            index: cell,
        }
    }

    /// The detector's name for the cell's side table: a data location of
    /// its own (indexed past the item buffers), ordered by the same state
    /// word as the items.
    #[cfg(feature = "race-detect")]
    fn side_loc(&self, owner_pe: usize, cell: usize) -> crate::race::Loc {
        crate::race::Loc {
            alloc: self.inner.race_id,
            owner: owner_pe,
            index: self.inner.cells_per_pe + cell,
        }
    }

    /// Poll `owner_pe`'s cell state word (`Acquire`; unaccounted — this
    /// models spinning on an in-memory delivery flag). Producers poll for
    /// `0` (free), consumers for non-zero (published).
    #[inline]
    pub fn state(&self, pe: &Pe, owner_pe: usize, cell: usize) -> u64 {
        debug_assert!(owner_pe < self.inner.grid.n_pes());
        debug_assert!(cell < self.inner.cells_per_pe);
        #[cfg(feature = "race-detect")]
        if pe
            .race_detector()
            .is_some_and(|d| d.hooks().downgrade_ring_acquire)
        {
            // LITMUS HOOK: a Relaxed poll observes the word without the
            // publication edge — the detector must flag the consumer's
            // subsequent buffer read as unordered with the producer's fill.
            return self.load_state(pe, owner_pe, cell, Ordering::Relaxed);
        }
        self.load_state(pe, owner_pe, cell, Ordering::Acquire)
    }

    /// Load `owner_pe`'s cell state word with `order`. The one load both
    /// builds run: under race-detect an Acquire-class `order` is also the
    /// detector's acquire edge, and a `Relaxed` one is not — so weakening
    /// a caller's ordering is what the detector sees.
    #[inline(always)]
    #[cfg_attr(not(feature = "race-detect"), allow(unused_variables))]
    fn load_state(&self, pe: &Pe, owner_pe: usize, cell: usize, order: Ordering) -> u64 {
        let c = &self.inner.regions[owner_pe][cell];
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector().filter(|_| order != Ordering::Relaxed) {
            return d.sync_acquire(pe.rank(), self.loc(owner_pe, cell), || c.state.load(order));
        }
        c.state.load(order)
    }

    /// Store `word` into `owner_pe`'s cell state word with `order`. The
    /// one store both builds run: under race-detect a Release-class
    /// `order` is also the detector's release edge, and a `Relaxed` one is
    /// not.
    #[inline(always)]
    #[cfg_attr(not(feature = "race-detect"), allow(unused_variables))]
    fn store_state(&self, pe: &Pe, owner_pe: usize, cell: usize, word: u64, order: Ordering) {
        let c = &self.inner.regions[owner_pe][cell];
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector().filter(|_| order != Ordering::Relaxed) {
            return d.sync_release(pe.rank(), self.loc(owner_pe, cell), || {
                c.state.store(word, order)
            });
        }
        c.state.store(word, order)
    }

    /// Read `owner_pe`'s cell state word `Relaxed` and with no race-detect
    /// edge, for the double-publish and double-release `debug_assert`s of
    /// [`publish`](Self::publish) and [`release`](Self::release). The
    /// checks order nothing: the `Release` store that follows each is the
    /// edge, and keeping their loads here lets the policy hold those two
    /// functions to `Release` alone.
    fn peek_state(&self, owner_pe: usize, cell: usize) -> u64 {
        self.inner.regions[owner_pe][cell]
            .state
            .load(Ordering::Relaxed)
    }

    /// Copy `src` (and the side table `side`, possibly empty) into
    /// `dst_pe`'s cell as one *blocking* put: the data is in place on return
    /// (visible once the caller publishes). The cell must be free and owned
    /// by this producer.
    pub fn write(
        &self,
        pe: &Pe,
        dst_pe: usize,
        cell: usize,
        src: &[T],
        side: &[S],
    ) -> Result<(), ShmemError> {
        self.check(dst_pe, cell, src.len(), side.len())?;
        pe.sched_point(SchedPoint::Put);
        let bytes = std::mem::size_of_val(src) + std::mem::size_of_val(side);
        self.fill(dst_pe, cell, src, side);
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector() {
            d.write(pe.rank(), self.loc(dst_pe, cell), "SpscRing::write");
            if !side.is_empty() {
                d.write(pe.rank(), self.side_loc(dst_pe, cell), "SpscRing::write (side table)");
            }
        }
        if pe.same_node_as(dst_pe) {
            model::MEMCPY_PER_BYTE.times(bytes as u64).charge();
            pe.record_net(TransferClass::LocalCopy, bytes);
        } else {
            model::PUTMEM_NBI.charge();
            model::MEMCPY_PER_BYTE.times(bytes as u64).charge();
            pe.record_net(TransferClass::RemotePut, bytes);
        }
        Ok(())
    }

    /// Copy `src` (and the side table `side`, possibly empty) into
    /// `dst_pe`'s cell as one non-blocking put (`shmem_putmem_nbi`): the
    /// caller must not publish the cell until after its next [`Pe::quiet`].
    /// Registers with the pending-put queue (so `pending_nbi`/`quiet` byte
    /// accounting are exact) but captures no data — the double-buffered
    /// source is stable until the slot recycles, so, unlike the
    /// symmetric-heap path, no per-flush allocation happens.
    pub fn write_nbi(
        &self,
        pe: &Pe,
        dst_pe: usize,
        cell: usize,
        src: &[T],
        side: &[S],
    ) -> Result<(), ShmemError> {
        self.check(dst_pe, cell, src.len(), side.len())?;
        pe.sched_point(SchedPoint::PutNbi);
        let bytes = std::mem::size_of_val(src) + std::mem::size_of_val(side);
        self.fill(dst_pe, cell, src, side);
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector() {
            // The buffers are physically filled now, but semantically the
            // put is in flight until quiet: mark the cell (and its side
            // table, when one travels) nbi-pending and defer the write
            // events to the quiet-time flush below.
            let loc = self.loc(dst_pe, cell);
            let side_loc = (!side.is_empty()).then(|| self.side_loc(dst_pe, cell));
            let rank = pe.rank();
            d.nbi_staged(rank, loc, "SpscRing::write_nbi");
            if let Some(side_loc) = side_loc {
                d.nbi_staged(rank, side_loc, "SpscRing::write_nbi (side table)");
            }
            let d = Arc::clone(d);
            pe.push_pending(
                bytes,
                Box::new(move || {
                    d.nbi_delivered(rank, loc, "SpscRing::write_nbi (quiet)");
                    if let Some(side_loc) = side_loc {
                        d.nbi_delivered(rank, side_loc, "SpscRing::write_nbi (side table, quiet)");
                    }
                }),
            );
        } else {
            pe.push_pending(bytes, Box::new(|| {}));
        }
        #[cfg(not(feature = "race-detect"))]
        // Zero-sized closure: Box::new performs no allocation.
        pe.push_pending(bytes, Box::new(|| {}));
        model::PUTMEM_NBI.charge();
        pe.record_net(TransferClass::NonBlockingPut, bytes);
        Ok(())
    }

    fn fill(&self, dst_pe: usize, cell: usize, src: &[T], side: &[S]) {
        let c = &self.inner.regions[dst_pe][cell];
        debug_assert_eq!(
            c.state.load(Ordering::Acquire),
            0,
            "SPSC protocol violation: write into a published cell"
        );
        // SAFETY: the cell is free (state == 0) and this PE is its single
        // producer, so no other thread reads or writes the item buffer
        // until we publish (see RingInner's Sync justification).
        let dst = unsafe { &mut *c.data.get() };
        dst[..src.len()].copy_from_slice(src);
        if !side.is_empty() {
            // SAFETY: as above — the side table belongs to the same free
            // cell, so its single producer owns it exclusively until the
            // publish.
            let dst = unsafe { &mut *c.side.get() };
            dst[..side.len()].copy_from_slice(side);
        }
    }

    /// Publish `dst_pe`'s cell with a non-zero state `word` (`Release`) —
    /// the signalling atomic put that makes a prior [`write`](Self::write)
    /// or quiesced [`write_nbi`](Self::write_nbi) consumable.
    pub fn publish(
        &self,
        pe: &Pe,
        dst_pe: usize,
        cell: usize,
        word: u64,
    ) -> Result<(), ShmemError> {
        self.check(dst_pe, cell, 0, 0)?;
        debug_assert_ne!(word, 0, "0 is the free-cell sentinel");
        pe.sched_point(SchedPoint::Atomic);
        debug_assert_eq!(
            self.peek_state(dst_pe, cell),
            0,
            "SPSC protocol violation: double publish"
        );
        self.store_state(pe, dst_pe, cell, word, Ordering::Release);
        if dst_pe != pe.rank() {
            pe.record_net(TransferClass::Atomic, std::mem::size_of::<u64>());
        }
        Ok(())
    }

    /// Read the calling PE's own published cell's item buffer.
    pub fn read_local<R>(&self, pe: &Pe, cell: usize, f: impl FnOnce(&[T]) -> R) -> R {
        debug_assert!(cell < self.inner.cells_per_pe);
        let c = &self.inner.regions[pe.rank()][cell];
        debug_assert_ne!(
            c.state.load(Ordering::Acquire),
            0,
            "SPSC protocol violation: read of a free cell"
        );
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector() {
            d.read(pe.rank(), self.loc(pe.rank(), cell), "SpscRing::read_local");
        }
        // SAFETY: the cell is published, so its single producer will not
        // touch the buffer until this PE releases it.
        f(unsafe { &*c.data.get() })
    }

    /// Read the calling PE's own published cell's side table. How many
    /// leading entries are meaningful is the caller's business (the
    /// conveyor packs the count into the state word).
    pub fn read_side<R>(&self, pe: &Pe, cell: usize, f: impl FnOnce(&[S]) -> R) -> R {
        debug_assert!(cell < self.inner.cells_per_pe);
        let c = &self.inner.regions[pe.rank()][cell];
        debug_assert_ne!(
            c.state.load(Ordering::Acquire),
            0,
            "SPSC protocol violation: read of a free cell"
        );
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector() {
            d.read(pe.rank(), self.side_loc(pe.rank(), cell), "SpscRing::read_side");
        }
        // SAFETY: the cell is published, so its single producer will not
        // touch the side table until this PE releases it.
        f(unsafe { &*c.side.get() })
    }

    /// Mark the calling PE's own cell free again (`Release` store of 0) —
    /// the ack that returns the buffer to `producer_pe`'s free list.
    pub fn release(&self, pe: &Pe, cell: usize, producer_pe: usize) -> Result<(), ShmemError> {
        self.check(pe.rank(), cell, 0, 0)?;
        self.inner.grid.check_pe(producer_pe)?;
        pe.sched_point(SchedPoint::Atomic);
        debug_assert_ne!(
            self.peek_state(pe.rank(), cell),
            0,
            "SPSC protocol violation: release of a free cell"
        );
        self.store_state(pe, pe.rank(), cell, 0, Ordering::Release);
        if producer_pe != pe.rank() {
            pe.record_net(TransferClass::Atomic, std::mem::size_of::<u64>());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedSpec;
    use crate::spmd::{self, Harness};

    /// Ping a stream of buffers 0 -> 1 through `cells` cells reused
    /// round-robin; the consumer checks strict FIFO via the sequence
    /// embedded in the state word. Exercises wrap-around: `rounds` is far
    /// larger than the cell count.
    fn fifo_roundtrip(grid: Grid, cells: usize, rounds: u64, sched: Option<u64>) {
        let harness = match sched {
            Some(seed) => Harness::new(grid).sched(SchedSpec::random_walk(seed)),
            None => Harness::new(grid),
        };
        let results = spmd::run(harness, move |pe| {
            let ring = SpscRing::<u64>::new(pe, cells, 4).unwrap();
            let mut seen = Vec::new();
            if pe.rank() == 0 {
                for seq in 0..rounds {
                    let cell = (seq as usize) % cells;
                    while ring.state(pe, 1, cell) != 0 {
                        pe.poll_yield();
                    }
                    ring.write(pe, 1, cell, &[seq * 10, seq * 10 + 1], &[]).unwrap();
                    ring.publish(pe, 1, cell, (seq << 32) | 3).unwrap();
                }
            } else {
                let mut expect = 0u64;
                while expect < rounds {
                    let cell = (expect as usize) % cells;
                    let word = ring.state(pe, pe.rank(), cell);
                    if word == 0 || (word >> 32) != expect {
                        pe.poll_yield();
                        continue;
                    }
                    let count = ((word & 0xffff_ffff) - 1) as usize;
                    ring.read_local(pe, cell, |buf| seen.extend_from_slice(&buf[..count]));
                    ring.release(pe, cell, 0).unwrap();
                    expect += 1;
                }
            }
            pe.barrier_all();
            seen
        })
        .unwrap();
        let expected: Vec<u64> = (0..rounds).flat_map(|s| [s * 10, s * 10 + 1]).collect();
        assert_eq!(results[1], expected, "FIFO order violated");
    }

    #[test]
    fn fifo_survives_cell_wraparound() {
        fifo_roundtrip(Grid::single_node(2).unwrap(), 2, 100, None);
    }

    #[test]
    fn fifo_holds_under_seeded_scheduler() {
        for seed in 0..4 {
            fifo_roundtrip(Grid::single_node(2).unwrap(), 2, 25, Some(seed));
        }
    }

    #[test]
    fn single_cell_backpressure_blocks_producer_until_release() {
        // With one cell the producer must observe the consumer's release
        // before every send: full/empty alternation, still FIFO.
        fifo_roundtrip(Grid::single_node(2).unwrap(), 1, 50, None);
        fifo_roundtrip(Grid::single_node(2).unwrap(), 1, 20, Some(7));
    }

    #[test]
    fn ring_cells_do_not_share_cache_lines() {
        // The padding audit: each (link, slot) state word must own its own
        // 128-byte region so remote producers' polls never false-share
        // with neighboring cells.
        assert_eq!(std::mem::align_of::<RingCell<u64, ()>>(), 128);
        assert_eq!(std::mem::size_of::<RingCell<u64, [u32; 3]>>(), 128);
        assert_eq!(std::mem::size_of::<RingCell<[u8; 200], ()>>() % 128, 0);
    }

    #[test]
    fn bounds_and_shape_are_checked() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let ring = SpscRing::<u8>::new(pe, 2, 4).unwrap();
            assert!(matches!(
                ring.write(pe, 0, 5, &[1], &[]),
                Err(ShmemError::OutOfBounds { .. })
            ));
            assert!(matches!(
                ring.write(pe, 0, 0, &[0; 9], &[]),
                Err(ShmemError::OutOfBounds { .. })
            ));
            assert!(matches!(
                ring.write(pe, 3, 0, &[1], &[]),
                Err(ShmemError::InvalidPe { .. })
            ));
        })
        .unwrap();
    }

    #[test]
    fn side_table_travels_with_the_items_and_is_bounds_checked() {
        // One put carries both arrays: the byte accounting is their sum and
        // the consumer sees both after the single publish.
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let ring = SpscRing::<u64, [u32; 3]>::with_side(pe, 1, 4, 2).unwrap();
            if pe.rank() == 0 {
                assert!(matches!(
                    ring.write_nbi(pe, 1, 0, &[1], &[[0; 3]; 3]),
                    Err(ShmemError::OutOfBounds { len: 3, region_len: 2, .. })
                ));
                ring.write_nbi(pe, 1, 0, &[5, 6], &[[1, 0, 2]]).unwrap();
                assert_eq!(pe.quiet(), 2 * 8 + 12, "items and side table in one put");
                assert_eq!(pe.net_stats().nbi_put.ops, 1);
                ring.publish(pe, 1, 0, 1).unwrap();
            } else {
                while ring.state(pe, 1, 0) == 0 {
                    pe.poll_yield();
                }
                ring.read_local(pe, 0, |b| assert_eq!(&b[..2], &[5, 6]));
                ring.read_side(pe, 0, |s| assert_eq!(s[0], [1, 0, 2]));
                ring.release(pe, 0, 0).unwrap();
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn mismatched_shapes_error_collectively() {
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            SpscRing::<u8>::new(pe, pe.rank() + 1, 4).err().is_some()
        })
        .unwrap();
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn write_nbi_registers_pending_and_quiet_flushes_bytes() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let ring = SpscRing::<u64>::new(pe, 1, 4).unwrap();
            if pe.rank() == 0 {
                ring.write_nbi(pe, 1, 0, &[1, 2, 3], &[]).unwrap();
                assert_eq!(pe.pending_nbi(), 1);
                assert_eq!(pe.quiet(), 24, "3 u64s flushed");
                ring.publish(pe, 1, 0, 4).unwrap();
                let s = pe.net_stats();
                assert_eq!(s.nbi_put.ops, 1);
                assert_eq!(s.nbi_put.bytes, 24);
                assert_eq!(s.quiet.ops, 1);
                assert_eq!(s.atomic.ops, 1, "cross-PE publish is one atomic");
            } else {
                while ring.state(pe, 1, 0) == 0 {
                    pe.poll_yield();
                }
                ring.read_local(pe, 0, |b| assert_eq!(&b[..3], &[1, 2, 3]));
                ring.release(pe, 0, 0).unwrap();
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn accounting_matches_symmetric_heap_classes() {
        let grid = Grid::new(2, 2).unwrap();
        spmd::run(grid, |pe| {
            let ring = SpscRing::<u8>::new(pe, 1, 16).unwrap();
            if pe.rank() == 0 {
                ring.write(pe, 1, 0, &[7; 16], &[]).unwrap(); // same node
                let s = pe.net_stats();
                assert_eq!(s.local_copy, crate::net::ClassStats { ops: 1, bytes: 16 });
                ring.publish(pe, 1, 0, 1).unwrap();
                assert_eq!(pe.net_stats().atomic.ops, 1);
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                ring.release(pe, 0, 0).unwrap();
                // releasing to a same-node producer still models the ack put
                assert_eq!(pe.net_stats().atomic.ops, 1);
            }
            pe.barrier_all();
        })
        .unwrap();
    }
}
