//! The symmetric heap: remotely addressable per-PE regions.
//!
//! A [`SymmetricVec<T>`] is the moral equivalent of `shmem_malloc`: every PE
//! owns a region of the same length, and any PE can `put`/`get` into any
//! other PE's region by `(pe, offset)`.
//!
//! Two put flavours matter to ActorProf:
//!
//! - [`put`](SymmetricVec::put) — blocking; complete on return. Within a
//!   node this models the `shmem_ptr` + `std::memcpy` path Conveyors uses
//!   for `local_send`.
//! - [`put_nbi`](SymmetricVec::put_nbi) — non-blocking
//!   (`shmem_putmem_nbi`); the data is **not** visible at the target until
//!   the initiating PE calls [`Pe::quiet`]. Conveyors' `nonblock_send` /
//!   `nonblock_progress` pair is built on exactly this, and the deferral is
//!   why conventional profilers miss these routines (§V-B of the paper).
//!
//! Every region is guarded by its own lock; remote access is therefore
//! data-race-free by construction (the simulation's stand-in for the
//! network's serialization of RDMA writes).

use std::any::Any;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use fabsp_hwpc::cost::model;

use crate::checkpoint::CheckpointTarget;
use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::TransferClass;
use crate::pe::Pe;
use crate::sched::SchedPoint;

struct SymInner<T> {
    len: usize,
    grid: Grid,
    regions: Vec<Mutex<Box<[T]>>>,
    /// Allocation identity for the race detector's location map. The
    /// per-region mutex serializes the *bytes* (it models the NIC, not
    /// program order), so it deliberately contributes no happens-before
    /// edge: ordering must come from atomics, collectives, or quiet.
    #[cfg(feature = "race-detect")]
    race_id: u64,
}

/// Deep-copy in/out for checkpoints. Runs only inside a collective cut
/// (all PEs in the rendezvous, bracketed by its happens-before edges), so
/// the uninstrumented region reads/writes are race-free by construction.
impl<T: Copy + Send + Sync + 'static> CheckpointTarget for SymInner<T> {
    fn capture(&self) -> Box<dyn Any + Send + Sync> {
        let copy: Vec<Vec<T>> = self.regions.iter().map(|r| r.lock().to_vec()).collect();
        Box::new(copy)
    }

    fn restore(&self, snapshot: &(dyn Any + Send + Sync)) {
        let copy = snapshot
            .downcast_ref::<Vec<Vec<T>>>()
            .expect("checkpoint snapshot type mismatch for SymmetricVec");
        for (region, saved) in self.regions.iter().zip(copy) {
            region.lock().copy_from_slice(saved);
        }
    }
}

/// A symmetric array: one same-length region per PE, remotely addressable.
///
/// Clone is shallow (all clones refer to the same symmetric allocation).
pub struct SymmetricVec<T> {
    inner: Arc<SymInner<T>>,
}

impl<T> Clone for SymmetricVec<T> {
    fn clone(&self) -> Self {
        SymmetricVec {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Default + Send + Sync + 'static> SymmetricVec<T> {
    /// Collectively allocate a symmetric array of `len` elements per PE.
    /// All PEs must call with the same `len` (checked).
    ///
    /// Prefer [`Pe::alloc_sym`], which reads more naturally at call sites.
    pub fn new(pe: &Pe, len: usize) -> Result<SymmetricVec<T>, ShmemError> {
        let grid = pe.grid();
        let world = pe.world_arc();
        let arc = pe.run_collective(
            len,
            move |lens| -> Result<SymmetricVec<T>, ShmemError> {
                if lens.iter().any(|&l| l != lens[0]) {
                    return Err(ShmemError::CollectiveMismatch(format!(
                        "alloc_sym lengths differ across PEs: {lens:?}"
                    )));
                }
                let regions = (0..grid.n_pes())
                    .map(|_| Mutex::new(vec![T::default(); lens[0]].into_boxed_slice()))
                    .collect();
                let inner = Arc::new(SymInner {
                    len: lens[0],
                    grid,
                    regions,
                    #[cfg(feature = "race-detect")]
                    race_id: crate::race::next_alloc_id(),
                });
                // Inside the allocation collective's combine closure, so
                // registration happens exactly once per allocation, in the
                // same deterministic order on every attempt.
                world
                    .checkpoint
                    .register(Arc::downgrade(&inner) as Weak<dyn CheckpointTarget>);
                Ok(SymmetricVec { inner })
            },
        );
        (*arc).clone()
    }

    /// Length of each PE's region.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the per-PE regions are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    fn check(&self, pe: usize, offset: usize, len: usize) -> Result<(), ShmemError> {
        self.inner.grid.check_pe(pe)?;
        if offset.checked_add(len).is_none_or(|end| end > self.inner.len) {
            return Err(ShmemError::OutOfBounds {
                offset,
                len,
                region_len: self.inner.len,
            });
        }
        Ok(())
    }

    /// Record a tracked range access (no-op without a detector).
    #[cfg(feature = "race-detect")]
    fn trace_range(&self, pe: &Pe, owner: usize, start: usize, len: usize, write: bool, label: &'static str) {
        if let Some(d) = pe.race_detector() {
            if write {
                d.write_range(pe.rank(), self.inner.race_id, owner, start, len, label);
            } else {
                d.read_range(pe.rank(), self.inner.race_id, owner, start, len, label);
            }
        }
    }

    /// Read access to the calling PE's own region.
    pub fn read_local<R>(&self, pe: &Pe, f: impl FnOnce(&[T]) -> R) -> R {
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, pe.rank(), 0, self.inner.len, false, "SymmetricVec::read_local");
        f(&self.inner.regions[pe.rank()].lock())
    }

    /// Read access to `offset..offset + len` of the calling PE's own
    /// region. Semantically identical to [`read_local`](Self::read_local)
    /// plus slicing, but tells the race detector exactly which elements are
    /// touched — use it when other PEs legitimately write disjoint parts of
    /// the region concurrently.
    pub fn read_local_range<R>(
        &self,
        pe: &Pe,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[T]) -> R,
    ) -> Result<R, ShmemError> {
        self.check(pe.rank(), offset, len)?;
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, pe.rank(), offset, len, false, "SymmetricVec::read_local_range");
        let region = self.inner.regions[pe.rank()].lock();
        Ok(f(&region[offset..offset + len]))
    }

    /// Write access to the calling PE's own region.
    pub fn write_local<R>(&self, pe: &Pe, f: impl FnOnce(&mut [T]) -> R) -> R {
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, pe.rank(), 0, self.inner.len, true, "SymmetricVec::write_local");
        f(&mut self.inner.regions[pe.rank()].lock())
    }

    /// Read one element of the calling PE's own region.
    pub fn local_get(&self, pe: &Pe, index: usize) -> T {
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, pe.rank(), index, 1, false, "SymmetricVec::local_get");
        self.inner.regions[pe.rank()].lock()[index]
    }

    /// Write one element of the calling PE's own region.
    pub fn local_set(&self, pe: &Pe, index: usize, value: T) {
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, pe.rank(), index, 1, true, "SymmetricVec::local_set");
        self.inner.regions[pe.rank()].lock()[index] = value;
    }

    /// Direct access to a *same-node* PE's region (`shmem_ptr`).
    ///
    /// Returns `Err` if `target_pe` is on a different node — `shmem_ptr`
    /// returns NULL there, and Conveyors falls back to `nonblock_send`.
    pub fn with_same_node<R>(
        &self,
        pe: &Pe,
        target_pe: usize,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Result<R, ShmemError> {
        self.inner.grid.check_pe(target_pe)?;
        if !pe.same_node_as(target_pe) {
            return Err(ShmemError::InvalidPe {
                pe: target_pe,
                n_pes: self.inner.grid.n_pes(),
            });
        }
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, target_pe, 0, self.inner.len, true, "SymmetricVec::with_same_node");
        Ok(f(&mut self.inner.regions[target_pe].lock()))
    }

    /// Blocking put: copy `src` into `dst_pe`'s region at `offset`.
    /// Complete (remotely visible) on return.
    pub fn put(&self, pe: &Pe, dst_pe: usize, offset: usize, src: &[T]) -> Result<(), ShmemError> {
        self.check(dst_pe, offset, src.len())?;
        pe.sched_point(SchedPoint::Put);
        let bytes = std::mem::size_of_val(src);
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, dst_pe, offset, src.len(), true, "SymmetricVec::put");
        {
            let mut region = self.inner.regions[dst_pe].lock();
            region[offset..offset + src.len()].copy_from_slice(src);
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

    /// Blocking get: copy from `src_pe`'s region at `offset` into `dst`.
    pub fn get(
        &self,
        pe: &Pe,
        src_pe: usize,
        offset: usize,
        dst: &mut [T],
    ) -> Result<(), ShmemError> {
        self.check(src_pe, offset, dst.len())?;
        pe.sched_point(SchedPoint::Get);
        let bytes = std::mem::size_of_val(dst);
        #[cfg(feature = "race-detect")]
        self.trace_range(pe, src_pe, offset, dst.len(), false, "SymmetricVec::get");
        {
            let region = self.inner.regions[src_pe].lock();
            dst.copy_from_slice(&region[offset..offset + dst.len()]);
        }
        if pe.same_node_as(src_pe) {
            model::MEMCPY_PER_BYTE.times(bytes as u64).charge();
            pe.record_net(TransferClass::LocalCopy, bytes);
        } else {
            model::PUTMEM_NBI.charge();
            model::MEMCPY_PER_BYTE.times(bytes as u64).charge();
            pe.record_net(TransferClass::RemoteGet, bytes);
        }
        Ok(())
    }

    /// Non-blocking put (`shmem_putmem_nbi`): schedule `src` to be copied
    /// into `dst_pe`'s region at `offset`.
    ///
    /// The transfer is **deferred**: it is applied — and only then becomes
    /// visible at `dst_pe` — when this PE next calls [`Pe::quiet`] (or an
    /// operation that implies it, like [`Pe::barrier_all`]). The source
    /// data is captured at call time, mirroring the network's DMA read of
    /// the (Conveyors double-buffered, hence stable) source buffer.
    pub fn put_nbi(
        &self,
        pe: &Pe,
        dst_pe: usize,
        offset: usize,
        src: &[T],
    ) -> Result<(), ShmemError> {
        self.check(dst_pe, offset, src.len())?;
        pe.sched_point(SchedPoint::PutNbi);
        let bytes = std::mem::size_of_val(src);
        let inner = Arc::clone(&self.inner);
        let data: Vec<T> = src.to_vec();
        // The write *event* is deferred with the data: until quiet applies
        // the copy, the target legitimately sees (and may read) the old
        // bytes, so staging is not itself an access.
        #[cfg(feature = "race-detect")]
        let detector = pe.race_detector().map(Arc::clone);
        #[cfg(feature = "race-detect")]
        let rank = pe.rank();
        pe.push_pending(
            bytes,
            Box::new(move || {
                #[cfg(feature = "race-detect")]
                if let Some(d) = &detector {
                    d.write_range(
                        rank,
                        inner.race_id,
                        dst_pe,
                        offset,
                        data.len(),
                        "SymmetricVec::put_nbi (quiet)",
                    );
                }
                let mut region = inner.regions[dst_pe].lock();
                region[offset..offset + data.len()].copy_from_slice(&data);
            }),
        );
        model::PUTMEM_NBI.charge();
        pe.record_net(TransferClass::NonBlockingPut, bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd;

    #[test]
    fn put_is_immediately_visible() {
        let grid = Grid::single_node(2).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(4);
            if pe.rank() == 0 {
                sym.put(pe, 1, 1, &[7, 8]).unwrap();
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                assert_eq!(sym.read_local(pe, |v| v.to_vec()), vec![0, 7, 8, 0]);
            }
        })
        .unwrap();
    }

    #[test]
    fn put_nbi_is_invisible_until_quiet() {
        let grid = Grid::new(2, 1).unwrap(); // 2 nodes so nbi is the natural path
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            let flag = pe.alloc_sym_atomic(1);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 0, &[42]).unwrap();
                assert_eq!(pe.pending_nbi(), 1);
                // Signal "initiated" — data must NOT be there yet.
                flag.store(pe, 1, 0, 1).unwrap();
                flag.wait_until(pe, 0, |v| v == 1); // wait for PE1's ack
                let flushed = pe.quiet();
                assert_eq!(flushed, 8);
                flag.store(pe, 1, 0, 2).unwrap(); // signal "completed"
            } else {
                flag.wait_until(pe, 0, |v| v == 1);
                assert_eq!(sym.local_get(pe, 0), 0, "nbi data visible before quiet");
                flag.store(pe, 0, 0, 1).unwrap();
                flag.wait_until(pe, 0, |v| v == 2);
                assert_eq!(sym.local_get(pe, 0), 42, "nbi data missing after quiet");
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn barrier_implies_quiet() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u32>(1);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 0, &[9]).unwrap();
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                assert_eq!(sym.local_get(pe, 0), 9);
            }
        })
        .unwrap();
    }

    #[test]
    fn out_of_bounds_put_is_rejected() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u8>(4);
            let err = sym.put(pe, 0, 3, &[1, 2]).unwrap_err();
            assert!(matches!(err, ShmemError::OutOfBounds { .. }));
            let err = sym.put(pe, 5, 0, &[1]).unwrap_err();
            assert!(matches!(err, ShmemError::InvalidPe { .. }));
        })
        .unwrap();
    }

    #[test]
    fn shmem_ptr_only_works_within_node() {
        let grid = Grid::new(2, 2).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            if pe.rank() == 0 {
                // PE 1 is same node: direct access ok.
                sym.with_same_node(pe, 1, |v| v[0] = 5).unwrap();
                // PE 2 is on node 1: shmem_ptr "returns NULL".
                assert!(sym.with_same_node(pe, 2, |v| v[0] = 5).is_err());
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                assert_eq!(sym.local_get(pe, 0), 5);
            }
        })
        .unwrap();
    }

    #[test]
    fn mismatched_alloc_lengths_error() {
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            SymmetricVec::<u8>::new(pe, pe.rank() + 1).err().is_some()
        })
        .unwrap();
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn net_stats_classify_local_vs_remote() {
        let grid = Grid::new(2, 2).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u8>(16);
            if pe.rank() == 0 {
                sym.put(pe, 1, 0, &[1; 16]).unwrap(); // intra-node
                sym.put(pe, 2, 0, &[1; 16]).unwrap(); // inter-node
                sym.put_nbi(pe, 3, 0, &[1; 8]).unwrap(); // inter-node nbi
                pe.quiet();
                let s = pe.net_stats();
                assert_eq!(s.local_copy.bytes, 16);
                assert_eq!(s.remote_put.bytes, 16);
                assert_eq!(s.nbi_put.bytes, 8);
                assert_eq!(s.quiet.ops, 1);
                assert_eq!(s.quiet.bytes, 8);
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn quiet_with_nothing_pending_is_free() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            assert_eq!(pe.quiet(), 0);
            assert_eq!(pe.net_stats().quiet.ops, 0);
        })
        .unwrap();
    }

    #[test]
    fn get_reads_remote_region() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u16>(3);
            sym.write_local(pe, |v| {
                let base = pe.rank() as u16 * 10;
                v.copy_from_slice(&[base, base + 1, base + 2]);
            });
            pe.barrier_all();
            let mut buf = [0u16; 2];
            let other = 1 - pe.rank();
            sym.get(pe, other, 1, &mut buf).unwrap();
            assert_eq!(buf, [other as u16 * 10 + 1, other as u16 * 10 + 2]);
            pe.barrier_all();
        })
        .unwrap();
    }
}
