//! The symmetric heap: remotely addressable per-PE regions.
//!
//! A [`SymmetricVec<T>`] is the moral equivalent of `shmem_malloc`: every PE
//! owns a region of the same length, and any PE can put into any other
//! PE's region by `(pe, offset)`.
//!
//! The one put is [`put_nbi`](SymmetricVec::put_nbi) — non-blocking
//! (`shmem_putmem_nbi`); the data is **not** visible at the target until
//! the initiating PE calls [`Pe::quiet`]. Conveyors' `nonblock_send` /
//! `nonblock_progress` pair is built on exactly this, and the deferral is
//! why conventional profilers miss these routines (§V-B of the paper).
//! The blocking `shmem_ptr` + `memcpy` path is [`crate::SpscRing::write`].
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
    /// edge: ordering must come from ring state words, collectives, or
    /// quiet.
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
    fn put_nbi_is_invisible_until_quiet() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            sym.put_nbi(pe, 0, 0, &[42]).unwrap();
            assert_eq!(pe.pending_nbi(), 1);
            assert_eq!(
                sym.read_local(pe, |v| v[0]),
                0,
                "nbi data visible before quiet"
            );
            assert_eq!(pe.quiet(), 8);
            assert_eq!(
                sym.read_local(pe, |v| v[0]),
                42,
                "nbi data missing after quiet"
            );
        })
        .unwrap();
    }

    #[test]
    fn barrier_implies_quiet() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u32>(4);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 1, &[9, 8]).unwrap();
            }
            pe.barrier_all();
            if pe.rank() == 1 {
                assert_eq!(sym.read_local(pe, |v| v.to_vec()), vec![0, 9, 8, 0]);
            }
        })
        .unwrap();
    }

    #[test]
    fn out_of_bounds_put_is_rejected() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u8>(4);
            let err = sym.put_nbi(pe, 0, 3, &[1, 2]).unwrap_err();
            assert!(matches!(err, ShmemError::OutOfBounds { .. }));
            let err = sym.put_nbi(pe, 5, 0, &[1]).unwrap_err();
            assert!(matches!(err, ShmemError::InvalidPe { .. }));
            assert_eq!(pe.pending_nbi(), 0, "a rejected put stages nothing");
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
    fn nbi_puts_are_counted_as_nbi_on_either_node() {
        let grid = Grid::new(2, 2).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u8>(16);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 0, &[1; 16]).unwrap(); // intra-node
                sym.put_nbi(pe, 3, 0, &[1; 8]).unwrap(); // inter-node
                pe.quiet();
                let s = pe.net_stats();
                assert_eq!(s.nbi_put, crate::net::ClassStats { ops: 2, bytes: 24 });
                assert_eq!(s.local_copy.ops + s.remote_put.ops, 0);
                assert_eq!(s.quiet.ops, 1);
                assert_eq!(s.quiet.bytes, 24);
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
}
