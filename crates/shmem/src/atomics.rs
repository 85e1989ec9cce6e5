//! Symmetric atomics: remote fetch-add/store/load and signal waiting.
//!
//! OpenSHMEM atomic memory operations (`shmem_atomic_fetch_add`,
//! `shmem_atomic_set`, …) are how Conveyors signals buffer delivery after a
//! `quiet` (the trailing `shmem_put` of `nonblock_progress`) and how PEs
//! implement credit/ack protocols. Unlike [`crate::SymmetricVec`], these are
//! immediately visible and lock-free.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::checkpoint::CheckpointTarget;
use crate::error::ShmemError;
use crate::grid::Grid;
use crate::net::TransferClass;
use crate::pe::Pe;
use crate::sched::SchedPoint;

struct AtomicInner {
    len: usize,
    grid: Grid,
    regions: Vec<Box<[AtomicU64]>>,
    /// Allocation identity for the race detector's location map.
    #[cfg(feature = "race-detect")]
    race_id: u64,
}

/// Deep-copy in/out for checkpoints; runs only inside a collective cut.
impl CheckpointTarget for AtomicInner {
    fn capture(&self) -> Box<dyn Any + Send + Sync> {
        let copy: Vec<Vec<u64>> = self
            .regions
            .iter()
            // Acquire: pairs with remote writers' Release stores, so the
            // snapshot sees every value published before the cut.
            .map(|r| r.iter().map(|a| a.load(Ordering::Acquire)).collect())
            .collect();
        Box::new(copy)
    }

    fn restore(&self, snapshot: &(dyn Any + Send + Sync)) {
        let copy = snapshot
            .downcast_ref::<Vec<Vec<u64>>>()
            .expect("checkpoint snapshot type mismatch for SymmetricAtomicVec");
        for (region, saved) in self.regions.iter().zip(copy) {
            for (slot, v) in region.iter().zip(saved) {
                // Release: publishes the restored values to PEs that later
                // acquire them, mirroring a normal signal write.
                slot.store(*v, Ordering::Release);
            }
        }
    }
}

/// A symmetric array of `u64` atomics, one region per PE.
///
/// Clone is shallow (all clones refer to the same symmetric allocation).
pub struct SymmetricAtomicVec {
    inner: Arc<AtomicInner>,
}

impl Clone for SymmetricAtomicVec {
    fn clone(&self) -> Self {
        SymmetricAtomicVec {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SymmetricAtomicVec {
    /// Collectively allocate `len` zero-initialized atomics per PE.
    ///
    /// Prefer [`Pe::alloc_sym_atomic`] at call sites.
    pub fn new(pe: &Pe, len: usize) -> Result<SymmetricAtomicVec, ShmemError> {
        let grid = pe.grid();
        let world = pe.world_arc();
        let arc = pe.run_collective(
            len,
            move |lens| -> Result<SymmetricAtomicVec, ShmemError> {
                if lens.iter().any(|&l| l != lens[0]) {
                    return Err(ShmemError::CollectiveMismatch(format!(
                        "alloc_sym_atomic lengths differ across PEs: {lens:?}"
                    )));
                }
                let regions = (0..grid.n_pes())
                    .map(|_| {
                        (0..lens[0])
                            .map(|_| AtomicU64::new(0))
                            .collect::<Vec<_>>()
                            .into_boxed_slice()
                    })
                    .collect();
                let inner = Arc::new(AtomicInner {
                    len: lens[0],
                    grid,
                    regions,
                    #[cfg(feature = "race-detect")]
                    race_id: crate::race::next_alloc_id(),
                });
                // Register once per allocation, in deterministic order (see
                // SymmetricVec::new).
                world
                    .checkpoint
                    .register(Arc::downgrade(&inner) as Weak<dyn CheckpointTarget>);
                Ok(SymmetricAtomicVec { inner })
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

    fn check(&self, pe: usize, index: usize) -> Result<(), ShmemError> {
        self.inner.grid.check_pe(pe)?;
        if index >= self.inner.len {
            return Err(ShmemError::OutOfBounds {
                offset: index,
                len: 1,
                region_len: self.inner.len,
            });
        }
        Ok(())
    }

    /// The detector's name for `owner_pe`'s element.
    #[cfg(feature = "race-detect")]
    fn loc(&self, owner_pe: usize, index: usize) -> crate::race::Loc {
        crate::race::Loc {
            alloc: self.inner.race_id,
            owner: owner_pe,
            index,
        }
    }

    /// Atomic fetch-add on `dst_pe`'s element (`shmem_atomic_fetch_add`).
    pub fn fetch_add(
        &self,
        pe: &Pe,
        dst_pe: usize,
        index: usize,
        value: u64,
    ) -> Result<u64, ShmemError> {
        self.check(dst_pe, index)?;
        pe.sched_point(SchedPoint::Atomic);
        let slot = &self.inner.regions[dst_pe][index];
        #[cfg(feature = "race-detect")]
        let prev = match pe.race_detector() {
            Some(d) => d.sync_rmw(pe.rank(), self.loc(dst_pe, index), || {
                slot.fetch_add(value, Ordering::AcqRel)
            }),
            None => slot.fetch_add(value, Ordering::AcqRel),
        };
        #[cfg(not(feature = "race-detect"))]
        let prev = slot.fetch_add(value, Ordering::AcqRel);
        if dst_pe != pe.rank() {
            pe.record_net(TransferClass::Atomic, 8);
        }
        Ok(prev)
    }

    /// Atomic store to `dst_pe`'s element (`shmem_atomic_set`).
    pub fn store(&self, pe: &Pe, dst_pe: usize, index: usize, value: u64) -> Result<(), ShmemError> {
        self.check(dst_pe, index)?;
        pe.sched_point(SchedPoint::Atomic);
        let slot = &self.inner.regions[dst_pe][index];
        #[cfg(feature = "race-detect")]
        match pe.race_detector() {
            Some(d) => d.sync_release(pe.rank(), self.loc(dst_pe, index), || {
                slot.store(value, Ordering::Release)
            }),
            None => slot.store(value, Ordering::Release),
        }
        #[cfg(not(feature = "race-detect"))]
        slot.store(value, Ordering::Release);
        if dst_pe != pe.rank() {
            pe.record_net(TransferClass::Atomic, 8);
        }
        Ok(())
    }

    /// Atomic load of `src_pe`'s element (`shmem_atomic_fetch`).
    pub fn load(&self, pe: &Pe, src_pe: usize, index: usize) -> Result<u64, ShmemError> {
        self.check(src_pe, index)?;
        pe.sched_point(SchedPoint::Atomic);
        let slot = &self.inner.regions[src_pe][index];
        #[cfg(feature = "race-detect")]
        let v = match pe.race_detector() {
            Some(d) => d.sync_acquire(pe.rank(), self.loc(src_pe, index), || {
                slot.load(Ordering::Acquire)
            }),
            None => slot.load(Ordering::Acquire),
        };
        #[cfg(not(feature = "race-detect"))]
        let v = slot.load(Ordering::Acquire);
        if src_pe != pe.rank() {
            pe.record_net(TransferClass::Atomic, 8);
        }
        Ok(v)
    }

    /// Load from the calling PE's own region without traffic accounting.
    #[inline]
    pub fn local_load(&self, pe: &Pe, index: usize) -> u64 {
        let slot = &self.inner.regions[pe.rank()][index];
        #[cfg(feature = "race-detect")]
        if let Some(d) = pe.race_detector() {
            return d.sync_acquire(pe.rank(), self.loc(pe.rank(), index), || {
                slot.load(Ordering::Acquire)
            });
        }
        slot.load(Ordering::Acquire)
    }

    /// Spin until `pred` holds on the calling PE's own element
    /// (`shmem_wait_until`), yielding cooperatively. Returns the value that
    /// satisfied the predicate. Panics (unwinds) if the world is poisoned,
    /// so a crash elsewhere cannot hang this PE.
    pub fn wait_until(&self, pe: &Pe, index: usize, pred: impl Fn(u64) -> bool) -> u64 {
        let slot = &self.inner.regions[pe.rank()][index];
        loop {
            #[cfg(feature = "race-detect")]
            let v = match pe.race_detector() {
                Some(d) => d.sync_acquire(pe.rank(), self.loc(pe.rank(), index), || {
                    slot.load(Ordering::Acquire)
                }),
                None => slot.load(Ordering::Acquire),
            };
            #[cfg(not(feature = "race-detect"))]
            let v = slot.load(Ordering::Acquire);
            if pred(v) {
                return v;
            }
            pe.poll_yield();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd;

    #[test]
    fn fetch_add_serializes_concurrent_updates() {
        let grid = Grid::single_node(8).unwrap();
        spmd::run(grid, |pe| {
            let counters = pe.alloc_sym_atomic(1);
            // everyone hammers PE 0's counter
            for _ in 0..100 {
                counters.fetch_add(pe, 0, 0, 1).unwrap();
            }
            pe.barrier_all();
            if pe.rank() == 0 {
                assert_eq!(counters.local_load(pe, 0), 800);
            }
        })
        .unwrap();
    }

    #[test]
    fn wait_until_observes_remote_store() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sig = pe.alloc_sym_atomic(1);
            if pe.rank() == 0 {
                sig.store(pe, 1, 0, 99).unwrap();
            } else {
                let v = sig.wait_until(pe, 0, |v| v != 0);
                assert_eq!(v, 99);
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn remote_atomics_are_counted_local_are_not() {
        let grid = Grid::single_node(2).unwrap();
        spmd::run(grid, |pe| {
            let a = pe.alloc_sym_atomic(1);
            if pe.rank() == 0 {
                a.fetch_add(pe, 0, 0, 1).unwrap(); // local: uncounted
                a.fetch_add(pe, 1, 0, 1).unwrap(); // remote: counted
                a.load(pe, 1, 0).unwrap(); // remote: counted
                let s = pe.net_stats();
                assert_eq!(s.atomic.ops, 2);
                assert_eq!(s.atomic.bytes, 16);
            }
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn bounds_are_checked() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let a = pe.alloc_sym_atomic(2);
            assert!(a.fetch_add(pe, 0, 2, 1).is_err());
            assert!(a.store(pe, 1, 0, 1).is_err());
        })
        .unwrap();
    }
}
