//! Collective operations on [`Pe`]: symmetric allocation and the generic
//! all-reduce.
//!
//! OpenSHMEM collectives are *symmetric*: every PE must call the same
//! collectives in the same order. That discipline is what lets the
//! rendezvous identify call sites by sequence number; diverging call orders
//! are detected and panic rather than corrupting state.

use crate::heap::SymmetricVec;
use crate::pe::Pe;

impl Pe {
    /// Collectively allocate a [`SymmetricVec`] of `len` elements per PE
    /// (`shmem_malloc`).
    ///
    /// # Panics
    /// Panics if PEs pass different lengths — that is SPMD divergence, a
    /// programming bug. (Use [`SymmetricVec::new`] directly for the
    /// `Result`-returning form.)
    pub fn alloc_sym<T: Copy + Default + Send + Sync + 'static>(&self, len: usize) -> SymmetricVec<T> {
        SymmetricVec::new(self, len).expect("symmetric allocation diverged across PEs")
    }

    /// Generic all-reduce: every PE contributes `value`; all receive
    /// `combine` folded over contributions in rank order.
    pub fn allreduce<T, R>(&self, value: T, combine: impl FnOnce(Vec<T>) -> R) -> R
    where
        T: Send + 'static,
        R: Clone + Send + Sync + 'static,
    {
        let arc = self.run_collective(value, combine);
        (*arc).clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::grid::Grid;
    use crate::spmd;

    #[test]
    fn allreduce_folds_in_rank_order() {
        let grid = Grid::new(2, 2).unwrap();
        let results = spmd::run(grid, |pe| pe.allreduce(pe.rank() * pe.rank(), |vs| vs)).unwrap();
        for r in results {
            assert_eq!(r, vec![0, 1, 4, 9]);
        }
    }

    #[test]
    fn collectives_compose_with_barriers() {
        let grid = Grid::single_node(4).unwrap();
        let results = spmd::run(grid, |pe| {
            let mut acc = 0;
            for round in 0..5u64 {
                acc += pe.allreduce(round, |vs| vs.into_iter().sum::<u64>());
                pe.barrier_all();
            }
            acc
        })
        .unwrap();
        assert_eq!(results, vec![40; 4]); // sum over rounds of 4*round
    }
}
