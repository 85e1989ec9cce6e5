//! Superstep-boundary checkpoints of the symmetric state.
//!
//! A [`Checkpoint`] is a deep copy of everything the substrate owns on
//! behalf of the application: every live [`crate::SymmetricVec`] region,
//! every [`crate::SymmetricAtomicVec`] region, and the per-PE network
//! ledger. Capture and restore are *collective* operations taken at a
//! quiescent cut — all PEs inside the rendezvous, no non-blocking put
//! pending, conveyors drained — which is what makes the copy globally
//! consistent without any marker propagation: the barrier in the
//! collective IS the cut.
//!
//! Allocations register themselves here at creation time (inside the
//! allocation collective, so registration order is deterministic and
//! identical on every PE). A checkpoint holds strong references to the
//! allocations it captured, so restore never has to guess which snapshot
//! belongs to which allocation.
//!
//! Everything in this file is cold-path: it runs at superstep boundaries,
//! never per message, so the mutexes below cannot perturb the conveyor
//! hot path's zero-lock-acquisition contract.

use std::any::Any;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::net::{NetLedger, NetStats};

/// A checkpointable allocation: deep-copy out, write back in.
///
/// Implementations run only inside a collective cut, so they may assume no
/// PE is concurrently mutating the regions through application operations.
pub(crate) trait CheckpointTarget: Send + Sync {
    /// Deep-copy the allocation's current contents.
    fn capture(&self) -> Box<dyn Any + Send + Sync>;
    /// Overwrite the allocation from a snapshot produced by `capture`.
    fn restore(&self, snapshot: &(dyn Any + Send + Sync));
}

/// A consistent snapshot of the symmetric state at one superstep boundary.
pub struct Checkpoint {
    superstep: u64,
    /// Each captured allocation with its snapshot. Holding the `Arc` pins
    /// the allocation, so the pairing stays valid for restore.
    snapshots: Vec<(Arc<dyn CheckpointTarget>, Box<dyn Any + Send + Sync>)>,
    /// Per-PE network ledger at the cut.
    net: Vec<NetStats>,
}

impl Checkpoint {
    /// The superstep this checkpoint was taken at.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Number of symmetric allocations captured.
    pub fn allocations(&self) -> usize {
        self.snapshots.len()
    }

    /// The per-PE network statistics frozen in this checkpoint.
    pub fn net_stats(&self, pe: usize) -> NetStats {
        self.net[pe]
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("superstep", &self.superstep)
            .field("allocations", &self.snapshots.len())
            .finish()
    }
}

/// Per-world checkpoint machinery: the target registry and the most recent
/// checkpoint.
#[derive(Default)]
pub(crate) struct CheckpointState {
    targets: Mutex<Vec<Weak<dyn CheckpointTarget>>>,
    latest: Mutex<Option<Arc<Checkpoint>>>,
}

impl CheckpointState {
    /// Register a live allocation. Called from inside the allocation
    /// collective's combine closure, so it runs exactly once per
    /// allocation, in deterministic order.
    pub(crate) fn register(&self, target: Weak<dyn CheckpointTarget>) {
        self.targets.lock().push(target);
    }

    /// Deep-copy every live allocation plus the network ledger. Runs once
    /// per checkpoint, on the final arriver of the checkpoint collective.
    pub(crate) fn capture(&self, superstep: u64, ledger: &NetLedger) -> Arc<Checkpoint> {
        let mut targets = self.targets.lock();
        // Prune allocations that have been dropped since the last capture.
        targets.retain(|w| w.strong_count() > 0);
        let snapshots = targets
            .iter()
            .filter_map(Weak::upgrade)
            .map(|t| {
                let snap = t.capture();
                (t, snap)
            })
            .collect();
        drop(targets);
        let ckpt = Arc::new(Checkpoint {
            superstep,
            snapshots,
            net: ledger.snapshot_all(),
        });
        *self.latest.lock() = Some(ckpt.clone());
        ckpt
    }

    /// Write `ckpt` back into its allocations and the ledger. Runs once
    /// per restore, on the final arriver of the restore collective.
    pub(crate) fn restore(&self, ckpt: &Arc<Checkpoint>, ledger: &NetLedger) {
        for (target, snap) in &ckpt.snapshots {
            target.restore(&**snap);
        }
        ledger.restore_all(&ckpt.net);
        *self.latest.lock() = Some(ckpt.clone());
    }

    /// The most recent checkpoint (captured or restored-to), if any.
    pub(crate) fn latest(&self) -> Option<Arc<Checkpoint>> {
        self.latest.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::error::ShmemError;
    use crate::grid::Grid;
    use crate::spmd;
    use fabsp_telemetry::Counter;

    #[test]
    fn capture_restore_roundtrip() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(2);
            let sig = pe.alloc_sym_atomic(1);
            sym.write_local(pe, |v| v.fill(pe.rank() as u64 + 1));
            sig.store(pe, pe.rank(), 0, 7).unwrap();
            pe.barrier_all();
            let ckpt = pe.checkpoint().unwrap();
            assert_eq!(ckpt.allocations(), 2);
            // Scribble over everything, then restore the cut.
            sym.write_local(pe, |v| v.fill(99));
            sig.store(pe, pe.rank(), 0, 0).unwrap();
            pe.barrier_all();
            pe.restore_checkpoint(&ckpt).unwrap();
            assert_eq!(
                sym.read_local(pe, |v| v.to_vec()),
                vec![pe.rank() as u64 + 1; 2]
            );
            assert_eq!(sig.local_load(pe, 0), 7);
            let latest = pe.latest_checkpoint().expect("restore keeps latest");
            assert_eq!(latest.superstep(), ckpt.superstep());
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn non_quiescent_checkpoint_is_rejected() {
        let grid = Grid::new(2, 1).unwrap();
        spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 0, &[5]).unwrap();
            }
            // One PE's pending nbi poisons the cut for everyone.
            let err = pe.checkpoint().unwrap_err();
            assert_eq!(err, ShmemError::CheckpointNotQuiescent { pending_nbi: 1 });
            assert!(pe.latest_checkpoint().is_none(), "nothing was captured");
            pe.quiet();
            assert!(pe.checkpoint().is_ok(), "quiet cut must be accepted");
            pe.barrier_all();
        })
        .unwrap();
    }

    #[test]
    fn only_captured_checkpoints_are_counted() {
        let grid = Grid::new(2, 1).unwrap();
        let counts = spmd::run(grid, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            if pe.rank() == 0 {
                sym.put_nbi(pe, 1, 0, &[5]).unwrap();
            }
            assert!(
                pe.checkpoint().is_err(),
                "a pending put_nbi refuses the cut"
            );
            pe.quiet();
            pe.checkpoint().unwrap();
            pe.barrier_all();
            pe.metrics()
                .expect("telemetry is on by default")
                .counter(Counter::Checkpoints)
        })
        .unwrap();
        assert_eq!(counts, vec![1, 1], "a refused cut is not a checkpoint");
    }

    #[test]
    fn dropped_allocations_are_pruned() {
        let grid = Grid::single_node(2).unwrap();
        spmd::run(grid, |pe| {
            let keep = pe.alloc_sym::<u32>(1);
            {
                let _drop_me = pe.alloc_sym::<u32>(1);
                pe.barrier_all();
            }
            pe.barrier_all();
            let ckpt = pe.checkpoint().unwrap();
            assert_eq!(ckpt.allocations(), 1, "dead allocation must be pruned");
            keep.local_set(pe, 0, 3);
            pe.barrier_all();
        })
        .unwrap();
    }
}
