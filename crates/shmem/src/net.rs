//! Network traffic accounting.
//!
//! Each transfer the ring cells and the symmetric heap perform is
//! classified and counted so the substrate's traffic is observable even
//! without the profiler: the physical trace of §III-C is the per-event
//! view; these are the aggregate counters. Counters are kept per
//! *source* PE as plain atomics — each PE only ever records against its
//! own slot, so the per-message/per-flush recording path is wait-free and
//! mutex-free (readers merging the ledger tolerate the usual snapshot skew
//! of concurrent counters).

use std::sync::atomic::{AtomicU64, Ordering};

/// Classification of a transfer at the SHMEM level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferClass {
    /// Same-node copy through `shmem_ptr` (a plain `memcpy`).
    LocalCopy,
    /// Cross-node blocking put.
    RemotePut,
    /// Cross-node non-blocking put (`shmem_putmem_nbi`) — *initiated*.
    NonBlockingPut,
    /// Completion fence (`shmem_quiet`); byte count is the flushed volume.
    Quiet,
    /// Signalling store to another PE (ring `publish` / `release`).
    Atomic,
}

/// Per-class message and byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Number of operations in this class.
    pub ops: u64,
    /// Bytes moved by operations in this class.
    pub bytes: u64,
}

/// Aggregated network statistics for one PE (or a whole world when merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Same-node memcpy traffic.
    pub local_copy: ClassStats,
    /// Cross-node blocking put traffic.
    pub remote_put: ClassStats,
    /// Non-blocking put initiations.
    pub nbi_put: ClassStats,
    /// Quiet fences (bytes = flushed volume).
    pub quiet: ClassStats,
    /// Signalling stores.
    pub atomic: ClassStats,
}

impl NetStats {
    /// Record one operation of `class` moving `bytes`.
    #[inline]
    pub fn record(&mut self, class: TransferClass, bytes: usize) {
        let slot = match class {
            TransferClass::LocalCopy => &mut self.local_copy,
            TransferClass::RemotePut => &mut self.remote_put,
            TransferClass::NonBlockingPut => &mut self.nbi_put,
            TransferClass::Quiet => &mut self.quiet,
            TransferClass::Atomic => &mut self.atomic,
        };
        slot.ops += 1;
        slot.bytes += bytes as u64;
    }

    /// Merge `other` into `self`.
    pub fn merge(&mut self, other: &NetStats) {
        for (a, b) in [
            (&mut self.local_copy, &other.local_copy),
            (&mut self.remote_put, &other.remote_put),
            (&mut self.nbi_put, &other.nbi_put),
            (&mut self.quiet, &other.quiet),
            (&mut self.atomic, &other.atomic),
        ] {
            a.ops += b.ops;
            a.bytes += b.bytes;
        }
    }

    /// Total bytes that crossed a node boundary (puts and nbi puts).
    pub fn inter_node_bytes(&self) -> u64 {
        self.remote_put.bytes + self.nbi_put.bytes
    }

    /// Total bytes copied within a node.
    pub fn intra_node_bytes(&self) -> u64 {
        self.local_copy.bytes
    }
}

/// Atomic (ops, bytes) pair per transfer class for one source PE.
#[derive(Default)]
struct PeNetCells {
    cells: [(AtomicU64, AtomicU64); 5],
}

impl PeNetCells {
    fn slot(class: TransferClass) -> usize {
        match class {
            TransferClass::LocalCopy => 0,
            TransferClass::RemotePut => 1,
            TransferClass::NonBlockingPut => 2,
            TransferClass::Quiet => 3,
            TransferClass::Atomic => 4,
        }
    }

    fn snapshot(&self) -> NetStats {
        let read = |i: usize| ClassStats {
            ops: self.cells[i].0.load(Ordering::Relaxed),
            bytes: self.cells[i].1.load(Ordering::Relaxed),
        };
        NetStats {
            local_copy: read(0),
            remote_put: read(1),
            nbi_put: read(2),
            quiet: read(3),
            atomic: read(4),
        }
    }

    /// Overwrite this PE's counters from a checkpoint snapshot. Relaxed is
    /// enough: restore only runs inside a collective cut, where the owning
    /// PE is not recording concurrently and the departing collective edge
    /// publishes the stores.
    fn restore(&self, s: &NetStats) {
        let write = |i: usize, c: &ClassStats| {
            self.cells[i].0.store(c.ops, Ordering::Relaxed);
            self.cells[i].1.store(c.bytes, Ordering::Relaxed);
        };
        write(0, &s.local_copy);
        write(1, &s.remote_put);
        write(2, &s.nbi_put);
        write(3, &s.quiet);
        write(4, &s.atomic);
    }
}

/// World-wide traffic ledger: one atomically counted slot per source PE.
/// Recording is wait-free — no mutex on the conveyor flush path.
pub(crate) struct NetLedger {
    per_pe: Vec<PeNetCells>,
}

impl NetLedger {
    pub(crate) fn new(n_pes: usize) -> NetLedger {
        NetLedger {
            per_pe: (0..n_pes).map(|_| PeNetCells::default()).collect(),
        }
    }

    #[inline]
    pub(crate) fn record(&self, src_pe: usize, class: TransferClass, bytes: usize) {
        let (ops, b) = &self.per_pe[src_pe].cells[PeNetCells::slot(class)];
        ops.fetch_add(1, Ordering::Relaxed);
        b.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Stats attributed to one source PE.
    pub(crate) fn pe_stats(&self, pe: usize) -> NetStats {
        self.per_pe[pe].snapshot()
    }

    /// Merged stats over all source PEs.
    pub(crate) fn total(&self) -> NetStats {
        let mut total = NetStats::default();
        for slot in &self.per_pe {
            total.merge(&slot.snapshot());
        }
        total
    }

    /// Per-PE snapshot of the whole ledger (checkpoint capture).
    pub(crate) fn snapshot_all(&self) -> Vec<NetStats> {
        self.per_pe.iter().map(|slot| slot.snapshot()).collect()
    }

    /// Overwrite the whole ledger from a checkpoint snapshot (collective
    /// cut only; see [`PeNetCells::restore`]).
    pub(crate) fn restore_all(&self, stats: &[NetStats]) {
        assert_eq!(stats.len(), self.per_pe.len(), "ledger snapshot PE count");
        for (slot, s) in self.per_pe.iter().zip(stats) {
            slot.restore(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_class() {
        let mut s = NetStats::default();
        s.record(TransferClass::LocalCopy, 100);
        s.record(TransferClass::NonBlockingPut, 50);
        s.record(TransferClass::NonBlockingPut, 50);
        assert_eq!(s.local_copy, ClassStats { ops: 1, bytes: 100 });
        assert_eq!(s.nbi_put, ClassStats { ops: 2, bytes: 100 });
        assert_eq!(s.inter_node_bytes(), 100);
        assert_eq!(s.intra_node_bytes(), 100);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = NetStats::default();
        a.record(TransferClass::Quiet, 8);
        let mut b = NetStats::default();
        b.record(TransferClass::Quiet, 16);
        b.record(TransferClass::Atomic, 8);
        a.merge(&b);
        assert_eq!(a.quiet, ClassStats { ops: 2, bytes: 24 });
        assert_eq!(a.atomic, ClassStats { ops: 1, bytes: 8 });
    }

    #[test]
    fn ledger_attributes_by_source() {
        let l = NetLedger::new(3);
        l.record(0, TransferClass::RemotePut, 10);
        l.record(2, TransferClass::RemotePut, 30);
        assert_eq!(l.pe_stats(0).remote_put.bytes, 10);
        assert_eq!(l.pe_stats(1).remote_put.bytes, 0);
        assert_eq!(l.total().remote_put.bytes, 40);
        assert_eq!(l.total().remote_put.ops, 2);
    }
}
