//! Per-PE conveyor operation statistics.
//!
//! These counters exist independently of ActorProf tracing: they are the
//! conveyor's own instrumentation, cheap enough to keep always-on, and the
//! basis for tests of structural claims (e.g. the self-send memcpy count
//! from §IV-D's "Note for self-sends").

/// Counters for one PE's view of one conveyor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConveyorStats {
    /// Items accepted by `push` on this PE.
    pub pushed: u64,
    /// Items handed to the user by `pull` on this PE.
    pub pulled: u64,
    /// `push` attempts refused because buffers were full.
    pub push_refusals: u64,
    /// Items this PE forwarded on behalf of others (mesh second hop).
    pub relayed: u64,
    /// Buffers delivered by `local_send` (same-node memcpy).
    pub local_sends: u64,
    /// Buffers initiated by `nonblock_send` (`shmem_putmem_nbi`).
    pub nonblock_sends: u64,
    /// `nonblock_progress` signalling puts issued (one per destination per
    /// quiet).
    pub nonblock_progress: u64,
    /// `shmem_quiet` fences issued.
    pub quiets: u64,
    /// Item-granularity copies performed: push staging, slab delivery (the
    /// capture+apply pair for a non-blocking put), relay re-staging,
    /// consume (the one copy from the landing cell into the pull queue)
    /// and pull hand-off. This is the §IV-D memcpy count.
    pub item_copies: u64,
    /// Items the selector copied into a handler outbox — one copy per
    /// handler-originated send, ahead of the `item_copies` its push pays.
    /// Filled in by `Selector::stats`; zero for a bare conveyor.
    pub outbox_staged: u64,
    /// Calls to `advance`.
    pub advances: u64,
    /// Relay-link parks forced by chaos injection
    /// ([`Conveyor::inject_chaos`](crate::Conveyor::inject_chaos)); always
    /// zero in production.
    pub forced_parks: u64,
    /// Multi-item `push_slice` calls (each may stage many items and flush
    /// several slabs).
    pub batched_pushes: u64,
    /// `pull_batch` calls that handed out a zero-copy batch.
    pub batched_pulls: u64,
    /// Batch backing buffers allocated for the delivery queue. Recycled
    /// through a free list sized by how many origin runs are
    /// simultaneously queued, so it settles with traffic rather than at
    /// construction.
    pub batch_allocs: u64,
}

impl ConveyorStats {
    /// Buffers sent by any mechanism.
    pub fn buffers_sent(&self) -> u64 {
        self.local_sends + self.nonblock_sends
    }

    /// Merge another PE's stats into this one (for world-wide aggregates).
    pub fn merge(&mut self, other: &ConveyorStats) {
        self.pushed += other.pushed;
        self.pulled += other.pulled;
        self.push_refusals += other.push_refusals;
        self.relayed += other.relayed;
        self.local_sends += other.local_sends;
        self.nonblock_sends += other.nonblock_sends;
        self.nonblock_progress += other.nonblock_progress;
        self.quiets += other.quiets;
        self.item_copies += other.item_copies;
        self.outbox_staged += other.outbox_staged;
        self.advances += other.advances;
        self.forced_parks += other.forced_parks;
        self.batched_pushes += other.batched_pushes;
        self.batched_pulls += other.batched_pulls;
        self.batch_allocs += other.batch_allocs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = ConveyorStats {
            pushed: 1,
            pulled: 2,
            local_sends: 3,
            ..Default::default()
        };
        let b = ConveyorStats {
            pushed: 10,
            pulled: 20,
            nonblock_sends: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pushed, 11);
        assert_eq!(a.pulled, 22);
        assert_eq!(a.buffers_sent(), 8);
    }
}
