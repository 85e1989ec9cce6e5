//! The exchange vocabulary: everything a conveyor hands across its API
//! boundary.
//!
//! One module owns every type a caller sees when items enter
//! ([`PushOutcome`], [`PushReport`]) or leave ([`Delivery`],
//! [`BatchDelivery`]) a [`Conveyor`](crate::Conveyor). Re-exported from the
//! crate root so downstream code never has to reach into `convey`. (What
//! travels between PEs — bare payload slabs plus a per-run route table — is
//! private to `convey`.)

/// Result of a single-item [`push`](crate::Conveyor::push).
///
/// `Retry` is the conveyors-style refusal: the item was *not* taken, the
/// caller must `advance` and try again. Batched callers never see this —
/// [`push_slice`](crate::Conveyor::push_slice) folds refusals into
/// [`PushReport::accepted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a refused push must be retried after advance()"]
pub enum PushOutcome {
    /// The item was staged for delivery.
    Accepted,
    /// Buffers were full; the item was refused and must be re-pushed.
    Retry,
}

impl PushOutcome {
    /// `true` if the item was taken.
    pub fn is_accepted(self) -> bool {
        matches!(self, PushOutcome::Accepted)
    }
}

/// Result of a batched [`push_slice`](crate::Conveyor::push_slice): how far
/// the slice got, instead of a per-item accept/refuse verdict.
///
/// `accepted` is always a prefix length — items `[0, accepted)` of the
/// submitted slice were staged in submission order, so the caller resubmits
/// `&items[report.accepted..]` after an `advance`. This folds the old
/// `PushOutcome::Retry` loop into plain arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "check `accepted` — a partial push must be resubmitted after advance()"]
pub struct PushReport {
    /// Items staged for delivery (a prefix of the submitted slice).
    pub accepted: usize,
    /// Refusal events hit while staging (buffer full after a flush
    /// attempt); mirrors `ConveyorStats::push_refusals` for this call.
    pub retried: u64,
}

impl PushReport {
    /// `true` if every submitted item was staged.
    pub fn is_complete(self, submitted: usize) -> bool {
        self.accepted == submitted
    }
}

/// One delivered item, tagged with the PE that pushed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<T> {
    /// Origin PE.
    pub src: u32,
    /// The payload.
    pub item: T,
}

/// A zero-copy batch of delivered items from a single origin PE.
///
/// Borrowed from the conveyor's delivery queue: the slice is valid until
/// the next `pull`/`pull_batch`/`advance` call. Items appear in push order
/// (pairwise FIFO per origin, as with per-item `pull`).
#[derive(Debug, PartialEq, Eq)]
pub struct BatchDelivery<'a, T> {
    /// Origin PE for every item in the batch.
    pub src: u32,
    /// The payloads, in arrival order.
    pub items: &'a [T],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_outcome_accepts() {
        assert!(PushOutcome::Accepted.is_accepted());
        assert!(!PushOutcome::Retry.is_accepted());
    }

    #[test]
    fn push_report_tracks_completion() {
        assert!(PushReport { accepted: 3, retried: 0 }.is_complete(3));
        assert!(!PushReport { accepted: 2, retried: 1 }.is_complete(3));
        assert!(PushReport::default().is_complete(0));
    }
}
