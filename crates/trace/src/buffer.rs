//! Batched trace write buffers — the contention-free hot path.
//!
//! Recording straight into a [`PeCollector`] from the send/flush fast path
//! means a `RefCell` borrow (and, for the aggregate structures, hash-map and
//! matrix updates) *per message*. §IV-E's premise is that tracing must stay
//! cheap enough to leave on, so the runtime layers instead write fixed-size
//! [`SendRun`]/[`PhysicalEvent`] values into a thread-local
//! [`TraceBuffer`] — a plain `Vec` push, no locks, no shared borrows — and
//! the collector replays the batch at natural drain boundaries
//! (`Conveyor::advance`, selector progress, termination) via
//! [`PeCollector::drain`].
//!
//! The send path's natural unit is a *(destination, run)*: a `send_slice`
//! or a drained handler outbox hands the conveyor many same-size messages
//! for one destination at once, so the buffer holds one [`SendRun`] per
//! accepted prefix — not one event per message — and adjacent runs with
//! the same key coalesce. The run is also the unit of PAPI attribution: it
//! carries the counter deltas measured around its submission, and
//! coalescing sums them, which is what the collector's per-*(destination,
//! mailbox)* line does with them anyway.
//!
//! Exactness is preserved: every event carries everything `record_send` /
//! `record_physical` would have been told at event time, including the
//! hardware-counter deltas and the cycle timestamp, and runs replay in
//! capture order, so the drained collector state is identical to the eager
//! per-message one — the paper's exact `local_send` / `nonblock_send` /
//! `nonblock_progress` counts and FIFO order survive batching.
//!
//! [`PeCollector`]: crate::PeCollector
//! [`PeCollector::drain`]: crate::PeCollector::drain

use fabsp_hwpc::MAX_EVENTS;
use fabsp_telemetry::Phase;

use crate::config::TraceConfig;
use crate::record::SendType;

/// `count` consecutive logical sends of one size to one destination through
/// one mailbox, captured on the fast path for deferred replay.
#[derive(Debug, Clone, Copy)]
pub struct SendRun {
    /// Destination PE.
    pub dst_pe: u32,
    /// Payload bytes of each message.
    pub msg_size: u32,
    /// Mailbox the sends went through.
    pub mailbox_id: u32,
    /// Messages in the run (≥ 1).
    pub count: u64,
    /// Hardware-counter deltas (configured-event order, prefix of the
    /// bank) measured around the submissions that made up this run, summed
    /// — the run, not the message, is the unit of PAPI attribution. `None`
    /// when PAPI tracing is off.
    pub papi: Option<[u64; MAX_EVENTS]>,
}

/// One physical (post-aggregation) send, captured on the flush path.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalEvent {
    /// `local_send` / `nonblock_send` / `nonblock_progress`.
    pub send_type: SendType,
    /// Bytes in the delivered buffer.
    pub buffer_size: u64,
    /// Destination PE.
    pub dst_pe: u32,
    /// Absolute cycle stamp taken at event time ([`fabsp_hwpc::cycles_now`]),
    /// so deferred draining does not skew the physical timeline.
    pub cycles: u64,
}

/// One completed phase span, captured on the hot path for deferred replay.
/// Cycle stamps are absolute; the collector rebases them at drain time.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Which phase ran.
    pub phase: Phase,
    /// Absolute cycle stamp at phase entry.
    pub begin_cycles: u64,
    /// Absolute cycle stamp at phase exit.
    pub end_cycles: u64,
}

/// Thread-local batch of trace events awaiting a drain into the PE's
/// collector. Construct with [`for_config`](TraceBuffer::for_config) so
/// disabled trace dimensions cost a single branch per event.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    wants_sends: bool,
    wants_physical: bool,
    wants_spans: bool,
    sends: Vec<SendRun>,
    physical: Vec<PhysicalEvent>,
    spans: Vec<SpanEvent>,
}

impl TraceBuffer {
    /// A buffer that records only the dimensions `config` enables.
    pub fn for_config(config: &TraceConfig) -> TraceBuffer {
        TraceBuffer {
            wants_sends: config.logical || config.papi.is_some(),
            wants_physical: config.physical,
            wants_spans: config.spans,
            sends: Vec::new(),
            physical: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether logical/PAPI send events are being captured.
    #[inline]
    pub fn wants_sends(&self) -> bool {
        self.wants_sends
    }

    /// Whether physical events are being captured.
    #[inline]
    pub fn wants_physical(&self) -> bool {
        self.wants_physical
    }

    /// Whether phase spans are being captured.
    #[inline]
    pub fn wants_spans(&self) -> bool {
        self.wants_spans
    }

    /// Capture `count` consecutive sends to one destination as one event —
    /// what an accepted `push_slice` prefix is — with the counter deltas
    /// measured around the submission, if PAPI tracing is on. Extends the
    /// previous run when it has the same key, summing the banks, so
    /// resubmitted suffixes of one slice and back-to-back one-item sends
    /// cost no extra events. A `Vec` push at most — nothing shared, no
    /// borrow.
    #[inline]
    pub fn record_send_run(
        &mut self,
        dst_pe: usize,
        msg_size: u32,
        mailbox_id: u32,
        count: u64,
        papi: Option<[u64; MAX_EVENTS]>,
    ) {
        if !self.wants_sends || count == 0 {
            return;
        }
        let dst_pe = dst_pe as u32;
        match self.sends.last_mut() {
            Some(last) if (last.dst_pe, last.msg_size, last.mailbox_id) == (dst_pe, msg_size, mailbox_id) => {
                last.count += count;
                if let Some(deltas) = papi {
                    let bank = last.papi.get_or_insert([0; MAX_EVENTS]);
                    for (acc, d) in bank.iter_mut().zip(deltas) {
                        *acc += d;
                    }
                }
            }
            _ => self.sends.push(SendRun {
                dst_pe,
                msg_size,
                mailbox_id,
                count,
                papi,
            }),
        }
    }

    /// Capture one physical send, stamping the cycle counter now so the
    /// timeline reflects event time, not drain time.
    #[inline]
    pub fn record_physical(&mut self, send_type: SendType, buffer_size: u64, dst_pe: usize) {
        if self.wants_physical {
            self.physical.push(PhysicalEvent {
                send_type,
                buffer_size,
                dst_pe: dst_pe as u32,
                cycles: fabsp_hwpc::cycles_now(),
            });
        }
    }

    /// Capture one completed phase span.
    #[inline]
    pub fn record_span(&mut self, phase: Phase, begin_cycles: u64, end_cycles: u64) {
        if self.wants_spans {
            self.spans.push(SpanEvent {
                phase,
                begin_cycles,
                end_cycles,
            });
        }
    }

    /// Whether any captured events await draining.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.physical.is_empty() && self.spans.is_empty()
    }

    /// Captured-but-undrained logical send runs.
    pub fn pending_sends(&self) -> &[SendRun] {
        &self.sends
    }

    /// Captured-but-undrained physical events.
    pub fn pending_physical(&self) -> &[PhysicalEvent] {
        &self.physical
    }

    /// Captured-but-undrained phase spans.
    pub fn pending_spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    pub(crate) fn take_events(&mut self) -> (Vec<SendRun>, Vec<PhysicalEvent>, Vec<SpanEvent>) {
        (
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.physical),
            std::mem::take(&mut self.spans),
        )
    }

    pub(crate) fn put_back_storage(
        &mut self,
        sends: Vec<SendRun>,
        physical: Vec<PhysicalEvent>,
        spans: Vec<SpanEvent>,
    ) {
        debug_assert!(self.sends.is_empty() && self.physical.is_empty() && self.spans.is_empty());
        self.sends = sends;
        self.physical = physical;
        self.spans = spans;
        self.sends.clear();
        self.physical.clear();
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_dimensions_record_nothing() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off());
        assert!(!b.wants_sends() && !b.wants_physical());
        b.record_send_run(0, 8, 0, 1, None);
        b.record_physical(SendType::LocalSend, 64, 1);
        assert!(b.is_empty());
    }

    #[test]
    fn enabled_dimensions_capture_in_order() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off().with_logical().with_physical());
        b.record_send_run(2, 8, 0, 1, None);
        b.record_send_run(3, 16, 1, 1, None);
        b.record_physical(SendType::NonblockSend, 128, 3);
        assert_eq!(b.pending_sends().len(), 2);
        assert_eq!(b.pending_sends()[0].dst_pe, 2);
        assert_eq!(b.pending_sends()[1].msg_size, 16);
        assert_eq!(b.pending_sends()[1].count, 1);
        assert_eq!(b.pending_physical().len(), 1);
        assert_eq!(b.pending_physical()[0].buffer_size, 128);
    }

    #[test]
    fn adjacent_runs_with_one_key_coalesce_and_sum_their_banks() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off().with_logical());
        b.record_send_run(1, 8, 0, 5, None);
        b.record_send_run(1, 8, 0, 0, None); // a refused submission records nothing
        b.record_send_run(1, 8, 0, 7, None);
        b.record_send_run(1, 8, 0, 1, None);
        b.record_send_run(1, 8, 1, 2, Some([3; MAX_EVENTS])); // other mailbox: a new run
        b.record_send_run(1, 8, 1, 0, Some([9; MAX_EVENTS])); // refused: its deltas are dropped
        b.record_send_run(1, 8, 1, 4, Some([4; MAX_EVENTS]));
        b.record_send_run(1, 16, 1, 1, Some([1; MAX_EVENTS])); // other size: a new run
        let runs: Vec<_> = b.pending_sends().iter().map(|r| (r.count, r.papi)).collect();
        assert_eq!(
            runs,
            [(13, None), (6, Some([7; MAX_EVENTS])), (1, Some([1; MAX_EVENTS]))]
        );
    }

    #[test]
    fn physical_stamps_cycles_at_event_time() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off().with_physical());
        b.record_physical(SendType::LocalSend, 1, 0);
        b.record_physical(SendType::LocalSend, 1, 0);
        let p = b.pending_physical();
        assert!(p[0].cycles > 0);
        assert!(p[1].cycles >= p[0].cycles, "monotone per thread");
    }
}
