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
//! The flush path's unit is the slab, one [`PhysicalEvent`] each: send
//! type, destination PE and buffer bytes packed into one word beside the
//! cycle stamp, 16 bytes in all. The drain rebases the stamp and packs the
//! event into the collector's 8-byte form, a dictionary index beside the
//! stamp's low 48 bits (see [`PeCollector::physical_records`]).
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
//! [`PeCollector::physical_records`]: crate::PeCollector::physical_records

use fabsp_hwpc::MAX_EVENTS;
use fabsp_telemetry::Phase;

use crate::config::TraceConfig;
use crate::record::{PhysicalRecord, SendType};

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

/// One physical (post-aggregation) send, packed into one word plus its
/// cycle stamp — 16 bytes in the [`TraceBuffer`] that captures it and
/// wherever a collector's events are read back. The word keeps the send
/// type in its top 2 bits, the destination PE in the next 22 and the
/// buffer bytes in the low 40; the source PE is the capturing collector's
/// own and is not stored.
/// The stamp is absolute ([`fabsp_hwpc::cycles_now`]) while captured and
/// relative to the collector's creation once drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalEvent {
    word: u64,
    cycles: u64,
}

const _: () = assert!(std::mem::size_of::<PhysicalEvent>() == 16);

/// Bits of the packed word holding the buffer bytes (the low ones).
const BYTES_BITS: u32 = 40;
/// Bits of the packed word holding the destination PE (above the bytes).
const DST_BITS: u32 = 22;
/// Shift of the send type, which takes the top 2 bits.
const TYPE_SHIFT: u32 = BYTES_BITS + DST_BITS;

impl PhysicalEvent {
    /// Largest destination PE a physical event can name.
    pub const MAX_DST_PE: usize = (1 << DST_BITS) - 1;
    /// Largest buffer, in bytes, a physical event can record.
    pub const MAX_BUFFER_SIZE: u64 = (1 << BYTES_BITS) - 1;

    /// Pack one event stamped `cycles`.
    ///
    /// # Panics
    /// If `dst_pe` exceeds [`MAX_DST_PE`](Self::MAX_DST_PE) or
    /// `buffer_size` exceeds [`MAX_BUFFER_SIZE`](Self::MAX_BUFFER_SIZE),
    /// in every build profile: a field that does not fit would be stored
    /// as a different event.
    #[inline]
    pub fn new(send_type: SendType, buffer_size: u64, dst_pe: usize, cycles: u64) -> PhysicalEvent {
        assert!(
            dst_pe <= Self::MAX_DST_PE,
            "destination PE {dst_pe} does not fit a physical event"
        );
        assert!(
            buffer_size <= Self::MAX_BUFFER_SIZE,
            "buffer of {buffer_size} B does not fit a physical event"
        );
        let word = (send_type as u64) << TYPE_SHIFT | (dst_pe as u64) << BYTES_BITS | buffer_size;
        PhysicalEvent { word, cycles }
    }

    /// Which Conveyors call produced this event.
    #[inline]
    pub fn send_type(&self) -> SendType {
        SendType::ALL[(self.word >> TYPE_SHIFT) as usize]
    }

    /// Whether this event came from a `t` call — read off the word,
    /// without decoding the other fields.
    #[inline]
    pub fn is(&self, t: SendType) -> bool {
        self.word >> TYPE_SHIFT == t as u64
    }

    /// Bytes in the delivered buffer.
    #[inline]
    pub fn buffer_size(&self) -> u64 {
        self.word & Self::MAX_BUFFER_SIZE
    }

    /// Destination PE (for `NonblockProgress`, the signalled PE).
    #[inline]
    pub fn dst_pe(&self) -> u32 {
        (self.word >> BYTES_BITS) as u32 & Self::MAX_DST_PE as u32
    }

    /// The cycle stamp: absolute while captured, relative to collector
    /// creation once drained.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The packed `(send type, destination PE, bytes)` word.
    #[inline]
    pub(crate) fn word(&self) -> u64 {
        self.word
    }

    /// The event with packed word `word` (as [`word`](Self::word) returns
    /// it) stamped `cycles`.
    #[inline]
    pub(crate) fn from_parts(word: u64, cycles: u64) -> PhysicalEvent {
        PhysicalEvent { word, cycles }
    }

    /// The same event with its stamp made relative to `t0_cycles`
    /// (saturating at 0).
    #[inline]
    pub(crate) fn rebased(self, t0_cycles: u64) -> PhysicalEvent {
        PhysicalEvent {
            cycles: self.cycles.saturating_sub(t0_cycles),
            ..self
        }
    }

    /// The `physical.txt` record of this event sent by `src_pe`.
    #[inline]
    pub(crate) fn record(&self, src_pe: u32) -> PhysicalRecord {
        PhysicalRecord {
            send_type: self.send_type(),
            buffer_size: self.buffer_size(),
            src_pe,
            dst_pe: self.dst_pe(),
        }
    }
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
            let ev = PhysicalEvent::new(send_type, buffer_size, dst_pe, fabsp_hwpc::cycles_now());
            self.physical.push(ev);
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
        assert_eq!(b.pending_physical()[0].buffer_size(), 128);
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
    fn physical_events_pack_every_field_at_its_limits() {
        let dsts = [0, 1, PhysicalEvent::MAX_DST_PE];
        let sizes = [0, 1, PhysicalEvent::MAX_BUFFER_SIZE];
        for t in SendType::ALL {
            for dst in dsts {
                for size in sizes {
                    let ev = PhysicalEvent::new(t, size, dst, u64::MAX - dst as u64);
                    let fields = (ev.send_type(), ev.buffer_size(), ev.dst_pe(), ev.cycles());
                    assert_eq!(fields, (t, size, dst as u32, u64::MAX - dst as u64));
                    assert!(SendType::ALL.iter().all(|&u| ev.is(u) == (u == t)));
                    let record = PhysicalRecord {
                        send_type: t,
                        buffer_size: size,
                        src_pe: 7,
                        dst_pe: dst as u32,
                    };
                    assert_eq!(ev.record(7), record);
                }
            }
        }
        let limits = (PhysicalEvent::MAX_DST_PE, PhysicalEvent::MAX_BUFFER_SIZE);
        assert_eq!(limits, ((1 << 22) - 1, (1 << 40) - 1));
    }

    #[test]
    #[should_panic(expected = "does not fit a physical event")]
    fn a_destination_past_the_limit_panics() {
        let past = PhysicalEvent::MAX_DST_PE + 1;
        PhysicalEvent::new(SendType::NonblockProgress, 0, past, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a physical event")]
    fn a_buffer_past_the_limit_panics() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off().with_physical());
        let past = PhysicalEvent::MAX_BUFFER_SIZE + 1;
        b.record_physical(SendType::LocalSend, past, 0);
    }

    #[test]
    fn physical_stamps_cycles_at_event_time() {
        let mut b = TraceBuffer::for_config(&TraceConfig::off().with_physical());
        b.record_physical(SendType::LocalSend, 1, 0);
        b.record_physical(SendType::LocalSend, 1, 0);
        let p = b.pending_physical();
        assert!(p[0].cycles() > 0);
        assert!(p[1].cycles() >= p[0].cycles(), "monotone per thread");
    }
}
