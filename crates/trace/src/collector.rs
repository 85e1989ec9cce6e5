//! Per-PE trace accumulation.
//!
//! Each PE owns one [`PeCollector`]; the selector runtime records logical
//! sends and the overall breakdown into it, and the conveyor records
//! physical sends into the same collector through a [`SharedCollector`]
//! handle (both live on the same PE thread, so sharing is an `Rc<RefCell>`
//! — no locks on the trace fast path).
//!
//! To keep the memory of billion-message runs bounded (the trace-size
//! problem of §IV-E/§VI), logical sends are always folded into a dense
//! per-destination matrix; exact per-send records are kept only when
//! [`TraceConfig::logical_sample`] asks for them, and then as maximal
//! runs of equal records. The source node and PE of every record are the
//! collector's own and the destination node follows from the destination
//! PE, so a run is a destination PE and a message size (8 bytes), plus its
//! length when longer than one (16 more) — never more per message than
//! the 20 bytes one expanded record took. Memory grows with the number of
//! runs, not of messages.
//!
//! Physical sends, one per flushed slab, arrive as the 16-byte
//! [`PhysicalEvent`]s the conveyor captured and are held as one `u64`
//! each: the index of the event's packed send type, destination PE and
//! buffer bytes in a per-collector dictionary, beside the low 48 bits of
//! its cycle stamp rebased to collector creation. A new segment, with its
//! own dictionary and the stamps' high bits, opens when the 16-bit index
//! or the 48-bit stamp would overflow, so nothing is lost at any size.
//! They become [`PhysicalEvent`]s and [`PhysicalRecord`]s again only when
//! read through [`PhysicalRecords`]. The physical footprint is 8 bytes
//! per slab plus 8 per distinct word and a header per segment — a
//! function of the events, not of their timing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use fabsp_hwpc::event::NUM_EVENTS;
use fabsp_hwpc::RegionProfile;

use fabsp_telemetry::Phase;

use crate::buffer::PhysicalEvent;
use crate::config::TraceConfig;
use crate::packed::PackedEvents;
use crate::record::{
    LogicalRecord, OverallRecord, PapiRecord, PhysicalRecord, Runs, SendType, SpanRecord,
};

/// Thread-local shared handle to a PE's collector (runtime ↔ conveyor).
pub type SharedCollector = Rc<RefCell<PeCollector>>;

/// What varies between the exact logical records of one collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SendKey {
    dst_pe: u32,
    msg_size: u32,
}

/// The exact logical records of one collector, as the runs it holds them
/// in; each run becomes full [`LogicalRecord`]s only when read.
#[derive(Clone, Copy)]
pub struct LogicalRecords<'a> {
    collector: &'a PeCollector,
}

impl<'a> LogicalRecords<'a> {
    /// The maximal runs of equal records, in send order.
    pub fn runs(&self) -> impl Iterator<Item = (LogicalRecord, u64)> + 'a {
        let record = self.collector.record_of();
        self.collector.logical_runs.runs().map(move |(key, n)| (record(key), n))
    }

    /// Every record, each run expanded.
    pub fn iter(&self) -> impl Iterator<Item = LogicalRecord> + 'a {
        self.runs().flat_map(|(record, n)| std::iter::repeat_n(record, n as usize))
    }

    /// Number of records (the sum of the run lengths).
    pub fn len(&self) -> usize {
        self.collector.logical_runs.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.collector.logical_runs.is_empty()
    }
}

/// The physical events of one collector, held as one packed word each;
/// each becomes a [`PhysicalEvent`] or a full [`PhysicalRecord`] only when
/// read.
#[derive(Clone, Copy)]
pub struct PhysicalRecords<'a> {
    src_pe: u32,
    packed: &'a PackedEvents,
}

impl<'a> PhysicalRecords<'a> {
    /// Bytes one segment header of the packed form takes (see
    /// [`segments`](Self::segments)).
    pub const SEGMENT_BYTES: usize = PackedEvents::SEGMENT_BYTES;

    /// The events in capture order, decoded, stamped relative to collector
    /// creation.
    pub fn events(&self) -> impl Iterator<Item = PhysicalEvent> + 'a {
        self.packed.iter()
    }

    /// Every record, in capture order.
    pub fn iter(&self) -> impl Iterator<Item = PhysicalRecord> + 'a {
        let src_pe = self.src_pe;
        self.events().map(move |ev| ev.record(src_pe))
    }

    /// Every record with its cycle stamp (relative to collector creation),
    /// in capture order.
    pub fn timed(&self) -> impl Iterator<Item = (PhysicalRecord, u64)> + 'a {
        let src_pe = self.src_pe;
        self.events().map(move |ev| (ev.record(src_pe), ev.cycles()))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct packed `(send type, destination PE, bytes)` words held,
    /// summed over the segments' dictionaries (8 bytes each).
    pub fn dictionary_len(&self) -> usize {
        self.packed.dictionary_len()
    }

    /// Segments of the packed form: one unless the stamps passed 2⁴⁸
    /// cycles or a dictionary filled its 65 536 words
    /// ([`SEGMENT_BYTES`](Self::SEGMENT_BYTES) each).
    pub fn segments(&self) -> usize {
        self.packed.segments()
    }
}

/// Aggregate of all logical sends from one PE to one destination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogicalCell {
    /// Number of messages sent.
    pub sends: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

#[derive(Debug, Clone, Default)]
struct PapiAgg {
    num_sends: u64,
    pkt_size: u64,
    counters: [u64; fabsp_hwpc::MAX_EVENTS],
}

/// Trace accumulation buffer for one PE.
#[derive(Debug)]
pub struct PeCollector {
    pe: u32,
    n_pes: usize,
    pes_per_node: usize,
    config: TraceConfig,
    logical_matrix: Vec<LogicalCell>,
    logical_runs: Runs<SendKey>,
    papi_agg: HashMap<(u32, u32), PapiAgg>,
    /// Physical events in capture order, each stamped relative to
    /// collector creation (the stamps feed the Google-Trace-Events
    /// exporter — §VI future work).
    physical: PackedEvents,
    /// Completed phase spans, in completion order, relative to collector
    /// creation (feeds the Perfetto duration export).
    span_records: Vec<SpanRecord>,
    t0_cycles: u64,
    overall: Option<OverallRecord>,
    region_profile: Option<RegionProfile>,
    /// Sends seen so far (drives record sampling).
    send_counter: u64,
}

impl PeCollector {
    /// A collector for PE `pe` in a world of `n_pes` PEs grouped
    /// `pes_per_node` to a node.
    pub fn new(pe: usize, n_pes: usize, pes_per_node: usize, config: TraceConfig) -> PeCollector {
        assert!(pe < n_pes, "PE {pe} out of range ({n_pes} PEs)");
        assert!(pes_per_node > 0, "pes_per_node must be positive");
        let matrix_len = if config.logical { n_pes } else { 0 };
        PeCollector {
            pe: pe as u32,
            n_pes,
            pes_per_node,
            config,
            logical_matrix: vec![LogicalCell::default(); matrix_len],
            logical_runs: Runs::default(),
            papi_agg: HashMap::new(),
            physical: PackedEvents::default(),
            span_records: Vec::new(),
            t0_cycles: fabsp_hwpc::cycles_now(),
            overall: None,
            region_profile: None,
            send_counter: 0,
        }
    }

    /// Wrap in the thread-local shared handle.
    pub fn into_shared(self) -> SharedCollector {
        Rc::new(RefCell::new(self))
    }

    /// This collector's PE rank.
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// The node hosting this PE.
    pub fn node(&self) -> u32 {
        (self.pe as usize / self.pes_per_node) as u32
    }

    /// Total PEs in the world.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// PEs per node (for deriving destination nodes).
    pub fn pes_per_node(&self) -> usize {
        self.pes_per_node
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Whether the send fast path needs to call
    /// [`record_send`](PeCollector::record_send) at all.
    #[inline]
    pub fn wants_send_events(&self) -> bool {
        self.config.logical || self.config.papi.is_some()
    }

    /// Whether the conveyor should report physical sends.
    #[inline]
    pub fn wants_physical(&self) -> bool {
        self.config.physical
    }

    /// Whether the runtime should report phase spans.
    #[inline]
    pub fn wants_spans(&self) -> bool {
        self.config.spans
    }

    /// Record one logical (pre-aggregation) send of `msg_size` bytes to
    /// `dst_pe` via `mailbox_id`. `papi_deltas`, if PAPI tracing is
    /// configured, carries the counter deltas measured around the send, in
    /// the configured event order.
    #[inline]
    pub fn record_send(
        &mut self,
        dst_pe: usize,
        msg_size: u32,
        mailbox_id: u32,
        papi_deltas: Option<&[u64]>,
    ) {
        self.record_send_run(dst_pe, msg_size, mailbox_id, 1, papi_deltas);
    }

    /// Record `count` consecutive logical sends of `msg_size` bytes each to
    /// `dst_pe` via `mailbox_id` — identical in every observable (matrix,
    /// exact records, PAPI lines) to `count` calls of
    /// [`record_send`](PeCollector::record_send), the first of which
    /// carries `papi_deltas`. The aggregates are bumped by `count`; what
    /// the `logical_sample` stride keeps of the run is kept as one run.
    pub fn record_send_run(
        &mut self,
        dst_pe: usize,
        msg_size: u32,
        mailbox_id: u32,
        count: u64,
        papi_deltas: Option<&[u64]>,
    ) {
        debug_assert!(dst_pe < self.n_pes);
        if self.config.logical {
            let cell = &mut self.logical_matrix[dst_pe];
            cell.sends += count;
            cell.bytes += count * msg_size as u64;
            let first = self.send_counter;
            self.send_counter += count;
            if self.config.logical_sample != 0 {
                self.keep_run(dst_pe, msg_size, first, count);
            }
        }
        if let Some(papi) = &self.config.papi {
            let agg = self
                .papi_agg
                .entry((dst_pe as u32, mailbox_id))
                .or_default();
            agg.num_sends += count;
            agg.pkt_size += count * msg_size as u64;
            if let Some(deltas) = papi_deltas {
                debug_assert_eq!(deltas.len(), papi.events().len());
                for (acc, d) in agg.counters.iter_mut().zip(deltas) {
                    *acc += d;
                }
            }
        }
    }

    /// Keep the records of sends `first..first + count` whose index the
    /// (non-zero) `logical_sample` stride keeps — all equal, so one run.
    fn keep_run(&mut self, dst_pe: usize, msg_size: u32, first: u64, count: u64) {
        // multiples of the stride in [first, first + count)
        let kept = match self.config.logical_sample as u64 {
            1 => count,
            stride => (first + count).div_ceil(stride) - first.div_ceil(stride),
        };
        if kept != 0 {
            self.logical_runs.push(SendKey { dst_pe: dst_pe as u32, msg_size }, kept);
        }
    }

    /// Builds the full record of one of this collector's sends from its
    /// key, with the source node worked out once.
    fn record_of(&self) -> impl Fn(SendKey) -> LogicalRecord {
        let (src_node, src_pe, pes_per_node) = (self.node(), self.pe, self.pes_per_node as u32);
        move |key| LogicalRecord {
            src_node,
            src_pe,
            dst_node: key.dst_pe / pes_per_node,
            dst_pe: key.dst_pe,
            msg_size: key.msg_size,
        }
    }

    /// Record one physical (post-aggregation) send observed inside the
    /// conveyor. No-op unless physical tracing is enabled; panics if a
    /// field exceeds the [`PhysicalEvent`] limits.
    pub fn record_physical(&mut self, send_type: SendType, buffer_size: u64, dst_pe: usize) {
        self.record_physical_at(send_type, buffer_size, dst_pe, fabsp_hwpc::cycles_now());
    }

    /// Like [`record_physical`](PeCollector::record_physical), but with the
    /// absolute cycle stamp the event was *observed* at, rebased exactly as
    /// [`drain`](PeCollector::drain) rebases an event batched in a
    /// [`TraceBuffer`](crate::TraceBuffer).
    pub fn record_physical_at(
        &mut self,
        send_type: SendType,
        buffer_size: u64,
        dst_pe: usize,
        at_cycles: u64,
    ) {
        if !self.config.physical {
            return;
        }
        let ev = PhysicalEvent::new(send_type, buffer_size, dst_pe, at_cycles);
        self.physical.push(ev.rebased(self.t0_cycles));
    }

    /// Record one completed phase span from its absolute begin/end cycle
    /// stamps (taken at event time, so deferred draining does not skew the
    /// span timeline). No-op unless span tracing is enabled.
    pub fn record_span_at(&mut self, phase: Phase, begin_cycles: u64, end_cycles: u64) {
        if !self.config.spans {
            return;
        }
        let begin = begin_cycles.saturating_sub(self.t0_cycles);
        let end = end_cycles.saturating_sub(self.t0_cycles).max(begin);
        self.span_records.push(SpanRecord { phase, begin, end });
    }

    /// Replay a batch of hot-path events captured in a
    /// [`TraceBuffer`](crate::TraceBuffer) and leave the buffer empty (its
    /// storage is retained for reuse). Events are replayed in capture
    /// order — a send run as one aggregate bump, not message by message,
    /// each physical event packed with its stamp rebased —
    /// so the drained collector state — matrices, exact records, PAPI
    /// aggregates, physical timeline — is identical to eager per-message
    /// recording.
    pub fn drain(&mut self, buf: &mut crate::TraceBuffer) {
        let n_events = self
            .config
            .papi
            .as_ref()
            .map(|p| p.events().len())
            .unwrap_or(0);
        let (sends, physical, spans) = buf.take_events();
        for run in &sends {
            self.record_send_run(
                run.dst_pe as usize,
                run.msg_size,
                run.mailbox_id,
                run.count,
                run.papi.as_ref().map(|bank| &bank[..n_events]),
            );
        }
        if self.config.physical {
            for ev in &physical {
                self.physical.push(ev.rebased(self.t0_cycles));
            }
        }
        for ev in &spans {
            self.record_span_at(ev.phase, ev.begin_cycles, ev.end_cycles);
        }
        buf.put_back_storage(sends, physical, spans);
    }

    /// Store the overall MAIN/PROC/TOTAL cycle measurements. No-op unless
    /// overall profiling is enabled.
    pub fn set_overall(&mut self, t_main: u64, t_proc: u64, t_total: u64) {
        if !self.config.overall {
            return;
        }
        self.overall = Some(OverallRecord {
            pe: self.pe,
            t_main,
            t_proc,
            t_total,
        });
    }

    /// Attach the per-region hardware-counter profile measured by the
    /// runtime (feeds Figs 10–11).
    pub fn set_region_profile(&mut self, profile: RegionProfile) {
        self.region_profile = Some(profile);
    }

    /// The per-destination aggregate of logical sends (empty when logical
    /// tracing is off). Index = destination PE.
    pub fn logical_matrix(&self) -> &[LogicalCell] {
        &self.logical_matrix
    }

    /// Exact per-send records, as runs (only populated when
    /// [`TraceConfig::logical_sample`] is non-zero).
    pub fn logical_records(&self) -> LogicalRecords<'_> {
        LogicalRecords { collector: self }
    }

    /// Whether any PAPI line would be written — without building them, as
    /// [`papi_records`](PeCollector::papi_records) does.
    pub fn has_papi_records(&self) -> bool {
        !self.papi_agg.is_empty()
    }

    /// The PAPI message trace lines for this PE, ordered by
    /// (destination, mailbox).
    pub fn papi_records(&self) -> Vec<PapiRecord> {
        let n_events = self
            .config
            .papi
            .as_ref()
            .map(|p| p.events().len())
            .unwrap_or(0);
        let mut keys: Vec<_> = self.papi_agg.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(dst_pe, mailbox_id)| {
                let agg = &self.papi_agg[&(dst_pe, mailbox_id)];
                PapiRecord {
                    src_node: self.node(),
                    src_pe: self.pe,
                    dst_node: (dst_pe as usize / self.pes_per_node) as u32,
                    dst_pe,
                    pkt_size: agg.pkt_size,
                    mailbox_id,
                    num_sends: agg.num_sends,
                    counters: agg.counters[..n_events].to_vec(),
                }
            })
            .collect()
    }

    /// Physical-trace entries recorded by this PE's conveyor, with their
    /// cycle stamps.
    pub fn physical_records(&self) -> PhysicalRecords<'_> {
        PhysicalRecords {
            src_pe: self.pe,
            packed: &self.physical,
        }
    }

    /// Completed phase spans, in completion order.
    pub fn span_records(&self) -> &[SpanRecord] {
        &self.span_records
    }

    /// The overall breakdown, if overall profiling ran.
    pub fn overall(&self) -> Option<OverallRecord> {
        self.overall
    }

    /// The per-region counter profile, if the runtime attached one.
    pub fn region_profile(&self) -> Option<&RegionProfile> {
        self.region_profile.as_ref()
    }

    /// Total logical sends issued by this PE (all destinations).
    pub fn total_sends(&self) -> u64 {
        self.logical_matrix.iter().map(|c| c.sends).sum()
    }

    /// Rough heap footprint of the recorded traces, in bytes — the
    /// quantity §IV-E worries about: every element the collector holds,
    /// exact-record runs included.
    pub fn trace_bytes(&self) -> usize {
        use std::mem::size_of;
        self.logical_matrix.len() * size_of::<LogicalCell>()
            + self.logical_runs.held_bytes()
            + self.papi_agg.len() * (size_of::<PapiAgg>() + size_of::<(u32, u32)>())
            + self.physical.held_bytes()
            + self.span_records.len() * size_of::<SpanRecord>()
    }
}

/// Events per counter bank — re-exported for sizing delta buffers.
pub const EVENT_BANK_SIZE: usize = NUM_EVENTS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PapiConfig;

    fn collector(config: TraceConfig) -> PeCollector {
        PeCollector::new(1, 4, 2, config)
    }

    #[test]
    fn node_derivation() {
        let c = collector(TraceConfig::off());
        assert_eq!(c.node(), 0);
        let c = PeCollector::new(3, 4, 2, TraceConfig::off());
        assert_eq!(c.node(), 1);
    }

    #[test]
    fn logical_matrix_accumulates() {
        let mut c = collector(TraceConfig::off().with_logical());
        c.record_send(0, 16, 0, None);
        c.record_send(0, 16, 0, None);
        c.record_send(3, 8, 0, None);
        assert_eq!(c.logical_matrix()[0], LogicalCell { sends: 2, bytes: 32 });
        assert_eq!(c.logical_matrix()[3], LogicalCell { sends: 1, bytes: 8 });
        assert_eq!(c.total_sends(), 3);
        assert!(c.logical_records().is_empty(), "records off by default");
    }

    #[test]
    fn exact_records_when_enabled() {
        let mut c = collector(TraceConfig::off().with_logical_records());
        c.record_send(3, 24, 1, None);
        let recs: Vec<_> = c.logical_records().iter().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].src_pe, 1);
        assert_eq!(recs[0].src_node, 0);
        assert_eq!(recs[0].dst_pe, 3);
        assert_eq!(recs[0].dst_node, 1);
        assert_eq!(recs[0].msg_size, 24);
    }

    #[test]
    fn disabled_logical_records_nothing() {
        let mut c = collector(TraceConfig::off());
        assert!(!c.wants_send_events());
        c.record_send(0, 16, 0, None);
        assert!(c.logical_matrix().is_empty());
        assert_eq!(c.total_sends(), 0);
    }

    #[test]
    fn papi_aggregates_per_destination_and_mailbox() {
        let cfg = TraceConfig::off().with_papi(PapiConfig::case_study());
        let mut c = collector(cfg);
        c.record_send(0, 16, 0, Some(&[100, 40]));
        c.record_send(0, 16, 0, Some(&[50, 20]));
        c.record_send(0, 16, 1, Some(&[10, 5]));
        let recs = c.papi_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].mailbox_id, 0);
        assert_eq!(recs[0].num_sends, 2);
        assert_eq!(recs[0].pkt_size, 32);
        assert_eq!(recs[0].counters, vec![150, 60]);
        assert_eq!(recs[1].mailbox_id, 1);
        assert_eq!(recs[1].counters, vec![10, 5]);
    }

    #[test]
    fn physical_respects_config() {
        let mut c = collector(TraceConfig::off());
        c.record_physical(SendType::LocalSend, 512, 0);
        assert!(c.physical_records().is_empty());
        let mut c = collector(TraceConfig::off().with_physical());
        assert!(c.wants_physical());
        c.record_physical(SendType::NonblockSend, 1024, 3);
        let records: Vec<_> = c.physical_records().iter().collect();
        let expected = PhysicalRecord {
            send_type: SendType::NonblockSend,
            buffer_size: 1024,
            src_pe: 1,
            dst_pe: 3,
        };
        assert_eq!(records, [expected]);
    }

    #[test]
    fn overall_respects_config() {
        let mut c = collector(TraceConfig::off());
        c.set_overall(1, 2, 10);
        assert!(c.overall().is_none());
        let mut c = collector(TraceConfig::off().with_overall());
        c.set_overall(1, 2, 10);
        let o = c.overall().unwrap();
        assert_eq!((o.t_main, o.t_proc, o.t_total), (1, 2, 10));
        assert_eq!(o.t_comm(), 7);
    }

    #[test]
    fn sampling_keeps_every_kth_record() {
        let cfg = TraceConfig::off().with_logical_sampling(3);
        let mut c = collector(cfg);
        for _ in 0..10 {
            c.record_send(0, 8, 0, None);
        }
        // kept: sends 0, 3, 6, 9
        assert_eq!(c.logical_records().len(), 4);
        // the aggregate matrix stays exact
        assert_eq!(c.logical_matrix()[0].sends, 10);
    }

    #[test]
    fn physical_timestamps_parallel_records_and_increase() {
        let mut c = collector(TraceConfig::off().with_physical());
        c.record_physical(SendType::LocalSend, 64, 0);
        c.record_physical(SendType::NonblockSend, 64, 2);
        let ts: Vec<u64> = c.physical_records().timed().map(|(_, ts)| ts).collect();
        assert_eq!(ts.len(), c.physical_records().len());
        assert!(ts[1] >= ts[0], "timestamps are monotone per PE");
    }

    #[test]
    fn drained_batch_equals_eager_recording() {
        let cfg = TraceConfig::all().with_logical_records();
        let mut eager = collector(cfg.clone());
        let mut batched = collector(cfg.clone());
        let mut buf = crate::TraceBuffer::for_config(&cfg);

        let mut bank = [0u64; fabsp_hwpc::MAX_EVENTS];
        bank[0] = 100;
        bank[1] = 40;
        for dst in [0usize, 3, 3, 2] {
            eager.record_send(dst, 16, 1, Some(&bank[..2]));
            buf.record_send_run(dst, 16, 1, 1, Some(bank));
        }
        // a run replays as its messages would have, one by one
        for _ in 0..5 {
            eager.record_send(2, 16, 1, None);
        }
        buf.record_send_run(2, 16, 1, 5, None);
        buf.record_physical(SendType::LocalSend, 64, 0);
        buf.record_physical(SendType::NonblockSend, 128, 2);
        buf.record_physical(SendType::NonblockProgress, 128, 2);
        // eager recording told the stamps the buffer took, against one t0
        batched.t0_cycles = eager.t0_cycles;
        for ev in buf.pending_physical() {
            let (t, bytes, dst) = (ev.send_type(), ev.buffer_size(), ev.dst_pe() as usize);
            eager.record_physical_at(t, bytes, dst, ev.cycles());
        }
        batched.drain(&mut buf);

        assert!(buf.is_empty(), "drain leaves the buffer reusable");
        assert_eq!(eager.logical_matrix(), batched.logical_matrix());
        assert_eq!(
            eager.logical_records().runs().collect::<Vec<_>>(),
            batched.logical_records().runs().collect::<Vec<_>>()
        );
        assert_eq!(eager.papi_records(), batched.papi_records());
        assert!(eager.physical_records().events().eq(batched.physical_records().events()));
        assert_eq!(
            eager.physical_records().timed().collect::<Vec<_>>(),
            batched.physical_records().timed().collect::<Vec<_>>()
        );
        assert_eq!(batched.physical_records().len(), 3);
        assert_eq!(batched.physical_records().dictionary_len(), 3);
        assert_eq!(eager.trace_bytes(), batched.trace_bytes());
        // a second batch keeps accumulating
        buf.record_send_run(1, 8, 0, 1, Some(bank));
        batched.drain(&mut buf);
        assert_eq!(batched.logical_matrix()[1].sends, 1);
    }

    #[test]
    fn two_buffers_drained_apart_keep_their_backward_stamps_exactly() {
        // two mailboxes' buffers fill side by side and drain one after the
        // other, so the second batch's stamps fall back below the first's
        let cfg = TraceConfig::off().with_physical();
        let mut c = collector(cfg.clone());
        let [mut a, mut b] = [(); 2].map(|_| crate::TraceBuffer::for_config(&cfg));
        for i in 0..20 {
            a.record_physical(SendType::NonblockSend, 512, i % 2);
            b.record_physical(SendType::NonblockProgress, 64, i % 3);
        }
        let pending = a.pending_physical().iter().chain(b.pending_physical());
        let captured: Vec<_> = pending.copied().collect();
        c.drain(&mut a);
        c.drain(&mut b);
        let expected = captured.iter().map(|ev| ev.rebased(c.t0_cycles));
        assert!(c.physical_records().events().eq(expected));
        let stamps: Vec<u64> = c.physical_records().timed().map(|(_, at)| at).collect();
        assert!(stamps[20] <= stamps[19], "the second batch starts back in time");
        assert_eq!(c.physical_records().dictionary_len(), 5);
    }

    #[test]
    fn spans_rebase_to_collector_creation_and_respect_config() {
        let mut c = collector(TraceConfig::off());
        c.record_span_at(Phase::Advance, 100, 200);
        assert!(c.span_records().is_empty(), "spans off by default");

        let mut c = collector(TraceConfig::off().with_spans());
        let t0 = fabsp_hwpc::cycles_now();
        c.record_span_at(Phase::Superstep, t0 + 10, t0 + 50);
        c.record_span_at(Phase::Quiet, t0 + 20, t0 + 30);
        let spans = c.span_records();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Superstep);
        assert!(spans[0].end >= spans[0].begin);
        assert!(spans[1].begin >= spans[0].begin, "relative to same t0");
    }

    #[test]
    fn trace_bytes_counts_every_held_element() {
        use std::mem::size_of;
        let mut c = collector(TraceConfig::all().with_logical_records());
        c.record_send_run(0, 16, 0, 1000, Some(&[1, 1]));
        c.record_send(3, 16, 1, Some(&[1, 1]));
        c.record_physical(SendType::LocalSend, 64, 0);
        c.record_physical(SendType::NonblockSend, 64, 2);
        c.record_span_at(Phase::Superstep, c.t0_cycles, c.t0_cycles + 1);
        assert_eq!(size_of::<SendKey>(), 8, "a run of one is smaller than one expanded record (20 B)");
        assert_eq!(PhysicalRecords::SEGMENT_BYTES, 56);
        assert_eq!(size_of::<SpanRecord>(), 24);
        let papi_line = size_of::<PapiAgg>() + size_of::<(u32, u32)>();
        // 4 matrix cells, 2 runs (one of them with its length), 2 PAPI
        // lines, 2 packed physical events with the 2 dictionary words and
        // the one segment header they use, 1 span
        let physical = 2 * 8 + 2 * 8 + 56;
        assert_eq!(c.trace_bytes(), 4 * 16 + (2 * 8 + 16) + 2 * papi_line + physical + 24);
    }

    /// `n` sends to PE `dst(i)`, one by one, as exact records.
    fn exact_cost(n: u64, dst: impl Fn(u64) -> usize) -> usize {
        let mut c = collector(TraceConfig::off().with_logical_records());
        for i in 0..n {
            c.record_send(dst(i), 8, 0, None);
        }
        assert_eq!(c.logical_records().len() as u64, n);
        c.trace_bytes()
    }

    #[test]
    fn exact_records_cost_runs_not_messages() {
        let empty = exact_cost(0, |_| 0);
        assert_eq!(exact_cost(1_000_000, |_| 2), exact_cost(1_000, |_| 2), "one run either way");
        let n = 10_000;
        let alternating = exact_cost(n, |i| i as usize % 2) - empty;
        assert!(alternating <= 20 * n as usize, "{alternating} B for {n} runs of one");
    }

    #[test]
    fn a_run_near_the_counter_maximum_keeps_its_length() {
        let mut c = collector(TraceConfig::off().with_logical_records());
        c.record_send_run(1, 0, 0, u64::MAX - 2, None);
        c.record_send(1, 0, 1, None);
        c.record_send(3, 0, 0, None);
        let records = c.logical_records();
        assert_eq!(records.len(), u64::MAX as usize);
        let counts: Vec<u64> = records.runs().map(|(_, n)| n).collect();
        assert_eq!(counts, [u64::MAX - 1, 1]);
        assert_eq!(c.logical_matrix()[1].sends, u64::MAX - 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One random send sequence — `(dst, size, mailbox, count, split,
        /// drain)` per step — recorded per message, as runs split at random
        /// and through `TraceBuffer` drains at random points ends up as the
        /// same maximal runs, whose expansion is exactly the records the
        /// `logical_sample` stride keeps.
        #[test]
        fn runs_do_not_depend_on_how_sends_arrive(
            ops in proptest::collection::vec((0usize..4, 0u32..2, 0u32..2, 1u64..40, 0u64..40, 0u32..3), 0..40),
            sample in 0usize..2,
        ) {
            let config = TraceConfig::off().with_logical_sampling([1, 3][sample]);
            let [mut per_message, mut runs, mut drained] = [(); 3].map(|_| collector(config.clone()));
            let mut buf = crate::TraceBuffer::for_config(&config);
            let (mut expected, mut sent) = (Vec::new(), 0u64);
            for &(dst, size, mailbox, count, split, drain) in &ops {
                let size = 8 << size;
                // PE 1 of 4, two to a node
                let record = LogicalRecord { src_node: 0, src_pe: 1, dst_node: dst as u32 / 2, dst_pe: dst as u32, msg_size: size };
                for _ in 0..count {
                    if sent % config.logical_sample as u64 == 0 {
                        expected.push(record);
                    }
                    sent += 1;
                    per_message.record_send(dst, size, mailbox, None);
                }
                let split = split.min(count);
                runs.record_send_run(dst, size, mailbox, split, None);
                runs.record_send_run(dst, size, mailbox, count - split, None);
                buf.record_send_run(dst, size, mailbox, count, None);
                if drain == 0 {
                    drained.drain(&mut buf);
                }
            }
            drained.drain(&mut buf);

            let held: Vec<_> = per_message.logical_records().runs().collect();
            proptest::prop_assert_eq!(&held, &runs.logical_records().runs().collect::<Vec<_>>());
            proptest::prop_assert_eq!(&held, &drained.logical_records().runs().collect::<Vec<_>>());
            proptest::prop_assert_eq!(per_message.trace_bytes(), runs.trace_bytes());
            proptest::prop_assert_eq!(per_message.trace_bytes(), drained.trace_bytes());
            let maximal = held.windows(2).all(|w| w[0].0 != w[1].0);
            proptest::prop_assert!(maximal && held.iter().all(|&(_, n)| n > 0), "{:?}", held);
            proptest::prop_assert_eq!(per_message.logical_records().iter().collect::<Vec<_>>(), expected);
        }
    }
}
