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
//! [`TraceConfig::logical_records`] is set, and then as maximal runs of
//! equal records. The source node and PE of every record are the
//! collector's own and the destination node follows from the destination
//! PE, so a run is a destination PE and a message size (8 bytes), plus its
//! length when longer than one (16 more) — never more per message than
//! the 20 bytes one expanded record took. Memory grows with the number of
//! runs, not of messages.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::rc::Rc;

use fabsp_hwpc::event::NUM_EVENTS;
use fabsp_hwpc::RegionProfile;

use fabsp_telemetry::Phase;

use crate::config::TraceConfig;
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
    physical_records: Vec<PhysicalRecord>,
    /// Cycle timestamp of each physical record, relative to collector
    /// creation (feeds the Google-Trace-Events exporter — §VI future work).
    physical_timestamps: Vec<u64>,
    /// Completed phase spans, in completion order, relative to collector
    /// creation (feeds the Perfetto duration export).
    span_records: Vec<SpanRecord>,
    t0_cycles: u64,
    overall: Option<OverallRecord>,
    region_profile: Option<RegionProfile>,
    /// Sends seen so far (drives record sampling).
    send_counter: u64,
    /// Streaming sink for exact logical records (§VI large-trace support).
    stream: Option<std::io::BufWriter<std::fs::File>>,
    /// The lines of the run being streamed (reused across runs).
    stream_block: Vec<u8>,
}

impl PeCollector {
    /// A collector for PE `pe` in a world of `n_pes` PEs grouped
    /// `pes_per_node` to a node.
    pub fn new(pe: usize, n_pes: usize, pes_per_node: usize, config: TraceConfig) -> PeCollector {
        assert!(pe < n_pes, "PE {pe} out of range ({n_pes} PEs)");
        assert!(pes_per_node > 0, "pes_per_node must be positive");
        let matrix_len = if config.logical { n_pes } else { 0 };
        let stream = config.stream_dir.as_ref().map(|dir| {
            std::fs::create_dir_all(dir).expect("create stream directory");
            let file = std::fs::File::create(dir.join(format!("PE{pe}_send.csv")))
                .expect("create stream file");
            std::io::BufWriter::new(file)
        });
        PeCollector {
            pe: pe as u32,
            n_pes,
            pes_per_node,
            config,
            logical_matrix: vec![LogicalCell::default(); matrix_len],
            logical_runs: Runs::default(),
            papi_agg: HashMap::new(),
            physical_records: Vec::new(),
            physical_timestamps: Vec::new(),
            span_records: Vec::new(),
            t0_cycles: fabsp_hwpc::cycles_now(),
            overall: None,
            region_profile: None,
            send_counter: 0,
            stream,
            stream_block: Vec::new(),
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
    /// exact records, stream bytes, PAPI lines) to `count` calls of
    /// [`record_send`](PeCollector::record_send), the first of which
    /// carries `papi_deltas`. The aggregates are bumped by `count`; when
    /// exact records or streaming ask for them, what the `logical_sample`
    /// stride keeps of the run is kept as one run.
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
            if self.config.logical_records || self.stream.is_some() {
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
    /// `logical_sample` stride keeps — all equal, so one run — as that
    /// many lines on the stream if one is open, and in memory otherwise.
    fn keep_run(&mut self, dst_pe: usize, msg_size: u32, first: u64, count: u64) {
        // multiples of the stride in [first, first + count)
        let kept = match self.config.logical_sample.max(1) as u64 {
            1 => count,
            stride => (first + count).div_ceil(stride) - first.div_ceil(stride),
        };
        if kept == 0 {
            return;
        }
        let (key, record) = (SendKey { dst_pe: dst_pe as u32, msg_size }, self.record_of());
        match &mut self.stream {
            None => self.logical_runs.push(key, kept),
            Some(w) => {
                let encode = crate::codec::encode_logical;
                crate::codec::write_run(w, &mut self.stream_block, &record(key), kept, encode)
                    .expect("stream write failed (disk full?)")
            }
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
    /// conveyor. No-op unless physical tracing is enabled.
    pub fn record_physical(&mut self, send_type: SendType, buffer_size: u64, dst_pe: usize) {
        self.record_physical_at(send_type, buffer_size, dst_pe, fabsp_hwpc::cycles_now());
    }

    /// Like [`record_physical`](PeCollector::record_physical), but with the
    /// absolute cycle stamp the event was *observed* at — used when events
    /// are batched in a [`TraceBuffer`](crate::TraceBuffer) and drained
    /// later, so the physical timeline reflects event time, not drain time.
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
        self.physical_records.push(PhysicalRecord {
            send_type,
            buffer_size,
            src_pe: self.pe,
            dst_pe: dst_pe as u32,
        });
        self.physical_timestamps
            .push(at_cycles.saturating_sub(self.t0_cycles));
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
    /// order — a send run as one aggregate bump, not message by message —
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
        for ev in &physical {
            self.record_physical_at(ev.send_type, ev.buffer_size, ev.dst_pe as usize, ev.cycles);
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

    /// Flush the streaming sink, if any. Called automatically on drop;
    /// call explicitly to surface flush timing deterministically.
    pub fn flush_stream(&mut self) {
        if let Some(w) = &mut self.stream {
            w.flush().expect("stream flush failed");
        }
    }

    /// The per-destination aggregate of logical sends (empty when logical
    /// tracing is off). Index = destination PE.
    pub fn logical_matrix(&self) -> &[LogicalCell] {
        &self.logical_matrix
    }

    /// Exact per-send records, as runs (only populated with
    /// [`TraceConfig::logical_records`] and no stream).
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

    /// Physical-trace entries recorded by this PE's conveyor.
    pub fn physical_records(&self) -> &[PhysicalRecord] {
        &self.physical_records
    }

    /// Cycle timestamps (relative to collector creation) parallel to
    /// [`physical_records`](PeCollector::physical_records).
    pub fn physical_timestamps(&self) -> &[u64] {
        &self.physical_timestamps
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
            + self.physical_records.len() * (size_of::<PhysicalRecord>() + size_of::<u64>())
            + self.span_records.len() * size_of::<SpanRecord>()
    }
}

impl Drop for PeCollector {
    fn drop(&mut self) {
        // Best-effort flush; explicit flush_stream() reports failures.
        if let Some(w) = &mut self.stream {
            let _ = w.flush();
        }
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
        assert_eq!(c.physical_records().len(), 1);
        assert_eq!(c.physical_records()[0].buffer_size, 1024);
        assert_eq!(c.physical_records()[0].src_pe, 1);
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
    fn streaming_writes_records_to_disk_not_memory() {
        let dir = std::env::temp_dir().join(format!("actorprof-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TraceConfig::off().with_streaming(&dir);
        let mut c = PeCollector::new(1, 4, 2, cfg);
        for dst in [0usize, 3, 3] {
            c.record_send(dst, 16, 0, None);
        }
        c.flush_stream();
        assert!(c.logical_records().is_empty(), "records go to disk");
        assert_eq!(c.logical_matrix()[3].sends, 2, "matrix still exact");
        let content = std::fs::read_to_string(dir.join("PE1_send.csv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "0,1,0,0,16");
        assert_eq!(lines[1], "0,1,1,3,16");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_with_sampling_composes() {
        let dir = std::env::temp_dir().join(format!("actorprof-ss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TraceConfig::off().with_logical_sampling(2).with_streaming(&dir);
        let mut c = PeCollector::new(0, 2, 2, cfg);
        for _ in 0..6 {
            c.record_send(1, 8, 0, None);
        }
        c.flush_stream();
        let content = std::fs::read_to_string(dir.join("PE0_send.csv")).unwrap();
        assert_eq!(content.lines().count(), 3, "every 2nd of 6 sends");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn physical_timestamps_parallel_records_and_increase() {
        let mut c = collector(TraceConfig::off().with_physical());
        c.record_physical(SendType::LocalSend, 64, 0);
        c.record_physical(SendType::NonblockSend, 64, 2);
        assert_eq!(c.physical_timestamps().len(), c.physical_records().len());
        let ts = c.physical_timestamps();
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
        eager.record_physical(SendType::LocalSend, 64, 0);
        eager.record_physical(SendType::NonblockSend, 128, 2);
        buf.record_physical(SendType::LocalSend, 64, 0);
        buf.record_physical(SendType::NonblockSend, 128, 2);
        batched.drain(&mut buf);

        assert!(buf.is_empty(), "drain leaves the buffer reusable");
        assert_eq!(eager.logical_matrix(), batched.logical_matrix());
        assert_eq!(
            eager.logical_records().runs().collect::<Vec<_>>(),
            batched.logical_records().runs().collect::<Vec<_>>()
        );
        assert_eq!(eager.papi_records(), batched.papi_records());
        assert_eq!(eager.physical_records(), batched.physical_records());
        assert_eq!(
            eager.physical_timestamps().len(),
            batched.physical_timestamps().len()
        );
        // a second batch keeps accumulating
        buf.record_send_run(1, 8, 0, 1, Some(bank));
        batched.drain(&mut buf);
        assert_eq!(batched.logical_matrix()[1].sends, 1);
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
    fn drained_spans_sample_hot_phases_keep_supersteps() {
        let cfg = TraceConfig::off().with_span_sampling(4);
        let mut c = collector(cfg.clone());
        let mut buf = crate::TraceBuffer::for_config(&cfg);
        let t = fabsp_hwpc::cycles_now();
        for i in 0..8u64 {
            buf.record_span(Phase::Advance, t + i, t + i + 1);
        }
        buf.record_span(Phase::Superstep, t, t + 100);
        buf.record_span(Phase::Superstep, t + 100, t + 200);
        c.drain(&mut buf);
        assert!(buf.is_empty());
        let kept_hot = c
            .span_records()
            .iter()
            .filter(|s| s.phase == Phase::Advance)
            .count();
        assert_eq!(kept_hot, 2, "every 4th of 8 advance spans");
        let supersteps = c
            .span_records()
            .iter()
            .filter(|s| s.phase == Phase::Superstep)
            .count();
        assert_eq!(supersteps, 2, "supersteps never sampled away");
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
        assert_eq!(size_of::<PhysicalRecord>(), 24);
        assert_eq!(size_of::<SpanRecord>(), 24);
        let papi_line = size_of::<PapiAgg>() + size_of::<(u32, u32)>();
        // 4 matrix cells, 2 runs (one of them with its length), 2 PAPI
        // lines, 2 physical records and their timestamps, 1 span
        assert_eq!(c.trace_bytes(), 4 * 16 + (2 * 8 + 16) + 2 * papi_line + 2 * (24 + 8) + 24);
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
