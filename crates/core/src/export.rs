//! Google Trace Events export — the trace-format adoption the paper lists
//! as future work (§VI: "the adoption of OTF and Google Trace Events
//! format ... is currently being investigated").
//!
//! Produces a Chrome-/Perfetto-loadable JSON file: one process per node,
//! one thread per PE (labeled `pe<rank>`, matching the cockpit and the
//! flight-recorder dump naming), an instant event per physical send
//! (timestamped with the rdtsc cycles captured at record time, converted
//! to microseconds at the nominal clock), `B`/`E` duration pairs for the
//! recorded phase spans (superstep / advance / quiet / relay hop), per-PE
//! region summaries as counter events, and — for continuous-mode runs — a
//! synthetic `overhead` process whose lane renders every metered window
//! with its measured overhead. The file is built in one byte buffer from
//! static pieces, integers and timestamps through [`codec::put`].

use std::path::Path;

use actorprof_trace::{codec, OverallRecord, PeCollector, PhysicalEvent, SendType, SpanRecord};
use fabsp_hwpc::NOMINAL_HZ;
use fabsp_telemetry::{ContinuousReport, Phase};

use crate::bundle::TraceBundle;
use crate::error::ProfError;

const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
/// The `ph` of an instant event, with its thread scope.
const INSTANT: &str = "i\",\"s\":\"t";

/// One per-thread timeline entry awaiting emission. Sorted so each PE's
/// stream is monotone in `ts` and `B`/`E` pairs nest: at equal timestamps
/// ends come first (innermost end before an adjacent sibling begins),
/// then begins (outermost first), then instants. A zero-length span ends
/// among the begins, right after its own begin.
enum TimelineEv<'a> {
    Begin(&'a SpanRecord),
    End(&'a SpanRecord),
    Instant(&'a PhysicalEvent),
}

impl TimelineEv<'_> {
    fn sort_key(&self) -> (u64, u8, u64) {
        match self {
            // zero length: its begin's key; the sort is stable and the begin
            // precedes the end in the input, so the end follows right after
            TimelineEv::End(s) if s.begin == s.end => (s.end, 1, u64::MAX - s.end),
            // ties: the span that began later ends first (inner before outer)
            TimelineEv::End(s) => (s.end, 0, u64::MAX - s.begin),
            // ties: the span that ends later begins first (outer before inner)
            TimelineEv::Begin(s) => (s.begin, 1, u64::MAX - s.end),
            TimelineEv::Instant(ev) => (ev.cycles(), 2, 0),
        }
    }
}

/// What the exporter reads of one PE's collector.
struct Lane<'a> {
    node: u32,
    pe: u32,
    spans: &'a [SpanRecord],
    /// Physical sends, decoded, stamped relative to collector creation.
    physical: Vec<PhysicalEvent>,
    overall: Option<OverallRecord>,
}

impl<'a> From<&'a PeCollector> for Lane<'a> {
    fn from(c: &'a PeCollector) -> Lane<'a> {
        Lane {
            node: c.node(),
            pe: c.pe(),
            spans: c.span_records(),
            physical: c.physical_records().events().collect(),
            overall: c.overall(),
        }
    }
}

/// Append `cycles` as microseconds with three decimals: the whole
/// nanoseconds `cycles·10⁹ / NOMINAL_HZ`, rounded to nearest in `u128`,
/// split at the decimal point. This prints exactly what
/// `format!("{:.3}", cycles_to_us(cycles))` prints wherever that float path
/// is itself exactly rounded. At 2.45 GHz one cycle is 20/49 ns, so the
/// exact value's fraction of a ns is `k/49` and never lies on a half-ns
/// tie; the nearest one is 1/98 ns away. The float path's two roundings
/// (÷ `NOMINAL_HZ`, × 10⁶) err by at most 2⁻⁵² relative, which stays under
/// that gap below 2⁵²/98 000 ≈ 4.6·10¹⁰ µs (12.7 h of cycles). Relative
/// PE timestamps are far below it; the overhead lane stamps absolute TSC
/// readings, and on a host whose counter is past it this prints the
/// correctly rounded value where the float path could be one ns off.
fn put_us(buf: &mut Vec<u8>, cycles: u64) {
    let hz = u128::from(NOMINAL_HZ);
    let ns = (u128::from(cycles) * 1_000_000_000 + hz / 2) / hz;
    codec::put(buf, &[(ns / 1000) as u64], "");
    // `1ddd` keeps the fraction's leading zeros; its `1` becomes the point
    let point = buf.len();
    codec::put(buf, &[1000 + (ns % 1000) as u64], "");
    buf[point] = b'.';
}

/// The JSON under construction: one byte buffer.
struct Json(Vec<u8>);

impl Json {
    /// Open the next event, `{"name":…,"ph":…,"pid":…,"tid":…`, after a
    /// `,\n` unless it is the first since [`HEADER`] (or in a fresh buffer).
    fn event(&mut self, name: &str, ph: &str, at: (u32, u32)) -> &mut Json {
        if self.0.len() > HEADER.len() {
            self.s(",\n");
        }
        self.s("{\"name\":\"").s(name).s("\",\"ph\":\"").s(ph);
        self.s("\",\"pid\":").n(at.0).s(",\"tid\":").n(at.1)
    }

    /// A metadata event naming a process or thread `name` (then `rank`).
    fn meta(&mut self, kind: &str, at: (u32, u32), name: &str, rank: Option<u32>) {
        self.event(kind, "M", at);
        self.s(",\"args\":{\"name\":\"").s(name);
        if let Some(rank) = rank {
            self.n(rank);
        }
        self.s("\"}}");
    }

    fn s(&mut self, piece: impl AsRef<[u8]>) -> &mut Json {
        self.0.extend_from_slice(piece.as_ref());
        self
    }

    fn n(&mut self, value: impl Into<u64>) -> &mut Json {
        codec::put(&mut self.0, &[value.into()], "");
        self
    }

    /// `,"ts":` and the timestamp of `cycles` (see [`put_us`]).
    fn ts(&mut self, cycles: u64) -> &mut Json {
        self.s(",\"ts\":");
        put_us(&mut self.0, cycles);
        self
    }
}

/// Serialize the bundle's physical trace and phase spans (and overall
/// summaries, when collected) as Google Trace Events JSON. Returns the
/// JSON string. Requires at least one of the timeline dimensions
/// (physical trace or phase spans) to have been collected.
pub fn trace_events_json(bundle: &TraceBundle) -> Result<String, ProfError> {
    trace_events_json_with_overhead(bundle, None)
}

/// Like [`trace_events_json`], additionally rendering a continuous-mode
/// run's [`ContinuousReport`] as a synthetic `overhead` process: one
/// duration event per metered window, with the measured overhead as args.
pub fn trace_events_json_with_overhead(
    bundle: &TraceBundle,
    continuous: Option<&ContinuousReport>,
) -> Result<String, ProfError> {
    if !bundle.has_physical() && !bundle.has_spans() {
        return Err(ProfError::NotCollected("physical trace"));
    }
    let nodes = bundle.n_pes().div_ceil(bundle.pes_per_node()) as u32;
    let lanes: Vec<Lane<'_>> = bundle.collectors().iter().map(Lane::from).collect();
    Ok(render(nodes, &lanes, continuous))
}

/// The whole file: `nodes` processes, a thread per lane, and the overhead
/// process (pid `nodes`) when given.
fn render(nodes: u32, lanes: &[Lane<'_>], continuous: Option<&ContinuousReport>) -> String {
    use TimelineEv::{Begin, End, Instant};
    let mut j = Json(Vec::new());
    j.s(HEADER);

    // metadata: processes = nodes, threads = PEs
    for node in 0..nodes {
        j.meta("process_name", (node, 0), "node", Some(node));
    }
    for l in lanes {
        j.meta("thread_name", (l.node, l.pe), "pe", Some(l.pe));
    }

    // Per-PE timeline: duration pairs for phase spans merged with an
    // instant event per physical send, in timestamp order per thread.
    // Never the first event, so each opens with `,\n`.
    for l in lanes {
        let spans = l.spans.iter().flat_map(|s| [Begin(s), End(s)]);
        let mut timeline: Vec<_> = spans.chain(l.physical.iter().map(Instant)).collect();
        timeline.sort_by_key(TimelineEv::sort_key);
        // each event head (`{"name":…,"tid":…`) of this thread, built once
        let head =
            |name, ph| std::mem::take(&mut Json(Vec::new()).event(name, ph, (l.node, l.pe)).0);
        let [begins, ends] = ["B", "E"].map(|ph| Phase::ALL.map(|p| head(p.label(), ph)));
        let instants = SendType::ALL.map(|t| head(t.label(), INSTANT));
        for event in timeline {
            j.s(",\n");
            match event {
                Begin(s) => j.s(&begins[s.phase as usize]).ts(s.begin).s("}"),
                End(s) => j.s(&ends[s.phase as usize]).ts(s.end).s("}"),
                Instant(ev) => {
                    j.s(&instants[ev.send_type() as usize]).ts(ev.cycles());
                    j.s(",\"args\":{\"bytes\":").n(ev.buffer_size());
                    j.s(",\"dst_pe\":").n(ev.dst_pe()).s("}}")
                }
            };
        }
    }

    // counter events: the per-PE overall breakdown (if collected)
    if lanes.iter().all(|l| l.overall.is_some()) {
        for (l, r) in lanes.iter().filter_map(|l| Some((l, l.overall?))) {
            j.event("region_cycles", "C", (l.node, r.pe));
            j.s(",\"ts\":0,\"args\":{\"T_MAIN\":").n(r.t_main);
            j.s(",\"T_COMM\":").n(r.t_comm());
            j.s(",\"T_PROC\":").n(r.t_proc).s("}}");
        }
    }

    // The overhead lane: its own process so Perfetto draws it under the
    // node/PE lanes. Window i spans the interval between consecutive
    // window stamps; the first window (no known start) is an instant.
    if let Some(report) = continuous {
        let at = (nodes, 0);
        j.meta("process_name", at, "overhead", None);
        j.meta("thread_name", at, "overhead meter", None);
        let mut prev_at: Option<u64> = None;
        for w in &report.metered {
            let args = format!(",\"args\":{{\"overhead_pct\":{:.4}}}}}", w.overhead_pct);
            let opened = prev_at.filter(|&prev| w.at_cycles > prev);
            if let Some(prev) = opened {
                j.event("window", "B", at).ts(prev).s("}");
            }
            let ph = if opened.is_some() { "E" } else { INSTANT };
            j.event("window", ph, at).ts(w.at_cycles).s(&args);
            prev_at = Some(w.at_cycles);
        }
    }

    j.s("\n]}\n");
    String::from_utf8(j.0).expect("every piece is a str")
}

/// Write the trace-events JSON to `path`.
pub fn write_trace_events(path: &Path, bundle: &TraceBundle) -> Result<(), ProfError> {
    write_trace_events_with_overhead(path, bundle, None)
}

/// Write the trace-events JSON, including the overhead lane when the run
/// executed in continuous mode.
pub fn write_trace_events_with_overhead(
    path: &Path,
    bundle: &TraceBundle,
    continuous: Option<&ContinuousReport>,
) -> Result<(), ProfError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, trace_events_json_with_overhead(bundle, continuous)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::{PeCollector, SendType, TraceConfig};

    fn bundle() -> TraceBundle {
        let cfg = TraceConfig::off().with_physical().with_overall();
        let collectors = (0..2)
            .map(|pe| {
                let mut c = PeCollector::new(pe, 2, 1, cfg.clone());
                c.record_physical(SendType::NonblockSend, 512, 1 - pe);
                c.record_physical(SendType::NonblockProgress, 512, 1 - pe);
                c.set_overall(10, 20, 100);
                c
            })
            .collect();
        TraceBundle::from_collectors(collectors).unwrap()
    }

    #[test]
    fn json_has_metadata_events_and_counters() {
        let json = trace_events_json(&bundle()).unwrap();
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\":\"node0\""));
        assert!(json.contains("\"name\":\"node1\""));
        assert!(
            json.contains("\"name\":\"pe1\""),
            "PE lanes are labeled pe<rank>"
        );
        assert!(!json.contains("\"name\":\"PE1\""));
        assert!(json.contains("\"name\":\"nonblock_send\""));
        assert!(json.contains("\"name\":\"nonblock_progress\""));
        assert!(json.contains("\"T_COMM\":70"));
        assert_eq!(
            json.matches("\"ph\":\"i\"").count(),
            4,
            "one instant event per physical record"
        );
    }

    /// One golden PE: its spans and its stamped physical events.
    type Records = (Vec<SpanRecord>, Vec<PhysicalEvent>);

    /// Three PEs on two nodes: nested spans, a zero-length span,
    /// equal-timestamp ties (begins, ends and instants), instants on both
    /// sides of the timestamp formatter's `49·k` cycle boundaries, and
    /// overall counters.
    fn golden_records() -> Vec<Records> {
        use actorprof_trace::Phase::{Advance, Quiet, RelayHop, Superstep};
        use SendType::{LocalSend, NonblockProgress, NonblockSend};
        let span = |phase, begin, end| SpanRecord { phase, begin, end };
        let lane = |spans, sends: &[(SendType, u64, usize, u64)]| {
            let events = sends
                .iter()
                .map(|&(t, bytes, dst_pe, ts)| PhysicalEvent::new(t, bytes, dst_pe, ts));
            (spans, events.collect())
        };
        vec![
            lane(
                vec![
                    span(Superstep, 0, 2_450_000),
                    span(Advance, 49, 1_000_000),
                    span(Quiet, 49, 500),
                    span(RelayHop, 500, 1_000_000),
                    span(Advance, 500, 500),
                ],
                &[
                    (LocalSend, 4096, 1, 49),
                    (NonblockSend, 512, 2, 500),
                    (NonblockProgress, 512, 2, 1_000_000),
                    (LocalSend, 64, 1, 1_000_000),
                ],
            ),
            lane(
                vec![span(Superstep, 24, (49 << 30) + 1)],
                &[
                    (LocalSend, 8, 0, 25),
                    (LocalSend, 8, 0, (49 << 20) - 1),
                    (NonblockSend, 1 << 20, 2, (49 << 30) - 1),
                ],
            ),
            lane(
                vec![span(Quiet, 2_450_000_000, 2_450_000_001)],
                &[(NonblockProgress, 1024, 0, (49 << 40) + 1)],
            ),
        ]
    }

    fn golden_lanes(records: &[Records]) -> Vec<Lane<'_>> {
        let overall = [(10, 20, 100), (0, 0, 0), (1 << 40, 5, 1 << 41)];
        let lanes = records.iter().zip(overall).zip(0u32..);
        lanes
            .map(
                |(((spans, physical), (t_main, t_proc, t_total)), pe)| Lane {
                    node: pe / 2,
                    pe,
                    spans,
                    physical: physical.clone(),
                    overall: Some(OverallRecord {
                        pe,
                        t_main,
                        t_proc,
                        t_total,
                    }),
                },
            )
            .collect()
    }

    /// Four windows: the first (an instant), a B/E pair, one at the same
    /// stamp (an instant again), and a B/E pair.
    fn golden_overhead() -> ContinuousReport {
        let mut r = ContinuousReport::new(fabsp_telemetry::OverheadBudget::pct(5.0));
        r.meter(1_000_000, 10, 10, 2_450_000);
        r.meter(1_000_000, 40_000, 0, 4_900_000);
        r.meter(1_000_000, 100_000, 0, 4_900_000);
        r.meter(1_000_000, 0, 0, 7_350_049);
        r
    }

    /// The fixture pins every byte of the file for exactly these lanes.
    #[test]
    fn golden_file_is_reproduced_byte_for_byte() {
        let records = golden_records();
        let json = render(2, &golden_lanes(&records), Some(&golden_overhead()));
        assert_eq!(json, include_str!("../testdata/trace_events_golden.json"));
    }

    #[test]
    fn timestamps_match_the_float_formatter() {
        let check = |c: u64| {
            let mut buf = Vec::new();
            put_us(&mut buf, c);
            let want = format!("{:.3}", fabsp_hwpc::cycles_to_us(c));
            assert_eq!(String::from_utf8(buf).unwrap(), want, "cycles {c}");
        };
        (0..=1_200_000).for_each(check);
        for k in [1u64 << 20, 1 << 30, 1 << 40] {
            for k in k - 2..=k + 2 {
                [49 * k - 1, 49 * k, 49 * k + 1].into_iter().for_each(check);
            }
        }
        // xorshift64, fixed seed: 100 k stamps below 2⁴⁵ (~4 h of cycles)
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check(x >> 19);
        }
    }

    /// Every timeline event (all but metadata and counters) of a thread —
    /// keyed by `(pid, tid)`, so the overhead lane is its own — carries a
    /// `ts` no smaller than the one before it; ties are allowed. Every `E`
    /// closes the innermost open `B` of its thread, by name.
    #[test]
    fn timestamps_are_monotone_per_thread() {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            line.split(key).nth(1)?.split([',', '}']).next()
        }
        let records = golden_records();
        let golden = render(2, &golden_lanes(&records), Some(&golden_overhead()));
        for json in [trace_events_json(&bundle()).unwrap(), golden] {
            let mut last = std::collections::HashMap::new();
            let mut open = std::collections::HashMap::new();
            let timeline = json.lines().filter(|l| !l.contains("\"ph\":\"M\""));
            for line in timeline.filter(|l| !l.contains("\"ph\":\"C\"")) {
                let Some(ts) = field(line, "\"ts\":") else {
                    continue;
                };
                let thread = (field(line, "\"pid\":"), field(line, "\"tid\":"));
                let ts: f64 = ts.parse().expect("ts parses");
                let prev = last.insert(thread, ts).unwrap_or(0.0);
                assert!(
                    ts >= prev,
                    "{thread:?} goes back from {prev} to {ts}:\n{line}"
                );
                let stack: &mut Vec<_> = open.entry(thread).or_default();
                let name = field(line, "\"name\":");
                match field(line, "\"ph\":") {
                    Some("\"B\"") => stack.push(name),
                    Some("\"E\"") => assert_eq!(stack.pop(), Some(name), "{thread:?}:\n{line}"),
                    _ => {}
                }
            }
            assert!(open.values().all(Vec::is_empty), "every B is closed");
            assert!(last.len() >= 2, "at least two timelines checked");
        }
    }

    #[test]
    fn spans_export_as_nested_duration_pairs() {
        let cfg = TraceConfig::off().with_spans();
        let mut c = PeCollector::new(0, 1, 1, cfg);
        let t0 = fabsp_hwpc::cycles_now();
        // superstep ⊇ advance ⊇ quiet, plus a disjoint sibling advance
        c.record_span_at(actorprof_trace::Phase::Quiet, t0 + 20, t0 + 30);
        c.record_span_at(actorprof_trace::Phase::Advance, t0 + 10, t0 + 40);
        c.record_span_at(actorprof_trace::Phase::Advance, t0 + 50, t0 + 60);
        c.record_span_at(actorprof_trace::Phase::Superstep, t0, t0 + 100);
        let b = TraceBundle::from_collectors(vec![c]).unwrap();
        let json = trace_events_json(&b).unwrap();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 4);
        // nesting: superstep must open before the first advance and close
        // after everything else
        let first_b = json.find("\"ph\":\"B\"").unwrap();
        let superstep_b = json.find("\"name\":\"superstep\",\"ph\":\"B\"").unwrap();
        assert!(superstep_b <= first_b, "superstep opens the PE's timeline");
        let last_e = json.rfind("\"ph\":\"E\"").unwrap();
        let superstep_e = json.rfind("\"name\":\"superstep\",\"ph\":\"E\"").unwrap();
        assert!(
            superstep_e + "\"name\":\"superstep\",".len() >= last_e,
            "superstep closes the PE's timeline"
        );
        assert!(json.contains("\"name\":\"quiet\""));
    }

    #[test]
    fn overhead_lane_renders_windows() {
        let mut report = ContinuousReport::new(fabsp_telemetry::OverheadBudget::pct(5.0));
        report.meter(1_000_000, 10, 10, 2_450_000);
        report.meter(1_000_000, 40_000, 0, 4_900_000);
        let json = trace_events_json_with_overhead(&bundle(), Some(&report)).unwrap();
        assert!(json.contains("\"args\":{\"name\":\"overhead\"}"));
        // first window is an instant, second a B/E pair spanning the gap
        assert!(json.contains("\"name\":\"window\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"window\",\"ph\":\"B\""));
        assert!(json.contains("\"args\":{\"overhead_pct\":4.0000}}"));
        // the overhead process sits after the node processes
        let nodes = bundle().n_pes().div_ceil(bundle().pes_per_node());
        assert!(json.contains(&format!("\"pid\":{nodes},\"tid\":0")));
        // no continuous report → no lane
        let plain = trace_events_json(&bundle()).unwrap();
        assert!(!plain.contains("window"));
    }

    #[test]
    fn requires_physical_trace() {
        let c = PeCollector::new(0, 1, 1, TraceConfig::off());
        let b = TraceBundle::from_collectors(vec![c]).unwrap();
        assert!(matches!(
            trace_events_json(&b),
            Err(ProfError::NotCollected(_))
        ));
    }

    #[test]
    fn write_creates_file() {
        let dir = std::env::temp_dir().join(format!("actorprof-te-{}", std::process::id()));
        let path = dir.join("trace_events.json");
        write_trace_events(&path, &bundle()).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
