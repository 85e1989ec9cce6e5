//! Bounded per-PE flight recorder.
//!
//! A ring of the last N span/metric events, written only by the owning PE's
//! thread and read post-mortem — when a PE panics, a testkit fault fires,
//! or the termination checker trips its step budget (both of which surface
//! as PE panics). The writer stores slot words `Relaxed` and then publishes
//! them with a `Release` store of the cursor; a dumper that `Acquire`-loads
//! the cursor therefore sees every event below it fully written. The one
//! slot a concurrent writer may be mid-way through is *above* the acquired
//! cursor and never read. Dumps are best-effort by design: they run during
//! unwinding and must never panic or block.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use fabsp_hwpc::rdtsc::cycles_to_us;

use crate::metric::{counter_from_index, Counter, Phase};

/// Words per ring slot: tag, timestamp, payload a, payload b.
const WORDS: usize = 4;

const KIND_SPAN: u64 = 1;
const KIND_NOTE: u64 = 2;

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A completed phase span (absolute rdtsc cycles).
    Span {
        /// Which phase ran.
        phase: Phase,
        /// Cycle stamp at phase entry.
        begin_cycles: u64,
        /// Cycle stamp at phase exit.
        end_cycles: u64,
    },
    /// A notable metric increment (parks, retries, faults — not every
    /// counter bump, only sites that call [`FlightRing::note`]).
    Note {
        /// The counter that moved.
        counter: Counter,
        /// The increment or observed value.
        value: u64,
        /// Cycle stamp when it moved.
        at_cycles: u64,
    },
}

/// The bounded event ring. Single writer (the owning PE), any reader.
#[derive(Debug)]
pub struct FlightRing {
    slots: Vec<AtomicU64>,
    /// Total events ever recorded; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    capacity: usize,
}

impl FlightRing {
    /// A ring remembering the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(1);
        FlightRing {
            slots: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicU64::new(0),
            capacity,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record a completed phase span. Owning-PE thread only.
    #[inline]
    pub fn span(&self, phase: Phase, begin_cycles: u64, end_cycles: u64) {
        self.record(
            (KIND_SPAN << 32) | phase as u64,
            end_cycles,
            begin_cycles,
            end_cycles,
        );
    }

    /// Record a notable metric increment. Owning-PE thread only.
    #[inline]
    pub fn note(&self, counter: Counter, value: u64, at_cycles: u64) {
        self.record((KIND_NOTE << 32) | counter as u64, at_cycles, value, 0);
    }

    #[inline]
    fn record(&self, tag: u64, t: u64, a: u64, b: u64) {
        // Single writer: a Relaxed read of our own cursor is exact. Slot
        // words go in Relaxed; the cursor bump is the Release publication
        // that makes them visible to an Acquire-loading dumper.
        let seq = self.cursor.load(Ordering::Relaxed);
        let base = (seq as usize % self.capacity) * WORDS;
        self.slots[base].store(tag, Ordering::Relaxed);
        self.slots[base + 1].store(t, Ordering::Relaxed);
        self.slots[base + 2].store(a, Ordering::Relaxed);
        self.slots[base + 3].store(b, Ordering::Relaxed);
        self.cursor.store(seq + 1, Ordering::Release);
    }

    /// Total events ever recorded (not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Decode the retained events, oldest first. Safe from any thread;
    /// events below the acquired cursor are fully published.
    pub fn events(&self) -> Vec<FlightEvent> {
        let seq = self.cursor.load(Ordering::Acquire);
        let kept = (seq as usize).min(self.capacity);
        let mut out = Vec::with_capacity(kept);
        for i in 0..kept {
            let idx = seq - kept as u64 + i as u64;
            let base = (idx as usize % self.capacity) * WORDS;
            let tag = self.slots[base].load(Ordering::Relaxed);
            let t = self.slots[base + 1].load(Ordering::Relaxed);
            let a = self.slots[base + 2].load(Ordering::Relaxed);
            let id = (tag & 0xffff_ffff) as usize;
            match tag >> 32 {
                KIND_SPAN => {
                    let b = self.slots[base + 3].load(Ordering::Relaxed);
                    if let Some(phase) = Phase::from_index(id) {
                        out.push(FlightEvent::Span {
                            phase,
                            begin_cycles: a,
                            end_cycles: b,
                        });
                    }
                }
                KIND_NOTE => {
                    if let Some(counter) = counter_from_index(id) {
                        out.push(FlightEvent::Note {
                            counter,
                            value: a,
                            at_cycles: t,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Serialize the retained events as the `flightrec-pe*.json` payload:
    /// a header line, then one event object per line.
    pub fn to_json(&self, pe: usize) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"pe\":{pe},\"recorded\":{},\"capacity\":{},\"events\":[",
            self.recorded(),
            self.capacity,
        );
        for (i, ev) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            match ev {
                FlightEvent::Span {
                    phase,
                    begin_cycles,
                    end_cycles,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"span\",\"phase\":\"{}\",\"begin_cycles\":{begin_cycles},\
                         \"end_cycles\":{end_cycles},\"dur_us\":{:.3}}}",
                        phase.label(),
                        cycles_to_us(end_cycles.saturating_sub(*begin_cycles)),
                    );
                }
                FlightEvent::Note {
                    counter,
                    value,
                    at_cycles,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"note\",\"metric\":\"{}\",\"value\":{value},\
                         \"at_cycles\":{at_cycles}}}",
                        counter.name(),
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A parsed `flightrec-pe*.json` artifact — the post-mortem side of the
/// flight recorder. Where [`FlightRing`] is what a live PE writes into,
/// `FlightDump` is what an operator loads *after* a death to step through
/// the retained events (the cockpit's replay view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Rank of the PE that dumped.
    pub pe: usize,
    /// Total events the ring ever recorded (not bounded by capacity).
    pub recorded: u64,
    /// Ring capacity at dump time.
    pub capacity: usize,
    /// The retained events, oldest first — exactly the ring's dump order.
    pub events: Vec<FlightEvent>,
}

/// Extract the integer following `"key":` in `obj`.
fn u64_field(obj: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\":");
    let at = obj
        .find(&tag)
        .ok_or_else(|| format!("missing field {key:?} in {obj:.80}"))?;
    let rest = &obj[at + tag.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|e| format!("field {key:?}: {e} in {obj:.80}"))
}

/// Extract the string following `"key":"` in `obj`.
fn str_field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let tag = format!("\"{key}\":\"");
    let at = obj
        .find(&tag)
        .ok_or_else(|| format!("missing field {key:?} in {obj:.80}"))?;
    let rest = &obj[at + tag.len()..];
    rest.split('"')
        .next()
        .ok_or_else(|| format!("unterminated field {key:?}"))
}

impl FlightDump {
    /// Parse a dump previously produced by [`FlightRing::to_json`].
    /// Hand-rolled over our own line-oriented format (one event per
    /// line) — no JSON dependency; every field of the ring comes back
    /// exactly.
    pub fn parse(json: &str) -> Result<FlightDump, String> {
        let events_at = json
            .find("\"events\":[")
            .ok_or_else(|| "missing events array".to_string())?;
        let header = &json[..events_at];
        let pe = u64_field(header, "pe")? as usize;
        let recorded = u64_field(header, "recorded")?;
        let capacity = u64_field(header, "capacity")? as usize;
        let mut events = Vec::new();
        for line in json[events_at..].lines() {
            let obj = line.trim().trim_end_matches(',');
            if !obj.starts_with('{') {
                continue;
            }
            match str_field(obj, "kind")? {
                "span" => {
                    let label = str_field(obj, "phase")?;
                    let phase = Phase::from_label(label)
                        .ok_or_else(|| format!("unknown phase {label:?}"))?;
                    events.push(FlightEvent::Span {
                        phase,
                        begin_cycles: u64_field(obj, "begin_cycles")?,
                        end_cycles: u64_field(obj, "end_cycles")?,
                    });
                }
                "note" => {
                    let name = str_field(obj, "metric")?;
                    let counter = Counter::from_name(name)
                        .ok_or_else(|| format!("unknown metric {name:?}"))?;
                    events.push(FlightEvent::Note {
                        counter,
                        value: u64_field(obj, "value")?,
                        at_cycles: u64_field(obj, "at_cycles")?,
                    });
                }
                other => return Err(format!("unknown event kind {other:?}")),
            }
        }
        Ok(FlightDump {
            pe,
            recorded,
            capacity,
            events,
        })
    }

    /// Load every `flightrec-pe*.json` under `dir`, sorted by PE rank.
    /// Returns an empty list when the directory does not exist (no PE
    /// died), an error when `dir` cannot be listed for any other reason or
    /// a dump is unreadable or corrupt.
    pub fn load_dir(dir: &std::path::Path) -> Result<Vec<FlightDump>, String> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read {}: {e}", dir.display())),
        };
        let mut dumps = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("flightrec-pe") || !name.ends_with(".json") {
                continue;
            }
            let body = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("read {name}: {e}"))?;
            dumps.push(FlightDump::parse(&body).map_err(|e| format!("{name}: {e}"))?);
        }
        dumps.sort_by_key(|d| d.pe);
        Ok(dumps)
    }

    /// Earliest cycle stamp among the retained events — the replay clock's
    /// zero point.
    pub fn first_cycles(&self) -> Option<u64> {
        self.events
            .iter()
            .map(|ev| match ev {
                FlightEvent::Span { begin_cycles, .. } => *begin_cycles,
                FlightEvent::Note { at_cycles, .. } => *at_cycles,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_only_the_last_capacity_events() {
        let ring = FlightRing::new(4);
        for i in 0..10u64 {
            ring.note(Counter::ConveyorPushRetries, i, 100 + i);
        }
        assert_eq!(ring.recorded(), 10);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        // Oldest first: values 6..=9 survive.
        for (i, ev) in events.iter().enumerate() {
            match ev {
                FlightEvent::Note { value, .. } => assert_eq!(*value, 6 + i as u64),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn spans_and_notes_roundtrip() {
        let ring = FlightRing::new(8);
        ring.span(Phase::Advance, 100, 250);
        ring.note(Counter::ConveyorForcedParks, 1, 300);
        ring.span(Phase::Superstep, 50, 500);
        let events = ring.events();
        assert_eq!(
            events[0],
            FlightEvent::Span {
                phase: Phase::Advance,
                begin_cycles: 100,
                end_cycles: 250
            }
        );
        assert_eq!(
            events[1],
            FlightEvent::Note {
                counter: Counter::ConveyorForcedParks,
                value: 1,
                at_cycles: 300
            }
        );
        assert_eq!(
            events[2],
            FlightEvent::Span {
                phase: Phase::Superstep,
                begin_cycles: 50,
                end_cycles: 500
            }
        );
    }

    #[test]
    fn json_names_phases_and_metrics() {
        let ring = FlightRing::new(8);
        ring.span(Phase::Quiet, 10, 20);
        ring.note(Counter::ConveyorForcedParks, 2, 30);
        let json = ring.to_json(3);
        assert!(json.contains("\"pe\":3"));
        assert!(json.contains("\"phase\":\"quiet\""));
        assert!(json.contains("\"metric\":\"conveyor.forced_parks\""));
        assert!(json.contains("\"recorded\":2"));
    }

    #[test]
    fn empty_ring_dumps_empty_event_list() {
        let ring = FlightRing::new(2);
        assert!(ring.events().is_empty());
        assert!(ring.to_json(0).contains("\"events\":[\n]"));
    }

    #[test]
    fn multi_lap_wraparound_keeps_order_and_counts() {
        // More than two full laps of a capacity-4 ring: 11 events, laps at
        // 4 and 8, cursor mid-lap at dump time.
        let ring = FlightRing::new(4);
        for i in 0..11u64 {
            if i.is_multiple_of(3) {
                ring.span(Phase::Advance, i * 100, i * 100 + 10);
            } else {
                ring.note(Counter::ActorSends, i, 1000 + i);
            }
        }
        assert_eq!(ring.recorded(), 11, "recorded counts every lap");
        let events = ring.events();
        assert_eq!(events.len(), 4, "retention bounded by capacity");
        // The survivors are exactly events 7..=10, oldest first.
        let expect = |i: u64| -> FlightEvent {
            if i.is_multiple_of(3) {
                FlightEvent::Span {
                    phase: Phase::Advance,
                    begin_cycles: i * 100,
                    end_cycles: i * 100 + 10,
                }
            } else {
                FlightEvent::Note {
                    counter: Counter::ActorSends,
                    value: i,
                    at_cycles: 1000 + i,
                }
            }
        };
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(*ev, expect(7 + k as u64), "slot {k} after wraparound");
        }
        // Dump ordering matches the decoded order, and the recorded count
        // survives serialization.
        let json = ring.to_json(2);
        assert!(json.contains("\"recorded\":11"));
        assert!(json.contains("\"capacity\":4"));
        let dump = FlightDump::parse(&json).expect("parse own dump");
        assert_eq!(dump.events, events, "replay order == dump order");
    }

    #[test]
    fn dump_parse_roundtrip_is_exact() {
        let ring = FlightRing::new(3);
        ring.span(Phase::Superstep, 5, 500);
        ring.note(Counter::ConveyorPushRetries, 2, 77);
        ring.span(Phase::RelayHop, 600, 640);
        ring.note(Counter::ConveyorForcedParks, 1, 700); // evicts the superstep
        let dump = FlightDump::parse(&ring.to_json(1)).expect("parse");
        // Field by field, the parsed dump is the ring it was written from.
        assert_eq!(dump.pe, 1);
        assert_eq!(dump.recorded, ring.recorded());
        assert_eq!(dump.recorded, 4);
        assert_eq!(dump.capacity, ring.capacity());
        assert_eq!(dump.events, ring.events(), "oldest first, every field");
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.first_cycles(), Some(77));
    }

    #[test]
    fn parse_rejects_corrupt_dumps() {
        assert!(FlightDump::parse("not json").is_err());
        assert!(FlightDump::parse("{\"pe\":0}").is_err(), "no events array");
        let bad_phase = "{\"pe\":0,\"recorded\":1,\"capacity\":1,\"events\":[\n  \
             {\"kind\":\"span\",\"phase\":\"warp\",\"begin_cycles\":1,\"end_cycles\":2,\"dur_us\":0.000}\n]}\n";
        assert!(FlightDump::parse(bad_phase).unwrap_err().contains("warp"));
        let bad_kind = "{\"pe\":0,\"recorded\":1,\"capacity\":1,\"events\":[\n  \
             {\"kind\":\"mystery\"}\n]}\n";
        assert!(FlightDump::parse(bad_kind).unwrap_err().contains("mystery"));
    }

    #[test]
    fn load_dir_collects_ranked_dumps() {
        let dir = std::env::temp_dir().join(format!("fabsp-flightload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for pe in [3usize, 1] {
            let ring = FlightRing::new(2);
            ring.note(Counter::ActorSends, pe as u64, 10);
            std::fs::write(
                dir.join(format!("flightrec-pe{pe}.json")),
                ring.to_json(pe),
            )
            .unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), "ignore me").unwrap();
        let dumps = FlightDump::load_dir(&dir).expect("load");
        assert_eq!(
            dumps.iter().map(|d| d.pe).collect::<Vec<_>>(),
            vec![1, 3],
            "sorted by rank, non-dump files ignored"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            FlightDump::load_dir(&dir).expect("missing dir ok").is_empty(),
            "no directory → no dumps, not an error"
        );
    }

    #[test]
    fn load_dir_on_a_regular_file_is_an_error() {
        let file = std::env::temp_dir().join(format!("fabsp-flightfile-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = FlightDump::load_dir(&file).expect_err("a file is not a clean run");
        std::fs::remove_file(&file).unwrap();
        assert!(err.contains(&file.display().to_string()), "{err:?} names the path");
    }
}
