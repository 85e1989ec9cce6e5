//! The physical trace as a collector holds it: one `u64` per event.
//!
//! A PE's conveyor flushes to a handful of destinations with a handful of
//! buffer sizes, so the packed `(send type, destination PE, bytes)` words
//! of its [`PhysicalEvent`]s repeat. The stream keeps each distinct word
//! once, in a dictionary, and each event as that word's 16-bit dictionary
//! index above the low 48 bits of its cycle stamp. The stream is a list of
//! [`Segment`]s, each with its own dictionary and the stamp bits above the
//! low 48 that all its events share; a new segment opens when an event's
//! word would be the dictionary's 65 537th or its stamp's high bits differ
//! from the segment's. A run whose stamps stay below 2⁴⁸ cycles (about
//! 32 h at the nominal clock) and whose PE uses at most 65 536 words is one
//! segment. Decoding is exact: every event reads back as the
//! [`PhysicalEvent`] that was pushed, field for field and stamp for stamp,
//! backward stamps included.
//!
//! The footprint is 8 bytes per event plus 8 per dictionary word plus one
//! [`Segment`] header per segment — a function of the events' fields and
//! order, never of their timing within a segment.

use crate::buffer::PhysicalEvent;

/// Bits of an event word holding the low bits of its stamp; the index of
/// its dictionary word takes the top 16.
const STAMP_BITS: u32 = 48;
/// The low stamp bits an event word holds.
const STAMP_LOW: u64 = (1 << STAMP_BITS) - 1;
/// Most words one dictionary holds: as many as a 16-bit index names.
const DICTIONARY_WORDS: usize = 1 << (u64::BITS - STAMP_BITS);

/// Events that share one dictionary and their stamps' high bits.
#[derive(Debug)]
struct Segment {
    /// Stamp bits above the low 48, the same for every event here.
    stamp_high: u64,
    /// Distinct packed `(send type, destination PE, bytes)` words, in
    /// first-use order.
    words: Vec<u64>,
    /// One per event, in push order: its word's index in `words` in the
    /// top 16 bits, the low 48 bits of its stamp below.
    events: Vec<u64>,
}

impl Segment {
    /// The index of `word` in the dictionary, appending it if it is new;
    /// `None` when it is new and the dictionary is full. The previous
    /// event's word is tried first, then the dictionary is scanned.
    fn index_of(&mut self, word: u64) -> Option<u64> {
        let previous = self.events.last().map(|&e| (e >> STAMP_BITS) as usize);
        if let Some(i) = previous.filter(|&i| self.words[i] == word) {
            return Some(i as u64);
        }
        let i = match self.words.iter().position(|&w| w == word) {
            Some(i) => i,
            None if self.words.len() < DICTIONARY_WORDS => {
                self.words.push(word);
                self.words.len() - 1
            }
            None => return None,
        };
        Some(i as u64)
    }

    fn decode(&self, event: u64) -> PhysicalEvent {
        let word = self.words[(event >> STAMP_BITS) as usize];
        PhysicalEvent::from_parts(word, self.stamp_high << STAMP_BITS | event & STAMP_LOW)
    }
}

/// One collector's physical events, one packed `u64` each (see the module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct PackedEvents {
    segments: Vec<Segment>,
}

impl PackedEvents {
    /// Bytes one segment header takes.
    pub(crate) const SEGMENT_BYTES: usize = std::mem::size_of::<Segment>();

    /// Append `ev`, opening a segment if the current one cannot take it.
    pub(crate) fn push(&mut self, ev: PhysicalEvent) {
        let (word, stamp) = (ev.word(), ev.cycles());
        let stamp_high = stamp >> STAMP_BITS;
        let found = match self.segments.last_mut() {
            Some(seg) if seg.stamp_high == stamp_high => seg.index_of(word),
            _ => None,
        };
        let index = found.unwrap_or_else(|| {
            let words = vec![word];
            self.segments.push(Segment {
                stamp_high,
                words,
                events: Vec::new(),
            });
            0
        });
        let seg = self
            .segments
            .last_mut()
            .expect("a segment was found or opened");
        seg.events.push(index << STAMP_BITS | stamp & STAMP_LOW);
    }

    /// Every event, decoded, in push order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PhysicalEvent> + '_ {
        let segments = self.segments.iter();
        segments.flat_map(|seg| seg.events.iter().map(move |&e| seg.decode(e)))
    }

    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.segments.iter().map(|s| s.events.len()).sum()
    }

    /// Dictionary words held, all segments.
    pub(crate) fn dictionary_len(&self) -> usize {
        self.segments.iter().map(|s| s.words.len()).sum()
    }

    /// Number of segments.
    pub(crate) fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Bytes of every held element: event words, dictionary words and
    /// segment headers.
    pub(crate) fn held_bytes(&self) -> usize {
        8 * (self.len() + self.dictionary_len()) + Self::SEGMENT_BYTES * self.segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SendType;

    fn packed(events: &[PhysicalEvent]) -> PackedEvents {
        let mut p = PackedEvents::default();
        events.iter().for_each(|&ev| p.push(ev));
        p
    }

    fn assert_round_trip(events: &[PhysicalEvent]) -> PackedEvents {
        let p = packed(events);
        assert_eq!(p.len(), events.len());
        assert!(
            p.iter().eq(events.iter().copied()),
            "every event reads back as pushed"
        );
        p
    }

    #[test]
    fn a_normal_run_is_one_segment_with_a_word_per_distinct_field_set() {
        let ev = |t, dst, at| PhysicalEvent::new(t, 512, dst, at);
        let events = [
            ev(SendType::LocalSend, 1, 10),
            ev(SendType::LocalSend, 1, 20),
            ev(SendType::NonblockSend, 2, 30),
            ev(SendType::LocalSend, 1, 40),
            ev(SendType::NonblockProgress, 2, 40),
        ];
        let p = assert_round_trip(&events);
        assert_eq!((p.segments(), p.dictionary_len()), (1, 3));
        assert_eq!(p.held_bytes(), 8 * 5 + 8 * 3 + PackedEvents::SEGMENT_BYTES);
        assert_eq!(PackedEvents::default().held_bytes(), 0);
    }

    #[test]
    fn stamps_round_trip_across_the_48_bit_boundary() {
        let low = 1u64 << STAMP_BITS;
        let stamps = [0, low - 1, low, low + 1, u64::MAX - 1, u64::MAX, 0];
        let events = stamps.map(|at| PhysicalEvent::new(SendType::LocalSend, 64, 1, at));
        let p = assert_round_trip(&events);
        // 0 and 2⁴⁸ − 1 share high bits 0; then 1, 0xffff and 0 again
        assert_eq!(p.segments(), 4);
        assert_eq!(p.dictionary_len(), 4, "each segment has its own dictionary");
    }

    #[test]
    fn a_full_dictionary_opens_a_segment() {
        let distinct = DICTIONARY_WORDS + 3;
        let words = (0..distinct as u64).map(|i| {
            let t = SendType::ALL[i as usize % 3];
            PhysicalEvent::new(t, i / 3 % 1024, (i / 3 / 1024) as usize, 7 * i)
        });
        let mut events: Vec<_> = words.collect();
        // words the first segment knows are new again in the second
        events.push(events[0]);
        events.push(events[distinct - 1]);
        let p = assert_round_trip(&events);
        assert_eq!(p.segments(), 2);
        assert_eq!(p.dictionary_len(), distinct + 1);
        assert_eq!(
            p.held_bytes(),
            8 * (events.len() + distinct + 1) + 2 * PackedEvents::SEGMENT_BYTES
        );
    }

    #[test]
    fn every_field_round_trips_at_its_limits() {
        let dsts = [0, 1, PhysicalEvent::MAX_DST_PE];
        let sizes = [0, 1, PhysicalEvent::MAX_BUFFER_SIZE];
        let mut events = Vec::new();
        for t in SendType::ALL {
            for dst in dsts {
                for size in sizes {
                    events.push(PhysicalEvent::new(t, size, dst, size ^ dst as u64));
                }
            }
        }
        let p = assert_round_trip(&events);
        assert_eq!((p.segments(), p.dictionary_len()), (1, events.len()));
    }
}
