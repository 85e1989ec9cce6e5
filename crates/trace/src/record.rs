//! Trace record types, one per ActorProf trace file format (§III), plus
//! the phase-span record backing the Perfetto duration export.

use fabsp_telemetry::Phase;

/// One pre-aggregation point-to-point send, as recorded at the HClib-Actor
/// `send` call. One line of `PEi_send.csv`:
/// `source node, source PE, destination node, destination PE, message size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalRecord {
    /// Node of the sending PE.
    pub src_node: u32,
    /// Sending PE rank.
    pub src_pe: u32,
    /// Node of the destination PE.
    pub dst_node: u32,
    /// Destination PE rank.
    pub dst_pe: u32,
    /// Message payload size in bytes.
    pub msg_size: u32,
}

/// A sequence held as maximal runs of equal values: one value per run, and
/// a length only for the runs longer than one, so a run of one costs no
/// more than the value itself. Adjacent equal values always merge, so the
/// runs are canonical — two sequences are equal exactly when their runs
/// are — and memory grows with the number of runs, not with the length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runs<T> {
    /// The value of each run.
    values: Vec<T>,
    /// `(index into values, length)` of each run longer than one, in order.
    long: Vec<(usize, u64)>,
}

impl<T> Default for Runs<T> {
    fn default() -> Runs<T> {
        Runs { values: Vec::new(), long: Vec::new() }
    }
}

impl<T: Copy + PartialEq> Runs<T> {
    /// An empty sequence with room for `runs` runs.
    pub fn with_capacity(runs: usize) -> Runs<T> {
        Runs { values: Vec::with_capacity(runs), long: Vec::new() }
    }

    /// Append `count` copies of `value`, extending the last run when it
    /// holds an equal value.
    #[inline]
    pub fn push(&mut self, value: T, count: u64) {
        if count == 0 {
            return;
        }
        let last = self.values.len().wrapping_sub(1);
        if self.values.last() != Some(&value) {
            self.values.push(value);
            if count > 1 {
                self.long.push((last.wrapping_add(1), count));
            }
            return;
        }
        match self.long.last_mut() {
            Some((at, n)) if *at == last => *n += count,
            _ => self.long.push((last, 1 + count)),
        }
    }

    /// The runs as `(value, length)`, in order; no length is zero and no
    /// two neighbours are equal.
    pub fn runs(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        let mut long = self.long.iter().peekable();
        self.values.iter().enumerate().map(move |(i, &value)| {
            (value, long.next_if(|&&(at, _)| at == i).map_or(1, |&(_, n)| n))
        })
    }

    /// Number of elements (the sum of the run lengths).
    pub fn len(&self) -> usize {
        let extra: u64 = self.long.iter().map(|&(_, n)| n - 1).sum();
        (self.values.len() as u64 + extra) as usize
    }

    /// Whether the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The elements, each run expanded.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.runs().flat_map(|(value, n)| std::iter::repeat_n(value, n as usize))
    }

    /// Bytes of the values and lengths held: `size_of::<T>()` per run, 16
    /// more per run longer than one.
    pub fn held_bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + std::mem::size_of_val(&self.long[..])
    }
}

/// One line of the PAPI-based message trace `PEi_PAPI.csv`:
/// `source node, source PE, dst node, dst PE, pkt size, MAILBOXID,
/// NUM_SENDS, <counter values...>`.
///
/// ActorProf aggregates consecutive sends to the same (destination,
/// mailbox): `num_sends` counts how many sends the line covers, and the
/// counter values are the deltas accumulated over those sends while inside
/// the instrumented user regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PapiRecord {
    /// Node of the sending PE.
    pub src_node: u32,
    /// Sending PE rank.
    pub src_pe: u32,
    /// Node of the destination PE.
    pub dst_node: u32,
    /// Destination PE rank.
    pub dst_pe: u32,
    /// Total payload bytes covered by this line.
    pub pkt_size: u64,
    /// Selector mailbox the sends targeted.
    pub mailbox_id: u32,
    /// Number of sends this line covers.
    pub num_sends: u64,
    /// Counter deltas, parallel to the configured PAPI event list (≤ 4).
    pub counters: Vec<u64>,
}

/// The Conveyors communication call a physical-trace entry came from
/// (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendType {
    /// Intra-node buffer delivery: `std::memcpy` through `shmem_ptr`.
    LocalSend,
    /// Inter-node buffer initiation via `shmem_putmem_nbi`.
    NonblockSend,
    /// Inter-node completion: `shmem_quiet` + signalling `shmem_put`.
    NonblockProgress,
}

impl SendType {
    /// Every send type, in declaration order (so `t as usize` indexes it).
    pub const ALL: [SendType; 3] = [
        SendType::LocalSend,
        SendType::NonblockSend,
        SendType::NonblockProgress,
    ];

    /// Name as written in `physical.txt`.
    pub const fn label(self) -> &'static str {
        match self {
            SendType::LocalSend => "local_send",
            SendType::NonblockSend => "nonblock_send",
            SendType::NonblockProgress => "nonblock_progress",
        }
    }

    /// Parse a `physical.txt` send-type label.
    pub fn from_label(label: &str) -> Option<SendType> {
        match label {
            "local_send" => Some(SendType::LocalSend),
            "nonblock_send" => Some(SendType::NonblockSend),
            "nonblock_progress" => Some(SendType::NonblockProgress),
            _ => None,
        }
    }
}

impl std::fmt::Display for SendType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One post-aggregation send recorded inside Conveyors. One line of
/// `physical.txt`: `send type, buffer size, source PE, destination PE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalRecord {
    /// Which Conveyors call produced this entry.
    pub send_type: SendType,
    /// Network-packet (aggregation buffer) size in bytes.
    pub buffer_size: u64,
    /// Sending PE rank.
    pub src_pe: u32,
    /// Destination PE rank (for `NonblockProgress`, the signalled PE).
    pub dst_pe: u32,
}

/// One completed runtime phase on one PE, in cycles relative to the PE's
/// collector creation. Spans of one PE nest properly by construction
/// (superstep ⊇ advance ⊇ quiet/relay hop), which is what lets the
/// exporter emit them as Perfetto `B`/`E` duration pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which phase ran.
    pub phase: Phase,
    /// Relative cycle stamp at phase entry.
    pub begin: u64,
    /// Relative cycle stamp at phase exit (`end >= begin`).
    pub end: u64,
}

/// The per-PE overall breakdown (§III-B), in rdtsc cycles. One absolute and
/// one relative line of `overall.txt` per PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverallRecord {
    /// PE rank.
    pub pe: u32,
    /// Cycles generating messages + local computation (T_MAIN).
    pub t_main: u64,
    /// Cycles in user message handlers (T_PROC).
    pub t_proc: u64,
    /// Total cycles inside the profiled window (T_TOTAL).
    pub t_total: u64,
}

impl OverallRecord {
    /// Derived communication time: `T_TOTAL − T_MAIN − T_PROC`, saturating —
    /// exactly how the paper derives T_COMM (§III-B).
    pub fn t_comm(&self) -> u64 {
        self.t_total
            .saturating_sub(self.t_main)
            .saturating_sub(self.t_proc)
    }

    /// `(T_MAIN, T_COMM, T_PROC)` as fractions of T_TOTAL (the paper's
    /// "Relative" line). All zero when T_TOTAL is zero.
    pub fn relative(&self) -> (f64, f64, f64) {
        if self.t_total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = self.t_total as f64;
        (
            self.t_main as f64 / t,
            self.t_comm() as f64 / t,
            self.t_proc as f64 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_merge_equal_neighbours_and_skip_empty_ones() {
        let mut a = Runs::default();
        for (value, count) in [(7u8, 2), (7, 0), (7, 1), (3, 1), (5, 1), (5, 1), (7, 4), (2, 1)] {
            a.push(value, count);
        }
        assert_eq!(a.runs().collect::<Vec<_>>(), [(7, 3), (3, 1), (5, 2), (7, 4), (2, 1)]);
        assert_eq!((a.len(), a.is_empty()), (11, false));
        assert_eq!(a.iter().collect::<Vec<_>>(), [7, 7, 7, 3, 5, 5, 7, 7, 7, 7, 2]);
        // a run of one is its value alone; a longer one adds its length
        assert_eq!(a.held_bytes(), 5 + 3 * 16);
        // the same sequence pushed one by one has the same runs
        let mut b = Runs::default();
        a.iter().for_each(|v| b.push(v, 1));
        assert_eq!(a, b);
        assert!(Runs::<u8>::default().is_empty());
    }

    #[test]
    fn send_type_label_roundtrip() {
        for t in SendType::ALL {
            assert_eq!(SendType::from_label(t.label()), Some(t));
        }
        assert_eq!(SendType::from_label("bogus"), None);
    }

    #[test]
    fn t_comm_is_derived_and_saturates() {
        let r = OverallRecord {
            pe: 0,
            t_main: 10,
            t_proc: 20,
            t_total: 100,
        };
        assert_eq!(r.t_comm(), 70);
        let degenerate = OverallRecord {
            pe: 0,
            t_main: 80,
            t_proc: 40,
            t_total: 100,
        };
        assert_eq!(degenerate.t_comm(), 0);
    }

    #[test]
    fn relative_fractions_sum_to_one() {
        let r = OverallRecord {
            pe: 3,
            t_main: 5,
            t_proc: 20,
            t_total: 100,
        };
        let (m, c, p) = r.relative();
        assert!((m + c + p - 1.0).abs() < 1e-12);
        assert!((m - 0.05).abs() < 1e-12);
        assert!((p - 0.20).abs() < 1e-12);
    }

    #[test]
    fn relative_of_zero_total_is_zero() {
        assert_eq!(OverallRecord::default().relative(), (0.0, 0.0, 0.0));
    }
}
