//! The fixed metric vocabulary.
//!
//! Metric identity is an enum, not a string: hot-path instrumentation
//! compiles to an array index, never a hash or an allocation. Names only
//! materialize at snapshot/export time.

/// Monotonic event counters, one slab per PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Substrate puts (blocking, non-blocking, and intra-node copies).
    ShmemPuts,
    /// `shmem_quiet` completions (including the implicit one in barriers).
    ShmemQuiets,
    /// `shmem_barrier_all` waits.
    ShmemBarrierWaits,
    /// Conveyor pushes refused with `PushOutcome::Retry` (buffer full).
    ConveyorPushRetries,
    /// Relay slots parked by `inject_chaos` fault injection.
    ConveyorForcedParks,
    /// Relay slots parked because the relay out-buffer was full.
    ConveyorRelayParks,
    /// Actor-level sends accepted into a mailbox conveyor.
    ActorSends,
    /// Cooperative yields taken while a selector polled for progress.
    ActorYields,
    /// Checkpoints actually captured by `Pe::checkpoint` (a cut refused as
    /// not quiescent is not counted).
    Checkpoints,
    /// Cycles the runtime spent inside its own instrumentation (span
    /// capture, gauge updates, flight-ring writes). The continuous-profiling
    /// meter divides this by total PE cycles and checks the result against
    /// its budget.
    TelemetrySelfCycles,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; 10] = [
        Counter::ShmemPuts,
        Counter::ShmemQuiets,
        Counter::ShmemBarrierWaits,
        Counter::ConveyorPushRetries,
        Counter::ConveyorForcedParks,
        Counter::ConveyorRelayParks,
        Counter::ActorSends,
        Counter::ActorYields,
        Counter::Checkpoints,
        Counter::TelemetrySelfCycles,
    ];

    /// Number of counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable dotted name, used in dumps and dashboards.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::ShmemPuts => "shmem.puts",
            Counter::ShmemQuiets => "shmem.quiets",
            Counter::ShmemBarrierWaits => "shmem.barrier_waits",
            Counter::ConveyorPushRetries => "conveyor.push_retries",
            Counter::ConveyorForcedParks => "conveyor.forced_parks",
            Counter::ConveyorRelayParks => "conveyor.relay_parks",
            Counter::ActorSends => "actor.sends",
            Counter::ActorYields => "actor.yields",
            Counter::Checkpoints => "shmem.checkpoints",
            Counter::TelemetrySelfCycles => "telemetry.self_cycles",
        }
    }

    /// Parse a dotted counter name (inverse of [`name`](Counter::name)).
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Last-value gauges, one slab per PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Items staged in this PE's conveyor out-buffers after the last
    /// `advance`.
    ConveyorBufferedItems,
    /// Deliveries sitting in the pull queue after the last `advance`.
    ConveyorPullBacklog,
}

impl Gauge {
    /// Every gauge, in index order.
    pub const ALL: [Gauge; 2] = [Gauge::ConveyorBufferedItems, Gauge::ConveyorPullBacklog];

    /// Number of gauges.
    pub const COUNT: usize = Gauge::ALL.len();

    /// Stable dotted name, used in dumps and dashboards.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ConveyorBufferedItems => "conveyor.buffered_items",
            Gauge::ConveyorPullBacklog => "conveyor.pull_backlog",
        }
    }
}

/// Runtime phases instrumented with begin/end spans. Shared vocabulary
/// between the flight recorder here and the trace layer's span records, so
/// the Perfetto export and the post-mortem dump name phases identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// One selector `execute` — the FA-BSP superstep body plus its
    /// termination drain.
    Superstep,
    /// One `Conveyor::advance` (buffer exchange + delivery).
    Advance,
    /// One `shmem_quiet` issued from conveyor progress.
    Quiet,
    /// One relay hop: consuming an incoming slot that forwarded runs.
    RelayHop,
}

impl Phase {
    /// Every phase, in index order.
    pub const ALL: [Phase; 4] = [
        Phase::Superstep,
        Phase::Advance,
        Phase::Quiet,
        Phase::RelayHop,
    ];

    /// Stable name, used as the Perfetto event name.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Superstep => "superstep",
            Phase::Advance => "advance",
            Phase::Quiet => "quiet",
            Phase::RelayHop => "relay_hop",
        }
    }

    /// Parse a phase label (inverse of [`label`](Phase::label)).
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Decode an index produced by `as usize` encoding.
    pub fn from_index(idx: usize) -> Option<Phase> {
        Phase::ALL.get(idx).copied()
    }
}

/// Decode a counter index produced by `as usize` encoding.
pub fn counter_from_index(idx: usize) -> Option<Counter> {
    Counter::ALL.get(idx).copied()
}

/// Source location (`file`, `line`) of a phase's instrumentation site.
pub type PhaseSite = (&'static str, u32);

/// First-caller-wins registry of the `file:line` that records each phase,
/// populated by the `#[track_caller]` span entry points so dashboards can
/// attribute hot phases to source without carrying a location per event.
static PHASE_SITES: [std::sync::OnceLock<PhaseSite>; Phase::ALL.len()] = [
    std::sync::OnceLock::new(),
    std::sync::OnceLock::new(),
    std::sync::OnceLock::new(),
    std::sync::OnceLock::new(),
];

/// Remember where `phase` is recorded from. The first site wins (each phase
/// has exactly one runtime record site today); later calls are no-ops, so
/// this is one lock-free initialized-check per span after warmup.
pub fn note_phase_site(phase: Phase, file: &'static str, line: u32) {
    let slot = &PHASE_SITES[phase as usize];
    if slot.get().is_none() {
        let _ = slot.set((file, line));
    }
}

/// The recorded `file:line` attribution for `phase`, if any span of that
/// phase has been captured in this process.
pub fn phase_site(phase: Phase) -> Option<PhaseSite> {
    PHASE_SITES[phase as usize].get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
    }

    #[test]
    fn phase_label_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("bogus"), None);
    }

    #[test]
    fn counter_name_roundtrip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("bogus.metric"), None);
    }

    #[test]
    fn phase_sites_are_first_caller_wins() {
        // Global registry: other tests (and instrumented code) may have
        // registered sites already, so assert the invariants rather than
        // exact values — once set, a site is stable.
        note_phase_site(Phase::RelayHop, "a.rs", 1);
        let first = phase_site(Phase::RelayHop).expect("site recorded");
        note_phase_site(Phase::RelayHop, "b.rs", 2);
        assert_eq!(phase_site(Phase::RelayHop), Some(first));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
