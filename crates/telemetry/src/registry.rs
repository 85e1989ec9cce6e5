//! The lock-free per-PE metrics registry and its snapshot-diff model.
//!
//! One [`PeMetrics`] slab per PE; every cell is an `AtomicU64`. The
//! concurrency discipline is *single writer per slab*: only the owning PE's
//! thread mutates its counters, gauges and span tallies, so updates are
//! `Relaxed` load+store pairs (no RMW contention, no fences on the hot
//! path). Any other thread may read concurrently: `AtomicU64` loads cannot
//! tear, so a [`Snapshot`] is a consistent-enough point-in-time view —
//! counters are monotonic, and the subscriber model works on snapshot
//! *diffs*, which tolerate the reader racing a few in-flight increments.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::flight::FlightRing;
use crate::metric::{Counter, Gauge, Phase};

/// Default flight-recorder depth per PE.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One PE's metric slab plus its flight-recorder ring.
#[derive(Debug)]
pub struct PeMetrics {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    /// Cumulative cycles spent inside each phase, indexed by `Phase`.
    span_cycles: [AtomicU64; Phase::ALL.len()],
    /// Spans recorded per phase, indexed by `Phase`.
    span_counts: [AtomicU64; Phase::ALL.len()],
    flight: FlightRing,
}

impl PeMetrics {
    fn new() -> PeMetrics {
        PeMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            span_cycles: std::array::from_fn(|_| AtomicU64::new(0)),
            span_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            flight: FlightRing::new(DEFAULT_FLIGHT_CAPACITY),
        }
    }

    /// Bump `counter` by one. Owning-PE thread only.
    #[inline]
    pub fn count(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Bump `counter` by `n`. Owning-PE thread only: a Relaxed load+store
    /// pair is exact because nobody else writes this cell.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counters[counter as usize];
        cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Set `gauge` to its current value. Owning-PE thread only.
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of `counter` (any thread).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Current value of `gauge` (any thread).
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Record a completed phase span: into the flight ring, into the
    /// per-phase hot-span accounting the cockpit's "hottest phases" panel
    /// reads, and — because this call closes every phase's instrumentation
    /// burst (the caller stamps `end_cycles` right after the phase body,
    /// then runs its gauge updates and ends here) — into the
    /// self-cost ledger the continuous-profiling meter reads.
    /// `#[track_caller]` registers the call site as the phase's `file:line`
    /// attribution (first caller wins). Owning-PE thread only.
    #[track_caller]
    #[inline]
    pub fn flight_span(&self, phase: Phase, begin_cycles: u64, end_cycles: u64) {
        self.flight.span(phase, begin_cycles, end_cycles);
        let cy = &self.span_cycles[phase as usize];
        cy.store(
            cy.load(Ordering::Relaxed)
                .wrapping_add(end_cycles.saturating_sub(begin_cycles)),
            Ordering::Relaxed,
        );
        let ct = &self.span_counts[phase as usize];
        ct.store(ct.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
        let site = std::panic::Location::caller();
        crate::metric::note_phase_site(phase, site.file(), site.line());
        // Everything since `end_cycles` was stamped — trace-buffer span
        // capture, gauge stores, the flight-ring write, and this
        // bookkeeping — is instrumentation, not application work.
        let now = fabsp_hwpc::cycles_now();
        self.add(Counter::TelemetrySelfCycles, now.saturating_sub(end_cycles));
    }

    /// Cumulative cycles recorded inside `phase` spans (any thread).
    pub fn span_cycles(&self, phase: Phase) -> u64 {
        self.span_cycles[phase as usize].load(Ordering::Relaxed)
    }

    /// Spans recorded for `phase` (any thread).
    pub fn span_count(&self, phase: Phase) -> u64 {
        self.span_counts[phase as usize].load(Ordering::Relaxed)
    }

    /// Record a notable counter movement into the flight ring (in addition
    /// to the slab increment the caller already made).
    #[inline]
    pub fn flight_note(&self, counter: Counter, value: u64) {
        self.flight.note(counter, value, fabsp_hwpc::cycles_now());
    }
}

/// Point-in-time copy of one PE's slab.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: Vec<u64>,
    /// Gauge values, indexed by `Gauge as usize`.
    pub gauges: Vec<u64>,
    /// Cumulative in-phase cycles, indexed by `Phase as usize`.
    pub span_cycles: Vec<u64>,
    /// Spans recorded per phase, indexed by `Phase as usize`.
    pub span_counts: Vec<u64>,
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Per-PE slabs, indexed by rank.
    pub pes: Vec<PeSnapshot>,
}

impl Snapshot {
    /// `counter` on one PE.
    pub fn counter(&self, pe: usize, counter: Counter) -> u64 {
        self.pes[pe].counters[counter as usize]
    }

    /// `counter` summed over all PEs.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.pes
            .iter()
            .map(|p| p.counters[counter as usize])
            .sum()
    }

    /// `counter` per PE, in rank order.
    pub fn counter_per_pe(&self, counter: Counter) -> Vec<u64> {
        self.pes
            .iter()
            .map(|p| p.counters[counter as usize])
            .collect()
    }

    /// `gauge` on one PE.
    pub fn gauge(&self, pe: usize, gauge: Gauge) -> u64 {
        self.pes[pe].gauges[gauge as usize]
    }

    /// `gauge` summed over all PEs (meaningful for occupancy-style gauges).
    pub fn gauge_total(&self, gauge: Gauge) -> u64 {
        self.pes.iter().map(|p| p.gauges[gauge as usize]).sum()
    }

    /// Cycles spent inside `phase` summed over all PEs.
    pub fn span_cycles_total(&self, phase: Phase) -> u64 {
        self.pes
            .iter()
            .map(|p| p.span_cycles.get(phase as usize).copied().unwrap_or(0))
            .sum()
    }

    /// Spans recorded for `phase` summed over all PEs.
    pub fn span_count_total(&self, phase: Phase) -> u64 {
        self.pes
            .iter()
            .map(|p| p.span_counts.get(phase as usize).copied().unwrap_or(0))
            .sum()
    }

    /// What changed since `prev`: counters and span tallies subtract
    /// (wrapping, so a stale `prev` cannot panic); gauges keep this
    /// snapshot's last-value semantics.
    pub fn diff(&self, prev: &Snapshot) -> Snapshot {
        let pes = self
            .pes
            .iter()
            .enumerate()
            .map(|(rank, cur)| {
                let empty = PeSnapshot::default();
                let old = prev.pes.get(rank).unwrap_or(&empty);
                let sub = |cur: &[u64], old: &[u64]| -> Vec<u64> {
                    cur.iter()
                        .enumerate()
                        .map(|(i, v)| v.wrapping_sub(old.get(i).copied().unwrap_or(0)))
                        .collect()
                };
                PeSnapshot {
                    counters: sub(&cur.counters, &old.counters),
                    gauges: cur.gauges.clone(),
                    span_cycles: sub(&cur.span_cycles, &old.span_cycles),
                    span_counts: sub(&cur.span_counts, &old.span_counts),
                }
            })
            .collect();
        Snapshot { pes }
    }
}

/// One tick of the live subscriber feed: the running totals plus what
/// changed since the previous tick.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Tick number, starting at 0.
    pub seq: u64,
    /// Absolute cycle stamp when the tick's snapshot was taken, so
    /// consumers can turn per-tick deltas into true rates without trusting
    /// the nominal sleep interval.
    pub at_cycles: u64,
    /// Running totals at this tick.
    pub total: Snapshot,
    /// Change since the previous tick (equals `total` on the first).
    pub delta: Snapshot,
    /// The continuous-profiling meter's window ending at this tick; `None`
    /// outside continuous mode (and on the final post-join frame).
    pub overhead: Option<crate::overhead::OverheadWindow>,
}

/// The always-on registry: one [`PeMetrics`] slab per PE, shared across the
/// world via `Arc`. Construction is the only mutation of the registry's
/// shape; all metric traffic is on the interior atomics.
#[derive(Debug)]
pub struct TelemetryRegistry {
    pes: Vec<PeMetrics>,
    flight_dir: Option<PathBuf>,
}

impl TelemetryRegistry {
    /// A registry for `n_pes` PEs, each retaining the last
    /// [`DEFAULT_FLIGHT_CAPACITY`] flight-recorder events.
    pub fn new(n_pes: usize) -> TelemetryRegistry {
        TelemetryRegistry {
            pes: (0..n_pes).map(|_| PeMetrics::new()).collect(),
            flight_dir: None,
        }
    }

    /// Enable post-mortem flight-recorder dumps into `dir`
    /// (`dir/flightrec-pe<rank>.json`). Builder-style: call before sharing
    /// the registry.
    pub fn flight_dump_dir(mut self, dir: impl Into<PathBuf>) -> TelemetryRegistry {
        self.flight_dir = Some(dir.into());
        self
    }

    /// The configured dump directory, if any.
    pub fn flight_dir(&self) -> Option<&Path> {
        self.flight_dir.as_deref()
    }

    /// Number of PE slabs.
    pub fn n_pes(&self) -> usize {
        self.pes.len()
    }

    /// The slab for `rank`.
    #[inline]
    pub fn pe(&self, rank: usize) -> &PeMetrics {
        &self.pes[rank]
    }

    /// Copy every slab into a [`Snapshot`] (any thread).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            pes: self
                .pes
                .iter()
                .map(|p| PeSnapshot {
                    counters: Counter::ALL.iter().map(|c| p.counter(*c)).collect(),
                    gauges: Gauge::ALL.iter().map(|g| p.gauge(*g)).collect(),
                    span_cycles: Phase::ALL.iter().map(|ph| p.span_cycles(*ph)).collect(),
                    span_counts: Phase::ALL.iter().map(|ph| p.span_count(*ph)).collect(),
                })
                .collect(),
        }
    }

    /// Dump `rank`'s flight ring to `flightrec-pe<rank>.json` under the
    /// configured directory. Best-effort (runs during unwinding): returns
    /// the path on success, `None` when no directory is configured or the
    /// write fails.
    pub fn dump_flight(&self, rank: usize) -> Option<PathBuf> {
        let dir = self.flight_dir.as_ref()?;
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let path = dir.join(format!("flightrec-pe{rank}.json"));
        let json = self.pes.get(rank)?.flight.to_json(rank);
        std::fs::write(&path, json).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = TelemetryRegistry::new(2);
        reg.pe(0).count(Counter::ShmemPuts);
        reg.pe(0).add(Counter::ShmemPuts, 4);
        reg.pe(1).count(Counter::ShmemPuts);
        reg.pe(1).gauge_set(Gauge::ConveyorPullBacklog, 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(0, Counter::ShmemPuts), 5);
        assert_eq!(snap.counter_total(Counter::ShmemPuts), 6);
        assert_eq!(snap.counter_per_pe(Counter::ShmemPuts), vec![5, 1]);
        assert_eq!(snap.gauge(1, Gauge::ConveyorPullBacklog), 7);
        assert_eq!(snap.gauge_total(Gauge::ConveyorPullBacklog), 7);
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_gauges() {
        let reg = TelemetryRegistry::new(1);
        reg.pe(0).add(Counter::ActorSends, 10);
        reg.pe(0).gauge_set(Gauge::ConveyorBufferedItems, 3);
        let first = reg.snapshot();
        reg.pe(0).add(Counter::ActorSends, 5);
        reg.pe(0).gauge_set(Gauge::ConveyorBufferedItems, 9);
        let second = reg.snapshot();
        let delta = second.diff(&first);
        assert_eq!(delta.counter(0, Counter::ActorSends), 5);
        assert_eq!(delta.gauge(0, Gauge::ConveyorBufferedItems), 9);
    }

    #[test]
    fn flight_span_feeds_hot_phase_accounting_and_self_cost() {
        let reg = TelemetryRegistry::new(2);
        reg.pe(0).flight_span(Phase::Advance, 100, 350);
        reg.pe(0).flight_span(Phase::Advance, 400, 450);
        reg.pe(1).flight_span(Phase::Quiet, 10, 30);
        assert_eq!(reg.pe(0).span_cycles(Phase::Advance), 300);
        assert_eq!(reg.pe(0).span_count(Phase::Advance), 2);
        let first = reg.snapshot();
        assert_eq!(first.span_cycles_total(Phase::Advance), 300);
        assert_eq!(first.span_count_total(Phase::Quiet), 1);
        reg.pe(0).flight_span(Phase::Advance, 500, 600);
        let delta = reg.snapshot().diff(&first);
        assert_eq!(delta.span_cycles_total(Phase::Advance), 100);
        assert_eq!(delta.span_count_total(Phase::Advance), 1);
        // the call sites above registered a file:line attribution
        let (file, _line) = crate::metric::phase_site(Phase::Quiet).expect("site");
        assert!(file.ends_with("registry.rs"), "{file}");
    }

    #[test]
    fn cross_thread_snapshot_sees_published_counts() {
        let reg = std::sync::Arc::new(TelemetryRegistry::new(1));
        let writer = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.pe(0).count(Counter::ConveyorPushRetries);
                }
            })
        };
        writer.join().unwrap();
        assert_eq!(
            reg.snapshot().counter_total(Counter::ConveyorPushRetries),
            1000
        );
    }

    #[test]
    fn flight_dump_writes_named_file() {
        let dir = std::env::temp_dir().join(format!("fabsp-flight-{}", std::process::id()));
        let reg = TelemetryRegistry::new(2).flight_dump_dir(&dir);
        reg.pe(1).flight_span(Phase::Advance, 10, 20);
        let path = reg.dump_flight(1).expect("dump succeeds");
        assert!(path.ends_with("flightrec-pe1.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"phase\":\"advance\""));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            TelemetryRegistry::new(1).dump_flight(0).is_none(),
            "no dir configured → no dump"
        );
    }
}
