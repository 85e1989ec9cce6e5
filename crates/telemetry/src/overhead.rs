//! Continuous-profiling overhead meter.
//!
//! Always-on telemetry is only trustworthy if its cost is *measured
//! online*, not asserted once on a quiet machine. The runtime charges
//! every instrumentation burst to
//! [`Counter::TelemetrySelfCycles`](crate::Counter::TelemetrySelfCycles)
//! (span capture, gauge updates, flight-ring writes), the
//! observer thread adds its own snapshot-diff cost, and each observation
//! window the sum is divided by total PE cycles and checked against an
//! [`OverheadBudget`].
//!
//! Every window is kept as an [`OverheadWindow`] in the run's
//! [`ContinuousReport`], so the trace can state its own cost: the Perfetto
//! export renders the windows as an `overhead` lane and the cockpit shows
//! the latest one next to the data it qualifies.

/// How much a continuous-mode run may spend on its own observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadBudget {
    /// Ceiling on measured instrumentation overhead, percent of total PE
    /// cycles per window. Default 5.0 — the paper-era "always-on ≤5%"
    /// claim, now checked every window instead of asserted.
    pub pct: f64,
}

impl Default for OverheadBudget {
    fn default() -> OverheadBudget {
        OverheadBudget { pct: 5.0 }
    }
}

impl OverheadBudget {
    /// A budget of `pct` percent.
    pub fn pct(pct: f64) -> OverheadBudget {
        OverheadBudget { pct }
    }
}

/// One metered observation window, also attached to the observer
/// [`Frame`] so a live dashboard can show the overhead number next to the
/// data it qualifies.
///
/// [`Frame`]: crate::Frame
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadWindow {
    /// Window sequence number (same numbering as observer frames).
    pub window: u64,
    /// Absolute cycle stamp at the end of the window.
    pub at_cycles: u64,
    /// Total PE cycles the window spanned (wall cycles × PE count).
    pub window_cycles: u64,
    /// Cycles the PEs spent inside their own instrumentation.
    pub instr_cycles: u64,
    /// Cycles the observer spent snapshotting and diffing.
    pub observer_cycles: u64,
    /// `(instr + observer) / window` as a percentage.
    pub overhead_pct: f64,
    /// Whether the window landed within the configured budget.
    pub within_budget: bool,
}

/// What continuous mode measured over a whole run: the budget and every
/// metered window, with the summary accessors the smoke gate and the
/// cockpit use. Built by the observer thread, one
/// [`meter`](ContinuousReport::meter) call per window.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousReport {
    /// The budget each window is checked against.
    pub budget: OverheadBudget,
    /// Every metered window, in order.
    pub metered: Vec<OverheadWindow>,
}

impl ContinuousReport {
    /// An empty report against `budget`.
    pub fn new(budget: OverheadBudget) -> ContinuousReport {
        ContinuousReport {
            budget,
            metered: Vec::new(),
        }
    }

    /// Meter one window ending at `at_cycles` and keep it.
    pub fn meter(
        &mut self,
        window_cycles: u64,
        instr_cycles: u64,
        observer_cycles: u64,
        at_cycles: u64,
    ) -> OverheadWindow {
        let overhead_pct =
            (instr_cycles + observer_cycles) as f64 / window_cycles.max(1) as f64 * 100.0;
        let w = OverheadWindow {
            window: self.windows(),
            at_cycles,
            window_cycles,
            instr_cycles,
            observer_cycles,
            overhead_pct,
            within_budget: overhead_pct <= self.budget.pct,
        };
        self.metered.push(w);
        w
    }

    /// Number of metered observation windows.
    pub fn windows(&self) -> u64 {
        self.metered.len() as u64
    }

    /// Measured overhead of the final window (0 when no window completed).
    pub fn final_overhead_pct(&self) -> f64 {
        self.metered.last().map_or(0.0, |w| w.overhead_pct)
    }

    /// Whether the final window landed within the budget.
    pub fn within_budget(&self) -> bool {
        self.final_overhead_pct() <= self.budget.pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_meter_instrumentation_plus_observer_against_the_budget() {
        let mut r = ContinuousReport::new(OverheadBudget::default());
        let w = r.meter(1000, 80, 20, 7); // 10%: over a 5% budget
        assert!((w.overhead_pct - 10.0).abs() < 1e-9);
        assert!(!w.within_budget);
        assert_eq!((w.window, w.at_cycles), (0, 7));
        let w = r.meter(10_000, 10, 10, 9); // 0.2%
        assert!(w.within_budget);
        assert_eq!(w.window, 1);
        assert_eq!(r.windows(), 2);
        assert!((r.final_overhead_pct() - 0.2).abs() < 1e-9);
        assert!(r.within_budget(), "the verdict is the final window's");
    }

    #[test]
    fn empty_report_is_within_budget() {
        let r = ContinuousReport::new(OverheadBudget::pct(1.0));
        assert_eq!(r.windows(), 0);
        assert_eq!(r.final_overhead_pct(), 0.0);
        assert!(r.within_budget());
        assert_eq!(OverheadBudget::default().pct, 5.0);
    }
}
