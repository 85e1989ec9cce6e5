//! Glass-cockpit live terminal view of a running FA-BSP world.
//!
//! The paper's pipeline renders profiles *after* the run; the cockpit is
//! the live complement: point it at the observer [`Frame`] stream
//! (`Profiler::observe`) and redraw once per tick. Everything is plain
//! ANSI — no TUI crate — so it works over ssh, in CI logs (with
//! [`CockpitConfig::color`] off), and byte-stably in golden tests.
//!
//! Panels, top to bottom:
//!
//! 1. **Master status** — superstep reached and items/s over the tick.
//! 2. **Overhead** — in continuous mode, the window's measured
//!    instrumentation overhead and its verdict against the budget.
//! 3. **Hottest phases** — top-N phases by in-phase cycles this tick,
//!    with the `file:line` of the span site doing the work.
//! 4. **Worker load** — per-PE send bars plus conveyor occupancy gauges;
//!    the busiest PE is flagged.
//! 5. **Timeline** — a scrolling sparkline of per-tick throughput.
//!
//! After a crash, [`Cockpit::render_replay`] turns the post-mortem
//! `flightrec-pe*.json` dumps ([`FlightDump::load_dir`]) into the same
//! cockpit idiom: a merged, time-rebased event log per PE.

use std::collections::VecDeque;

use actorprof::{Counter, Frame, Gauge, Phase};
use fabsp_telemetry::{FlightDump, FlightEvent, PhaseSite};

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How the cockpit renders. The `site_for` hook exists so golden tests can
/// pin phase attribution to a fixture instead of whatever span sites the
/// test binary happened to execute first.
#[derive(Debug, Clone)]
pub struct CockpitConfig {
    /// Bar width of the worker-load panel, in cells.
    pub width: usize,
    /// Hottest phases shown.
    pub top_n: usize,
    /// Sparkline history length (ticks).
    pub timeline: usize,
    /// Emit ANSI color + screen-clear codes. Off for goldens and CI logs.
    pub color: bool,
    /// Phase → `file:line` attribution source. Defaults to the runtime's
    /// first-caller-wins site registry ([`fabsp_telemetry::phase_site`]).
    pub site_for: fn(Phase) -> Option<PhaseSite>,
}

impl Default for CockpitConfig {
    fn default() -> CockpitConfig {
        CockpitConfig {
            width: 24,
            top_n: 3,
            timeline: 32,
            color: true,
            site_for: fabsp_telemetry::phase_site,
        }
    }
}

impl CockpitConfig {
    /// The golden-test / CI-log configuration: no ANSI, fixture sites.
    pub fn plain(site_for: fn(Phase) -> Option<PhaseSite>) -> CockpitConfig {
        CockpitConfig {
            color: false,
            site_for,
            ..CockpitConfig::default()
        }
    }
}

/// The stateful live renderer: remembers the previous tick's cycle stamp
/// (for true rates) and the throughput history (for the timeline lane).
/// One instance per observed run; feed every [`Frame`] to
/// [`render`](Cockpit::render).
#[derive(Debug)]
pub struct Cockpit {
    cfg: CockpitConfig,
    prev_at_cycles: Option<u64>,
    history: VecDeque<u64>,
}

impl Cockpit {
    /// A cockpit with `cfg`.
    pub fn new(cfg: CockpitConfig) -> Cockpit {
        Cockpit {
            cfg,
            prev_at_cycles: None,
            history: VecDeque::new(),
        }
    }

    /// The screen-clear prefix for live redraws (empty when color is off).
    pub fn clear(&self) -> &'static str {
        if self.cfg.color {
            "\x1b[2J\x1b[H"
        } else {
            ""
        }
    }

    fn paint(&self, code: &str, s: &str) -> String {
        if self.cfg.color {
            format!("\x1b[{code}m{s}\x1b[0m")
        } else {
            s.to_string()
        }
    }

    /// Render one observer tick as the full cockpit screen.
    pub fn render(&mut self, frame: &Frame) -> String {
        let sends_tick = frame.delta.counter_total(Counter::ActorSends);
        let secs = self
            .prev_at_cycles
            .map(|prev| fabsp_hwpc::cycles_to_secs(frame.at_cycles.saturating_sub(prev)))
            .filter(|s| *s > 0.0);
        self.prev_at_cycles = Some(frame.at_cycles);
        self.history.push_back(sends_tick);
        while self.history.len() > self.cfg.timeline.max(1) {
            self.history.pop_front();
        }

        // -- master status -------------------------------------------------
        let ss_idx = Phase::Superstep as usize;
        let superstep = frame
            .total
            .pes
            .iter()
            .map(|p| p.span_counts.get(ss_idx).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let items = match secs {
            Some(secs) => format!("{:.0}/s", sends_tick as f64 / secs),
            None => format!("+{sends_tick}"),
        };
        let mut out = format!(
            "┌ actorprof cockpit ── tick {:>4} ┐\n\
             superstep {superstep}  items {items}\n",
            frame.seq,
        );

        // -- overhead ------------------------------------------------------
        if let Some(w) = &frame.overhead {
            let verdict = if w.within_budget { "ok" } else { "OVER" };
            let line = format!("overhead  {:.2}% [{verdict}]", w.overhead_pct);
            let line = if w.within_budget {
                line
            } else {
                self.paint("31", &line)
            };
            out.push_str(&line);
            out.push('\n');
        }

        // -- hottest phases ------------------------------------------------
        // Per-tick in-phase cycles; a tick where nothing completed (or the
        // very first frame) falls back to the cumulative totals so the
        // panel never goes blank mid-flight.
        let mut hot: Vec<(Phase, u64, u64)> = Phase::ALL
            .iter()
            .map(|&ph| {
                (
                    ph,
                    frame.delta.span_cycles_total(ph),
                    frame.delta.span_count_total(ph),
                )
            })
            .collect();
        let mut basis = "tick";
        if hot.iter().all(|(_, cy, _)| *cy == 0) {
            basis = "total";
            hot = Phase::ALL
                .iter()
                .map(|&ph| {
                    (
                        ph,
                        frame.total.span_cycles_total(ph),
                        frame.total.span_count_total(ph),
                    )
                })
                .collect();
        }
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.label().cmp(b.0.label())));
        let all_cycles: u64 = hot.iter().map(|(_, cy, _)| cy).sum();
        out.push_str(&format!("hottest phases ({basis})\n"));
        for (ph, cy, n) in hot.iter().take(self.cfg.top_n) {
            if *cy == 0 {
                continue;
            }
            let site = (self.cfg.site_for)(*ph)
                .map(|(file, line)| format!("{file}:{line}"))
                .unwrap_or_else(|| "?".to_string());
            out.push_str(&format!(
                "  {:<9} {:>9.1}us {:>5.1}% x{n}  {site}\n",
                ph.label(),
                fabsp_hwpc::cycles_to_us(*cy),
                *cy as f64 / all_cycles.max(1) as f64 * 100.0,
            ));
        }

        // -- worker load ---------------------------------------------------
        let per_pe = frame.delta.counter_per_pe(Counter::ActorSends);
        let max_pe = per_pe.iter().copied().max().unwrap_or(0);
        let busiest = per_pe
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i);
        out.push_str("worker load (sends/tick | conveyor buf, backlog)\n");
        for (pe, &v) in per_pe.iter().enumerate() {
            let fill = if max_pe > 0 {
                (v as f64 / max_pe as f64 * self.cfg.width as f64).round() as usize
            } else {
                0
            };
            let bar: String = std::iter::repeat_n('#', fill)
                .chain(std::iter::repeat_n('.', self.cfg.width - fill))
                .collect();
            let flag = if busiest == Some(pe) && max_pe > 0 {
                "*"
            } else {
                " "
            };
            let line = format!(
                "  pe{pe:<3}{flag}|{bar}| {v:>6}  buf {:>4} lag {:>4}\n",
                frame.total.gauge(pe, Gauge::ConveyorBufferedItems),
                frame.total.gauge(pe, Gauge::ConveyorPullBacklog),
            );
            if busiest == Some(pe) && max_pe > 0 {
                out.push_str(&self.paint("1", line.trim_end_matches('\n')));
                out.push('\n');
            } else {
                out.push_str(&line);
            }
        }

        // -- timeline ------------------------------------------------------
        let hist_max = self.history.iter().copied().max().unwrap_or(0).max(1);
        let lane: String = self
            .history
            .iter()
            .map(|&v| SPARKS[(v as f64 / hist_max as f64 * 7.0).round() as usize])
            .collect();
        out.push_str(&format!("timeline  |{lane}|\n"));
        out.push_str("└──────────────────────────────┘\n");
        out
    }

    /// Render post-mortem flight-recorder dumps (see
    /// [`FlightDump::load_dir`]) as a merged replay: every retained event,
    /// oldest first per PE, timestamps rebased to the earliest event across
    /// all dumps.
    pub fn render_replay(&self, dumps: &[FlightDump]) -> String {
        if dumps.is_empty() {
            return "flight replay: no flightrec-pe*.json dumps found\n".to_string();
        }
        let t0 = dumps
            .iter()
            .filter_map(FlightDump::first_cycles)
            .min()
            .unwrap_or(0);
        let mut out = String::from("┌ flight replay ┐\n");
        for dump in dumps {
            let dropped = dump.recorded.saturating_sub(dump.events.len() as u64);
            out.push_str(&format!(
                "pe{} — {} of {} events retained (ring capacity {}{})\n",
                dump.pe,
                dump.events.len(),
                dump.recorded,
                dump.capacity,
                if dropped > 0 {
                    format!(", {dropped} older dropped")
                } else {
                    String::new()
                },
            ));
            for ev in &dump.events {
                match ev {
                    FlightEvent::Span {
                        phase,
                        begin_cycles,
                        end_cycles,
                    } => {
                        let site = (self.cfg.site_for)(*phase)
                            .map(|(file, line)| format!("  {file}:{line}"))
                            .unwrap_or_default();
                        out.push_str(&format!(
                            "  [{:>10.1}us] span {:<9} {:>9.1}us{site}\n",
                            fabsp_hwpc::cycles_to_us(begin_cycles.saturating_sub(t0)),
                            phase.label(),
                            fabsp_hwpc::cycles_to_us(end_cycles.saturating_sub(*begin_cycles)),
                        ));
                    }
                    FlightEvent::Note {
                        counter,
                        value,
                        at_cycles,
                    } => {
                        out.push_str(&format!(
                            "  [{:>10.1}us] note {} +{value}\n",
                            fabsp_hwpc::cycles_to_us(at_cycles.saturating_sub(t0)),
                            counter.name(),
                        ));
                    }
                }
            }
        }
        out.push_str("└───────────────┘\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof::{Snapshot, TelemetryRegistry};
    use fabsp_telemetry::OverheadWindow;

    fn fixture_site(phase: Phase) -> Option<PhaseSite> {
        Some(match phase {
            Phase::Superstep => ("crates/actor/src/selector.rs", 100),
            Phase::Advance => ("crates/conveyors/src/convey.rs", 200),
            Phase::Quiet => ("crates/shmem/src/quiet.rs", 300),
            Phase::RelayHop => ("crates/conveyors/src/relay.rs", 400),
        })
    }

    fn frame_from(reg: &TelemetryRegistry, seq: u64, at: u64, prev: &Snapshot) -> Frame {
        let total = reg.snapshot();
        Frame {
            seq,
            at_cycles: at,
            delta: total.diff(prev),
            total,
            overhead: None,
        }
    }

    #[test]
    fn renders_all_panels_without_color() {
        let reg = TelemetryRegistry::new(2);
        reg.pe(0).add(Counter::ActorSends, 30);
        reg.pe(1).add(Counter::ActorSends, 10);
        reg.pe(0).gauge_set(Gauge::ConveyorBufferedItems, 5);
        reg.pe(1).gauge_set(Gauge::ConveyorPullBacklog, 2);
        reg.pe(0).flight_span(Phase::Superstep, 1000, 9000);
        reg.pe(0).flight_span(Phase::Advance, 1000, 3000);
        let mut cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
        let s = cockpit.render(&frame_from(&reg, 0, 10_000, &Snapshot::default()));
        assert!(s.contains("tick    0"));
        assert!(s.contains("superstep 1"), "superstep from span counts:\n{s}");
        assert!(s.contains("items +40"), "first tick shows raw delta:\n{s}");
        assert!(s.contains("hottest phases (tick)"));
        assert!(
            s.contains("superstep") && s.contains("crates/actor/src/selector.rs:100"),
            "file:line attribution:\n{s}"
        );
        assert!(s.contains("pe0  *|"), "busiest PE flagged:\n{s}");
        assert!(s.contains("buf    5"), "gauges shown:\n{s}");
        assert!(s.contains("lag    2"), "backlog shown:\n{s}");
        assert!(s.contains("timeline  |"), "sparkline lane:\n{s}");
        assert!(!s.contains('\x1b'), "plain mode emits no ANSI");
        assert_eq!(cockpit.clear(), "");
    }

    #[test]
    fn second_frame_uses_true_rates_and_scrolls_timeline() {
        let reg = TelemetryRegistry::new(1);
        reg.pe(0).add(Counter::ActorSends, 100);
        let mut cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
        let first = frame_from(&reg, 0, fabsp_hwpc::NOMINAL_HZ, &Snapshot::default());
        cockpit.render(&first);
        reg.pe(0).add(Counter::ActorSends, 50);
        // one nominal second later: 50 sends → 50/s
        let s = cockpit.render(&frame_from(&reg, 1, 2 * fabsp_hwpc::NOMINAL_HZ, &first.total));
        assert!(s.contains("items 50/s"), "rate from at_cycles:\n{s}");
        let lane = s.lines().find(|l| l.starts_with("timeline")).unwrap();
        assert_eq!(
            lane.chars().filter(|c| SPARKS.contains(c)).count(),
            2,
            "two ticks of history:\n{s}"
        );
    }

    #[test]
    fn overhead_line_shows_budget_verdict() {
        let reg = TelemetryRegistry::new(1);
        let mut frame = frame_from(&reg, 3, 100, &Snapshot::default());
        frame.overhead = Some(OverheadWindow {
            overhead_pct: 2.25,
            within_budget: true,
            ..OverheadWindow::default()
        });
        let mut cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
        let s = cockpit.render(&frame);
        assert!(s.contains("\noverhead  2.25% [ok]\n"), "{s}");
        frame.overhead = Some(OverheadWindow {
            overhead_pct: 9.5,
            within_budget: false,
            ..OverheadWindow::default()
        });
        let s = cockpit.render(&frame);
        assert!(s.contains("[OVER]"), "{s}");
    }

    #[test]
    fn color_mode_emits_ansi_and_clear() {
        let reg = TelemetryRegistry::new(1);
        reg.pe(0).add(Counter::ActorSends, 1);
        let cfg = CockpitConfig {
            color: true,
            site_for: fixture_site,
            ..CockpitConfig::default()
        };
        let mut cockpit = Cockpit::new(cfg);
        let s = cockpit.render(&frame_from(&reg, 0, 100, &Snapshot::default()));
        assert!(s.contains("\x1b[1m"), "busiest PE bolded:\n{s:?}");
        assert_eq!(cockpit.clear(), "\x1b[2J\x1b[H");
    }

    #[test]
    fn replay_renders_dumps_rebased_and_attributed() {
        let ring = fabsp_telemetry::FlightRing::new(4);
        ring.span(Phase::Advance, 2_450_000, 4_900_000); // 1000us..2000us
        ring.note(Counter::ConveyorPushRetries, 3, 7_350_000);
        let dump = FlightDump::parse(&ring.to_json(1)).unwrap();
        let cockpit = Cockpit::new(CockpitConfig::plain(fixture_site));
        let s = cockpit.render_replay(&[dump]);
        assert!(s.contains("pe1 — 2 of 2 events retained"), "{s}");
        assert!(
            s.contains("span advance") && s.contains("crates/conveyors/src/convey.rs:200"),
            "{s}"
        );
        assert!(s.contains("[       0.0us]"), "rebased to first event:\n{s}");
        assert!(
            s.contains("[    2000.0us] note conveyor.push_retries +3"),
            "{s}"
        );
        assert!(
            cockpit.render_replay(&[]).contains("no flightrec"),
            "empty dir handled"
        );
    }
}
