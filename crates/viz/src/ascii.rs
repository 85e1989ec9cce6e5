//! Terminal renderings — quick-look versions of every chart for CLI use
//! and for human-readable test output.

use actorprof::{Counter, Frame, Gauge, Matrix, Phase, Quartiles};
use actorprof_trace::OverallRecord;

use crate::scale::Norm;

const SHADES: [char; 7] = ['.', '░', '▒', '▓', '█', '█', '█'];

/// Render a matrix as an ASCII heatmap with totals row/column, log-scaled
/// shading. `.` marks zero cells.
pub fn heatmap(matrix: &Matrix, title: &str) -> String {
    let n = matrix.n();
    let max = matrix.max();
    let row_totals = matrix.row_totals();
    let col_totals = matrix.col_totals();
    let shade = |v: u64, max: u64| -> char {
        if v == 0 {
            SHADES[0]
        } else {
            let t = Norm::Log.apply(v, max);
            SHADES[1 + ((t * 3.999) as usize).min(3)]
        }
    };
    let mut out = format!("{title}\n     dst -> | total sends\n");
    for (src, total) in row_totals.iter().enumerate() {
        out.push_str(&format!("PE{src:>3} "));
        for dst in 0..n {
            out.push(shade(matrix.get(src, dst), max));
        }
        out.push_str(&format!(" | {total}\n"));
    }
    out.push_str("recv ");
    let tmax = col_totals.iter().copied().max().unwrap_or(0);
    for &total in &col_totals {
        out.push(shade(total, tmax));
    }
    out.push('\n');
    out.push_str(&format!(
        "recv totals: {}\n",
        col_totals
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// Render quartile summaries as an ASCII "violin" (box-plot style).
pub fn violin(series: &[(String, Vec<u64>)], title: &str) -> String {
    let width = 48usize;
    let global_max = series
        .iter()
        .flat_map(|(_, v)| v.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let pos = |v: f64| -> usize { ((v / global_max) * (width - 1) as f64).round() as usize };
    let mut out = format!("{title}\n");
    for (label, values) in series {
        let q = Quartiles::of(values);
        let mut row = vec![' '; width];
        for cell in row.iter_mut().take(pos(q.max) + 1).skip(pos(q.min)) {
            *cell = '-';
        }
        for cell in row.iter_mut().take(pos(q.q3) + 1).skip(pos(q.q1)) {
            *cell = '=';
        }
        row[pos(q.median)] = 'O';
        row[pos(q.max)] = '!';
        out.push_str(&format!(
            "{label:>14} |{}| min {:.0} med {:.0} max {:.0}\n",
            row.iter().collect::<String>(),
            q.min,
            q.median,
            q.max
        ));
    }
    out
}

/// Render per-PE values as horizontal ASCII bars (optionally log-scaled).
pub fn bars(values: &[u64], title: &str, log: bool) -> String {
    let width = 50usize;
    let transform = |v: u64| -> f64 {
        if log {
            (1.0 + v as f64).log10()
        } else {
            v as f64
        }
    };
    let max_t = values.iter().map(|&v| transform(v)).fold(0.0f64, f64::max);
    let mut out = format!("{title}\n");
    for (pe, &v) in values.iter().enumerate() {
        let len = if max_t > 0.0 {
            ((transform(v) / max_t) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!("PE{pe:>3} {:<width$} {v}\n", "#".repeat(len)));
    }
    out
}

/// Render one live-telemetry [`Frame`] as a terminal dashboard: per-PE
/// send-rate bars for the tick, per-tick counter deltas (as rates when the
/// previous frame's stamp is known), cumulative counter totals, and
/// current buffer-occupancy gauges. Meant to be re-drawn on every observer
/// tick (see `Profiler::observe`).
pub fn dashboard(frame: &Frame) -> String {
    dashboard_since(frame, None)
}

/// Like [`dashboard`], with the previous frame's `at_cycles` stamp so the
/// tick line can show true per-second rates instead of raw deltas. Pass
/// `Some(prev.at_cycles)` when redrawing on consecutive frames.
pub fn dashboard_since(frame: &Frame, prev_at_cycles: Option<u64>) -> String {
    let mut out = format!("== telemetry tick {} ==\n", frame.seq);
    out.push_str(&bars(
        &frame.delta.counter_per_pe(Counter::ActorSends),
        "sends this tick (per PE)",
        false,
    ));
    // The delta snapshot holds what happened *this interval*; rendering it
    // (not just the running totals) is what makes stalls visible live.
    let ticked = [
        ("sends", Counter::ActorSends),
        ("puts", Counter::ShmemPuts),
        ("push-retries", Counter::ConveyorPushRetries),
    ];
    let secs = prev_at_cycles
        .map(|prev| fabsp_hwpc::cycles_to_secs(frame.at_cycles.saturating_sub(prev)));
    match secs {
        Some(secs) if secs > 0.0 => {
            let line = ticked
                .iter()
                .map(|(label, c)| {
                    format!(
                        "{label} {:.0}/s",
                        frame.delta.counter_total(*c) as f64 / secs
                    )
                })
                .collect::<Vec<_>>()
                .join("  ");
            out.push_str(&format!("rates: {line}\n"));
        }
        _ => {
            let line = ticked
                .iter()
                .map(|(label, c)| format!("{label} +{}", frame.delta.counter_total(*c)))
                .collect::<Vec<_>>()
                .join("  ");
            out.push_str(&format!("tick:  {line}\n"));
        }
    }
    out.push_str("totals: ");
    let totals = [
        ("sends", Counter::ActorSends),
        ("yields", Counter::ActorYields),
        ("puts", Counter::ShmemPuts),
        ("quiets", Counter::ShmemQuiets),
        ("push-retries", Counter::ConveyorPushRetries),
        ("relay-parks", Counter::ConveyorRelayParks),
        ("forced-parks", Counter::ConveyorForcedParks),
    ];
    let summary = totals
        .iter()
        .map(|(label, c)| format!("{label} {}", frame.total.counter_total(*c)))
        .collect::<Vec<_>>()
        .join("  ");
    out.push_str(&summary);
    out.push('\n');
    out.push_str(&format!(
        "now: buffered {}  pull-backlog {}  advances observed {}  checkpoints {}\n",
        frame.total.gauge_total(Gauge::ConveyorBufferedItems),
        frame.total.gauge_total(Gauge::ConveyorPullBacklog),
        frame.total.span_count_total(Phase::Advance),
        frame.total.counter_total(Counter::Checkpoints),
    ));
    out
}

/// Render overall records as per-PE MAIN/COMM/PROC proportion bars.
pub fn stacked(records: &[OverallRecord], title: &str) -> String {
    let width = 50usize;
    let mut out = format!("{title}  (M=MAIN C=COMM P=PROC)\n");
    for r in records {
        let total = r.t_total.max(1) as f64;
        let m = ((r.t_main as f64 / total) * width as f64).round() as usize;
        let p = ((r.t_proc as f64 / total) * width as f64).round() as usize;
        let c = width.saturating_sub(m + p);
        out.push_str(&format!(
            "PE{:>3} {}{}{} total {} cycles\n",
            r.pe,
            "M".repeat(m),
            "C".repeat(c),
            "P".repeat(p),
            r.t_total
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shows_totals_and_zeros() {
        let mut m = Matrix::zeros(2);
        m.set(0, 1, 10);
        let s = heatmap(&m, "hm");
        assert!(s.contains("hm"));
        assert!(s.contains("| 10"), "row total missing:\n{s}");
        assert!(s.contains("recv totals: 0 10"));
        assert!(s.contains('.'), "zero cells marked");
    }

    #[test]
    fn violin_marks_median_and_max() {
        let s = violin(&[("sends".into(), vec![1, 5, 9])], "v");
        assert!(s.contains('O'));
        assert!(s.contains('!'));
        assert!(s.contains("med 5"));
    }

    #[test]
    fn bars_scale_to_max() {
        let s = bars(&[10, 5, 0], "b", false);
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str| l.matches('#').count();
        assert_eq!(count(lines[1]), 50);
        assert_eq!(count(lines[2]), 25);
        assert_eq!(count(lines[3]), 0);
    }

    #[test]
    fn stacked_proportions() {
        let r = OverallRecord {
            pe: 0,
            t_main: 25,
            t_proc: 25,
            t_total: 100,
        };
        let s = stacked(&[r], "o");
        let line = s.lines().nth(1).unwrap();
        let bar = &line["PE  0 ".len()..]; // skip the "PE  0 " prefix
        assert_eq!(bar.matches('M').count(), 13); // 25% of 50 rounded
        assert_eq!(bar.matches('P').count(), 13);
        assert!(bar.matches('C').count() >= 24);
    }

    #[test]
    fn dashboard_renders_frame_counters() {
        let reg = actorprof::TelemetryRegistry::new(2);
        reg.pe(0).add(Counter::ActorSends, 8);
        reg.pe(1).add(Counter::ActorSends, 4);
        reg.pe(0).gauge_set(Gauge::ConveyorBufferedItems, 3);
        reg.pe(0).count(Counter::Checkpoints);
        let total = reg.snapshot();
        let frame = Frame {
            seq: 2,
            at_cycles: 0,
            delta: total.diff(&actorprof::Snapshot::default()),
            total,
            overhead: None,
        };
        let s = dashboard(&frame);
        assert!(s.contains("tick 2"));
        assert!(s.contains("tick:  sends +12"), "delta line rendered:\n{s}");
        assert!(s.contains("sends 12"), "cumulative total rendered:\n{s}");
        assert!(s.contains("buffered 3"));
        assert!(s.contains("checkpoints 1"), "checkpoint count rendered:\n{s}");
        assert!(s.lines().any(|l| l.starts_with("PE  0") && l.contains('#')));
    }

    #[test]
    fn dashboard_rates_use_the_frame_interval() {
        let reg = actorprof::TelemetryRegistry::new(1);
        reg.pe(0).add(Counter::ActorSends, 10);
        let first = reg.snapshot();
        reg.pe(0).add(Counter::ActorSends, 490);
        let total = reg.snapshot();
        // Two frames half a (nominal) second apart: 490 sends in the
        // interval render as a 980/s rate, not as the 500 cumulative.
        let half_sec = fabsp_hwpc::NOMINAL_HZ / 2;
        let frame = Frame {
            seq: 1,
            at_cycles: 3 * half_sec,
            delta: total.diff(&first),
            total,
            overhead: None,
        };
        let s = dashboard_since(&frame, Some(2 * half_sec));
        assert!(s.contains("rates: sends 980/s"), "per-interval rate:\n{s}");
        assert!(s.contains("sends 500"), "totals still cumulative:\n{s}");
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(bars(&[], "b", true).contains('b'));
        assert!(stacked(&[], "o").contains('o'));
        assert!(violin(&[], "v").contains('v'));
    }
}
