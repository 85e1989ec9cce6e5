//! `--sets K`: the evidence that the benchmark repeats. Runs the whole
//! end-to-end suite K times in this process and compares, per metric and
//! workload, the values of the first and the last set against the
//! metric's bound.

use crate::e2e::METRICS;
use crate::stats::{fmt_num, Row};
use crate::workloads::Workload;

/// Print the agreement table for `sets` (each: the rows of one run per
/// workload, in `workloads` order; every metric has its row). Returns
/// whether every row is within its bound.
pub fn report(workloads: &[Workload], sets: &[Vec<Vec<Row>>]) -> bool {
    let value = |rows: &[Row], name: &str| {
        let row = rows.iter().find(|r| r.name == name).expect("metric row");
        row.summary.value
    };
    let (first, last) = (&sets[0], &sets[sets.len() - 1]);
    println!(
        "agreement of set 1 and set {} (worse = in the metric's bad direction)",
        sets.len()
    );
    println!(
        "  {:<13} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "set 1",
        format!("set {}", sets.len()),
        "worse by",
        "bound"
    );
    let mut all_within = true;
    for (i, w) in workloads.iter().enumerate() {
        for m in &METRICS {
            let a = value(&first[i], m.name);
            let b = value(&last[i], m.name);
            // positive = the later set is worse
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let within = worse.abs() <= m.bound;
            all_within &= within;
            println!(
                "  {:<13} {:<20} {:>14} {:>14} {:>+8.2}% {:>6.0}%  {}",
                w.name(),
                m.name,
                fmt_num(a),
                fmt_num(b),
                worse * 100.0,
                m.bound * 100.0,
                match (within, worse.abs() <= m.bound / 2.0) {
                    (true, true) => "ok (within half the bound)",
                    (true, false) => "ok",
                    (false, _) => "OUTSIDE BOUND",
                }
            );
        }
    }
    all_within
}
