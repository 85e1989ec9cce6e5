//! Order statistics and the metric row every mode prints.
//!
//! Quantiles follow Python's `statistics.quantiles` (the default
//! "exclusive" method), because that is what the driver applies to the
//! per-run values; using the same estimator inside a run keeps the two
//! spreads comparable.

/// The reported value, median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// What the metric reports: the median, or for an end-to-end timing
    /// the fast decile (see [`Row::rate`]).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a metric that is one exact number, not a sample.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile of ascending `sorted` (exclusive method: position
/// `p * (n + 1)`, clamped to the sample).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted[0];
    }
    let pos = p * (n + 1) as f64;
    let j = (pos as usize).clamp(1, n - 1);
    let frac = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// Summarize `values` (must be non-empty); the reported value is their
/// `p`-quantile.
fn summarize_at(values: &[f64], p: f64) -> Summary {
    assert!(!values.is_empty(), "a summary needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Summary {
        value: quantile(&v, p),
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        n: v.len(),
    }
}

/// Summarize `values` (must be non-empty), reporting the median.
pub fn summarize(values: &[f64]) -> Summary {
    summarize_at(values, 0.5)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Row {
    pub fn new(name: &'static str, unit: &'static str, summary: Summary) -> Row {
        Row {
            name,
            unit,
            summary,
        }
    }

    /// A sampled metric reported as its median.
    pub fn sampled(name: &'static str, unit: &'static str, values: &[f64]) -> Row {
        Row::new(name, unit, summarize(values))
    }

    /// An end-to-end rate, reported as the fast decile (90th percentile)
    /// of its reps. On a shared host interference is one-sided — a
    /// neighbour can only slow a rep down — and lasts for minutes, so the
    /// median of a run moves with the host (10–25 % between runs of the
    /// same code, measured) while the fast end stays with the code
    /// (5–10 %). The decile rather than the maximum, so that one lucky rep
    /// decides nothing. Median and quartiles are printed alongside.
    pub fn rate(name: &'static str, unit: &'static str, values: &[f64]) -> Row {
        Row::new(name, unit, summarize_at(values, 0.9))
    }

    /// An end-to-end duration, reported as the fast decile (10th
    /// percentile) of its reps; see [`Row::rate`].
    pub fn time(name: &'static str, unit: &'static str, values: &[f64]) -> Row {
        Row::new(name, unit, summarize_at(values, 0.1))
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Row {
        Row::new(name, unit, Summary::exact(value))
    }
}

/// Print `rows` as an aligned table on stdout.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("{title}");
    println!(
        "  {:<40} {:>6} {:>14} {:>14} {:>14} {:>14} {:>4} {:>7}",
        "metric", "unit", "value", "median", "q1", "q3", "n", "iqr/med"
    );
    for r in rows {
        let s = &r.summary;
        println!(
            "  {:<40} {:>6} {:>14} {:>14} {:>14} {:>14} {:>4} {:>6.2}%",
            r.name,
            r.unit,
            fmt_num(s.value),
            fmt_num(s.median),
            fmt_num(s.q1),
            fmt_num(s.q3),
            s.n,
            s.rel_iqr() * 100.0
        );
    }
}

/// Six significant digits, without exponent for the magnitudes we print.
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[1.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        let s = summarize(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn fast_decile_is_the_good_end() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        // statistics.quantiles(range(1, 10), n=10) == [1.0, 2.0, ..., 9.0]
        assert_eq!(Row::rate("r", "1/s", &v).summary.value, 9.0);
        assert_eq!(Row::time("t", "s", &v).summary.value, 1.0);
        assert_eq!(Row::sampled("m", "x", &v).summary.value, 5.0);
    }
}
