//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans are kept in memory and written once, at exit. A disabled recorder
//! still times (`time` is how every rep is measured) but stores nothing:
//! end-to-end runs use it disabled, the traced `layers` run enabled, and
//! `bench.span_overhead_pct` is the difference between the two.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    rep: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one workload's run.
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str, enabled: bool) -> Spans {
        Spans {
            enabled,
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f`, return its result and its wall time in seconds; when
    /// enabled, record the interval as a span whose parent is the span
    /// open at the call.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        rep: usize,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let t0 = Instant::now();
        let r = f(self);
        let dt = t0.elapsed();
        self.open.pop();
        let start = t0.duration_since(self.epoch).as_nanos() as u64;
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = start + dt.as_nanos() as u64;
        (r, dt.as_secs_f64())
    }

    /// Serialize as the comma-separated items of a JSON array; `self_ns`
    /// is the span's duration minus the part of it that its child spans
    /// cover. Ids (and `parent`) are unique within the workload.
    pub fn to_json_items(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"rep\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                self.workload,
                s.rep,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i])
            );
            if i + 1 < self.spans.len() {
                out.push_str(",\n");
            }
        }
        out
    }
}
