//! The post-mortem pipeline a user runs on a finished trace bundle: write
//! every trace file, read every file back, render the text report, export
//! the Perfetto JSON, render the SVG figures. Single-threaded; five spans
//! (`pm.write|read|report|export|viz`) under one `pm` parent.

use std::hint::black_box;
use std::path::Path;

use actorprof::{export, reader, report, writer, TraceBundle};
use actorprof_viz::{heatmap, stacked, violin};

use crate::spans::Spans;

/// Wall times and byte counts of one pass over the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    pub total_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    pub report_s: f64,
    pub export_s: f64,
    pub viz_s: f64,
    pub write_bytes: u64,
    pub export_bytes: u64,
}

/// Run the pipeline once on `bundle`, writing under `dir` (removed again
/// afterwards, outside the timed interval). Fails if what is read back
/// differs from what was written.
pub fn run_once(
    bundle: &TraceBundle,
    dir: &Path,
    spans: &mut Spans,
    rep: usize,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let (result, total_s) = spans.time("pm", rep, |spans| {
        pipeline(bundle, dir, spans, rep, &mut pass)
    });
    pass.total_s = total_s;
    let _ = std::fs::remove_dir_all(dir);
    result.map(|()| pass)
}

fn pipeline(
    bundle: &TraceBundle,
    dir: &Path,
    spans: &mut Spans,
    rep: usize,
    pass: &mut Pass,
) -> Result<(), String> {
    let n_pes = bundle.n_pes();

    let (files, dt) = spans.time("pm.write", rep, |_| writer::write_all(dir, bundle));
    let files = files.map_err(|e| e.to_string())?;
    pass.write_s = dt;
    for f in &files {
        pass.write_bytes += std::fs::metadata(dir.join(f))
            .map_err(|e| e.to_string())?
            .len();
    }

    let (read, dt) = spans.time("pm.read", rep, |_| read_back(dir, n_pes));
    let read = read.map_err(|e| e.to_string())?;
    pass.read_s = dt;
    let written = Counts::of(bundle);
    if read.counts != written {
        return Err(format!("read back {:?}, wrote {written:?}", read.counts));
    }
    let matrix = bundle.logical_matrix().map_err(|e| e.to_string())?;
    if read.matrix != matrix {
        return Err("logical matrix read back differs from the bundle's".into());
    }

    let (text, dt) = spans.time("pm.report", rep, |_| report::render(bundle, "benchmark"));
    pass.report_s = dt;
    black_box(text.len());

    let (json, dt) = spans.time("pm.export", rep, |_| export::trace_events_json(bundle));
    pass.export_s = dt;
    pass.export_bytes = json.map_err(|e| e.to_string())?.len() as u64;

    let ((), dt) = spans.time("pm.viz", rep, |_| {
        let heat = heatmap::render(
            &read.matrix,
            &heatmap::HeatmapSpec::titled("Logical trace (sends)"),
        );
        let quartiles = violin::render(
            &[
                violin::ViolinSeries::new("sends", read.matrix.row_totals()),
                violin::ViolinSeries::new("recvs", read.matrix.col_totals()),
            ],
            "Logical trace quartiles",
        );
        let bars = stacked::render(
            &read.overall,
            stacked::StackedMode::Relative,
            "Overall profiling",
        );
        black_box(heat.render().len() + quartiles.render().len() + bars.render().len());
    });
    pass.viz_s = dt;
    Ok(())
}

/// Record counts per trace file kind — the round-trip check compares
/// what was read with what the bundle holds.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    logical: usize,
    papi: usize,
    physical: usize,
    overall: usize,
}

impl Counts {
    fn of(bundle: &TraceBundle) -> Counts {
        let cs = bundle.collectors();
        Counts {
            logical: cs.iter().map(|c| c.logical_records().len()).sum(),
            papi: cs.iter().map(|c| c.papi_records().len()).sum(),
            physical: cs.iter().map(|c| c.physical_records().len()).sum(),
            overall: cs.iter().filter(|c| c.overall().is_some()).count(),
        }
    }
}

struct ReadBack {
    counts: Counts,
    matrix: actorprof::Matrix,
    overall: Vec<actorprof_trace::OverallRecord>,
}

fn read_back(dir: &Path, n_pes: usize) -> Result<ReadBack, actorprof::ProfError> {
    let mut counts = Counts {
        logical: 0,
        papi: 0,
        physical: 0,
        overall: 0,
    };
    for pe in 0..n_pes {
        counts.logical += reader::read_logical_exact(&dir.join(format!("PE{pe}_send.csv")))?.len();
        counts.papi += reader::read_papi(&dir.join(format!("PE{pe}_PAPI.csv")))?
            .1
            .len();
    }
    counts.physical = reader::read_physical(&dir.join("physical.txt"))?.len();
    let overall = reader::read_overall(&dir.join("overall.txt"))?;
    counts.overall = overall.len();
    Ok(ReadBack {
        counts,
        matrix: reader::read_logical_matrix(dir, n_pes)?,
        overall,
    })
}
