//! Reusable figure builders — the `figures` binary dispatches an id to one
//! of these, so the paper's 1-node/2-node figure pairs share code. The
//! scaling, topology and trace-size sweeps after them go beyond the
//! paper's figures.

use std::time::Instant;

use actorprof::overall::OverallSummary;
use actorprof::papi::PapiSeries;
use actorprof::stats::Imbalance;
use actorprof::{Matrix, Quartiles};
use actorprof_trace::{PapiConfig, PhysicalRecords, SendType, TraceConfig};
use actorprof_viz::{ascii, bar, heatmap, line, stacked, violin};
use fabsp_apps::histogram::{self, HistogramConfig};
use fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use fabsp_conveyors::{ConveyorOptions, Topology, TopologySpec};
use fabsp_graph::Csr;
use fabsp_shmem::Grid;

use crate::experiment::{figure_dir, lower_rmat_graph, run_traced_tc, FigureCtx};

/// Figs 3–4: logical-trace heatmaps, Cyclic vs Range, for one grid.
pub fn logical_heatmap_figure(ctx: &FigureCtx, figure: &str, grid: Grid, node_label: &str) {
    let dir = figure_dir(figure);
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        let outcome = run_traced_tc(ctx.l, grid, dist);
        let m = outcome.bundle.logical_matrix().expect("logical trace");
        let title = format!("Logical trace, {node_label}, {}", dist.label());
        let spec = heatmap::HeatmapSpec::titled(&title);
        let file = dir.join(format!(
            "logical_{}_{}.svg",
            node_label.replace(' ', ""),
            if dist == DistKind::Cyclic { "cyclic" } else { "range" }
        ));
        heatmap::render(&m, &spec).save(&file).expect("write svg");
        println!("\n{}", ascii::heatmap(&m, &title));
        describe_logical(&m, dist);
        if grid.nodes() > 1 {
            // node-level hotspot view (§III-D's "hotspots of node")
            let nm = m.aggregate_nodes(grid.pes_per_node());
            println!("{}", ascii::heatmap(&nm, "  node-aggregated sends"));
        }
        println!("svg: {}", file.display());
    }
}

fn describe_logical(m: &Matrix, dist: DistKind) {
    let sends = m.row_totals();
    let recvs = m.col_totals();
    let si = Imbalance::of(&sends);
    let ri = Imbalance::of(&recvs);
    println!(
        "observations [{}]: send max/mean {:.2} (PE{}), recv max/mean {:.2} (PE{})",
        dist.label(),
        si.max_over_mean,
        si.argmax,
        ri.max_over_mean,
        ri.argmax
    );
    match dist {
        DistKind::Cyclic => {
            // "PE0 incurs more communication with a specific set of PEs
            // (~3-4 in number)": count PE0's partners above half its max.
            let row0 = m.row(0);
            let max0 = row0.iter().copied().max().unwrap_or(0);
            let hot_partners = row0.iter().filter(|&&v| v * 2 >= max0 && v > 0).count();
            println!("  PE0 hot partners (>= half of its max): {hot_partners}");
        }
        DistKind::RangeByNnz => {
            println!(
                "  lower-triangular mass: {:.1}% (the (L) observation)",
                m.lower_triangular_fraction() * 100.0
            );
            let monotone = recvs.windows(2).filter(|w| w[1] <= w[0]).count();
            println!(
                "  recv totals monotonically decreasing at {}/{} steps",
                monotone,
                recvs.len() - 1
            );
        }
    }
}

/// Figs 5/7: quartile violins of per-PE totals, all four configurations.
/// `physical = true` selects buffer counts (Fig 7) instead of message
/// counts (Fig 5).
pub fn violin_figure(ctx: &FigureCtx, figure: &str, physical: bool) {
    let dir = figure_dir(figure);
    for (grid, node_label) in [(ctx.one_node, "1node"), (ctx.two_node, "2node")] {
        let mut series = Vec::new();
        let mut maxima = Vec::new();
        for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
            let outcome = run_traced_tc(ctx.l, grid, dist);
            let m = if physical {
                outcome.bundle.physical_matrix(None).expect("physical trace")
            } else {
                outcome.bundle.logical_matrix().expect("logical trace")
            };
            let tag = if dist == DistKind::Cyclic { "cyclic" } else { "range" };
            let sends = m.row_totals();
            let recvs = m.col_totals();
            maxima.push((
                tag,
                *sends.iter().max().unwrap_or(&0),
                *recvs.iter().max().unwrap_or(&0),
            ));
            series.push(violin::ViolinSeries::new(format!("{tag} send"), sends));
            series.push(violin::ViolinSeries::new(format!("{tag} recv"), recvs));
        }
        let what = if physical { "Physical" } else { "Logical" };
        let title = format!("{what} trace quartiles, {node_label}");
        let file = dir.join(format!(
            "{}_violin_{node_label}.svg",
            what.to_lowercase()
        ));
        violin::render(&series, &title).save(&file).expect("write svg");
        println!("\n{title}");
        let ascii_series: Vec<(String, Vec<u64>)> = series
            .iter()
            .map(|s| (s.label.clone(), s.values.clone()))
            .collect();
        print!("{}", ascii::violin(&ascii_series, ""));
        for (tag, smax, rmax) in &maxima {
            println!("  {tag}: max send {smax}, max recv {rmax}");
        }
        if maxima.len() == 2 {
            let (c, r) = (&maxima[0], &maxima[1]);
            println!(
                "  cyclic/range ratios: sends {:.2}x, recvs {:.2}x",
                c.1 as f64 / r.1.max(1) as f64,
                c.2 as f64 / r.2.max(1) as f64
            );
        }
        println!("svg: {}", file.display());
        for s in &series {
            let q = Quartiles::of(&s.values);
            println!(
                "  {:<13} min {:>8.0}  q1 {:>8.0}  med {:>8.0}  q3 {:>8.0}  max {:>8.0}",
                s.label, q.min, q.q1, q.median, q.q3, q.max
            );
        }
    }
}

/// Fig 6: verify the (L) observation structurally.
pub fn l_observation_figure(ctx: &FigureCtx, figure: &str) {
    let dir = figure_dir(figure);
    let outcome = run_traced_tc(ctx.l, ctx.one_node, DistKind::RangeByNnz);
    let m = outcome.bundle.logical_matrix().expect("logical trace");
    println!(
        "lower-triangular fraction of 1D Range send matrix: {:.4}",
        m.lower_triangular_fraction()
    );
    assert!(
        m.is_lower_triangular(),
        "(L) observation violated: a PE sent above the diagonal"
    );
    let recvs = m.col_totals();
    let decreasing_steps = recvs.windows(2).filter(|w| w[1] <= w[0]).count();
    println!(
        "recv totals: {:?}\nmonotonically decreasing at {decreasing_steps}/{} steps",
        recvs,
        recvs.len() - 1
    );
    let file = dir.join("l_observation.svg");
    heatmap::render(
        &m,
        &heatmap::HeatmapSpec::titled("(L) observation: 1D Range sends"),
    )
    .save(&file)
    .expect("write svg");
    println!("svg: {}", file.display());
    println!("PASS: every send under 1D Range targets an equal-or-lower-ranked PE");
}

/// Figs 8–9: physical-trace heatmaps split by send class, for one grid.
pub fn physical_heatmap_figure(ctx: &FigureCtx, figure: &str, grid: Grid, node_label: &str) {
    let dir = figure_dir(figure);
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        let outcome = run_traced_tc(ctx.l, grid, dist);
        let tag = if dist == DistKind::Cyclic { "cyclic" } else { "range" };
        for (kind, kind_label) in [
            (None, "all"),
            (Some(SendType::LocalSend), "local_send"),
            (Some(SendType::NonblockSend), "nonblock_send"),
        ] {
            let m = outcome.bundle.physical_matrix(kind).expect("physical trace");
            if kind.is_some() && m.total() == 0 {
                continue; // e.g. no nonblock sends on one node
            }
            let title = format!("Physical trace ({kind_label}), {node_label}, {}", dist.label());
            let file = dir.join(format!("physical_{node_label}_{tag}_{kind_label}.svg"));
            heatmap::render(&m, &heatmap::HeatmapSpec::titled(&title))
                .save(&file)
                .expect("write svg");
            if kind.is_none() {
                println!("\n{}", ascii::heatmap(&m, &title));
            }
            println!("svg: {}", file.display());
        }
        // topology claims of §IV-D
        let local = outcome
            .bundle
            .physical_matrix(Some(SendType::LocalSend))
            .unwrap();
        let nonblock = outcome
            .bundle
            .physical_matrix(Some(SendType::NonblockSend))
            .unwrap();
        verify_topology(&local, &nonblock, grid, tag);
    }
}

fn verify_topology(local: &Matrix, nonblock: &Matrix, grid: Grid, tag: &str) {
    for src in 0..grid.n_pes() {
        for dst in 0..grid.n_pes() {
            if local.get(src, dst) > 0 {
                assert!(
                    grid.same_node(src, dst),
                    "local_send crossed nodes {src}->{dst}"
                );
            }
            if nonblock.get(src, dst) > 0 {
                assert!(
                    !grid.same_node(src, dst),
                    "nonblock_send within node {src}->{dst}"
                );
                assert_eq!(
                    grid.local_index(src),
                    grid.local_index(dst),
                    "mesh column violated {src}->{dst}"
                );
            }
        }
    }
    println!(
        "[{tag}] topology verified: local_send = rows (same node), \
         nonblock_send = columns (same local index); buffers: {} local, {} nonblock",
        local.total(),
        nonblock.total()
    );
}

/// Figs 10–11: PAPI_TOT_INS per PE bar graphs, for one grid.
pub fn papi_figure(ctx: &FigureCtx, figure: &str, grid: Grid, node_label: &str) {
    let dir = figure_dir(figure);
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        let outcome = run_traced_tc(ctx.l, grid, dist);
        let series =
            PapiSeries::from_bundle(&outcome.bundle, fabsp_hwpc::Event::TotIns).expect("papi");
        let tag = if dist == DistKind::Cyclic { "cyclic" } else { "range" };
        let title = format!("PAPI_TOT_INS vs PE, {node_label}, {}", dist.label());
        let spec = bar::BarSpec {
            title: title.clone(),
            y_label: "PAPI_TOT_INS".into(),
            log: true,
            ..Default::default()
        };
        let file = dir.join(format!("papi_totins_{node_label}_{tag}.svg"));
        bar::render(&series.per_pe, &spec).save(&file).expect("write svg");
        print!("{}", ascii::bars(&series.per_pe, &title, true));
        println!(
            "imbalance: max/mean {:.2} on PE{}; dynamic range 10^{:.1}",
            series.imbalance.max_over_mean,
            series.imbalance.argmax,
            series.dynamic_range_log10()
        );
        println!("svg: {}", file.display());
    }
}

/// Figs 12–13: overall stacked bars + the paper's fraction statements.
///
/// Note on the "~2x total time" claim: the paper measured wall-clock on
/// real parallel nodes, where the *most loaded PE* sets the finish line.
/// This reproduction multiplexes all PEs onto however many cores the host
/// has; on a single core, wall-clock equals aggregate work and is
/// distribution-independent. The per-PE critical path is still measured —
/// it is the max per-PE user-region work — so the figure reports both the
/// raw wall-clock cycles and the **modeled parallel critical path**, whose
/// cyclic/range ratio is the paper's speedup.
pub fn overall_figure(ctx: &FigureCtx, figure: &str, grid: Grid, node_label: &str) {
    let dir = figure_dir(figure);
    let mut summaries = Vec::new();
    let mut critical_paths = Vec::new();
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        let outcome = run_traced_tc(ctx.l, grid, dist);
        let records = outcome.bundle.overall_records().expect("overall");
        let tag = if dist == DistKind::Cyclic { "cyclic" } else { "range" };
        for (mode, mode_tag) in [
            (stacked::StackedMode::Absolute, "absolute"),
            (stacked::StackedMode::Relative, "relative"),
        ] {
            let title = format!("Overall, {node_label}, {} ({mode_tag})", dist.label());
            let file = dir.join(format!("overall_{node_label}_{tag}_{mode_tag}.svg"));
            stacked::render(&records, mode, &title)
                .save(&file)
                .expect("write svg");
            println!("svg: {}", file.display());
        }
        print!("{}", ascii::stacked(&records, &format!("{node_label} {tag}")));
        let summary = OverallSummary::of(&records);
        println!(
            "[{tag}] MAIN {:.1}% | COMM {:.1}% | PROC {:.1}% — bottleneck {} — max T_TOTAL {} cycles",
            summary.main.fraction * 100.0,
            summary.comm.fraction * 100.0,
            summary.proc.fraction * 100.0,
            summary.bottleneck,
            summary.max_total_cycles
        );
        summaries.push((tag, summary));

        // modeled parallel critical path: the most loaded PE's user-region
        // instruction count — sends constructed and messages handled, plus
        // the modeled copy of every slab `push_slice` flushes inline when
        // its landing cell is free. The schedule decides which flushes
        // find the cell free, so the count can differ between runs by a
        // slab's bytes (512 for a full slab of 8-byte messages).
        let series =
            PapiSeries::from_bundle(&outcome.bundle, fabsp_hwpc::Event::TotIns).expect("papi");
        let critical = series.per_pe.iter().copied().max().unwrap_or(0);
        let user_total: u64 = series.per_pe.iter().sum();
        println!(
            "[{tag}] modeled critical path: {critical} user-region instructions \
             (sends, handlers and inline slab copies) on PE{} ({}x the per-PE average)",
            series.imbalance.argmax,
            format_ratio(critical as f64 * grid.n_pes() as f64 / user_total.max(1) as f64),
        );
        critical_paths.push((tag, critical));
    }
    if summaries.len() == 2 {
        let wall_speedup = summaries[1].1.speedup_over(&summaries[0].1);
        println!(
            "1D Range over 1D Cyclic — wall-clock (cores-limited): {:.2}x; \
             modeled parallel critical path: {:.2}x (paper: ~2x at scale 16)",
            wall_speedup,
            critical_paths[0].1 as f64 / critical_paths[1].1.max(1) as f64
        );
    }
}

fn format_ratio(r: f64) -> String {
    format!("{r:.2}")
}

/// §I motivation, strong scaling: the figures' graph on growing PE counts,
/// both distributions. Reports how the modeled parallel critical path (max
/// per-PE user-region instructions) shrinks with PEs — and how load
/// imbalance throttles it for 1D Cyclic.
pub fn strong_scaling_figure(ctx: &FigureCtx, figure: &str) {
    println!(
        "{:<18} {:>9} {:>14} {:>14} {:>10} {:>9}",
        "configuration", "wall[ms]", "sum user ins", "max user ins", "imbalance", "speedup"
    );
    let mut chart = Vec::new();
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        let mut base_critical: Option<u64> = None;
        let mut curve = Vec::new();
        for (nodes, ppn) in [(1, 2), (1, 4), (1, 8), (2, 8), (2, 16)] {
            let grid = Grid::new(nodes, ppn).expect("grid");
            let (wall, _, series) = timed_papi_run(ctx.l, grid, dist);
            let sum: u64 = series.per_pe.iter().sum();
            let max = series.per_pe.iter().copied().max().unwrap_or(0);
            let base = *base_critical.get_or_insert(max);
            println!(
                "{:<18} {:>9.1} {:>14} {:>14} {:>9.2}x {:>8.2}x",
                sweep_label(nodes, ppn, dist),
                wall,
                sum,
                max,
                series.imbalance.max_over_mean,
                base as f64 / max.max(1) as f64,
            );
            curve.push((grid.n_pes() as f64, base as f64 / max.max(1) as f64));
        }
        chart.push(line::LineSeries::new(dist.label(), curve));
        println!();
    }
    let spec = line::LineSpec {
        title: format!("Strong scaling, R-MAT scale {}", ctx.scale),
        x_label: "PEs".into(),
        y_label: "critical-path speedup".into(),
        log_y: false,
    };
    let file = figure_dir(figure).join("strong_scaling.svg");
    line::render(&chart, &spec).save(&file).expect("write svg");
    println!("svg: {}", file.display());
    println!(
        "speedup = modeled critical path vs the 2-PE run of the same \
         distribution; wall-clock is core-limited on this host."
    );
}

/// §I motivation, weak scaling: the graph grows with the PE count, one
/// R-MAT scale step per PE doubling (wedges per PE roughly constant), up
/// to the figures' graph on 16 PEs; both distributions.
pub fn weak_scaling_figure(ctx: &FigureCtx, _figure: &str) {
    println!(
        "{:<18} {:>9} {:>10} {:>14} {:>16} {:>10}",
        "configuration", "scale", "wedges", "wall[ms]", "max user ins", "imbalance"
    );
    let steps = [(1, 2), (1, 4), (1, 8), (2, 8)];
    for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
        for (step, &(nodes, ppn)) in steps.iter().enumerate() {
            let scale = ctx.scale.saturating_sub((steps.len() - 1 - step) as u32);
            let smaller;
            let l = if scale == ctx.scale {
                ctx.l
            } else {
                smaller = lower_rmat_graph(scale);
                &smaller
            };
            let grid = Grid::new(nodes, ppn).expect("grid");
            let (wall, wedges, series) = timed_papi_run(l, grid, dist);
            println!(
                "{:<18} {:>9} {:>10} {:>14.1} {:>16} {:>9.2}x",
                sweep_label(nodes, ppn, dist),
                scale,
                wedges,
                wall,
                series.per_pe.iter().copied().max().unwrap_or(0),
                series.imbalance.max_over_mean,
            );
        }
        println!();
    }
    println!(
        "ideal weak scaling keeps max-user-instructions flat as PEs and \
         problem size grow together; cyclic's imbalance breaks that."
    );
}

/// Topology ablation: the figures' graph routed over Conveyors' three
/// topologies (§III-C's 1D Linear / 2D Mesh / 3D Cube family) on a 2×8
/// grid. Direct 1D links move every buffer exactly once but need O(PEs)
/// buffers per PE; the mesh and cube cut the per-PE link count (memory
/// frugality) at the price of relayed traffic.
pub fn topology_figure(ctx: &FigureCtx, _figure: &str) {
    let grid = Grid::new(2, 8).expect("grid");
    println!("grid: {grid}");
    println!(
        "{:<10} {:>7} {:>11} {:>13} {:>10} {:>10} {:>10}",
        "topology", "links", "buffers", "local_send", "nonblock", "progress", "wall[ms]"
    );
    for (label, topology) in [
        ("1D", TopologySpec::OneD),
        ("2D mesh", TopologySpec::Mesh2D),
        ("3D cube", TopologySpec::Cube3D),
    ] {
        let mut config = TriangleConfig::new(grid)
            .with_dist(DistKind::Cyclic)
            .with_trace(TraceConfig::off().with_physical());
        config.conveyor = ConveyorOptions { capacity: 64, topology };
        let start = Instant::now();
        let outcome = count_triangles(ctx.l, &config).expect("run");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let count = |t| outcome.bundle.physical_matrix(Some(t)).map_or(0, |m| m.total());
        let local = count(SendType::LocalSend);
        let nonblock = count(SendType::NonblockSend);
        let progress = count(SendType::NonblockProgress);
        let links = Topology::resolve(topology, grid).n_links(grid);
        println!(
            "{label:<10} {links:>7} {:>11} {local:>13} {nonblock:>10} {progress:>10} {wall:>10.1}",
            local + nonblock,
        );
    }
    println!(
        "\nlinks = aggregation buffers held per PE (the memory knob);\n\
         relayed topologies move more buffers overall but hold far fewer."
    );
}

/// §IV-E / §VI trace size: how the in-memory trace of an 8-PE histogram
/// scales with message count under each recording strategy — exact
/// per-send records (the paper's 100 GB problem; held as runs of equal
/// records, so their memory grows with runs while their files grow with
/// messages), sampling, and aggregation — and what the physical trace
/// costs beside them (8 B per flushed slab, plus each PE's dictionary of
/// distinct words and its segment header).
pub fn trace_size_figure(_ctx: &FigureCtx, _figure: &str) {
    let footprint = |trace, updates| {
        let mut cfg = HistogramConfig::new(Grid::new(2, 4).expect("grid"));
        cfg.updates_per_pe = updates;
        cfg.table_size_per_pe = 256;
        cfg.trace = trace;
        let out = histogram::run(&cfg).expect("histogram");
        (out.bundle.trace_bytes(), out.total_updates)
    };
    println!("trace footprint vs message volume (histogram, 8 PEs)");
    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>16}",
        "messages", "aggregated [B]", "exact [B]", "sampled/16 [B]", "physical [B]"
    );
    for updates in [1_000usize, 4_000, 16_000] {
        let (agg, total) = footprint(TraceConfig::off().with_logical(), updates);
        let (exact, _) = footprint(TraceConfig::off().with_logical_records(), updates);
        let (sampled, _) = footprint(TraceConfig::off().with_logical_sampling(16), updates);
        let (physical, _) = footprint(TraceConfig::off().with_physical(), updates);
        println!("{total:>10} {agg:>16} {exact:>16} {sampled:>16} {physical:>16}");
    }
    println!(
        "\nphysical = 8 B per flushed slab + 8 B per distinct (type, destination, bytes)\n\
         word + a {} B segment header per PE. It repeats exactly on 1-D grids; on\n\
         this 2x4 mesh relay PEs re-stage partial slabs that flush when the schedule\n\
         lets them, so it moves by a few events between runs.",
        PhysicalRecords::SEGMENT_BYTES
    );
}

/// One untraced-but-for-PAPI case-study run: wall milliseconds, wedges and
/// the per-PE `PAPI_TOT_INS` series.
fn timed_papi_run(l: &Csr, grid: Grid, dist: DistKind) -> (f64, u64, PapiSeries) {
    let trace = TraceConfig::off().with_logical().with_papi(PapiConfig::case_study());
    let config = TriangleConfig::new(grid).with_dist(dist).with_trace(trace);
    let start = Instant::now();
    let outcome = count_triangles(l, &config).expect("run");
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let series = PapiSeries::from_bundle(&outcome.bundle, fabsp_hwpc::Event::TotIns).expect("papi");
    (wall, outcome.wedges, series)
}

fn sweep_label(nodes: usize, ppn: usize, dist: DistKind) -> String {
    let tag = if dist == DistKind::Cyclic { "cyclic" } else { "range" };
    format!("{nodes}n x {ppn:<2} {tag}")
}
