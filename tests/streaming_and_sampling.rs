//! End-to-end checks of the §VI large-trace features: streaming exact
//! records to disk during the run, and sampling them.

use actorprof_suite::actorprof::{compare::Comparison, reader};
use actorprof_suite::actorprof_trace::TraceConfig;
use actorprof_suite::fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use actorprof_suite::fabsp_graph::edgelist::to_lower_triangular;
use actorprof_suite::fabsp_graph::rmat::{generate_edges, RmatParams};
use actorprof_suite::fabsp_graph::Csr;
use actorprof_suite::fabsp_shmem::Grid;

fn graph(scale: u32) -> Csr {
    let p = RmatParams::graph500(scale);
    Csr::from_edges(p.n_vertices(), &to_lower_triangular(&generate_edges(&p)))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("actorprof-sas-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streamed_records_match_in_memory_aggregate() {
    let l = graph(6);
    let grid = Grid::new(2, 2).unwrap();
    let dir = tmpdir("stream");
    let config = TriangleConfig::new(grid)
        .with_trace(TraceConfig::off().with_streaming(&dir));
    let outcome = count_triangles(&l, &config).unwrap();

    // The streamed per-send files must reproduce the in-memory aggregate
    // matrix exactly.
    let mem = outcome.bundle.logical_matrix().unwrap();
    let mut from_disk = actorprof_suite::actorprof::Matrix::zeros(grid.n_pes());
    for pe in 0..grid.n_pes() {
        let records = reader::read_logical_exact(&dir.join(format!("PE{pe}_send.csv"))).unwrap();
        for r in records.iter() {
            assert_eq!(r.src_pe as usize, pe);
            from_disk.add(r.src_pe as usize, r.dst_pe as usize, 1);
        }
    }
    assert_eq!(from_disk, mem);
    assert_eq!(from_disk.total(), outcome.wedges);

    // Memory held no exact records — that's the point of streaming.
    for c in outcome.bundle.collectors() {
        assert!(c.logical_records().is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sampled_records_are_a_constant_fraction() {
    let l = graph(7);
    let grid = Grid::single_node(4).unwrap();
    let k = 8u32;
    let config = TriangleConfig::new(grid)
        .with_trace(TraceConfig::off().with_logical_sampling(k));
    let outcome = count_triangles(&l, &config).unwrap();
    for c in outcome.bundle.collectors() {
        let total = c.total_sends();
        let kept = c.logical_records().len() as u64;
        // every k-th send kept: ceil(total / k)
        assert_eq!(kept, total.div_ceil(k as u64), "PE{}", c.pe());
    }
}

#[test]
fn comparison_reproduces_figure5_statements() {
    let l = graph(8);
    let grid = Grid::single_node(8).unwrap();
    let run = |dist, trace| {
        count_triangles(&l, &TriangleConfig::new(grid).with_dist(dist).with_trace(trace))
            .unwrap()
            .bundle
    };
    let cyclic = run(DistKind::Cyclic, TraceConfig::all());
    let range = run(DistKind::RangeByNnz, TraceConfig::all());
    let c = Comparison::between("1D Cyclic", &cyclic, "1D Range", &range).unwrap();

    let sends = c.logical_sends.expect("logical traces collected");
    assert!(
        sends.max_ratio > 1.5,
        "cyclic max sends dominate range's: {:.2}",
        sends.max_ratio
    );
    assert!(
        (sends.total_ratio - 1.0).abs() < 1e-12,
        "same wedges total regardless of distribution"
    );
    let ins = c.instructions.expect("papi collected");
    assert!(ins.max_ratio > 1.5, "instruction hot spot under cyclic");
    let text = c.render();
    assert!(text.contains("1D Cyclic vs 1D Range"));
    assert!(text.contains("logical sends"));

    // §IV-E trace bloat: exact per-send records strictly grow the in-memory
    // footprint over the aggregated configuration — by no more than the
    // 20 bytes per message an expanded record takes. Compared without the
    // physical records and phase spans of `all`, whose number follows the
    // polls of each run's schedule.
    let aggregated = run(DistKind::Cyclic, TraceConfig::off().with_logical());
    let exact = run(DistKind::Cyclic, TraceConfig::off().with_logical_records());
    assert!(exact.trace_bytes() > aggregated.trace_bytes());
    let records: usize = exact.collectors().iter().map(|c| c.logical_records().len()).sum();
    assert!(exact.trace_bytes() - aggregated.trace_bytes() <= 20 * records);
}
