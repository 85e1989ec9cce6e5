//! End-to-end integration: run the traced case study, write every trace
//! file, read them back, and check cross-layer consistency.

use actorprof_suite::actorprof::{reader, writer, Matrix};
use actorprof_suite::actorprof_trace::{SendType, TraceConfig};
use actorprof_suite::fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use actorprof_suite::fabsp_graph::edgelist::to_lower_triangular;
use actorprof_suite::fabsp_graph::rmat::{generate_edges, RmatParams};
use actorprof_suite::fabsp_graph::{triangle_ref, Csr};
use actorprof_suite::fabsp_shmem::Grid;

fn case_study_graph(scale: u32) -> Csr {
    let params = RmatParams::graph500(scale);
    let edges = to_lower_triangular(&generate_edges(&params));
    Csr::from_edges(params.n_vertices(), &edges)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("actorprof-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traced_case_study_roundtrips_through_files() {
    let l = case_study_graph(7);
    let grid = Grid::new(2, 3).unwrap();
    let config = TriangleConfig::new(grid)
        .with_dist(DistKind::Cyclic)
        .with_trace(TraceConfig::all().with_logical_records());
    let outcome = count_triangles(&l, &config).unwrap();

    // correctness vs both reference algorithms
    assert_eq!(outcome.triangles, triangle_ref::count_by_wedges(&l));
    assert_eq!(outcome.triangles, triangle_ref::count_by_intersection(&l));

    // write + read back
    let dir = tmpdir("roundtrip");
    let files = writer::write_all(&dir, &outcome.bundle).unwrap();
    assert!(files.iter().any(|f| f == "physical.txt"));
    assert!(files.iter().any(|f| f == "overall.txt"));

    // logical: on-disk matrix equals in-memory matrix; exact records agree
    let mem = outcome.bundle.logical_matrix().unwrap();
    let disk = reader::read_logical_matrix(&dir, grid.n_pes()).unwrap();
    assert_eq!(mem, disk);
    assert_eq!(mem.total(), outcome.wedges, "one message per wedge");
    let mut from_records = Matrix::zeros(grid.n_pes());
    for pe in 0..grid.n_pes() {
        for r in reader::read_logical_exact(&dir.join(format!("PE{pe}_send.csv"))).unwrap().iter() {
            assert_eq!(r.src_pe as usize, pe);
            assert_eq!(r.msg_size, 8, "wedge messages are 8 bytes");
            from_records.add(r.src_pe as usize, r.dst_pe as usize, 1);
        }
    }
    assert_eq!(from_records, mem, "exact records sum to the aggregate");

    // physical: every record classifies consistently with the mesh
    let physical = reader::read_physical(&dir.join("physical.txt")).unwrap();
    assert!(!physical.is_empty());
    let mut nonblock = 0u64;
    let mut progress = 0u64;
    for r in &physical {
        match r.send_type {
            SendType::LocalSend => assert!(
                grid.same_node(r.src_pe as usize, r.dst_pe as usize),
                "local_send crossed nodes"
            ),
            SendType::NonblockSend => {
                nonblock += 1;
                assert!(!grid.same_node(r.src_pe as usize, r.dst_pe as usize));
            }
            SendType::NonblockProgress => progress += 1,
        }
    }
    assert_eq!(
        nonblock, progress,
        "every nonblock_send must be completed by one nonblock_progress"
    );

    // overall: fractions consistent, totals dominate regions
    let overall = reader::read_overall(&dir.join("overall.txt")).unwrap();
    assert_eq!(overall.len(), grid.n_pes());
    for r in &overall {
        assert!(r.t_total >= r.t_main + r.t_proc);
        let (m, c, p) = r.relative();
        assert!((m + c + p - 1.0).abs() < 1e-9);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn untraced_run_records_nothing_but_counts_right() {
    let l = case_study_graph(6);
    let grid = Grid::single_node(4).unwrap();
    let outcome = count_triangles(&l, &TriangleConfig::new(grid)).unwrap();
    assert_eq!(outcome.triangles, triangle_ref::count_by_wedges(&l));
    assert!(outcome.bundle.logical_matrix().is_err());
    assert!(outcome.bundle.physical_matrix(None).is_err());
    assert!(outcome.bundle.overall_records().is_err());
    assert_eq!(outcome.bundle.trace_bytes(), 0);
}

#[test]
fn same_input_same_trace_across_runs() {
    // Determinism: communication matrices are run-invariant (counts don't
    // depend on thread scheduling).
    let l = case_study_graph(6);
    let grid = Grid::new(2, 2).unwrap();
    let config = TriangleConfig::new(grid)
        .with_dist(DistKind::RangeByNnz)
        .with_trace(TraceConfig::off().with_logical());
    let a = count_triangles(&l, &config).unwrap();
    let b = count_triangles(&l, &config).unwrap();
    assert_eq!(
        a.bundle.logical_matrix().unwrap(),
        b.bundle.logical_matrix().unwrap()
    );
    assert_eq!(a.triangles, b.triangles);
}

#[test]
fn per_pe_triangle_counts_sum_to_total() {
    let l = case_study_graph(7);
    let grid = Grid::single_node(5).unwrap();
    let outcome = count_triangles(&l, &TriangleConfig::new(grid)).unwrap();
    assert_eq!(
        outcome.per_pe_triangles.iter().sum::<u64>(),
        outcome.triangles
    );
    assert_eq!(outcome.per_pe_triangles.len(), 5);
}
