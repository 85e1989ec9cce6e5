//! Shared experiment harness for the figure regenerators.

use std::path::PathBuf;
use std::sync::OnceLock;

use actorprof_trace::TraceConfig;
use fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig, TriangleOutcome};
use fabsp_graph::edgelist::to_lower_triangular;
use fabsp_graph::rmat::{generate_edges, RmatParams};
use fabsp_graph::Csr;
use fabsp_shmem::Grid;

/// R-MAT scale from `ACTORPROF_SCALE` (default 10; the paper used 16).
pub fn env_scale() -> u32 {
    std::env::var("ACTORPROF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

/// PEs per node from `ACTORPROF_PES` (default 16, as in the paper).
pub fn env_pes_per_node() -> usize {
    std::env::var("ACTORPROF_PES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&p| p > 0)
        .unwrap_or(16)
}

/// The paper's 1-node grid (1 × `ACTORPROF_PES`).
pub fn grid_1node() -> Grid {
    Grid::new(1, env_pes_per_node()).expect("non-empty grid")
}

/// The paper's 2-node grid (2 × `ACTORPROF_PES` = 32 PEs by default).
pub fn grid_2node() -> Grid {
    Grid::new(2, env_pes_per_node()).expect("non-empty grid")
}

/// The lower-triangular adjacency matrix of a graph500 R-MAT graph at
/// `scale` (§IV-C).
pub fn lower_rmat_graph(scale: u32) -> Csr {
    let params = RmatParams::graph500(scale);
    let edges = to_lower_triangular(&generate_edges(&params));
    Csr::from_edges(params.n_vertices(), &edges)
}

/// Build the case-study input, [`lower_rmat_graph`] at `scale`. Cached per
/// process since every figure uses the same input.
pub fn build_case_study_graph(scale: u32) -> &'static Csr {
    static GRAPH: OnceLock<(u32, Csr)> = OnceLock::new();
    let (cached_scale, csr) = GRAPH.get_or_init(|| (scale, lower_rmat_graph(scale)));
    assert_eq!(
        *cached_scale, scale,
        "mixed scales within one process are not supported"
    );
    csr
}

/// Run the traced triangle-counting kernel (all traces on, the paper's
/// full `-DENABLE_TRACE -DENABLE_TCOMM_PROFILING -DENABLE_TRACE_PHYSICAL`
/// build) and validate the count.
pub fn run_traced_tc(l: &Csr, grid: Grid, dist: DistKind) -> TriangleOutcome {
    let config = TriangleConfig::new(grid)
        .with_dist(dist)
        .with_trace(TraceConfig::all());
    count_triangles(l, &config).expect("case-study run failed")
}

/// Output directory for a figure's artifacts.
pub fn figure_dir(figure: &str) -> PathBuf {
    let base = std::env::var("ACTORPROF_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/actorprof-figures"));
    let dir = base.join(figure);
    std::fs::create_dir_all(&dir).expect("create figure dir");
    dir
}

/// Everything a figure needs: the input graph and both grids.
pub struct FigureCtx {
    /// R-MAT scale in use.
    pub scale: u32,
    /// The case-study matrix.
    pub l: &'static Csr,
    /// 1-node grid.
    pub one_node: Grid,
    /// 2-node grid.
    pub two_node: Grid,
}

impl FigureCtx {
    /// Initialize from the environment and print the header every figure
    /// binary shares.
    pub fn init(figure: &str, paper_ref: &str) -> FigureCtx {
        let scale = env_scale();
        let l = build_case_study_graph(scale);
        let ctx = FigureCtx {
            scale,
            l,
            one_node: grid_1node(),
            two_node: grid_2node(),
        };
        println!("=== {figure} — {paper_ref} ===");
        println!(
            "input: graph500 R-MAT scale {scale} ({} vertices, {} lower-tri edges, {} wedges)",
            l.n(),
            l.nnz(),
            l.wedge_count()
        );
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set the env vars here (tests run in one process); just
        // check the defaults are sane when unset.
        if std::env::var("ACTORPROF_SCALE").is_err() {
            assert_eq!(env_scale(), 10);
        }
        if std::env::var("ACTORPROF_PES").is_err() {
            assert_eq!(env_pes_per_node(), 16);
        }
    }

    #[test]
    fn graph_is_cached_and_consistent() {
        let scale = env_scale();
        let a = build_case_study_graph(scale);
        let b = build_case_study_graph(scale);
        assert!(std::ptr::eq(a, b), "same cached instance");
        assert_eq!(a.n(), 1 << scale);
        assert!(a.nnz() > 0);
    }

    #[test]
    fn grids_match_paper_shape() {
        assert_eq!(grid_1node().nodes(), 1);
        assert_eq!(grid_2node().nodes(), 2);
        assert_eq!(grid_1node().pes_per_node(), grid_2node().pes_per_node());
    }
}
