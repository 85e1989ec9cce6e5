//! Topology ablation: the same case-study workload routed over Conveyors'
//! three topologies (§III-C's 1D Linear / 2D Mesh / 3D Cube family) on a
//! 2-node grid. Shows the trade the topologies make: direct 1D links move
//! every buffer exactly once but need O(PEs) buffers per PE; the mesh and
//! cube cut the per-PE link count (memory frugality) at the price of
//! relayed traffic.

use actorprof_trace::{SendType, TraceConfig};
use fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use fabsp_bench::{build_case_study_graph, env_scale};
use fabsp_conveyors::{ConveyorOptions, Topology, TopologySpec};
use fabsp_shmem::Grid;

fn main() {
    let scale = env_scale();
    let l = build_case_study_graph(scale);
    let grid = Grid::new(2, 8).expect("grid");
    println!(
        "=== Topology ablation — R-MAT scale {scale}, {} wedges, {} ===",
        l.wedge_count(),
        grid
    );
    println!(
        "{:<10} {:>7} {:>11} {:>13} {:>10} {:>10} {:>10}",
        "topology", "links", "buffers", "local_send", "nonblock", "progress", "wall[ms]"
    );

    for (label, spec) in [
        ("1D", TopologySpec::OneD),
        ("2D mesh", TopologySpec::Mesh2D),
        ("3D cube", TopologySpec::Cube3D),
    ] {
        let mut config = TriangleConfig::new(grid)
            .with_dist(DistKind::Cyclic)
            .with_trace(TraceConfig::off().with_physical());
        config.conveyor = ConveyorOptions {
            capacity: 64,
            topology: spec,
        };
        let start = std::time::Instant::now();
        let outcome = count_triangles(l, &config).expect("run");
        let wall = start.elapsed();
        let count = |t: SendType| {
            outcome
                .bundle
                .physical_matrix(Some(t))
                .map(|m| m.total())
                .unwrap_or(0)
        };
        let local = count(SendType::LocalSend);
        let nonblock = count(SendType::NonblockSend);
        let progress = count(SendType::NonblockProgress);
        let links = Topology::resolve(spec, grid).n_links(grid);
        println!(
            "{label:<10} {links:>7} {:>11} {local:>13} {nonblock:>10} {progress:>10} {:>10.1}",
            local + nonblock,
            wall.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nlinks = aggregation buffers held per PE (the memory knob);\n\
         relayed topologies move more buffers overall but hold far fewer."
    );
}
