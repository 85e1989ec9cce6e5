//! Level-synchronous distributed BFS — one of the irregular applications
//! the paper's introduction motivates FA-BSP with (§I).
//!
//! Each BFS level is one FA-BSP superstep: one selector spans the whole
//! traversal, frontier expansion happens as fine-grained sends to the
//! owner of each neighbour, and a barrier + allreduce separates levels.
//! Distances are validated against a sequential BFS.

use actorprof::TraceBundle;
use fabsp_graph::{Csr, Distribution};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Unreached marker.
pub const UNREACHED: u32 = u32::MAX;

/// BFS parameters: the source vertex. One selector spans the whole
/// traversal, so the trace bundle covers every level.
#[derive(Debug, Clone, Default)]
pub struct BfsParams {
    /// Source vertex.
    pub source: u32,
}

impl AppParams for BfsParams {}

/// Configuration for a BFS run: the shared [`RunConfig`] plus
/// [`BfsParams`] (BFS from vertex 0 by default).
pub type BfsConfig = RunConfig<BfsParams>;

/// Result of a distributed BFS.
#[derive(Debug)]
pub struct BfsOutcome {
    /// Distance per vertex ([`UNREACHED`] where unreachable).
    pub distances: Vec<u32>,
    /// Number of reached vertices.
    pub reached: usize,
    /// Supersteps executed: one per non-empty frontier, including the
    /// final empty-expansion round (= source eccentricity + 1).
    pub levels: u32,
    /// Trace bundle covering the entire traversal (all supersteps).
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// Sequential reference BFS over a symmetric adjacency CSR.
pub fn sequential_bfs(adj: &Csr, source: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHED; adj.n()];
    let mut frontier = vec![source];
    dist[source as usize] = 0;
    let mut level = 0;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in adj.row(v as usize) {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = level;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Run distributed BFS over a symmetric adjacency CSR (vertices owned 1D
/// cyclically) and validate against [`sequential_bfs`].
pub fn run(adj: &Csr, config: &BfsConfig) -> Result<BfsOutcome, AppError> {
    let n_pes = config.grid.n_pes();
    let dist_map = Distribution::cyclic(n_pes);
    if (config.source as usize) >= adj.n() {
        return Err(AppError::Validation(format!(
            "source {} out of range ({} vertices)",
            config.source,
            adj.n()
        )));
    }

    let report = config.profiler().run(|pe, prof| {
        let me = pe.rank();
        // distances for owned vertices, indexed by owned-order position
        let my_rows = dist_map.rows_of(me, adj.n());
        let index_of = |v: usize| -> usize { v / n_pes }; // cyclic local index
        let dist = Rc::new(RefCell::new(vec![UNREACHED; my_rows.len()]));
        let next_frontier = Rc::new(RefCell::new(Vec::<u32>::new()));

        let mut frontier: Vec<u32> = Vec::new();
        if dist_map.owner(config.source as usize) == me {
            dist.borrow_mut()[index_of(config.source as usize)] = 0;
            frontier.push(config.source);
        }

        // One selector spans all levels; the current level is shared with
        // the handler through a cell. A vertex joins the next frontier at
        // most once (guarded by the UNREACHED check), so results and
        // logical counts are delivery-order independent.
        let level_cell = Rc::new(Cell::new(0u32));
        let handler_level = Rc::clone(&level_cell);
        let d = Rc::clone(&dist);
        let nf = Rc::clone(&next_frontier);
        let mut actor = prof
            .selector(1, move |_mb, w: u64, _from, _ctx| {
                let w = w as usize;
                let slot = index_of(w);
                let mut d = d.borrow_mut();
                if d[slot] == UNREACHED {
                    d[slot] = handler_level.get();
                    nf.borrow_mut().push(w as u32);
                }
            })
            .expect("selector construction");

        let mut level: u32 = 0;
        loop {
            let global_frontier = pe.allreduce_sum_u64(frontier.len() as u64);
            if global_frontier == 0 {
                break;
            }
            level += 1;
            level_cell.set(level);
            actor
                .execute(pe, |ctx| {
                    let mut expand = DestBuckets::new(n_pes);
                    for &v in &frontier {
                        for &w in adj.row(v as usize) {
                            expand
                                .stage(ctx, 0, dist_map.owner(w as usize), w as u64)
                                .expect("frontier send");
                        }
                    }
                    expand.send_all(ctx, 0).expect("frontier send");
                    ctx.done(0).expect("done(0)");
                })
                .expect("bfs superstep");
            frontier = std::mem::take(&mut *next_frontier.borrow_mut());
            pe.barrier_all();
        }

        let pairs: Vec<(u32, u32)> = my_rows
            .iter()
            .map(|&v| (v as u32, dist.borrow()[index_of(v)]))
            .collect();
        (pairs, level)
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let mut distances = vec![UNREACHED; adj.n()];
    let mut levels = 0;
    for (pairs, level) in per_pe {
        levels = levels.max(level);
        for (v, d) in pairs {
            distances[v as usize] = d;
        }
    }

    let reference = sequential_bfs(adj, config.source);
    if distances != reference {
        return Err(AppError::Validation(
            "distributed BFS distances differ from sequential reference".into(),
        ));
    }
    let reached = distances.iter().filter(|&&d| d != UNREACHED).count();
    Ok(BfsOutcome {
        distances,
        reached,
        levels,
        bundle,
        recovery,
    })
}

/// Build the symmetric adjacency CSR from a lower-triangular edge list.
pub fn symmetric_adjacency(n: usize, lower: &[(u32, u32)]) -> Csr {
    let mut both = Vec::with_capacity(lower.len() * 2);
    for &(u, v) in lower {
        both.push((u, v));
        both.push((v, u));
    }
    Csr::from_edges(n, &both)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_graph::edgelist::to_lower_triangular;
    use fabsp_graph::rmat::{generate_edges, RmatParams};
    use fabsp_shmem::Grid;

    fn rmat_adj(scale: u32) -> Csr {
        let p = RmatParams::graph500(scale);
        let lower = to_lower_triangular(&generate_edges(&p));
        symmetric_adjacency(p.n_vertices(), &lower)
    }

    #[test]
    fn path_graph_distances() {
        let adj = symmetric_adjacency(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let out = run(&adj, &BfsConfig::new(Grid::single_node(2).unwrap())).unwrap();
        assert_eq!(out.distances, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.levels, 5, "4 expansion levels + 1 empty round");
        assert_eq!(out.reached, 5);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let adj = symmetric_adjacency(4, &[(1, 0)]);
        let out = run(&adj, &BfsConfig::new(Grid::single_node(2).unwrap())).unwrap();
        assert_eq!(out.distances, vec![0, 1, UNREACHED, UNREACHED]);
        assert_eq!(out.reached, 2);
    }

    #[test]
    fn rmat_bfs_matches_reference_two_nodes() {
        let adj = rmat_adj(7);
        let cfg = BfsConfig::new(Grid::new(2, 2).unwrap());
        let out = run(&adj, &cfg).unwrap();
        // validation happens inside; sanity-check hub reachability
        assert!(out.reached > adj.n() / 2, "R-MAT core is connected");
        assert!(out.levels > 0);
    }

    #[test]
    fn nonzero_source_works() {
        let adj = rmat_adj(6);
        let mut cfg = BfsConfig::new(Grid::single_node(3).unwrap());
        cfg.source = 17;
        let out = run(&adj, &cfg).unwrap();
        assert_eq!(out.distances[17], 0);
    }

    #[test]
    fn invalid_source_errors() {
        let adj = symmetric_adjacency(4, &[(1, 0)]);
        let mut cfg = BfsConfig::new(Grid::single_node(2).unwrap());
        cfg.source = 99;
        assert!(matches!(run(&adj, &cfg), Err(AppError::Validation(_))));
    }

    #[test]
    fn whole_traversal_trace_counts_every_expansion() {
        let adj = rmat_adj(6);
        let mut cfg = BfsConfig::new(Grid::single_node(2).unwrap());
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&adj, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        // each reached vertex joins the frontier exactly once and then
        // sends one message per neighbour
        let expected: u64 = out
            .distances
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != UNREACHED)
            .map(|(v, _)| adj.degree(v) as u64)
            .sum();
        assert_eq!(m.total(), expected);
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let adj = rmat_adj(5);
        let mut cfg = BfsConfig::new(Grid::single_node(2).unwrap());
        let base = run(&adj, &cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&adj, &cfg).unwrap();
        assert_eq!(out.distances, base.distances);
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
