//! Push-style synchronous PageRank — another §I motivating workload, and
//! the only bundled app whose messages are a non-integer struct (rank
//! shares), exercising the conveyor's arbitrary-POD item support.
//!
//! Each iteration is one FA-BSP superstep: every PE pushes
//! `rank[v] * d / outdeg(v)` to the owner of each out-neighbour; handlers
//! buffer the shares; a barrier ends the iteration. Dangling mass is
//! handled the textbook way (redistributed uniformly) identically in the
//! distributed and sequential versions.
//!
//! Floating-point addition is not associative, so naive accumulation in
//! delivery order would make the final bits depend on the schedule. The
//! handler therefore only *buffers* `(from, v, share)` tuples; after each
//! superstep the PE sorts them into a canonical order and folds
//! sequentially. Identical tuples sort equal, so the fold is a pure
//! function of the message *set* — bit-identical under every schedule,
//! which is what the schedule-fuzz matrix asserts.

use actorprof::TraceBundle;
use fabsp_graph::{Csr, Distribution};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// The rank-share message: `(destination vertex, share)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Share {
    /// Target vertex.
    pub v: u32,
    /// Rank mass pushed to it.
    pub share: f64,
}

/// PageRank parameters. One selector spans all iterations, so the
/// returned bundle covers every one of them.
#[derive(Debug, Clone)]
pub struct PageRankParams {
    /// Damping factor (0.85 is the classic choice).
    pub damping: f64,
    /// Number of synchronous iterations.
    pub iterations: usize,
    /// Maximum L1 difference tolerated vs the sequential reference (the
    /// canonical fold order differs from the reference's source-vertex
    /// order, so agreement is to rounding, not to the bit).
    pub tolerance: f64,
}

impl Default for PageRankParams {
    /// Classic parameters: damping 0.85, 10 iterations.
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            iterations: 10,
            tolerance: 1e-9,
        }
    }
}

impl AppParams for PageRankParams {}

/// Configuration for a PageRank run: the shared [`RunConfig`] plus
/// [`PageRankParams`].
pub type PageRankConfig = RunConfig<PageRankParams>;

/// Result of a PageRank run.
#[derive(Debug)]
pub struct PageRankOutcome {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// L1 difference against the sequential reference.
    pub l1_vs_reference: f64,
    /// Trace bundle covering all iterations.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// Sequential reference PageRank with identical semantics.
pub fn sequential_pagerank(adj: &Csr, damping: f64, iterations: usize) -> Vec<f64> {
    let n = adj.n();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0f64;
        for (v, &r) in rank.iter().enumerate() {
            let deg = adj.degree(v);
            if deg == 0 {
                dangling += r;
            } else {
                let share = r / deg as f64;
                for &w in adj.row(v) {
                    next[w as usize] += share;
                }
            }
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        for r in &mut next {
            *r = base + damping * *r;
        }
        rank = next;
    }
    rank
}

/// Run distributed PageRank over a (directed or symmetric) adjacency CSR,
/// vertices owned 1D cyclically; validates against the reference.
pub fn run(adj: &Csr, config: &PageRankConfig) -> Result<PageRankOutcome, AppError> {
    let n = adj.n();
    let n_pes = config.grid.n_pes();
    let dist_map = Distribution::cyclic(n_pes);

    let report = config.profiler().run(|pe, prof| {
        let me = pe.rank();
        let my_rows = dist_map.rows_of(me, n);
        let index_of = |v: usize| -> usize { v / n_pes };
        let mut rank: Vec<f64> = vec![1.0 / n as f64; my_rows.len()];
        // (from, v, share bits) — buffered, then folded in sorted order so
        // the accumulated f64s are independent of delivery order.
        let inbox = Rc::new(RefCell::new(Vec::<(u32, u32, u64)>::new()));
        let ib = Rc::clone(&inbox);
        let mut actor = prof
            .selector(1, move |_mb, msg: Share, from, _ctx| {
                ib.borrow_mut()
                    .push((from, msg.v, msg.share.to_bits()));
            })
            .expect("selector construction");

        for _ in 0..config.iterations {
            let mut local_dangling = 0.0f64;
            actor
                .execute(pe, |ctx| {
                    let mut shares = DestBuckets::new(n_pes);
                    for (slot, &v) in my_rows.iter().enumerate() {
                        let deg = adj.degree(v);
                        if deg == 0 {
                            local_dangling += rank[slot];
                            continue;
                        }
                        let share = rank[slot] / deg as f64;
                        for &w in adj.row(v) {
                            let owner = dist_map.owner(w as usize);
                            shares
                                .stage(ctx, 0, owner, Share { v: w, share })
                                .expect("share send");
                        }
                    }
                    shares.send_all(ctx, 0).expect("share send");
                    ctx.done(0).expect("done(0)");
                })
                .expect("pagerank superstep");

            let dangling = pe.allreduce_sum_f64(local_dangling);
            let base = (1.0 - config.damping) / n as f64 + config.damping * dangling / n as f64;
            // canonical fold: sort the buffered shares, then accumulate
            let mut ib = inbox.borrow_mut();
            ib.sort_unstable();
            let mut acc = vec![0.0f64; my_rows.len()];
            for &(_, v, bits) in ib.iter() {
                acc[index_of(v as usize)] += f64::from_bits(bits);
            }
            ib.clear();
            drop(ib);
            for (slot, r) in rank.iter_mut().enumerate() {
                *r = base + config.damping * acc[slot];
            }
            pe.barrier_all();
        }

        let pairs: Vec<(u32, f64)> = my_rows
            .iter()
            .enumerate()
            .map(|(slot, &v)| (v as u32, rank[slot]))
            .collect();
        pairs
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let mut ranks = vec![0.0f64; n];
    for pairs in per_pe {
        for (v, r) in pairs {
            ranks[v as usize] = r;
        }
    }
    let reference = sequential_pagerank(adj, config.damping, config.iterations);
    let l1: f64 = ranks
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .sum();
    if l1 > config.tolerance {
        return Err(AppError::Validation(format!(
            "PageRank L1 distance {l1:.3e} exceeds tolerance {:.1e}",
            config.tolerance
        )));
    }
    Ok(PageRankOutcome {
        ranks,
        l1_vs_reference: l1,
        bundle,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use crate::bfs::symmetric_adjacency;
    use fabsp_graph::edgelist::to_lower_triangular;
    use fabsp_graph::rmat::{generate_edges, RmatParams};
    use fabsp_shmem::Grid;

    #[test]
    fn ranks_sum_to_one_on_a_cycle() {
        // directed 4-cycle: uniform stationary distribution
        let adj = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cfg = PageRankConfig::new(Grid::single_node(2).unwrap());
        let out = run(&adj, &cfg).unwrap();
        let total: f64 = out.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved: {total}");
        for r in &out.ranks {
            assert!((r - 0.25).abs() < 1e-9, "cycle is uniform: {r}");
        }
    }

    #[test]
    fn star_concentrates_rank_on_the_hub() {
        // all spokes point at vertex 0
        let adj = Csr::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let cfg = PageRankConfig::new(Grid::single_node(2).unwrap());
        let out = run(&adj, &cfg).unwrap();
        assert!(out.ranks[0] > out.ranks[1] * 2.0);
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // vertex 2 dangles
        let adj = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = PageRankConfig::new(Grid::single_node(3).unwrap());
        let out = run(&adj, &cfg).unwrap();
        let total: f64 = out.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "dangling mass kept: {total}");
    }

    #[test]
    fn rmat_pagerank_matches_reference_two_nodes() {
        let p = RmatParams::graph500(7);
        let lower = to_lower_triangular(&generate_edges(&p));
        let adj = symmetric_adjacency(p.n_vertices(), &lower);
        let mut cfg = PageRankConfig::new(Grid::new(2, 2).unwrap());
        cfg.iterations = 5;
        cfg.tolerance = 1e-9;
        let out = run(&adj, &cfg).unwrap();
        assert!(out.l1_vs_reference <= 1e-9);
        // the hub (vertex 0) outranks the median vertex by far
        let mut sorted = out.ranks.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(out.ranks[0] > sorted[sorted.len() / 2] * 3.0, "hub rank {} vs median {}", out.ranks[0], sorted[sorted.len() / 2]);
    }

    #[test]
    fn traced_iteration_counts_edge_messages() {
        let adj = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut cfg = PageRankConfig::new(Grid::single_node(2).unwrap());
        cfg.trace = TraceConfig::off().with_logical();
        cfg.iterations = 3;
        let out = run(&adj, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        assert_eq!(m.total(), 12, "3 iterations x one message per edge");
    }

    #[test]
    fn schedule_does_not_move_a_single_bit() {
        use fabsp_shmem::SchedSpec;
        let adj = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]);
        let mut cfg = PageRankConfig::new(Grid::single_node(3).unwrap());
        cfg.iterations = 6;
        let base = run(&adj, &cfg).unwrap();
        for seed in 0..4 {
            let mut c = cfg.clone();
            c.sched = SchedSpec::random_walk(seed);
            let out = run(&adj, &c).unwrap();
            // exact f64 equality: the canonical fold makes ranks a pure
            // function of the message set, not the delivery order
            assert_eq!(out.ranks, base.ranks, "seed {seed}");
        }
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let adj = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut cfg = PageRankConfig::new(Grid::single_node(2).unwrap());
        cfg.iterations = 4;
        let base = run(&adj, &cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&adj, &cfg).unwrap();
        assert_eq!(out.ranks, base.ranks, "bit-identical after recovery");
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
