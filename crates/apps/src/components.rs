//! Distributed connected components by min-label propagation — the tenth
//! registry workload, and the second frontier-style graph app (after BFS).
//!
//! Every vertex starts labelled with its own id; each FA-BSP superstep,
//! every vertex whose label improved last round sends that label to all
//! its neighbours, and the owner keeps the minimum it has seen. The
//! traversal quiesces when an allreduce sees an empty global frontier;
//! each vertex then carries the minimum vertex id of its component.
//!
//! Schedule-independence is the interesting bit: a vertex can receive
//! several improving labels in one superstep, in arbitrary delivery
//! order. `min` makes the *final* label order-independent, and the next
//! frontier is dedup'd through a per-vertex membership flag, so the
//! frontier *set* — and with it every later superstep's message count,
//! the logical trace matrix, and the canonical digest — is identical
//! across schedules.

use actorprof::TraceBundle;
use fabsp_graph::{Csr, Distribution};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, DestBuckets, RunConfig};

/// Configuration for a components run: just the shared [`RunConfig`].
/// One selector spans every propagation round.
pub type ComponentsConfig = RunConfig;

/// Result of a distributed components run.
#[derive(Debug)]
pub struct ComponentsOutcome {
    /// Per-vertex component label: the minimum vertex id in its component.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub n_components: usize,
    /// Propagation rounds executed, including the final empty round.
    pub rounds: u32,
    /// Trace bundle covering every round.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// Sequential reference: min-label propagation run to a fixpoint. Same
/// result as union-find, and doubles as the round-structure oracle for
/// the logical-trace tests ([`sequential_rounds`] exposes the per-round
/// message counts).
pub fn sequential_components(adj: &Csr) -> Vec<u32> {
    sequential_rounds(adj).0
}

/// Sequential min-label propagation, also returning each round's message
/// count (Σ degree over that round's frontier) — the schedule-independent
/// traffic the distributed run must reproduce exactly.
pub fn sequential_rounds(adj: &Csr) -> (Vec<u32>, Vec<u64>) {
    let n = adj.n();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut frontier: Vec<usize> = (0..n).collect();
    let mut traffic = Vec::new();
    while !frontier.is_empty() {
        traffic.push(frontier.iter().map(|&v| adj.degree(v) as u64).sum());
        // Jacobi semantics, like the distributed run: every frontier
        // vertex sends its label *as of the round start* (the superstep
        // snapshots sends before executing), receivers fold with min.
        let start = labels.clone();
        for &v in &frontier {
            let lv = start[v];
            for &w in adj.row(v) {
                let w = w as usize;
                if lv < labels[w] {
                    labels[w] = lv;
                }
            }
        }
        frontier = (0..n).filter(|&w| labels[w] < start[w]).collect();
    }
    (labels, traffic)
}

/// Run distributed connected components over a symmetric adjacency CSR
/// (vertices owned 1D cyclically) and validate against
/// [`sequential_components`].
pub fn run(adj: &Csr, config: &ComponentsConfig) -> Result<ComponentsOutcome, AppError> {
    let n_pes = config.grid.n_pes();
    let dist_map = Distribution::cyclic(n_pes);
    let n = adj.n();

    let report = config.profiler().run(|pe, prof| {
        let me = pe.rank();
        let my_rows = dist_map.rows_of(me, n);
        let index_of = |v: usize| -> usize { v / n_pes }; // cyclic local index
        // Owned labels start as the vertex's own id.
        let labels = Rc::new(RefCell::new(
            my_rows.iter().map(|&v| v as u32).collect::<Vec<u32>>(),
        ));
        // Dedup'd next frontier: membership flag + insertion list. The
        // list is sorted before use so iteration order (and the bucket
        // fill order of the next superstep's sends) is schedule-free.
        let next = Rc::new(RefCell::new((
            vec![false; my_rows.len()],
            Vec::<u32>::new(),
        )));

        let l = Rc::clone(&labels);
        let nf = Rc::clone(&next);
        let mut actor = prof
            .selector(1, move |_mb, msg: u64, _from, _ctx| {
                let w = (msg >> 32) as usize;
                let incoming = msg as u32;
                let slot = index_of(w);
                let mut l = l.borrow_mut();
                if incoming < l[slot] {
                    l[slot] = incoming;
                    let (in_next, list) = &mut *nf.borrow_mut();
                    if !in_next[slot] {
                        in_next[slot] = true;
                        list.push(w as u32);
                    }
                }
            })
            .expect("selector construction");

        // Round zero: every owned vertex announces its own label.
        let mut frontier: Vec<u32> = my_rows.iter().map(|&v| v as u32).collect();
        let mut rounds: u32 = 0;
        loop {
            let global_frontier = pe.allreduce_sum_u64(frontier.len() as u64);
            if global_frontier == 0 {
                break;
            }
            rounds += 1;
            // Snapshot the sends before executing: deliveries interleave
            // with the superstep body, and the message content must be the
            // label at round start, not whatever an earlier delivery just
            // improved it to — otherwise later frontier sets (and message
            // counts) would depend on the schedule.
            let sends: Vec<(usize, u64)> = {
                let l = labels.borrow();
                let mut staged = Vec::new();
                for &v in &frontier {
                    let lv = l[index_of(v as usize)];
                    for &w in adj.row(v as usize) {
                        let msg = ((w as u64) << 32) | lv as u64;
                        staged.push((dist_map.owner(w as usize), msg));
                    }
                }
                staged
            };
            actor
                .execute(pe, |ctx| {
                    let mut expand = DestBuckets::new(n_pes);
                    for &(owner, msg) in &sends {
                        expand.stage(ctx, 0, owner, msg).expect("label send");
                    }
                    expand.send_all(ctx, 0).expect("label send");
                    ctx.done(0).expect("done(0)");
                })
                .expect("components superstep");
            let (in_next, list) = &mut *next.borrow_mut();
            in_next.iter_mut().for_each(|f| *f = false);
            frontier = std::mem::take(list);
            frontier.sort_unstable();
            pe.barrier_all();
        }

        let pairs: Vec<(u32, u32)> = my_rows
            .iter()
            .map(|&v| (v as u32, labels.borrow()[index_of(v)]))
            .collect();
        (pairs, rounds)
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let mut labels = vec![u32::MAX; n];
    let mut rounds = 0;
    for (pairs, r) in per_pe {
        rounds = rounds.max(r);
        for (v, l) in pairs {
            labels[v as usize] = l;
        }
    }

    let reference = sequential_components(adj);
    if labels != reference {
        return Err(AppError::Validation(
            "distributed component labels differ from sequential reference".into(),
        ));
    }
    let n_components = labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u32 == l)
        .count();
    Ok(ComponentsOutcome {
        labels,
        n_components,
        rounds,
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

    fn rmat_adj(scale: u32) -> Csr {
        let p = RmatParams::graph500(scale);
        let lower = to_lower_triangular(&generate_edges(&p));
        symmetric_adjacency(p.n_vertices(), &lower)
    }

    #[test]
    fn two_components_get_their_min_labels() {
        // 0-1-2 and 3-4, plus isolated 5.
        let adj = symmetric_adjacency(6, &[(1, 0), (2, 1), (4, 3)]);
        let out = run(&adj, &ComponentsConfig::new(Grid::single_node(2).unwrap())).unwrap();
        assert_eq!(out.labels, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(out.n_components, 3);
    }

    #[test]
    fn path_graph_propagates_to_one_component() {
        let adj = symmetric_adjacency(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let out = run(&adj, &ComponentsConfig::new(Grid::single_node(3).unwrap())).unwrap();
        assert_eq!(out.labels, vec![0; 5]);
        assert_eq!(out.n_components, 1);
        // label 0 walks one hop per round down the path, then one empty
        // frontier round closes the traversal
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn rmat_components_match_reference_two_nodes() {
        let adj = rmat_adj(7);
        let cfg = ComponentsConfig::new(Grid::new(2, 2).unwrap());
        let out = run(&adj, &cfg).unwrap(); // validated inside run()
        assert!(out.n_components >= 1);
        let biggest = out
            .labels
            .iter()
            .filter(|&&l| l == out.labels[0])
            .count();
        assert!(biggest > 1, "R-MAT core is connected");
    }

    #[test]
    fn logical_trace_matches_sequential_round_traffic() {
        let adj = rmat_adj(6);
        let mut cfg = ComponentsConfig::new(Grid::single_node(2).unwrap());
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&adj, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        let (_, traffic) = sequential_rounds(&adj);
        let expected: u64 = traffic.iter().sum();
        assert_eq!(
            m.total(),
            expected,
            "dedup'd frontier makes message counts schedule-independent"
        );
        assert_eq!(out.rounds as usize, traffic.len());
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let adj = rmat_adj(5);
        let mut cfg = ComponentsConfig::new(Grid::single_node(2).unwrap());
        let base = run(&adj, &cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&adj, &cfg).unwrap();
        assert_eq!(out.labels, base.labels);
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
