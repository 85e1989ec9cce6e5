//! Edge Jaccard similarity — §IV-A: "We are actively using ActorProf in
//! our workloads, to name a few - Influence Maximization, Jaccard
//! Similarity ..." (the latter from Elmougy et al., ISC'24).
//!
//! For every edge `(u, v)` of an undirected graph, the Jaccard coefficient
//! is `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`. The FA-BSP formulation mirrors
//! triangle counting: the owner of `u` enumerates wedges `(w, v)` with
//! `w ∈ N(u)` and sends an intersection probe to the owner of `w`'s
//! adjacency; each confirmed probe increments the edge's intersection
//! counter at the edge's owner (a second mailbox carries the
//! confirmations).

use actorprof::TraceBundle;
use fabsp_graph::{Csr, Distribution};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::common::{AppError, DestBuckets, RunConfig};

/// Configuration for a Jaccard run: just the shared [`RunConfig`] (the
/// graph is the workload knob).
pub type JaccardConfig = RunConfig;

/// Result of a Jaccard run.
#[derive(Debug)]
pub struct JaccardOutcome {
    /// Per-edge coefficients, keyed `(u, v)` with `u < v`.
    pub coefficients: HashMap<(u32, u32), f64>,
    /// Sum of all coefficients (a convenient scalar checksum), folded in
    /// sorted edge order so the bits don't depend on hash iteration.
    pub total: f64,
    /// The collected traces.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// Sequential reference: Jaccard per undirected edge.
pub fn sequential_jaccard(adj: &Csr) -> HashMap<(u32, u32), f64> {
    let mut out = HashMap::new();
    for u in 0..adj.n() {
        for &v in adj.row(u) {
            let v = v as usize;
            if u >= v {
                continue;
            }
            let inter = intersection_size(adj.row(u), adj.row(v));
            let union = adj.degree(u) + adj.degree(v) - inter;
            let j = if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            out.insert((u as u32, v as u32), j);
        }
    }
    out
}

fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut x, mut y, mut n) = (0, 0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                x += 1;
                y += 1;
            }
        }
    }
    n
}

/// Wedge probe: does `w`'s adjacency contain `v`? Packed `(w << 32) | v`
/// on mailbox 0 with the reply routed back to the probing edge on
/// mailbox 1 as `(u << 32) | v` (the edge id).
fn pack(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

fn unpack(msg: u64) -> (u32, u32) {
    ((msg >> 32) as u32, (msg & 0xffff_ffff) as u32)
}

/// Probe message: check edge (w, v) on w's owner; on success credit edge
/// (u, v) owned by the sender. Two u64s won't fit one message, so the
/// probe carries `(w, v)` and the *edge id* rides in a parallel field.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    wv: u64,
    edge: u64,
}

/// Run distributed edge-Jaccard over a symmetric adjacency CSR (vertices
/// owned 1D cyclically), validated against [`sequential_jaccard`].
pub fn run(adj: &Csr, config: &JaccardConfig) -> Result<JaccardOutcome, AppError> {
    let n_pes = config.grid.n_pes();
    let dist = Distribution::cyclic(n_pes);

    let report = config.profiler().run(|pe, prof| {
        let me = pe.rank();
        // intersection counters for edges (u, v) with u < v owned by
        // owner(u) = me
        let counts: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
        let c = Rc::clone(&counts);
        let handler_dist = dist.clone();
        let mut actor = prof
            .selector(2, move |mb, msg: Probe, from, ctx| match mb {
                0 => {
                    // probe: is v in N(w)? (w owned by this PE)
                    let (w, v) = unpack(msg.wv);
                    debug_assert_eq!(handler_dist.owner(w as usize), ctx.rank());
                    if adj.row(w as usize).binary_search(&v).is_ok() {
                        ctx.send(1, msg, from as usize);
                    }
                }
                1 => {
                    // confirmation for our edge
                    *c.borrow_mut().entry(msg.edge).or_insert(0) += 1;
                }
                _ => unreachable!(),
            })
            .expect("selector construction");
        actor.chain_done(1, 0).expect("confirmations follow probes");

        actor
            .execute(pe, |ctx| {
                let mut probes = DestBuckets::new(ctx.n_pes());
                for u in dist.rows_of(me, adj.n()) {
                    for &v in adj.row(u) {
                        let v_usize = v as usize;
                        if u >= v_usize {
                            continue; // each undirected edge probed once
                        }
                        let edge = pack(u as u32, v);
                        // wedge probes: for each w in N(u), ask owner(w)
                        // whether (w, v) is an edge
                        for &w in adj.row(u) {
                            if w == v {
                                continue;
                            }
                            probes
                                .stage(
                                    ctx,
                                    0,
                                    dist.owner(w as usize),
                                    Probe {
                                        wv: pack(w, v),
                                        edge,
                                    },
                                )
                                .expect("probe send");
                        }
                    }
                }
                probes.send_all(ctx, 0).expect("probe send");
                ctx.done(0).expect("done(0)");
            })
            .expect("jaccard execute");

        // coefficients for edges owned by this PE
        let counts = counts.borrow();
        let pairs: Vec<((u32, u32), f64)> = dist
            .rows_of(me, adj.n())
            .into_iter()
            .flat_map(|u| {
                adj.row(u)
                    .iter()
                    .filter(move |&&v| u < v as usize)
                    .map(move |&v| (u as u32, v))
            })
            .map(|(u, v)| {
                let inter = counts.get(&pack(u, v)).copied().unwrap_or(0) as usize;
                let union = adj.degree(u as usize) + adj.degree(v as usize) - inter;
                let j = if union == 0 {
                    0.0
                } else {
                    inter as f64 / union as f64
                };
                ((u, v), j)
            })
            .collect();
        pairs
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let mut sorted: Vec<((u32, u32), f64)> = per_pe.into_iter().flatten().collect();
    sorted.sort_unstable_by_key(|&(edge, _)| edge);
    let total = sorted.iter().map(|&(_, j)| j).sum();
    let coefficients: HashMap<(u32, u32), f64> = sorted.into_iter().collect();

    let reference = sequential_jaccard(adj);
    if coefficients.len() != reference.len() {
        return Err(AppError::Validation(format!(
            "{} edges scored, reference has {}",
            coefficients.len(),
            reference.len()
        )));
    }
    for (edge, j) in &reference {
        let got = coefficients.get(edge).copied().unwrap_or(f64::NAN);
        if (got - j).abs() > 1e-12 {
            return Err(AppError::Validation(format!(
                "edge {edge:?}: distributed {got} != reference {j}"
            )));
        }
    }
    Ok(JaccardOutcome {
        coefficients,
        total,
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
    fn triangle_edges_share_one_neighbour() {
        // K3 edge (u,v): intersection {w} = 1; union = N(u) ∪ N(v) =
        // {u, v, w} has 3 members (u ∈ N(v), v ∈ N(u)) => J = 1/3.
        let adj = symmetric_adjacency(3, &[(1, 0), (2, 0), (2, 1)]);
        let out = run(&adj, &JaccardConfig::new(Grid::single_node(2).unwrap())).unwrap();
        assert_eq!(out.coefficients.len(), 3);
        for (&edge, &j) in &out.coefficients {
            assert!((j - 1.0 / 3.0).abs() < 1e-12, "{edge:?}: {j}");
        }
        assert!((out.total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_edges_share_nothing() {
        let adj = symmetric_adjacency(4, &[(1, 0), (2, 1), (3, 2)]);
        let out = run(&adj, &JaccardConfig::new(Grid::single_node(2).unwrap())).unwrap();
        for (&edge, &j) in &out.coefficients {
            assert_eq!(j, 0.0, "{edge:?}");
        }
    }

    #[test]
    fn matches_reference_on_rmat_two_nodes() {
        let p = RmatParams::graph500(6);
        let lower = to_lower_triangular(&generate_edges(&p));
        let adj = symmetric_adjacency(p.n_vertices(), &lower);
        let cfg = JaccardConfig::new(Grid::new(2, 2).unwrap());
        let out = run(&adj, &cfg).unwrap();
        assert!(!out.coefficients.is_empty());
        assert!(out.total > 0.0, "R-MAT graphs have triangles");
    }

    #[test]
    fn traced_run_produces_two_mailbox_papi_lines() {
        let adj = symmetric_adjacency(4, &[(1, 0), (2, 0), (2, 1), (3, 2)]);
        let mut cfg = JaccardConfig::new(Grid::single_node(2).unwrap());
        cfg.trace = TraceConfig::off()
            .with_logical()
            .with_papi(actorprof_trace::PapiConfig::case_study());
        let out = run(&adj, &cfg).unwrap();
        let has_both_mailboxes = (0..2).any(|pe| {
            let recs = out.bundle.papi_records(pe);
            recs.iter().any(|r| r.mailbox_id == 0) && recs.iter().any(|r| r.mailbox_id == 1)
        });
        assert!(has_both_mailboxes, "probes and confirmations both traced");
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let adj = symmetric_adjacency(4, &[(1, 0), (2, 0), (2, 1), (3, 2)]);
        let mut cfg = JaccardConfig::new(Grid::single_node(2).unwrap());
        let base = run(&adj, &cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&adj, &cfg).unwrap();
        assert_eq!(out.total.to_bits(), base.total.to_bits());
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
