//! Distributed triangle counting — the ActorProf case study (§IV,
//! Algorithm 1).
//!
//! Each actor iterates the rows of `L` it owns; for every wedge — a pair
//! of neighbours `k < j` of a local row `i` — it sends an active message
//! `(j, k)` to the PE owning row `j`, whose handler increments its local
//! counter if edge `(j, k)` exists. `WAIT()` is the selector's `execute`
//! termination; `AllReduce` sums the per-PE counters.
//!
//! The row-ownership map is pluggable ([`DistKind`]): **1D Cyclic**
//! (`j % p` — Algorithm 1's `FindOwner`) or **1D Range** (equal-nnz
//! contiguous blocks). Comparing the two under ActorProf is the entire
//! §IV-D evaluation.
//!
//! In-process substitution: the CSR is shared read-only by all PE threads
//! (`&Csr`), standing in for each PE's local rows + remote row storage;
//! every PE only *iterates* rows it owns and only *answers* for rows it
//! owns, so the communication pattern is exactly the distributed one.

use actorprof::TraceBundle;
use fabsp_graph::{triangle_ref, Csr, Distribution};
use fabsp_hwpc::Cost;
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Which row distribution to run under (§IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// 1D Cyclic: `owner(row) = row % p` (similar vertex counts).
    Cyclic,
    /// 1D Range: contiguous blocks with similar edge (nnz) counts.
    RangeByNnz,
}

impl DistKind {
    /// Resolve against a concrete matrix and PE count.
    pub fn resolve(self, csr: &Csr, n_pes: usize) -> Distribution {
        match self {
            DistKind::Cyclic => Distribution::cyclic(n_pes),
            DistKind::RangeByNnz => Distribution::range_by_nnz(csr, n_pes),
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            DistKind::Cyclic => "1D Cyclic",
            DistKind::RangeByNnz => "1D Range",
        }
    }
}

/// Triangle-counting parameters. The paper uses 1×16 and 2×16 grids and
/// profiles only the counting kernel; graph construction and validation
/// are outside the trace window, as here. Validation is not optional:
/// every [`count_triangles`] call checks its answer.
#[derive(Debug, Clone)]
pub struct TriangleParams {
    /// Row distribution.
    pub dist: DistKind,
}

impl Default for TriangleParams {
    /// Cyclic distribution.
    fn default() -> Self {
        TriangleParams {
            dist: DistKind::Cyclic,
        }
    }
}

impl AppParams for TriangleParams {}

/// Configuration for a triangle-counting run: the shared [`RunConfig`]
/// plus [`TriangleParams`].
pub type TriangleConfig = RunConfig<TriangleParams>;

impl TriangleConfig {
    /// Select the distribution.
    pub fn with_dist(mut self, dist: DistKind) -> TriangleConfig {
        self.dist = dist;
        self
    }
}

/// Result of a distributed triangle count.
#[derive(Debug)]
pub struct TriangleOutcome {
    /// The distributed count (validated against the reference).
    pub triangles: u64,
    /// Wedge messages the handlers received, summed over PEs (validated
    /// against `csr.wedge_count()`).
    pub wedges: u64,
    /// Per-PE local triangle counters.
    pub per_pe_triangles: Vec<u64>,
    /// The collected traces.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// Pack a wedge `(j, k)` into the 8-byte message of Algorithm 1.
#[inline]
fn pack(j: u32, k: u32) -> u64 {
    ((j as u64) << 32) | k as u64
}

/// Count triangles of the lower-triangular matrix `l` with one actor per
/// PE (Algorithm 1 under the given distribution).
///
/// Every call validates its answer, outside the trace window (§IV-C's
/// assertion): the summed count must equal
/// [`triangle_ref::count_by_intersection`], and the wedges delivered to
/// the handlers must equal `l.wedge_count()`, so a lost or duplicated
/// wedge fails even when it would not change the count. Either mismatch
/// is an [`AppError::Validation`].
pub fn count_triangles(l: &Csr, config: &TriangleConfig) -> Result<TriangleOutcome, AppError> {
    let n_pes = config.grid.n_pes();
    let dist = config.dist.resolve(l, n_pes);

    let report = config.profiler().run(|pe, prof| {
        let counter = Rc::new(RefCell::new(0u64));
        let c = Rc::clone(&counter);
        let handler_dist = dist.clone();
        let mut actor = prof
            .selector(1, move |_mb, msg: u64, _from, _ctx| {
                // ActorProcess(j, k): if l_jk exists, count a triangle.
                let j = (msg >> 32) as usize;
                let k = (msg & 0xffff_ffff) as u32;
                debug_assert_eq!(handler_dist.owner(j), _ctx.rank(), "wedge misrouted");
                // handler work: one binary search over row j
                let probes = (l.degree(j).max(1) as u64).ilog2() as u64 + 1;
                Cost::instructions(10 + 6 * probes).charge();
                if l.has_edge(j, k) {
                    *c.borrow_mut() += 1;
                }
            })
            .expect("selector construction");

        actor
            .execute(pe, |ctx| {
                let me = ctx.rank();
                let mut wedges = DestBuckets::new(ctx.n_pes());
                for i in dist.rows_of(me, l.n()) {
                    let row = l.row(i);
                    // find two distinct neighbours l_ij, l_ik with k < j
                    for (a, &j) in row.iter().enumerate() {
                        let owner = dist.owner(j as usize);
                        for &k in &row[..a] {
                            wedges.stage(ctx, 0, owner, pack(j, k)).expect("wedge send");
                        }
                    }
                }
                wedges.send_all(ctx, 0).expect("wedge send");
                ctx.done(0).expect("done(0)");
            })
            .expect("triangle execute");

        // `pulled` counts the wedges the conveyor handed to this PE's
        // handler; the conveyor keeps it anyway, so it costs nothing here.
        let local = *counter.borrow();
        (local, actor.stats().pulled)
    })?;

    let (bundle, recovery) = (report.bundle, report.recovery);
    let (per_pe_triangles, per_pe_wedges): (Vec<u64>, Vec<u64>) =
        report.results.into_iter().unzip();
    let triangles: u64 = per_pe_triangles.iter().sum();
    let wedges: u64 = per_pe_wedges.iter().sum();

    let reference = triangle_ref::count_by_intersection(l);
    if triangles != reference {
        return Err(AppError::Validation(format!(
            "distributed count {triangles} != reference {reference}"
        )));
    }
    let expected = l.wedge_count();
    if wedges != expected {
        return Err(AppError::Validation(format!(
            "{wedges} wedges received, {expected} in the graph"
        )));
    }

    Ok(TriangleOutcome {
        triangles,
        wedges,
        per_pe_triangles,
        bundle,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_graph::edgelist::to_lower_triangular;
    use fabsp_graph::rmat::{generate_edges, RmatParams};
    use fabsp_shmem::Grid;

    fn rmat_csr(scale: u32) -> Csr {
        let p = RmatParams::graph500(scale);
        let edges = to_lower_triangular(&generate_edges(&p));
        Csr::from_edges(p.n_vertices(), &edges)
    }

    #[test]
    fn counts_k4_under_both_distributions() {
        let l = Csr::from_edges(4, &[(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)]);
        for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
            let cfg = TriangleConfig::new(Grid::single_node(2).unwrap()).with_dist(dist);
            let out = count_triangles(&l, &cfg).unwrap();
            assert_eq!(out.triangles, 4, "{}", dist.label());
        }
    }

    #[test]
    fn matches_reference_on_rmat_one_node() {
        let l = rmat_csr(7);
        let cfg = TriangleConfig::new(Grid::single_node(4).unwrap());
        let out = count_triangles(&l, &cfg).unwrap();
        assert_eq!(out.triangles, triangle_ref::count_by_wedges(&l));
        assert_eq!(out.wedges, l.wedge_count());
    }

    #[test]
    fn matches_reference_on_rmat_two_nodes_range() {
        let l = rmat_csr(7);
        let cfg = TriangleConfig::new(Grid::new(2, 2).unwrap()).with_dist(DistKind::RangeByNnz);
        let out = count_triangles(&l, &cfg).unwrap();
        assert_eq!(out.triangles, triangle_ref::count_by_intersection(&l));
    }

    #[test]
    fn logical_trace_counts_every_wedge() {
        let l = rmat_csr(6);
        let cfg = TriangleConfig::new(Grid::single_node(4).unwrap())
            .with_trace(TraceConfig::off().with_logical());
        let out = count_triangles(&l, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        assert_eq!(m.total(), out.wedges, "one message per wedge");
    }

    #[test]
    fn range_trace_is_lower_triangular() {
        // The (L) observation of §IV-D: under 1D Range the PE-level send
        // matrix has no mass above the diagonal.
        let l = rmat_csr(8);
        let cfg = TriangleConfig::new(Grid::single_node(4).unwrap())
            .with_dist(DistKind::RangeByNnz)
            .with_trace(TraceConfig::off().with_logical());
        let out = count_triangles(&l, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        assert!(
            m.is_lower_triangular(),
            "1D Range send matrix must be lower triangular"
        );
    }

    #[test]
    fn cyclic_concentrates_recvs_on_low_pes() {
        let l = rmat_csr(8);
        let cfg = TriangleConfig::new(Grid::single_node(4).unwrap())
            .with_trace(TraceConfig::off().with_logical());
        let out = count_triangles(&l, &cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        let recvs = m.col_totals();
        // hub rows live at low ids; cyclic maps them to PE0
        let max = *recvs.iter().max().unwrap();
        assert_eq!(recvs[0], max, "PE0 should receive the most: {recvs:?}");
    }
}
