//! Histogram — the paper's Listings 1–2 and bale's `histo` kernel.
//!
//! Every PE sends `updates_per_pe` increment messages at (seeded) random
//! global table slots; the owning PE's handler increments its local table
//! *without atomics* (single-threaded PEs process one message at a time).

use actorprof::TraceBundle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Histogram workload parameters.
#[derive(Debug, Clone)]
pub struct HistogramParams {
    /// Table slots owned by each PE.
    pub table_size_per_pe: usize,
    /// Increment messages issued by each PE.
    pub updates_per_pe: usize,
}

impl Default for HistogramParams {
    /// A small default.
    fn default() -> Self {
        HistogramParams {
            table_size_per_pe: 1024,
            updates_per_pe: 4096,
        }
    }
}

impl AppParams for HistogramParams {
    const SEED: u64 = 0x4157_0001;
}

/// Configuration for a histogram run: the shared [`RunConfig`] plus
/// [`HistogramParams`].
pub type HistogramConfig = RunConfig<HistogramParams>;

/// Result of a histogram run.
#[derive(Debug)]
pub struct HistogramOutcome {
    /// Sum over the whole distributed table (= total updates issued).
    pub total_updates: u64,
    /// Per-PE sums of their local tables.
    pub per_pe_updates: Vec<u64>,
    /// The collected traces.
    pub bundle: TraceBundle,
}

/// Run the histogram kernel. Validates that every update landed exactly
/// once (the total table mass equals the number of sends).
pub fn run(config: &HistogramConfig) -> Result<HistogramOutcome, AppError> {
    let table = config.table_size_per_pe;
    let report = config.profiler().run(|pe, prof| {
        let larray = Rc::new(RefCell::new(vec![0u64; table]));
        let h = Rc::clone(&larray);
        let mut actor = prof
            .selector(1, move |_mb, slot: u64, _from, _ctx| {
                // handler work: one table update
                fabsp_hwpc::Cost::instructions(6).charge();
                h.borrow_mut()[slot as usize] += 1;
            })
            .expect("selector construction");
        let n_pes = pe.n_pes();
        actor
            .execute(pe, |ctx| {
                let mut rng = StdRng::seed_from_u64(config.seed ^ ((ctx.rank() as u64) << 32));
                let mut updates = DestBuckets::new(n_pes);
                for _ in 0..config.updates_per_pe {
                    let global: usize = rng.gen_range(0..n_pes * table);
                    updates
                        .stage(ctx, 0, global / table, (global % table) as u64)
                        .expect("histogram send");
                }
                updates.send_all(ctx, 0).expect("histogram send");
                ctx.done(0).expect("done(0)");
            })
            .expect("histogram execute");
        let local_sum: u64 = larray.borrow().iter().sum();
        local_sum
    })?;

    let (per_pe_updates, bundle) = (report.results, report.bundle);
    let total_updates: u64 = per_pe_updates.iter().sum();
    let expected = (config.updates_per_pe * config.grid.n_pes()) as u64;
    if total_updates != expected {
        return Err(AppError::Validation(format!(
            "histogram mass {total_updates} != sends {expected}"
        )));
    }
    Ok(HistogramOutcome {
        total_updates,
        per_pe_updates,
        bundle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_shmem::Grid;

    #[test]
    fn histogram_conserves_updates_one_node() {
        let mut cfg = HistogramConfig::new(Grid::single_node(4).unwrap());
        cfg.updates_per_pe = 500;
        cfg.table_size_per_pe = 64;
        let out = run(&cfg).unwrap();
        assert_eq!(out.total_updates, 2000);
        assert_eq!(out.per_pe_updates.len(), 4);
    }

    #[test]
    fn histogram_conserves_updates_two_nodes() {
        let mut cfg = HistogramConfig::new(Grid::new(2, 2).unwrap());
        cfg.updates_per_pe = 400;
        cfg.table_size_per_pe = 32;
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&cfg).unwrap();
        assert_eq!(out.total_updates, 1600);
        // logical matrix row totals must equal sends per PE
        let m = out.bundle.logical_matrix().unwrap();
        assert_eq!(m.row_totals(), vec![400; 4]);
        assert_eq!(m.total(), 1600);
    }

    #[test]
    fn histogram_is_deterministic_given_seed() {
        let mut cfg = HistogramConfig::new(Grid::single_node(2).unwrap());
        cfg.updates_per_pe = 300;
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.per_pe_updates, b.per_pe_updates);
        cfg.seed ^= 1;
        let c = run(&cfg).unwrap();
        // same total, (almost certainly) different spread
        assert_eq!(c.total_updates, a.total_updates);
    }
}
