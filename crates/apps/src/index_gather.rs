//! Index-gather — bale's `ig` kernel as a two-mailbox selector.
//!
//! Each PE owns a slice of a distributed table and issues random reads:
//! a request `(requester-local slot, global index)` goes to the owner on
//! **mailbox 0**; the owner's handler answers with the table value on
//! **mailbox 1**; the requester's handler stores it. Mailbox 1's done is
//! chained after mailbox 0 — the canonical request/response termination
//! pattern of HClib-Actor selectors.

use actorprof::TraceBundle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Index-gather workload parameters.
#[derive(Debug, Clone)]
pub struct IndexGatherParams {
    /// Table entries owned by each PE.
    pub table_size_per_pe: usize,
    /// Reads issued by each PE.
    pub reads_per_pe: usize,
}

impl Default for IndexGatherParams {
    /// A small default.
    fn default() -> Self {
        IndexGatherParams {
            table_size_per_pe: 512,
            reads_per_pe: 2048,
        }
    }
}

impl AppParams for IndexGatherParams {
    const SEED: u64 = 0x16A7;
}

/// Configuration for an index-gather run: the shared [`RunConfig`] plus
/// [`IndexGatherParams`].
pub type IndexGatherConfig = RunConfig<IndexGatherParams>;

/// Result of an index-gather run.
#[derive(Debug)]
pub struct IndexGatherOutcome {
    /// Number of reads whose gathered value matched the table definition
    /// (validated to equal all of them).
    pub correct_reads: u64,
    /// The collected traces.
    pub bundle: TraceBundle,
}

/// The table value at global index `g` (a recomputable definition, so the
/// requester can validate without a second communication round).
#[inline]
fn table_value(g: u64) -> u64 {
    g.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

/// Message wire format for requests: `(slot << 40) | local_index`; replies
/// carry `(slot << 40) | (value & MASK)` — values are truncated to 40 bits
/// for the test workload (documented limitation of the packed format).
const SLOT_SHIFT: u32 = 40;
const VAL_MASK: u64 = (1 << SLOT_SHIFT) - 1;

/// Run the index-gather kernel.
pub fn run(config: &IndexGatherConfig) -> Result<IndexGatherOutcome, AppError> {
    let table = config.table_size_per_pe;
    let report = config.profiler().run(|pe, prof| {
        // local slice of the distributed table
        let my_base = (pe.rank() * table) as u64;
        let local: Vec<u64> = (0..table as u64)
            .map(|i| table_value(my_base + i) & VAL_MASK)
            .collect();
        let gathered = Rc::new(RefCell::new(vec![0u64; config.reads_per_pe]));
        let g = Rc::clone(&gathered);
        let mut actor = prof
            .selector(2, move |mb, msg: u64, from, ctx| match mb {
                0 => {
                    // request: answer with the table value, same packing
                    let slot = msg >> SLOT_SHIFT;
                    let local_idx = (msg & VAL_MASK) as usize;
                    let value = local[local_idx];
                    ctx.send(1, (slot << SLOT_SHIFT) | value, from as usize);
                }
                1 => {
                    // response: store gathered value at the request slot
                    let slot = (msg >> SLOT_SHIFT) as usize;
                    g.borrow_mut()[slot] = msg & VAL_MASK;
                }
                _ => unreachable!(),
            })
            .expect("selector construction");
        actor.chain_done(1, 0).expect("chain response after request");
        let n_pes = pe.n_pes();
        let indices: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(config.seed ^ ((pe.rank() as u64) << 24));
            (0..config.reads_per_pe)
                .map(|_| rng.gen_range(0..(n_pes * table) as u64))
                .collect()
        };
        actor
            .execute(pe, |ctx| {
                let mut requests = DestBuckets::new(n_pes);
                for (slot, &global) in indices.iter().enumerate() {
                    let owner = (global as usize) / table;
                    let local_idx = (global as usize) % table;
                    let msg = ((slot as u64) << SLOT_SHIFT) | local_idx as u64;
                    requests.stage(ctx, 0, owner, msg).expect("request send");
                }
                requests.send_all(ctx, 0).expect("request send");
                ctx.done(0).expect("done(0)");
            })
            .expect("index-gather execute");
        let correct = gathered
            .borrow()
            .iter()
            .zip(&indices)
            .filter(|(got, &global)| **got == table_value(global) & VAL_MASK)
            .count() as u64;
        correct
    })?;

    let (per_pe_correct, bundle) = (report.results, report.bundle);
    let correct_reads: u64 = per_pe_correct.iter().sum();
    let expected = (config.reads_per_pe * config.grid.n_pes()) as u64;
    if correct_reads != expected {
        return Err(AppError::Validation(format!(
            "index-gather: {correct_reads}/{expected} reads correct"
        )));
    }
    Ok(IndexGatherOutcome {
        correct_reads,
        bundle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_shmem::Grid;

    #[test]
    fn gathers_correct_values_one_node() {
        let mut cfg = IndexGatherConfig::new(Grid::single_node(3).unwrap());
        cfg.reads_per_pe = 200;
        cfg.table_size_per_pe = 64;
        let out = run(&cfg).unwrap();
        assert_eq!(out.correct_reads, 600);
    }

    #[test]
    fn gathers_correct_values_two_nodes_with_traces() {
        let mut cfg = IndexGatherConfig::new(Grid::new(2, 2).unwrap());
        cfg.reads_per_pe = 150;
        cfg.table_size_per_pe = 32;
        cfg.trace = TraceConfig::off().with_logical().with_overall();
        let out = run(&cfg).unwrap();
        assert_eq!(out.correct_reads, 600);
        let m = out.bundle.logical_matrix().unwrap();
        // requests + responses: each PE sends 150 requests and answers
        // whatever it was asked, so total messages = 2 * 600.
        assert_eq!(m.total(), 1200);
        assert!(out.bundle.has_overall());
    }

    #[test]
    fn value_packing_roundtrips() {
        for g in [0u64, 1, 12345, 99_999] {
            let v = table_value(g) & VAL_MASK;
            assert!(v <= VAL_MASK);
            let packed = (7u64 << SLOT_SHIFT) | v;
            assert_eq!(packed >> SLOT_SHIFT, 7);
            assert_eq!(packed & VAL_MASK, v);
        }
    }
}
