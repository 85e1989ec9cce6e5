//! Random permutation — bale's `randperm`-style scatter kernel.
//!
//! A distributed array of `n_pes * slots_per_pe` values is permuted: each
//! PE scatters its local values to the owner of the permuted position.
//! Validation checks that the permuted array is exactly a rearrangement.

use actorprof::TraceBundle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Permutation workload parameters; `cfg.seed` seeds the global
/// permutation.
#[derive(Debug, Clone)]
pub struct PermuteParams {
    /// Array slots owned by each PE.
    pub slots_per_pe: usize,
}

impl Default for PermuteParams {
    /// A small default.
    fn default() -> Self {
        PermuteParams { slots_per_pe: 1024 }
    }
}

impl AppParams for PermuteParams {
    const SEED: u64 = 0x9E12;
}

/// Configuration for a permutation run: the shared [`RunConfig`] plus
/// [`PermuteParams`].
pub type PermuteConfig = RunConfig<PermuteParams>;

/// Result of a permutation run.
#[derive(Debug)]
pub struct PermuteOutcome {
    /// The permuted array, rank-order concatenation of every PE's slots:
    /// `permuted[perm[i]] == i` for the global permutation `perm`.
    pub permuted: Vec<u32>,
    /// Checksum (sum) of the permuted array — equals the source checksum.
    pub checksum: u64,
    /// The collected traces.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// The global permutation a seed names (shared with the sequential
/// oracle used by the test matrices).
pub fn permutation(n_total: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n_total as u32).collect();
    p.shuffle(&mut StdRng::seed_from_u64(seed));
    p
}

/// Wire format: `(local_slot << 32) | value`. Values are the global source
/// index, which fits 32 bits for every test/bench scale used here.
fn pack(slot: usize, value: u32) -> u64 {
    ((slot as u64) << 32) | value as u64
}

/// Run the permutation kernel.
pub fn run(config: &PermuteConfig) -> Result<PermuteOutcome, AppError> {
    let slots = config.slots_per_pe;
    let n_total = config.grid.n_pes() * slots;
    assert!(n_total < u32::MAX as usize, "packed format limit");
    // The global permutation (same on every PE; deterministic).
    let perm = permutation(n_total, config.seed);

    let report = config.profiler().run(|pe, prof| {
        let dest = Rc::new(RefCell::new(vec![u32::MAX; slots]));
        let d = Rc::clone(&dest);
        let mut actor = prof
            .selector(1, move |_mb, msg: u64, _from, _ctx| {
                let slot = (msg >> 32) as usize;
                let value = (msg & 0xffff_ffff) as u32;
                let prev = std::mem::replace(&mut d.borrow_mut()[slot], value);
                assert_eq!(prev, u32::MAX, "slot written twice: not a permutation");
            })
            .expect("selector construction");
        actor
            .execute(pe, |ctx| {
                let base = ctx.rank() * slots;
                let mut scatter = DestBuckets::new(ctx.n_pes());
                for i in 0..slots {
                    let src_global = (base + i) as u32;
                    let target = perm[base + i] as usize;
                    let (owner, slot) = (target / slots, target % slots);
                    // the "value" scattered is the source index itself
                    scatter
                        .stage(ctx, 0, owner, pack(slot, src_global))
                        .expect("scatter");
                }
                scatter.send_all(ctx, 0).expect("scatter");
                ctx.done(0).expect("done(0)");
            })
            .expect("permute execute");
        let local = dest.borrow();
        assert!(
            local.iter().all(|&v| v != u32::MAX),
            "every slot must be filled by a permutation"
        );
        local.clone()
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let permuted: Vec<u32> = per_pe.into_iter().flatten().collect();
    let checksum: u64 = permuted.iter().map(|&v| v as u64).sum();
    let expected: u64 = (0..n_total as u64).sum();
    if checksum != expected {
        return Err(AppError::Validation(format!(
            "permute checksum {checksum} != {expected}"
        )));
    }
    Ok(PermuteOutcome {
        permuted,
        checksum,
        bundle,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_shmem::Grid;

    #[test]
    fn permutation_rearranges_exactly_one_node() {
        let mut cfg = PermuteConfig::new(Grid::single_node(4).unwrap());
        cfg.slots_per_pe = 128;
        let out = run(&cfg).unwrap();
        assert_eq!(out.checksum, (0..512u64).sum());
        // scattered value at perm[i] is the source index i
        let perm = permutation(512, cfg.seed);
        for (i, &target) in perm.iter().enumerate() {
            assert_eq!(out.permuted[target as usize], i as u32);
        }
    }

    #[test]
    fn permutation_rearranges_exactly_two_nodes() {
        let mut cfg = PermuteConfig::new(Grid::new(2, 2).unwrap());
        cfg.slots_per_pe = 64;
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&cfg).unwrap();
        assert_eq!(out.checksum, (0..256u64).sum());
        let m = out.bundle.logical_matrix().unwrap();
        assert_eq!(m.total(), 256, "one message per element");
        assert_eq!(m.row_totals(), vec![64; 4]);
    }

    #[test]
    fn different_seeds_change_traffic_not_checksum() {
        let mut cfg = PermuteConfig::new(Grid::single_node(2).unwrap());
        cfg.slots_per_pe = 64;
        cfg.trace = TraceConfig::off().with_logical();
        let a = run(&cfg).unwrap();
        cfg.seed ^= 0xFF;
        let b = run(&cfg).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.permuted, b.permuted, "the permutation itself changed");
        let (ma, mb) = (
            a.bundle.logical_matrix().unwrap(),
            b.bundle.logical_matrix().unwrap(),
        );
        assert_eq!(ma.total(), mb.total());
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let mut cfg = PermuteConfig::new(Grid::single_node(2).unwrap());
        cfg.slots_per_pe = 32;
        let base = run(&cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&cfg).unwrap();
        assert_eq!(out.permuted, base.permuted);
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
