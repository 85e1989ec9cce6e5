//! Distributed bucket/integer sort — the canonical FA-BSP stress test
//! (NAS IS-style): every key is exchanged over the conveyors exactly once,
//! so message volume equals data volume and the network is the whole cost.
//!
//! Each PE draws `keys_per_pe` uniform keys from `0..n_pes * bucket_size`,
//! routes every key to its bucket owner (`key / bucket_size`), and the
//! owner sorts its bucket locally after the exchange. The rank-order
//! concatenation of the buckets is then globally sorted. Because each
//! bucket is sorted *after* delivery, the result is independent of
//! delivery order by construction — the property the schedule-fuzz matrix
//! asserts bit-for-bit.

use actorprof::TraceBundle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// Integer-sort workload parameters; `cfg.seed` seeds the key streams.
#[derive(Debug, Clone)]
pub struct IntSortParams {
    /// Keys drawn by each PE.
    pub keys_per_pe: usize,
    /// Key range owned by each PE: PE `p` owns `[p*bucket_size,
    /// (p+1)*bucket_size)`.
    pub bucket_size: u64,
}

impl Default for IntSortParams {
    /// A small default.
    fn default() -> Self {
        IntSortParams {
            keys_per_pe: 2048,
            bucket_size: 512,
        }
    }
}

impl AppParams for IntSortParams {
    const SEED: u64 = 0x1507;
}

/// Configuration for an integer-sort run: the shared [`RunConfig`] plus
/// [`IntSortParams`].
pub type IntSortConfig = RunConfig<IntSortParams>;

/// Result of an integer-sort run.
#[derive(Debug)]
pub struct IntSortOutcome {
    /// The globally sorted keys (rank-order concatenation of the sorted
    /// buckets).
    pub sorted: Vec<u64>,
    /// Keys each PE's bucket received — uniform keys spread evenly, so
    /// this doubles as a load-balance sanity signal.
    pub received_per_pe: Vec<u64>,
    /// The collected traces.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// The per-PE key stream a seed names (shared with the sequential oracle).
fn keys_of_pe(config: &IntSortConfig, rank: usize, n_pes: usize) -> Vec<u64> {
    let space = n_pes as u64 * config.bucket_size;
    let mut rng = StdRng::seed_from_u64(config.seed ^ ((rank as u64) << 32));
    (0..config.keys_per_pe)
        .map(|_| rng.gen_range(0..space))
        .collect()
}

/// Sequential oracle: every PE's key stream, globally sorted.
pub fn sequential_sort(config: &IntSortConfig) -> Vec<u64> {
    let n_pes = config.grid.n_pes();
    let mut all: Vec<u64> = (0..n_pes)
        .flat_map(|rank| keys_of_pe(config, rank, n_pes))
        .collect();
    all.sort_unstable();
    all
}

/// Run the bucket sort. Validates against [`sequential_sort`].
pub fn run(config: &IntSortConfig) -> Result<IntSortOutcome, AppError> {
    let bucket_size = config.bucket_size;
    let report = config.profiler().run(|pe, prof| {
        let bucket = Rc::new(RefCell::new(Vec::<u64>::new()));
        let b = Rc::clone(&bucket);
        let mut actor = prof
            .selector(1, move |_mb, key: u64, _from, _ctx| {
                b.borrow_mut().push(key);
            })
            .expect("selector construction");
        let n_pes = pe.n_pes();
        actor
            .execute(pe, |ctx| {
                let mut scatter = DestBuckets::new(n_pes);
                for key in keys_of_pe(config, ctx.rank(), n_pes) {
                    scatter
                        .stage(ctx, 0, (key / bucket_size) as usize, key)
                        .expect("key send");
                }
                scatter.send_all(ctx, 0).expect("key send");
                ctx.done(0).expect("done(0)");
            })
            .expect("intsort execute");
        // local sort after the exchange: delivery order is irrelevant
        let mut local = std::mem::take(&mut *bucket.borrow_mut());
        local.sort_unstable();
        local
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let received_per_pe: Vec<u64> = per_pe.iter().map(|b| b.len() as u64).collect();
    // every bucket must hold only its own key range
    for (rank, b) in per_pe.iter().enumerate() {
        let lo = rank as u64 * bucket_size;
        if !b.iter().all(|&k| k >= lo && k < lo + bucket_size) {
            return Err(AppError::Validation(format!(
                "bucket {rank} holds a key outside [{lo}, {})",
                lo + bucket_size
            )));
        }
    }
    let sorted: Vec<u64> = per_pe.into_iter().flatten().collect();
    if sorted != sequential_sort(config) {
        return Err(AppError::Validation(
            "bucket-sorted keys differ from the sequential oracle".into(),
        ));
    }
    Ok(IntSortOutcome {
        sorted,
        received_per_pe,
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
    fn sorts_globally_one_node() {
        let mut cfg = IntSortConfig::new(Grid::single_node(4).unwrap());
        cfg.keys_per_pe = 256;
        cfg.bucket_size = 64;
        let out = run(&cfg).unwrap();
        assert_eq!(out.sorted.len(), 1024);
        assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorts_globally_two_nodes_with_trace() {
        let mut cfg = IntSortConfig::new(Grid::new(2, 2).unwrap());
        cfg.keys_per_pe = 200;
        cfg.bucket_size = 32;
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&cfg).unwrap();
        let m = out.bundle.logical_matrix().unwrap();
        assert_eq!(m.total(), 800, "every key crosses the conveyor once");
        assert_eq!(m.row_totals(), vec![200; 4]);
        // uniform keys: received counts sum to the total and every
        // bucket got something at this scale
        assert_eq!(out.received_per_pe.iter().sum::<u64>(), 800);
        assert!(out.received_per_pe.iter().all(|&c| c > 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = IntSortConfig::new(Grid::single_node(2).unwrap());
        cfg.keys_per_pe = 128;
        cfg.bucket_size = 64;
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.sorted, b.sorted);
        cfg.seed ^= 0xABCD;
        let c = run(&cfg).unwrap();
        assert_ne!(a.sorted, c.sorted, "different seed, different keys");
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let mut cfg = IntSortConfig::new(Grid::single_node(2).unwrap());
        cfg.keys_per_pe = 64;
        cfg.bucket_size = 32;
        let base = run(&cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&cfg).unwrap();
        assert_eq!(out.sorted, base.sorted);
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
